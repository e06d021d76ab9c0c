"""Self-tests of the benchmark: every output check must fail on a wrong
value, the tracer must attribute time and survive a vanished layer, and
BENCHMARK.json must name exactly the metrics the benchmark prints.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ---------------------------------------------------------------------------
# closed forms


def test_return_probs_match_exact_binomials():
    u = checks.srw_return_probs(40)
    for k in range(41):
        want = Fraction(comb(k, k // 2), 2**k) ** 2 if k % 2 == 0 else 0
        assert abs(u[k] - float(want)) < 1e-15


def test_expected_range_small_n():
    er = checks.srw_expected_ranges(4)
    # f_0 = f_1 = 1, f_2 = f_3 = 3/4: E R = 0, 1, 2, 11/4, 7/2
    assert er.tolist() == [0.0, 1.0, 2.0, 2.75, 3.5]


def test_set_prefix_ranges_counts_distinct_sites():
    pos = np.array([(1, 0), (0, 0), (1, 0), (1, 1)])
    assert checks.set_prefix_ranges(pos, [1, 2, 3, 4]) == [1, 2, 2, 3]


# ---------------------------------------------------------------------------
# each check fails on a wrong value


def test_mean_within_se():
    rng = np.random.default_rng(0)
    v = rng.normal(10.0, 1.0, 4000)
    checks.check_mean_within_se(v, 10.0)
    with pytest.raises(CheckFailure):
        checks.check_mean_within_se(v, 10.0 + 5 * v.std() / math.sqrt(v.size))


def test_close_and_equal():
    checks.check_close("x", [1.0, 2.0], [1.0, 2.0 + 1e-14], 1e-12)
    with pytest.raises(CheckFailure):
        checks.check_close("x", [1.0, 2.0], [1.0, 2.1], 1e-12)
    with pytest.raises(CheckFailure):
        checks.check_close("x", [1.0], [1.0, 2.0], 1e-12)
    with pytest.raises(CheckFailure):
        checks.check_equal("x", [1, 2], [1, 3])


def test_nonincreasing():
    checks.check_nonincreasing([1.0, 1.0, 0.75, 0.75])
    with pytest.raises(CheckFailure):
        checks.check_nonincreasing([1.0, 0.75, 0.8])


def test_increments_in_unit_interval():
    checks.check_increments_in_unit_interval([0.0, 1.0, 2.0, 2.75])
    with pytest.raises(CheckFailure):
        checks.check_increments_in_unit_interval([0.0, 1.0, 1.0])
    with pytest.raises(CheckFailure):
        checks.check_increments_in_unit_interval([0.0, 1.5])


def test_prefix_ranges():
    checks.check_prefix_ranges([4, 8], [3, 6])
    for ranges in ([3, 2], [5, 6], [0, 6], [3]):
        with pytest.raises(CheckFailure):
            checks.check_prefix_ranges([4, 8], ranges)


def test_identity_records():
    good = {"replica": 0, "dyadic_lhs": 5, "dyadic_rhs": 5, "dyadic_exact": True,
            "binary_lhs": 5, "binary_rhs": 5, "binary_exact": True, "q_ok": True}
    all_checks = ["binary", "dyadic", "q-kernel"]
    checks.check_identity_records([good], all_checks)
    for bad in ({"dyadic_rhs": 4}, {"binary_exact": False}, {"q_ok": False}):
        with pytest.raises(CheckFailure):
            checks.check_identity_records([{**good, **bad}], all_checks)


def test_summary_zero_violations():
    rows = [{"check": "dyadic", "paths": "8", "violations": "0"}]
    checks.check_summary_zero_violations(rows, ["dyadic"], 8)
    with pytest.raises(CheckFailure):
        checks.check_summary_zero_violations(
            [{**rows[0], "violations": "1"}], ["dyadic"], 8)
    with pytest.raises(CheckFailure):
        checks.check_summary_zero_violations(rows, ["dyadic"], 9)


# ---------------------------------------------------------------------------
# whole check lists on small real runs, then on tampered copies


def _run(tmp_path: Path, cfg: dict) -> Path:
    from rangelab import cli

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    return out


def _failed(out: Path, cfg: dict, spot: list) -> list:
    return [r["name"] for r in checks.run_checks(out, cfg, spot) if not r["ok"]]


def _edit_shard_record(out: Path, edit) -> None:
    path = out / "shard_00000.jsonl"
    lines = path.read_text().splitlines()
    rec = json.loads(lines[1])
    edit(rec)
    lines[1] = json.dumps(rec)
    path.write_text("\n".join(lines) + "\n")


def _edit_csv(path: Path, old: str, new: str) -> None:
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_deviations_checks(tmp_path):
    cfg = {"kind": "deviations", "distribution": "srw", "master_seed": 7,
           "replicas": 300, "params": {"side": "upper", "n_ladder": [10, 100],
                                       "b_schedule": [2.0, 2.0], "thresholds": [1.0]}}
    out = _run(tmp_path, cfg)
    assert _failed(out, cfg, [0, 5]) == []
    moments = out / "moments.csv"
    er100 = checks.read_csv(moments)[1]["er_exact"]
    _edit_csv(moments, er100, repr(float(er100) + 1e-6))
    assert _failed(out, cfg, [0, 5]) == ["report_moments"]
    _edit_shard_record(out, lambda rec: rec.update(range=rec["range"] + 1))
    assert "spot_set_recount" in _failed(out, cfg, [0])
    cfg_far = {**cfg, "replicas": 301}
    assert "records_complete" in _failed(out, cfg_far, [0])


def test_deviations_mean_check_catches_a_wrong_expectation(monkeypatch, tmp_path):
    cfg = {"kind": "deviations", "distribution": "srw", "master_seed": 7,
           "replicas": 300, "params": {"side": "upper", "n_ladder": [100],
                                       "b_schedule": [2.0], "thresholds": [1.0]}}
    out = _run(tmp_path, cfg)
    real = checks.srw_expected_ranges
    monkeypatch.setattr(checks, "srw_expected_ranges", lambda n: real(n) + 5.0)
    assert "mean_within_4se" in _failed(out, cfg, [])


def test_identities_checks(tmp_path):
    cfg = {"kind": "identities", "distribution": "srw", "master_seed": 3,
           "replicas": 6, "params": {"n": 64, "t": 16.0, "b_t": 4.0,
                                     "checks": ["dyadic", "binary", "q-kernel"]}}
    out = _run(tmp_path, cfg)
    assert _failed(out, cfg, [0, 1]) == []
    _edit_csv(out / "summary.csv", "dyadic,6,0,", "dyadic,6,1,")
    assert _failed(out, cfg, [0, 1]) == ["summary_zero_violations"]
    _edit_shard_record(out, lambda rec: rec.update(dyadic_lhs=rec["dyadic_lhs"] + 1))
    assert set(_failed(out, cfg, [0])) >= {"zero_violations", "spot_lhs_equal_set_count"}


def test_exact_checks(tmp_path):
    cfg = {"kind": "exact", "distribution": "srw", "master_seed": 0,
           "replicas": 1, "params": {"n": 64, "enumerate": True, "enumerate_n": 5}}
    out = _run(tmp_path, cfg)
    assert _failed(out, cfg, []) == []
    table = out / "table.csv"
    rows = checks.read_csv(table)
    _edit_csv(table, f"\n3,{rows[3]['u']},", "\n3,1e-3,")
    assert _failed(out, cfg, []) == ["u_closed_form"]
    (tmp_path / "b").mkdir()
    out2 = _run(tmp_path / "b", cfg)
    rows = checks.read_csv(out2 / "table.csv")
    bad_f = repr(float(rows[11]["f"]) + 0.01)
    _edit_csv(out2 / "table.csv", f",{rows[11]['f']},{rows[11]['er']}",
              f",{bad_f},{rows[11]['er']}")
    assert _failed(out2, cfg, []) == ["f_nonincreasing"]
    _edit_csv(out2 / "table.csv", f",{rows[3]['er']},{rows[3]['er_enum']}",
              f",1.9,{rows[3]['er_enum']}")
    assert set(_failed(out2, cfg, [])) == {"f_nonincreasing", "er3_is_11_over_4",
                                           "er_increments_in_0_1"}
    _edit_csv(out2 / "table.csv", f",{rows[4]['er_enum']}\n", ",3.25\n")
    assert "er_enum_matches_renewal" in _failed(out2, cfg, [])


def test_lil_checks(tmp_path):
    cfg = {"kind": "lil", "distribution": "srw", "master_seed": 5,
           "replicas": 3, "params": {"n_max": 1024}}
    out = _run(tmp_path, cfg)
    assert _failed(out, cfg, [0, 2]) == []
    refs = out / "references.csv"
    _edit_csv(refs, "upper_lil_constant,3.14", "upper_lil_constant,3.04")
    assert _failed(out, cfg, [0, 2]) == ["upper_lil_constant_is_pi"]
    (out / "trajectories" / "replica_00001.csv").unlink()
    assert "trajectory_files" in _failed(out, cfg, [0])

    def drop_last(rec):
        rec["ranges"][-1] = rec["ranges"][-2] - 1
    _edit_shard_record(out, drop_last)
    assert {"ranges_monotone_and_at_most_m", "spot_set_recount"} <= set(
        _failed(out, cfg, [0]))


def test_foreign_shard_is_refused(tmp_path):
    cfg = {"kind": "lil", "distribution": "srw", "master_seed": 5,
           "replicas": 2, "params": {"n_max": 64}}
    out = _run(tmp_path, cfg)
    path = out / "shard_00000.jsonl"
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["config_hash"] = "0" * 64
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckFailure):
        checks.read_shards(out, cfg)


# ---------------------------------------------------------------------------
# tracing


def test_tracer_spans_counts_and_self_time():
    import rangelab.exact as exact
    import rangelab.experiments as experiments
    from rangelab.walks import builtin_distribution

    tracer = tracing.Tracer()
    tracer.install()
    try:
        # every module that bound the name by import sees the wrapper
        assert experiments.build_return_table is exact.build_return_table
        assert exact.build_return_table.__code__.co_name == "traced"
        exact._table_cache.clear()
        experiments.build_return_table(builtin_distribution("srw"), 3000)
    finally:
        tracer.uninstall()
    m = tracer.layer_metrics()
    assert m["exact.toeplitz_calls"] == 2
    assert m["fastpath.harvested_points"] > 0
    assert m["fastpath.power_sum_terms"] >= m["fastpath.harvested_points"]
    assert 0 < m["exact.build_self_s"] < m["exact.build_return_table_s"]
    assert m["exact.build_return_table_s"] == pytest.approx(
        m["exact.build_self_s"] + m["exact.toeplitz_s"] + m["fastpath.log_power_sums_s"])
    assert m["walks.sample_path_calls"] == 0 and m["rangestats.dyadic_s"] == 0
    # uninstall restores every binding
    assert experiments.build_return_table.__code__.co_name == "build_return_table"


def test_power_sum_terms_match_the_loop():
    la = np.sort(np.random.default_rng(1).uniform(-3.0, 0.0, 50))[::-1]
    k_lo, k_hi, tcut = 5, 40, 60.0
    want = sum(int((la >= -tcut / k).sum()) * 2 for k in range(k_lo, k_hi + 1))
    got = tracing._power_sum_work((la, la, k_lo, k_hi, tcut), {})
    assert got == {"fastpath.harvested_points": 100, "fastpath.power_sum_terms": want}


def test_vanished_layer_is_missing_not_a_crash(monkeypatch):
    gone = tracing.Target("walks.stream", "rangelab.walks", "no_such_function")
    monkeypatch.setattr(tracing, "TARGETS", (gone,) + tracing.TARGETS[1:])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    m = tracer.layer_metrics()
    assert tracer.missing == [gone]
    assert "walks.stream_s" not in m and "walks.stream_calls" not in m
    assert "walks.sample_path_s" in m


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py prints


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = list(tracing.LAYER_METRICS) + list(run.PER_LAYER_EXTRA)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.layer_unit(n) for n in layer_names}
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
