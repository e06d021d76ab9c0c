"""Experiment runner and command-line interface: config hashing,
shard determinism, resume, reports, and exit codes."""

import ast
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rangelab
from rangelab.cli import main
from rangelab.errors import InvalidConfig
from rangelab.experiments import (
    SHARD_SIZE,
    ExperimentConfig,
    load_config,
    plan_shards,
    run_experiment,
    run_report,
)

DEV_CFG = {
    "kind": "deviations",
    "distribution": "lazy-srw",
    "master_seed": 99,
    "replicas": 700,
    "params": {
        "side": "upper",
        "n_ladder": [64, 256],
        "b_schedule": [2.0, 2.0],
        "thresholds": [0.25],
    },
}


_SRW_STEPS = [[1, 0, 1, 4], [-1, 0, 1, 4], [0, 1, 1, 4], [0, -1, 1, 4]]

# Distribution values that `rangelab run` must reject with exit code 2.
MALFORMED_DISTRIBUTIONS = [
    {"steps": []},
    {"steps": [[1, 0, 1, 0]]},
    {"steps": [[1, 0, 1]]},
    {"steps": [[1, 0, "a", 4]] + _SRW_STEPS[1:]},
    {"steps": "abc"},
    {"name": 7, "steps": _SRW_STEPS},
    {"steps": [[2**31, 1, 1, 4], [-2**31, -1, 1, 4]] + _SRW_STEPS[:2]},
    _SRW_STEPS,
]


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


def _tree_bytes(root: Path, skip=("manifest.json",)):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and p.name not in skip:
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_config_hash_ignores_placement(tmp_path):
    """A config holds only what it hashes: where a run goes and how many
    workers run it are arguments of run_experiment."""
    p = _write_cfg(tmp_path, DEV_CFG)
    a = load_config(p)
    b = load_config(p)
    assert a.config_hash == b.config_hash
    assert [f.name for f in dataclasses.fields(a)] == [
        "kind", "distribution", "master_seed", "replicas", "params"]
    c = load_config(p, seed_override=100)
    assert c.config_hash != a.config_hash
    assert c.master_seed == 100


def test_config_rejections(tmp_path):
    with pytest.raises(InvalidConfig):
        load_config(tmp_path / "missing.json")
    bad = dict(DEV_CFG)
    bad["kind"] = "telepathy"
    with pytest.raises(InvalidConfig):
        load_config(_write_cfg(tmp_path, bad, "k.json"))
    bad = dict(DEV_CFG)
    bad["extra_field"] = 1
    with pytest.raises(InvalidConfig):
        load_config(_write_cfg(tmp_path, bad, "e.json"))
    bad = json.loads(json.dumps(DEV_CFG))
    bad["params"]["mystery"] = True
    with pytest.raises(InvalidConfig):
        load_config(_write_cfg(tmp_path, bad, "p.json"))
    notjson = tmp_path / "n.json"
    notjson.write_text("{")
    with pytest.raises(InvalidConfig):
        load_config(notjson)
    for i, dist in enumerate(MALFORMED_DISTRIBUTIONS):
        with pytest.raises(InvalidConfig):
            load_config(_write_cfg(tmp_path, {**DEV_CFG, "distribution": dist},
                                   f"d{i}.json"))
    with pytest.raises(InvalidConfig):
        ExperimentConfig(kind="telepathy", distribution="srw", master_seed=0,
                         replicas=1, params={})


def test_cli_malformed_distribution_exit_code(tmp_path, capsys):
    p = _write_cfg(tmp_path, {**DEV_CFG, "distribution": {"steps": [[1, 0, 1]]}})
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
    assert "invalid config" in capsys.readouterr().err


# Laws that parse but break a standing assumption, which `rangelab
# validate` must reject with exit code 2.
REJECTED_LAWS = {
    "sublattice-index-2": [[2, 0, 1, 4], [-2, 0, 1, 4], [0, 1, 1, 4], [0, -1, 1, 4]],
    "diagonal-index-2": [[1, 1, 1, 4], [-1, -1, 1, 4], [1, -1, 1, 4], [-1, 1, 1, 4]],
    "rank-1": [[1, 1, 1, 2], [-1, -1, 1, 2]],
    "mass-7/8": [[1, 0, 1, 4], [-1, 0, 1, 4], [0, 1, 3, 16], [0, -1, 3, 16]],
    "drift": [[1, 0, 3, 8], [-1, 0, 1, 8], [0, 1, 1, 4], [0, -1, 1, 4]],
}


@pytest.mark.parametrize("law", sorted(REJECTED_LAWS))
def test_cli_rejected_law_exit_code(tmp_path, capsys, law):
    p = _write_cfg(tmp_path, {**DEV_CFG, "distribution": {"steps": REJECTED_LAWS[law]}})
    assert main(["validate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "distribution rejected" in err
    assert "Traceback" not in err


def test_cli_long_step_distribution_exit_code(tmp_path, capsys):
    """A step of length 200 makes the report's return table through
    n = 256 need a spectral grid of side 8 * 200 * 16 = 25,600, over the
    2^26-cell budget: refused with exit code 3 before any table work."""
    steps = _SRW_STEPS + [[200, 1, 1, 4], [-200, -1, 1, 4]]
    steps = [[x, y, 1, 6] for x, y, _, _ in steps]
    p = _write_cfg(tmp_path, {**DEV_CFG, "distribution": {"steps": steps}})
    assert main(["validate", "--config", str(p)]) == 3
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.count("resource limit") == 2
    assert not (tmp_path / "run").exists()


def test_cli_oversized_exact_table_exit_code(tmp_path, capsys):
    """An exact table through n = 2^20 + 1 needs a spectral grid of side
    8194, over the 2^26-cell budget: refused with exit code 3 before any
    table work, and no run directory is made."""
    cfg = {"kind": "exact", "distribution": "srw", "replicas": 1,
           "params": {"n": (1 << 20) + 1}}
    p = _write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", str(p)]) == 3
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.count("resource limit") == 2
    assert not (tmp_path / "run").exists()
    cfg["params"]["n"] = 1 << 20
    ExperimentConfig.from_dict(cfg)


@pytest.mark.parametrize("kind, params", [
    ("lil", {"n_max": 1 << 22}),
    ("deviations", {"side": "upper", "n_ladder": [1 << 22], "b_schedule": [2.0],
                    "thresholds": [1.0]}),
])
def test_cli_oversized_report_table_exit_code(tmp_path, capsys, kind, params):
    """lil and deviations reports build a return table through n_max or
    max(n_ladder); at 2^22 its grid side is 16,384, over the 2^26-cell
    budget, so validate and run refuse it with exit code 3."""
    cfg = {"kind": kind, "distribution": "srw", "replicas": 4, "params": params}
    p = _write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", str(p)]) == 3
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.count("resource limit") == 2
    assert not (tmp_path / "run").exists()


def test_cli_oversized_walk_exit_code(tmp_path, capsys):
    """64 steps of 2^30 can leave the int32 coordinate box that sampled
    walks live in: an identities config on such a law is refused with
    exit code 3 by validate and run, before a run directory is made, and
    so is a smoothed one."""
    steps = [[1 << 30, 0, 1, 6], [-(1 << 30), 0, 1, 6], [1, 0, 1, 6],
             [-1, 0, 1, 6], [0, 1, 1, 6], [0, -1, 1, 6]]
    cfg = {"kind": "identities", "distribution": {"steps": steps},
           "replicas": 2, "params": {"n": 64, "t": 16.0}}
    p = _write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", str(p)]) == 3
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.count("resource limit") == 2
    assert not (tmp_path / "run").exists()
    # Poisson clocks bound no walk length up front, but one step of 2^30
    # already overflows the stamped-field window: a smoothed config on
    # the same law is refused the same way
    cfg = {"kind": "smoothed", "distribution": {"steps": steps}, "replicas": 4,
           "params": {"t": 64.0, "parseval": False}}
    p = _write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", str(p)]) == 3
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 3
    assert capsys.readouterr().err.count("field window") == 2
    assert not (tmp_path / "run").exists()


def test_cli_oversized_enumeration_exit_code(tmp_path, capsys):
    """An exact config that enumerates 4^40 paths meets the same guard as
    `enumerate-oracle --n 40`: exit code 3 from validate and run, and no
    run directory."""
    cfg = {"kind": "exact", "distribution": "srw", "replicas": 1,
           "params": {"n": 16, "enumerate": True, "enumerate_n": 40}}
    p = _write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", str(p)]) == 3
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 3
    assert main(["enumerate-oracle", "--dist", "srw", "--n", "40"]) == 3
    assert capsys.readouterr().err.count("resource limit") == 3
    assert not (tmp_path / "run").exists()


def test_cli_q_kernel_cost_exit_code(tmp_path, capsys):
    """A smoothed srw config at t = 2e6 (stamp radius 353) needs about
    1.6e11 q-kernel scatter terms and 3e12 shift lookups per record:
    exit code 3 from validate and run, and no run directory.  So does an
    identities config whose checks include q-kernel at that t; without
    that check the q kernel is never built and the config is accepted."""
    smoothed = {"kind": "smoothed", "distribution": "srw", "replicas": 1,
                "params": {"t": 2e6, "parseval": False}}
    identities = {"kind": "identities", "distribution": "srw", "replicas": 1,
                  "params": {"n": 1 << 21, "t": 2e6, "checks": ["q-kernel"]}}
    for cfg in (smoothed, identities):
        p = _write_cfg(tmp_path, cfg)
        assert main(["validate", "--config", str(p)]) == 3
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 3
        assert capsys.readouterr().err.count("q kernel") == 2
        assert not (tmp_path / "run").exists()
    identities["params"]["checks"] = ["binary"]
    assert main(["validate", "--config", str(_write_cfg(tmp_path, identities))]) == 0


def test_cli_refuses_odd_kappa_nodes(tmp_path, capsys):
    """The solver needs an even node count: nodes [257] is refused by
    validate and by run with exit code 2, before a run directory is made."""
    cfg = {"kind": "kappa", "distribution": "srw", "replicas": 1,
           "params": {"nodes": [256, 257]}}
    p = _write_cfg(tmp_path, cfg)
    assert main(["validate", "--config", str(p)]) == 2
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.count("must be even") == 2
    assert not (tmp_path / "run").exists()


# case -> a config, or the --r-max of a `rangelab kappa` call
NON_FINITE = {
    "kappa-r-max-nan": "nan",
    "kappa-r-max-inf": "inf",
    "deviations-b-nan": {**DEV_CFG, "params": {**DEV_CFG["params"],
                                               "b_schedule": [float("nan")] * 2}},
    "deviations-threshold-nan": {**DEV_CFG, "params": {**DEV_CFG["params"],
                                                       "thresholds": [float("nan")]}},
    "smoothed-t-infinity": {"kind": "smoothed", "distribution": "srw", "replicas": 1,
                            "params": {"t": float("inf")}},
    "smoothed-t-huge-int": {"kind": "smoothed", "distribution": "srw", "replicas": 1,
                            "params": {"t": 10**400}},
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_numbers_exit_2(tmp_path, capsys, case):
    """NaN and infinity, which argparse's float and Python's json both
    accept, and an integer past the float range are refused with exit
    code 2 wherever a number is read, before a run directory is made."""
    out = str(tmp_path / "run")
    value = NON_FINITE[case]
    if isinstance(value, str):
        argv = ["kappa", "--nodes", "256", "--r-max", value, "--out", out]
    else:
        argv = ["run", "--config", str(_write_cfg(tmp_path, value)), "--out", out,
                "--report"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


_HUGE = 10**400

# case -> (a config, the text its refusal must show)
OUT_OF_RANGE = {
    "exact-n": ({"kind": "exact", "distribution": "srw", "params": {"n": _HUGE}},
                "params.n must be <="),
    "lil-n-max": ({"kind": "lil", "distribution": "srw", "replicas": 2,
                   "params": {"n_max": _HUGE}}, "params.n_max must be <="),
    "kappa-audit-num": ({"kind": "kappa", "distribution": "srw",
                         "params": {"audit_num": _HUGE}}, "params.audit_num must be <="),
    "smoothed-level": ({"kind": "smoothed", "distribution": "srw",
                        "params": {"level": _HUGE}}, "params.level must be <="),
    "smoothed-level-1024": ({"kind": "smoothed", "distribution": "srw",
                             "params": {"level": 1024}}, "params.level must be <= 1023"),
    "exact-n-5000-digits": ('{"kind": "exact", "distribution": "srw", "params": {"n": '
                            + "1" * 5000 + "}}", "is not valid JSON"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_integers_past_their_range_exit_2(tmp_path, capsys, case):
    """An integer past int64, a smoothed level whose 2^level passes the
    float range, or an integer too long for Python's json to parse is
    refused by `validate` with exit 2 and a message naming the key (or
    the file), never a traceback or a pass.  Only validate runs: a run
    of such a config must never start."""
    raw, text = OUT_OF_RANGE[case]
    p = tmp_path / "cfg.json"
    p.write_text(raw if isinstance(raw, str) else json.dumps(raw))
    assert main(["validate", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert text in err
    assert "Traceback" not in err


def test_pool_starts_no_more_workers_than_pending_shards(tmp_path, monkeypatch):
    """A fork pool starts all its workers at the first submit: two
    pending shards at workers=4 ask for a pool of two."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    cfg = ExperimentConfig.from_dict({**DEV_CFG, "replicas": SHARD_SIZE + 1})
    run_experiment(cfg, workers=4, out=tmp_path / "run")
    assert sizes == [2]
    assert sorted(p.name for p in (tmp_path / "run").glob("shard_*")) == [
        "shard_00000.jsonl", "shard_00001.jsonl"]


def test_config_file_cannot_set_workers_or_out(tmp_path, capsys):
    """workers and out come from the CLI flags only: a config file that
    names them is refused as having unknown keys, not silently obeyed in
    part."""
    for key, value in (("workers", 2), ("out", str(tmp_path / "run"))):
        p = _write_cfg(tmp_path, {**DEV_CFG, key: value})
        assert main(["validate", "--config", str(p)]) == 2
        assert f"unknown config keys: {key}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_exact_outputs_independent_of_blas_threads(tmp_path):
    """An exact run on a non-dyadic law, whose sums round, and a kappa run
    write the same bytes at one and at two BLAS threads: every file but
    manifest.json.  The exact run covers er_enum and the identity
    residuals of results.json, whose sums run to k = n; the kappa solve's
    inner products run over 16,384 nodes.  Both sizes are large enough
    that a BLAS dot product there would be split across threads."""
    src = str(Path(rangelab.__file__).resolve().parents[1])
    steps = [[x, y, 1, 6] for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1),
                                       (1, 1), (-1, -1))]
    configs = {
        "exact": ({"kind": "exact", "distribution": {"steps": steps},
                   "replicas": 1,
                   "params": {"n": 16384, "enumerate": True,
                              "enumerate_n": 7}},
                  ["config.json", "results.json", "summary.csv", "table.csv"]),
        "kappa": ({"kind": "kappa", "distribution": "srw", "replicas": 1,
                   "params": {"nodes": [16384], "audit_num": 0}},
                  ["config.json", "constants.json", "profile.csv",
                   "summary.csv"]),
    }
    for kind, (payload, files) in configs.items():
        p = _write_cfg(tmp_path, payload, f"{kind}.json")
        trees = []
        for threads in ("1", "2"):
            out = tmp_path / f"{kind}-threads{threads}"
            env = {**os.environ, "PYTHONPATH": src,
                   "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            subprocess.run([sys.executable, "-m", "rangelab.cli", "run",
                            "--config", str(p), "--out", str(out), "--report"],
                           check=True, capture_output=True, env=env)
            trees.append(_tree_bytes(out))
        assert sorted(trees[0]) == files, kind
        for name in trees[0]:
            assert trees[0][name] == trees[1][name], (kind, name)


def test_run_refuses_a_foreign_run_directory(tmp_path, capsys):
    """`run --out DIR` where DIR/config.json holds another config_hash
    exits 2 and leaves every file in DIR as it was."""
    out = tmp_path / "run"
    first = _write_cfg(tmp_path, DEV_CFG, "first.json")
    other = _write_cfg(tmp_path, {**DEV_CFG, "master_seed": 100}, "other.json")
    assert main(["run", "--config", str(first), "--out", str(out)]) == 0
    before = _tree_bytes(out, skip=())
    assert main(["run", "--config", str(other), "--out", str(out)]) == 2
    assert "another config" in capsys.readouterr().err
    assert _tree_bytes(out, skip=()) == before
    assert main(["run", "--config", str(first), "--out", str(out),
                 "--resume"]) == 0


def test_report_refuses_an_edited_config(tmp_path, capsys):
    """A config.json whose params were edited but whose stored hash was
    kept no longer describes its shards: report exits 2."""
    out = tmp_path / "run"
    p = _write_cfg(tmp_path, DEV_CFG)
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    stored = json.loads((out / "config.json").read_text())
    stored["params"]["thresholds"] = [0.5]
    (out / "config.json").write_text(json.dumps(stored))
    assert main(["report", "--out", str(out)]) == 2
    assert "config_hash" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_exact_kind_must_be_single_replica(tmp_path):
    cfg = {"kind": "exact", "distribution": "srw", "replicas": 5,
           "params": {"n": 16}}
    with pytest.raises(InvalidConfig):
        ExperimentConfig.from_dict(cfg)


def test_plan_shards_covers_range():
    cfg = ExperimentConfig.from_dict(
        {**DEV_CFG, "replicas": 2 * SHARD_SIZE + 17})
    shards = plan_shards(cfg)
    assert shards[0] == (0, SHARD_SIZE)
    assert shards[-1] == (2 * SHARD_SIZE, 2 * SHARD_SIZE + 17)
    covered = sum(stop - start for start, stop in shards)
    assert covered == cfg.replicas


def test_run_bytes_identical_across_worker_counts(tmp_path):
    """Every file but manifest.json keeps its bytes at 1 and 2 workers;
    the manifest names the host and the worker count.  Three shards, so
    the 2-worker run goes through the process pool."""
    raw = {**DEV_CFG, "replicas": 2 * SHARD_SIZE + 1}
    cfg = ExperimentConfig.from_dict(raw)
    run_experiment(cfg, workers=1, out=tmp_path / "w1")
    run_experiment(cfg, workers=2, out=tmp_path / "w2")
    run_report(tmp_path / "w1")
    run_report(tmp_path / "w2")
    t1 = _tree_bytes(tmp_path / "w1")
    t2 = _tree_bytes(tmp_path / "w2")
    assert t1.keys() == t2.keys()
    assert all(t1[k] == t2[k] for k in t1)
    for workers in (1, 2):
        manifest = json.loads((tmp_path / f"w{workers}" / "manifest.json").read_text())
        assert manifest["environment"] == {
            "nproc": os.cpu_count(),
            "python": ".".join(map(str, sys.version_info[:3])),
            "numpy": np.__version__, "workers": workers}


def test_resume_skips_and_rebuilds(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig.from_dict(DEV_CFG)
    run_experiment(cfg, out=out)
    shard = out / "shard_00000.jsonl"
    original = shard.read_bytes()
    before = shard.stat().st_mtime_ns

    # resume with the shard intact: not rewritten
    run_experiment(cfg, resume=True, out=out)
    assert shard.stat().st_mtime_ns == before

    # deleted shard: rebuilt to the same bytes
    shard.unlink()
    run_experiment(cfg, resume=True, out=out)
    assert shard.read_bytes() == original

    # corrupted header: detected and rebuilt
    lines = original.decode().splitlines()
    lines[0] = lines[0].replace(cfg.config_hash, "0" * 64)
    shard.write_text("\n".join(lines) + "\n")
    run_experiment(cfg, resume=True, out=out)
    assert shard.read_bytes() == original


def _damage(path: Path, how: str, data) -> None:
    """Damage the file at path: "append" data, "insert" it as line 3,
    "edit" line 3 into it, "copy" line data[0] over line data[1], "keep"
    only its first data lines, "chop" data bytes off its end, "delete"
    it or "replace" its bytes with data."""
    if how == "delete":
        path.unlink()
        return
    raw = path.read_bytes()
    lines = raw.splitlines(keepends=True)
    raw = {"append": lambda: raw + data,
           "insert": lambda: b"".join(lines[:2] + [data] + lines[2:]),
           "edit": lambda: b"".join(lines[:2] + [data] + lines[3:]),
           "copy": lambda: b"".join(lines[:data[1] - 1] + [lines[data[0] - 1]]
                                    + lines[data[1]:]),
           "keep": lambda: b"".join(lines[:data]),
           "chop": lambda: raw[:-data],
           "replace": lambda: data}[how]()
    path.write_bytes(raw)


@pytest.mark.parametrize("how, data", [
    ("keep", 10),  # the header and 9 of its 1400 records
    ("chop", 1),  # every record, but no final newline
    ("append", b'{"n":64,"range":1,"replica":0}\n'),  # one record too many
    ("edit", b"not json\n"),  # the count is kept, the line is not a record
    ("copy", (5, 3)),  # replica 1's n = 256 record where replica 0's belongs
], ids=["cut-to-9-records", "no-final-newline", "one-record-too-many",
        "line-3-not-json", "line-3-another-replica"])
def test_resume_recomputes_a_cut_shard(tmp_path, how, data):
    """A shard that the report would not read whole (other than its
    planned records, no final newline, or a line that is not the record
    its plan puts there) is not complete: --resume writes it again, to
    the clean run's bytes."""
    out = tmp_path / "run"
    cfg = ExperimentConfig.from_dict(DEV_CFG)
    run_experiment(cfg, out=out)
    shard = out / "shard_00000.jsonl"
    original = shard.read_bytes()
    _damage(shard, how, data)
    assert shard.read_bytes() != original
    run_experiment(cfg, resume=True, out=out)
    assert shard.read_bytes() == original


def test_partial_report_counts_a_cut_shard_as_missing(tmp_path, capsys):
    """A shard cut to its header and 9 records is reported on as a
    missing one: a warning, and moments over the other shard only."""
    out = tmp_path / "run"
    cfg = ExperimentConfig.from_dict({**DEV_CFG, "replicas": SHARD_SIZE + 100})
    run_experiment(cfg, out=out)
    _damage(out / "shard_00001.jsonl", "keep", 10)
    rep = run_report(out)
    assert rep["partial"]
    assert rep["missing_shards"] == [1]
    assert "missing, stale or cut" in capsys.readouterr().err
    lines = (out / "moments.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    assert [int(row["replicas"]) for row in rows] == [SHARD_SIZE] * 2


def test_shard_headers_identify_run(tmp_path):
    out = tmp_path / "run"
    cfg = ExperimentConfig.from_dict(DEV_CFG)
    run_experiment(cfg, out=out)
    with open(out / "shard_00000.jsonl") as fh:
        header = json.loads(fh.readline())
        records = [json.loads(line) for line in fh]
    assert header["config_hash"] == cfg.config_hash
    assert header["schema"] == "deviations-v1"
    assert header["replica_start"] == 0
    assert header["replica_stop"] == cfg.replicas
    assert len(records) == cfg.replicas * 2  # one line per (replica, n)
    assert records[0] == {"replica": 0, "n": 64, "range": records[0]["range"]}


def test_partial_report_warns(tmp_path, capsys):
    big = json.loads(json.dumps(DEV_CFG))
    big["replicas"] = SHARD_SIZE + 100  # two shards
    out = tmp_path / "run"
    cfg = ExperimentConfig.from_dict(big)
    run_experiment(cfg, out=out)
    (out / "shard_00001.jsonl").unlink()
    rep = run_report(out)
    assert rep["partial"]
    assert rep["missing_shards"] == [1]
    assert "missing" in capsys.readouterr().err
    assert (out / "summary.csv").is_file()


def test_report_ignores_shards_of_an_earlier_config(tmp_path):
    """A 5000-replica run leaves shards 1 and 2 behind when a 100-replica
    run reuses its directory; the report must not read them."""
    params = {"side": "upper", "n_ladder": [8, 16], "b_schedule": [2.0, 2.0],
              "thresholds": [0.25]}
    out = str(tmp_path / "run")
    cfgs = [_write_cfg(tmp_path, {"kind": "deviations", "distribution": "srw",
                                  "master_seed": 3, "replicas": replicas,
                                  "params": params}, f"r{replicas}.json")
            for replicas in (5000, 100)]
    assert main(["run", "--config", str(cfgs[0]), "--out", out]) == 0
    # run refuses the directory while it holds the earlier config.json;
    # without it, the earlier shards are all that is left of that run
    assert main(["run", "--config", str(cfgs[1]), "--out", out]) == 2
    (tmp_path / "run" / "config.json").unlink()
    assert main(["run", "--config", str(cfgs[1]), "--out", out]) == 0
    assert (tmp_path / "run" / "shard_00002.jsonl").is_file()
    assert main(["report", "--out", out]) == 0
    lines = (tmp_path / "run" / "moments.csv").read_text().splitlines()
    rows = [dict(zip(lines[1].split(","), line.split(","))) for line in lines[2:]]
    assert [int(row["replicas"]) for row in rows] == [100, 100]


def test_foreign_shard_violations_not_counted(tmp_path):
    cfg = {"kind": "identities", "distribution": "srw", "master_seed": 1,
           "replicas": 4, "params": {"n": 64, "checks": ["dyadic"]}}
    out = tmp_path / "run"
    out.mkdir()
    forged = {"config_hash": "0" * 64, "schema": "identities-v1", "shard": 1,
              "replica_start": 2048, "replica_stop": 2049}
    bad = {"replica": 2048, "dyadic_lhs": 5, "dyadic_rhs": 6,
           "dyadic_exact": False}
    (out / "shard_00001.jsonl").write_text(
        json.dumps(forged) + "\n" + json.dumps(bad) + "\n")
    p = _write_cfg(tmp_path, cfg)
    assert main(["run", "--config", str(p), "--out", str(out), "--report"]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[2:] == ["dyadic,4,0,0.0"]


def test_report_on_nonrun_dir(tmp_path):
    with pytest.raises(InvalidConfig):
        run_report(tmp_path)


def test_cli_validate_and_exit_codes(tmp_path, capsys):
    p = _write_cfg(tmp_path, DEV_CFG)
    assert main(["validate", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "config_hash=" in out

    bad = _write_cfg(tmp_path, {**DEV_CFG, "kind": "telepathy"}, "bad.json")
    assert main(["validate", "--config", str(bad)]) == 2

    assert main(["enumerate-oracle", "--dist", "srw", "--n", "40"]) == 3


def test_cli_identity_violation_exit_code(tmp_path):
    cfg = {
        "kind": "identities",
        "distribution": "srw",
        "master_seed": 1,
        "replicas": 3,
        "params": {"n": 256, "checks": ["q-kernel"], "q_tol": 0.0},
    }
    p = _write_cfg(tmp_path, cfg)
    rc = main(["run", "--config", str(p), "--out", str(tmp_path / "run")])
    assert rc == 4
    # evidence stays on disk
    assert (tmp_path / "run" / "shard_00000.jsonl").is_file()


def test_cli_identities_clean_run(tmp_path):
    cfg = {
        "kind": "identities",
        "distribution": "srw",
        "master_seed": 1,
        "replicas": 6,
        "params": {"n": 512, "t": 128.0, "b_t": 4.0},
    }
    p = _write_cfg(tmp_path, cfg)
    rc = main(["run", "--config", str(p), "--out", str(tmp_path / "run"),
               "--report"])
    assert rc == 0
    summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("# config_hash=")
    rows = [line.split(",") for line in summary[2:]]
    assert all(row[2] == "0" for row in rows)  # zero violations


def test_cli_enumerate_oracle_stdout(capsys):
    assert main(["enumerate-oracle", "--dist", "srw", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "3,2.75," in out


def test_cli_exact_run_with_enumeration(tmp_path):
    cfg = {
        "kind": "exact",
        "distribution": "srw",
        "replicas": 1,
        "params": {"n": 32, "enumerate": True, "enumerate_n": 7},
    }
    p = _write_cfg(tmp_path, cfg)
    rc = main(["run", "--config", str(p), "--out", str(tmp_path / "run")])
    assert rc == 0
    lines = (tmp_path / "run" / "table.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "k,u,h,r,f,er,er_enum"
    row3 = lines[5].split(",")
    assert float(row3[5]) == pytest.approx(float(row3[6]), abs=1e-12)


def test_cli_kappa_subcommand(tmp_path):
    rc = main(["kappa", "--nodes", "256", "--out", str(tmp_path / "kap")])
    assert rc == 0
    constants = json.loads((tmp_path / "kap" / "constants.json").read_text())
    assert constants["grids"][0]["converged"]
    assert set(constants["kappa4_candidates"]) == {"half_quotient", "weinstein"}
    assert (tmp_path / "kap" / "profile.csv").is_file()


def test_out_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("RANGELAB_OUT_ROOT", str(tmp_path / "root"))
    cfg = ExperimentConfig.from_dict(
        {"kind": "exact", "distribution": "srw", "replicas": 1,
         "params": {"n": 8}})
    run_experiment(cfg)
    produced = list((tmp_path / "root").glob("exact-*/table.csv"))
    assert len(produced) == 1


def test_cache_variable_changes_nothing(tmp_path, monkeypatch):
    """Return tables are built in the process that needs them, never
    read from or written to disk: RANGELAB_CACHE_DIR naming a regular
    file, which once ended `run --report` in a traceback, changes no
    report byte."""
    payload = {**DEV_CFG, "params": {**DEV_CFG["params"], "n_ladder": [64, 200]}}
    p = _write_cfg(tmp_path, payload)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("RANGELAB_CACHE_DIR", str(blocker))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "set"),
                 "--report"]) == 0
    monkeypatch.delenv("RANGELAB_CACHE_DIR")
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "unset"),
                 "--report"]) == 0
    assert blocker.read_bytes() == b""
    set_tree, unset_tree = _tree_bytes(tmp_path / "set"), _tree_bytes(tmp_path / "unset")
    assert {"summary.csv", "moments.csv", "plot.csv"} <= set(set_tree)
    assert set_tree == unset_tree


def test_readme_lists_every_environment_variable():
    """README's "Environment variables" table names exactly the
    RANGELAB_* names that appear in string literals under src/."""
    root = Path(__file__).resolve().parents[1]
    name = re.compile(r"RANGELAB_[A-Z0-9_]+")
    in_src = set()
    for path in (root / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                in_src.update(name.findall(node.value))
    readme = (root / "README.md").read_text()
    section = readme.split("### Environment variables", 1)[1].split("\n#", 1)[0]
    in_table = set(re.findall(r"^\| `(RANGELAB_[A-Z0-9_]+)` \|", section, re.M))
    assert "RANGELAB_OUT_ROOT" in in_table
    assert in_src == in_table


def test_readme_quick_start_runs():
    """README's Python quick start runs as written and prints what its
    comments say: E R_3 = 2.75 from the table and from the oracle, and
    an exact binary decomposition."""
    root = Path(__file__).resolve().parents[1]
    blocks = re.findall(r"^```python\n(.*?)^```", (root / "README.md").read_text(),
                        re.M | re.S)
    assert len(blocks) == 1
    out = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(root / "src")})
    lines = out.stdout.splitlines()
    assert len(lines) == 5
    assert lines[0] == lines[1] == "2.75"
    assert lines[3] == "True"


def test_lil_run_and_report(tmp_path):
    cfg = {
        "kind": "lil",
        "distribution": "srw",
        "master_seed": 12,
        "replicas": 3,
        "params": {"n_max": 2048},
    }
    p = _write_cfg(tmp_path, cfg)
    rc = main(["run", "--config", str(p), "--out", str(tmp_path / "run"),
               "--report"])
    assert rc == 0
    traj = tmp_path / "run" / "trajectories"
    assert sorted(f.name for f in traj.iterdir()) == [
        "replica_00000.csv", "replica_00001.csv", "replica_00002.csv"]
    refs = (tmp_path / "run" / "references.csv").read_text()
    assert "upper_lil_constant" in refs
    assert "theta_inverse_weinstein" in refs
    plot = (tmp_path / "run" / "plot.csv").read_text().splitlines()
    assert plot[1] == "series,x,y,ci_lo,ci_hi"


def test_lil_report_hashes_the_config_once(tmp_path, monkeypatch):
    """The lil report reads the config hash as often for 12 trajectory
    files as for 2: once for its own files, not once per file."""
    from rangelab import experiments

    reads = []
    canonical = ExperimentConfig.canonical
    monkeypatch.setattr(ExperimentConfig, "canonical",
                        lambda cfg: reads.append(1) or canonical(cfg))
    counts = []
    for replicas in (2, 12):
        cfg = ExperimentConfig.from_dict({
            "kind": "lil", "distribution": "srw", "master_seed": 4,
            "replicas": replicas, "params": {"n_max": 64}})
        out = tmp_path / f"r{replicas}"
        run_experiment(cfg, out=out)
        fresh = dataclasses.replace(cfg)  # a config whose hash was never read
        reads.clear()
        experiments._report_lil(fresh, out, experiments._read_shard(
            fresh, out, 0, 0, replicas))
        counts.append(len(reads))
    assert counts[0] == counts[1] == 1


def test_config_hash_is_hashed_once():
    cfg = ExperimentConfig.from_dict(DEV_CFG)
    value = cfg.config_hash
    blob = json.dumps(cfg.canonical(), sort_keys=True, separators=(",", ":"))
    assert vars(cfg)["config_hash"] == value
    assert value == hashlib.sha256(blob.encode()).hexdigest()


def test_smoothed_run_and_report(tmp_path):
    cfg = {
        "kind": "smoothed",
        "distribution": "lazy-srw",
        "master_seed": 8,
        "replicas": 5,
        "params": {"t": 128.0, "b_t": 4.0, "eps": 0.5, "level": 1},
    }
    p = _write_cfg(tmp_path, cfg)
    rc = main(["run", "--config", str(p), "--out", str(tmp_path / "run"),
               "--report"])
    assert rc == 0
    text = (tmp_path / "run" / "summary.csv").read_text().splitlines()
    header = text[1].split(",")
    row = dict(zip(header, text[2].split(",")))
    assert float(row["max_q_residual"]) < 1e-10
    assert float(row["max_parseval_residual"]) < 1e-8


def test_only_two_record_types_are_dataclasses():
    """@dataclass compiles its generated methods on every import, so
    rangelab's record types are plain classes.  ExperimentConfig stays
    one (its fields are listed and replaced) and DecompositionRecord
    too (records compare with ==); a new one must be added here."""
    import importlib
    import inspect
    import pkgutil

    found = set()
    for info in pkgutil.iter_modules(rangelab.__path__):
        module = importlib.import_module(f"rangelab.{info.name}")
        found |= {name for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == module.__name__
                  and dataclasses.is_dataclass(obj)}
    assert found == {"ExperimentConfig", "DecompositionRecord"}


def test_import_loads_no_scipy():
    """rangelab depends on numpy alone: neither `import rangelab` nor the
    exponential-moment probe, whose logsumexp was scipy's, loads scipy."""
    src = str(Path(rangelab.__file__).resolve().parents[1])
    code = ("import sys, rangelab; "
            "from rangelab.deviations import exp_moment_probe; "
            "from rangelab.walks import builtin_distribution; "
            "exp_moment_probe(builtin_distribution('srw'), (16, 32), 0.5, "
            "replicas=20, bootstrap=3); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_lil_report_and_kappa_load_no_scipy(tmp_path):
    """The variational solve in a lil report and in `rangelab kappa`
    factors its tridiagonal preconditioner itself: neither CLI path
    imports scipy."""
    src = str(Path(rangelab.__file__).resolve().parents[1])
    p = _write_cfg(tmp_path, {"kind": "lil", "distribution": "srw",
                              "master_seed": 12, "replicas": 2,
                              "params": {"n_max": 1024}})
    code = ("import sys; from rangelab.cli import main; "
            f"assert main(['run', '--config', {str(p)!r}, '--out', "
            f"{str(tmp_path / 'lil')!r}, '--report']) == 0; "
            f"assert main(['kappa', '--nodes', '256', '--out', "
            f"{str(tmp_path / 'kap')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "lil" / "references.csv").is_file()
    assert (tmp_path / "kap" / "constants.json").is_file()


def test_one_worker_cli_loads_no_pool_and_no_masked_arrays(tmp_path):
    """A --workers 1 process loads only what it uses: `validate` and
    `run --report` of every kind import neither the process pool
    (concurrent.futures, multiprocessing) nor numpy.ma, which a plain
    np.unique call would."""
    src = str(Path(rangelab.__file__).resolve().parents[1])
    raws = [raw for raw, _, _ in PINNED_SHARDS.values()] + [
        {"kind": "exact", "distribution": "srw", "replicas": 1,
         "params": {"n": 64, "enumerate": True, "enumerate_n": 5}},
        {"kind": "kappa", "distribution": "srw", "replicas": 1,
         "params": {"nodes": [256], "audit_num": 4}},
    ]
    calls = []
    for raw in raws:
        p = _write_cfg(tmp_path, raw, f"{raw['kind']}.json")
        calls += [["validate", "--config", str(p)],
                  ["run", "--config", str(p), "--out", str(tmp_path / raw["kind"]),
                   "--workers", "1", "--report"]]
    code = ("import sys; from rangelab.cli import main; "
            f"assert all(main(argv) == 0 for argv in {calls!r}); "
            "print(sorted(m for m in ('numpy.ma', 'concurrent.futures', "
            "'multiprocessing') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert {p.name for p in tmp_path.iterdir() if p.is_dir()} == {
        "identities", "smoothed", "deviations", "lil", "exact", "kappa"}


@pytest.mark.parametrize("case", ["run-out-file", "kappa-out-file", "out-root-file",
                                  "oracle-out-missing-dir", "oracle-out-under-file",
                                  "oracle-out-dir", "validate-not-utf8",
                                  "report-config-not-utf8"])
def test_bad_paths_exit_2(tmp_path, capsys, monkeypatch, case):
    """A path the user names that cannot be made or read ends in exit 2
    and a message, not a traceback: an --out or RANGELAB_OUT_ROOT that
    is a regular file, an enumerate-oracle --out in a missing directory,
    under a regular file or naming a directory, and a config or a run's
    config.json that is not UTF-8.  Nothing is written."""
    blocker = tmp_path / "file"
    blocker.write_text("x")
    cfg = _write_cfg(tmp_path, {"kind": "exact", "distribution": "srw",
                                "replicas": 1, "params": {"n": 8}})
    latin = tmp_path / "latin.json"
    latin.write_bytes(b"\xff{}")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.json").write_bytes(b"\xff{}")
    if case == "out-root-file":
        monkeypatch.setenv("RANGELAB_OUT_ROOT", str(blocker))
    argv = {
        "run-out-file": ["run", "--config", str(cfg), "--out", str(blocker)],
        "kappa-out-file": ["kappa", "--nodes", "256", "--out", str(blocker)],
        "out-root-file": ["run", "--config", str(cfg)],
        "oracle-out-missing-dir": ["enumerate-oracle", "--n", "3", "--out",
                                   str(tmp_path / "missing" / "x.csv")],
        "oracle-out-under-file": ["enumerate-oracle", "--n", "3", "--out",
                                  str(blocker / "x.csv")],
        "oracle-out-dir": ["enumerate-oracle", "--n", "3", "--out", str(run_dir)],
        "validate-not-utf8": ["validate", "--config", str(latin)],
        "report-config-not-utf8": ["report", "--out", str(run_dir)],
    }[case]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "invalid config" in err
    assert "Traceback" not in err
    assert blocker.read_text() == "x"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "cfg.json", "file", "latin.json", "run"]
    assert [p.name for p in run_dir.iterdir()] == ["config.json"]


# One tiny config per sharded kind, with its config hash and the sha256
# of its only shard file, as first written.  A refactor of the engine or
# the samplers must leave every sampled byte where it was.  The
# identities-checks entry runs the benchmark workload's params on 130
# replicas: two full replica blocks of q-kernel pairs and a partial one.
PINNED_SHARDS = {
    "identities": ({"kind": "identities", "distribution": "srw", "master_seed": 3,
                    "replicas": 4, "params": {"n": 256, "t": 64.0}},
                   "9174e4f05ce5451a26cd616a9fdc088892785d50631e82d4b1b169c79d2ce635",
                   "58733b1bea97a95f11e1de71a39e3c3d84d0a3a2f27d8c9be3ac204088c14f63"),
    "identities-checks": ({"kind": "identities", "distribution": "srw", "master_seed": 1,
                           "replicas": 130,
                           "params": {"n": 1024, "t": 256.0, "b_t": 4.0,
                                      "checks": ["dyadic", "binary", "q-kernel"]}},
                          "328b6224713343b6fabb4f7819b20d3083283a2551a098386c7415a89466ffb1",
                          "b74372a71bbac738899054a595e50cc8747dc5167d811ee37d8ba8319a431ced"),
    "smoothed": ({"kind": "smoothed", "distribution": "lazy-srw", "master_seed": 5,
                  "replicas": 3, "params": {"t": 64.0}},
                 "15213b86fe68fed4e46ac07d0952fa0d4cb54ee2fa1a37d6fbf8831fe95f5048",
                 "35b42da3e88509ad0c6d1b89917c3b692eddaf7d92ebc90df70a379c82db0409"),
    "deviations": ({"kind": "deviations", "distribution": "king", "master_seed": 7,
                    "replicas": 20,
                    "params": {"side": "lower", "n_ladder": [16, 64, 16],
                               "b_schedule": [2.0, 2.0, 2.0], "thresholds": [0.5]}},
                   "feca7089429045fa62be19328b41de6351e573345cb1bb5b2dce202a9863c70b",
                   "4fc16903a45ab7606c1098988b4abe03719373a1919920737e543583fceaee6a"),
    "lil": ({"kind": "lil", "distribution": "lazy-srw", "master_seed": 11,
             "replicas": 3, "params": {"n_max": 512}},
            "fd9b118053633f1f3eb40e545b977452e7bc9946688df45db2c71e850097a447",
            "bce5abf566e151626d2e54c1748dfec1d353a719b5def50663f808cc9912fd52"),
}


# The reports of these kinds read no return table, so their bytes hold
# to the last bit as well.
PINNED_SUMMARIES = {
    "identities": "ca39f85881796e9a65bf3221a9dec3a2d33fa5629f56d0ef960fed88614b738e",
    "smoothed": "731d195989a8d4d453029d64700b93629e9fee8c7f0bf63bc96640993e107ef9",
}


@pytest.mark.parametrize("kind", sorted(PINNED_SHARDS))
def test_shard_bytes_are_pinned(tmp_path, kind):
    raw, config_hash, shard_sha = PINNED_SHARDS[kind]
    out = tmp_path / "run"
    cfg = ExperimentConfig.from_dict(raw)
    assert cfg.config_hash == config_hash
    run_experiment(cfg, out=out)
    shard = (out / "shard_00000.jsonl").read_bytes()
    assert hashlib.sha256(shard).hexdigest() == shard_sha
    if kind in PINNED_SUMMARIES:
        run_report(out)
        summary = (out / "summary.csv").read_bytes()
        assert hashlib.sha256(summary).hexdigest() == PINNED_SUMMARIES[kind]


@pytest.mark.parametrize("kind", sorted(PINNED_SHARDS))
def test_report_refuses_a_run_with_no_shards(tmp_path, capsys, kind):
    """A sharded run whose planned shards are all gone has no record to
    report: exit 2, not an empty summary that reads as a clean run."""
    out = tmp_path / "run"
    p = _write_cfg(tmp_path, PINNED_SHARDS[kind][0])
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    for shard in out.glob("shard_*.jsonl"):
        shard.unlink()
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "nothing to report" in err
    assert "Traceback" not in err
    assert sorted(f.name for f in out.iterdir()) == ["config.json", "manifest.json"]


def _kappa_constants(**changes) -> bytes:
    """constants.json with every top-level key the kappa report reads,
    and changes."""
    return json.dumps({"m_hat": 0.1, "m_hat_spread": 0.0,
                       "gaussian_half_quotient": 0.5, "grids": [],
                       "kappa4_candidates": {},
                       "constants": {"theta_inverse": {}}, **changes}).encode()


# case -> (kind, file of a clean run, damage as _damage does it, data)
CORRUPTIONS = {
    "shard-line-3-not-json": ("lil", "shard_00000.jsonl", "insert", b"not json\n"),
    "shard-cut-to-9-records": ("deviations", "shard_00000.jsonl", "keep", 10),
    "shard-cut-final-newline": ("identities", "shard_00000.jsonl", "chop", 1),
    "deviations-record-lacks-range": ("deviations", "shard_00000.jsonl", "edit",
                                      b'{"n":16,"replica":1}\n'),
    "lil-record-lacks-ranges": ("lil", "shard_00000.jsonl", "edit",
                                b'{"checkpoints":[4,8],"replica":1}\n'),
    "identities-record-lacks-flag": ("identities", "shard_00000.jsonl", "edit",
                                     b'{"binary_lhs":9,"binary_rhs":9,"replica":1}\n'),
    "smoothed-record-lacks-q": ("smoothed", "shard_00000.jsonl", "edit",
                                b'{"a_value":1.0,"b_value":1.0,"replica":1}\n'),
    "shard-line-not-json": ("deviations", "shard_00000.jsonl", "append", b"not json\n"),
    "shard-line-not-object": ("deviations", "shard_00000.jsonl", "append", b"[1, 2]\n"),
    "shard-line-not-utf8": ("lil", "shard_00000.jsonl", "append", b"\xff\n"),
    "deviations-record-off-ladder": ("deviations", "shard_00000.jsonl", "edit",
                                     b'{"n":5,"range":3,"replica":0}\n'),
    # ladder [16, 64, 16]: replica 0's n = 64 record stands in for replica 1's
    "deviations-replica-repeated": ("deviations", "shard_00000.jsonl", "copy",
                                    (3, 6)),
    "lil-checkpoints-past-n-max": ("lil", "shard_00000.jsonl", "edit",
                                   b'{"checkpoints":[4,1024],"ranges":[3,9],'
                                   b'"replica":1}\n'),
    "exact-results-missing": ("exact", "results.json", "delete", None),
    "exact-results-not-utf8": ("exact", "results.json", "replace", b"\xff{}"),
    "exact-results-not-json": ("exact", "results.json", "replace", b"{"),
    "exact-results-not-object": ("exact", "results.json", "replace", b"[3]"),
    "exact-results-lacks-key": ("exact", "results.json", "replace", b'{"n": 3}'),
    "kappa-constants-missing": ("kappa", "constants.json", "delete", None),
    "kappa-constants-lacks-key": ("kappa", "constants.json", "replace", b'{"m_hat": 0.1}'),
    "exact-residuals-not-object": ("exact", "results.json", "replace",
                                   b'{"n": 8, "identity_residuals": [1e-16]}'),
    "kappa-constants-grid-empty": ("kappa", "constants.json", "replace",
                                   _kappa_constants(grids=[{}])),
    "kappa-constants-lacks-theta-inverse": ("kappa", "constants.json", "replace",
                                            _kappa_constants(constants={})),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_report_names_a_corrupt_file(tmp_path, capsys, case):
    """A run directory whose only shard is cut short or has a body line
    that is not a JSON object, lacks a key the report reads or holds
    another replica or fixed value than its plan, or whose whole-run
    result file is missing, is not UTF-8 JSON, is not an object or lacks
    or mistypes a value the report reads, makes `report` exit 2 with a
    message that names the file (and the shard's line), not a traceback
    and not a summary."""
    kind, name, how, data = CORRUPTIONS[case]
    raw = {"exact": {"kind": "exact", "distribution": "srw", "replicas": 1,
                     "params": {"n": 8}},
           "kappa": {"kind": "kappa", "distribution": "srw", "replicas": 1,
                     "params": {"nodes": [256]}}}.get(kind) or PINNED_SHARDS[kind][0]
    out = tmp_path / "run"
    p = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    target = out / name
    _damage(target, how, data)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert str(target) in err
    if how == "append":
        assert f"line {len(target.read_bytes().splitlines())} " in err
    if how in ("insert", "edit"):
        assert "line 3 " in err
    if how == "copy":
        assert f"line {data[1]} holds another " in err
    if "-lacks-" in case:
        assert " lacks " in err
    if how in ("keep", "chop"):
        assert "missing, stale or cut; nothing to report" in err
    assert not (out / "summary.csv").exists() and not (out / "plot.csv").exists()
    assert not list(out.glob("trajectories/*"))


@pytest.mark.parametrize("extra", [-1, 1], ids=["ranges-short", "ranges-long"])
def test_report_refuses_lil_ranges_unpaired_with_checkpoints(tmp_path, capsys, extra):
    """A lil record with the planned checkpoints but one range fewer or
    one more makes `report` exit 2 naming the shard and the replica, and
    writes no trajectory, instead of zipping the two lists short."""
    from rangelab.deviations import lil_checkpoints

    raw = PINNED_SHARDS["lil"][0]
    out = tmp_path / "run"
    assert main(["run", "--config", str(_write_cfg(tmp_path, raw)), "--out", str(out)]) == 0
    checkpoints = lil_checkpoints(raw["params"]["n_max"])
    ranges = list(range(1, len(checkpoints) + 1 + extra))
    target = out / "shard_00000.jsonl"
    _damage(target, "edit", json.dumps({"checkpoints": checkpoints, "ranges": ranges,
                                        "replica": 1}).encode() + b"\n")
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{target}: replica 1's ranges do not match its checkpoints" in err
    assert not (out / "summary.csv").exists() and not (out / "plot.csv").exists()
    assert not list(out.glob("trajectories/*"))


@pytest.mark.parametrize("budget", [1, 256 * 3, 1 << 40])
@pytest.mark.parametrize("dist, checks", [
    ("srw", ["binary", "dyadic", "q-kernel"]),
    ("king", ["dyadic"]),
    ("lazy-srw", ["binary", "q-kernel"]),
])
def test_identity_records_independent_of_block_size(monkeypatch, budget, dist, checks):
    """Records taken one walk at a time, three at a time (the last block
    short) or a whole shard at once are the records of the default
    blocks, to the last byte of their JSON."""
    from rangelab import _fastpath, experiments

    cfg = ExperimentConfig.from_dict({
        "kind": "identities", "distribution": dist, "master_seed": 12,
        "replicas": 40, "params": {"n": 256, "t": 64.0, "checks": checks}})

    def records():
        return [json.dumps(r, sort_keys=True)
                for r in experiments._identity_records(cfg, cfg.dist(), 3, 17)]

    want = records()
    monkeypatch.setattr(_fastpath, "_BLOCK_STEPS", budget)
    assert records() == want
    assert [json.loads(r)["replica"] for r in want] == list(range(3, 17))
