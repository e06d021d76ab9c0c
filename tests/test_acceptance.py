"""Acceptance gate for the toolkit.

Every test here pins a numeric tolerance and a wall-clock budget; taken
together they are the operational bar a release must clear.  Exact
identities get zero-tolerance-style bounds (1e-12 .. 1e-8), Monte Carlo
checks get standard-error bands, and the two qualitative tail-shape
tests assert what the paper's tail scales predict: the centered range is
left-skewed (its lower tail is the heavy one), and the exponential moment
of the centered range, weighted on the renewal scale
(2 pi sqrt(det Gamma) H(n))^2 / n, stays flat in n.  A failing assertion
reports the measured values.
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from rangelab.cli import main
from rangelab.deviations import centering_defect_supremum, exp_moment_probe
from rangelab.exact import (
    build_return_table,
    enumeration_oracle,
    expected_range_asymptotic,
    local_clt_check,
    return_prob_exact,
    return_probs_dp,
)
from rangelab.smoothing import parseval_check
from rangelab.variational import gaussian_half_quotient, gn_audit, kappa22_solve
from rangelab.walks import builtin_distribution, sample_poissonized

SEED = 20260816


def _read_csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    return list(csv.DictReader(lines[1:]))


def _tree_bytes(root: Path, skip=("manifest.json",)) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.name not in skip
    }


def _timed_cli_run(cfg: dict, out: Path, workers: int) -> float:
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    rc = main(["run", "--config", str(cfg_path), "--workers", str(workers),
               "--out", str(out), "--report"])
    elapsed = time.perf_counter() - t0
    assert rc == 0, f"run under {out} exited {rc}"
    return elapsed


@pytest.fixture(scope="module")
def big_srw_table(srw):
    """Return-probability table through 2^19 steps, with its build time;
    shared by the expansion and grid-stability tests."""
    t0 = time.perf_counter()
    table = build_return_table(srw, 1 << 19)
    return table, time.perf_counter() - t0


@pytest.fixture(scope="module")
def identity_runs(tmp_path_factory):
    """One thousand sampled paths / pairs pushed through all three exact
    identities, run twice with different worker counts."""
    root = tmp_path_factory.mktemp("identities")
    cfg = {
        "kind": "identities",
        "distribution": "srw",
        "master_seed": SEED,
        "replicas": 1000,
        "params": {"n": 1024, "t": 256.0, "b_t": 4.0, "q_tol": 1e-10,
                   "checks": ["binary", "dyadic", "q-kernel"]},
    }
    runs = {}
    for workers in (1, 4):
        out = root / f"w{workers}"
        runs[workers] = (out, _timed_cli_run(cfg, out, workers))
    return runs


@pytest.fixture(scope="module")
def mc_mean_runs(tmp_path_factory):
    """A hundred thousand replicas at three sizes, run twice with
    different worker counts."""
    root = tmp_path_factory.mktemp("mc-mean")
    cfg = {
        "kind": "deviations",
        "distribution": "srw",
        "master_seed": SEED + 7,
        "replicas": 100_000,
        "params": {"side": "upper", "n_ladder": [100, 1000, 10000],
                   "b_schedule": [2.0, 2.0, 2.0], "thresholds": [1.0]},
    }
    runs = {}
    for workers in (1, 4):
        out = root / f"w{workers}"
        runs[workers] = (out, _timed_cli_run(cfg, out, workers))
    return runs


def test_enumeration_matches_renewal_table(srw, lazy):
    """Expected range from the renewal table equals the brute-force mean
    over every path of length n, for both small-step laws, at n <= 9;
    E R_3 for the simple walk is exactly 11/4."""
    t0 = time.perf_counter()
    for dist in (srw, lazy):
        table = build_return_table(dist, 9)
        oracle = enumeration_oracle(dist, 9)
        for n in range(1, 10):
            assert oracle["er"][n] == pytest.approx(float(table.er[n]),
                                                    abs=1e-12)
    srw_table = build_return_table(srw, 9)
    assert float(srw_table.er[3]) == pytest.approx(11.0 / 4.0, abs=1e-12)
    assert enumeration_oracle(srw, 3)["er"][3] == pytest.approx(2.75,
                                                               abs=1e-12)
    assert time.perf_counter() - t0 < 10.0


def test_quadrature_and_convolution_agree(srw, lazy, king):
    """Two independent routes to the return probabilities, an exact
    trig-polynomial quadrature and direct lattice convolution, agree to
    1e-10 through k = 200 on all three built-in step laws."""
    t0 = time.perf_counter()
    for dist in (srw, lazy, king):
        dp = return_probs_dp(dist, 200)
        for k in range(201):
            assert return_prob_exact(dist, k) == pytest.approx(
                float(dp[k]), abs=1e-10), (dist.name, k)
    assert time.perf_counter() - t0 < 30.0


def test_local_limit_normalization(lazy):
    """n * P(S_n = 0) sits within 2% of its continuum value 2/pi at
    n = 2000 for the lazy walk, and the deviation shrinks strictly
    between n = 500 and n = 4000."""
    t0 = time.perf_counter()
    at2000 = local_clt_check(lazy, 2000, ladder=(4, 2, 1))
    u = at2000["rows"][-1]["u"]
    target = 2.0 / math.pi
    assert at2000["rows"][-1]["k"] == 2000
    assert abs(2000 * u - target) <= 0.02 * target
    assert at2000["final_abs_dev"] <= 0.02

    spread = local_clt_check(lazy, 4000, ladder=(8, 1))
    dev500 = spread["rows"][0]["abs_dev"]
    dev4000 = spread["rows"][1]["abs_dev"]
    assert spread["rows"][0]["k"] == 500
    assert dev4000 < dev500
    assert time.perf_counter() - t0 < 60.0


def test_identities_run_zero_violations(identity_runs):
    """Dyadic and binary range decompositions and the shift-kernel
    overlap identity (tolerance 1e-10) hold on 1000 sampled paths or
    pairs each at n = 2^10, t = 256: zero violations."""
    out, elapsed = identity_runs[1]
    rows = _read_csv(out / "summary.csv")
    assert {row["check"] for row in rows} == {"binary", "dyadic", "q-kernel"}
    for row in rows:
        assert int(row["paths"]) == 1000
        assert int(row["violations"]) == 0, row
    assert elapsed < 120.0
    assert identity_runs[4][1] < 120.0


def test_parseval_on_hundred_pairs(srw):
    """Field-side and Fourier-side evaluations of the smoothed overlap
    functional agree to relative 1e-8 on 100 sampled path pairs."""
    t0 = time.perf_counter()
    worst = 0.0
    for j in range(100):
        pa = sample_poissonized(srw, 256.0, master_seed=SEED + 1,
                                replica=2 * j)
        pb = sample_poissonized(srw, 256.0, master_seed=SEED + 1,
                                replica=2 * j + 1)
        out = parseval_check(pa, pb, t=256.0, eps=0.5, b_t=4.0)
        worst = max(worst, out["residual"])
    assert worst <= 1e-8
    assert time.perf_counter() - t0 < 120.0


def test_expected_range_expansion(srw, big_srw_table):
    """ER/(n/H) at n = 2^16 lies in (1.0, 1.2) and is strictly closer to
    1 than at n = 2^10; the second-order residual (ER - n/H) H^2 / n is
    within a factor of two of 1/(2 pi sqrt(det cov))."""
    table, build_time = big_srw_table
    t0 = time.perf_counter()
    hi = expected_range_asymptotic(srw, 1 << 16, table=table)
    lo = expected_range_asymptotic(srw, 1 << 10, table=table)
    assert 1.0 < hi["ratio_to_leading"] < 1.2
    assert abs(hi["ratio_to_leading"] - 1.0) < abs(lo["ratio_to_leading"] - 1.0)
    assert 0.5 <= hi["residual_over_correction"] <= 2.0
    assert build_time + (time.perf_counter() - t0) < 60.0


def test_mc_mean_within_four_se(mc_mean_runs):
    """Sample mean of the range over 1e5 replicas sits within four
    standard errors of the exact expectation at n = 1e2, 1e3, 1e4."""
    out, elapsed = mc_mean_runs[1]
    rows = _read_csv(out / "moments.csv")
    assert sorted(int(row["n"]) for row in rows) == [100, 1000, 10000]
    for row in rows:
        assert int(row["replicas"]) == 100_000
        assert float(row["gap_in_se"]) <= 4.0, row
    assert elapsed < 300.0
    assert mc_mean_runs[4][1] < 300.0


def test_tail_asymmetry_direction(tmp_path_factory):
    """The centered range is left-skewed at n = 4096 over 2e5 replicas,
    with more values below -2 sample standard deviations than above +2.

    Upward deviations of size n log(b) / (log n)^2 already cost about
    e^{-b} while downward ones need n b / (log n)^2, so the lower tail
    is the heavy one; Le Gall's limit (log n)^2 / n (R_n - E R_n) ->
    -(2 pi sqrt(det Gamma))^2 gamma, with gamma thin on the left and
    heavy on the right, points the same way."""
    root = tmp_path_factory.mktemp("tail-asym")
    cfg = {
        "kind": "deviations",
        "distribution": "srw",
        "master_seed": SEED + 13,
        "replicas": 200_000,
        "params": {"side": "upper", "n_ladder": [4096],
                   "b_schedule": [2.0], "thresholds": [1.0]},
    }
    elapsed = _timed_cli_run(cfg, root / "run", workers=4)
    row = _read_csv(root / "run" / "moments.csv")[0]
    assert elapsed < 600.0
    assert float(row["skewness"]) < 0.0, row
    assert int(row["count_minus_2sd"]) > int(row["count_plus_2sd"]), row


def test_exponential_moment_flatness(srw):
    """Empirical mean of exp(theta0 (2 pi sqrt(det Gamma) H(n))^2 / n *
    centered range) at theta0 = 1/2 over n = 2^8 .. 2^14, 1e4 replicas
    per size: the curve must stay within a 3x band and must not grow
    monotonically.

    H(n) ~ log(n) / (2 pi sqrt(det Gamma)) is the renewal scale behind
    Le Gall's normalisation, so on this weight the spread of the exponent
    is flat in n.  The probe weighs with theta (log n)^2 / n, so each size
    gets theta_n = theta0 (2 pi sqrt(det Gamma) H(n) / log n)^2; at desk
    scale log(n) / (pi H(n)) is still climbing toward 1 for the simple
    walk, and on the bare (log n)^2 / n weight that drift alone makes the
    curve rise."""
    t0 = time.perf_counter()
    ladder = [1 << k for k in range(8, 15)]
    table = build_return_table(srw, ladder[-1])
    scale = 2.0 * math.pi * math.sqrt(float(srw.det_covariance_exact()))
    theta0 = 0.5
    thetas = [theta0 * (scale * float(table.h[n]) / math.log(n)) ** 2
              for n in ladder]
    probe = exp_moment_probe(srw, ladder, theta=thetas, mode="signed-range",
                             replicas=10_000, master_seed=SEED + 2, table=table)
    values = [point["value"] for point in probe["points"]]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert probe["max_over_min"] < 3.0, values
    assert not probe["strictly_increasing"], values


def test_variational_constant_stability():
    """The variational constant is stable to 1e-3 relative across grid
    refinements 256/512/1024, dominates the Gaussian trial quotient, and
    the interpolation-inequality audit shows zero violations over 100
    random test functions."""
    t0 = time.perf_counter()
    solved = {nodes: kappa22_solve(nodes=nodes) for nodes in (256, 512, 1024)}
    m_hats = [solved[nodes].m_hat for nodes in (256, 512, 1024)]
    for a, b in zip(m_hats, m_hats[1:]):
        assert abs(a - b) / b < 1e-3
    assert all(gaussian_half_quotient() <= m for m in m_hats)
    audit = gn_audit(m_hats[-1], num=100, seed=SEED + 3)
    assert audit["num"] == 100
    assert audit["violations"] == 0
    assert time.perf_counter() - t0 < 120.0


def test_centering_defect_grid_stability(srw, big_srw_table):
    """The normalized subadditivity defect of j/H(j), taken as a
    supremum over a 50x50 log grid up to 2^18, is finite and moves by
    at most 5% when the grid is refined to 100x100."""
    table, build_time = big_srw_table
    t0 = time.perf_counter()
    coarse = centering_defect_supremum(srw, grid_top=1 << 18,
                                       grid_points=50, table=table)
    fine = centering_defect_supremum(srw, grid_top=1 << 18,
                                     grid_points=100, table=table)
    assert math.isfinite(coarse["sup"]) and coarse["sup"] > 0.0
    assert abs(coarse["sup"] - fine["sup"]) <= 0.05 * fine["sup"]
    assert build_time + (time.perf_counter() - t0) < 60.0


def test_rerun_bytes_identical(identity_runs, mc_mean_runs):
    """Re-running any config with the same seed yields byte-identical
    CSV/JSONL outputs at any worker count (the manifest carries wall
    timestamps and is the one file exempted)."""
    for runs in (identity_runs, mc_mean_runs):
        t1 = _tree_bytes(runs[1][0])
        t4 = _tree_bytes(runs[4][0])
        assert t1.keys() == t4.keys()
        diff = [k for k in t1 if t1[k] != t4[k]]
        assert diff == []
