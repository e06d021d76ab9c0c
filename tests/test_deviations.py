"""Monte Carlo tail probes, exponential moments, iterated-logarithm
trajectories, and the constants report."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangelab import _fastpath, deviations
from rangelab.deviations import (
    DeviationProbe,
    RangeSample,
    centering_defect_supremum,
    constants_report,
    exp_moment_probe,
    lil_checkpoints,
    lil_rows,
    sample_range_ladder,
    tail_rows_from_values,
    wilson_interval,
)
from rangelab.errors import InvalidConfig
from rangelab.exact import build_return_table


def test_probe_validation():
    good = dict(n_ladder=(64, 256), b_schedule=(2.0, 3.0),
                thresholds=(0.5,), side="upper", replicas=10)
    DeviationProbe(**good)
    with pytest.raises(InvalidConfig):
        DeviationProbe(**{**good, "side": "both"})
    with pytest.raises(InvalidConfig):
        DeviationProbe(**{**good, "b_schedule": (2.0,)})
    with pytest.raises(InvalidConfig):
        DeviationProbe(**{**good, "b_schedule": (3.0, 2.0)})
    with pytest.raises(InvalidConfig):
        DeviationProbe(**{**good, "b_schedule": (0.5, 2.0)})
    with pytest.raises(InvalidConfig):
        DeviationProbe(**{**good, "replicas": 0})


def test_constraint_flags_direction():
    probe = DeviationProbe(n_ladder=(256, 65536),
                           b_schedule=(2.0, 2.0), thresholds=(1.0,),
                           side="upper", replicas=1)
    flags = probe.constraint_flags()
    # log b fixed, sqrt(log n) grows: the ratio must fall with n.
    assert flags[0]["ratio"] > flags[1]["ratio"]


@given(st.integers(0, 50), st.integers(1, 50))
def test_wilson_interval_invariants(k, extra):
    m = k + extra
    lo, hi = wilson_interval(k, m)
    assert 0.0 <= lo <= k / m <= hi <= 1.0
    lo99, hi99 = wilson_interval(k, m, z=2.576)
    # wider z nests the narrower interval, up to an ulp at the clamps
    assert lo99 <= lo + 1e-12 and hi <= hi99 + 1e-12
    if k == 0:
        assert lo == 0.0
    if k == m:
        assert hi == 1.0


def test_sample_range_values_deterministic(lazy):
    a = sample_range_ladder(lazy, (300,), 50, master_seed=5)[:, 0]
    b = sample_range_ladder(lazy, (300,), 50, master_seed=5)[:, 0]
    assert np.array_equal(a, b)
    assert a.min() >= 1
    assert a.max() <= 300
    tail = sample_range_ladder(lazy, (300,), 20, master_seed=5, first_replica=30)[:, 0]
    assert np.array_equal(tail, a[30:])


@pytest.mark.parametrize("name", ["srw", "lazy", "king"])
def test_sample_range_ladder_matches_single_n(name, request, monkeypatch):
    """Every ladder entry, in the given order and repeats included, is the
    range a single-n draw of the same replicas gives, however the
    replicas are blocked: rows longer than a block, one row a block, and
    blocks of 2 and of 4 rows (the last holding 2).  srw and king decode
    raw words, lazy-srw the alias table."""
    dist = request.getfixturevalue(name)
    ladder = (300, 40, 300, 2, 1000)
    got = sample_range_ladder(dist, ladder, 30, master_seed=4, first_replica=17)
    assert got.shape == (30, len(ladder))
    for i, n in enumerate(ladder):
        want = sample_range_ladder(dist, (n,), 30, master_seed=4, first_replica=17)[:, 0]
        assert np.array_equal(got[:, i], want)
    for block in (400, 1000, 2500, 4000):
        monkeypatch.setattr(_fastpath, "_BLOCK_STEPS", block)
        assert np.array_equal(
            sample_range_ladder(dist, ladder, 30, master_seed=4, first_replica=17), got)


def test_sample_range_ladder_memory_is_one_block(srw):
    """Sampling and counting hold one block of steps at a time, not the
    whole batch: 256 walks of 10^4 steps peak under 4 MB of numpy and
    Python allocations (whole-batch buffers took 14.4 MB)."""
    tracemalloc.start()
    try:
        sample_range_ladder(srw, [100, 1000, 10000], 256, master_seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_range_sample_moments(lazy):
    values = sample_range_ladder(lazy, (1024,), 4000, master_seed=11)[:, 0]
    sample = RangeSample(n=1024, values=values)
    table = build_return_table(lazy, 1024)
    check = sample.mean_check(table)
    assert check["gap_in_se"] < 4.0


def test_skewness_is_centering_invariant(lazy):
    values = sample_range_ladder(lazy, (256,), 2000, master_seed=3)[:, 0]
    s = RangeSample(n=256, values=values)
    shifted = s.values + 1000
    s2 = RangeSample(n=256, values=shifted)
    assert s2.skewness == pytest.approx(s.skewness, abs=1e-12)


def _tail_rows(probe: DeviationProbe, dist, master_seed: int) -> list:
    """Rate rows of a probe from the ranges of its replicas of master_seed
    on its ladder."""
    table = build_return_table(dist, max(probe.n_ladder))
    values = sample_range_ladder(dist, probe.n_ladder, probe.replicas,
                                 master_seed)
    return tail_rows_from_values(probe, dist, table,
                                 dict(zip(probe.n_ladder, values.T)))


def test_upper_tail_rows_structure(lazy):
    probe = DeviationProbe(n_ladder=(128, 512),
                           b_schedule=(3.0, 3.0), thresholds=(0.1, 0.3, 0.6),
                           side="upper", replicas=2000)
    rows = _tail_rows(probe, lazy, 17)
    # scale and exact-h variants for every (n, theta)
    assert len(rows) == 2 * 3 * 2
    by_n = {}
    for row in rows:
        assert row["replicas"] == 2000
        assert 0.0 <= row["p_hat"] <= 1.0
        if row["variant"] == "scale":
            by_n.setdefault(row["n"], []).append(row)
    for n, group in by_n.items():
        # Larger thresholds mean nested events: exceedances decrease.
        ordered = sorted(group, key=lambda r: r["theta"])
        ex = [r["exceedances"] for r in ordered]
        assert ex == sorted(ex, reverse=True)


def test_lower_tail_rows(lazy):
    probe = DeviationProbe(n_ladder=(256,),
                           b_schedule=(2.5,), thresholds=(0.05, 0.2),
                           side="lower", replicas=1500)
    rows = _tail_rows(probe, lazy, 29)
    assert len(rows) == 2
    assert all(r["variant"] == "scale" for r in rows)
    ex = [r["exceedances"] for r in sorted(rows, key=lambda r: r["theta"])]
    assert ex == sorted(ex, reverse=True)


def test_side_mismatch_rejected():
    """tail_rows_from_values follows the probe's side, so the side is
    checked once, by the probe."""
    with pytest.raises(InvalidConfig):
        DeviationProbe(n_ladder=(64,), b_schedule=(2.0,),
                       thresholds=(0.1,), side="both", replicas=10)


def test_zero_exceedance_reporting(lazy):
    """An unreachable threshold gives p_hat 0: the point rate is None
    but the Wilson upper limit still yields a finite rate bound."""
    probe = DeviationProbe(n_ladder=(128,),
                           b_schedule=(4.0,), thresholds=(50.0,),
                           side="upper", replicas=500)
    rows = _tail_rows(probe, lazy, 1)
    row = [r for r in rows if r["variant"] == "scale"][0]
    assert row["zero_exceedances"]
    assert row["rate"] is None
    assert row["rate_hi"] is not None and row["rate_hi"] < 0


def test_exp_moment_theta_zero_is_one(lazy):
    out = exp_moment_probe(lazy, (64, 128), theta=0.0, replicas=200,
                           master_seed=5, bootstrap=10)
    for point in out["points"]:
        assert point["value"] == 1.0


def test_exp_moment_matches_naive_mean(lazy):
    """The logsumexp evaluation must reproduce the plain average of
    exp-weights at small sizes where overflow cannot occur."""
    n, replicas, theta, seed = 128, 300, 0.7, 9
    table = build_return_table(lazy, n)
    out = exp_moment_probe(lazy, (n,), theta=theta, replicas=replicas,
                           master_seed=seed, table=table, bootstrap=10)
    values = sample_range_ladder(lazy, (n,), replicas, seed)[:, 0]
    w = theta * math.log(n) ** 2 / n * (values - float(table.er[n]))
    naive = float(np.exp(w).mean())
    assert out["points"][0]["value"] == pytest.approx(naive, rel=1e-12)


@pytest.mark.parametrize("case", ["random", "ties", "neg-inf", "wide"])
def test_logsumexp_matches_scipy(case):
    """The numpy logsumexp reproduces scipy.special.logsumexp bit for bit:
    on random arrays, on arrays whose maximum is tied, on arrays with
    -inf entries and on spreads wide enough to underflow.  Formulas that
    agree in exact arithmetic, log(sum(exp(a - max))) + max among them,
    differ in the last bit on some of these 301 arrays per case."""
    from scipy.special import logsumexp

    from rangelab.deviations import _logsumexp

    rng = np.random.default_rng(["random", "ties", "neg-inf", "wide"].index(case))
    for size in [1, 2, 3, 17, 128, 1000] * 50 + [4099]:
        a = rng.normal(0.0, 3.0, size)
        if case == "ties":
            a = np.round(a)
            a[rng.integers(0, size, max(1, size // 4))] = a.max()
        elif case == "neg-inf":
            a[rng.integers(0, size, max(1, size // 3))] = -np.inf
        elif case == "wide":
            a *= 300.0
        assert float.hex(float(_logsumexp(a))) == float.hex(float(logsumexp(a)))
        # each row of a block is its own logsumexp
        rows = np.stack([a, a[::-1] * 0.5, np.full(size, -np.inf)])
        assert [float.hex(float(v)) for v in _logsumexp(rows)] == [
            float.hex(float(logsumexp(row))) for row in rows]
    for a in ([-np.inf, -np.inf], [-np.inf, 2.0], [5.0, 5.0, 5.0]):
        a = np.array(a)
        assert float.hex(float(_logsumexp(a))) == float.hex(float(logsumexp(a)))


def test_exp_moment_modes(lazy):
    out = exp_moment_probe(lazy, (64,), theta=0.5, mode="abs-range",
                           replicas=100, master_seed=2, bootstrap=5)
    assert out["points"][0]["value"] >= 1.0  # |R bar| weights are >= 1 at theta>0
    with pytest.raises(InvalidConfig):
        exp_moment_probe(lazy, (64,), theta=0.5, mode="squared",
                         replicas=100, master_seed=2)
    with pytest.raises(InvalidConfig):
        exp_moment_probe(lazy, (64, 128), theta=[0.5], replicas=100,
                         master_seed=2)


def test_exp_moment_per_n_theta(lazy):
    """A per-n theta gives each point what a one-size call with that
    theta gives."""
    table = build_return_table(lazy, 128)
    both = exp_moment_probe(lazy, (64, 128), theta=[0.3, 0.6], replicas=150,
                            master_seed=7, table=table, bootstrap=0)
    assert both["theta"] == [0.3, 0.6]
    for point, theta in zip(both["points"], (0.3, 0.6)):
        alone = exp_moment_probe(lazy, (point["n"],), theta=theta,
                                 replicas=150, master_seed=7, table=table,
                                 bootstrap=0)
        assert point["value"] == alone["points"][0]["value"]


@pytest.mark.parametrize("mode", ["signed-range", "abs-range"])
def test_exp_moment_one_walk_per_replica(lazy, monkeypatch, mode):
    """The range modes draw one walk per replica for the whole ladder,
    and every point keeps the bits of a per-n draw."""
    from scipy.special import logsumexp

    from rangelab.walks import StepDistribution

    ladder, replicas, theta, seed = (64, 512, 128, 512), 120, 0.4, 13
    table = build_return_table(lazy, 512)
    expected = []
    for n in ladder:
        centered = (sample_range_ladder(lazy, (n,), replicas, seed)[:, 0].astype(np.float64)
                    - float(table.er[n]))
        stat = np.abs(centered) if mode == "abs-range" else centered
        w = theta * math.log(n) ** 2 / n * stat
        log_mean = float(logsumexp(w) - math.log(replicas))
        expected.append((log_mean, math.exp(log_mean)))
    drawn = []
    original = StepDistribution.sample_step_indices
    monkeypatch.setattr(StepDistribution, "sample_step_indices",
                        lambda self, n, rng: drawn.append(n) or original(self, n, rng))
    out = exp_moment_probe(lazy, ladder, theta=theta, mode=mode,
                           replicas=replicas, master_seed=seed, table=table,
                           bootstrap=0)
    assert drawn == [max(ladder)] * replicas
    got = [(p["log_mean"], p["value"]) for p in out["points"]]
    assert [tuple(map(float.hex, pair)) for pair in got] == [
        tuple(map(float.hex, pair)) for pair in expected]


@pytest.mark.parametrize("budget", [1, 3 * 401 + 1, None])
def test_bootstrap_matches_per_resample_loop(lazy, monkeypatch, budget):
    """log_mean, ci_lo and ci_hi hold bit for bit to a loop that draws
    each resample and takes its scipy logsumexp alone, whether the
    resamples are drawn and evaluated one, three or all at a time."""
    from scipy.special import logsumexp

    ladder, replicas, theta, seed, boot = (64, 128), 401, 0.9, 21, 37
    table = build_return_table(lazy, 128)
    if budget is not None:
        monkeypatch.setattr(deviations, "_BOOT_TERMS", budget)
    out = exp_moment_probe(lazy, ladder, theta=theta, replicas=replicas,
                           master_seed=seed, table=table, bootstrap=boot)
    boot_rng = np.random.default_rng(np.random.Philox(key=[seed, 0xB007]))
    for point, n in zip(out["points"], ladder):
        values = sample_range_ladder(lazy, (n,), replicas, seed)[:, 0]
        w = theta * math.log(n) ** 2 / n * (values.astype(np.float64) - float(table.er[n]))
        log_mean = float(logsumexp(w) - math.log(replicas))
        bs = [logsumexp(w[boot_rng.integers(0, replicas, size=replicas)])
              - math.log(replicas) for _ in range(boot)]
        lo, hi = np.quantile(bs, [0.025, 0.975])
        assert [float.hex(point[k]) for k in ("log_mean", "ci_lo", "ci_hi")] == [
            float.hex(v) for v in (log_mean, math.exp(float(lo)), math.exp(float(hi)))]


def test_lil_checkpoints_refuses_an_empty_list():
    assert deviations.lil_checkpoints(64) == [4, 8, 16, 32, 64]
    with pytest.raises(InvalidConfig):
        deviations.lil_checkpoints(64, [])
    with pytest.raises(InvalidConfig):
        deviations.lil_checkpoints(64, [4, 128])


def test_lil_trajectory_structure(srw):
    table = build_return_table(srw, 4096)
    checkpoints = lil_checkpoints(4096)
    ranges = sample_range_ladder(srw, checkpoints, 1, master_seed=41,
                                 first_replica=2)[0]
    rows = lil_rows(checkpoints, ranges, table)
    assert [row["m"] for row in rows if row["upper_stat"] is None] == [4, 8]
    ms = [row["m"] for row in rows]
    assert ms == sorted(ms)
    assert ms[-1] == 4096
    ups = [row["running_max_upper"] for row in rows
           if row["running_max_upper"] is not None]
    assert all(b >= a for a, b in zip(ups, ups[1:]))


def test_lil_band_at_desk_scale(srw):
    """Windowed LIL statistic across 16 trajectories at n = 2^16 lands
    within a factor 10 of the 2 pi sqrt(det) reference.

    The window starts at m = 2^10 because below that the triple
    logarithm is so small that early fluctuations dominate the running
    maximum forever; the limit statement itself only constrains large
    m."""
    table = build_return_table(srw, 1 << 16)
    checkpoints = lil_checkpoints(1 << 16)
    ranges = sample_range_ladder(srw, checkpoints, 16, master_seed=2026)
    sup = -math.inf
    for row_ranges in ranges:
        window = [row["upper_stat"] for row in lil_rows(checkpoints, row_ranges, table)
                  if row["m"] >= 1024 and row["upper_stat"] is not None]
        sup = max(sup, max(window))
    ref = 2.0 * math.pi * math.sqrt(float(srw.det_covariance_exact()))
    assert ref / 10.0 < sup < 10.0 * ref


def test_centering_defect_supremum(lazy):
    table = build_return_table(lazy, 1 << 13)
    coarse = centering_defect_supremum(lazy, grid_top=1 << 12,
                                       grid_points=20, table=table)
    fine = centering_defect_supremum(lazy, grid_top=1 << 12,
                                     grid_points=40, table=table)
    assert math.isfinite(coarse["sup"]) and coarse["sup"] > 0
    rel = abs(fine["sup"] - coarse["sup"]) / coarse["sup"]
    assert rel <= 0.05
    with pytest.raises(InvalidConfig):
        centering_defect_supremum(lazy, grid_top=1 << 12, grid_points=10,
                                  table=build_return_table(lazy, 1 << 12))


def test_constants_report_structure(srw, lazy):
    rep = constants_report(srw, m_hat=0.0854615)
    assert rep.upper_lil_constant == pytest.approx(math.pi)
    for name in ("half_quotient", "weinstein"):
        assert rep.theta[name] * rep.theta_inverse[name] == pytest.approx(1.0)
    rep_lazy = constants_report(lazy, m_hat=0.0854615)
    assert rep_lazy.upper_lil_constant == pytest.approx(math.pi / 2.0)
    d = rep.to_dict()
    assert d["L"] == "exp(-1 - C)"
    assert set(d["kappa4_candidates"]) == {"half_quotient", "weinstein"}
