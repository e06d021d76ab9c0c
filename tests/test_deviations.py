"""Monte Carlo tail probes, exponential moments, iterated-logarithm
trajectories, and the constants report."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangelab import deviations
from rangelab.deviations import (
    DeviationProbe,
    centering_defect_supremum,
    constants_report,
    draw_range_sample,
    exp_moment_probe,
    lil_trajectory,
    mc_tail,
    running_max_exceedance,
    sample_range_ladder,
    sample_range_values,
    tail_rows_from_values,
    wilson_interval,
)
from rangelab.errors import InvalidConfig
from rangelab.exact import build_return_table


def test_probe_validation():
    good = dict(dist_name="srw", n_ladder=(64, 256), b_schedule=(2.0, 3.0),
                thresholds=(0.5,), side="upper", replicas=10, master_seed=0)
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
    probe = DeviationProbe(dist_name="srw", n_ladder=(256, 65536),
                           b_schedule=(2.0, 2.0), thresholds=(1.0,),
                           side="upper", replicas=1, master_seed=0)
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
    a = sample_range_values(lazy, 300, 50, master_seed=5)
    b = sample_range_values(lazy, 300, 50, master_seed=5)
    assert np.array_equal(a, b)
    assert a.min() >= 1
    assert a.max() <= 300
    tail = sample_range_values(lazy, 300, 20, master_seed=5, first_replica=30)
    assert np.array_equal(tail, a[30:])


@pytest.mark.parametrize("name", ["srw", "lazy", "king"])
def test_sample_range_ladder_matches_single_n(name, request, monkeypatch):
    """Every ladder entry, in the given order and repeats included, is the
    range a single-n draw of the same replicas gives, however the
    replicas are batched."""
    dist = request.getfixturevalue(name)
    ladder = (300, 40, 300, 2, 1000)
    got = sample_range_ladder(dist, ladder, 30, master_seed=4, first_replica=17)
    assert got.shape == (30, len(ladder))
    for i, n in enumerate(ladder):
        want = sample_range_values(dist, n, 30, master_seed=4, first_replica=17)
        assert np.array_equal(got[:, i], want)
    monkeypatch.setattr(deviations, "_SAMPLE_STEPS", 2500)  # 2 rows a batch
    assert np.array_equal(
        sample_range_ladder(dist, ladder, 30, master_seed=4, first_replica=17), got)


def test_range_sample_moments(lazy):
    sample = draw_range_sample(lazy, 1024, 4000, master_seed=11)
    table = build_return_table(lazy, 1024)
    check = sample.mean_check(table)
    assert check["gap_in_se"] < 4.0


def test_skewness_is_centering_invariant(lazy):
    s = draw_range_sample(lazy, 256, 2000, master_seed=3)
    shifted = s.values + 1000
    from rangelab.deviations import RangeSample

    s2 = RangeSample(dist_name="lazy-srw", n=256, replicas=2000,
                     master_seed=3, values=shifted)
    assert s2.skewness == pytest.approx(s.skewness, abs=1e-12)


def test_upper_tail_rows_structure(lazy):
    probe = DeviationProbe(dist_name="lazy-srw", n_ladder=(128, 512),
                           b_schedule=(3.0, 3.0), thresholds=(0.1, 0.3, 0.6),
                           side="upper", replicas=2000, master_seed=17)
    rows = mc_tail(probe)
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
    probe = DeviationProbe(dist_name="lazy-srw", n_ladder=(256,),
                           b_schedule=(2.5,), thresholds=(0.05, 0.2),
                           side="lower", replicas=1500, master_seed=29)
    rows = mc_tail(probe)
    assert len(rows) == 2
    assert all(r["variant"] == "scale" for r in rows)
    ex = [r["exceedances"] for r in sorted(rows, key=lambda r: r["theta"])]
    assert ex == sorted(ex, reverse=True)


def test_side_mismatch_rejected():
    """mc_tail follows the probe's side, so the side is checked once, by
    the probe."""
    with pytest.raises(InvalidConfig):
        DeviationProbe(dist_name="srw", n_ladder=(64,), b_schedule=(2.0,),
                       thresholds=(0.1,), side="both", replicas=10,
                       master_seed=0)


def test_zero_exceedance_reporting(lazy):
    """An unreachable threshold gives p_hat 0: the point rate is None
    but the Wilson upper limit still yields a finite rate bound."""
    probe = DeviationProbe(dist_name="lazy-srw", n_ladder=(128,),
                           b_schedule=(4.0,), thresholds=(50.0,),
                           side="upper", replicas=500, master_seed=1)
    rows = mc_tail(probe)
    row = [r for r in rows if r["variant"] == "scale"][0]
    assert row["zero_exceedances"]
    assert row["rate"] is None
    assert row["rate_hi"] is not None and row["rate_hi"] < 0


def test_tail_rows_from_values_matches_simulation(lazy):
    probe = DeviationProbe(dist_name="lazy-srw", n_ladder=(128, 256),
                           b_schedule=(2.0, 2.0), thresholds=(0.2,),
                           side="upper", replicas=800, master_seed=23)
    table = build_return_table(lazy, 256)
    direct = mc_tail(probe, dist=lazy, table=table)
    values = {n: sample_range_values(lazy, n, 800, 23) for n in (128, 256)}
    rebuilt = tail_rows_from_values(probe, lazy, table, values)
    assert direct == rebuilt


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
    values = sample_range_values(lazy, n, replicas, seed)
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
        centered = (sample_range_values(lazy, n, replicas, seed).astype(np.float64)
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


def test_exp_moment_p_intersection_smoke(lazy):
    out = exp_moment_probe(lazy, (64,), theta=0.2, mode="p-intersection",
                           replicas=60, master_seed=4, bootstrap=5)
    assert out["points"][0]["value"] > 0


def test_lil_checkpoints_refuses_an_empty_list():
    assert deviations.lil_checkpoints(64) == [4, 8, 16, 32, 64]
    with pytest.raises(InvalidConfig):
        deviations.lil_checkpoints(64, [])
    with pytest.raises(InvalidConfig):
        deviations.lil_checkpoints(64, [4, 128])


def test_lil_trajectory_structure(srw):
    table = build_return_table(srw, 4096)
    out = lil_trajectory(srw, 4096, master_seed=41, replica=2, table=table)
    assert out["skipped"] == [4, 8]
    ms = [row["m"] for row in out["rows"]]
    assert ms == sorted(ms)
    assert ms[-1] == 4096
    ups = [row["running_max_upper"] for row in out["rows"]
           if row["running_max_upper"] is not None]
    assert all(b >= a for a, b in zip(ups, ups[1:]))
    assert out["upper_reference"] == pytest.approx(math.pi)
    assert "not conclusive" in out["note"]


def test_lil_checkpoint_validation(srw):
    with pytest.raises(InvalidConfig):
        lil_trajectory(srw, 64, master_seed=0, checkpoints=[32, 128])


def test_lil_band_at_desk_scale(srw):
    """Windowed LIL statistic across 16 trajectories at n = 2^16 lands
    within a factor 10 of the 2 pi sqrt(det) reference.

    The window starts at m = 2^10 because below that the triple
    logarithm is so small that early fluctuations dominate the running
    maximum forever; the limit statement itself only constrains large
    m."""
    table = build_return_table(srw, 1 << 16)
    sup = -math.inf
    for j in range(16):
        out = lil_trajectory(srw, 1 << 16, master_seed=2026, replica=j,
                             table=table)
        window = [row["upper_stat"] for row in out["rows"]
                  if row["m"] >= 1024 and row["upper_stat"] is not None]
        sup = max(sup, max(window))
    ref = out["upper_reference"]
    assert ref / 10.0 < sup < 10.0 * ref


def test_running_max_exceedance_nesting(lazy):
    out = running_max_exceedance(lazy, 512, replicas=300, master_seed=6,
                                 lambdas=(0.5, 1.0, 2.0, 4.0))
    freqs = out["frequencies"]
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))
    assert all(0.0 <= f <= 1.0 for f in freqs)


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
