"""Return-probability tables: dual computation routes, renewal
identities, enumeration ground truth, and the slow-variation expansion.

Frozen expectations below were produced by the DP convolution oracle
and by full path enumeration; srw/lazy values are exact dyadic
rationals (u_k = integer / 4^k), so equality is essentially exact.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangelab import _fastpath, exact, experiments
from rangelab._fastpath import enum_walk_moments, log_power_sums
from rangelab.errors import InvalidConfig, ResourceLimit
from rangelab.exact import (
    ReturnProbTable,
    build_return_table,
    enumeration_oracle,
    expected_range_asymptotic,
    h_difference,
    local_clt_check,
    return_prob_exact,
    return_probs_dp,
    solve_unit_triangular_toeplitz,
)
from rangelab.experiments import ExperimentConfig, _write_csv, run_experiment
from rangelab.walks import distribution_from_config

SRW_U = [1.0, 0.0, 0.25, 0.0, 0.140625, 0.0, 0.09765625, 0.0,
         0.07476806640625]
LAZY_U = [1.0, 0.5, 0.3125, 0.21875, 0.1650390625, 0.13134765625,
          0.10870361328125]
KING_U = [1.0, 0.0, 0.125, 0.046875, 0.052734375]

SRW_ER = [0.0, 1.0, 2.0, 2.75, 3.5, 4.171875, 4.84375, 5.47265625,
          6.1015625, 6.70184326171875]
SRW_PAIRS = [0.0, 0.0, 0.0, 0.25, 0.5, 0.890625, 1.28125, 1.76953125,
             2.2578125, 2.82086181640625]
LAZY_ER = [0.0, 1.0, 1.5, 1.9375, 2.34375, 2.7294921875, 3.10009765625]


def test_dp_return_probs_frozen(srw, lazy, king):
    np.testing.assert_allclose(return_probs_dp(srw, 8), SRW_U, atol=1e-15)
    np.testing.assert_allclose(return_probs_dp(lazy, 6), LAZY_U, atol=1e-15)
    np.testing.assert_allclose(return_probs_dp(king, 4), KING_U, atol=1e-15)


def test_quadrature_matches_dp_small(srw, lazy, king):
    for dist, frozen in ((srw, SRW_U), (lazy, LAZY_U), (king, KING_U)):
        for k, expected in enumerate(frozen):
            assert abs(return_prob_exact(dist, k) - expected) < 1e-12


KNIGHT_STEPS = [[a * x, b * y, 1, 8] for x, y in ((1, 2), (2, 1))
                for a in (1, -1) for b in (1, -1)]


@pytest.mark.parametrize("law", ["srw", "king", {"steps": KNIGHT_STEPS}])
def test_small_k_quadrature_matches_exact_grid(law):
    """Up to k0 = 256 the table powers each distinct value of phi on the
    exact grid once, weighted by its count: u stays within 1e-15 of the
    cell-by-cell quadrature."""
    dist = distribution_from_config(law)
    table = build_return_table(dist, 256, use_cache=False)
    for k in list(range(1, 13)) + [63, 64, 127, 128, 201, 255, 256]:
        assert abs(table.u[k] - return_prob_exact(dist, k)) <= 1e-15, k


def test_enumeration_oracle_frozen(srw, lazy):
    e = enumeration_oracle(srw, 9)
    np.testing.assert_allclose(e["er"], SRW_ER, atol=1e-13)
    np.testing.assert_allclose(e["equal_time_pairs"], SRW_PAIRS, atol=1e-13)
    el = enumeration_oracle(lazy, 6)
    np.testing.assert_allclose(el["er"], LAZY_ER, atol=1e-13)


def test_enumeration_guard(srw):
    with pytest.raises(ResourceLimit):
        enumeration_oracle(srw, 64)
    with pytest.raises(InvalidConfig):
        enumeration_oracle(srw, -1)
    # three steps of 2^30 can leave the int32 box the site keys assume
    far = distribution_from_config(
        {"steps": [[1 << 30, 0, 1, 4], [-(1 << 30), 0, 1, 4],
                   [0, 1, 1, 4], [0, -1, 1, 4]]})
    enumeration_oracle(far, 1)
    with pytest.raises(ResourceLimit):
        enumeration_oracle(far, 3)


# a long-step law with weights 1/6, 1/5 and 2/15, none of them dyadic
NON_DYADIC = {"name": "non-dyadic", "steps": [
    [2, 1, 1, 6], [-2, -1, 1, 6], [0, 1, 1, 5], [0, -1, 1, 5],
    [1, 0, 2, 15], [-1, 0, 2, 15]]}
ENUM_LAWS = [pytest.param("srw", 6, id="srw"), pytest.param("king", 4, id="king"),
             pytest.param("lazy-srw", 5, id="lazy-srw"),
             pytest.param(NON_DYADIC, 5, id="non-dyadic")]


def _set_recount(dist, n):
    """E[distinct sites] and E[equal-time pairs] for every m <= n, summed
    path by path over a Python dict of visit counts per site."""
    steps = [(int(x), int(y)) for x, y in dist.support]
    probs = [float(p) for p in dist.probs]
    er = [[0.0] for _ in range(n + 1)]
    pairs = [[0.0] for _ in range(n + 1)]
    for path in itertools.product(range(len(steps)), repeat=n):
        w = math.prod(probs[i] for i in path)
        x = y = meetings = 0
        seen = {}
        for m, i in enumerate(path, 1):
            x, y = x + steps[i][0], y + steps[i][1]
            meetings += seen.get((x, y), 0)
            seen[(x, y)] = seen.get((x, y), 0) + 1
            er[m].append(w * len(seen))
            pairs[m].append(w * meetings)
    return ([math.fsum(t) for t in er], [math.fsum(t) for t in pairs])


def _moments(dist, n):
    return enum_walk_moments(dist.support[:, 0], dist.support[:, 1],
                             dist.probs, n)


@pytest.mark.parametrize("law, n", ENUM_LAWS)
def test_enum_walk_moments_match_set_recount(law, n):
    dist = distribution_from_config(law)
    er, pairs = _moments(dist, n)
    want_er, want_pairs = _set_recount(dist, n)
    np.testing.assert_allclose(er, want_er, rtol=1e-14, atol=0)
    np.testing.assert_allclose(pairs, want_pairs, rtol=1e-14, atol=0)


# float.hex of (er, equal_time_pairs) at the last horizon, from the
# sort-based kernel this one replaced; dyadic weights make every partial
# sum exact, so the prefix tree must reproduce them bit for bit
ENUM_BITS = {
    ("srw", 9): ("0x1.aceb000000000p+2", "0x1.6912000000000p+1"),
    ("king", 6): ("0x1.50a8000000000p+2", "0x1.90c0000000000p-1"),
    ("lazy-srw", 7): ("0x1.baba000000000p+1", "0x1.9375000000000p+2"),
}


@pytest.mark.parametrize("name, n", list(ENUM_BITS))
def test_enum_walk_moments_bits_pinned(name, n):
    er, pairs = _moments(distribution_from_config(name), n)
    assert (float(er[n]).hex(), float(pairs[n]).hex()) == ENUM_BITS[name, n]


@pytest.mark.parametrize("law, n, leaves", [
    pytest.param("king", 4, 100, id="king"),
    pytest.param(NON_DYADIC, 5, 50, id="non-dyadic")])
def test_enum_walk_moments_depth_first_blocks(monkeypatch, law, n, leaves):
    """A leaf budget far below |support|^n forces depth-first blocks whose
    last block is ragged (64 king prefixes in blocks of 12, 36 of the
    long-step law in blocks of 8); the moments are those of the set
    recount, and for the dyadic king law the same bits."""
    dist = distribution_from_config(law)
    whole = _moments(dist, n)
    monkeypatch.setattr(_fastpath, "_ENUM_LEAVES", leaves)
    er, pairs = _moments(dist, n)
    want_er, want_pairs = _set_recount(dist, n)
    np.testing.assert_allclose(er, want_er, rtol=1e-14, atol=0)
    np.testing.assert_allclose(pairs, want_pairs, rtol=1e-14, atol=0)
    if law == "king":
        assert er.tobytes() == whole[0].tobytes()
        assert pairs.tobytes() == whole[1].tobytes()


def test_enum_walk_moments_memory_follows_the_leaf_budget(monkeypatch, srw):
    """At 2^10 leaves the 4^9 srw paths fit in well under 2 MiB; the whole
    last level alone would take 4^9 * 12 words, 24 MiB."""
    monkeypatch.setattr(_fastpath, "_ENUM_LEAVES", 1 << 10)
    tracemalloc.start()
    try:
        er, _ = _moments(srw, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert er[9] == SRW_ER[9]
    assert peak < 2 << 20


def test_table_matches_enumeration(srw):
    table = build_return_table(srw, 16)
    e = enumeration_oracle(srw, 9)
    np.testing.assert_allclose(table.er[:10], e["er"], atol=1e-12)


def test_table_identity_residuals(lazy):
    table = build_return_table(lazy, 512)
    res = table.identity_residuals()
    assert max(res.values()) < 1e-12


def test_table_shapes_and_monotonicity(lazy):
    table = build_return_table(lazy, 256)
    assert table.n == 256
    for arr in (table.u, table.h, table.r, table.f, table.er):
        assert arr.shape == (257,)
    assert np.all(np.diff(table.h) >= -1e-15)
    assert np.all(np.diff(table.er) > 0)
    assert table.er[1] == pytest.approx(1.0, abs=1e-15)
    # f is a probability tail: 1 = f_0 >= f_1 >= ... >= 0
    assert table.f[0] == pytest.approx(1.0, abs=1e-15)
    assert np.all(np.diff(table.f) <= 1e-15)
    assert np.all(table.f >= -1e-15)


def test_h_difference_telescopes(lazy):
    table = build_return_table(lazy, 400)
    ab = h_difference(lazy, 10, 100, table=table)
    bc = h_difference(lazy, 100, 400, table=table)
    ac = h_difference(lazy, 10, 400, table=table)
    assert ab + bc == pytest.approx(ac, abs=1e-12)
    assert h_difference(lazy, 50, 50, table=table) == 0.0


def test_table_cache_roundtrip(tmp_path, lazy):
    table = build_return_table(lazy, 64)
    path = tmp_path / "t.npz"
    table.save_npz(path)
    from rangelab.exact import ReturnProbTable

    loaded = ReturnProbTable.load_npz(path)
    assert loaded.n == table.n
    assert loaded.dist_digest == table.dist_digest
    np.testing.assert_array_equal(loaded.u, table.u)
    np.testing.assert_array_equal(loaded.er, table.er)


def test_table_cache_serves_only_exact_sizes(srw):
    """A smaller table is built afresh, not sliced from a larger cached
    one: the slice differs from a fresh build in the last bits."""
    build_return_table(srw, 64)
    cached = build_return_table(srw, 8)
    fresh = build_return_table(srw, 8, use_cache=False)
    assert cached.n == 8
    for name in ("u", "h", "r", "f", "er"):
        assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes()


def test_disk_cache_rebuilds_a_foreign_table(tmp_path, monkeypatch, srw, lazy):
    """A cache file holding another table (a larger n, or another law,
    under the srw n = 8 name) is rebuilt and overwritten, not served."""
    monkeypatch.setenv("RANGELAB_CACHE_DIR", str(tmp_path))
    fresh = build_return_table(srw, 8, use_cache=False)
    fp = tmp_path / f"table_{srw.digest()}_8.npz"
    for foreign in (build_return_table(srw, 64, use_cache=False),
                    build_return_table(lazy, 8, use_cache=False)):
        foreign.save_npz(fp)
        monkeypatch.setattr(exact, "_table_cache", {})
        got = build_return_table(srw, 8)
        stored = ReturnProbTable.load_npz(fp)
        for table in (got, stored):
            assert (table.n, table.dist_digest) == (8, srw.digest())
            for name in ("u", "h", "r", "f", "er"):
                assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes()


def test_local_clt_normalization(lazy):
    check = local_clt_check(lazy, 2000)
    assert check["final_abs_dev"] < 0.02
    assert check["monotone_improving"]


def test_local_clt_rejects_periodic(srw):
    with pytest.raises(InvalidConfig):
        local_clt_check(srw, 1000)


def test_spectral_return_keeps_the_period(srw):
    """A single spectral u_k of srw is an exact 0 at odd k, as in the
    table, and matches the table at even k."""
    table = build_return_table(srw, 2048)
    for k in (257, 1001, 2047):
        assert exact.return_prob_spectral(srw, k) == 0.0
    for k in (300, 1000, 1024, 2046, 2048):
        assert exact.return_prob_spectral(srw, k) == pytest.approx(table.u[k], rel=1e-14)


def test_expected_range_asymptotic_fields(lazy):
    out = expected_range_asymptotic(lazy, 4096)
    assert out["leading"] > 0
    assert out["ratio_to_leading"] > 1.0
    assert out["residual"] == pytest.approx(
        out["er_exact"] - out["leading"], abs=1e-12)


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_toeplitz_solver_matches_dense(size, seed):
    """The unit-triangular Toeplitz solve agrees with a dense
    forward-substitution solve.  (A pivoting LU solve is no reference
    here: for kernels whose solution grows to ~1e9 it errs by ~1e-7
    relative, while forward substitution agrees with exact rational
    arithmetic.)"""
    from scipy.linalg import solve_triangular

    rng = np.random.default_rng(seed)
    kernel = rng.normal(size=size) * 0.5
    kernel[0] = 1.0
    rhs = rng.normal(size=size)
    mat = np.zeros((size, size))
    for i in range(size):
        mat[i, : i + 1] = kernel[i::-1]
    expected = solve_triangular(mat, rhs, lower=True)
    got = solve_unit_triangular_toeplitz(kernel, rhs)
    np.testing.assert_allclose(got, expected, atol=1e-9 * max(1.0, np.abs(expected).max()))


@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_series_inverse_matches_dense(size, seed):
    """The Newton series inverse V = 1/U agrees with a dense solve of the
    unit lower-triangular Toeplitz system U V = e_0."""
    rng = np.random.default_rng(seed)
    kernel = rng.normal(size=size) * 0.5 / np.arange(1, size + 1)
    kernel[0] = 1.0
    mat = np.zeros((size, size))
    for i in range(size):
        mat[i, : i + 1] = kernel[i::-1]
    expected = np.linalg.solve(mat, np.eye(size)[:, 0])
    got = solve_unit_triangular_toeplitz(kernel)
    np.testing.assert_allclose(got, expected, atol=1e-9 * max(1.0, np.abs(expected).max()))


@given(st.integers(0, 40), st.integers(0, 40), st.integers(1, 150),
       st.integers(0, 300), st.integers(0, 2**32 - 1), st.booleans())
def test_log_power_sums_match_per_k_loop(n_pos, n_neg, k_lo, width, seed, tied):
    """The blocked power sums agree with one sum per k over the terms at
    or above e^{-tcut}; the blocks keep a few more terms, each below
    e^{-tcut}.  With tied set, the la values are drawn from a pool of
    four, so runs of equal values are summed once with their lengths."""
    rng = np.random.default_rng(seed)
    if tied:
        pool = rng.exponential(0.5, 4)
        la_pos = -np.sort(rng.choice(pool, n_pos))
        la_neg = -np.sort(rng.choice(pool, n_neg))
    else:
        la_pos = -np.sort(rng.exponential(0.5, n_pos))
        la_neg = -np.sort(rng.exponential(0.5, n_neg))
    k_hi = k_lo + width
    got = log_power_sums(la_pos, la_neg, k_lo, k_hi, 60.0)
    for k in range(k_lo, k_hi + 1):
        sp = np.exp(k * la_pos[la_pos >= -60.0 / k]).sum()
        sn = np.exp(k * la_neg[la_neg >= -60.0 / k]).sum()
        want = sp + sn if k % 2 == 0 else sp - sn
        assert abs(got[k - k_lo] - want) <= 1e-13 * (sp + sn) + 1e-24


@pytest.mark.parametrize("columns", [None, 97])
@pytest.mark.parametrize("signs", ["pos", "neg", "both"])
@pytest.mark.parametrize("tied", [False, True])
def test_log_power_sums_match_fsum(monkeypatch, columns, signs, tied):
    """The blocked sums agree with math.fsum over the raw terms to a
    relative 1e-13 of the sum of their magnitudes, over several k blocks
    and, with 97 columns at a time, several column chunks.  The terms the
    blocks drop are below e^{-60} each."""
    if columns is not None:
        monkeypatch.setattr(_fastpath, "_POWER_COLUMNS", columns)
    rng = np.random.default_rng(7 + 2 * ("pos", "neg", "both").index(signs) + tied)
    draw = (lambda size: rng.choice(-rng.exponential(0.05, 9), size)) if tied \
        else (lambda size: -rng.exponential(0.05, size))
    la_pos = -np.sort(-draw(1500)) if signs != "neg" else np.empty(0)
    la_neg = -np.sort(-draw(1200)) if signs != "pos" else np.empty(0)
    k_lo, k_hi = 3, 300
    got = log_power_sums(la_pos, la_neg, k_lo, k_hi, 60.0)
    for k in range(k_lo, k_hi + 1):
        sign = 1.0 if k % 2 == 0 else -1.0
        terms = np.concatenate((np.exp(k * la_pos), sign * np.exp(k * la_neg)))
        want = math.fsum(terms.tolist())
        scale = math.fsum(np.abs(terms).tolist())
        assert abs(got[k - k_lo] - want) <= 1e-13 * scale, k


# a law with no reflection symmetry
SKEW_STEPS = [[1, 0, 1, 8], [-1, 0, 1, 8], [0, 1, 1, 8], [0, -1, 1, 8],
              [1, 1, 1, 8], [-1, -1, 1, 8], [2, -1, 1, 8], [-2, 1, 1, 8]]


def test_g_grid_matches_direct_trig():
    """The angle-sum evaluation of g = 1 - |phi| agrees with sines and
    cosines taken on the grid, for a law with no reflection symmetry."""
    dist = distribution_from_config({"name": "skew", "steps": SKEW_STEPS})
    lx = np.linspace(0.0, 2 * math.pi, 37)
    ly = np.linspace(0.0, 2 * math.pi, 41)
    g, negative = exact._g_sign_grid(dist, lx, ly)
    half = 0.5 * (dist.support[:, 0, None, None] * lx[:, None]
                  + dist.support[:, 1, None, None] * ly[None, :])
    p = dist.probs[:, None, None]
    one_minus = (2 * p * np.sin(half) ** 2).sum(axis=0)
    one_plus = (2 * p * np.cos(half) ** 2).sum(axis=0)
    np.testing.assert_array_equal(negative, one_minus > 1.0)
    np.testing.assert_allclose(g, np.where(negative, one_plus, one_minus),
                               rtol=0, atol=1e-15)


LONG_STEPS = {a: [[x, 0, 1, 6] for x in (a, -a, a + 1, -a - 1)] + [[0, 1, 1, 6], [0, -1, 1, 6]]
              for a in (1, 12)}


def _law(name):
    """A builtin law, the skew law, or +-(a,0), +-(a+1,0), +-(0,1) as "long-a"."""
    from rangelab.walks import builtin_distribution

    if name == "skew":
        return distribution_from_config({"name": name, "steps": SKEW_STEPS})
    if name.startswith("long-"):
        return distribution_from_config({"name": name, "steps": LONG_STEPS[int(name[5:])]})
    return builtin_distribution(name)


def _nearest_node(i, m, mc):
    """Index of the coarse node (angles 2 pi j / mc - pi / 2) nearest to
    the angle 2 pi i / m, ties rounded up."""
    return (np.floor(i * mc / m + 0.5).astype(np.int64) + mc // 4) % mc


@pytest.mark.parametrize("name", ["srw", "lazy-srw", "king"])
def test_certified_floor_matches_full_scan(name):
    """The row and column floors are the minima of g over one scan of
    the whole coarse grid, lowered by the Lipschitz slack."""
    ctx = exact._SpectralContext(_law(name))
    mc = ctx.scan_size
    lam = 2 * math.pi * np.arange(mc) / mc - 0.5 * math.pi
    g, _ = exact._g_sign_grid(ctx.dist, lam, lam)
    slack = float(sum(p * (abs(x) + abs(y)) for (x, y), p in
                      zip(ctx.dist.support.tolist(), ctx.dist.probs))) * math.pi / mc
    np.testing.assert_allclose(ctx.row_floor, g.min(axis=1) - slack, rtol=0, atol=1e-15)
    np.testing.assert_allclose(ctx.col_floor, g.min(axis=0) - slack, rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["srw", "lazy-srw", "king", "skew", "long-1", "long-12"])
def test_certified_floor_holds_on_a_finer_grid(name):
    """On a grid 4x finer per axis than the scan, g is at least the floor
    of the point's nearest coarse row and of its nearest column; so no
    point with g <= g_cut lies outside a kept row and column, whatever
    g_cut."""
    dist = _law(name)
    ctx = exact._SpectralContext(dist)
    fine = 4 * ctx.scan_size
    idx = np.arange(-fine // 4, 3 * fine // 4)
    near = _nearest_node(idx, fine, ctx.scan_size)
    lam = idx * (2 * math.pi / fine)
    col_floor = ctx.col_floor[near]
    assert (ctx.row_floor > 0).any()
    for r0 in range(0, fine, 256):
        g, _ = exact._g_sign_grid(dist, lam[r0:r0 + 256], lam)
        assert np.all(g >= ctx.row_floor[near[r0:r0 + 256], None])
        assert np.all(g >= col_floor)


@pytest.mark.parametrize("name", ["srw", "lazy-srw", "king", "skew", "long-1", "long-12"])
def test_region_harvest_matches_brute_force(name):
    """At every band of a 4096 table the region harvest is, bit for bit,
    the g <= g_cut filter of the whole fine grid over i in [-m/4, 3m/4)."""
    dist = _law(name)
    ctx = exact._spectral_context(dist)
    k0 = min(exact._REGIME_A_TOP, max(16, 2048 // (2 * ctx.s) - 1))
    lo = k0 + 1
    while lo <= 4096:
        hi = 2 * (lo - 1)
        m = exact._even_at_least(8.0 * ctx.s * math.sqrt(hi))
        g_cut = -math.expm1(-exact._TCUT / lo)
        lam = np.arange(-(m // 4), m - m // 4) * (2 * math.pi / m)
        pos, neg = [], []
        for r0 in range(0, m, 512):
            g, negative = exact._g_sign_grid(dist, lam[r0:r0 + 512], lam)
            keep = g <= g_cut
            la = np.log1p(-g[keep])
            pos.append(la[~negative[keep]])
            neg.append(la[negative[keep]])
        got_pos, got_neg = exact._harvest_band(ctx, m, g_cut)
        assert got_pos.size + got_neg.size > 0
        for got, want in ((got_pos, pos), (got_neg, neg)):
            want = np.sort(np.concatenate(want))[::-1]
            assert got.tobytes() == want.tobytes()
        lo = hi + 1


def test_caches_keep_the_most_recent_entries(monkeypatch, lazy):
    """Both in-process caches hold a fixed number of entries, evict the
    least recently used first, and serve exact (digest, n) hits."""
    monkeypatch.setattr(exact, "_table_cache", {})
    monkeypatch.setattr(exact, "_context_cache", {})
    limit = exact._TABLE_CACHE_ENTRIES
    sizes = list(range(2, limit + 5))
    built = {n: build_return_table(lazy, n) for n in sizes}
    assert len(exact._table_cache) == limit
    for n in sizes[-limit:]:
        assert build_return_table(lazy, n) is built[n]
    # a hit on the oldest entry saves it from the next eviction
    build_return_table(lazy, sizes[-limit])
    build_return_table(lazy, 1)
    assert build_return_table(lazy, sizes[-limit]) is built[sizes[-limit]]
    assert (lazy.digest(), sizes[-limit + 1]) not in exact._table_cache
    fresh = build_return_table(lazy, sizes[0])
    assert fresh is not built[sizes[0]] and fresh.n == sizes[0]
    assert fresh.er.tobytes() == built[sizes[0]].er.tobytes()
    assert len(exact._table_cache) == limit

    limit = exact._CONTEXT_CACHE_ENTRIES
    laws = [distribution_from_config(
        {"steps": [[1, 0, a, 2 * a + 2], [-1, 0, a, 2 * a + 2],
                   [0, 1, 1, 2 * a + 2], [0, -1, 1, 2 * a + 2]]})
        for a in range(1, limit + 4)]
    contexts = [exact._spectral_context(dist) for dist in laws]
    assert len(exact._context_cache) == limit
    assert exact._spectral_context(laws[-1]) is contexts[-1]
    assert exact._spectral_context(laws[0]) is not contexts[0]
    assert len(exact._context_cache) == limit


def test_periodic_table_has_exact_zeros(srw):
    """srw has period 2: u and r vanish at odd k, exactly."""
    table = build_return_table(srw, 1 << 12)
    assert not table.u[1::2].any() and not table.r[1::2].any()
    assert np.all(table.u[::2] > 0) and np.all(table.r[2::2] > 0)


def test_long_odd_return_is_not_taken_for_period_two():
    """+-(12,0), +-(13,0), +-(0,1) first returns at an odd lag at k = 25
    (13 x (+12) and 12 x (-13)), so it is aperiodic although every
    shorter return is even.  Its odd-k entries, 1.5e-8 at k = 39 and
    4e-5 at k = 199, match the direct convolution and the exact
    quadrature in both table regimes."""
    from rangelab.walks import distribution_from_config

    steps = [[12, 0, 1, 6], [-12, 0, 1, 6], [13, 0, 1, 6], [-13, 0, 1, 6],
             [0, 1, 1, 6], [0, -1, 1, 6]]
    dist = distribution_from_config({"name": "long-odd", "steps": steps})
    dp = return_probs_dp(dist, 40)
    assert dp[25] > 0 and not dp[1:25:2].any()
    table = build_return_table(dist, 40, use_cache=False)
    np.testing.assert_allclose(table.u, dp, rtol=0, atol=1e-16)
    assert table.u[39] == pytest.approx(dp[39], rel=1e-6)
    big = build_return_table(dist, 200, use_cache=False)
    for k in (101, 151, 199):
        assert big.u[k] == pytest.approx(return_prob_exact(dist, k), rel=1e-9)


def test_one_step_return_is_the_zero_step_mass(srw, lazy, king):
    for dist, p0 in ((srw, 0.0), (lazy, 0.5), (king, 0.0)):
        table = build_return_table(dist, 64)
        assert table.u[1] == p0
        assert table.r[1] == p0


def test_no_negative_probabilities(srw, lazy, king):
    """u and r are probabilities; at 2^16 every builtin table keeps them
    nonnegative in floating point too."""
    for dist in (srw, lazy, king):
        table = build_return_table(dist, 1 << 16)
        assert int((table.u < 0).sum()) == 0
        assert int((table.r < 0).sum()) == 0


def test_top_band_bits_pinned(srw, king):
    """u at 2^16 comes from the top band alone (m = 2048), so its bits
    pin that band's harvest and power sums."""
    assert build_return_table(srw, 1 << 16).u[-1].hex() == "0x1.45f263e341d58p-17"
    assert build_return_table(king, 1 << 16).u[-1].hex() == "0x1.b2989d53db4e4p-19"


def test_disk_cache_rebuilds_an_unstamped_table(tmp_path, monkeypatch, srw):
    """A cache file without the algorithm stamp (the layout written
    before the stamp existed), or with another stamp, is rebuilt."""
    monkeypatch.setenv("RANGELAB_CACHE_DIR", str(tmp_path))
    fresh = build_return_table(srw, 8, use_cache=False)
    fp = tmp_path / f"table_{srw.digest()}_8.npz"
    stale = {name: getattr(fresh, name) + 1e-3 for name in ("u", "h", "r", "f", "er")}
    for meta in (["srw", srw.digest(), "8"], ["srw", srw.digest(), "8", "old"]):
        np.savez_compressed(fp, meta=np.array(meta), **stale)
        monkeypatch.setattr(exact, "_table_cache", {})
        got = build_return_table(srw, 8)
        stored = ReturnProbTable.load_npz(fp)
        assert np.load(fp)["meta"].tolist()[3:] == [exact.TABLE_ALGORITHM]
        for table in (got, stored):
            for name in ("u", "h", "r", "f", "er"):
                assert getattr(table, name).tobytes() == getattr(fresh, name).tobytes()


def test_table_csv_matches_row_writer(tmp_path):
    """The column-wise table.csv has the bytes of the row-dict writer,
    empty er_enum cells past the enumeration depth included."""
    cfg = ExperimentConfig.from_dict(
        {"kind": "exact", "distribution": "king", "replicas": 1,
         "params": {"n": 12, "enumerate": True, "enumerate_n": 4}},
        out=str(tmp_path / "run"))
    run_experiment(cfg)
    table = build_return_table(cfg.dist(), 12)
    er_enum = enumeration_oracle(cfg.dist(), 4)["er"]
    columns = ["k", "u", "h", "r", "f", "er", "er_enum"]
    rows = [{"k": k, "u": float(table.u[k]), "h": float(table.h[k]),
             "r": float(table.r[k]), "f": float(table.f[k]),
             "er": float(table.er[k]),
             "er_enum": float(er_enum[k]) if k < len(er_enum) else None}
            for k in range(13)]
    _write_csv(tmp_path / "rows.csv", cfg.config_hash, "exact-table-v1",
               columns, rows)
    got = (tmp_path / "run" / "table.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.decode().splitlines()[-1].endswith(",")


def _column_writer_bytes(config_hash: str, schema: str, columns: dict) -> bytes:
    """The column-wise writer that the block writer replaced, kept as its
    oracle: every float formatted up front by repr, columns padded with
    blank cells to the first one's length, and the whole file joined at
    once."""
    rows = len(columns[next(iter(columns))])
    cells = {}
    for name, col in columns.items():
        text = list(map(repr, col.tolist())) if isinstance(col, np.ndarray) else col
        cells[name] = text + [""] * (rows - len(text))
    lines = [f"# config_hash={config_hash} schema={schema}", ",".join(cells)]
    lines.extend(map(",".join, zip(*cells.values())))
    return ("\n".join(lines) + "\n").encode()


NONDYADIC_STEPS = [[x, y, 1, 6] for x, y in ((1, 0), (-1, 0), (0, 1), (0, -1),
                                             (1, 1), (-1, -1))]


@pytest.mark.parametrize("law, n, enumerate_n", [
    ("srw", 1 << 16, 9),
    ("srw", experiments._CSV_BLOCK_ROWS - 1, None),
    ("srw", experiments._CSV_BLOCK_ROWS + 1, 5),
    ("lazy-srw", 3000, 6),
    ({"steps": NONDYADIC_STEPS}, 1000, None),
    ({"steps": NONDYADIC_STEPS}, 1000, 7),
])
def test_table_csv_matches_column_writer(tmp_path, law, n, enumerate_n):
    """table.csv, written in row blocks with one repr per distinct value,
    has the bytes of the column-wise writer for the same table: across
    block edges (n is the block size -1 and +1), on a period-2
    law with exact zeros and on lazy and non-dyadic laws, with and
    without er_enum."""
    params = {"n": n, "enumerate": enumerate_n is not None}
    if enumerate_n is not None:
        params["enumerate_n"] = enumerate_n
    cfg = ExperimentConfig.from_dict(
        {"kind": "exact", "distribution": law, "replicas": 1, "params": params},
        out=str(tmp_path / "run"))
    run_experiment(cfg)
    table = build_return_table(cfg.dist(), n)
    columns = {"k": list(map(str, range(n + 1)))}
    for name in ("u", "h", "r", "f", "er"):
        columns[name] = getattr(table, name)
    if enumerate_n is not None:
        columns["er_enum"] = enumeration_oracle(cfg.dist(), enumerate_n)["er"]
    want = _column_writer_bytes(cfg.config_hash, "exact-table-v1", columns)
    assert (tmp_path / "run" / "table.csv").read_bytes() == want


@pytest.mark.parametrize("block_rows", [1, 2, 7, 8192])
def test_block_writer_keeps_signed_zeros(tmp_path, monkeypatch, block_rows):
    """-0.0 and 0.0 compare equal but print apart: the block writer
    deduplicates on bit patterns, so each keeps its own text, at any
    block size, next to a short column and a column of formatted cells."""
    monkeypatch.setattr(experiments, "_CSV_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(3)
    values = rng.choice([0.0, -0.0, 1.5, -1.5, 0.1, 1e-300, -5e-324], 40)
    columns = {"k": list(map(str, range(40))), "x": values,
               "short": values[:9].copy()}
    experiments._write_columns(tmp_path / "t.csv", "abc", "s-v1", columns)
    got = (tmp_path / "t.csv").read_bytes()
    assert got == _column_writer_bytes("abc", "s-v1", columns)
    assert b"-0.0" in got and b",0.0," in got


def test_spectral_vs_dp_midrange(king):
    """Spot check the spectral route against DP at awkward k (odd, just
    past the dyadic band edges)."""
    u = return_probs_dp(king, 70)
    for k in (33, 47, 64, 70):
        assert abs(return_prob_exact(king, k) - u[k]) < 1e-12
