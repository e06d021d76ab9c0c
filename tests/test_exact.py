"""Return-probability tables: dual computation routes, renewal
identities, enumeration ground truth, and the slow-variation expansion.

Frozen expectations below were produced by the DP convolution oracle
and by full path enumeration; srw/lazy values are exact dyadic
rationals (u_k = integer / 4^k), so equality is essentially exact.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rangelab import exact
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


def test_to_csv_layout(tmp_path, srw):
    table = build_return_table(srw, 4)
    out = tmp_path / "table.csv"
    table.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "k,u,h,r,f,er"
    assert lines[1].startswith("0,1.0,")
    assert len(lines) == 6


def test_local_clt_normalization(lazy):
    check = local_clt_check(lazy, 2000)
    assert check["final_abs_dev"] < 0.02
    assert check["monotone_improving"]


def test_local_clt_rejects_periodic(srw):
    with pytest.raises(InvalidConfig):
        local_clt_check(srw, 1000)


def test_expected_range_asymptotic_fields(lazy):
    out = expected_range_asymptotic(lazy, 4096)
    assert out["leading"] > 0
    assert out["ratio_to_leading"] > 1.0
    assert out["residual"] == pytest.approx(
        out["er_exact"] - out["leading"], abs=1e-12)


@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_toeplitz_solver_matches_dense(size, seed):
    """The divide-and-conquer unit-triangular Toeplitz solve agrees
    with a dense numpy solve."""
    rng = np.random.default_rng(seed)
    kernel = rng.normal(size=size) * 0.5
    kernel[0] = 1.0
    rhs = rng.normal(size=size)
    mat = np.zeros((size, size))
    for i in range(size):
        mat[i, : i + 1] = kernel[i::-1]
    expected = np.linalg.solve(mat, rhs)
    got = solve_unit_triangular_toeplitz(kernel, rhs)
    np.testing.assert_allclose(got, expected, atol=1e-9 * max(1.0, np.abs(expected).max()))


def test_spectral_vs_dp_midrange(king):
    """Spot check the spectral route against DP at awkward k (odd, just
    past the dyadic band edges)."""
    u = return_probs_dp(king, 70)
    for k in (33, 47, 64, 70):
        assert abs(return_prob_exact(king, k) - u[k]) < 1e-12
