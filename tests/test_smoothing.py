"""Smoothed occupation functionals: stamp mass, the q-kernel identity,
and the Parseval cross-check."""

import math

import numpy as np
import pytest

from rangelab import smoothing
from rangelab import _fastpath
from rangelab._fastpath import pair_shift_overlaps
from rangelab.errors import ResourceLimit
from rangelab.smoothing import (
    _MAX_Q_TERMS,
    _MAX_WINDOW_CELLS,
    _pair_fields,
    _pair_windows,
    _stamp,
    b_functional,
    check_q_kernel,
    check_stamp_window,
    pair_functionals,
    parseval_check,
    q_identity_block,
    q_identity_check,
    q_kernel,
    site_set,
    site_sets,
    smoothing_stamp,
)
from rangelab.walks import (
    WalkPath,
    builtin_distribution,
    distribution_from_config,
    sample_path,
    sample_poissonized,
)

LAZY = builtin_distribution("lazy-srw")
SRW = builtin_distribution("srw")
KING = builtin_distribution("king")


def _fields_by_offset(stamp, *site_sets, weights=None):
    """Reference for the stamped fields of a pair's window (_pair_fields)
    and for _stamp: on the box of every set widened by the stamp radius,
    one scatter of every site per stamp offset, in offset order."""
    rad = int(math.floor(stamp.radius))
    lo = np.min([sites.min(axis=0) for sites in site_sets], axis=0) - rad
    hi = np.max([sites.max(axis=0) for sites in site_sets], axis=0) + rad
    shape = tuple(int(v) for v in hi - lo + 1)
    fields = []
    for i, sites in enumerate(site_sets):
        field = np.zeros(shape)
        sx = sites[:, 0] - lo[0]
        sy = sites[:, 1] - lo[1]
        for (ox, oy), v in zip(stamp.offsets.tolist(), stamp.values.tolist()):
            field[sx + ox, sy + oy] += v if weights is None else v * weights[i]
        fields.append(field)
    return fields


def _q_kernel_by_offset(t, b_t, eps):
    """Reference for q_kernel: one scatter of the whole stamp, weighted
    by k(a), per stamp offset a, on the (4 rad + 1)^2 box."""
    stamp = smoothing_stamp(t / b_t, eps)
    rad = int(math.floor(stamp.radius))
    size = 4 * rad + 1
    acc = np.zeros((size, size))
    ox = stamp.offsets[:, 0] + 2 * rad
    oy = stamp.offsets[:, 1] + 2 * rad
    for (ax, ay), v in zip(stamp.offsets.tolist(), stamp.values.tolist()):
        acc[ox - ax, oy - ay] += v * stamp.values
    lam = stamp.total
    acc /= lam * lam
    nz = acc > 0
    gx, gy = np.meshgrid(np.arange(size) - 2 * rad, np.arange(size) - 2 * rad,
                         indexing="ij")
    return np.stack([gx[nz], gy[nz]], axis=1).astype(np.int64), acc[nz]


def _pair_sites(dist, t, seed):
    pa = sample_poissonized(dist, t, master_seed=seed, replica=0)
    pb = sample_poissonized(dist, t, master_seed=seed, replica=1)
    return site_set(pa, horizon=t), site_set(pb, horizon=t)


def _block(pairs):
    """(sites, bounds) of the block of the given pairs of site sets."""
    sets = [s for pair in pairs for s in pair]
    return (np.concatenate(sets),
            np.concatenate([[0], np.cumsum([s.shape[0] for s in sets])]))


def _block_fields(stamp, pairs):
    """The two fields of each pair's window, as _pair_fields stamps them
    for the whole block, each cut out and shaped as its window."""
    out = []
    for group in _pair_windows(*_block(pairs), stamp):
        fields, start = _pair_fields(*group, stamp)
        for a, shape in zip(start.tolist(), group[3].tolist()):
            cells = shape[0] * shape[1]
            out.append([f[a:a + cells].reshape(shape) for f in fields])
    return out


def _weighted_field(stamp, sites, weights):
    """_stamp of one weighted site set on the box of the set widened by
    the stamp radius, as q_kernel calls it."""
    rad = int(math.floor(stamp.radius))
    lo = sites.min(axis=0) - rad
    shape = sites.max(axis=0) + rad - lo + 1
    field = np.zeros(int(shape[0]) * int(shape[1]))
    _stamp(field, (sites[:, 0] - lo[0]) * shape[1] + sites[:, 1] - lo[1], shape[1],
           stamp, weights=weights)
    return field.reshape(int(shape[0]), int(shape[1]))


def test_stamp_mass_approaches_continuum():
    """Lattice mass of the mollifier converges to its continuum integral
    (which is 1 per unit scale) as the stamp gets wide."""
    for scale, tol in ((100.0, 3e-3), (400.0, 1e-3), (1600.0, 3e-4)):
        stamp = smoothing_stamp(scale, 0.5)
        assert abs(stamp.total / scale - 1.0) < tol


def test_stamp_values_positive_inside_ball():
    stamp = smoothing_stamp(300.0, 0.5)
    assert np.all(stamp.values > 0)
    rad2 = (stamp.offsets.astype(np.float64) ** 2).sum(axis=1)
    assert rad2.max() < 0.25 * 300.0


def test_q_kernel_is_probability():
    q = q_kernel(256.0, 4.0, 0.5)
    assert q.values.min() > 0
    assert float(q.values.sum()) == pytest.approx(1.0, abs=1e-12)
    # Self-convolution of a radius-r stamp lives in a radius-2r ball.
    stamp = smoothing_stamp(64.0, 0.5)
    assert np.abs(q.offsets).max() <= 2 * math.floor(stamp.radius)


def test_site_set_horizons():
    """site_set returns the distinct sites of the truncated path; the
    poissonized variant always counts the origin as occupied."""
    path = sample_path(LAZY, 300, master_seed=5)
    sites = site_set(path, horizon=100.0)
    want = {tuple(p) for p in path.positions[:100].tolist()}
    assert {tuple(s) for s in sites.tolist()} == want

    z = sample_poissonized(LAZY, 200.0, master_seed=5)
    zsites = site_set(z, horizon=200.0)
    zwant = {tuple(p) for p in z.walk.positions.tolist()} | {(0, 0)}
    assert {tuple(s) for s in zsites.tolist()} == zwant


def test_q_identity_on_walk_pairs():
    for j in range(4):
        pa = sample_path(LAZY, 512, master_seed=21, replica=2 * j)
        pb = sample_path(LAZY, 512, master_seed=21, replica=2 * j + 1)
        out = q_identity_check(pa, pb, q_kernel(256.0, 4.0, 0.5))
        assert out["residual"] < 1e-10


def test_q_identity_on_poissonized_pairs():
    for j in range(3):
        pa = sample_poissonized(SRW, 200.0, master_seed=31, replica=2 * j)
        pb = sample_poissonized(SRW, 200.0, master_seed=31, replica=2 * j + 1)
        out = q_identity_check(pa, pb, q_kernel(200.0, 4.0, 0.5))
        assert out["residual"] < 1e-10


def _shift_counts_by_sets(sites_a, sites_b, offsets):
    a = {tuple(p) for p in sites_a.tolist()}
    b = sites_b.tolist()
    return [sum((x + ox, y + oy) in a for x, y in b)
            for ox, oy in offsets.tolist()]


@pytest.mark.parametrize("pair, t, eps", [
    ("discrete", 256.0, 0.5),
    ("poissonized", 200.0, 0.5),
    # ranges of a few thousand sites: B is looked up in several chunks
    ("discrete", 10000.0, 0.1),
])
def test_q_identity_counts_match_python_sets(pair, t, eps):
    """Per-offset counts |A intersect (o + B)| against Python sets, and
    q_rhs as their sequential q-weighted sum in q-offset order."""
    if pair == "discrete":
        pa = sample_path(SRW, int(t), master_seed=41, replica=0)
        pb = sample_path(SRW, int(t), master_seed=41, replica=1)
    else:
        pa = sample_poissonized(SRW, t, master_seed=41, replica=0)
        pb = sample_poissonized(SRW, t, master_seed=41, replica=1)
    q = q_kernel(t, 4.0, eps)
    sa, sb = site_set(pa, horizon=t), site_set(pb, horizon=t)
    if t > 1000:
        assert sb.shape[0] * q.offsets.shape[0] > 2 * _fastpath._PAIR_CHUNK
    want = _shift_counts_by_sets(sa, sb, q.offsets)
    assert max(want) > 0
    assert pair_shift_overlaps(*_block([(sa, sb)]), q.offsets).tolist() == [want]
    rhs = 0.0
    for v, c in zip(q.values.tolist(), want):
        rhs += v * c
    out = q_identity_check(pa, pb, q)
    assert out["rhs"].hex() == rhs.hex()
    assert out["residual"] < 1e-10


LONG = distribution_from_config({"steps": [
    [12, 0, 1, 6], [-12, 0, 1, 6], [13, 0, 1, 6], [-13, 0, 1, 6],
    [0, 1, 1, 6], [0, -1, 1, 6]]})


def _kernel_pairs():
    """Pairs of paths for one ragged block: a single-site walk, a pair
    whose ranges are disjoint, Poissonized pairs, long-step pairs and
    plain walk pairs."""
    walk = sample_path(SRW, 256, master_seed=51, replica=0)
    far = WalkPath(n=256, positions=walk.positions + np.int32([1000, 3]))
    pairs = [(sample_path(SRW, 1, master_seed=51, replica=1), walk), (walk, far)]
    for j in range(3):
        pairs.append((sample_poissonized(SRW, 256.0, master_seed=52, replica=2 * j),
                      sample_poissonized(SRW, 256.0, master_seed=52, replica=2 * j + 1)))
        pairs.append((sample_path(LONG, 256, master_seed=53, replica=2 * j),
                      sample_path(LONG, 256, master_seed=53, replica=2 * j + 1)))
        pairs.append((sample_path(LAZY, 200 + 20 * j, master_seed=54, replica=2 * j),
                      sample_path(LAZY, 256, master_seed=54, replica=2 * j + 1)))
    return pairs


@pytest.mark.parametrize("chunks", ["default", "small"])
def test_q_identity_block_matches_one_pair_calls(monkeypatch, chunks):
    """Every pair of a ragged block gets the bits of its one-pair
    q_identity_check (float.hex of lhs and rhs) and its exact shift
    counts, which a Python-set recount confirms; lhs is the per-offset
    reference fields' sum and rhs the sequential q-weighted sum of the
    counts.  With small chunks and a small window budget the stamp,
    the lookups and the block itself are split at many places."""
    q = q_kernel(256.0, 4.0, 0.5)
    pairs = _kernel_pairs()
    site_pairs = [(site_set(a, horizon=q.t), site_set(b, horizon=q.t)) for a, b in pairs]
    assert min(sa.shape[0] for sa, _ in site_pairs) == 1
    one = [q_identity_check(a, b, q) for a, b in pairs]
    if chunks == "small":
        shapes = np.concatenate([g[3] for g in _pair_windows(*_block(site_pairs), q.stamp)])
        monkeypatch.setattr(smoothing, "_MAX_WINDOW_CELLS", int(shapes.prod(axis=1).max()))
        monkeypatch.setattr(smoothing, "_STAMP_CHUNK", 300)
        monkeypatch.setattr(_fastpath, "_PAIR_CHUNK", 500)
        assert len(list(_pair_windows(*_block(site_pairs), q.stamp))) > 2
    block = q_identity_block(*_block(site_pairs), q)
    counts = pair_shift_overlaps(*_block(site_pairs), q.offsets)
    lam = q.stamp.total
    assert len(block) == len(counts) == len(pairs)
    for got, want, c, (sa, sb) in zip(block, one, counts.tolist(), site_pairs):
        assert [got[k].hex() for k in ("lhs", "rhs", "residual")] == [
            want[k].hex() for k in ("lhs", "rhs", "residual")]
        assert c == pair_shift_overlaps(*_block([(sa, sb)]), q.offsets)[0].tolist()
        assert c == _shift_counts_by_sets(sa, sb, q.offsets)
        fa, fb = _fields_by_offset(q.stamp, sa, sb)
        assert got["lhs"].hex() == (float((fa * fb).sum()) / (lam * lam)).hex()
        rhs = 0.0
        for v, k in zip(q.values.tolist(), c):
            rhs += v * k
        assert got["rhs"].hex() == rhs.hex()
        assert got["residual"] < 1e-10
    assert block[1]["lhs"] == block[1]["rhs"] == 0.0
    assert min(b["lhs"] for b in block[2:]) > 0


def test_site_sets_rows_match_site_set():
    """One row-wise sort gives each row the distinct sites site_set
    gives it alone, in the same order."""
    pos = np.stack([sample_path(LONG, 64, master_seed=9, replica=j).positions
                    for j in range(5)])
    sites, bounds = site_sets(pos)
    for j in range(5):
        assert sites[bounds[j]:bounds[j + 1]].tobytes() == site_set(pos[j]).tobytes()


@pytest.mark.parametrize("kind, raw", [
    ("identities", {"distribution": "srw", "replicas": 40,
                    "params": {"n": 256, "t": 64.0, "checks": ["dyadic", "q-kernel"]}}),
    ("smoothed", {"distribution": "lazy-srw", "replicas": 5, "params": {"t": 64.0}}),
])
def test_shards_independent_of_block_size(tmp_path, monkeypatch, kind, raw):
    """A run's shards hold the same bytes whether its q-kernel pairs are
    checked four to a block or all in one."""
    from rangelab.experiments import ExperimentConfig, run_experiment

    cfg = ExperimentConfig.from_dict({"kind": kind, "master_seed": 8, **raw})
    shards = []
    for budget in (1 << 10, 1 << 20):
        monkeypatch.setattr(_fastpath, "_BLOCK_STEPS", budget)
        out = tmp_path / f"run-{budget}"
        run_experiment(cfg, out=out)
        shards.append([p.read_bytes() for p in sorted(out.glob("shard_*.jsonl"))])
    assert len(shards[0]) == 1
    assert shards[0] == shards[1]


def test_parseval_identity():
    for j in range(3):
        pa = sample_poissonized(LAZY, 256.0, master_seed=8, replica=2 * j)
        pb = sample_poissonized(LAZY, 256.0, master_seed=8, replica=2 * j + 1)
        out = parseval_check(pa, pb, t=256.0, eps=0.5, b_t=4.0)
        assert out["residual"] < 1e-8
        assert out["imag_leak"] < 1e-10


def test_parseval_window_guard():
    pa = sample_path(SRW, 4096, master_seed=1, replica=0)
    pb = sample_path(SRW, 4096, master_seed=1, replica=1)
    with pytest.raises(ResourceLimit):
        parseval_check(pa, pb, t=4096.0, eps=0.5, b_t=4.0, max_fft=64)


def test_b_functional_level_truncation():
    """Higher levels shrink the horizon to t/2^level; with nonnegative
    fields the cross term can only lose mass.  pair_functionals, which
    stamps with its q kernel's stamp, gives b_functional's bits."""
    pa = sample_poissonized(LAZY, 256.0, master_seed=13, replica=0)
    pb = sample_poissonized(LAZY, 256.0, master_seed=13, replica=1)
    b0 = b_functional(pa, pb, 256.0, 0.5, b_t=4.0, level=0)
    b2 = b_functional(pa, pb, 256.0, 0.5, b_t=4.0, level=2)
    assert b0 > 0
    assert b2 <= b0 + 1e-12
    q = q_kernel(256.0, 4.0, 0.5)
    assert [pair_functionals(pa, pb, q, level=k)["b"] for k in (0, 1, 2)] == [
        b0, b_functional(pa, pb, 256.0, 0.5, b_t=4.0, level=1), b2]


def test_a_functional_positive_and_symmetric_in_pair():
    pa = sample_poissonized(LAZY, 128.0, master_seed=2, replica=0)
    pb = sample_poissonized(LAZY, 128.0, master_seed=2, replica=1)
    assert pair_functionals(pa, pb, q_kernel(128.0, 4.0, 0.5))["a"] > 0
    ab = b_functional(pa, pb, 128.0, 0.5, b_t=4.0)
    ba = b_functional(pb, pa, 128.0, 0.5, b_t=4.0)
    assert ab == pytest.approx(ba, rel=1e-12)


def test_b_of_path_with_itself_is_a():
    pa = sample_poissonized(LAZY, 128.0, master_seed=3, replica=0)
    a = pair_functionals(pa, pa, q_kernel(128.0, 4.0, 0.5))["a"]
    b = b_functional(pa, pa, 128.0, 0.5, b_t=4.0)
    assert b == pytest.approx(a, rel=1e-12)


def test_stamp_window_guard_boundary():
    """At t = 64, eps = 0.5, b_t = 4 the stamp radius is 2, so two sites
    one step of s apart span (s + 5) * 5 cells: the longest step that
    fits the window passes and the next one is refused."""
    fits = _MAX_WINDOW_CELLS // 5 - 5
    for step, refused in ((fits, False), (fits + 1, True)):
        dist = distribution_from_config({"steps": [
            [step, 0, 1, 6], [-step, 0, 1, 6], [1, 0, 1, 6], [-1, 0, 1, 6],
            [0, 1, 1, 6], [0, -1, 1, 6]]})
        if refused:
            with pytest.raises(ResourceLimit, match="field window"):
                check_stamp_window(dist, 64.0, 0.5, 4.0)
        else:
            check_stamp_window(dist, 64.0, 0.5, 4.0)
    for name in ("srw", "lazy-srw", "king"):
        check_stamp_window(builtin_distribution(name), 1 << 20, 1.0, 1.0)


# t, b_t, eps: eps^2 t / b_t is a perfect square (the stamp stops short of
# +-rad) in the first four cases
Q_SCALES = [(64.0, 4.0, 0.5), (256.0, 4.0, 0.5), (100.0, 1.0, 1.0),
            (4096.0, 4.0, 0.5), (1000.0, 4.0, 0.5), (300.0, 3.0, 0.7),
            (16000.0, 4.0, 0.5)]


@pytest.mark.parametrize("t, b_t, eps", Q_SCALES)
def test_q_kernel_matches_per_offset_loop(t, b_t, eps):
    offsets, values = _q_kernel_by_offset(t, b_t, eps)
    q = q_kernel(t, b_t, eps)
    assert q.offsets.dtype == offsets.dtype
    assert q.offsets.tobytes() == offsets.tobytes()
    assert q.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("dist, t", [(SRW, 64.0), (LAZY, 256.0), (KING, 256.0),
                                     (SRW, 1000.0), (KING, 4096.0)])
def test_stamped_fields_match_per_offset_loop(dist, t):
    """Bit for bit and window for window, for pairs of site sets stamped
    as one block and for one weighted set, at perfect-square radii
    (t = 64, 256, 4096 with b_t = 4) and not."""
    stamp = smoothing_stamp(t / 4.0, 0.5)
    sa, sb = _pair_sites(dist, t, seed=17)
    pairs = [(sa, sb), (sb, sa[:1]), (sa, sa)]
    for got, (a, b) in zip(_block_fields(stamp, pairs), pairs):
        for g, w in zip(got, _fields_by_offset(stamp, a, b)):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
    weights = np.random.default_rng(3).random(sa.shape[0])
    got = _weighted_field(stamp, sa, weights)
    want, = _fields_by_offset(stamp, sa, weights=[weights])
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("chunk", [1, 7, 40, 41, 1000])
def test_stamped_fields_chunk_boundaries(monkeypatch, chunk):
    """Chunks of one term, of part of an offset's row, and of rows that
    split the stamp raggedly give the same bits as the per-offset loop."""
    monkeypatch.setattr(smoothing, "_STAMP_CHUNK", chunk)
    stamp = smoothing_stamp(32.0, 0.7)
    sa, sb = _pair_sites(KING, 128.0, seed=5)
    assert sa.shape[0] > 40 and sb.shape[0] > 40
    sa = sa[:40]
    for got, want in zip(_block_fields(stamp, [(sa, sb)])[0], _fields_by_offset(stamp, sa, sb)):
        assert got.tobytes() == want.tobytes()
    for sites, weights in ((sa, np.ones(40)), (sb, np.linspace(0.5, 2.0, sb.shape[0]))):
        want, = _fields_by_offset(stamp, sites, weights=[weights])
        assert _weighted_field(stamp, sites, weights).tobytes() == want.tobytes()
    for t, b_t, eps in Q_SCALES[:3]:
        offsets, values = _q_kernel_by_offset(t, b_t, eps)
        q = q_kernel(t, b_t, eps)
        assert q.offsets.tobytes() == offsets.tobytes()
        assert q.values.tobytes() == values.tobytes()


def test_q_kernel_guard_boundary(monkeypatch):
    """At eps = 0.5, b_t = 4 the radius is 63 up to t = 65535 and 64 from
    t = 65536, where 257^2 * t first exceeds the budget.  With eps = 1,
    b_t = 1, t = r^2, the stamp term (2r + 1)^4 exceeds r^2 (4r + 1)^2, so
    a budget just below it refuses on the stamp term alone."""
    check_q_kernel(65535.0, 0.5, 4.0)
    with pytest.raises(ResourceLimit, match="q kernel"):
        check_q_kernel(65536.0, 0.5, 4.0)
    r = 40
    assert (4 * r + 1) ** 2 * r * r < (2 * r + 1) ** 4 - 1
    monkeypatch.setattr(smoothing, "_MAX_Q_TERMS", (2 * r + 1) ** 4)
    check_q_kernel(float(r * r), 1.0, 1.0)
    monkeypatch.setattr(smoothing, "_MAX_Q_TERMS", (2 * r + 1) ** 4 - 1)
    with pytest.raises(ResourceLimit, match="q kernel"):
        check_q_kernel(float(r * r), 1.0, 1.0)
    monkeypatch.undo()
    # the defaults and every scale the tests run pass
    for t, b_t, eps in Q_SCALES + [(10000.0, 4.0, 0.1), (200.0, 4.0, 0.5)]:
        check_q_kernel(t, eps, b_t)
    assert _MAX_Q_TERMS == 1 << 32
