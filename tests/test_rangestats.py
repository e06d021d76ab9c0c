"""Range counting and the exact set-identity decompositions."""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rangelab import _fastpath
from rangelab._fastpath import batch_range_counts, pack_positions, prefix_range_counts
from rangelab.rangestats import (
    batch_decompositions,
    decomposition_check,
    range_count,
)
from rangelab.walks import builtin_distribution, sample_path


def _positions_from_steps(step_indices, support):
    steps = support[np.asarray(step_indices, dtype=np.int64)]
    return np.cumsum(steps.astype(np.int64), axis=0)


_SRW_SUPPORT = builtin_distribution("srw").support.astype(np.int64)
_SUPPORTS = {name: builtin_distribution(name).support.astype(np.int64)
             for name in ("srw", "lazy-srw", "king")}

step_lists = st.lists(st.integers(0, 3), min_size=1, max_size=200)
pow2_step_lists = st.integers(0, 7).flatmap(
    lambda k: st.lists(st.integers(0, 3), min_size=2**k, max_size=2**k))
# a long-step law: its boxes exceed the bitmap's cells-per-step bound
# unless a row keeps to one line, so both counting paths run
_BATCH_SUPPORTS = {**_SUPPORTS,
                   "long": np.array([[-100, 0], [0, -100], [0, 100], [100, 0]])}
# (walk name, (1..6 rows of one common length 0..80 of support indices,
#  1..5 prefix lengths 0..n in any order))
batches = st.sampled_from(sorted(_BATCH_SUPPORTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(0, 80).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(0, len(_BATCH_SUPPORTS[name]) - 1),
                              min_size=n, max_size=n),
                     min_size=1, max_size=6),
            st.lists(st.integers(0, n), min_size=1, max_size=5)))))
# (walk name, support indices of a 2^0..2^8-step path)
pow2_walks = st.sampled_from(sorted(_SUPPORTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(0, 8).flatmap(
        lambda k: st.lists(st.integers(0, len(_SUPPORTS[name]) - 1),
                           min_size=2**k, max_size=2**k))))
# (walk name, support indices of a 0..300-step path)
walks = st.sampled_from(sorted(_SUPPORTS)).flatmap(
    lambda name: st.tuples(st.just(name), st.lists(
        st.integers(0, len(_SUPPORTS[name]) - 1), max_size=300)))


def _block_sets(pos, boundaries):
    """Python sets of the sites of steps boundaries[i]+1..boundaries[i+1]."""
    rows = [tuple(p) for p in pos.tolist()]
    return [set(rows[a:b]) for a, b in zip(boundaries, boundaries[1:])]


def test_range_count_tiny():
    # 4 steps, revisit: E,N,W,S brings the walk home; origin is not
    # counted, so four distinct sites.
    pos = np.array([[1, 0], [1, 1], [0, 1], [0, 0]])
    stats = range_count(pos)
    assert stats.count == 4
    stats2 = range_count(np.array([[1, 0], [1, 0], [1, 0]]))
    assert stats2.count == 1


@given(step_lists)
def test_range_count_matches_python_set(idx):
    pos = _positions_from_steps(idx, _SRW_SUPPORT)
    want = len({tuple(p) for p in pos.tolist()})
    assert range_count(pos).count == want


@given(step_lists)
def test_prefix_counts_structure(idx):
    pos = _positions_from_steps(idx, _SRW_SUPPORT)
    prefix = prefix_range_counts(pack_positions(pos))
    assert prefix[-1] == range_count(pos).count
    jumps = np.diff(np.concatenate([[0], prefix]))
    assert set(jumps.tolist()) <= {0, 1}


@given(batches)
@example(("srw", ([[], [], []], [0, 0])))
@example(("long", ([[0, 1, 3], [0, 3, 0]], [3, 1, 2, 3, 0])))
def test_batch_range_counts_match_python_sets(batch):
    """Every row of a batch is counted on its own: the distinct sites
    after steps 1..m for every requested prefix length m, the origin
    counted only when revisited."""
    name, (rows, lengths) = batch
    support = _BATCH_SUPPORTS[name]
    idx = np.array(rows, dtype=np.int64)
    running = []
    for row in idx:
        seen, counts = set(), [0]
        for p in _positions_from_steps(row, support).tolist():
            seen.add(tuple(p))
            counts.append(len(seen))
        running.append(counts)
    whole = batch_range_counts(idx, support[:, 0], support[:, 1])
    prefixes = batch_range_counts(idx, support[:, 0], support[:, 1], lengths)
    assert whole.dtype == prefixes.dtype == np.int64
    assert whole.tolist() == [counts[-1] for counts in running]
    assert prefixes.tolist() == [[counts[m] for m in lengths] for counts in running]


def test_batch_range_counts_rejects_bad_lengths():
    idx = np.zeros((2, 5), dtype=np.int64)
    for lengths in ([], [6], [-1, 3]):
        with pytest.raises(ValueError):
            batch_range_counts(idx, _SRW_SUPPORT[:, 0], _SRW_SUPPORT[:, 1], lengths)


@pytest.mark.parametrize("bad", [-1, 4])
def test_batch_range_counts_rejects_bad_step_indices(bad):
    """Steps are taken in clip mode, so an index outside the support must
    be refused before it could be clamped to its first or last step."""
    idx = np.zeros((70, 9), dtype=np.int64)
    for row in (0, 69):
        idx[row, 8 - row % 2] = bad
        with pytest.raises(IndexError):
            batch_range_counts(idx, _SRW_SUPPORT[:, 0], _SRW_SUPPORT[:, 1])
        idx[row] = 0


def test_batch_range_counts_refuses_to_leave_the_int32_box(monkeypatch):
    """Positions reach both edges of the int32 box and are counted; one
    unit more is refused, not wrapped.  Such wide rows are counted by
    sorting their keys, which are pack_positions of the walks."""
    sorted_counts, sorted_keys = _fastpath._sorted_counts, []

    def record(keys, stops):
        sorted_keys.append(keys.copy())
        return sorted_counts(keys, stops)

    monkeypatch.setattr(_fastpath, "_sorted_counts", record)
    idx = np.array([[0, 0], [1, 1], [0, 1]])
    wide = np.array([2**30 - 1, 1 - 2**30])
    assert batch_range_counts(idx, wide, wide).tolist() == [2, 2, 2]
    walks = np.cumsum(np.stack([wide, wide], axis=1)[idx], axis=1)
    assert np.abs(walks).max() == 2**31 - 2
    assert np.array_equal(sorted_keys[0], pack_positions(walks))
    assert batch_range_counts(idx, wide, -wide, [1, 2]).tolist() == [[1, 2]] * 3
    with pytest.raises(OverflowError):
        batch_range_counts(idx, wide + 1, wide - 1)


def test_short_steps_stay_on_the_bitmap(monkeypatch):
    """Walks that cross both axes are boxed tightly after the packed
    cumsum, so the bitmap counts them and no row needs the sort."""
    def refuse(*args):
        raise AssertionError("a short-step row left the bitmap")

    monkeypatch.setattr(_fastpath, "_sorted_counts", refuse)
    left, down, up, right = range(4)  # _SRW_SUPPORT is sorted
    spiral = [left] * 20 + [down] * 40 + [right] * 80 + [up] * 80
    idx = np.array([spiral, [left, down, up, right] * 55])
    got = batch_range_counts(idx, _SRW_SUPPORT[:, 0], _SRW_SUPPORT[:, 1], [20, 220])
    assert got.tolist() == [[20, 220], [3, 3]]


@pytest.mark.parametrize("budget", [1, 3 * 997, 4 * 997 + 996])
def test_batch_range_counts_chunks(monkeypatch, budget):
    """Rows counted in blocks shorter than a row (one row a block), and
    of 3 (the last holding 1) and 4 (the last holding 3) rows, give the
    counts of the whole batch in one block."""
    rng = np.random.default_rng(3)
    lengths = [997, 1, 400, 0, 997, 60]
    for name, support in sorted(_BATCH_SUPPORTS.items()):
        idx = rng.integers(0, len(support), size=(7, 997))
        want = batch_range_counts(idx, support[:, 0], support[:, 1], lengths)
        with monkeypatch.context() as m:
            m.setattr(_fastpath, "_BLOCK_STEPS", budget)
            got = batch_range_counts(idx, support[:, 0], support[:, 1], lengths)
        assert np.array_equal(got, want)


@given(st.sampled_from(sorted(_SUPPORTS)), st.data())
def test_prefix_range_counts_match_running_set(name, data):
    support = _SUPPORTS[name]
    idx = data.draw(st.lists(st.integers(0, len(support) - 1), max_size=200))
    pos = _positions_from_steps(idx, support)
    seen, want = set(), []
    for p in pos.tolist():
        seen.add(tuple(p))
        want.append(len(seen))
    assert prefix_range_counts(pack_positions(pos)).tolist() == want


@given(pow2_step_lists)
def test_dyadic_decomposition_is_exact(idx):
    """Leaf ranges minus sibling overlaps reproduce the range on every
    power-of-two path, not just on average."""
    pos = _positions_from_steps(idx, _SRW_SUPPORT)
    rec = decomposition_check(pos, kind="dyadic")
    assert rec.lhs == rec.rhs
    assert rec.exact


@given(step_lists)
def test_binary_decomposition_is_exact(idx):
    pos = _positions_from_steps(idx, _SRW_SUPPORT)
    rec = decomposition_check(pos, kind="binary")
    assert rec.lhs == rec.rhs
    assert sum(rec.block_counts) >= rec.lhs


def test_decomposition_rejects_unknown_kind():
    pos = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        decomposition_check(pos, kind="ternary")


def test_decomposition_on_sampled_walks():
    srw = builtin_distribution("srw")
    for replica in range(8):
        path = sample_path(srw, 1024, master_seed=77, replica=replica)
        assert decomposition_check(path, kind="dyadic").exact
        assert decomposition_check(path, kind="binary").exact


def _dyadic_by_sets(pos, levels):
    """(boundaries, leaf counts, overlaps per depth, range) of the dyadic
    split of one path at a depth, recounted with Python sets."""
    n = pos.shape[0]
    boundaries = list(range(0, n + 1, n >> levels))
    overlaps = []
    for j in range(1, levels + 1):
        sets = _block_sets(pos, list(range(0, n + 1, n >> j)))
        overlaps.append([len(sets[i] & sets[i + 1]) for i in range(0, len(sets), 2)])
    return (boundaries, [len(b) for b in _block_sets(pos, boundaries)], overlaps,
            len(_block_sets(pos, [0, n])[0]))


def _binary_by_sets(pos):
    """(boundaries, block counts, suffix overlaps, range) of the binary
    split of one path, recounted with Python sets."""
    n = pos.shape[0]
    powers = [1 << b for b in reversed(range(n.bit_length())) if n >> b & 1]
    boundaries = [sum(powers[:i]) for i in range(len(powers) + 1)]
    blocks = _block_sets(pos, boundaries)
    suffix = [len(b & set().union(*blocks[i + 1:])) for i, b in enumerate(blocks[:-1])]
    return boundaries, [len(b) for b in blocks], suffix, len(set().union(*blocks))


@given(pow2_walks)
def test_dyadic_record_matches_python_sets(walk):
    """Every field at every tree depth, recounted with Python sets; lhs
    == rhs alone would hold by telescoping for any overlap values."""
    name, idx = walk
    pos = _positions_from_steps(idx, _SUPPORTS[name])
    e = pos.shape[0].bit_length() - 1
    for levels in range(e + 1):
        rec = decomposition_check(pos, kind="dyadic", levels=levels)
        boundaries, counts, overlaps, total = _dyadic_by_sets(pos, levels)
        assert rec.boundaries == boundaries
        assert rec.block_counts == counts
        assert rec.overlap_counts == overlaps
        assert rec.lhs == total
        assert rec.rhs == sum(counts) - sum(map(sum, overlaps))


@given(walks.filter(lambda w: len(w[1]) > 0))
def test_binary_record_matches_python_sets(walk):
    name, idx = walk
    pos = _positions_from_steps(idx, _SUPPORTS[name])
    rec = decomposition_check(pos, kind="binary")
    boundaries, counts, suffix, total = _binary_by_sets(pos)
    assert rec.boundaries == boundaries
    assert rec.block_counts == counts
    assert rec.overlap_counts == [suffix]
    assert rec.lhs == total
    assert rec.rhs == sum(counts) - sum(suffix)


# (walk name, 1..5 rows of one common length, 2^0..2^7 steps or any of
# 1..150, of support indices)
def _row_batches(lengths):
    return st.sampled_from(sorted(_SUPPORTS)).flatmap(
        lambda name: st.tuples(st.just(name), lengths.flatmap(
            lambda n: st.lists(st.lists(st.integers(0, len(_SUPPORTS[name]) - 1),
                                        min_size=n, max_size=n),
                               min_size=1, max_size=5))))


# the largest site of row 0 is the smallest of row 1: only the row
# boundary tells them apart in the sorted block
_ROW_BOUNDARY = ("srw", [[0, 2], [2, 0]])


@given(_row_batches(st.integers(0, 7).map(lambda k: 1 << k)))
@example(_ROW_BOUNDARY)
def test_batched_dyadic_counts_match_python_sets(batch):
    """Every row of a batch, at every depth, has the per-block counts and
    overlaps of a Python-set recount of that row alone, and the binary
    split taken from the same sort is that of a binary-only call."""
    name, rows = batch
    pos = np.array([_positions_from_steps(r, _SUPPORTS[name]) for r in rows])
    keys = pack_positions(pos)
    e = pos.shape[1].bit_length() - 1
    for levels in range(e + 1):
        both = batch_decompositions(keys, ("binary", "dyadic"), levels)
        d = both["dyadic"]
        assert d.block_counts.shape == (len(rows), 1 << levels)
        for i, p in enumerate(pos):
            boundaries, counts, overlaps, total = _dyadic_by_sets(p, levels)
            assert d.boundaries == boundaries
            assert d.block_counts[i].tolist() == counts
            assert [o[i].tolist() for o in d.overlap_counts] == overlaps
            assert d.lhs[i] == total
            assert d.rhs[i] == sum(counts) - sum(map(sum, overlaps))
            assert d.record(i) == decomposition_check(p, levels=levels)
        alone = batch_decompositions(keys, ("binary",))["binary"]
        assert np.array_equal(both["binary"].block_counts, alone.block_counts)
        assert np.array_equal(both["binary"].overlap_counts[0], alone.overlap_counts[0])


@given(_row_batches(st.integers(1, 150)))
@example(_ROW_BOUNDARY)
def test_batched_binary_counts_match_python_sets(batch):
    name, rows = batch
    pos = np.array([_positions_from_steps(r, _SUPPORTS[name]) for r in rows])
    b = batch_decompositions(pack_positions(pos), ("binary",))["binary"]
    for i, p in enumerate(pos):
        boundaries, counts, suffix, total = _binary_by_sets(p)
        assert b.boundaries == boundaries
        assert b.block_counts[i].tolist() == counts
        assert b.overlap_counts[0][i].tolist() == suffix
        assert b.lhs[i] == total
        assert b.rhs[i] == sum(counts) - sum(suffix)
        assert b.record(i) == decomposition_check(p, kind="binary")


def test_batched_decompositions_refuse_bad_input():
    keys = pack_positions(np.zeros((2, 6, 2), dtype=np.int64))
    with pytest.raises(ValueError, match="power-of-two"):
        batch_decompositions(keys, ("dyadic",))
    with pytest.raises(ValueError, match="levels"):
        batch_decompositions(keys[:, :4], ("dyadic",), levels=3)
    with pytest.raises(ValueError, match="nonempty"):
        batch_decompositions(keys[:, :0], ("binary",))
    with pytest.raises(ValueError, match="kind"):
        batch_decompositions(keys, ("ternary",))
    with pytest.raises(ValueError, match="rows"):
        batch_decompositions(keys[0], ("binary",))
