"""Step distributions, validation, and reproducible path sampling."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rangelab._fastpath import pack_positions, unpack_keys
from rangelab.errors import InvalidConfig, ResourceLimit
from rangelab.walks import (
    COORD_LIMIT,
    PURPOSE_STEPS,
    StepDistribution,
    PURPOSE_CLOCK,
    _lattice_index,
    _positions_from_indices,
    builtin_distribution,
    distribution_from_config,
    rekey,
    sample_path,
    sample_paths,
    sample_poissonized,
    stream,
    validate_distribution,
)


def test_builtin_covariances():
    assert builtin_distribution("srw").det_covariance_exact() == Fraction(1, 4)
    assert builtin_distribution("lazy-srw").det_covariance_exact() == Fraction(1, 16)
    king = builtin_distribution("king")
    cov = king.covariance_exact()
    assert cov[0][0] == Fraction(3, 4)
    assert cov[1][1] == Fraction(3, 4)
    assert cov[0][1] == 0
    assert king.det_covariance_exact() == Fraction(9, 16)


def test_validation_verdicts():
    """srw is periodic (period 2); the lazy walk and king moves are
    strongly aperiodic."""
    assert validate_distribution(builtin_distribution("srw")) == 2
    assert validate_distribution(builtin_distribution("lazy-srw")) == 1
    assert validate_distribution(builtin_distribution("king")) == 1


@pytest.mark.parametrize("steps", [
    [(12, 0), (13, 0), (0, 1)],  # first odd return at k = 25
    [(5, 2), (1, -5), (0, 2)],   # first odd return at k = 39
])
def test_late_odd_return_is_aperiodic(steps):
    """Every return before k = 25 is even for these laws, yet some odd
    return exists, so the period is 1 and the local limit check runs."""
    from rangelab.exact import local_clt_check

    rows = [[x, y, 1, 6] for x, y in steps] + [[-x, -y, 1, 6] for x, y in steps]
    dist = distribution_from_config({"name": "late-odd", "steps": rows})
    assert validate_distribution(dist) == 1
    assert len(local_clt_check(dist, 64)["rows"]) == 3


def test_asymmetric_distribution_rejected():
    dist = StepDistribution.from_steps(
        "drift", [(1, 0, 3, 4), (-1, 0, 1, 4)])
    with pytest.raises(InvalidConfig, match="distribution rejected: .+"):
        validate_distribution(dist)


@pytest.mark.parametrize("vectors, index", [
    ([(2, 1), (-2, -1), (1, 2), (-1, -2)], 3),
    ([(12, 0), (-12, 0), (13, 0), (-13, 0), (0, 1), (0, -1)], 1),
    ([(2, 0), (-2, 0), (0, 1), (0, -1)], 2),
    ([(1, 1), (-1, -1), (1, -1), (-1, 1)], 2),
    ([(1, 1), (-1, -1), (0, 0)], 0),
    ([], 0),
])
def test_lattice_index_of_known_laws(vectors, index):
    assert _lattice_index(vectors) == index


def test_bad_weights_rejected():
    with pytest.raises(ValueError):
        StepDistribution.from_steps("neg", [(1, 0, -1, 4), (-1, 0, 1, 4)])
    with pytest.raises(ValueError):
        StepDistribution.from_steps("dup", [(1, 0, 1, 2), (1, 0, 1, 2)])


def test_distribution_from_config_forms():
    a = distribution_from_config("srw")
    b = distribution_from_config({"name": "srw"})
    c = distribution_from_config(
        {"name": "srw", "steps": [[1, 0, 1, 4], [-1, 0, 1, 4],
                                  [0, 1, 1, 4], [0, -1, 1, 4]]})
    assert a.canonical_id() == b.canonical_id() == c.canonical_id()


def test_unknown_builtin():
    with pytest.raises(InvalidConfig):
        builtin_distribution("hexagonal")


def test_sample_path_deterministic(srw):
    p1 = sample_path(srw, 500, master_seed=9, replica=3)
    p2 = sample_path(srw, 500, master_seed=9, replica=3)
    assert np.array_equal(p1.positions, p2.positions)
    p3 = sample_path(srw, 500, master_seed=9, replica=4)
    assert not np.array_equal(p1.positions, p3.positions)
    p4 = sample_path(srw, 500, master_seed=10, replica=3)
    assert not np.array_equal(p1.positions, p4.positions)


def test_purpose_streams_are_independent():
    a = stream(5, 0, PURPOSE_STEPS).random(8)
    b = stream(5, 0, PURPOSE_CLOCK).random(8)
    assert not np.allclose(a, b)


def test_steps_are_valid_support_moves(srw):
    path = sample_path(srw, 2000, master_seed=1)
    pos = np.vstack([[0, 0], path.positions])
    steps = np.diff(pos, axis=0)
    allowed = {tuple(row) for row in srw.support.tolist()}
    assert {tuple(s) for s in steps.tolist()} <= allowed


def test_alias_sampling_frequencies(lazy):
    """The lazy walk holds with probability 1/2; empirical frequency
    over a long path should be close."""
    rng = stream(123, 0, PURPOSE_STEPS)
    idx = lazy.sample_step_indices(200_000, rng)
    freqs = np.bincount(idx, minlength=len(lazy.probs)) / idx.size
    assert np.abs(freqs - lazy.probs).max() < 5e-3


def _equal_weight_law(name, steps):
    rows = [[x, y, 1, 2 * len(steps)] for x, y in steps]
    rows += [[-x, -y, 1, 2 * len(steps)] for x, y in steps]
    return distribution_from_config({"name": name, "steps": rows})


_DECODE_LAWS = {
    # name: (law, decoded by a shift: k = 2^b equal weights with b >= 1)
    "one-step": (StepDistribution.from_steps("one-step", [(0, 0, 1, 1)]), False),
    "srw": (builtin_distribution("srw"), True),
    "lazy-srw": (builtin_distribution("lazy-srw"), False),
    "king": (builtin_distribution("king"), True),
    "sixteen": (_equal_weight_law("sixteen", [(1, 0), (0, 1), (1, 1), (1, -1), (2, 0),
                                              (0, 2), (2, 1), (1, 2)]), True),
    "six": (_equal_weight_law("six", [(1, 0), (2, 0), (0, 1)]), False),
}


@pytest.mark.parametrize("name", sorted(_DECODE_LAWS))
def test_step_indices_match_alias_decode(name):
    """Laws with k = 2^b equal weights (srw, king, the 16-step law) read
    the top b bits of each raw word, the floor(u k) that the alias
    decode keeps for every u; every other law (a one-step law, b = 0,
    and the 6-step equal-weight law too) takes the alias decode.  All
    laws return what the decode does and leave the stream where
    rng.random leaves it."""
    dist, shifted = _DECODE_LAWS[name]
    k = len(dist.probs)
    assert dist._shift == (65 - k.bit_length() if shifted else 0)
    rng, ref = stream(7, 3), stream(7, 3)
    idx = dist.sample_step_indices(100_001, rng)
    v = ref.random(100_001) * k
    j = v.astype(np.int64)
    assert idx.dtype == np.int64
    assert np.array_equal(idx, np.where(v - j < dist._accept[j], j, dist._alias[j]))
    assert rng.random() == ref.random()


def test_rekey_reproduces_stream():
    """Rekeying one generator through the triples gives each triple's
    stream from its first word, whatever the previous key left in
    Philox's 4-word buffer (here 0 to 3 words used, and a 32-bit half)."""
    triples = [(0, 0, PURPOSE_STEPS), (9, 3, PURPOSE_STEPS), (9, 4, PURPOSE_CLOCK),
               (2**64 - 1, 2**40 + 5, PURPOSE_CLOCK), (1, 10**6, PURPOSE_STEPS)]
    rng = stream(5, 1)
    for used, (seed, replica, purpose) in enumerate(triples):
        rng.bit_generator.random_raw(used % 4)
        if used == 3:
            rng.integers(0, 2**32, dtype=np.uint32)
        rekey(rng, seed, replica, purpose)
        want = stream(seed, replica, purpose)
        assert np.array_equal(rng.bit_generator.random_raw(7),
                              want.bit_generator.random_raw(7))
        assert rng.random(3).tolist() == want.random(3).tolist()
        assert rng.integers(0, 2**32, dtype=np.uint32) == want.integers(0, 2**32, dtype=np.uint32)
        assert rng.bit_generator.state["state"]["counter"].tolist() == \
            want.bit_generator.state["state"]["counter"].tolist()


_HEX = distribution_from_config({"name": "hex", "steps": [
    [1, 0, 1, 6], [-1, 0, 1, 6], [0, 1, 1, 6], [0, -1, 1, 6],
    [1, 1, 1, 6], [-1, -1, 1, 6]]})


@pytest.mark.parametrize("purpose", [PURPOSE_STEPS, 3])
@pytest.mark.parametrize("name", ["srw", "lazy-srw", "king", "hex"])
def test_sample_paths_rows_match_fresh_streams(name, purpose):
    """Each row of the batch sampler is the walk that a generator built
    for its replica alone gives, bit for bit: for a contiguous list, for
    the pairs 2j, 2j + 1 of records j with gaps between them, and for a
    list out of order with a repeat.  sample_path is its one-row case.
    The laws take the shift decode (srw, king), the alias decode
    (lazy-srw) and the float decode of equal weights (hex, weights 1/6).
    The same rekeying, on a stream of another purpose (3, which no
    sampler uses), gives that purpose's fresh rows, which differ from
    the walk's."""
    dist = _HEX if name == "hex" else builtin_distribution(name)
    n, seed = 301, 2**63 + 9
    for replicas in (range(4, 11), [r for j in (0, 5, 6, 40) for r in (2 * j, 2 * j + 1)],
                     [7, 3, 7, 2**40]):
        pos = sample_paths(dist, n, seed, replicas)
        assert pos.shape == (len(replicas), n, 2) and pos.dtype == np.int32
        for row, replica in zip(pos, replicas):
            idx = dist.sample_step_indices(n, stream(seed, replica, PURPOSE_STEPS))
            want = np.cumsum(dist.support[idx].astype(np.int64), axis=0)
            assert np.array_equal(row, want)
            one = sample_path(dist, n, seed, replica).positions
            assert one.dtype == np.int32 and np.array_equal(one, row)
        rng = stream(seed, replicas[0], purpose)
        for row, replica in zip(pos, replicas):
            rekey(rng, seed, replica, purpose)
            got = dist.sample_step_indices(n, rng)
            fresh = dist.sample_step_indices(n, stream(seed, replica, purpose))
            assert np.array_equal(got, fresh)
            walk = np.cumsum(dist.support[got].astype(np.int64), axis=0)
            assert np.array_equal(walk, row) == (purpose == PURPOSE_STEPS)
    assert sample_paths(dist, n, seed, []).shape == (0, n, 2)
    with pytest.raises(OverflowError):
        sample_paths(dist, 2**40, seed, [0, 1])


def test_positions_check_the_box_when_a_walk_could_leave_it():
    """Walks whose n * max_step exceeds the int32 box are summed in int64
    and refused only if they do leave it."""
    big = StepDistribution.from_steps("big", [(2**30, 0, 1, 4), (-2**30, 0, 1, 4),
                                              (0, 1, 1, 4), (0, -1, 1, 4)])
    right = int(np.flatnonzero(big.support[:, 0] == 2**30)[0])
    left = int(np.flatnonzero(big.support[:, 0] == -2**30)[0])
    pos = _positions_from_indices(big, np.array([right, left, right]))
    assert pos.dtype == np.int32
    assert pos.tolist() == [[2**30, 0], [0, 0], [2**30, 0]]
    with pytest.raises(ResourceLimit):
        _positions_from_indices(big, np.array([[left, left, left]]))


@given(st.lists(st.tuples(st.integers(-COORD_LIMIT, COORD_LIMIT),
                          st.integers(-COORD_LIMIT, COORD_LIMIT)),
                min_size=1, max_size=64))
@example([(COORD_LIMIT, -COORD_LIMIT), (-COORD_LIMIT, COORD_LIMIT), (0, -1), (-1, 0),
          (COORD_LIMIT, COORD_LIMIT), (-COORD_LIMIT, -COORD_LIMIT)])
def test_pack_unpack_roundtrip(points):
    pos = np.array(points, dtype=np.int64)
    keys = pack_positions(pos)
    assert np.array_equal(unpack_keys(keys), pos)
    assert len(np.unique(keys)) == len({tuple(p) for p in points})


def test_path_length_guard(srw):
    with pytest.raises(OverflowError):
        sample_path(srw, 2**40, master_seed=0)


def test_poissonized_determinism(lazy):
    z1 = sample_poissonized(lazy, 300.0, master_seed=4, replica=1)
    z2 = sample_poissonized(lazy, 300.0, master_seed=4, replica=1)
    assert np.array_equal(z1.walk.positions, z2.walk.positions)
    assert np.array_equal(z1.jump_times, z2.jump_times)


def test_poissonized_clock_statistics(lazy):
    counts = [sample_poissonized(lazy, 200.0, master_seed=s).jump_times.size
              for s in range(40)]
    mean = float(np.mean(counts))
    # Poisson(200): mean 200, sd ~14; forty samples put the sample mean
    # within a few units.
    assert abs(mean - 200.0) < 12.0


def test_poissonized_prefix_is_consistent(lazy):
    z = sample_poissonized(lazy, 100.0, master_seed=7)
    upto = z.positions_up_to(50.0)
    k = int((z.jump_times <= 50.0).sum())
    assert upto.shape[0] == k
    assert np.array_equal(upto, z.walk.positions[:k])
