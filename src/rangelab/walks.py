"""Step distributions and path sampling for planar lattice walks.

A step distribution is a finitely supported, symmetric probability law on
Z^2 with exact rational weights.  Walks started at the origin take i.i.d.
steps from it; a Poissonized walk takes the same steps at the arrival
times of a unit-rate Poisson clock.

Randomness is counter-based: every (master seed, replica, purpose) triple
names one Philox stream, so replicas are reproducible independently of
scheduling or worker count.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

import numpy as np
import numpy.random  # numpy 2 imports it lazily: load it here, not in a run

from .errors import InvalidConfig, ResourceLimit

__all__ = [
    "StepDistribution",
    "WalkPath",
    "PoissonizedPath",
    "builtin_distribution",
    "distribution_from_config",
    "validate_distribution",
    "walk_period",
    "check_walk_length",
    "sample_path",
    "sample_paths",
    "step_index_rows",
    "sample_poissonized",
    "stream",
    "rekey",
    "BUILTIN_NAMES",
    "PURPOSE_STEPS",
    "PURPOSE_CLOCK",
]

# Stream purposes.  Each purpose gets an independent Philox stream for a
# given (master seed, replica), so e.g. the Poisson clock never perturbs
# the step sequence.
PURPOSE_STEPS = 1
PURPOSE_CLOCK = 2

_MASK64 = (1 << 64) - 1

COORD_LIMIT = 2**31 - 2  # positions are int32; walks must stay inside


def _mix64(z: int) -> int:
    """splitmix64 finalizer, a cheap 64-bit bijection with good diffusion."""
    z &= _MASK64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def _stream_key(master_seed: int, replica: int, purpose: int) -> np.ndarray:
    """The Philox key of one (seed, replica, purpose) triple."""
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("master seed must fit in 64 bits")
    word = _mix64((replica & _MASK64) * 0x9E3779B97F4A7C15 + purpose + 1)
    return np.array([master_seed, word], dtype=np.uint64)


def stream(master_seed: int, replica: int = 0, purpose: int = PURPOSE_STEPS) -> np.random.Generator:
    """Counter-based generator for one (seed, replica, purpose) triple."""
    return np.random.Generator(np.random.Philox(key=_stream_key(master_seed, replica, purpose)))


def rekey(rng: np.random.Generator, master_seed: int, replica: int = 0,
          purpose: int = PURPOSE_STEPS) -> None:
    """Turn a generator made by stream() into stream(master_seed, replica,
    purpose) at its start: the new key, counter 0 and an empty buffer,
    set through Philox's documented state dict.  It costs a fraction of
    building a new generator."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": _stream_key(master_seed, replica, purpose)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _build_alias(probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vose alias table; construction order is fixed by index so the
    decode is deterministic across platforms."""
    k = len(probs)
    scaled = probs * k
    accept = np.zeros(k, dtype=np.float64)
    alias = np.zeros(k, dtype=np.int64)
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] = (scaled[l] + scaled[s]) - 1.0
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    for i in large:
        accept[i] = 1.0
        alias[i] = i
    for i in small:  # only reachable through rounding
        accept[i] = 1.0
        alias[i] = i
    return accept, alias


class StepDistribution:
    """Symmetric step law on Z^2 with exact rational weights.

    support is an (m, 2) int32 array sorted lexicographically; fracs holds
    the exact probabilities in the same order.  probs is the float64 image
    of fracs (exact for dyadic denominators).
    """

    def __init__(self, name: str, support, fracs: tuple[Fraction, ...]):
        self.name = name
        self.support = np.asarray(support, dtype=np.int32)
        self.fracs = fracs
        if self.support.ndim != 2 or self.support.shape[1] != 2:
            raise InvalidConfig("support must be an (m, 2) array of steps")
        if len(self.fracs) != len(self.support):
            raise InvalidConfig("one weight per support point is needed")
        self.probs = np.array([float(f) for f in self.fracs], dtype=np.float64)
        self._accept, self._alias = _build_alias(self.probs)
        # 64 - b when the decode is floor(u k) with k = 2^b, b >= 1; else 0
        k = len(self.probs)
        pow2 = k > 1 and k & (k - 1) == 0 and (self._accept == 1.0).all()
        self._shift = 65 - k.bit_length() if pow2 else 0

    @classmethod
    def from_steps(cls, name: str, steps: Sequence[tuple[int, int, int, int]]) -> "StepDistribution":
        """Build from (dx, dy, numerator, denominator) integer rows."""
        rows = []
        for step in steps:
            try:
                dx, dy, num, den = (operator.index(v) for v in step)
            except (TypeError, ValueError) as exc:
                raise InvalidConfig(f"step {step!r} is not four integers "
                                    f"[dx, dy, num, den]") from exc
            if den <= 0 or num <= 0:
                raise InvalidConfig("step weights must be positive rationals")
            if max(abs(dx), abs(dy)) > COORD_LIMIT:
                raise InvalidConfig(f"step {step!r} leaves the int32 coordinate box")
            rows.append(((dx, dy), Fraction(num, den)))
        if not rows:
            raise InvalidConfig("a distribution needs at least one step")
        rows.sort(key=lambda r: r[0])
        seen = set()
        for (v, _) in rows:
            if v in seen:
                raise InvalidConfig(f"duplicate support point {v}")
            seen.add(v)
        support = np.array([v for v, _ in rows], dtype=np.int32)
        fracs = tuple(f for _, f in rows)
        return cls(name=name, support=support, fracs=fracs)

    @property
    def max_step(self) -> int:
        """Largest coordinate magnitude over the support."""
        return int(np.abs(self.support).max())

    def canonical_id(self) -> str:
        parts = [f"{x},{y}:{f.numerator}/{f.denominator}"
                 for (x, y), f in zip(self.support.tolist(), self.fracs)]
        return self.name + "|" + ";".join(parts)

    def covariance_exact(self) -> list[list[Fraction]]:
        xx = sum(f * int(x) * int(x) for (x, y), f in zip(self.support.tolist(), self.fracs))
        yy = sum(f * int(y) * int(y) for (x, y), f in zip(self.support.tolist(), self.fracs))
        xy = sum(f * int(x) * int(y) for (x, y), f in zip(self.support.tolist(), self.fracs))
        return [[xx, xy], [xy, yy]]

    def det_covariance_exact(self) -> Fraction:
        c = self.covariance_exact()
        return c[0][0] * c[1][1] - c[0][1] * c[1][0]

    def sample_step_indices(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw n support indices with one uniform per step (alias decode).

        When every accept weight is 1 (equal weights, as for srw and king)
        the decode keeps j = floor(u k) whatever u is, since frac < 1.
        For a Philox generator u is (w >> 11) 2^-53 for the raw word w, so
        when also k = 2^b, j is the top b bits of w: the same indices from
        the same words, without the float multiply and cast."""
        if self._shift:
            w = rng.bit_generator.random_raw(n)
            w >>= self._shift
            return w.view(np.int64)
        v = rng.random(n)
        v *= len(self.probs)
        j = v.astype(np.int64)
        v -= j  # the fraction, in place: a fresh array costs page faults
        return np.where(v < self._accept[j], j, self._alias[j])


BUILTIN_NAMES = ("srw", "lazy-srw", "king")


def builtin_distribution(name: str) -> StepDistribution:
    if name == "srw":
        steps = [(1, 0, 1, 4), (-1, 0, 1, 4), (0, 1, 1, 4), (0, -1, 1, 4)]
    elif name == "lazy-srw":
        steps = [(0, 0, 1, 2),
                 (1, 0, 1, 8), (-1, 0, 1, 8), (0, 1, 1, 8), (0, -1, 1, 8)]
    elif name == "king":
        steps = [(dx, dy, 1, 8) for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                 if (dx, dy) != (0, 0)]
    else:
        raise InvalidConfig(f"unknown builtin distribution {name!r}; "
                            f"choices: {', '.join(BUILTIN_NAMES)}")
    return StepDistribution.from_steps(name, steps)


def distribution_from_config(cfg) -> StepDistribution:
    """Accepts a name string, a {"name": ...} dict, or a dict with explicit
    "steps" rows [dx, dy, num, den]."""
    if isinstance(cfg, str):
        return builtin_distribution(cfg)
    if not isinstance(cfg, dict):
        raise InvalidConfig(f"distribution must be a name or an object, got {cfg!r}")
    name = cfg.get("name", "custom")
    if not isinstance(name, str):
        raise InvalidConfig(f"distribution name must be a string, got {name!r}")
    if "steps" in cfg:
        if not isinstance(cfg["steps"], list):
            raise InvalidConfig("distribution steps must be a list of rows")
        return StepDistribution.from_steps(name, cfg["steps"])
    return builtin_distribution(name)


# ---------------------------------------------------------------------------
# validation


def _lattice_index(vectors) -> int:
    """Index of the subgroup of Z^2 generated by the vectors, 0 when they
    span at most a line: the gcd of the 2 x 2 minors |x_i y_j - y_i x_j|.
    Each minor is at most 2 COORD_LIMIT^2 < 2^63, so int64 holds it."""
    v = np.asarray(vectors, dtype=np.int64)
    g = 0
    for x, y in v.tolist():
        g = math.gcd(g, *np.abs(x * v[:, 1] - y * v[:, 0]).tolist())
        if g == 1:
            break
    return g


def walk_period(dist: StepDistribution) -> int:
    """Period of the return times of a symmetric law whose steps generate
    Z^2: 2 when some parity a x + b y, (a, b) one of (1, 0), (0, 1),
    (1, 1), is odd on every step, and 1 otherwise.

    Such a parity flips at every step, so every return takes an even
    time.  Conversely, x then -x returns in 2 steps; so when no return
    takes an odd time, the parity of the number of steps to a site does
    not depend on the path, and it is a homomorphism Z^2 -> Z/2 that is
    odd on every step: one of the three parities."""
    steps = dist.support.tolist()
    odd = any(all((a * x + b * y) % 2 for x, y in steps)
              for a, b in ((1, 0), (0, 1), (1, 1)))
    return 2 if odd else 1


def validate_distribution(dist: StepDistribution) -> int:
    """Check the standing assumptions: exact unit mass, symmetry, full
    two-dimensional lattice support (hence a nondegenerate covariance).
    Raises InvalidConfig naming every failed one; returns the walk's
    period (see walk_period; 1 means strongly aperiodic, which the sharp
    local limit estimates require)."""
    errors: list[str] = []

    total = sum(dist.fracs, Fraction(0))
    if total != 1:
        errors.append(f"probabilities sum to {total}, not 1")

    by_point = {tuple(v): f for v, f in zip(dist.support.tolist(), dist.fracs)}
    if any(by_point.get((-x, -y)) != f for (x, y), f in by_point.items()):
        errors.append("distribution is not symmetric under x -> -x")

    idx = _lattice_index(dist.support)
    if idx == 0:
        errors.append("degenerate covariance (support does not span the plane)")
    elif idx > 1:
        errors.append("support generates a proper sublattice of Z^2")

    if errors:
        raise InvalidConfig("distribution rejected: " + "; ".join(errors))
    return walk_period(dist)


# ---------------------------------------------------------------------------
# sampling


class WalkPath:
    """A sampled walk: positions[i] is the location after i+1 steps."""

    def __init__(self, n: int, positions: np.ndarray):
        self.n = n
        self.positions = positions  # (n, 2) int32
        assert positions.shape == (n, 2)
        assert positions.dtype == np.int32


def _positions_from_indices(dist: StepDistribution, idx: np.ndarray) -> np.ndarray:
    """int32 positions of the walks whose step indices are idx, summed
    along its last axis: (n, 2) for (n,) indices, (rows, n, 2) for
    (rows, n).  Summed in place in int32 when no n-step walk can leave
    the int32 box, else in int64 and checked."""
    steps = np.take(dist.support, idx, axis=0)  # a tenth of support[idx]'s time
    if idx.shape[-1] * dist.max_step <= COORD_LIMIT:
        return np.cumsum(steps, axis=-2, dtype=np.int32, out=steps)
    pos = np.cumsum(steps, axis=-2, dtype=np.int64)
    if np.abs(pos).max() > COORD_LIMIT:
        raise ResourceLimit("walk left the int32 coordinate box")
    return pos.astype(np.int32)


def step_index_rows(dist: StepDistribution, rng: np.random.Generator,
                    master_seed: int, replicas, out: np.ndarray) -> None:
    """Write into out[i] the len(out[i]) step indices of replica
    replicas[i]'s step stream.  rng, a generator made by stream(), is
    rekeyed from row to row."""
    n = out.shape[1]
    for row, replica in zip(out, replicas):
        rekey(rng, master_seed, replica, PURPOSE_STEPS)
        row[:] = dist.sample_step_indices(n, rng)


def check_walk_length(dist: StepDistribution, n: int) -> None:
    """Refuse n-step walks that could leave the int32 coordinate box."""
    if n * dist.max_step > COORD_LIMIT:
        raise ResourceLimit(
            f"{n}-step walks with steps of {dist.max_step} can leave the "
            f"int32 coordinate box")


def sample_paths(dist: StepDistribution, n: int, master_seed: int,
                 replicas) -> np.ndarray:
    """(len(replicas), n, 2) int32 positions: row i is the n-step walk of
    replica replicas[i], in any order, repeats and gaps allowed.  Every
    row comes from one generator rekeyed from row to row, and equals
    what a generator built for that replica alone gives."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n * dist.max_step > COORD_LIMIT:
        raise OverflowError(f"n * max_step = {n * dist.max_step} exceeds the int32 box")
    replicas = list(replicas)
    idx = np.empty((len(replicas), n), dtype=np.int32)
    if replicas:
        step_index_rows(dist, stream(master_seed, replicas[0]), master_seed,
                        replicas, idx)
    return _positions_from_indices(dist, idx)


def sample_path(dist: StepDistribution, n: int, master_seed: int,
                replica: int = 0) -> WalkPath:
    """Sample an n-step walk from the origin.  The origin itself is not
    stored; positions[0] is the location after the first step.  The
    one-row case of sample_paths."""
    pos = sample_paths(dist, n, master_seed, (replica,))[0]
    return WalkPath(n=n, positions=pos)


class PoissonizedPath:
    """Walk stepped at unit-rate Poisson arrival times up to horizon t."""

    def __init__(self, t: float, jump_times: np.ndarray, walk: WalkPath):
        self.t = t
        self.jump_times = jump_times  # sorted float64, all <= t
        self.walk = walk
        assert walk.n == len(jump_times)
        if len(jump_times):
            assert jump_times[-1] <= t
            assert np.all(np.diff(jump_times) >= 0)

    def positions_up_to(self, s: float) -> np.ndarray:
        """Positions visited during (0, s], excluding the origin."""
        m = int(np.searchsorted(self.jump_times, s, side="right"))
        return self.walk.positions[:m]


def sample_poissonized(dist: StepDistribution, t: float, master_seed: int,
                       replica: int = 0) -> PoissonizedPath:
    """Sample the walk observed along a unit-rate Poisson clock on [0, t].

    Holding times come from their own stream, so the embedded discrete
    path for a given replica is the same whatever the horizon."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    clock = stream(master_seed, replica, PURPOSE_CLOCK)
    times = []
    total = 0.0
    chunk = max(64, int(1.5 * t) + 16)
    while total <= t:
        e = clock.standard_exponential(chunk)
        c = total + np.cumsum(e)
        times.append(c)
        total = c[-1]
    all_times = np.concatenate(times)
    jump_times = all_times[all_times <= t]
    n = len(jump_times)
    rng = stream(master_seed, replica, PURPOSE_STEPS)
    idx = dist.sample_step_indices(n, rng)
    pos = _positions_from_indices(dist, idx)
    walk = WalkPath(n=n, positions=pos)
    return PoissonizedPath(t=float(t), jump_times=jump_times, walk=walk)
