"""Desk-scale probes of range tail behaviour.

The centered range of a planar walk has asymmetric tails: upward
deviations live on the scale n log(b) / (log n)^2 while downward ones
need the much larger n b / (log n)^2, so the lower tail is the heavy
one.  Nothing at desk scale resolves the limiting rate constants; what
these probes deliver is the machinery run honestly (exact centering,
purpose-separated random streams, nested-event monotonicity by
construction) plus Monte Carlo summaries that the acceptance checks
pin down: mean against exact expectation, left skew of the centered
range with more mass beyond -2 sd than beyond +2 sd, boundedness of
exponential-moment curves.

Everything here is deterministic in (master_seed, replica); see
rangelab.walks.stream for the stream layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # numpy 2 imports it lazily: load it here, not in a run

from ._fastpath import pack_positions, prefix_range_counts, batch_range_counts
from .errors import InvalidConfig
from .exact import ReturnProbTable, build_return_table
from .rangestats import p_fold_intersection
from .walks import (
    PURPOSE_PARTNER,
    PURPOSE_STEPS,
    StepDistribution,
    distribution_from_config,
    rekey,
    sample_path,
    stream,
)

__all__ = [
    "DeviationProbe",
    "RangeSample",
    "ConstantsReport",
    "sample_range_ladder",
    "sample_range_values",
    "tail_rows_from_values",
    "mc_tail",
    "exp_moment_probe",
    "lil_checkpoints",
    "lil_rows",
    "lil_trajectory",
    "running_max_exceedance",
    "centering_defect_supremum",
    "constants_report",
    "wilson_interval",
]

_EXP_MODES = ("abs-range", "signed-range", "p-intersection")
_SAMPLE_STEPS = 1 << 20  # steps held at once by sample_range_ladder


@dataclass(frozen=True)
class DeviationProbe:
    """One tail-probe definition: which walk, which sizes, which
    thresholds, which side."""

    dist_name: str
    n_ladder: tuple
    b_schedule: tuple
    thresholds: tuple
    side: str
    replicas: int
    master_seed: int

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise InvalidConfig("side must be 'upper' or 'lower'")
        if len(self.n_ladder) != len(self.b_schedule):
            raise InvalidConfig("b schedule must align with the n ladder")
        if any(b <= 1.0 for b in self.b_schedule):
            raise InvalidConfig("every b must exceed 1")
        if any(b2 < b1 for b1, b2 in zip(self.b_schedule, self.b_schedule[1:])):
            raise InvalidConfig("b schedule must be nondecreasing")
        if any(n < 2 for n in self.n_ladder):
            raise InvalidConfig("n ladder entries must be at least 2")
        if self.replicas < 1:
            raise InvalidConfig("replicas must be positive")

    def constraint_flags(self) -> list:
        """Desk check of the growth hypotheses behind each tail regime.

        Upper probes want log b small against sqrt(log n); lower probes
        want b small against (log n)^{1/5}.  A flag, not an error."""
        out = []
        for n, b in zip(self.n_ladder, self.b_schedule):
            ln = math.log(n)
            if self.side == "upper":
                ratio = math.log(b) / math.sqrt(ln)
            else:
                ratio = b / ln ** 0.2
            out.append({"n": n, "b": b, "ratio": ratio, "ok": ratio <= 1.0})
        return out


def wilson_interval(k: int, m: int, z: float = 1.96) -> tuple:
    """Wilson score interval for a binomial proportion.

    The interval reaches 0 exactly at k = 0 and 1 exactly at k = m; those
    endpoints are returned as such, since center -/+ half only reaches
    them up to round-off."""
    if m <= 0:
        raise ValueError("need at least one trial")
    p = k / m
    denom = 1.0 + z * z / m
    center = (p + z * z / (2.0 * m)) / denom
    half = z * math.sqrt(p * (1.0 - p) / m + z * z / (4.0 * m * m)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == m else min(1.0, center + half)
    return lo, hi


def sample_range_ladder(dist: StepDistribution, n_ladder, replicas: int,
                        master_seed: int, first_replica: int = 0) -> np.ndarray:
    """R_m at every ladder entry m for `replicas` independent walks: one
    row per replica (first_replica, first_replica + 1, ... in order) and
    one column per entry of n_ladder, in its order, repeats included.

    Each replica draws max(n_ladder) steps once from its own
    counter-based stream, and every entry counts a prefix of that walk,
    which is the walk a single-n draw of the same replica gives.  So the
    result is independent of batching; batches of _SAMPLE_STEPS steps
    only bound peak memory.  One generator is rekeyed from replica to
    replica, and one index buffer holds every batch."""
    lengths = [int(n) for n in n_ladder]
    n = max(lengths)
    sup_x = dist.support[:, 0].astype(np.int64)
    sup_y = dist.support[:, 1].astype(np.int64)
    batch = max(1, _SAMPLE_STEPS // max(n, 1))
    out = np.empty((replicas, len(lengths)), dtype=np.int64)
    buf = np.empty((min(batch, replicas), n), dtype=np.int64)
    rng = stream(master_seed, first_replica, PURPOSE_STEPS)
    for start in range(0, replicas, batch):
        stop = min(start + batch, replicas)
        idx = buf[:stop - start]
        for j in range(start, stop):
            if j:
                rekey(rng, master_seed, first_replica + j, PURPOSE_STEPS)
            idx[j - start] = dist.sample_step_indices(n, rng)
        out[start:stop] = batch_range_counts(idx, sup_x, sup_y, lengths)
    return out


def sample_range_values(dist: StepDistribution, n: int, replicas: int,
                        master_seed: int, first_replica: int = 0) -> np.ndarray:
    """Range counts for `replicas` independent walks of n steps, the
    replicas first_replica, first_replica + 1, ... in order: the
    one-entry case of sample_range_ladder."""
    return sample_range_ladder(dist, (n,), replicas, master_seed,
                               first_replica)[:, 0]


@dataclass
class RangeSample:
    """Monte Carlo sample of R_n with its first moments."""

    dist_name: str
    n: int
    replicas: int
    master_seed: int
    values: np.ndarray = field(repr=False)
    mean: float = field(init=False)
    sd: float = field(init=False)
    se: float = field(init=False)
    skewness: float = field(init=False)

    def __post_init__(self):
        v = self.values.astype(np.float64)
        self.mean = float(v.mean())
        self.sd = float(v.std(ddof=1)) if v.size > 1 else 0.0
        self.se = self.sd / math.sqrt(v.size) if v.size > 1 else math.inf
        if self.sd > 0:
            c = v - self.mean
            self.skewness = float((c**3).mean()) / float(c.var() ** 1.5)
        else:
            self.skewness = 0.0

    def mean_check(self, table: ReturnProbTable) -> dict:
        er = float(table.er[self.n])
        gap = abs(self.mean - er)
        return {"n": self.n, "mc_mean": self.mean, "er_exact": er,
                "se": self.se, "gap": gap,
                "gap_in_se": gap / self.se if self.se > 0 else math.inf}

    def asymmetry(self, table: ReturnProbTable, sd_multiple: float = 2.0) -> dict:
        """Counts of centered values beyond +-a, a = sd_multiple * SD.

        The hard bound -R_bar <= E R_n (ranges are at least 1) is
        reported alongside."""
        er = float(table.er[self.n])
        c = self.values.astype(np.float64) - er
        a = sd_multiple * self.sd
        plus = int((c > a).sum())
        minus = int((-c > a).sum())
        return {"n": self.n, "a": a, "skewness": self.skewness,
                "count_plus": plus, "count_minus": minus,
                "replicas": self.replicas,
                "hard_bound_ok": bool((-c <= er).all())}


def draw_range_sample(dist: StepDistribution, n: int, replicas: int,
                      master_seed: int) -> RangeSample:
    values = sample_range_values(dist, n, replicas, master_seed)
    return RangeSample(dist_name=dist.name, n=n, replicas=replicas,
                       master_seed=master_seed, values=values)


def _rate_row(n: int, b: float, theta: float, variant: str, threshold: float,
              exceed: int, replicas: int) -> dict:
    p_lo, p_hi = wilson_interval(exceed, replicas)
    row = {
        "n": n, "b": b, "theta": theta, "variant": variant,
        "threshold": threshold, "exceedances": exceed, "replicas": replicas,
        "p_hat": exceed / replicas,
        "rate": None, "rate_lo": None, "rate_hi": None,
        "zero_exceedances": exceed == 0,
    }
    inv_b = 1.0 / b
    if exceed > 0:
        row["rate"] = inv_b * math.log(exceed / replicas)
        if p_lo > 0:
            row["rate_lo"] = inv_b * math.log(p_lo)
    if p_hi > 0:
        row["rate_hi"] = inv_b * math.log(p_hi)
    return row


def tail_rows_from_values(probe: DeviationProbe, dist: StepDistribution,
                          table: ReturnProbTable, values_by_n: dict) -> list:
    """Rate rows for a probe given already-simulated range counts.

    values_by_n maps each ladder n to the int64 array of R_n over the
    probe's replicas; the run/report split stores those arrays and
    rebuilds the rates here."""
    rows = []
    det = float(dist.det_covariance_exact())
    upper_const = 2.0 * math.pi * math.sqrt(det)
    flags = {f["n"]: f for f in probe.constraint_flags()}
    for n, b in zip(probe.n_ladder, probe.b_schedule):
        values = np.asarray(values_by_n[n])
        er = float(table.er[n])
        centered = values.astype(np.float64) - er
        ln2 = math.log(n) ** 2
        new_rows = []
        for theta in probe.thresholds:
            if probe.side == "upper":
                thr = theta * upper_const * n * math.log(b) / ln2
                exceed = int((centered >= thr).sum())
                new_rows.append(_rate_row(n, b, theta, "scale", thr, exceed,
                                          probe.replicas))
                h_n = float(table.h[n])
                h_frac = float(table.h[max(1, int(n // b))])
                thr_h = theta * (n / (h_n * h_n)) * (h_n - h_frac)
                exceed_h = int((centered >= thr_h).sum())
                new_rows.append(_rate_row(n, b, theta, "exact-h", thr_h,
                                          exceed_h, probe.replicas))
            else:
                thr = theta * n * b / ln2
                exceed = int((-centered >= thr).sum())
                new_rows.append(_rate_row(n, b, theta, "scale", thr, exceed,
                                          probe.replicas))
        for row in new_rows:
            row["constraint_ok"] = flags[n]["ok"]
            row["constraint_ratio"] = flags[n]["ratio"]
        rows.extend(new_rows)
    return rows


def mc_tail(probe: DeviationProbe, dist: StepDistribution | None = None,
            table: ReturnProbTable | None = None) -> list:
    """Frequency estimates of the tail rate on the probe's side.

    Upper: (1/b) log P(R_bar >= thr) at thr = theta * 2 pi sqrt(det Gamma)
    * n log(b) / (log n)^2, plus the exact-H variant
    thr = theta * (n/H(n)^2)(H(n) - H(n/b)).  Lower: (1/b) log
    P(-R_bar >= thr) at thr = theta * n * b / (log n)^2."""
    if dist is None:
        dist = distribution_from_config(probe.dist_name)
    if table is None:
        table = build_return_table(dist, max(probe.n_ladder))
    values = sample_range_ladder(dist, probe.n_ladder, probe.replicas,
                                 probe.master_seed)
    return tail_rows_from_values(probe, dist, table,
                                 dict(zip(probe.n_ladder, values.T)))


def _intersection_sizes(dist: StepDistribution, n: int, replicas: int,
                        master_seed: int) -> np.ndarray:
    """|range of walk A intersect range of walk B| for each replica's
    pair of independent n-step walks."""
    vals = np.empty(replicas, dtype=np.float64)
    for j in range(replicas):
        pair = [sample_path(dist, n, master_seed, replica=j, purpose=purpose)
                for purpose in (PURPOSE_STEPS, PURPOSE_PARTNER)]
        vals[j] = p_fold_intersection(pair).count
    return vals


def _exp_statistics(dist: StepDistribution, n_ladder: tuple, replicas: int,
                    master_seed: int, mode: str,
                    table: ReturnProbTable | None) -> list:
    """The per-replica statistic of `mode` at every ladder entry.  The
    range modes count every entry on one walk per replica."""
    if mode == "p-intersection":
        return [_intersection_sizes(dist, n, replicas, master_seed)
                for n in n_ladder]
    ranges = sample_range_ladder(dist, n_ladder, replicas, master_seed)
    stats = []
    for n, values in zip(n_ladder, ranges.T):
        centered = values.astype(np.float64) - float(table.er[n])
        stats.append(np.abs(centered) if mode == "abs-range" else centered)
    return stats


def _logsumexp(a: np.ndarray) -> np.float64:
    """log(sum(exp(a))) of a nonempty 1-d array, in the operation order
    of scipy 1.17's logsumexp: the maximum and its t ties are taken out
    of the sum for precision, giving log1p(s / t) + log(t) + max with s
    the sum of exp(a - max) over the other entries.  A result that is
    not finite falls back to log(sum(exp(a)))."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max()
        ties = a == a_max
        rest = np.exp(a - a_max)
        rest[ties] = 0.0
        t = ties.sum(dtype=np.float64)
        s = rest.sum()
        out = np.log1p(s / t if s != 0 else s) + np.log(t) + a_max
        if not np.isfinite(out):
            out = np.log(np.exp(a).sum())
    return out


def exp_moment_probe(dist: StepDistribution, n_ladder, theta,
                     mode: str = "signed-range", replicas: int = 10_000,
                     master_seed: int = 0,
                     table: ReturnProbTable | None = None,
                     bootstrap: int = 200) -> dict:
    """Empirical exponential-moment curve along an n ladder.

    The per-n statistic is the sample mean of exp(w) with the weight w
    set by `mode`, w = theta (log n)^2 / n times the mode's statistic;
    the mean is computed as logsumexp(w) - log(m), never through raw
    exponentials.  theta is one number for the whole ladder or one value
    per ladder entry.  The curves are bounded in n, but on a fixed theta
    they rise toward their limit at desk scale, because the ratio of
    log(n) to the renewal scale 2 pi sqrt(det Gamma) H(n) is still
    climbing toward 1 there (0.68 to 0.79 for the simple walk over
    2^8 .. 2^14).  The weight on which the curve is flat is
    (2 pi sqrt(det Gamma) H(n))^2 / n; reach it with the per-n
    theta_n = theta0 (2 pi sqrt(det Gamma) H(n) / log n)^2."""
    if mode not in _EXP_MODES:
        raise InvalidConfig(f"mode must be one of {_EXP_MODES}")
    n_ladder = tuple(int(n) for n in n_ladder)
    per_n = np.ndim(theta) > 0
    thetas = [float(t) for t in theta] if per_n else [theta] * len(n_ladder)
    if len(thetas) != len(n_ladder):
        raise InvalidConfig("theta needs one value per ladder entry")
    if table is None and mode != "p-intersection":
        table = build_return_table(dist, max(n_ladder))
    boot_rng = np.random.default_rng(
        np.random.Philox(key=[master_seed & 0xFFFFFFFFFFFFFFFF, 0xB007]))
    stats = _exp_statistics(dist, n_ladder, replicas, master_seed, mode, table)
    points = []
    for n, theta_n, stat in zip(n_ladder, thetas, stats):
        scale = theta_n * math.log(n) ** 2 / n
        w = scale * stat
        m = w.size
        log_mean = float(_logsumexp(w) - math.log(m))
        if bootstrap > 0:
            bs = np.empty(bootstrap)
            for i in range(bootstrap):
                pick = boot_rng.integers(0, m, size=m)
                bs[i] = _logsumexp(w[pick]) - math.log(m)
            lo, hi = np.quantile(bs, [0.025, 0.975])
        else:
            lo = hi = log_mean
        points.append({"n": n, "log_mean": log_mean,
                       "value": math.exp(log_mean),
                       "ci_lo": math.exp(float(lo)),
                       "ci_hi": math.exp(float(hi))})
    values = [p["value"] for p in points]
    ratio = max(values) / min(values) if min(values) > 0 else math.inf
    increasing = all(b > a for a, b in zip(values, values[1:]))
    return {"dist_name": dist.name, "theta": thetas if per_n else theta,
            "mode": mode, "replicas": replicas, "master_seed": master_seed,
            "points": points, "max_over_min": ratio,
            "strictly_increasing": increasing}


def _iterated_logs(m: int) -> tuple:
    """(log log m, log log log m) in extended precision; None where the
    iterate is not positive."""
    x = np.longdouble(m)
    l1 = np.log(x)
    ll = np.log(l1) if l1 > 0 else None
    lll = None
    if ll is not None and ll > 0:
        lll_val = np.log(ll)
        lll = float(lll_val) if lll_val > 0 else None
    return (float(ll) if ll is not None and ll > 0 else None, lll)


def lil_checkpoints(n_max: int, checkpoints=None) -> list:
    """Sorted distinct checkpoints, by default the dyadic times 4, 8, ...
    below n_max followed by n_max itself."""
    if checkpoints is None:
        checkpoints = [1 << k for k in range(2, n_max.bit_length())] + [n_max]
    checkpoints = sorted(set(int(c) for c in checkpoints))
    if not checkpoints:
        raise InvalidConfig("checkpoints must be a nonempty list")
    if checkpoints[-1] > n_max:
        raise InvalidConfig("checkpoint beyond n_max")
    return checkpoints


def lil_rows(checkpoints, ranges, table: ReturnProbTable) -> list:
    """Normalized LIL statistics and their running maxima, one row per
    checkpoint m given the range R_m there.

    Upper statistic: R_bar_m (log m)^2 / (m logloglog m); lower:
    -R_bar_m (log m)^2 / (m loglog m).  Where the iterated log is not
    positive the statistic and its running maximum are None."""
    rows = []
    run_up = -math.inf
    run_low = -math.inf
    for m, r in zip(checkpoints, ranges):
        r_bar = float(r) - float(table.er[m])
        ll, lll = _iterated_logs(m)
        lg2 = math.log(m) ** 2
        row = {"m": m, "r_bar": r_bar, "upper_stat": None, "lower_stat": None,
               "running_max_upper": None, "running_max_lower": None}
        if lll is not None:
            row["upper_stat"] = r_bar * lg2 / (m * lll)
            run_up = max(run_up, row["upper_stat"])
            row["running_max_upper"] = run_up
        if ll is not None:
            row["lower_stat"] = -r_bar * lg2 / (m * ll)
            run_low = max(run_low, row["lower_stat"])
            row["running_max_lower"] = run_low
        rows.append(row)
    return rows


def lil_trajectory(dist: StepDistribution, n_max: int, master_seed: int,
                   replica: int = 0, checkpoints=None,
                   table: ReturnProbTable | None = None) -> dict:
    """Running normalized maxima of one trajectory along dyadic times
    (see lil_rows).  Checkpoints where the upper statistic is undefined
    are listed as skipped.  Desk scale cannot approach the limit
    constants; the output says so."""
    checkpoints = lil_checkpoints(n_max, checkpoints)
    if table is None:
        table = build_return_table(dist, n_max)
    ranges = sample_range_ladder(dist, checkpoints, 1, master_seed,
                                 first_replica=replica)[0]
    rows = lil_rows(checkpoints, ranges, table)
    det = float(dist.det_covariance_exact())
    return {"dist_name": dist.name, "n_max": n_max, "replica": replica,
            "master_seed": master_seed, "rows": rows,
            "skipped": [row["m"] for row in rows if row["upper_stat"] is None],
            "upper_reference": 2.0 * math.pi * math.sqrt(det),
            "note": "desk-scale trajectory; not conclusive for the limits"}


def running_max_exceedance(dist: StepDistribution, n: int, replicas: int,
                           master_seed: int, lambdas,
                           table: ReturnProbTable | None = None) -> dict:
    """Empirical frequency of max_{m<=n} R_bar_m >= lam * n lll(n)/(log n)^2
    for each lam; decreasing in lam by event nesting."""
    if table is None:
        table = build_return_table(dist, n)
    _, lll = _iterated_logs(n)
    if lll is None:
        raise InvalidConfig("n too small for the triple logarithm")
    er = table.er[1:n + 1]
    maxima = np.empty(replicas)
    for j in range(replicas):
        path = sample_path(dist, n, master_seed, replica=j)
        prefix = prefix_range_counts(pack_positions(path.positions)).astype(np.float64)
        maxima[j] = float((prefix - er).max())
    base = n * lll / math.log(n) ** 2
    lambdas = sorted(float(x) for x in lambdas)
    freqs = [float((maxima >= lam * base).mean()) for lam in lambdas]
    return {"n": n, "replicas": replicas, "base_scale": base,
            "lambdas": lambdas, "frequencies": freqs}


def centering_defect_supremum(dist: StepDistribution, grid_top: int = 1 << 18,
                              grid_points: int = 50,
                              table: ReturnProbTable | None = None) -> dict:
    """Grid supremum of the subadditivity defect of phi(j) = j / H(j).

    The statistic is |phi(A+B) - phi(A) - phi(B)| * sqrt(A+B)
    * log(A+B)^2 / sqrt(min(A,B)) over a log-spaced grid; the sup sits
    at the corner A = B = top and is stable under grid refinement."""
    if grid_top < 64:
        raise InvalidConfig("grid_top too small")
    if table is None:
        table = build_return_table(dist, 2 * grid_top)
    if table.n < 2 * grid_top:
        raise InvalidConfig("table too short for the requested grid")
    grid = np.unique(np.geomspace(16, grid_top, grid_points).astype(np.int64))
    h = table.h
    phi = lambda j: j / h[j]
    a = grid[:, None].astype(np.float64)
    b = grid[None, :].astype(np.float64)
    defect = np.abs(phi(grid[:, None] + grid[None, :])
                    - phi(grid)[:, None] - phi(grid)[None, :])
    s = a + b
    stat = defect * np.sqrt(s) * np.log(s) ** 2 / np.sqrt(np.minimum(a, b))
    flat = int(np.argmax(stat))
    ia, ib = np.unravel_index(flat, stat.shape)
    return {"dist_name": dist.name, "grid_top": grid_top,
            "grid_points": int(grid.size), "sup": float(stat[ia, ib]),
            "arg_a": int(grid[ia]), "arg_b": int(grid[ib])}


@dataclass
class ConstantsReport:
    """All the closed-form constants the tail laws are built from.

    kappa4 carries both candidate normalizations (the factor-2 question
    is genuinely open here; both are propagated).  L and C stay
    symbolic: C is a Brownian intersection-functional limit that this
    package does not compute."""

    dist_name: str
    det_gamma: float
    upper_lil_constant: float
    kappa4_candidates: dict
    kappa4_uncertainty: float
    theta: dict = field(init=False)
    theta_inverse: dict = field(init=False)
    L_symbolic: str = "exp(-1 - C)"
    C_symbolic: str = "not computed (Brownian intersection-measure limit)"

    def __post_init__(self):
        assert self.det_gamma > 0
        assert all(v > 0 for v in self.kappa4_candidates.values())
        self.theta = {}
        self.theta_inverse = {}
        for name, k4 in self.kappa4_candidates.items():
            th = (2.0 * math.pi) ** 2 / (math.sqrt(self.det_gamma) * k4)
            self.theta[name] = th
            self.theta_inverse[name] = 1.0 / th
            assert abs(th * (1.0 / th) - 1.0) < 1e-12

    def to_dict(self) -> dict:
        return {
            "dist_name": self.dist_name,
            "det_gamma": self.det_gamma,
            "upper_lil_constant": self.upper_lil_constant,
            "kappa4_candidates": self.kappa4_candidates,
            "kappa4_uncertainty": self.kappa4_uncertainty,
            "theta": self.theta,
            "theta_inverse": self.theta_inverse,
            "L": self.L_symbolic,
            "C": self.C_symbolic,
        }


def constants_report(dist: StepDistribution, m_hat: float,
                     m_hat_uncertainty: float = 0.0) -> ConstantsReport:
    det = float(dist.det_covariance_exact())
    return ConstantsReport(
        dist_name=dist.name,
        det_gamma=det,
        upper_lil_constant=2.0 * math.pi * math.sqrt(det),
        kappa4_candidates={"half_quotient": m_hat, "weinstein": 2.0 * m_hat},
        kappa4_uncertainty=m_hat_uncertainty,
    )
