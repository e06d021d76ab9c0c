"""Desk-scale probes of range tail behaviour.

The centered range of a planar walk has asymmetric tails: upward
deviations live on the scale n log(b) / (log n)^2 while downward ones
need the much larger n b / (log n)^2, so the lower tail is the heavy
one.  Nothing at desk scale resolves the limiting rate constants; what
these probes deliver is the machinery run honestly (exact centering,
purpose-separated random streams) plus Monte Carlo summaries that the
acceptance checks pin down: mean against exact expectation, left skew
of the centered range with more mass beyond -2 sd than beyond +2 sd,
boundedness of exponential-moment curves.

Everything here is deterministic in (master_seed, replica); see
rangelab.walks.stream for the stream layout.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.random  # numpy 2 imports it lazily: load it here, not in a run

from ._fastpath import batch_range_counts, distinct, replica_blocks
from .errors import InvalidConfig
from .exact import ReturnProbTable, build_return_table
from .variational import kappa4_normalizations
from .walks import PURPOSE_STEPS, StepDistribution, step_index_rows, stream

__all__ = [
    "DeviationProbe",
    "RangeSample",
    "ConstantsReport",
    "sample_range_ladder",
    "tail_rows_from_values",
    "exp_moment_probe",
    "lil_checkpoints",
    "lil_rows",
    "centering_defect_supremum",
    "constants_report",
    "wilson_interval",
]

_EXP_MODES = ("abs-range", "signed-range")
_SD_MULTIPLE = 2.0  # RangeSample.asymmetry counts values beyond this many SDs
_BOOT_TERMS = 1 << 18  # resampled weights held at once by exp_moment_probe


class DeviationProbe:
    """One tail-probe definition: which walk, which sizes, which
    thresholds, which side."""

    def __init__(self, n_ladder: tuple, b_schedule: tuple, thresholds: tuple,
                 side: str, replicas: int):
        if side not in ("upper", "lower"):
            raise InvalidConfig("side must be 'upper' or 'lower'")
        if len(n_ladder) != len(b_schedule):
            raise InvalidConfig("b schedule must align with the n ladder")
        if any(b <= 1.0 for b in b_schedule):
            raise InvalidConfig("every b must exceed 1")
        if any(b2 < b1 for b1, b2 in zip(b_schedule, b_schedule[1:])):
            raise InvalidConfig("b schedule must be nondecreasing")
        if any(n < 2 for n in n_ladder):
            raise InvalidConfig("n ladder entries must be at least 2")
        if replicas < 1:
            raise InvalidConfig("replicas must be positive")
        self.n_ladder = n_ladder
        self.b_schedule = b_schedule
        self.thresholds = thresholds
        self.side = side
        self.replicas = replicas

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
    result is independent of batching.  Replicas go in the blocks of
    replica_blocks: one generator, rekeyed from replica to replica,
    fills one reused index buffer, and batch_range_counts counts it
    whole while it is still in cache.  One block bounds the memory of
    both sampling and counting."""
    lengths = [int(n) for n in n_ladder]
    n = max(lengths)
    sup_x = dist.support[:, 0].astype(np.int64)
    sup_y = dist.support[:, 1].astype(np.int64)
    out = np.empty((replicas, len(lengths)), dtype=np.int64)
    rng = stream(master_seed, first_replica, PURPOSE_STEPS)
    for js in replica_blocks(0, replicas, n):
        if not js.start:
            buf = np.empty((len(js), n), dtype=np.int64)
        idx = buf[:len(js)]
        step_index_rows(dist, rng, master_seed,
                        range(first_replica + js.start, first_replica + js.stop), idx)
        out[js.start:js.stop] = batch_range_counts(idx, sup_x, sup_y, lengths)
    return out


class RangeSample:
    """Monte Carlo sample of R_n with its first moments."""

    def __init__(self, n: int, values: np.ndarray):
        self.n = n
        self.values = values
        v = values.astype(np.float64)
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

    def asymmetry(self, table: ReturnProbTable) -> dict:
        """Counts of centered values beyond +-a, a = _SD_MULTIPLE * SD.

        The hard bound -R_bar <= E R_n (ranges are at least 1) is
        reported alongside."""
        er = float(table.er[self.n])
        c = self.values.astype(np.float64) - er
        a = _SD_MULTIPLE * self.sd
        plus = int((c > a).sum())
        minus = int((-c > a).sum())
        return {"n": self.n, "a": a, "skewness": self.skewness,
                "count_plus": plus, "count_minus": minus,
                "replicas": int(self.values.size),
                "hard_bound_ok": bool((-c <= er).all())}


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


def _exp_statistics(dist: StepDistribution, n_ladder: tuple, replicas: int,
                    master_seed: int, mode: str, table: ReturnProbTable) -> list:
    """The per-replica statistic of `mode` at every ladder entry, every
    entry counted on one walk per replica."""
    ranges = sample_range_ladder(dist, n_ladder, replicas, master_seed)
    stats = []
    for n, values in zip(n_ladder, ranges.T):
        centered = values.astype(np.float64) - float(table.er[n])
        stats.append(np.abs(centered) if mode == "abs-range" else centered)
    return stats


def _logsumexp(a: np.ndarray):
    """log(sum(exp(a))) over the last axis of a nonempty array, one value
    per row (a numpy scalar for a 1-d array), in the operation order of
    scipy 1.17's logsumexp: the row's maximum and its t ties are taken
    out of the sum for precision, giving log1p(s / t) + log(t) + max
    with s the sum of exp(a - max) over the row's other entries.  A row
    whose result is not finite falls back to log(sum(exp(row)))."""
    rows = a.reshape(-1, a.shape[-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = rows.max(axis=1, keepdims=True)
        ties = rows == a_max
        rest = np.exp(rows - a_max)
        rest[ties] = 0.0
        t = ties.sum(axis=1, dtype=np.float64)
        s = rest.sum(axis=1)
        out = np.log1p(np.where(s != 0, s / t, s)) + np.log(t) + a_max[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(rows[bad]).sum(axis=1))
    return out.reshape(a.shape[:-1])[()]


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
    if table is None:
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
            # resamples are taken _BOOT_TERMS terms at a time; one draw
            # of a block's picks reads the generator's words in the order
            # one draw per resample does, so the picks do not change
            bs = np.empty(bootstrap)
            block = max(1, _BOOT_TERMS // m)
            for i in range(0, bootstrap, block):
                picks = boot_rng.integers(0, m, size=(min(block, bootstrap - i), m))
                bs[i:i + len(picks)] = _logsumexp(w[picks]) - math.log(m)
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
    grid = distinct(np.geomspace(16, grid_top, grid_points).astype(np.int64))
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


class ConstantsReport:
    """All the closed-form constants the tail laws are built from.

    kappa4 carries both candidate normalizations (the factor-2 question
    is genuinely open here; both are propagated).  L and C stay
    symbolic: C is a Brownian intersection-functional limit that this
    package does not compute."""

    def __init__(self, dist_name: str, det_gamma: float,
                 upper_lil_constant: float, kappa4_candidates: dict,
                 kappa4_uncertainty: float,
                 L_symbolic: str = "exp(-1 - C)",
                 C_symbolic: str = "not computed (Brownian intersection-measure limit)"):
        assert det_gamma > 0
        assert all(v > 0 for v in kappa4_candidates.values())
        self.dist_name = dist_name
        self.det_gamma = det_gamma
        self.upper_lil_constant = upper_lil_constant
        self.kappa4_candidates = kappa4_candidates
        self.kappa4_uncertainty = kappa4_uncertainty
        self.L_symbolic = L_symbolic
        self.C_symbolic = C_symbolic
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
        kappa4_candidates=kappa4_normalizations(m_hat),
        kappa4_uncertainty=m_hat_uncertainty,
    )
