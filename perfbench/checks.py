"""Output checks made apart from rangelab.

Each check compares a run directory against a closed form, an
independent recount or a property the method must have; none compares
against a stored copy of earlier output.  The closed forms are for the
simple random walk (`srw`), the only walk the workloads use:

  u_{2m} = (C(2m, m) / 4^m)^2,  u_odd = 0          return probabilities
  sum_{k=0}^{m} u_k f_{m-k} = 1                     renewal: f = P(no return by m)
  E R_n = sum_{k=0}^{n-1} f_k                       expected range of S_1..S_n

Walks are regenerated from `rangelab.walks.stream` alone: for `srw` every
alias accept weight is 1, so step i is support[floor(4 U_i)], and the
range is recounted with a Python set.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# The srw support as rangelab orders every support: lexicographically.
SRW_STEPS = np.array(sorted([(1, 0), (-1, 0), (0, 1), (0, -1)]), dtype=np.int64)


class CheckFailure(Exception):
    pass


# ---------------------------------------------------------------------------
# closed forms and recounts


def srw_return_probs(n: int) -> np.ndarray:
    """u_k for k = 0..n from the central binomial closed form."""
    u = np.zeros(n + 1)
    u[0] = 1.0
    m = np.arange(1, n // 2 + 1, dtype=np.float64)
    u[2::2] = np.cumprod((2 * m - 1) / (2 * m)) ** 2
    return u


def srw_expected_ranges(n: int) -> np.ndarray:
    """E R_k for k = 0..n through the renewal recursion."""
    u = srw_return_probs(n)
    f = np.empty(n + 1)
    f[0] = 1.0
    for m in range(1, n + 1):
        f[m] = 1.0 - float(np.dot(u[1:m + 1], f[m - 1::-1]))
    return np.concatenate(([0.0], np.cumsum(f)[:-1]))


def regenerated_positions(master_seed: int, replica: int, n: int) -> np.ndarray:
    """Positions S_1..S_n of one srw replica, from its step stream."""
    from rangelab.walks import PURPOSE_STEPS, stream

    rng = stream(master_seed, replica, PURPOSE_STEPS)
    idx = (rng.random(n) * len(SRW_STEPS)).astype(np.int64)
    return np.cumsum(SRW_STEPS[idx], axis=0)


def set_prefix_ranges(positions: np.ndarray, checkpoints) -> list:
    """Distinct sites among S_1..S_m for each checkpoint m, by a set."""
    seen = set()
    out = []
    want = sorted(checkpoints)
    xs = positions[:, 0].tolist()
    ys = positions[:, 1].tolist()
    i = 0
    for m in want:
        while i < m:
            seen.add((xs[i], ys[i]))
            i += 1
        out.append(len(seen))
    return out


# ---------------------------------------------------------------------------
# single checks; each raises CheckFailure with the offending values


def check_mean_within_se(values, er: float, z: float = 4.0) -> None:
    v = np.asarray(values, dtype=np.float64)
    if v.size < 2:
        raise CheckFailure(f"need at least 2 values, got {v.size}")
    se = float(v.std(ddof=1)) / math.sqrt(v.size)
    gap = abs(float(v.mean()) - er)
    if not gap <= z * se:
        raise CheckFailure(f"mean {v.mean()!r} is {gap / se:.2f} SE from "
                           f"E R = {er!r} (limit {z})")


def check_close(label: str, got, want, tol: float) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        raise CheckFailure(f"{label}: shape {got.shape} != {want.shape}")
    gap = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not gap <= tol:
        raise CheckFailure(f"{label}: max gap {gap!r} > {tol!r}")


def check_equal(label: str, got, want) -> None:
    if list(got) != list(want):
        raise CheckFailure(f"{label}: {list(got)} != {list(want)}")


def check_nonincreasing(values, tol: float = 1e-12) -> None:
    d = np.diff(np.asarray(values, dtype=np.float64))
    if d.size and not float(d.max()) <= tol:
        k = int(np.argmax(d))
        raise CheckFailure(f"rises by {d[k]!r} at index {k + 1}")


def check_increments_in_unit_interval(values, tol: float = 1e-12) -> None:
    d = np.diff(np.asarray(values, dtype=np.float64))
    if d.size and not (float(d.min()) > 0.0 and float(d.max()) <= 1.0 + tol):
        raise CheckFailure(f"increments span [{d.min()!r}, {d.max()!r}], "
                           f"outside (0, 1]")


def check_prefix_ranges(checkpoints, ranges) -> None:
    """Ranges along a path never fall, start >= 1 and never exceed m."""
    if len(checkpoints) != len(ranges) or not ranges:
        raise CheckFailure("checkpoints and ranges differ in length")
    prev = 0
    for m, r in zip(checkpoints, ranges):
        if not (1 <= r <= m and r >= prev):
            raise CheckFailure(f"range {r} at m = {m} after {prev}")
        prev = r


def check_identity_records(records, checks) -> None:
    """Every record carries each requested identity and none is violated."""
    keys = {"dyadic": ("dyadic_lhs", "dyadic_rhs", "dyadic_exact"),
            "binary": ("binary_lhs", "binary_rhs", "binary_exact")}
    for rec in records:
        for c in checks:
            if c == "q-kernel":
                if rec.get("q_ok") is not True:
                    raise CheckFailure(f"q-kernel fails on replica {rec['replica']}")
                continue
            lhs, rhs, flag = keys[c]
            if rec.get(flag) is not True or rec[lhs] != rec[rhs]:
                raise CheckFailure(f"{c}: {rec.get(lhs)} != {rec.get(rhs)} "
                                   f"on replica {rec['replica']}")


def check_summary_zero_violations(rows, checks, paths: int) -> None:
    got = {r["check"]: r for r in rows}
    if sorted(got) != sorted(checks):
        raise CheckFailure(f"summary lists {sorted(got)}, want {sorted(checks)}")
    for c, r in got.items():
        if int(r["violations"]) != 0 or int(r["paths"]) != paths:
            raise CheckFailure(f"{c}: {r['violations']} violations over "
                               f"{r['paths']} paths (want 0 over {paths})")


# ---------------------------------------------------------------------------
# run-directory readers


def read_shards(out: Path, cfg: dict) -> list:
    """Records of every shard, after checking each header's config hash
    and that the replica ranges tile 0..replicas exactly."""
    config_hash = json.loads((out / "config.json").read_text())["config_hash"]
    records = []
    expect_start = 0
    for path in sorted(out.glob("shard_*.jsonl")):
        with open(path) as fh:
            header = json.loads(fh.readline())
            if header["config_hash"] != config_hash:
                raise CheckFailure(f"{path.name} belongs to another config")
            if header["replica_start"] != expect_start:
                raise CheckFailure(f"{path.name} starts at "
                                   f"{header['replica_start']}, want {expect_start}")
            expect_start = header["replica_stop"]
            records.extend(json.loads(line) for line in fh)
    if expect_start != cfg["replicas"]:
        raise CheckFailure(f"shards cover {expect_start} of {cfg['replicas']} replicas")
    return records


def read_csv(path: Path) -> list:
    """Rows of a rangelab CSV, skipping its leading `# config_hash` line."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise CheckFailure(f"{path.name} lacks its config-hash comment")
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# per-workload check lists: [(name, thunk)], in a fixed order


def _deviations(out: Path, cfg: dict, spot: list) -> list:
    ladder = cfg["params"]["n_ladder"]
    cache = {}

    def values():
        if "values" not in cache:
            per_n = {n: np.full(cfg["replicas"], -1, dtype=np.int64) for n in ladder}
            for rec in read_shards(out, cfg):
                per_n[rec["n"]][rec["replica"]] = rec["range"]
            cache["values"] = per_n
        return cache["values"]

    def er():
        if "er" not in cache:
            cache["er"] = srw_expected_ranges(max(ladder))
        return cache["er"]

    def complete():
        for n, v in values().items():
            if (v < 0).any():
                raise CheckFailure(f"n = {n}: {(v < 0).sum()} replicas missing")

    def mean_within_4se():
        for n in ladder:
            check_mean_within_se(values()[n], float(er()[n]))

    def report_moments():
        rows = {int(r["n"]): r for r in read_csv(out / "moments.csv")}
        check_equal("moments.csv n", sorted(rows), sorted(ladder))
        check_close("moments.csv er_exact vs renewal E R_n",
                    [float(rows[n]["er_exact"]) for n in ladder],
                    [er()[n] for n in ladder], 1e-8)
        check_close("moments.csv mean vs shard records",
                    [float(rows[n]["mean"]) for n in ladder],
                    [values()[n].mean() for n in ladder], 1e-9)

    def spot_recount():
        for j in spot:
            for n in ladder:
                pos = regenerated_positions(cfg["master_seed"], j, n)
                check_equal(f"replica {j} n = {n} range",
                            [int(values()[n][j])], set_prefix_ranges(pos, [n]))

    return [("records_complete", complete), ("mean_within_4se", mean_within_4se),
            ("report_moments", report_moments), ("spot_set_recount", spot_recount)]


def _identities(out: Path, cfg: dict, spot: list) -> list:
    p = cfg["params"]
    cache = {}

    def records():
        if "records" not in cache:
            cache["records"] = {r["replica"]: r for r in read_shards(out, cfg)}
        return cache["records"]

    def zero_violations():
        check_identity_records(records().values(), p["checks"])

    def summary():
        check_summary_zero_violations(read_csv(out / "summary.csv"),
                                      p["checks"], cfg["replicas"])

    def spot_lhs():
        for j in spot:
            rec = records()[j]
            pos = regenerated_positions(cfg["master_seed"], j, p["n"])
            want = set_prefix_ranges(pos, [p["n"]])[0]
            check_equal(f"replica {j} dyadic/binary lhs vs set count",
                        [rec["dyadic_lhs"], rec["binary_lhs"]], [want, want])

    return [("zero_violations", zero_violations), ("summary_zero_violations", summary),
            ("spot_lhs_equal_set_count", spot_lhs)]


def _exact(out: Path, cfg: dict, spot: list) -> list:
    p = cfg["params"]
    cache = {}

    def table():
        if "table" not in cache:
            rows = read_csv(out / "table.csv")
            cols = {c: np.array([float(r[c]) for r in rows]) for c in ("k", "u", "f", "er")}
            cols["er_enum"] = np.array([float(r["er_enum"]) for r in rows
                                        if r.get("er_enum")])
            check_equal("table.csv k", [cols["k"][0], cols["k"][-1], cols["k"].size],
                        [0, p["n"], p["n"] + 1])
            cache["table"] = cols
        return cache["table"]

    def u_closed_form():
        check_close("u vs (C(2m,m)/4^m)^2", table()["u"], srw_return_probs(p["n"]), 1e-12)

    def er3():
        check_close("E R_3", table()["er"][3], 11.0 / 4.0, 1e-12)

    def f_nonincreasing():
        check_nonincreasing(table()["f"])

    def er_increments():
        check_increments_in_unit_interval(table()["er"])

    def enum_vs_renewal():
        enum = table()["er_enum"]
        check_equal("enumerated horizons", [enum.size], [p["enumerate_n"] + 1])
        check_close("er_enum vs renewal E R_k", enum,
                    srw_expected_ranges(enum.size - 1), 1e-12)

    return [("u_closed_form", u_closed_form), ("er3_is_11_over_4", er3),
            ("f_nonincreasing", f_nonincreasing),
            ("er_increments_in_0_1", er_increments),
            ("er_enum_matches_renewal", enum_vs_renewal)]


def _lil(out: Path, cfg: dict, spot: list) -> list:
    n_max = cfg["params"]["n_max"]
    cache = {}

    def records():
        if "records" not in cache:
            cache["records"] = {r["replica"]: r for r in read_shards(out, cfg)}
        return cache["records"]

    def prefix_ranges():
        for rec in records().values():
            check_prefix_ranges(rec["checkpoints"], rec["ranges"])
            if rec["checkpoints"][-1] != n_max:
                raise CheckFailure(f"last checkpoint {rec['checkpoints'][-1]} != {n_max}")

    def spot_recount():
        for j in spot:
            rec = records()[j]
            pos = regenerated_positions(cfg["master_seed"], j, n_max)
            check_equal(f"replica {j} prefix ranges", rec["ranges"],
                        set_prefix_ranges(pos, rec["checkpoints"]))

    def upper_constant():
        refs = {r["name"]: float(r["value"]) for r in read_csv(out / "references.csv")}
        check_close("upper_lil_constant vs 2 pi sqrt(det Gamma) = pi",
                    refs["upper_lil_constant"], math.pi, 1e-12)

    def trajectories():
        names = sorted(p.name for p in (out / "trajectories").glob("replica_*.csv"))
        check_equal("trajectory files", names,
                    [f"replica_{j:05d}.csv" for j in range(cfg["replicas"])])

    return [("ranges_monotone_and_at_most_m", prefix_ranges),
            ("spot_set_recount", spot_recount),
            ("upper_lil_constant_is_pi", upper_constant),
            ("trajectory_files", trajectories)]


_CHECKS = {"deviations": _deviations, "identities": _identities,
           "exact": _exact, "lil": _lil}


def check_names(cfg: dict) -> list:
    return [name for name, _ in _CHECKS[cfg["kind"]](Path("."), cfg, [])]


def run_checks(out: Path, cfg: dict, spot: list) -> list:
    """[{"name", "ok", "detail"}] for every check of the config's kind."""
    results = []
    for name, thunk in _CHECKS[cfg["kind"]](Path(out), cfg, spot):
        try:
            thunk()
        except CheckFailure as exc:
            results.append({"name": name, "ok": False, "detail": str(exc)})
        except Exception as exc:  # a check that cannot run counts as failed
            results.append({"name": name, "ok": False,
                            "detail": f"{type(exc).__name__}: {exc}"})
        else:
            results.append({"name": name, "ok": True, "detail": ""})
    return results
