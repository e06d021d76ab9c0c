"""Config-driven experiment runs with deterministic sharded output.

A run takes an ExperimentConfig (kind + distribution + seed + replicas +
kind-specific params), splits the replica range into fixed-size shards,
and writes one self-describing JSONL file per shard.  Every byte of
shard and summary output is a pure function of the config hash, so a
rerun at any worker count reproduces the files exactly; manifest.json
is the single place wall-clock timestamps live.

The report step is a separate single-threaded pass: it never simulates,
only aggregates shard records (rebuilding exact tables where rates or
centerings call for them) into summary.csv / plot.csv artifacts.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .deviations import (
    DeviationProbe,
    RangeSample,
    constants_report,
    lil_checkpoints,
    lil_rows,
    sample_range_ladder,
    tail_rows_from_values,
)
from .errors import IdentityCheckFailure, InvalidConfig
from .exact import (
    build_return_table,
    check_enumeration,
    check_table_size,
    enumeration_oracle,
    expected_range_asymptotic,
)
from ._fastpath import pack_positions, replica_blocks
from .rangestats import batch_decompositions
from .smoothing import (
    check_q_kernel,
    check_stamp_window,
    pair_functionals,
    q_identity_check,
    q_kernel,
)
from .variational import gaussian_half_quotient, gn_audit, kappa22_solve
from .walks import (
    StepDistribution,
    check_walk_length,
    distribution_from_config,
    sample_paths,
    sample_poissonized,
    validate_distribution,
)

__all__ = [
    "SHARD_SIZE",
    "KINDS",
    "ExperimentConfig",
    "load_config",
    "default_out_root",
    "run_experiment",
    "run_report",
]

# Shards are replica ranges of fixed width, so the shard layout (and with
# it every output byte) is independent of how many workers execute them.
SHARD_SIZE = 2048
_CSV_BLOCK_ROWS = 8192  # CSV rows formatted and held at a time

OUT_ROOT_ENV = "RANGELAB_OUT_ROOT"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidConfig(msg)


_INT64_MAX = 2**63 - 1
_MAX_LEVEL = 1023  # smoothed's horizon is t / 2^level, a float


def _as_int(value, name: str, minimum: int | None = None,
            maximum: int = _INT64_MAX) -> int:
    """value, when it is an integer in [minimum, maximum].  Every count
    and size ends up in an int64 array or in float arithmetic, so none
    may pass int64 by default."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidConfig(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {value}")
    if value > maximum:
        raise InvalidConfig(f"{name} must be <= {maximum}, got {value}")
    return value


def _as_float(value, name: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidConfig(f"{name} must be a number, got {value!r}")
    try:
        v = float(value)
    except OverflowError:  # an integer past the float range
        v = math.inf
    if not math.isfinite(v):
        raise InvalidConfig(f"{name} must be finite, got {v}")
    if minimum is not None and v < minimum:
        raise InvalidConfig(f"{name} must be >= {minimum}, got {v}")
    return v


def _as_list(value, name: str) -> list:
    _require(isinstance(value, (list, tuple)) and len(value) > 0,
             f"{name} must be a nonempty list")
    return list(value)


def _exact_params(take) -> dict:
    out = {"n": _as_int(take("n", required=True), "params.n", 1),
           "enumerate": bool(take("enumerate", False))}
    enum_n = take("enumerate_n", None)
    if enum_n is not None:
        enum_n = _as_int(enum_n, "params.enumerate_n", 0)
    out["enumerate_n"] = enum_n
    return out


def _scale_params(take) -> dict:
    """t, eps and b_t, shared by identities and smoothed: the horizon t,
    the smoothing scale t / b_t and the stamp radius eps sqrt(t / b_t)."""
    t = _as_float(take("t", 256.0), "params.t", 1.0)
    eps = _as_float(take("eps", 0.5), "params.eps")
    _require(0.0 < eps <= 1.0, "params.eps must lie in (0, 1]")
    return {"t": t, "eps": eps,
            "b_t": _as_float(take("b_t", 4.0), "params.b_t", 1.0)}


# identity check -> the prefix of its record keys, and the flag that says
# it held
_IDENTITY_KEYS = {
    "binary": ("binary", "binary_exact"),
    "dyadic": ("dyadic", "dyadic_exact"),
    "q-kernel": ("q", "q_ok"),
}


def _identity_record_keys(params: dict) -> list:
    """The keys of an identities record that its report reads."""
    keys = []
    for c in params["checks"]:
        prefix, flag = _IDENTITY_KEYS[c]
        keys += [f"{prefix}_lhs", f"{prefix}_rhs", flag]
    return keys


def _identities_params(take) -> dict:
    out = {"n": _as_int(take("n", 1024), "params.n", 2), **_scale_params(take)}
    checks = _as_list(take("checks", list(_IDENTITY_KEYS)), "params.checks")
    for c in checks:
        _require(isinstance(c, str) and c in _IDENTITY_KEYS,
                 f"unknown identity check {c!r}")
    out["checks"] = sorted(set(checks))
    if "dyadic" in out["checks"]:
        _require(out["n"] & (out["n"] - 1) == 0,
                 "dyadic decomposition needs a power-of-two n")
    if "q-kernel" in out["checks"]:
        _require(out["n"] >= out["t"],
                 "q-kernel check needs n >= t so the horizon is covered")
    out["q_tol"] = _as_float(take("q_tol", 1e-10), "params.q_tol", 0.0)
    return out


def _smoothed_params(take) -> dict:
    return {**_scale_params(take),
            "level": _as_int(take("level", 1), "params.level", 0, _MAX_LEVEL),
            "parseval": bool(take("parseval", True)),
            "max_fft": _as_int(take("max_fft", 4096), "params.max_fft", 16)}


def _deviations_params(take) -> dict:
    side = take("side", required=True)
    n_ladder = _as_list(take("n_ladder", required=True), "params.n_ladder")
    b_schedule = _as_list(take("b_schedule", required=True), "params.b_schedule")
    thresholds = _as_list(take("thresholds", required=True), "params.thresholds")
    return {"side": side,
            "n_ladder": [_as_int(n, "params.n_ladder[]", 2) for n in n_ladder],
            "b_schedule": [_as_float(b, "params.b_schedule[]") for b in b_schedule],
            "thresholds": [_as_float(x, "params.thresholds[]") for x in thresholds]}


def _lil_params(take) -> dict:
    n_max = _as_int(take("n_max", required=True), "params.n_max", 4)
    checkpoints = take("checkpoints", None)
    if checkpoints is not None:
        checkpoints = sorted({_as_int(c, "params.checkpoints[]", 2)
                              for c in _as_list(checkpoints, "params.checkpoints")})
        _require(checkpoints[-1] <= n_max, "checkpoints must not exceed n_max")
    return {"n_max": n_max, "checkpoints": checkpoints}


def _kappa_params(take) -> dict:
    nodes = [_as_int(v, "params.nodes[]", 256)
             for v in _as_list(take("nodes", [256, 512, 1024]), "params.nodes")]
    _require(all(v % 2 == 0 for v in nodes), "params.nodes must be even")
    return {"nodes": nodes,
            "r_max": _as_float(take("r_max", 16.0), "params.r_max", 10.0),
            "audit_num": _as_int(take("audit_num", 100), "params.audit_num", 0),
            "audit_margin": _as_float(take("audit_margin", 1e-6),
                                      "params.audit_margin", 0.0)}


def _canonical_params(kind: str, params) -> dict:
    """Fill kind-specific defaults and reject unknown or malformed keys.

    The returned dict is what gets hashed, so defaults participate in
    the config identity."""
    params = dict(params or {})

    def take(name, default=None, required=False):
        if name in params:
            return params.pop(name)
        if required:
            raise InvalidConfig(f"{kind} config needs params.{name}")
        return default

    out = _kind(kind).canonical_params(take)
    if params:
        raise InvalidConfig(
            f"unknown params for kind {kind!r}: {', '.join(sorted(params))}")
    return out


class Kind:
    """What the engine knows of one experiment kind.

    A sharded kind makes the records of a replica range (records); a
    whole-run kind has records None and one replica, and writes its
    files in one call (write).  report writes the summaries of a run
    directory from its files and its shards' records.  canonical_params
    fills and checks the config's params, check validates the rest of a
    canonical config, table_n is the longest return table that run or
    report builds (0 for none), and a record whose violation_keys flag
    is false is an identity violation.  Per replica a sharded kind writes
    one record per line_plan entry, in order, holding its fixed values
    and every key of record_keys, the keys its report reads."""

    def __init__(self, schema: str, canonical_params: Callable,
                 report: Callable, records: Callable | None = None,
                 write: Callable | None = None,
                 check: Callable = lambda cfg, dist: None,
                 table_n: Callable = lambda params: 0,
                 violation_keys: tuple = (),
                 line_plan: Callable = lambda params: [{}],
                 record_keys: Callable = lambda params: ()):
        self.schema = schema
        self.canonical_params = canonical_params
        self.report = report
        self.records = records
        self.write = write
        self.check = check
        self.table_n = table_n
        self.violation_keys = violation_keys
        self.line_plan = line_plan
        self.record_keys = record_keys


def _kind(name) -> Kind:
    kind = _REGISTRY.get(name) if isinstance(name, str) else None
    if kind is None:
        raise InvalidConfig(f"config.kind must be one of {', '.join(KINDS)}, "
                            f"got {name!r}")
    return kind


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: what to simulate, from which seed, how many times.

    Every field is hashed.  Where a run goes and how many processes run
    it are arguments of run_experiment, so no output byte depends on
    them."""

    kind: str
    distribution: object
    master_seed: int
    replicas: int
    params: dict

    def __post_init__(self):
        _kind(self.kind)
        _require(self.replicas >= 1, "replicas must be >= 1")
        _require(0 <= self.master_seed < 2**64, "master_seed must fit in 64 bits")

    def dist(self) -> StepDistribution:
        return distribution_from_config(self.distribution)

    def canonical(self) -> dict:
        return {
            "kind": self.kind,
            "distribution": self.dist().canonical_id(),
            "master_seed": self.master_seed,
            "replicas": self.replicas,
            "params": self.params,
        }

    @functools.cached_property
    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()

    def to_dict(self) -> dict:
        d = self.canonical()
        d["distribution"] = self.distribution
        d["config_hash"] = self.config_hash
        return d

    @classmethod
    def from_dict(cls, raw: dict, seed_override: int | None = None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise InvalidConfig("config must be a JSON object")
        allowed = {"kind", "distribution", "master_seed", "replicas", "params",
                   "config_hash"}
        unknown = set(raw) - allowed
        if unknown:
            raise InvalidConfig(f"unknown config keys: {', '.join(sorted(unknown))}")
        kind = _kind(raw.get("kind"))
        if "distribution" not in raw:
            raise InvalidConfig("config needs a distribution")
        seed = raw.get("master_seed", 0)
        if seed_override is not None:
            seed = seed_override
        seed = _as_int(seed, "master_seed", 0, 2**64 - 1)
        replicas = _as_int(raw.get("replicas", 1), "replicas", 1)
        if kind.records is None and replicas != 1:
            raise InvalidConfig(f"kind {raw['kind']!r} is deterministic; "
                                f"replicas must be 1")
        params = _canonical_params(raw["kind"], raw.get("params"))

        dist = distribution_from_config(raw["distribution"])
        validate_distribution(dist)
        cfg = cls(kind=raw["kind"], distribution=raw["distribution"],
                  master_seed=seed, replicas=replicas, params=params)
        # refuse now what run or report would refuse later
        check_table_size(dist, kind.table_n(params))
        kind.check(cfg, dist)
        return cfg


def load_config(path, seed_override: int | None = None) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise InvalidConfig(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except ValueError as exc:  # not UTF-8, not JSON, or an integer too long to parse
        raise InvalidConfig(f"config {p} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(raw, seed_override=seed_override)


def default_out_root() -> Path:
    root = os.environ.get(OUT_ROOT_ENV)
    return Path(root) if root else Path.cwd() / "runs"


def run_dir_for(cfg: ExperimentConfig, out=None) -> Path:
    """out when given, else the config's directory under the out root."""
    if out:
        return Path(out)
    return default_out_root() / f"{cfg.kind}-{cfg.config_hash[:12]}"


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(obj) -> str:
    return _ENCODER.encode(obj)


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def plan_shards(cfg: ExperimentConfig) -> list:
    """Replica ranges [(start, stop), ...); fixed width SHARD_SIZE, and
    none for a whole-run kind."""
    if _kind(cfg.kind).records is None:
        return []
    return [(start, min(start + SHARD_SIZE, cfg.replicas))
            for start in range(0, cfg.replicas, SHARD_SIZE)]


def _shard_path(out_dir: Path, index: int) -> Path:
    return out_dir / f"shard_{index:05d}.jsonl"


def _shard_header(cfg: ExperimentConfig, index: int, start: int, stop: int) -> dict:
    return {
        "config_hash": cfg.config_hash,
        "schema": _kind(cfg.kind).schema,
        "shard": index,
        "replica_start": start,
        "replica_stop": stop,
    }


def _read_shard(cfg: ExperimentConfig, run_dir: Path, index: int, start: int,
                stop: int):
    """The records of planned shard index, replicas [start, stop), as an
    iterator in plan order; None when the shard is missing: no file,
    another header, fewer lines than planned, or cut inside a line.

    The file is read once, here.  Iterating raises InvalidConfig naming
    the file and the line at a line that is not a JSON object, lies past
    the plan, lacks a key the report reads, or holds another replica or
    fixed value than its plan line (the kind's line_plan).  Shards are
    written atomically, so only a later cut or edit breaks one."""
    path = _shard_path(run_dir, index)
    try:
        data = path.read_bytes()
        if json.loads(data[:data.index(b"\n")]) != _shard_header(cfg, index, start, stop):
            return None
    except (OSError, ValueError):  # no file or newline; header not UTF-8 JSON
        return None
    kind = _kind(cfg.kind)
    plan = kind.line_plan(cfg.params)
    m = len(plan)
    planned = (stop - start) * m
    if not data.endswith(b"\n") or data.count(b"\n") - 1 < planned:
        return None
    keys = frozenset(["replica", *plan[0], *kind.record_keys(cfg.params)])

    def records():
        for k, line in enumerate(data.split(b"\n")[1:-1]):
            try:
                rec = json.loads(line)
            except ValueError:  # not UTF-8, or not JSON
                rec = None
            if not isinstance(rec, dict):
                raise InvalidConfig(f"{path} line {k + 2} is not a JSON object record")
            if k >= planned:
                raise InvalidConfig(f"{path} line {k + 2} is past the "
                                    f"{planned} records the shard plans")
            if not keys <= rec.keys():
                raise InvalidConfig(f"{path} line {k + 2} lacks "
                                    f"{', '.join(sorted(keys - rec.keys()))}")
            if rec["replica"] != start + k // m or not plan[k % m].items() <= rec.items():
                want = {"replica": start + k // m, **plan[k % m]}
                raise InvalidConfig(f"{path} line {k + 2} holds another "
                                    f"{', '.join(x for x in want if rec[x] != want[x])} "
                                    f"than the shard plans there")
            yield rec
    return records()


def _reads_whole(records) -> bool:
    """Whether records, as _read_shard gives them, are there and read to
    their end without a fault: what --resume keeps."""
    try:
        return records is not None and all(True for _ in records)
    except InvalidConfig:
        return False


def _read_shards(cfg: ExperimentConfig, run_dir: Path) -> dict:
    """Planned shard index -> its records, for each planned shard that
    _read_shard does not find missing."""
    shards = {i: _read_shard(cfg, run_dir, i, start, stop)
              for i, (start, stop) in enumerate(plan_shards(cfg))}
    return {i: records for i, records in shards.items() if records is not None}


def _q_fields(out: dict) -> dict:
    return {"q_lhs": out["lhs"], "q_rhs": out["rhs"], "q_residual": out["residual"]}


def _split_fields(dist: StepDistribution, n: int, seed: int, js: range,
                  splits: list) -> list:
    """The decomposition fields of records js, from one sampler call for
    their walks j and one batched decomposition."""
    keys = pack_positions(sample_paths(dist, n, seed, js))
    fields = [{} for _ in js]
    for check, d in batch_decompositions(keys, splits).items():
        for f, lhs, rhs in zip(fields, d.lhs.tolist(), d.rhs.tolist()):
            f.update({f"{check}_lhs": lhs, f"{check}_rhs": rhs,
                      f"{check}_exact": lhs == rhs})
    return fields


def _q_pair_fields(dist: StepDistribution, n: int, seed: int, js: range,
                   q, tol: float) -> list:
    """The q-kernel fields of records js, from one sampler call for their
    pairs of fresh walks, replicas 2j and 2j + 1.  The check reads the
    first q.t steps, so the walks stop there: a walk's prefix is the
    shorter walk."""
    pairs = sample_paths(dist, min(n, int(q.t)), seed,
                         [r for j in js for r in (2 * j, 2 * j + 1)])
    fields = []
    for a, b in zip(pairs[0::2], pairs[1::2]):
        f = _q_fields(q_identity_check(a, b, q))
        f["q_ok"] = f["q_residual"] <= tol
        fields.append(f)
    return fields


def _identity_records(cfg: ExperimentConfig, dist: StepDistribution,
                      start: int, stop: int) -> list:
    """Records taken in the blocks of replica_blocks; a block's arrays
    are freed before the next is sampled, which bounds peak memory."""
    p = cfg.params
    n, seed = p["n"], cfg.master_seed
    q = q_kernel(p["t"], p["b_t"], p["eps"]) if "q-kernel" in p["checks"] else None
    splits = [c for c in p["checks"] if c != "q-kernel"]
    records = []
    for js in replica_blocks(start, stop, n):
        recs = [{"replica": j} for j in js]
        if splits:
            for rec, f in zip(recs, _split_fields(dist, n, seed, js, splits)):
                rec.update(f)
        if q is not None:
            for rec, f in zip(recs, _q_pair_fields(dist, n, seed, js, q, p["q_tol"])):
                rec.update(f)
        records.extend(recs)
    return records


def _smoothed_records(cfg: ExperimentConfig, dist: StepDistribution,
                      start: int, stop: int) -> list:
    p = cfg.params
    t, level = p["t"], p["level"]
    q = q_kernel(t, p["b_t"], p["eps"])
    max_fft = p["max_fft"] if p["parseval"] else None
    records = []
    for j in range(start, stop):
        pa = sample_poissonized(dist, t, cfg.master_seed, replica=2 * j)
        pb = sample_poissonized(dist, t, cfg.master_seed, replica=2 * j + 1)
        stats = pair_functionals(pa, pb, q, level=level, max_fft=max_fft)
        rec = {
            "replica": j,
            "a_value": stats["a"],
            "b_value": stats["b"],
            "b_level": level,
            **_q_fields(stats["q"]),
        }
        pv = stats["parseval"]
        if pv is not None:
            rec["parseval_lhs"] = pv["lhs"]
            rec["parseval_rhs"] = pv["rhs"]
            rec["parseval_residual"] = pv["residual"]
            rec["parseval_fft"] = pv["fft_size"]
        records.append(rec)
    return records


def _deviation_records(cfg: ExperimentConfig, dist: StepDistribution,
                       start: int, stop: int) -> list:
    ladder = cfg.params["n_ladder"]
    ranges = sample_range_ladder(dist, ladder, stop - start, cfg.master_seed,
                                 first_replica=start).tolist()
    return [{"replica": start + i, "n": n, "range": r}
            for i, row in enumerate(ranges) for n, r in zip(ladder, row)]


def _lil_records(cfg: ExperimentConfig, dist: StepDistribution,
                 start: int, stop: int) -> list:
    checkpoints = lil_checkpoints(cfg.params["n_max"], cfg.params["checkpoints"])
    ranges = sample_range_ladder(dist, checkpoints, stop - start, cfg.master_seed,
                                 first_replica=start).tolist()
    return [{"replica": start + i, "checkpoints": checkpoints, "ranges": row}
            for i, row in enumerate(ranges)]


def _run_shard(task) -> str:
    """Compute and atomically write one shard.  Top-level so process
    pools can pickle it; everything it needs rides in the task tuple,
    the parsed config with its cached hash included."""
    cfg, out, index, start, stop = task
    path = _shard_path(out, index)
    header = _shard_header(cfg, index, start, stop)
    records = _kind(cfg.kind).records(cfg, cfg.dist(), start, stop)
    lines = [_dumps(header)]
    lines.extend(_dumps(rec) for rec in records)
    _atomic_write(path, "\n".join(lines) + "\n")
    return path.name


def _write_columns(path: Path, config_hash: str, schema: str,
                   columns: dict) -> None:
    """CSV with a leading config-hash comment, from columns keyed by header
    name: lists of formatted cells, or float64 arrays whose distinct
    values (by bit pattern, which keeps -0.0 apart from 0.0) are repr'd
    once per block.  Columns shorter than the first are blank past their
    end.  Rows go _CSV_BLOCK_ROWS at a time into a .tmp file that then
    replaces path."""
    rows = len(next(iter(columns.values())))
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w") as fh:
        fh.write(f"# config_hash={config_hash} schema={schema}\n"
                 + ",".join(columns) + "\n")
        for lo in range(0, rows, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, rows)
            cells = []
            for block in (col[lo:hi] for col in columns.values()):
                if isinstance(block, np.ndarray):
                    bits, inverse = np.unique(block.view(np.int64),
                                              return_inverse=True)
                    text = list(map(repr, bits.view(np.float64).tolist()))
                    block = list(map(text.__getitem__, inverse.tolist()))
                cells.append(block + [""] * (hi - lo - len(block)))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
    os.replace(tmp, path)


def _write_csv(path: Path, config_hash: str, schema: str, columns: list,
               rows: list) -> None:
    """CSV of row dicts; floats via repr so the bytes are reproducible
    and round-trip exactly."""

    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        return str(v)

    _write_columns(path, config_hash, schema,
                   {c: [cell(row[c]) for row in rows] for c in columns})


def _enumerate_n(params: dict) -> int | None:
    """The enumeration depth of an exact config, None without one."""
    if not params["enumerate"]:
        return None
    return params["enumerate_n"] or min(params["n"], 9)


def _check_identities(cfg: ExperimentConfig, dist: StepDistribution) -> None:
    p = cfg.params
    check_walk_length(dist, p["n"])
    if "q-kernel" in p["checks"]:
        check_q_kernel(p["t"], p["eps"], p["b_t"])


def _check_smoothed(cfg: ExperimentConfig, dist: StepDistribution) -> None:
    p = cfg.params
    check_stamp_window(dist, p["t"], p["eps"], p["b_t"])
    check_q_kernel(p["t"], p["eps"], p["b_t"])


def _check_enumeration(cfg: ExperimentConfig, dist: StepDistribution) -> None:
    n_enum = _enumerate_n(cfg.params)
    if n_enum is not None:
        check_enumeration(dist, n_enum)


def _run_exact(cfg: ExperimentConfig, out: Path) -> list:
    dist = cfg.dist()
    n = cfg.params["n"]
    table = build_return_table(dist, n)
    n_enum = _enumerate_n(cfg.params)
    enum_er = None if n_enum is None else enumeration_oracle(dist, n_enum)["er"]
    columns = {"k": list(map(str, range(n + 1)))}
    for name in ("u", "h", "r", "f", "er"):
        columns[name] = getattr(table, name)
    if enum_er is not None:
        columns["er_enum"] = enum_er[:n + 1]
    _write_columns(out / "table.csv", cfg.config_hash, _kind(cfg.kind).schema,
                   columns)
    results = {
        "config_hash": cfg.config_hash,
        "dist": dist.name,
        "n": n,
        "identity_residuals": table.identity_residuals(),
    }
    if n >= 4:
        results["asymptotics"] = expected_range_asymptotic(dist, n, table=table)
    if enum_er is not None:
        gaps = [abs(float(table.er[k]) - float(enum_er[k]))
                for k in range(len(enum_er))]
        results["enumeration"] = {"n": len(enum_er) - 1,
                                  "max_abs_gap": max(gaps)}
    _atomic_write(out / "results.json",
                  json.dumps(results, sort_keys=True, indent=2) + "\n")
    return ["table.csv", "results.json"]


def _run_kappa(cfg: ExperimentConfig, out: Path) -> list:
    dist = cfg.dist()
    p = cfg.params
    solves = [kappa22_solve(nodes=m, r_max=p["r_max"]) for m in p["nodes"]]
    m_hats = [s.m_hat for s in solves]
    finest = solves[int(np.argmax(p["nodes"]))]
    spread = max(m_hats) - min(m_hats)
    audit = None
    if p["audit_num"] > 0:
        audit = gn_audit(finest.m_hat, num=p["audit_num"],
                         margin=p["audit_margin"])
    constants = {
        "config_hash": cfg.config_hash,
        "grids": [{"nodes": s.nodes, "m_hat": s.m_hat,
                   "converged": s.converged, "iterations": s.iterations,
                   "balance_residual": s.balance_residual}
                  for s in solves],
        "m_hat": finest.m_hat,
        "m_hat_spread": spread,
        "gaussian_half_quotient": gaussian_half_quotient(),
        "kappa4_candidates": finest.kappa4_candidates,
        "kappa22_candidates": finest.kappa22_candidates,
        "audit": audit,
        "constants": constants_report(dist, finest.m_hat,
                                      m_hat_uncertainty=spread).to_dict(),
    }
    _atomic_write(out / "constants.json",
                  json.dumps(constants, sort_keys=True, indent=2) + "\n")
    rows = [{"r": float(r), "f": float(f)}
            for r, f in zip(finest.profile_r, finest.profile_f)]
    _write_csv(out / "profile.csv", cfg.config_hash, _kind(cfg.kind).schema,
               ["r", "f"], rows)
    return ["constants.json", "profile.csv"]


def run_experiment(cfg: ExperimentConfig, resume: bool = False, workers: int = 1,
                   out=None) -> dict:
    """Execute a config into run_dir_for(cfg, out) with up to workers
    processes; returns the manifest that manifest.json holds, the only
    file of a run with wall-clock times and the host environment.

    A run whose records show a violated identity (the kind's
    violation_keys) raises IdentityCheckFailure after all shards are on
    disk, so the evidence survives the failure."""
    started = _utcnow()
    kind = _kind(cfg.kind)
    workers = max(1, int(workers))
    out = run_dir_for(cfg, out)
    if (out / "config.json").is_file() and _stored_hash(out) != cfg.config_hash:
        raise InvalidConfig(
            f"{out} holds a run of another config, not of "
            f"{cfg.config_hash[:12]}; choose another run directory")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise InvalidConfig(f"cannot make the run directory {out}: {exc}") from exc
    _atomic_write(out / "config.json",
                  json.dumps(cfg.to_dict(), sort_keys=True, indent=2) + "\n")

    files = ["config.json"]
    shard_meta = []
    if kind.records is None:
        files += kind.write(cfg, out)
    else:
        shards = plan_shards(cfg)
        pending = []
        for i, (start, stop) in enumerate(shards):
            shard_meta.append({"index": i, "path": _shard_path(out, i).name,
                               "replica_start": start, "replica_stop": stop})
            if resume and _reads_whole(_read_shard(cfg, out, i, start, stop)):
                continue
            pending.append((cfg, out, i, start, stop))
        if workers > 1 and len(pending) > 1:
            # imported here: a one-worker run never loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # a fork pool starts every worker at once: start no idle one
            with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
                for _ in pool.map(_run_shard, pending, chunksize=1):
                    pass
        else:
            for task in pending:
                _run_shard(task)
        files += [m["path"] for m in shard_meta]

    from . import __version__
    manifest = {"config_hash": cfg.config_hash, "version": __version__,
                "kind": cfg.kind, "started_at": started,
                "finished_at": _utcnow(), "status": "complete",
                "shards": shard_meta, "files": files,
                "environment": {
                    "nproc": os.cpu_count(),
                    "python": ".".join(map(str, sys.version_info[:3])),
                    "numpy": np.__version__,
                    "workers": workers}}
    _atomic_write(out / "manifest.json",
                  json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    bad = _violations(cfg, out)
    if bad:
        raise IdentityCheckFailure(
            f"{bad} identity violation(s) recorded in {out}; "
            f"see the shard files for the failing replicas")
    return manifest


def _violations(cfg: ExperimentConfig, run_dir: Path) -> int:
    keys = _kind(cfg.kind).violation_keys
    if not keys:
        return 0
    return sum(1 for records in _read_shards(cfg, run_dir).values() for rec in records
               for key in keys if key in rec and not rec[key])


def _report_run_json(name: str, schema: str, rows_of: Callable,
                     cfg: ExperimentConfig, run_dir: Path, records) -> list:
    """A whole-run kind's report once name, schema and rows_of are bound:
    summary.csv of the rows rows_of reads from the JSON object in the
    run's file name.  InvalidConfig names the file when it is missing,
    not UTF-8 JSON or not an object, or lacks or mistypes a value read."""
    path = run_dir / name
    try:
        raw = json.loads(path.read_bytes())
    except FileNotFoundError:
        raise InvalidConfig(f"{path} is missing; rerun the config") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"{path} is not UTF-8 JSON: {exc}") from exc
    try:  # a raw that is not an object fails here too
        rows = rows_of(raw)
    except (AttributeError, IndexError, KeyError, TypeError) as exc:
        raise InvalidConfig(f"{path} lacks or mistypes a value the report "
                            f"reads: {exc!r}") from None
    _write_csv(run_dir / "summary.csv", cfg.config_hash, schema,
               ["key", "value"], rows)
    return ["summary.csv"]


def _stored_hash(run_dir: Path) -> str | None:
    """The config_hash that run_dir/config.json stores, None if none."""
    try:
        raw = json.loads((run_dir / "config.json").read_text())
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return raw.get("config_hash") if isinstance(raw, dict) else None


def _load_run(run_dir: Path):
    run_dir = Path(run_dir)
    cfg_path = run_dir / "config.json"
    if not cfg_path.is_file():
        raise InvalidConfig(f"{run_dir} is not a run directory (no config.json)")
    cfg = load_config(cfg_path)
    if _stored_hash(run_dir) != cfg.config_hash:
        raise InvalidConfig(f"{cfg_path} does not hash to the config_hash "
                            f"it stores")
    return cfg, _read_shards(cfg, run_dir)


def _probe(cfg: ExperimentConfig, replicas: int) -> DeviationProbe:
    p = cfg.params
    return DeviationProbe(n_ladder=tuple(p["n_ladder"]),
                          b_schedule=tuple(p["b_schedule"]),
                          thresholds=tuple(p["thresholds"]),
                          side=p["side"], replicas=replicas)


def _check_probe(cfg: ExperimentConfig, dist: StepDistribution) -> None:
    """The probe type enforces ladder/schedule coherence at validation,
    not at report time."""
    _probe(cfg, cfg.replicas)


def _report_deviations(cfg: ExperimentConfig, run_dir: Path, records) -> list:
    dist = cfg.dist()
    ladder = cfg.params["n_ladder"]
    # records come in plan order: each replica's ladder, replica by replica
    ranges = np.array([rec["range"] for rec in records], dtype=np.int64)
    values_by_n = dict(zip(ladder, ranges.reshape(-1, len(ladder)).T))
    have = len(ranges) // len(ladder)
    probe = _probe(cfg, have)
    table = build_return_table(dist, max(probe.n_ladder))
    rows = tail_rows_from_values(probe, dist, table, values_by_n)
    for row in rows:
        row["side"] = probe.side
    columns = ["n", "b", "side", "theta", "variant", "threshold",
               "exceedances", "replicas", "p_hat", "rate", "rate_lo",
               "rate_hi", "zero_exceedances", "constraint_ok",
               "constraint_ratio"]
    _write_csv(run_dir / "summary.csv", cfg.config_hash,
               "deviations-summary-v1", columns, rows)

    plot_rows = []
    for row in rows:
        plot_rows.append({
            "series": f"{probe.side}-theta{row['theta']}-{row['variant']}",
            "x": row["n"], "y": row["rate"],
            "ci_lo": row["rate_lo"], "ci_hi": row["rate_hi"],
        })
    _write_csv(run_dir / "plot.csv", cfg.config_hash, "plot-v1",
               ["series", "x", "y", "ci_lo", "ci_hi"], plot_rows)

    moment_rows = []
    for n in probe.n_ladder:
        sample = RangeSample(n=n, values=values_by_n[n])
        check = sample.mean_check(table)
        tails = sample.asymmetry(table)
        moment_rows.append({
            "n": n, "replicas": have, "mean": sample.mean,
            "er_exact": check["er_exact"], "gap_in_se": check["gap_in_se"],
            "sd": sample.sd, "skewness": sample.skewness,
            "count_plus_2sd": tails["count_plus"],
            "count_minus_2sd": tails["count_minus"],
        })
    _write_csv(run_dir / "moments.csv", cfg.config_hash,
               "deviations-moments-v1",
               ["n", "replicas", "mean", "er_exact", "gap_in_se", "sd",
                "skewness", "count_plus_2sd", "count_minus_2sd"], moment_rows)
    return ["summary.csv", "plot.csv", "moments.csv"]


def _report_lil(cfg: ExperimentConfig, run_dir: Path, records) -> list:
    records = list(records)  # all read before any write
    dist = cfg.dist()
    n_max = cfg.params["n_max"]
    table = build_return_table(dist, n_max)

    (run_dir / "trajectories").mkdir(exist_ok=True)
    written = []
    plot_rows = []
    columns = ["m", "r_bar", "upper_stat", "lower_stat",
               "running_max_upper", "running_max_lower"]
    for rec in records:
        j = rec["replica"]
        rows = lil_rows(rec["checkpoints"], rec["ranges"], table)
        name = f"trajectories/replica_{j:05d}.csv"
        _write_csv(run_dir / name, cfg.config_hash, "lil-trajectory-v1",
                   columns, rows)
        written.append(name)
        for row in rows:
            if row["running_max_upper"] is not None:
                plot_rows.append({"series": f"upper-r{j}", "x": row["m"],
                                  "y": row["running_max_upper"],
                                  "ci_lo": None, "ci_hi": None})

    solve = kappa22_solve(nodes=256)
    consts = constants_report(dist, solve.m_hat)
    ref_rows = [
        {"name": "upper_lil_constant", "value": consts.upper_lil_constant},
        {"name": "m_hat", "value": solve.m_hat},
        {"name": "theta_inverse_half_quotient",
         "value": consts.theta_inverse["half_quotient"]},
        {"name": "theta_inverse_weinstein",
         "value": consts.theta_inverse["weinstein"]},
    ]
    _write_csv(run_dir / "references.csv", cfg.config_hash, "lil-references-v1",
               ["name", "value"], ref_rows)
    for row in ref_rows:
        plot_rows.append({"series": f"ref-{row['name']}", "x": n_max,
                          "y": row["value"], "ci_lo": None, "ci_hi": None})
    _write_csv(run_dir / "plot.csv", cfg.config_hash, "plot-v1",
               ["series", "x", "y", "ci_lo", "ci_hi"], plot_rows)
    return written + ["references.csv", "plot.csv"]


def _report_identities(cfg: ExperimentConfig, run_dir: Path, records) -> list:
    stats = {c: {"paths": 0, "violations": 0, "max_residual": 0.0}
             for c in cfg.params["checks"]}
    for rec in records:
        for c, s in stats.items():
            prefix, flag = _IDENTITY_KEYS[c]
            s["paths"] += 1
            s["violations"] += 0 if rec[flag] else 1
            # the decompositions count sites: their residual is |lhs - rhs|
            residual = rec.get(f"{prefix}_residual",
                               abs(rec[f"{prefix}_lhs"] - rec[f"{prefix}_rhs"]))
            s["max_residual"] = max(s["max_residual"], residual)
    rows = [{"check": c, "paths": s["paths"], "violations": s["violations"],
             "max_residual": s["max_residual"]} for c, s in sorted(stats.items())]
    _write_csv(run_dir / "summary.csv", cfg.config_hash,
               "identities-summary-v1",
               ["check", "paths", "violations", "max_residual"], rows)
    return ["summary.csv"]


def _report_smoothed(cfg: ExperimentConfig, run_dir: Path, records) -> list:
    parseval = cfg.params["parseval"]
    a_vals, b_vals, q_res, pv_res, ffts = [], [], [], [], []
    for rec in records:
        a_vals.append(rec["a_value"])
        b_vals.append(rec["b_value"])
        q_res.append(rec["q_residual"])
        if parseval:
            pv_res.append(rec["parseval_residual"])
            ffts.append(rec["parseval_fft"])
    row = {
        "pairs": len(a_vals),
        "mean_a": float(np.mean(a_vals)),
        "mean_b": float(np.mean(b_vals)),
        "max_q_residual": float(np.max(q_res)),
        "max_parseval_residual": float(np.max(pv_res)) if pv_res else None,
        "min_fft": min(ffts) if ffts else None,
        "max_fft": max(ffts) if ffts else None,
    }
    _write_csv(run_dir / "summary.csv", cfg.config_hash, "smoothed-summary-v1",
               list(row.keys()), [row])
    return ["summary.csv"]


def _exact_rows(results: dict) -> list:
    rows = [{"key": "n", "value": results["n"]}]
    for k, v in sorted(results["identity_residuals"].items()):
        rows.append({"key": f"identity_residual_{k}", "value": v})
    for k, v in sorted(results.get("asymptotics", {}).items()):
        rows.append({"key": f"asymptotics_{k}", "value": v})
    if "enumeration" in results:
        rows.append({"key": "enumeration_max_abs_gap",
                     "value": results["enumeration"]["max_abs_gap"]})
    return rows


def _kappa_rows(constants: dict) -> list:
    rows = [{"key": "m_hat", "value": constants["m_hat"]},
            {"key": "m_hat_spread", "value": constants["m_hat_spread"]},
            {"key": "gaussian_half_quotient",
             "value": constants["gaussian_half_quotient"]}]
    for g in constants["grids"]:
        rows.append({"key": f"m_hat_nodes_{g['nodes']}", "value": g["m_hat"]})
    for name, v in sorted(constants["kappa4_candidates"].items()):
        rows.append({"key": f"kappa4_{name}", "value": v})
    for name, v in sorted(constants["constants"]["theta_inverse"].items()):
        rows.append({"key": f"theta_inverse_{name}", "value": v})
    if constants.get("audit"):
        rows.append({"key": "audit_violations",
                     "value": constants["audit"]["violations"]})
    return rows


def run_report(run_dir) -> dict:
    """Aggregate a run directory into summary/plot CSVs.

    Missing, stale or cut shards downgrade to a partial report with a
    warning on stderr; an unrecognizable directory, or a sharded run
    none of whose planned shards is readable, raises InvalidConfig."""
    run_dir = Path(run_dir)
    cfg, shards = _load_run(run_dir)
    planned = len(plan_shards(cfg))
    missing = [i for i in range(planned) if i not in shards]
    if planned and not shards:
        others = f", and so are the other {planned - 1}" if planned > 1 else ""
        raise InvalidConfig(f"{_shard_path(run_dir, 0)} is missing, stale or "
                            f"cut{others}; nothing to report")
    if missing:
        print(f"warning: {len(missing)} shard(s) missing, stale or cut "
              f"({missing[:8]}{'...' if len(missing) > 8 else ''}); "
              f"reporting on what is present", file=sys.stderr)
    files = _kind(cfg.kind).report(
        cfg, run_dir, (rec for records in shards.values() for rec in records))
    return {"run_dir": str(run_dir), "kind": cfg.kind,
            "config_hash": cfg.config_hash, "partial": bool(missing),
            "missing_shards": missing, "files": files}


_REGISTRY = {
    "exact": Kind(schema="exact-table-v1", canonical_params=_exact_params,
                  report=functools.partial(_report_run_json, "results.json",
                                           "exact-summary-v1", _exact_rows),
                  write=_run_exact,
                  check=_check_enumeration, table_n=lambda p: p["n"]),
    "identities": Kind(schema="identities-v1",
                       canonical_params=_identities_params,
                       report=_report_identities, records=_identity_records,
                       check=_check_identities,
                       violation_keys=tuple(flag for _, flag in _IDENTITY_KEYS.values()),
                       record_keys=_identity_record_keys),
    "smoothed": Kind(schema="smoothed-v1", canonical_params=_smoothed_params,
                     report=_report_smoothed, records=_smoothed_records,
                     check=_check_smoothed,
                     record_keys=lambda p: ["a_value", "b_value", "q_residual"]
                     + (["parseval_residual", "parseval_fft"] if p["parseval"] else [])),
    "deviations": Kind(schema="deviations-v1",
                       canonical_params=_deviations_params,
                       report=_report_deviations, records=_deviation_records,
                       check=_check_probe, table_n=lambda p: max(p["n_ladder"]),
                       line_plan=lambda p: [{"n": n} for n in p["n_ladder"]],
                       record_keys=lambda p: ["n", "replica", "range"]),
    "lil": Kind(schema="lil-v1", canonical_params=_lil_params,
                report=_report_lil, records=_lil_records,
                table_n=lambda p: p["n_max"],
                line_plan=lambda p: [{"checkpoints": lil_checkpoints(
                    p["n_max"], p["checkpoints"])}],
                record_keys=lambda p: ["replica", "checkpoints", "ranges"]),
    "kappa": Kind(schema="kappa-v1", canonical_params=_kappa_params,
                  report=functools.partial(_report_run_json, "constants.json",
                                           "kappa-summary-v1", _kappa_rows),
                  write=_run_kappa),
}
KINDS = tuple(_REGISTRY)
