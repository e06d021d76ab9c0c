"""Command-line front end.

Subcommands:
  validate          check a config file and its distribution, print a summary
  run               execute a config into a run directory (sharded, resumable)
  report            aggregate a run directory into summary/plot CSVs
  kappa             solve the variational constant without a config file
  enumerate-oracle  exact small-n moments by full path enumeration

Exit codes: 0 success, 2 invalid config, 3 resource limit,
4 identity-check failure.
"""

from __future__ import annotations

import argparse
import json
import locale  # argparse's first parser build imports it: load it here, not in a run
import sys
from pathlib import Path

from .errors import IdentityCheckFailure, InvalidConfig, ResourceLimit

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_IDENTITY = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rangelab",
        description="range statistics of planar lattice random walks: exact "
                    "tables, identity checks, smoothed functionals, tail and "
                    "iterated-logarithm probes, variational constants")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("--config", required=True, help="path to a JSON config")
    p_val.add_argument("--seed", type=int, default=None,
                       help="override the master seed before hashing")

    p_run = sub.add_parser("run", help="execute a config into a run directory")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the master seed before hashing")
    p_run.add_argument("--workers", type=int, default=1,
                       help="process pool size for shard execution")
    p_run.add_argument("--out", default=None,
                       help="run directory (default: $RANGELAB_OUT_ROOT/"
                            "<kind>-<hash12>)")
    p_run.add_argument("--resume", action="store_true",
                       help="skip shards whose files already verify")
    p_run.add_argument("--report", action="store_true",
                       help="aggregate summaries right after the run")

    p_rep = sub.add_parser("report", help="aggregate a finished or partial run")
    p_rep.add_argument("--out", required=True, help="run directory to report on")

    p_kap = sub.add_parser("kappa", help="variational constant on a node ladder")
    p_kap.add_argument("--nodes", default="256,512,1024",
                       help="comma-separated grid sizes (each >= 256)")
    p_kap.add_argument("--r-max", type=float, default=16.0,
                       help="truncation radius of the radial grid")
    p_kap.add_argument("--dist", default="srw",
                       help="walk whose constants to report (srw, lazy-srw, "
                            "king, or inline JSON)")
    p_kap.add_argument("--audit-num", type=int, default=100,
                       help="random trial functions for the inequality audit")
    p_kap.add_argument("--out", default=None, help="run directory")

    p_enum = sub.add_parser("enumerate-oracle",
                            help="exact E[range] by full enumeration")
    p_enum.add_argument("--dist", default="srw",
                        help="walk name or inline JSON distribution")
    p_enum.add_argument("--n", type=int, required=True,
                        help="number of steps (|support|^n paths; guarded)")
    p_enum.add_argument("--out", default=None,
                        help="write CSV here instead of stdout")
    return parser


def _parse_dist(text: str):
    if text.strip().startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidConfig(f"--dist is not valid JSON: {exc}") from exc
    return text


def _cmd_validate(args) -> int:
    from .experiments import load_config

    cfg = load_config(args.config, seed_override=args.seed)
    dist = cfg.dist()
    print(f"ok: kind={cfg.kind} dist={dist.name} replicas={cfg.replicas} "
          f"master_seed={cfg.master_seed}")
    print(f"config_hash={cfg.config_hash}")
    return EXIT_OK


def _cmd_run(args) -> int:
    from .experiments import load_config, run_dir_for, run_experiment, run_report

    cfg = load_config(args.config, seed_override=args.seed)
    out = run_dir_for(cfg, args.out)
    manifest = run_experiment(cfg, resume=args.resume, workers=args.workers,
                              out=out)
    print(f"run complete: {out}")
    print(f"config_hash={manifest['config_hash']} shards={len(manifest['shards'])}")
    if args.report:
        rep = run_report(out)
        print("report files: " + ", ".join(rep["files"]))
    return EXIT_OK


def _cmd_report(args) -> int:
    from .experiments import run_report

    rep = run_report(args.out)
    status = "partial" if rep["partial"] else "complete"
    print(f"report ({status}): {rep['run_dir']}")
    print("files: " + ", ".join(rep["files"]))
    return EXIT_OK


def _cmd_kappa(args) -> int:
    from .experiments import ExperimentConfig, run_dir_for, run_experiment

    try:
        nodes = [int(x) for x in args.nodes.split(",") if x.strip()]
    except ValueError as exc:
        raise InvalidConfig(f"--nodes must be comma-separated integers: "
                            f"{args.nodes!r}") from exc
    raw = {
        "kind": "kappa",
        "distribution": _parse_dist(args.dist),
        "master_seed": 0,
        "replicas": 1,
        "params": {"nodes": nodes, "r_max": args.r_max,
                   "audit_num": args.audit_num},
    }
    cfg = ExperimentConfig.from_dict(raw)
    out = run_dir_for(cfg, args.out)
    run_experiment(cfg, out=out)
    constants = json.loads((out / "constants.json").read_text())
    print(f"run complete: {out}")
    print(f"m_hat={constants['m_hat']!r} spread={constants['m_hat_spread']!r}")
    for name, value in sorted(constants["constants"]["theta_inverse"].items()):
        print(f"theta_inverse[{name}]={value!r}")
    return EXIT_OK


def _cmd_enumerate_oracle(args) -> int:
    from .exact import enumeration_oracle
    from .walks import distribution_from_config, validate_distribution

    dist = distribution_from_config(_parse_dist(args.dist))
    validate_distribution(dist)
    result = enumeration_oracle(dist, args.n)
    lines = [f"# dist={result['dist']} n={result['n']} paths={result['paths']}",
             "m,er,equal_time_pairs"]
    for m in range(result["n"] + 1):
        lines.append(f"{m},{float(result['er'][m])!r},"
                     f"{float(result['equal_time_pairs'][m])!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
            raise InvalidConfig(f"cannot write --out {args.out}: {exc}") from exc
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "run": _cmd_run,
    "report": _cmd_report,
    "kappa": _cmd_kappa,
    "enumerate-oracle": _cmd_enumerate_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InvalidConfig as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return EXIT_INVALID_CONFIG
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except IdentityCheckFailure as exc:
        print(f"identity check failed: {exc}", file=sys.stderr)
        return EXIT_IDENTITY


if __name__ == "__main__":
    sys.exit(main())
