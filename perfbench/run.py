"""Benchmark of the rangelab CLI, end to end and layer by layer.

Usage (from the root of a rangelab checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each timed repetition is a fresh process (perfbench/child.py) that
imports rangelab from the checkout's `src`, loads the workload's config,
calls `rangelab run --workers 1` and then `rangelab report` on a fresh,
empty output directory, and checks the outputs against computations made
apart from the program (perfbench/checks.py).  Repetitions run in whole
rounds until the next round would end past --seconds; every figure is a
median over the rounds.

The shared host's speed drifts by about 15 % over minutes, which no
median within a run removes.  So each repetition also times a fixed
reference computation, and the end-to-end times are reported in
seconds at the reference speed: time * REF_NOMINAL_S / reference time.
The raw medians go to standard error.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced repetitions and prints the per-layer metrics of the traced
ones, plus the tracing overhead (traced minus untraced wall time).

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A human-readable table goes to standard error.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ".perfbench_work"
# Reference time that the end-to-end times are scaled to: about what
# the reference computations in child.py take on a 2-core shared x86 box.
REF_NOMINAL_S = 0.4
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # start no round after this, whatever --seconds says

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "work_per_s": "1/s"}
# Per-layer metrics besides the spans: what the run wrote, and the
# tracing overhead (traced minus untraced wall_s).
PER_LAYER_EXTRA = ("experiments.shards", "experiments.bytes_written",
                   "trace.overhead_s")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def child_env(src: Path) -> dict:
    """The repetition's environment: the checkout's rangelab, no table or
    output caches, single-threaded native libraries."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("RANGELAB_CACHE_DIR", "RANGELAB_OUT_ROOT", "PYTHONPATH")}
    env["PYTHONPATH"] = str(src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_repetition(index: int, work: Path, config: Path, src: Path,
                   trace: bool, spot: list, expected_ops: int) -> dict:
    """One child process; returns its result with ok/failed op counts."""
    out = work / f"out-{index}"
    job = work / f"job-{index}.json"
    job.write_text(json.dumps({"config": str(config), "out": str(out),
                               "src": str(src), "trace": trace, "spot": spot}))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job)],
                              env=child_env(src), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            sys.stderr.write(proc.stderr[-4000:])
    except subprocess.TimeoutExpired:
        result = None
        print(f"perfbench: repetition {index} timed out", file=sys.stderr)
    finally:
        shutil.rmtree(out, ignore_errors=True)
        job.unlink(missing_ok=True)
    if result is None:
        return {"attempted": expected_ops, "failed": expected_ops}
    for op in result["ops"]:
        if not op["ok"]:
            print(f"perfbench: {op['name']} failed: {op['detail']}", file=sys.stderr)
    ok = sum(op["ok"] for op in result["ops"])
    result.update(attempted=expected_ops, failed=expected_ops - ok)
    return result


def wall(rep: dict) -> float:
    t = rep["times"]
    return t["setup_s"] + t["run_s"] + t["report_s"]


def at_ref_speed(reps: list, seconds) -> float:
    """Median over repetitions of seconds(rep), scaled by the median
    reference time of the same repetitions to the reference speed."""
    return (statistics.median(seconds(r) for r in reps) * REF_NOMINAL_S
            / statistics.median(r["times"]["ref_s"] for r in reps))


def end_to_end(reps: list, work_units: int) -> dict:
    return {
        "setup_s": at_ref_speed(reps, lambda r: r["times"]["setup_s"]),
        "wall_s": at_ref_speed(reps, wall),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "work_per_s": work_units / at_ref_speed(reps, lambda r: r["times"]["run_s"]),
    }


def raw_medians(reps: list) -> dict:
    return {name: statistics.median(r["times"][name] for r in reps)
            for name in ("setup_s", "run_s", "report_s", "ref_s")}


def per_layer(plain: list, traced: list) -> dict:
    out = {}
    for name in traced[0]["layers"]:  # a layer that no longer exists is absent
        out[name] = statistics.median(r["layers"][name] for r in traced)
    out["trace.overhead_s"] = at_ref_speed(traced, wall) - at_ref_speed(plain, wall)
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must lie in [0, 2^64)")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "rangelab" / "__init__.py").is_file():
        print(f"perfbench: no rangelab sources under {src}; run from the root "
              f"of a rangelab checkout", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    cfg = wl.config(args.seed)
    spot = wl.spot(args.seed)
    expected_ops = 2 + len(check_names(cfg))
    modes = (False, True) if args.trace else (False,)

    work = root / WORK_DIR / f"{wl.name}-{os.getpid()}"
    started = time.perf_counter()
    try:
        work.mkdir(parents=True)
        config = work / "config.json"
        config.write_text(json.dumps(cfg, indent=2) + "\n")
        # Byte-compile once, as an installed package would be, so that no
        # repetition pays for it inside setup_s.
        compileall.compile_dir(str(src / "rangelab"), quiet=1)

        reps = {mode: [] for mode in modes}
        attempted = failed = rounds = 0
        while True:
            round_start = time.perf_counter()
            for traced in modes:
                rep = run_repetition(rounds * len(modes) + traced, work, config,
                                     src, traced, spot, expected_ops)
                attempted += rep["attempted"]
                failed += rep["failed"]
                if rep["failed"] == 0:
                    reps[traced].append(rep)
            rounds += 1
            now = time.perf_counter()
            if failed or now - started > RUN_LIMIT_S:
                break
            if rounds >= MIN_ROUNDS and now - started + (now - round_start) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    if failed:
        metrics = {}
    elif args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in per_layer(reps[False], reps[True]).items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in end_to_end(reps[False], wl.work()).items()}

    print(f"perfbench: {wl.name} seed={args.seed} rounds={rounds} "
          f"repetitions/round={len(modes)} ops attempted={attempted} "
          f"failed={failed} elapsed={time.perf_counter() - started:.1f}s",
          file=sys.stderr)
    if not args.trace and not failed:
        print(f"perfbench: work_per_s counts {wl.work_unit}; raw medians "
              + " ".join(f"{k}={v:.4f}" for k, v in raw_medians(reps[False]).items()),
              file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
