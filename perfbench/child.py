"""One timed repetition, in a fresh process: set up, `run`, `report`, check.

Usage: python3 perfbench/child.py JOB.json

JOB names the config, an empty output directory, the checkout's `src`
directory, whether to trace and which replicas to recount.  The last line
of standard output is one JSON object with the phase times, the peak
resident memory, the result of every CLI call and output check and, when
traced, the per-layer metrics.  The times include `ref_s`, the time of
a fixed reference computation split around the timed phases (pure Python
before setup; pure Python and NumPy after `report`), by which run.py
factors out the host's speed.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def reference_seconds() -> float:
    """Time a fixed pure-Python computation (list building, sorting, dict
    updates), independent of rangelab, to gauge the host's speed now."""
    start = time.perf_counter()
    x = 12345
    values = []
    for _ in range(200_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        values.append(x)
    values.sort()
    buckets = {}
    for v in values:
        buckets[v & 4095] = buckets.get(v & 4095, 0) + v
    return time.perf_counter() - start


def numpy_reference_seconds() -> float:
    """Time a fixed NumPy computation (random draws, sorts, prefix sums)."""
    import numpy as np

    start = time.perf_counter()
    keys = np.random.default_rng(12345).integers(0, 1 << 40, 1 << 20)
    for _ in range(2):
        np.cumsum(np.sort(keys))
    return time.perf_counter() - start


def _tree_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    ops = []

    ref_before = reference_seconds()
    t0 = time.perf_counter()
    import rangelab  # noqa: F401  (part of what setup_s measures)
    from rangelab import cli
    from rangelab.experiments import load_config

    load_config(job["config"])
    t1 = time.perf_counter()
    if src not in Path(rangelab.__file__).resolve().parents:
        raise SystemExit(f"rangelab was imported from {rangelab.__file__}, "
                         f"not from {src}")

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    out = job["out"]
    times = {"setup_s": t1 - t0}
    for phase, argv in (("run", ["run", "--config", job["config"], "--out", out,
                                 "--workers", "1"]),
                        ("report", ["report", "--out", out])):
        start = time.perf_counter()
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(argv)
        times[f"{phase}_s"] = time.perf_counter() - start
        ops.append({"name": f"cli.{phase}", "ok": code == 0,
                    "detail": "" if code == 0 else f"exit code {code}"})
        if code != 0:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # NumPy is loaded by now, so its reference adds nothing to setup_s.
    times["ref_s"] = ref_before + reference_seconds() + numpy_reference_seconds()

    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        out_dir = Path(out)
        layers["experiments.shards"] = len(list(out_dir.glob("shard_*.jsonl")))
        layers["experiments.bytes_written"] = _tree_bytes(out_dir)
        for target in tracer.missing:
            print(f"perfbench: traced layer {target.module}.{target.attr} "
                  f"no longer exists", file=sys.stderr)

    if all(op["ok"] for op in ops) and len(ops) == 2:
        from checks import run_checks

        cfg = json.loads(Path(job["config"]).read_text())
        ops.extend(run_checks(Path(out), cfg, job["spot"]))

    print(json.dumps({"times": times, "peak_rss_mb": peak_rss_mb,
                      "ops": ops, "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
