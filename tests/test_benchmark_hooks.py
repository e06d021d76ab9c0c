"""The names the benchmark in perfbench/ reads from rangelab.

perfbench/tracing.py wraps a list of rangelab functions by module and
name, and drops a target it cannot find without an error, so a renamed
or deleted target only shows as a missing per-layer metric.  This test
loads the tracer by path and fails on any target it cannot wrap, and
imports the names perfbench/child.py and perfbench/checks.py call."""

import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_finds_every_name(monkeypatch):
    from rangelab.cli import main  # noqa: F401
    from rangelab.experiments import load_config  # noqa: F401
    from rangelab.walks import PURPOSE_STEPS, stream  # noqa: F401

    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolves the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [f"{t.module}.{t.attr}" for t in tracer.missing] == []
    finally:
        tracer.uninstall()
