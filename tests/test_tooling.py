"""The benchmark's tracer must find every function it is told to time."""

import importlib
import importlib.util
from pathlib import Path

import carpenter  # noqa: F401  (Tracer.install wraps the loaded modules)
import carpenter.cli  # noqa: F401

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    # A missing target is only noted in Tracer.missing, so a renamed or
    # deleted function would silently drop a layer from traced runs.
    spans = load_spans()
    for name, (modname, attr) in spans.TARGETS.items():
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{name}: {modname}.{attr} not found"
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
