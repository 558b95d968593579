"""The benchmark tracer's wrap targets still name live srgkit functions."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPS
    for target, kind, _, workloads in tracer.WRAPS:
        assert kind in ("span", "leaf"), target
        assert workloads, target
        module_name, _, attr = target.partition(":")
        assert module_name in tracer.MODULES, target
        owner = importlib.import_module(f"srgkit.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"trace target {target} not found"
        assert callable(owner), target
