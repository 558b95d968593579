"""The benchmark tracer's wrap targets still name live srgkit functions."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_traced_table1_reaches_every_table1_target(monkeypatch, tmp_path):
    """The benchmark's traced table1 run must reach every wrap target that
    lists table1, as its self-test demands."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, str(TRACER), str(out), "cli", "table1"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    reached = json.loads(out.read_text())["reached"]
    unreached = [
        target for target, _, _, workloads in tracer.WRAPS
        if "table1" in workloads and not reached.get(target)
    ]
    assert not unreached
