"""The benchmark tracer's wrap targets still name live srgkit functions."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


# workload -> its commands, as perfbench/run.py lists them; {tmp} is the
# test's temporary directory
_TRACED_WORKLOADS = {
    "table1": [("cli", "table1")],
    "classes": [("classes",)],
    "symbolic": [
        ("cli", "scheme", job)
        for job in ("grassmann", "g2", "dualpolar:1/2", "dualpolar:1", "dualpolar:3/2")
    ],
    "verify": [
        ("cli", "gen", "grassmann:n=6,q=2", "-o", "{tmp}/grassmann-6-2.g6"),
        ("cli", "verify", "{tmp}/grassmann-6-2.g6"),
        ("cli", "orbitals", "src/srgkit/data/psl2_8_sq6.gens"),
    ],
}


@pytest.mark.parametrize("workload", _TRACED_WORKLOADS)
def test_traced_workload_reaches_every_listed_target(monkeypatch, tmp_path, workload):
    """A traced workload run must reach every wrap target that lists the
    workload, as the benchmark's self-test demands; a workload of several
    commands reaches a target when one of them does."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    out = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    reached = set()
    for job in _TRACED_WORKLOADS[workload]:
        args = [arg.format(tmp=tmp_path) for arg in job]
        subprocess.run(
            [sys.executable, str(TRACER), str(out), *args],
            cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
        )
        counts = json.loads(out.read_text())["reached"]
        reached.update(target for target, count in counts.items() if count)
    unreached = [
        target for target, _, _, workloads in tracer.WRAPS
        if workload in workloads and target not in reached
    ]
    assert not unreached


def test_traced_dual_polar_job_reaches_its_graph_check(tmp_path):
    """``scheme dualpolar:1`` imports the graph layers inside
    ``dual_polar_symbolic``; those imports must bind the tracer's wrappers,
    so its graph check is traced."""
    out = tmp_path / "t.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, str(TRACER), str(out), "cli", "scheme", "dualpolar:1"],
        cwd=ROOT, env=env, check=True, capture_output=True, timeout=120,
    )
    reached = json.loads(out.read_text())["reached"]
    assert reached["graphcore:check_drg"] == 1
    assert reached["schemes:tensor_from_graph"] == 1
