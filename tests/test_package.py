"""The package namespace: the layers' public names, resolved on first access."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import srgkit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)


def test_importing_the_package_compiles_no_layer():
    code = "import sys, srgkit; print([m for m in sys.modules if 'srgkit.' in m])"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-c", code]
    run = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_the_geometry_layer_compiles_only_the_layers_below_it():
    loaded = "sorted(m for m in sys.modules if 'srgkit.' in m)"
    code = f"import sys, srgkit.geometry; print({loaded})"
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-c", code]
    run = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "['srgkit.base', 'srgkit.geometry', 'srgkit.gf']"


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from srgkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(srgkit.__all__)


@pytest.mark.parametrize("name, module", sorted(srgkit._EXPORTS.items()))
def test_each_export_is_its_layers_object(name, module):
    layer = importlib.import_module(f"srgkit.{module}")
    assert getattr(srgkit, name) is getattr(layer, name)
    assert vars(srgkit)[name] is getattr(layer, name)  # cached after first access


# names srgkit.base now defines, and the layers that defined them before
MOVED = [
    ("ScaleGuardError", "gf"),
    ("ScaleGuardError", "graphcore"),
    ("ScaleGuardError", "families"),
    ("IntersectionArray", "graphcore"),
]


@pytest.mark.parametrize("name, module", MOVED)
def test_a_moved_name_stays_bound_where_it_lived(name, module):
    layer = importlib.import_module(f"srgkit.{module}")
    base = importlib.import_module("srgkit.base")
    assert getattr(layer, name) is getattr(base, name)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'srgkit' has no attribute 'nope'"):
        srgkit.nope
    assert "nope" not in vars(srgkit)


def test_dir_lists_every_export():
    listed = dir(srgkit)
    assert "__all__" in listed
    assert set(srgkit.__all__) <= set(listed)
    assert set(srgkit.__all__) == {*srgkit._EXPORTS, "__version__"}


def test_readme_has_python_examples():
    assert len(README_BLOCKS) >= 4


@pytest.mark.parametrize("block", README_BLOCKS, ids=range(len(README_BLOCKS)))
def test_each_readme_python_block_runs_alone(block):
    """Each fenced python block of README.md runs in a fresh interpreter,
    with nothing imported that the block does not import itself."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-c", block]
    run = subprocess.run(command, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
