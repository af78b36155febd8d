"""Each module imports alone, in a fresh interpreter: none leans on
another having been imported first, and none sits on an import cycle.
And each module uses every name it imports."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import gatedoc

MODULES = sorted(m.name for m in pkgutil.iter_modules(gatedoc.__path__))


def test_every_module_is_listed():
    assert {"autodiff", "cli", "model", "textpipe"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_alone(name):
    env = dict(os.environ, PYTHONPATH=str(Path(gatedoc.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", f"import gatedoc.{name}"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr


SOURCES = sorted(Path(gatedoc.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    # every attribute chain starts at a Name, so Names are all the uses
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, f"imported and never used: {sorted(imported - used)}"
