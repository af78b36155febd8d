"""Each module imports alone, in a fresh interpreter: none leans on
another having been imported first, and none sits on an import cycle."""

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
