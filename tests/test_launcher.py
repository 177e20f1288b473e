import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ethikit
from ethikit.launcher import BLAS_THREAD_VARS

SRC = Path(ethikit.__file__).parents[1]

# Runs the real `ethikit normalize` through the launcher in a fresh
# interpreter, and records the thread variables at the moment numpy is first
# imported, by a finder that only watches.
SCRIPT = """
import json, os, sys

class WatchNumpy:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and WatchNumpy.seen is None:
            WatchNumpy.seen = {var: os.environ.get(var) for var in VARS}
        return None

sys.meta_path.insert(0, WatchNumpy())
import ethikit.launcher
assert "numpy" not in sys.modules, "importing the launcher imported numpy"
sys.argv = ["ethikit", "normalize"]
code = ethikit.launcher.main()
print(json.dumps({"code": code, "at_numpy_import": WatchNumpy.seen}))
"""


def _launch(user_env: dict) -> tuple[str, dict]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(user_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", f"VARS = {BLAS_THREAD_VARS!r}\n{SCRIPT}"], env=env,
        input="can't   SHOUT\n", capture_output=True, text=True, timeout=120, check=True)
    *out, result = done.stdout.splitlines()
    return "\n".join(out), json.loads(result)


def test_pins_every_blas_variable_to_one_before_numpy():
    out, result = _launch({})
    assert out == "cannot shout"
    assert result == {"code": 0, "at_numpy_import": dict.fromkeys(BLAS_THREAD_VARS, "1")}


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_a_variable_the_user_set_leaves_every_variable_as_it_was(var):
    out, result = _launch({var: "2"})
    assert out == "cannot shout"
    expected = {v: "2" if v == var else None for v in BLAS_THREAD_VARS}
    assert result == {"code": 0, "at_numpy_import": expected}


def test_the_ethikit_command_is_the_launcher():
    pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'ethikit = "ethikit.launcher:main"' in pyproject.splitlines()
