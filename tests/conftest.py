"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def child_env():
    """Environment for ``python -m orbichern`` subprocesses.

    pytest's ``pythonpath`` setting reaches this process only, so the
    child gets the checkout's ``src/`` in front of its PYTHONPATH and runs
    from an uninstalled checkout too.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env
