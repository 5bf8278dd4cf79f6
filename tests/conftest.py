import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from trajrl.config import load_config

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test that leaves a child process, running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process{f' ({pid})' if pid else ''}")


@pytest.fixture(scope="session")
def pointmass_rc():
    return load_config(CONFIGS / "pointmass.ini")


@pytest.fixture(scope="session")
def toy_rc():
    return load_config(CONFIGS / "toy1d.ini")


@pytest.fixture(scope="session")
def dubins_rc():
    return load_config(CONFIGS / "dubins.ini")


@pytest.fixture(scope="session")
def manipulator_rc():
    return load_config(CONFIGS / "manipulator.ini")
