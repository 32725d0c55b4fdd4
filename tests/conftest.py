import os
import subprocess
import sys
from pathlib import Path

import pytest

import dicksonrs
from dicksonrs import FiniteField

# the acceptance grid: every supported small field
GRID_QS = [4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]

_FIELD_PARAMS = {
    4: (2, 2),
    5: (5, 1),
    7: (7, 1),
    8: (2, 3),
    9: (3, 2),
    11: (11, 1),
    13: (13, 1),
    16: (2, 4),
    25: (5, 2),
    27: (3, 3),
    32: (2, 5),
    49: (7, 2),
    64: (2, 6),
}


@pytest.fixture(scope="session")
def grid_fields():
    """One shared field object per grid cardinality (tables are cached)."""
    return {q: FiniteField(*_FIELD_PARAMS[q]) for q in GRID_QS}


@pytest.fixture(scope="session")
def f2_16():
    return FiniteField(2, 16)


@pytest.fixture(scope="session")
def fresh_python():
    """Run Python code in a fresh interpreter that imports this package;
    return its stripped stdout.  Other tests load modules the code may ask
    about, so the answer must come from a new process."""
    src = str(Path(dicksonrs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(code: str) -> str:
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    return run
