import os
from pathlib import Path

import numpy as np
import pytest

from leofault import ShellSpec, build_constellation

# CLI and demo subprocesses import leofault from this checkout's src/
SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

DENSE_SHELL = ShellSpec(altitude_km=550.0, inclination_deg=53.0, planes=72, sats_per_plane=22)
SPARSE_SHELL = ShellSpec(altitude_km=560.0, inclination_deg=97.6, planes=6, sats_per_plane=58)


@pytest.fixture(scope="session")
def dense_constellation():
    return build_constellation([DENSE_SHELL])


@pytest.fixture(scope="session")
def sparse_constellation():
    return build_constellation([SPARSE_SHELL])


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
