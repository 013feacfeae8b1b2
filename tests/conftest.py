import threading

import numpy as np
import pytest

from randattract import (
    DiffusionField,
    NoiseSpectrum,
    WienerPath,
    sample_two_sided_path,
)
from randattract.evolution import set_chain_workers

DT = 2.0 ** -8


@pytest.fixture(autouse=True)
def serial_chain_builds():
    """Chains build at width 1 after every test, and no chain-build thread
    outlives it, even when a test fails with blocks still queued."""
    yield
    set_chain_workers(1)
    left = [t.name for t in threading.enumerate() if t.name.startswith("chain-build")]
    assert not left, f"chain-build threads outlived the test: {left}"


@pytest.fixture(scope="session")
def spectrum():
    return NoiseSpectrum(mode_count=16, decay_exponent=1.0)


@pytest.fixture(scope="session")
def default_field():
    return DiffusionField()


@pytest.fixture(scope="session")
def autonomous_field():
    return DiffusionField(amp=0.0)


@pytest.fixture(scope="session")
def medium_path(spectrum):
    """One realization covering [-20, 4] at the default resolution."""
    return sample_two_sided_path(spectrum, -20.0, 4.0, DT, seed=1234)


def synthetic_path(values: np.ndarray, dt: float, origin: int) -> WienerPath:
    """Deterministic path from explicit base values (oracle construction)."""
    base = np.asarray(values, dtype=float)
    if base.ndim == 1:
        base = base.reshape(-1, 1)
    base = base - base[origin]
    base.setflags(write=False)
    spec = NoiseSpectrum(base.shape[1], 1.0)
    return WienerPath(base, origin, dt, spec, 0)
