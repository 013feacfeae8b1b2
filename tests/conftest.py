import threading

import numpy as np
import pytest

from randattract import (
    DiffusionField,
    NoiseSpectrum,
    WienerPath,
    sample_two_sided_path,
)
from randattract.evolution import PropagatorChain, _exp_steps
from randattract.operators import coefficient_floor_sum, driver_values, fill_generators

DT = 2.0 ** -8


@pytest.fixture(autouse=True)
def no_worker_outlives_the_test():
    """No worker thread (chain blocks or ordered_map items) outlives a test,
    even when it fails with blocks still queued: every workers scope has
    shut its workers down by the time the test returns."""
    yield
    left = [t.name for t in threading.enumerate() if t.name.startswith("run-worker")]
    assert not left, f"worker threads outlived the test: {left}"


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


def reference_chain(field, path, grid, m) -> PropagatorChain:
    """The steps of ``build_chain`` (amp > 0) from one ``fill_generators`` and
    one ``_exp_steps`` call over the whole grid, in one array without blocks:
    a reference independent of the block machinery, bit for bit.  Its norm
    bound comes from the same modulation, summed at once."""
    k0 = path.index_of(grid.t0)
    zetas = driver_values(field, path, k0, k0 + grid.n_steps)
    mus = np.tanh((zetas[:-1] + zetas[1:]) / 2.0)
    steps = fill_generators(field, mus, np.empty((grid.n_steps, m, m)), parity=True)
    _exp_steps(steps, grid.dt, field.spectral_ceiling)
    floor_sum = [coefficient_floor_sum(field, mus)]
    return PropagatorChain(grid, steps, field, path, _floor_sum=floor_sum)
