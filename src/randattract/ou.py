"""The stationary Ornstein-Uhlenbeck-type state and its diagnostics.

The stationary initial state is the truncated history integral

    z0 = int_{-a}^{0} U(0, r, w) A(theta_r w) w_r dr          (trapezoid).

Since w_0 = 0, this is minus ``pathwise.corrector_integral`` over [-a, 0] on
the history chain, so it is accumulated by the one march and every history
step is checked for finiteness (NumericalError).  The state is propagated
along the shift by the local linear pathwise step with sigma = 1
(O(K) instead of re-evaluating the history integral at every output time).
The neglected tail is controlled by the exponential decay of the evolution
family and reported as ``truncation_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .evolution import PropagatorChain, apply, build_chain, span_grid
from .noise import WienerPath, wiener_shift
from .operators import DiffusionField, FractionalNormSpec, fractional_norm
from .pathwise import (
    _ZERO,
    Trajectory,
    _embedded,
    _march,
    corrected_increments,
    corrector_integral,
)


@dataclass(frozen=True)
class StationaryState:
    """Truncated stationary state z0 with its a-posteriori tail bound."""

    z0: np.ndarray
    truncation_horizon: float
    truncation_bound: float


def construct_initial(
    field: DiffusionField,
    path: WienerPath,
    a: float,
    m: int,
) -> StationaryState:
    """Trapezoid of U(0, r) A(r) w_r over [-a, 0]: since w_0 = 0, minus the
    corrector integral over [-a, 0] on the history chain, which is read once.
    The path must cover [-a, 0] (ShiftRangeError)."""
    if not a > 0:
        raise ConfigurationError("truncation horizon a must be positive")
    chain = build_chain(field, path, span_grid(-a, 0.0, path.dt), m, read_once=True)
    z0 = -corrector_integral(chain, path, -a, 0.0)
    tail_norm = _max_norm_on(path, -a, -a / 2.0)
    bound = tail_norm * math.exp(-field.poincare_rate * a)
    return StationaryState(z0, a, bound)


def _max_norm_on(path: WienerPath, t_lo: float, t_hi: float) -> float:
    k_lo = path.index_of(t_lo)
    k_hi = int(math.floor(t_hi / path.dt))
    vals = path.base[path.base_origin + k_lo : path.base_origin + k_hi + 1]
    vals = vals - path.base[path.base_origin]
    return float(np.sqrt(np.einsum("ij,ij->i", vals, vals)).max())


def propagate(
    state: StationaryState,
    field: DiffusionField,
    path: WienerPath,
    horizon: float,
    m: int,
    chain: PropagatorChain | None = None,
) -> Trajectory:
    """Z(theta_t w) on [0, horizon] via the local linear step with sigma = 1.

    A supplied chain must span exactly [0, horizon] at the path resolution;
    without one, the chain built here is read once.
    """
    grid = span_grid(0.0, horizon, path.dt)
    if chain is None:
        chain = build_chain(field, path, grid, m, read_once=True)
    elif chain.grid.t0 != 0.0 or chain.grid.n_steps != grid.n_steps:
        raise ConfigurationError("supplied chain does not span [0, horizon]")
    noise = corrected_increments(chain, path)
    return _march(chain, state.z0, _ZERO, None, None, noise)


def global_form_reference(
    state: StationaryState,
    chain: PropagatorChain,
    path: WienerPath,
    t: float,
) -> np.ndarray:
    """Z(t) by the global representation (used as a consistency reference):

        U(t,0) z0 + U(t,0) w_t - int_0^t U(t,r) A(r) (w_t - w_r) dr.
    """
    m = chain.dim
    k_t = path.index_of(t)
    base = apply(chain, t, 0.0, state.z0 + _embedded(path.value_at(k_t), m))
    return base - corrector_integral(chain, path, 0.0, t)


@dataclass(frozen=True)
class StationarityEntry:
    t: float
    s: float
    residual: float
    relative: float  # residual / (1 + ||Z(t+s, w)||)
    truncation_bound: float


def stationarity_residual_table(
    field: DiffusionField,
    path: WienerPath,
    ts: list[float],
    ss: list[float],
    a: float,
    m: int,
) -> list[StationarityEntry]:
    """Residuals for the (t, s) grid, sharing one propagation per fiber."""
    left_state = construct_initial(field, path, a, m)
    horizon = max(t + s for t in ts for s in ss)
    left = propagate(left_state, field, path, horizon, m)
    entries = []
    for s in ss:
        shifted = wiener_shift(path, path.index_of(s))
        right_state = construct_initial(field, shifted, a, m)
        right = propagate(right_state, field, shifted, max(ts), m)
        for t in ts:
            diff = left.state_at(t + s) - right.state_at(t)
            residual = float(np.linalg.norm(diff))
            z_norm = float(np.linalg.norm(left.state_at(t + s)))
            entries.append(
                StationarityEntry(
                    t, s, residual, residual / (1.0 + z_norm),
                    left_state.truncation_bound,
                )
            )
    return entries


@dataclass(frozen=True)
class TemperednessRow:
    t: float
    norm: float
    discounted: tuple[float, ...]
    log_plus_over_t: float


@dataclass(frozen=True)
class TemperednessTable:
    rows: tuple[TemperednessRow, ...]
    gammas: tuple[float, ...]
    slope: float
    beta: float
    note: str = (
        "finite-horizon surrogate of the temperedness limit; "
        "computed on a sampled window only"
    )


def temperedness_diagnostic(
    field: DiffusionField,
    path: WienerPath,
    beta: float,
    gammas: list[float],
    horizon: float,
    a: float,
    m: int,
    n_ladder: int = 12,
    ladder_times: list[float] | None = None,
) -> TemperednessTable:
    """Y(t) = ||Z(theta_{-t} w)||_{X_beta} on a log-spaced ladder from
    min(1, ``horizon``) up to ``horizon`` (or on explicit ``ladder_times``).

    Also reports the least-squares slope of ln+ Y against t over the upper
    half of the ladder (temperedness pushes it toward zero).
    """
    if not 0.0 <= beta < 0.5:
        raise ConfigurationError("beta must lie in [0, 1/2)")
    spec = FractionalNormSpec(alpha=beta)
    raw = (
        np.asarray(ladder_times, dtype=float)
        if ladder_times is not None
        else np.geomspace(min(1.0, horizon), horizon, n_ladder)
    )
    ladder = sorted({max(1, int(round(t / path.dt))) for t in raw})
    rows = []
    for k in ladder:
        t = k * path.dt
        fiber = wiener_shift(path, -k)
        z = construct_initial(field, fiber, a, m).z0
        norm = fractional_norm(z, spec)
        discounted = tuple(norm * math.exp(-g * t) for g in gammas)
        log_plus = max(math.log(norm), 0.0) if norm > 0 else 0.0
        rows.append(TemperednessRow(t, norm, discounted, log_plus / t))
    upper = [r for r in rows if r.t >= rows[-1].t / 2.0]
    ts = np.array([r.t for r in upper])
    ys = np.array([max(math.log(r.norm), 0.0) if r.norm > 0 else 0.0 for r in upper])
    if len(upper) >= 2 and np.ptp(ts) > 0:
        tc = ts - ts.mean()
        slope = float((tc @ (ys - ys.mean())) / (tc @ tc))
    else:
        slope = 0.0
    return TemperednessTable(tuple(rows), tuple(gammas), slope, beta)
