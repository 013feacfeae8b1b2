"""The stationary Ornstein-Uhlenbeck-type state and its diagnostics.

The stationary initial state is the truncated history integral

    z0 = int_{-a}^{0} U(0, r, w) A(theta_r w) w_r dr          (trapezoid).

Since w_0 = 0, this is minus ``pathwise.corrector_integral`` of the history
chain over [-a, 0], so it is accumulated by the one march and every history
step is checked for finiteness (NumericalError).  The state is propagated
along the shift by the local linear pathwise step with sigma = 1
(O(K) instead of re-evaluating the history integral at every output time),
on a chain from 0 that the caller builds on the fiber.  Every function here
that takes a chain reads its noise from the chain's own path.
The neglected tail is reported as ``truncation_bound``: the chain's
certified bound on ||U(0, -a)|| times an estimate of the tail integral's
size (see ``construct_initial``).  The temperedness ladder asks for each
rung's fiber by its step count, so a caller may draw every rung over its own
window instead of holding a path that reaches the deepest one.  The
temperedness slope is the least-squares fit of the observed order
(``pathwise._slope``).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .counters import count
from .errors import ConfigurationError
from .evolution import PropagatorChain, apply, build_chain, span_grid
from .noise import WienerPath, wiener_shift
from .operators import DiffusionField, FractionalNormSpec, fractional_norm
from .pathwise import (
    _ZERO,
    Trajectory,
    _embedded,
    _march,
    _slope,
    corrected_increments,
    corrector_integral,
)


@dataclass(frozen=True)
class StationaryState:
    """Truncated stationary state z0 with its a-posteriori tail bound."""

    z0: np.ndarray
    truncation_bound: float


def construct_initial(
    field: DiffusionField,
    path: WienerPath,
    a: float,
    m: int,
) -> StationaryState:
    """Trapezoid of U(0, r) A(r) w_r over [-a, 0]: since w_0 = 0, minus the
    corrector integral of the history chain over [-a, 0], which is read once,
    block by block.  The path must cover [-a, 0] (ShiftRangeError).

    The neglected tail is U(0, -a) T(-a), T(-a) the integral over
    (-inf, -a] at -a.  ``truncation_bound`` is the chain's certified
    ||U(0, -a)|| <= ``PropagatorChain.norm_bound`` times the estimate
    ||w(-a)|| + ||z0|| of ||T(-a)||, which stationarity suggests and nothing
    certifies.
    """
    if not a > 0:
        raise ConfigurationError("truncation horizon a must be positive")
    chain = build_chain(field, path, span_grid(-a, 0.0, path.dt), m)
    z0 = -corrector_integral(chain)
    count(history_steps=chain.grid.n_steps)
    w_a = path.value_at(path.index_of(-a))
    tail = float(np.linalg.norm(w_a)) + float(np.linalg.norm(z0))
    return StationaryState(z0, chain.norm_bound * tail)


def propagate(state: StationaryState, chain: PropagatorChain) -> Trajectory:
    """Z(theta_t w) over a chain from 0 via the local linear step with
    sigma = 1, w the chain's path.

    The chain is marched, so a caller that reads it again joins it first
    (``PropagatorChain.steps``).  Each block's noise rows are formed when
    the march reaches it.
    """
    if chain.grid.t0 != 0.0:
        raise ConfigurationError("a propagated chain must start at 0")
    return _march(chain, state.z0, _ZERO, None, None, corrected_increments)


def global_form_reference(state: StationaryState, chain: PropagatorChain) -> np.ndarray:
    """Z(t) at the end t of a chain over [0, t] by the global representation
    (used as a consistency reference), w the chain's path:

        U(t,0) z0 + U(t,0) w_t - int_0^t U(t,r) A(r) (w_t - w_r) dr.

    The chain is read twice, by ``apply`` and the corrector, so it is
    joined (``PropagatorChain.steps``).
    """
    if chain.grid.t0 != 0.0:
        raise ConfigurationError("the global form needs a chain over [0, t]")
    w = chain.path_rows()  # w[0] is the path's time zero
    t = chain.grid.n_steps * chain.grid.dt
    base = apply(chain, t, 0.0, state.z0 + _embedded(w[-1] - w[0], chain.dim))
    return base - corrector_integral(chain)


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
    """Residuals for the (t, s) grid, sharing one propagation per fiber.

    The left fiber's states at every t + s are copied out and its
    propagation dropped before the first shifted fiber's history is
    integrated, and each shifted fiber's propagation is dropped before the
    next one's, so the table holds one propagation at a time.
    """
    left_state = construct_initial(field, path, a, m)
    horizon = max(t + s for t in ts for s in ss)
    left_grid = span_grid(0.0, horizon, path.dt)
    left = propagate(left_state, build_chain(field, path, left_grid, m))
    lefts = {(t, s): left.state_at(t + s).copy() for s in ss for t in ts}
    del left
    entries = []
    right_grid = span_grid(0.0, max(ts), path.dt)
    for s in ss:
        shifted = wiener_shift(path, path.index_of(s))
        right_state = construct_initial(field, shifted, a, m)
        right = propagate(right_state, build_chain(field, shifted, right_grid, m))
        for t in ts:
            residual = float(np.linalg.norm(lefts[t, s] - right.state_at(t)))
            z_norm = float(np.linalg.norm(lefts[t, s]))
            entries.append(
                StationarityEntry(
                    t, s, residual, residual / (1.0 + z_norm),
                    left_state.truncation_bound,
                )
            )
        del right
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
    fiber: Callable[[int], WienerPath],
    dt: float,
    beta: float,
    gammas: list[float],
    horizon: float,
    a: float,
    m: int,
    n_ladder: int = 12,
    ladder_times: list[float] | None = None,
) -> TemperednessTable:
    """Y(t) = ||Z(theta_{-t} w)||_{X_beta} on a log-spaced ladder from
    min(1, ``horizon``) up to ``horizon`` (or on explicit ``ladder_times``),
    on the grid of step ``dt``.

    ``fiber(k)`` is theta_{-k dt} w, covering the history [-a, 0] with its
    driver lead: ``wiener_shift(path, -k)`` of a path that holds them all,
    or a window drawn for the rung alone (``sample_two_sided_path`` with
    offset -k), which keeps memory flat in the horizon.  Each rung's fiber
    is dropped before the next is asked for.

    Also reports the least-squares slope of ln+ Y against t over the upper
    half of the ladder (temperedness pushes it toward zero); NaN when that
    half has fewer than two rungs, since no slope is fitted through one.
    """
    if not 0.0 <= beta < 0.5:
        raise ConfigurationError("beta must lie in [0, 1/2)")
    spec = FractionalNormSpec(alpha=beta)
    raw = (
        np.asarray(ladder_times, dtype=float)
        if ladder_times is not None
        else np.geomspace(min(1.0, horizon), horizon, n_ladder)
    )
    ladder = sorted({max(1, int(round(t / dt))) for t in raw})
    rows = []
    for k in ladder:
        t = k * dt
        rung = fiber(k)
        if rung.dt != dt:
            raise ConfigurationError(
                f"fiber dt={rung.dt!r} is not the ladder's dt={dt!r}"
            )
        z = construct_initial(field, rung, a, m).z0
        del rung
        norm = fractional_norm(z, spec)
        discounted = tuple(norm * math.exp(-g * t) for g in gammas)
        log_plus = max(math.log(norm), 0.0) if norm > 0 else 0.0
        rows.append(TemperednessRow(t, norm, discounted, log_plus / t))
    upper = [r for r in rows if r.t >= rows[-1].t / 2.0]
    ts = np.array([r.t for r in upper])
    ys = np.array([max(math.log(r.norm), 0.0) if r.norm > 0 else 0.0 for r in upper])
    slope = _slope(ts, ys) if len(upper) >= 2 else math.nan
    return TemperednessTable(tuple(rows), tuple(gammas), slope, beta)
