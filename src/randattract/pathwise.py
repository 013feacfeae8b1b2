"""Pathwise mild integration of the linear and semilinear problems.

The linear noise update on one grid step is

    h_{k+1} = S_k h_k + sigma S_k dw_k - sigma * (corrector over the step),

where the corrector is the trapezoid (at path resolution, with vanishing
right endpoint) of U(t_{k+1}, s) A(s) (w_{t_{k+1}} - w_s).  The products
A(t_j) v at the nodes come from ``PropagatorChain.generator_rows``, and the
noise path must run at the chain resolution.  The semilinear
integrator adds the explicitly treated nonlinearity under the propagator
(exponential-Euler splitting); stiffness lives entirely in the propagator.
Every pathwise march (u here, Z in ``ou``, v = u - sigma Z in ``attractor``)
is the one loop ``_march``, which takes its steps
x_{k+1} = S_k (x_k + dt (F(x_k + shift) + f) + noise) in place.  So is the
trapezoid of ``corrector_integral`` over a whole chain: its weighted node
rows are the noise of a linear march from 0, formed and marched block by
block.  ``ou``'s history integral is that corrector.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    AlignmentError,
    ConfigurationError,
    NumericalError,
    ShiftRangeError,
)
from .evolution import PropagatorChain, TimeGrid, _check_resolution
from .noise import WienerPath
from .operators import (
    DiffusionField,
    FractionalNormSpec,
    fixed_laplacian_symbols,
)


class NonlinearityKind(Enum):
    ZERO = "zero"
    CUBIC_FISHER = "cubic_fisher"
    PURE_CUBIC = "pure_cubic"
    CUSTOM = "custom"


@dataclass(frozen=True)
class NonlinearitySpec:
    """Scalar drift nonlinearity with its dissipativity constants.

    CubicFisher F(u) = u - u^3 satisfies F(u)u <= -0.5|u|^4 + 0.5 (Young),
    PureCubic F(u) = -u^3 satisfies it with C0 = 1, C1 = 0.
    """

    kind: NonlinearityKind
    rho: float = 3.0
    C0: float = 0.5
    C1: float = 0.5
    CF: float = 3.0
    fn: Callable | None = None

    @classmethod
    def zero(cls) -> "NonlinearitySpec":
        return cls(NonlinearityKind.ZERO, rho=1.0, C0=0.0, C1=0.0, CF=0.0)

    @classmethod
    def cubic_fisher(cls) -> "NonlinearitySpec":
        return cls(NonlinearityKind.CUBIC_FISHER, rho=3.0, C0=0.5, C1=0.5, CF=3.0)

    @classmethod
    def pure_cubic(cls) -> "NonlinearitySpec":
        return cls(NonlinearityKind.PURE_CUBIC, rho=3.0, C0=1.0, C1=0.0, CF=3.0)

    # F on point values, picked once from the kind (None for ZERO): an enum
    # lookup costs about as much as a ufunc call on the de-aliased grid, and
    # nemytskii runs once per member-step
    _pointwise: Callable | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind is NonlinearityKind.CUSTOM:
            _check_odd_polynomial(self.fn, self.rho)
        pointwise = {
            NonlinearityKind.ZERO: None,
            NonlinearityKind.CUBIC_FISHER: _cubic_fisher,
            NonlinearityKind.PURE_CUBIC: _pure_cubic,
            NonlinearityKind.CUSTOM: self._custom,
        }[self.kind]
        object.__setattr__(self, "_pointwise", pointwise)

    @classmethod
    def custom(cls, fn: Callable, rho: float = 3.0) -> "NonlinearitySpec":
        """Scalar drift for probes (no dissipativity implied).

        fn must be an odd polynomial of degree at most rho, the drifts that
        ``nemytskii`` projects exactly (see ``dealias_node_count``); any other
        fn raises ConfigurationError here instead of aliasing silently.
        """
        return cls(NonlinearityKind.CUSTOM, rho=rho, C0=0.0, C1=0.0, CF=0.0, fn=fn)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        if self._pointwise is None:
            return np.zeros_like(u)
        return self._pointwise(u)

    def _custom(self, u: np.ndarray) -> np.ndarray:
        return np.asarray(self.fn(u), dtype=float)


# (u*u)*u, not u**3: libm pow costs about 20 times as much, and its speed
# depends on the values; the cube is formed and finished in one buffer
def _cubic_fisher(u: np.ndarray) -> np.ndarray:
    cube = u * u
    cube *= u
    return np.subtract(u, cube, out=cube)


def _pure_cubic(u: np.ndarray) -> np.ndarray:
    cube = u * u
    cube *= u
    return np.negative(cube, out=cube)


# probe points of _check_odd_polynomial: k/16 is exact, so the points are
# exact negatives of each other
_PROBE_POINTS = np.arange(-32, 33) / 16.0
# rounding level of the probe's fit, relative to max |fn|
_PROBE_TOL = 1e-10


def _check_odd_polynomial(fn: Callable | None, rho: float) -> None:
    """Refuse fn unless it is an odd polynomial of degree at most floor(rho).

    fn is probed once, on points symmetric about 0 in [-2, 2]: it must be odd
    there, and least squares in the odd powers up to floor(rho) must fit it
    to rounding level relative to max |fn|.
    """
    if fn is None:
        raise ConfigurationError("a custom nonlinearity needs a function")
    values = np.asarray(fn(_PROBE_POINTS.copy()), dtype=float)
    if values.shape != _PROBE_POINTS.shape or not _all_finite(values):
        raise ConfigurationError(
            "a custom nonlinearity must map an array to finite values of its shape"
        )
    scale = float(np.abs(values).max())
    if float(np.abs(values + values[::-1]).max()) > _PROBE_TOL * scale:
        raise ConfigurationError("a custom nonlinearity must be odd")
    powers = np.arange(1, int(math.floor(rho)) + 1, 2)
    basis = _PROBE_POINTS[:, None] ** powers
    coef = np.linalg.lstsq(basis, values, rcond=None)[0]
    if float(np.abs(basis @ coef - values).max()) > _PROBE_TOL * scale:
        raise ConfigurationError(
            f"a custom nonlinearity must be a polynomial of degree <= rho={rho!r}"
        )


# the linear march (ou.propagate) steps with F = 0
_ZERO = NonlinearitySpec.zero()


def dealias_node_count(m: int, rho: float) -> int:
    """Least n_sub with (rho + 1) m < 2 n_sub.

    For an odd polynomial F of degree rho and an m-mode input u, the
    integrand F(u) phi_n is a cosine polynomial of degree (rho + 1) m, so the
    trapezoid on this many subintervals integrates it exactly (2m + 1 at
    rho = 3).  Even powers leave sine terms, which no count makes exact.
    """
    return int(math.floor((rho + 1.0) * m / 2.0)) + 1


@lru_cache(maxsize=16)
def _projection(m: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Basis values at the uniform interior nodes of the de-aliased grid, and
    the same values times the trapezoid weight 1/n_sub, with n_sub =
    ``dealias_node_count(m, rho)``.

    Trapezoid on n_sub subintervals of [0,1]; sine expansions vanish at the
    boundary, so only interior nodes carry weight 1/n_sub.  Exact for
    cosine-polynomial integrands of degree < 2*n_sub, so the projection of an
    odd degree-rho polynomial of an m-mode input is exact.
    """
    n_sub = dealias_node_count(m, rho)
    nodes = np.arange(1, n_sub) / n_sub
    n = np.arange(1, m + 1)
    basis = math.sqrt(2.0) * np.sin(np.outer(nodes, n) * np.pi)
    return basis, basis / n_sub


@dataclass(frozen=True)
class SemilinearProblem:
    """du = [A(theta_t w) u + F(u) + f] dt + sigma dW on (0,1), Dirichlet."""

    field: DiffusionField
    nonlinearity: NonlinearitySpec
    forcing: np.ndarray | None
    sigma: float
    u0: np.ndarray
    blowup_threshold: float = 1e6
    norm_spec: FractionalNormSpec = field(default_factory=FractionalNormSpec)

    def __post_init__(self) -> None:
        if self.sigma < 0:
            raise ConfigurationError("sigma must be nonnegative")
        if not self.blowup_threshold > 0:
            raise ConfigurationError("blowup_threshold must be positive")
        if not _all_finite(np.asarray(self.u0, dtype=float)):
            raise ConfigurationError("u0 must be finite")
        forcing = self.forcing
        if forcing is not None and not _all_finite(np.asarray(forcing, dtype=float)):
            raise ConfigurationError("forcing must be finite")


@dataclass(eq=False)
class Trajectory:
    """States on a uniform grid plus a completion / blow-up status."""

    grid: TimeGrid
    states: np.ndarray  # (recorded_steps + 1, m)
    status: str = "completed"  # "completed" | "blowup"
    blowup_time: float | None = None

    @property
    def times(self) -> np.ndarray:
        return self.grid.t0 + np.arange(self.states.shape[0]) * self.grid.dt

    def state_at(self, t: float) -> np.ndarray:
        k = self.grid.index(t)
        if k >= self.states.shape[0]:
            raise AlignmentError(f"t={t!r} is past the recorded states")
        return self.states[k]

    def l2_norms(self) -> np.ndarray:
        return np.sqrt(np.einsum("ij,ij->i", self.states, self.states))


def _all_finite(x: np.ndarray) -> bool:
    # np.all(np.isfinite(x)) without the Python-level reductions of np.all
    # and ndarray.all: 1.3 us in place of 4.7 us on 64 coefficients (NumPy
    # 2.4), and every block of a linear march makes one of these checks
    return np.count_nonzero(np.isfinite(x)) == x.size


def nemytskii(nonlinearity: NonlinearitySpec, vec: np.ndarray) -> np.ndarray:
    """Evaluate F pointwise on the de-aliased grid and project back.

    The grid has ``dealias_node_count(m, rho)`` subintervals, the least count
    for which the projection of an odd polynomial F of degree rho of an
    m-mode input is exact up to rounding (no aliasing below 2*n_sub).  The
    input is not checked: in a march it is the previous step's checked
    output, and a non-finite image fails that step's check.
    """
    vec = np.asarray(vec, dtype=float)
    pointwise = nonlinearity._pointwise
    if pointwise is None:
        return np.zeros_like(vec)
    basis, weighted = _projection(vec.shape[-1], nonlinearity.rho)
    # dot, not @: the same BLAS gemv with about 1 us less dispatch a call
    return pointwise(basis.dot(vec)).dot(weighted)


def corrector_integral(chain: PropagatorChain, path: WienerPath) -> np.ndarray:
    """Trapezoid of U(t_b, s) A(s) (w_{t_b} - w_s) over the chain's nodes s,
    from its first node t_a to its last, t_b.

    The weighted rows at the nodes before t_b are the noise of a linear
    ``_march`` from 0, crossed block by block: each block forms its own
    rows (``generator_rows``), marches them and passes on its last state,
    and the march checks every step for finiteness (NumericalError) and
    frees each block of a chain not joined behind it.  The last block also
    forms the s = t_b row, A(t_b) 0, which is added last.  So no array of
    the chain's length is formed.  A shorter span takes a chain over that
    span.
    """
    n, dt = chain.grid.n_steps, chain.grid.dt
    o = _base_row(chain, path)
    end = path.base[o + n]
    x = np.zeros(chain.dim)
    if n == 0:  # the one node's row, A(t_b) 0 dt/2, is 0
        return x
    lo = 0
    for block in chain.blocks():
        hi = lo + block.grid.n_steps
        rows = block.generator_rows(end - path.base[o + lo : o + hi + (hi == n)])
        weights = np.full(len(rows), dt)
        if lo == 0:
            weights[0] /= 2.0
        if hi == n:
            weights[-1] /= 2.0
        rows *= weights[:, None]
        x = _march(block, x, _ZERO, None, None, rows).states[-1]
        lo = hi
    return x + rows[-1]


def _embedded(values: np.ndarray, m: int) -> np.ndarray:
    """Embed noise-mode coefficients into the first coordinates of R^m."""
    mw = values.shape[-1]
    if mw > m:
        raise ConfigurationError("noise mode count exceeds Galerkin dimension")
    if mw == m:
        return values
    out = np.zeros(values.shape[:-1] + (m,))
    out[..., :mw] = values
    return out


def _base_row(chain: PropagatorChain, path: WienerPath) -> int:
    """The base row of the chain's first node on ``path``.

    The path must run at the chain resolution, or its increments are not the
    chain's steps, and it must hold every chain node.
    """
    _check_resolution(path, chain.grid)
    o = path.base_origin + path.index_of(chain.grid.t0)
    if o + chain.grid.n_steps >= path.base.shape[0]:
        raise ShiftRangeError("chain nodes run past the sampled path")
    return o


def corrected_increments(chain: PropagatorChain, path: WienerPath) -> np.ndarray:
    """dw_k - (dt/2) A(t_k) dw_k for every chain step; shape (n_steps, m).

    The noise term of the linear pathwise step before the sigma factor.  It
    depends on the chain and the path only, so all members integrated on one
    chain share it: it is kept on the chain when ``path`` is the chain's own
    path.  A block forms and keeps its own rows, bitwise those of the
    chain's at the same steps (each row is its own products), so members
    marched block by block share each block's rows.  The generator rows
    come from one ``generator_rows`` call.
    """
    if path is chain.path and chain._increments is not None:
        return chain._increments
    n = chain.grid.n_steps
    o = _base_row(chain, path)
    dw = path.base[o + 1 : o + n + 1] - path.base[o : o + n]
    rows = chain.generator_rows(dw)
    # dw - (dt/2) rows, formed in place: one (n_steps, m) temporary
    rows *= chain.grid.dt / 2.0
    out = _embedded(dw, chain.dim)
    out -= rows
    if path is chain.path:
        chain._increments = out
    return out


def integrate_semilinear(
    problem: SemilinearProblem,
    chain: PropagatorChain,
    path: WienerPath | None = None,
) -> Trajectory:
    """March the pathwise mild update over the chain grid with blow-up checks."""
    if path is None:
        path = chain.path
    m = chain.dim
    u0 = np.asarray(problem.u0, dtype=float)
    if u0.shape != (m,):
        raise ConfigurationError("u0 length must equal the Galerkin dimension")
    f = problem.forcing
    if f is not None and f.shape != (m,):
        raise ConfigurationError("forcing length must equal the Galerkin dimension")
    sigma = problem.sigma
    if sigma != 0.0 and path is None:
        raise ConfigurationError("a path is required when sigma > 0")
    noise = sigma * corrected_increments(chain, path) if sigma != 0.0 else None
    # the blow-up norm is fractional_norm with the fixed-Laplacian reference
    symbols = fixed_laplacian_symbols(m, problem.norm_spec.alpha)
    blowup = (symbols, problem.blowup_threshold)
    return _march(chain, u0, problem.nonlinearity, f, None, noise, blowup)


# a blowing-up state overflows in the march; its blow-up and finiteness
# checks catch that, so NumPy's warning would only add lines to stderr
@np.errstate(over="ignore", invalid="ignore")
def _march(
    chain: PropagatorChain,
    x0: np.ndarray,
    nonlinearity: NonlinearitySpec,
    forcing: np.ndarray | None,
    shifts: np.ndarray | None,
    noise: np.ndarray | None,
    blowup: tuple[np.ndarray, float] | None = None,
) -> Trajectory:
    """x_{k+1} = S_k (x_k + dt (F(x_k + shifts[k]) + f) + noise[k]) over the
    chain grid, every state recorded, walking the chain block by block
    (``PropagatorChain.blocks``), so a chain not joined is freed behind it.

    Every pathwise march (u, Z and v = u - sigma Z) is this loop.  ``noise``
    comes scaled by sigma; absent terms are skipped, not added as zeros, so
    every march keeps its arithmetic bit for bit.  The states are checked
    once per block (``_first_blowup``), after the block is marched, and the
    result is that of a check after every state: a non-finite state raises
    NumericalError, and with ``blowup = (symbols, threshold)`` the march
    stops at the first state whose weighted norm ||symbols * x|| exceeds
    threshold, status "blowup".  The states marched past it are dropped.
    """
    grid = chain.grid
    dt = grid.dt
    nonlinear = nonlinearity._pointwise is not None
    f_dt = None if forcing is None else dt * forcing
    states = np.empty((grid.n_steps + 1, chain.dim))
    states[0] = x0
    k = 0
    for block in chain.blocks():
        lo = k
        for step in block.steps:
            x = states[k]
            if nonlinear:
                # nemytskii's output is fresh, so the stage is built on it in
                # place
                stage = nemytskii(
                    nonlinearity, x if shifts is None else x + shifts[k]
                )
                stage *= dt
                stage += x
            else:
                stage = x.copy()
            if f_dt is not None:
                stage += f_dt
            if noise is not None:
                stage += noise[k]
            k += 1
            np.dot(step, stage, out=states[k])  # matmul's gemv, dispatched faster
        first = _first_blowup(states[lo + 1 : k + 1], blowup)
        if first is not None:
            k = lo + 1 + first
            return Trajectory(
                grid,
                states[: k + 1].copy(),
                status="blowup",
                blowup_time=grid.t0 + k * dt,
            )
    return Trajectory(grid, states)


# a weighted norm the block screen computes passes without the exact check
# only this far (relative) below the squared limit: the screen and the exact
# norm sum the same squares in another order, which moves the sum by a few
# ulps times the dimension
_SCREEN_MARGIN = 1e-9


def _first_blowup(
    block: np.ndarray, blowup: tuple[np.ndarray, float] | None
) -> int | None:
    """The index of the first state of ``block`` that blows up, or None;
    NumericalError if a non-finite state comes first.

    The rule is the one per-state check: a state whose weighted norm
    r = sqrt(w.dot(w)), w = symbols * x, is not at most the limit
    min(threshold, largest float) raises if it is not finite and blows up if
    r > threshold.  One vectorized screen of the block's squared norms clears
    every state safely below the limit (a NaN or infinite entry makes its
    sum fail the screen); the exact check runs from the first state it does
    not clear.  Without a threshold every state must be finite.
    """
    if blowup is None:
        if not _all_finite(block):
            raise NumericalError("non-finite state during integration")
        return None
    symbols, threshold = blowup
    # the cap keeps the squared bound below overflow
    cap = min(threshold, 1e154)
    w = block * symbols
    cleared = np.einsum("ij,ij->i", w, w) <= cap * cap * (1.0 - _SCREEN_MARGIN)
    if np.count_nonzero(cleared) == cleared.size:
        return None
    limit = min(threshold, sys.float_info.max)
    for i in range(int(np.argmin(cleared)), block.shape[0]):
        x = block[i]
        w = x * symbols
        r = math.sqrt(w.dot(w))
        if not r <= limit:
            if not _all_finite(x):
                raise NumericalError("non-finite state during integration")
            if r > threshold:
                return i
    return None


def observed_order(dts: list[float], errors: list[float]) -> float:
    """Least-squares slope of log2(error) against log2(dt)."""
    x = np.log2(np.asarray(dts, dtype=float))
    y = np.log2(np.asarray(errors, dtype=float))
    x = x - x.mean()
    return float((x @ (y - y.mean())) / (x @ x))
