"""Discrete parabolic evolution families U(t, s, w).

A chain holds one symmetric positive definite step matrix per grid interval,
S_k = exp(dt * A(t_k + dt/2)), built by eigendecomposition of the symmetric
midpoint-frozen generator.  Every generator is block diagonal between the
odd-n and the even-n sine modes, so it is decomposed in parity order, where
LAPACK splits the two blocks, and the step is put back in natural order.
Applying the chain is a left-to-right sequence of matrix-vector products, so
the composition law U(t,s)U(s,r) = U(t,r) holds bitwise by construction.

The midpoint coefficient uses the average of the endpoint driver values
(the driver is defined on grid points only); this keeps second-order accuracy
for smooth coefficients and exact shift-covariance on aligned grids.

The generator at the grid nodes, A(t_k) = -(delta K0 + amp tanh(zeta_k) Kg),
is never formed as a matrix: ``PropagatorChain.generator_rows`` applies it to
noise vectors node by node from the two stiffness parts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    AlignmentError,
    ConfigurationError,
    DefinitenessError,
    NumericalError,
    OrderingError,
)
from .noise import WienerPath, _as_index, wiener_shift
from .operators import (
    DiffusionField,
    _stiffness_parts,
    assemble_operator,
    driver_values,
)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t0 + k*dt, k = 0..n_steps."""

    t0: float
    n_steps: int
    dt: float

    def __post_init__(self) -> None:
        if self.n_steps < 0 or not self.dt > 0:
            raise ConfigurationError("grid needs n_steps >= 0 and dt > 0")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(self.n_steps + 1) * self.dt

    def index(self, t: float) -> int:
        k = _as_index(t - self.t0, self.dt, "t - t0")
        if not 0 <= k <= self.n_steps:
            raise AlignmentError(f"t={t!r} outside the chain grid")
        return k


def span_grid(t0: float, t1: float, dt: float) -> TimeGrid:
    n = _as_index(t1 - t0, dt, "t1 - t0")
    if n < 0:
        raise AlignmentError(f"span from t0={t0!r} to t1={t1!r} is negative")
    return TimeGrid(t0, n, dt)


def _check_resolution(path: WienerPath, grid: TimeGrid) -> None:
    """A path read at the grid nodes must run at the grid's dt."""
    if abs(path.dt - grid.dt) > 1e-12 * grid.dt:
        raise AlignmentError(
            f"path dt={path.dt!r} differs from the chain resolution dt={grid.dt!r}"
        )


@lru_cache(maxsize=8)
def _parity_order(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode indices in parity order (odd n first, then even n), and the
    index that puts them back in natural order."""
    order = np.r_[0:m:2, 1:m:2]
    return order, np.argsort(order)


@lru_cache(maxsize=8)
def _parity_parts(m: int) -> tuple[np.ndarray, np.ndarray]:
    """K0 and Kg in parity order."""
    order = _parity_order(m)[0]
    k0, kg = _stiffness_parts(m)
    return k0[np.ix_(order, order)], kg[np.ix_(order, order)]


def _exp_steps(gens: np.ndarray, dt: float, ceiling: float = math.inf) -> None:
    """Overwrite each generator A of gens (k, m, m), given in parity order,
    with its step exp(dt A) in natural order; A's spectrum must stay at or
    below ``ceiling``.

    exp(dt A) = H H^T with H = Q e^{dt lam / 2}, formed in place of eigh's Q,
    whose rows then go back to natural order in place, one matrix at a time
    (a block-sized gather would double the block's memory).  The reordering
    is a permutation similarity, so the step is exact for any symmetric
    generator; matmul runs H H^T as syrk, so each step is exactly symmetric.
    Each step is computed on its own, so it does not depend on the other
    matrices of gens.
    """
    lam, q = np.linalg.eigh(gens)
    top = float(lam[:, -1].max())
    if top > ceiling:
        raise DefinitenessError(
            f"spectral bound violated: max eigenvalue {top} > {ceiling}"
        )
    q *= np.exp((0.5 * dt) * lam)[:, None, :]
    natural = _parity_order(gens.shape[-1])[1]
    for h in q:
        h[:] = h[natural]
    np.matmul(q, np.swapaxes(q, 1, 2), out=gens)


@dataclass(eq=False)
class PropagatorChain:
    """U(t, s, w) as an indexed product of per-step propagator matrices."""

    grid: TimeGrid
    steps: np.ndarray  # (n_steps, m, m)
    field: DiffusionField
    path: WienerPath | None
    # noise increments on ``path``, kept by pathwise.corrected_increments
    _increments: np.ndarray | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.steps.shape[-1]

    def __post_init__(self) -> None:
        if self.steps.ndim != 3 or self.steps.shape[1] != self.steps.shape[2]:
            raise ConfigurationError("steps must be (n_steps, m, m)")
        if self.steps.shape[0] != self.grid.n_steps:
            raise ConfigurationError("step count does not match the grid")

    def generator_rows(self, k: int, vecs: np.ndarray) -> np.ndarray:
        """A(t_{k+i}) vecs[i] at the grid nodes k, k+1, ...; shape (len(vecs), m).

        ``vecs`` holds coefficients of the first mw <= m modes.  A row is
        -(delta K0[:, :mw] v + amp tanh(zeta) Kg[:, :mw] v), the zeta of all rows
        from one ``driver_values`` call on the chain's path.  Each row is its
        own pair of products, so it does not depend on the block it is in.
        """
        n, mw = vecs.shape
        if mw > self.dim:
            raise ConfigurationError("noise mode count exceeds Galerkin dimension")
        if k < 0 or k + n > self.grid.n_steps + 1:
            raise AlignmentError("generator rows outside the chain grid")
        out = np.empty((n, self.dim))
        k0, kg = (part[:, :mw] for part in _stiffness_parts(self.dim))
        delta, amp = self.field.delta, self.field.amp
        if amp == 0.0:
            for i, v in enumerate(vecs):
                out[i] = -(delta * (k0 @ v))
            return out
        k_path = self.path.index_of(self.grid.t0) + k
        zetas = driver_values(self.field, self.path, k_path, k_path + n - 1)
        for i, v in enumerate(vecs):
            out[i] = -(delta * (k0 @ v) + (amp * math.tanh(zetas[i])) * (kg @ v))
        return out


# step matrices assembled and eigendecomposed together in build_chain
_BUILD_BLOCK = 128

# build_chain's width: the steps split into contiguous parts of whole blocks,
# the first built in the calling thread and the others on the pool (NumPy's
# eigh, matmul and ufuncs release the GIL).  Width 1 builds serially; the CLI
# sets the width from --threads
_workers = 1
_pool: ThreadPoolExecutor | None = None


def set_chain_workers(n: int) -> None:
    """Build the steps of each chain on n threads, the caller's included."""
    global _workers, _pool
    if n < 1:
        raise ConfigurationError("chain workers must be >= 1")
    if _pool is not None:
        _pool.shutdown()
    _workers = n
    _pool = ThreadPoolExecutor(max_workers=n - 1) if n > 1 else None


def build_chain(
    field: DiffusionField,
    path: WienerPath | None,
    grid: TimeGrid,
    m: int,
) -> PropagatorChain:
    """Assemble midpoint-frozen step matrices over the grid.

    With amp > 0 the chain grid must run at the path resolution (the driver
    is read at path grid points).
    """
    if m < 1:
        raise ConfigurationError("Galerkin dimension must be >= 1")
    k_steps = grid.n_steps
    if field.amp == 0.0:
        # -(delta K0), the bits of _matrix_from_modulation, in parity order
        single = (-field.delta * _parity_parts(m)[0])[None]
        _exp_steps(single, grid.dt, field.spectral_ceiling)
        steps = np.broadcast_to(single[0], (k_steps, m, m))
        return PropagatorChain(grid, steps, field, path)

    if path is None:
        raise ConfigurationError("a path is required when amp > 0")
    _check_resolution(path, grid)
    k0 = path.index_of(grid.t0)
    if k_steps == 0:
        return PropagatorChain(grid, np.empty((0, m, m)), field, path)
    zetas = driver_values(field, path, k0, k0 + k_steps)
    modulation = np.tanh((zetas[:-1] + zetas[1:]) / 2.0)

    steps = np.empty((k_steps, m, m))
    n_blocks = -(-k_steps // _BUILD_BLOCK)
    n_parts = min(_workers, n_blocks)
    cuts = [min(i * n_blocks // n_parts * _BUILD_BLOCK, k_steps) for i in range(n_parts + 1)]
    args = (field, m, grid.dt, modulation, steps)
    parts = [_pool.submit(_build_part, lo, hi, *args) for lo, hi in zip(cuts[1:], cuts[2:])]
    # every part ends before the call returns or raises, and the first
    # failing part raises, as the serial loop would
    try:
        _build_part(cuts[0], cuts[1], *args)
    finally:
        wait(parts)
    for part in parts:
        part.result()
    return PropagatorChain(grid, steps, field, path)


def _build_part(
    lo: int,
    hi: int,
    field: DiffusionField,
    m: int,
    dt: float,
    modulation: np.ndarray,
    steps: np.ndarray,
) -> None:
    """Steps lo..hi-1 of a chain, block by block.

    A block is assembled in parity order in its own slots of ``steps``;
    eigh's eigenvector array is the one block-sized temporary.
    """
    k0, kg = _parity_parts(m)
    dk0 = field.delta * k0
    for b_lo in range(lo, hi, _BUILD_BLOCK):
        b_hi = min(b_lo + _BUILD_BLOCK, hi)
        mats = steps[b_lo:b_hi]
        # -(delta K0 + (amp mu_k) Kg), the bits of _matrix_from_modulation
        np.multiply((field.amp * modulation[b_lo:b_hi])[:, None, None], kg, out=mats)
        mats += dk0
        np.negative(mats, out=mats)
        _exp_steps(mats, dt, field.spectral_ceiling)


def apply(chain: PropagatorChain, t: float, s: float, vec: np.ndarray) -> np.ndarray:
    """U(t, s) vec by sequential step applications; apply(t, t, .) is identity."""
    ks, kt = chain.grid.index(s), chain.grid.index(t)
    if kt < ks:
        raise OrderingError(f"apply requires t >= s, got t={t!r} < s={s!r}")
    out = np.asarray(vec, dtype=float)
    if kt == ks:
        return out.copy()
    for k in range(ks, kt):
        out = chain.steps[k] @ out
    return out


def chain_matrix(chain: PropagatorChain, t: float, s: float) -> np.ndarray:
    """The full matrix of U(t, s): ``apply`` to the identity (S @ I is exact)."""
    return apply(chain, t, s, np.eye(chain.dim))


def operator_norm(mat: np.ndarray) -> float:
    return float(np.linalg.norm(mat, 2))


def cocycle_residual(
    field: DiffusionField,
    path: WienerPath,
    t: float,
    s: float,
    dt: float,
    m: int,
) -> float:
    """|| U(t+s, s, w) - U(t, 0, theta_s w) ||_2 on aligned grids.

    Structural stationarity makes the frozen coefficients coincide, so the
    two factor sequences are identical and the residual sits at rounding level.
    """
    if t < 0 or s < 0:
        raise OrderingError("cocycle check needs t, s >= 0")
    chain_a = build_chain(field, path, span_grid(s, t + s, dt), m)
    shifted = wiener_shift(path, path.index_of(s))
    chain_b = build_chain(field, shifted, span_grid(0.0, t, dt), m)
    ua = chain_matrix(chain_a, t + s, s)
    ub = chain_matrix(chain_b, t, 0.0)
    return operator_norm(ua - ub)


@dataclass(frozen=True)
class DecayFit:
    """Envelope ||U(t,s)|| <= C_hat * exp(-lambda_hat (t-s)) over the samples."""

    C_hat: float
    lambda_hat: float


def decay_fit(
    chain: PropagatorChain, sample_pairs: list[tuple[float, float]]
) -> DecayFit:
    """Minimal C_hat >= 1 making the envelope hold on every sampled pair.

    The rate is pinned to the Poincare rate of the field's ellipticity floor
    rather than jointly fitted.
    """
    if not sample_pairs:
        raise ConfigurationError("decay_fit needs a nonempty sample set")
    rate = chain.field.poincare_rate
    c = 1.0
    for t, s in sample_pairs:
        if t < s:
            raise OrderingError(f"pair has t={t!r} < s={s!r}")
        norm = operator_norm(chain_matrix(chain, t, s))
        c = max(c, norm * math.exp(rate * (t - s)))
    return DecayFit(C_hat=c, lambda_hat=rate)


def smoothing_estimate(
    chain: PropagatorChain,
    alpha: float,
    sample_pairs: list[tuple[float, float]],
    lambda_hat: float | None = None,
) -> float:
    """Empirical constant sup (t-s)^alpha e^{lambda (t-s)} ||(-A(t))^alpha U(t,s)||."""
    if not 0.0 < alpha < 1.0:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if not sample_pairs:
        raise ConfigurationError("smoothing_estimate needs a nonempty sample set")
    rate = chain.field.poincare_rate if lambda_hat is None else lambda_hat
    best = 0.0
    for t, s in sample_pairs:
        if t <= s:
            raise OrderingError("smoothing pairs need t > s")
        u = chain_matrix(chain, t, s)
        gen = assemble_operator(chain.field, t, chain.path, chain.dim)
        lam, q = np.linalg.eigh(gen)
        scale = float(np.abs(gen).max())
        if float(np.abs(gen @ q - q * lam).max()) > 1e-10 * max(scale, 1e-300):
            raise NumericalError("eigendecomposition residual too large")
        frac = (q * ((-lam) ** alpha)) @ q.T
        val = (t - s) ** alpha * math.exp(rate * (t - s)) * operator_norm(frac @ u)
        best = max(best, val)
    return best


def contractivity_margin(chain: PropagatorChain) -> float:
    """min over steps of (bound - ||S_k||_2); negative means a violation."""
    bound = math.exp(-chain.field.poincare_rate * chain.grid.dt * (1.0 - 1e-6))
    worst = math.inf
    for k in range(chain.grid.n_steps):
        worst = min(worst, bound - operator_norm(chain.steps[k]))
    return worst
