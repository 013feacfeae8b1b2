"""The random non-autonomous diffusion coefficient and its Galerkin matrices.

The coefficient is E(x, t, w) = delta + amp * g(x) * tanh(zeta(t, w)), where
zeta is an exponentially weighted functional of the shifted path.  Because the
shift acts on paths by re-indexing, zeta computed at (path, t) is bitwise the
same as zeta computed at (shifted path, 0); the assembled matrices inherit
this exact structural stationarity.

Matrices live in the Dirichlet sine basis phi_n(x) = sqrt(2) sin(n pi x) on
(0, 1); entries are -int E phi_m' phi_n' dx = -(delta K0 + amp tanh(zeta) Kg),
with both stiffness parts in closed form.  The profile g is symmetric about
x = 1/2, so Kg couples odd n only to odd n and even n only to even n: its
off-parity entries are exactly 0, as is every off-diagonal entry of K0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .counters import count
from .errors import ConfigurationError, ShiftRangeError
from .noise import WienerPath, _as_index

PI_SQUARED = math.pi ** 2
# sup |g| of the profile one_plus_sine, the bound of the ellipticity check
PROFILE_SUP = 2.0
# inf g of one_plus_sine on [0, 1]
PROFILE_INF = 1.0


def one_plus_sine(x):
    """The spatial modulation profile g(x) = 1 + sin(pi x), sup|g| = 2."""
    return 1.0 + np.sin(np.pi * x)


@dataclass(frozen=True)
class DiffusionField:
    """Random uniformly elliptic diffusion coefficient on (0, 1).

    Ellipticity requires amp * PROFILE_SUP < delta; the guaranteed floor
    delta - amp * PROFILE_SUP is reported as ``ellipticity_floor``.
    """

    delta: float = 0.5
    amp: float = 0.2
    driver_decay: float = 1.0
    driver_horizon: float = 8.0

    def __post_init__(self) -> None:
        if not self.delta > 0:
            raise ConfigurationError("field.delta must be positive")
        if self.amp < 0:
            raise ConfigurationError("field.amp must be nonnegative")
        if not self.driver_decay > 0:
            raise ConfigurationError("field.kappa must be positive")
        if not self.driver_horizon > 0:
            raise ConfigurationError("field.driver_horizon must be positive")
        if self.amp * PROFILE_SUP >= self.delta:
            raise ConfigurationError(
                "uniform ellipticity violated: field.amp*sup|g| must be < field.delta"
            )

    @property
    def ellipticity_floor(self) -> float:
        return self.delta - self.amp * PROFILE_SUP

    @property
    def poincare_rate(self) -> float:
        """Guaranteed decay rate floor: ellipticity_floor * pi^2."""
        return self.ellipticity_floor * PI_SQUARED

    @property
    def spectral_ceiling(self) -> float:
        """Largest admissible Galerkin eigenvalue: -poincare_rate, 1e-6 slack."""
        return -self.poincare_rate * (1.0 - 1e-6)


@dataclass(frozen=True)
class FractionalNormSpec:
    """The order alpha of the norm ||(-Delta)^alpha u|| (Dirichlet Laplacian)."""

    alpha: float = 0.2

    def __post_init__(self) -> None:
        if not -0.5 <= self.alpha < 1.0:
            raise ConfigurationError("alpha must lie in [-1/2, 1)")


@lru_cache(maxsize=32)
def _driver_weights(kappa: float, horizon: float, dt: float) -> np.ndarray:
    """Trapezoid weights for int_{-horizon}^0 exp(kappa*s) f(s) ds on the grid."""
    steps = int(round(horizon / dt))
    s = (np.arange(steps + 1) - steps) * dt
    w = np.full(steps + 1, dt)
    w[0] = w[-1] = dt / 2.0
    return w * np.exp(kappa * s)


def _sine_cosine_moment(k: np.ndarray) -> np.ndarray:
    """c(k) = int_0^1 sin(pi x) cos(k pi x) dx for integer k."""
    out = np.zeros(k.shape)
    even = k % 2 == 0
    out[even] = 2.0 / (np.pi * (1.0 - k[even] ** 2))
    return out


@lru_cache(maxsize=8)
def _stiffness_parts(m: int) -> tuple[np.ndarray, np.ndarray]:
    """K0 = int phi_m' phi_n' dx and Kg = int g phi_m' phi_n' dx, exactly.

    K0 = diag((n pi)^2).  With sin(pi x) = g - 1, Kg = K0 + Ks where
    Ks_mn = m n pi^2 (c(m - n) + c(m + n)) and c(k) = int_0^1 sin(pi x)
    cos(k pi x) dx, which is 2 / (pi (1 - k^2)) for even k and 0 for odd k.
    Both parts are exactly symmetric.
    """
    n = np.arange(1, m + 1)
    k0 = np.diag((n * np.pi) ** 2)
    c = _sine_cosine_moment(np.subtract.outer(n, n))
    c += _sine_cosine_moment(np.add.outer(n, n))
    kg = k0 + (np.outer(n, n) * PI_SQUARED) * c
    return k0, kg


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


def fill_generators(
    field: DiffusionField, modulation: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write -(delta K0 + (amp mu_k) Kg) for each modulation mu_k into out
    (k, m, m), in parity order, and return out.

    Every generator is formed entry by entry as (amp mu_k) Kg + delta K0,
    then negated, so each entry has the same bits in any order and in any
    stack.  With amp = 0 each is -delta K0, whatever the modulation.
    """
    m = out.shape[-1]
    k0, kg = _parity_parts(m)
    if field.amp == 0.0:
        return np.multiply(-field.delta, k0, out=out)
    np.multiply((field.amp * modulation)[:, None, None], kg, out=out)
    out += field.delta * k0
    return np.negative(out, out=out)


def coefficient_floors(field: DiffusionField, modulation: np.ndarray) -> np.ndarray:
    """min_x E(x) at each modulation mu_k: delta + amp mu_k inf g for
    mu_k >= 0 and delta + amp mu_k sup g below."""
    low = np.where(modulation < 0.0, PROFILE_SUP * modulation, PROFILE_INF * modulation)
    return field.delta + field.amp * low


def assemble_operator(
    field: DiffusionField, t: float, path: WienerPath | None, m: int
) -> np.ndarray:
    """Galerkin matrix (A_h)_{mn} = -int E(x,t,w) phi_m' phi_n' dx at time t."""
    if m < 1:
        raise ConfigurationError("Galerkin dimension must be >= 1")
    if field.amp == 0.0:
        modulation = 0.0
    else:
        if path is None:
            raise ConfigurationError("a path is required when amp > 0")
        k = path.index_of(t)
        modulation = math.tanh(driver_values(field, path, k, k)[0])
    gen = fill_generators(field, np.array([modulation]), np.empty((1, m, m)))[0]
    natural = _parity_order(m)[1]
    return gen[np.ix_(natural, natural)]


@lru_cache(maxsize=8)
def fixed_laplacian_symbols(m: int, alpha: float) -> np.ndarray:
    """((n pi)^2)^alpha for n = 1..m (Dirichlet Laplacian reference), one
    read-only array per (m, alpha): every semilinear march reads it."""
    n = np.arange(1, m + 1, dtype=float)
    symbols = (n * np.pi) ** (2.0 * alpha)
    symbols.flags.writeable = False
    return symbols


def fractional_apply(m: int, alpha: float, vec: np.ndarray) -> np.ndarray:
    """Apply (-Delta)^alpha, the Dirichlet Laplacian of dimension m.

    alpha = 1 is allowed here (it is plain -Delta); norm specs stay below 1.
    """
    if not -0.5 <= alpha <= 1.0:
        raise ConfigurationError("alpha must lie in [-1/2, 1]")
    vec = np.asarray(vec, dtype=float)
    if vec.shape[-1] != m:
        raise ConfigurationError("vector length does not match dimension")
    if alpha == 0.0:
        return vec.copy()
    return vec * fixed_laplacian_symbols(m, alpha)


def fractional_norm(vec: np.ndarray, spec: FractionalNormSpec) -> float:
    """Euclidean norm of the fractional image; alpha = 0 gives the L2 norm."""
    vec = np.asarray(vec, dtype=float)
    return float(np.linalg.norm(fractional_apply(vec.shape[-1], spec.alpha, vec)))


def driver_values(
    field: DiffusionField, path: WienerPath, k_lo: int, k_hi: int
) -> np.ndarray:
    """zeta at every grid index k in [k_lo, k_hi] on the path's fiber.

    zeta at k is the trapezoid of exp(kappa*s) * (shifted path mode 1) over
    the window of ``driver_horizon`` ending at k: one dot product per index,
    read on the shared base array at the absolute row of k, so the value at
    (path, k) is bitwise the value at (wiener_shift(path, k), 0).
    """
    steps = _as_index(field.driver_horizon, path.dt, "driver_horizon")
    base = path.base
    i_lo = path.base_origin + k_lo
    i_hi = path.base_origin + k_hi
    if i_lo - steps < 0 or i_hi >= base.shape[0]:
        raise ShiftRangeError(
            f"driver windows need {steps} backward steps inside the sampled path"
        )
    weights = _driver_weights(field.driver_decay, field.driver_horizon, path.dt)
    count(driver_points=(k_hi - k_lo + 1) * len(weights))
    out = np.empty(k_hi - k_lo + 1)
    for j, i in enumerate(range(i_lo, i_hi + 1)):
        out[j] = (base[i - steps : i + 1, 0] - base[i, 0]) @ weights
    return out
