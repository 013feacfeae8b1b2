"""Two-sided Q-Wiener paths, the Wiener shift, and path diagnostics.

A path is stored as one immutable ``base`` array of raw sampled values plus an
``origin`` index marking where the path's own time zero sits.  Path values are
always ``base[origin + k] - base[origin]``, so shifting the path is a pure
re-indexing: shifted paths share the base array, the shift group law holds
bitwise, and any functional evaluated through shifted views is exactly
shift-covariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ConfigurationError, ShiftRangeError

_REL_TOL = 1e-9


def _as_index(value: float, dt: float, what: str) -> int:
    """Map a time to its integer grid index, refusing off-grid values."""
    k = int(round(value / dt))
    if abs(value - k * dt) > _REL_TOL * max(1.0, abs(value)):
        raise AlignmentError(f"{what}={value!r} is not a multiple of dt={dt!r}")
    return k


@dataclass(frozen=True)
class NoiseSpectrum:
    """Diagonal trace-class covariance in the Dirichlet sine basis.

    Mode n carries variance weight q_n = n**(-2*decay_exponent); the decay
    exponent must exceed 1/2 so the weights are summable.
    """

    mode_count: int
    decay_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.mode_count < 1:
            raise ConfigurationError("mode_count must be a positive integer")
        if not self.decay_exponent > 0.5:
            raise ConfigurationError(
                "decay_exponent must be > 1/2 (trace-class covariance)"
            )

    @property
    def weights(self) -> np.ndarray:
        n = np.arange(1, self.mode_count + 1, dtype=float)
        return n ** (-2.0 * self.decay_exponent)


@dataclass(frozen=True)
class ShiftIndex:
    """A shift by ``offset`` grid steps, i.e. time s = offset*dt."""

    offset: int


@dataclass(frozen=True)
class WienerPath:
    """A sampled two-sided Q-Wiener trajectory on a uniform grid.

    ``base`` has shape (n_points, mode_count); row ``base_origin`` is the
    path's time zero.  Values are defined relative to that anchor, so
    w_n(0) = 0 identically even for shifted views.
    """

    base: np.ndarray = field(repr=False)
    base_origin: int
    dt: float
    spectrum: NoiseSpectrum
    base_seed: int

    def __post_init__(self) -> None:
        if self.base.ndim != 2 or self.base.shape[1] != self.spectrum.mode_count:
            raise ConfigurationError("base must be (n_points, mode_count)")
        if not 0 <= self.base_origin < self.base.shape[0]:
            raise ConfigurationError("base_origin outside the sampled window")
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")

    # -- grid geometry -----------------------------------------------------

    @property
    def mode_count(self) -> int:
        return self.spectrum.mode_count

    @property
    def lo(self) -> int:
        """Smallest grid index (t_lo = lo*dt <= 0)."""
        return -self.base_origin

    @property
    def hi(self) -> int:
        """Largest grid index (t_hi = hi*dt >= 0)."""
        return self.base.shape[0] - 1 - self.base_origin

    @property
    def t_lo(self) -> float:
        return self.lo * self.dt

    @property
    def t_hi(self) -> float:
        return self.hi * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1) * self.dt

    def index_of(self, t: float) -> int:
        k = _as_index(t, self.dt, "t")
        if not self.lo <= k <= self.hi:
            raise ShiftRangeError(
                f"t={t!r} outside sampled window [{self.t_lo!r}, {self.t_hi!r}]"
            )
        return k

    # -- values ------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Materialized path values w_n(t_k), anchored so w_n(0) = 0."""
        return self.base - self.base[self.base_origin]

    def value_at(self, k: int) -> np.ndarray:
        if not self.lo <= k <= self.hi:
            raise ShiftRangeError(f"grid index {k} outside [{self.lo}, {self.hi}]")
        return self.base[self.base_origin + k] - self.base[self.base_origin]

    def difference(self, j: int, k: int) -> np.ndarray:
        """w(t_k) - w(t_j), computed origin-free (bitwise shift-invariant)."""
        if not (self.lo <= j <= self.hi and self.lo <= k <= self.hi):
            raise ShiftRangeError("difference window outside the sampled grid")
        return self.base[self.base_origin + k] - self.base[self.base_origin + j]

    def increment(self, k: int) -> np.ndarray:
        """w(t_{k+1}) - w(t_k); origin-free."""
        return self.difference(k, k + 1)


def sample_two_sided_path(
    spectrum: NoiseSpectrum, t_lo: float, t_hi: float, dt: float, seed: int
) -> WienerPath:
    """Sample w_n on a uniform grid covering [t_lo, t_hi] with 0 on the grid.

    Forward (t >= 0) and backward (t <= 0) parts are built from disjoint
    increment streams, both anchored at w_n(0) = 0; the backward part cumulates
    independent increments from 0 toward t_lo.
    """
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    if not (t_lo <= 0.0 <= t_hi):
        raise ConfigurationError("grid must satisfy t_lo <= 0 <= t_hi")
    n_back = -_as_index(t_lo, dt, "t_lo")
    n_fwd = _as_index(t_hi, dt, "t_hi")

    scale = np.sqrt(spectrum.weights * dt)
    rng_fwd = np.random.default_rng([seed, 0])
    rng_back = np.random.default_rng([seed, 1])

    base = np.empty((n_back + n_fwd + 1, spectrum.mode_count))
    base[n_back] = 0.0
    if n_fwd:
        inc = rng_fwd.standard_normal((n_fwd, spectrum.mode_count)) * scale
        base[n_back + 1 :] = np.cumsum(inc, axis=0)
    if n_back:
        inc = rng_back.standard_normal((n_back, spectrum.mode_count)) * scale
        base[:n_back] = np.cumsum(inc, axis=0)[::-1]
    base.setflags(write=False)
    return WienerPath(base, n_back, dt, spectrum, seed)


def wiener_shift(path: WienerPath, shift: ShiftIndex | int) -> WienerPath:
    """The Wiener shift: (shifted w)(t) = w(t + s) - w(s) with s = offset*dt.

    Pure re-indexing of the shared base array; the shifted window must still
    contain time zero, otherwise the caller has to sample a wider path.
    """
    offset = shift.offset if isinstance(shift, ShiftIndex) else int(shift)
    new_origin = path.base_origin + offset
    if not 0 <= new_origin < path.base.shape[0]:
        raise ShiftRangeError(
            f"shift by {offset} steps leaves the sampled window "
            f"[{path.lo}, {path.hi}]"
        )
    return WienerPath(path.base, new_origin, path.dt, path.spectrum, path.base_seed)


def restrict(path: WienerPath, factor: int) -> WienerPath:
    """Keep every ``factor``-th sample; the coarse path restricts the fine one.

    Refinement studies sample once at the finest resolution and restrict, so
    coarse and fine integrations see the same underlying realization.
    """
    if factor < 1:
        raise ConfigurationError("restriction factor must be >= 1")
    if factor == 1:
        return path
    if path.base_origin % factor or (path.base.shape[0] - 1) % factor:
        raise ConfigurationError(
            "sampled window is not aligned with the restriction factor"
        )
    base = path.base[::factor]
    base.setflags(write=False)
    return WienerPath(
        base, path.base_origin // factor, path.dt * factor, path.spectrum,
        path.base_seed,
    )


def holder_seminorm(path: WienerPath, gamma: float, window: tuple[float, float]) -> float:
    """Discrete Hoelder-gamma quotient max ||w(t_j)-w(t_i)|| / (t_j-t_i)**gamma.

    The norm is the Euclidean norm of the mode coefficients (orthonormal
    basis), maximized over all grid pairs inside the window.
    """
    if not 0.0 < gamma < 0.5:
        raise ConfigurationError("gamma must lie in (0, 1/2)")
    a, b = window
    ia, ib = path.index_of(a), path.index_of(b)
    if ib <= ia:
        raise ConfigurationError("holder window is empty")
    vals = path.base[path.base_origin + ia : path.base_origin + ib + 1]
    best = 0.0
    for lag in range(1, ib - ia + 1):
        diffs = vals[lag:] - vals[:-lag]
        norms = np.sqrt(np.einsum("ij,ij->i", diffs, diffs))
        best = max(best, float(norms.max()) / (lag * path.dt) ** gamma)
    return best


def growth_diagnostic(path: WienerPath, eps: float) -> float:
    """Smallest grid time T0 > 0 with ||w(t)|| <= eps*|t| for all grid |t| >= T0.

    Returns the window edge max(|t_lo|, t_hi) when no threshold inside the
    sampled window works (interpreted by callers as "sample a longer path").
    """
    if not eps > 0:
        raise ConfigurationError("eps must be positive")
    vals = path.values
    norms = np.sqrt(np.einsum("ij,ij->i", vals, vals))
    o = path.base_origin
    edge = max(-path.lo, path.hi)

    ok_fwd = np.ones(edge + 1, dtype=bool)
    k_fwd = np.arange(path.hi + 1)
    ok_fwd[: path.hi + 1] = norms[o:] <= eps * k_fwd * path.dt
    ok_back = np.ones(edge + 1, dtype=bool)
    k_back = np.arange(-path.lo + 1)
    ok_back[: -path.lo + 1] = norms[o::-1] <= eps * k_back * path.dt

    good = ok_fwd & ok_back
    # suffix-and over thresholds m = edge .. 1
    tail_ok = True
    smallest = None
    for m in range(edge, 0, -1):
        tail_ok = tail_ok and bool(good[m])
        if tail_ok:
            smallest = m
        else:
            break
    return (smallest if smallest is not None else edge) * path.dt


def export_path_csv(path: WienerPath, stream=None) -> str:
    """CSV with columns (t, mode_1..mode_Mw); header comments record the
    spectrum parameters and seed.  Returns the text; writes to ``stream`` too.
    """
    lines = [
        f"# mode_count={path.mode_count}",
        f"# decay_exponent={path.spectrum.decay_exponent:.17g}",
        f"# dt={path.dt:.17g}",
        f"# base_seed={path.base_seed}",
        "t," + ",".join(f"mode_{n}" for n in range(1, path.mode_count + 1)),
    ]
    vals = path.values
    for k, t in zip(range(path.lo, path.hi + 1), path.times):
        row = vals[path.base_origin + k]
        lines.append(f"{t:.17g}," + ",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text


def sample_statistics(paths: list[WienerPath], t: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode sample mean and variance (ddof=1) of w(t) over an ensemble."""
    if not paths:
        raise ConfigurationError("empty ensemble")
    k = paths[0].index_of(t)
    stack = np.stack([p.value_at(k) for p in paths])
    return stack.mean(axis=0), stack.var(axis=0, ddof=1)
