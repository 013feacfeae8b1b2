"""Two-sided Q-Wiener paths and the Wiener shift.

A path is stored as one immutable ``base`` array of raw sampled values plus an
``origin`` index marking where the path's own time zero sits.  Path values are
always ``base[origin + k] - base[origin]``, so shifting the path is a pure
re-indexing: shifted paths share the base array, the shift group law holds
bitwise, and any functional evaluated through shifted views is exactly
shift-covariant.

A sampled path is a window of one realization per seed: its raw rows are the
realization's rows, with the same bits in whatever window they are drawn.  So
a fiber far back along the shift is sampled over its own window
(``sample_two_sided_path`` with an ``offset``) and equals, row for row, the
shifted view of a path wide enough to hold it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, ConfigurationError, ShiftRangeError

_REL_TOL = 1e-9


def _as_index(value: float, dt: float, what: str) -> int:
    """Map a time to its integer grid index, refusing off-grid values.

    The package's one alignment rule: every time or span that must lie on a
    grid of step dt goes through here.
    """
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
            raise ConfigurationError("noise.modes must be a positive integer")
        if not self.decay_exponent > 0.5:
            raise ConfigurationError(
                "decay_exponent must be > 1/2 (trace-class covariance)"
            )

    @property
    def weights(self) -> np.ndarray:
        n = np.arange(1, self.mode_count + 1, dtype=float)
        return n ** (-2.0 * self.decay_exponent)


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


def sample_two_sided_path(
    spectrum: NoiseSpectrum,
    t_lo: float,
    t_hi: float,
    dt: float,
    seed: int,
    offset: int = 0,
) -> WienerPath:
    """Sample the fiber ``wiener_shift(w, offset)`` of the realization w of
    ``seed`` over [t_lo, t_hi], with 0 on the grid, holding only that window.

    Forward (t >= 0) and backward (t <= 0) parts of w are built from disjoint
    increment streams, both anchored at w_n(0) = 0; each side is drawn from 0
    outward in chunks of ``_DRAW_ROWS`` rows, scaled and cumulated with the
    last row carried, and only the rows inside the window are kept.  So a
    row's bits do not depend on the window it is drawn in: a window reaching
    far from 0 costs draws out to its far end, but memory for its own rows
    and one chunk.  With ``offset`` 0 this is the path of w itself.
    """
    if not dt > 0:
        raise ConfigurationError("dt must be positive")
    if not (t_lo <= 0.0 <= t_hi):
        raise ConfigurationError("grid must satisfy t_lo <= 0 <= t_hi")
    n_back = -_as_index(t_lo, dt, "t_lo")
    lo = offset - n_back  # the window's rows of w, absolute
    hi = offset + _as_index(t_hi, dt, "t_hi")
    scale = np.sqrt(spectrum.weights * dt)
    base = np.empty((hi - lo + 1, spectrum.mode_count))
    if lo <= 0 <= hi:
        base[-lo] = 0.0
    # the forward stream gives rows 1, 2, ..., the backward one -1, -2, ...
    for stream, sign in ((0, 1), (1, -1)):
        near, far = (max(lo, 1), hi) if sign > 0 else (max(-hi, 1), -lo)
        if far < near:
            continue
        rng = np.random.default_rng([seed, stream])
        chunk = np.empty((min(_DRAW_ROWS, far), spectrum.mode_count))
        for d0 in range(1, far + 1, _DRAW_ROWS):  # rows d0.. from 0 outward
            part = chunk[: min(_DRAW_ROWS, far + 1 - d0)]
            rng.standard_normal(out=part)
            part *= scale
            if d0 > 1:
                part[0] += carry
            np.cumsum(part, axis=0, out=part)
            carry = part[-1].copy()
            first, last = max(near, d0), d0 + len(part) - 1
            if first > last:
                continue
            if sign > 0:
                base[first - lo : last - lo + 1] = part[first - d0 :]
            else:
                base[-last - lo : -first - lo + 1] = part[first - d0 :][::-1]
    base.setflags(write=False)
    return WienerPath(base, n_back, dt, spectrum, seed)


# rows of one side a sampling draws at a time
_DRAW_ROWS = 1024


def wiener_shift(path: WienerPath, offset: int) -> WienerPath:
    """The Wiener shift: (shifted w)(t) = w(t + s) - w(s) with s = offset*dt.

    Pure re-indexing of the shared base array; the shifted window must still
    contain time zero, otherwise the caller has to sample a wider path.
    """
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
