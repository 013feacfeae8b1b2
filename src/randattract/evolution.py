"""Discrete parabolic evolution families U(t, s, w).

A chain holds one symmetric positive definite step matrix per grid interval,
S_k = exp(dt * A(t_k + dt/2)), built by eigendecomposition of the symmetric
midpoint-frozen generator.  Every generator is block diagonal between the
odd-n and the even-n sine modes, so it is decomposed in parity order, where
LAPACK splits the two blocks, and the step is put back in natural order.
Applying the chain is a left-to-right sequence of matrix-vector products, so
the composition law U(t,s)U(s,r) = U(t,r) holds bitwise by construction.

Steps are built in blocks of 128, and the block is also the unit a chain is
read in: ``PropagatorChain.blocks`` gives the chain as one segment per
block, which every march and the join cross in turn, so the block size
stays in this module.  Inside a ``workers`` scope of more than one thread
``build_chain`` queues the blocks on the scope's workers and returns at
once, so the caller can go on (say, to the first blocks of a march) while
later steps are still being built.  A read waits for what it covers:
``PropagatorChain.steps`` for the whole chain, ``PropagatorChain.segment``
for the blocks below its end, and ``PropagatorChain.blocks`` for one block
at a time.  A reader that waits for a block builds in its own thread the
lowest queued block that no worker has started, so it never idles while
there is a block to build; each step has the same bits at any width.  A
chain has one reading thread.  The same workers run ``ordered_map``'s
items, by the same rule.

Every chain streams its blocks.  Each block is an array of its own and is
freed once a read has passed it: a read of steps [lo, hi), through
``segment`` or the march, releases every block wholly below lo, and only
``_AHEAD`` blocks past the lowest live one are queued.  So a chain read
once, in order, holds a few blocks whatever its length.  A chain read more
than once is joined first: reading ``steps`` copies each block into one
array as the window passes it, so the join holds that array and the window,
and from then on ``segment``, ``blocks``, ``apply`` and the march read the
array, any number of times.  Reading a released step raises AlignmentError;
a segment taken earlier keeps its own steps.  A chain built ``after``
another appends its blocks to that chain's, and the one window runs on
across both: the workers build its first blocks while the reader is still
in the last blocks of the chain before, and reading it releases those.

The midpoint coefficient uses the average of the endpoint driver values
(the driver is defined on grid points only); this keeps second-order accuracy
for smooth coefficients and exact shift-covariance on aligned grids.

The generator at the grid nodes, A(t_k) = -(delta K0 + amp tanh(zeta_k) Kg),
is never formed as a matrix: ``PropagatorChain.generator_rows`` applies it to
noise vectors node by node from the two stiffness parts.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from functools import partial

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
    _parity_order,
    _stiffness_parts,
    assemble_operator,
    driver_values,
    fill_generators,
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


def _exp_steps(gens: np.ndarray, dt: float, ceiling: float = math.inf) -> None:
    """Overwrite each generator A of gens (k, m, m), given in parity order,
    with its step exp(dt A) in natural order; A's spectrum must stay at or
    below ``ceiling``.

    exp(dt A) = H H^T with H = Q e^{dt lam / 2}, formed in place of eigh's Q,
    whose rows then go back to natural order in place, 16 matrices at a time:
    a block-sized gather would double the block's memory, and a loop over
    single matrices holds the GIL often enough to slow a march running
    beside a background build by about a tenth.  The reordering
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
    for lo in range(0, len(q), 16):
        q[lo : lo + 16] = q[lo : lo + 16, natural]
    np.matmul(q, np.swapaxes(q, 1, 2), out=gens)


@dataclass(eq=False)
class PropagatorChain:
    """U(t, s, w) as an indexed product of per-step propagator matrices.

    A chain from ``build_chain`` streams its steps: ``segment(lo, hi)``
    waits only for the blocks below hi and ``blocks`` for one block at a
    time, and each block is freed once a read has passed it.  Reading
    ``steps`` joins the chain, which may then be read any number of times
    (see the module notes).  A chain has one reading thread.
    """

    grid: TimeGrid
    _steps: np.ndarray | None  # (n_steps, m, m); None until ``steps`` joins the blocks
    field: DiffusionField
    path: WienerPath | None
    # noise increments on ``path``, kept by pathwise.corrected_increments
    _increments: np.ndarray | None = field(default=None, repr=False)
    # build_chain's blocks until ``steps`` joins them; the chain's steps are
    # blocks _first, _first + 1, ... of them (chains built ``after`` one
    # another share their blocks)
    _blocks: _Blocks | None = field(default=None, repr=False)
    _first: int = field(default=0, repr=False)

    @property
    def dim(self) -> int:
        return self._blocks.m if self._steps is None else self._steps.shape[-1]

    @property
    def steps(self) -> np.ndarray:
        """The (n_steps, m, m) step matrices, once all of them are built.

        The first read joins the chain: each block is copied into one array
        as the window passes it, and every later read is served from that
        array.  So a chain read more than once reads this first.
        """
        if self._blocks is not None:
            n = self.grid.n_steps
            joined = np.empty((n, self.dim, self.dim))
            for lo, block in zip(range(0, n, _BUILD_BLOCK), self.blocks()):
                joined[lo : lo + block.grid.n_steps] = block.steps
            self._steps, self._blocks = joined, None
        return self._steps

    def __post_init__(self) -> None:
        if self._steps is None:  # a streaming chain: its blocks hold the steps
            return
        if self._steps.ndim != 3 or self._steps.shape[1] != self._steps.shape[2]:
            raise ConfigurationError("steps must be (n_steps, m, m)")
        if self._steps.shape[0] != self.grid.n_steps:
            raise ConfigurationError("step count does not match the grid")

    def _read(self, lo: int, hi: int) -> np.ndarray:
        """Steps lo..hi-1, once built (see ``_Blocks.read``): a view, except
        that steps spanning more than one block are copied into one array.  A
        chain without blocks (joined, amp = 0 or empty) serves ``_steps``.
        """
        if self._blocks is None:
            return self._steps[lo:hi]
        first, end = lo // _BUILD_BLOCK, -(-hi // _BUILD_BLOCK)
        blocks = self._blocks.read(self._first + first, self._first + end)
        parts = [
            block[max(lo - i * _BUILD_BLOCK, 0) : hi - i * _BUILD_BLOCK]
            for i, block in enumerate(blocks, first)
        ]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty((0, self.dim, self.dim))

    def segment(self, lo: int, hi: int) -> "PropagatorChain":
        """Steps lo..hi-1 as a chain over t0 + lo*dt, with the same field and
        path, once they are built.  The steps are a view, not a copy, except
        where the steps of a chain not joined span more than one block;
        either way the segment keeps its steps after the chain has released
        their blocks.  The segment keeps its own noise increments (see
        ``pathwise.corrected_increments``).
        """
        if not 0 <= lo <= hi <= self.grid.n_steps:
            raise AlignmentError(f"segment [{lo}, {hi}) outside the chain grid")
        grid = TimeGrid(self.grid.t0 + lo * self.grid.dt, hi - lo, self.grid.dt)
        return PropagatorChain(grid, self._read(lo, hi), self.field, self.path)

    def blocks(self) -> Iterator["PropagatorChain"]:
        """The chain in order as consecutive segments of at most 128 steps,
        one per block, each once it is built.  On a chain not joined, taking
        a block is a read, which releases the blocks below it.  Every march
        and the join cross a chain this way, so the block size stays here.
        """
        n = self.grid.n_steps
        for lo in range(0, n, _BUILD_BLOCK):
            yield self.segment(lo, min(lo + _BUILD_BLOCK, n))

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

# blocks a chain queues past its lowest live block.  A history
# march reads faster than two threads build, so its reader builds too, and
# with fewer queued the worker runs dry while the reader builds (a 2048-step
# construct_initial at m = 64 took 16% longer at 2, and at 3 about as long as
# with every block queued at once); the chain's memory grows with this, not
# with its length
_AHEAD = 3

# the workers of the enclosing ``workers`` scope; None outside one
_executor: ContextVar[ThreadPoolExecutor | None] = ContextVar("executor", default=None)


@contextmanager
def workers(n: int) -> Iterator[None]:
    """Run chain blocks and ``ordered_map`` items on n threads, the caller's
    included, until the scope exits (NumPy's eigh, matmul and ufuncs release
    the GIL); the n - 1 workers then finish what they started and drop the
    rest, which a chain read later builds in its reader.
    """
    if n < 1:
        raise ConfigurationError("workers must be >= 1")
    pool = ThreadPoolExecutor(n - 1, thread_name_prefix="run-worker") if n > 1 else None
    token = _executor.set(pool)
    try:
        yield
    finally:
        _executor.reset(token)
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def ordered_map(fn, items) -> list:
    """[fn(item) for item in items] on the scope's workers, waited for in
    order like a chain's blocks, so the first failing item's error is raised.
    The caller runs the first item; each runs in a copy of the caller's
    context, so its chains queue their blocks on the same workers."""
    tasks = _Blocks()
    tasks.futures.append(Future())  # a future no worker runs: the caller's
    tasks.add([partial(copy_context().run, fn, item) for item in items])
    return tasks.read(0, len(items))


class _Blocks:
    """build_chain's 128-step blocks of one chain, or of chains built
    ``after`` one another, or ``ordered_map``'s items, queued on the workers
    and built by the reader where no worker has started them.

    ``tasks[i]()`` builds block i and returns its steps.  Only the reading
    thread calls these methods; the workers only run tasks.
    """

    def __init__(self, m: int = 0) -> None:
        self.tasks: list[partial] = []
        self.m = m  # the Galerkin dimension of a chain's blocks
        # block i's future once queued; None once released
        self.futures: list[Future | None] = []
        self.live = 0  # the lowest block not released
        self.failure: Exception | None = None  # the first failed block's error

    def add(self, tasks: list[partial]) -> int:
        """Append a chain's blocks, queue those in the window, and return the
        index of the first."""
        first = len(self.tasks)
        self.tasks += tasks
        self._queue(self.live + _AHEAD + 1)
        return first

    def _queue(self, end: int) -> None:
        """Queue every block below ``end`` not queued yet."""
        pool = _executor.get()
        for task in self.tasks[len(self.futures) : end]:
            # a future no worker runs is built by the reader
            self.futures.append(Future() if pool is None else pool.submit(task))

    def read(self, first: int, end: int) -> list[np.ndarray]:
        """Blocks first..end-1, once built.

        Every block from the lowest live one up to end is waited for in block
        order, so the first failing block's error is the one raised, as in a
        serial build, and again on every later read.  Otherwise the blocks
        below first are then released and the blocks up to ``_AHEAD`` past
        the lowest live one queued; a read of a released block raises
        AlignmentError.
        """
        if self.failure is not None:
            raise self.failure
        if first < self.live:
            raise AlignmentError(
                "a released block was read: a chain is read once, in order; "
                "one read more than once is joined first by reading its steps"
            )
        self._queue(end)
        for i in range(self.live, end):
            self._wait(i)
        blocks = [self.futures[i].result() for i in range(first, end)]
        if first > self.live:
            self.futures[self.live : first] = [None] * (first - self.live)
            self.live = first
        self._queue(self.live + _AHEAD + 1)
        return blocks

    def _wait(self, i: int) -> None:
        """Return once block i is built; raise its error if it failed.

        While a worker builds it, the reader builds the lowest queued block
        that no worker has started, so it never idles while there is one.
        """
        future = self.futures[i]
        while not future.done() or future.cancelled():
            for j in range(i, len(self.futures)):
                # cancel() succeeds on a block not started, or dropped when
                # its workers scope exited
                if self.futures[j].cancel():
                    self._build(j)
                    break
            else:
                wait([future])  # every queued block has started
            future = self.futures[i]
        if future.exception() is not None:
            self.failure = future.exception()
            raise self.failure

    def _build(self, j: int) -> None:
        """Build block j in the reading thread, keeping its error."""
        done = Future()
        try:
            done.set_result(self.tasks[j]())
        except Exception as exc:
            done.set_exception(exc)
        self.futures[j] = done


def build_chain(
    field: DiffusionField,
    path: WienerPath | None,
    grid: TimeGrid,
    m: int,
    after: PropagatorChain | None = None,
) -> PropagatorChain:
    """Assemble midpoint-frozen step matrices over the grid.

    With amp > 0 the chain grid must run at the path resolution (the driver
    is read at path grid points).  The driver and the modulation are
    computed here, at once; the steps are built in 128-step blocks (see the
    module notes), queued ``_AHEAD`` past the reader on the ``workers`` and
    built by the reader outside a scope.  So the chain streams: each block is
    freed once a read has passed it, and a chain read more than once reads
    ``steps`` first.  A block is built at the latest when a read needs it,
    so a DefinitenessError is raised at that read.  A chain built ``after``
    another, which its reader reads first, appends its blocks to that
    chain's: the one window then spans both, so the workers build this
    chain's first blocks while the reader ends the other, and the two hold
    no more blocks together than one.  An ``after`` chain that holds no
    blocks (joined by ``steps``, with amp = 0, or empty) leaves the new
    chain a window of its own.
    """
    if m < 1:
        raise ConfigurationError("Galerkin dimension must be >= 1")
    if after is not None and after.dim != m:
        raise ConfigurationError(
            "a chain built after another has the same Galerkin dimension"
        )
    k_steps = grid.n_steps
    if field.amp == 0.0:
        single = fill_generators(field, np.zeros(1), np.empty((1, m, m)), parity=True)
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

    tasks = [
        partial(
            _build_block, lo, min(lo + _BUILD_BLOCK, k_steps),
            field, grid.dt, modulation, m,
        )
        for lo in range(0, k_steps, _BUILD_BLOCK)
    ]
    blocks = None if after is None else after._blocks
    if blocks is None:
        blocks = _Blocks(m)
    return PropagatorChain(
        grid, None, field, path, _blocks=blocks, _first=blocks.add(tasks)
    )


def _build_block(
    lo: int,
    hi: int,
    field: DiffusionField,
    dt: float,
    modulation: np.ndarray,
    m: int,
) -> np.ndarray:
    """Steps lo..hi-1 of a chain, one block, in an array of its own.

    The block is assembled in parity order in that array; eigh's
    eigenvector array is the one block-sized temporary.
    """
    out = np.empty((hi - lo, m, m))
    fill_generators(field, modulation[lo:hi], out, parity=True)
    _exp_steps(out, dt, field.spectral_ceiling)
    return out


def apply(chain: PropagatorChain, t: float, s: float, vec: np.ndarray) -> np.ndarray:
    """U(t, s) vec by sequential step applications; apply(t, t, .) is identity."""
    ks, kt = chain.grid.index(s), chain.grid.index(t)
    if kt < ks:
        raise OrderingError(f"apply requires t >= s, got t={t!r} < s={s!r}")
    out = np.asarray(vec, dtype=float)
    if kt == ks:
        return out.copy()
    steps = chain.steps
    for k in range(ks, kt):
        out = steps[k] @ out
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
    for step in chain.steps:
        worst = min(worst, bound - operator_norm(step))
    return worst
