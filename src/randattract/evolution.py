"""Discrete parabolic evolution families U(t, s, w).

A chain holds one symmetric positive definite step matrix per grid interval,
S_k = exp(dt * A(t_k + dt/2)), built by eigendecomposition of the symmetric
midpoint-frozen generator.  Every generator is block diagonal between the
odd-n and the even-n sine modes, so it is decomposed in parity order, where
LAPACK splits the two blocks, and the step is put back in natural order.
Applying the chain is a left-to-right sequence of matrix-vector products, so
the composition law U(t,s)U(s,r) = U(t,r) holds bitwise by construction.

Steps are built in blocks of ``_BUILD_BLOCK`` = 16 steps, 512 KiB at
m = 64, each decomposed ``_EIGH_PIECE`` = 8 matrices at a time, whose
eigenvectors, half the block, are its one large temporary: the steps are
gathered into the block's own spent generators.  Smaller blocks
lower a run's peak memory, by less with each halving, and cost CPU time
(the measured trade-off is noted at ``_BUILD_BLOCK``).  A block's driver
values and modulation are formed when the block is queued and dropped once
it is built, so a chain holds no array of its length.  The block is also the
unit a chain is read in:
``PropagatorChain.blocks`` gives the chain as one chain per block, which
every march and the join cross in turn, so the block size stays in this
module.  Inside a ``workers`` scope of more than one thread
``build_chain`` queues the blocks on the scope's workers and returns at
once, so the caller can go on (say, to the first blocks of a march) while
later steps are still being built.  A read waits for what it covers:
``PropagatorChain.blocks`` for one block at a time and
``PropagatorChain.steps`` for the whole chain.  A reader that waits for a
block builds in its own thread the lowest queued block that no worker has
started, so it never idles while there is a block to build; each step has
the same bits at any width.  A chain has one reading thread.  The same
workers run ``ordered_map``'s items, by the same rule.

Every chain streams its blocks, each in an array of its own, and is read
whole, in just two ways.  ``blocks`` reads it once, in order: taking a
block frees every block below it, and only ``_AHEAD`` blocks past the
lowest live one are queued, so the chain holds a few blocks whatever its
length.
``steps`` joins it: each block is copied into one array as the window
passes it, so the join holds that array and the window, and from then on
``steps``, ``blocks``, ``apply`` and the march read the array, any number
of times.  Reading a freed block raises AlignmentError; a block taken
earlier keeps its own steps.  A reader that wants a shorter span builds a
chain over that span: a step's bits do not depend on the span it is built
in.

A chain carries one path, which drives its generator and, read at its
nodes (``PropagatorChain.path_rows``), the noise of every reader.  A march
forms each block's noise rows when it reaches the block, so no reader
forms rows for the whole chain; a joined chain of at most one block is its
own block, so the members marched on it share its rows.
``build_chain`` checks it once, at any amp: the path runs at the grid's dt
and holds every node.

The midpoint coefficient uses the average of the endpoint driver values
(the driver is defined on grid points only); this keeps second-order accuracy
for smooth coefficients and exact shift-covariance on aligned grids.

The generator at the grid nodes, A(t_k) = -(delta K0 + amp tanh(zeta_k) Kg),
is never formed as a matrix: ``PropagatorChain.generator_rows`` applies it to
noise vectors node by node, from the chain's first node on, with the two
stiffness parts.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from concurrent.futures import Future, ThreadPoolExecutor, wait
from contextlib import contextmanager
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from .counters import count
from .errors import (
    AlignmentError,
    ConfigurationError,
    DefinitenessError,
    NumericalError,
    OrderingError,
    ShiftRangeError,
)
from .noise import WienerPath, _as_index, wiener_shift
from .operators import (
    PI_SQUARED,
    DiffusionField,
    _parity_order,
    _stiffness_parts,
    assemble_operator,
    coefficient_floors,
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


# matrices _exp_steps decomposes at a time: eigh's eigenvector array, the
# one temporary of a piece, holds 8 matrices (256 KiB at m = 64), half a
# 16-step block.  Not 4: each NumPy call of a piece that releases the GIL
# (eigh, the scaling, the gather, the syrk, the copy back) makes a worker
# wait up to the interpreter's switch interval to take it back while the
# reader marches in Python.  With 4 a 16-step block at m = 64 built beside
# a busy Python thread took about 128 ms against 80 ms with 8 (2-core VM),
# and the pullback's wall time read slower and spread wider
_EIGH_PIECE = 8


def _exp_steps(gens: np.ndarray, dt: float, ceiling: float) -> None:
    """Overwrite each generator A of gens (k, m, m), given in parity order,
    with its step exp(dt A) in natural order; A's spectrum must stay at or
    below ``ceiling``.

    exp(dt A) = H H^T with H = Q e^{dt lam / 2}, Q from eigh, and H's rows
    put back in natural order by one gather.  The eigh, the bound check, the
    scaling, the gather and the product run over ``_EIGH_PIECE`` matrices
    at a time, and H is gathered into the piece's spent generators: the
    syrk writes into eigh's own array, which is copied back, so a piece's
    eigenvectors are its one temporary.  The reordering is a permutation
    similarity, so the step is exact for any symmetric generator; matmul
    runs H H^T as syrk, so each step is exactly symmetric.  Each step is
    computed on its own, so it does not depend on the other matrices of
    gens.
    """
    natural = _parity_order(gens.shape[-1])[1]
    for lo in range(0, len(gens), _EIGH_PIECE):
        piece = gens[lo : lo + _EIGH_PIECE]
        lam, q = np.linalg.eigh(piece)
        top = float(lam[:, -1].max())
        if top > ceiling:
            raise DefinitenessError(
                f"spectral bound violated: max eigenvalue {top} > {ceiling}"
            )
        q *= np.exp((0.5 * dt) * lam)[:, None, :]
        # mode="raise" would gather into a temporary of the piece's size
        np.take(q, natural, axis=1, out=piece, mode="clip")
        np.matmul(piece, np.swapaxes(piece, 1, 2), out=q)
        piece[...] = q
        del q  # before the next piece's eigh, which would run beside it
    count(eigh_matrices=len(gens))


@dataclass(eq=False)
class PropagatorChain:
    """U(t, s, w) as an indexed product of per-step propagator matrices.

    A chain from ``build_chain`` streams its steps: ``blocks`` reads it once,
    in order, one block at a time, freeing each block once a read has
    passed it, and ``steps`` joins it, after which it may be read any number
    of times (see the module notes).  A chain has one reading thread.
    """

    grid: TimeGrid
    _steps: np.ndarray | None  # (n_steps, m, m); None until ``steps`` joins the blocks
    field: DiffusionField
    path: WienerPath | None  # the one path of the chain and its noise
    # noise increments on ``path``, kept by pathwise.corrected_increments
    _increments: np.ndarray | None = field(default=None, repr=False)
    # build_chain's blocks until ``steps`` joins them
    _blocks: _Blocks | None = field(default=None, repr=False)
    # floats whose sum, rounded once, is sum_k min_x E_k over the steps
    # queued so far; build_chain's block source extends it exactly (see
    # ``norm_bound``)
    _floor_sum: list[float] | None = field(default=None, repr=False)

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

    def blocks(self) -> Iterator["PropagatorChain"]:
        """The chain in order as consecutive chains of at most
        ``_BUILD_BLOCK`` steps, one per block, each once it is built.  Each
        has the chain's field and path and forms its own noise increments
        (see ``pathwise.corrected_increments``); a joined chain of at most
        one block is its own only block, so marches on it share its rows.
        On a chain not joined, taking a block releases the blocks below it.
        Every march and the join cross a chain this way, so the block size
        stays here.
        """
        n, dt = self.grid.n_steps, self.grid.dt
        if self._blocks is None and n <= _BUILD_BLOCK:
            if n:
                yield self
            return
        for i, lo in enumerate(range(0, n, _BUILD_BLOCK)):
            if self._blocks is None:
                steps = self._steps[lo : lo + _BUILD_BLOCK]
            else:
                steps = self._blocks.read(i)
            grid = TimeGrid(self.grid.t0 + lo * dt, len(steps), dt)
            yield PropagatorChain(grid, steps, self.field, self.path)

    @property
    def norm_bound(self) -> float:
        """exp(-pi^2 dt sum_k min_x E_k) >= ||U(t_b, t_a)||_2 over the chain.

        Each step's generator has -v^T A_k v = int E_k |u'|^2 >= pi^2
        min_x E_k ||v||^2 (Poincare), so ||S_k||_2 <= exp(-pi^2 dt min_x E_k),
        with min_x E_k from the step's modulation (``coefficient_floors``);
        with amp = 0 the bound is exp(-pi^2 delta (t_b - t_a)), the norm
        itself.  The floors are summed exactly and rounded once, so the bound
        does not depend on the block size.  A streaming chain knows it once
        every block is queued: once it has been read whole.
        """
        n_blocks = -(-self.grid.n_steps // _BUILD_BLOCK)
        if self._floor_sum is None or (
            self._blocks is not None and self._blocks.queued < n_blocks
        ):
            raise AlignmentError(
                "a norm bound is known for a chain from build_chain read whole"
            )
        return math.exp(-PI_SQUARED * self.grid.dt * math.fsum(self._floor_sum))

    def path_rows(self) -> np.ndarray:
        """The rows of the path's ``base`` at the chain's nodes, shape
        (n_steps + 1, modes): raw sampled values, so a difference of two is
        one of path values.  ``build_chain`` has checked that the path holds
        them."""
        if self.path is None:
            raise ConfigurationError("noise needs a chain built on a path")
        o = self.path.base_origin + self.path.index_of(self.grid.t0)
        return self.path.base[o : o + self.grid.n_steps + 1]

    def generator_rows(self, vecs: np.ndarray) -> np.ndarray:
        """A(t_i) vecs[i] at the grid nodes 0, 1, ...; shape (len(vecs), m).

        ``vecs`` holds coefficients of the first mw <= m modes.  A row is
        -(delta K0[:, :mw] v + amp tanh(zeta) Kg[:, :mw] v), the zeta of all rows
        from one ``driver_values`` call on the chain's path.  Each row is its
        own pair of products, so it does not depend on the block it is in.
        """
        n, mw = vecs.shape
        if mw > self.dim:
            raise ConfigurationError("noise mode count exceeds Galerkin dimension")
        if n > self.grid.n_steps + 1:
            raise AlignmentError("generator rows outside the chain grid")
        out = np.empty((n, self.dim))
        k0, kg = (part[:, :mw] for part in _stiffness_parts(self.dim))
        delta, amp = self.field.delta, self.field.amp
        if amp == 0.0:
            for i, v in enumerate(vecs):
                out[i] = -(delta * (k0 @ v))
            return out
        k_path = self.path.index_of(self.grid.t0)
        zetas = driver_values(self.field, self.path, k_path, k_path + n - 1)
        for i, v in enumerate(vecs):
            out[i] = -(delta * (k0 @ v) + (amp * math.tanh(zetas[i])) * (kg @ v))
        return out


# step matrices assembled and eigendecomposed together in build_chain: 512
# KiB of steps at m = 64.  Default runs peaked at 75.5 (ou-diagnose) and
# 60.7 MB RSS (attractor-pullback) with 128 steps, at 51.4 and 46.2 MB with
# 32 and at 48.2 and 43.7 MB with 16, at the same CPU time (perfbench
# pairs, 2-core VM, one BLAS thread).  8 steps, against 16 (both with
# 4-matrix eigh pieces) in 6 pairs (BENCH_32.json), lowered the peaks from
# 46.5 to 45.0 MB and from 42.6 to 42.1 MB, but raised the median CPU time of
# ou-diagnose by 12% (16.5 to 18.4 s, lower in 1 pair of 6) and of the
# pullback by 7% (3.56 to 3.83 s): each halving doubles the per-block calls
# of every march
_BUILD_BLOCK = 16

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
    tasks = [partial(copy_context().run, fn, item) for item in items]
    # item 0's future is one no worker runs: the caller's
    blocks = _Blocks(tasks, first=Future())
    blocks._queue(len(tasks))
    return [blocks.read(i) for i in range(len(tasks))]


class _Blocks:
    """The blocks of ``_BUILD_BLOCK`` steps of one chain, or the items of one
    ``ordered_map``, queued on the workers and built by the reader where no
    worker has started them.

    The i-th task of ``tasks`` builds block i and returns it.  A task is
    taken from ``tasks`` when its block is queued and dropped once the block
    is built, and a block's future is dropped once it is released, so what
    the reader holds does not grow with the number of blocks.  The
    constructor queues the first ``_AHEAD + 1``; a ``first`` future, which
    no worker runs, stands for block 0, so the reader builds that one.  Only
    the reading thread calls these methods; the workers only run tasks.
    """

    def __init__(
        self, tasks: Iterable[partial], m: int = 0, first: Future | None = None
    ) -> None:
        self.source = iter(tasks)
        self.m = m  # the Galerkin dimension of a chain's blocks
        self.queued = 0  # blocks queued so far
        # block i's task from when it is queued until it is built
        self.tasks: dict[int, partial] = {}
        # block i's future from when it is queued until it is released
        self.futures: dict[int, Future] = {} if first is None else {0: first}
        self.live = 0  # the lowest block not released
        self.failure: Exception | None = None  # the first failed block's error
        self._queue(_AHEAD + 1)

    def _queue(self, end: int) -> None:
        """Queue every block below ``end`` not queued yet."""
        pool = _executor.get()
        for task in islice(self.source, max(end - self.queued, 0)):
            i, self.queued = self.queued, self.queued + 1
            self.tasks[i] = task
            if i not in self.futures:  # else ``first`` stands for it
                # a future no worker runs is built by the reader
                self.futures[i] = Future() if pool is None else pool.submit(task)

    def read(self, i: int) -> np.ndarray:
        """Block i, once built.

        Every block from the lowest live one up to i is waited for in block
        order, so the first failing block's error is the one raised, as in a
        serial build, and again on every later read.  Otherwise the blocks
        below i are then released and the blocks up to ``_AHEAD`` past i
        queued; a read of a released block raises AlignmentError.
        """
        if self.failure is not None:
            raise self.failure
        if i < self.live:
            raise AlignmentError(
                "a released block was read: a chain is read once, in order; "
                "one read more than once is joined first by reading its steps"
            )
        self._queue(i + 1)
        for j in range(self.live, i + 1):
            self._wait(j)
        for j in range(self.live, i):
            del self.futures[j]
        self.live = i
        self._queue(i + _AHEAD + 1)
        return self.futures[i].result()

    def _wait(self, i: int) -> None:
        """Return once block i is built; raise its error if it failed.

        While a worker builds it, the reader builds the lowest queued block
        that no worker has started, so it never idles while there is one.
        """
        future = self.futures[i]
        while not future.done() or future.cancelled():
            for j in range(i, self.queued):
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
        self.tasks.pop(i, None)  # a block the reader built has dropped it

    def _build(self, j: int) -> None:
        """Build block j in the reading thread, keeping its error."""
        done = Future()
        try:
            done.set_result(self.tasks.pop(j)())
        except Exception as exc:
            done.set_exception(exc)
        self.futures[j] = done


def build_chain(
    field: DiffusionField, path: WienerPath | None, grid: TimeGrid, m: int
) -> PropagatorChain:
    """Assemble midpoint-frozen step matrices over the grid.

    The chain carries its path: every noise reader takes the path from the
    chain.  So a path, which amp > 0 needs and amp = 0 may go without, is
    checked here at any amp: it must run at the grid's dt (AlignmentError),
    hold every node (ShiftRangeError) and, with amp > 0, every node's
    driver window (ShiftRangeError).  The steps are built in blocks of
    ``_BUILD_BLOCK`` steps (see the module notes), queued ``_AHEAD`` past
    the reader on the ``workers`` and built by the reader outside a scope.
    A block's driver values and modulation are formed when it is queued, in
    the reading thread, so no array of the chain's length is held.  So the
    chain streams: each block is freed once a read has passed it, and a
    chain read more than once reads ``steps`` first.  A block is built at
    the latest when a read needs it, so a DefinitenessError is raised at
    that read.
    """
    if m < 1:
        raise ConfigurationError("Galerkin dimension must be >= 1")
    k_steps = grid.n_steps
    if path is not None:
        if abs(path.dt - grid.dt) > 1e-12 * grid.dt:
            raise AlignmentError(
                f"path dt={path.dt!r} differs from the chain resolution dt={grid.dt!r}"
            )
        k0 = path.index_of(grid.t0)
        if k0 + k_steps > path.hi:
            raise ShiftRangeError("chain nodes run past the sampled path")
    if field.amp == 0.0:
        single = fill_generators(field, np.zeros(1), np.empty((1, m, m)))
        _exp_steps(single, grid.dt, field.spectral_ceiling)
        steps = np.broadcast_to(single[0], (k_steps, m, m))
        count(steps_built=k_steps)
        floor_sum = [field.delta * k_steps]
        return PropagatorChain(grid, steps, field, path, _floor_sum=floor_sum)

    if path is None:
        raise ConfigurationError("a path is required when amp > 0")
    if k_steps == 0:
        return PropagatorChain(
            grid, np.empty((0, m, m)), field, path, _floor_sum=[0.0]
        )
    floor_sum: list[float] = []
    blocks = _Blocks(_block_tasks(field, path, k0, grid, m, floor_sum), m)
    return PropagatorChain(
        grid, None, field, path, _blocks=blocks, _floor_sum=floor_sum
    )


def _block_tasks(
    field: DiffusionField,
    path: WienerPath,
    k0: int,
    grid: TimeGrid,
    m: int,
    floor_sum: list[float],
) -> Iterator[partial]:
    """``build_chain``'s block tasks in order, each formed when it is taken.

    A block's driver values are read at its nodes, the first carried from
    the block before, so each node's value is computed once; its midpoint
    modulation is its task's own, and its coefficient floors are added to
    ``floor_sum`` exactly (``_add_exactly``).  A task runs in a copy of the
    context it is formed in, so its counts land in the reader's run on any
    thread.
    """
    zetas = driver_values(field, path, k0, k0)
    for lo in range(0, grid.n_steps, _BUILD_BLOCK):
        hi = min(lo + _BUILD_BLOCK, grid.n_steps)
        zetas = np.concatenate(
            (zetas[-1:], driver_values(field, path, k0 + lo + 1, k0 + hi))
        )
        modulation = np.tanh((zetas[:-1] + zetas[1:]) / 2.0)
        _add_exactly(floor_sum, coefficient_floors(field, modulation).tolist())
        yield partial(
            copy_context().run, _build_block, field, grid.dt, modulation, m
        )


def _add_exactly(terms: list[float], values: list[float]) -> None:
    """Replace ``terms`` by floats whose exact sum is that of ``terms`` and
    ``values``: each is the correctly rounded rest (``math.fsum``) of what
    the ones before leave, down to a rest of 0, so a few suffice."""
    pending = terms + values
    terms.clear()
    while rest := math.fsum(pending + [-t for t in terms]):
        terms.append(rest)


def _build_block(
    field: DiffusionField, dt: float, modulation: np.ndarray, m: int
) -> np.ndarray:
    """The steps of one block, one per modulation, in an array of their own.

    The block is assembled in parity order in that array; the eigenvectors
    of one ``_exp_steps`` piece are the only other array of its size order.
    """
    out = np.empty((len(modulation), m, m))
    fill_generators(field, modulation, out)
    _exp_steps(out, dt, field.spectral_ceiling)
    count(steps_built=len(out))
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
    m: int,
) -> float:
    """|| U(t+s, s, w) - U(t, 0, theta_s w) ||_2 on grids of the path's dt.

    Structural stationarity makes the frozen coefficients coincide, so the
    two factor sequences are identical and the residual sits at rounding level.
    """
    if t < 0 or s < 0:
        raise OrderingError("cocycle check needs t, s >= 0")
    chain_a = build_chain(field, path, span_grid(s, t + s, path.dt), m)
    shifted = wiener_shift(path, path.index_of(s))
    chain_b = build_chain(field, shifted, span_grid(0.0, t, path.dt), m)
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
