"""Evolution-family identities, decay envelopes, smoothing, scheme order."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from randattract import (
    AlignmentError,
    DefinitenessError,
    DiffusionField,
    NoiseSpectrum,
    NonlinearitySpec,
    OrderingError,
    SemilinearProblem,
    restrict,
    apply,
    assemble_operator,
    build_chain,
    chain_matrix,
    cocycle_residual,
    decay_fit,
    integrate_semilinear,
    sample_two_sided_path,
    smoothing_estimate,
    span_grid,
    wiener_shift,
)
from randattract import evolution
from randattract.evolution import (
    PropagatorChain,
    TimeGrid,
    _exp_steps,
    _parity_order,
    contractivity_margin,
    operator_norm,
    ordered_map,
    workers,
)
from randattract.counters import counting
from randattract.operators import _stiffness_parts, driver_values

from conftest import DT, reference_chain


def _generator(field, m, mu):
    """The midpoint generator -(delta K0 + (amp mu) Kg), written out."""
    k0, kg = _stiffness_parts(m)
    return -(field.delta * k0 + (field.amp * mu) * kg)


@pytest.fixture(scope="module")
def chain(default_field, medium_path):
    chain = build_chain(default_field, medium_path, span_grid(0.0, 1.0, DT), 24)
    chain.steps  # read by many tests: joined once
    return chain


def test_identity_exact(chain):
    v = np.linspace(-1.0, 1.0, 24)
    assert np.array_equal(apply(chain, 0.5, 0.5, v), v)


def test_empty_chain_is_identity(default_field, medium_path):
    empty = build_chain(default_field, medium_path, span_grid(0.5, 0.5, DT), 8)
    v = np.arange(8.0)
    assert np.array_equal(apply(empty, 0.5, 0.5, v), v)


def test_composition_bitwise(chain):
    v = np.linspace(0.1, 2.0, 24)
    lhs = apply(chain, 0.75, 0.5, apply(chain, 0.5, 0.125, v))
    rhs = apply(chain, 0.75, 0.125, v)
    assert np.array_equal(lhs, rhs)


def test_ordering_and_alignment_errors(chain):
    v = np.zeros(24)
    with pytest.raises(OrderingError):
        apply(chain, 0.25, 0.5, v)
    with pytest.raises(AlignmentError):
        apply(chain, 0.5 + DT / 3, 0.0, v)


def test_single_step_diagonal_exponential():
    # one step, E = 1: S_0 = diag(exp(-(n pi)^2 dt))
    field = DiffusionField(delta=1.0, amp=0.0)
    ch = build_chain(field, None, span_grid(0.0, DT, DT), 6)
    target = np.diag(np.exp(-(np.arange(1, 7) * np.pi) ** 2 * DT))
    assert np.abs(ch.steps[0] - target).max() <= 1e-12


def test_autonomous_heat_propagator_closed_form():
    field = DiffusionField(delta=1.0, amp=0.0)
    ch = build_chain(field, None, span_grid(0.0, 0.5, DT), 8)
    e1 = np.zeros(8)
    e1[0] = 1.0
    got = apply(ch, 0.5, 0.0, e1)
    exact = math.exp(-math.pi ** 2 * 0.5)
    assert got[0] == pytest.approx(exact, rel=1e-12)
    assert np.abs(got[1:]).max() <= 1e-14


def test_step_norm_bound(chain, default_field):
    bound = math.exp(-default_field.poincare_rate * DT)
    for k in range(0, chain.grid.n_steps, 16):
        assert operator_norm(chain.steps[k]) <= bound
    assert contractivity_margin(chain) >= 0.0


def test_steps_symmetric_positive_definite(chain):
    for k in (0, 10, 100):
        s = chain.steps[k]
        assert np.array_equal(s, s.T)
        assert np.linalg.eigvalsh(s).min() > 0.0


def test_contractivity_of_apply(chain, default_field):
    rng = np.random.default_rng(0)
    v = rng.standard_normal(24)
    for (t, s) in ((0.5, 0.0), (1.0, 0.25)):
        out = apply(chain, t, s, v)
        bound = math.exp(-default_field.poincare_rate * (t - s) * (1 - 1e-6))
        assert np.linalg.norm(out) <= bound * np.linalg.norm(v)


def test_cocycle_residual_zero_shift(default_field, medium_path):
    assert cocycle_residual(default_field, medium_path, 0.5, 0.0, 12) == 0.0


def test_cocycle_residual_random_field(default_field, medium_path):
    ch = build_chain(default_field, medium_path, span_grid(0.0, 1.0, DT), 12)
    u_norm = operator_norm(chain_matrix(ch, 1.0, 0.0))
    for (t, s) in ((0.5, 0.25), (0.75, 1.0), (1.0, 0.5)):
        r = cocycle_residual(default_field, medium_path, t, s, 12)
        assert r <= 1e-10 * max(u_norm, 1e-30)


def test_cocycle_residual_autonomous(medium_path):
    field = DiffusionField(amp=0.0)
    r = cocycle_residual(field, medium_path, 0.5, 0.5, 8)
    assert r <= 1e-13


def test_decay_fit_autonomous_closed_form():
    # E = delta: ||U(t,s)|| = exp(-delta pi^2 (t-s)), so C_hat = 1 at the
    # pinned rate lambda = delta pi^2
    field = DiffusionField(delta=0.5, amp=0.0)
    ch = build_chain(field, None, span_grid(0.0, 1.0, DT), 8)
    fit = decay_fit(ch, [(1.0, 0.0), (0.5, 0.25), (0.25, 0.25)])
    assert fit.lambda_hat == pytest.approx(0.5 * math.pi ** 2)
    assert fit.C_hat == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_cap_at_one(chain):
    fit = decay_fit(chain, [(0.5, 0.5)])
    assert fit.C_hat >= 1.0


def test_decay_fit_random_field(chain):
    pairs = [(k * DT * 8, j * DT * 8) for k in range(1, 6) for j in range(k)]
    fit = decay_fit(chain, pairs)
    assert fit.C_hat <= 1.0 + 1e-9


def test_smoothing_constant_diagonal_oracle():
    # lambda_hat = 0 reduced check: the empirical constant over pairs tau and
    # modes n is max_n (lam_n tau)^(1/2) exp(-lam_n tau); with tau chosen so
    # that lam_1 tau is near 1/2 this approaches sup_x x^(1/2) e^(-x)
    # = (1/(2e))^(1/2) ~ 0.4289 (calculus maximum at x = 1/2).
    field = DiffusionField(delta=1.0, amp=0.0)
    dt = DT
    ch = build_chain(field, None, span_grid(0.0, 0.5, dt), 16)
    k_star = max(1, int(round(0.5 / math.pi ** 2 / dt)))
    pairs = [(k * dt, 0.0) for k in range(max(1, k_star - 2), k_star + 3)]
    got = smoothing_estimate(ch, 0.5, pairs, lambda_hat=0.0)
    lam = (np.arange(1, 17) * np.pi) ** 2
    oracle = max(
        float(np.max(np.sqrt(lam * (t - s)) * np.exp(-lam * (t - s))))
        for (t, s) in pairs
    )
    assert got == pytest.approx(oracle, rel=1e-10)
    assert got == pytest.approx(math.sqrt(0.5 / math.e), abs=2e-3)


def test_smoothing_estimate_random_field_refinement(default_field, spectrum):
    # finite and stable (< factor 2) across one dt refinement
    fine = sample_two_sided_path(spectrum, -10.0, 1.0, DT / 2, seed=66)
    coarse = restrict(fine, 2)
    pairs = [(k / 16, 0.0) for k in range(1, 9)]
    vals = []
    for path, dt in ((coarse, DT), (fine, DT / 2)):
        ch = build_chain(default_field, path, span_grid(0.0, 0.5, dt), 16)
        vals.append(smoothing_estimate(ch, 0.5, pairs))
    assert all(np.isfinite(vals))
    assert max(vals) / min(vals) < 2.0


def test_manufactured_time_dependent_order():
    # scalar ODE per mode: u' = -c(t) (n pi)^2 u with smooth c(t); the
    # midpoint-frozen product converges at order >= 1.9.  Oracle: exact
    # solution exp(-(n pi)^2 int c) with the integral in closed form.
    def c(t):
        return 1.0 + 0.5 * math.sin(3.0 * t)

    def c_integral(t):
        return t + 0.5 * (1.0 - math.cos(3.0 * t)) / 3.0

    m = 2
    lam = (np.arange(1, m + 1) * np.pi) ** 2
    exact = np.exp(-lam * c_integral(1.0))
    errors = []
    dts = [2.0 ** -k for k in (4, 5, 6, 7)]
    for dt in dts:
        n = int(round(1.0 / dt))
        steps = np.empty((n, m, m))
        for k in range(n):
            steps[k] = np.diag(np.exp(-c((k + 0.5) * dt) * lam * dt))
        ch = PropagatorChain(TimeGrid(0.0, n, dt), steps, DiffusionField(amp=0.0), None)
        got = apply(ch, 1.0, 0.0, np.ones(m))
        # relative error of the slowest mode (faster modes sit at the
        # floating-point floor)
        errors.append(float(abs(got[0] - exact[0]) / exact[0]))
    from randattract import observed_order

    assert observed_order(dts, errors) >= 1.9


def test_smoothing_rejects_equal_pair(chain):
    with pytest.raises(OrderingError):
        smoothing_estimate(chain, 0.5, [(0.5, 0.5)])


def test_build_chain_steps_do_not_depend_on_the_grid_span(default_field, spectrum):
    # 256 steps on [0, 2]; the steps in [0.5, 1.5] straddle a block boundary
    # of the long build and fill one block of the short one
    dt = 2.0 ** -7
    path = sample_two_sided_path(spectrum, -9.0, 2.0, dt, seed=77)
    full = build_chain(default_field, path, span_grid(0.0, 2.0, dt), 8)
    part = build_chain(default_field, path, span_grid(0.5, 1.5, dt), 8)
    assert full.steps.shape[0] == 256 and part.steps.shape[0] == 128
    assert np.array_equal(full.steps[64:192], part.steps)


@pytest.fixture()
def two_chain_workers():
    with workers(2):
        yield


@pytest.mark.parametrize("n_steps", [0, 1, 127, 129, 300])
def test_build_chain_on_two_workers_equals_serial(n_steps, medium_path):
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, n_steps * DT, DT)
    serial = build_chain(field, medium_path, grid, 16)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(2):
            split = build_chain(field, medium_path, grid, 16)
            # streamed: read block by block, which covers every step, while
            # later blocks are built
            streamed = build_chain(field, medium_path, grid, 16)
            size = evolution._BUILD_BLOCK
            for lo, block in zip(range(0, n_steps, size), streamed.blocks()):
                hi = min(lo + size, n_steps)
                assert np.array_equal(block.steps, serial.steps[lo:hi])
    finally:
        sys.setswitchinterval(interval)
    assert split.steps.shape == (n_steps, 16, 16)
    assert np.array_equal(split.steps, serial.steps)


def test_first_failing_block_raises_on_every_read(monkeypatch, medium_path):
    # blocks 1 and 3 of five fail, on whichever thread builds them: reading
    # block 0 through blocks() succeeds, and every later read of the chain
    # (its steps, or all its blocks, as a march reads them) raises block 1's
    # error, never block 3's, however the blocks were shared out, with the
    # window queueing one block ahead; the reads are laid out on 128-step
    # blocks
    monkeypatch.setattr(evolution, "_BUILD_BLOCK", 128)
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 600 * DT, DT)
    firsts = []
    exp_steps = evolution._exp_steps

    def recording(gens, dt, ceiling=math.inf):
        firsts.append(gens[0].tobytes())
        exp_steps(gens, dt, ceiling)

    monkeypatch.setattr(evolution, "_exp_steps", recording)
    build_chain(field, medium_path, grid, 12).steps  # width 1: blocks in order
    failing = {firsts[1]: "block 1", firsts[3]: "block 3"}

    def failing_blocks(gens, dt, ceiling=math.inf):
        if gens[0].tobytes() in failing:
            raise DefinitenessError(failing[gens[0].tobytes()])
        exp_steps(gens, dt, ceiling)

    monkeypatch.setattr(evolution, "_exp_steps", failing_blocks)
    monkeypatch.setattr(evolution, "_AHEAD", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(2):
            for read in ("steps", "blocks"):
                for _ in range(3):
                    chain = build_chain(field, medium_path, grid, 12)
                    assert next(chain.blocks()).steps.shape == (128, 12, 12)
                    for _ in range(2):
                        with pytest.raises(DefinitenessError, match="block 1"):
                            if read == "steps":
                                chain.steps
                            else:
                                list(chain.blocks())
        # block 3 alone fails: the first steps read joins blocks 0-2 and
        # releases blocks 0 and 1 before it fails, and the second read
        # raises block 3's error again, not a read of a released block
        del failing[firsts[1]]
        for width in (1, 2):
            with workers(width):
                chain = build_chain(field, medium_path, grid, 12)
                for _ in range(2):
                    with pytest.raises(DefinitenessError, match="block 3"):
                        chain.steps
    finally:
        sys.setswitchinterval(interval)


def test_build_chain_on_more_workers_than_cores(medium_path):
    # 3 chains of 5 blocks on 3 pool threads and the reader with a short
    # switch interval: each block is an array of its own, copied into its
    # chain's join, so any cross-block write would show
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 600 * DT, DT)
    serial = build_chain(field, medium_path, grid, 12)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(4):
            split = [build_chain(field, medium_path, grid, 12) for _ in range(3)]
            assert all(np.array_equal(ch.steps, serial.steps) for ch in split)
    finally:
        sys.setswitchinterval(interval)


def test_ordered_map_shares_its_workers_with_the_chains_of_its_items(medium_path):
    # 5 items, each building and joining a 5-block chain, on 3 workers and
    # the caller with a short switch interval: every item sees the workers,
    # so its blocks queue beside the items, and the results come back in
    # order with the bits of a serial build; of items 1 and 3, which fail,
    # item 1's error is the one raised
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 600 * DT, DT)
    serial = build_chain(field, medium_path, grid, 12).steps
    failing = set()

    def item(i):
        if i in failing:
            raise DefinitenessError(f"item {i}")
        steps = build_chain(field, medium_path, grid, 12).steps
        return i, evolution._executor.get() is not None, steps

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(4):
            results = ordered_map(item, range(5))
            failing.update((1, 3))
            with pytest.raises(DefinitenessError, match="item 1"):
                ordered_map(item, range(5))
    finally:
        sys.setswitchinterval(interval)
    assert [(i, shared) for i, shared, _ in results] == [(i, True) for i in range(5)]
    assert all(np.array_equal(steps, serial) for _, _, steps in results)


@pytest.mark.parametrize("width", [1, 2])
def test_ordered_map_of_no_item_or_one(width):
    # no items give []; one item runs on the calling thread, whose future
    # is the one no worker runs
    def item(i):
        return i, threading.current_thread()

    with workers(width):
        assert ordered_map(item, []) == []
        assert ordered_map(item, [7]) == [(7, threading.current_thread())]


def test_joined_chain_holds_one_chain_and_the_window(two_chain_workers):
    # steps on a 16-block chain at width 2 copies each block into the joined
    # array as the window passes it: besides that array the join holds the
    # queued window, the block being copied and one eigh temporary per
    # thread, not a second copy of the chain
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 32, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -2.0, 16.0, dt, seed=9)
    grid = span_grid(0.0, 16.0, dt)
    reference = reference_chain(field, path, grid, m)
    build_chain(field, path, span_grid(0.0, 1.0, dt), m).steps  # warm the caches
    tracemalloc.start()
    try:
        chain = build_chain(field, path, grid, m)
        chain.steps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = 128 * m * m * 8  # 128 steps of matrices, four blocks
    assert chain.steps.shape[0] == 16 * 128
    assert np.array_equal(chain.steps, reference.steps)
    assert peak - chain.steps.nbytes < (evolution._AHEAD + 5) * block_bytes


def test_read_once_chain_releases_the_blocks_a_read_has_passed(
    monkeypatch, medium_path
):
    # 600 steps, five 128-step blocks: taking block 2 releases blocks 0 and
    # 1, so a second pass over the blocks, or the join, raises and says to
    # join a chain read more than once; blocks taken before the release keep
    # their steps, and the first pass reads on from block 2.  Reading the
    # steps of a fresh chain joins it, and its blocks may then be read again
    monkeypatch.setattr(evolution, "_BUILD_BLOCK", 128)
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 600 * DT, DT)
    reference = reference_chain(field, medium_path, grid, 12)
    for width in (1, 2):
        with workers(width):
            chain = build_chain(field, medium_path, grid, 12)
            blocks = chain.blocks()
            first, second, third = next(blocks), next(blocks), next(blocks)
            with pytest.raises(AlignmentError, match="released"):
                next(chain.blocks())
            with pytest.raises(
                AlignmentError, match="released.*joined first by reading its steps"
            ):
                chain.steps
            assert np.array_equal(first.steps, reference.steps[:128])
            assert np.array_equal(second.steps, reference.steps[128:256])
            rest = np.concatenate([third.steps] + [block.steps for block in blocks])
            assert np.array_equal(rest, reference.steps[256:])
            chain = build_chain(field, medium_path, grid, 12)
            assert np.array_equal(chain.steps[100:300], reference.steps[100:300])
            assert chain._blocks is None
            for _ in range(2):
                joined = np.concatenate([block.steps for block in chain.blocks()])
                assert np.array_equal(joined, reference.steps)


def test_read_once_steps_are_joined_once(monkeypatch, medium_path):
    # steps builds every block once, queued or not, and later reads
    # (the march's blocks) come from the join, any number of times
    built = []
    exp_steps = evolution._exp_steps

    def counting(gens, dt, ceiling=math.inf):
        built.append(len(gens))
        exp_steps(gens, dt, ceiling)

    monkeypatch.setattr(evolution, "_exp_steps", counting)
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 1000 * DT, DT)
    reference = reference_chain(field, medium_path, grid, 12)  # no block counted
    with workers(2):
        chain = build_chain(field, medium_path, grid, 12)
        assert np.array_equal(chain.steps, reference.steps)
        for _ in range(2):
            joined = np.concatenate([block.steps for block in chain.blocks()])
            assert np.array_equal(joined, reference.steps)
        assert sum(built) == 1000


def test_read_once_march_memory_is_bounded_in_the_horizon():
    # integrate_semilinear on chains of 768 and 3072 steps: the peaks
    # differ by less than 128 steps of matrices at width 1 (the march
    # states, 3 * 768 * m floats apart, fit in that); at width 2 the longer
    # march holds at most the queued window, the march's block and one eigh
    # temporary per thread besides its states
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 32, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -2.0, 24.0, dt, seed=9)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.0, u0=np.full(m, 0.1),
    )
    block_bytes = 128 * m * m * 8  # 128 steps of matrices, four blocks
    reference = reference_chain(field, path, span_grid(0.0, 24.0, dt), m)
    expected = integrate_semilinear(problem, reference).states
    del reference

    def peak(horizon):
        build_chain(field, path, span_grid(0.0, 1.0, dt), m).steps  # warm the caches
        tracemalloc.start()
        try:
            chain = build_chain(field, path, span_grid(0.0, horizon, dt), m)
            traj = integrate_semilinear(problem, chain)
            return tracemalloc.get_traced_memory()[1], traj.states
        finally:
            tracemalloc.stop()

    (short, _), (long, states) = peak(6.0), peak(24.0)
    assert np.array_equal(states, expected)
    assert abs(long - short) < block_bytes
    with workers(2):
        long, states = peak(24.0)
        assert np.array_equal(states, expected)
        assert long - states.nbytes < (evolution._AHEAD + 5) * block_bytes


def test_read_once_march_at_m64_holds_a_few_one_mib_blocks():
    # at the default m = 64, 32 steps of matrices are 1 MiB: besides its
    # states, a 1024-step march at width 2 holds the queued window, the block
    # it has just left and the eigh temporaries of each building thread,
    # under _AHEAD + 5 MiB (3.5-3.7 MiB here with 16-step blocks, 7.1 MiB
    # with 32-step and 24.7 MiB with 128-step blocks)
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 64, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -2.0, 8.0, dt, seed=9)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.0, u0=np.full(m, 0.1),
    )
    block_bytes = 32 * m * m * 8
    with workers(2):
        build_chain(field, path, span_grid(0.0, 1.0, dt), m).steps  # warm the caches
        tracemalloc.start()
        try:
            chain = build_chain(field, path, span_grid(0.0, 8.0, dt), m)
            states = integrate_semilinear(problem, chain).states
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert states.shape == (1025, m)
    assert peak - states.nbytes < (evolution._AHEAD + 5) * block_bytes


def test_a_chain_marched_twice_is_joined_first(medium_path):
    # a 3-block chain marched a second time without a join reads released
    # blocks, and the error says to join it; joined by steps, a chain is
    # marched three times to the bits of a march on a fresh chain
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 300 * DT, DT)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.linspace(0.5, -0.5, 16),
    )
    for width in (1, 2):
        with workers(width):
            chain = build_chain(field, medium_path, grid, 16)
            once = integrate_semilinear(problem, chain).states
            with pytest.raises(AlignmentError, match="joined first by reading its steps"):
                integrate_semilinear(problem, chain)
            chain = build_chain(field, medium_path, grid, 16)
            chain.steps
            for _ in range(3):
                assert np.array_equal(integrate_semilinear(problem, chain).states, once)


def test_one_step_formula_for_every_chain(medium_path):
    # an amp > 0 chain's step is _exp_steps of its midpoint generator alone,
    # bit for bit: amp = 0 chains take their one step from _exp_steps too
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 0.5, DT)
    ch = build_chain(field, medium_path, grid, 12)
    zetas = driver_values(field, medium_path, 0, grid.n_steps)
    mus = np.tanh((zetas[:-1] + zetas[1:]) / 2.0)
    order = _parity_order(12)[0]
    for k in (0, 77, grid.n_steps - 1):
        gen = _generator(field, 12, float(mus[k]))
        single = gen[np.ix_(order, order)][None]
        _exp_steps(single, DT, math.inf)
        assert np.array_equal(ch.steps[k], single[0])


@pytest.mark.parametrize("m", [1, 7, 16])
def test_chain_steps_are_parity_exact_and_match_natural_order(m, medium_path):
    # eigh in parity order is a permutation similarity: each step keeps
    # exact zeros between odd-n and even-n modes and equals the step from a
    # natural-order eigh up to rounding
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 0.5, DT)
    ch = build_chain(field, medium_path, grid, m)
    zetas = driver_values(field, medium_path, 0, grid.n_steps)
    mus = np.tanh((zetas[:-1] + zetas[1:]) / 2.0)
    n = np.arange(m)
    off_parity = (n[:, None] + n[None, :]) % 2 == 1
    assert np.all(ch.steps[:, off_parity] == 0.0)
    for k in range(grid.n_steps):
        lam, q = np.linalg.eigh(_generator(field, m, float(mus[k])))
        natural = (q * np.exp(DT * lam)) @ q.T
        assert np.abs(ch.steps[k] - natural).max() <= 1e-13


def test_autonomous_chain_makes_one_eigh(monkeypatch):
    # the bound check and the step of an amp = 0 chain share one eigh
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    ch = build_chain(DiffusionField(amp=0.0), None, span_grid(0.0, 1.0, DT), 16)
    assert ch.steps.shape[0] == round(1.0 / DT)
    assert len(calls) == 1


def test_eigh_runs_on_pieces_that_cover_each_step_once(monkeypatch, medium_path):
    # a 100-step chain of 16-step blocks: eigh sees at most _EIGH_PIECE
    # matrices a call, and its calls sum to the steps built
    calls = []
    eigh = np.linalg.eigh

    def counted(a):
        calls.append(a.shape[0])
        return eigh(a)

    field, grid = DiffusionField(amp=0.2), span_grid(0.0, 100 * DT, DT)
    reference = reference_chain(field, medium_path, grid, 12)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    chain = build_chain(field, medium_path, grid, 12)
    assert np.array_equal(chain.steps, reference.steps)
    assert max(calls) == evolution._EIGH_PIECE and sum(calls) == 100


@pytest.mark.parametrize("amp", [0.2, 0.0])
def test_generator_rows_match_assembled_operator(amp, medium_path):
    # t0 != 0 on a shifted fiber: a wrong node-to-path offset reads other zetas
    field = DiffusionField(amp=amp)
    fiber = wiener_shift(medium_path, 300)
    ch = build_chain(field, fiber, span_grid(-0.75 + 7 * DT, 0.25, DT), 24)
    vecs = np.random.default_rng(5).standard_normal((40, fiber.mode_count))
    rows = ch.generator_rows(vecs)
    assert rows.shape == (40, 24)
    for i, v in enumerate(vecs):
        t = ch.grid.t0 + i * DT
        embedded = np.zeros(24)
        embedded[: v.size] = v
        ref = assemble_operator(field, t, fiber, 24) @ embedded
        assert np.abs(rows[i] - ref).max() <= 1e-13 * np.abs(ref).max()


def test_generator_row_alone_equals_row_in_block(default_field, medium_path):
    # a row alone comes from a chain that starts at its node
    ch = build_chain(default_field, medium_path, span_grid(0.5, 1.0, DT), 24)
    vecs = np.random.default_rng(6).standard_normal((ch.grid.n_steps + 1, 16))
    block = ch.generator_rows(vecs)

    def from_node(j):
        return build_chain(default_field, medium_path, span_grid(0.5 + j * DT, 1.0, DT), 24)

    for j in (0, 1, 77, ch.grid.n_steps):
        assert np.array_equal(from_node(j).generator_rows(vecs[j : j + 1])[0], block[j])
    assert np.array_equal(from_node(20).generator_rows(vecs[20:50]), block[20:50])
    with pytest.raises(AlignmentError):
        from_node(1).generator_rows(vecs)


# one alignment rule (noise._as_index) behind every "time on the grid" check;
# dt = 0.01 is not dyadic, so k * dt itself carries rounding
_ALIGN_DT = 0.01
_ALIGN_T0 = -0.3


@pytest.mark.parametrize(
    "reader",
    [
        lambda path, s: path.index_of(s),
        lambda path, s: TimeGrid(_ALIGN_T0, 100, _ALIGN_DT).index(_ALIGN_T0 + s),
        lambda path, s: span_grid(_ALIGN_T0, _ALIGN_T0 + s, _ALIGN_DT).n_steps,
        lambda path, s: build_chain(
            DiffusionField(driver_horizon=s), path,
            span_grid(0.0, 2 * _ALIGN_DT, _ALIGN_DT), 4,
        ).steps,
    ],
    ids=["index_of", "grid_index", "span_grid", "driver_horizon"],
)
def test_one_alignment_rule(reader):
    path = sample_two_sided_path(NoiseSpectrum(2, 1.0), -1.0, 1.0, _ALIGN_DT, seed=3)
    k = 37
    exact = reader(path, k * _ALIGN_DT)
    assert np.array_equal(reader(path, k * _ALIGN_DT * (1.0 + 1e-13)), exact)
    assert np.array_equal(reader(path, k * _ALIGN_DT - 1e-12), exact)
    with pytest.raises(AlignmentError, match="not a multiple of dt"):
        reader(path, k * _ALIGN_DT + _ALIGN_DT / 3.0)


def test_norm_bound_does_not_depend_on_the_block_size(monkeypatch, medium_path):
    # the coefficient floors are summed exactly and rounded once, so a chain
    # built in blocks of 5 or of 16 steps, or in none, has the same bound,
    # bit for bit
    field = DiffusionField(amp=0.2)
    grid = span_grid(-2.0, 0.0, DT)
    bounds = []
    for size in (5, 16):
        monkeypatch.setattr(evolution, "_BUILD_BLOCK", size)
        chain = build_chain(field, medium_path, grid, 4)
        chain.steps  # read whole
        bounds.append(chain.norm_bound)
    bounds.append(reference_chain(field, medium_path, grid, 4).norm_bound)
    assert bounds[0] == bounds[1] == bounds[2]


def test_counts_made_on_many_workers_add_up(medium_path):
    # five threads on fewer cores, switching every microsecond: six chains
    # built in ordered_map items, their blocks on any thread, count every
    # step once in the run that built them, and nothing outside it
    field = DiffusionField(amp=0.2)
    grid = span_grid(0.0, 200 * DT, DT)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with workers(5), counting() as counters:
            ordered_map(
                lambda _: build_chain(field, medium_path, grid, 8).steps, range(6)
            )
        with workers(5):
            build_chain(field, medium_path, grid, 8).steps
    finally:
        sys.setswitchinterval(interval)
    assert counters.steps_built == counters.eigh_matrices == 6 * 200
    assert counters.driver_points == 6 * 201 * (round(8.0 / DT) + 1)
