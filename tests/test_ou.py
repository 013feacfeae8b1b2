"""Stationary state construction, shift stationarity, temperedness diagnostics."""

import math
import tracemalloc

import numpy as np
import pytest

from randattract import (
    AlignmentError,
    DiffusionField,
    NoiseSpectrum,
    build_chain,
    chain_matrix,
    construct_initial,
    propagate,
    sample_two_sided_path,
    span_grid,
    temperedness_diagnostic,
    wiener_shift,
)
from randattract import evolution
from randattract.errors import ConfigurationError, NumericalError, ShiftRangeError
from randattract.evolution import workers
from randattract.ou import global_form_reference, stationarity_residual_table
from randattract.pathwise import corrected_increments

from conftest import DT, reference_chain, synthetic_path


def test_zero_path_zero_state(default_field):
    zero = synthetic_path(np.zeros((4097, 16)), DT, 4096)
    st = construct_initial(default_field, zero, 8.0, 16)
    assert np.all(st.z0 == 0.0)
    assert st.truncation_bound == 0.0


def _history_loop(field, path, a, m):
    """z0 by the history trapezoid as a loop of its own, streamed left to
    right: acc_j = S_{j-1} acc_{j-1} + weight_j A(t_j) w_j on [-a, 0]."""
    chain = build_chain(field, path, span_grid(-a, 0.0, path.dt), m)
    n = chain.grid.n_steps
    o = path.base_origin
    k0 = o + path.index_of(-a)
    rows = chain.generator_rows(path.base[k0 : k0 + n + 1] - path.base[o])
    acc = (path.dt / 2.0) * rows[0]
    for j in range(1, n + 1):
        weight = path.dt / 2.0 if j == n else path.dt
        acc = chain.steps[j - 1] @ acc + weight * rows[j]
    return acc


@pytest.mark.parametrize("amp", [0.2, 0.0])
def test_construct_initial_is_the_history_trapezoid_bitwise(amp, medium_path):
    field = DiffusionField(amp=amp)
    st = construct_initial(field, medium_path, 4.0, 16)
    assert np.array_equal(st.z0, _history_loop(field, medium_path, 4.0, 16))


def test_non_finite_history_raises():
    # a NaN inside [-a, 0] used to come back as a NaN z0
    rng = np.random.default_rng(4)
    values = rng.standard_normal((1025, 4)).cumsum(axis=0) * math.sqrt(DT)
    values[700] = np.nan
    path = synthetic_path(values, DT, 1024)
    with pytest.raises(NumericalError, match="non-finite"):
        construct_initial(DiffusionField(amp=0.0), path, 2.0, 8)


def test_propagate_initial_identity(default_field, medium_path):
    st = construct_initial(default_field, medium_path, 8.0, 16)
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), 16)
    traj = propagate(st, chain)
    assert np.array_equal(traj.states[0], st.z0)
    assert np.array_equal(traj.state_at(0.0), st.z0)


def test_propagate_matches_step_loop(default_field, medium_path):
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), 16)
    chain.steps  # read more than once: joined first
    st = construct_initial(default_field, medium_path, 4.0, 16)
    traj = propagate(st, chain)
    # reference: the linear pathwise step with sigma = 1 written out
    noise = corrected_increments(chain)
    z = st.z0
    ref = [z]
    for k in range(chain.grid.n_steps):
        z = chain.steps[k] @ (z + noise[k])
        ref.append(z)
    assert np.array_equal(traj.states, np.stack(ref))


def test_propagate_rejects_a_chain_off_its_span(default_field, medium_path):
    # Z starts from z0 at time 0, so the propagated chain's span must start
    # there
    st = construct_initial(default_field, medium_path, 4.0, 16)
    for t0, t1 in ((DT, 0.5 + DT), (-DT, 0.5)):
        chain = build_chain(default_field, medium_path, span_grid(t0, t1, DT), 16)
        with pytest.raises(ConfigurationError, match="start at 0"):
            propagate(st, chain)


def test_global_form_rejects_a_chain_not_from_0(default_field, medium_path):
    # the corrector runs over the whole chain, and U(t, 0) from 0: a chain
    # from -DT would add a step to one and not to the other
    st = construct_initial(default_field, medium_path, 4.0, 16)
    chain = build_chain(default_field, medium_path, span_grid(-DT, 0.5, DT), 16)
    with pytest.raises(ConfigurationError, match=r"\[0, t\]"):
        global_form_reference(st, chain)


def test_insufficient_coverage_raises(default_field, spectrum):
    short = sample_two_sided_path(spectrum, -4.0, 1.0, DT, seed=2)
    with pytest.raises(ShiftRangeError):
        construct_initial(default_field, short, 8.0, 8)


@pytest.mark.slow
def test_stationary_variance_oracle():
    # mode-1 variance of Z(w) ~ q1 / (2 lam1) with lam1 = pi^2 delta, delta=0.5.
    # Monte Carlo with a = 8 (tail ~ e^{-2 lam a} negligible), dt = 2^-6.
    delta = 0.5
    field = DiffusionField(delta=delta, amp=0.0)
    spec = NoiseSpectrum(1, 1.0)
    dt = 2.0 ** -6
    n_paths = 4096
    vals = np.empty(n_paths)
    for i in range(n_paths):
        p = sample_two_sided_path(spec, -8.0, 0.0, dt, seed=80_000 + i)
        vals[i] = construct_initial(field, p, 8.0, 1).z0[0]
    lam = delta * math.pi ** 2
    target = 1.0 / (2.0 * lam)
    se = target * math.sqrt(2.0 / (n_paths - 1))
    assert abs(vals.var(ddof=1) - target) <= 3.0 * se
    assert abs(vals.mean()) <= 4.0 * math.sqrt(target / n_paths)


def test_truncation_halving_bound(default_field, medium_path):
    st8 = construct_initial(default_field, medium_path, 8.0, 16)
    st4 = construct_initial(default_field, medium_path, 4.0, 16)
    # halving a changes z0 by at most the reported tail bound at a = 4
    assert np.linalg.norm(st8.z0 - st4.z0) <= st4.truncation_bound
    assert st4.truncation_bound <= 1.0  # C * max||w|| * e^{-lambda*4}


def _max_norm_bound(field, path, a):
    """The truncation bound construct_initial reported before: the largest
    ||w|| on [-a, -a/2] times exp(-poincare_rate a)."""
    k_lo, k_hi = path.index_of(-a), int(math.floor(-a / 2.0 / path.dt))
    o = path.base_origin
    vals = path.base[o + k_lo : o + k_hi + 1] - path.base[o]
    return float(np.sqrt(np.einsum("ij,ij->i", vals, vals)).max()) * math.exp(
        -field.poincare_rate * a
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_truncation_bound_is_tight_above_the_truncation_error(seed):
    # amp > 0, a = 2 and 3 against a history of 16: the errors (1e-5 to
    # 1e-7) are far above rounding, and the bound lies within 1x-100x of
    # them; the max ||w|| e^{-lambda a} formula it replaced is 1e3-1e6x,
    # which the same check refuses
    field = DiffusionField(driver_horizon=2.0)
    dt, m = 2.0 ** -7, 16
    path = sample_two_sided_path(NoiseSpectrum(8, 1.0), -18.0, 0.0, dt, seed=seed)
    reference = construct_initial(field, path, 16.0, m).z0
    for a in (2.0, 3.0):
        st = construct_initial(field, path, a, m)
        error = float(np.linalg.norm(st.z0 - reference))
        assert error > 1e-9
        assert error <= st.truncation_bound <= 100.0 * error
        assert not _max_norm_bound(field, path, a) <= 100.0 * error


def test_truncation_bound_factor_is_the_chain_norm_bound(default_field, medium_path):
    # the bound is the certified ||U(0, -a)|| factor times ||w(-a)|| + ||z0||,
    # and the factor, summed block by block as the chain is read, lies above
    # the history chain's norm and agrees with the sum over the whole grid
    a, m = 2.0, 16
    grid = span_grid(-a, 0.0, DT)
    st = construct_initial(default_field, medium_path, a, m)
    chain = build_chain(default_field, medium_path, grid, m)
    with pytest.raises(AlignmentError, match="read whole"):
        chain.norm_bound
    norm = np.linalg.norm(chain_matrix(chain, 0.0, -a), 2)
    tail = np.linalg.norm(medium_path.value_at(-round(a / DT))) + np.linalg.norm(st.z0)
    assert st.truncation_bound == chain.norm_bound * tail
    assert norm <= chain.norm_bound < 10.0 * norm
    whole = reference_chain(default_field, medium_path, grid, m).norm_bound
    assert chain.norm_bound == pytest.approx(whole, rel=1e-13)


def test_truncation_factor_at_amp_zero_is_exact():
    # without amp every step is exp(-dt delta K0): the factor exp(-pi^2 dt
    # sum_k delta) is exp(-delta pi^2 a), the chain's norm to rounding
    field = DiffusionField(amp=0.0)
    for a in (1.0, 8.0):
        chain = build_chain(field, None, span_grid(-a, 0.0, DT), 8)
        exact = math.exp(-field.delta * math.pi ** 2 * a)
        assert chain.norm_bound == pytest.approx(exact, rel=1e-13)
        norm = np.linalg.norm(chain_matrix(chain, 0.0, -a), 2)
        assert chain.norm_bound == pytest.approx(norm, rel=1e-12)


def test_history_memory_is_flat_in_a():
    # the history is marched block by block, each block forming its own
    # weighted rows, and only the last state kept: at m = 8 the tracemalloc
    # peak of construct_initial differs by less than one 16-step block
    # (8 KiB) between a = 8 and a = 64, 7168 steps apart
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -66.0, 0.0, dt, seed=9)
    block_bytes = evolution._BUILD_BLOCK * m * m * 8

    def peak(a):
        tracemalloc.start()
        try:
            construct_initial(field, path, a, m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with workers(1):
        construct_initial(field, path, 1.0, m)  # warm the caches
        assert abs(peak(64.0) - peak(8.0)) < block_bytes


def test_stationarity_zero_shift_exact(default_field, medium_path):
    entry = stationarity_residual_table(default_field, medium_path, [1.0], [0.0], 4.0, 16)[0]
    assert entry.residual == 0.0


def test_stationarity_table_holds_one_propagation_at_a_time():
    # the left fiber's propagation over [0, 8] (1025 states, 64 KiB at
    # m = 8) is dropped once its compared states are copied out, so the
    # table peaks no higher than that fiber's own history and propagation,
    # to within half a shifted fiber's propagation over [0, 4]; keeping the
    # left propagation while the shifted fibers run exceeds that by a whole
    # shifted one
    field = DiffusionField(driver_horizon=2.0)
    m, dt, a, ts = 8, 2.0 ** -7, 2.0, [1.0, 2.0, 4.0]
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -4.0, 8.0, dt, seed=9)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def left_fiber():
        state = construct_initial(field, path, a, m)
        propagate(state, build_chain(field, path, span_grid(0.0, 8.0, dt), m))

    with workers(1):
        stationarity_residual_table(field, path, [1.0], [1.0], a, m)  # warm the caches
        left = peak(left_fiber)
        table = peak(lambda: stationarity_residual_table(field, path, ts, ts, a, m))
    shifted_bytes = (4 * 128 + 1) * m * 8
    assert table - left < shifted_bytes / 2


def test_stationarity_residual_resolved_config():
    # strongly damped field + fine grid: residual far below 1e-8 (1 + ||Z||)
    field = DiffusionField(delta=1.0, amp=0.2)
    spec = NoiseSpectrum(8, 1.0)
    path = sample_two_sided_path(spec, -20.0, 6.0, 2.0 ** -9, seed=12)
    entries = stationarity_residual_table(field, path, [1.0, 2.0], [1.0, 2.0], 8.0, 8)
    for e in entries:
        assert e.relative <= 1e-8


def test_stationarity_residual_autonomous():
    field = DiffusionField(delta=1.0, amp=0.0)
    spec = NoiseSpectrum(8, 1.0)
    path = sample_two_sided_path(spec, -16.0, 6.0, 2.0 ** -9, seed=13)
    entries = stationarity_residual_table(field, path, [2.0, 4.0], [1.0, 2.0], 8.0, 8)
    for e in entries:
        assert e.relative <= 1e-10


def test_linearity_in_path_scaling(default_field, medium_path):
    scaled_base = 2.0 * medium_path.base
    scaled_base.setflags(write=False)
    from randattract import WienerPath

    scaled_path = WienerPath(
        scaled_base, medium_path.base_origin, medium_path.dt, medium_path.spectrum
    )
    # the operator itself depends on the path, so compare with a frozen field
    auto = DiffusionField(amp=0.0)
    st1 = construct_initial(auto, medium_path, 4.0, 16)
    st2 = construct_initial(auto, scaled_path, 4.0, 16)
    assert np.abs(st2.z0 - 2.0 * st1.z0).max() <= 1e-12 * max(np.abs(st2.z0).max(), 1e-30)


def test_propagate_matches_global_form(default_field):
    # local recursion vs global representation: agreement at 8 checkpoints in a
    # resolved configuration (small lam * dt), tolerance 1e-6 relative
    field = DiffusionField(delta=0.05, amp=0.0)
    spec = NoiseSpectrum(1, 1.0)
    dt = 2.0 ** -8
    path = sample_two_sided_path(spec, -8.0, 1.0, dt, seed=3)
    st = construct_initial(field, path, 8.0, 1)
    chain = build_chain(field, path, span_grid(0.0, 1.0, dt), 1)
    traj = propagate(st, chain)
    scale = 1.0 + float(np.abs(traj.states).max())
    for k in range(1, 9):
        t = k / 8.0
        upto = build_chain(field, path, span_grid(0.0, t, dt), 1)
        ref = global_form_reference(st, upto)
        assert np.abs(traj.state_at(t) - ref).max() <= 1e-6 * scale


def test_propagate_global_form_consistency_refines(default_field):
    # at the default resolution the two forms differ by the documented
    # quadrature mismatch, which shrinks under dt halving
    spec = NoiseSpectrum(8, 1.0)
    diffs = []
    for exp in (7, 8):
        dt = 2.0 ** -exp
        path = sample_two_sided_path(spec, -18.0, 1.0, dt, seed=9)
        st = construct_initial(default_field, path, 8.0, 8)
        chain = build_chain(default_field, path, span_grid(0.0, 1.0, dt), 8)
        chain.steps  # read by propagate and the global form: joined once
        traj = propagate(st, chain)
        ref = global_form_reference(st, chain)
        diffs.append(float(np.abs(traj.state_at(1.0) - ref).max()))
    assert diffs[1] < diffs[0]


def test_law_stationarity_marginal_variance():
    # marginal variance of <Z(theta_t w), e_n> is t-independent: paired
    # Monte Carlo difference within 3 SE, modes n <= 4
    field = DiffusionField(delta=0.5, amp=0.0)
    spec = NoiseSpectrum(4, 1.0)
    dt = 2.0 ** -6
    n_paths = 2048
    z0 = np.empty((n_paths, 4))
    zt = np.empty((n_paths, 4))
    t = 1.0
    for i in range(n_paths):
        p = sample_two_sided_path(spec, -8.0, 1.0, dt, seed=90_000 + i)
        st = construct_initial(field, p, 8.0, 4)
        traj = propagate(st, build_chain(field, p, span_grid(0.0, t, dt), 4))
        z0[i] = st.z0
        zt[i] = traj.state_at(t)
    paired = zt ** 2 - z0 ** 2
    se = paired.std(axis=0, ddof=1) / math.sqrt(n_paths)
    assert np.all(np.abs(paired.mean(axis=0)) <= 3.0 * se)


def test_temperedness_zero_path(default_field):
    zero = synthetic_path(np.zeros((8193, 8)), 2.0 ** -6, 8192)
    table = temperedness_diagnostic(
        default_field, lambda k: wiener_shift(zero, -k), zero.dt, 0.2, [0.1],
        16.0, 8.0, 8, n_ladder=5,
    )
    assert all(r.norm == 0.0 for r in table.rows)
    assert table.slope == 0.0
    assert "surrogate" in table.note


def test_temperedness_discount_decays(default_field, spectrum):
    path = sample_two_sided_path(spectrum, -120.0, 0.0, 2.0 ** -6, seed=5)
    table = temperedness_diagnostic(
        default_field, lambda k: wiener_shift(path, -k), path.dt, 0.2, [0.1],
        100.0, 8.0, 16, n_ladder=8,
    )
    at = {round(r.t): r for r in table.rows}
    # e^{-0.1 t} Y decays from t = 20ish to t = 100 for this seed
    ts = sorted(at)
    assert at[ts[-1]].discounted[0] < at[ts[len(ts) // 2]].discounted[0]
    assert -0.2 <= table.slope <= 0.2


@pytest.mark.parametrize("horizon", [0.5, 1.0])
def test_temperedness_slope_is_nan_on_a_one_rung_ladder(horizon, default_field, spectrum):
    # a horizon of at most 1 is a ladder of one rung, and no slope is fitted
    # through one point: 0.0 would read as tempered
    path = sample_two_sided_path(spectrum, -12.0, 0.0, 2.0 ** -6, seed=5)
    table = temperedness_diagnostic(
        default_field, lambda k: wiener_shift(path, -k), path.dt, 0.2, [0.1],
        horizon, 2.0, 16,
    )
    assert len(table.rows) == 1 and table.rows[0].norm > 0.0
    assert math.isnan(table.slope)


def test_temperedness_ladder_stays_within_a_short_horizon(default_field, spectrum):
    # the ladder used to start at t = 1 whatever the horizon
    path = sample_two_sided_path(spectrum, -12.0, 0.0, 2.0 ** -6, seed=5)
    table = temperedness_diagnostic(
        default_field, lambda k: wiener_shift(path, -k), path.dt, 0.2, [0.1],
        0.5, 2.0, 16, n_ladder=4,
    )
    assert table.rows and max(r.t for r in table.rows) <= 0.5


def _drawn(spec, field, a, dt, seed):
    """Each rung's fiber theta_{-k dt} w drawn over its own history window
    [-(a + driver lead), 0], as ou-diagnose draws it."""
    lead = field.driver_horizon if field.amp > 0 else 0.0
    return lambda k: sample_two_sided_path(spec, -(a + lead), 0.0, dt, seed, offset=-k)


@pytest.mark.parametrize("horizon", [6.0, 1.0])
def test_temperedness_drawn_fibers_equal_shifted_fibers(horizon):
    # every row and the slope (NaN on the one-rung ladder of horizon 1) are
    # bitwise those read through shifts of one path holding every rung
    field = DiffusionField(driver_horizon=2.0)
    spec, dt, a, m = NoiseSpectrum(4, 1.0), 2.0 ** -6, 2.0, 8
    path = sample_two_sided_path(spec, -(horizon + a + 2.0), 0.0, dt, seed=61)
    args = (0.2, [0.1, 0.5], horizon, a, m)
    shifted = temperedness_diagnostic(field, lambda k: wiener_shift(path, -k), dt, *args)
    drawn = temperedness_diagnostic(field, _drawn(spec, field, a, dt, 61), dt, *args)
    assert drawn.rows == shifted.rows
    assert len(drawn.rows) == (1 if horizon == 1.0 else 12)
    assert np.array_equal(drawn.slope, shifted.slope, equal_nan=True)


def test_temperedness_rejects_a_fiber_on_another_grid(default_field, medium_path):
    with pytest.raises(ConfigurationError):
        temperedness_diagnostic(
            default_field, lambda k: wiener_shift(medium_path, -k), 2 * medium_path.dt,
            0.2, [0.1], 1.0, 2.0, 8,
        )


def test_temperedness_memory_is_flat_in_the_horizon():
    # each rung's fiber is drawn over its own window and dropped before the
    # next, so the tracemalloc peak differs by less than one fiber window
    # (513 rows of 8 modes, 32 KiB) between horizons 8 and 64; a path
    # holding every rung grows from 1,537 to 8,705 rows
    field = DiffusionField(driver_horizon=2.0)
    spec, dt, a, m = NoiseSpectrum(8, 1.0), 2.0 ** -7, 2.0, 8
    fiber = _drawn(spec, field, a, dt, 9)
    window_bytes = (int((a + 2.0) / dt) + 1) * spec.mode_count * 8

    def peak(horizon):
        tracemalloc.start()
        try:
            temperedness_diagnostic(field, fiber, dt, 0.2, [0.1], horizon, a, m)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with workers(1):
        construct_initial(field, fiber(1), 1.0, m)  # warm the caches
        assert abs(peak(64.0) - peak(8.0)) < window_bytes
