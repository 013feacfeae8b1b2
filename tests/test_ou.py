"""Stationary state construction, shift stationarity, temperedness diagnostics."""

import math

import numpy as np
import pytest

from randattract import (
    DiffusionField,
    NoiseSpectrum,
    build_chain,
    construct_initial,
    propagate,
    sample_two_sided_path,
    span_grid,
    temperedness_diagnostic,
)
from randattract.errors import ConfigurationError, NumericalError, ShiftRangeError
from randattract.ou import global_form_reference, stationarity_residual_table
from randattract.pathwise import corrected_increments

from conftest import DT, synthetic_path


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
    rows = chain.generator_rows(0, path.base[k0 : k0 + n + 1] - path.base[o])
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
    traj = propagate(st, default_field, medium_path, 0.5, 16)
    assert np.array_equal(traj.states[0], st.z0)
    assert np.array_equal(traj.state_at(0.0), st.z0)


def test_propagate_matches_step_loop(default_field, medium_path):
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), 16)
    st = construct_initial(default_field, medium_path, 4.0, 16)
    traj = propagate(st, default_field, medium_path, 0.5, 16, chain=chain)
    # reference: the linear pathwise step with sigma = 1 written out
    noise = corrected_increments(chain, medium_path)
    z = st.z0
    ref = [z]
    for k in range(chain.grid.n_steps):
        z = chain.steps[k] @ (z + noise[k])
        ref.append(z)
    assert np.array_equal(traj.states, np.stack(ref))


def test_propagate_rejects_a_chain_off_its_span(default_field, medium_path):
    # the march takes every step of a supplied chain, so the chain must span
    # [0, horizon] exactly
    st = construct_initial(default_field, medium_path, 4.0, 16)
    for t0, t1 in ((0.0, 1.0), (0.0, 0.5 - DT), (DT, 0.5 + DT)):
        chain = build_chain(default_field, medium_path, span_grid(t0, t1, DT), 16)
        with pytest.raises(ConfigurationError, match="span"):
            propagate(st, default_field, medium_path, 0.5, 16, chain=chain)


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


def test_stationarity_zero_shift_exact(default_field, medium_path):
    entry = stationarity_residual_table(default_field, medium_path, [1.0], [0.0], 4.0, 16)[0]
    assert entry.residual == 0.0


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
        scaled_base, medium_path.base_origin, medium_path.dt,
        medium_path.spectrum, medium_path.base_seed,
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
    traj = propagate(st, field, path, 1.0, 1, chain=chain)
    scale = 1.0 + float(np.abs(traj.states).max())
    for k in range(1, 9):
        t = k / 8.0
        ref = global_form_reference(st, chain, path, t)
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
        traj = propagate(st, default_field, path, 1.0, 8, chain=chain)
        ref = global_form_reference(st, chain, path, 1.0)
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
        traj = propagate(st, field, p, t, 4)
        z0[i] = st.z0
        zt[i] = traj.state_at(t)
    paired = zt ** 2 - z0 ** 2
    se = paired.std(axis=0, ddof=1) / math.sqrt(n_paths)
    assert np.all(np.abs(paired.mean(axis=0)) <= 3.0 * se)


def test_temperedness_zero_path(default_field):
    zero = synthetic_path(np.zeros((8193, 8)), 2.0 ** -6, 8192)
    table = temperedness_diagnostic(
        default_field, zero, 0.2, [0.1], 16.0, 8.0, 8, n_ladder=5
    )
    assert all(r.norm == 0.0 for r in table.rows)
    assert table.slope == 0.0
    assert "surrogate" in table.note


def test_temperedness_discount_decays(default_field, spectrum):
    path = sample_two_sided_path(spectrum, -120.0, 0.0, 2.0 ** -6, seed=5)
    table = temperedness_diagnostic(
        default_field, path, 0.2, [0.1], 100.0, 8.0, 16, n_ladder=8
    )
    at = {round(r.t): r for r in table.rows}
    # e^{-0.1 t} Y decays from t = 20ish to t = 100 for this seed
    ts = sorted(at)
    assert at[ts[-1]].discounted[0] < at[ts[len(ts) // 2]].discounted[0]
    assert -0.2 <= table.slope <= 0.2


def test_temperedness_ladder_stays_within_a_short_horizon(default_field, spectrum):
    # the ladder used to start at t = 1 whatever the horizon
    path = sample_two_sided_path(spectrum, -12.0, 0.0, 2.0 ** -6, seed=5)
    table = temperedness_diagnostic(default_field, path, 0.2, [0.1], 0.5, 2.0, 16, n_ladder=4)
    assert table.rows and max(r.t for r in table.rows) <= 0.5
