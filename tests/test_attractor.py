"""v-equation integration, energy monitoring, absorbing functionals, pullback."""

import math
import tracemalloc

import numpy as np
import pytest

from randattract import (
    DiffusionField,
    NoiseSpectrum,
    NonlinearitySpec,
    SemilinearProblem,
    absorbing_diagnostics,
    apply,
    build_chain,
    calibrate_monitor,
    cloud_diameter,
    construct_initial,
    default_ensemble,
    energy_monitor,
    hausdorff_distance,
    integrate_semilinear,
    integrate_v,
    nemytskii,
    propagate,
    pullback_estimate,
    sample_two_sided_path,
    span_grid,
    transform_consistency,
    wiener_shift,
)
from randattract import attractor, evolution, ou
from randattract.counters import counting
from randattract.errors import ConfigurationError
from randattract.evolution import workers

from conftest import DT, reference_chain, synthetic_path


@pytest.fixture(scope="module")
def chain16(default_field, medium_path):
    chain = build_chain(default_field, medium_path, span_grid(0.0, 1.0, DT), 16)
    chain.steps  # read by many tests: joined once
    return chain


def test_v_step_pure_propagation(chain16):
    # with F = 0 and no forcing each step of the v march is S_k v
    v = np.linspace(0.0, 1.0, 16)
    z = np.ones((chain16.grid.n_steps + 1, 16))
    traj = integrate_v(NonlinearitySpec.zero(), None, 0.1, v, chain16, z)
    assert np.array_equal(traj.states[1], apply(chain16, DT, 0.0, v))
    assert np.array_equal(traj.states[-1], apply(chain16, 1.0, 0.0, v))


def test_v_step_fixed_point_at_zero(chain16):
    zeros = np.zeros((chain16.grid.n_steps + 1, 16))
    traj = integrate_v(
        NonlinearitySpec.cubic_fisher(), None, 0.1, zeros[0], chain16, zeros
    )
    assert np.all(traj.states == 0.0)


def test_integrate_v_at_sigma_zero_is_integrate_semilinear(default_field, chain16):
    # u = v when sigma = 0: both marches take the same steps, bit for bit
    nl, f = NonlinearitySpec.cubic_fisher(), np.full(16, 0.05)
    u0 = np.linspace(0.5, -0.5, 16)
    problem = SemilinearProblem(
        field=default_field, nonlinearity=nl, forcing=f, sigma=0.0, u0=u0
    )
    u = integrate_semilinear(problem, chain16)
    v = integrate_v(nl, f, 0.0, u0, chain16, None)
    assert u.status == "completed"
    assert np.array_equal(v.states, u.states)


def test_integrate_v_matches_step_loop_with_z_states(default_field, chain16, medium_path):
    st = construct_initial(default_field, medium_path, 4.0, 16)
    z = propagate(st, chain16).states
    sigma, nl = 0.1, NonlinearitySpec.cubic_fisher()
    v0 = np.linspace(0.5, -0.5, 16)
    traj = integrate_v(nl, None, sigma, v0, chain16, z)
    # reference: the exponential-Euler step of the v-equation written out
    v = v0
    ref = [v]
    for k in range(chain16.grid.n_steps):
        v = chain16.steps[k] @ (v + DT * nemytskii(nl, v + sigma * z[k]))
        ref.append(v)
    assert np.array_equal(traj.states, np.stack(ref))


def test_v_step_manufactured_order():
    # custom linear drift F(u) = (pi^2 - 1) u against E = 1 gives the exact
    # solution v(t) = e^{-t} e_1; exponential Euler converges at order >= 0.9
    field = DiffusionField(delta=1.0, amp=0.0)
    drift = NonlinearitySpec.custom(lambda u: (math.pi ** 2 - 1.0) * u, rho=1.0)
    m = 4
    v0 = np.zeros(m)
    v0[0] = 1.0
    errors, dts = [], [2.0 ** -k for k in (7, 8, 9, 10)]
    for dt in dts:
        chain = build_chain(field, None, span_grid(0.0, 1.0, dt), m)
        traj = integrate_v(drift, None, 0.0, v0, chain, None)
        errors.append(abs(traj.states[-1, 0] - math.exp(-1.0)))
    from randattract import observed_order

    assert observed_order(dts, errors) >= 0.9


def test_transform_consistency_linear_small(default_field, medium_path):
    m = 16
    u0 = np.zeros(m)
    u0[0] = 1.0
    problem = SemilinearProblem(
        field=default_field, nonlinearity=NonlinearitySpec.zero(), forcing=None,
        sigma=0.1, u0=u0,
    )
    disc = transform_consistency(problem, medium_path, 1.0, 8.0, m)
    assert disc <= 1e-3


def test_transform_consistency_zero_path():
    # Z = 0 makes both schemes the same deterministic integrator
    field = DiffusionField(amp=0.0)
    zero = synthetic_path(np.zeros((2049, 8)), DT, 1024)
    m = 8
    u0 = np.linspace(0.5, 1.0, m)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=1.0, u0=u0,
    )
    disc = transform_consistency(problem, zero, 1.0, 2.0, m)
    assert disc <= 1e-13


def test_energy_decay_pure_cubic(default_field, medium_path):
    m = 16
    chain = build_chain(default_field, medium_path, span_grid(0.0, 4.0, DT), m)
    v0 = np.zeros(m)
    v0[0] = 1.0
    traj = integrate_v(NonlinearitySpec.pure_cubic(), None, 0.0, v0, chain, None)
    norms = traj.l2_norms()
    envelope = norms[0] * np.exp(-default_field.poincare_rate * traj.times * (1 - 1e-2))
    assert np.all(norms <= envelope)


def test_energy_monitor_zero_solution_has_no_flags(default_field, medium_path):
    m = 8
    chain = build_chain(default_field, medium_path, span_grid(0.0, 1.0, DT), m)
    traj = integrate_v(NonlinearitySpec.cubic_fisher(), None, 0.0,
                       np.zeros(m), chain, None)
    report = energy_monitor(traj, None, default_field, NonlinearitySpec.cubic_fisher(), 1.0)
    assert not report.flagged.any()
    assert report.margin >= 1.0 or math.isinf(report.margin)


def test_energy_monitor_calibration_margin(default_field, medium_path):
    m = 16
    horizon = 4.0
    chain = build_chain(default_field, medium_path, span_grid(0.0, horizon, DT), m)
    v0 = np.zeros(m)
    v0[0] = 1.0
    calib = integrate_v(NonlinearitySpec.cubic_fisher(), None, 0.0,
                        v0, chain, None)
    c_mon = calibrate_monitor(calib, default_field)
    assert c_mon > 0.0
    report = energy_monitor(calib, None, default_field,
                            NonlinearitySpec.cubic_fisher(), c_mon)
    assert not report.flagged.any()
    assert report.margin >= 2.0 * (1.0 - 1e-9)
    assert report.flagged.any() == (report.margin < 1.0)
    # negative control: a forced run grows out of the bare decay envelope
    # (C = 0), so the monitor must flag it
    m = 8
    chain = build_chain(default_field, medium_path, span_grid(0.0, 1.0, DT), m)
    e1 = np.zeros(m)
    e1[0] = 1.0
    forced = integrate_v(NonlinearitySpec.cubic_fisher(), 5.0 * e1, 0.0,
                         0.01 * e1, chain, None)
    report = energy_monitor(forced, None, default_field,
                            NonlinearitySpec.cubic_fisher(), 0.0)
    assert report.flagged.any() and report.margin < 1.0
    assert report.flagged.any() == (report.margin < 1.0)


def test_cubic_fisher_limsup_bound(default_field, medium_path):
    # Gronwall on the energy inequality with Z = 0 gives
    # limsup ||v||^2 <= 2 C1 |D| / (delta lambda_1); test with 10% slack
    m = 16
    horizon = 4.0
    chain = build_chain(default_field, medium_path, span_grid(0.0, horizon, DT), m)
    v0 = np.zeros(m)
    v0[0] = 1.0
    traj = integrate_v(NonlinearitySpec.cubic_fisher(), None, 0.0,
                       v0, chain, None)
    n2 = traj.l2_norms() ** 2
    tail = n2[traj.times >= horizon / 2]
    bound = 2.0 * 0.5 * 1.0 / default_field.poincare_rate
    assert tail.max() <= bound * 1.1


def test_absorbing_zero_path(default_field):
    zero = synthetic_path(np.zeros((8193, 8)), DT, 8192)
    diag = absorbing_diagnostics(default_field, zero, 8.0, 3.0, 0.2, 0.35, 8)
    assert diag.r2_integral == 0.0
    assert diag.rrho_integral == 0.0
    assert diag.z_l2 == 0.0
    assert diag.z_eta == 0.0


def test_absorbing_monotone_in_horizon(default_field, spectrum):
    path = sample_two_sided_path(spectrum, -42.0, 1.0, DT, seed=44)
    d8 = absorbing_diagnostics(default_field, path, 8.0, 3.0, 0.2, 0.35, 16)
    d4 = absorbing_diagnostics(default_field, path, 4.0, 3.0, 0.2, 0.35, 16)
    assert d8.r2_integral >= 0.0 and d4.r2_integral >= 0.0
    # nonnegative integrand over nested windows, evaluated on the same fiber:
    # the deeper history can only add mass (up to the differing Z realizations
    # of the two truncations, which are tiny); allow a small slack
    assert d8.r2_integral >= d4.r2_integral * (1.0 - 1e-6)


def test_absorbing_ensemble_median_stability(default_field, spectrum):
    meds = {}
    for a in (8.0, 16.0):
        vals = []
        for seed in range(16):
            path = sample_two_sided_path(spectrum, -(2 * a + 9.0), 1.0, 2.0 ** -6, seed=seed)
            vals.append(
                absorbing_diagnostics(default_field, path, a, 3.0, 0.2, 0.35, 16).r2_integral
            )
        meds[a] = float(np.median(vals))
    assert abs(meds[16.0] - meds[8.0]) <= 0.2 * meds[8.0]


def test_hausdorff_and_diameter_basics():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([[0.0, 0.0]])
    # alpha = 0: plain euclidean metric
    assert hausdorff_distance(a, b, 0.0) == pytest.approx(1.0)
    assert cloud_diameter(a, 0.0) == pytest.approx(1.0)
    # one point shows no spread: NaN, not a collapsed 0.0
    assert math.isnan(cloud_diameter(b, 0.0))
    # weighted by the laplacian symbols for alpha > 0
    w = hausdorff_distance(a, b, 0.5)
    assert w == pytest.approx(math.pi)


def test_hausdorff_collapsed_clouds_do_not_cancel():
    rng = np.random.default_rng(3)
    m, alpha = 64, 0.2
    center = rng.standard_normal(m)
    a = center + 1e-10 * rng.standard_normal((33, m))
    b = center + 1e-10 * rng.standard_normal((33, m))
    from randattract.operators import fixed_laplacian_symbols

    wa, wb = a * fixed_laplacian_symbols(m, alpha), b * fixed_laplacian_symbols(m, alpha)
    d = np.array([[np.linalg.norm(x - y) for y in wb] for x in wa])
    brute = max(d.min(axis=1).max(), d.min(axis=0).max())
    assert brute > 0.0
    assert hausdorff_distance(a, b, alpha) == pytest.approx(brute, rel=1e-12)


def test_default_ensemble_layout():
    ens = default_ensemble(16, 0.2, radius=2.0, n_random=16, seed=1)
    assert ens.shape == (33, 16)
    assert np.all(ens[0] == 0.0)
    assert ens[1][0] == 2.0 and ens[2][0] == -2.0
    from randattract.operators import fixed_laplacian_symbols

    symbols = fixed_laplacian_symbols(16, 0.2)
    for member in ens[17:]:
        assert np.linalg.norm(member * symbols) <= 2.0 + 1e-12


def test_pullback_linear_singleton(spectrum):
    # linear dynamics: the pullback attractor is the single point sigma Z(w)
    field = DiffusionField(delta=0.11, amp=0.0)
    m = 16
    path = sample_two_sided_path(spectrum, -28.0, 1.0, DT, seed=123)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.zero(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=4, seed=5)
    est = pullback_estimate(problem, path, [4.0, 8.0], ens, 0.35, m)
    z0 = construct_initial(field, path, 8.0, m).z0
    errs = [
        float(np.sqrt(((est.endpoints[j][est.survivors[j]] - 0.1 * z0) ** 2).sum(axis=1)).max())
        for j in range(2)
    ]
    assert errs[1] <= 1e-3
    assert errs[1] <= 0.1 * errs[0]


def test_pullback_endpoints_match_members_on_fresh_chains(spectrum):
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -6
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -4.0, 0.5, dt, seed=31)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    horizons = [0.5, 1.0]
    est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
    for j, t_j in enumerate(horizons):
        fiber = wiener_shift(path, -int(round(t_j / dt)))
        for i, u0 in enumerate(ens):
            chain = build_chain(field, fiber, span_grid(0.0, t_j, dt), m)
            member = SemilinearProblem(
                field=field, nonlinearity=problem.nonlinearity, forcing=None,
                sigma=0.1, u0=u0,
            )
            end = integrate_semilinear(member, chain).states[-1]
            assert np.array_equal(est.endpoints[j][i], end)


def _segment_case():
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -6
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -4.0, 0.5, dt, seed=31)
    return field, m, dt, path


def _full_chain_endpoint(problem, path, t_j, dt, m, u0):
    fiber = wiener_shift(path, -int(round(t_j / dt)))
    chain = build_chain(problem.field, fiber, span_grid(0.0, t_j, dt), m)
    member = SemilinearProblem(
        field=problem.field, nonlinearity=problem.nonlinearity, forcing=None,
        sigma=problem.sigma, u0=u0, blowup_threshold=problem.blowup_threshold,
    )
    return integrate_semilinear(member, chain)


def test_pullback_segments_match_members_on_the_full_chain(monkeypatch):
    # 3-step blocks: the 32- and 64-step horizons cross 10 and 21 whole
    # blocks and end in a partial one of 2 and 1 steps; each member on the
    # full chain (blocks of the default size) is the reference
    field, m, dt, path = _segment_case()
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    horizons = [0.5, 1.0]
    with monkeypatch.context() as patch:
        patch.setattr(evolution, "_BUILD_BLOCK", 3)
        est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
    assert not est.flagged
    for j, t_j in enumerate(horizons):
        for i, u0 in enumerate(ens):
            end = _full_chain_endpoint(problem, path, t_j, dt, m, u0).states[-1]
            assert np.array_equal(est.endpoints[j][i], end)


def test_pullback_member_blowing_up_inside_a_segment_is_frozen(monkeypatch):
    field, m, dt, path = _segment_case()
    block = 3
    probe = NonlinearitySpec.custom(lambda u: u ** 3, rho=3.0)
    problem = SemilinearProblem(
        field=field, nonlinearity=probe, forcing=None, sigma=0.1,
        u0=np.zeros(m), blowup_threshold=1e4,
    )
    ens = np.zeros((3, m))
    ens[1, 0] = 3.0  # blows up
    ens[2, 1] = 0.3
    full = [_full_chain_endpoint(problem, path, 1.0, dt, m, u0) for u0 in ens]
    blown = full[1].states.shape[0] - 1
    assert full[1].status == "blowup" and blown > block and blown % block != 0
    with monkeypatch.context() as patch:
        patch.setattr(evolution, "_BUILD_BLOCK", block)
        est = pullback_estimate(problem, path, [1.0], ens, 0.35, m)
    assert est.flagged
    assert est.survivors[0].tolist() == [True, False, True]
    assert np.isnan(est.endpoints[0][1]).all()
    for i in (0, 2):
        assert full[i].status == "completed"
        assert np.array_equal(est.endpoints[0][i], full[i].states[-1])


def test_pullback_work_counts_are_members_times_steps(monkeypatch):
    # the counts the benchmark checks, read from the run's counters on the
    # streaming chains the CLI marches: one nemytskii call per member-step,
    # every chain step built once, marched states summed over the integrate
    # calls, and the driver read at each chain's n + 1 nodes (its steps) and
    # n nodes (its blocks' increments), over a window of driver_horizon / dt
    # + 1 path points each; and, counted here since no counter holds them,
    # one integrate call per member and block, and no blow-up
    calls = {"integrate": 0, "blowups": 0}
    integrate_fn = attractor.integrate_semilinear

    def counted_integrate(problem, chain):
        traj = integrate_fn(problem, chain)
        calls["integrate"] += 1
        calls["blowups"] += traj.status == "blowup"
        return traj

    monkeypatch.setattr(attractor, "integrate_semilinear", counted_integrate)
    monkeypatch.setattr(evolution, "_BUILD_BLOCK", 5)
    field, m, dt, path = _segment_case()
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    horizons = [0.5, 1.0]
    chain_steps = [int(round(t / dt)) for t in horizons]
    steps = sum(chain_steps)
    blocks = sum(-(-n // 5) for n in chain_steps)
    window = int(round(field.driver_horizon / dt)) + 1
    points = sum(((n + 1) + n) * window for n in chain_steps)
    for width in (1, 2):
        calls.update(dict.fromkeys(calls, 0))
        with workers(width), counting() as counters:
            est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
        assert not est.flagged
        assert (
            counters.nemytskii_calls, counters.member_steps,
            counters.steps_built, counters.driver_points,
        ) == (5 * steps, 5 * steps, steps, points)
        assert calls == {"integrate": 5 * blocks, "blowups": 0}


def test_read_once_chains_give_the_bits_of_kept_chains(monkeypatch):
    # construct_initial's z0 and the pullback endpoints are the same on
    # streaming chains, at widths 1 and 2, as on whole-grid reference chains
    # (one array each, no blocks); on 5-step blocks the 256-step history and
    # the 64- and 192-step horizons cross 51, 12 and 38 whole blocks and end
    # in a partial one
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -6
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -7.0, 0.5, dt, seed=33)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    monkeypatch.setattr(evolution, "_BUILD_BLOCK", 5)

    def kept(field, path, grid, m):
        return reference_chain(field, path, grid, m)

    def run():
        z0 = construct_initial(field, path, 4.0, m).z0
        return z0, pullback_estimate(problem, path, [1.0, 3.0], ens, 0.35, m).endpoints

    runs = []
    for width in (1, 2):
        with workers(width):
            runs.append(run())
            with monkeypatch.context() as patch:
                patch.setattr(ou, "build_chain", kept)
                patch.setattr(attractor, "build_chain", kept)
                runs.append(run())
    z0, endpoints = runs[0]
    for other_z0, other_endpoints in runs[1:]:
        assert np.array_equal(other_z0, z0)
        assert all(map(np.array_equal, other_endpoints, endpoints))


def test_chains_of_horizons_marched_in_turn_give_the_endpoints_of_horizons_alone(
    monkeypatch,
):
    # horizons of 128, 256 and 448 steps and a last one of 512, on 5-step
    # blocks, their chains built and marched in turn: every horizon's
    # endpoints are those of the horizon estimated alone, at widths 1 and 2
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -6
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -11.0, 0.5, dt, seed=35)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    monkeypatch.setattr(evolution, "_BUILD_BLOCK", 5)
    horizons = [2.0, 4.0, 7.0, 8.0]
    for width in (1, 2):
        with workers(width):
            alone = [
                pullback_estimate(problem, path, [t], ens, 0.35, m).endpoints[0]
                for t in horizons
            ]
            est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
        assert all(map(np.array_equal, est.endpoints, alone))


def test_pullback_memory_with_horizons_marched_in_turn_stays_in_the_read_once_window():
    # pullback_estimate at width 2 on horizons of 768 and 3072 steps, and on
    # four of 768 to 3072: the horizons are marched in turn, and the peak
    # stays within one streaming window (the queued blocks, the march's
    # block and one eigh temporary per thread); the noise increments come
    # with the march's block
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 32, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -27.0, 0.5, dt, seed=9)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=0, seed=7)[:3]
    block_bytes = 128 * m * m * 8  # 128 steps of matrices, four blocks
    with workers(2):
        pullback_estimate(problem, path, [1.0, 2.0], ens, 0.35, m)  # warm the caches
        for horizons in ([6.0, 24.0], [6.0, 12.0, 18.0, 24.0]):
            tracemalloc.start()
            try:
                est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not est.flagged
            assert peak < (evolution._AHEAD + 5) * block_bytes


def test_pullback_memory_does_not_grow_with_the_horizon():
    # at m = 8 a horizon's noise increments (n_steps x m) are 1/8 of its
    # steps, yet the tracemalloc peak on a horizon of 4096 steps exceeds
    # that on one of 512 by less than 128 steps of matrices at width 1: the
    # march holds a few blocks of steps and their increments, whatever the
    # horizon.  At
    # width 2 the peak of one run moves with the timing of the two threads'
    # builds, so the least of three runs is compared, within 256 steps
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -35.0, 0.0, dt, seed=9)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=0, seed=7)[:3]
    block_bytes = 128 * m * m * 8  # 128 steps of matrices, four blocks

    def peak(horizon):
        tracemalloc.start()
        try:
            est = pullback_estimate(problem, path, [horizon], ens, 0.35, m)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not est.flagged
        return top

    for width, runs, bound in ((1, 1, 1), (2, 3, 2)):
        with workers(width):
            pullback_estimate(problem, path, [1.0], ens, 0.35, m)  # warm the caches
            short, long = (min(peak(t) for _ in range(runs)) for t in (4.0, 32.0))
        assert long - short < bound * block_bytes


def test_pullback_memory_is_flat_in_the_horizon_at_width_1():
    # a chain's block tasks are formed as the blocks are queued, each with
    # its own modulation, and dropped once built, so the chain holds no
    # array of its length: from a horizon of 512 steps to one of 8192 the
    # tracemalloc peak grows by less than half a block (4 KiB at m = 8 with
    # 16-step blocks), where the whole chain's driver values alone are 64 KiB
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -66.0, 0.0, dt, seed=9)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=0, seed=7)[:3]
    block_bytes = evolution._BUILD_BLOCK * m * m * 8

    def peak(horizon):
        tracemalloc.start()
        try:
            est = pullback_estimate(problem, path, [horizon], ens, 0.35, m)
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not est.flagged
        return top

    with workers(1):
        pullback_estimate(problem, path, [1.0], ens, 0.35, m)  # warm the caches
        short, long = peak(4.0), peak(64.0)
    assert long - short < block_bytes / 2


@pytest.mark.parametrize("horizons", [[], [-1.0, 1.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.5]])
def test_pullback_rejects_horizons_that_are_not_positive_and_increasing(horizons):
    field, m, dt, path = _segment_case()
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    with pytest.raises(ConfigurationError, match="positive and strictly increasing"):
        pullback_estimate(problem, path, horizons, np.zeros((1, m)), 0.35, m)


def test_pullback_keeps_one_chain_resident():
    # horizons (T/2, T): while the T chain is built and used, the T/2 chain
    # (and its increments) must be gone; build_chain's block temporaries
    # (16 steps each) are small beside the T/2 chain's 2048 steps
    field = DiffusionField(driver_horizon=2.0)
    m, dt, horizon = 32, 2.0 ** -6, 64.0
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -horizon - 2.0, 0.0, dt, seed=41)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=0, seed=7)[:3]
    tracemalloc.start()
    try:
        est = pullback_estimate(problem, path, [horizon / 2, horizon], ens, 0.35, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not est.flagged
    chain_bytes = int(round(horizon / dt)) * m * m * 8
    assert peak < chain_bytes + chain_bytes // 2


def test_pullback_pure_cubic_collapse(default_field, spectrum):
    m = 16
    path = sample_two_sided_path(spectrum, -18.0, 1.0, DT, seed=124)
    problem = SemilinearProblem(
        field=default_field, nonlinearity=NonlinearitySpec.pure_cubic(), forcing=None,
        sigma=0.0, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=4, seed=6)
    est = pullback_estimate(problem, path, [1.0, 8.0], ens, 0.35, m)
    assert est.diameters[1] <= 1e-3 * est.diameters[0]
    assert not est.flagged


def test_pullback_blowup_flagging(default_field, spectrum):
    path = sample_two_sided_path(spectrum, -10.0, 1.0, DT, seed=125)
    m = 16
    probe = NonlinearitySpec.custom(lambda u: u ** 3, rho=3.0)
    problem = SemilinearProblem(
        field=default_field, nonlinearity=probe, forcing=None, sigma=0.0,
        u0=np.zeros(m), blowup_threshold=1e4,
    )
    ens = np.zeros((2, m))
    ens[1, 0] = 50.0  # second member blows up
    est = pullback_estimate(problem, path, [1.0], ens, 0.35, m)
    assert est.flagged
    assert est.survivors[0].tolist() == [True, False]
    assert np.isnan(est.endpoints[0][1]).all()
    assert math.isnan(est.diameters[0])  # one survivor has no diameter


def test_pullback_dissipative_trap_and_support_bound(default_field, spectrum):
    # defaults (CubicFisher, sigma = 0.1): no blow-ups over T = 8, and the
    # endpoint norms stay within 10x the ensemble-median absorbing scale
    # (certified radii would need constants we do not compute; ratio check)
    m = 16
    problem = SemilinearProblem(
        field=default_field, nonlinearity=NonlinearitySpec.cubic_fisher(),
        forcing=None, sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=8, seed=8)
    scales, eta_max, alpha_max = [], 0.0, 0.0
    from randattract import FractionalNormSpec, fractional_norm

    eta_spec = FractionalNormSpec(alpha=0.35)
    alpha_spec = FractionalNormSpec(alpha=0.2)
    for seed in range(8):
        path = sample_two_sided_path(spectrum, -26.0, 1.0, DT, seed=300 + seed)
        est = pullback_estimate(problem, path, [8.0], ens, 0.35, m)
        assert not est.flagged
        cloud = est.endpoints[0][est.survivors[0]]
        eta_max = max(eta_max, max(fractional_norm(x, eta_spec) for x in cloud))
        alpha_max = max(alpha_max, max(fractional_norm(x, alpha_spec) for x in cloud))
        diag = absorbing_diagnostics(default_field, path, 8.0, 3.0, 0.2, 0.35, m)
        scales.append(math.sqrt(diag.r2_integral) + diag.z_eta + 1.0)
    median_scale = float(np.median(scales))
    assert eta_max <= 10.0 * median_scale
    assert alpha_max <= 10.0 * median_scale


def test_pullback_invariance_probe(default_field, spectrum):
    # evolving the T = 8 cloud forward by s = 1 approximates the pullback
    # cloud on the shifted fiber within 2x the ladder's final increment
    m = 16
    path = sample_two_sided_path(spectrum, -18.0, 2.0, DT, seed=126)
    problem = SemilinearProblem(
        field=default_field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=4, seed=7)
    est = pullback_estimate(problem, path, [4.0, 8.0], ens, 0.35, m)
    cloud = est.endpoints[1][est.survivors[1]]

    # forward evolution of the cloud by s = 1 on the w-fiber
    chain = build_chain(default_field, path, span_grid(0.0, 1.0, DT), m)
    chain.steps  # marched once a member: joined once
    evolved = []
    for u0 in cloud:
        member = SemilinearProblem(
            field=default_field, nonlinearity=NonlinearitySpec.cubic_fisher(),
            forcing=None, sigma=0.1, u0=u0,
        )
        from randattract import integrate_semilinear

        evolved.append(integrate_semilinear(member, chain).states[-1])
    evolved = np.stack(evolved)

    shifted = wiener_shift(path, path.index_of(1.0))
    est_shifted = pullback_estimate(problem, shifted, [4.0, 8.0], ens, 0.35, m)
    target = est_shifted.endpoints[1][est_shifted.survivors[1]]
    ladder_increment = hausdorff_distance(
        est_shifted.endpoints[0][est_shifted.survivors[0]], target, 0.2
    )
    d = hausdorff_distance(evolved, target, 0.2)
    assert d <= 2.0 * max(ladder_increment, 1e-12)
