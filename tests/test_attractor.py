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
from randattract import attractor, evolution, ou, pathwise
from randattract.errors import ConfigurationError
from randattract.evolution import set_chain_workers

from conftest import DT, synthetic_path


@pytest.fixture(scope="module")
def chain16(default_field, medium_path):
    return build_chain(default_field, medium_path, span_grid(0.0, 1.0, DT), 16)


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
    z = propagate(st, default_field, medium_path, 1.0, 16, chain=chain16).states
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
    c_mon = calibrate_monitor(calib, default_field, NonlinearitySpec.cubic_fisher())
    assert c_mon > 0.0
    report = energy_monitor(calib, None, default_field,
                            NonlinearitySpec.cubic_fisher(), c_mon)
    assert not report.flagged.any()
    assert report.margin >= 2.0 * (1.0 - 1e-9)


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
            end = integrate_semilinear(member, chain, fiber).states[-1]
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
    return integrate_semilinear(member, chain, fiber)


def test_pullback_segments_match_members_on_the_full_chain(monkeypatch):
    # 3-step segments: the 32- and 64-step horizons cross 10 and 21 whole
    # segments and end in a partial one of 2 and 1 steps
    field, m, dt, path = _segment_case()
    monkeypatch.setattr(attractor, "_SEGMENT_BYTES", 3 * 8 * m * m)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    horizons = [0.5, 1.0]
    est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
    assert not est.flagged
    for j, t_j in enumerate(horizons):
        for i, u0 in enumerate(ens):
            end = _full_chain_endpoint(problem, path, t_j, dt, m, u0).states[-1]
            assert np.array_equal(est.endpoints[j][i], end)


def test_pullback_member_blowing_up_inside_a_segment_is_frozen(monkeypatch):
    field, m, dt, path = _segment_case()
    seg_len = 3
    monkeypatch.setattr(attractor, "_SEGMENT_BYTES", seg_len * 8 * m * m)
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
    assert full[1].status == "blowup" and blown > seg_len and blown % seg_len != 0
    est = pullback_estimate(problem, path, [1.0], ens, 0.35, m)
    assert est.flagged
    assert est.survivors[0].tolist() == [True, False, True]
    assert np.isnan(est.endpoints[0][1]).all()
    for i in (0, 2):
        assert full[i].status == "completed"
        assert np.array_equal(est.endpoints[0][i], full[i].states[-1])


def test_pullback_work_counts_are_members_times_steps(monkeypatch):
    # the counts the benchmark checks, kept here too: one nemytskii call per
    # member-step, every chain step built once, marched states summed over
    # the integrate calls
    counts = {"nemytskii": 0, "marched": 0, "built": 0, "blowups": 0}
    nemytskii_fn = pathwise.nemytskii
    integrate_fn = attractor.integrate_semilinear
    build_fn = attractor.build_chain

    def counted_nemytskii(*args, **kwargs):
        counts["nemytskii"] += 1
        return nemytskii_fn(*args, **kwargs)

    def counted_integrate(problem, chain, path=None):
        traj = integrate_fn(problem, chain, path)
        counts["marched"] += traj.states.shape[0] - 1
        counts["blowups"] += traj.status == "blowup"
        return traj

    def counted_build(field, path, grid, m, **kwargs):
        chain = build_fn(field, path, grid, m, **kwargs)
        counts["built"] += chain.steps.shape[0]
        return chain

    monkeypatch.setattr(pathwise, "nemytskii", counted_nemytskii)
    monkeypatch.setattr(attractor, "integrate_semilinear", counted_integrate)
    monkeypatch.setattr(attractor, "build_chain", counted_build)
    monkeypatch.setattr(attractor, "_SEGMENT_BYTES", 5 * 8 * 8 * 8)
    field, m, dt, path = _segment_case()
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    horizons = [0.5, 1.0]
    steps = sum(int(round(t / dt)) for t in horizons)
    # at width 2 the next horizon's chain is built while this one is marched
    for width in (1, 2):
        set_chain_workers(width)
        counts.update(dict.fromkeys(counts, 0))
        est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
        assert not est.flagged
        assert counts == {
            "nemytskii": 5 * steps, "marched": 5 * steps, "built": steps, "blowups": 0,
        }


def test_read_once_chains_give_the_bits_of_kept_chains(monkeypatch):
    # construct_initial's z0 and the pullback endpoints are the same on
    # read-once chains as on kept ones, at widths 1 and 2; the 256-step
    # history and the 192-step horizon span two blocks, and 5-step pullback
    # segments straddle their boundary
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -6
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -7.0, 0.5, dt, seed=33)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    monkeypatch.setattr(attractor, "_SEGMENT_BYTES", 5 * 8 * m * m)

    def kept(field, path, grid, m, **kwargs):
        return build_chain(field, path, grid, m)

    def run():
        z0 = construct_initial(field, path, 4.0, m).z0
        return z0, pullback_estimate(problem, path, [1.0, 3.0], ens, 0.35, m).endpoints

    runs = []
    for width in (1, 2):
        set_chain_workers(width)
        runs.append(run())
        with monkeypatch.context() as patch:
            patch.setattr(ou, "build_chain", kept)
            patch.setattr(attractor, "build_chain", kept)
            runs.append(run())
    z0, endpoints = runs[0]
    for other_z0, other_endpoints in runs[1:]:
        assert np.array_equal(other_z0, z0)
        assert all(map(np.array_equal, other_endpoints, endpoints))


def test_chains_built_ahead_give_the_endpoints_of_horizons_alone(monkeypatch):
    # horizons of one, two and four 128-step blocks (128, 256 and 448 steps)
    # and a last one of 512: the chain of the next horizon is made at once
    # while a chain of at most two blocks is marched, and once the march of
    # a longer one enters its second-to-last block; every horizon's
    # endpoints are those of the horizon estimated alone, at widths 1 and 2
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 8, 2.0 ** -6
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -11.0, 0.5, dt, seed=35)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=2, seed=7)[:5]
    monkeypatch.setattr(attractor, "_SEGMENT_BYTES", 5 * 8 * m * m)
    horizons = [2.0, 4.0, 7.0, 8.0]
    # the order of chain builds (their steps) and segment marches (their
    # first step, once for the ensemble)
    events = []
    horizon_chain, integrate = attractor._horizon_chain, attractor.integrate_semilinear

    def logged_chain(problem, path, t_j, m, held=0):
        events.append(("chain", int(round(t_j / dt))))
        return horizon_chain(problem, path, t_j, m, held)

    def logged_integrate(member, segment, path):
        event = ("march", int(round(segment.grid.t0 / dt)))
        if events[-1] != event:
            events.append(event)
        return integrate(member, segment, path)

    for width in (1, 2):
        set_chain_workers(width)
        alone = [
            pullback_estimate(problem, path, [t], ens, 0.35, m).endpoints[0]
            for t in horizons
        ]
        events.clear()
        with monkeypatch.context() as patch:
            patch.setattr(attractor, "_horizon_chain", logged_chain)
            patch.setattr(attractor, "integrate_semilinear", logged_integrate)
            est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
        assert all(map(np.array_equal, est.endpoints, alone))
        chains = [i for i, event in enumerate(events) if event[0] == "chain"]
        # 128 steps: the 256-step chain at once, before its march; 256: the
        # 448-step chain at once; 448: the 512-step chain just before the
        # segment [255, 260) reads block 2 of four
        assert [events[i] for i in chains] == [
            ("chain", 128), ("chain", 256), ("chain", 448), ("chain", 512),
        ]
        assert events[chains[1] + 1] == ("march", 0)
        assert events[chains[2] - 1 : chains[2] + 2] == [
            ("march", 125), ("chain", 448), ("march", 0),
        ]
        assert events[chains[3] - 1 : chains[3] + 2] == [
            ("march", 250), ("chain", 512), ("march", 255),
        ]


def test_pullback_memory_with_chains_built_ahead_stays_in_the_read_once_window():
    # pullback_estimate at width 2 on horizons of 768 and 3072 steps, and on
    # four of 768 to 3072: while a horizon ends the next one's first blocks
    # are built, yet the peak stays within one read-once window (the queued
    # blocks, the march's block and one eigh temporary per thread), besides
    # the noise increments of the two chains (n_steps x m each) it holds
    field = DiffusionField(driver_horizon=2.0)
    m, dt = 32, 2.0 ** -7
    path = sample_two_sided_path(NoiseSpectrum(4, 1.0), -27.0, 0.5, dt, seed=9)
    problem = SemilinearProblem(
        field=field, nonlinearity=NonlinearitySpec.cubic_fisher(), forcing=None,
        sigma=0.1, u0=np.zeros(m),
    )
    ens = default_ensemble(m, 0.2, radius=2.0, n_random=0, seed=7)[:3]
    block_bytes = 128 * m * m * 8
    set_chain_workers(2)
    pullback_estimate(problem, path, [1.0, 2.0], ens, 0.35, m)  # warm the caches
    for horizons in ([6.0, 24.0], [6.0, 12.0, 18.0, 24.0]):
        tracemalloc.start()
        try:
            est = pullback_estimate(problem, path, horizons, ens, 0.35, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not est.flagged
        increments = sum(int(round(t / dt)) * m * 8 for t in horizons[-2:])
        assert peak - increments < (evolution._AHEAD + 5) * block_bytes


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
    # (128 steps each) are small beside the T/2 chain's 2048 steps
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
    evolved = []
    for u0 in cloud:
        member = SemilinearProblem(
            field=default_field, nonlinearity=NonlinearitySpec.cubic_fisher(),
            forcing=None, sigma=0.1, u0=u0,
        )
        from randattract import integrate_semilinear

        evolved.append(integrate_semilinear(member, chain, path).states[-1])
    evolved = np.stack(evolved)

    shifted = wiener_shift(path, path.index_of(1.0))
    est_shifted = pullback_estimate(problem, shifted, [4.0, 8.0], ens, 0.35, m)
    target = est_shifted.endpoints[1][est_shifted.survivors[1]]
    ladder_increment = hausdorff_distance(
        est_shifted.endpoints[0][est_shifted.survivors[0]], target, 0.2
    )
    d = hausdorff_distance(evolved, target, 0.2)
    assert d <= 2.0 * max(ladder_increment, 1e-12)
