"""Nemytskii projection, corrector quadrature, pathwise mild integration."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from randattract import (
    DiffusionField,
    NoiseSpectrum,
    NonlinearitySpec,
    SemilinearProblem,
    build_chain,
    corrector_integral,
    integrate_semilinear,
    nemytskii,
    observed_order,
    restrict,
    sample_two_sided_path,
    span_grid,
    wiener_shift,
)
from randattract import evolution
from randattract.errors import AlignmentError, ConfigurationError, NumericalError
from randattract.operators import fixed_laplacian_symbols
from randattract.pathwise import _ZERO, _march, corrected_increments, dealias_node_count

from conftest import DT, reference_chain, synthetic_path


def test_dissipativity_constants():
    # CubicFisher: u^2 - u^4 <= -u^4/2 + 1/2 for all u (Young's inequality)
    u = np.linspace(-5.0, 5.0, 2001)
    fisher = NonlinearitySpec.cubic_fisher()
    assert np.all(fisher(u) * u <= -fisher.C0 * np.abs(u) ** 4 + fisher.C1 + 1e-12)
    cubic = NonlinearitySpec.pure_cubic()
    assert np.all(cubic(u) * u <= -cubic.C0 * np.abs(u) ** 4 + cubic.C1 + 1e-12)


@pytest.mark.parametrize(
    "fn, rho",
    [(np.sin, 3.0), (lambda u: u * u, 2.0), (lambda u: u * np.abs(u), 2.0)],
    ids=["sin", "square", "u_abs_u"],
)
def test_custom_rejects_drifts_nemytskii_aliases(fn, rho):
    # not odd polynomials of degree <= rho: no node count projects them exactly
    with pytest.raises(ConfigurationError):
        NonlinearitySpec.custom(fn, rho=rho)


def test_custom_accepts_odd_polynomials_up_to_rho():
    NonlinearitySpec.custom(lambda u: u ** 3, rho=3.0)
    NonlinearitySpec.custom(lambda u: (math.pi ** 2 - 1.0) * u, rho=1.0)
    with pytest.raises(ConfigurationError):
        NonlinearitySpec.custom(lambda u: u ** 3, rho=2.0)


def test_local_lipschitz_growth_bound():
    rng = np.random.default_rng(1)
    u, v = rng.uniform(-3, 3, 500), rng.uniform(-3, 3, 500)
    f = NonlinearitySpec.cubic_fisher()
    lhs = np.abs(f(u) - f(v))
    rhs = f.CF * np.abs(u - v) * (np.abs(u) ** 2 + np.abs(v) ** 2 + 1.0)
    assert np.all(lhs <= rhs + 1e-12)


def test_nemytskii_zero_cases():
    assert np.all(nemytskii(NonlinearitySpec.zero(), np.ones(8)) == 0.0)
    assert np.all(nemytskii(NonlinearitySpec.cubic_fisher(), np.zeros(8)) == 0.0)


def test_nemytskii_cubic_projection_ratio():
    # u(x) = sin(pi x) ( = phi_1 / sqrt(2) ): -sin^3 = -(3 sin - sin 3pi x)/4,
    # so the projected modes 1 and 3 have ratio -3 : 1
    m = 8
    vec = np.zeros(m)
    vec[0] = 1.0 / math.sqrt(2.0)
    out = nemytskii(NonlinearitySpec.pure_cubic(), vec)
    assert out[0] / out[2] == pytest.approx(-3.0, abs=1e-12)
    # oracle by quadrature: coefficient of phi_1 is int -sin^3 * sqrt(2) sin
    target1, _ = quad(lambda x: -np.sin(np.pi * x) ** 3 * math.sqrt(2) * np.sin(np.pi * x), 0, 1)
    target3, _ = quad(lambda x: -np.sin(np.pi * x) ** 3 * math.sqrt(2) * np.sin(3 * np.pi * x), 0, 1)
    assert out[0] == pytest.approx(target1, abs=1e-12)
    assert out[2] == pytest.approx(target3, abs=1e-12)
    assert np.abs(np.delete(out, [0, 2])).max() <= 1e-14


def test_nemytskii_dealias_exactness():
    # polynomial F on a band-limited input: projection exact to quadrature
    # tolerance against scipy quad
    m = 6
    rng = np.random.default_rng(4)
    vec = rng.standard_normal(m) * 0.5
    out = nemytskii(NonlinearitySpec.cubic_fisher(), vec)

    def u(x):
        return sum(
            vec[n - 1] * math.sqrt(2.0) * np.sin(n * np.pi * x) for n in range(1, m + 1)
        )

    for mode in (1, 3, 6):
        target, _ = quad(
            lambda x: (u(x) - u(x) ** 3) * math.sqrt(2.0) * np.sin(mode * np.pi * x),
            0.0,
            1.0,
            limit=300,
        )
        assert out[mode - 1] == pytest.approx(target, abs=1e-8)


def test_dealias_node_count_is_the_least_exact_count():
    # F(u) phi_n has sine degree 4m at rho = 3 and the interior trapezoid on
    # N subintervals is exact below degree 2N, so 2m + 1 is the least exact N
    m = 64
    assert dealias_node_count(m, 3.0) == 2 * m + 1
    nl = NonlinearitySpec.cubic_fisher()
    vec = np.random.default_rng(6).standard_normal(m) * 0.5

    def projection(n_sub):
        nodes = np.arange(1, n_sub) / n_sub
        basis = math.sqrt(2.0) * np.sin(np.outer(nodes, np.arange(1, m + 1)) * np.pi)
        return nl(basis @ vec) @ basis / n_sub

    reference = projection(12 * m)
    scale = np.abs(reference).max()
    assert np.abs(nemytskii(nl, vec) - reference).max() <= 1e-13 * scale
    aliased = projection(dealias_node_count(m, 3.0) - 1)
    assert np.abs(aliased - reference).max() > 1e-6 * scale


def test_corrector_zero_cases(default_field, medium_path):
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), 16)
    zero_path = synthetic_path(np.zeros((medium_path.base.shape[0], 16)), DT,
                               medium_path.base_origin)
    assert np.all(corrector_integral(chain, zero_path) == 0.0)
    point = build_chain(default_field, medium_path, span_grid(0.25, 0.25, DT), 16)
    assert np.all(corrector_integral(point, medium_path) == 0.0)


def _corrector_loop(chain, path):
    """The corrector trapezoid over the whole chain as a loop of its own:
    acc <- S_j (acc + weight_j A(t_j) (w_b - w_j)) for the nodes before the
    last, t_b."""
    n = chain.grid.n_steps
    o = path.base_origin + path.index_of(chain.grid.t0)
    rows = chain.generator_rows(path.base[o + n] - path.base[o : o + n])
    acc = np.zeros(chain.dim)
    for j in range(n):
        weight = DT / 2.0 if j == 0 else DT
        acc = chain.steps[j] @ (acc + weight * rows[j])
    return acc


@pytest.mark.parametrize("amp", [0.2, 0.0])
def test_corrector_is_the_trapezoid_loop_bitwise(amp, medium_path):
    for t_a, t_b in ((-0.5, 1.0), (0.25, 0.75)):
        grid = span_grid(t_a, t_b, DT)
        chain = build_chain(DiffusionField(amp=amp), medium_path, grid, 16)
        chain.steps  # read by the corrector and the loop: joined first
        got = corrector_integral(chain, medium_path)
        assert np.array_equal(got, _corrector_loop(chain, medium_path))


def test_corrector_ramp_closed_form():
    # deterministic ramp w(s) = s, single autonomous mode with rate lam:
    # int_0^T exp(-lam (T-s)) (-lam) (T-s) ds = -(1 - exp(-lam T)(1 + lam T))/lam
    delta = 0.5
    lam = delta * math.pi ** 2
    T = 1.0

    def integrand(s):
        return math.exp(-lam * (T - s)) * (-lam) * (T - s)

    oracle, _ = quad(integrand, 0.0, T)
    closed = -(1.0 - math.exp(-lam * T) * (1.0 + lam * T)) / lam
    assert oracle == pytest.approx(closed, abs=1e-12)

    field = DiffusionField(delta=delta, amp=0.0)
    errs = []
    for dt in (2.0 ** -6, 2.0 ** -7):
        n = int(round(T / dt))
        ramp = synthetic_path(np.arange(n + 1) * dt, dt, 0)
        chain = build_chain(field, ramp, span_grid(0.0, T, dt), 1)
        got = corrector_integral(chain, ramp)[0]
        errs.append(abs(got - closed))
    assert errs[0] / errs[1] >= 3.0  # trapezoid is O(dt^2)
    assert errs[1] <= 1e-4


def test_linear_step_sigma_zero_is_propagation(default_field, medium_path):
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), 8)
    chain.steps  # read more than once: joined first
    h = np.linspace(0.0, 1.0, 8)
    problem = SemilinearProblem(
        field=default_field, nonlinearity=NonlinearitySpec.zero(), forcing=None,
        sigma=0.0, u0=h,
    )
    from randattract import apply

    got = integrate_semilinear(problem, chain)
    assert np.array_equal(got.states[1], apply(chain, DT, 0.0, h))
    assert np.array_equal(got.states[-1], apply(chain, 0.5, 0.0, h))


def test_linear_step_zero_state_flat_increment(default_field):
    flat = synthetic_path(np.zeros(1025), DT, 0)
    chain = build_chain(DiffusionField(amp=0.0), flat, span_grid(0.0, 0.5, DT), 4)
    problem = SemilinearProblem(
        field=chain.field, nonlinearity=NonlinearitySpec.zero(), forcing=None,
        sigma=1.0, u0=np.zeros(4),
    )
    assert np.all(integrate_semilinear(problem, chain).states == 0.0)


def test_overflowing_march_raises_without_a_blowup_threshold():
    # the march checks each state it makes; nemytskii's input is the previous
    # state, so an overflow shows as a non-finite step, never as a number
    m = 8
    u0 = np.zeros(m)
    u0[0] = 1e100
    problem = SemilinearProblem(
        field=DiffusionField(amp=0.0), nonlinearity=NonlinearitySpec.cubic_fisher(),
        forcing=None, sigma=0.0, u0=u0, blowup_threshold=math.inf,
    )
    chain = build_chain(problem.field, None, span_grid(0.0, 0.5, DT), m)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalError, match="non-finite state"):
            integrate_semilinear(problem, chain)


def test_march_under_a_blowup_threshold_tells_nan_from_blowup():
    # with a threshold the weighted norm is the one per-step check: a NaN
    # state still raises, and a finite state whose norm overflows is a blow-up
    m = 8
    chain = build_chain(DiffusionField(amp=0.0), None, span_grid(0.0, 0.5, DT), m)
    blowup = (fixed_laplacian_symbols(m, 0.2), 1e6)
    noise = np.zeros((chain.grid.n_steps, m))
    noise[3, 2] = np.nan
    with pytest.raises(NumericalError, match="non-finite state"):
        _march(chain, np.zeros(m), _ZERO, None, None, noise, blowup)
    huge = np.zeros(m)
    huge[0] = 1e200
    with np.errstate(over="ignore"):
        traj = _march(chain, huge, _ZERO, None, None, None, blowup)
    assert math.isfinite(traj.states[1][0])
    assert traj.status == "blowup" and traj.states.shape[0] == 2
    assert traj.blowup_time == DT


def _march_checking_every_state(chain, x0, nonlinearity, noise, blowup):
    """The march with its check after every state, written out: (states,
    status, blowup_time), or NumericalError at the first non-finite state."""
    symbols, threshold = blowup if blowup is not None else (None, math.inf)
    limit = min(threshold, sys.float_info.max)
    states = [np.array(x0, dtype=float)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(chain.grid.n_steps):
            x = states[-1]
            stage = x.copy() if nonlinearity is _ZERO else DT * nemytskii(nonlinearity, x) + x
            out = chain.steps[k] @ (stage + noise[k])
            states.append(out)
            if symbols is None:
                if not np.isfinite(out).all():
                    raise NumericalError("non-finite state during integration")
                continue
            w = out * symbols
            r = math.sqrt(w.dot(w))
            if not r <= limit:
                if not np.isfinite(out).all():
                    raise NumericalError("non-finite state during integration")
                if r > threshold:
                    return np.stack(states), "blowup", (k + 1) * DT
    return np.stack(states), "completed", None


def _four_block_case(default_field, medium_path):
    """A reference chain of four blocks, 4 B steps with B =
    ``evolution._BUILD_BLOCK`` (block b makes states B b + 1 .. B b + B),
    built without blocks, a maker of chains with the same steps from
    ``build_chain``, and the norm weights."""
    m = 8
    grid = span_grid(0.0, 4 * evolution._BUILD_BLOCK * DT, DT)
    reference = reference_chain(default_field, medium_path, grid, m)

    def built():
        return build_chain(default_field, medium_path, grid, m)

    return reference, built, fixed_laplacian_symbols(m, 0.2), np.linspace(0.2, 1.0, m)


# the first, a middle and the last step of block 1, named by their place in
# 128-step blocks and scaled to the block size
@pytest.mark.parametrize("kicked", [128, 191, 255])
def test_checks_once_a_block_give_the_blowup_of_checks_every_state(
    kicked, default_field, medium_path
):
    # a kick in the noise of one step lands the blow-up on the state it
    # makes; the cubic march goes on past it to the end of the block, where
    # its states overflow to inf and NaN, yet the march stops where a check
    # after every state stopped it, with the same bits
    kicked = kicked * evolution._BUILD_BLOCK // 128
    reference, built, symbols, x0 = _four_block_case(default_field, medium_path)
    noise = np.zeros((reference.grid.n_steps, 8))
    noise[kicked, 0] = 1e7
    blowup = (symbols, 1e6)
    for nonlinearity in (_ZERO, NonlinearitySpec.cubic_fisher()):
        states, status, time = _march_checking_every_state(
            reference, x0, nonlinearity, noise, blowup
        )
        assert status == "blowup" and states.shape[0] == kicked + 2
        for chain in (reference, built()):
            traj = _march(chain, x0, nonlinearity, None, None, noise, blowup)
            assert np.array_equal(traj.states, states)
            assert traj.status == status and traj.blowup_time == time


def test_checks_once_a_block_hold_at_the_threshold_itself(default_field, medium_path):
    # a state whose norm is the threshold does not blow up, and the next
    # float below makes it blow up: the screen's margin sends both to the
    # exact check; the state is in the middle of block 1
    reference, built, symbols, x0 = _four_block_case(default_field, medium_path)
    kicked = evolution._BUILD_BLOCK * 3 // 2 - 1
    noise = np.zeros((reference.grid.n_steps, 8))
    noise[kicked, 0] = 50.0
    states = _march_checking_every_state(reference, x0, _ZERO, noise, None)[0]
    weighted = states * symbols
    norms = [math.sqrt(w.dot(w)) for w in weighted]
    top = int(np.argmax(norms))
    assert top == kicked + 1
    for threshold in (norms[top], np.nextafter(norms[top], 0.0)):
        blowup = (symbols, threshold)
        expected = _march_checking_every_state(reference, x0, _ZERO, noise, blowup)
        assert expected[1] == ("completed" if threshold == norms[top] else "blowup")
        for chain in (reference, built()):
            traj = _march(chain, x0, _ZERO, None, None, noise, blowup)
            assert np.array_equal(traj.states, expected[0])
            assert (traj.status, traj.blowup_time) == expected[1:]


@pytest.mark.parametrize(
    "nonlinear, blowup", [(True, "inf"), (False, None)], ids=["inf-threshold", "linear"]
)
def test_checks_once_a_block_raise_on_a_nan_mid_block(
    nonlinear, blowup, default_field, medium_path
):
    # a NaN in the middle of block 1 raises as it did with a check after
    # every state, under an infinite threshold and with none at all
    reference, built, symbols, x0 = _four_block_case(default_field, medium_path)
    nonlinearity = NonlinearitySpec.cubic_fisher() if nonlinear else _ZERO
    blowup = (symbols, math.inf) if blowup else None
    noise = np.zeros((reference.grid.n_steps, 8))
    noise[evolution._BUILD_BLOCK * 3 // 2 - 2, 3] = np.nan
    with pytest.raises(NumericalError, match="non-finite state"):
        _march_checking_every_state(reference, x0, nonlinearity, noise, blowup)
    for chain in (reference, built()):
        with pytest.raises(NumericalError, match="non-finite state"):
            _march(chain, x0, nonlinearity, None, None, noise, blowup)


def test_single_mode_variance_oracle():
    # Var h(1) for one autonomous mode with E = 1: q1 sigma^2 (1-e^{-2 pi^2})/(2 pi^2)
    m = 1
    spec = NoiseSpectrum(1, 1.0)
    field = DiffusionField(delta=1.0, amp=0.0)
    chain = build_chain(field, None, span_grid(0.0, 1.0, DT), m)
    n_paths = 4096
    vals = np.empty(n_paths)
    problem_proto = dict(
        field=field, nonlinearity=NonlinearitySpec.zero(), forcing=None,
        sigma=1.0, u0=np.zeros(m),
    )
    for i in range(n_paths):
        p = sample_two_sided_path(spec, 0.0, 1.0, DT, seed=40_000 + i)
        tr = integrate_semilinear(SemilinearProblem(**problem_proto), chain, p)
        vals[i] = tr.states[-1, 0]
    lam = math.pi ** 2
    target = (1.0 - math.exp(-2 * lam)) / (2 * lam)
    se = target * math.sqrt(2.0 / (n_paths - 1))
    assert abs(vals.var(ddof=1) - target) <= 3.0 * se


def test_corrector_resolution_bias_is_quantified():
    # The documented resolution-coupled weak bias: for one mode with rate lam
    # the scheme's stationary-sum variance over [0,1] is the exact value times
    #     g(x) = 2x e^{-2x} (1 + x/2)^2 / (1 - e^{-2x}),   x = lam dt,
    # derived by summing the geometric per-step responses.  The empirical
    # variance must match g(x) * target within Monte Carlo error, and the bias
    # must vanish under dt refinement.
    spec = NoiseSpectrum(1, 1.0)
    delta = 26.0 / math.pi ** 2  # lam = 26 -> x = lam*dt ~ 0.8 at dt = 2^-5
    field = DiffusionField(delta=delta, amp=0.0)
    lam = delta * math.pi ** 2
    n_paths = 3000
    measured = []
    for exp in (5, 8):
        dt = 2.0 ** -exp
        chain = build_chain(field, None, span_grid(0.0, 1.0, dt), 1)
        vals = np.empty(n_paths)
        for i in range(n_paths):
            p = sample_two_sided_path(spec, 0.0, 1.0, dt, seed=60_000 + i)
            tr = integrate_semilinear(
                SemilinearProblem(
                    field=field, nonlinearity=NonlinearitySpec.zero(),
                    forcing=None, sigma=1.0, u0=np.zeros(1),
                ),
                chain,
                p,
            )
            vals[i] = tr.states[-1, 0]
        measured.append(vals.var(ddof=1))
    target = (1.0 - math.exp(-2 * lam)) / (2 * lam)

    def g(x):
        return 2 * x * math.exp(-2 * x) * (1 + x / 2) ** 2 / (1 - math.exp(-2 * x))

    se = target * math.sqrt(2.0 / (n_paths - 1))
    for var, exp in zip(measured, (5, 8)):
        predicted = g(lam * 2.0 ** -exp) * target
        assert abs(var - predicted) <= 3.5 * se
    # refinement shrinks the bias toward the exact variance
    assert abs(measured[1] - target) < abs(measured[0] - target)


def test_sigma_zero_reduction_bitwise(default_field, medium_path):
    m = 8
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), m)
    chain.steps  # read more than once: joined first
    u0 = np.linspace(0.2, 1.0, m)
    problem = SemilinearProblem(
        field=default_field, nonlinearity=NonlinearitySpec.cubic_fisher(),
        forcing=None, sigma=0.0, u0=u0,
    )
    tr = integrate_semilinear(problem, chain, medium_path)
    v = u0.copy()
    for k in range(chain.grid.n_steps):
        v = chain.steps[k] @ (v + DT * nemytskii(NonlinearitySpec.cubic_fisher(), v))
    assert np.array_equal(tr.states[-1], v)


def test_noise_linearity(default_field, medium_path):
    m = 16
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), m)
    chain.steps  # read more than once: joined first

    def solve(sigma):
        problem = SemilinearProblem(
            field=default_field, nonlinearity=NonlinearitySpec.zero(),
            forcing=None, sigma=sigma, u0=np.zeros(m),
        )
        return integrate_semilinear(problem, chain, medium_path).states

    base = solve(1.0)
    scaled = solve(3.5)
    denom = np.abs(scaled).max()
    assert np.abs(scaled - 3.5 * base).max() <= 1e-12 * denom


def test_blowup_anti_dissipative_probe(default_field, medium_path):
    # F(u) = +u^3 with a large initial state must blow up in finite time;
    # scalar comparison u' >= u^3 - lam_max u has finite escape time.
    m = 8
    chain = build_chain(default_field, medium_path, span_grid(0.0, 2.0, DT), m)
    probe = NonlinearitySpec.custom(lambda u: u ** 3, rho=3.0)
    u0 = np.zeros(m)
    u0[0] = 40.0
    problem = SemilinearProblem(
        field=default_field, nonlinearity=probe, forcing=None, sigma=0.0,
        u0=u0, blowup_threshold=1e6,
    )
    tr = integrate_semilinear(problem, chain, medium_path)
    assert tr.status == "blowup"
    assert tr.blowup_time is not None and tr.blowup_time <= 2.0


def test_blowup_prefix_bitwise(default_field, medium_path):
    m = 8
    chain = build_chain(default_field, medium_path, span_grid(0.0, 2.0, DT), m)
    probe = NonlinearitySpec.custom(lambda u: u ** 3, rho=3.0)
    u0 = np.zeros(m)
    u0[0] = 40.0
    kwargs = dict(field=default_field, nonlinearity=probe, forcing=None,
                  sigma=0.0, u0=u0)
    low = integrate_semilinear(
        SemilinearProblem(blowup_threshold=1e4, **kwargs), chain, medium_path
    )
    high = integrate_semilinear(
        SemilinearProblem(blowup_threshold=1e8, **kwargs), chain, medium_path
    )
    n = low.states.shape[0] - 1  # states before the recorded blow-up step
    assert np.array_equal(high.states[:n], low.states[:n])


def test_self_convergence_linear_quick(default_field):
    # 8 paths, dt = 2^-4 .. 2^-6 against a 2^-9 reference: order >= 0.4
    m = 8
    spec = NoiseSpectrum(8, 1.0)
    problem_kwargs = dict(
        field=default_field, nonlinearity=NonlinearitySpec.zero(), forcing=None,
        sigma=0.1,
    )
    levels = [4, 5, 6]
    errs = {lev: [] for lev in levels}
    e1 = np.zeros(m)
    e1[0] = 1.0
    for i in range(8):
        fine = sample_two_sided_path(spec, -16.0, 1.0, 2.0 ** -9, seed=70_000 + i)
        problem = SemilinearProblem(u0=e1, **problem_kwargs)
        ref_chain = build_chain(default_field, fine, span_grid(0.0, 1.0, 2.0 ** -9), m)
        ref_end = integrate_semilinear(problem, ref_chain, fine).states[-1]
        for lev in levels:
            coarse = restrict(fine, 2 ** (9 - lev))
            chain = build_chain(default_field, coarse, span_grid(0.0, 1.0, 2.0 ** -lev), m)
            tr = integrate_semilinear(problem, chain, coarse)
            errs[lev].append(np.linalg.norm(tr.states[-1] - ref_end))
    rms = [float(np.sqrt(np.mean(np.square(errs[lev])))) for lev in levels]
    assert observed_order([2.0 ** -lev for lev in levels], rms) >= 0.4


def test_cube_by_multiplication_within_ulps():
    rng = np.random.default_rng(11)
    u = np.concatenate([
        rng.standard_normal(4000),
        rng.uniform(0.9, 1.1, 4000) * rng.choice([-1.0, 1.0], 4000),
        rng.standard_normal(4000) * 1e3,
        rng.standard_normal(4000) * 1e-3,
    ])
    cube = u ** 3
    assert np.all(np.abs(u * u * u - cube) <= 4 * np.spacing(np.abs(cube)))
    pure = NonlinearitySpec.pure_cubic()(u)
    assert np.all(np.abs(pure + cube) <= 4 * np.spacing(np.abs(cube)))
    # u - u^3 cancels near |u| = 1, so the bound is on the size of the terms
    scale = np.maximum(np.abs(u), np.abs(cube))
    fisher = NonlinearitySpec.cubic_fisher()(u)
    assert np.all(np.abs(fisher - (u - cube)) <= 4 * np.spacing(scale))


def test_integrate_matches_step_loop_on_any_path_object(default_field, medium_path):
    m = 16
    chain = build_chain(default_field, medium_path, span_grid(0.0, 0.5, DT), m)
    chain.steps  # read more than once: joined first
    problem = SemilinearProblem(
        field=default_field, nonlinearity=NonlinearitySpec.cubic_fisher(),
        forcing=np.full(m, 0.05), sigma=0.3, u0=np.linspace(0.5, -0.5, m),
    )
    own = integrate_semilinear(problem, chain, medium_path)
    again = integrate_semilinear(problem, chain)
    # an equal path that is a different object is not served from the chain
    other = integrate_semilinear(problem, chain, wiener_shift(medium_path, 0))
    # reference: the step S_k (stage + sigma incr[k]) written out
    incr = corrected_increments(chain, medium_path)
    u = problem.u0.copy()
    ref = [u]
    for k in range(chain.grid.n_steps):
        stage = u + DT * nemytskii(problem.nonlinearity, u) + DT * problem.forcing
        u = chain.steps[k] @ (stage + 0.3 * incr[k])
        ref.append(u)
    assert np.array_equal(own.states, np.stack(ref))
    assert np.array_equal(again.states, own.states)
    assert np.array_equal(other.states, own.states)


def test_noise_on_a_finer_path_than_the_chain_is_rejected():
    # a dt = 2^-7 chain over a dt = 2^-8 path would read each path increment
    # as a whole grid step and cover only half the interval with noise
    m = 4
    fine = sample_two_sided_path(NoiseSpectrum(m, 1.0), -9.0, 1.0, DT, seed=7)
    coarse = restrict(fine, 2)
    grid = span_grid(0.0, 1.0, 2 * DT)
    problem = SemilinearProblem(
        field=DiffusionField(amp=0.0), nonlinearity=NonlinearitySpec.zero(),
        forcing=None, sigma=1.0, u0=np.zeros(m),
    )
    flat = build_chain(problem.field, fine, grid, m)
    with pytest.raises(AlignmentError, match="resolution"):
        integrate_semilinear(problem, flat)
    with pytest.raises(AlignmentError, match="resolution"):
        corrector_integral(flat, fine)
    # a noise path other than the chain's own path
    varying = build_chain(DiffusionField(), coarse, grid, m)
    with pytest.raises(AlignmentError, match="resolution"):
        integrate_semilinear(problem, varying, fine)
    assert integrate_semilinear(problem, varying, coarse).status == "completed"
