"""Diffusion coefficient, driver functional, Galerkin assembly, fractional powers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from randattract import (
    ConfigurationError,
    DiffusionField,
    FractionalNormSpec,
    NoiseSpectrum,
    assemble_operator,
    driver_values,
    fractional_apply,
    fractional_norm,
    sample_two_sided_path,
    wiener_shift,
)
from randattract.operators import PROFILE_SUP, _stiffness_parts, one_plus_sine

from conftest import DT, synthetic_path


def zeta_at(path, t, field):
    """zeta at time t alone."""
    k = path.index_of(t)
    return driver_values(field, path, k, k)[0]


def test_field_validates_ellipticity():
    with pytest.raises(ConfigurationError, match="ellipticity"):
        DiffusionField(delta=0.3, amp=0.2)  # amp*sup|g| = 0.4 >= 0.3
    f = DiffusionField()
    assert f.ellipticity_floor == pytest.approx(0.1)


def test_alpha_window_arithmetic():
    # phase-space exponent: N(rho-1)/(4(rho+1)) <= alpha < 1/4 with N=1, rho=3,
    # and the 1-d embedding into L^6 needs alpha >= 1/6; 0.2 sits inside.
    rho, n_dim = 3.0, 1.0
    lower = n_dim * (rho - 1.0) / (4.0 * (rho + 1.0))
    assert lower == pytest.approx(1.0 / 8.0)
    embedding_lower = 0.5 * (0.5 - 1.0 / (2.0 * rho))  # H^{2a} -> L^{2rho}
    assert embedding_lower == pytest.approx(1.0 / 6.0)
    assert max(lower, embedding_lower) <= 0.2 < 0.25


def test_driver_zero_path(default_field):
    path = synthetic_path(np.zeros(4097), DT, 4096)
    assert zeta_at(path, 0.0, default_field) == 0.0


def test_driver_constant_mode_closed_form():
    # constant mode-1 value c on the window: zeta = c (1 - exp(-kappa a)) / kappa
    kappa, a = 1.0, 8.0
    field = DiffusionField(driver_decay=kappa, driver_horizon=a)
    dt = 2.0 ** -6
    n = int(a / dt)
    c = 0.37
    # window values all c except the anchored zero at s = 0
    path = synthetic_path(np.concatenate([np.full(n, c), [0.0]]), dt, n)
    got = zeta_at(path, 0.0, field)
    # trapezoid of c * exp(kappa s) with the s = 0 node equal to 0
    exact = c * (1.0 - math.exp(-kappa * a)) / kappa
    trap_correction = -0.5 * dt * c  # endpoint value is 0, not c
    assert got == pytest.approx(exact + trap_correction, rel=5e-4)


def test_driver_shift_consistency_bitwise(default_field, medium_path):
    for t in (0.5, 1.0, -2.0 + DT):
        direct = zeta_at(medium_path, t, default_field)
        shifted = zeta_at(
            wiener_shift(medium_path, medium_path.index_of(t)), 0.0, default_field
        )
        assert direct == shifted


def test_coefficient_bounds_and_limits():
    x = np.linspace(0.0, 1.0, 101)
    # the ellipticity check's sup|g| is the profile's sup
    assert one_plus_sine(x).max() == pytest.approx(PROFILE_SUP)
    # tanh saturation limit: E -> delta + amp * g(x), max 0.9 at x = 1/2
    sat = 0.5 + 0.2 * one_plus_sine(x)
    assert sat.max() == pytest.approx(0.9)
    assert float(x[np.argmax(sat)]) == pytest.approx(0.5)


def test_assembly_unit_coefficient_dirichlet_spectrum():
    # Oracle: int phi_m' phi_n' dx = (n pi)^2 delta_{mn}, checked both against
    # the analytic value and scipy quadrature for a couple of entries.
    field = DiffusionField(delta=1.0, amp=0.0)
    m = 12
    op = assemble_operator(field, 0.0, None, m)
    target = -np.diag((np.arange(1, m + 1) * np.pi) ** 2)
    assert np.abs(op - target).max() <= 1e-10 * np.abs(target).max()

    def integrand(x, i, j):
        return (
            2.0 * (i * np.pi) * (j * np.pi)
            * np.cos(i * np.pi * x) * np.cos(j * np.pi * x)
        )

    for (i, j) in ((1, 1), (3, 3), (2, 5)):
        val, _ = quad(integrand, 0.0, 1.0, args=(i, j), limit=200)
        assert -op[i - 1, j - 1] == pytest.approx(val, abs=1e-10)


def test_assembly_scales_linearly_in_delta():
    a1 = assemble_operator(DiffusionField(delta=1.0, amp=0.0), 0.0, None, 6)
    a2 = assemble_operator(DiffusionField(delta=0.25, amp=0.0), 0.0, None, 6)
    assert np.allclose(a2, 0.25 * a1, rtol=1e-14)


def test_assembly_symmetry_and_bound(default_field, medium_path):
    op = assemble_operator(default_field, 0.5, medium_path, 24)
    assert np.array_equal(op, op.T)
    assert np.linalg.eigh(op)[0][-1] <= default_field.spectral_ceiling < 0


def test_assembly_matches_quadrature_of_full_coefficient(default_field, medium_path):
    # the separable fast assembly must agree with direct quadrature of E phi' phi'
    m = 6
    t = 0.25
    op = assemble_operator(default_field, t, medium_path, m)
    zeta = zeta_at(medium_path, t, default_field)
    mod = math.tanh(zeta)

    def entry(i, j):
        def integrand(x):
            e = default_field.delta + default_field.amp * one_plus_sine(x) * mod
            return (
                e * 2.0 * (i * np.pi) * (j * np.pi)
                * np.cos(i * np.pi * x) * np.cos(j * np.pi * x)
            )

        val, _ = quad(integrand, 0.0, 1.0, limit=400)
        return -val

    for (i, j) in ((1, 1), (2, 4), (6, 6)):
        assert op[i - 1, j - 1] == pytest.approx(entry(i, j), abs=1e-9)


def _quad_part(i, j, weight):
    """int weight(x) phi_i'(x) phi_j'(x) dx on (0, 1) by adaptive quadrature."""

    def integrand(x):
        return (
            weight(x) * 2.0 * (i * np.pi) * (j * np.pi)
            * np.cos(i * np.pi * x) * np.cos(j * np.pi * x)
        )

    return quad(integrand, 0.0, 1.0, limit=1000)[0]


@pytest.mark.parametrize("m", [7, 64])
def test_stiffness_parts_match_quadrature(m):
    # diagonal, (n, n +- 2) and off-parity entries of both parts
    k0, kg = _stiffness_parts(m)
    scale = (m * np.pi) ** 2
    picks = {1, 2, m // 2, m - 1, m}
    pairs = [(i, j) for i in picks for j in (i - 3, i - 2, i - 1, i, i + 1, i + 2) if 1 <= j <= m]
    for i, j in pairs:
        ref0 = _quad_part(i, j, lambda x: np.ones_like(x))
        refg = _quad_part(i, j, one_plus_sine)
        assert abs(k0[i - 1, j - 1] - ref0) <= 1e-13 * scale, (i, j)
        assert abs(kg[i - 1, j - 1] - refg) <= 1e-13 * scale, (i, j)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 65])
def test_stiffness_parts_are_parity_exact(m):
    # g is symmetric about 1/2: no entry couples an odd n to an even n
    k0, kg = _stiffness_parts(m)
    n = np.arange(m)
    off_parity = (n[:, None] + n[None, :]) % 2 == 1
    assert np.all(kg[off_parity] == 0.0)
    assert np.array_equal(k0, np.diag(np.diag(k0)))
    assert np.array_equal(np.diag(k0), (np.arange(1, m + 1) * np.pi) ** 2)
    assert np.array_equal(kg, kg.T)


def test_structural_stationarity(default_field, medium_path):
    m = 16
    for t in (0.5, 1.5):
        direct = assemble_operator(default_field, t, medium_path, m)
        shifted_path = wiener_shift(medium_path, medium_path.index_of(t))
        shifted = assemble_operator(default_field, 0.0, shifted_path, m)
        scale = np.abs(direct).max()
        assert np.abs(direct - shifted).max() <= 1e-12 * scale


def test_driver_holder_seminorm_stable_under_refinement(default_field):
    # grid seminorm of zeta at gamma = 0.4 grows by less than 2x when dt halves
    spec = NoiseSpectrum(4, 1.0)
    seminorms = []
    for exp in (7, 8):
        dt = 2.0 ** -exp
        path = sample_two_sided_path(spec, -10.0, 1.0, dt, seed=21)
        k_hi = path.index_of(1.0)
        zs = driver_values(default_field, path, 0, k_hi)
        best = 0.0
        for lag in range(1, len(zs)):
            diffs = np.abs(zs[lag:] - zs[:-lag])
            best = max(best, diffs.max() / (lag * dt) ** 0.4)
        seminorms.append(best)
    assert seminorms[1] < 2.0 * seminorms[0]


def test_fractional_identity_and_values():
    vec = np.array([1.0, 0.0, 0.0])
    out = fractional_apply(3, 0.0, vec)
    assert np.array_equal(out, vec)
    # FixedLaplacian, alpha = 1/2 on e_1: multiply by pi
    half = fractional_apply(3, 0.5, vec)
    assert half[0] == pytest.approx(math.pi, rel=1e-15)
    # alpha = 0.2 norm of e_1: (pi^2)^0.2 = pi^0.4 (recomputed oracle)
    spec02 = FractionalNormSpec(alpha=0.2)
    got = fractional_norm(vec, spec02)
    assert got == pytest.approx(math.pi ** 0.4, rel=1e-14)
    assert got == pytest.approx(1.5807, abs=1e-4)


@settings(max_examples=20, deadline=None)
@given(
    a=st.floats(min_value=-0.4, max_value=0.5),
    b=st.floats(min_value=-0.1, max_value=0.4),
)
def test_fractional_composition(a, b):
    vec = np.linspace(1.0, 2.0, 8)
    lhs = fractional_apply(8, a, fractional_apply(8, b, vec))
    rhs = fractional_apply(8, a + b, vec)
    assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()


def test_fractional_monotone_in_alpha():
    vec = np.zeros(4)
    vec[2] = 1.0  # |lambda_3| = 9 pi^2 > 1
    norms = [fractional_norm(vec, FractionalNormSpec(alpha=a)) for a in (0.1, 0.3, 0.6)]
    assert norms[0] < norms[1] < norms[2]


def test_fractional_rejects_bad_alpha():
    with pytest.raises(ConfigurationError):
        fractional_apply(4, 1.5, np.zeros(4))


def test_fractional_norm_zero_vector():
    assert fractional_norm(np.zeros(5), FractionalNormSpec(alpha=0.3)) == 0.0
