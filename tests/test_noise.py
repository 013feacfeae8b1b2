"""Sampling and shifting of the two-sided Q-Wiener path."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from randattract import (
    ConfigurationError,
    NoiseSpectrum,
    ShiftRangeError,
    restrict,
    sample_two_sided_path,
    wiener_shift,
)
from randattract import noise

from conftest import DT


def test_spectrum_weights_formula():
    spec = NoiseSpectrum(16, 1.0)
    # q_n = n^(-2r): q_16 = 16^-2
    assert spec.weights[15] == pytest.approx(16.0 ** -2, rel=1e-15)
    assert spec.weights[15] == pytest.approx(0.00390625)
    assert np.all(np.diff(spec.weights) < 0)
    assert np.all(spec.weights > 0)
    # the full (untruncated) trace is zeta(2r)
    assert spec.weights.sum() <= scipy.special.zeta(2.0)


def test_spectrum_rejects_non_summable():
    with pytest.raises(ConfigurationError):
        NoiseSpectrum(4, 0.5)
    with pytest.raises(ConfigurationError):
        NoiseSpectrum(0, 1.0)


def test_anchoring_and_grid(medium_path):
    assert np.all(medium_path.value_at(0) == 0.0)
    times = medium_path.times
    assert times[0] == pytest.approx(-20.0)
    assert times[-1] == pytest.approx(4.0)
    assert np.allclose(np.diff(times), DT)
    assert 0.0 in times


def test_sampling_rejects_bad_grids(spectrum):
    with pytest.raises(ConfigurationError):
        sample_two_sided_path(spectrum, 0.5, 1.0, DT, 1)  # 0 not inside
    with pytest.raises(ConfigurationError):
        sample_two_sided_path(spectrum, -1.0, 1.0, -0.1, 1)
    with pytest.raises(Exception):
        sample_two_sided_path(spectrum, -1.0, 1.0 + DT / 3, DT, 1)  # non-integral


def test_determinism(spectrum):
    a = sample_two_sided_path(spectrum, -2.0, 2.0, DT, seed=99)
    b = sample_two_sided_path(spectrum, -2.0, 2.0, DT, seed=99)
    assert np.array_equal(a.values, b.values)
    c = sample_two_sided_path(spectrum, -2.0, 2.0, DT, seed=100)
    assert not np.array_equal(a.values, c.values)


def test_forward_backward_streams_independent(spectrum):
    path = sample_two_sided_path(spectrum, -2.0, 2.0, DT, seed=5)
    fwd = path.difference(0, path.hi)
    back = path.difference(path.lo, 0)
    assert not np.allclose(fwd, back)


def _sampled_with_temporaries(spectrum, n_back, n_fwd, dt, seed):
    """The base array as sampling formed it with separate increment arrays:
    each part's draws times the scale, cumulated, the backward part read in
    reverse."""
    scale = np.sqrt(spectrum.weights * dt)
    rng_fwd = np.random.default_rng([seed, 0])
    rng_back = np.random.default_rng([seed, 1])
    base = np.empty((n_back + n_fwd + 1, spectrum.mode_count))
    base[n_back] = 0.0
    if n_fwd:
        inc = rng_fwd.standard_normal((n_fwd, spectrum.mode_count)) * scale
        base[n_back + 1 :] = np.cumsum(inc, axis=0)
    if n_back:
        inc = rng_back.standard_normal((n_back, spectrum.mode_count)) * scale
        base[:n_back] = np.cumsum(inc, axis=0)[::-1]
    return base


# n_back 0, 1 and across a draw chunk's edge; n_fwd 0 and > 0
@pytest.mark.parametrize("n_back", [0, 1, 2, 513, 1030])
@pytest.mark.parametrize("n_fwd", [0, 1, 700])
def test_sampling_in_place_keeps_every_bit(spectrum, n_back, n_fwd):
    # drawn, scaled, cumulated and reversed in place in the base array, the
    # path has the bits of the formula with separate temporaries
    dt = 2.0 ** -7
    path = sample_two_sided_path(spectrum, -n_back * dt, n_fwd * dt, dt, seed=17)
    expected = _sampled_with_temporaries(spectrum, n_back, n_fwd, dt, 17)
    assert path.base_origin == n_back
    assert path.base.tobytes() == expected.tobytes()


def _windows(chunk: int, n: int) -> list[tuple[int, int, int]]:
    """(lo, hi, origin) windows of absolute rows: forward, backward and
    0-spanning ones, ones starting or ending on an edge of a ``chunk``-row
    draw, length-1 ones and the deepest row of either side."""
    return [
        (-n, n, 0), (0, 0, 0), (3, n - 2, 3), (-n + 2, -3, -3), (-5, 9, 2),
        (chunk, chunk + 3, chunk + 1), (-chunk - 3, -chunk, -chunk),
        (chunk + 1, 2 * chunk, 2 * chunk), (-2 * chunk, -chunk - 1, -chunk - 1),
        (1, 1, 1), (-1, -1, -1), (chunk, chunk, chunk), (-n, -n, -n), (n, n, n),
    ]


@pytest.mark.parametrize("chunk", [1, 7, noise._DRAW_ROWS])
@pytest.mark.parametrize("dt", [2.0 ** -6, 0.1])
@pytest.mark.parametrize("modes", [1, 5])
def test_window_rows_keep_their_bits(monkeypatch, chunk, dt, modes):
    # a window drawn on its own holds, bitwise, the rows of one whole path at
    # the same absolute rows, and its values are the whole path's shifted
    spec = NoiseSpectrum(modes, 1.0)
    n = 2 * noise._DRAW_ROWS + 5
    whole = sample_two_sided_path(spec, -n * dt, n * dt, dt, seed=23)
    monkeypatch.setattr(noise, "_DRAW_ROWS", chunk)
    for lo, hi, origin in _windows(chunk, n):
        win = sample_two_sided_path(spec, (lo - origin) * dt, (hi - origin) * dt, dt, 23, origin)
        rows = whole.base[whole.base_origin + lo : whole.base_origin + hi + 1]
        assert win.base.tobytes() == rows.tobytes(), (lo, hi, origin)
        shifted = wiener_shift(whole, origin)
        assert (win.lo, win.hi) == (lo - origin, hi - origin)
        for k in {win.lo, 0, win.hi}:
            assert np.array_equal(win.value_at(k), shifted.value_at(k))
            assert np.array_equal(win.difference(win.lo, k), shifted.difference(win.lo, k))


def test_variance_of_unit_mode_monte_carlo():
    # Oracle: Var w_1(1) = q_1 * 1 = 1 for a single unit-weight mode.
    spec = NoiseSpectrum(1, 1.0)
    n = 10_000
    vals = np.array(
        [sample_two_sided_path(spec, 0.0, 1.0, 2.0 ** -4, seed=i).value_at(16)[0]
         for i in range(n)]
    )
    var = vals.var(ddof=1)
    se = 1.0 * math.sqrt(2.0 / (n - 1))
    assert abs(var - 1.0) <= 3.0 * se


def test_increment_statistics(spectrum):
    # mean ~ 0, per-mode variance ~ q_n dt, disjoint increments uncorrelated
    n = 4096
    incs_a = np.empty((n, spectrum.mode_count))
    incs_b = np.empty((n, spectrum.mode_count))
    for i in range(n):
        p = sample_two_sided_path(spectrum, 0.0, 4 * DT, DT, seed=20_000 + i)
        incs_a[i] = p.difference(0, 1)
        incs_b[i] = p.difference(2, 3)
    q_dt = spectrum.weights * DT
    se_mean = np.sqrt(q_dt / n)
    assert np.all(np.abs(incs_a.mean(axis=0)) <= 4.0 * se_mean)
    se_var = q_dt * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(incs_a.var(axis=0, ddof=1) - q_dt) <= 3.5 * se_var)
    corr = np.array(
        [np.corrcoef(incs_a[:, j], incs_b[:, j])[0, 1] for j in range(4)]
    )
    assert np.all(np.abs(corr) <= 3.0 / math.sqrt(n))


def test_shift_is_exact_reindexing(medium_path):
    s = 256  # one time unit
    sh = wiener_shift(medium_path, s)
    assert np.all(sh.value_at(0) == 0.0)
    # (theta_s w)(t) = w(t+s) - w(s), bitwise on shared grid points
    for k in (-512, -1, 0, 1, 300):
        expected = medium_path.base[medium_path.base_origin + k + s] - medium_path.base[
            medium_path.base_origin + s
        ]
        assert np.array_equal(sh.value_at(k), expected)


def test_shift_range_error(medium_path):
    with pytest.raises(ShiftRangeError):
        wiener_shift(medium_path, 10 ** 6)
    with pytest.raises(ShiftRangeError):
        wiener_shift(medium_path, -(10 ** 6))


@settings(max_examples=25, deadline=None)
@given(
    s1=st.integers(min_value=-128, max_value=128),
    s2=st.integers(min_value=-128, max_value=128),
)
def test_shift_group_property(s1, s2):
    spec = NoiseSpectrum(3, 1.0)
    path = sample_two_sided_path(spec, -4.0, 4.0, 2.0 ** -6, seed=42)
    lhs = wiener_shift(path, s1 + s2)
    rhs = wiener_shift(wiener_shift(path, s2), s1)
    assert np.array_equal(lhs.values, rhs.values)


def test_shift_roundtrip_bitwise(medium_path):
    sh = wiener_shift(wiener_shift(medium_path, 777), -777)
    assert np.array_equal(sh.values, medium_path.values)


def test_increment_stationarity(spectrum):
    # distribution of (theta_s w)(t) equals distribution of w(t)
    n = 4096
    t_idx, s_idx = 8, 16
    vals = np.empty((n, spectrum.mode_count))
    for i in range(n):
        p = sample_two_sided_path(spectrum, 0.0, 24 * DT, DT, seed=31_000 + i)
        vals[i] = wiener_shift(p, s_idx).value_at(t_idx)
    target = spectrum.weights * (t_idx * DT)
    se_var = target * math.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(vals.mean(axis=0)) <= 4.0 * np.sqrt(target / n))
    assert np.all(np.abs(vals.var(axis=0, ddof=1) - target) <= 3.5 * se_var)


def test_restrict_is_restriction(spectrum):
    fine = sample_two_sided_path(spectrum, -1.0, 1.0, DT, seed=8)
    coarse = restrict(fine, 4)
    assert coarse.dt == pytest.approx(4 * DT)
    assert np.array_equal(coarse.values, fine.values[::4])
