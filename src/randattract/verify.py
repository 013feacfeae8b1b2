"""The invariant suite behind ``randattract verify``.

``checks(seed)`` runs every check on its own fixed small problem (m = 16,
dt = 2^-6, the default field) over the realization of ``seed``, and the
resolved stationarity check over that of ``seed + 1``; nothing else of a run's
configuration enters.  It returns the checks in report order, each a
``verify_report.json`` entry, and the decay-envelope rows of its evolution
chain.  A check passes when its value is at most its tolerance; its margin is
value / tolerance for a tolerance above 0, tolerance / value for a ceiling
below 0 (inf unless the value is below 0 too), and for an exact check
(tolerance 0) 0 when it passes and inf when not, so with a nonzero tolerance
the margin is at most 1 exactly when the check passes.
"""

from __future__ import annotations

import math

import numpy as np

from .attractor import integrate_v, transform_consistency
from .evolution import (
    PropagatorChain,
    apply as chain_apply,
    build_chain,
    chain_matrix,
    cocycle_residual,
    contractivity_margin,
    decay_fit,
    operator_norm,
    span_grid,
)
from .noise import NoiseSpectrum, WienerPath, sample_two_sided_path, wiener_shift
from .operators import (
    DiffusionField,
    assemble_operator,
    driver_values,
    fractional_apply,
)
from .ou import construct_initial, propagate, stationarity_residual_table
from .pathwise import (
    NonlinearitySpec,
    SemilinearProblem,
    corrector_integral,
    integrate_semilinear,
    nemytskii,
)


def checks(seed: int) -> tuple[list[dict], list[list]]:
    """The checks on the paths of ``seed`` and ``seed + 1``, and the decay
    envelope rows of their evolution chain."""
    out: list[dict] = []

    def record(name: str, value: float, tolerance: float) -> None:
        # inf is written as null
        if tolerance > 0:
            margin = value / tolerance
        elif tolerance < 0:  # a ceiling below 0
            margin = tolerance / value if value < 0 else math.inf
        else:  # an exact check: 0 if it holds, inf if not
            margin = 0.0 if value <= 0 else math.inf
        out.append(
            {
                "name": name,
                "value": float(value),
                "tolerance": float(tolerance),
                "passed": bool(value <= tolerance),
                "margin": float(margin),
            }
        )

    m = 16
    dt = 2.0 ** -6
    spectrum = NoiseSpectrum(8, 1.0)
    field = DiffusionField()
    path = sample_two_sided_path(spectrum, -12.0, 3.0, dt, seed)

    # noise invariants
    record("noise_anchor_zero", float(np.abs(path.value_at(0)).max()), 0.0)
    sh = wiener_shift(path, 32)
    double = wiener_shift(sh, 16)
    direct = wiener_shift(path, 48)
    record(
        "noise_shift_group_bitwise",
        0.0 if np.array_equal(double.values, direct.values) else 1.0,
        0.0,
    )
    back = wiener_shift(sh, -32)
    record(
        "noise_shift_roundtrip_bitwise",
        0.0 if np.array_equal(back.values, path.values) else 1.0,
        0.0,
    )
    k_half = path.index_of(0.5)
    z1 = driver_values(field, path, k_half, k_half)[0]
    z2 = driver_values(field, wiener_shift(path, k_half), 0, 0)[0]
    record("driver_shift_consistency", abs(z1 - z2), 0.0)

    # operator invariants
    # the closed-form generator is exactly symmetric, with exact zeros
    # between odd-n and even-n modes
    op = assemble_operator(field, 0.25, path, m)
    scale = float(np.abs(op).max())
    record("operator_symmetry", 0.0 if np.array_equal(op, op.T) else 1.0, 0.0)
    n = np.arange(m)
    off_parity = (n[:, None] + n[None, :]) % 2 == 1
    record("operator_parity_blocks", float(np.abs(op[off_parity]).max()), 0.0)
    op_shifted = assemble_operator(
        field, 0.0, wiener_shift(path, path.index_of(0.25)), m
    )
    record(
        "operator_structural_stationarity",
        float(np.abs(op - op_shifted).max()),
        1e-12 * scale,
    )
    record(
        "operator_spectral_bound",
        float(np.linalg.eigh(op)[0][-1]),
        field.spectral_ceiling,
    )
    vec = np.linspace(1.0, 2.0, m)
    once = fractional_apply(m, 0.3, fractional_apply(m, 0.4, vec))
    record(
        "fractional_composition",
        float(np.abs(once - fractional_apply(m, 0.7, vec)).max()),
        1e-10 * float(np.abs(once).max()),
    )

    # evolution invariants
    grid = span_grid(0.0, 1.0, dt)
    chain = build_chain(field, path, grid, m)
    v = np.linspace(1.0, 0.5, m)
    record(
        "evolution_identity",
        float(np.abs(chain_apply(chain, 0.5, 0.5, v) - v).max()),
        0.0,
    )
    left = chain_apply(chain, 1.0, 0.5, chain_apply(chain, 0.5, 0.25, v))
    right = chain_apply(chain, 1.0, 0.25, v)
    record(
        "evolution_composition_bitwise",
        0.0 if np.array_equal(left, right) else 1.0,
        0.0,
    )
    record("evolution_contractivity", -contractivity_margin(chain), 0.0)
    u_norm = operator_norm(chain_matrix(chain, 1.0, 0.0))
    record(
        "evolution_cocycle",
        cocycle_residual(field, path, 0.5, 0.5, m),
        1e-10 * max(u_norm, 1e-30),
    )
    c_hat = decay_fit(chain, [(1.0, 0.5), (0.5, 0.25), (1.0, 0.0), (0.25, 0.25)])
    record("evolution_decay_envelope", c_hat, 1.0 + 1e-9)

    # corrector closed-form oracle (deterministic ramp path, single mode)
    lam = field.delta * math.pi ** 2
    n_pts = int(round(1.0 / dt)) + 1
    ramp_base = (np.arange(n_pts) * dt).reshape(-1, 1)
    ramp_base.setflags(write=False)
    ramp = WienerPath(ramp_base, 0, dt, NoiseSpectrum(1, 1.0))
    auto = DiffusionField(delta=field.delta, amp=0.0)
    ramp_chain = build_chain(auto, ramp, span_grid(0.0, 1.0, dt), 1)
    got = corrector_integral(ramp_chain)[0]
    exact = -(1.0 - math.exp(-lam) * (1.0 + lam)) / lam
    record("corrector_ramp_oracle", abs(got - exact), 10.0 * dt ** 2)

    # pathwise invariants
    problem = SemilinearProblem(
        field=field,
        nonlinearity=NonlinearitySpec.cubic_fisher(),
        forcing=None,
        sigma=0.0,
        u0=v,
    )
    tr = integrate_semilinear(problem, chain)
    v_direct = v.copy()
    for k in range(grid.n_steps):
        stage = v_direct + dt * nemytskii(NonlinearitySpec.cubic_fisher(), v_direct)
        v_direct = chain_apply(chain, (k + 1) * dt, k * dt, stage)
    record(
        "pathwise_sigma_zero_reduction_bitwise",
        0.0 if np.array_equal(tr.states[-1], v_direct) else 1.0,
        0.0,
    )
    lin = SemilinearProblem(
        field=field,
        nonlinearity=NonlinearitySpec.zero(),
        forcing=None,
        sigma=1.0,
        u0=np.zeros(m),
    )
    base_tr = integrate_semilinear(lin, chain)
    scaled = SemilinearProblem(
        field=field,
        nonlinearity=NonlinearitySpec.zero(),
        forcing=None,
        sigma=2.5,
        u0=np.zeros(m),
    )
    scaled_tr = integrate_semilinear(scaled, chain)
    denom = float(np.abs(scaled_tr.states[-1]).max())
    record(
        "pathwise_noise_linearity",
        float(np.abs(scaled_tr.states[-1] - 2.5 * base_tr.states[-1]).max()),
        1e-12 * max(denom, 1e-30),
    )
    u0 = np.eye(m)[0]  # the first sine mode
    cubic = nemytskii(NonlinearitySpec.pure_cubic(), u0 / math.sqrt(2.0))
    ratio_err = abs(cubic[0] / cubic[2] - (-3.0))
    record("nemytskii_cubic_projection", ratio_err, 1e-8)

    # ou invariants
    # the first propagated step against S_0 (z0 + dw_0 - dt/2 A(0) dw_0),
    # its noise row assembled here from the path and the full generator
    st = construct_initial(field, path, 4.0, m)
    got = propagate(st, chain).states[1]
    dw = np.zeros(m)
    dw[: spectrum.mode_count] = path.value_at(1) - path.value_at(0)
    a0 = assemble_operator(field, 0.0, path, m)
    ref = chain_apply(chain, dt, 0.0, st.z0 + dw - (dt / 2.0) * (a0 @ dw))
    record(
        "ou_first_step_formula",
        float(np.abs(got - ref).max()),
        1e-12 * max(float(np.abs(ref).max()), 1e-30),
    )
    resolved = DiffusionField(delta=1.0, amp=0.2)
    rp = sample_two_sided_path(NoiseSpectrum(4, 1.0), -16.0, 6.0, 2.0 ** -9, seed + 1)
    # residual / (1 + ||Z||), Z the residual's own propagated state
    entry = stationarity_residual_table(resolved, rp, [2.0], [1.0], 4.0, 4)[0]
    record("ou_stationarity_residual", entry.relative, 1e-8)

    # attractor invariants (tiny configuration)
    vt = integrate_v(NonlinearitySpec.pure_cubic(), None, 0.0, u0, chain, None)
    norms = vt.l2_norms()
    envelope = np.exp(-field.poincare_rate * vt.times * (1.0 - 1e-2)) * norms[0]
    record(
        "energy_decay_purecubic",
        float((norms - envelope).max()),
        0.0,
    )
    cubic_prob = SemilinearProblem(
        field=field,
        nonlinearity=NonlinearitySpec.cubic_fisher(),
        forcing=None,
        sigma=0.1,
        u0=u0,
    )
    # the v-march reads sigma Z inside the cubic term, so a v-march that
    # drops it fails; 192 steps span more than one chain block, so the check
    # fails if the chain it marches three times is not joined first
    disc = transform_consistency(cubic_prob, path, 3.0, 4.0, m, n_checkpoints=4)
    record("transform_cubic_consistency", disc, 1e-3)
    return out, _decay_envelope_rows(chain)


def _decay_envelope_rows(chain: PropagatorChain) -> list[list]:
    """(t - s, ||U(t, s)||_2, C_hat e^{-lambda (t-s)}) diagnostic rows on a
    joined chain over [0, 1], lambda the field's Poincare rate."""
    pairs = [(k / 16.0, 0.0) for k in range(0, 17)]
    c_hat = decay_fit(chain, pairs)
    rate = chain.field.poincare_rate
    rows = []
    for (t, s) in pairs:
        norm = operator_norm(chain_matrix(chain, t, s))
        envelope = c_hat * math.exp(-rate * (t - s))
        rows.append([t - s, norm, envelope])
    return rows
