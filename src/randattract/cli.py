"""Command-line orchestration: experiments, verification, result emission.

Subcommands: simulate, ou-diagnose, attractor-pullback, verify, convergence.
Exit codes: 0 success, 1 validation failure, 2 numerical error, 3 invariant
suite failure.  All numeric CSV fields use fixed 17-significant-digit decimal
formatting, so identical config + version gives bitwise-identical outputs;
wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, example_config, load_config
from .counters import Counters, counting
from .errors import (
    AlignmentError,
    ConfigurationError,
    NumericalError,
    OrderingError,
    ShiftRangeError,
)
from .evolution import (
    PropagatorChain,
    apply as chain_apply,
    build_chain,
    chain_matrix,
    cocycle_residual,
    contractivity_margin,
    decay_fit,
    operator_norm,
    ordered_map,
    span_grid,
    workers,
)
from .noise import (
    NoiseSpectrum,
    WienerPath,
    sample_two_sided_path,
    restrict,
    wiener_shift,
)
from .operators import (
    DiffusionField,
    FractionalNormSpec,
    assemble_operator,
    driver_values,
    fractional_apply,
    fractional_norm,
)
from .ou import (
    construct_initial,
    propagate,
    stationarity_residual_table,
    temperedness_diagnostic,
)
from .pathwise import (
    NonlinearitySpec,
    SemilinearProblem,
    corrector_integral,
    integrate_semilinear,
    nemytskii,
    observed_order,
)
from .attractor import (
    default_ensemble,
    integrate_v,
    pullback_estimate,
    transform_consistency,
)


# the widest --threads accepted: a run of width n starts n - 1 worker threads,
# shared by its path ensembles and chain blocks
MAX_THREADS = 64


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _finite_or_null(value):
    """``value`` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


class OutputSink:
    """Collects emitted files for the manifest; removes partial outputs
    (except logs) when a run fails."""

    def __init__(self, out_dir: Path, config_hash: str):
        self.out_dir = out_dir
        self.config_hash = config_hash
        self.files: list[str] = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_text(self, name: str, text: str) -> Path:
        target = self.out_dir / name
        target.write_text(text)
        self.files.append(name)
        return target

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> Path:
        lines = [f"# config_sha256={self.config_hash}", ",".join(header)]
        for row in rows:
            lines.append(
                ",".join(fmt(v) if isinstance(v, float) else str(v) for v in row)
            )
        return self.write_text(name, "\n".join(lines) + "\n")

    def write_json(self, name: str, payload) -> Path:
        """Write payload as RFC 8259 JSON: a non-finite float is null (a
        survivor count or a flag beside it says why)."""
        text = json.dumps(
            _finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False
        )
        return self.write_text(name, text + "\n")

    def cleanup_partial(self) -> None:
        for name in self.files:
            if name.endswith(".log"):
                continue
            try:
                (self.out_dir / name).unlink()
            except OSError:
                pass

    def manifest(
        self, timings: dict, per_path_seeds: list[int], counters: Counters
    ) -> None:
        payload = {
            "artifact_version": __version__,
            "config_sha256": self.config_hash,
            "counters": dataclasses.asdict(counters),
            "outputs": sorted(self.files),
            "per_path_seeds": per_path_seeds,
            "timings_seconds": timings,
        }
        tmp = self.out_dir / "manifest.json.tmp"
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        tmp.replace(self.out_dir / "manifest.json")


def _sample_path(cfg: RunConfig, t_lo: float, t_hi: float, dt: float, seed: int):
    """The path over [t_lo, t_hi], led by the driver's window when amp > 0:
    the driver at t reads the path on [t - driver_horizon, t]."""
    if cfg.amp > 0:
        t_lo -= cfg.driver_horizon
    return sample_two_sided_path(cfg.spectrum(), t_lo, t_hi, dt, seed)


def cmd_simulate(cfg: RunConfig, sink: OutputSink) -> None:
    """Ensemble of semilinear trajectories; per-trajectory and summary CSVs."""
    if cfg.n_paths < 2:
        raise ConfigurationError(
            "simulate needs noise.n_paths >= 2 for the ensemble variance"
        )
    problem = cfg.problem()
    m = cfg.galerkin_dim
    horizon = cfg.horizon
    seeds = [cfg.seed + i for i in range(cfg.n_paths)]

    def run_one(seed: int):
        path = _sample_path(cfg, 0.0, horizon, cfg.dt, seed)
        grid = span_grid(0.0, horizon, cfg.dt)
        chain = build_chain(problem.field, path, grid, m)
        return integrate_semilinear(problem, chain)

    trajectories = ordered_map(run_one, seeds)
    # a path counts at t_k while it has not blown up: its blow-up state, the
    # last one it records, is past the threshold (its norm may overflow), so
    # it enters no row
    alive = [
        tr.states if tr.status == "completed" else tr.states[:-1]
        for tr in trajectories
    ]
    spec_alpha = FractionalNormSpec(alpha=cfg.alpha)
    rows = []
    for t, state in zip(trajectories[0].times, alive[0]):
        rows.append(
            [t, float(np.linalg.norm(state)), fractional_norm(state, spec_alpha)]
            + [float(v) for v in state[:8]]
        )
    header = ["t", "l2_norm", "alpha_norm"] + [f"mode_{i}" for i in range(1, 9)]
    sink.write_csv("trajectory_first.csv", header, rows)

    # every path survives below n_all, up to the longest record some do
    n_all = min(len(states) for states in alive)
    times = max(trajectories, key=lambda tr: tr.states.shape[0]).times
    stack = np.stack([states[:n_all] for states in alive])
    mean_norm = np.sqrt(np.einsum("pki,pki->pk", stack, stack)).mean(axis=0)
    var_modes = stack.var(axis=0, ddof=1)[:, :8]
    rows = [
        [float(times[k]), float(mean_norm[k])]
        + [float(v) for v in var_modes[k]]
        + [len(alive)]
        for k in range(n_all)
    ]
    for k in range(n_all, max(len(states) for states in alive)):
        live = np.stack([states[k] for states in alive if k < len(states)])
        norm = float(np.sqrt(np.einsum("pi,pi->p", live, live)).mean())
        # a variance needs two paths
        var = live.var(axis=0, ddof=1) if len(live) > 1 else np.full(m, np.nan)
        rows.append([float(times[k]), norm] + [float(v) for v in var[:8]] + [len(live)])
    header = (
        ["t", "mean_l2_norm"] + [f"var_mode_{i}" for i in range(1, 9)] + ["survivors"]
    )
    sink.write_csv("ensemble_summary.csv", header, rows)
    blowups = [tr.blowup_time for tr in trajectories if tr.status == "blowup"]
    sink.write_json(
        "simulate_summary.json",
        {
            "n_paths": cfg.n_paths,
            "blowups": len(blowups),
            "first_blowup_time": min(blowups) if blowups else None,
        },
    )


def cmd_ou_diagnose(cfg: RunConfig, sink: OutputSink) -> None:
    """Stationarity residual report (JSON) + temperedness table (CSV)."""
    field = cfg.field()
    m = cfg.galerkin_dim
    a = cfg.truncation_horizon
    horizon_t = cfg.temperedness_horizon
    ts = [1.0, 2.0, 4.0]
    # the deepest rung's history starts at -(horizon_t + a); t + s reach 8
    path = _sample_path(cfg, -(horizon_t + a), 8.0, cfg.dt, cfg.seed)
    entries = stationarity_residual_table(field, path, ts, ts, a, m)
    sink.write_json(
        "stationarity_residuals.json",
        {
            "entries": [
                {
                    "t": e.t,
                    "s": e.s,
                    "residual": e.residual,
                    "relative": e.relative,
                    "truncation_bound": e.truncation_bound,
                }
                for e in entries
            ],
            "note": "finite-horizon surrogate; residual measured on aligned grids",
        },
    )
    table = temperedness_diagnostic(
        field, path, cfg.beta, list(cfg.gammas), horizon_t, a, m
    )
    header = (
        ["t", "norm"]
        + [f"discounted_gamma_{g:g}" for g in table.gammas]
        + ["log_plus_over_t"]
    )
    rows = [
        [r.t, r.norm] + [float(d) for d in r.discounted] + [r.log_plus_over_t]
        for r in table.rows
    ]
    sink.write_csv("temperedness_table.csv", header, rows)
    sink.write_json(
        "temperedness_summary.json",
        {"slope_upper_half": table.slope, "beta": table.beta, "note": table.note},
    )


def cmd_attractor_pullback(cfg: RunConfig, sink: OutputSink) -> None:
    """Pullback estimate: endpoint clouds, diameters, Hausdorff steps."""
    problem = cfg.problem()
    m = cfg.galerkin_dim
    path = _sample_path(cfg, -max(cfg.horizons), 0.0, cfg.dt, cfg.seed)
    # default_ensemble's fixed members: 0 and +-R e_n for n <= min(8, m)
    n_random = max(cfg.ensemble_size - (1 + 2 * min(8, m)), 0)
    ensemble = default_ensemble(
        m, cfg.alpha, radius=cfg.ball_radius, n_random=n_random, seed=cfg.seed
    )[: cfg.ensemble_size]
    estimate = pullback_estimate(
        problem, path, list(cfg.horizons), ensemble, cfg.eta, m
    )
    rows = []
    for j, t_j in enumerate(estimate.horizons):
        cloud = estimate.endpoints[j]
        for i in range(cloud.shape[0]):
            rows.append([t_j, i] + [float(v) for v in cloud[i]])
    header = ["horizon", "member"] + [f"mode_{i}" for i in range(1, m + 1)]
    sink.write_csv("pullback_endpoints.csv", header, rows)
    sink.write_json(
        "pullback_summary.json",
        {
            "horizons": list(estimate.horizons),
            "diameters_alpha": estimate.diameters,
            "eta_norms": estimate.eta_norms,
            "hausdorff_steps": estimate.hausdorff_steps,
            "flagged_blowup": estimate.flagged,
            "survivors": [int(alive.sum()) for alive in estimate.survivors],
            "note": estimate.note,
        },
    )


def cmd_convergence(cfg: RunConfig, sink: OutputSink) -> None:
    """Dyadic strong self-convergence study with fitted orders."""
    m = cfg.galerkin_dim
    problem = cfg.problem()
    levels = cfg.levels
    base = cfg.dt
    fine_dt = base / 2 ** (levels + 2)
    seeds = [cfg.seed + i for i in range(cfg.n_paths)]

    def final_state(path: WienerPath, dt: float, seed: int) -> np.ndarray:
        # an order fitted over a blown-up run is no order at all
        grid = span_grid(0.0, cfg.horizon, dt)
        chain = build_chain(problem.field, path, grid, m)
        traj = integrate_semilinear(problem, chain)
        if traj.status == "blowup":
            raise NumericalError(
                f"convergence path seed {seed} blew up at dt={dt!r}, "
                f"t={traj.blowup_time!r}"
            )
        return traj.states[-1]

    def run_one(seed: int):
        fine = _sample_path(cfg, 0.0, cfg.horizon, fine_dt, seed)
        ref = final_state(fine, fine_dt, seed)
        errs = []
        for lev in range(levels):
            dt_lev = base / 2 ** lev
            coarse_path = restrict(fine, int(round(dt_lev / fine_dt)))
            coarse = final_state(coarse_path, dt_lev, seed)
            errs.append(float(np.linalg.norm(coarse - ref)))
        return errs

    all_errs = np.array(ordered_map(run_one, seeds))
    rms = np.sqrt((all_errs ** 2).mean(axis=0))
    dts = [base / 2 ** lev for lev in range(levels)]
    rows = [[dts[i], float(rms[i])] for i in range(levels)]
    sink.write_csv("convergence_errors.csv", ["dt", "rms_error"], rows)
    sink.write_json(
        "convergence_summary.json",
        {
            # null when a level's error is exactly 0 (sigma = 0 from u0 = 0,
            # say): no order is fitted over it
            "fitted_strong_order": observed_order(dts, list(rms)),
            "zero_error_levels": int(np.count_nonzero(rms == 0.0)),
            "reference_dt": fine_dt,
            "n_paths": cfg.n_paths,
        },
    )


# ---------------------------------------------------------------------------
# verify: the quick invariant suite


def _verify_checks(cfg: RunConfig) -> tuple[list[dict], list[list]]:
    """The checks, and the decay envelope rows of their evolution chain."""
    checks: list[dict] = []

    def record(name: str, value: float, tolerance: float) -> None:
        # margin <= 1 exactly when a check with a nonzero tolerance passes;
        # inf is written as null
        if tolerance > 0:
            margin = value / tolerance
        elif tolerance < 0:  # a ceiling below 0
            margin = tolerance / value if value < 0 else math.inf
        else:  # an exact check: 0 if it holds, inf if not
            margin = 0.0 if value <= 0 else math.inf
        checks.append(
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
    path = sample_two_sided_path(spectrum, -12.0, 3.0, dt, cfg.seed)

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
    fit = decay_fit(chain, [(1.0, 0.5), (0.5, 0.25), (1.0, 0.0), (0.25, 0.25)])
    record("evolution_decay_envelope", fit.C_hat, 1.0 + 1e-9)

    # corrector closed-form oracle (deterministic ramp path, single mode)
    lam = field.delta * math.pi ** 2
    ramp_spec = NoiseSpectrum(1, 1.0)
    n_pts = int(round(1.0 / dt)) + 1
    ramp_base = (np.arange(n_pts) * dt).reshape(-1, 1)
    ramp_base.setflags(write=False)
    ramp = WienerPath(ramp_base, 0, dt, ramp_spec, 0)
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
    cubic = nemytskii(NonlinearitySpec.pure_cubic(), _unit_mode(m, 1) / math.sqrt(2.0))
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
    rp = sample_two_sided_path(NoiseSpectrum(4, 1.0), -16.0, 6.0, 2.0 ** -9, cfg.seed + 1)
    # residual / (1 + ||Z||), Z the residual's own propagated state
    entry = stationarity_residual_table(resolved, rp, [2.0], [1.0], 4.0, 4)[0]
    record("ou_stationarity_residual", entry.relative, 1e-8)

    # attractor invariants (tiny configuration)
    u0 = _unit_mode(m, 1)
    vt = integrate_v(NonlinearitySpec.pure_cubic(), None, 0.0, u0, chain, None)
    norms = vt.l2_norms()
    envelope = np.exp(-field.poincare_rate * vt.times * (1.0 - 1e-2)) * norms[0]
    record(
        "energy_decay_purecubic",
        float((norms - envelope).max()),
        0.0,
    )
    lin_prob = SemilinearProblem(
        field=field,
        nonlinearity=NonlinearitySpec.zero(),
        forcing=None,
        sigma=0.1,
        u0=u0,
    )
    # 192 steps span more than one chain block, so the check fails if the
    # chain it marches three times is not joined first
    disc = transform_consistency(lin_prob, path, 3.0, 4.0, m, n_checkpoints=4)
    record("transform_linear_consistency", disc, 1e-3)
    return checks, _decay_envelope_rows(chain)


def _unit_mode(m: int, n: int) -> np.ndarray:
    out = np.zeros(m)
    out[n - 1] = 1.0
    return out


def _decay_envelope_rows(chain: PropagatorChain) -> list[list]:
    """(t - s, ||U(t, s)||_2, C_hat e^{-lambda_hat (t-s)}) diagnostic rows
    on a joined chain over [0, 1]."""
    pairs = [(k / 16.0, 0.0) for k in range(0, 17)]
    fit = decay_fit(chain, pairs)
    rows = []
    for (t, s) in pairs:
        norm = operator_norm(chain_matrix(chain, t, s))
        envelope = fit.C_hat * math.exp(-fit.lambda_hat * (t - s))
        rows.append([t - s, norm, envelope])
    return rows


def cmd_verify(cfg: RunConfig, sink: OutputSink) -> int:
    checks, envelope_rows = _verify_checks(cfg)
    failed = [c for c in checks if not c["passed"]]
    sink.write_csv("decay_envelope.csv", ["t_minus_s", "norm", "envelope"], envelope_rows)
    sink.write_json(
        "verify_report.json",
        {
            "artifact_version": __version__,
            "all_passed": not failed,
            "checks": checks,
        },
    )
    for c in checks:
        status = "pass" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: value={fmt(c['value'])} tol={fmt(c['tolerance'])}")
    return 0 if not failed else 3


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randattract",
        description=(
            "Pathwise simulation of stochastic reaction-diffusion equations with "
            "random non-autonomous generators"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("simulate", "ensemble semilinear runs"),
        ("ou-diagnose", "stationarity and temperedness tables"),
        ("attractor-pullback", "pullback attractor estimate"),
        ("verify", "full invariant suite (exit 3 on any failure)"),
        ("convergence", "dyadic refinement study with fitted orders"),
        ("print-config", "print the default config file"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None, help="config file path")
        p.add_argument(
            "--out",
            type=str,
            default=None,
            help="output directory (fallback: env RANDATTRACT_OUT, then ./randattract_out)",
        )
        p.add_argument(
            "--threads",
            type=int,
            default=min(os.cpu_count() or 1, MAX_THREADS),
            help=f"worker threads for path ensembles and chain builds (1..{MAX_THREADS})",
        )
        p.add_argument("--seed", type=int, default=None, help="override noise.seed")
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "ou-diagnose": cmd_ou_diagnose,
    "attractor-pullback": cmd_attractor_pullback,
    "verify": cmd_verify,
    "convergence": cmd_convergence,
}


def _sampled_seeds(command: str, cfg: RunConfig) -> list[int]:
    """The noise seeds a command samples, for the manifest."""
    if command in ("simulate", "convergence"):
        return [cfg.seed + i for i in range(cfg.n_paths)]
    if command == "verify":
        return [cfg.seed, cfg.seed + 1]
    return [cfg.seed]


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "print-config":
        print(example_config(), end="")
        return 0
    try:
        if not 1 <= args.threads <= MAX_THREADS:
            raise ConfigurationError(
                f"--threads must lie in [1, {MAX_THREADS}], got {args.threads}"
            )
        overrides = {}
        if args.seed is not None:
            overrides[("noise", "seed")] = args.seed
        cfg = load_config(args.config, overrides)
    except (ConfigurationError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(
        args.out
        or os.environ.get("RANDATTRACT_OUT")
        or "randattract_out"
    ) / args.command
    sink = None
    started = time.perf_counter()
    try:
        sink = OutputSink(out_dir, cfg.config_hash())
        with workers(args.threads), counting() as counters:
            code = _COMMANDS[args.command](cfg, sink) or 0
        total = time.perf_counter() - started
        sink.manifest({"total": total}, _sampled_seeds(args.command, cfg), counters)
        failure = None
    except ConfigurationError as exc:
        failure = 1, f"configuration error: {exc}"
    except MemoryError as exc:
        # a config whose arrays exceed the address space (convergence with
        # many levels) fails as a config, not with numpy's traceback
        failure = 1, f"configuration error: out of memory: {exc}"
    except (AlignmentError, ShiftRangeError, OrderingError) as exc:
        failure = 1, f"validation error: {exc}"
    except (NumericalError, FloatingPointError, np.linalg.LinAlgError) as exc:
        failure = 2, f"numerical error: {exc}"
    except OSError as exc:  # an --out that cannot be made or written
        failure = 1, f"output error: {exc}"
    if failure is not None:
        code, message = failure
        if sink is not None:
            sink.cleanup_partial()
        try:
            out_dir.rmdir()  # only once empty: a kept *.log keeps it
        except OSError:
            pass
        print(message, file=sys.stderr)
        return code
    print(f"outputs in {out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
