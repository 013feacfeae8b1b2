"""Command-line orchestration: configuration, the commands, result emission.

Subcommands: simulate, ou-diagnose, attractor-pullback, verify, convergence.
Each runs library calls on the loaded config and writes their results; the
checks that ``verify`` runs are ``randattract.verify``'s, which reads only
the seed.
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

from . import __version__, verify
from .config import RunConfig, example_config, load_config
from .counters import Counters, counting
from .errors import (
    AlignmentError,
    ConfigurationError,
    NumericalError,
    OrderingError,
    ShiftRangeError,
)
from .evolution import build_chain, ordered_map, span_grid, workers
from .noise import WienerPath, restrict, sample_two_sided_path
from .operators import FractionalNormSpec, fractional_norm
from .ou import stationarity_residual_table, temperedness_diagnostic
from .pathwise import integrate_semilinear, observed_order
from .attractor import default_ensemble, pullback_estimate


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


def _sample_path(
    cfg: RunConfig, t_lo: float, t_hi: float, dt: float, seed: int, offset: int = 0
):
    """The path of the fiber ``offset`` steps along the shift over
    [t_lo, t_hi], led by the driver's window when amp > 0: the driver at t
    reads the path on [t - driver_horizon, t]."""
    if cfg.amp > 0:
        t_lo -= cfg.driver_horizon
    return sample_two_sided_path(cfg.spectrum(), t_lo, t_hi, dt, seed, offset)


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
    ts = [1.0, 2.0, 4.0]
    # the table's histories start at -a, and t + s reach 8
    entries = stationarity_residual_table(
        field, _sample_path(cfg, -a, 8.0, cfg.dt, cfg.seed), ts, ts, a, m
    )
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
    # each rung draws its fiber theta_{-k dt} w over its own history window
    table = temperedness_diagnostic(
        field,
        lambda k: _sample_path(cfg, -a, 0.0, cfg.dt, cfg.seed, offset=-k),
        cfg.dt, cfg.beta, list(cfg.gammas), cfg.temperedness_horizon, a, m,
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


def cmd_verify(cfg: RunConfig, sink: OutputSink) -> int:
    """Invariant suite report (JSON) + decay envelope (CSV); 3 on a failure."""
    checks, envelope_rows = verify.checks(cfg.seed)
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
