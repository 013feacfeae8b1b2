"""Workload definitions, config-derived work counts and key-output checks.

Each workload is one randattract CLI subcommand at the default config (plus
at most a small override).  The counts below are derived from the config
alone, so the traced run can be checked against them, and the key outputs
are compared with reference outputs stored under ``reference/``.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    nominal_s: float  # wall time of one CLI run on a 2-core reference machine
    overrides: dict = field(default_factory=dict)  # {section: {key: value}}

    def repeats(self, seconds: float) -> int:
        """CLI runs per benchmark invocation: as many as fit ``seconds``
        at the nominal run time, and at least one."""
        return max(1, int(seconds // self.nominal_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pullback", "attractor-pullback", 20.0),
        Workload("ou_diagnose", "ou-diagnose", 31.0),
        Workload("convergence", "convergence", 20.0, {"noise": {"n_paths": "1"}}),
    )
}


def cli_seeds(bench_seed: int, repeats: int) -> list[int]:
    """CLI seeds of one benchmark invocation: ``repeats`` reference seeds spread
    evenly over the rotation, starting at ``bench_seed``."""
    seeds = SPEC["cli_seeds"]
    return [
        seeds[(bench_seed + i * len(seeds) // repeats) % len(seeds)]
        for i in range(repeats)
    ]


def config_text(overrides: dict) -> str:
    """An INI config holding only the overridden keys (the rest are defaults)."""
    lines = []
    for section, values in overrides.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    return "\n".join(lines) + "\n"


def merge(base: dict, extra: dict) -> dict:
    out = {s: dict(v) for s, v in base.items()}
    for section, values in extra.items():
        out.setdefault(section, {}).update(values)
    return out


# ---------------------------------------------------------------------------
# config-derived work counts


def _steps(span: float, dt: float) -> int:
    return int(round(span / dt))


def _temperedness_ladder(cfg) -> list[int]:
    """The ladder of cmd_ou_diagnose: 12 log-spaced times up to the horizon."""
    raw = np.geomspace(1.0, cfg.temperedness_horizon, 12)
    return sorted({max(1, int(round(t / cfg.dt))) for t in raw})


def expected_counts(name: str, cfg) -> dict[str, int]:
    """Deterministic counts one run of workload ``name`` must produce.

    ``cfg`` is the loaded RunConfig.  Assumes amp > 0 (one eigh per step)
    and no blow-ups, which holds for the dissipative default problem.
    """
    dt = cfg.dt
    # chains as (n_steps, chain dt, members integrated on it, node operators
    # assembled on it)
    chains: list[tuple[int, float, int, int]] = []
    history_steps = 0
    if name == "pullback":
        m = cfg.galerkin_dim
        members = min(
            cfg.ensemble_size, 1 + 2 * min(8, m) + max(cfg.ensemble_size - 17, 0)
        )
        for horizon in cfg.horizons:
            n = _steps(horizon, dt)
            chains.append((n, dt, members, n if cfg.sigma else 0))
    elif name == "convergence":
        fine = dt / 2 ** (cfg.levels + 2)
        per_path = [fine] + [dt / 2 ** lev for lev in range(cfg.levels)]
        for step in per_path * cfg.n_paths:
            n = _steps(cfg.horizon, step)
            chains.append((n, step, 1, n if cfg.sigma else 0))
    elif name == "ou_diagnose":
        # stationarity table: ts = ss = (1, 2, 4); one left history + 3 shifted,
        # left propagated to max(t + s) = 8, the shifted ones to max(t) = 4
        a = _steps(cfg.truncation_horizon, dt)
        n_history = 4 + len(_temperedness_ladder(cfg))
        history_steps = n_history * a
        chains = [(a, dt, 0, a + 1)] * n_history
        for horizon in (8.0, 4.0, 4.0, 4.0):
            n = _steps(horizon, dt)
            chains.append((n, dt, 0, n))
    else:
        raise KeyError(name)

    steps_built = sum(c[0] for c in chains)
    integrated = sum(c[0] * c[2] for c in chains)
    driver_points = sum(
        ((n + 1) + nodes) * (_steps(cfg.driver_horizon, step) + 1)
        for n, step, _, nodes in chains
    )
    return {
        "pathwise.steps": integrated,
        "pathwise.nemytskii.calls": integrated if cfg.nonlinearity != "zero" else 0,
        "evolution.steps_built": steps_built,
        "evolution.eigh.matrices": steps_built,
        "operators.driver.points": driver_points,
        "ou.history_steps": history_steps,
    }


def step_count(name: str, cfg) -> int:
    """Propagator steps applied by one run (integrated member-steps, plus the
    history and propagation steps of the OU state)."""
    counts = expected_counts(name, cfg)
    if name == "ou_diagnose":
        return counts["evolution.steps_built"]
    return counts["pathwise.steps"]


# ---------------------------------------------------------------------------
# key outputs and the reference check


def _csv_columns(path: Path) -> dict[str, list[float]]:
    with path.open() as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    header, body = rows[0], rows[1:]
    return {h: [float(r[i]) for r in body] for i, h in enumerate(header)}


def key_outputs(name: str, out_dir: Path) -> dict[str, list[float]]:
    """The numbers a workload is judged by, read from its CLI output dir.

    ``hausdorff_steps`` is left out on purpose: today it is 0.0 on collapsed
    clouds only because |a|^2 + |b|^2 - 2ab cancels, and fixing that must not
    read as a wrong result.
    """
    run = out_dir / WORKLOADS[name].command
    out: dict[str, list[float]] = {}
    if name == "pullback":
        cols = _csv_columns(run / "pullback_endpoints.csv")
        out["endpoints"] = [v for col in cols.values() for v in col]
        summary = json.loads((run / "pullback_summary.json").read_text())
        out["diameters_alpha"] = summary["diameters_alpha"]
        out["eta_norms"] = summary["eta_norms"]
    elif name == "ou_diagnose":
        entries = json.loads((run / "stationarity_residuals.json").read_text())[
            "entries"
        ]
        out["stationarity_residual"] = [e["residual"] for e in entries]
        cols = _csv_columns(run / "temperedness_table.csv")
        out["temperedness_t"] = cols["t"]
        out["temperedness_norm"] = cols["norm"]
    elif name == "convergence":
        cols = _csv_columns(run / "convergence_errors.csv")
        out["dt"] = cols["dt"]
        out["rms_error"] = cols["rms_error"]
        summary = json.loads((run / "convergence_summary.json").read_text())
        out["fitted_strong_order"] = [summary["fitted_strong_order"]]
    else:
        raise KeyError(name)
    return {k: [float(v) for v in vals] for k, vals in out.items()}


def reference_path(name: str) -> Path:
    return HERE / "reference" / f"{name}.json.gz"


def load_reference(name: str, seed: int) -> dict[str, list[float]]:
    with gzip.open(reference_path(name), "rt") as fh:
        return json.load(fh)["outputs"][str(seed)]


def compare(got: dict, ref: dict) -> list[str]:
    """Mismatches of ``got`` against ``ref`` under |g - r| <= atol + rtol |r|.

    Values whose reference sits below atol are held only to that floor, so a
    change that moves rounding-level numbers is not a failure.
    """
    atol = SPEC["tolerance"]["atol"]
    rtol = SPEC["tolerance"]["rtol"]
    problems = []
    for key in sorted(set(ref) | set(got)):
        if key not in got or key not in ref:
            problems.append(f"{key}: present in only one of output and reference")
            continue
        g, r = got[key], ref[key]
        if len(g) != len(r):
            problems.append(f"{key}: {len(g)} values, reference has {len(r)}")
            continue
        bad = [
            i
            for i, (x, y) in enumerate(zip(g, r))
            if not (
                (math.isnan(x) and math.isnan(y))
                or abs(x - y) <= atol + rtol * abs(y)
            )
        ]
        if bad:
            i = bad[0]
            problems.append(
                f"{key}: {len(bad)} of {len(r)} values off, first [{i}] "
                f"{g[i]!r} vs reference {r[i]!r}"
            )
    return problems
