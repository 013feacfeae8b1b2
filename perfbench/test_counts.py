"""Self-test of the traced run: deterministic counts, wrapper placement, outputs.

    python3 -m pytest -q perfbench/test_counts.py

The counts must repeat exactly across runs and seeds and equal the values
derived from the config alone (``workloads.expected_counts``).  A wrapper
patched into the wrong module namespace shows as a missing count: nemytskii
must be called on pullback and never on ou_diagnose.  The workload-config
cases take about two minutes on two cores.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
import workloads

DETERMINISTIC = (
    "pathwise.steps",
    "pathwise.nemytskii.calls",
    "evolution.steps_built",
    "evolution.eigh.matrices",
    "operators.driver.points",
    "ou.history_steps",
)

SMALL = {
    "noise": {"modes": "4", "dt": "0.015625", "n_paths": "4"},
    "field": {"galerkin_dim": "8", "driver_horizon": "2.0"},
    "experiment": {
        "horizons": "0.5,1.0",
        "truncation_horizon": "2.0",
        "temperedness_horizon": "8.0",
        "horizon": "0.5",
        "ensemble_size": "5",
        "levels": "2",
    },
}

# the workload counts, written out (pullback: 33 members x 3,840 chain steps)
WORKLOAD_COUNTS = {
    "pullback": {"pathwise.steps": 126_720, "evolution.steps_built": 3_840},
    "ou_diagnose": {
        "pathwise.nemytskii.calls": 0,
        "evolution.steps_built": 37_888,
        "ou.history_steps": 32_768,
    },
    "convergence": {"pathwise.steps": 9_984},
}


def traced(name: str, seed: int, overrides: dict, tmp_path):
    """Run the traced CLI once: (per-layer metrics, config-derived counts, out dir)."""
    out = tmp_path / f"{name}-{seed}"
    out.mkdir()
    config = None
    if overrides:
        config = out / "run.cfg"
        config.write_text(workloads.config_text(overrides))
    summary = out / "summary.json"
    command = workloads.WORKLOADS[name].command
    argv = [
        sys.executable,
        str(run.HERE / "trace_run.py"),
        "--summary", str(summary),
        "--spans", str(out / "spans.csv"),
        "--",
    ] + run.cli_argv(command, out, seed, config)[3:]
    inv = run.invoke(argv, out, timeout=600.0)
    assert inv.code == 0, (out / "stderr.txt").read_text()
    metrics = json.loads(summary.read_text())["metrics"]
    expected = workloads.expected_counts(name, run.load_run_config(config, seed))
    return metrics, expected, out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_config_counts_repeat_and_match_config(name, tmp_path):
    overrides = workloads.merge(SMALL, workloads.WORKLOADS[name].overrides)
    first, expected, _ = traced(name, 777, overrides, tmp_path)
    second, _, _ = traced(name, 778, overrides, tmp_path)
    for key in DETERMINISTIC:
        assert first[key] == second[key] == expected[key], key
    for module in ("noise", "operators", "evolution", "pathwise", "ou", "attractor", "cli"):
        assert first[f"{module}.errors"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_counts_and_outputs(name, tmp_path):
    seed = workloads.SPEC["cli_seeds"][0]
    metrics, expected, out = traced(name, seed, workloads.WORKLOADS[name].overrides, tmp_path)
    for key in DETERMINISTIC:
        assert metrics[key] == expected[key], key
    for key, value in WORKLOAD_COUNTS[name].items():
        assert metrics[key] == value, key
    if name == "pullback":
        assert metrics["pathwise.nemytskii.calls"] > 0
        assert metrics["ou.construct_initial.calls"] == 0
    got = workloads.key_outputs(name, out)
    assert workloads.compare(got, workloads.load_reference(name, seed)) == []
