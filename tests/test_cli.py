"""Configuration validation, subcommand smoke runs, determinism, manifests."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from randattract import attractor, cli, evolution, ou
from randattract.cli import main
from randattract.config import load_config
from randattract.errors import (
    AlignmentError,
    ConfigurationError,
    OrderingError,
    ShiftRangeError,
)


SMALL = """
[noise]
modes = 4
dt = 0.015625
seed = 777
n_paths = 4

[field]
galerkin_dim = 8
driver_horizon = 2.0

[experiment]
horizons = 0.5,1.0
truncation_horizon = 2.0
temperedness_horizon = 8.0
horizon = 0.5
ensemble_size = 5
levels = 2
"""


@pytest.fixture()
def small_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL)
    return str(cfg)


def test_defaults_load_and_validate():
    cfg = load_config(None)
    assert cfg.galerkin_dim == 64
    assert cfg.spectrum().mode_count == 16
    assert cfg.field().delta == 0.5
    assert cfg.problem().sigma == 0.1


def test_config_rejects_ellipticity_violation(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[field]\ndelta = 0.3\namp = 0.2\n")
    with pytest.raises(ConfigurationError, match="ellipticity"):
        load_config(str(bad))


def test_config_rejects_alpha_eta_window(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[field]\nalpha = 0.4\neta = 0.7\n")
    with pytest.raises(ConfigurationError, match="eta"):
        load_config(str(bad))


def test_config_names_trace_class_constraint(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[noise]\ndecay_exponent = 0.4\n")
    with pytest.raises(ConfigurationError, match="trace-class"):
        load_config(str(bad))


@pytest.mark.parametrize(
    "section, key, value, match",
    [
        ("noise", "modes", "0", "positive integer"),
        ("noise", "decay_exponent", "0.5", "trace-class"),
        ("noise", "sigma", "-0.1", "sigma"),
        ("field", "delta", "0.0", "delta"),
        ("field", "amp", "-0.1", "amp"),
        ("field", "amp", "0.25", "ellipticity"),
        ("field", "kappa", "0.0", "kappa must be positive"),
        ("field", "driver_horizon", "-8.0", "horizon must be positive"),
        ("field", "alpha", "-0.6", "alpha"),
        ("problem", "blowup_threshold", "0.0", "blowup_threshold"),
    ],
)
def test_config_rejects_through_the_owning_constructor(section, key, value, match):
    with pytest.raises(ConfigurationError, match=match):
        load_config(None, {(section, key): value})


def test_coefficient_vector_specs():
    cfg = load_config(None)
    u = cfg.coefficient_vector("mode:3:1.5")
    assert u[2] == 1.5 and u.sum() == 1.5
    r = cfg.coefficient_vector("random:2.0")
    assert abs((r ** 2).sum() ** 0.5 - 2.0) < 1e-12
    for bad in ("nonsense", "mode:x:1", "random:wide"):
        with pytest.raises(ConfigurationError, match="cannot parse"):
            cfg.coefficient_vector(bad)


def test_cli_exit_code_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[field]\ndelta = 0.1\namp = 0.2\n")
    code = main(["verify", "--config", str(bad)])
    assert code == 1
    assert "ellipticity" in capsys.readouterr().err


def test_verify_passes_and_is_deterministic(tmp_path, small_config, capsys):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["verify", "--config", small_config, "--out", str(out1)]) == 0
    assert main(["verify", "--config", small_config, "--out", str(out2)]) == 0
    r1 = (out1 / "verify" / "verify_report.json").read_bytes()
    r2 = (out2 / "verify" / "verify_report.json").read_bytes()
    assert r1 == r2
    report = json.loads(r1)
    assert report["all_passed"] is True
    assert all(c["passed"] for c in report["checks"])
    manifest = json.loads((out1 / "verify" / "manifest.json").read_text())
    assert manifest["per_path_seeds"] == [777, 778]


def test_verify_reports_a_failed_exact_check_with_a_null_margin(
    tmp_path, small_config, monkeypatch
):
    # evolution_contractivity is an exact check (tolerance 0): failing, its
    # margin is infinite, written as null, not the 0.0 of a passing one
    monkeypatch.setattr(cli, "contractivity_margin", lambda chain: -1.0)
    out = tmp_path / "v"
    assert main(["verify", "--config", small_config, "--out", str(out)]) == 3
    report = json.loads((out / "verify" / "verify_report.json").read_text())
    assert report["all_passed"] is False
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [(c["name"], c["margin"]) for c in failed] == [
        ("evolution_contractivity", None)
    ]
    exact = [c for c in report["checks"] if c["tolerance"] == 0.0 and c["passed"]]
    assert exact and all(c["margin"] == 0.0 for c in exact)


def test_verify_margin_is_at_most_one_exactly_when_a_check_passes(
    tmp_path, small_config, monkeypatch
):
    # operator_spectral_bound's tolerance is the spectral ceiling, below 0:
    # shifted so that its top eigenvalue is half the ceiling, the operator
    # fails the check, whose margin is then 2, not 0.0
    assemble = cli.assemble_operator

    def shifted(field, t, path, m):
        op = assemble(field, t, path, m)
        top = np.linalg.eigvalsh(op)[-1]
        return op + (0.5 * field.spectral_ceiling - top) * np.eye(m)

    monkeypatch.setattr(cli, "assemble_operator", shifted)
    out = tmp_path / "v"
    assert main(["verify", "--config", small_config, "--out", str(out)]) == 3
    report = json.loads((out / "verify" / "verify_report.json").read_text())
    spectral = [c for c in report["checks"] if c["name"] == "operator_spectral_bound"]
    assert spectral[0]["tolerance"] < 0 and spectral[0]["passed"] is False
    bounded = [c for c in report["checks"] if c["tolerance"] != 0.0]
    assert len(bounded) > 1
    for c in bounded:
        assert c["passed"] == (c["margin"] is not None and c["margin"] <= 1), c


def test_verify_first_step_check_fails_on_a_flipped_increment(
    tmp_path, small_config, monkeypatch
):
    # propagate's noise rows as dw + (dt/2) A dw, not dw - (dt/2) A dw: the
    # first propagated step then leaves S_0 (z0 + dw_0 - (dt/2) A(0) dw_0),
    # which verify assembles from the path and the full generator
    increments = ou.corrected_increments

    def flipped(chain):
        w = chain.path_rows()
        dw = np.zeros((chain.grid.n_steps, chain.dim))
        dw[:, : w.shape[1]] = w[1:] - w[:-1]
        return 2.0 * dw - increments(chain)

    monkeypatch.setattr(ou, "corrected_increments", flipped)
    out = tmp_path / "v"
    assert main(["verify", "--config", small_config, "--out", str(out)]) == 3
    report = json.loads((out / "verify" / "verify_report.json").read_text())
    check = [c for c in report["checks"] if c["name"] == "ou_first_step_formula"]
    assert check[0]["passed"] is False and check[0]["margin"] > 1


def test_verify_transform_check_fails_on_a_v_march_without_its_shifts(
    tmp_path, small_config, monkeypatch
):
    # the v-march reads sigma Z inside the cubic term; one that drops it
    # leaves u = v + sigma Z, and only transform_cubic_consistency fails
    march = attractor._march

    def unshifted(chain, x0, nonlinearity, forcing, shifts, noise, *rest):
        return march(chain, x0, nonlinearity, forcing, None, noise, *rest)

    monkeypatch.setattr(attractor, "_march", unshifted)
    out = tmp_path / "v"
    assert main(["verify", "--config", small_config, "--out", str(out)]) == 3
    report = json.loads((out / "verify" / "verify_report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["transform_cubic_consistency"]
    assert failed[0]["margin"] > 1


def test_simulate_outputs_and_manifest(tmp_path, small_config):
    out = tmp_path / "sim"
    assert main(["simulate", "--config", small_config, "--out", str(out), "--threads", "2"]) == 0
    run_dir = out / "simulate"
    manifest = json.loads((run_dir / "manifest.json").read_text())
    for name in manifest["outputs"]:
        assert (run_dir / name).exists()
    assert set(manifest["outputs"]) >= {
        "trajectory_first.csv",
        "ensemble_summary.csv",
        "simulate_summary.json",
    }
    assert manifest["per_path_seeds"] == [777, 778, 779, 780]
    header = (run_dir / "ensemble_summary.csv").read_text().splitlines()[0]
    assert header.startswith("# config_sha256=")


def test_simulate_numeric_fields_deterministic(tmp_path, small_config):
    outs = []
    for sub in ("x", "y"):
        out = tmp_path / sub
        assert main(["simulate", "--config", small_config, "--out", str(out)]) == 0
        outs.append((out / "simulate" / "ensemble_summary.csv").read_bytes())
    assert outs[0] == outs[1]


def test_ou_diagnose_outputs(tmp_path, small_config):
    out = tmp_path / "ou"
    assert main(["ou-diagnose", "--config", small_config, "--out", str(out)]) == 0
    run_dir = out / "ou-diagnose"
    residuals = json.loads((run_dir / "stationarity_residuals.json").read_text())
    assert len(residuals["entries"]) == 9
    for entry in residuals["entries"]:
        assert entry["residual"] >= 0.0
        assert "truncation_bound" in entry
    table = (run_dir / "temperedness_table.csv").read_text().splitlines()
    assert table[1].split(",")[0] == "t"
    summary = json.loads((run_dir / "temperedness_summary.json").read_text())
    assert "slope_upper_half" in summary and "note" in summary
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["per_path_seeds"] == [777]


def test_ou_diagnose_writes_a_null_slope_on_a_one_rung_ladder(tmp_path):
    # temperedness_horizon = 1 is a one-rung ladder: no slope is fitted, and
    # the summary writes null, where 0.0 would read as tempered
    cfg = tmp_path / "run.cfg"
    cfg.write_text(SMALL.replace("temperedness_horizon = 8.0", "temperedness_horizon = 1.0"))
    out = tmp_path / "ou"
    assert main(["ou-diagnose", "--config", str(cfg), "--out", str(out)]) == 0
    run_dir = out / "ou-diagnose"
    table = (run_dir / "temperedness_table.csv").read_text().splitlines()
    assert len(table) == 3  # the config hash, the header and the one rung
    summary = json.loads((run_dir / "temperedness_summary.json").read_text())
    assert summary["slope_upper_half"] is None


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ou_diagnose_work_counts(tmp_path, small_config, monkeypatch, threads):
    # the counts the benchmark checks for ou-diagnose, written out here:
    # 4 + |ladder| history chains of a / dt steps, read at a + 1 driver
    # nodes for their steps and a + 1 for their corrector rows, and
    # propagation chains of 8, 4, 4 and 4 time units, of n steps read at
    # n + 1 nodes for their steps and n for their increments; each node is
    # a window of driver_horizon / dt + 1 path points
    counts = {"built": 0, "history": 0, "driver": 0}
    build_fn, initial_fn = ou.build_chain, ou.construct_initial
    driver_fn = evolution.driver_values

    def counted_build(field, path, grid, m):
        counts["built"] += grid.n_steps
        return build_fn(field, path, grid, m)

    def counted_initial(field, path, a, m):
        counts["history"] += int(round(a / path.dt))
        return initial_fn(field, path, a, m)

    def counted_driver(field, path, k_lo, k_hi):
        zetas = driver_fn(field, path, k_lo, k_hi)
        counts["driver"] += len(zetas) * (int(round(field.driver_horizon / path.dt)) + 1)
        return zetas

    monkeypatch.setattr(ou, "build_chain", counted_build)
    monkeypatch.setattr(ou, "construct_initial", counted_initial)
    monkeypatch.setattr(evolution, "driver_values", counted_driver)
    out = tmp_path / "ou"
    args = ["--config", small_config, "--out", str(out), "--threads", threads]
    assert main(["ou-diagnose", *args]) == 0
    dt, a, window = 2.0 ** -6, 128, 129  # SMALL: truncation_horizon 2, driver_horizon 2
    ladder = {max(1, int(round(t / dt))) for t in np.geomspace(1.0, 8.0, 12)}
    histories = 4 + len(ladder)
    propagations = [int(round(t / dt)) for t in (8.0, 4.0, 4.0, 4.0)]
    assert counts == {
        "built": histories * a + sum(propagations),
        "history": histories * a,
        "driver": window * (
            histories * 2 * (a + 1) + sum(2 * n + 1 for n in propagations)
        ),
    }


def test_attractor_pullback_outputs(tmp_path, small_config):
    out = tmp_path / "att"
    assert main(["attractor-pullback", "--config", small_config, "--out", str(out)]) == 0
    run_dir = out / "attractor-pullback"
    summary = json.loads((run_dir / "pullback_summary.json").read_text())
    assert summary["horizons"] == [0.5, 1.0]
    assert len(summary["diameters_alpha"]) == 2
    assert summary["flagged_blowup"] is False
    assert summary["survivors"] == [5, 5]
    endpoints = (run_dir / "pullback_endpoints.csv").read_text().splitlines()
    # 2 horizons x 5 members + comment + header
    assert len(endpoints) == 2 + 10
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["per_path_seeds"] == [777]


def test_convergence_reports_order(tmp_path, small_config):
    out = tmp_path / "conv"
    assert main(["convergence", "--config", small_config, "--out", str(out)]) == 0
    summary = json.loads(
        (out / "convergence" / "convergence_summary.json").read_text()
    )
    assert summary["fitted_strong_order"] >= 0.4


def test_convergence_at_sigma_zero_fits_no_order_over_exact_levels(tmp_path, capsys):
    # sigma = 0 from u0 = 0 leaves every level exactly at the reference: the
    # fit used to take log2(0) and print two RuntimeWarnings on an exit-0 run
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text(SMALL.replace("[noise]\n", "[noise]\nsigma = 0\n"))
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads(
        (out / "convergence" / "convergence_summary.json").read_text()
    )
    assert summary["fitted_strong_order"] is None
    assert summary["zero_error_levels"] == 2


def test_seed_override(tmp_path, small_config):
    out = tmp_path / "s"
    assert main(["simulate", "--config", small_config, "--out", str(out), "--seed", "42"]) == 0
    manifest = json.loads((out / "simulate" / "manifest.json").read_text())
    assert manifest["per_path_seeds"][0] == 42


def test_env_output_fallback(tmp_path, small_config, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RANDATTRACT_OUT", str(tmp_path / "envout"))
    assert main(["verify", "--config", small_config]) == 0
    assert (tmp_path / "envout" / "verify" / "verify_report.json").exists()


def test_print_config(capsys):
    assert main(["print-config"]) == 0
    text = capsys.readouterr().out
    assert "[noise]" in text and "galerkin_dim" in text


# each bad float used to load: NaN and inf fail every constraint comparison
# and died later (an eigh traceback, exit 2, or silently zeroed weights)
@pytest.mark.parametrize(
    "section, key, value, command",
    [
        ("field", "amp", "nan", "ou-diagnose"),
        ("field", "delta", "inf", "ou-diagnose"),
        ("noise", "sigma", "nan", "simulate"),
        ("noise", "decay_exponent", "inf", "simulate"),
        ("experiment", "ball_radius", "-3", "attractor-pullback"),
        ("experiment", "ball_radius", "0", "attractor-pullback"),
    ],
)
def test_cli_rejects_a_bad_float_naming_its_key(section, key, value, command, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n"))
    out = tmp_path / "run"
    assert main([command, "--config", str(bad), "--out", str(out), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert f"{section}.{key}" in err
    assert not out.exists()


# each line names the config key, not a library field ("driver decay and
# horizon must be positive", "mode_count must be a positive integer"), and
# empty or nonpositive gammas no longer load and run
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("[field]\n", "[field]\nkappa = 0.0\n", "field.kappa must be positive"),
        ("driver_horizon = 2.0", "driver_horizon = 0.0", "field.driver_horizon must be positive"),
        ("modes = 4", "modes = 0", "noise.modes must be a positive integer"),
        ("[experiment]\n", "[experiment]\ngammas =\n", "experiment.gammas"),
        ("[experiment]\n", "[experiment]\ngammas = 0.1,-0.1\n", "experiment.gammas"),
        ("[experiment]\n", "[experiment]\ngammas = 0\n", "experiment.gammas"),
    ],
    ids=["kappa", "driver_horizon", "modes", "no-gammas", "negative-gamma", "zero-gamma"],
)
def test_cli_config_errors_name_the_config_key(old, new, message, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace(old, new))
    out = tmp_path / "run"
    assert main(["ou-diagnose", "--config", str(bad), "--out", str(out), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


# a misspelled section or key used to be ignored (galerkin_dimm = 8 ran at
# m = 64), and a malformed value did not say which key it was
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("galerkin_dim = 8", "galerkin_dimm = 8", "unknown config key field.galerkin_dimm"),
        ("[field]\n", "[feild]\n", "unknown config section [feild]"),
        ("modes = 4", "modes = four", "malformed config value noise.modes"),
    ],
    ids=["key", "section", "int"],
)
def test_cli_refuses_a_config_typo_naming_it(old, new, message, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace(old, new))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(bad), "--out", str(out), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


def test_linalg_error_exits_2_with_cleanup(tmp_path, small_config, monkeypatch, capsys):
    # once the first output is written, eigh fails to converge
    out = tmp_path / "ou"
    written = out / "ou-diagnose" / "stationarity_residuals.json"
    eigh = np.linalg.eigh

    def failing_eigh(a):
        if written.exists():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    assert main(["ou-diagnose", "--config", small_config, "--out", str(out), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1
    assert not written.exists()
    assert not (out / "ou-diagnose").exists()


def test_cli_rejects_horizon_off_the_time_grid(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nhorizon = 1.001\n")
    assert main(["simulate", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert "not a multiple of dt" in capsys.readouterr().err
    assert not (tmp_path / "simulate").exists()


@pytest.mark.parametrize("error", [AlignmentError, ShiftRangeError, OrderingError])
def test_cli_validation_errors_exit_1_with_cleanup(
    error, tmp_path, small_config, monkeypatch, capsys
):
    def failing(cfg, sink):
        sink.write_text("partial.csv", "1\n")
        sink.write_text("run.log", "started\n")
        raise error("window leaves the sampled path")

    monkeypatch.setitem(cli._COMMANDS, "simulate", failing)
    out = tmp_path / "o"
    assert main(["simulate", "--config", small_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "window leaves the sampled path" in err
    assert not (out / "simulate" / "partial.csv").exists()
    assert (out / "simulate" / "run.log").exists()


def test_cli_output_errors_exit_1_with_one_line(tmp_path, small_config, capsys):
    # an --out at a file, and a report path taken by a directory: both used
    # to end in an OSError traceback
    taken = tmp_path / "file"
    taken.write_text("not a directory\n")
    assert main(["verify", "--config", small_config, "--out", str(taken)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    assert taken.read_text() == "not a directory\n"

    out = tmp_path / "o"
    (out / "verify" / "verify_report.json").mkdir(parents=True)
    assert main(["verify", "--config", small_config, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("output error:") and err.count("\n") == 1
    # the outputs written before the failure are cleaned up
    assert sorted(p.name for p in (out / "verify").iterdir()) == ["verify_report.json"]


def test_cli_imports_numpy_only():
    probe = (
        "import randattract.cli, sys; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_cli_rejects_a_negative_seed(tmp_path, small_config, capsys):
    out = tmp_path / "neg"
    assert main(["simulate", "--config", small_config, "--out", str(out), "--seed", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "noise.seed" in err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0.0", "-4.0"])
def test_cli_rejects_a_nonpositive_temperedness_horizon(value, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace("temperedness_horizon = 8.0", f"temperedness_horizon = {value}"))
    out = tmp_path / "ou"
    assert main(["ou-diagnose", "--config", str(bad), "--out", str(out)]) == 1
    assert "experiment.temperedness_horizon" in capsys.readouterr().err
    assert not out.exists()


# both loaded, and convergence then wrote all-zero errors (horizon 0) or a
# NaN order (one level), which is not valid JSON, and exited 0
@pytest.mark.parametrize(
    "key, value", [("horizon", "0.0"), ("horizon", "-0.5"), ("levels", "1")]
)
def test_convergence_config_needs_a_positive_horizon_and_two_levels(
    key, value, tmp_path, capsys
):
    bad = tmp_path / "bad.cfg"
    line = {"horizon": "\nhorizon = 0.5\n", "levels": "\nlevels = 2\n"}[key]
    bad.write_text(SMALL.replace(line, f"\n{key} = {value}\n"))
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert f"experiment.{key}" in err
    assert not out.exists()


def test_attractor_pullback_honours_ensemble_size_at_small_dimension(tmp_path):
    # at galerkin_dim 4 the ensemble has 1 + 2*4 fixed members, not 17
    small = tmp_path / "m4.cfg"
    small.write_text(
        SMALL.replace("galerkin_dim = 8", "galerkin_dim = 4")
        .replace("ensemble_size = 5", "ensemble_size = 33")
    )
    out = tmp_path / "att"
    assert main(["attractor-pullback", "--config", str(small), "--out", str(out)]) == 0
    endpoints = (out / "attractor-pullback" / "pullback_endpoints.csv").read_text()
    rows = endpoints.splitlines()[2:]
    assert len(rows) == 2 * 33
    assert sorted({int(r.split(",")[1]) for r in rows}) == list(range(33))


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_cli_rejects_nonpositive_threads(threads, tmp_path, small_config, capsys):
    out = tmp_path / "t"
    code = main(["ou-diagnose", "--config", small_config, "--out", str(out), "--threads", threads])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "--threads" in err
    assert not out.exists()


def test_cli_rejects_threads_above_the_bound(tmp_path, small_config, capsys):
    # refused before the chain workers are set, so no thread starts (the
    # autouse fixture checks that none is left)
    out = tmp_path / "t"
    code = main(["ou-diagnose", "--config", small_config, "--out", str(out), "--threads", "1000000"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --threads") and err.count("\n") == 1
    assert str(cli.MAX_THREADS) in err
    assert not out.exists()


def test_convergence_refuses_to_fit_over_a_blow_up(tmp_path, capsys):
    # both runs used to exit 0: a huge forcing fitted an order of 3.76 over
    # blown-up errors, and sigma = 1e200 wrote rms inf and order NaN; at
    # width 2 the paths run on the workers too, and the first path's own
    # error is the one reported (no worker outlives the run: the autouse
    # fixture checks)
    for name, text in (
        ("forcing", SMALL + "\n[problem]\nforcing = mode:1:1e6\n"),
        ("sigma", SMALL.replace("[noise]\n", "[noise]\nsigma = 1e200\n")),
    ):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        for threads in ("1", "2"):
            out = tmp_path / name / threads
            argv = ["convergence", "--config", str(cfg), "--out", str(out), "--threads", threads]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("numerical error:") and err.count("\n") == 1
            assert "seed 777" in err and "dt=" in err
            assert not (out / "convergence").exists()


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_attractor_pullback_counts_survivors_over_a_blow_up(tmp_path, capsys):
    # sigma = 1e200 blows every member up at once: the diameters are null
    # (no number, and not 0.0), the survivors per horizon are 0, and NumPy's
    # overflow warning no longer reaches stderr; the summary parses as strict
    # JSON, with no bare NaN token
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text(SMALL.replace("[noise]\n", "[noise]\nsigma = 1e200\n"))
    out = tmp_path / "att"
    argv = ["attractor-pullback", "--config", str(cfg), "--out", str(out), "--threads", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    summary = json.loads(
        (out / "attractor-pullback" / "pullback_summary.json").read_text(),
        parse_constant=_refuse_constant,
    )
    assert summary["flagged_blowup"] is True
    assert summary["survivors"] == [0, 0]
    assert summary["diameters_alpha"] == [None, None]


def _simulate_summary(text, tmp_path, capsys):
    tmp_path.mkdir()
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(text)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "--threads", "1"]) == 0
    assert capsys.readouterr().err == ""
    lines = (out / "simulate" / "ensemble_summary.csv").read_text().splitlines()
    assert lines[1].split(",")[-1] == "survivors"
    return [[float(v) for v in line.split(",")] for line in lines[2:]]


def test_simulate_counts_survivors_over_a_blow_up(tmp_path, capsys):
    # a row is formed from the paths that have not blown up at its time, and
    # says how many they are; a blown-up state used to enter the norms and
    # variances, which overflowed with NumPy warnings on stderr
    rows = _simulate_summary(SMALL, tmp_path / "a", capsys)
    assert len(rows) == 33 and all(row[-1] == 4 for row in rows)
    # sigma = 1e200 blows every path up at its first step: only t = 0 is left
    rows = _simulate_summary(
        SMALL.replace("[noise]\n", "[noise]\nsigma = 1e200\n"), tmp_path / "b", capsys
    )
    assert rows == [[0.0] * 10 + [4]]
    # sigma = 30: the paths blow up one by one, and the rows run on to the
    # horizon over the survivors, with no variance below two
    rows = _simulate_summary(
        SMALL.replace("[noise]\n", "[noise]\nsigma = 30\n"), tmp_path / "c", capsys
    )
    survivors = [row[-1] for row in rows]
    assert survivors[0] == 4 and survivors[-1] == 1 and len(rows) == 33
    assert survivors == sorted(survivors, reverse=True)
    assert all(math.isfinite(row[1]) for row in rows)
    assert all(math.isnan(v) for row in rows if row[-1] < 2 for v in row[2:-1])
    assert all(math.isfinite(v) for row in rows if row[-1] >= 2 for v in row[2:-1])
    # three paths blow up, at 0.375, 0.171875 and 0.4375 in seed order: the
    # first blow-up is the earliest, not the lowest seed's
    summary = json.loads(
        (tmp_path / "c" / "sim" / "simulate" / "simulate_summary.json").read_text()
    )
    assert summary["blowups"] == 3 and summary["first_blowup_time"] == 0.171875


def test_simulate_rejects_a_single_path(tmp_path, capsys):
    one = tmp_path / "one.cfg"
    one.write_text(SMALL.replace("n_paths = 4", "n_paths = 1"))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(one), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "n_paths" in err
    assert not (out / "simulate").exists()


# 256-step history chains: two blocks, so --threads 2 builds them on two parts
SPLIT = SMALL.replace("dt = 0.015625", "dt = 0.0078125")


def test_ou_diagnose_same_bytes_on_one_and_two_threads(tmp_path):
    # attractor-pullback too, on horizons of one and two blocks, whose
    # march reads each chain while its blocks are still being built, and
    # simulate and convergence, whose paths share the workers with the
    # blocks of their chains
    cfg = tmp_path / "split.cfg"
    cfg.write_text(SPLIT.replace("horizons = 0.5,1.0", "horizons = 1.0,2.0"))
    commands = (("ou-diagnose", 3), ("attractor-pullback", 2), ("simulate", 3), ("convergence", 2))
    for command, n_outputs in commands:
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            argv = [command, "--config", str(cfg), "--out", str(out), "--threads", threads]
            assert main(argv) == 0
            run_dir = out / command
            names = json.loads((run_dir / "manifest.json").read_text())["outputs"]
            runs.append({name: (run_dir / name).read_bytes() for name in names})
        assert len(runs[0]) == n_outputs and runs[0] == runs[1]


def test_definiteness_error_in_a_worker_exits_2_with_cleanup(tmp_path, monkeypatch, capsys):
    # once the first output is written, eigh in the pool thread reports a
    # spectrum above the ceiling, so the worker's own bound check raises
    cfg = tmp_path / "split.cfg"
    cfg.write_text(SPLIT)
    out = tmp_path / "ou"
    written = out / "ou-diagnose" / "stationarity_residuals.json"
    eigh = np.linalg.eigh

    def eigh_in_worker(a):
        lam, q = eigh(a)
        if threading.current_thread() is not threading.main_thread() and written.exists():
            lam = lam + 1e6
        return lam, q

    monkeypatch.setattr(np.linalg, "eigh", eigh_in_worker)
    assert main(["ou-diagnose", "--config", str(cfg), "--out", str(out), "--threads", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and "spectral bound" in err
    assert not written.exists()
    assert not (out / "ou-diagnose").exists()


# "-1,1" failed only at run time with a validation error, "0,1" ran a T = 0
# "pullback" that returned the initial ball, and "1,1" ran one horizon twice
@pytest.mark.parametrize("value", ["-1,1", "0,1", "1,1", "1,0.5"])
def test_cli_rejects_horizons_that_are_not_positive_and_strictly_increasing(
    value, tmp_path, capsys
):
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace("horizons = 0.5,1.0", f"horizons = {value}"))
    out = tmp_path / "pb"
    assert main(["attractor-pullback", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "experiment.horizons" in err
    assert not out.exists()


def test_cli_out_of_memory_exits_1_and_leaves_no_directory(tmp_path, capsys):
    # 40 levels ask for a reference path of 2^42 steps per unit time: numpy
    # refuses the petabytes at once, so nothing is allocated
    big = tmp_path / "big.cfg"
    big.write_text(SMALL.replace("\nlevels = 2\n", "\nlevels = 40\n"))
    out = tmp_path / "conv"
    assert main(["convergence", "--config", str(big), "--out", str(out), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert "allocate" in err
    assert not (out / "convergence").exists()


# the manifest counters of the small config, written out.  dt = 1/64, so
# every driver value reads a window of 2.0 / dt + 1 = 129 path points; a
# chain of n steps evaluates the driver at its n + 1 nodes, and its noise
# rows (one per step) or its history rows (one per node) once more
WINDOW = 129
SMALL_COUNTERS = {
    # horizons 0.5 and 1.0: chains of 32 and 64 steps, each marched by the 5
    # members of the ensemble with sigma > 0, who share each block's rows
    "attractor-pullback": {
        "steps_built": 32 + 64,
        "eigh_matrices": 32 + 64,
        "driver_points": ((32 + 1 + 32) + (64 + 1 + 64)) * WINDOW,
        "member_steps": 5 * (32 + 64),
        "nemytskii_calls": 5 * (32 + 64),
        "history_steps": 0,
    },
    # 16 histories of a = 2.0 (128 steps): the four of the stationarity
    # table and 12 temperedness rungs; then Z propagated over 8.0 (512
    # steps) and three times over 4.0 (256 steps)
    "ou-diagnose": {
        "steps_built": 16 * 128 + 512 + 3 * 256,
        "eigh_matrices": 16 * 128 + 512 + 3 * 256,
        "driver_points": (
            16 * (128 + 1 + 128 + 1) + (512 + 1 + 512) + 3 * (256 + 1 + 256)
        ) * WINDOW,
        "member_steps": 0,
        "nemytskii_calls": 0,
        "history_steps": 16 * 128,
    },
    # four paths over horizon 0.5: one 32-step chain each
    "simulate": {
        "steps_built": 4 * 32,
        "eigh_matrices": 4 * 32,
        "driver_points": 4 * (32 + 1 + 32) * WINDOW,
        "member_steps": 4 * 32,
        "nemytskii_calls": 4 * 32,
        "history_steps": 0,
    },
}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("command", sorted(SMALL_COUNTERS))
def test_manifest_counters_match_the_config(command, threads, tmp_path, small_config):
    # counts made on the workers land in their own run and add up exactly
    out = tmp_path / "run"
    argv = [command, "--config", small_config, "--out", str(out), "--threads", str(threads)]
    assert main(argv) == 0
    manifest = json.loads((out / command / "manifest.json").read_text())
    assert manifest["counters"] == SMALL_COUNTERS[command]
