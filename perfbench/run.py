"""The randattract benchmark: CLI workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload pullback --seed 0 --seconds 60 --trace 0

Run from the root of a source checkout.  Each invocation first runs
``randattract verify`` a few times, then runs the workload's CLI command as a
child process, one at a time (a closed loop with a single client), as many
times as fit ``--seconds`` at the workload's nominal run time (at least once),
each time on another CLI seed derived from ``--seed``.  Every CLI run gets a
fresh output directory, ``RANDATTRACT_OUT`` unset and BLAS/OpenMP pinned to
one thread; the verify report must pass and the workload's key outputs must
match the reference outputs under ``perfbench/reference``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, the
median over the CLI runs (``setup_s`` over the verify runs too).  With
``--trace 1`` the workload runs once untraced and once in-process under the
tracer (``trace_run.py``), and the last line reports the per-layer metrics
instead.  Per-run details, machine info and
spans are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DEADLINE_S = 165.0  # a run must end within 180 s
# verify runs per invocation: the first is the correctness check, and all of
# them add samples to setup_s, which one workload run alone would not steady
VERIFY_RUNS = 3
PINNED_THREADS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class Invocation:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    spawned: float  # time.perf_counter() at spawn
    out_dir: Path


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("RANDATTRACT_OUT", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def invoke(argv: list[str], out_dir: Path, timeout: float) -> Invocation:
    """Run one child process to completion, with its rusage.

    The child is killed if it outlives ``timeout``; os.wait4 reaps it either
    way, so no process outlives this call.
    """
    with open(out_dir / "stdout.txt", "wb") as so, open(out_dir / "stderr.txt", "wb") as se:
        spawned = time.perf_counter()
        proc = subprocess.Popen(argv, env=child_env(), cwd=out_dir, stdout=so, stderr=se)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        spawned=spawned,
        out_dir=out_dir,
    )


def cli_argv(command: str, out_dir: Path, seed: int, config: Path | None) -> list[str]:
    argv = [sys.executable, "-m", "randattract.cli", command, "--out", str(out_dir)]
    argv += ["--seed", str(seed)]
    if config is not None:
        argv += ["--config", str(config)]
    return argv


def fresh_dir(tag: str) -> Path:
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT / "runs"))


def load_run_config(config: Path | None, seed: int):
    """The RunConfig the CLI will see, from the checkout's own loader."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from randattract.config import load_config

    return load_config(None if config is None else str(config), {("noise", "seed"): seed})


def machine_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"cache_L{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        **caches,
    }


def tail_summary(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with at least ten samples
    beyond it (left out below eleven samples), plus the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        q = statistics.quantiles(ordered, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    if n > 10:
        out[f"p{100.0 * (n - 10) / n:.0f}"] = ordered[n - 11]
    return out


class Run:
    """One benchmark invocation: attempts, failures and their reasons."""

    def __init__(self, workload: workloads.Workload, seeds: list[int], config: Path | None):
        self.workload = workload
        self.seeds = seeds
        self.config = config
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.started = time.perf_counter()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def verify(self) -> list[float]:
        """Run ``randattract verify`` VERIFY_RUNS times: their set-up times."""
        setups = []
        for _ in range(VERIFY_RUNS):
            out = fresh_dir("verify")
            inv = invoke(cli_argv("verify", out, self.seeds[0], self.config), out, self.remaining())
            problems = [] if inv.code == 0 else [f"exit code {inv.code}"]
            report = out / "verify" / "verify_report.json"
            manifest = out / "verify" / "manifest.json"
            if not problems:
                if not report.is_file() or not manifest.is_file():
                    problems.append("no verify_report.json or manifest.json")
                elif not json.loads(report.read_text()).get("all_passed"):
                    problems.append("verify_report.json says not all_passed")
            if not self.record("verify", problems):
                break
            setups.append(inv.wall_s - json.loads(manifest.read_text())["timings_seconds"]["total"])
            shutil.rmtree(out)
        return setups

    def check_outputs(self, inv: Invocation, seed: int) -> list[str]:
        if inv.code != 0:
            return [f"exit code {inv.code}"]
        try:
            got = workloads.key_outputs(self.workload.name, inv.out_dir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"missing or unreadable output: {exc!r}"]
        ref = workloads.load_reference(self.workload.name, seed)
        return workloads.compare(got, ref)

    def measure(self, steps: int) -> list[dict]:
        """Closed loop: one CLI run per seed, each started when the last ended."""
        samples = []
        for seed in self.seeds:
            out = fresh_dir(self.workload.name)
            argv = cli_argv(self.workload.command, out, seed, self.config)
            inv = invoke(argv, out, self.remaining())
            problems = self.check_outputs(inv, seed)
            manifest = out / self.workload.command / "manifest.json"
            if not problems and not manifest.is_file():
                problems = ["no manifest.json"]
            if self.record(self.workload.name, problems):
                total = json.loads(manifest.read_text())["timings_seconds"]["total"]
                samples.append(
                    {
                        "wall_s": inv.wall_s,
                        "setup_s": inv.wall_s - total,
                        "cpu_s": inv.cpu_s,
                        "peak_rss_mb": inv.peak_rss_mb,
                        "steps_per_s": steps / inv.wall_s,
                    }
                )
                shutil.rmtree(out)
            if problems or self.remaining() < 2.0 * inv.wall_s:
                break
        return samples

    def traced(self, run_tag: str) -> tuple[dict, float] | None:
        """One in-process traced CLI run: (per-layer metrics, traced wall)."""
        out = fresh_dir(f"{self.workload.name}-traced")
        trace_dir = OUT / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        summary_path = out / "trace_summary.json"
        argv = [
            sys.executable,
            str(HERE / "trace_run.py"),
            "--summary", str(summary_path),
            "--spans", str(trace_dir / f"{run_tag}.spans.csv"),
            "--run-id", run_tag,
            "--",
        ] + cli_argv(self.workload.command, out, self.seeds[0], self.config)[3:]
        inv = invoke(argv, out, self.remaining())
        problems = self.check_outputs(inv, self.seeds[0])
        if not problems and not summary_path.is_file():
            problems = ["no trace summary"]
        if not self.record(f"{self.workload.name} (traced)", problems):
            return None
        summary = json.loads(summary_path.read_text())
        shutil.copy(summary_path, trace_dir / f"{run_tag}.summary.json")
        shutil.rmtree(out)
        return summary["metrics"], summary["main_returned_perf_counter"] - inv.spawned


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "randattract" / "cli.py").is_file():
        print(f"no randattract sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.cli_seeds(args.seed, workload.repeats(args.seconds))
    if args.trace:  # one untraced run, for trace.overhead_s
        seeds = seeds[:1]
    config = None
    if workload.overrides:
        config = fresh_dir("config") / "run.cfg"
        config.write_text(workloads.config_text(workload.overrides))
    cfg = load_run_config(config, seeds[0])
    steps = workloads.step_count(workload.name, cfg)
    info = machine_info()
    print(f"machine: {json.dumps(info, sort_keys=True)}")
    print(
        f"workload {workload.name}: randattract {workload.command} --seed {seeds}"
        f" (benchmark seed {args.seed}), {steps} propagator steps per CLI run"
    )

    run = Run(workload, seeds, config)
    setups = run.verify()
    samples = run.measure(steps)

    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    detail = {
        name: tail_summary([s[name] for s in samples]) for name in e2e_units if samples
    }
    if samples:
        detail["setup_s"] = tail_summary(setups + [s["setup_s"] for s in samples])
    for name, unit in e2e_units.items():
        if name in detail:
            d = detail[name]
            extra = "".join(f"; {k}={v:.6g}" for k, v in d.items() if k not in ("n", "median"))
            print(f"{name}: {d['median']:.6g} {unit} (median of {d['n']}{extra})")
    print(f"failed_frac: {run.failed / max(run.attempted, 1):.6g} ({run.failed} of {run.attempted} runs)")

    if args.trace:
        tag = f"{workload.name}-seed{args.seed}-{uuid.uuid4().hex[:8]}"
        traced = run.traced(tag)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        metrics = {}
        if traced is not None and samples:
            layer, traced_wall = traced
            layer["trace.overhead_s"] = traced_wall - samples[0]["wall_s"]
            missing = sorted(set(units) - set(layer))
            if missing:
                run.problems.append(f"tracer did not report {missing}")
            expected = workloads.expected_counts(workload.name, cfg)
            for key, value in expected.items():
                if layer.get(key) != value:
                    run.problems.append(f"traced {key} = {layer.get(key)}, config-derived {value}")
            metrics = {k: {"value": layer[k], "unit": u} for k, u in units.items() if k in layer}
            for key, entry in metrics.items():
                print(f"{key}: {entry['value']:.6g} {entry['unit']}")
    else:
        metrics = {k: {"value": detail[k]["median"], "unit": u} for k, u in e2e_units.items() if k in detail}

    for problem in run.problems:
        print(f"FAILED {problem}")
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    OUT.joinpath("results", f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": workload.name,
                "benchmark_seed": args.seed,
                "cli_seeds": seeds,
                "machine": info,
                "samples": samples,
                "summary": detail,
                "attempted": run.attempted,
                "failed": run.failed,
                "problems": run.problems,
                "metrics": metrics,
            },
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    correct = not run.problems and bool(metrics)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
