"""Regenerate the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py --source-commit <sha>

Runs each workload's CLI command once per CLI seed in ``spec.json`` from the
``src/`` of this checkout, one run per available core at a time, and stores the
key outputs (``workloads.key_outputs``) in ``reference/<workload>.json.gz``.  Run it only at a commit whose outputs
are trusted, and record that commit: a change that claims a speed-up must
match these files, not replace them.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import shutil
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def reference_outputs(name: str, seed: int) -> dict:
    wl = workloads.WORKLOADS[name]
    config = None
    if wl.overrides:
        config = run.fresh_dir("config") / "run.cfg"
        config.write_text(workloads.config_text(wl.overrides))
    out = run.fresh_dir(f"reference-{name}")
    inv = run.invoke(run.cli_argv(wl.command, out, seed, config), out, timeout=900.0)
    if inv.code != 0:
        raise RuntimeError(f"{name} seed {seed}: exit code {inv.code}, see {out}")
    outputs = workloads.key_outputs(name, out)
    shutil.rmtree(out)
    if config is not None:
        shutil.rmtree(config.parent)
    print(f"{name} seed {seed}: {inv.wall_s:.1f} s", flush=True)
    return outputs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source-commit", required=True)
    args = parser.parse_args()
    seeds = workloads.SPEC["cli_seeds"]
    jobs = [(name, seed) for name in workloads.WORKLOADS for seed in seeds]
    with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
        results = list(pool.map(lambda job: reference_outputs(*job), jobs))
    for name in workloads.WORKLOADS:
        payload = {
            "source_commit": args.source_commit,
            "workload": name,
            "command": workloads.WORKLOADS[name].command,
            "overrides": workloads.WORKLOADS[name].overrides,
            "outputs": {
                str(seed): outputs
                for (job_name, seed), outputs in zip(jobs, results)
                if job_name == name
            },
        }
        text = json.dumps(payload, sort_keys=True).encode()
        with gzip.GzipFile(workloads.reference_path(name), "wb", 9, mtime=0) as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
