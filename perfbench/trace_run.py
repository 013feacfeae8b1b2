"""Run one randattract CLI command in-process with the tracer installed.

    python3 perfbench/trace_run.py --summary S.json --spans S.csv -- <cli args>

The library is imported from ``src/`` of the checkout this file sits in.  The
summary JSON holds the per-layer metrics, the CLI exit code, and the
``time.perf_counter`` reading when ``main()`` returned (CLOCK_MONOTONIC, so the
parent process can compare it with its own spawn time).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--run-id", default="trace")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    from randattract import cli

    tracer = tracing.Tracer(args.run_id)
    tracing.install(tracer)
    code = cli.main(cli_args)
    main_returned = time.perf_counter()

    summary = {
        "exit_code": code,
        "main_returned_perf_counter": main_returned,
        "spans": len(tracer.rows) // 6,
        "metrics": tracing.summarize(tracer),
    }
    Path(args.summary).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    tracing.write_spans(tracer, Path(args.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
