"""Fresh-interpreter work for the benchmark; run.py starts it, one at a time.

    python3 perfbench/child.py setup <workload> <seed>
        imports bhent.cli and builds the workload's inputs (a set-up sample)
    python3 perfbench/child.py cli <trace.json> <bhent arguments...>
        one traced CLI call: runs cli.main with the tracer installed and
        writes the spans to trace.json

bhent must be importable, e.g. with PYTHONPATH=src from the repository root.
"""

from __future__ import annotations

import json
import sys


def setup(workload: str, seed: int) -> None:
    import os

    import bhent.cli  # noqa: F401  (the import is what is timed)
    import inputs

    inputs.build(workload, seed, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def traced_cli(trace_path: str, argv: list[str]) -> int:
    import tracing
    from bhent import cli

    tracer = tracing.Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], int(sys.argv[3]))
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
