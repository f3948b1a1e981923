"""Run one netcode CLI command with the tracer installed.

Usage: python3 perfbench/cli_child.py TRACE_FILE COMMAND [ARGS...]

Standard output and the exit code are the command's own.  At the end,
TRACE_FILE receives the recorded spans and counters as JSON.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import netcode.cli  # noqa: E402  (found through PYTHONPATH)
from tracing import Tracer  # noqa: E402


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        rc = netcode.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
