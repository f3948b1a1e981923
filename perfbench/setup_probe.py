"""One set-up in a fresh process: import netcode and build one
workload's instance and code objects.  The caller times the process.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

if __name__ == "__main__":
    workloads.build(sys.argv[1], int(sys.argv[2]), work=None)
