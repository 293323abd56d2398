"""Set-up probe: a fresh interpreter that does one workload's set-up.

``python3 perfbench/probe.py WORKLOAD [--tiny]`` imports what the
workload imports, builds its definitions and specs, prints ``ready``
and exits.  ``run.py`` times launch-to-``ready`` as ``setup_s``.

``python3 perfbench/probe.py --reference`` is the yardstick the probes
are timed against (see ``hostspeed.py``): it imports NumPy and the
standard-library modules the program leans on, and nothing of the
program, then prints ``ready``.
"""

from __future__ import annotations

import sys

import common


def main() -> int:
    common.prepare()
    if sys.argv[1] == "--reference":
        import argparse  # noqa: F401
        import json  # noqa: F401
        import sqlite3  # noqa: F401

        import numpy  # noqa: F401
    else:
        import workloads
        from tracer import Tracer

        wl = workloads.make(sys.argv[1], "--tiny" in sys.argv[2:], Tracer())
        wl.load()
        wl.build()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
