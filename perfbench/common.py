"""Process set-up shared by the benchmark's entry scripts.

Imported first by ``run.py`` and ``probe.py``, before anything loads
NumPy: it pins the BLAS/OpenMP thread pools to one thread (inherited by
every child process through the environment) and puts the checkout's
``src`` directory on ``sys.path``.  Without that directory the
benchmark has nothing to measure, so :func:`prepare` exits non-zero.
"""

from __future__ import annotations

import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space for span dumps and the self-test; listed in the
#: repository's .gitignore
WORK = ROOT / ".perfbench"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def prepare() -> None:
    """Pin native thread pools to 1 and make ``repro`` importable."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"error: no repro package under {SRC}; run the benchmark from "
            "a checkout of the repository",
            file=sys.stderr,
        )
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
