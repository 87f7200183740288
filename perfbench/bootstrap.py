"""Locate the checkout's ``src/osscontrol`` and pin the process environment.

Stdlib only, so a caller can time ``import osscontrol`` right after
``prepare()``.  BLAS pools are pinned to one thread: the only threads in a
benchmark process are then the program's own ``--sweep`` pool.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench"


def prepare() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; refuse to run without it."""
    if not (SRC / "osscontrol" / "__init__.py").is_file():
        print(f"perfbench: no osscontrol sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Fail if ``osscontrol`` was imported from anywhere but this checkout."""
    if Path(module.__file__).resolve().parent != SRC / "osscontrol":
        print(f"perfbench: osscontrol was imported from {module.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
