"""Locate the program under test: the ``repro`` package in ``<checkout>/src``.

The benchmark runs from the root of a checkout and builds nothing: the
package runs from source.  In a directory that holds only the benchmark
(no ``src/repro``), :func:`use_checkout_source` raises, so the run exits
non-zero without printing a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` (idempotent)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program to benchmark: {SRC / 'repro'} is missing")
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
