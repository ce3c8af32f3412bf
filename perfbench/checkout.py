"""Locate the checkout this benchmark lives in and import pairform from it.

The benchmark runs from the root of a source checkout, with no installed
package.  pairform must come from that checkout's ``src`` directory, never
from somewhere else on ``sys.path``; without it the benchmark stops with exit
code 2 before printing any result.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def _stop(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def require_pairform():
    """Put ``<checkout>/src`` first on sys.path and import pairform from it."""
    if not (SRC / "pairform" / "__init__.py").is_file():
        _stop(f"no pairform sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import pairform

    if Path(pairform.__file__).resolve().parent != SRC / "pairform":
        _stop(f"pairform imported from {pairform.__file__}, not from {SRC}")
    return pairform


def commit() -> str:
    """The checked-out commit, read from .git when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
    }
