"""Puts the checkout's ``src/`` on ``sys.path``; imported first by every script.

The benchmark always measures the source tree it sits in, never an
installed copy, and refuses to run where that tree is missing.
"""

import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parents[1]
SRC = ROOT / "src"
OUT_DIR = PERF_DIR / "out"

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(f"benchmarks/perf: no source tree at {SRC}; nothing to measure")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
