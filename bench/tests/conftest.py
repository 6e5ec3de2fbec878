"""Make the benchmark's modules and this checkout's ``repro`` importable.

These tests are the benchmark's own; they are not part of the tier-1
suite (``testpaths = ["tests"]``). Run them with
``python -m pytest bench/tests``.
"""

import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent

for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
