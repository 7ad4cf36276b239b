"""Time `import tempora` plus building one workload's inputs, in this process.

    python3 bench/setup_probe.py <workload> <seed>

Prints the seconds taken, then the interpreter-speed reference
(`reference.python_seconds`) timed right after in the same process.
bench/run.py starts it several times in fresh processes and scales each
set-up time by its reference.
"""
import sys
import time

start = time.perf_counter()
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
import tempora  # noqa: E402,F401
import inputs  # noqa: E402

inputs.build(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - start

import reference  # noqa: E402

print(elapsed, reference.python_seconds())
