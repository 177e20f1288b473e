"""End-to-end benchmark of ethikit's train, evaluate and filter-hard commands.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints a readable report, then one JSON line with the result. See
perfbench/README.md for the workloads and metrics.

This entry point only pins BLAS to one thread, through the environment and
before numpy is first imported, for this process and every workload process
it starts. The encoder's matrices are small (d_model 64 or less). On a
2-core machine a second BLAS thread made both the pure-Python set-up and the
training phase slower and no steadier. The rest lives in harness.py.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

BLAS_THREADS = 1  # at most the core count on any machine
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "ethikit" / "cli.py").is_file():
        print(f"error: no ethikit source tree under {root / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    # Unwind on SIGTERM too, so the workload process in flight is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import harness  # imports numpy, so only after the pin

    return harness.main(argv, root)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
