"""The ``ethikit`` command: pin BLAS to one thread, then run ``ethikit.cli.main``.

Model gradients depend on the BLAS thread count: OpenBLAS at 1 and at 2
threads rounds some weight-gradient products differently, so a run replayed
on a machine with another core count could write another ``best.ckpt``. The
encoder's matrices are small, and on a 2-core machine one thread was also
the faster. So unless the user set one of ``BLAS_THREAD_VARS`` (to a
non-empty value), this sets all of them to 1 before numpy is first imported;
a user's setting is left as it is. This module imports no numpy, and
``ethikit.cli`` does not import it, so library callers keep their own
thread settings.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")


def main() -> int:
    if not any(os.environ.get(var) for var in BLAS_THREAD_VARS):
        for var in BLAS_THREAD_VARS:
            os.environ[var] = "1"
    from ethikit.cli import main as cli_main  # imports numpy, so only after the pin

    return cli_main()
