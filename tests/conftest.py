"""Test-session setup: one BLAS / OpenMP thread, as the benchmark runs.

pytest loads this file before any test module imports numpy, and OpenBLAS
reads its thread count once, when numpy first loads it. A value already set
in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
