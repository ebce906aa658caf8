"""Test-session setup: one BLAS thread, set before numpy is imported.

The sampler runs its own worker threads, one per usable CPU by default;
BLAS threads on top of them compete for the same cores, which roughly
doubles the whole-corpus sampler gate's time on two cores.  A value the
caller exported is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
