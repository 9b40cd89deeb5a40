import os

# cap BLAS pools before numpy first loads anywhere in the test process;
# single-threaded runs are deterministic and fastest at these matrix sizes
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")
