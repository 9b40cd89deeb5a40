"""Blind face inpainting for verification: a from-scratch encoder-decoder
inpainter trained with a unified pixel + feature loss through a
landmark-driven spatial transformer, plus the synthetic data and
verification protocol needed to evaluate it end to end."""

import os as _os

# The only workers are the BLAS thread pools. One thread keeps runs
# deterministic and is fastest for the small matmuls used here; a value the
# user set is kept. This holds only when numpy has not loaded yet: a program
# that imports numpy before demesh keeps numpy's pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
