"""Blind face inpainting for verification: a from-scratch encoder-decoder
inpainter trained with a unified pixel + feature loss through a
landmark-driven spatial transformer, plus the synthetic data and
verification protocol needed to evaluate it end to end."""

import os as _os


def thread_cap() -> int:
    """The DEMESH_THREADS worker cap (default 1); anything but a positive
    integer raises ValueError."""
    raw = _os.environ.get("DEMESH_THREADS", "1")
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(
            f"DEMESH_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


# The only workers are the BLAS thread pools, and they must be capped before
# numpy first loads. The default of 1 keeps runs deterministic and is
# fastest for the small matmuls used here. An invalid cap is never copied;
# cli.main reports it.
try:
    _cap = str(thread_cap())
except ValueError:
    pass
else:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _cap)

__version__ = "0.1.0"
