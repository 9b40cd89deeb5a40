"""Whole-file writes that never leave a half-written file behind."""

from __future__ import annotations

import os
from pathlib import Path


def write_file(path: str | Path, data: bytes | str) -> None:
    """Write ``data`` (text is encoded as UTF-8) to ``path`` through a temp
    file in the same directory that is then renamed over ``path``, so
    readers see the old file or the new one, never a part of either. If
    the write fails, the temp file is removed and ``path`` is untouched."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
