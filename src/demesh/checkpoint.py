"""Binary checkpoint files for network parameters.

Layout:

    magic "DMSH" | u32 version | u32 arch length | arch text (utf-8)
    u32 record count
    per record: u32 name length | name (utf-8) | u8 frozen flag
                | u32 ndim | u32 extents... | little-endian f64 data

The arch text is ``configio.format_fields(spec, kind=...)``, the codec the
experiment config files use, and is enough to rebuild the network, each
parameter taking its record by name. Optimizer state is deliberately not
stored.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from . import atomic, configio
from .layers import Param

MAGIC = b"DMSH"
VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is malformed or does not match expectations."""


def save_checkpoint(path: str | Path, arch_text: str, params: list[Param]) -> None:
    chunks = [MAGIC, struct.pack("<I", VERSION)]
    arch = arch_text.encode("utf-8")
    chunks.append(struct.pack("<I", len(arch)))
    chunks.append(arch)
    chunks.append(struct.pack("<I", len(params)))
    for p in params:
        name = p.name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<B", 1 if p.frozen else 0))
        chunks.append(struct.pack("<I", p.value.ndim))
        chunks.append(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
        chunks.append(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    atomic.write_file(path, b"".join(chunks))


def load_checkpoint(path: str | Path) -> tuple[str, list[tuple[str, bool, np.ndarray]]]:
    """Read a checkpoint; returns (arch_text, [(name, frozen, value), ...]).

    Every length and count is checked against the bytes that remain before
    anything of that size is read or allocated, so a truncated or corrupted
    file raises ``CheckpointError``, as does a parameter holding a NaN or
    an infinity. Each record is read straight into its own array, so a
    load holds one copy of the file's data."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        if f.read(4) != MAGIC:
            raise CheckpointError(f"{path}: bad magic bytes (not a checkpoint)")

        def truncated(what: str, off: int, need: int, left: int):
            return CheckpointError(f"{path}: truncated {what} at byte {off}: "
                                   f"needs {need} bytes, {left} left")

        def check_left(need: int, what: str) -> None:
            off = f.tell()
            if need > size - off:
                raise truncated(what, off, need, size - off)

        def fill(buf, what: str):
            """Read ``buf``'s bytes, a count ``check_left`` has passed."""
            off, need = f.tell(), memoryview(buf).nbytes
            got = f.readinto(buf)
            if got != need:  # the file shrank after it was opened
                raise truncated(what, off, need, got)
            return buf

        def take_bytes(need: int, what: str) -> bytearray:
            check_left(need, what)
            return fill(bytearray(need), what)

        def take(fmt: str, what: str):
            return struct.unpack(fmt, take_bytes(struct.calcsize(fmt), what))

        def take_text(need: int, what: str) -> str:
            try:
                return take_bytes(need, what).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(
                    f"{path}: {what} is not utf-8 ({exc.reason})") from None

        (version,) = take("<I", "version")
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        (arch_len,) = take("<I", "arch length")
        arch_text = take_text(arch_len, "arch text")
        (count,) = take("<I", "record count")
        records = []
        for _ in range(count):
            (name_len,) = take("<I", "name length")
            name = take_text(name_len, "parameter name")
            (frozen,) = take("<B", f"'{name}' frozen flag")
            (ndim,) = take("<I", f"'{name}' ndim")
            shape = take(f"<{ndim}I", f"'{name}' shape")
            check_left(8 * math.prod(shape), f"'{name}' data")
            data = fill(np.empty(shape, dtype="<f8"), f"'{name}' data")
            if not np.isfinite(data).all():
                raise CheckpointError(
                    f"{path}: parameter '{name}' holds non-finite values")
            records.append((name, bool(frozen), data.astype(np.float64, copy=False)))
        if f.tell() != size:
            raise CheckpointError(f"{path}: {size - f.tell()} trailing bytes")
    return arch_text, records


def load_net(path: str | Path, cls, kind: str, build):
    """Read a checkpoint of a ``kind`` net whose arch text is
    ``format_fields(spec, kind=kind)`` and return ``build(spec, init)``.

    ``init`` is the layers' parameter source (see ``layers``) over the
    file's records: each parameter adopts its record's array, not a copy,
    with its saved frozen flag, so a frozen one holds no gradient or Adam
    state. Each record's shape is compared with the one the spec asks for
    before anything of that shape is allocated, so a load holds little more
    than the file whatever its arch text says. A record missing, misshapen
    or left over raises ``CheckpointError``, as does every fault of the
    arch text, a key missing or out of order included, and every spec that
    fails its own ``validate``."""
    arch_text, records = load_checkpoint(path)
    try:
        kv = configio.parse_kv(arch_text)
        found = kv.pop("kind", None)
        if found != kind:
            raise configio.ConfigError(f"names a {found!r} net, expected {kind}")
        spec = configio.parse_fields(cls, kv)
        if configio.format_fields(spec, kind=kind) != arch_text:
            raise configio.ConfigError(
                f"not the text a {kind} spec writes (a key is missing, "
                f"reordered or not in canonical form)")
        spec.validate()
    except ValueError as exc:  # ConfigError, or the spec's own validation
        raise CheckpointError(f"{path}: bad arch text: {exc}") from None
    by_name = {name: (frozen, value) for name, frozen, value in records}

    def init(name: str, shape: tuple[int, ...]) -> Param:
        if name not in by_name:
            raise CheckpointError(f"{path}: missing parameter '{name}'")
        frozen, value = by_name.pop(name)
        if value.shape != shape:
            raise CheckpointError(
                f"{path}: parameter '{name}' has shape {value.shape}, "
                f"expected {shape}")
        return Param(name, value, frozen)

    net = build(spec, init)
    if by_name:
        raise CheckpointError(
            f"{path}: unexpected parameters {sorted(by_name)}")
    return net
