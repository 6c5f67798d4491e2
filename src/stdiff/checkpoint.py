"""Flat binary parameter checkpoints (magic ``STDF1``).

Layout, all little-endian:
  magic ``STDF1`` (5 bytes), uint32 parameter count, then per parameter:
  uint32 name length, UTF-8 name, uint32 rank, uint32 dims, float64 data.
Round trips are bit-exact.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .autodiff import ParamArray
from .errors import FormatError

MAGIC = b"STDF1"


def save_params(params: list[ParamArray], path) -> None:
    names = [p.name for p in params]
    if len(set(names)) != len(names):
        raise FormatError("duplicate parameter name in checkpoint")
    chunks = [MAGIC, struct.pack("<I", len(params))]
    for p in params:
        name = p.name.encode("utf-8")
        chunks.append(struct.pack("<I", len(name)))
        chunks.append(name)
        chunks.append(struct.pack("<I", p.value.ndim))
        chunks.append(struct.pack(f"<{p.value.ndim}I", *p.value.shape))
        chunks.append(np.ascontiguousarray(p.value, dtype="<f8").tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_params(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    if data[:5] != MAGIC:
        raise FormatError(f"{path}: not a parameter checkpoint")
    pos = 5
    try:
        (count,) = struct.unpack_from("<I", data, pos)
        pos += 4
        out: dict[str, np.ndarray] = {}
        for _ in range(count):
            (nlen,) = struct.unpack_from("<I", data, pos)
            pos += 4
            name = data[pos:pos + nlen].decode("utf-8")
            pos += nlen
            (rank,) = struct.unpack_from("<I", data, pos)
            pos += 4
            dims = struct.unpack_from(f"<{rank}I", data, pos)
            pos += 4 * rank
            size = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(data, dtype="<f8", count=size, offset=pos).reshape(dims)
            pos += 8 * size
            if name in out:
                raise FormatError(f"{path}: duplicate parameter {name!r} in checkpoint")
            if not np.all(np.isfinite(arr)):
                raise FormatError(f"{path}: non-finite value in parameter {name!r}")
            out[name] = arr.astype(np.float64)
    except (struct.error, UnicodeDecodeError, ValueError) as exc:
        raise FormatError(f"{path}: truncated or corrupt checkpoint: {exc}") from None
    if pos != len(data):
        raise FormatError(f"{path}: trailing bytes in checkpoint")
    return out


def restore_params(params: list[ParamArray], path) -> None:
    """Load a checkpoint into existing parameters, matching by name and shape."""
    loaded = load_params(path)
    for p in params:
        if p.name not in loaded:
            raise FormatError(f"{path}: checkpoint missing parameter {p.name!r}")
        if loaded[p.name].shape != p.value.shape:
            raise FormatError(
                f"{path}: checkpoint shape mismatch for {p.name!r}: "
                f"{loaded[p.name].shape} vs {p.value.shape}"
            )
        p.value[...] = loaded[p.name]
    extra = set(loaded) - {p.name for p in params}
    if extra:
        raise FormatError(f"{path}: checkpoint has unknown parameters: {sorted(extra)}")
