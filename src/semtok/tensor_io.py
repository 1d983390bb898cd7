"""Bit-exact binary tensor files and checkpoint directories.

File layout (little-endian throughout): magic "TGT1", u32 rank, rank x u64
dims, u8 dtype tag (0 = float32, 1 = float64), then the raw row-major scalars.
A checkpoint is a directory of one .tgt file per named tensor plus a
manifest.txt of "config|tensor|note" lines.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MAGIC = b"TGT1"
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class TensorFormatError(ValueError):
    """The byte stream is not a valid TGT1 tensor."""


def write_tensor(path, array):
    array = np.asarray(array)
    if not array.flags["C_CONTIGUOUS"]:
        array = np.array(array, order="C")  # keeps rank-0 arrays rank 0
    if array.dtype not in _TAG_FOR:
        raise TensorFormatError(f"unsupported dtype {array.dtype}; use float32 or float64")
    tag = _TAG_FOR[array.dtype]
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", array.ndim))
        for dim in array.shape:
            fh.write(struct.pack("<Q", dim))
        fh.write(struct.pack("<B", tag))
        fh.write(array.astype(_DTYPE_TAGS[tag], copy=False).tobytes(order="C"))
    return path


def read_tensor(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise TensorFormatError(f"bad magic {raw[:4]!r} in {path}")
    try:
        (rank,) = struct.unpack_from("<I", raw, 4)
        dims = [int(d) for d in struct.unpack_from(f"<{rank}Q", raw, 8)]
        (tag,) = struct.unpack_from("<B", raw, 8 + 8 * rank)
    except struct.error as err:
        raise TensorFormatError(f"header cut short in {path} ({len(raw)} bytes)") from err
    offset = 9 + 8 * rank
    if tag not in _DTYPE_TAGS:
        raise TensorFormatError(f"unknown dtype tag {tag} in {path}")
    dtype = _DTYPE_TAGS[tag]
    count = int(np.prod(dims)) if dims else 1
    expected = offset + count * dtype.itemsize
    if len(raw) != expected:
        raise TensorFormatError(f"payload size mismatch in {path}: {len(raw)} != {expected}")
    flat = np.frombuffer(raw, dtype=dtype, count=count, offset=offset)
    return flat.reshape(dims).astype(dtype.newbyteorder("="), copy=True)


def save_checkpoint(directory, tensors, config=None, notes=()):
    """Write named arrays plus a manifest; iteration order is sorted so the
    directory contents are reproducible byte-for-byte."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for key in sorted(config or {}):
        lines.append(f"config {key} {config[key]}")
    for name in sorted(tensors):
        fname = name + ".tgt"
        write_tensor(directory / fname, tensors[name])
        lines.append(f"tensor {name} {fname}")
    for note in notes:
        lines.append(f"note {note}")
    (directory / "manifest.txt").write_text("".join(line + "\n" for line in lines))
    return directory


def read_manifest(directory):
    """Return (config, tensor files, notes) of a checkpoint's manifest.txt,
    without reading any tensor."""
    manifest = Path(directory) / "manifest.txt"
    config = {}
    files = {}
    notes = []
    for lineno, line in enumerate(manifest.read_text().splitlines(), 1):
        if not line.strip():
            continue
        kind, _, rest = line.partition(" ")
        key, _, value = rest.partition(" ")
        if kind == "config" and key:
            config[key] = value  # an empty value may have lost its trailing space
        elif kind == "tensor" and " " in rest:
            name, fname = rest.rsplit(" ", 1)
            files[name] = fname
        elif kind == "note":
            notes.append(rest)
        else:
            raise TensorFormatError(f"{manifest}:{lineno}: malformed manifest line {line!r}")
    return config, files, notes


def load_checkpoint(directory):
    """Return (tensors, config, notes) as written by save_checkpoint."""
    config, files, notes = read_manifest(directory)
    tensors = {name: read_tensor(Path(directory) / fname) for name, fname in files.items()}
    return tensors, config, notes
