"""Bit-exact binary tensor files and checkpoint directories.

File layout (little-endian throughout): magic "TGT1", u32 rank, rank x u64
dims, u8 dtype tag (0 = float32, 1 = float64), then the raw row-major scalars.
A checkpoint is a directory of one .tgt file per named tensor plus a
manifest.txt of "config|tensor|note" lines.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"TGT1"
_DTYPE_TAGS = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_TAG_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


class TensorFormatError(ValueError):
    """The byte stream is not a valid TGT1 tensor."""


def write_tensor(path, array):
    """Write the header, then the array's own memory: no serialised copy is
    made unless the array is not C-contiguous or not little-endian."""
    array = np.asarray(array)
    if array.dtype not in _TAG_FOR:
        raise TensorFormatError(f"unsupported dtype {array.dtype}; use float32 or float64")
    tag = _TAG_FOR[array.dtype]
    array = np.require(array, _DTYPE_TAGS[tag], "C")  # keeps rank-0 arrays rank 0
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(struct.pack(f"<4sI{array.ndim}QB", MAGIC, array.ndim, *array.shape, tag))
        fh.write(array)
    return path


def read_tensor(path):
    """Read the header, check the payload size against it, then read the
    payload straight into a fresh array."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if head[:4] != MAGIC:
            raise TensorFormatError(f"bad magic {head[:4]!r} in {path}")
        rank = int.from_bytes(head[4:], "little")
        header_size = 9 + 8 * rank
        if len(head) < 8 or size < header_size:  # a corrupt rank must not size a read
            raise TensorFormatError(f"header cut short in {path} ({size} bytes)")
        head += fh.read(header_size - 8)
        dims = struct.unpack_from(f"<{rank}Q", head, 8)
        tag = head[-1]
        if tag not in _DTYPE_TAGS:
            raise TensorFormatError(f"unknown dtype tag {tag} in {path}")
        dtype = _DTYPE_TAGS[tag]
        expected = header_size + math.prod(dims) * dtype.itemsize
        if size != expected:
            raise TensorFormatError(f"payload size mismatch in {path}: {size} != {expected}")
        out = np.empty(dims, dtype)
        if fh.readinto(out) != out.nbytes:
            raise TensorFormatError(f"payload size mismatch in {path}: the file shrank while it was read")
    return out if dtype.isnative else out.astype(dtype.newbyteorder("="))


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
