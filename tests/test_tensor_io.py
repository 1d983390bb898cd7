"""TGT1 binary format: exact layout, bit-exact roundtrip, checkpoint dirs."""

import re
import struct

import numpy as np
import pytest

from semtok.tensor_io import (
    MAGIC,
    TensorFormatError,
    load_checkpoint,
    read_tensor,
    save_checkpoint,
    write_tensor,
)


def test_header_layout_is_bit_exact(tmp_path):
    arr = np.array([[1.5, -2.25], [0.0, 3.0]], dtype=np.float32)
    path = write_tensor(tmp_path / "t.tgt", arr)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC == b"TGT1"
    assert struct.unpack_from("<I", raw, 4)[0] == 2
    assert struct.unpack_from("<Q", raw, 8)[0] == 2
    assert struct.unpack_from("<Q", raw, 16)[0] == 2
    assert raw[24] == 0  # f32 tag
    assert raw[25:] == arr.astype("<f4").tobytes(order="C")


@pytest.mark.parametrize("dtype,tag", [(np.float32, 0), (np.float64, 1)])
def test_roundtrip_bit_exact(tmp_path, dtype, tag):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((3, 4, 5)).astype(dtype)
    path = write_tensor(tmp_path / "t.tgt", arr)
    assert path.read_bytes()[4 + 4 + 3 * 8] == tag
    back = read_tensor(path)
    assert back.dtype == dtype and back.shape == arr.shape
    assert np.array_equal(back.view(np.uint8), arr.view(np.uint8))  # bitwise


def test_scalar_rank_zero(tmp_path):
    arr = np.float64(7.25)
    back = read_tensor(write_tensor(tmp_path / "s.tgt", np.asarray(arr)))
    assert back.shape == () and back == 7.25


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.tgt"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError):
        read_tensor(p)


def test_truncated_payload_rejected(tmp_path):
    arr = np.zeros(10, dtype=np.float32)
    p = write_tensor(tmp_path / "t.tgt", arr)
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(TensorFormatError):
        read_tensor(p)


@pytest.mark.parametrize("keep", [6, 12, 20])
def test_header_cut_short_names_the_file(tmp_path, keep):
    # inside the rank field, the dims and the dtype tag of a rank-2 header
    p = write_tensor(tmp_path / "t.tgt", np.zeros((2, 3), dtype=np.float32))
    p.write_bytes(p.read_bytes()[:keep])
    with pytest.raises(TensorFormatError, match=re.escape(f"header cut short in {p}")):
        read_tensor(p)


def test_unsupported_dtype_rejected(tmp_path):
    with pytest.raises(TensorFormatError):
        write_tensor(tmp_path / "i.tgt", np.zeros(3, dtype=np.int32))


def test_checkpoint_roundtrip_and_reproducibility(tmp_path):
    rng = np.random.default_rng(1)
    tensors = {"b.weight": rng.standard_normal((2, 3)).astype(np.float32), "a.bias": np.zeros(3, dtype=np.float32)}
    config = {"layers": "4", "mode": "isolated"}
    d1 = save_checkpoint(tmp_path / "c1", tensors, config=config, notes=["hello"])
    d2 = save_checkpoint(tmp_path / "c2", tensors, config=config, notes=["hello"])
    # identical contents byte-for-byte across writes
    for f in sorted(p.name for p in d1.iterdir()):
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes()
    back, cfg, notes = load_checkpoint(d1)
    assert cfg == config and notes == ["hello"]
    assert set(back) == set(tensors)
    for name in tensors:
        assert np.array_equal(back[name], tensors[name])


def test_manifest_is_sorted_and_plain_text(tmp_path):
    d = save_checkpoint(
        tmp_path / "c",
        {"z": np.zeros(1, dtype=np.float32), "a": np.ones(1, dtype=np.float32)},
        config={"k": "v"},
    )
    lines = (d / "manifest.txt").read_text().splitlines()
    assert lines[0] == "config k v"
    assert lines[1].startswith("tensor a ") and lines[2].startswith("tensor z ")


def test_malformed_manifest_line_names_its_line(tmp_path):
    d = save_checkpoint(tmp_path / "c", {"a": np.zeros(1, dtype=np.float32)}, config={"k": "v"})
    manifest = d / "manifest.txt"
    manifest.write_text(manifest.read_text() + "tensor\n")
    with pytest.raises(TensorFormatError, match=r"manifest\.txt:3: malformed manifest line"):
        load_checkpoint(d)
