import struct

import numpy as np
import pytest

from snfuse.errors import DataFormatError
from snfuse.training import CHECKPOINT_MAGIC, load_checkpoint


def _checkpoint_bytes(tensors: list[tuple[str, np.ndarray]]) -> bytes:
    out = bytearray(CHECKPOINT_MAGIC)
    for text in ("cfg-digest", "manifest-digest"):
        raw = text.encode("utf-8")
        out += struct.pack("<I", len(raw)) + raw
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype="<f8")
        out += struct.pack("<I", len(raw)) + raw
        out += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes()
    return bytes(out)


def test_load_checkpoint_round_trips_hand_built_file(tmp_path):
    path = tmp_path / "ok.snf"
    path.write_bytes(_checkpoint_bytes([("a", np.arange(3.0)), ("b", np.eye(2))]))
    ckpt = load_checkpoint(path)
    assert (ckpt.cfg_hash, ckpt.manifest_hash) == ("cfg-digest", "manifest-digest")
    np.testing.assert_array_equal(ckpt.tensors["a"], np.arange(3.0))
    np.testing.assert_array_equal(ckpt.tensors["b"], np.eye(2))


def test_load_checkpoint_rejects_duplicate_tensor_names(tmp_path):
    path = tmp_path / "dup.snf"
    path.write_bytes(_checkpoint_bytes([("w", np.zeros(2)), ("w", np.ones(2))]))
    with pytest.raises(DataFormatError, match="duplicate tensor 'w'"):
        load_checkpoint(path)
