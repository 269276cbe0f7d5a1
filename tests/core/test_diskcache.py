"""The trace cache's fast ``.npz`` reader agrees with ``np.load``.

:func:`repro.core.diskcache.read_npz` reads ``np.savez`` members straight
from their offsets instead of streaming them through :mod:`zipfile`, so
it must return exactly what ``np.load`` returns, and it must raise on
anything it cannot read that way so the caller quarantines the entry.
"""

import zipfile

import numpy as np
import pytest

from repro.core.diskcache import read_npz


@pytest.fixture
def arrays():
    rng = np.random.default_rng(5)
    return {
        "data": rng.standard_normal((12, 3001)),
        "clock_hz": np.float64(2.0e9),
        "inst_loop_count": np.int64(417),
        "predicted_frequency_hz": np.float64(80.0e3),
        "fortran": np.asfortranarray(rng.integers(0, 9, (5, 7), dtype=np.int32)),
    }


def test_matches_np_load(tmp_path, arrays):
    path = tmp_path / "entry.npz"
    np.savez(path, **arrays)
    read = read_npz(path)
    with np.load(path) as expected:
        assert sorted(read) == sorted(expected.files)
        for name in expected.files:
            assert read[name].dtype == expected[name].dtype
            assert read[name].shape == expected[name].shape
            assert np.array_equal(read[name], expected[name])


@pytest.mark.parametrize("keep", [0, 10, 31, 200, 5000, -30])
def test_truncated_file_raises(tmp_path, arrays, keep):
    path = tmp_path / "entry.npz"
    np.savez(path, **arrays)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(Exception):
        read_npz(path)


def test_compressed_member_raises(tmp_path, arrays):
    path = tmp_path / "entry.npz"
    np.savez_compressed(path, **arrays)
    with pytest.raises(ValueError, match="unexpected member"):
        read_npz(path)


def test_non_npy_member_raises(tmp_path):
    path = tmp_path / "entry.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("notes.txt", b"not an array")
    with pytest.raises(ValueError, match="unexpected member"):
        read_npz(path)


def test_member_shorter_than_its_array_raises(tmp_path):
    # The .npy header promises more elements than the member holds; the
    # bytes that follow belong to the next member and must not be read.
    small = tmp_path / "small.npy"
    np.save(small, np.arange(4.0))
    raw = small.read_bytes().replace(b"(4,)", b"(6,)")
    path = tmp_path / "entry.npz"
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("data.npy", raw)
        archive.writestr("tail.npy", b"\0" * 64)
    with pytest.raises(ValueError, match="wrong size"):
        read_npz(path)


def test_garbage_raises(tmp_path):
    path = tmp_path / "entry.npz"
    path.write_bytes(b"not a npz payload")
    with pytest.raises(zipfile.BadZipFile):
        read_npz(path)
