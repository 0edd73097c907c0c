"""Round-trip tests for the plain-text matrix persistence."""

import io
import json

import numpy as np
import numpy.testing as npt
import pytest

from cacherec import (
    file_sha256,
    load_matrix,
    save_matrix,
    write_provenance,
)
from cacherec.serialize import open_text


class TestMatrixFormat:
    def test_header_and_triplets(self):
        buf = io.StringIO()
        save_matrix(buf, np.array([[0.0, 1.5], [0.25, 0.0]]))
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "# dims 2 2"
        assert lines[1] == "0 1 1.5"
        assert lines[2] == "1 0 0.25"

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(0)
        m = rng.normal(0.0, 1.0, (7, 5))
        m[rng.uniform(size=m.shape) < 0.4] = 0.0
        buf = io.StringIO()
        save_matrix(buf, m)
        buf.seek(0)
        back = load_matrix(buf)
        npt.assert_array_equal(back, m)

    def test_file_round_trip(self, tmp_path):
        m = np.array([[1 / 3, 0.0], [0.0, 0.1 + 0.2]])
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        npt.assert_array_equal(load_matrix(path), m)

    def test_zeros_skipped(self):
        buf = io.StringIO()
        save_matrix(buf, np.zeros((3, 3)))
        lines = buf.getvalue().strip().splitlines()
        assert lines == ["# dims 3 3"]

    def test_missing_header_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            load_matrix(io.StringIO("0 0 1.0\n"))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            load_matrix(io.StringIO("# dims 2 2\n5 0 1.0\n"))

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            load_matrix(io.StringIO("# dims 2 2\n1 2\n"))

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError, match="2-d"):
            save_matrix(io.StringIO(), np.arange(3.0))


class TestProvenance:
    def test_stable_json_with_sorted_keys(self, tmp_path):
        path = tmp_path / "prov.json"
        write_provenance(path, {"b": 2, "a": 1})
        text = path.read_text()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": 1, "b": 2}

    def test_sha256_matches_known_value(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"abc")
        assert file_sha256(path) == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )


class TestOpenText:
    def test_caller_stream_is_yielded_and_stays_open(self):
        buf = io.StringIO()
        with pytest.raises(RuntimeError):
            with open_text(buf, "w") as fh:
                assert fh is buf
                raise RuntimeError
        assert not buf.closed
        save_matrix(buf, np.eye(2))
        assert not buf.closed

    def test_path_is_closed_on_error(self, tmp_path):
        path = tmp_path / "m.txt"
        with pytest.raises(RuntimeError):
            with open_text(path, "w") as fh:
                fh.write("# dims 1 1\n0 0 0.5\n")
                raise RuntimeError
        assert fh.closed
        npt.assert_array_equal(load_matrix(path), [[0.5]])
