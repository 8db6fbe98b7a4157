"""Bundle format: round trips, corruption detection, CSV converter."""

import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from scalegnn.bundle import (BundleChecksumError, BundleCountError,
                             BundleFormatError, BundleVersionError,
                             bundle_from_csv, load_bundle, read_manifest,
                             write_synthetic_bundle)
from scalegnn.synth import SyntheticSpec, generate_sbm

SPEC = SyntheticSpec(120, 3, 0.1, 0.01, feature_dim=6, separation=1.0, seed=2)


@pytest.fixture()
def bundle_dir(tmp_path):
    return write_synthetic_bundle(SPEC, tmp_path / "bundle")


class TestRoundTrip:
    def test_graph_features_labels_split_identical(self, bundle_dir):
        g, x, labels, split = generate_sbm(SPEC)
        g2, x2, lab2, sp2 = load_bundle(bundle_dir)
        assert g2.num_nodes == g.num_nodes
        assert np.array_equal(g.row_offsets, g2.row_offsets)
        assert np.array_equal(g.col_indices, g2.col_indices)
        assert np.array_equal(x.astype(np.float32), x2)
        assert np.array_equal(labels.labels, lab2.labels)
        assert lab2.num_classes == labels.num_classes
        for part in ("train", "val", "test"):
            assert np.array_equal(getattr(split, part), getattr(sp2, part))

    def test_same_seed_byte_identical(self, tmp_path):
        a = write_synthetic_bundle(SPEC, tmp_path / "a")
        b = write_synthetic_bundle(SPEC, tmp_path / "b")
        for f in ("manifest.json", "edges.bin", "features.bin", "labels.bin",
                  "splits.bin"):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_manifest_fields(self, bundle_dir):
        m = read_manifest(bundle_dir)
        g, x, labels, split = generate_sbm(SPEC)
        assert m["num_nodes"] == 120
        assert m["num_edges"] == g.num_edges
        assert m["num_classes"] == 3
        assert m["feature_dim"] == 6
        assert m["split_sizes"] == {"train": split.train.size,
                                    "val": split.val.size,
                                    "test": split.test.size}
        assert set(m["checksums"]) == {"edges.bin", "features.bin",
                                       "labels.bin", "splits.bin"}

    def test_headers_are_little_endian(self, bundle_dir):
        raw = (bundle_dir / "labels.bin").read_bytes()
        assert raw[:8] == b"SGNLABL1"
        (count,) = struct.unpack("<Q", raw[8:16])
        assert count == 120


class TestCorruption:
    def test_truncation_is_count_error(self, bundle_dir):
        path = bundle_dir / "features.bin"
        path.write_bytes(path.read_bytes()[:-4])  # one float32 short
        with pytest.raises(BundleCountError):
            load_bundle(bundle_dir)

    def test_ragged_truncation_is_count_error(self, bundle_dir):
        path = bundle_dir / "features.bin"
        path.write_bytes(path.read_bytes()[:-3])  # mid-scalar cut
        with pytest.raises(BundleCountError):
            load_bundle(bundle_dir)

    def test_flipped_byte_is_checksum_error(self, bundle_dir):
        path = bundle_dir / "labels.bin"
        blob = bytearray(path.read_bytes())
        blob[24] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(BundleChecksumError):
            load_bundle(bundle_dir)

    def test_schema_version_mismatch(self, bundle_dir):
        m = json.loads((bundle_dir / "manifest.json").read_text())
        m["schema_version"] = 999
        (bundle_dir / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(BundleVersionError):
            load_bundle(bundle_dir)

    def test_bad_magic(self, bundle_dir):
        path = bundle_dir / "edges.bin"
        blob = bytearray(path.read_bytes())
        blob[0] = 0x00
        path.write_bytes(bytes(blob))
        with pytest.raises(BundleFormatError):
            load_bundle(bundle_dir)

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BundleFormatError):
            load_bundle(tmp_path / "nowhere")

    def test_missing_listed_file(self, bundle_dir):
        (bundle_dir / "splits.bin").unlink()
        with pytest.raises(BundleFormatError):
            load_bundle(bundle_dir)


    def test_id_past_int64_is_an_endpoint_error(self, bundle_dir):
        # 2^63 reads as a negative int64, as a cast would make it
        path = bundle_dir / "edges.bin"
        blob = bytearray(path.read_bytes())
        blob[16:24] = struct.pack("<Q", 2**63)
        path.write_bytes(bytes(blob))
        m = json.loads((bundle_dir / "manifest.json").read_text())
        m["checksums"]["edges.bin"] = hashlib.sha256(blob).hexdigest()
        (bundle_dir / "manifest.json").write_text(json.dumps(m))
        with pytest.raises(ValueError, match="outside"):
            load_bundle(bundle_dir)


def test_load_peak_within_twice_the_file_bytes(tmp_path):
    out = write_synthetic_bundle(
        SyntheticSpec(20000, 5, 0.005, 0.0005, feature_dim=16), tmp_path / "b")
    file_bytes = sum(f.stat().st_size for f in out.glob("*.bin"))
    tracemalloc.start()
    try:
        g, *_ = load_bundle(out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.col_indices.dtype == np.int32
    assert peak <= 2 * file_bytes, f"peak {peak / file_bytes:.2f}x the file bytes"


class TestCsvConverter:
    def write_inputs(self, d, edges="0,1\n1,2\n"):
        (d / "e.csv").write_text(edges)
        (d / "f.csv").write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        (d / "l.csv").write_text("0\n1\n1\n")
        (d / "s.csv").write_text("train\nval\ntest\n")

    def test_convert_and_load(self, tmp_path):
        self.write_inputs(tmp_path)
        out = bundle_from_csv(tmp_path / "e.csv", tmp_path / "f.csv",
                              tmp_path / "l.csv", tmp_path / "s.csv",
                              tmp_path / "bundle", name="mini")
        g, x, labels, split = load_bundle(out)
        assert g.num_nodes == 3
        assert g.num_edges == 4  # symmetrized 0-1, 1-2
        assert labels.num_classes == 2
        assert split.train.tolist() == [0]
        assert split.val.tolist() == [1]
        assert split.test.tolist() == [2]
        assert read_manifest(out)["name"] == "mini"

    def test_row_count_mismatch(self, tmp_path):
        self.write_inputs(tmp_path)
        (tmp_path / "l.csv").write_text("0\n1\n")
        with pytest.raises(BundleCountError):
            bundle_from_csv(tmp_path / "e.csv", tmp_path / "f.csv",
                            tmp_path / "l.csv", tmp_path / "s.csv",
                            tmp_path / "bundle")

    def test_unknown_split_role(self, tmp_path):
        self.write_inputs(tmp_path)
        (tmp_path / "s.csv").write_text("train\nvalid\ntest\n")
        with pytest.raises(BundleFormatError):
            bundle_from_csv(tmp_path / "e.csv", tmp_path / "f.csv",
                            tmp_path / "l.csv", tmp_path / "s.csv",
                            tmp_path / "bundle")

    def test_edge_csv_needs_two_columns(self, tmp_path):
        self.write_inputs(tmp_path, edges="0,1,5\n1,2,7\n")
        with pytest.raises(BundleFormatError):
            bundle_from_csv(tmp_path / "e.csv", tmp_path / "f.csv",
                            tmp_path / "l.csv", tmp_path / "s.csv",
                            tmp_path / "bundle")
