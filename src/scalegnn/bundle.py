"""On-disk dataset bundles.

A bundle is a directory holding one little-endian binary file per array
plus a JSON manifest:

    manifest.json   name, counts, class/feature dims, split sizes,
                    symmetrize flag, schema_version, sha256 per file
    edges.bin       magic "SGNEDGE1", uint64 scalar count (2 x edges),
                    uint64 (src, dst) pairs interleaved
    features.bin    magic "SGNFEAT1", uint64 scalar count, float32 row-major
                    (num_nodes x feature_dim per the manifest)
    labels.bin      magic "SGNLABL1", uint64 node count, uint64 class ids
    splits.bin      magic "SGNSPLT1", uint64 node count, uint64 codes
                    (0 train, 1 val, 2 test)

Fixed widths and endianness make bundles portable across platforms without
a serialization library. load_bundle reads each file once, straight into
the array it becomes, and hashes it there; the edge pairs are freed once
the graph's CSR is built (int32 indices below 2^31 nodes and entries,
int64 from there; see scalegnn.graph), so a load peaks at about the
files' bytes plus half of that again. save_bundle writes each array
straight from memory and hashes it as it writes. Corrupt inputs surface
as distinct error types: BundleVersionError, BundleCountError,
BundleChecksumError, BundleFormatError.

Converter contract for real datasets (no downloaders here): prepare four
CSV files and call bundle_from_csv. edges.csv has one "src,dst" integer
pair per line; features.csv one comma-separated float row per node;
labels.csv one integer class per line; splits.csv one of train/val/test
per line. Rows are node ids 0..N-1 in order.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from scalegnn.graph import DataSplit, Graph, LabelVector, build_graph
from scalegnn.synth import SyntheticSpec, generate_sbm

SCHEMA_VERSION = 1

MAGIC = {
    "edges.bin": b"SGNEDGE1",
    "features.bin": b"SGNFEAT1",
    "labels.bin": b"SGNLABL1",
    "splits.bin": b"SGNSPLT1",
}
_SPLIT_CODES = {"train": 0, "val": 1, "test": 2}


class BundleError(Exception):
    """Base class for bundle load failures."""


class BundleVersionError(BundleError):
    pass


class BundleCountError(BundleError):
    pass


class BundleChecksumError(BundleError):
    pass


class BundleFormatError(BundleError):
    pass


def _write_array(directory: Path, name: str, arr: np.ndarray) -> str:
    """Write the array file `name`: magic, uint64 element count, then the
    elements little-endian, straight from arr when it is already contiguous
    and little-endian. Returns the file's sha256."""
    flat = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).reshape(-1)
    h = hashlib.sha256()
    with open(directory / name, "wb") as fh:
        for part in (MAGIC[name], flat.size.to_bytes(8, "little"), flat):
            h.update(part)
            fh.write(part)
    return h.hexdigest()


def _read_array(directory: Path, name: str, dtype: str) -> tuple[np.ndarray, str]:
    """(body of the array file `name` as a dtype array, the file's sha256).
    The header is checked first; the body is then read once, straight into
    its array, and hashed there."""
    with open(directory / name, "rb") as fh:
        head = fh.read(16)
        if len(head) < 16 or head[:8] != MAGIC[name]:
            raise BundleFormatError(f"{name}: bad or missing magic header")
        count = int.from_bytes(head[8:16], "little")
        size = os.fstat(fh.fileno()).st_size - 16
        width = np.dtype(dtype).itemsize
        if size % width:
            raise BundleCountError(f"{name}: body is not a whole number of "
                                   f"{width}-byte elements")
        if size // width != count:
            raise BundleCountError(f"{name}: header declares {count} elements, "
                                   f"file holds {size // width}")
        body = np.empty(count, dtype=dtype)
        if fh.readinto(body.view(np.uint8)) != size:
            raise BundleCountError(f"{name}: file shrank while it was read")
    h = hashlib.sha256(head)
    h.update(body.view(np.uint8))
    return body, h.hexdigest()


def save_bundle(directory, g: Graph, x: np.ndarray, labels: LabelVector,
                split: DataSplit, name: str = "dataset",
                symmetrize: bool = False) -> Path:
    """Write the four core files and the manifest; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pairs = np.empty((g.num_edges, 2), dtype=np.uint64)
    pairs[:, 0] = np.repeat(np.arange(g.num_nodes, dtype=np.uint64),
                            np.diff(g.row_offsets))
    pairs[:, 1] = g.col_indices
    codes = np.full(g.num_nodes, _SPLIT_CODES["test"], dtype=np.uint64)
    codes[split.train] = _SPLIT_CODES["train"]
    codes[split.val] = _SPLIT_CODES["val"]
    arrays = {"edges.bin": pairs, "features.bin": x.astype(np.float32, copy=False),
              "labels.bin": labels.labels.astype(np.uint64), "splits.bin": codes}
    checksums = {f: _write_array(directory, f, arr) for f, arr in arrays.items()}
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "num_nodes": g.num_nodes,
        "num_edges": g.num_edges,
        "num_classes": labels.num_classes,
        "feature_dim": int(x.shape[1]),
        "split_sizes": {"train": int(split.train.size),
                        "val": int(split.val.size),
                        "test": int(split.test.size)},
        "symmetrize": symmetrize,
        "checksums": checksums,
    }
    with open(directory / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return directory


def read_manifest(directory) -> dict:
    path = Path(directory) / "manifest.json"
    if not path.exists():
        raise BundleFormatError(f"no manifest.json under {directory}")
    manifest = json.loads(path.read_text())
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise BundleVersionError(
            f"bundle schema {manifest.get('schema_version')!r}, "
            f"this build reads {SCHEMA_VERSION}")
    return manifest


def load_bundle(directory):
    """Validate and load a bundle.

    Returns (Graph, float32 features, LabelVector, DataSplit). Checks run
    in order version -> counts -> checksums so each corruption mode maps to
    one error type: truncation is a count mismatch, a flipped payload byte
    is a checksum mismatch. Each file is read once, into the array it
    becomes (features and labels are views of it) and hashed there; the
    edge pairs go to build_graph, which frees them once the CSR is built,
    so the load peaks near the files' bytes plus the CSR.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    for fname in manifest["checksums"]:
        if not (directory / fname).exists():
            raise BundleFormatError(f"{fname}: listed in manifest, missing")
    n = int(manifest["num_nodes"])
    d = int(manifest["feature_dim"])
    sums = {}
    edges, sums["edges.bin"] = _read_array(directory, "edges.bin", "<u8")
    if edges.size != 2 * manifest["num_edges"]:
        raise BundleCountError(
            f"edges.bin: {edges.size // 2} pairs, manifest says "
            f"{manifest['num_edges']}")
    feats, sums["features.bin"] = _read_array(directory, "features.bin", "<f4")
    if feats.size != n * d:
        raise BundleCountError(f"features.bin: {feats.size} scalars, "
                               f"manifest implies {n * d}")
    lab, sums["labels.bin"] = _read_array(directory, "labels.bin", "<u8")
    if lab.size != n:
        raise BundleCountError(f"labels.bin: {lab.size} labels for {n} nodes")
    codes, sums["splits.bin"] = _read_array(directory, "splits.bin", "<u8")
    if codes.size != n:
        raise BundleCountError(f"splits.bin: {codes.size} codes for {n} nodes")
    for fname, want in manifest["checksums"].items():
        got = sums.get(fname) or hashlib.sha256((directory / fname).read_bytes()).hexdigest()
        if got != want:
            raise BundleChecksumError(f"{fname}: sha256 {got[:12]}.. does "
                                      f"not match manifest {want[:12]}..")
    # uint64 as int64 in place: an id of 2^63 or more reads negative, as a
    # cast would make it, and fails build_graph's endpoint check. The list
    # hands build_graph the only reference, so it can free the pairs.
    edges = [edges.view("<i8").reshape(-1, 2)]
    g = build_graph(edges.pop(), n, symmetrize=bool(manifest["symmetrize"]))
    labels = LabelVector(lab.view("<i8"), int(manifest["num_classes"]))
    split = DataSplit(np.flatnonzero(codes == _SPLIT_CODES["train"]),
                      np.flatnonzero(codes == _SPLIT_CODES["val"]),
                      np.flatnonzero(codes == _SPLIT_CODES["test"]))
    for part, key in (("train", "train"), ("val", "val"), ("test", "test")):
        if getattr(split, part).size != manifest["split_sizes"][key]:
            raise BundleCountError(f"split {part}: {getattr(split, part).size}"
                                   f" nodes, manifest says "
                                   f"{manifest['split_sizes'][key]}")
    return g, feats.reshape(n, d), labels, split


def write_synthetic_bundle(spec: SyntheticSpec, directory,
                           name: str | None = None) -> Path:
    g, x, labels, split = generate_sbm(spec)
    return save_bundle(directory, g, x, labels, split,
                       name=name or f"sbm-{spec.num_nodes}")


# ------------------------------------------------------------- converters


def bundle_from_csv(edge_csv, feature_csv, label_csv, split_csv, directory,
                    name: str = "converted", symmetrize: bool = True) -> Path:
    """Build a bundle from the documented four-CSV contract (see module
    docstring). symmetrize=True treats the edge list as undirected."""
    pairs = np.loadtxt(edge_csv, delimiter=",", dtype=np.int64, ndmin=2)
    if pairs.shape[1] != 2:
        raise BundleFormatError("edges csv must have exactly two columns")
    x = np.loadtxt(feature_csv, delimiter=",", dtype=np.float32, ndmin=2)
    lab = np.loadtxt(label_csv, dtype=np.int64, ndmin=1)
    roles = np.loadtxt(split_csv, dtype=str, ndmin=1)
    n = x.shape[0]
    if lab.size != n or roles.size != n:
        raise BundleCountError(f"feature rows {n}, labels {lab.size}, "
                               f"split rows {roles.size} disagree")
    bad = set(np.unique(roles)) - set(_SPLIT_CODES)
    if bad:
        raise BundleFormatError(f"unknown split roles {sorted(bad)}")
    g = build_graph(pairs, n, symmetrize=symmetrize)
    labels = LabelVector(lab, int(lab.max()) + 1)
    split = DataSplit(np.flatnonzero(roles == "train"),
                      np.flatnonzero(roles == "val"),
                      np.flatnonzero(roles == "test"))
    return save_bundle(directory, g, x, labels, split, name=name,
                       symmetrize=False)
