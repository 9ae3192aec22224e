"""Dataset loading, persistence and synthetic generation.

Descriptor sets travel in a small custom binary container so that values
round-trip bit-exactly across machines and languages:

    magic  4 bytes  ``VPRD``
    u32    format version (currently 1), little-endian
    u32    row count (one row per place or per query)
    u32    dimension
    f32    row-major payload, little-endian, no padding or footer

A dataset is described by a line-oriented manifest (``key = value``; ``#``
starts a comment) with keys ``places``, ``dim``, ``query``, ``gt_tolerance``
and one ``ref = <label>,<path>`` line per reference set.  An optional
``gt = <path>`` names a ground-truth CSV (header ``query_index,place_index``,
zero-based); without it query ``j`` is assumed to depict place ``j``.
Relative paths are resolved against the manifest's directory.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DescriptorCorruptionError,
    DescriptorFormatError,
    ManifestError,
    ValidationError,
    checked_array,
)

_MAGIC = b"VPRD"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")


@dataclass(frozen=True)
class ReferenceSet:
    """One descriptor per place, captured under a single appearance condition.

    ``descriptors`` is the set's own read-only, C-contiguous float64 copy of
    the input and ``sq_norms`` its squared row norms, both fixed at creation.
    """

    label: str
    descriptors: np.ndarray  # (n_places, dim) float64, read-only
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)  # (n_places,)

    def __post_init__(self):
        # checked_array returns this float64 copy as is, without a second one.
        rows = np.array(self.descriptors, dtype=np.float64, order="C")
        rows = checked_array(rows, 2, f"reference set {self.label!r}")
        sq_norms = np.einsum("ij,ij->i", rows, rows)
        rows.flags.writeable = sq_norms.flags.writeable = False
        object.__setattr__(self, "descriptors", rows)
        object.__setattr__(self, "sq_norms", sq_norms)

    @property
    def n_places(self) -> int:
        return self.descriptors.shape[0]

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]


@dataclass(frozen=True)
class GroundTruth:
    """True place index per query, plus the index tolerance for a correct match."""

    true_place: np.ndarray  # (n_queries,) int64
    tolerance: int

    def __post_init__(self):
        arr = np.asarray(self.true_place, dtype=np.int64)
        if arr.ndim != 1:
            raise ValidationError("ground truth must map each query to one place")
        if self.tolerance < 0:
            raise ValidationError("ground-truth tolerance must be non-negative")
        object.__setattr__(self, "true_place", arr)

    @property
    def n_queries(self) -> int:
        return self.true_place.shape[0]


@dataclass
class DatasetManifest:
    places: int
    dim: int
    query_path: Path
    gt_tolerance: int
    refs: list[tuple[str, Path]]
    gt_path: Path | None = None


@dataclass(frozen=True)
class Dataset:
    """A fully loaded dataset: immutable after construction, safe to share.

    Each reference set owns its float64 rows; ``queries`` keeps its dtype.
    """

    refs: list[ReferenceSet]
    queries: np.ndarray  # (n_queries, dim)
    ground_truth: GroundTruth

    def __post_init__(self):
        if not self.refs:
            raise ValidationError("dataset needs at least one reference set")
        n, d = self.refs[0].n_places, self.refs[0].dim
        for ref in self.refs:
            if ref.n_places != n or ref.dim != d:
                raise ValidationError(
                    f"reference set {ref.label!r} has shape "
                    f"{(ref.n_places, ref.dim)}, expected {(n, d)}"
                )
        q = np.asarray(self.queries)
        if q.ndim != 2 or q.shape[1] != d:
            raise ValidationError(
                f"queries must be (n_queries, {d}), got shape {q.shape}"
            )
        if not np.all(np.isfinite(q)):
            raise ValidationError("non-finite query descriptor component")
        if self.ground_truth.n_queries != q.shape[0]:
            raise ValidationError(
                f"ground truth covers {self.ground_truth.n_queries} queries, "
                f"dataset has {q.shape[0]}"
            )
        if self.ground_truth.n_queries and (
            self.ground_truth.true_place.min() < 0
            or self.ground_truth.true_place.max() >= n
        ):
            raise ValidationError("ground-truth place index out of range")
        object.__setattr__(self, "queries", q)

    @property
    def n_places(self) -> int:
        return self.refs[0].n_places

    @property
    def n_refs(self) -> int:
        return len(self.refs)

    @property
    def dim(self) -> int:
        return self.refs[0].dim

    @property
    def labels(self) -> list[str]:
        return [r.label for r in self.refs]


def write_descriptor_file(path: str | Path, descriptors: np.ndarray) -> None:
    """Write descriptors (one row per item) to the binary container.

    Values are stored as little-endian float32; float32 input rounds-trips
    bit-exactly, other dtypes are cast first.  Raises ValidationError for
    empty, ragged or non-finite input (including values that overflow
    float32 on cast).
    """
    try:
        arr = np.asarray(descriptors, dtype=np.float32)
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"descriptor rows have mismatched dimensions: {exc}")
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2 or arr.size == 0:
        raise ValidationError(
            f"descriptors must be a non-empty 2-D array, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise ValidationError("descriptors contain non-finite values")
    n, dim = arr.shape
    payload = np.ascontiguousarray(arr, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, n, dim))
        fh.write(payload)


def read_descriptor_file(path: str | Path) -> np.ndarray:
    """Read a descriptor file written by write_descriptor_file.

    Returns the (n, dim) float32 array in stored order.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise DescriptorFormatError(f"{path}: file shorter than header")
        magic, version, n, dim = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise DescriptorFormatError(f"{path}: bad magic {magic!r}")
        if version != _VERSION:
            raise DescriptorFormatError(f"{path}: unsupported version {version}")
        if n == 0 or dim == 0:
            raise DescriptorFormatError(f"{path}: zero rows or zero dimension")
        expected = n * dim * 4
        # Compare the declared payload with the file size before reading, so
        # a corrupt header cannot demand a buffer larger than the file.
        stored = os.fstat(fh.fileno()).st_size - _HEADER.size
        if stored < expected:
            raise DescriptorCorruptionError(
                f"{path}: payload truncated ({stored} of {expected} bytes)"
            )
        if stored > expected:
            raise DescriptorCorruptionError(f"{path}: trailing bytes after payload")
        payload = fh.read(expected)
    arr = np.frombuffer(payload, dtype="<f4").reshape(n, dim)
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: non-finite descriptor value")
    return arr.astype(np.float32, copy=True)


def write_ground_truth(path: str | Path, ground_truth: GroundTruth) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_index", "place_index"])
        for q, p in enumerate(ground_truth.true_place):
            writer.writerow([q, int(p)])


def read_ground_truth(path: str | Path, tolerance: int) -> GroundTruth:
    """Read the ground-truth CSV; every query index must appear exactly once."""
    mapping: dict[int, int] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["query_index", "place_index"]:
                raise ValidationError(f"{path}: expected header 'query_index,place_index'")
            for row in reader:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != 2:
                    raise ValidationError(f"{path}: malformed row {row!r}")
                try:
                    q, p = int(row[0]), int(row[1])
                except ValueError:
                    raise ValidationError(
                        f"{path}:{reader.line_num}: non-integer cell in row {row!r}"
                    )
                if q in mapping:
                    raise ValidationError(f"{path}: duplicate query index {q}")
                if not 0 <= p < 2**63:  # stored as int64
                    raise ValidationError(f"{path}:{reader.line_num}: place index out of range")
                mapping[q] = p
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: {exc}")
    if not mapping:
        raise ValidationError(f"{path}: empty ground truth")
    # The indices are distinct, so they cover 0..n-1 exactly when min and max do.
    n = len(mapping)
    if min(mapping) != 0 or max(mapping) != n - 1:
        raise ValidationError(f"{path}: query indices must cover 0..{n - 1}")
    return GroundTruth(np.array([mapping[q] for q in range(n)]), tolerance)


def _parse_int(path: Path, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ManifestError(f"{path}: {key} must be an integer, got {value!r}")


_SCALAR_KEYS = frozenset({"places", "dim", "query", "gt_tolerance", "gt"})


def parse_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    base = path.parent
    scalars: dict[str, str] = {}
    refs: list[tuple[str, Path]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError(f"{path}: {exc}")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ManifestError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "ref":
            label, sep, ref_path = value.partition(",")
            if not sep or not label.strip() or not ref_path.strip():
                raise ManifestError(
                    f"{path}:{lineno}: ref needs '<label>,<path>', got {value!r}"
                )
            refs.append((label.strip(), base / ref_path.strip()))
        elif key in _SCALAR_KEYS:
            if key in scalars:
                raise ManifestError(f"{path}:{lineno}: duplicate key {key!r}")
            scalars[key] = value
        else:
            raise ManifestError(f"{path}:{lineno}: unknown key {key!r}")
    missing = {"places", "dim", "query", "gt_tolerance"} - set(scalars)
    if missing:
        raise ManifestError(f"{path}: missing keys {sorted(missing)}")
    if not refs:
        raise ManifestError(f"{path}: needs at least one 'ref = <label>,<path>'")
    tolerance = _parse_int(path, "gt_tolerance", scalars["gt_tolerance"])
    if tolerance < 0:
        raise ManifestError(f"{path}: gt_tolerance must be non-negative")
    return DatasetManifest(
        places=_parse_int(path, "places", scalars["places"]),
        dim=_parse_int(path, "dim", scalars["dim"]),
        query_path=base / scalars["query"],
        gt_tolerance=tolerance,
        refs=refs,
        gt_path=(base / scalars["gt"]) if "gt" in scalars else None,
    )


def write_manifest(path: str | Path, manifest: DatasetManifest) -> None:
    """Write a manifest; stored paths are made relative to the manifest dir."""
    path = Path(path)
    base = path.parent

    def rel(p: Path) -> str:
        try:
            return str(Path(p).relative_to(base))
        except ValueError:
            return str(p)

    lines = [
        f"places = {manifest.places}",
        f"dim = {manifest.dim}",
        f"query = {rel(manifest.query_path)}",
        f"gt_tolerance = {manifest.gt_tolerance}",
    ]
    if manifest.gt_path is not None:
        lines.append(f"gt = {rel(manifest.gt_path)}")
    lines.extend(f"ref = {label},{rel(p)}" for label, p in manifest.refs)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and validate an entire dataset described by a manifest.

    Every referenced file must exist and agree with the declared place count
    and dimension; inconsistencies are rejected before any computation runs.
    Without a ``gt`` entry the ground truth is the identity mapping
    (query ``j`` depicts place ``j``).
    """
    manifest = parse_manifest(manifest_path)
    refs = []
    for label, ref_path in manifest.refs:
        if not Path(ref_path).is_file():
            raise ManifestError(f"referenced file missing: {ref_path}")
        arr = read_descriptor_file(ref_path)
        if arr.shape != (manifest.places, manifest.dim):
            raise ManifestError(
                f"{ref_path}: declares shape {arr.shape}, manifest says "
                f"{(manifest.places, manifest.dim)}"
            )
        refs.append(ReferenceSet(label, arr))
    if not Path(manifest.query_path).is_file():
        raise ManifestError(f"referenced file missing: {manifest.query_path}")
    queries = read_descriptor_file(manifest.query_path)
    if queries.shape[1] != manifest.dim:
        raise ManifestError(
            f"{manifest.query_path}: dimension {queries.shape[1]}, "
            f"manifest says {manifest.dim}"
        )
    if manifest.gt_path is not None:
        if not Path(manifest.gt_path).is_file():
            raise ManifestError(f"referenced file missing: {manifest.gt_path}")
        ground_truth = read_ground_truth(manifest.gt_path, manifest.gt_tolerance)
    else:
        if queries.shape[0] > manifest.places:
            raise ManifestError(
                "identity ground truth needs n_queries <= places; "
                "add an explicit 'gt = <path>' entry"
            )
        ground_truth = GroundTruth(
            np.arange(queries.shape[0], dtype=np.int64), manifest.gt_tolerance
        )
    return Dataset(refs=refs, queries=queries, ground_truth=ground_truth)


@dataclass(frozen=True)
class SyntheticDataset(Dataset):
    """A generated dataset plus the condition each query was drawn from."""

    query_conditions: np.ndarray  # (n_queries,) int64


def generate_synthetic(
    seed: int = 0,
    n_places: int = 500,
    n_conditions: int = 3,
    dim: int = 24,
    place_spread: float = 1.0,
    condition_scale: float = 0.9,
    query_noise: float = 0.5,
    mixture: Sequence[float] | None = None,
    gt_tolerance: int = 0,
) -> SyntheticDataset:
    """Generate a seeded multi-condition dataset with one query per place.

    Each place has a latent vector drawn with spread ``place_spread``; each
    condition adds a fixed offset of scale ``condition_scale``; reference and
    query descriptors both carry independent noise of scale ``query_noise``.
    Query ``j`` depicts place ``j`` under a condition drawn from ``mixture``
    (uniform over all conditions when omitted).  Instances are comfortably
    solvable when place_spread exceeds condition_scale + query_noise; this is
    recommended but not enforced.  Output is deterministic per seed.
    """
    if n_places < 1 or n_conditions < 1:
        raise ValidationError("need at least one place and one condition")
    if dim < 1:
        raise ValidationError("dimension must be positive")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if mixture is None:
        weights = np.full(n_conditions, 1.0 / n_conditions)
    else:
        weights = np.asarray(mixture, dtype=np.float64)
        if weights.shape != (n_conditions,):
            raise ValidationError(
                f"mixture needs {n_conditions} weights, got {weights.shape}"
            )
        total = weights.sum()
        if not (np.all(weights >= 0) and 0 < total < np.inf):
            raise ValidationError("mixture weights must be finite, non-negative, sum > 0")
        weights = weights / total

    rng = np.random.default_rng(seed)
    # Huge or non-finite scales overflow quietly here; ReferenceSet then
    # rejects the non-finite descriptors with ValidationError.
    with np.errstate(over="ignore", invalid="ignore"):
        latent = place_spread * rng.standard_normal((n_places, dim))
        offsets = condition_scale * rng.standard_normal((n_conditions, dim))
        ref_rows = [
            (latent + offsets[u] + query_noise * rng.standard_normal((n_places, dim)))
            .astype(np.float32)
            for u in range(n_conditions)
        ]
        conditions = rng.choice(n_conditions, size=n_places, p=weights)
        noise = query_noise * rng.standard_normal((n_places, dim))
        queries = (latent + offsets[conditions] + noise).astype(np.float32)
    refs = [ReferenceSet(f"cond{u}", rows) for u, rows in enumerate(ref_rows)]
    ground_truth = GroundTruth(np.arange(n_places, dtype=np.int64), gt_tolerance)
    return SyntheticDataset(refs, queries, ground_truth, conditions.astype(np.int64))
