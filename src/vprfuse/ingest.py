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
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError, _integer, _real, _real_array

_MAGIC = b"VPRD"
_VERSION = 1
_HEADER = struct.Struct("<4sIII")
# float32 bytes widened per block. The float64 block (twice this) stays in
# cache for its norms, and loading holds no float32 buffer larger than this.
_BLOCK_BYTES = 1 << 17


def _float64_rows(shape: tuple[int, int], block, nonfinite: str):
    """Read-only float64 rows of ``shape`` and their squared norms.

    ``block(start, stop)`` gives the source rows ``start:stop``; each block is
    widened, checked and reduced while it is in cache.  Raises
    ValidationError(``nonfinite``) if any value is not finite.
    """
    rows, sq_norms = np.empty(shape), np.empty(shape[0])
    step = max(1, _BLOCK_BYTES // (4 * shape[1]))
    for start in range(0, shape[0], step):
        out = rows[start : start + step]
        out[...] = block(start, start + len(out))
        norms = np.einsum("ij,ij->i", out, out, out=sq_norms[start : start + step])
        # A non-finite value makes its row's norm non-finite, so finite norms
        # clear their rows. Finite float64 input can overflow a norm too, so
        # only a non-finite norm sends the block to the element check.
        if not np.isfinite(norms).all() and not np.isfinite(out).all():
            raise ValidationError(nonfinite)
    rows.flags.writeable = sq_norms.flags.writeable = False
    return rows, sq_norms


@dataclass(frozen=True)
class ReferenceSet:
    """One descriptor per place, captured under a single appearance condition.

    ``descriptors`` is the set's own read-only, C-contiguous float64 copy of
    the input and ``sq_norms`` its squared row norms, both fixed at creation
    and computed block by block, as when a set is loaded from its file.
    """

    label: str
    descriptors: np.ndarray  # (n_places, dim) float64, read-only
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)  # (n_places,)

    def __post_init__(self):
        what = f"reference set {self.label!r}"
        src = _real_array(self.descriptors, what)
        if src.ndim != 2 or src.size == 0:
            raise ValidationError(
                f"{what} must be a non-empty 2-D array, got shape {src.shape}"
            )
        rows, sq_norms = _float64_rows(
            src.shape, lambda i, j: src[i:j], f"{what} contains non-finite values"
        )
        object.__setattr__(self, "descriptors", rows)
        object.__setattr__(self, "sq_norms", sq_norms)

    @property
    def n_places(self) -> int:
        return self.descriptors.shape[0]

    @property
    def dim(self) -> int:
        return self.descriptors.shape[1]


def _reference_sets(refs) -> tuple[int, int]:
    """The (places, dim) of ``refs``, a non-empty list or tuple of same-shape ReferenceSets."""
    if not isinstance(refs, (list, tuple)) or not refs:
        raise ValidationError("need a non-empty list or tuple of reference sets")
    for ref in refs:
        if not isinstance(ref, ReferenceSet):
            raise ValidationError(f"expected a reference set, got {type(ref).__name__}")
        if ref.descriptors.shape != refs[0].descriptors.shape:
            raise ValidationError(f"reference set {ref.label!r} has shape "
                                  f"{ref.descriptors.shape}, expected {refs[0].descriptors.shape}")
    return refs[0].descriptors.shape


@dataclass(frozen=True)
class GroundTruth:
    """True place index per query, plus the index tolerance for a correct match."""

    true_place: np.ndarray  # (n_queries,) int64, read-only
    tolerance: int

    def __post_init__(self):
        src = _real_array(self.true_place, "ground-truth place indices")
        if src.ndim != 1:
            raise ValidationError("ground truth must map each query to one place")
        # A fraction, NaN or value outside int64 does not survive the cast.
        with np.errstate(invalid="ignore"):
            arr = src.astype(np.int64)  # own copy
        if not np.array_equal(arr, src):
            raise ValidationError("ground-truth place indices must be int64 integers")
        object.__setattr__(self, "tolerance", _integer(self.tolerance, "ground-truth tolerance", 0))
        arr.flags.writeable = False
        object.__setattr__(self, "true_place", arr)

    @property
    def n_queries(self) -> int:
        return self.true_place.shape[0]


def _check_ground_truth(gt: GroundTruth, n_queries: int, n_places: int) -> None:
    """Raise ValidationError unless ``gt`` maps ``n_queries`` queries into ``n_places``."""
    if gt.n_queries != n_queries:
        raise ValidationError(f"ground truth covers {gt.n_queries} queries, dataset has {n_queries}")
    if gt.true_place.min() < 0 or gt.true_place.max() >= n_places:
        raise ValidationError("ground-truth place index out of range")


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

    Each reference set owns its float64 rows, and ``queries`` is the dataset's
    own read-only float64 copy of the query rows, built by the same block
    kernel.  At least one query is required.
    """

    refs: list[ReferenceSet]
    queries: np.ndarray  # (n_queries, dim) float64, read-only
    ground_truth: GroundTruth

    def __post_init__(self):
        n, d = _reference_sets(self.refs)
        if not isinstance(self.ground_truth, GroundTruth):
            raise ValidationError(f"expected a GroundTruth, got {type(self.ground_truth).__name__}")
        q = _real_array(self.queries, "queries")
        if q.ndim != 2 or q.shape[1] != d or q.shape[0] == 0:
            raise ValidationError(
                f"queries must be (n_queries, {d}), got shape {q.shape}"
            )
        queries, _ = _float64_rows(
            q.shape, lambda i, j: q[i:j], "non-finite query descriptor component"
        )
        _check_ground_truth(self.ground_truth, q.shape[0], n)
        object.__setattr__(self, "queries", queries)

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
    bit-exactly, other real dtypes are cast first.  Raises ValidationError
    for empty, ragged, string, object, complex or non-finite input
    (including values that overflow float32 on cast).
    """
    src = _real_array(descriptors, "descriptors")
    with np.errstate(over="ignore"):  # an overflow becomes inf, rejected below
        arr = src.astype(np.float32, copy=False)
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


def _open_payload(fh, path) -> tuple[tuple[int, int], Callable]:
    """Check the header and size of open descriptor file ``fh``.

    Returns its (rows, dim) and ``fill(buf)``, which reads the next
    ``buf.nbytes`` payload bytes into ``buf`` and returns it.
    """
    header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise ValidationError(f"{path}: file shorter than header")
    magic, version, n, dim = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise ValidationError(f"{path}: bad magic {magic!r}")
    if version != _VERSION:
        raise ValidationError(f"{path}: unsupported version {version}")
    if n == 0 or dim == 0:
        raise ValidationError(f"{path}: zero rows or zero dimension")
    expected = n * dim * 4
    # Compare the declared payload with the file size before reading, so
    # a corrupt header cannot demand a buffer larger than the file.
    stored = os.fstat(fh.fileno()).st_size - _HEADER.size
    if stored < expected:
        raise ValidationError(
            f"{path}: payload truncated ({stored} of {expected} bytes)"
        )
    if stored > expected:
        raise ValidationError(f"{path}: trailing bytes after payload")

    def fill(buf: np.ndarray) -> np.ndarray:
        # The file can shrink between fstat and the read; never use the
        # uninitialized tail.
        if fh.readinto(buf) < buf.nbytes:
            got = fh.tell() - _HEADER.size
            raise ValidationError(
                f"{path}: payload truncated while reading ({got} of {expected} bytes)"
            )
        return buf

    return (n, dim), fill


def read_descriptor_file(path: str | Path) -> np.ndarray:
    """Read a descriptor file written by write_descriptor_file.

    Returns the (n, dim) float32 array in stored order.  The payload is read
    once, straight into that array.
    """
    with open(path, "rb") as fh:
        shape, fill = _open_payload(fh, path)
        arr = fill(np.empty(shape, dtype="<f4"))
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: non-finite descriptor value")
    # A no-op on little-endian hosts; a byte-swapping copy elsewhere.
    return arr.astype(np.float32, copy=False)


def _read_rows(path: Path, dim: int, places: int | None = None):
    """Read-only float64 rows of descriptor file ``path`` and their squared norms.

    Its header must declare ``dim`` columns (and ``places`` rows, when given);
    the payload is then read one block-sized float32 buffer at a time.
    """
    with open(path, "rb") as fh:
        shape, fill = _open_payload(fh, path)
        if places is None and shape[1] != dim:
            raise ValidationError(f"{path}: dimension {shape[1]}, manifest says {dim}")
        if places is not None and shape != (places, dim):
            raise ValidationError(
                f"{path}: declares shape {shape}, manifest says {(places, dim)}"
            )
        return _float64_rows(
            shape,
            lambda i, j: fill(np.empty((j - i, dim), dtype="<f4")),
            f"{path}: non-finite descriptor value",
        )


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
        raise ValidationError(f"{path}: {key} must be an integer, got {value!r}")


_SCALAR_KEYS = frozenset({"places", "dim", "query", "gt_tolerance", "gt"})


def parse_manifest(path: str | Path) -> DatasetManifest:
    path = Path(path)
    base = path.parent
    scalars: dict[str, str] = {}
    refs: list[tuple[str, Path]] = []
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: {exc}")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "ref":
            label, sep, ref_path = value.partition(",")
            if not sep or not label.strip() or not ref_path.strip():
                raise ValidationError(
                    f"{path}:{lineno}: ref needs '<label>,<path>', got {value!r}"
                )
            refs.append((label.strip(), base / ref_path.strip()))
        elif key in _SCALAR_KEYS:
            if key in scalars:
                raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
            scalars[key] = value
        else:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
    missing = {"places", "dim", "query", "gt_tolerance"} - set(scalars)
    if missing:
        raise ValidationError(f"{path}: missing keys {sorted(missing)}")
    if not refs:
        raise ValidationError(f"{path}: needs at least one 'ref = <label>,<path>'")
    tolerance = _parse_int(path, "gt_tolerance", scalars["gt_tolerance"])
    if tolerance < 0:
        raise ValidationError(f"{path}: gt_tolerance must be non-negative")
    return DatasetManifest(
        places=_parse_int(path, "places", scalars["places"]),
        dim=_parse_int(path, "dim", scalars["dim"]),
        query_path=base / scalars["query"],
        gt_tolerance=tolerance,
        refs=refs,
        gt_path=(base / scalars["gt"]) if "gt" in scalars else None,
    )


def write_manifest(path: str | Path, manifest: DatasetManifest) -> None:
    """Write a manifest; stored paths are made relative to the manifest dir.

    Raises ValidationError for a label or path that parse_manifest would not
    read back unchanged: empty, padded with whitespace, holding ``\\n`` or
    ``\\r``, or, for a label, holding ``,``.
    """
    path = Path(path)
    base = path.parent

    def readable(text: str, what: str, forbidden: str = "\n\r") -> str:
        if not text or text != text.strip() or any(c in text for c in forbidden):
            raise ValidationError(f"{what} {text!r} would not read back from a manifest")
        return text

    def rel(p: Path) -> str:
        try:
            text = str(Path(p).relative_to(base))
        except ValueError:
            text = str(p)
        return readable(text, "path")

    refs = [(readable(label, "reference label", ",\n\r"), rel(p)) for label, p in manifest.refs]
    lines = [
        f"places = {manifest.places}",
        f"dim = {manifest.dim}",
        f"query = {rel(manifest.query_path)}",
        f"gt_tolerance = {manifest.gt_tolerance}",
    ]
    if manifest.gt_path is not None:
        lines.append(f"gt = {rel(manifest.gt_path)}")
    lines.extend(f"ref = {label},{p}" for label, p in refs)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(manifest_path: str | Path) -> Dataset:
    """Load and validate an entire dataset described by a manifest.

    Every referenced file must exist and agree with the declared place count
    and dimension.  The query file and the ground truth are read and checked
    against each other and the place count before the reference payloads,
    the bulk of the input, are streamed.  Without a ``gt`` entry the ground
    truth is the identity mapping (query ``j`` depicts place ``j``).
    """
    manifest = parse_manifest(manifest_path)
    for path in [p for _, p in manifest.refs] + [manifest.query_path, manifest.gt_path]:
        if path is not None and not Path(path).is_file():
            raise ValidationError(f"referenced file missing: {path}")
    queries, _ = _read_rows(manifest.query_path, manifest.dim)
    if manifest.gt_path is not None:
        ground_truth = read_ground_truth(manifest.gt_path, manifest.gt_tolerance)
        _check_ground_truth(ground_truth, len(queries), manifest.places)
    elif len(queries) > manifest.places:
        raise ValidationError(
            "identity ground truth needs n_queries <= places; "
            "add an explicit 'gt = <path>' entry"
        )
    else:
        ground_truth = GroundTruth(np.arange(len(queries)), manifest.gt_tolerance)
    refs = []
    for label, path in manifest.refs:
        rows, sq_norms = _read_rows(path, manifest.dim, manifest.places)
        refs.append(_assembled(ReferenceSet, label=label, descriptors=rows, sq_norms=sq_norms))
    return _assembled(Dataset, refs=refs, queries=queries, ground_truth=ground_truth)


def _assembled(cls, **fields):
    """A ``cls`` from fields that a load or kernel has already built and checked.

    Skips ``__init__``, whose checks and float64 copy would repeat the caller's.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


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
    place_spread = _real(place_spread, "place spread")
    condition_scale = _real(condition_scale, "condition scale")
    query_noise = _real(query_noise, "query noise")
    n_places = _integer(n_places, "place count", 1)
    n_conditions = _integer(n_conditions, "condition count", 1)
    dim = _integer(dim, "dimension", 1)
    seed = _integer(seed, "seed", 0)
    if mixture is None:
        weights = np.full(n_conditions, 1.0 / n_conditions)
    else:
        weights = _real_array(mixture, "mixture weights").astype(np.float64)
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
