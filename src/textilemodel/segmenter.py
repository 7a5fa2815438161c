"""Per-slice yarn cross-section detection on label slices.

The detector walks every labeled region of a 2D slice, traces its
boundary at pixel resolution, and condenses it to ten equal-arc
keypoints plus their centroid.  It is an oracle: it reads the label
image directly and stamps each detection with the true label, which
gives downstream stages a drop-in stand-in for a learned detector.
Degradation (dropout and keypoint jitter) turns oracle detections into
realistic imperfect ones.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy import ndimage

from .errors import ConfigError, DegenerateGeometryError
from .geometry import RING_POINTS, _freeze, canonical_indices, resample_arclength
from .voxelizer import AXIS_YZ, SLICE_AXES

log = logging.getLogger(__name__)

DEFAULT_MIN_AREA = 12

# Marching squares (Lorensen & Cline 1987) on a cell with corners a b / d c:
# the boundary segments of each case code as (from, to) cell edges, with
# edges 0: ab, 1: bc, 2: cd, 3: da.  All segments share one orientation,
# so each edge midpoint on a boundary starts exactly one of them.  The
# saddles 5 and 10 join their foreground corners: regions stay 8-connected.
_SEGMENTS_BY_CASE = {
    1: [(2, 3)], 2: [(1, 2)], 3: [(1, 3)], 4: [(0, 1)], 5: [(0, 3), (2, 1)],
    6: [(0, 2)], 7: [(0, 3)], 8: [(3, 0)], 9: [(2, 0)], 10: [(1, 0), (3, 2)],
    11: [(1, 0)], 12: [(3, 1)], 13: [(2, 1)], 14: [(3, 2)],
}
_CASE_SEGMENTS = np.full((16, 2, 2), -1)  # unused slots hold -1
for _code, _segments in _SEGMENTS_BY_CASE.items():
    _CASE_SEGMENTS[_code, : len(_segments)] = _segments
# Midpoint of each cell edge relative to corner a, in doubled coordinates.
_EDGE_MIDPOINTS = np.array([[0, 1], [1, 2], [2, 1], [1, 0]])


_CONTOUR_FAULT = f"detection contour must be a finite ({RING_POINTS}, 2) array"
_CENTER_FAULT = "detection center must be a (2,) array"


@dataclass(frozen=True, eq=False)
class DetectionSet:
    """The detections of every slice of one axis, as read-only row arrays.

    Row k is one detection on slice ``slice_index[k]``: ``contours[k]``
    holds its RING_POINTS keypoints in slice pixel coordinates (image
    axis 0, image axis 1), ``centers[k]`` their centroid,
    ``confidence[k]`` a score in [0, 1] and ``true_label[k]`` the
    generating yarn id, or -1 when unknown.  Rows are sorted by slice
    and keep the detector's order (label, then component) within one.
    Construction checks every row in one pass; the first faulty row
    raises its error.
    """

    axis: str
    n_slices: int
    voxel_size: float
    origin: np.ndarray
    slice_index: np.ndarray
    contours: np.ndarray
    centers: np.ndarray
    confidence: np.ndarray
    true_label: np.ndarray

    def __post_init__(self):
        if self.axis not in SLICE_AXES:
            raise ConfigError(f"axis must be one of {SLICE_AXES}")
        slice_index = np.array(self.slice_index, dtype=np.int64)
        n = len(slice_index)
        contours = np.array(self.contours, dtype=float)
        if contours.shape != (n, RING_POINTS, 2):
            raise ConfigError(_CONTOUR_FAULT)
        centers = np.array(self.centers, dtype=float)
        confidence = np.array(self.confidence, dtype=float)
        true_label = np.array(self.true_label, dtype=np.int64)
        if centers.shape != (n, 2) or confidence.shape != (n,) or true_label.shape != (n,):
            raise ConfigError("every detection needs one center, confidence and true_label")
        faults = np.column_stack([
            ~np.isfinite(contours).all(axis=(1, 2)),
            slice_index < 0,
            ~((confidence >= 0.0) & (confidence <= 1.0)),
            slice_index >= self.n_slices,
        ])
        bad = np.flatnonzero(faults.any(axis=1))
        if bad.size:
            k = bad[0]
            messages = (
                _CONTOUR_FAULT,
                "slice_index must be non-negative",
                "confidence must lie in [0, 1]",
                f"slice_index {slice_index[k]} outside dataset",
            )
            raise ConfigError(messages[faults[k].argmax()])
        if np.any(np.diff(slice_index) < 0):
            raise ConfigError("detections must be sorted by slice")
        if self.n_slices < 0:
            raise ConfigError("n_slices must be non-negative")
        object.__setattr__(self, "n_slices", int(self.n_slices))
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=float).reshape(3))
        rows = (slice_index, contours, centers, confidence, true_label)
        for name, arr in zip(_ROW_FIELDS, rows):
            object.__setattr__(self, name, _freeze(arr))

    def __len__(self) -> int:
        return len(self.slice_index)

    def count(self) -> int:
        return len(self)

    def take(self, rows) -> DetectionSet:
        """The set of the rows ``rows`` (indices or a mask) only."""
        return replace(self, **{name: getattr(self, name)[rows] for name in _ROW_FIELDS})


_ROW_FIELDS = ("slice_index", "contours", "centers", "confidence", "true_label")


def trace_boundary(mask: np.ndarray) -> np.ndarray:
    """Trace the closed boundary of a filled 8-connected region.

    Marching squares over the binary mask: the contour passes through
    the midpoints of pixel-grid edges that separate foreground from
    background, giving sub-pixel boundary coordinates whose enclosed
    area tracks the pixel count.  Returns (n, 2) float coordinates in
    pixel units; the region must be a single component without holes,
    otherwise DegenerateGeometryError is raised.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2 or not mask.any():
        raise DegenerateGeometryError("mask must be a non-empty 2D region")
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    # Case code of each cell with corners a b / d c, a as the high bit.
    code = padded[:-1, :-1] << 3 | padded[:-1, 1:] << 2 | padded[1:, 1:] << 1 | padded[1:, :-1]
    cells = np.argwhere((code > 0) & (code < 15))
    edges = _CASE_SEGMENTS[code[cells[:, 0], cells[:, 1]]]
    # Doubled coordinates keep all edge midpoints integral: padded
    # pixel (i, j) center sits at doubled (2(i-1), 2(j-1)).
    ends = (2 * cells[:, None, None] + _EDGE_MIDPOINTS[edges])[edges[:, :, 0] >= 0]
    keys = ends[..., 0] * (2 * padded.shape[1]) + ends[..., 1]
    # Every midpoint starts exactly one segment, so a search among the
    # sorted start keys finds each segment's successor.  The walk starts
    # at the smallest doubled coordinate.
    order = np.argsort(keys[:, 0])
    nxt = np.searchsorted(keys[order, 0], keys[order, 1]).tolist()
    loop = [0]
    while (k := nxt[loop[-1]]) != 0 and len(loop) < len(nxt):
        loop.append(k)
    if k != 0 or len(loop) != len(nxt):
        raise DegenerateGeometryError("mask boundary is not a single closed loop")
    return ends[order[loop], 0] / 2.0 - 1.0  # back to pixel coordinates


def _keypoints_from_dense(dense: np.ndarray) -> np.ndarray:
    order = canonical_indices(dense)
    dense = dense[order]
    dense3 = np.column_stack([dense, np.zeros(len(dense))])
    return resample_arclength(dense3, RING_POINTS, closed=True)[:, :2]


def detect_sections(
    image: np.ndarray,
    axis: str = "xz",
    slice_index: int = 0,
    min_area: int = DEFAULT_MIN_AREA,
) -> tuple[np.ndarray, np.ndarray]:
    """Detect every labeled yarn section in one label slice.

    Connected components (8-connectivity) are evaluated per label;
    components smaller than ``min_area`` pixels are skipped and logged.
    Returns the keypoint rings (k, RING_POINTS, 2) and their labels
    (k,), ordered by label, then component.
    """
    image = np.asarray(image)
    rings, labels = [], []
    if image.ndim != 2:
        raise ConfigError("slice image must be 2D")
    eight = np.ones((3, 3), dtype=bool)
    windows = ndimage.find_objects(image.astype(np.int32))
    for lab0, window in enumerate(windows):
        if window is None:
            continue
        lab = lab0 + 1
        sub = image[window] == lab
        comps, n_comp = ndimage.label(sub, structure=eight)
        for comp_id in range(1, n_comp + 1):
            comp = comps == comp_id
            area_px = int(comp.sum())
            if area_px < min_area:
                log.info(
                    "skip: axis=%s slice=%d label=%d component below min area (%d < %d px)",
                    axis, slice_index, lab, area_px, min_area,
                )
                continue
            filled = ndimage.binary_fill_holes(comp)
            dense = trace_boundary(filled)
            dense += [window[0].start, window[1].start]
            rings.append(_keypoints_from_dense(dense))
            labels.append(lab)
    return np.array(rings).reshape(-1, RING_POINTS, 2), np.array(labels, dtype=np.int64)


def detect_batch(volume, axis: str, min_area: int = DEFAULT_MIN_AREA) -> DetectionSet:
    """Run the oracle detector over every slice of a label volume.

    Slice i of ``yz`` is the image ``data[i, :, :]`` and slice j of
    ``xz`` is ``data[:, j, :]``; both are views of the volume.
    """
    if axis not in SLICE_AXES:
        raise ConfigError(f"axis must be one of {SLICE_AXES}")
    images = volume.data if axis == AXIS_YZ else np.moveaxis(volume.data, 1, 0)
    found = [
        detect_sections(img, axis=axis, slice_index=i, min_area=min_area)
        for i, img in enumerate(images)
    ]
    contours = np.concatenate([rings for rings, _ in found])
    return DetectionSet(
        axis=axis,
        n_slices=len(images),
        voxel_size=volume.voxel_size,
        origin=volume.origin,
        slice_index=np.repeat(np.arange(len(found)), [len(labels) for _, labels in found]),
        contours=contours,
        centers=contours.mean(axis=1),
        confidence=np.ones(len(contours)),
        true_label=np.concatenate([labels for _, labels in found]),
    )


@dataclass(frozen=True)
class DegradeParams:
    """Detector-imperfection model: dropout and keypoint jitter."""

    dropout_rate: float = 0.0
    jitter_sigma: float = 0.0
    confidence_floor: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be non-negative")
        if not (0.0 <= self.confidence_floor <= 1.0):
            raise ConfigError("confidence_floor must lie in [0, 1]")


def degrade(dset: DetectionSet, params: DegradeParams) -> DetectionSet:
    """Apply dropout and Gaussian keypoint jitter to oracle detections.

    Deterministic for a given seed: each row in turn draws its dropout,
    then its jitter, then its confidence.  Jittered centers are
    recomputed as keypoint centroids; confidences are resampled
    uniformly between the floor and 1.
    """
    rng = np.random.default_rng(params.seed)
    kept, noise, confidence = [], [], []
    for k in range(len(dset)):
        if params.dropout_rate > 0 and rng.random() < params.dropout_rate:
            continue
        kept.append(k)
        if params.jitter_sigma > 0:
            noise.append(rng.normal(0.0, params.jitter_sigma, (RING_POINTS, 2)))
        confidence.append(params.confidence_floor + (1.0 - params.confidence_floor) * rng.random())
    out = dset.take(np.array(kept, dtype=np.intp))
    contours = out.contours + np.array(noise) if noise else out.contours
    return replace(out, contours=contours, centers=contours.mean(axis=1), confidence=confidence)


def filter_transverse(dset: DetectionSet, max_aspect: float = 6.0) -> DetectionSet:
    """Drop elongated detections that cut along, not across, a yarn.

    A slice plane cuts the perpendicular yarn family into compact
    blobs and the parallel family into long bands; the keypoint aspect
    ratio (sqrt of the PCA eigenvalue ratio) separates the two
    reliably.  Flat keypoint clouds count as infinitely elongated.
    """
    if max_aspect <= 1.0:
        raise ConfigError("max_aspect must exceed 1")
    rel = dset.contours - dset.contours.mean(axis=1, keepdims=True)
    evals = np.linalg.eigvalsh(np.swapaxes(rel, 1, 2) @ rel / RING_POINTS)
    flat = evals[:, 0] <= 1e-12
    aspect = np.sqrt(evals[:, 1] / np.where(flat, 1.0, evals[:, 0]))
    return dset.take(~flat & (aspect <= max_aspect))


def write_detections(dset: DetectionSet, path) -> Path:
    """Serialize detections as JSON lines, one record per detection."""
    from .storage import atomic_open  # deferred: storage imports this module

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    rows = zip(*(getattr(dset, name).tolist() for name in _ROW_FIELDS))
    with atomic_open(path) as fh:
        for slice_index, contour, center, confidence, label in rows:
            rec = {
                "axis": dset.axis,
                "slice_index": slice_index,
                "contour": contour,
                "center": center,
                "confidence": confidence,
                "true_label": None if label < 0 else label,
            }
            fh.write(json.dumps(rec) + "\n")
    return path


def _float_field(path, lines, records, key, shape, message) -> np.ndarray:
    """``rec[key]`` of every record as one float array (N, *shape).  The
    first value of another shape raises ``message`` at its file line."""
    values = [rec[key] for rec in records]
    try:
        arr = np.array(values, dtype=float)
        if arr.shape[1:] == shape:
            return arr
    except (TypeError, ValueError):
        pass
    for value, line_no in zip(values, lines):
        try:
            if np.array(value, dtype=float).shape == shape:
                continue
        except (TypeError, ValueError):
            pass
        raise ConfigError(f"{path}:{line_no}: {message}")
    raise ConfigError(f"{path}: {message}")


def read_detections(
    path,
    n_slices: int | None = None,
    voxel_size: float = 1.0,
    origin=(0.0, 0.0, 0.0),
) -> DetectionSet:
    """Load a JSON-lines detection file, one record per detection.

    The records must share one slice axis.  The slice count is one past
    the largest slice index unless ``n_slices`` is given, so trailing
    empty slices need it.  A malformed record raises ConfigError naming
    the file and, where the record is known, its line.
    """
    parsed, labels = [], []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            parsed.append((line_no, json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{line_no}: invalid JSON record: {exc}") from exc
    for line_no, rec in parsed:
        where = f"{path}:{line_no}"
        for key in ("axis", "slice_index", "contour", "center"):
            if not isinstance(rec, dict) or key not in rec:
                raise ConfigError(f"{where}: detection record lacks {key!r}")
        if type(rec["slice_index"]) is not int:
            raise ConfigError(f"{where}: slice_index must be an integer")
        label = rec.get("true_label")
        if label is not None and (type(label) is not int or label < 0):
            raise ConfigError(f"{where}: true_label must be a non-negative integer or null")
        labels.append(-1 if label is None else label)
    lines, records = zip(*parsed) if parsed else ((), ())
    axes = {rec["axis"] for rec in records}
    if len(axes) != 1:
        raise ConfigError(f"{path}: cannot infer a unique slice axis ({axes or 'no records'})")
    slice_index = np.array([rec["slice_index"] for rec in records])
    order = np.argsort(slice_index, kind="stable")
    fields = {
        "contours": _float_field(path, lines, records, "contour", (RING_POINTS, 2), _CONTOUR_FAULT),
        "centers": _float_field(path, lines, records, "center", (2,), _CENTER_FAULT),
        "confidence": np.array([rec.get("confidence", 1.0) for rec in records], dtype=float),
        "true_label": np.array(labels),
    }
    try:
        return DetectionSet(
            axis=axes.pop(),
            n_slices=slice_index.max() + 1 if n_slices is None else n_slices,
            voxel_size=voxel_size,
            origin=origin,
            slice_index=slice_index[order],
            **{name: arr[order] for name, arr in fields.items()},
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
