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
from .geometry import RING_POINTS, _shoelace, canonical_indices, resample_arclength
from .voxelizer import SLICE_AXES, SliceDataset

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


@dataclass(frozen=True)
class SectionDetection:
    """One detected yarn section in one slice.

    ``contour`` holds RING_POINTS keypoints in slice pixel coordinates
    (image axis 0, image axis 1); ``center`` is their centroid.
    ``true_label`` carries the generating yarn id when known.
    """

    axis: str
    slice_index: int
    contour: np.ndarray
    center: np.ndarray
    confidence: float = 1.0
    true_label: int | None = None

    def __post_init__(self):
        contour = np.asarray(self.contour, dtype=float)
        if contour.shape != (RING_POINTS, 2) or not np.all(np.isfinite(contour)):
            raise ConfigError(f"detection contour must be a finite ({RING_POINTS}, 2) array")
        center = np.asarray(self.center, dtype=float).reshape(2)
        if self.axis not in SLICE_AXES:
            raise ConfigError(f"axis must be one of {SLICE_AXES}")
        if self.slice_index < 0:
            raise ConfigError("slice_index must be non-negative")
        if not (0.0 <= self.confidence <= 1.0):
            raise ConfigError("confidence must lie in [0, 1]")
        contour.flags.writeable = False
        center.flags.writeable = False
        object.__setattr__(self, "contour", contour)
        object.__setattr__(self, "center", center)

    def area(self) -> float:
        return abs(_shoelace(self.contour))


@dataclass(frozen=True)
class DetectionSet:
    """Detections for every slice of one axis, empty lists included."""

    axis: str
    per_slice: tuple
    voxel_size: float
    origin: np.ndarray

    def __post_init__(self):
        if self.axis not in SLICE_AXES:
            raise ConfigError(f"axis must be one of {SLICE_AXES}")
        per_slice = tuple(tuple(dets) for dets in self.per_slice)
        for idx, dets in enumerate(per_slice):
            for det in dets:
                if det.slice_index != idx:
                    raise ConfigError("detection filed under the wrong slice")
        object.__setattr__(self, "per_slice", per_slice)
        origin = np.asarray(self.origin, dtype=float).reshape(3)
        object.__setattr__(self, "origin", origin)

    @property
    def n_slices(self) -> int:
        return len(self.per_slice)

    def all(self):
        for dets in self.per_slice:
            yield from dets

    def count(self) -> int:
        return sum(len(d) for d in self.per_slice)


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


def _keypoints_from_dense(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    order = canonical_indices(dense)
    dense = dense[order]
    dense3 = np.column_stack([dense, np.zeros(len(dense))])
    ring = resample_arclength(dense3, RING_POINTS, closed=True)[:, :2]
    return ring, ring.mean(axis=0)


def detect_sections(
    image: np.ndarray,
    axis: str = "xz",
    slice_index: int = 0,
    min_area: int = DEFAULT_MIN_AREA,
) -> list:
    """Detect every labeled yarn section in one label slice.

    Connected components (8-connectivity) are evaluated per label;
    components smaller than ``min_area`` pixels are skipped and logged.
    Returns detections ordered by label, then component.
    """
    image = np.asarray(image)
    out = []
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
            ring, center = _keypoints_from_dense(dense)
            out.append(
                SectionDetection(
                    axis=axis,
                    slice_index=slice_index,
                    contour=ring,
                    center=center,
                    confidence=1.0,
                    true_label=int(lab),
                )
            )
    return out


def detect_batch(dataset: SliceDataset, min_area: int = DEFAULT_MIN_AREA) -> DetectionSet:
    """Run the oracle detector over every slice of a dataset."""
    per_slice = [
        detect_sections(img, axis=dataset.axis, slice_index=i, min_area=min_area)
        for i, img in enumerate(dataset.slices)
    ]
    return DetectionSet(
        axis=dataset.axis,
        per_slice=per_slice,
        voxel_size=dataset.voxel_size,
        origin=np.array(dataset.origin),
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

    Deterministic for a given seed.  Jittered centers are recomputed as
    keypoint centroids; confidences are resampled uniformly between the
    floor and 1.
    """
    rng = np.random.default_rng(params.seed)
    per_slice = []
    for dets in dset.per_slice:
        kept = []
        for det in dets:
            if params.dropout_rate > 0 and rng.random() < params.dropout_rate:
                continue
            contour = np.asarray(det.contour)
            if params.jitter_sigma > 0:
                contour = contour + rng.normal(0.0, params.jitter_sigma, contour.shape)
            confidence = params.confidence_floor + (1.0 - params.confidence_floor) * rng.random()
            kept.append(
                replace(
                    det,
                    contour=contour,
                    center=contour.mean(axis=0),
                    confidence=float(confidence),
                )
            )
        per_slice.append(kept)
    return DetectionSet(
        axis=dset.axis,
        per_slice=per_slice,
        voxel_size=dset.voxel_size,
        origin=np.array(dset.origin),
    )


def detection_aspect(det: SectionDetection) -> float:
    """Elongation of the keypoint cloud: sqrt of the PCA eigenvalue ratio."""
    rel = det.contour - det.contour.mean(axis=0)
    cov = rel.T @ rel / len(rel)
    evals = np.linalg.eigvalsh(cov)
    if evals[0] <= 1e-12:
        return np.inf
    return float(np.sqrt(evals[1] / evals[0]))


def filter_transverse(dset: DetectionSet, max_aspect: float = 6.0) -> DetectionSet:
    """Drop elongated detections that cut along, not across, a yarn.

    A slice plane cuts the perpendicular yarn family into compact
    blobs and the parallel family into long bands; the keypoint aspect
    ratio separates the two reliably.
    """
    if max_aspect <= 1.0:
        raise ConfigError("max_aspect must exceed 1")
    per_slice = [
        [det for det in dets if detection_aspect(det) <= max_aspect]
        for dets in dset.per_slice
    ]
    return DetectionSet(
        axis=dset.axis,
        per_slice=per_slice,
        voxel_size=dset.voxel_size,
        origin=np.array(dset.origin),
    )


def write_detections(dset: DetectionSet, path) -> Path:
    """Serialize detections as JSON lines, one record per detection."""
    from .storage import atomic_open  # deferred: storage imports this module

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        for det in dset.all():
            rec = {
                "axis": det.axis,
                "slice_index": det.slice_index,
                "contour": [[float(u), float(v)] for u, v in det.contour],
                "center": [float(det.center[0]), float(det.center[1])],
                "confidence": det.confidence,
                "true_label": det.true_label,
            }
            fh.write(json.dumps(rec) + "\n")
    return path


def read_detections(
    path,
    n_slices: int | None = None,
    axis: str | None = None,
    voxel_size: float = 1.0,
    origin=(0.0, 0.0, 0.0),
) -> DetectionSet:
    """Load a JSON-lines detection file.

    The slice count and axis are taken from the records when not given;
    trailing empty slices need an explicit ``n_slices``.
    """
    records = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{line_no}: invalid JSON record: {exc}") from exc
    if axis is None:
        axes = {r["axis"] for r in records}
        if len(axes) != 1:
            raise ConfigError(f"{path}: cannot infer a unique slice axis ({axes or 'no records'})")
        axis = axes.pop()
    if n_slices is None:
        n_slices = max((r["slice_index"] for r in records), default=-1) + 1
    per_slice = [[] for _ in range(n_slices)]
    for r in records:
        det = SectionDetection(
            axis=r["axis"],
            slice_index=int(r["slice_index"]),
            contour=np.array(r["contour"], dtype=float),
            center=np.array(r["center"], dtype=float),
            confidence=float(r.get("confidence", 1.0)),
            true_label=r.get("true_label"),
        )
        if det.slice_index >= n_slices:
            raise ConfigError(f"{path}: slice_index {det.slice_index} outside dataset")
        per_slice[det.slice_index].append(det)
    return DetectionSet(
        axis=axis,
        per_slice=per_slice,
        voxel_size=voxel_size,
        origin=np.asarray(origin, dtype=float),
    )
