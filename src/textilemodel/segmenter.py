"""Yarn cross-section detection on the slices of a label volume.

The detector finds every labeled region of every slice along one axis,
traces its outer boundary at pixel resolution, and condenses it to ten
equal-arc keypoints plus their centroid.  It works one label at a time
over the label's 3-D box: one in-plane labelling and one
marching-squares pass cover every slice of the box, and one ragged
kernel turns all traced loops into keypoints.  It is an oracle: it
reads the label volume directly and stamps each detection with the true
label, which gives downstream stages a drop-in stand-in for a learned
detector.  Degradation (dropout and keypoint jitter) turns oracle
detections into realistic imperfect ones.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ConfigError, DegenerateGeometryError
from .geometry import RING_POINTS, _freeze, _resample_loops
from .schema import Array, Object, Stack, check
from .voxelizer import SLICE_AXES, SLICE_DIM

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

TRACE_BLOCK = 2**18  # box voxels per traced slab of slices
WRITE_BLOCK = 2**8  # detection rows formatted per % by write_detections
READ_BLOCK = 2**8  # detection records checked as one stack by read_detections


_CONTOUR_FAULT = f"detection contour must be a finite ({RING_POINTS}, 2) array"


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


def trace_boundary(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Trace the outer boundary of every region of a mask stack.

    Marching squares over each slice of the binary stack (s, h, w): the
    contours pass through the midpoints of pixel-grid edges that
    separate foreground from background, giving sub-pixel boundary
    coordinates whose enclosed area tracks the pixel count.  Regions are
    8-connected within a slice and the background 4-connected, so a
    region's outer loop is that of the region with its holes filled;
    the loops around holes are dropped.

    Returns (points, offsets, slices): loop k is the (m, 2) float array
    ``points[offsets[k]:offsets[k + 1]]`` in slice pixel coordinates on
    slice ``slices[k]``.  Each loop has positive signed area and starts
    at its smallest point in raster order, the top edge of its region's
    first pixel; loops are sorted by (slice, first point).
    """
    stack = np.asarray(stack, dtype=bool)
    if stack.ndim != 3 or not stack.any():
        raise DegenerateGeometryError("mask must be a non-empty 3D stack")
    s, h, w = stack.shape
    padded = np.zeros((s, h + 2, w + 2), dtype=np.uint8)
    padded[:, 1:-1, 1:-1] = stack
    # Case code of each cell with corners a b / d c, a as the high bit.
    code = (
        padded[:, :-1, :-1] << 3 | padded[:, :-1, 1:] << 2 | padded[:, 1:, 1:] << 1
        | padded[:, 1:, :-1]
    )
    cells = np.flatnonzero((code > 0) & (code < 15))
    z, i, j = np.unravel_index(cells, code.shape)
    edges = _CASE_SEGMENTS[code.ravel()[cells]]
    used = edges[:, :, 0] >= 0
    # Doubled coordinates keep all edge midpoints integral: padded
    # pixel (i, j) center sits at doubled (2(i-1), 2(j-1)).
    ends = (2 * np.stack([i, j], axis=1)[:, None, None] + _EDGE_MIDPOINTS[edges])[used]
    z = np.broadcast_to(z[:, None], used.shape)[used]
    rows = z[:, None] * (2 * padded.shape[1]) + ends[..., 0]
    keys = rows * (2 * padded.shape[2]) + ends[..., 1]
    # Every midpoint starts exactly one segment, so a search among the
    # sorted start keys finds each segment's successor.
    order = np.argsort(keys[:, 0])
    succ = np.searchsorted(keys[order, 0], keys[order, 1])
    starts = ends[order, 0]
    # Pointer jumping (Wyllie 1979): each segment's loop head is the
    # smallest sorted index on its cycle, the loop's first point.
    n = len(succ)
    head, jump = np.arange(n), succ
    while not np.array_equal(head, head[succ]):
        head, jump = np.minimum(head, head[jump]), jump[jump]
    is_head = head == np.arange(n)
    heads = np.flatnonzero(is_head)
    # List ranking: cut each cycle before its head and jump to the cut.
    last = is_head[succ]
    nxt = np.where(last, np.arange(n), succ)
    to_last = (~last).astype(np.int64)
    while not np.array_equal(nxt[nxt], nxt):
        to_last += to_last[nxt]
        nxt = nxt[nxt]
    loop = np.cumsum(is_head)[head] - 1
    lengths = np.bincount(loop)
    points = np.empty((n, 2))
    points[np.cumsum(lengths)[loop] - 1 - to_last] = starts / 2.0 - 1.0  # pixel coordinates
    # An outer boundary leaves its head leftward; a hole's goes right.
    outer = starts[succ[heads], 1] < starts[heads, 1]
    offsets = np.concatenate([[0], np.cumsum(lengths[outer])])
    return points[np.repeat(outer, lengths)], offsets, z[order[heads[outer]]]


def ring_keypoints(points: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """RING_POINTS canonical equal-arc keypoints of every traced loop,
    (R, RING_POINTS, 2).

    Loop k is ``points[offsets[k]:offsets[k + 1]]`` as trace_boundary
    returns it, with positive signed area.  Each loop is turned to start
    at its max-u point (ties by max v) and resampled closed by the kernel
    of ``resample_arclength``: row k equals, bit for bit,
    ``canonical_indices`` and a closed ``resample_arclength`` of the loop.
    """
    starts, lengths = offsets[:-1], np.diff(offsets)
    loop = np.repeat(np.arange(len(lengths)), lengths)
    u, v = points[:, 0], points[:, 1]
    top = np.where(u == np.maximum.reduceat(u, starts)[loop], v, -np.inf)
    first = np.flatnonzero(top == np.maximum.reduceat(top, starts)[loop]) - starts
    # Canonical position of every point, then the points in that order.
    pos = (np.arange(len(points)) - starts[loop] - first[loop]) % lengths[loop]
    ring = np.empty_like(points)
    ring[starts[loop] + pos] = points
    return _resample_loops(ring, offsets, RING_POINTS, closed=True)


def label_in_plane(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """(labels, n) of the in-plane 8-connected components of the
    (slice, row, column) bool stack ``mask``: components never reach
    across slices, 0 is background and components are numbered 1..n in
    (slice, row, column) order of their first pixel, as
    ``ndimage.label`` numbers them.

    Run-based (He, Chao & Suzuki, IEEE TIP 2008): the foreground runs of
    every row are paired with the runs they touch in the next row of the
    same slice, the pairs are merged to their least run, and the
    components are painted back run by run.
    """
    s, h, w = mask.shape
    edges = np.diff(mask.view(np.int8), axis=2, prepend=0, append=0).ravel()
    row, start = np.divmod(np.flatnonzero(edges == 1), w + 1)
    stop = np.flatnonzero(edges == -1) - row * (w + 1)  # exclusive
    n_runs = len(row)
    # Row keys leave one empty row between slices, so the row after a
    # slice's last row holds no runs.  Run b of the next row touches run
    # a when b.stop >= a.start and b.start <= a.stop; those b are
    # consecutive in raster order.
    key = (row + row // h) * (w + 2)
    lo = np.searchsorted(key + stop, key + (w + 2) + start, side="left")
    hi = np.searchsorted(key + start, key + (w + 2) + stop, side="right")
    count = np.maximum(hi - lo, 0)
    a = np.repeat(np.arange(n_runs), count)
    b = np.arange(len(a)) + np.repeat(lo - (np.cumsum(count) - count), count)
    # Hook the larger root of every pair under the smaller one, then jump
    # pointers until each run points at its root, the least run of its
    # component so far; stop when no pair spans two roots.
    parent = np.arange(n_runs)
    ra, rb = a, b
    while not np.array_equal(ra, rb):
        least = np.minimum(ra, rb)
        np.minimum.at(parent, ra, least)
        np.minimum.at(parent, rb, least)
        while not np.array_equal(up := parent[parent], parent):
            parent = up
        ra, rb = parent[a], parent[b]
    root = parent == np.arange(n_runs)
    # Runs come in raster order, so numbering roots in run order numbers
    # components by first pixel.  Background gaps and runs alternate.
    values = np.zeros(2 * n_runs + 1, dtype=np.int32)
    values[1::2] = np.cumsum(root, dtype=np.int32)[parent]
    bounds = np.stack([row * w + start, row * w + stop], axis=1).ravel()
    lengths = np.diff(bounds, prepend=0, append=mask.size)
    return np.repeat(values, lengths).reshape(s, h, w), int(np.count_nonzero(root))


def _detect_label(images, box, lab: int, axis: str, min_area: int):
    """(slices, labels, contours) of every detection of label ``lab`` in
    its box ``box`` of the slice stack ``images``, sorted by slice and
    first pixel."""
    comps, n = label_in_plane(images[box] == lab)
    area = np.bincount(comps.ravel(), minlength=n + 1)
    # Components are numbered in (slice, row, column) order of their
    # first pixel, so each slice holds a run of numbers.
    runs = np.maximum.accumulate(comps.reshape(len(comps), -1).max(axis=1))
    comp_slice = np.searchsorted(runs, np.arange(n + 1))
    keep = area >= min_area
    keep[0] = False
    z0, i0, j0 = (sl.start for sl in box)
    for c in np.flatnonzero(~keep[1:]) + 1:
        log.info(
            "skip: axis=%s slice=%d label=%d component below min area (%d < %d px)",
            axis, z0 + comp_slice[c], lab, area[c], min_area,
        )
    kept = keep[comps]
    step = max(1, TRACE_BLOCK // comps[0].size)
    found = []
    for lo in range(0, len(comps), step):
        if kept[lo : lo + step].any():
            points, offsets, slices = trace_boundary(kept[lo : lo + step])
            points += [i0, j0]
            found.append((z0 + lo + slices, ring_keypoints(points, offsets)))
    if not found:
        return _NO_ROWS
    slices, contours = (np.concatenate(parts) for parts in zip(*found))
    return slices, np.full(len(slices), lab), contours


_NO_ROWS = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros((0, RING_POINTS, 2)))


def detect_batch(volume, axis: str, min_area: int = DEFAULT_MIN_AREA) -> DetectionSet:
    """Run the oracle detector over every slice of one axis of a label volume.

    Slice i of ``yz`` is the image ``data[i, :, :]`` and slice j of
    ``xz`` is ``data[:, j, :]``.  Each label is detected in its 3-D box
    at once: the outer boundary of each of its in-plane 8-connected
    components, those below ``min_area`` pixels skipped and logged, is
    traced and condensed to keypoints.  The label boxes are the
    volume's, found once for both axes.  Rows are sorted by slice, label
    and the component's first pixel in raster order.
    """
    if axis not in SLICE_AXES:
        raise ConfigError(f"axis must be one of {SLICE_AXES}")
    d = SLICE_DIM[axis]
    images = np.moveaxis(volume.data, d, 0)
    boxes = [None if box is None else (box[d], box[1 - d], box[2]) for box in volume.label_boxes]
    found = [
        _detect_label(images, box, lab, axis, min_area)
        for lab, box in enumerate(boxes, start=1)
        if box is not None
    ]
    slices, labels, contours = (np.concatenate(parts) for parts in zip(_NO_ROWS, *found))
    order = np.argsort(slices, kind="stable")
    contours = contours[order]
    return DetectionSet(
        axis=axis,
        n_slices=len(images),
        voxel_size=volume.voxel_size,
        origin=volume.origin,
        slice_index=slices[order],
        contours=contours,
        centers=contours.mean(axis=1),
        confidence=np.ones(len(contours)),
        true_label=labels[order],
    )


@dataclass(frozen=True)
class DegradeConfig:
    """Detector-imperfection model: dropout and keypoint jitter.

    ``enabled`` switches the pipeline's degrade stage on; ``degrade``
    reads the other fields.
    """

    enabled: bool = False
    dropout_rate: float = 0.0
    jitter_sigma: float = 0.0
    confidence_floor: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.jitter_sigma < 0:
            raise ConfigError("jitter_sigma must be non-negative")
        if not (0.0 <= self.confidence_floor <= 1.0):
            raise ConfigError("confidence_floor must lie in [0, 1]")


def degrade(dset: DetectionSet, params: DegradeConfig, seed: int) -> DetectionSet:
    """Apply dropout and Gaussian keypoint jitter to oracle detections.

    Deterministic for a given seed: each row in turn draws its dropout,
    then its jitter, then its confidence.  Jittered centers are
    recomputed as keypoint centroids; confidences are resampled
    uniformly between the floor and 1.
    """
    rng = np.random.default_rng(seed)
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
    """Serialize detections as JSON lines, one record per detection,
    formatted ``WRITE_BLOCK`` rows per ``%`` so that only one block of
    rows is ever held as Python objects."""
    from .storage import atomic_open  # deferred: storage imports this module

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The bytes of json.dumps of each record: the repr of a finite float
    # is its JSON text, and a negative label is null.
    pair = "[%r, %r]"
    line = (
        f'{{"axis": {json.dumps(dset.axis)}, "slice_index": %d, '
        f'"contour": [{", ".join([pair] * RING_POINTS)}], "center": {pair}, '
        '"confidence": %r, "true_label": %s}\n'
    )
    with atomic_open(path) as fh:
        for lo in range(0, len(dset.true_label), WRITE_BLOCK):
            rows = slice(lo, lo + WRITE_BLOCK)
            label = dset.true_label[rows]
            n = len(label)
            floats = (dset.contours[rows].reshape(n, -1), dset.centers[rows], dset.confidence[rows, None])
            values = np.empty((n, 2 * RING_POINTS + 5), dtype=object)
            values[:, 0] = dset.slice_index[rows].tolist()
            values[:, 1:-1] = np.hstack(floats).tolist()
            values[:, -1] = label.tolist()
            values[label < 0, -1] = "null"
            fh.write((line * n) % tuple(values.ravel().tolist()))
    return path


RECORD_SCHEMA = Object(
    {"axis": str, "slice_index": int, "contour": Array((RING_POINTS, 2)), "center": Array((2,))},
    {"confidence": float, "true_label": int | None},
)


def read_detections(
    path,
    n_slices: int | None = None,
    voxel_size: float = 1.0,
    origin=(0.0, 0.0, 0.0),
) -> DetectionSet:
    """Load a JSON-lines detection file, one record per detection.

    The records must share one slice axis.  The slice count is one past
    the largest slice index unless ``n_slices`` is given, so trailing
    empty slices need it.  ``READ_BLOCK`` records at a time are read and
    checked against ``RECORD_SCHEMA`` as one stack (``confidence``
    defaults to 1 and ``true_label`` to null); the first faulty record
    in the file raises ConfigError naming the file and its line.
    """
    blocks = []
    with open(path) as fh:
        lines = ((line_no, text) for line_no, text in enumerate(fh, start=1) if text.strip())
        while block := list(islice(lines, READ_BLOCK)):
            blocks.append(_read_block(path, block))
    cols = {k: [v for b in blocks for v in b[k]] for k in RECORD_SCHEMA.kinds}
    axes = set(cols["axis"])
    if len(axes) != 1:
        raise ConfigError(f"{path}: cannot infer a unique slice axis ({axes or 'no records'})")
    cols["confidence"] = [1.0 if c is None else c for c in cols["confidence"]]
    cols["true_label"] = [-1 if label is None else label for label in cols["true_label"]]
    keys = ("slice_index", "contour", "center", "confidence", "true_label")
    fields = {name: np.array(cols[k]) for name, k in zip(_ROW_FIELDS, keys)}
    order = np.argsort(fields["slice_index"], kind="stable")
    try:
        return DetectionSet(
            axis=axes.pop(),
            n_slices=fields["slice_index"].max() + 1 if n_slices is None else n_slices,
            voxel_size=voxel_size,
            origin=origin,
            **{name: arr[order] for name, arr in fields.items()},
        )
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _read_block(path, block) -> dict:
    """The checked columns of the (line number, text) records ``block``;
    a faulty block is read again a record at a time, so that the first
    faulty line raises."""
    try:
        cols = check([json.loads(text) for _, text in block], Stack(RECORD_SCHEMA))
        _check_ranges(cols["slice_index"], cols["true_label"])
        return cols
    except (json.JSONDecodeError, ConfigError):
        for line_no, text in block:
            try:
                rec = check(json.loads(text), RECORD_SCHEMA)
                _check_ranges([rec["slice_index"]], [rec.get("true_label")])
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}:{line_no}: invalid JSON record: {exc}") from exc
            except ConfigError as exc:
                raise ConfigError(f"{path}:{line_no}: {exc}") from exc
        raise


def _check_ranges(slices, labels) -> None:
    labels = [label for label in labels if label is not None]
    if min(labels, default=0) < 0:
        raise ConfigError("true_label must be a non-negative integer or null")
    for key, values in (("slice_index", slices), ("true_label", labels)):
        if max(map(abs, values), default=0) >= 2**63:
            raise ConfigError(f"{key} must fit in 64 bits")
