"""Contour tracing, whole-axis detection, degradation, and detection IO."""

import contextlib
import json
import logging
import math
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from textilemodel import geometry, segmenter
from textilemodel.errors import ConfigError, DegenerateGeometryError
from textilemodel.geometry import canonical_indices
from textilemodel.segmenter import (
    DegradeConfig,
    DetectionSet,
    degrade,
    detect_batch,
    filter_transverse,
    label_in_plane,
    read_detections,
    ring_keypoints,
    trace_boundary,
    write_detections,
)
from textilemodel.synthgen import WeaveSpec, generate_interlock
from textilemodel.voxelizer import AXIS_YZ, SLICE_AXES, LabelVolume, voxelize

from test_geometry import ref_resample_arclength


def shoelace(points):
    u, v = points[:, 0], points[:, 1]
    return 0.5 * abs(float(np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v)))


def ellipse_mask(shape, center, a, b):
    ii, jj = np.mgrid[: shape[0], : shape[1]]
    return ((ii - center[0]) / a) ** 2 + ((jj - center[1]) / b) ** 2 <= 1.0


@pytest.fixture(scope="module")
def desk_volume():
    spec = WeaveSpec(
        n_warp_columns=4,
        n_weft_columns=4,
        warp_sequence=(2,),
        weft_sequence=(2,),
        yarn_spacing=(40.0, 40.0),
        crimp_amplitude=7.0,
        ellipse_a=6.0,
        ellipse_b=3.0,
    )
    return voxelize(generate_interlock(spec), voxel_size=1.0)


def one_loop(mask):
    """The single loop that trace_boundary finds in a one-slice stack."""
    points, offsets, slices = trace_boundary(mask[None])
    assert offsets.tolist() == [0, len(points)] and slices.tolist() == [0]
    return points


class TestTraceBoundary:
    def test_single_pixel_is_a_diamond(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        dense = one_loop(mask)
        assert shoelace(dense) == pytest.approx(0.5)
        assert np.allclose(dense.mean(axis=0), [2.0, 2.0])

    def test_rectangle_area_loses_half_pixel_at_corners(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[4:14, 5:25] = True  # 10 x 20 pixels
        dense = one_loop(mask)
        # Midpoint contour = full rectangle minus four corner chamfers.
        assert shoelace(dense) == pytest.approx(10 * 20 - 0.5)
        assert np.allclose(dense.mean(axis=0), [8.5, 14.5], atol=0.1)

    def test_closed_and_in_pixel_units(self):
        mask = ellipse_mask((40, 60), (20.0, 30.0), 12.0, 20.0)
        dense = one_loop(mask)
        assert np.all(dense[:, 0] >= 7.0) and np.all(dense[:, 0] <= 33.0)
        # consecutive vertices stay adjacent: edge midpoints of one cell
        steps = np.linalg.norm(np.diff(np.vstack([dense, dense[:1]]), axis=0), axis=1)
        assert steps.max() <= 1.0 + 1e-9

    def test_empty_mask_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            trace_boundary(np.zeros((1, 4, 4), dtype=bool))

    def test_non_stack_rejected(self):
        mask = np.ones((4, 4), dtype=bool)
        with pytest.raises(DegenerateGeometryError):
            trace_boundary(mask)


def ref_trace_loop(mask):
    """The one-loop tracer that detection used per component: marching
    squares over a 2D mask, walked in Python from the smallest doubled
    coordinate; a mask that is not one closed loop raises."""
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = mask
    code = padded[:-1, :-1] << 3 | padded[:-1, 1:] << 2 | padded[1:, 1:] << 1 | padded[1:, :-1]
    cells = np.argwhere((code > 0) & (code < 15))
    edges = segmenter._CASE_SEGMENTS[code[cells[:, 0], cells[:, 1]]]
    ends = (2 * cells[:, None, None] + segmenter._EDGE_MIDPOINTS[edges])[edges[:, :, 0] >= 0]
    keys = ends[..., 0] * (2 * padded.shape[1]) + ends[..., 1]
    order = np.argsort(keys[:, 0])
    nxt = np.searchsorted(keys[order, 0], keys[order, 1]).tolist()
    loop = [0]
    while (k := nxt[loop[-1]]) != 0 and len(loop) < len(nxt):
        loop.append(k)
    if k != 0 or len(loop) != len(nxt):
        raise DegenerateGeometryError("mask boundary is not a single closed loop")
    return ends[order[loop], 0] / 2.0 - 1.0


def ref_trace_boundary(mask):
    """Reference tracer: marching squares one cell at a time, into an
    undirected adjacency walked from the smallest doubled coordinate."""
    padded = np.zeros((mask.shape[0] + 2, mask.shape[1] + 2), dtype=bool)
    padded[1:-1, 1:-1] = mask
    adjacency = {}

    def connect(p, q):
        adjacency.setdefault(p, []).append(q)
        adjacency.setdefault(q, []).append(p)

    h, w = padded.shape
    for ci in range(h - 1):
        for cj in range(w - 1):
            a, b = padded[ci, cj], padded[ci, cj + 1]
            c, d = padded[ci + 1, cj + 1], padded[ci + 1, cj]
            code = (a << 3) | (b << 2) | (c << 1) | int(d)
            if code in (0, 15):
                continue
            e_ab = (2 * ci, 2 * cj + 1)
            e_bc = (2 * ci + 1, 2 * cj + 2)
            e_cd = (2 * ci + 2, 2 * cj + 1)
            e_da = (2 * ci + 1, 2 * cj)
            if code == 0b1010:  # a, c foreground: wrap corners b and d
                connect(e_ab, e_bc)
                connect(e_cd, e_da)
            elif code == 0b0101:  # b, d foreground: wrap corners a and c
                connect(e_da, e_ab)
                connect(e_bc, e_cd)
            else:
                sides = ((e_ab, a, b), (e_bc, b, c), (e_cd, c, d), (e_da, d, a))
                connect(*[e for e, x, y in sides if x != y])

    start = min(adjacency)
    loop, prev, cur = [start], None, start
    while True:
        nbrs = adjacency[cur]
        nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
        if nxt == start:
            return np.array(loop, dtype=float) / 2.0 - 1.0
        loop.append(nxt)
        prev, cur = cur, nxt


@st.composite
def filled_blobs(draw):
    """One 8-connected component of a random grid with its holes filled,
    as per-component detection passed it to the tracer."""
    shape = (draw(st.integers(1, 14)), draw(st.integers(1, 14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.random(shape) < draw(st.floats(0.2, 0.8))
    grid[rng.integers(shape[0]), rng.integers(shape[1])] = True
    comps, n = ndimage.label(grid, structure=np.ones((3, 3), dtype=bool))
    return ndimage.binary_fill_holes(comps == draw(st.integers(1, n)))


@st.composite
def random_stacks(draw):
    """A random stack of 1-4 slices, holes and all, as detection passes
    its kept components to the tracer."""
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 12)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.floats(0.1, 0.8))


def ref_loops(stack):
    """(slice, loop) of every 8-connected component of every slice of a
    stack, one reference trace of the component after its own
    4-connected hole fill, sorted by (slice, first point).  A component
    inside another's hole keeps its own loop, as in the detector's
    per-component reference ``ref_detect_sections``."""
    found = []
    for z, mask in enumerate(stack):
        comps, n = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
        found += [(z, ref_trace_boundary(ndimage.binary_fill_holes(comps == c))) for c in range(1, n + 1)]
    return sorted(found, key=lambda zl: (zl[0], *zl[1][0]))


class TestTraceBoundaryProperties:
    @settings(max_examples=300, deadline=None)
    @given(filled_blobs())
    def test_matches_reference_tracer_exactly(self, blob):
        assert np.array_equal(one_loop(blob), ref_trace_boundary(blob))
        assert np.array_equal(one_loop(blob), ref_trace_loop(blob))

    @settings(max_examples=300, deadline=None)
    @given(random_stacks())
    def test_stack_matches_one_reference_trace_per_component(self, stack):
        want = ref_loops(stack)
        if not want:
            with pytest.raises(DegenerateGeometryError):
                trace_boundary(stack)
            return
        points, offsets, slices = trace_boundary(stack)
        assert slices.tolist() == [z for z, _ in want]
        assert np.array_equal(offsets, np.cumsum([0] + [len(loop) for _, loop in want]))
        assert np.array_equal(points, np.concatenate([loop for _, loop in want]))
        # Only outer boundaries come back: every loop runs counterclockwise.
        for lo, hi in zip(offsets, offsets[1:]):
            u, v = points[lo:hi, 0], points[lo:hi, 1]
            assert np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v) > 0

    @settings(max_examples=300, deadline=None)
    @given(filled_blobs())
    def test_signed_area_is_pixel_count_minus_half(self, blob):
        dense = one_loop(blob)
        u, v = dense[:, 0], dense[:, 1]
        assert 0.5 * np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v) == blob.sum() - 0.5

    def test_two_components_give_two_loops(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, 1] = mask[4, 4] = True
        points, offsets, slices = trace_boundary(mask[None])
        assert offsets.tolist() == [0, 4, 8] and slices.tolist() == [0, 0]
        assert np.allclose(points.reshape(2, 4, 2).mean(axis=1), [[1, 1], [4, 4]])
        with pytest.raises(DegenerateGeometryError):
            ref_trace_loop(mask)

    def test_holed_region_gives_its_outer_loop_only(self):
        mask = np.ones((5, 5), dtype=bool)
        holed = mask.copy()
        holed[2, 2] = False
        assert np.array_equal(one_loop(holed), one_loop(mask))

    def test_region_inside_a_hole_keeps_its_own_loop(self):
        ring = np.ones((7, 7), dtype=bool)
        ring[1:-1, 1:-1] = False
        ring[3, 3] = True
        points, offsets, _ = trace_boundary(ring[None])
        assert np.array_equal(points[offsets[0] : offsets[1]], one_loop(np.ones((7, 7), dtype=bool)))
        assert np.array_equal(points[offsets[1] :], one_loop(ring[3:4, 3:4]) + 3)


ROW_FIELDS = ("slice_index", "contours", "centers", "confidence", "true_label")


def make_dset(slice_index, contours, n_slices=None, axis="xz", confidence=None, true_label=None,
              voxel_size=1.0, origin=(0.0, 0.0, 0.0)):
    """A DetectionSet of the rows (slice_index[k], contours[k]) with
    their centroids, confidence 1 and unknown labels unless given."""
    contours = np.asarray(contours, dtype=float).reshape(-1, 10, 2)
    n = len(contours)
    return DetectionSet(
        axis=axis,
        n_slices=max(slice_index, default=-1) + 1 if n_slices is None else n_slices,
        voxel_size=voxel_size,
        origin=origin,
        slice_index=slice_index,
        contours=contours,
        centers=contours.mean(axis=1),
        confidence=np.ones(n) if confidence is None else confidence,
        true_label=np.full(n, -1) if true_label is None else true_label,
    )


def assert_sets_equal(a, b):
    assert (a.axis, a.n_slices, a.voxel_size) == (b.axis, b.n_slices, b.voxel_size)
    assert np.array_equal(a.origin, b.origin)
    for name in ROW_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# ------------------------------------------------ per-detection reference
#
# The deleted one-detection type and the per-detection stages that used
# it.  DetectionSet and the stacked stages must agree with them row for
# row.


@dataclass(frozen=True)
class RefSectionDetection:
    axis: str
    slice_index: int
    contour: np.ndarray
    center: np.ndarray
    confidence: float = 1.0
    true_label: int | None = None

    def __post_init__(self):
        contour = np.asarray(self.contour, dtype=float)
        if contour.shape != (10, 2) or not np.all(np.isfinite(contour)):
            raise ConfigError("detection contour must be a finite (10, 2) array")
        center = np.asarray(self.center, dtype=float).reshape(2)
        if self.axis not in SLICE_AXES:
            raise ConfigError(f"axis must be one of {SLICE_AXES}")
        if self.slice_index < 0:
            raise ConfigError("slice_index must be non-negative")
        if not (0.0 <= self.confidence <= 1.0):
            raise ConfigError("confidence must lie in [0, 1]")
        object.__setattr__(self, "contour", contour)
        object.__setattr__(self, "center", center)


def ref_check_rows(axis, n_slices, rows):
    """Build each row as a detection, then check it lies in the dataset,
    one row at a time as the per-detection reader did."""
    dets = []
    for i, contour, center, confidence, label in rows:
        label = None if label < 0 else label
        det = RefSectionDetection(axis, i, contour, center, confidence, label)
        if det.slice_index >= n_slices:
            raise ConfigError(f"slice_index {det.slice_index} outside dataset")
        dets.append(det)
    return dets


def ref_detections(dset):
    """The rows of ``dset`` as reference detections, in row order."""
    return ref_check_rows(
        dset.axis,
        dset.n_slices,
        zip(dset.slice_index.tolist(), dset.contours, dset.centers, dset.confidence.tolist(),
            dset.true_label.tolist()),
    )


def assert_rows_equal(dset, dets):
    """``dset`` holds exactly the reference detections ``dets``, in order."""
    assert len(dset) == len(dets)
    assert dset.slice_index.tolist() == [d.slice_index for d in dets]
    assert np.array_equal(dset.contours, np.array([d.contour for d in dets]).reshape(-1, 10, 2))
    assert np.array_equal(dset.centers, np.array([d.center for d in dets]).reshape(-1, 2))
    assert dset.confidence.tolist() == [d.confidence for d in dets]
    assert dset.true_label.tolist() == [-1 if d.true_label is None else d.true_label for d in dets]


def ref_detection_aspect(det):
    """Elongation of the keypoint cloud: sqrt of the PCA eigenvalue ratio."""
    rel = det.contour - det.contour.mean(axis=0)
    cov = rel.T @ rel / len(rel)
    evals = np.linalg.eigvalsh(cov)
    if evals[0] <= 1e-12:
        return np.inf
    return float(np.sqrt(evals[1] / evals[0]))


def ref_degrade(dets, params, seed):
    rng = np.random.default_rng(seed)
    out = []
    for det in dets:
        if params.dropout_rate > 0 and rng.random() < params.dropout_rate:
            continue
        contour = np.asarray(det.contour)
        if params.jitter_sigma > 0:
            contour = contour + rng.normal(0.0, params.jitter_sigma, contour.shape)
        confidence = params.confidence_floor + (1.0 - params.confidence_floor) * rng.random()
        out.append(
            replace(det, contour=contour, center=contour.mean(axis=0), confidence=float(confidence))
        )
    return out


@st.composite
def detection_rows(draw):
    """(n_slices, slice_index, contours, centers, confidence, true_label)
    of up to 6 sorted rows, some of them faulty."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_slices = draw(st.integers(0, 5))
    n = draw(st.integers(0, 6))
    bad = rng.random((n, 3)) < draw(st.sampled_from([0.0, 0.1, 0.3]))
    slice_index = np.sort(np.where(bad[:, 0], rng.choice([-1, n_slices, n_slices + 2], n),
                                   rng.integers(0, max(n_slices, 1), n)))
    contours = rng.normal(size=(n, 10, 2)) * 5.0
    for k in np.flatnonzero(bad[:, 1]):
        contours[k, rng.integers(10), rng.integers(2)] = rng.choice([np.nan, np.inf, -np.inf])
    confidence = np.where(
        bad[:, 2], rng.choice([-0.1, 1.2, np.nan], n), rng.choice([0.0, 0.4, 1.0], n)
    )
    centers, labels = rng.normal(size=(n, 2)), rng.integers(-1, 5, n)
    return n_slices, slice_index, contours, centers, confidence, labels


class TestDetectionSet:
    @settings(max_examples=400, deadline=None)
    @given(detection_rows())
    def test_checks_match_the_per_detection_reference(self, rows):
        n_slices, *arrays = rows

        def build():
            return DetectionSet("yz", n_slices, 1.0, (0.0, 0.0, 0.0), *arrays)

        try:
            dets = ref_check_rows("yz", n_slices, zip(arrays[0].tolist(), *arrays[1:]))
        except ConfigError as exc:
            with pytest.raises(ConfigError) as got:
                build()
            assert str(got.value) == str(exc)
            return
        ds = build()
        assert_rows_equal(ds, dets)
        assert ds.n_slices == n_slices and len(ds) == ds.count() == len(dets)

    def test_rows_are_read_only_copies(self):
        ring = decagon_ring()
        src = np.array([ring, ring + 1.0])
        ds = make_dset([0, 1], src)
        src[0, 0, 0] = 99.0
        assert ds.contours[0, 0, 0] == ring[0, 0]
        for name in ROW_FIELDS:
            want = np.int64 if name in ("slice_index", "true_label") else float
            assert getattr(ds, name).dtype == want
            with pytest.raises(ValueError):
                getattr(ds, name)[0] = 0

    def test_misaligned_rows_rejected(self):
        ring = decagon_ring()
        with pytest.raises(ConfigError, match="finite"):
            make_dset([0, 1], [ring])
        with pytest.raises(ConfigError, match="one center"):
            make_dset([0], [ring], true_label=[1, 2])
        with pytest.raises(ConfigError, match="axis"):
            make_dset([0], [ring], axis="xy")

    def test_take_keeps_the_set_geometry(self):
        ds = TestDegrade.toy_set(n_slices=3)
        part = ds.take(ds.true_label == 2)
        assert part.slice_index.tolist() == [0, 1, 2]
        assert (part.axis, part.n_slices, part.voxel_size) == (ds.axis, ds.n_slices, ds.voxel_size)
        assert np.array_equal(part.contours, ds.contours[1::4])


def decagon_ring(a=3.0, b=2.0):
    th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    return np.column_stack([a * np.cos(th), b * np.sin(th)])


# ------------------------------------------------ per-slice reference
#
# The per-slice, per-component detector that whole-axis detection
# replaced.  detect_batch must agree with it byte for byte.

SKIP_MESSAGE = "skip: axis=%s slice=%d label=%d component below min area (%d < %d px)"


def ref_keypoints_from_dense(dense):
    order = canonical_indices(dense)
    dense = dense[order]
    dense3 = np.column_stack([dense, np.zeros(len(dense))])
    return ref_resample_arclength(dense3, 10, closed=True)[:, :2]


def ref_detect_sections(image, axis="xz", slice_index=0, min_area=12):
    """(rings, labels, skip messages) of one label image, by label, then
    component."""
    rings, labels, skipped = [], [], []
    eight = np.ones((3, 3), dtype=bool)
    for lab0, window in enumerate(ndimage.find_objects(image.astype(np.int32))):
        if window is None:
            continue
        lab = lab0 + 1
        comps, n_comp = ndimage.label(image[window] == lab, structure=eight)
        for comp_id in range(1, n_comp + 1):
            comp = comps == comp_id
            area_px = int(comp.sum())
            if area_px < min_area:
                skipped.append(SKIP_MESSAGE % (axis, slice_index, lab, area_px, min_area))
                continue
            dense = ref_trace_loop(ndimage.binary_fill_holes(comp))
            dense += [window[0].start, window[1].start]
            rings.append(ref_keypoints_from_dense(dense))
            labels.append(lab)
    return np.array(rings).reshape(-1, 10, 2), np.array(labels, dtype=np.int64), skipped


def slice_images(volume, axis):
    return volume.data if axis == AXIS_YZ else np.moveaxis(volume.data, 1, 0)


def ref_detect_batch(volume, axis, min_area=12):
    """(slice_index, contours, true_label, skip messages) of every slice."""
    found = [
        ref_detect_sections(image, axis, i, min_area)
        for i, image in enumerate(slice_images(volume, axis))
    ]
    slice_index = np.repeat(np.arange(len(found)), [len(labels) for _, labels, _ in found])
    contours = np.concatenate([rings for rings, _, _ in found])
    labels = np.concatenate([labels for _, labels, _ in found])
    return slice_index, contours, labels, [m for *_, skipped in found for m in skipped]


def label_volume(data):
    return LabelVolume(np.ascontiguousarray(data, dtype=np.uint16), 1.0, (0.0, 0.0, 0.0), {})


def detect_image(image, min_area=12):
    """(rings, labels) that detect_batch finds on one label image."""
    ds = detect_batch(label_volume(image[None]), AXIS_YZ, min_area=min_area)
    assert ds.slice_index.tolist() == [0] * len(ds)
    return ds.contours, ds.true_label


@contextlib.contextmanager
def logged_messages():
    """The messages that the segmenter logs at INFO inside the block."""
    messages = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("textilemodel.segmenter")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def assert_matches_reference(volume, min_area):
    """detect_batch on both axes equals the per-slice reference, byte
    for byte, and logs the same skip messages."""
    for axis in SLICE_AXES:
        with logged_messages() as messages:
            ds = detect_batch(volume, axis, min_area=min_area)
        slice_index, contours, labels, skipped = ref_detect_batch(volume, axis, min_area)
        assert ds.n_slices == len(slice_images(volume, axis))
        for got, want in ((ds.slice_index, slice_index), (ds.contours, contours),
                          (ds.centers, contours.mean(axis=1)), (ds.true_label, labels)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert sorted(messages) == sorted(skipped)


class TestDetectSections:
    def test_ellipse_keypoint_area_near_ideal(self):
        a, b = 20.0, 10.0
        image = ellipse_mask((64, 64), (32.0, 32.0), a, b).astype(np.uint16)
        rings, labels = detect_image(image)
        assert rings.shape == (1, 10, 2)
        # 10-keypoint ring underestimates the true ellipse by < 10%.
        ratio = shoelace(rings[0]) / (math.pi * a * b)
        assert 0.9 < ratio < 1.0
        assert np.allclose(rings[0].mean(axis=0), [32.0, 32.0], atol=1e-6)
        assert labels.tolist() == [1]
        assert np.array_equal(rings, ref_detect_sections(image)[0])

    def test_two_labels_ordered(self):
        image = np.zeros((40, 40), dtype=np.uint16)
        image[ellipse_mask((40, 40), (10.0, 10.0), 6.0, 4.0)] = 2
        image[ellipse_mask((40, 40), (28.0, 28.0), 6.0, 4.0)] = 1
        rings, labels = detect_image(image)
        assert labels.tolist() == [1, 2]
        assert np.allclose(rings[0].mean(axis=0), [28.0, 28.0], atol=0.2)

    def test_interior_holes_are_filled(self):
        image = ellipse_mask((40, 40), (20.0, 20.0), 10.0, 8.0).astype(np.uint16)
        image[18:23, 18:23] = 0  # puncture
        (ring,), _ = detect_image(image)
        (full,), _ = detect_image(ellipse_mask((40, 40), (20.0, 20.0), 10.0, 8.0).astype(np.uint16))
        assert shoelace(ring) == pytest.approx(shoelace(full))

    def test_min_area_skip_is_logged(self, caplog):
        image = np.zeros((20, 20), dtype=np.uint16)
        image[3:5, 3:5] = 1  # 4 px, below the default 12
        image[10:12, 3:4] = 1  # 2 px
        image[10:14, 10:14] = 2  # 16 px, kept
        with caplog.at_level(logging.INFO, logger="textilemodel.segmenter"):
            rings, labels = detect_image(image)
        assert rings.shape == (1, 10, 2) and labels.tolist() == [2]
        want = ref_detect_sections(image, axis="yz", slice_index=0)[2]
        got = [r.getMessage() for r in caplog.records if "below min area" in r.getMessage()]
        assert sorted(got) == sorted(want) and len(want) == 2


# Fixed label images where whole-mask and per-component work differ.
# A component of label 1 inside the hole of a label-1 ring: a fill of the
# whole label mask merges the two, a fill per component keeps both.
NESTED_SAME = np.zeros((11, 11), dtype=np.uint16)
NESTED_SAME[1:10, 1:10] = 1
NESTED_SAME[2:9, 2:9] = 0
NESTED_SAME[4:7, 4:7] = 1
# The same ring around a label-2 blob: labels never merge.
NESTED_OTHER = NESTED_SAME.copy()
NESTED_OTHER[4:7, 4:7] = 2
# A ring with a diagonal gap: its inside is a hole under the 4-connected
# fill, but reaches the border through the gap under an 8-connected one.
DIAGONAL_GAP = np.zeros((9, 9), dtype=np.uint16)
DIAGONAL_GAP[1:8, 1:8] = 1
DIAGONAL_GAP[2:7, 2:7] = 0
DIAGONAL_GAP[1, 1] = 0  # the corner pixel goes: (2, 2) meets the outside diagonally


class TestDetectBatchFixtures:
    @pytest.mark.parametrize("image", [NESTED_SAME, NESTED_OTHER], ids=["same", "other"])
    def test_nested_component_is_its_own_detection(self, image):
        rings, labels = detect_image(image, min_area=1)
        assert len(rings) == 2
        assert labels.tolist() == sorted(labels.tolist())
        # The outer ring is filled over the inner component.
        assert max(shoelace(r) for r in rings) > 40.0
        assert_matches_reference(label_volume(np.stack([image, image.T, 0 * image])), 1)

    def test_nested_fallback_only_on_its_own_slice(self):
        ring_only = NESTED_SAME.copy()
        ring_only[4:7, 4:7] = 0
        data = np.stack([NESTED_SAME, ring_only, NESTED_SAME[::-1]])
        assert_matches_reference(label_volume(data), 1)

    def test_diagonal_gap_ring_fills_four_connected(self):
        (ring,), _ = detect_image(DIAGONAL_GAP, min_area=1)
        # 7x7 filled square minus the gap corner: the contour encloses
        # the hole.
        assert shoelace(ring) > 40.0
        assert_matches_reference(label_volume(np.stack([DIAGONAL_GAP, DIAGONAL_GAP.T])), 1)


@st.composite
def label_volumes(draw):
    """Small random label volumes: noise blobs of labels 1, 2 and 4 (3 is
    absent) touching each other and the border, empty slices, and pasted
    rings with diagonal gaps and nested components."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = st.integers(1, 16) | st.integers(11, 16)  # often room for a whole patch
    shape = (draw(st.integers(1, 5)), draw(side), draw(side))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]))
    data = np.where(rng.random(shape) < density, rng.choice([1, 2, 4], shape), 0)
    data[rng.random(shape[0]) < 0.2] = 0  # empty slices
    for _ in range(draw(st.integers(0, 4))):
        patch = [NESTED_SAME, NESTED_OTHER, DIAGONAL_GAP][rng.integers(3)]
        patch = np.r_[0, rng.choice([1, 2, 4], 2)][np.rot90(patch, rng.integers(4))]
        # Whole where the slice is large enough, else cut at the border.
        z = rng.integers(shape[0])
        i, j = (rng.integers(max(1, d - p + 1)) for d, p in zip(shape[1:], patch.shape))
        part = patch[: shape[1] - i, : shape[2] - j]
        region = data[z, i : i + part.shape[0], j : j + part.shape[1]]
        region[part > 0] = part[part > 0]
    return label_volume(data), draw(st.integers(1, 14))


@st.composite
def traced_rings(draw):
    """(points, offsets, chunk budget): the loops that trace_boundary
    finds in a random stack, moved by a whole-pixel offset, and a
    resampler chunk budget between 4 points and twice the longest loop."""
    stack = draw(random_stacks())
    assume(stack.any())
    points, offsets, _ = trace_boundary(stack)
    points += [draw(st.integers(-50, 300)), draw(st.integers(-50, 300))]
    block = draw(st.integers(4, 2 * int(np.diff(offsets).max())))
    return points, offsets, block


def ref_ring_keypoints(points, offsets):
    return np.array([ref_keypoints_from_dense(points[lo:hi]) for lo, hi in zip(offsets, offsets[1:])])


class TestRingKeypoints:
    @settings(max_examples=300, deadline=None)
    @given(traced_rings())
    def test_chunks_match_one_resample_per_ring(self, case):
        points, offsets, block = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "RESAMPLE_BLOCK", block)
            got = ring_keypoints(points, offsets)
        assert got.tobytes() == ref_ring_keypoints(points, offsets).tobytes()

    def test_ring_longer_than_the_budget_gets_its_own_chunk(self, monkeypatch):
        stack = np.zeros((2, 30, 30), dtype=bool)
        stack[0, 2:28, 3:25] = True
        stack[1, 5:7, 5:7] = stack[1, 10:13, 10:12] = stack[1, 20, 20] = True
        points, offsets, _ = trace_boundary(stack)
        # A closed loop of m points has m + 1 arc-length knots.
        knots = np.diff(offsets) + 1
        monkeypatch.setattr(geometry, "RESAMPLE_BLOCK", 18)
        assert knots.max() > 18 and sorted(knots.tolist())[:3] == [5, 9, 11]
        assert [c.stop - c.start for c in geometry._chunks(np.sort(knots))] == [2, 1, 1]
        got = ring_keypoints(points, offsets)
        assert got.tobytes() == ref_ring_keypoints(points, offsets).tobytes()


class TestDetectBatchOracle:
    @settings(max_examples=300, deadline=None)
    @given(label_volumes())
    def test_matches_the_per_slice_reference(self, case):
        volume, min_area = case
        assert_matches_reference(volume, min_area)

    @settings(max_examples=25, deadline=None)
    @given(label_volumes(), st.integers(1, 400))
    def test_slabs_do_not_change_the_rows(self, case, block):
        volume, min_area = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(segmenter, "TRACE_BLOCK", block)
            assert_matches_reference(volume, min_area)


# ndimage.label's structure for in-plane 8-connectivity of a (slice,
# row, column) stack: a full 3x3 on the middle slice only.
IN_PLANE_8 = np.zeros((3, 3, 3), dtype=bool)
IN_PLANE_8[1] = True

# Slice patterns of in_plane_masks, from (row index, column index, noise).
SLICE_PATTERNS = (
    lambda ii, jj, noise: noise,
    lambda ii, jj, noise: (ii + jj) % 2 == 0,  # checkerboard: corner contacts only
    lambda ii, jj, noise: (ii - jj) % 3 == 0,  # separate diagonal lines
    lambda ii, jj, noise: noise & ((ii + jj) % 2 == 0),  # noise on the checkerboard
    lambda ii, jj, noise: np.zeros_like(noise),
    lambda ii, jj, noise: np.ones_like(noise),
)


@st.composite
def in_plane_masks(draw):
    """Random (slice, row, column) stacks whose slices are noise of any
    density, diagonal patterns that touch only at corners, empty or
    full; shapes include 1-pixel rows and columns, and components reach
    the slice edges."""
    side = st.integers(1, 12) | st.just(1)
    shape = (draw(st.integers(1, 4)), draw(side), draw(side))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.random(shape) < draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
    ii, jj = np.indices(shape[1:])
    kinds = draw(st.lists(st.integers(0, len(SLICE_PATTERNS) - 1), min_size=shape[0], max_size=shape[0]))
    return np.stack([SLICE_PATTERNS[k](ii, jj, slab) for k, slab in zip(kinds, noise)])


def assert_labels_like_ndimage(mask):
    got, n = label_in_plane(mask)
    want, n_want = ndimage.label(mask, structure=IN_PLANE_8)
    assert n == n_want
    assert np.array_equal(got, want)


class TestLabelInPlane:
    @settings(max_examples=500, deadline=None)
    @given(in_plane_masks())
    def test_matches_ndimage_label(self, mask):
        assert_labels_like_ndimage(mask)

    @settings(max_examples=100, deadline=None)
    @given(in_plane_masks())
    def test_strided_views_match_ndimage_label(self, mask):
        assert_labels_like_ndimage(np.moveaxis(mask, 1, 0))  # how detect_batch passes xz boxes
        assert_labels_like_ndimage(mask[:, ::-1, ::2])

    def test_serpentine_merges_through_every_row(self):
        # One component whose runs alternate ends: each merge round of
        # the labeller meets it from both sides of a long chain.
        mask = np.zeros((2, 41, 40), dtype=bool)
        mask[:, ::2] = True
        mask[0, 1::4, -1] = mask[0, 3::4, 0] = True
        mask[1, 1::4, 0] = mask[1, 3::4, -1] = True
        assert label_in_plane(mask)[1] == 2
        assert_labels_like_ndimage(mask)

    def test_desk_label_boxes_match_ndimage_label(self, desk_volume):
        for axis in SLICE_AXES:
            images = slice_images(desk_volume, axis)
            boxes = desk_volume.label_boxes
            for lab, box in enumerate(boxes, start=1):
                if axis != AXIS_YZ:
                    box = (box[1], box[0], box[2])
                assert_labels_like_ndimage(images[box] == lab)


@pytest.fixture(scope="module")
def desk_detections(desk_volume):
    """Unfiltered oracle detections of the desk volume, by axis."""
    return {axis: detect_batch(desk_volume, axis) for axis in SLICE_AXES}


def per_slice_counts(ds):
    return np.bincount(ds.slice_index, minlength=ds.n_slices)


class TestDeskDetection:
    def test_every_interior_slice_detects_all_sections(self, desk_detections):
        ds = filter_transverse(desk_detections["xz"], 6.0)
        assert set(per_slice_counts(ds).tolist()) == {8}  # 8 weft yarns cut by every xz slice

    def test_yz_slices_detect_warps_after_filter(self, desk_detections):
        ds = filter_transverse(desk_detections["yz"], 6.0)
        counts = per_slice_counts(ds).tolist()
        assert set(counts[1:-1]) == {8}  # 8 warp yarns; end slivers may vanish

    def test_centers_land_on_weft_axes(self, desk_volume, desk_detections):
        ds = filter_transverse(desk_detections["xz"], 6.0)
        mid = ds.centers[ds.slice_index == 80]
        assert len(mid) == 8
        # Weft axes lie at world x in {20, 60, 100, 140}, two z levels
        # each; lifted centers must hit those axes within 0.15 px.
        ox = desk_volume.origin[0]
        xs = sorted(ox + (mid[:, 0] + 0.5) * desk_volume.voxel_size)
        for got, want in zip(xs, (20, 20, 60, 60, 100, 100, 140, 140)):
            assert got == pytest.approx(want, abs=0.15)

    def test_aspect_separates_blobs_from_bands(self, desk_detections):
        aspects = [ref_detection_aspect(d) for d in ref_detections(desk_detections["yz"])]
        blobs = [a for a in aspects if a < 6.0]
        bands = [a for a in aspects if a >= 6.0]
        assert bands, "weft cuts seen edge-on should look like bands"
        # Transverse cuts top out near 2.8 (tilted end slivers); bands
        # start above 15, so the 6.0 threshold splits them cleanly.
        assert max(blobs) < 3.5 and min(bands) > 15.0

    def test_rows_are_the_slice_detections_in_order(self, desk_volume, desk_detections):
        for axis, ds in desk_detections.items():
            assert np.all(np.diff(ds.slice_index) >= 0)
            assert (ds.confidence == 1.0).all()
            # Stacked centroids are bit-equal to one ring at a time.
            assert np.array_equal(ds.centers, np.array([c.mean(axis=0) for c in ds.contours]))
            for i in (0, 80, ds.n_slices - 1):
                image = np.take(desk_volume.data, i, axis=1 if axis == "xz" else 0)
                rings, labels, _ = ref_detect_sections(image)
                rows = ds.slice_index == i
                assert np.array_equal(ds.contours[rows], rings)
                assert np.array_equal(ds.true_label[rows], labels)

    def test_filter_keeps_the_reference_rows(self, desk_detections):
        for ds in desk_detections.values():
            dets = ref_detections(ds)
            assert_rows_equal(
                filter_transverse(ds, 6.0), [d for d in dets if ref_detection_aspect(d) <= 6.0]
            )


@st.composite
def keypoint_rings(draw):
    """Up to 8 noisy ellipses of any elongation and placement, some of
    them collapsed onto a line or a point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 8))
    th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    a = rng.uniform(0.5, 30.0, n)
    b = a / rng.choice([1.0, 1.5, 6.0, 40.0, np.inf], n)
    rings = np.stack([a[:, None] * np.cos(th), b[:, None] * np.sin(th)], axis=2)
    rings = rings + rng.normal(scale=draw(st.sampled_from([0.0, 0.05, 0.5])), size=rings.shape)
    rot = rng.uniform(0, 2 * np.pi, n)
    c, s = np.cos(rot)[:, None, None], np.sin(rot)[:, None, None]
    u, v = rings[..., :1], rings[..., 1:]
    rings = np.concatenate([c * u - s * v, s * u + c * v], axis=2)
    rings[rng.random(n) < 0.1] = rng.uniform(0, 50, 2)  # all ten keypoints on one pixel
    return rings + rng.uniform(0, 200, (n, 1, 2))


class TestFilterTransverse:
    @settings(max_examples=200, deadline=None)
    @given(keypoint_rings())
    def test_stacked_aspects_match_the_reference(self, rings):
        ds = make_dset(np.zeros(len(rings), dtype=int), rings)
        aspects = [ref_detection_aspect(d) for d in ref_detections(ds)]
        # Keeping exactly the rows at or under each reference aspect, and
        # not under the next smaller float, pins every aspect to the bit.
        for a in aspects:
            for bound in (a, np.nextafter(a, 0.0)):
                if np.isfinite(bound) and bound > 1.0:
                    kept = filter_transverse(ds, bound)
                    want = [r.tolist() for r, x in zip(rings, aspects) if x <= bound]
                    assert kept.contours.tolist() == want
        assert len(filter_transverse(ds, 1e300)) == sum(np.isfinite(aspects))

    def test_empty_set_passes(self):
        ds = make_dset(np.zeros(0, dtype=int), np.zeros((0, 10, 2)), n_slices=4)
        assert len(filter_transverse(ds, 6.0)) == 0
        assert len(degrade(ds, DegradeConfig(dropout_rate=0.5, jitter_sigma=1.0), seed=0)) == 0

    def test_max_aspect_must_exceed_one(self):
        with pytest.raises(ConfigError):
            filter_transverse(TestDegrade.toy_set(n_slices=1), 1.0)


class TestDegrade:
    @staticmethod
    def toy_set(n_slices=50, per_slice=4):
        ring = decagon_ring()
        rings = [ring + [10.0 + 12.0 * k, 8.0] for _ in range(n_slices) for k in range(per_slice)]
        return make_dset(
            np.repeat(np.arange(n_slices), per_slice),
            rings,
            true_label=np.tile(np.arange(1, per_slice + 1), n_slices),
        )

    def test_deterministic_given_seed(self):
        ds = self.toy_set()
        p = DegradeConfig(dropout_rate=0.3, jitter_sigma=0.7)
        assert_sets_equal(degrade(ds, p, 11), degrade(ds, p, 11))

    def test_dropout_rate_respected(self):
        ds = self.toy_set(n_slices=250)  # 1000 detections
        kept = degrade(ds, DegradeConfig(dropout_rate=0.2), 0).count()
        # 4-sigma binomial band around 800 of 1000
        assert 749 <= kept <= 851

    def test_zero_params_keep_geometry(self):
        ds = self.toy_set(n_slices=5)
        out = degrade(ds, DegradeConfig(dropout_rate=0.0, jitter_sigma=0.0), 3)
        assert out.count() == ds.count()
        assert np.array_equal(out.contours, ds.contours)
        assert np.all((0.5 <= out.confidence) & (out.confidence < 1.0))

    def test_jitter_moves_keypoints_and_recenters(self):
        ds = self.toy_set(n_slices=5)
        out = degrade(ds, DegradeConfig(jitter_sigma=0.5), 4)
        d0, j0 = ds.contours[0], out.contours[0]
        assert not np.array_equal(d0, j0)
        assert np.allclose(out.centers[0], j0.mean(axis=0))
        rms = np.sqrt(np.mean((j0 - d0) ** 2))
        assert 0.1 < rms < 1.5

    def test_invalid_params(self):
        for bad in ({"dropout_rate": 1.5}, {"dropout_rate": 1.0}, {"jitter_sigma": -1.0},
                    {"confidence_floor": 1.5}):
            with pytest.raises(ConfigError):
                DegradeConfig(**bad)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dropout=st.sampled_from([0.0, 0.2, 0.7]),
        jitter=st.sampled_from([0.0, 0.5, 2.0]),
        floor=st.floats(0.0, 1.0),
    )
    def test_rows_match_the_per_detection_reference(self, seed, dropout, jitter, floor):
        ds = self.toy_set(n_slices=6, per_slice=3)
        params = DegradeConfig(dropout_rate=dropout, jitter_sigma=jitter, confidence_floor=floor)
        assert_rows_equal(degrade(ds, params, seed), ref_degrade(ref_detections(ds), params, seed))


# Finite doubles with -0.0, subnormals and the largest magnitudes.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 1e-7]
)


@st.composite
def written_sets(draw):
    """Up to 5 detections of arbitrary finite values, labels -1 included."""
    n = draw(st.integers(0, 5))
    values = np.array(draw(st.lists(_FINITE, min_size=22 * n, max_size=22 * n)), dtype=float)
    confidence = draw(st.lists(st.floats(0.0, 1.0) | st.sampled_from([-0.0, 5e-324]), min_size=n, max_size=n))
    return DetectionSet(
        axis=draw(st.sampled_from(SLICE_AXES)),
        n_slices=7,
        voxel_size=1.0,
        origin=(0.0, 0.0, 0.0),
        slice_index=sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))),
        contours=values[: 20 * n].reshape(n, 10, 2),
        centers=values[20 * n :].reshape(n, 2),
        confidence=confidence,
        true_label=draw(st.lists(st.integers(-1, 2**40), min_size=n, max_size=n)),
    )


def json_lines(ds) -> str:
    """The detection file text of ``ds``: json.dumps of each record."""
    records = (
        {
            "axis": ds.axis,
            "slice_index": int(ds.slice_index[k]),
            "contour": ds.contours[k].tolist(),
            "center": ds.centers[k].tolist(),
            "confidence": float(ds.confidence[k]),
            "true_label": None if ds.true_label[k] < 0 else int(ds.true_label[k]),
        }
        for k in range(len(ds))
    )
    return "".join(json.dumps(rec) + "\n" for rec in records)


class TestDetectionIO:
    @settings(max_examples=200, deadline=None)
    @given(written_sets())
    def test_bytes_equal_json_dumps_per_record(self, ds):
        with tempfile.TemporaryDirectory() as tmp:
            text = write_detections(ds, Path(tmp) / "det.jsonl").read_text()
        assert text == json_lines(ds)

    # Rows per block: one, an odd size that does not divide the 24 rows,
    # and more than the set holds.
    @pytest.mark.parametrize("block", [1, 7, 25])
    def test_blocks_do_not_change_the_bytes(self, block, tmp_path, monkeypatch):
        ds = degrade(self.labelled_set(), DegradeConfig(dropout_rate=0.0, jitter_sigma=0.7), 2)
        # Null labels end the first block of 7 rows and start the fourth.
        assert len(ds) == 24 and ds.true_label[[6, 21]].tolist() == [-1, -1]
        monkeypatch.setattr(segmenter, "WRITE_BLOCK", block)
        assert write_detections(ds, tmp_path / "det.jsonl").read_text() == json_lines(ds)

    def test_round_trip_exact(self, tmp_path, desk_detections):
        ds = filter_transverse(desk_detections["xz"], 6.0)
        path = tmp_path / "det.jsonl"
        write_detections(ds, path)
        back = read_detections(path, voxel_size=ds.voxel_size, origin=ds.origin)
        assert_sets_equal(back, ds)

    def test_bytes_survive_a_read_write_cycle(self, tmp_path):
        ds = degrade(self.labelled_set(), DegradeConfig(dropout_rate=0.3, jitter_sigma=0.7), 2)
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_detections(ds, first)
        write_detections(read_detections(first), second)
        assert first.read_bytes() == second.read_bytes()
        assert '"true_label": null' in first.read_text()

    def test_records_are_the_per_detection_dicts(self, tmp_path):
        ds = self.labelled_set()
        path = write_detections(ds, tmp_path / "det.jsonl")
        want = [
            {
                "axis": d.axis,
                "slice_index": d.slice_index,
                "contour": [[float(u), float(v)] for u, v in d.contour],
                "center": [float(d.center[0]), float(d.center[1])],
                "confidence": d.confidence,
                "true_label": d.true_label,
            }
            for d in ref_detections(ds)
        ]
        assert path.read_text() == "".join(json.dumps(rec) + "\n" for rec in want)

    @staticmethod
    def labelled_set():
        ds = TestDegrade.toy_set(n_slices=6)
        labels = ds.true_label.copy()
        labels[::3] = -1
        return replace(ds, true_label=labels)

    def test_trailing_empty_slices_need_explicit_count(self, tmp_path):
        padded = replace(TestDegrade.toy_set(n_slices=3), n_slices=5)
        path = tmp_path / "det.jsonl"
        write_detections(padded, path)
        assert read_detections(path).n_slices == 3
        assert read_detections(path, n_slices=5).n_slices == 5
        with pytest.raises(ConfigError, match=r"det\.jsonl: slice_index 2 outside dataset"):
            read_detections(path, n_slices=2)

    def test_bad_json_names_file_and_line(self, tmp_path):
        path = write_detections(TestDegrade.toy_set(n_slices=2), tmp_path / "bad.jsonl")
        first = path.read_text().splitlines()[0]
        path.write_text(f"{first}\nnot json\n")
        with pytest.raises(ConfigError, match=r"bad\.jsonl:2: invalid JSON record"):
            read_detections(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda r: r.pop("contour"), "missing key 'contour'"),
            (lambda r: r.pop("axis"), "missing key 'axis'"),
            (lambda r: r.update(extra=1), "unknown key extra"),
            (lambda r: r.update(true_label="x"), "true_label must be an integer within the float range"),
            (lambda r: r.update(true_label=2.0), "true_label must be an integer within the float range"),
            (lambda r: r.update(true_label=-1), "true_label must be a non-negative integer"),
            (lambda r: r.update(slice_index="1"), "slice_index must be an integer"),
            (lambda r: r["contour"].pop(), "contour must be 10 × 2 finite numbers"),
            (lambda r: r["contour"][3].append(0.0), "contour must be 10 × 2 finite numbers"),
            (lambda r: r.update(center=[1.0]), "center must be 2 finite numbers"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, corrupt, message):
        path = write_detections(TestDegrade.toy_set(n_slices=2), tmp_path / "det.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        corrupt(records[5])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ConfigError, match=rf"det\.jsonl:6: {message}"):
            read_detections(path)

    def test_first_faulty_line_raises(self, tmp_path):
        path = write_detections(TestDegrade.toy_set(n_slices=2), tmp_path / "det.jsonl")
        lines = path.read_text().splitlines()
        faults = {2: '{"axis": "xz"', 4: json.dumps({**json.loads(lines[4]), "confidence": "1"}),
                  6: json.dumps({**json.loads(lines[6]), "true_label": -1})}
        for k in sorted(faults, reverse=True):
            # Each fault lies before those written so far: it is the one that raises.
            lines[k] = faults[k]
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigError, match=rf"det\.jsonl:{k + 1}: "):
                read_detections(path)

    def test_record_must_be_an_object(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match=r"det\.jsonl:1: the root must be a JSON object"):
            read_detections(path)

    def test_mixed_axes_rejected(self, tmp_path):
        path = write_detections(TestDegrade.toy_set(n_slices=2), tmp_path / "det.jsonl")
        lines = path.read_text().splitlines()
        lines[3] = lines[3].replace('"axis": "xz"', '"axis": "yz"')
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="unique slice axis"):
            read_detections(path)

    def test_wrong_slice_filing_rejected(self):
        ring = decagon_ring()
        with pytest.raises(ConfigError, match="sorted by slice"):
            make_dset([2, 1], [ring, ring], n_slices=3)
        with pytest.raises(ConfigError, match="slice_index 2 outside dataset"):
            make_dset([2], [ring], n_slices=2)
