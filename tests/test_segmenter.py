"""Contour tracing, per-slice detection, degradation, and detection IO."""

import json
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from textilemodel.errors import ConfigError, DegenerateGeometryError
from textilemodel.segmenter import (
    DegradeParams,
    DetectionSet,
    degrade,
    detect_batch,
    detect_sections,
    filter_transverse,
    read_detections,
    trace_boundary,
    write_detections,
)
from textilemodel.synthgen import WeaveSpec, generate_interlock
from textilemodel.voxelizer import SLICE_AXES, voxelize


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


class TestTraceBoundary:
    def test_single_pixel_is_a_diamond(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        dense = trace_boundary(mask)
        assert shoelace(dense) == pytest.approx(0.5)
        assert np.allclose(dense.mean(axis=0), [2.0, 2.0])

    def test_rectangle_area_loses_half_pixel_at_corners(self):
        mask = np.zeros((20, 30), dtype=bool)
        mask[4:14, 5:25] = True  # 10 x 20 pixels
        dense = trace_boundary(mask)
        # Midpoint contour = full rectangle minus four corner chamfers.
        assert shoelace(dense) == pytest.approx(10 * 20 - 0.5)
        assert np.allclose(dense.mean(axis=0), [8.5, 14.5], atol=0.1)

    def test_closed_and_in_pixel_units(self):
        mask = ellipse_mask((40, 60), (20.0, 30.0), 12.0, 20.0)
        dense = trace_boundary(mask)
        assert np.all(dense[:, 0] >= 7.0) and np.all(dense[:, 0] <= 33.0)
        # consecutive vertices stay adjacent: edge midpoints of one cell
        steps = np.linalg.norm(np.diff(np.vstack([dense, dense[:1]]), axis=0), axis=1)
        assert steps.max() <= 1.0 + 1e-9

    def test_empty_mask_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            trace_boundary(np.zeros((4, 4), dtype=bool))


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
    as detect_sections passes it to the tracer."""
    shape = (draw(st.integers(1, 14)), draw(st.integers(1, 14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.random(shape) < draw(st.floats(0.2, 0.8))
    grid[rng.integers(shape[0]), rng.integers(shape[1])] = True
    comps, n = ndimage.label(grid, structure=np.ones((3, 3), dtype=bool))
    return ndimage.binary_fill_holes(comps == draw(st.integers(1, n)))


class TestTraceBoundaryProperties:
    @settings(max_examples=300, deadline=None)
    @given(filled_blobs())
    def test_matches_reference_tracer_exactly(self, blob):
        assert np.array_equal(trace_boundary(blob), ref_trace_boundary(blob))

    @settings(max_examples=300, deadline=None)
    @given(filled_blobs())
    def test_signed_area_is_pixel_count_minus_half(self, blob):
        dense = trace_boundary(blob)
        u, v = dense[:, 0], dense[:, 1]
        assert 0.5 * np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v) == blob.sum() - 0.5

    def test_two_components_rejected(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[1, 1] = mask[4, 4] = True
        with pytest.raises(DegenerateGeometryError):
            trace_boundary(mask)

    def test_holed_region_rejected(self):
        mask = np.ones((5, 5), dtype=bool)
        mask[2, 2] = False
        with pytest.raises(DegenerateGeometryError):
            trace_boundary(mask)


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


def ref_degrade(dets, params):
    rng = np.random.default_rng(params.seed)
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


class TestDetectSections:
    def test_ellipse_keypoint_area_near_ideal(self):
        a, b = 20.0, 10.0
        image = ellipse_mask((64, 64), (32.0, 32.0), a, b).astype(np.uint16)
        rings, labels = detect_sections(image, axis="xz", slice_index=0)
        assert rings.shape == (1, 10, 2)
        # 10-keypoint ring underestimates the true ellipse by < 10%.
        ratio = shoelace(rings[0]) / (math.pi * a * b)
        assert 0.9 < ratio < 1.0
        assert np.allclose(rings[0].mean(axis=0), [32.0, 32.0], atol=1e-6)
        assert labels.tolist() == [1]

    def test_two_labels_ordered(self):
        image = np.zeros((40, 40), dtype=np.uint16)
        image[ellipse_mask((40, 40), (10.0, 10.0), 6.0, 4.0)] = 2
        image[ellipse_mask((40, 40), (28.0, 28.0), 6.0, 4.0)] = 1
        rings, labels = detect_sections(image, axis="xz", slice_index=3)
        assert labels.tolist() == [1, 2]
        assert np.allclose(rings[0].mean(axis=0), [28.0, 28.0], atol=0.2)

    def test_interior_holes_are_filled(self):
        image = ellipse_mask((40, 40), (20.0, 20.0), 10.0, 8.0).astype(np.uint16)
        image[18:23, 18:23] = 0  # puncture
        (ring,), _ = detect_sections(image, axis="xz", slice_index=0)
        (full,), _ = detect_sections(
            ellipse_mask((40, 40), (20.0, 20.0), 10.0, 8.0).astype(np.uint16),
            axis="xz",
            slice_index=0,
        )
        assert shoelace(ring) == pytest.approx(shoelace(full))

    def test_min_area_skip_is_logged(self, caplog):
        image = np.zeros((20, 20), dtype=np.uint16)
        image[3:5, 3:5] = 1  # 4 px, below the default 12
        with caplog.at_level(logging.INFO, logger="textilemodel.segmenter"):
            rings, labels = detect_sections(image, axis="xz", slice_index=7)
        assert rings.shape == (0, 10, 2) and labels.shape == (0,)
        assert any("below min area" in r.message for r in caplog.records)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            detect_sections(np.zeros((4, 4, 4), dtype=np.uint16))


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
                rings, labels = detect_sections(image)
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
        assert len(degrade(ds, DegradeParams(dropout_rate=0.5, jitter_sigma=1.0))) == 0

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
        p = DegradeParams(dropout_rate=0.3, jitter_sigma=0.7, seed=11)
        assert_sets_equal(degrade(ds, p), degrade(ds, p))

    def test_dropout_rate_respected(self):
        ds = self.toy_set(n_slices=250)  # 1000 detections
        kept = degrade(ds, DegradeParams(dropout_rate=0.2, seed=0)).count()
        # 4-sigma binomial band around 800 of 1000
        assert 749 <= kept <= 851

    def test_zero_params_keep_geometry(self):
        ds = self.toy_set(n_slices=5)
        out = degrade(ds, DegradeParams(dropout_rate=0.0, jitter_sigma=0.0, seed=3))
        assert out.count() == ds.count()
        assert np.array_equal(out.contours, ds.contours)
        assert np.all((0.5 <= out.confidence) & (out.confidence < 1.0))

    def test_jitter_moves_keypoints_and_recenters(self):
        ds = self.toy_set(n_slices=5)
        out = degrade(ds, DegradeParams(jitter_sigma=0.5, seed=4))
        d0, j0 = ds.contours[0], out.contours[0]
        assert not np.array_equal(d0, j0)
        assert np.allclose(out.centers[0], j0.mean(axis=0))
        rms = np.sqrt(np.mean((j0 - d0) ** 2))
        assert 0.1 < rms < 1.5

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            DegradeParams(dropout_rate=1.5)
        with pytest.raises(ConfigError):
            DegradeParams(jitter_sigma=-1.0)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dropout=st.sampled_from([0.0, 0.2, 0.7]),
        jitter=st.sampled_from([0.0, 0.5, 2.0]),
        floor=st.floats(0.0, 1.0),
    )
    def test_rows_match_the_per_detection_reference(self, seed, dropout, jitter, floor):
        ds = self.toy_set(n_slices=6, per_slice=3)
        params = DegradeParams(dropout, jitter, floor, seed)
        assert_rows_equal(degrade(ds, params), ref_degrade(ref_detections(ds), params))


class TestDetectionIO:
    def test_round_trip_exact(self, tmp_path, desk_detections):
        ds = filter_transverse(desk_detections["xz"], 6.0)
        path = tmp_path / "det.jsonl"
        write_detections(ds, path)
        back = read_detections(path, voxel_size=ds.voxel_size, origin=ds.origin)
        assert_sets_equal(back, ds)

    def test_bytes_survive_a_read_write_cycle(self, tmp_path):
        ds = degrade(self.labelled_set(), DegradeParams(dropout_rate=0.3, jitter_sigma=0.7, seed=2))
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
        path = tmp_path / "bad.jsonl"
        path.write_text('{"axis": "xz"}\nnot json\n')
        with pytest.raises(ConfigError, match=r"bad\.jsonl:2"):
            read_detections(path)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda r: r.pop("contour"), "detection record lacks 'contour'"),
            (lambda r: r.pop("axis"), "detection record lacks 'axis'"),
            (lambda r: r.update(true_label="x"), "true_label must be a non-negative integer"),
            (lambda r: r.update(true_label=2.0), "true_label must be a non-negative integer"),
            (lambda r: r.update(true_label=-1), "true_label must be a non-negative integer"),
            (lambda r: r.update(slice_index="1"), "slice_index must be an integer"),
            (lambda r: r["contour"].pop(), "detection contour must be a finite"),
            (lambda r: r["contour"][3].append(0.0), "detection contour must be a finite"),
            (lambda r: r.update(center=[1.0]), r"detection center must be a \(2,\) array"),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, corrupt, message):
        path = write_detections(TestDegrade.toy_set(n_slices=2), tmp_path / "det.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        corrupt(records[5])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ConfigError, match=rf"det\.jsonl:6: {message}"):
            read_detections(path)

    def test_record_must_be_an_object(self, tmp_path):
        path = tmp_path / "det.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(ConfigError, match=r"det\.jsonl:1: detection record lacks 'axis'"):
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
