"""Contour tracing, per-slice detection, degradation, and detection IO."""

import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from textilemodel.errors import ConfigError, DegenerateGeometryError
from textilemodel.segmenter import (
    DegradeParams,
    DetectionSet,
    SectionDetection,
    degrade,
    detect_batch,
    detect_sections,
    detection_aspect,
    filter_transverse,
    read_detections,
    trace_boundary,
    write_detections,
)
from textilemodel.synthgen import WeaveSpec, generate_interlock
from textilemodel.voxelizer import extract_slices, voxelize


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


class TestDetectSections:
    def test_ellipse_keypoint_area_near_ideal(self):
        a, b = 20.0, 10.0
        image = ellipse_mask((64, 64), (32.0, 32.0), a, b).astype(np.uint16)
        dets = detect_sections(image, axis="xz", slice_index=0)
        assert len(dets) == 1
        det = dets[0]
        # 10-keypoint ring underestimates the true ellipse by < 10%.
        ratio = det.area() / (math.pi * a * b)
        assert 0.9 < ratio < 1.0
        assert np.allclose(det.center, [32.0, 32.0], atol=1e-6)
        assert det.true_label == 1

    def test_two_labels_ordered(self):
        image = np.zeros((40, 40), dtype=np.uint16)
        image[ellipse_mask((40, 40), (10.0, 10.0), 6.0, 4.0)] = 2
        image[ellipse_mask((40, 40), (28.0, 28.0), 6.0, 4.0)] = 1
        dets = detect_sections(image, axis="xz", slice_index=3)
        assert [d.true_label for d in dets] == [1, 2]
        assert all(d.slice_index == 3 for d in dets)
        assert np.allclose(dets[0].center, [28.0, 28.0], atol=0.2)

    def test_interior_holes_are_filled(self):
        image = ellipse_mask((40, 40), (20.0, 20.0), 10.0, 8.0).astype(np.uint16)
        image[18:23, 18:23] = 0  # puncture
        (det,) = detect_sections(image, axis="xz", slice_index=0)
        full = detect_sections(
            ellipse_mask((40, 40), (20.0, 20.0), 10.0, 8.0).astype(np.uint16),
            axis="xz",
            slice_index=0,
        )[0]
        assert det.area() == pytest.approx(full.area())

    def test_min_area_skip_is_logged(self, caplog):
        image = np.zeros((20, 20), dtype=np.uint16)
        image[3:5, 3:5] = 1  # 4 px, below the default 12
        with caplog.at_level(logging.INFO, logger="textilemodel.segmenter"):
            dets = detect_sections(image, axis="xz", slice_index=7)
        assert dets == []
        assert any("below min area" in r.message for r in caplog.records)

    def test_non_2d_rejected(self):
        with pytest.raises(ConfigError):
            detect_sections(np.zeros((4, 4, 4), dtype=np.uint16))


class TestDeskDetection:
    def test_every_interior_slice_detects_all_sections(self, desk_volume):
        ds = filter_transverse(detect_batch(extract_slices(desk_volume, "xz")), 6.0)
        counts = {len(dets) for dets in ds.per_slice}
        assert counts == {8}  # 8 weft yarns cut by every xz slice

    def test_yz_slices_detect_warps_after_filter(self, desk_volume):
        ds = filter_transverse(detect_batch(extract_slices(desk_volume, "yz")), 6.0)
        counts = [len(dets) for dets in ds.per_slice]
        assert set(counts[1:-1]) == {8}  # 8 warp yarns; end slivers may vanish

    def test_centers_land_on_weft_axes(self, desk_volume):
        ds = filter_transverse(detect_batch(extract_slices(desk_volume, "xz")), 6.0)
        mid = ds.per_slice[80]
        assert len(mid) == 8
        # Weft axes lie at world x in {20, 60, 100, 140}, two z levels
        # each; lifted centers must hit those axes within 0.15 px.
        ox = desk_volume.origin[0]
        xs = sorted(ox + (float(d.center[0]) + 0.5) * desk_volume.voxel_size for d in mid)
        for got, want in zip(xs, (20, 20, 60, 60, 100, 100, 140, 140)):
            assert got == pytest.approx(want, abs=0.15)

    def test_aspect_separates_blobs_from_bands(self, desk_volume):
        ds = detect_batch(extract_slices(desk_volume, "yz"))
        aspects = [detection_aspect(d) for d in ds.all()]
        blobs = [a for a in aspects if a < 6.0]
        bands = [a for a in aspects if a >= 6.0]
        assert bands, "weft cuts seen edge-on should look like bands"
        # Transverse cuts top out near 2.8 (tilted end slivers); bands
        # start above 15, so the 6.0 threshold splits them cleanly.
        assert max(blobs) < 3.5 and min(bands) > 15.0


class TestDegrade:
    @staticmethod
    def toy_set(n_slices=50, per_slice=4):
        ring0 = np.column_stack(
            [3.0 * np.cos(np.linspace(0, 2 * np.pi, 10, endpoint=False)),
             2.0 * np.sin(np.linspace(0, 2 * np.pi, 10, endpoint=False))]
        )
        slices = []
        for i in range(n_slices):
            dets = []
            for k in range(per_slice):
                ring = ring0 + np.array([10.0 + 12.0 * k, 8.0])
                dets.append(
                    SectionDetection(
                        axis="xz",
                        slice_index=i,
                        contour=ring,
                        center=ring.mean(axis=0),
                        true_label=k + 1,
                    )
                )
            slices.append(dets)
        return DetectionSet(axis="xz", per_slice=slices, voxel_size=1.0, origin=np.zeros(3))

    def test_deterministic_given_seed(self):
        ds = self.toy_set()
        p = DegradeParams(dropout_rate=0.3, jitter_sigma=0.7, seed=11)
        a, b = degrade(ds, p), degrade(ds, p)
        assert a.count() == b.count()
        for da, db in zip(a.all(), b.all()):
            assert np.array_equal(da.contour, db.contour)
            assert da.confidence == db.confidence

    def test_dropout_rate_respected(self):
        ds = self.toy_set(n_slices=250)  # 1000 detections
        kept = degrade(ds, DegradeParams(dropout_rate=0.2, seed=0)).count()
        # 4-sigma binomial band around 800 of 1000
        assert 749 <= kept <= 851

    def test_zero_params_keep_geometry(self):
        ds = self.toy_set(n_slices=5)
        out = degrade(ds, DegradeParams(dropout_rate=0.0, jitter_sigma=0.0, seed=3))
        assert out.count() == ds.count()
        for da, db in zip(ds.all(), out.all()):
            assert np.array_equal(da.contour, db.contour)
            assert 0.5 <= db.confidence < 1.0

    def test_jitter_moves_keypoints_and_recenters(self):
        ds = self.toy_set(n_slices=5)
        out = degrade(ds, DegradeParams(jitter_sigma=0.5, seed=4))
        d0, j0 = next(ds.all()), next(out.all())
        assert not np.array_equal(d0.contour, j0.contour)
        assert np.allclose(j0.center, j0.contour.mean(axis=0))
        rms = np.sqrt(np.mean((j0.contour - d0.contour) ** 2))
        assert 0.1 < rms < 1.5

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            DegradeParams(dropout_rate=1.5)
        with pytest.raises(ConfigError):
            DegradeParams(jitter_sigma=-1.0)


class TestDetectionIO:
    def test_round_trip_exact(self, tmp_path, desk_volume):
        ds = filter_transverse(detect_batch(extract_slices(desk_volume, "xz")), 6.0)
        path = tmp_path / "det.jsonl"
        write_detections(ds, path)
        back = read_detections(path, voxel_size=ds.voxel_size, origin=ds.origin)
        assert back.axis == ds.axis
        assert back.n_slices == ds.n_slices
        assert back.count() == ds.count()
        for a, b in zip(ds.all(), back.all()):
            assert np.array_equal(a.contour, b.contour)
            assert np.array_equal(a.center, b.center)
            assert a.confidence == b.confidence
            assert a.true_label == b.true_label

    def test_trailing_empty_slices_need_explicit_count(self, tmp_path):
        ds = TestDegrade.toy_set(n_slices=3)
        padded = DetectionSet(
            axis="xz",
            per_slice=list(ds.per_slice) + [[], []],
            voxel_size=1.0,
            origin=np.zeros(3),
        )
        path = tmp_path / "det.jsonl"
        write_detections(padded, path)
        assert read_detections(path).n_slices == 3
        assert read_detections(path, n_slices=5).n_slices == 5

    def test_bad_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"axis": "xz"}\nnot json\n')
        with pytest.raises(ConfigError, match=r"bad\.jsonl:2"):
            read_detections(path)

    def test_wrong_slice_filing_rejected(self):
        det = SectionDetection(
            axis="xz",
            slice_index=2,
            contour=np.column_stack([np.cos(np.linspace(0, 2 * np.pi, 10, endpoint=False)),
                                     np.sin(np.linspace(0, 2 * np.pi, 10, endpoint=False))]),
            center=np.zeros(2),
        )
        with pytest.raises(ConfigError):
            DetectionSet(axis="xz", per_slice=[[det]], voxel_size=1.0, origin=np.zeros(3))
