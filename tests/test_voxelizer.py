"""Label volumes, slicing, pseudo-CT rendering, and raw+JSON persistence."""

import contextlib
import json
import math
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from textilemodel import pipeline, segmenter, voxelizer
from textilemodel.errors import BudgetExceededError, ConfigError
from textilemodel.geometry import Box, ellipse_sections
from textilemodel.pipeline import config_from_dict, run_pipeline
from textilemodel.segmenter import detect_batch, write_detections
from textilemodel.synthgen import WeaveSpec, generate_interlock
from textilemodel.voxelizer import (
    LabelVolume,
    RenderParams,
    _ring_normals,
    compute_dims,
    load_volume,
    paint_labels,
    render_pseudo_ct,
    save_volume,
    slice_count,
    voxelize,
)

from test_segmenter import ref_detect_sections


def desk_model():
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
    return generate_interlock(spec)


@pytest.fixture(scope="module")
def desk_volume():
    return voxelize(desk_model(), voxel_size=1.0)


class TestDims:
    def test_volume_bookkeeping_large_scan(self):
        # 33.96 x 36.28 x 8.04 mm at 20 um.
        box = Box(lo=(0.0, 0.0, 0.0), hi=(33.96, 36.28, 8.04))
        assert compute_dims(box, 0.02) == (1698, 1814, 402)

    def test_volume_bookkeeping_cropped_scan(self):
        box = Box(lo=(0.0, 0.0, 0.0), hi=(28.02, 28.02, 6.42))
        assert compute_dims(box, 0.02) == (1401, 1401, 321)

    def test_slice_counts_sum(self):
        dims = (1698, 1814, 402)
        assert slice_count(dims, "xz") == 1814
        assert slice_count(dims, "yz") == 1698
        assert slice_count(dims, "xz") + slice_count(dims, "yz") == 3512

    def test_exact_multiple_gains_no_voxel(self):
        box = Box(lo=(0.0, 0.0, 0.0), hi=(1.0, 2.0, 3.0))
        assert compute_dims(box, 0.1) == (10, 20, 30)

    def test_bad_axis_and_voxel_size(self):
        with pytest.raises(ConfigError):
            slice_count((1, 1, 1), "xy")
        with pytest.raises(ConfigError):
            compute_dims(Box(lo=(0, 0, 0), hi=(1, 1, 1)), 0.0)


class TestPaint:
    @staticmethod
    def cylinder_geom(yarn_id, radius, length, center_yz, n_rings=7):
        xs = np.linspace(0.0, length, n_rings)
        centers = np.column_stack([xs, np.broadcast_to(center_yz, (n_rings, 2))])
        secs = ellipse_sections(centers, [(1.0, 0.0, 0.0)] * n_rings, radius, radius, stations=xs)
        return yarn_id, secs.rings, secs.centers

    def test_cylinder_volume_matches_ring_tube(self):
        # The painted solid is the loft of the 10-vertex rings, so the
        # voxel count tracks the inscribed-polygon tube, not pi r^2 L.
        r, length = 12.0, 60.0
        geom = self.cylinder_geom(1, r, length, (30.0, 30.0))
        dims = (60, 60, 60)
        grid = paint_labels([geom], dims, np.zeros(3), 1.0)
        count = int((grid == 1).sum())
        tube = 2.938926261462366 * r * r * length  # decagon area x length
        assert abs(count - tube) / tube < 0.03

    def test_overlap_resolved_by_nearer_center(self):
        a = self.cylinder_geom(1, 6.0, 30.0, (12.0, 15.0))
        b = self.cylinder_geom(2, 6.0, 30.0, (18.0, 15.0))
        dims = (30, 30, 30)
        grid = paint_labels([a, b], dims, np.zeros(3), 1.0)
        ys = np.arange(30) + 0.5
        # Columns clearly nearer one axis get that label everywhere.
        assert set(np.unique(grid[:, ys < 12.0, :])) <= {0, 1}
        assert set(np.unique(grid[:, ys > 18.0, :])) <= {0, 2}

    def test_overlap_independent_of_paint_order(self):
        a = self.cylinder_geom(1, 6.0, 30.0, (12.0, 15.0))
        b = self.cylinder_geom(2, 6.0, 30.0, (18.0, 15.0))
        dims = (30, 30, 30)
        fwd = paint_labels([a, b], dims, np.zeros(3), 1.0)
        rev = paint_labels([b, a], dims, np.zeros(3), 1.0)
        assert np.array_equal(fwd, rev)

    def test_budget_checked_before_allocation(self):
        model = desk_model()
        with pytest.raises(BudgetExceededError):
            voxelize(model, voxel_size=1.0, budget=1000)


class TestVoxelize:
    def test_desk_dims_and_labels(self, desk_volume):
        assert desk_volume.dims == (163, 160, 80)
        labels, counts = np.unique(desk_volume.data, return_counts=True)
        assert labels.tolist() == list(range(17))  # 0 matrix + 16 yarns
        per_yarn = counts[1:]
        assert min(per_yarn) > 8000 and max(per_yarn) < 9500

    def test_every_yarn_present_in_label_map(self, desk_volume):
        assert sorted(desk_volume.label_map) == list(range(1, 17))
        families = set(desk_volume.label_map.values())
        assert families == {"warp", "weft"}

    def test_data_is_write_locked(self, desk_volume):
        with pytest.raises(ValueError):
            desk_volume.data[0, 0, 0] = 3


class TestSlices:
    def test_slice_shapes(self, desk_volume):
        # Slice j of xz is the image data[:, j, :], slice i of yz is data[i].
        for axis, images in (("xz", np.moveaxis(desk_volume.data, 1, 0)), ("yz", desk_volume.data)):
            ds = detect_batch(desk_volume, axis)
            assert ds.n_slices == slice_count(desk_volume.dims, axis) == len(images)
            for i in (0, len(images) // 2):
                rings, labels, _ = ref_detect_sections(images[i])
                rows = ds.slice_index == i
                assert np.array_equal(ds.contours[rows], rings)
                assert np.array_equal(ds.true_label[rows], labels)

    def test_unknown_axis(self, desk_volume):
        with pytest.raises(ConfigError):
            detect_batch(desk_volume, "xy")


def read_gray(base):
    """The float32 data of the gray volume at ``base``, read from its
    ``.raw`` file in the shape its sidecar gives."""
    meta = json.loads(Path(base).with_suffix(".json").read_text())
    assert (meta["kind"], meta["dtype"]) == ("gray", "<f4")
    return np.fromfile(Path(base).with_suffix(".raw"), dtype="<f4").reshape(meta["dims"])


def rendered(volume, params, seed, base):
    """The gray data ``render_pseudo_ct`` writes at ``base``, read back."""
    render_pseudo_ct(volume, params, seed, base)
    return read_gray(base)


class TestRender:
    def test_deterministic_and_in_range(self, desk_volume, tmp_path):
        p = RenderParams()
        a = rendered(desk_volume, p, 5, tmp_path / "a")
        b = rendered(desk_volume, p, 5, tmp_path / "b")
        assert np.array_equal(a, b)
        assert a.dtype == np.float32
        assert a.min() >= 0.0 and a.max() <= 1.0

    def test_levels_separate_matrix_and_yarn(self, desk_volume, tmp_path):
        p = RenderParams(noise_sigma=0.0, warp_contrast=0.0, weft_contrast=0.0)
        ct = rendered(desk_volume, p, 0, tmp_path / "ct")
        matrix = ct[desk_volume.data == 0]
        yarn = ct[desk_volume.data > 0]
        assert np.allclose(matrix, 0.35) and np.allclose(yarn, 0.55)

    def test_noise_sigma_recovered_from_seed_pair(self, desk_volume, tmp_path):
        # Independent draws: std of the difference is sigma * sqrt(2).
        a = rendered(desk_volume, RenderParams(), 1, tmp_path / "a")
        b = rendered(desk_volume, RenderParams(), 2, tmp_path / "b")
        est = float((a.astype(np.float64) - b.astype(np.float64)).std() / math.sqrt(2))
        assert abs(est - 0.02) / 0.02 < 0.15

    def test_texture_oriented_per_family(self, desk_volume, tmp_path):
        p = RenderParams(noise_sigma=0.0)
        ct = rendered(desk_volume, p, 0, tmp_path / "ct")
        yarn = ct[desk_volume.data > 0]
        assert yarn.std() > 0.01  # fiber texture modulates yarn voxels

    def test_writes_what_save_volume_writes(self, desk_volume, tmp_path):
        paths = render_pseudo_ct(desk_volume, RenderParams(), 3, tmp_path / "sub" / "ct")
        assert paths == (tmp_path / "sub" / "ct.raw", tmp_path / "sub" / "ct.json")
        back = read_gray(tmp_path / "sub" / "ct")
        assert back.dtype == np.float32 and back.shape == desk_volume.dims
        meta = json.loads(paths[1].read_text())
        assert meta["voxel_size"] == desk_volume.voxel_size
        assert np.array_equal(meta["origin"], desk_volume.origin)
        # The labels' raw and sidecar layout, with the gray kind and dtype.
        assert save_volume(desk_volume, tmp_path / "labels") == (tmp_path / "labels.raw", tmp_path / "labels.json")
        labels = json.loads((tmp_path / "labels.json").read_text())
        labels.pop("label_map")
        assert meta == {**labels, "kind": "gray", "dtype": "<f4"}
        assert paths[0].stat().st_size == 2 * (tmp_path / "labels.raw").stat().st_size
        with pytest.raises(ConfigError, match=r"ct\.json: kind must be 'labels', got 'gray'"):
            load_volume(tmp_path / "sub" / "ct")

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            RenderParams(matrix_level=1.5)
        with pytest.raises(ConfigError):
            RenderParams(noise_sigma=-0.1)


class TestVolumeIO:
    def test_label_round_trip_bit_exact(self, desk_volume, tmp_path):
        save_volume(desk_volume, tmp_path / "labels")
        back = load_volume(tmp_path / "labels")
        assert isinstance(back, LabelVolume)
        assert np.array_equal(back.data, desk_volume.data)
        assert back.voxel_size == desk_volume.voxel_size
        assert np.array_equal(back.origin, desk_volume.origin)
        assert back.label_map == desk_volume.label_map

    def test_sidecar_units(self, desk_volume, tmp_path):
        import json

        save_volume(desk_volume, tmp_path / "labels")
        meta = json.loads((tmp_path / "labels.json").read_text())
        assert meta["schema"] == 1
        assert meta["dims"] == [163, 160, 80]
        assert meta["voxel_size_um"] == pytest.approx(20.0)
        assert meta["dtype"] == "<u2"


@st.composite
def label_grids(draw):
    """Random uint16 grids with a few labels, often far apart (so many
    labels up to the largest are absent), and whole faces painted with
    one label."""
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(st.sampled_from([1, 3, 9, 300, 65535]))
    labels = np.r_[0, rng.choice(np.arange(1, top + 1), size=min(top, 4), replace=False)]
    data = np.where(rng.random(shape) < draw(st.floats(0.0, 1.0)), rng.choice(labels, shape), 0)
    for axis in range(3):
        for end in (0, -1):
            if rng.random() < 0.3:
                np.moveaxis(data, axis, 0)[end] = rng.choice(labels)
    return data.astype(np.uint16)


class TestLabelBoxes:
    @settings(max_examples=300, deadline=None)
    @given(label_grids())
    def test_match_ndimage_find_objects(self, data):
        volume = LabelVolume(data=data, voxel_size=1.0, origin=np.zeros(3), label_map={})
        assert volume.label_boxes == ndimage.find_objects(data)

    def test_desk_boxes_match_ndimage_find_objects(self, desk_volume):
        assert desk_volume.label_boxes == ndimage.find_objects(desk_volume.data)


# References for the streamed and batched kernels: the renderer that
# built whole-grid float64 temporaries, the painter that kept a
# whole-grid float64 distance beside the labels, and the painter that
# claimed voxels one segment at a time into one owner grid.


def ref_render_pseudo_ct(volume, params, seed):
    nx, ny, nz = volume.dims
    vs = volume.voxel_size
    ox, oy, oz = volume.origin
    g = np.full(volume.dims, params.matrix_level, dtype=np.float64)

    warp_ids = [i for i, fam in volume.label_map.items() if fam == "warp"]
    weft_ids = [i for i, fam in volume.label_map.items() if fam == "weft"]
    warp_mask = np.isin(volume.data, warp_ids)
    weft_mask = np.isin(volume.data, weft_ids)

    two_pi = 2.0 * np.pi / params.texture_period
    xs = np.sin(two_pi * (ox + (np.arange(nx) + 0.5) * vs))
    ys = np.sin(two_pi * (oy + (np.arange(ny) + 0.5) * vs))
    zs = np.sin(two_pi * (oz + (np.arange(nz) + 0.5) * vs))

    if warp_mask.any():
        tex = 0.5 + 0.5 * ys[None, :, None] * zs[None, None, :]
        g = np.where(warp_mask, params.yarn_level + params.warp_contrast * tex, g)
    if weft_mask.any():
        tex = 0.5 + 0.5 * xs[:, None, None] * zs[None, None, :]
        g = np.where(weft_mask, params.yarn_level + params.weft_contrast * tex, g)

    if params.ring_amplitude > 0:
        cx = ox + nx * vs / 2.0
        cy = oy + ny * vs / 2.0
        px = ox + (np.arange(nx) + 0.5) * vs - cx
        py = oy + (np.arange(ny) + 0.5) * vs - cy
        r = np.hypot(px[:, None], py[None, :])
        g += params.ring_amplitude * np.sin(2.0 * np.pi * r / params.ring_period)[:, :, None]

    rng = np.random.default_rng(seed)
    g += rng.normal(0.0, params.noise_sigma, size=volume.dims)
    return np.clip(g, 0.0, 1.0).astype(np.float32)


def ref_paint_segment(labels, best_d2, yarn_id, r0, r1, c0, c1, n0, n1, origin, voxel_size):
    dims = labels.shape
    lo = np.minimum(r0.min(axis=0), r1.min(axis=0))
    hi = np.maximum(r0.max(axis=0), r1.max(axis=0))
    i_lo = np.maximum(np.floor((lo - origin) / voxel_size - 0.5).astype(int), 0)
    i_hi = np.minimum(np.ceil((hi - origin) / voxel_size - 0.5).astype(int), np.array(dims) - 1)
    if np.any(i_lo > i_hi):
        return
    ax = [origin[d] + (np.arange(i_lo[d], i_hi[d] + 1) + 0.5) * voxel_size for d in range(3)]
    px, py, pz = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([px, py, pz], axis=-1).reshape(-1, 3)

    d0 = (pts - c0) @ n0
    d1 = (pts - c1) @ n1
    between = (d0 >= 0.0) & (d1 < 0.0)
    if not between.any():
        return
    p = pts[between]
    s = (d0[between] / (d0[between] - d1[between]))[:, None]

    ring = r0[None, :, :] + s[:, :, None] * (r1 - r0)[None, :, :]
    normal = n0 + s * (n1 - n0)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)

    zdot = normal[:, 2]
    ref = np.where(
        (np.abs(zdot) > 0.99)[:, None], [[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]
    )
    e2 = ref - (ref * normal).sum(axis=1, keepdims=True) * normal
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    e1 = np.cross(e2, normal)

    rel = ring - p[:, None, :]
    u = (rel * e1[:, None, :]).sum(axis=2)
    v = (rel * e2[:, None, :]).sum(axis=2)

    u2, v2 = np.roll(u, -1, axis=1), np.roll(v, -1, axis=1)
    straddle = (v > 0.0) != (v2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_hit = u + (0.0 - v) * (u2 - u) / (v2 - v)
    crossings = (straddle & (x_hit > 0.0)).sum(axis=1)
    inside = (crossings % 2) == 1
    if not inside.any():
        return

    d2 = np.minimum(
        ((p - c0) ** 2).sum(axis=1), ((p - c1) ** 2).sum(axis=1)
    )

    sub_shape = tuple(i_hi - i_lo + 1)
    idx = np.flatnonzero(between)[inside]
    cand_d2 = d2[inside]
    ii, jj, kk = np.unravel_index(idx, sub_shape)
    ii = ii + i_lo[0]
    jj = jj + i_lo[1]
    kk = kk + i_lo[2]
    cur_lab = labels[ii, jj, kk]
    cur_d2 = best_d2[ii, jj, kk]
    take = (cand_d2 < cur_d2) | ((cand_d2 == cur_d2) & (yarn_id < cur_lab))
    labels[ii[take], jj[take], kk[take]] = yarn_id
    best_d2[ii[take], jj[take], kk[take]] = cand_d2[take]


def ref_paint_labels(yarn_geoms, dims, origin, voxel_size):
    labels = np.zeros(dims, dtype=np.uint16)
    best_d2 = np.full(dims, np.inf, dtype=np.float64)
    origin = np.asarray(origin, dtype=float).reshape(3)
    for yarn_id, rings, centers in yarn_geoms:
        rings = np.asarray(rings, dtype=float)
        centers = np.asarray(centers, dtype=float)
        normals = _ring_normals(rings, centers)
        for k in range(len(rings) - 1):
            ref_paint_segment(
                labels, best_d2, yarn_id, rings[k], rings[k + 1], centers[k],
                centers[k + 1], normals[k], normals[k + 1], origin, voxel_size,
            )
    return labels


def ref_serial_paint_segment(owner, seg, seg_yarn, seg_c0, seg_c1, r0, r1, n0, n1, origin, voxel_size):
    dims = owner.shape
    yarn_id = seg_yarn[seg]
    c0, c1 = seg_c0[seg], seg_c1[seg]
    lo = np.minimum(r0.min(axis=0), r1.min(axis=0))
    hi = np.maximum(r0.max(axis=0), r1.max(axis=0))
    i_lo = np.maximum(np.floor((lo - origin) / voxel_size - 0.5).astype(int), 0)
    i_hi = np.minimum(np.ceil((hi - origin) / voxel_size - 0.5).astype(int), np.array(dims) - 1)
    if np.any(i_lo > i_hi):
        return
    ax = [origin[d] + (np.arange(i_lo[d], i_hi[d] + 1) + 0.5) * voxel_size for d in range(3)]
    px, py, pz = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([px, py, pz], axis=-1).reshape(-1, 3)

    d0 = (pts - c0) @ n0
    d1 = (pts - c1) @ n1
    between = (d0 >= 0.0) & (d1 < 0.0)
    if not between.any():
        return
    p = pts[between]
    s = (d0[between] / (d0[between] - d1[between]))[:, None]

    ring = r0[None, :, :] + s[:, :, None] * (r1 - r0)[None, :, :]
    normal = n0 + s * (n1 - n0)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)

    zdot = normal[:, 2]
    ref = np.where(
        (np.abs(zdot) > 0.99)[:, None], [[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]
    )
    e2 = ref - (ref * normal).sum(axis=1, keepdims=True) * normal
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    e1 = np.cross(e2, normal)

    rel = ring - p[:, None, :]
    u = (rel * e1[:, None, :]).sum(axis=2)
    v = (rel * e2[:, None, :]).sum(axis=2)

    u2, v2 = np.roll(u, -1, axis=1), np.roll(v, -1, axis=1)
    straddle = (v > 0.0) != (v2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_hit = u + (0.0 - v) * (u2 - u) / (v2 - v)
    crossings = (straddle & (x_hit > 0.0)).sum(axis=1)
    inside = (crossings % 2) == 1
    if not inside.any():
        return

    p = p[inside]
    cand_d2 = np.minimum(((p - c0) ** 2).sum(axis=1), ((p - c1) ** 2).sum(axis=1))
    sub_shape = tuple(i_hi - i_lo + 1)
    idx = np.flatnonzero(between)[inside]
    ii, jj, kk = np.unravel_index(idx, sub_shape)
    ii = ii + i_lo[0]
    jj = jj + i_lo[1]
    kk = kk + i_lo[2]
    cur = owner[ii, jj, kk]
    cur_d2 = np.full(len(cur), np.inf)
    owned = cur > 0
    if owned.any():
        rival = cur[owned]
        q = p[owned]
        cur_d2[owned] = np.minimum(
            ((q - seg_c0[rival]) ** 2).sum(axis=1), ((q - seg_c1[rival]) ** 2).sum(axis=1)
        )
    take = (cand_d2 < cur_d2) | ((cand_d2 == cur_d2) & (yarn_id < seg_yarn[cur]))
    owner[ii[take], jj[take], kk[take]] = seg


def ref_serial_paint_labels(yarn_geoms, dims, origin, voxel_size):
    """One segment at a time into one grid of owner segment ids."""
    origin = np.asarray(origin, dtype=float).reshape(3)
    geoms = [
        (yarn_id, np.asarray(rings, dtype=float), np.asarray(centers, dtype=float))
        for yarn_id, rings, centers in yarn_geoms
    ]
    seg_yarn = np.array(
        [0] + [yarn_id for yarn_id, rings, _ in geoms for _ in range(len(rings) - 1)],
        dtype=np.uint16,
    )
    seg_c0 = np.concatenate([np.zeros((1, 3))] + [centers[:-1] for _, _, centers in geoms])
    seg_c1 = np.concatenate([np.zeros((1, 3))] + [centers[1:] for _, _, centers in geoms])
    owner = np.zeros(dims, dtype=np.min_scalar_type(len(seg_yarn) - 1))
    seg = 0
    for _, rings, centers in geoms:
        normals = _ring_normals(rings, centers)
        for k in range(len(rings) - 1):
            seg += 1
            ref_serial_paint_segment(
                owner, seg, seg_yarn, seg_c0, seg_c1, rings[k], rings[k + 1],
                normals[k], normals[k + 1], origin, voxel_size,
            )
    return seg_yarn[owner]


def random_label_volume(rng, nx, label_map):
    data = rng.integers(0, 6, size=(nx, 7, 5)).astype(np.uint16)
    origin = rng.uniform(-5.0, 5.0, size=3)
    return LabelVolume(
        data=data, voxel_size=float(rng.uniform(0.5, 1.5)), origin=origin, label_map=label_map
    )


MIXED = {1: "warp", 2: "weft", 3: "warp", 4: "weft", 5: "weft"}


class TestRenderMatchesReference:
    # Voxel budgets for (nx, 7, 5) volumes, whose x-planes hold 35
    # voxels: under one plane, one plane, three planes and a voxel (an
    # odd slab that divides none of the nx but 33), 16 planes, and more
    # than the whole volume.
    @pytest.mark.parametrize("nx", [1, 15, 16, 17, 33])
    @pytest.mark.parametrize("budget", [17, 35, 3 * 35 + 1, 16 * 35, 2**16])
    @pytest.mark.parametrize("ring_amplitude", [0.0, 0.1])
    def test_slab_edges_and_rings(self, nx, budget, ring_amplitude, tmp_path, monkeypatch):
        monkeypatch.setattr(voxelizer, "RENDER_BLOCK", budget)
        rng = np.random.default_rng(nx)
        vol = random_label_volume(rng, nx, MIXED)
        p = RenderParams(ring_amplitude=ring_amplitude, ring_period=3.0)
        got = rendered(vol, p, nx + 7, tmp_path / "ct")
        assert got.tobytes() == ref_render_pseudo_ct(vol, p, nx + 7).tobytes()

    @pytest.mark.parametrize(
        "label_map",
        [{1: "weft", 2: "weft"}, {1: "warp", 3: "warp"}, {}],
        ids=["no-warp", "no-weft", "neither"],
    )
    def test_missing_families(self, label_map, tmp_path):
        vol = random_label_volume(np.random.default_rng(3), 40, label_map)
        p = RenderParams()
        assert np.array_equal(rendered(vol, p, 9, tmp_path / "ct"), ref_render_pseudo_ct(vol, p, 9))

    def test_desk_volume(self, desk_volume, tmp_path):
        p = RenderParams(ring_amplitude=0.05)
        assert np.array_equal(
            rendered(desk_volume, p, 4, tmp_path / "ct"), ref_render_pseudo_ct(desk_volume, p, 4)
        )


def tube_geom(yarn_id, start, direction, length, a, b, n_rings, jitter):
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    ts = np.linspace(0.0, length, n_rings)
    centers = [np.asarray(start) + t * direction + j for t, j in zip(ts, jitter)]
    secs = ellipse_sections(centers, [direction] * n_rings, a, b, stations=ts)
    return yarn_id, secs.rings, secs.centers


def tilted_tube(rng, yarn_id, direction, mid, voxel_size):
    """A random elliptic tube 30 voxels long along ``direction``, near ``mid``."""
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    length = 30.0 * voxel_size
    n_rings = int(rng.integers(2, 6))
    b = rng.uniform(1.5, 4.0) * voxel_size
    a = b * rng.uniform(1.0, 1.8)
    jitter = rng.normal(scale=0.3 * voxel_size, size=(n_rings, 3))
    start = mid - direction * length / 2.0 + rng.normal(scale=2.0 * voxel_size, size=3)
    return tube_geom(yarn_id, start, direction, length, a, b, n_rings, jitter)


@st.composite
def crossing_tubes(draw):
    """Two to four random elliptic tubes through the middle of a small grid."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    voxel_size = draw(st.sampled_from([0.7, 1.0, 1.3]))
    dims = (18, 20, 16)
    origin = rng.uniform(-3.0, 3.0, size=3)
    mid = origin + np.array(dims) * voxel_size / 2.0
    ids = rng.choice(np.arange(1, 9), size=draw(st.integers(2, 4)), replace=False)
    geoms = []
    for yid in ids:
        geoms.append(tilted_tube(rng, int(yid), rng.normal(size=3), mid, voxel_size))
    return geoms, dims, origin, voxel_size


def assert_paints_like_references(geoms, dims, origin, voxel_size):
    got = paint_labels(geoms, dims, origin, voxel_size)
    assert got.dtype == np.uint16 and got.shape == tuple(dims)
    assert np.array_equal(got, ref_serial_paint_labels(geoms, dims, origin, voxel_size))
    assert np.array_equal(got, ref_paint_labels(geoms, dims, origin, voxel_size))
    # Order independence: the label is the (d^2, yarn id) minimum.
    assert np.array_equal(got, paint_labels(geoms[::-1], dims, origin, voxel_size))
    return got


# Blocks from one segment at a time and ray-cast chunks from a few
# points, up to the shipped constants.
block_sizes = st.sampled_from([1, 40, 300, 2**14])
chunk_sizes = st.sampled_from([7, 64, 2**12])


@contextlib.contextmanager
def paint_in_blocks(block, chunk):
    """Paint with the given segment-block and ray-chunk sizes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voxelizer, "PAINT_BLOCK", block)
        mp.setattr(voxelizer, "RAY_CHUNK", chunk)
        yield


@st.composite
def on_plane_tubes(draw):
    """Tubes whose sections are centred on voxel centres with normals
    along lattice directions, so section planes pass through rows of
    voxel centres: d0 is exactly 0 at each section centre and within
    rounding of 0 across the plane."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    voxel_size = draw(st.sampled_from([0.5, 1.0]))
    dims = (17, 17, 17)
    origin = np.full(3, -8.5 * voxel_size)  # voxel centres at (i - 8) * voxel_size
    # Axis, face-diagonal and body-diagonal steps between section centres.
    lattice = [np.array(d) - 1 for d in np.ndindex(3, 3, 3) if d != (1, 1, 1)]
    geoms = []
    for yid in rng.choice(np.arange(1, 9), size=draw(st.integers(1, 3)), replace=False):
        step = lattice[rng.integers(len(lattice))] * int(rng.integers(1, 4))
        n_rings = int(rng.integers(2, 6))
        first = rng.integers(-4, 5, size=3) - step * (n_rings // 2)
        b = rng.uniform(1.5, 3.5) * voxel_size
        secs = ellipse_sections(
            [(first + k * step) * voxel_size for k in range(n_rings)],
            [step] * n_rings,
            a=[b * rng.uniform(1.0, 1.6) for _ in range(n_rings)],
            b=b,
            stations=np.arange(n_rings, dtype=float),
        )
        geoms.append((int(yid), secs.rings, secs.centers))
    return geoms, dims, origin, voxel_size


@st.composite
def vertical_tubes(draw):
    """Tubes running within about 17 degrees of the z axis, so section
    normals fall on both sides of the |n_z| = 0.99 frame switch."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    voxel_size = draw(st.sampled_from([0.7, 1.0]))
    dims = (18, 18, 20)
    origin = rng.uniform(-3.0, 3.0, size=3)
    mid = origin + np.array(dims) * voxel_size / 2.0
    geoms = []
    for yid in rng.choice(np.arange(1, 9), size=draw(st.integers(1, 3)), replace=False):
        tilt = rng.normal(size=2)
        tilt *= rng.uniform(0.0, 0.3) / np.linalg.norm(tilt)
        direction = [tilt[0], tilt[1], rng.choice([-1.0, 1.0])]
        geoms.append(tilted_tube(rng, int(yid), direction, mid, voxel_size))
    return geoms, dims, origin, voxel_size


@st.composite
def straying_tubes(draw):
    """Crossing tubes plus one tube wholly outside the grid and one
    through a corner, whose boxes are empty or clipped to a few voxels."""
    geoms, dims, origin, voxel_size = draw(crossing_tubes())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    extent = np.array(dims) * voxel_size
    used = {yid for yid, _, _ in geoms}
    free = [yid for yid in range(1, 12) if yid not in used]
    away = origin + extent / 2.0
    away[rng.integers(3)] += rng.choice([-1.0, 1.0]) * 2.0 * extent.max()
    corner = origin + extent * rng.integers(0, 2, size=3)
    for yid, mid in zip(free, (away, corner)):
        geoms.append(tilted_tube(rng, yid, rng.normal(size=3), mid, voxel_size))
    order = rng.permutation(len(geoms))
    return [geoms[i] for i in order], dims, origin, voxel_size


@st.composite
def mirror_pairs(draw):
    """Two equal tubes mirrored about a plane of voxel centres: voxels on
    that plane reach both yarns at exactly the same squared distance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap = float(draw(st.integers(2, 4)))
    radius = float(draw(st.integers(5, 7)))
    ids = [int(i) for i in rng.choice(np.arange(1, 9), size=2, replace=False)]
    geoms = [
        TestPaint.cylinder_geom(yid, radius, 24.0, (15.5 + sign * gap, 12.0), n_rings=5)
        for yid, sign in zip(ids, (-1.0, 1.0))
    ]
    return geoms, (24, 31, 24), np.zeros(3), 1.0


class TestPaintMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(crossing_tubes())
    def test_overlapping_random_tubes(self, case):
        assert_paints_like_references(*case)

    @settings(max_examples=40, deadline=None)
    @given(crossing_tubes(), block_sizes, chunk_sizes)
    def test_many_blocks_and_chunks(self, case, block, chunk):
        with paint_in_blocks(block, chunk):
            assert_paints_like_references(*case)

    @settings(max_examples=40, deadline=None)
    @given(on_plane_tubes(), block_sizes)
    def test_voxel_centres_on_section_planes(self, case, block):
        with paint_in_blocks(block, 2**12):
            assert_paints_like_references(*case)

    @settings(max_examples=30, deadline=None)
    @given(vertical_tubes())
    def test_near_vertical_tubes(self, case):
        assert_paints_like_references(*case)

    @settings(max_examples=30, deadline=None)
    @given(straying_tubes(), block_sizes)
    def test_boxes_outside_and_clipped_by_the_grid(self, case, block):
        geoms, dims, origin, voxel_size = case
        tab = voxelizer._Segments.build(
            [(y, np.asarray(r), np.asarray(c)) for y, r, c in geoms], dims, origin, voxel_size
        )
        assert (tab.shape[1:] == 0).all(axis=1).any()
        with paint_in_blocks(block, 2**12):
            assert_paints_like_references(*case)

    @settings(max_examples=20, deadline=None)
    @given(mirror_pairs(), block_sizes)
    def test_mirror_ties_in_any_blocking(self, case, block):
        geoms, dims, origin, voxel_size = case
        with paint_in_blocks(block, 2**12):
            got = assert_paints_like_references(*case)
        # On the mirror plane y = 15.5, voxels inside both tubes are ties.
        alone = [paint_labels([g], dims, origin, voxel_size)[:, 15, :] > 0 for g in geoms]
        both = alone[0] & alone[1]
        assert both.sum() > 50
        assert (got[:, 15, :][both] == min(g[0] for g in geoms)).all()

    @settings(max_examples=20, deadline=None)
    @given(crossing_tubes(), st.integers(0, 3))
    def test_rings_of_different_sizes(self, case, which):
        # One yarn's rings keep every other point: pentagons among decagons.
        geoms, dims, origin, voxel_size = case
        k = which % len(geoms)
        yid, rings, centers = geoms[k]
        geoms[k] = (yid, rings[:, ::2], centers)
        assert_paints_like_references(geoms, dims, origin, voxel_size)

    @pytest.mark.parametrize("order", [(2, 5), (5, 2)])
    def test_mirror_pair_ties_go_to_the_smaller_id(self, order):
        # Axes at y = 12.5 and 18.5 put the voxel row y = 15.5 exactly
        # between them: both yarns reach it at the same squared distance.
        axes = {2: 12.5, 5: 18.5}
        geoms = [
            TestPaint.cylinder_geom(yid, 6.0, 30.0, (axes[yid], 15.0)) for yid in order
        ]
        dims = (30, 30, 30)
        got = paint_labels(geoms, dims, np.zeros(3), 1.0)
        tie_row = got[:, 15, :]
        assert (tie_row == 2).sum() > 100 and not (tie_row == 5).any()
        assert np.array_equal(got, ref_paint_labels(geoms, dims, np.zeros(3), 1.0))
        assert np.array_equal(got, ref_serial_paint_labels(geoms, dims, np.zeros(3), 1.0))

    def test_no_yarns_paint_nothing(self):
        got = paint_labels([], (3, 4, 5), np.zeros(3), 1.0)
        assert got.dtype == np.uint16 and got.shape == (3, 4, 5) and not got.any()


class TestPaintBlocks:
    def test_example(self):
        with paint_in_blocks(12, 2**12):
            sizes = np.array([0, 4, 4, 1, 1, 1, 0, 3, 20, 2, 1])
            blocks = [b.tolist() for b in voxelizer._blocks(sizes)]
        assert blocks == [[1, 2], [3, 4, 5], [7], [8], [9], [10]]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=60), st.sampled_from([1, 10, 64, 500]))
    def test_blocks_cover_boxes_in_order_within_the_bound(self, sizes, limit):
        sizes = np.array([0] + sizes)
        with paint_in_blocks(limit, 2**12):
            blocks = list(voxelizer._blocks(sizes))
        assert np.concatenate(blocks or [[]]).tolist() == np.flatnonzero(sizes).tolist()
        for block in blocks:
            m = sizes[block]
            assert len(block) == 1 or len(block) * m.max() <= limit
            # One-voxel boxes never share a block with larger ones: numpy
            # takes their plane distances as a BLAS dot, not a gemv.
            assert (m == 1).all() or (m > 1).all()


def traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` allocates, as tracemalloc sees it.

    One untraced call first lets numpy's one-off lazy set-up finish, so
    the peak does not depend on which tests ran before.
    """
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestPeakMemory:
    # numpy reports its buffers to tracemalloc, so these peaks are exact
    # and repeat from run to run.

    @pytest.mark.parametrize("copies", [1, 2], ids=["desk", "twice-as-long"])
    def test_render_peak_is_a_few_slabs(self, desk_volume, copies, tmp_path):
        # The slabs go to disk as they are rendered: the work arrays of
        # one slab of RENDER_BLOCK voxels are held at a time, whatever
        # the volume's length in x.
        data = np.concatenate([desk_volume.data] * copies)
        vol = LabelVolume(data, desk_volume.voxel_size, desk_volume.origin, desk_volume.label_map)
        _, peak = traced_peak(render_pseudo_ct, vol, RenderParams(), 1, tmp_path / "ct")
        assert peak < 3 * voxelizer.RENDER_BLOCK * np.dtype(np.float64).itemsize

    @pytest.mark.parametrize("copies", [1, 4])
    def test_write_detections_peak_is_one_block(self, desk_volume, copies, tmp_path):
        # One block of rows is formatted at a time: the bound is per row
        # of a block, not per row of the set.
        ds = detect_batch(desk_volume, "xz")
        rows = {name: np.concatenate([getattr(ds, name)] * copies) for name in segmenter._ROW_FIELDS}
        rows["slice_index"] += np.repeat(np.arange(copies) * ds.n_slices, len(ds))
        ds = replace(ds, n_slices=copies * ds.n_slices, **rows)
        assert len(ds) > 5 * segmenter.WRITE_BLOCK
        _, peak = traced_peak(write_detections, ds, tmp_path / "det.jsonl")
        assert peak < 2048 * segmenter.WRITE_BLOCK

    def test_pipeline_drops_the_label_grid_after_segment(self, tmp_path, monkeypatch):
        seen = {}

        def segment(run):
            vol = run.labels
            seen["grid"] = weakref.ref(vol.data)
            seen["extent"] = pipeline.grid_box(vol.origin, vol.dims, vol.voxel_size)
            return pipeline._segment(run)

        def degrade(run):
            # The first stage after segment: the grid is no longer
            # referenced, and its extent is still there for reconstruct.
            seen["alive"], seen["box"] = seen["grid"]() is not None, run.box
            return "skipped"

        monkeypatch.setitem(pipeline.STAGE_FUNCTIONS, "segment", segment)
        monkeypatch.setitem(pipeline.STAGE_FUNCTIONS, "degrade", degrade)
        for name in ("reconstruct", "validate"):
            monkeypatch.setitem(pipeline.STAGE_FUNCTIONS, name, lambda run: "skipped")
        run_pipeline(config_from_dict({"seed": 11, "degrade": {"enabled": True}}), tmp_path)
        assert seen["alive"] is False
        assert np.array_equal(seen["box"].lo, seen["extent"].lo)
        assert np.array_equal(seen["box"].hi, seen["extent"].hi)

    def test_label_boxes_peak_far_below_the_labels(self):
        # One label id far above the others must not size the per-plane
        # counts (65536 columns per row would take 84 MB per x-plane).
        data = np.zeros((163, 160, 80), dtype=np.uint16)
        data[5:9, 5:9, 5:9] = 65535
        data[20, 20, 20] = 3
        boxes = lambda: LabelVolume(data=data, voxel_size=1.0, origin=np.zeros(3), label_map={}).label_boxes
        got, peak = traced_peak(boxes)
        assert got == ndimage.find_objects(data)
        assert peak < data.nbytes / 2

    def test_paint_peak_near_its_labels(self):
        model = desk_model()
        geoms = [(y.yarn_id, y.sections.rings, y.sections.centers) for y in model.yarns]
        dims = compute_dims(model.bbox, 1.0)
        labels, peak = traced_peak(paint_labels, geoms, dims, model.bbox.lo, 1.0)
        assert peak < 2.5 * labels.nbytes
