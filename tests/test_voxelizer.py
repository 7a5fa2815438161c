"""Label volumes, slicing, pseudo-CT rendering, and raw+JSON persistence."""

import math

import numpy as np
import pytest

from textilemodel.errors import BudgetExceededError, ConfigError
from textilemodel.geometry import Box, ellipse_section
from textilemodel.synthgen import WeaveSpec, generate_interlock
from textilemodel.voxelizer import (
    GrayVolume,
    LabelVolume,
    RenderParams,
    compute_dims,
    extract_slices,
    load_volume,
    paint_labels,
    render_pseudo_ct,
    restack,
    save_volume,
    slice_count,
    voxelize,
)


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
        secs = [
            ellipse_section(
                center=(x, center_yz[0], center_yz[1]),
                normal=(1.0, 0.0, 0.0),
                a=radius,
                b=radius,
                station=x,
            )
            for x in xs
        ]
        rings = np.stack([s.contour for s in secs])
        centers = np.array([s.center for s in secs])
        return yarn_id, rings, centers

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
    def test_restack_is_lossless_both_axes(self, desk_volume):
        for axis in ("xz", "yz"):
            ds = extract_slices(desk_volume, axis)
            assert len(ds) == slice_count(desk_volume.dims, axis)
            assert np.array_equal(restack(ds), desk_volume.data)

    def test_slice_shapes(self, desk_volume):
        nx, ny, nz = desk_volume.dims
        assert extract_slices(desk_volume, "xz").slices[0].shape == (nx, nz)
        assert extract_slices(desk_volume, "yz").slices[0].shape == (ny, nz)

    def test_unknown_axis(self, desk_volume):
        with pytest.raises(ConfigError):
            extract_slices(desk_volume, "xy")


class TestRender:
    def test_deterministic_and_in_range(self, desk_volume):
        p = RenderParams(seed=5)
        a = render_pseudo_ct(desk_volume, p)
        b = render_pseudo_ct(desk_volume, p)
        assert np.array_equal(a.data, b.data)
        assert a.data.dtype == np.float32
        assert a.data.min() >= 0.0 and a.data.max() <= 1.0

    def test_levels_separate_matrix_and_yarn(self, desk_volume):
        p = RenderParams(noise_sigma=0.0, warp_contrast=0.0, weft_contrast=0.0)
        ct = render_pseudo_ct(desk_volume, p)
        matrix = ct.data[desk_volume.data == 0]
        yarn = ct.data[desk_volume.data > 0]
        assert np.allclose(matrix, 0.35) and np.allclose(yarn, 0.55)

    def test_noise_sigma_recovered_from_seed_pair(self, desk_volume):
        # Independent draws: std of the difference is sigma * sqrt(2).
        a = render_pseudo_ct(desk_volume, RenderParams(seed=1))
        b = render_pseudo_ct(desk_volume, RenderParams(seed=2))
        est = float((a.data.astype(np.float64) - b.data.astype(np.float64)).std() / math.sqrt(2))
        assert abs(est - 0.02) / 0.02 < 0.15

    def test_texture_oriented_per_family(self, desk_volume):
        p = RenderParams(noise_sigma=0.0)
        ct = render_pseudo_ct(desk_volume, p)
        yarn = ct.data[desk_volume.data > 0]
        assert yarn.std() > 0.01  # fiber texture modulates yarn voxels

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

    def test_gray_round_trip_bit_exact(self, desk_volume, tmp_path):
        ct = render_pseudo_ct(desk_volume, RenderParams(seed=3))
        save_volume(ct, tmp_path / "ct")
        back = load_volume(tmp_path / "ct")
        assert isinstance(back, GrayVolume)
        assert np.array_equal(back.data, ct.data)

    def test_sidecar_units(self, desk_volume, tmp_path):
        import json

        save_volume(desk_volume, tmp_path / "labels")
        meta = json.loads((tmp_path / "labels.json").read_text())
        assert meta["schema"] == 1
        assert meta["dims"] == [163, 160, 80]
        assert meta["voxel_size_um"] == pytest.approx(20.0)
        assert meta["dtype"] == "<u2"
