"""Weave generation, compaction and perturbation."""

from dataclasses import replace

import numpy as np
import pytest

from textilemodel import geometry as geo
from textilemodel import synthgen as sg
from textilemodel.errors import ConfigError, DegenerateGeometryError, InfeasibleWeaveError


def desk_spec(**overrides):
    kw = dict(
        n_warp_columns=4,
        n_weft_columns=4,
        warp_sequence=(2,),
        weft_sequence=(2,),
        yarn_spacing=(40.0, 40.0),
        crimp_amplitude=7.0,
        ellipse_a=6.0,
        ellipse_b=3.0,
    )
    kw.update(overrides)
    return sg.WeaveSpec(**kw)


@pytest.fixture(scope="module")
def desk_model():
    return sg.generate_interlock(desk_spec())


class TestWeaveSpec:
    def test_counts_cycle_over_columns(self):
        spec = sg.WeaveSpec(11, 8, (4, 3), (5, 4), (40.0, 40.0), 7.0, 6.0, 3.0)
        assert spec.column_counts("warp") == [4, 3, 4, 3, 4, 3, 4, 3, 4, 3, 4]
        assert spec.column_counts("weft") == [5, 4, 5, 4, 5, 4, 5, 4]

    def test_eight_column_variant_count(self):
        spec = sg.WeaveSpec(8, 8, (4, 3), (5, 4), (40.0, 40.0), 7.0, 6.0, 3.0)
        assert sum(spec.column_counts("warp")) == 28
        assert sum(spec.column_counts("weft")) == 36

    def test_invalid_specs_raise(self):
        with pytest.raises(ConfigError):
            desk_spec(warp_sequence=())
        with pytest.raises(ConfigError):
            desk_spec(warp_sequence=(0,))
        with pytest.raises(ConfigError):
            desk_spec(yarn_spacing=(0.0, 40.0))
        with pytest.raises(ConfigError):
            desk_spec(ellipse_a=2.0, ellipse_b=3.0)
        with pytest.raises(ConfigError):
            desk_spec(crimp_amplitude=-1.0)

    @pytest.mark.parametrize("seq", [(2.7,), ("1",), (True,), (2, False), (np.nan,), (np.inf,), "12"])
    def test_sequences_hold_whole_numbers_only(self, seq):
        for name in ("warp_sequence", "weft_sequence"):
            with pytest.raises(ConfigError, match=f"{name} must be a non-empty tuple of positive counts"):
                desk_spec(**{name: seq})

    def test_integral_sequences_become_ints(self):
        spec = desk_spec(warp_sequence=(2.0, np.int64(3)), weft_sequence=[1])
        assert spec.warp_sequence == (2, 3) and spec.weft_sequence == (1,)
        assert all(type(v) is int for v in spec.warp_sequence + spec.weft_sequence)

    @pytest.mark.parametrize("spacing", [("30", 30), (30, "30"), (True, 30.0), (30.0, False)])
    def test_spacing_holds_numbers_only(self, spacing):
        with pytest.raises(ConfigError, match="yarn_spacing must hold numbers"):
            desk_spec(yarn_spacing=spacing)

    def test_spacings_become_floats(self):
        spec = desk_spec(yarn_spacing=(40, np.float32(30.5)))
        assert spec.yarn_spacing == (40.0, 30.5)
        assert all(type(v) is float for v in spec.yarn_spacing)


class TestYarnModel:
    @pytest.mark.parametrize("yarn_id, message", [(0, "yarn ids start at 1"), (sg.MAX_YARN_ID + 1, "past 65535")])
    def test_ids_fit_the_uint16_labels(self, desk_model, yarn_id, message):
        yarn = desk_model.yarns[0]
        assert replace(yarn, yarn_id=sg.MAX_YARN_ID).yarn_id == 65535
        with pytest.raises(ConfigError, match=message):
            replace(yarn, yarn_id=yarn_id)


class TestGenerateInterlock:
    def test_yarn_count_and_families(self, desk_model):
        assert len(desk_model.yarns) == 16
        assert len(desk_model.family("warp")) == 8
        assert len(desk_model.family("weft")) == 8

    def test_production_scale_counts(self):
        spec = sg.WeaveSpec(11, 8, (4, 3), (5, 4), (40.0, 40.0), 7.0, 6.0, 3.0)
        model = sg.generate_interlock(spec, n_sections_warp=6, n_sections_weft=6)
        assert len(model.yarns) == 75
        assert len(model.family("warp")) == 39
        assert len(model.family("weft")) == 36

    def test_one_ellipse_builder_call_per_yarn(self, monkeypatch):
        calls = []
        build = sg.ellipse_sections
        monkeypatch.setattr(
            sg, "ellipse_sections", lambda *args: calls.append(len(args[0])) or build(*args)
        )
        model = sg.generate_interlock(desk_spec())
        assert calls == [len(y.sections) for y in model.yarns]

    def test_ids_unique_start_at_one_warp_first(self, desk_model):
        ids = [y.yarn_id for y in desk_model.yarns]
        assert ids == list(range(1, 17))
        assert all(y.family == "warp" for y in desk_model.yarns[:8])
        assert all(y.family == "weft" for y in desk_model.yarns[8:])

    def test_sections_on_path_and_ordered(self, desk_model):
        for yarn in desk_model.yarns:
            stations = yarn.sections.stations
            assert np.all(np.diff(stations) > 0)
            params = (stations - stations[0]) / (stations[-1] - stations[0])
            on_path = geo.bspline_eval(yarn.path, params)
            err = np.linalg.norm(on_path - yarn.sections.centers, axis=1).max()
            assert err < 1e-9

    def test_keypoints_inside_bbox(self, desk_model):
        for yarn in desk_model.yarns:
            assert np.all(desk_model.bbox.contains(yarn.sections.rings.reshape(-1, 3)))

    def test_first_yarn_outside_the_bbox_is_named(self, desk_model):
        # Trim the box on +y: the high-y warps and every weft poke out.
        hi = desk_model.bbox.hi - np.array([0.0, 30.0, 0.0])
        box = geo.Box(lo=desk_model.bbox.lo, hi=hi)
        first = next(
            y.yarn_id
            for y in desk_model.yarns
            if not np.all(box.contains(y.sections.rings.reshape(-1, 3)))
        )
        assert 1 < first < 9
        message = rf"^yarn {first} has keypoints outside the bbox$"
        with pytest.raises(DegenerateGeometryError, match=message):
            sg.TextileModel(
                yarns=desk_model.yarns,
                bbox=box,
                thickness=desk_model.thickness,
                spec=desk_model.spec,
            )

    def test_thickness_matches_bbox(self, desk_model):
        assert abs(desk_model.bbox.extent[2] - desk_model.thickness) < 1e-12
        assert desk_model.thickness == 80.0

    def test_warp_crimp_amplitude_realized(self, desk_model):
        zs = desk_model.family("warp")[0].sections.centers[:, 2]
        assert abs(np.ptp(zs) - 2 * 7.0) < 0.05

    def test_weft_straight(self, desk_model):
        for yarn in desk_model.family("weft"):
            c = yarn.sections.centers
            assert np.ptp(c[:, 0]) < 1e-9
            assert np.ptp(c[:, 2]) < 1e-9

    def test_trivial_single_crossing(self):
        spec = sg.WeaveSpec(1, 1, (1,), (1,), (40.0, 40.0), 0.0, 6.0, 3.0)
        model = sg.generate_interlock(spec)
        assert len(model.yarns) == 2
        warp, weft = (model.family(f)[0].sections.centers for f in ("warp", "weft"))
        assert np.ptp(warp[:, 2]) == 0.0
        assert np.ptp(weft[:, 2]) == 0.0
        d_warp = warp[-1] - warp[0]
        d_weft = weft[-1] - weft[0]
        cosang = d_warp @ d_weft / np.linalg.norm(d_warp) / np.linalg.norm(d_weft)
        assert abs(cosang) < 1e-12

    def test_same_family_collision_raises(self):
        # Layer pitch 4 with b=3 leaves stacked warp axes only 2 apart.
        with pytest.raises(InfeasibleWeaveError):
            sg.generate_interlock(desk_spec(crimp_amplitude=1.0))

    def test_section_counts_configurable(self):
        model = sg.generate_interlock(desk_spec(), n_sections_warp=12, n_sections_weft=9)
        assert all(len(y.sections) == 12 for y in model.family("warp"))
        assert all(len(y.sections) == 9 for y in model.family("weft"))

    def test_deterministic(self):
        m1 = sg.generate_interlock(desk_spec(), n_sections_warp=8, n_sections_weft=8)
        m2 = sg.generate_interlock(desk_spec(), n_sections_warp=8, n_sections_weft=8)
        for a, b in zip(m1.yarns, m2.yarns):
            assert np.array_equal(a.sections.centers, b.sections.centers)
            assert np.array_equal(a.sections.rings, b.sections.rings)


class TestCompaction:
    def test_schedule_and_fixed_midplane(self, desk_model):
        h0 = desk_model.thickness
        hf = 0.7 * h0
        seq = sg.compaction_sequence(desk_model, hf, n_steps=12)
        assert len(seq) == 13
        assert seq[0] is desk_model
        for k, mk in enumerate(seq):
            expect = h0 - k * (h0 - hf) / 12
            assert abs(mk.thickness - expect) <= 1e-9 * expect
            assert abs(mk.mid_plane_z - desk_model.mid_plane_z) < 1e-9

    def test_centers_follow_affine_map(self, desk_model):
        hf = 0.75 * desk_model.thickness
        seq = sg.compaction_sequence(desk_model, hf, n_steps=4)
        zm = desk_model.mid_plane_z
        for k, mk in enumerate(seq):
            f = mk.thickness / desk_model.thickness
            for y0, yk in zip(desk_model.yarns, mk.yarns):
                c0, ck = y0.sections.centers, yk.sections.centers
                np.testing.assert_allclose(ck[:, :2], c0[:, :2], atol=1e-9)
                np.testing.assert_allclose(ck[:, 2], zm + f * (c0[:, 2] - zm), atol=1e-9)

    def test_section_area_preserved(self, desk_model):
        seq = sg.compaction_sequence(desk_model, 0.6 * desk_model.thickness, n_steps=3)
        for y0, yk in zip(desk_model.yarns, seq[-1].yarns):
            a0 = geo.ring_areas(y0.sections.rings)
            ak = geo.ring_areas(yk.sections.rings)
            assert np.abs(a0 - ak).max() < 1e-9

    def test_invalid_targets_raise(self, desk_model):
        with pytest.raises(ConfigError):
            sg.compaction_sequence(desk_model, 0.0, 12)
        with pytest.raises(ConfigError):
            sg.compaction_sequence(desk_model, desk_model.thickness * 1.5, 12)
        with pytest.raises(ConfigError):
            sg.compaction_sequence(desk_model, desk_model.thickness * 0.5, 0)


class TestFiberSpec:
    def test_target_vf_round_trip(self, desk_model):
        fib = sg.fiber_spec_for_target_vf(desk_model, 0.6, fibers_per_yarn=1000)
        areas = np.concatenate([geo.ring_areas(y.sections.rings) for y in desk_model.yarns])
        vf = fib.fibers_per_yarn * np.pi * fib.fiber_radius**2 / np.mean(areas)
        assert abs(vf - 0.6) < 1e-9

    def test_invalid_fiber_specs_raise(self):
        with pytest.raises(ConfigError):
            sg.FiberSpec(fiber_radius=0.0, fibers_per_yarn=100)
        with pytest.raises(ConfigError):
            sg.FiberSpec(fiber_radius=0.1, fibers_per_yarn=0)
