"""Pipeline orchestration, manifest, persistence formats, and the CLI."""

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from textilemodel import __version__
from textilemodel.cli import main
from textilemodel.errors import ConfigError, InvalidContourError
from textilemodel import meshfiles, segmenter, voxelizer
from textilemodel.geometry import RING_POINTS, _unchecked_sections
from textilemodel.meshfiles import write_obj, write_vtk
from textilemodel.pipeline import (
    STAGES,
    PipelineConfig,
    RunContext,
    config_from_dict,
    load_config,
    read_detection_pair,
    run_pipeline,
    stage_index,
    stage_seed,
    verify_manifest,
)
from textilemodel.reconstruct import (
    QuadSurfaceMesh,
    VolumeMesh,
    build_surface_mesh,
    build_volume_mesh,
    lift_and_fit,
    reconstruct_yarns,
)
from textilemodel.segmenter import write_detections
from textilemodel.storage import (
    _sections_json,
    atomic_open,
    dump_json,
    load_model,
    load_yarns,
    read_json,
    save_model,
    save_yarns,
)
from textilemodel.synthgen import generate_interlock
from textilemodel.validate import write_report
from textilemodel.voxelizer import LabelVolume, RenderParams, load_volume, render_pseudo_ct, save_volume

from test_segmenter import make_dset
from test_voxelizer import read_gray, ref_render_pseudo_ct


def read_obj(path):
    """Read back an OBJ written by ``write_obj``.

    Returns (vertices, quads, triangles) with 0-based indices.
    """
    verts = []
    quads = []
    tris = []
    with open(path) as fh:
        for ln, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v":
                if len(parts) != 4:
                    raise ConfigError(f"{path}:{ln}: malformed vertex")
                verts.append([float(p) for p in parts[1:]])
            elif parts[0] == "f":
                idx = [int(p.split("/")[0]) - 1 for p in parts[1:]]
                if len(idx) == 4:
                    quads.append(idx)
                elif len(idx) == 3:
                    tris.append(idx)
                else:
                    raise ConfigError(f"{path}:{ln}: only tris and quads supported")
    return (
        np.array(verts, dtype=float),
        np.array(quads, dtype=np.int64).reshape(-1, 4),
        np.array(tris, dtype=np.int64).reshape(-1, 3),
    )


SMALL = {
    "seed": 3,
    "weave": {
        "n_warp_columns": 2,
        "n_weft_columns": 2,
        "warp_sequence": [1],
        "weft_sequence": [1],
        "yarn_spacing": [30.0, 30.0],
        "crimp_amplitude": 6.0,
        "ellipse_a": 5.0,
        "ellipse_b": 2.5,
    },
    "n_sections_warp": 20,
    "n_sections_weft": 20,
}


# Each runs every enabled stage; the compaction case sets a voxel size
# that the config must carry into `textile voxelize`.
STAGEWISE_CASES = {
    "compaction": {
        **SMALL,
        "voxel_size": 0.9,
        "compaction": {"enabled": True, "thickness_final": 44.1, "n_steps": 3},
    },
    "degrade": {
        **SMALL,
        "degrade": {"enabled": True, "dropout_rate": 0.2, "jitter_sigma": 0.5},
        "reconstruct": {"write_meshes": False},
    },
}


def readme_config() -> dict:
    """The example config of the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return json.loads(readme.split("```json\n", 1)[1].split("```", 1)[0])


@pytest.fixture(scope="module")
def small_cfg():
    return config_from_dict(SMALL)


@pytest.fixture(scope="module")
def small_run(small_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    manifest = run_pipeline(small_cfg, out)
    return out, manifest


_POS = st.floats(0.01, 1e3)
_NONNEG = st.floats(0.0, 1e3)
_FRAC = st.floats(0.0, 1.0)
_RATE = st.floats(0.0, 1.0, exclude_max=True)
_COUNT = st.integers(1, 10**6)
_SECTIONS = st.integers(4, 10**6)
_VF = st.floats(0.0, 1.0, exclude_min=True)


def _section(**fields):
    """A config section dict with any subset of ``fields``."""
    return st.fixed_dictionaries({}, optional=fields)


@st.composite
def config_dicts(draw):
    """Valid config dicts: any subset of keys and sections, each value
    within the range its dataclass accepts."""
    b = draw(_POS)
    weave = {
        "n_warp_columns": draw(st.integers(1, 8)),
        "n_weft_columns": draw(st.integers(1, 8)),
        "warp_sequence": draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)),
        "weft_sequence": draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)),
        "yarn_spacing": draw(st.lists(_POS, min_size=2, max_size=2)),
        "crimp_amplitude": draw(_NONNEG),
        "ellipse_a": b + draw(_NONNEG),
        "ellipse_b": b,
    }
    sections = {
        "weave": st.just(weave),
        "render": _section(
            matrix_level=_FRAC, yarn_level=_FRAC, warp_contrast=_NONNEG, weft_contrast=_NONNEG,
            texture_period=_POS, noise_sigma=_NONNEG, ring_amplitude=_NONNEG, ring_period=_POS,
        ),
        "degrade": _section(
            enabled=st.booleans(), dropout_rate=_RATE, jitter_sigma=_NONNEG, confidence_floor=_FRAC
        ),
        "compaction": _section(
            enabled=st.just(False), thickness_final=st.none() | _POS, n_steps=st.integers(1, 50)
        ) | st.fixed_dictionaries(
            {"enabled": st.just(True), "thickness_final": _POS}, optional={"n_steps": st.integers(1, 50)}
        ),
        "reconstruct": _section(
            d_gate=st.none() | _POS, min_length=st.integers(2, 10**6), max_gap=_COUNT,
            min_span=_FRAC, max_aspect=st.floats(1.0, 1e3, exclude_min=True), min_area=_COUNT,
            n_controls=st.none() | st.integers(4, 10**6), composite_cell=_POS, write_meshes=st.booleans(),
        ),
        "validate": _section(n_samples=st.integers(2, 10**6), n_bins=_COUNT, voxel_size_um=_POS),
    }
    top = _section(
        seed=st.integers(0, 2**32), n_sections_warp=_SECTIONS, n_sections_weft=_SECTIONS,
        z_margin=_NONNEG, target_vf=st.none() | _VF, fibers_per_yarn=_COUNT, voxel_size=_POS,
        voxel_budget=_COUNT, **sections,
    )
    return draw(top)


class TestConfig:
    @settings(max_examples=200, deadline=None)
    @given(config_dicts())
    def test_random_configs_round_trip_through_dict_and_json(self, data):
        cfg = config_from_dict(data)
        assert config_from_dict(cfg.to_dict()) == cfg
        assert config_from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_defaults_round_trip_through_dict(self):
        cfg = PipelineConfig()
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_seed_is_set_at_the_top_level_only(self):
        def keys(d):
            for k, v in d.items():
                yield k
                if isinstance(v, dict):
                    yield from keys(v)

        d = PipelineConfig().to_dict()
        assert "seed" in d
        assert list(keys(d)).count("seed") == 1

    def test_small_dict_round_trips(self, small_cfg):
        assert config_from_dict(small_cfg.to_dict()) == small_cfg

    def test_gate_defaults_to_largest_semiaxis(self, small_cfg):
        assert small_cfg.gate() == pytest.approx(1.5 * 5.0)

    def test_explicit_gate_wins(self):
        cfg = config_from_dict({"reconstruct": {"d_gate": 4.0}})
        assert cfg.gate() == 4.0

    def test_unknown_top_level_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown key bogus"):
            config_from_dict({"bogus": 1})

    def test_unknown_nested_key_names_the_section(self):
        with pytest.raises(ConfigError, match=r"unknown key weave\.bogus_field"):
            config_from_dict({"weave": {"bogus_field": 1}})
        with pytest.raises(ConfigError, match=r"unknown key reconstruct\.gate"):
            config_from_dict({"reconstruct": {"gate": 4.0}})

    def test_non_object_root_is_an_error(self):
        with pytest.raises(ConfigError, match="root"):
            config_from_dict([1, 2, 3])

    def test_readme_example_config_loads(self):
        cfg = config_from_dict(readme_config())
        assert cfg.seed == 11
        assert cfg.compaction.enabled and cfg.degrade.enabled

    def test_load_config_reads_json_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(SMALL))
        assert load_config(p) == config_from_dict(SMALL)

    def test_min_span_must_be_a_fraction(self):
        from textilemodel.reconstruct import track_yarns

        dset = make_dset([], np.zeros((0, 10, 2)), n_slices=1, axis="yz")
        with pytest.raises(ConfigError, match="min_span"):
            track_yarns(dset, d_gate=5.0, min_span=1.5)


class TestStageNumbering:
    def test_stage_names_and_order_are_fixed(self):
        assert STAGES == (
            "generate",
            "compact",
            "voxelize",
            "render",
            "segment",
            "degrade",
            "reconstruct",
            "validate",
        )

    def test_stage_index_is_one_based(self):
        assert stage_index("generate") == 1
        assert stage_index("voxelize") == 3
        assert stage_index("reconstruct") == 7
        assert stage_index("validate") == 8

    def test_unknown_stage_rejected(self):
        with pytest.raises(ConfigError):
            stage_index("transmogrify")

    def test_stage_seed_is_deterministic(self):
        assert stage_seed(3, "render") == stage_seed(3, "render")

    def test_stage_seed_separates_stages_and_seeds(self):
        seeds = {stage_seed(s, name) for s in (0, 1, 2) for name in STAGES}
        assert len(seeds) == 3 * len(STAGES)
        assert all(0 <= s < 2**64 for s in seeds)

    def test_disabled_stages_keep_fixed_indices(self, small_run):
        _, manifest = small_run
        by_name = {s["name"]: s["index"] for s in manifest["stages"]}
        # compact and degrade are off in the small config
        assert "compact" not in by_name and "degrade" not in by_name
        assert by_name["voxelize"] == 3
        assert by_name["reconstruct"] == 7

    def test_all_stages_run_when_enabled(self, tmp_path):
        cfg = config_from_dict(
            {
                **SMALL,
                "seed": 5,
                "compaction": {"enabled": True, "thickness_final": 44.1, "n_steps": 3},
                "degrade": {"enabled": True, "dropout_rate": 0.1, "jitter_sigma": 0.2},
                "reconstruct": {"write_meshes": False},
            }
        )
        manifest = run_pipeline(cfg, tmp_path)
        assert [(s["index"], s["name"]) for s in manifest["stages"]] == list(
            enumerate(STAGES, start=1)
        )
        names = {f["path"] for f in manifest["files"]}
        assert {"model_00.json", "model_03.json", "compaction.json"} <= names
        assert "detections_yz_degraded.jsonl" in names


class TestRunPipeline:
    def test_expected_artifacts_exist(self, small_run):
        out, manifest = small_run
        names = {f["path"] for f in manifest["files"]}
        expected = {
            "model.json",
            "labels.raw",
            "labels.json",
            "pseudo_ct.raw",
            "pseudo_ct.json",
            "detections_yz.jsonl",
            "detections_xz.jsonl",
            "yarns.json",
            "report.json",
            "report.txt",
            "meshes/composite.vtk",
        }
        assert expected <= names
        assert sum(1 for n in names if n.endswith(".obj")) == 4
        for f in manifest["files"]:
            assert (out / f["path"]).stat().st_size == f["bytes"]

    def test_manifest_records_config_and_version(self, small_run, small_cfg):
        out, manifest = small_run
        d = read_json(out / "manifest.json")
        assert d["kind"] == "run_manifest"
        assert d["schema"] == 1
        assert d["package_version"] == __version__
        assert d["seed"] == 3
        assert d["config"] == small_cfg.to_dict()
        assert [s["name"] for s in d["stages"]] == [s["name"] for s in manifest["stages"]]

    def test_stage_timings_are_recorded(self, small_run):
        _, manifest = small_run
        assert all(s["seconds"] >= 0 for s in manifest["stages"])
        assert all(isinstance(s["artifacts"], list) for s in manifest["stages"])

    def test_returned_manifest_is_the_file_it_wrote(self, small_run):
        out, manifest = small_run
        assert manifest == json.loads((out / "manifest.json").read_text())
        assert verify_manifest(out / "manifest.json") == []

    def test_verify_manifest_passes_then_catches_tampering(self, small_run):
        out, _ = small_run
        assert verify_manifest(out / "manifest.json") == []
        target = out / "report.txt"
        original = target.read_bytes()
        try:
            target.write_bytes(original + b"x")
            assert verify_manifest(out / "manifest.json") == ["report.txt"]
        finally:
            target.write_bytes(original)

    def test_report_matches_every_yarn(self, small_run):
        out, _ = small_run
        rep = read_json(out / "report.json")
        assert rep["paths"]["unmatched_reference"] == []
        assert rep["paths"]["unmatched_yarns"] == []
        assert len(rep["paths"]["matches"]) == 4
        assert all(m["d_symmetric"] < 2.0 for m in rep["paths"]["matches"])
        vf = rep["fiber_volume_fraction"]
        assert 0.0 < vf["mean"] <= 1.0

    def test_report_microns_are_model_units_times_the_config_scale(self, tmp_path):
        # Hausdorff distances are in model units whatever the voxel size.
        cfg = config_from_dict({**SMALL, "voxel_size": 0.7, "reconstruct": {"write_meshes": False}})
        run_pipeline(cfg, tmp_path)
        paths = read_json(tmp_path / "report.json")["paths"]
        assert paths["voxel_size_um"] == cfg.validate.voxel_size_um
        assert len(paths["matches"]) == 4
        for m in paths["matches"]:
            assert m["d_symmetric_um"] == m["d_symmetric"] * cfg.validate.voxel_size_um

    def test_volume_sidecars_scale_microns_by_the_config(self, tmp_path):
        # µm per voxel is the voxel size times validate.voxel_size_um.
        cfg = config_from_dict({**SMALL, "voxel_size": 0.7, "validate": {"voxel_size_um": 10.0}})
        run = RunContext(cfg, tmp_path)
        for stage in ("generate", "voxelize", "render"):
            run.run_stage(stage)
        for name in ("labels.json", "pseudo_ct.json"):
            assert read_json(tmp_path / name)["voxel_size_um"] == 7.0

    def test_pseudo_ct_equals_the_whole_volume_reference(self, small_cfg, small_run):
        out, _ = small_run
        labels = load_volume(out / "labels")
        ct = read_gray(out / "pseudo_ct")
        want = ref_render_pseudo_ct(labels, small_cfg.render, stage_seed(small_cfg.seed, "render"))
        assert ct.dtype == want.dtype
        assert np.array_equal(ct.view(np.uint32), want.view(np.uint32))
        meta = read_json(out / "pseudo_ct.json")
        same = read_json(out / "labels.json")
        same.pop("label_map")
        assert meta == {**same, "kind": "gray", "dtype": "<f4"}

    def test_rerun_is_byte_identical_outside_manifest(self, small_cfg, small_run, tmp_path):
        out_a, man_a = small_run
        man_b = run_pipeline(small_cfg, tmp_path)
        files_a = {f["path"]: f["sha256"] for f in man_a["files"]}
        files_b = {f["path"]: f["sha256"] for f in man_b["files"]}
        assert files_a == files_b

        def stripped(man):
            d = json.loads(json.dumps(man))
            d.pop("created")
            for s in d["stages"]:
                s.pop("seconds")
            return d

        assert stripped(man_a) == stripped(man_b)


def toy_model():
    spec = config_from_dict(SMALL).weave
    return generate_interlock(spec, n_sections_warp=12, n_sections_weft=12, z_margin=10.0)


class TestModelStorage:
    def test_model_round_trips_exactly(self, tmp_path):
        model = toy_model()
        p = tmp_path / "model.json"
        save_model(model, p)
        again = load_model(p)
        assert len(again.yarns) == len(model.yarns)
        for a, b in zip(model.yarns, again.yarns):
            assert a.yarn_id == b.yarn_id and a.family == b.family
            np.testing.assert_array_equal(a.path.control_points, b.path.control_points)
            np.testing.assert_array_equal(a.path.knots, b.path.knots)
            np.testing.assert_array_equal(a.sections.rings, b.sections.rings)
            np.testing.assert_array_equal(a.sections.centers, b.sections.centers)
            np.testing.assert_array_equal(a.sections.stations, b.sections.stations)
        assert again.thickness == model.thickness

    def test_wrong_kind_is_rejected(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"schema": 1, "kind": "something_else"}))
        with pytest.raises(ConfigError, match="not a textile model"):
            load_model(p)

    def test_invalid_json_names_the_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="broken.json"):
            load_model(p)


def disc(center_uv, radius=4.0):
    ang = np.linspace(0.0, 2 * np.pi, 10, endpoint=False)
    ring = np.column_stack([np.cos(ang), np.sin(ang)]) * radius + center_uv
    return ring


def straight_dset(n_slices=24, extra=None):
    """One straight yarn across every slice, plus optional extra blobs."""
    extra = extra or {}
    rows = [(i, disc((20.0, 30.0))) for i in range(n_slices)]
    rows += [(i, disc(uv)) for i, uv in extra.items()]
    rows.sort(key=lambda r: r[0])
    return make_dset([i for i, _ in rows], [ring for _, ring in rows], n_slices=n_slices, axis="yz")


class TestSpanFilter:
    def test_short_span_fragment_is_dropped(self):
        from textilemodel.reconstruct import track_yarns

        # a 6-slice blob far from the through yarn: a grazing cut
        extra = {i: (70.0, 70.0) for i in range(8, 14)}
        dset = straight_dset(extra=extra)
        loose = track_yarns(dset, d_gate=6.0, min_span=0.0)
        strict = track_yarns(dset, d_gate=6.0, min_span=0.5)
        assert len(loose) == 2
        assert len(strict) == 1
        assert len(strict[0].entries) == 24

    def test_full_span_track_survives(self):
        from textilemodel.reconstruct import track_yarns

        tracks = track_yarns(straight_dset(), d_gate=6.0, min_span=0.9)
        assert len(tracks) == 1


@pytest.fixture(scope="module")
def straight_yarns():
    return reconstruct_yarns([straight_dset()], d_gate=6.0)


class TestYarnStorage:
    def test_yarns_round_trip(self, straight_yarns, tmp_path):
        ys, tracks = straight_yarns
        p = tmp_path / "yarns.json"
        save_yarns(ys, p, voxel_size=2.0, origin=(1.0, 2.0, 3.0))
        again, vs, origin = load_yarns(p)
        assert vs == 2.0
        np.testing.assert_array_equal(origin, [1.0, 2.0, 3.0])
        assert len(again) == len(ys)
        for a, b in zip(ys, again):
            assert a.family == b.family and a.axis == b.axis
            np.testing.assert_array_equal(a.path.control_points, b.path.control_points)
            assert len(a.sections) == len(b.sections)
            np.testing.assert_array_equal(a.sections.rings, b.sections.rings)
            assert a.completed_flags == b.completed_flags
        assert [y.boundary_gaps for y in again] == [t.boundary_gaps for t in tracks]

    def test_boundary_gaps_ride_on_each_yarn(self, tmp_path):
        # yarn at u=20 misses slices 0, 1 and 23; the one at u=60 misses none
        rows = [(i, disc((20.0, 30.0))) for i in range(2, 23)] + [(i, disc((60.0, 30.0))) for i in range(24)]
        rows.sort(key=lambda r: r[0])
        dset = make_dset([i for i, _ in rows], [ring for _, ring in rows], n_slices=24, axis="yz")
        ys, tracks = reconstruct_yarns([dset], d_gate=6.0)
        assert sorted(y.boundary_gaps for y in ys) == [(), ((0, 1), (23, 23))]
        for track in tracks:
            assert lift_and_fit(track).boundary_gaps == track.boundary_gaps
        assert [y.boundary_gaps for y in ys] == [t.boundary_gaps for t in tracks]
        p = tmp_path / "yarns.json"
        save_yarns(ys, p, voxel_size=1.0, origin=(0.0, 0.0, 0.0))
        written = [d["boundary_gaps"] for d in read_json(p)["yarns"]]
        assert written == [list(map(list, y.boundary_gaps)) for y in ys]
        assert [y.boundary_gaps for y in load_yarns(p)[0]] == [y.boundary_gaps for y in ys]

    @pytest.mark.parametrize(
        "short, message, cause",
        [
            (None, "contour is self-intersecting", InvalidContourError),
            (3, "yarns[0].sections[3].contour must be 10 × 3 finite numbers", ConfigError),
            (7, "yarns[0].sections[7].contour must be 10 × 3 finite numbers", ConfigError),
        ],
    )
    def test_short_contour_raises_before_the_first_ring_fault(
        self, straight_yarns, tmp_path, short, message, cause
    ):
        # The schema checks every ring's shape before any ring is built;
        # then the first faulty ring in file order raises.
        ys, _ = straight_yarns
        yarns_path, model_path = tmp_path / "yarns.json", tmp_path / "model.json"
        save_yarns(ys, yarns_path, voxel_size=1.0, origin=(0.0, 0.0, 0.0))
        save_model(toy_model(), model_path)
        for p, load in ((yarns_path, load_yarns), (model_path, load_model)):
            d = json.loads(p.read_text())
            secs = d["yarns"][0]["sections"]
            c = secs[5]["contour"]
            c[2], c[6] = c[6], c[2]  # folded
            secs[9]["center"][0] += 1.0  # off its centroid
            if short is not None:
                secs[short]["contour"] = secs[short]["contour"][:9]
            p.write_text(json.dumps(d))
            with pytest.raises(ConfigError) as err:
                load(p)
            assert str(err.value) == f"{p}: {message}", load.__name__
            assert type(err.value.__cause__) is cause

    def test_wrong_kind_is_rejected(self, tmp_path):
        p = tmp_path / "odd.json"
        p.write_text(json.dumps({"schema": 1, "kind": "textile_model"}))
        with pytest.raises(ConfigError, match="not a reconstructed yarns file"):
            load_yarns(p)


# Written by the schema-1 ``indent=2`` writer: a model of 2 yarns with 4
# sections each, and 1 reconstructed yarn with a filled section and a
# boundary gap.
SCHEMA1_INDENTED = Path(__file__).parent / "data" / "schema1_indent2"

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats()
    | st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1e-310])
    | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


def _with(d, keys, value):
    """A copy of ``d`` with the item at the path ``keys`` set to ``value``."""
    d = copy.deepcopy(d)
    node = d
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    return d


# Boundary gap lists that are not lists of [first, last] slice pairs,
# each with the fault it reports.
_GAP_RANGE = "boundary_gaps must be a list of [first, last] integers, 0 <= first <= last"
_BAD_GAPS = (
    ("ab", "yarns[0].boundary_gaps must be a list"),
    (5, "yarns[0].boundary_gaps must be a list"),
    ([[1, 2, 3]], "yarns[0].boundary_gaps[0] must be a list of 2 items"),
    ([[1]], "yarns[0].boundary_gaps[0] must be a list of 2 items"),
    ([["x", "y"]], "yarns[0].boundary_gaps[0][0] must be an integer within the float range"),
    ([[True, 2]], "yarns[0].boundary_gaps[0][0] must be an integer within the float range"),
    ([[0, False]], "yarns[0].boundary_gaps[0][1] must be an integer within the float range"),
    ([[1.0, 2]], "yarns[0].boundary_gaps[0][0] must be an integer within the float range"),
    ([[-1, 2]], _GAP_RANGE),
    ([[3, 2]], _GAP_RANGE),
    ([[1, 2], 7], "yarns[0].boundary_gaps[1] must be a list of 2 items"),
)


# Float fields set to an integer past the float range, one at a time,
# each with the key path its fault names.
_YARN_FLOATS = (
    (["yarns", 0, "path", "knots", 0], "yarns[0].path.knots must be n finite numbers"),
    (["yarns", 0, "path", "control_points", 0, 0], "yarns[0].path.control_points must be n × 3 finite numbers"),
    (["yarns", 0, "sections", 0, "contour", 0, 0], "yarns[0].sections[0].contour must be 10 × 3 finite numbers"),
    (["yarns", 0, "sections", 0, "center", 0], "yarns[0].sections[0].center must be 3 finite numbers"),
    (["yarns", 0, "sections", 0, "station"], "yarns[0].sections[0].station must be a finite number"),
)
_OVERFLOW_CASES = [
    *(
        ("model.json", "voxelize", keys, message)
        for keys, message in (
            (["bbox", "lo", 0], "bbox.lo must be 3 finite numbers"),
            (["thickness"], "thickness must be a finite number"),
            (["fibers", "fiber_radius"], "fibers.fiber_radius must be a finite number"),
            (["spec", "yarn_spacing", 0], "spec.yarn_spacing[0] must be a finite number"),
            *_YARN_FLOATS,
        )
    ),
    *(
        ("yarns.json", "validate", keys, message)
        for keys, message in ((["voxel_size"], "voxel_size must be a finite number"), *_YARN_FLOATS)
    ),
]


def _strings(d, keys):
    """A copy of ``d`` with the list at the path ``keys`` as strings."""
    node = d
    for key in keys:
        node = node[key]
    return _with(d, keys, [str(v) for v in node])


def _short_contour(d):
    """A model or yarns file whose first yarn's third contour lacks its last point."""
    contour = d["yarns"][0]["sections"][2]["contour"]
    return _with(d, ["yarns", 0, "sections", 2, "contour"], contour[:-1])


def _loaded_fields(loaded):
    """Every value a loaded model or ``load_yarns`` tuple carries, in order."""
    if isinstance(loaded, tuple):
        yarns, voxel_size, origin = loaded
        head = [voxel_size, origin]
    else:
        yarns = loaded.yarns
        head = [loaded.spec, loaded.thickness, loaded.bbox.lo, loaded.bbox.hi, loaded.fibers]
    for y in yarns:
        s = y.sections
        head += [getattr(y, "yarn_id", None), y.family, getattr(y, "axis", None),
                 getattr(y, "completed_flags", None), getattr(y, "boundary_gaps", None),
                 y.path.degree, y.path.knots,
                 y.path.control_points, s.rings, s.centers, s.stations]
    return head


# Finite floats whose reprs take different forms: negative zero, the
# least subnormal, a short exponent, the first exponent of a large
# float, and a whole number written with ".0".
SECTION_FLOATS = st.sampled_from([-0.0, 5e-324, 1e-05, 1e16, 123456789.0]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def finite_sections(draw):
    """Sections of any finite floats; the geometric checks are skipped,
    as the writer does not depend on them."""
    s, n = draw(st.integers(0, 5)), draw(st.sampled_from([1, 3, RING_POINTS]))
    shapes = ((s, n, 3), (s, 3), (s,))
    return _unchecked_sections(*(draw(hnp.arrays(np.float64, shape, elements=SECTION_FLOATS)) for shape in shapes))


def ref_sections_to_dicts(s):
    """The section dicts the model and yarns writers encoded before."""
    return [
        {"station": t, "center": c, "contour": r}
        for t, c, r in zip(s.stations.tolist(), s.centers.tolist(), s.rings.tolist())
    ]


class TestJsonLayout:
    @given(finite_sections())
    @settings(max_examples=300, deadline=None)
    def test_sections_text_equals_dumps_of_the_section_dicts(self, sections):
        want = json.dumps(ref_sections_to_dicts(sections), sort_keys=True, separators=(",", ":"))
        assert _sections_json(sections).text == want

    def test_model_and_yarns_files_equal_dumps_of_their_parse(self, straight_yarns, tmp_path):
        paths = (tmp_path / "model.json", tmp_path / "yarns.json")
        save_model(toy_model(), paths[0])
        save_yarns(straight_yarns[0], paths[1], voxel_size=1.0, origin=(0.0, -0.0, 5e-324))
        for p in paths:
            text = p.read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"

    @given(st.dictionaries(st.text(max_size=6), JSON_VALUES, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_dump_json_bytes_equal_one_shot_compact_dumps(self, payload):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "p.json"
            dump_json(payload, path)
            got = path.read_bytes()
        want = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
        assert got == want.encode()

    @pytest.mark.parametrize("name, load", [("model.json", load_model), ("yarns.json", load_yarns)])
    def test_schema1_indented_files_load_like_their_compact_rewrite(self, name, load, tmp_path):
        old = SCHEMA1_INDENTED / name
        assert old.read_text().startswith('{\n  "')
        new = tmp_path / name
        dump_json(read_json(old), new)
        assert new.read_bytes().count(b"\n") == 1
        a, b = _loaded_fields(load(old)), _loaded_fields(load(new))
        if name == "yarns.json":
            assert load(old)[0][0].boundary_gaps == ((7, 7),)
        assert len(a) == len(b) > 10
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class _PartialData:
    """Array stand-in whose ``tofile`` writes some bytes, then fails."""

    def astype(self, dtype):
        return self

    def tofile(self, fh):
        fh.write(b"\0" * 64)
        raise OSError("disk full")


class _FailsAfterOneSlab:
    """Label data whose first x-slab reads, after which reads fail."""

    def __init__(self, data):
        self.data = data

    def __getitem__(self, xsl):
        if xsl.start:
            raise OSError("disk full")
        return self.data[xsl]


class TestAtomicWrites:
    """A writer that fails mid-write keeps the old file and leaves no temp file."""

    @staticmethod
    def check_atomic(directory, target, write_good, write_bad):
        write_good()
        before = target.read_bytes()
        listing = sorted(p.name for p in directory.iterdir())
        with pytest.raises((OSError, TypeError)):
            write_bad()
        assert target.read_bytes() == before
        assert sorted(p.name for p in directory.iterdir()) == listing

    def test_files_get_the_mode_of_a_plain_open(self, tmp_path):
        (tmp_path / "plain.txt").write_text("x")
        with atomic_open(tmp_path / "atomic.txt") as fh:
            fh.write("x")
        modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
        assert modes["atomic.txt"] == modes["plain.txt"]

    def test_save_volume(self, tmp_path):
        good = LabelVolume(
            data=np.ones((2, 3, 4), dtype=np.uint16),
            voxel_size=1.0,
            origin=np.zeros(3),
            label_map={1: "warp"},
        )
        bad = SimpleNamespace(data=_PartialData(), voxel_size=1.0, origin=np.zeros(3))
        self.check_atomic(
            tmp_path,
            tmp_path / "labels.raw",
            lambda: save_volume(good, tmp_path / "labels"),
            lambda: save_volume(bad, tmp_path / "labels"),
        )

    def test_render_pseudo_ct(self, tmp_path, monkeypatch):
        monkeypatch.setattr(voxelizer, "RENDER_BLOCK", 16 * 3 * 4)  # slabs of 16 x-planes
        good = LabelVolume(
            data=np.ones((40, 3, 4), dtype=np.uint16),
            voxel_size=1.0,
            origin=np.zeros(3),
            label_map={1: "warp"},
        )
        bad = SimpleNamespace(**{**vars(good), "dims": good.dims, "data": _FailsAfterOneSlab(good.data)})
        self.check_atomic(
            tmp_path,
            tmp_path / "ct.raw",
            lambda: render_pseudo_ct(good, RenderParams(), 1, tmp_path / "ct"),
            lambda: render_pseudo_ct(bad, RenderParams(), 2, tmp_path / "ct"),
        )

    def test_write_detections(self, tmp_path, monkeypatch):
        monkeypatch.setattr(segmenter, "WRITE_BLOCK", 2)
        good = straight_dset(n_slices=3)
        # The block of rows 0 and 1 is written before row 2's label fails.
        labels = np.array([1, 2, object()], dtype=object)
        bad = SimpleNamespace(**{**vars(good), "true_label": labels})
        path = tmp_path / "detections_yz.jsonl"
        self.check_atomic(
            tmp_path, path, lambda: write_detections(good, path), lambda: write_detections(bad, path)
        )

    def test_write_report(self, tmp_path):
        def report(payload):
            return SimpleNamespace(to_dict=lambda: payload, to_text=lambda: "paths")

        paths = (tmp_path / "report.json", tmp_path / "report.txt")
        self.check_atomic(
            tmp_path,
            paths[0],
            lambda: write_report(report({"a": 1}), None, *paths),
            lambda: write_report(report({"a": 1, "z": object()}), None, *paths),
        )


# List-join references for the mesh writers: every line built as a
# string, joined, and written in one piece.
def ref_obj_text(mesh):
    fmt = lambda x: "%.9g" % x
    lines = [f"v {fmt(v[0])} {fmt(v[1])} {fmt(v[2])}" for v in mesh.vertices]
    lines += ["f %d %d %d %d" % tuple(q + 1) for q in mesh.quads]
    lines += ["f %d %d %d" % tuple(t + 1) for t in mesh.cap_triangles]
    return "\n".join(lines) + "\n"


def ref_vtk_text(mesh, title):
    fmt = lambda x: "%.9g" % x
    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(mesh.vertices)} float",
    ]
    lines += [f"{fmt(v[0])} {fmt(v[1])} {fmt(v[2])}" for v in mesh.vertices]
    lines.append(f"CELLS {mesh.n_cells} {len(mesh.wedges) * 7 + len(mesh.hexes) * 9}")
    lines += ["6 " + " ".join(str(int(i)) for i in w) for w in mesh.wedges]
    lines += ["8 " + " ".join(str(int(i)) for i in h) for h in mesh.hexes]
    lines.append(f"CELL_TYPES {mesh.n_cells}")
    lines += ["13"] * len(mesh.wedges) + ["12"] * len(mesh.hexes)
    lines += [f"CELL_DATA {mesh.n_cells}", "SCALARS yarn_id int 1", "LOOKUP_TABLE default"]
    lines += [str(int(x)) for x in np.concatenate([mesh.wedge_labels, mesh.hex_labels])]
    return "\n".join(lines) + "\n"


# Row-at-a-time references for the mesh writers: one % per row, over
# rows converted to Python a block at a time.
def ref_rows(arr):
    return (row for lo in range(0, len(arr), 4096) for row in arr[lo : lo + 4096].tolist())


def ref_write_obj(mesh, path):
    with open(path, "w") as fh:
        fh.writelines("v %.9g %.9g %.9g\n" % tuple(v) for v in ref_rows(mesh.vertices))
        fh.writelines("f %d %d %d %d\n" % tuple(q) for q in ref_rows(mesh.quads + 1))
        fh.writelines("f %d %d %d\n" % tuple(t) for t in ref_rows(mesh.cap_triangles + 1))


def ref_write_vtk(mesh, path, title):
    n_cells = mesh.n_cells
    size = len(mesh.wedges) * 7 + len(mesh.hexes) * 9
    with open(path, "w") as fh:
        fh.write(
            f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {len(mesh.vertices)} float\n"
        )
        fh.writelines("%.9g %.9g %.9g\n" % tuple(v) for v in ref_rows(mesh.vertices))
        fh.write(f"CELLS {n_cells} {size}\n")
        fh.writelines("6 %d %d %d %d %d %d\n" % tuple(w) for w in ref_rows(mesh.wedges))
        fh.writelines("8 %d %d %d %d %d %d %d %d\n" % tuple(h) for h in ref_rows(mesh.hexes))
        fh.write(f"CELL_TYPES {n_cells}\n")
        fh.write("13\n" * len(mesh.wedges) + "12\n" * len(mesh.hexes))
        fh.write(f"CELL_DATA {n_cells}\nSCALARS yarn_id int 1\nLOOKUP_TABLE default\n")
        fh.writelines("%d\n" % x for x in ref_rows(np.concatenate([mesh.wedge_labels, mesh.hex_labels])))


MESH_FLOATS = st.sampled_from([-0.0, 5e-324, 2.2250738585072009e-308, 1e300, 1e-05, 123456789.5])
MESH_FLOATS |= st.floats()
MESH_INTS = st.sampled_from([-(2**63), 2**31, 2**53 + 1, 2**63 - 1]) | st.integers(-(2**63), 2**63 - 1)


@st.composite
def random_meshes(draw):
    """A surface and a volume mesh over the same vertices, cells of any
    count (none too) and labels over the whole int64 range."""
    n = draw(st.integers(1, 12))
    vertices = draw(hnp.arrays(np.float64, (n, 3), elements=MESH_FLOATS))

    def cells(width):
        shape = (draw(st.integers(0, 9)), width)
        return draw(hnp.arrays(np.int64, shape, elements=st.integers(0, n - 1)))

    wedges, hexes = cells(6), cells(8)
    labels = [draw(hnp.arrays(np.int64, len(c), elements=MESH_INTS)) for c in (wedges, hexes)]
    return (
        QuadSurfaceMesh(vertices=vertices, quads=cells(4), cap_triangles=cells(3)),
        VolumeMesh(
            vertices=vertices, wedges=wedges, hexes=hexes, wedge_labels=labels[0], hex_labels=labels[1]
        ),
    )


class TestBlockMeshWriters:
    @given(random_meshes(), st.sampled_from([1, 2, 3, 7, 4096]))
    @settings(max_examples=300, deadline=None)
    def test_text_equals_the_row_at_a_time_writers(self, meshes, block):
        surface, volume = meshes
        with tempfile.TemporaryDirectory() as d:
            got, want = Path(d) / "got", Path(d) / "want"
            default, meshfiles._BLOCK = meshfiles._BLOCK, block
            try:
                write_obj(surface, got)
                ref_write_obj(surface, want)
                assert got.read_bytes() == want.read_bytes()
                write_vtk(volume, got, title="cells")
                ref_write_vtk(volume, want, "cells")
                assert got.read_bytes() == want.read_bytes()
            finally:
                meshfiles._BLOCK = default


def random_vertices(rng, n):
    """Coordinates over many magnitudes, so %.9g prints exponents,
    signs, short forms and all nine digits; more rows than one
    conversion block of the writers."""
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 9, size=(n, 3))
    v[:4] = [[0.0, -0.0, 1.0], [0.1, 1e-300, 123456789.5], [-2.5e20, 1 / 3, 7.0], [np.float32(0.7), 1e9, -1e-9]]
    return v


def random_volume_mesh(seed, n_wedges, n_hexes, n_vertices=9000):
    rng = np.random.default_rng(seed)
    return VolumeMesh(
        vertices=random_vertices(rng, n_vertices),
        wedges=rng.integers(0, n_vertices, size=(n_wedges, 6)),
        hexes=rng.integers(0, n_vertices, size=(n_hexes, 8)),
        wedge_labels=rng.integers(0, 40, size=n_wedges),
        hex_labels=rng.integers(0, 40, size=n_hexes),
    )


class TestMeshWriterOracle:
    @pytest.mark.parametrize(
        "n_wedges, n_hexes", [(5000, 0), (0, 9000), (300, 200), (0, 0)],
        ids=["wedges", "hexes", "mixed", "no-cells"],
    )
    def test_vtk_bytes_match_list_join(self, tmp_path, n_wedges, n_hexes):
        mesh = random_volume_mesh(n_wedges + n_hexes, n_wedges, n_hexes)
        p = tmp_path / "m.vtk"
        write_vtk(mesh, p, title="random cells")
        assert p.read_bytes() == ref_vtk_text(mesh, "random cells").encode()

    def test_vtk_bytes_of_a_yarn_wedge_mesh(self, straight_yarns, tmp_path):
        mesh = build_volume_mesh(straight_yarns[0][0], label=7)
        p = tmp_path / "yarn.vtk"
        write_vtk(mesh, p)
        assert p.read_bytes() == ref_vtk_text(mesh, "textile volume mesh").encode()

    def test_obj_bytes_match_list_join(self, straight_yarns, tmp_path):
        rng = np.random.default_rng(5)
        n = 9000
        meshes = [
            build_surface_mesh(straight_yarns[0][0]),
            QuadSurfaceMesh(
                vertices=random_vertices(rng, n),
                quads=rng.integers(0, n, size=(5000, 4)),
                cap_triangles=rng.integers(0, n, size=(4500, 3)),
            ),
        ]
        for mesh in meshes:
            p = tmp_path / "m.obj"
            write_obj(mesh, p)
            assert p.read_bytes() == ref_obj_text(mesh).encode()


class TestMeshFiles:
    def test_obj_round_trip(self, straight_yarns, tmp_path):
        mesh = build_surface_mesh(straight_yarns[0][0])
        p = tmp_path / "yarn.obj"
        write_obj(mesh, p)
        verts, quads, tris = read_obj(p)
        assert quads.shape == mesh.quads.shape
        assert tris.shape == mesh.cap_triangles.shape
        np.testing.assert_array_equal(quads, mesh.quads)
        np.testing.assert_array_equal(tris, mesh.cap_triangles)
        np.testing.assert_allclose(verts, mesh.vertices, rtol=1e-6, atol=1e-6)

    def test_obj_uses_one_based_indices(self, straight_yarns, tmp_path):
        p = tmp_path / "yarn.obj"
        write_obj(build_surface_mesh(straight_yarns[0][0]), p)
        face_lines = [l for l in p.read_text().splitlines() if l.startswith("f ")]
        indices = [int(tok) for l in face_lines for tok in l.split()[1:]]
        assert min(indices) == 1

    def test_vtk_wedge_mesh_layout(self, straight_yarns, tmp_path):
        mesh = build_volume_mesh(straight_yarns[0][0], label=7)
        p = tmp_path / "yarn.vtk"
        write_vtk(mesh, p, title="one yarn")
        lines = p.read_text().splitlines()
        assert lines[0].startswith("# vtk DataFile Version")
        assert lines[1] == "one yarn"
        assert lines[2] == "ASCII"
        assert "DATASET UNSTRUCTURED_GRID" in lines[3]
        n_pts = int(next(l for l in lines if l.startswith("POINTS")).split()[1])
        assert n_pts == len(mesh.vertices)
        types = []
        it = iter(lines)
        for l in it:
            if l.startswith("CELL_TYPES"):
                for _ in range(int(l.split()[1])):
                    types.append(int(next(it)))
                break
        assert set(types) == {13}
        assert len(types) == mesh.n_cells
        data_at = lines.index("SCALARS yarn_id int 1")
        assert lines[data_at + 1] == "LOOKUP_TABLE default"
        labels = " ".join(lines[data_at + 2 :]).split()
        assert set(labels) == {"7"}

    def test_vtk_composite_uses_hexahedra(self, small_run):
        out, _ = small_run
        lines = (out / "meshes" / "composite.vtk").read_text().splitlines()
        types = []
        it = iter(lines)
        for l in it:
            if l.startswith("CELL_TYPES"):
                for _ in range(int(l.split()[1])):
                    types.append(int(next(it)))
                break
        assert set(types) == {12}
        data_at = lines.index("SCALARS yarn_id int 1")
        labels = {int(v) for v in " ".join(lines[data_at + 2 :]).split()}
        assert 0 in labels  # matrix cells are kept
        assert labels - {0}  # and at least one yarn label


class TestCli:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    @pytest.mark.parametrize("case", sorted(STAGEWISE_CASES))
    def test_stagewise_chain_matches_pipeline(self, case, tmp_path, capsys):
        cfg = STAGEWISE_CASES[case]
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(cfg))
        d = tmp_path / "work"
        c = ["-c", str(cfgp), "-o", str(d)]

        model = d / "model.json"
        assert main(["generate", *c]) == 0
        if cfg.get("compaction", {}).get("enabled"):
            assert main(["compact", *c, "--model", str(model)]) == 0
            model = d / f"model_{cfg['compaction']['n_steps']:02d}.json"
        assert main(["voxelize", *c, "--model", str(model)]) == 0
        assert main(["render", *c, "--labels", str(d / "labels")]) == 0
        assert main(["segment", *c, "--labels", str(d / "labels")]) == 0
        stems = ["detections_yz", "detections_xz"]
        if cfg.get("degrade", {}).get("enabled"):
            for stem in stems:
                assert main(["degrade", *c, "--detections", str(d / f"{stem}.jsonl")]) == 0
            stems = [f"{stem}_degraded" for stem in stems]
        detections = [str(d / f"{stem}.jsonl") for stem in stems]
        assert main(["reconstruct", *c, "--labels", str(d / "labels"), "-d", *detections]) == 0
        assert main(["validate", *c, "--model", str(model), "--yarns", str(d / "yarns.json")]) == 0
        pipe = tmp_path / "pipe"
        assert main(["pipeline", "-c", str(cfgp), "-o", str(pipe)]) == 0
        capsys.readouterr()

        def artifacts(root):
            return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}

        names = artifacts(pipe) - {"manifest.json"}
        assert artifacts(d) == names
        assert {f["path"] for f in read_json(pipe / "manifest.json")["files"]} == names
        for name in sorted(names):
            assert (d / name).read_bytes() == (pipe / name).read_bytes(), name
        rep = read_json(d / "report.json")
        assert len(rep["paths"]["matches"]) == 4
        assert rep["paths"]["unmatched_reference"] == []

    def test_dims_only_reports_without_writing(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(SMALL))
        d = tmp_path / "w"
        assert main(["generate", "-c", str(cfgp), "-o", str(d)]) == 0
        capsys.readouterr()
        code = main(
            ["voxelize", "-o", str(d), "--model", str(d / "model.json"), "--dims-only"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "dims 63x60x49" in out
        assert "slices xz 60 + yz 63 = 123" in out
        assert not (d / "labels.raw").exists()

    def test_degrade_subcommand_writes_sibling_file(self, small_run, tmp_path, capsys):
        run_dir, _ = small_run
        code = main(
            [
                "degrade",
                "--detections",
                str(run_dir / "detections_yz.jsonl"),
                "--dropout",
                "0.3",
                "--seed",
                "9",
                "-o",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert "kept" in capsys.readouterr().out
        assert (tmp_path / "detections_yz_degraded.jsonl").exists()

    def test_compact_subcommand_writes_sequence(self, small_run, tmp_path, capsys):
        run_dir, _ = small_run
        code = main(
            [
                "compact",
                "--model",
                str(run_dir / "model.json"),
                "--thickness",
                "44.1",
                "--steps",
                "3",
                "-o",
                str(tmp_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.glob("model_*.json")) == [
            "model_00.json",
            "model_01.json",
            "model_02.json",
            "model_03.json",
        ]
        sched = read_json(tmp_path / "compaction.json")
        assert sched["thickness"][0] == pytest.approx(49.0)
        assert sched["thickness"][-1] == pytest.approx(44.1)

    def test_pipeline_subcommand_runs_end_to_end(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({**SMALL, "reconstruct": {"write_meshes": False}}))
        d = tmp_path / "run"
        assert main(["pipeline", "-c", str(cfgp), "-o", str(d)]) == 0
        assert "pipeline done" in capsys.readouterr().out
        assert (d / "manifest.json").exists()
        assert verify_manifest(d / "manifest.json") == []

    def test_config_error_exits_2(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({"weave": {"bogus_field": 1}}))
        assert main(["generate", "-c", str(cfgp), "-o", str(tmp_path)]) == 2
        assert "unknown key weave.bogus_field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"weave": {**readme_config()["weave"], "seed": 7}}, "unknown key weave.seed"),
            ({"render": {"seed": 99}}, "unknown key render.seed"),
            ({"degrade": {"enabled": True, "dropout_rate": 2.0}},
             "bad value under degrade: dropout_rate must lie in [0, 1)"),
            ({"degrade": {"enabled": False, "dropout_rate": 2.0}},
             "bad value under degrade: dropout_rate must lie in [0, 1)"),
            ({"degrade": {"confidence_floor": 3}},
             "bad value under degrade: confidence_floor must lie in [0, 1]"),
            ({"weave": {**readme_config()["weave"], "ellipse_b": 99.0}},
             "bad value under weave: ellipse axes need a >= b > 0"),
            ({"weave": {**readme_config()["weave"], "warp_sequence": ["x"]}},
             "weave.warp_sequence[0] must be an integer within the float range"),
            ({"render": {"noise_sigma": -1.0}}, "bad value under render: noise_sigma must be non-negative"),
            ({"degrade": 5}, "degrade must be a JSON object"),
            ({"seed": "x"}, "seed must be an integer within the float range"),
            ({"seed": True}, "seed must be an integer within the float range"),
            ({"voxel_size": "x"}, "voxel_size must be a finite number"),
            ({"voxel_size": 0}, "bad value at the config root: voxel_size must be a positive finite number"),
            ({"target_vf": 3}, "bad value at the config root: target_vf must be null or lie in (0, 1]"),
            ({"target_vf": 0.0}, "bad value at the config root: target_vf must be null or lie in (0, 1]"),
            ({"n_sections_warp": 2},
             "bad value at the config root: n_sections_warp must be an integer of at least 4"),
            ({"n_sections_weft": 12.0}, "n_sections_weft must be an integer within the float range"),
            ({"fibers_per_yarn": 0},
             "bad value at the config root: fibers_per_yarn must be an integer of at least 1"),
            ({"z_margin": -1.0}, "bad value at the config root: z_margin must be a non-negative finite number"),
            ({"z_margin": 10**400}, "z_margin must be a finite number"),
            ({"voxel_budget": 0}, "bad value at the config root: voxel_budget must be an integer of at least 1"),
            ({"fibers_per_yarn": 10**400}, "fibers_per_yarn must be an integer within the float range"),
            ({"reconstruct": {"min_length": 1}}, "bad value under reconstruct: min_length must be at least 2"),
            ({"validate": {"n_bins": 0}}, "bad value under validate: n_bins must be positive"),
            ({"compaction": {"enabled": True, "thickness_final": 20, "n_steps": 0}},
             "bad value under compaction: n_steps must be at least 1"),
            ({"degrade": {"enabled": "no"}}, "degrade.enabled must be true or false"),
            ({"reconstruct": {"write_meshes": "no"}}, "reconstruct.write_meshes must be true or false"),
            ({"compaction": {"enabled": "false", "thickness_final": 20}},
             "compaction.enabled must be true or false"),
            ({"compaction": {"enabled": True}},
             "bad value under compaction: thickness_final is required when compaction is enabled"),
            ({"weave": {**readme_config()["weave"], "yarn_spacing": ["40", "40"]}},
             "weave.yarn_spacing[0] must be a finite number"),
            ({"render": {"noise_sigma": True}}, "render.noise_sigma must be a finite number"),
            ({"reconstruct": {"max_gap": "x"}}, "reconstruct.max_gap must be an integer within the float range"),
            ({"reconstruct": {"max_gap": 0}}, "bad value under reconstruct: max_gap must be at least 1"),
            ({"reconstruct": {"n_controls": 3}}, "bad value under reconstruct: n_controls must be null or at least 4"),
            ({"validate": {"voxel_size_um": -3}},
             "bad value under validate: voxel_size_um must be a positive finite number"),
        ],
        ids=["weave-seed", "render-seed", "dropout-enabled", "dropout-disabled", "confidence-floor",
             "ellipse-axes", "sequence-item", "render-range", "section-not-object", "seed-str",
             "seed-bool", "voxel-size-str", "voxel-size-zero", "target-vf-above-1", "target-vf-zero",
             "sections-warp-few", "sections-weft-float", "fibers-zero", "z-margin-negative",
             "z-margin-past-float-range", "voxel-budget-zero", "fibers-past-float-range",
             "reconstruct-min-length", "validate-n-bins", "compaction-n-steps", "degrade-enabled-str",
             "write-meshes-str", "compaction-enabled-str", "compaction-without-thickness",
             "yarn-spacing-str", "noise-sigma-bool", "max-gap-str", "max-gap-zero", "n-controls-3",
             "voxel-size-um-negative"],
    )
    def test_bad_config_exits_2_before_stage_1(self, config, message, tmp_path, capsys):
        """A bad value exits 2 naming the config file and its section."""
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["pipeline", "-c", str(cfgp), "-o", str(out)]) == 2
        assert f"config error: {cfgp}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_3(self, tmp_path, capsys):
        assert main(["render", "-o", str(tmp_path), "--labels", str(tmp_path / "nope")]) == 3
        assert "io error" in capsys.readouterr().err

    def test_invalid_json_input_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        assert main(["voxelize", "-o", str(tmp_path), "--model", str(bad)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_stage_failure_exits_10_plus_stage(self, tmp_path, capsys):
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(SMALL))
        assert main(["pipeline", "-c", str(cfgp), "-o", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "manifest.json").is_file()
        capsys.readouterr()
        # A failed rerun into the same directory leaves no manifest behind.
        cfgp.write_text(json.dumps({**SMALL, "seed": 4, "voxel_budget": 10000}))
        code = main(["pipeline", "-c", str(cfgp), "-o", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == 13  # voxelize is stage 3
        assert "stage 3" in err
        assert not (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("stage", STAGES)
    def test_every_stage_failure_exits_10_plus_its_index(
        self, stage, tmp_path, capsys, monkeypatch
    ):
        import textilemodel.pipeline as pipeline

        def fail(run):
            raise RuntimeError(f"injected into {stage}")

        monkeypatch.setitem(pipeline.STAGE_FUNCTIONS, stage, fail)
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps({**STAGEWISE_CASES["compaction"], **STAGEWISE_CASES["degrade"]}))
        out = tmp_path / "run"
        out.mkdir()
        (out / "manifest.json").write_text("{}")  # left by an earlier run
        k = stage_index(stage)
        assert main(["pipeline", "-c", str(cfgp), "-o", str(out)]) == 10 + k
        err = capsys.readouterr().err
        assert f"stage {k} ({stage}) failed: injected into {stage}" in err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "name, corrupt, command, message",
        [
            ("model.json", lambda d: [], "validate", "top level is not a JSON object"),
            ("yarns.json", lambda d: _without(d, "yarns"), "validate", "missing key 'yarns'"),
            ("model.json", lambda d: {**d, "spec": _without(d["spec"], "n_warp_columns")},
             "voxelize", "missing key 'spec.n_warp_columns'"),
            ("labels.json", lambda d: _without(d, "dims"), "render", "missing key 'dims'"),
            ("labels.json", None, "render", "invalid JSON"),
            ("model.json", lambda d: {**d, "spec": []}, "voxelize", "spec must be a JSON object"),
            ("yarns.json", lambda d: {**d, "yarns": 5}, "validate", "yarns must be a list"),
            ("yarns.json", lambda d: {**d, "voxel_size": "big"}, "validate", "voxel_size must be a finite number"),
            ("labels.json", lambda d: {**d, "dims": "abc"}, "segment", "dims must be a list of 3 items"),
            ("labels.json", lambda d: {**d, "dims": "abc"}, "reconstruct", "dims must be a list of 3 items"),
            ("labels.json", lambda d: {**d, "origin": [1, 2]}, "segment", "origin must be 3 finite numbers"),
            ("labels.json", lambda d: {**d, "origin": [1, 2]}, "reconstruct",
             "origin must be 3 finite numbers"),
            ("labels.json", lambda d: {**d, "dtype": "zz"}, "segment", "dtype must be that of its kind"),
            ("labels.json", lambda d: {**d, "label_map": 5}, "segment", "label_map must be a JSON object"),
            ("labels.json", lambda d: {**d, "label_map": {"x": "warp"}}, "segment",
             "label_map must be an object keyed by decimal labels"),
            ("labels.json", lambda d: {**d, "voxel_size": "x"}, "reconstruct", "voxel_size must be a finite number"),
            ("labels.json", lambda d: {**d, "voxel_size": 10**400}, "reconstruct",
             "voxel_size must be a finite number"),
            ("yarns.json", lambda d: _with(d, ["yarns", 0, "path", "degree"], 0), "validate",
             "curve degree must be >= 1"),
            ("yarns.json", lambda d: _with(d, ["yarns", 0, "completed"], "abc"), "validate",
             "yarns[0].completed must be a list"),
            ("yarns.json", lambda d: _with(d, ["yarns", 0, "completed", 0], "no"), "validate",
             "yarns[0].completed[0] must be true or false"),
            *(
                ("yarns.json", lambda d, gaps=gaps: _with(d, ["yarns", 0, "boundary_gaps"], gaps), "validate",
                 message)
                for gaps, message in _BAD_GAPS
            ),
            *(
                (name, lambda d, degree=degree: _with(d, ["yarns", 0, "path", "degree"], degree), command,
                 "yarns[0].path.degree must be an integer within the float range")
                for name, command in (("yarns.json", "validate"), ("model.json", "voxelize"))
                for degree in (3.9, "3")
            ),
            ("yarns.json", lambda d: _with(_with(d, ["yarns", 0, "axis"], "yz"), ["yarns", 0, "family"], "weft"),
             "validate", "family 'weft' does not match axis 'yz' ('warp')"),
            ("yarns.json", lambda d: _with(d, ["yarns", 0, "axis"], "xy"), "validate",
             "axis must be one of ['xz', 'yz'], got 'xy'"),
            ("model.json", lambda d: _with(d, ["fibers", "fibers_per_yarn"], 10**400), "validate",
             "fibers.fibers_per_yarn must be an integer within the float range"),
            ("model.json", _short_contour, "voxelize", "yarns[0].sections[2].contour must be 10 × 3 finite numbers"),
            ("yarns.json", _short_contour, "validate", "yarns[0].sections[2].contour must be 10 × 3 finite numbers"),
            *(
                (name, lambda d, keys=keys: _with(d, keys, 10**400), command, message)
                for name, command, keys, message in _OVERFLOW_CASES
            ),
            # Values that loaded as something else before the schema.
            ("model.json", lambda d: {**d, "thickness": "80.0"}, "voxelize", "thickness must be a finite number"),
            ("model.json", lambda d: _with(d, ["spec", "warp_sequence"], [2.7]), "voxelize",
             "spec.warp_sequence[0] must be an integer within the float range"),
            ("model.json", lambda d: _with(d, ["spec", "n_warp_columns"], 4.0), "voxelize",
             "spec.n_warp_columns must be an integer within the float range"),
            ("model.json", lambda d: _strings(d, ["yarns", 0, "path", "knots"]), "voxelize",
             "yarns[0].path.knots must be n finite numbers"),
            ("model.json", lambda d: _strings(d, ["bbox", "lo"]), "voxelize", "bbox.lo must be 3 finite numbers"),
            ("model.json", lambda d: _with(d, ["yarns", 0, "sections", 1, "station"], "1.0"), "voxelize",
             "yarns[0].sections[1].station must be a finite number"),
            *(
                ("model.json", lambda d, v=v: _with(d, ["yarns", 0, "id"], v), "voxelize",
                 "yarns[0].id must be an integer within the float range")
                for v in (True, 1.0)
            ),
            ("yarns.json", lambda d: {**d, "voxel_size": "1.0"}, "validate", "voxel_size must be a finite number"),
            ("yarns.json", lambda d: _strings(d, ["origin"]), "validate", "origin must be 3 finite numbers"),
            ("labels.json", lambda d: {**d, "label_map": {"1": 5}}, "render", "label_map.1 must be one of 'warp', 'weft'"),
        ],
    )
    def test_malformed_json_input_exits_2_naming_the_file(
        self, name, corrupt, command, message, small_run, tmp_path, capsys
    ):
        files = ("model.json", "yarns.json", "labels.json", "labels.raw")
        for f in files + ("detections_yz.jsonl", "detections_xz.jsonl"):
            shutil.copy(small_run[0] / f, tmp_path / f)
        path = tmp_path / name
        text = path.read_text()
        path.write_text(text[: len(text) // 2] if corrupt is None else json.dumps(corrupt(json.loads(text))))
        labels = ["--labels", str(tmp_path / "labels")]
        args = {
            "validate": ["-m", str(tmp_path / "model.json"), "-y", str(tmp_path / "yarns.json")],
            "voxelize": ["-m", str(tmp_path / "model.json")],
            "render": labels,
            "segment": labels,
            "reconstruct": labels + ["-d", *(str(tmp_path / f"detections_{a}.jsonl") for a in ("yz", "xz"))],
        }[command]
        out = tmp_path / "out"
        assert main([command, *args, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {path}: {message}" in err
        assert err.count(str(path)) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["render", "segment"])
    @pytest.mark.parametrize("size", [1000, None])
    def test_raw_of_the_wrong_size_exits_2_naming_it(self, command, size, small_run, tmp_path, capsys):
        for f in ("labels.json", "labels.raw"):
            shutil.copy(small_run[0] / f, tmp_path / f)
        raw = tmp_path / "labels.raw"
        full = raw.stat().st_size
        raw.write_bytes(raw.read_bytes()[: full - 2] if size is None else bytes(size))
        out = tmp_path / "out"
        assert main([command, "-l", str(tmp_path / "labels"), "-o", str(out)]) == 2
        got = full - 2 if size is None else size
        assert f"config error: {raw}: {got} bytes, but dims" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["render", "segment"])
    def test_gray_volume_for_labels_exits_2_naming_its_sidecar(self, command, small_run, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([command, "-l", str(small_run[0] / "pseudo_ct"), "-o", str(out)]) == 2
        sidecar = small_run[0] / "pseudo_ct.json"
        assert f"config error: {sidecar}: kind must be 'labels', got 'gray'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda r: r.pop("contour"), "missing key 'contour'"),
            (lambda r: r.update(true_label="x"), "true_label must be an integer within the float range"),
            (lambda r: r.update(true_label=-2), "true_label must be a non-negative integer or null"),
            (lambda r: r.update(center=[10**400, 1.0]), "center must be 2 finite numbers"),
            (lambda r: r.update(confidence=10**400), "confidence must be a finite number"),
            (lambda r: r.update(slice_index=10**400), "slice_index must be an integer within the float range"),
            (lambda r: r.update(true_label=10**400), "true_label must be an integer within the float range"),
            (lambda r: r.update(slice_index=2**63), "slice_index must fit in 64 bits"),
            (lambda r: r.update(true_label=2**63), "true_label must fit in 64 bits"),
            (lambda r: r.update(confidence="0.5"), "confidence must be a finite number"),
            (lambda r: r.update(center=["1", "2"]), "center must be 2 finite numbers"),
        ],
    )
    def test_malformed_detection_record_exits_2(self, corrupt, message, tmp_path, capsys):
        path = write_detections(straight_dset(n_slices=4), tmp_path / "detections_yz.jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        corrupt(records[2])
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "out"
        for command in ("degrade", "reconstruct"):
            assert main([command, "-d", str(path), "-o", str(out)]) == 2
            assert f"config error: {path}:3: {message}" in capsys.readouterr().err
        assert not (out / "detections_yz_degraded.jsonl").exists()

    def test_detection_pair_takes_slice_counts_from_the_labels(self, tmp_path):
        path = write_detections(straight_dset(n_slices=4), tmp_path / "det.jsonl")
        meta = {"dims": [6, 9, 9], "voxel_size": 0.5, "origin": [1.0, 2.0, 3.0]}
        (ds,) = read_detection_pair([path], meta)
        assert (ds.n_slices, ds.voxel_size, ds.origin.tolist()) == (6, 0.5, [1.0, 2.0, 3.0])
        assert read_detection_pair([path])[0].n_slices == 4
        with pytest.raises(ConfigError, match=r"det\.jsonl: slice_index 3 outside dataset"):
            read_detection_pair([path], {**meta, "dims": [3, 9, 9]})


class TestImportGraph:
    def test_pipeline_loads_no_scipy(self, tmp_path):
        """Detection, gap filling and validation use numpy kernels, so
        importing the CLI and running a degraded pipeline (which labels
        and traces components, fits gap splines and measures Hausdorff
        distances) must not load any scipy module."""
        import textilemodel

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(STAGEWISE_CASES["degrade"]))
        script = (
            "import sys\n"
            "import textilemodel.pipeline, textilemodel.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            f"code = textilemodel.cli.main(['pipeline', '-c', {str(cfg)!r}, '-o', {str(tmp_path / 'run')!r}])\n"
            "print(loaded())\n"
            "sys.exit(code)\n"
        )
        src = str(Path(textilemodel.__file__).resolve().parent.parent)
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == "[]"
        assert done.stdout.splitlines()[-1] == "[]"
