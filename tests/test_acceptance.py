"""End-to-end acceptance checks: one test per shipped guarantee.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per guarantee.  Each test also prints the measured numbers.
"""

import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from textilemodel.cli import main
from textilemodel.geometry import Box, ellipse_sections, ring_areas
from textilemodel.pipeline import PipelineConfig, grid_box, stage_seed
from textilemodel.reconstruct import (
    build_composite_mesh,
    build_surface_mesh,
    build_volume_mesh,
    enclosed_volume,
    euler_characteristic,
    is_watertight,
    reconstruct_yarns,
    wedge_volumes,
)
from textilemodel.segmenter import DegradeConfig, degrade, detect_batch, filter_transverse
from textilemodel.storage import load_yarns, read_json, save_yarns
from textilemodel.synthgen import (
    FiberSpec,
    compaction_sequence,
    fiber_spec_for_target_vf,
    generate_interlock,
    with_fibers,
)
from textilemodel.validate import hausdorff, match_and_assess_paths, vf_distribution
from textilemodel.voxelizer import compute_dims, slice_count, voxelize

from test_voxelizer import ref_serial_paint_labels

MICRO_CT_VOXEL = 0.02  # mm


@pytest.fixture(scope="module")
def clean_chain():
    """Desk-scale interlock pushed through the full clean oracle chain."""
    cfg = PipelineConfig(seed=11)
    t0 = time.perf_counter()
    model = generate_interlock(
        cfg.weave,
        n_sections_warp=cfg.n_sections_warp,
        n_sections_weft=cfg.n_sections_weft,
        z_margin=cfg.z_margin,
    )
    model = with_fibers(model, fiber_spec_for_target_vf(model, 0.6, 1000))
    vol = voxelize(model, voxel_size=cfg.voxel_size)
    dsets = [
        filter_transverse(detect_batch(vol, axis, min_area=12), max_aspect=6.0)
        for axis in ("yz", "xz")
    ]
    t_detect = time.perf_counter() - t0
    yarns, tracks = reconstruct_yarns(dsets, d_gate=cfg.gate())
    elapsed = time.perf_counter() - t0
    return SimpleNamespace(
        model=model,
        volume=vol,
        dsets=dsets,
        yarns=yarns,
        tracks=tracks,
        t_detect=t_detect,
        elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def degraded_chain(clean_chain):
    """Same fixture with detection dropout and keypoint jitter."""
    t0 = time.perf_counter()
    dsets = []
    for ds in clean_chain.dsets:
        params = DegradeConfig(dropout_rate=0.2, jitter_sigma=0.5)
        dsets.append(degrade(ds, params, stage_seed(7, f"degrade:{ds.axis}")))
    yarns, tracks = reconstruct_yarns(dsets, d_gate=PipelineConfig().gate())
    elapsed = clean_chain.t_detect + time.perf_counter() - t0
    return SimpleNamespace(dsets=dsets, yarns=yarns, tracks=tracks, elapsed=elapsed)


def test_volume_dimension_bookkeeping_reproduces_reference_boxes():
    t0 = time.perf_counter()
    big = Box(lo=(0.0, 0.0, 0.0), hi=(33.96, 36.28, 8.04))
    crop = Box(lo=(0.0, 0.0, 0.0), hi=(28.02, 28.02, 6.42))
    dims_big = compute_dims(big, MICRO_CT_VOXEL)
    dims_crop = compute_dims(crop, MICRO_CT_VOXEL)
    n_xz = slice_count(dims_big, "xz")
    n_yz = slice_count(dims_big, "yz")
    elapsed = time.perf_counter() - t0

    assert dims_big == (1698, 1814, 402)
    assert dims_crop == (1401, 1401, 321)
    assert (n_xz, n_yz, n_xz + n_yz) == (1814, 1698, 3512)
    assert elapsed < 1.0
    print(
        f"\nvolume bookkeeping: {dims_big} and {dims_crop}, "
        f"slices {n_xz} + {n_yz} = {n_xz + n_yz}, {elapsed * 1e3:.1f} ms"
    )


def test_compaction_schedule_is_linear_with_fixed_midplane():
    cfg = PipelineConfig()
    model = generate_interlock(cfg.weave, n_sections_warp=12, n_sections_weft=12)
    t0 = time.perf_counter()
    seq = compaction_sequence(model, 64.0, 12)
    elapsed = time.perf_counter() - t0

    assert len(seq) == 13
    h0, hf = model.thickness, 64.0
    z_mid = 0.5 * (model.bbox.lo[2] + model.bbox.hi[2])
    worst = 0.0
    for k, m in enumerate(seq):
        expected = h0 - k * (h0 - hf) / 12
        worst = max(worst, abs(m.thickness - expected) / expected)
        assert m.thickness == pytest.approx(expected, rel=1e-9)
        assert 0.5 * (m.bbox.lo[2] + m.bbox.hi[2]) == pytest.approx(z_mid, abs=1e-9)
        f = m.thickness / h0
        for y0, yk in zip(model.yarns, m.yarns):
            z0 = y0.path.control_points[:, 2]
            zk = yk.path.control_points[:, 2]
            np.testing.assert_allclose(zk, z_mid + f * (z0 - z_mid), rtol=1e-9, atol=1e-9)
    assert elapsed < 1.0
    print(
        f"\ncompaction: 13 models, {h0:g} -> {hf:g}, worst thickness error "
        f"{worst:.2e} rel, mid-plane fixed at z={z_mid:g}, {elapsed * 1e3:.0f} ms"
    )


def test_clean_oracle_round_trip_recovers_every_yarn_within_2_voxels(clean_chain):
    model, yarns, tracks = clean_chain.model, clean_chain.yarns, clean_chain.tracks
    assert len(tracks) == len(model.yarns) == 16
    report = match_and_assess_paths(model, yarns)
    assert report.unmatched_reference == ()
    assert report.unmatched_yarns == ()
    distances = [m.d_symmetric for m in report.matches]
    assert len(distances) == 16
    assert max(distances) <= 2.0
    assert clean_chain.elapsed < 60.0
    print(
        f"\nclean round trip: 16/16 yarns matched, symmetric Hausdorff "
        f"max {max(distances):.3f} vx (limit 2), chain {clean_chain.elapsed:.1f} s"
    )


def test_degraded_round_trip_stays_within_3_voxels_and_fills_interior_gaps(
    clean_chain, degraded_chain
):
    model = clean_chain.model
    yarns, tracks = degraded_chain.yarns, degraded_chain.tracks
    report = match_and_assess_paths(model, yarns)
    distances = [m.d_symmetric for m in report.matches]
    within = sum(1 for d in distances if d <= 3.0)
    assert within / len(model.yarns) >= 0.95

    n_filled = 0
    n_boundary = 0
    for tr in tracks:
        # interior gaps are all gone after completion ...
        assert tr.gaps == ()
        observed = tr.indices.tolist()
        assert observed == list(range(observed[0], observed[-1] + 1))
        n_filled += len(tr.filled)
        # ... while boundary gaps stay reported and unfilled
        for start, end in tr.boundary_gaps:
            n_boundary += 1
            assert end < observed[0] or start > observed[-1]
            assert not any(start <= i <= end for i in tr.filled)
    assert n_filled > 0
    assert degraded_chain.elapsed < 90.0
    print(
        f"\ndegraded round trip: {within}/{len(distances)} yarns within 3 vx "
        f"(max {max(distances):.3f}), {n_filled} interior sections filled, "
        f"{n_boundary} boundary gap runs reported, {degraded_chain.elapsed:.1f} s"
    )


def test_reconstructed_meshes_are_watertight_and_volume_consistent(clean_chain):
    t0 = time.perf_counter()
    worst_rel = 0.0
    for yarn in clean_chain.yarns:
        surface = build_surface_mesh(yarn)
        n_sections = len(yarn.sections)
        assert len(surface.quads) == 10 * (n_sections - 1)
        assert len(surface.cap_triangles) == 20
        assert is_watertight(surface)
        assert euler_characteristic(surface) == 2
        v_surface = enclosed_volume(surface)
        v_wedges = wedge_volumes(build_volume_mesh(yarn)).sum()
        rel = abs(v_wedges - v_surface) / v_surface
        worst_rel = max(worst_rel, rel)
        assert rel < 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\nmesh integrity: 16 yarns watertight, Euler 2, wedge vs surface "
        f"volume worst {worst_rel:.2e} rel (limit 1e-2), {elapsed:.1f} s"
    )


def test_composite_mesh_labels_match_the_serial_painter(clean_chain):
    # The pipeline's composite grid: coarse cells over the label grid's box.
    vol, yarns = clean_chain.volume, clean_chain.yarns
    box = grid_box(vol.origin, vol.dims, vol.voxel_size)
    cell = PipelineConfig().reconstruct.composite_cell
    t0 = time.perf_counter()
    mesh = build_composite_mesh(yarns, box, cell_size=cell)
    elapsed = time.perf_counter() - t0

    dims = compute_dims(box, cell)
    geoms = [(i + 1, y.sections.rings, y.sections.centers) for i, y in enumerate(yarns)]
    ref = ref_serial_paint_labels(geoms, dims, box.lo, cell)
    assert np.array_equal(mesh.hex_labels, ref.reshape(-1))
    assert set(np.unique(mesh.hex_labels)) == set(range(len(yarns) + 1))
    print(
        f"\ncomposite mesh: {dims} cells of {cell:g}, labels equal to the serial "
        f"painter over {sum(len(y.sections) - 1 for y in yarns)} segments, {elapsed:.3f} s"
    )


def test_fiber_volume_fraction_recovers_target_and_flags_fire(clean_chain):
    t0 = time.perf_counter()
    report = vf_distribution(clean_chain.yarns, clean_chain.model.fibers)
    elapsed = time.perf_counter() - t0

    assert 0.55 <= report.mean <= 0.65
    assert np.all((report.values >= 0.0) & (report.values <= 1.0))
    assert elapsed < 5.0

    sec = ellipse_sections([(0, 0, 0)], [(1, 0, 0)], a=4.0, b=2.0)
    area = ring_areas(sec.rings)[0]

    def case(raw):
        r = math.sqrt(raw * area / (math.pi * 100))
        one = SimpleNamespace(sections=sec)
        rep = vf_distribution([one], FiberSpec(fiber_radius=r, fibers_per_yarn=100))
        return rep.values[0], rep.n_capped, rep.n_over_hex_limit

    assert case(1.05) == (1.0, 1, 1)
    value, n_capped, n_over = case(0.95)
    assert (n_capped, n_over) == (0, 1) and value == pytest.approx(0.95)
    assert case(0.85)[1:] == (0, 0)
    print(
        f"\nfiber volume fraction: mean {report.mean:.4f} in [0.55, 0.65], "
        f"{len(report.values)} sections all in [0, 1], cap and hex-limit "
        f"flags fire on raw 1.05 / 0.95 / 0.85, {elapsed:.2f} s"
    )


def test_pipeline_runs_are_byte_identical_for_same_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11}))
    dirs = (tmp_path / "a", tmp_path / "b")
    for d in dirs:
        assert main(["pipeline", "-c", str(cfg), "-o", str(d)]) == 0

    rels = [
        sorted(p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file())
        for d in dirs
    ]
    assert rels[0] == rels[1]
    n_same = 0
    for rel in rels[0]:
        if rel == "manifest.json":
            continue
        assert (dirs[0] / rel).read_bytes() == (dirs[1] / rel).read_bytes(), rel
        n_same += 1

    manifests = []
    for d in dirs:
        m = read_json(d / "manifest.json")
        m.pop("created")
        for s in m["stages"]:
            s.pop("seconds")
        manifests.append(m)
    assert manifests[0] == manifests[1]
    print(
        f"\ndeterminism: {n_same} artifacts byte-identical across two runs, "
        f"manifests equal up to timings"
    )


def test_seed11_yarns_files_load_and_resave_byte_identically(clean_chain, degraded_chain, tmp_path):
    gaps = {}
    for name, chain in (("clean", clean_chain), ("degraded", degraded_chain)):
        first, second = tmp_path / f"{name}.json", tmp_path / f"{name}_again.json"
        save_yarns(chain.yarns, first, voxel_size=chain.dsets[0].voxel_size, origin=chain.dsets[0].origin)
        yarns, voxel_size, origin = load_yarns(first)
        save_yarns(yarns, second, voxel_size=voxel_size, origin=origin)
        assert first.read_bytes() == second.read_bytes()
        gaps[name] = sum(len(y.boundary_gaps) for y in yarns)
    assert gaps["degraded"] > 0  # the gap check saw real gaps
    print(f"\nyarns.json round trip: byte-identical, boundary gaps clean {gaps['clean']}, degraded {gaps['degraded']}")


def test_distance_and_area_metrics_match_brute_force_oracles():
    def dense(pts, n=4001):
        seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        t = np.linspace(0.0, s[-1], n)
        return np.column_stack([np.interp(t, s, pts[:, d]) for d in range(3)]), s[-1]

    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        a = np.cumsum(rng.normal(0, 1, (int(rng.integers(6, 30)), 3)), axis=0)
        b = np.cumsum(rng.normal(0, 1, (int(rng.integers(6, 30)), 3)), axis=0)
        da, la = dense(a)
        db, lb = dense(b)
        d = cdist(da, db)
        oracle = max(d.min(axis=1).max(), d.min(axis=0).max())
        got = hausdorff(a, b)[2]
        tol = max(la, lb) / 200
        worst = max(worst, abs(got - oracle) / tol)
        assert abs(got - oracle) <= tol

    worst_area = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        r = float(rng.uniform(0.5, 6.0))
        th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
        flat = np.column_stack([r * np.cos(th), r * rng.uniform(0.4, 1.0) * np.sin(th), np.zeros(10)])
        u, v = flat[:, 0], flat[:, 1]
        shoelace = 0.5 * abs(float(np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v)))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        ang = float(rng.uniform(0, 2 * np.pi))
        K = np.array(
            [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
        )
        R = np.eye(3) + math.sin(ang) * K + (1 - math.cos(ang)) * (K @ K)
        ring = flat @ R.T + rng.normal(0, 10, 3)
        err = abs(ring_areas(ring[None])[0] - shoelace)
        worst_area = max(worst_area, err)
        assert err < 1e-9
    print(
        f"\nmetric oracles: 25 Hausdorff pairs within length/200 of dense "
        f"brute force (worst {worst:.2f} of tolerance), 10 rigid-motion "
        f"decagons match shoelace areas (worst {worst_area:.1e})"
    )
