"""Hausdorff path metrics, path matching, and fiber volume fraction."""

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from textilemodel.errors import ConfigError, InsufficientDataError
from textilemodel.geometry import bspline_fit, ellipse_sections, resample_arclength, ring_areas
from textilemodel.synthgen import FiberSpec, WeaveSpec, generate_interlock
from textilemodel.validate import (
    HEX_PACKING_LIMIT,
    PATH_SAMPLES,
    PathMatch,
    PathReport,
    hausdorff,
    match_and_assess_paths,
    vf_distribution,
    write_report,
)


def line(p0, p1):
    return np.array([p0, p1], dtype=float)


class TestHausdorff:
    def test_identical_paths_are_zero(self):
        a = np.column_stack([np.linspace(0, 10, 7), np.zeros(7), np.zeros(7)])
        fwd, bwd, sym = hausdorff(a, a.copy())
        assert fwd == bwd == sym == 0.0

    def test_parallel_lines_give_offset(self):
        a = line((0, 0, 0), (10, 0, 0))
        b = line((0, 3, 0), (10, 3, 0))
        fwd, bwd, sym = hausdorff(a, b)
        assert sym == pytest.approx(3.0, abs=1e-9)

    def test_directed_asymmetry_for_subset(self):
        short = line((0, 0, 0), (5, 0, 0))
        full = line((0, 0, 0), (10, 0, 0))
        fwd, bwd, sym = hausdorff(short, full)
        assert fwd == pytest.approx(0.0, abs=0.05)  # resample grid residue
        assert bwd == pytest.approx(5.0, abs=1e-9)
        assert sym == bwd

    def test_symmetric_is_max_of_directed(self):
        rng = np.random.default_rng(3)
        a = np.cumsum(rng.normal(size=(12, 3)), axis=0)
        b = np.cumsum(rng.normal(size=(9, 3)), axis=0)
        fwd, bwd, sym = hausdorff(a, b)
        assert sym == max(fwd, bwd)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 60), st.booleans())
    def test_bits_match_cdist_of_the_resampled_paths(self, seed, n_samples, shared):
        rng = np.random.default_rng(seed)
        a, b = (np.cumsum(rng.normal(size=(int(rng.integers(2, 12)), 3)), axis=0) for _ in "ab")
        if shared:  # b runs along a's first half: zero distances on that stretch
            b = np.vstack([a[: len(a) // 2 + 1], b + a[len(a) // 2] - b[0] + 1.0])
        d = cdist(resample_arclength(a, n_samples), resample_arclength(b, n_samples))
        want = (float(d.min(axis=1).max()), float(d.min(axis=0).max()))
        assert hausdorff(a, b, n_samples) == (*want, max(want))

    def test_matches_dense_oracle_on_random_pairs(self):
        # Independent oracle: very dense uniform arc-length sampling of
        # both polylines, then brute-force max-min over the point sets.
        def dense(pts, n=4001):
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            s = np.concatenate([[0.0], np.cumsum(seg)])
            t = np.linspace(0.0, s[-1], n)
            cols = [np.interp(t, s, pts[:, d]) for d in range(3)]
            return np.column_stack(cols), s[-1]

        for seed in range(25):
            rng = np.random.default_rng(seed)
            a = np.cumsum(rng.normal(0, 1, (int(rng.integers(6, 30)), 3)), axis=0)
            b = np.cumsum(rng.normal(0, 1, (int(rng.integers(6, 30)), 3)), axis=0)
            da, la = dense(a)
            db, lb = dense(b)
            d = cdist(da, db)
            oracle = max(d.min(axis=1).max(), d.min(axis=0).max())
            got = hausdorff(a, b)[2]
            assert abs(got - oracle) <= max(la, lb) / 200

    def test_bad_sample_count(self):
        a = line((0, 0, 0), (1, 0, 0))
        with pytest.raises(ConfigError):
            hausdorff(a, a, n_samples=1)


def tiny_model(n=2):
    spec = WeaveSpec(
        n_warp_columns=n,
        n_weft_columns=n,
        warp_sequence=(1,),
        weft_sequence=(1,),
        yarn_spacing=(30.0, 30.0),
        crimp_amplitude=6.0,
        ellipse_a=5.0,
        ellipse_b=2.5,
    )
    return generate_interlock(spec)


class TestMatching:
    def test_model_matches_itself(self):
        model = tiny_model()
        report = match_and_assess_paths(model, list(model.yarns))
        assert len(report.matches) == len(model.yarns)
        assert report.unmatched_reference == ()
        assert report.unmatched_yarns == ()
        assert report.max_distance() == pytest.approx(0.0, abs=1e-12)

    def test_families_never_cross_match(self):
        model = tiny_model()
        recs = list(model.yarns)
        report = match_and_assess_paths(model, recs)
        for m in report.matches:
            assert model.yarns[m.reference_id - 1].family == m.family
            assert recs[m.yarn_index].family == m.family

    def test_extra_yarn_reported_unmatched(self):
        model = tiny_model()
        path = bspline_fit(
            np.array([[0.0, 0, 200], [30.0, 0, 200]]), degree=1, n_controls=2
        )
        xs = np.array([0.0, 15.0, 30.0])
        centers = np.column_stack([xs, np.zeros(3), np.full(3, 200.0)])
        sections = ellipse_sections(centers, [(1, 0, 0)] * 3, a=5.0, b=2.5, stations=xs)
        stray = type(model.yarns[0])(
            yarn_id=99, family="warp", path=path, sections=sections
        )
        report = match_and_assess_paths(model, list(model.yarns) + [stray])
        assert report.unmatched_yarns == (len(model.yarns),)

    def test_missing_yarn_reported(self):
        model = tiny_model()
        report = match_and_assess_paths(model, list(model.yarns)[1:])
        assert len(report.unmatched_reference) == 1

    def test_report_text_and_dict(self):
        model = tiny_model()
        report = match_and_assess_paths(model, list(model.yarns), voxel_size_um=20.0)
        d = report.to_dict()
        assert d["voxel_size_um"] == 20.0
        assert len(d["matches"]) == len(model.yarns)
        assert d["matches"][0]["d_symmetric_um"] == pytest.approx(
            d["matches"][0]["d_symmetric"] * 20.0
        )
        text = report.to_text()
        assert text.splitlines()[0].split() == ["family", "ref", "yarn", "fwd", "bwd", "sym", "sym", "um"]


def ref_match_and_assess_paths(model, yarns, n_samples=PATH_SAMPLES, voxel_size_um=1.0):
    """The per-pair matcher: one ``hausdorff`` call, and so two resamples, per pair."""
    yarns = list(yarns)
    matches = []
    used_ref: set = set()
    used_rec: set = set()
    for family in ("warp", "weft"):
        refs = [y for y in model.yarns if y.family == family]
        recs = [(i, y) for i, y in enumerate(yarns) if y.family == family]
        pairs = []
        for ref in refs:
            for i, rec in recs:
                d_ab, d_ba, d_sym = hausdorff(ref.path, rec.path, n_samples)
                pairs.append((d_sym, d_ab, d_ba, ref.yarn_id, i))
        pairs.sort(key=lambda p: (p[0], p[3], p[4]))
        for d_sym, d_ab, d_ba, ref_id, i in pairs:
            if ref_id in used_ref or i in used_rec:
                continue
            used_ref.add(ref_id)
            used_rec.add(i)
            matches.append(PathMatch(family, ref_id, i, d_ab, d_ba, d_sym))
    matches.sort(key=lambda m: (m.family, m.reference_id))
    return PathReport(
        matches=tuple(matches),
        unmatched_reference=tuple(y.yarn_id for y in model.yarns if y.yarn_id not in used_ref),
        unmatched_yarns=tuple(i for i in range(len(yarns)) if i not in used_rec),
        voxel_size_um=voxel_size_um,
    )


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ConfigError as exc:
        return str(exc)


# (family, path index): paths come from a pool of four, so equal paths,
# and with them tied distances, are frequent.
PATH_PICKS = st.lists(st.tuples(st.sampled_from(["warp", "weft"]), st.integers(0, 3)), max_size=6)


class TestMatchingMatchesPerPairReference:
    @given(st.integers(0, 2**16), PATH_PICKS, PATH_PICKS, st.integers(1, 40))
    @settings(max_examples=150, deadline=None)
    def test_report_equals_the_per_pair_loop(self, seed, ref_picks, rec_picks, n_samples):
        rng = np.random.default_rng(seed)
        pool = [np.cumsum(rng.normal(size=(int(rng.integers(3, 12)), 3)), axis=0) for _ in range(3)]
        pool.append(bspline_fit(np.cumsum(rng.normal(size=(12, 3)), axis=0), degree=3, n_controls=6))
        model = SimpleNamespace(
            yarns=[
                SimpleNamespace(yarn_id=2 * k + 1, family=f, path=pool[j])
                for k, (f, j) in enumerate(ref_picks)
            ]
        )
        recs = [SimpleNamespace(family=f, path=pool[j]) for f, j in rec_picks]
        got = _outcome(match_and_assess_paths, model, recs, n_samples, 1.0)
        assert got == _outcome(ref_match_and_assess_paths, model, recs, n_samples, 1.0)


@dataclass(frozen=True)
class RefVfValue:
    value: float
    raw: float
    capped: bool
    over_hex_limit: bool


def ref_fiber_volume_fraction(ring, fibers) -> RefVfValue:
    """The one-section Vf that vf_distribution replaced:
    n * pi * r^2 / A of one ring, clamped to 1, with its flags."""
    area = float(ring_areas(ring[None])[0])
    if area <= 0:
        raise InsufficientDataError("section area must be positive")
    raw = fibers.fibers_per_yarn * math.pi * fibers.fiber_radius**2 / area
    return RefVfValue(
        value=min(1.0, raw),
        raw=raw,
        capped=raw > 1.0,
        over_hex_limit=raw > HEX_PACKING_LIMIT,
    )


def one_section_vf(raw=None, fiber_radius=None):
    """vf_distribution over one 4 x 2 elliptical section, with the fiber
    radius given or chosen so that 100 fibers make Vf = ``raw``."""
    sec = ellipse_sections([(0, 0, 0)], [(1, 0, 0)], a=4.0, b=2.0)
    area = ring_areas(sec.rings)[0]
    if fiber_radius is None:
        fiber_radius = math.sqrt(raw * area / (math.pi * 100))
    rep = vf_distribution([SimpleNamespace(sections=sec)], FiberSpec(fiber_radius, 100))
    return rep, area


class TestVf:
    def test_exact_value(self):
        rep, area = one_section_vf(fiber_radius=0.1)
        assert rep.values[0] == pytest.approx(100 * math.pi * 0.01 / area, rel=1e-12)
        assert rep.n_capped == rep.n_over_hex_limit == 0

    def test_cap_flag(self):
        rep, _ = one_section_vf(raw=1.05)
        assert rep.values.tolist() == [1.0]
        assert rep.n_capped == rep.n_over_hex_limit == 1

    def test_hex_limit_flag_without_cap(self):
        rep, _ = one_section_vf(raw=0.95)
        assert rep.n_capped == 0 and rep.n_over_hex_limit == 1
        assert rep.values[0] == pytest.approx(0.95, rel=1e-9)
        assert HEX_PACKING_LIMIT == pytest.approx(math.pi / (2 * math.sqrt(3)))

    def test_below_hex_limit_clean(self):
        rep, _ = one_section_vf(raw=0.85)
        assert rep.n_capped == rep.n_over_hex_limit == 0


class TestVfDistribution:
    def test_distribution_over_model(self):
        model = tiny_model()
        fibers = FiberSpec(fiber_radius=0.15, fibers_per_yarn=500)
        rep = vf_distribution(model.yarns, fibers, n_bins=10)
        assert len(rep.per_yarn_mean) == len(model.yarns)
        assert rep.bin_counts.sum() == len(rep.values)
        assert np.all(rep.values >= 0.0) and np.all(rep.values <= 1.0)
        assert rep.mean == pytest.approx(float(rep.values.mean()))
        assert len(rep.bin_edges) == 11

    def test_flag_counters(self):
        model = tiny_model()
        area = min(ring_areas(y.sections.rings).min() for y in model.yarns)
        r = math.sqrt(2.0 * area / (math.pi * 100))  # raw >= 2 everywhere
        rep = vf_distribution(model.yarns, FiberSpec(fiber_radius=r, fibers_per_yarn=100))
        assert rep.n_capped == len(rep.values)
        assert rep.n_over_hex_limit == len(rep.values)
        assert np.all(rep.values == 1.0)

    def test_equals_a_loop_of_fiber_volume_fraction(self):
        # Semi-axes drawn per section spread the areas, and a radius that
        # puts Vf = 1 at the median area makes capped, over-hex-limit and
        # plain sections.
        rng = np.random.default_rng(3)
        xs = np.arange(12.0)
        yarns = []
        for y in range(3):
            centers = np.column_stack([xs, np.full_like(xs, 10.0 * y), np.zeros_like(xs)])
            b = rng.uniform(2.0, 3.0, len(xs))
            sections = ellipse_sections(
                centers, [(1, 0, 0)] * len(xs), a=b * rng.uniform(1.5, 2.5, len(xs)), b=b, stations=xs
            )
            yarns.append(SimpleNamespace(sections=sections))
        areas = np.concatenate([ring_areas(y.sections.rings) for y in yarns])
        fibers = FiberSpec(fiber_radius=math.sqrt(np.median(areas) / (math.pi * 100)), fibers_per_yarn=100)
        rep = vf_distribution(yarns, fibers)
        loop = [[ref_fiber_volume_fraction(ring, fibers) for ring in y.sections.rings] for y in yarns]
        flat = [vf for per_yarn in loop for vf in per_yarn]
        assert np.array_equal(rep.values, [vf.value for vf in flat])
        assert rep.per_yarn_mean == tuple(float(np.mean([vf.value for vf in p])) for p in loop)
        assert rep.n_capped == sum(vf.capped for vf in flat)
        assert rep.n_over_hex_limit == sum(vf.over_hex_limit for vf in flat)
        assert 0 < rep.n_capped < rep.n_over_hex_limit < len(flat)

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            vf_distribution([], FiberSpec(fiber_radius=0.1, fibers_per_yarn=10))
        with pytest.raises(ConfigError):
            vf_distribution(tiny_model().yarns, FiberSpec(0.1, 10), n_bins=0)


class TestReportFiles:
    def test_write_report_round_trip(self, tmp_path):
        model = tiny_model()
        report = match_and_assess_paths(model, list(model.yarns))
        vf = vf_distribution(model.yarns, FiberSpec(fiber_radius=0.15, fibers_per_yarn=500))
        write_report(report, vf, tmp_path / "r.json", tmp_path / "r.txt")
        data = json.loads((tmp_path / "r.json").read_text())
        assert data["schema"] == 1
        assert data["kind"] == "validation_report"
        assert len(data["paths"]["matches"]) == len(model.yarns)
        assert "fiber_volume_fraction" in data
        text = (tmp_path / "r.txt").read_text()
        assert "# path accuracy" in text and "# intra-yarn fiber volume fraction" in text

    def test_report_without_vf(self, tmp_path):
        model = tiny_model()
        report = match_and_assess_paths(model, list(model.yarns))
        write_report(report, None, tmp_path / "r.json", tmp_path / "r.txt")
        data = json.loads((tmp_path / "r.json").read_text())
        assert "fiber_volume_fraction" not in data
