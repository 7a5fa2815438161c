"""Tracking, gap completion, 3D lifting, and mesh construction."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import CubicSpline

from textilemodel.errors import (
    ConfigError,
    InsufficientDataError,
    InvalidContourError,
    MeshIntegrityError,
)
from textilemodel.geometry import (
    Box,
    Sections,
    _norms,
    bspline_eval,
    bspline_fit,
    ellipse_sections,
    fit_planes,
    plane_frames,
    ring_areas,
)
from textilemodel.reconstruct import (
    QuadSurfaceMesh,
    ReconstructedYarn,
    VolumeMesh,
    YarnTrack,
    _lift,
    build_composite_mesh,
    build_surface_mesh,
    build_volume_mesh,
    complete_missing,
    enclosed_volume,
    euler_characteristic,
    is_watertight,
    lift_and_fit,
    reconstruct_yarns,
    track_yarns,
    wedge_volumes,
)
from textilemodel.segmenter import DetectionSet, detect_batch
from textilemodel.synthgen import WeaveSpec, generate_interlock
from textilemodel.voxelizer import LabelVolume, voxelize

from test_segmenter import (
    RefSectionDetection,
    assert_rows_equal,
    assert_sets_equal,
    make_dset,
    ref_detections,
)


def decagon(center, scale=3.0, squash=0.6):
    th = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    ring = np.column_stack([scale * np.cos(th), scale * squash * np.sin(th)])
    return ring + np.asarray(center, dtype=float)


def make_set(tracks_uv, n_slices, drop=(), axis="yz"):
    """tracks_uv: list of callables slice_index -> (u, v) blob center."""
    rows = [
        (i, decagon(fn(i)), t_id + 1)
        for i in range(n_slices)
        for t_id, fn in enumerate(tracks_uv)
        if (t_id, i) not in drop
    ]
    slices, rings, labels = zip(*rows)
    return make_dset(slices, rings, n_slices=n_slices, axis=axis, true_label=labels)


def rows_by_slice(track):
    """Row number of each slice index of a track's entries."""
    return {i: k for k, i in enumerate(track.indices.tolist())}


class TestTracking:
    def test_single_moving_blob(self):
        ds = make_set([lambda i: (10 + 0.3 * i, 8.0)], 30)
        (track,) = track_yarns(ds, d_gate=5.0)
        assert len(track) == 30
        assert track.family == "warp"
        assert track.gaps == () and track.boundary_gaps == ()

    def test_two_blobs_never_swap(self):
        ds = make_set([lambda i: (10.0, 8.0), lambda i: (30.0, 8.0)], 25)
        tracks = track_yarns(ds, d_gate=6.0)
        assert len(tracks) == 2
        for tr in tracks:
            labels = set(tr.entries.true_label.tolist())
            assert len(labels) == 1

    def test_interior_gap_survives_and_is_recorded(self):
        drop = {(0, 10), (0, 11), (0, 12)}
        ds = make_set([lambda i: (10 + 0.2 * i, 8.0)], 30, drop=drop)
        (track,) = track_yarns(ds, d_gate=5.0, max_gap=5)
        assert len(track) == 27
        assert track.gaps == ((10, 12),)
        assert track.boundary_gaps == ()

    def test_gap_beyond_max_gap_splits_track(self):
        drop = {(0, i) for i in range(10, 18)}
        ds = make_set([lambda i: (10.0, 8.0)], 30, drop=drop)
        tracks = track_yarns(ds, d_gate=5.0, max_gap=4)
        assert len(tracks) == 2
        assert [int(t.indices[0]) for t in tracks] == [0, 18]
        # the second piece reports the leading boundary gap
        assert tracks[1].boundary_gaps == ((0, 17),)

    def test_boundary_gaps_reported(self):
        drop = {(0, i) for i in (0, 1, 28, 29)}
        ds = make_set([lambda i: (10.0, 8.0)], 30, drop=drop)
        (track,) = track_yarns(ds, d_gate=5.0)
        assert track.boundary_gaps == ((0, 1), (28, 29))
        assert track.gaps == ()

    def test_min_length_filters_noise(self):
        drop = {(1, i) for i in range(3, 30)}  # second blob exists 3 slices
        ds = make_set([lambda i: (10.0, 8.0), lambda i: (30.0, 8.0)], 30, drop=drop)
        tracks = track_yarns(ds, d_gate=5.0, min_length=4)
        assert len(tracks) == 1

    def test_gate_rejects_jumps(self):
        # Blob teleports at slice 15 by 20 px; with a tight gate this
        # must start a fresh track, not stretch the old one.
        ds = make_set([lambda i: (10.0 + (20.0 if i >= 15 else 0.0), 8.0)], 30)
        tracks = track_yarns(ds, d_gate=5.0, max_gap=3)
        assert len(tracks) == 2

    def test_xz_axis_gives_weft(self):
        ds = make_set([lambda i: (10.0, 8.0)], 10, axis="xz")
        (track,) = track_yarns(ds, d_gate=5.0)
        assert track.family == "weft"

    def test_bad_params(self):
        ds = make_set([lambda i: (10.0, 8.0)], 10)
        with pytest.raises(ConfigError):
            track_yarns(ds, d_gate=0.0)
        with pytest.raises(ConfigError):
            track_yarns(ds, d_gate=5.0, min_length=1)


class TestCompletion:
    def test_single_slice_gap_is_linear_midpoint(self):
        ds = make_set([lambda i: (10 + 1.0 * i, 8.0)], 9, drop={(0, 4)})
        (track,) = track_yarns(ds, d_gate=5.0)
        done = complete_missing(track)
        assert done.gaps == () and done.filled == (4,)
        row = rows_by_slice(done)
        contours = done.entries.contours
        expect = 0.5 * (contours[row[3]] + contours[row[5]])
        assert np.allclose(contours[row[4]], expect, atol=1e-12)
        assert np.allclose(done.entries.centers[row[4]], contours[row[4]].mean(axis=0))

    def test_long_gap_cubic_recovers_quadratic_motion(self):
        fn = lambda i: (10 + 0.05 * i * i, 8.0 + 0.5 * i)
        drop = {(0, i) for i in range(8, 13)}
        ds = make_set([fn], 25, drop=drop)
        (track,) = track_yarns(ds, d_gate=8.0, max_gap=6)
        done = complete_missing(track)
        assert done.filled == (8, 9, 10, 11, 12)
        row = rows_by_slice(done)
        for i in range(8, 13):
            assert np.allclose(done.entries.contours[row[i]], decagon(fn(i)), atol=1e-9)

    def test_boundary_gaps_left_alone(self):
        drop = {(0, 0), (0, 1)}
        ds = make_set([lambda i: (10.0, 8.0)], 20, drop=drop)
        (track,) = track_yarns(ds, d_gate=5.0)
        done = complete_missing(track)
        assert done.boundary_gaps == ((0, 1),)
        assert done.filled == ()
        assert done.indices[0] == 2

    def test_true_label_propagates_when_unambiguous(self):
        ds = make_set([lambda i: (10.0, 8.0)], 12, drop={(0, 5)})
        (track,) = track_yarns(ds, d_gate=5.0)
        done = complete_missing(track)
        assert done.entries.true_label[rows_by_slice(done)[5]] == 1


# ------------------------------------------------ per-detection reference
#
# The tracker and gap filler as they ran on one detection object at a
# time.  track_yarns and complete_missing must return the same rows.


def ref_track_yarns(dset, d_gate, min_length, max_gap, min_span):
    """Per-detection tracker: (entries, gaps, boundary_gaps) per track,
    with entries a list of (slice index, detection)."""
    dets = ref_detections(dset)
    active, done = [], []
    for i in range(dset.n_slices):
        slice_dets = [d for d in dets if d.slice_index == i]
        still = []
        for tr in active:
            (done if i - tr["last"] > max_gap else still).append(tr)
        active = still
        pairs = []
        for ti, tr in enumerate(active):
            delta = i - tr["last"]
            for di, det in enumerate(slice_dets):
                dist = float(np.linalg.norm(det.center - tr["center"]))
                if dist <= d_gate * delta:
                    pairs.append((dist, ti, di))
        pairs.sort(key=lambda p: (p[0], p[1], p[2]))
        used_t, used_d = set(), set()
        for dist, ti, di in pairs:
            if ti in used_t or di in used_d:
                continue
            used_t.add(ti)
            used_d.add(di)
            active[ti]["entries"].append((i, slice_dets[di]))
            active[ti]["center"] = slice_dets[di].center
            active[ti]["last"] = i
        for di, det in enumerate(slice_dets):
            if di not in used_d:
                active.append({"entries": [(i, det)], "center": det.center, "last": i})
    done.extend(active)
    n = dset.n_slices
    tracks = []
    for tr in done:
        indices = [i for i, _ in tr["entries"]]
        first, last = indices[0], indices[-1]
        if len(indices) < min_length or last - first + 1 < min_span * n:
            continue
        gaps = tuple((a + 1, b - 1) for a, b in zip(indices, indices[1:]) if b - a > 1)
        boundary = ((0, first - 1),) * (first > 0) + ((last + 1, n - 1),) * (last < n - 1)
        tracks.append((tr["entries"], gaps, boundary))
    tracks.sort(key=lambda t: (t[0][0][0], tuple(t[0][0][1].center)))
    return tracks


def ref_complete_missing(entries, gaps):
    """Per-detection gap filler: the completed entries, the filled slices
    and those of them that the spline filled."""
    if not gaps:
        return entries, [], []
    observed = np.array([i for i, _ in entries])
    channels = np.stack([det.contour.reshape(-1) for _, det in entries])
    spline = CubicSpline(observed, channels, axis=0) if len(observed) >= 4 else None
    by_index = dict(entries)
    filled, splined = [], []
    for start, end in gaps:
        left = max(i for i in observed if i < start)
        right = min(i for i in observed if i > end)
        for idx in range(start, end + 1):
            if end - start == 0 or spline is None:
                t = (idx - left) / (right - left)
                flat = (1 - t) * by_index[left].contour.reshape(-1) + t * by_index[
                    right
                ].contour.reshape(-1)
            else:
                flat = spline(idx)
                splined.append(idx)
            contour = flat.reshape(10, 2)
            lab_l, lab_r = by_index[left].true_label, by_index[right].true_label
            by_index[idx] = RefSectionDetection(
                axis=entries[0][1].axis,
                slice_index=idx,
                contour=contour,
                center=contour.mean(axis=0),
                confidence=float(0.5 * (by_index[left].confidence + by_index[right].confidence)),
                true_label=lab_l if lab_l == lab_r else None,
            )
            filled.append(idx)
    return sorted(by_index.items()), filled, splined


def assert_completed_rows_match(dset, dets, splined, scale):
    """``dset`` holds the reference rows ``dets`` in order, exactly but
    for the contours and centres of the spline-filled slices
    ``splined``: those agree within 1e-11 * scale, the round-off bound
    of ``not_a_knot_spline`` against ``CubicSpline``."""
    assert dset.slice_index.tolist() == [d.slice_index for d in dets]
    assert dset.confidence.tolist() == [d.confidence for d in dets]
    assert dset.true_label.tolist() == [-1 if d.true_label is None else d.true_label for d in dets]
    near = np.isin(dset.slice_index, splined)
    for got, want in ((dset.contours, [d.contour for d in dets]), (dset.centers, [d.center for d in dets])):
        want = np.reshape(want, got.shape)
        assert np.array_equal(got[~near], want[~near])
        assert np.abs(got[near] - want[near]).max(initial=0.0) <= 1e-11 * scale


@st.composite
def tracking_cases(draw):
    """A set of up to 4 drifting blobs with dropouts plus clutter, and
    tracking parameters.  The gate sits exactly on one realised
    one-slice center distance half the time, so gating is tested to
    the bit."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_slices = draw(st.integers(3, 30))
    rows = []
    for label in range(1, draw(st.integers(1, 4)) + 1):
        c0, v = rng.uniform(0, 60, 2), rng.normal(size=2)
        for i in np.flatnonzero(rng.random(n_slices) >= draw(st.sampled_from([0.0, 0.15, 0.4]))):
            rows.append((int(i), c0 + v * i + rng.normal(scale=0.3, size=2), label))
    for _ in range(draw(st.integers(0, 6))):
        rows.append((int(rng.integers(n_slices)), rng.uniform(0, 60, 2), int(rng.integers(-1, 5))))
    rows.sort(key=lambda r: r[0])
    ds = make_dset(
        [r[0] for r in rows],
        [decagon(c, scale=rng.uniform(1.0, 4.0)) for _, c, _ in rows],
        n_slices=n_slices,
        axis=draw(st.sampled_from(["xz", "yz"])),
        confidence=rng.uniform(0.5, 1.0, len(rows)),
        true_label=[r[2] for r in rows],
    )
    d_gate = draw(st.floats(0.5, 10.0))
    nxt = [
        (a, b) for a in range(len(ds)) for b in range(a + 1, len(ds))
        if ds.slice_index[b] == ds.slice_index[a] + 1
    ]
    if nxt and draw(st.booleans()):
        a, b = nxt[draw(st.integers(0, len(nxt) - 1))]
        d_gate = float(np.linalg.norm(ds.centers[b] - ds.centers[a])) or d_gate
    min_length, max_gap = draw(st.integers(2, 5)), draw(st.integers(1, 5))
    return ds, d_gate, min_length, max_gap, draw(st.sampled_from([0.0, 0.3, 0.8]))


class TestTrackingOracle:
    @settings(max_examples=150, deadline=None)
    @given(tracking_cases())
    def test_tracks_and_fills_match_the_per_detection_reference(self, case):
        ds, *params = case
        got = track_yarns(ds, *params)
        want = ref_track_yarns(ds, *params)
        assert len(got) == len(want)
        for track, (entries, gaps, boundary) in zip(got, want):
            assert_rows_equal(track.entries, [d for _, d in entries])
            assert (track.gaps, track.boundary_gaps) == (gaps, boundary)
            done = complete_missing(track)
            ref_entries, filled, splined = ref_complete_missing(entries, gaps)
            scale = np.abs(track.entries.contours).max()
            assert_completed_rows_match(done.entries, [d for _, d in ref_entries], splined, scale)
            assert done.filled == tuple(filled) and done.gaps == ()

    def test_gate_holds_at_the_per_pair_norm(self):
        # On this pair norm(d, axis=1) rounds one ulp above the per-pair
        # norm that the gate was set from; the track must still join.
        c0, c1 = [83.98815210314088, 50.94958815215094], [81.757074043535, 48.18936965784196]
        gate = float(np.linalg.norm(np.subtract(c1, c0)))
        rings = [decagon(c0), decagon(c1)]
        ds = DetectionSet("yz", 2, 1.0, (0, 0, 0), [0, 1], rings, [c0, c1], [1.0, 1.0], [-1, -1])
        (track,) = track_yarns(ds, d_gate=gate, min_length=2)
        assert track.indices.tolist() == [0, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_stacked_distances_match_the_per_pair_norm(self, seed):
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(rng.integers(1, 6), 2)) * 10.0 ** rng.uniform(-3, 3) for _ in "ab")
        want = [[float(np.linalg.norm(y - x)) for y in b] for x in a]
        assert np.array_equal(_norms(b[None] - a[:, None]), np.array(want))


def ref_lift(dset, contour, slice_index):
    """The per-axis lift that the slice-axis table replaced."""
    vs = dset.voxel_size
    o = dset.origin
    along = (np.asarray(slice_index) + 0.5) * vs
    u = contour[:, 0]
    v = contour[:, 1]
    z = o[2] + (v + 0.5) * vs
    if dset.axis == "yz":
        y = o[1] + (u + 0.5) * vs
        x = np.broadcast_to(o[0] + along, y.shape)
    else:
        x = o[0] + (u + 0.5) * vs
        y = np.broadcast_to(o[1] + along, x.shape)
    return np.column_stack([x, y, z])


@st.composite
def lift_inputs(draw):
    """A slice geometry, pixel points and one slice index for all points
    or one per point."""
    n = draw(st.integers(1, 30))
    coord = st.floats(-1e4, 1e4)
    dset = SimpleNamespace(
        axis=draw(st.sampled_from(["xz", "yz"])),
        voxel_size=draw(st.floats(1e-3, 1e3) | st.sampled_from([0.7, 1.0, 2.0])),
        origin=np.array(draw(st.lists(coord, min_size=3, max_size=3))),
    )
    contour = draw(hnp.arrays(np.float64, (n, 2), elements=st.floats(-1e3, 1e3)))
    index = st.integers(0, 10**4)
    slice_index = draw(index | hnp.arrays(np.int64, n, elements=index))
    return dset, contour, slice_index


class TestLift:
    @given(lift_inputs())
    @settings(max_examples=300, deadline=None)
    def test_lift_equals_the_per_axis_reference_bit_for_bit(self, case):
        got, want = _lift(*case), ref_lift(*case)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_xz_is_yz_of_the_xy_swapped_volume(self, desk):
        """Detecting ``xz`` equals detecting ``yz`` with x and y swapped,
        row for row, and the lifts differ by that swap alone."""
        _, vol = desk
        swapped = LabelVolume(
            data=np.ascontiguousarray(np.swapaxes(vol.data, 0, 1)),
            voxel_size=vol.voxel_size,
            origin=vol.origin[[1, 0, 2]],
            label_map=vol.label_map,
        )
        xz, yz = detect_batch(vol, "xz"), detect_batch(swapped, "yz")
        assert len(xz) == 1376 and xz.n_slices == yz.n_slices
        assert_sets_equal(dataclasses.replace(yz, axis="xz", origin=vol.origin), xz)
        m = xz.contours.shape[1]
        points, slices = xz.contours.reshape(-1, 2), np.repeat(xz.slice_index, m)
        lifted = _lift(xz, points, slices)
        assert lifted.tobytes() == _lift(yz, points, slices)[:, [1, 0, 2]].tobytes()

    def test_yz_lift_convention(self):
        # yz slice i covers world x = origin_x + (i + 0.5) vs; pixel
        # coordinate (u, v) maps to (y, z) the same way.
        ds = make_set([lambda i: (10.0, 8.0)], 12)
        (track,) = track_yarns(ds, d_gate=5.0)
        entries = dataclasses.replace(
            track.entries, voxel_size=2.0, origin=np.array([100.0, 200.0, 300.0])
        )
        track = YarnTrack(entries)
        yarn = lift_and_fit(track, n_controls=4)
        centers = yarn.sections.centers
        assert centers[0] == pytest.approx([100 + 0.5 * 2, 200 + 10.5 * 2, 300 + 8.5 * 2])
        assert centers[-1] == pytest.approx([100 + 11.5 * 2, 200 + 10.5 * 2, 300 + 8.5 * 2])

    def test_xz_lift_convention(self):
        ds = make_set([lambda i: (10.0, 8.0)], 12, axis="xz")
        (track,) = track_yarns(ds, d_gate=5.0)
        yarn = lift_and_fit(track, n_controls=4)
        assert yarn.family == "weft"
        # slice index runs along y; u is x, v is z
        assert yarn.sections.centers[0] == pytest.approx([10.5, 0.5, 8.5])

    def test_sections_are_orthogonal_to_path(self):
        ds = make_set([lambda i: (10 + 0.5 * i, 8 + 0.2 * i)], 24)
        (track,) = track_yarns(ds, d_gate=5.0)
        yarn = lift_and_fit(track, n_controls=5)
        rings, centers = yarn.sections.rings, yarn.sections.centers
        _, normals, _ = fit_planes(rings)
        rel = rings - centers[:, None]
        assert np.abs(rel @ normals[:, :, None]).max() < 1e-9

    def test_only_contour_errors_drop_a_section(self, monkeypatch):
        import textilemodel.reconstruct as rc

        (track,) = track_yarns(make_set([lambda i: (10.0, 8.0)], 12), d_gate=5.0)
        real = rc.section_faults

        def third_section_faulty(*args):
            faults = real(*args)
            faults[2] = InvalidContourError("fold")
            return faults

        def check_raises(*args):
            raise RuntimeError("bug")

        monkeypatch.setattr(rc, "section_faults", third_section_faulty)
        assert len(lift_and_fit(track).sections) == 11
        monkeypatch.setattr(rc, "section_faults", check_raises)
        with pytest.raises(RuntimeError, match="bug"):
            lift_and_fit(track)

    def test_degenerate_and_folded_rings_are_dropped_in_order(self, caplog):
        # Slice 5: a star whose first point is its own centroid, so the
        # ring has no start direction.  Slice 9: a decagon with two
        # points swapped, which no reordering unfolds.
        star = np.array(
            [[0, 0], [3, 0], [2, 2], [0, 3], [-2, 2], [-3, 0], [-2, -2], [0, -3], [2, -2], [0, 0]]
        ) + np.array([10.0, 8.0])
        folded = decagon((10.0, 8.0))[[0, 1, 6, 3, 4, 5, 2, 7, 8, 9]]
        ds = make_set([lambda i: (10.0, 8.0)], 16)
        contours = ds.contours.copy()
        contours[5], contours[9] = star, folded
        ds = dataclasses.replace(ds, contours=contours, centers=contours.mean(axis=1))
        (track,) = track_yarns(ds, d_gate=5.0)
        with caplog.at_level("INFO", logger="textilemodel.reconstruct"):
            yarn = lift_and_fit(track, n_controls=4)
        assert [r.getMessage() for r in caplog.records] == [
            "dropping degenerate section at slice 5",
            "dropping invalid section at slice 9",
        ]
        assert len(yarn.sections) == 14
        # The kept centres are the lifted detection centres of the other slices.
        kept = [i for i in range(16) if i not in (5, 9)]
        assert np.array_equal(yarn.sections.centers[:, 0], np.array(kept) + 0.5)

    def test_stations_are_arc_lengths(self):
        ds = make_set([lambda i: (10.0 + 2.0 * i, 8.0)], 16)
        (track,) = track_yarns(ds, d_gate=5.0)
        yarn = lift_and_fit(track, n_controls=4)
        stations = yarn.sections.stations
        # straight line: slice step 1 in x plus drift 2 in u -> sqrt 5
        assert np.allclose(np.diff(stations), math.sqrt(5.0), atol=1e-6)
        assert stations[0] == pytest.approx(0.0, abs=1e-9)

    def test_completed_flags_follow_filled(self):
        ds = make_set([lambda i: (10.0, 8.0)], 12, drop={(0, 6)})
        (track,) = track_yarns(ds, d_gate=5.0)
        yarn = lift_and_fit(complete_missing(track))
        assert sum(yarn.completed_flags) == 1
        assert yarn.completed_flags[6]

    def test_too_short_track_rejected(self):
        ds = make_set([lambda i: (10.0, 8.0)], 3)
        (track,) = track_yarns(ds, d_gate=5.0, min_length=2)
        with pytest.raises(InsufficientDataError):
            lift_and_fit(track)

    def test_grazing_end_cuts_are_trimmed(self):
        # a tiny first ring is a cap sliver, not a transverse section
        rings = [decagon((10.0, 8.0), scale=0.4 if i == 0 else 3.0) for i in range(12)]
        ds = make_dset(range(12), rings, axis="yz")
        (track,) = track_yarns(ds, d_gate=5.0)
        yarn = lift_and_fit(track)
        assert len(yarn.sections) == 11
        # first kept section sits on the slice-1 plane
        assert yarn.sections.centers[0, 0] == pytest.approx(1.5)


def straight_yarn(n_secs=5, a=2.0, b=1.0, length=8.0):
    xs = np.linspace(0.0, length, n_secs)
    centers = np.column_stack([xs, np.zeros((n_secs, 2))])
    secs = ellipse_sections(centers, [(1, 0, 0)] * n_secs, a, b, stations=xs)
    path = bspline_fit(np.array([[0, 0, 0], [length, 0, 0.0]]), degree=1, n_controls=2)
    return ReconstructedYarn(
        axis="yz", path=path, sections=secs,
        completed_flags=(False,) * n_secs,
    )


def reversed_rings(yarn):
    """The same yarn with every ring listed in the opposite direction."""
    return ReconstructedYarn(
        axis=yarn.axis,
        path=yarn.path,
        sections=Sections(
            yarn.sections.rings[:, ::-1], yarn.sections.centers, yarn.sections.stations
        ),
        completed_flags=yarn.completed_flags,
    )


def curved_yarn(n_secs=12, radius=20.0, sweep=0.8, axes=None, rolls=None, twists=None):
    """Yarn bent along a circular arc, with varying ellipse axes and each
    ring cyclically rolled, so side quads are non-planar and the ring
    alignment has work to do.  ``axes`` (a, b) and ``rolls`` per section
    override the defaults; ``twists`` turns each major axis by an angle
    within its section plane."""
    ths = np.linspace(0.0, sweep, n_secs)
    ks = range(n_secs)
    a, b = np.array(
        axes or [(2.0 + 0.4 * math.sin(k), 1.0 + 0.3 * math.cos(1.7 * k)) for k in ks]
    ).T
    normals = np.array([[-math.sin(th), math.cos(th), 0.0] for th in ths])
    centers = [(radius * math.cos(th), radius * math.sin(th), 0.3 * k) for k, th in enumerate(ths)]
    orientation = None
    if twists:
        e1, e2 = plane_frames(normals)
        cos, sin = (np.array([[f(t)] for t in twists]) for f in (math.cos, math.sin))
        orientation = cos * e1 + sin * e2
    secs = ellipse_sections(centers, normals, a, b, orientation, radius * ths)
    rings = [
        np.roll(ring, rolls[k] if rolls else (3 * k) % 10, axis=0)
        for k, ring in enumerate(secs.rings)
    ]
    return ReconstructedYarn(
        axis="yz", path=bspline_fit(secs.centers, degree=3, n_controls=4),
        sections=Sections(rings, secs.centers, secs.stations), completed_flags=(False,) * n_secs,
    )


# Per-ring scalar reference for ReconstructedYarn.aligned_rings: each
# cyclic offset scored in its own pass against the previous aligned ring.
def ref_aligned_rings(yarn):
    rings = yarn.sections.rings
    s, n, _ = rings.shape
    offsets = np.zeros(s, dtype=int)
    for k in range(1, s):
        prev = rings[k - 1][(np.arange(n) + offsets[k - 1]) % n]
        costs = [
            np.linalg.norm(prev - rings[k][(np.arange(n) + o) % n], axis=1).sum()
            for o in range(n)
        ]
        offsets[k] = int(np.argmin(costs))
    return np.stack([rings[k][(np.arange(n) + offsets[k]) % n] for k in range(s)])


# Per-face scalar reference for the vectorised mesh kernels: one signed
# tet per triangle, quads split along (0, 2), edges counted in a dict.
def _ref_tet(a, b, c):
    return float(np.dot(a, np.cross(b, c))) / 6.0


def ref_enclosed_volume(mesh):
    total = 0.0
    for face in list(mesh.quads) + list(mesh.cap_triangles):
        pts = mesh.vertices[face]
        total += _ref_tet(pts[0], pts[1], pts[2])
        if len(face) == 4:
            total += _ref_tet(pts[0], pts[2], pts[3])
    return total


def ref_wedge_volumes(mesh):
    vols = []
    for w in mesh.wedges:
        a0, a1, a2, b0, b1, b2 = mesh.vertices[w]
        total = _ref_tet(a0, a2, a1) + _ref_tet(b0, b1, b2)
        for (p, q), (r, s) in (((a0, a1), (b1, b0)), ((a1, a2), (b2, b1)), ((a2, a0), (b0, b2))):
            total += _ref_tet(p, q, r) + _ref_tet(p, r, s)
        vols.append(total)
    return np.array(vols)


def ref_edge_counts(mesh):
    edges = {}
    for face in list(mesh.quads) + list(mesh.cap_triangles):
        m = len(face)
        for i in range(m):
            a, b = int(face[i]), int(face[(i + 1) % m])
            key = (min(a, b), max(a, b))
            edges[key] = edges.get(key, 0) + 1
    return edges


class TestSurfaceMesh:
    def test_counts_and_topology(self):
        yarn = straight_yarn(n_secs=7)
        mesh = build_surface_mesh(yarn)
        assert len(mesh.quads) == 10 * 6
        assert len(mesh.cap_triangles) == 20
        assert len(mesh.vertices) == 10 * 7 + 2
        assert is_watertight(mesh)
        assert euler_characteristic(mesh) == 2

    def test_straight_tube_volume_exact(self):
        yarn = straight_yarn(a=2.0, b=1.0, length=8.0)
        mesh = build_surface_mesh(yarn)
        area = ring_areas(yarn.sections.rings)[0]
        assert enclosed_volume(mesh) == pytest.approx(area * 8.0, rel=1e-12)

    def test_reversed_rings_still_positive(self):
        mesh = build_surface_mesh(reversed_rings(straight_yarn()))
        assert enclosed_volume(mesh) > 0
        assert is_watertight(mesh)

    def test_alignment_absorbs_cyclic_relabeling(self):
        yarn = straight_yarn(n_secs=4)
        rings = np.array(yarn.sections.rings)
        rings[1] = np.roll(rings[1], 3, axis=0)
        rolled = ReconstructedYarn(
            axis=yarn.axis,
            path=yarn.path,
            sections=Sections(rings, yarn.sections.centers, yarn.sections.stations),
            completed_flags=yarn.completed_flags,
        )
        aligned = rolled.aligned_rings
        # undoes np.roll(+3)
        assert np.array_equal(aligned[1], np.roll(rolled.sections.rings[1], -3, axis=0))
        v0 = enclosed_volume(build_surface_mesh(yarn))
        v1 = enclosed_volume(build_surface_mesh(rolled))
        assert v1 == pytest.approx(v0, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        n_secs=st.integers(4, 10),
        radius=st.floats(8.0, 40.0),
        sweep=st.floats(0.05, 1.2),
    )
    def test_aligned_rings_match_scalar_reference(self, data, n_secs, radius, sweep):
        # Circles (ratio 1) make near-ties between offsets.
        b = st.floats(0.5, 3.0)
        ratio = st.just(1.0) | st.floats(1.0, 3.0)
        pairs = data.draw(st.lists(st.tuples(b, ratio), min_size=n_secs, max_size=n_secs))
        axes = [(bk * rk, bk) for bk, rk in pairs]
        rolls = data.draw(st.lists(st.integers(0, 9), min_size=n_secs, max_size=n_secs))
        # Twisted ellipses make close calls between neighbouring offsets,
        # where other twist measures (squared distance, say) pick others.
        # Uniform angles: hypothesis favours round ones, which rarely tie.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        twists = list(rng.uniform(0.0, 2 * math.pi, n_secs))
        yarn = curved_yarn(n_secs, radius, sweep, axes=axes, rolls=rolls, twists=twists)
        assert np.array_equal(yarn.aligned_rings, ref_aligned_rings(yarn))

    def test_vectorised_kernels_match_scalar_reference(self):
        yarn = curved_yarn()
        mesh = build_surface_mesh(yarn)
        assert enclosed_volume(mesh) == pytest.approx(ref_enclosed_volume(mesh), rel=1e-12)
        counts = ref_edge_counts(mesh)
        assert is_watertight(mesh) == all(c == 2 for c in counts.values())
        n_used = len(np.unique(np.concatenate([mesh.quads.ravel(), mesh.cap_triangles.ravel()])))
        n_faces = len(mesh.quads) + len(mesh.cap_triangles)
        assert euler_characteristic(mesh) == n_used - len(counts) + n_faces == 2
        vm = build_volume_mesh(yarn)
        np.testing.assert_allclose(wedge_volumes(vm), ref_wedge_volumes(vm), rtol=1e-12, atol=0)

    def test_missing_cap_triangle_opens_the_surface(self):
        mesh = build_surface_mesh(straight_yarn())
        opened = QuadSurfaceMesh(
            vertices=mesh.vertices, quads=mesh.quads, cap_triangles=mesh.cap_triangles[1:]
        )
        assert not is_watertight(opened)
        assert euler_characteristic(opened) == 1

    def test_duplicated_quad_over_shares_edges(self):
        mesh = build_surface_mesh(straight_yarn())
        doubled = QuadSurfaceMesh(
            vertices=mesh.vertices,
            quads=np.vstack([mesh.quads, mesh.quads[:1]]),
            cap_triangles=mesh.cap_triangles,
        )
        assert not is_watertight(doubled)

    def test_face_index_validation(self):
        with pytest.raises(MeshIntegrityError):
            QuadSurfaceMesh(
                vertices=np.zeros((4, 3)),
                quads=np.array([[0, 1, 2, 9]]),
                cap_triangles=np.empty((0, 3), int),
            )


class TestVolumeMesh:
    def test_wedge_count_and_telescoping_sum(self):
        yarn = straight_yarn(n_secs=6)
        vm = build_volume_mesh(yarn, label=5)
        assert vm.wedges.shape == (10 * 5, 6)
        assert set(vm.wedge_labels) == {5}
        sv = enclosed_volume(build_surface_mesh(yarn))
        assert wedge_volumes(vm).sum() == pytest.approx(sv, rel=1e-12)

    def test_reversed_rings_flip_every_wedge_positive(self):
        yarn = reversed_rings(straight_yarn(n_secs=6))
        vm = build_volume_mesh(yarn)
        # the flip swaps ring corners 1 <-> 2 and 4 <-> 5 of every wedge
        assert vm.wedges[0].tolist() == [60, 1, 0, 61, 11, 10]
        vols = wedge_volumes(vm)
        assert (vols > 0).all()
        sv = enclosed_volume(build_surface_mesh(yarn))
        assert vols.sum() == pytest.approx(sv, rel=1e-12)

    def test_straight_circular_yarn_matches_decagon_tube(self):
        # Ten keypoints give the inscribed decagon, (5/2) sin 36 deg r^2
        # per section; that sits 6.45% below pi r^2, so the smooth
        # cylinder is approached from below by construction.
        yarn = straight_yarn(a=2.0, b=2.0, length=10.0)
        total = wedge_volumes(build_volume_mesh(yarn)).sum()
        assert total == pytest.approx(2.938926261462366 * 4.0 * 10.0, rel=1e-12)
        deficit = 1.0 - total / (math.pi * 4.0 * 10.0)
        assert 0.05 < deficit < 0.08

    def test_inverted_cell_names_station(self):
        t = math.radians(80)
        sections = ellipse_sections(
            [(0, 0, 0), (0.5, 0, 0), (8, 0, 0)],
            [(1, 0, 0), (math.cos(t), math.sin(t), 0), (1, 0, 0)],
            a=3.0, b=2.0, stations=[0.0, 0.5, 8.0],
        )
        path = bspline_fit(np.array([[0, 0, 0], [0.5, 0, 0], [8, 0, 0.0]]), degree=1, n_controls=3)
        yarn = ReconstructedYarn(
            axis="yz", path=path,
            sections=sections, completed_flags=(False,) * 3,
        )
        with pytest.raises(MeshIntegrityError, match=r"stations 0\.000 and 0\.500"):
            build_volume_mesh(yarn)


class TestCompositeMesh:
    def test_cells_and_labels(self):
        from textilemodel.geometry import Box

        yarn = straight_yarn(a=2.0, b=1.5, length=8.0)
        box = Box(lo=(-1.0, -4.0, -4.0), hi=(9.0, 4.0, 4.0))
        mesh = build_composite_mesh([yarn], box, cell_size=1.0)
        assert mesh.hexes.shape == (10 * 8 * 8, 8)
        assert len(mesh.vertices) == 11 * 9 * 9
        labs = set(np.unique(mesh.hex_labels))
        assert labs == {0, 1}
        inside = int((mesh.hex_labels == 1).sum())
        area = ring_areas(yarn.sections.rings)[0]
        assert abs(inside - area * 8.0) / (area * 8.0) < 0.25  # coarse cells

    def test_budget_enforced(self):
        from textilemodel.geometry import Box

        yarn = straight_yarn()
        box = Box(lo=(0.0, 0.0, 0.0), hi=(100.0, 100.0, 100.0))
        with pytest.raises(MeshIntegrityError):
            build_composite_mesh([yarn], box, cell_size=0.5, budget=1000)


# Loop-built references for the mesh topology: one index tuple per
# quad, cap triangle, wedge and hexahedron, appended in the order the
# builders emit them, with the same orientation flips.
def ref_surface_mesh(yarn):
    """(mesh, flipped) built face by face."""
    aligned = yarn.aligned_rings
    s = len(aligned)
    centers = yarn.sections.centers
    vertices = np.vstack([aligned.reshape(-1, 3), centers[0], centers[-1]])
    c0, c1 = 10 * s, 10 * s + 1
    quads = []
    for k in range(s - 1):
        a, b = 10 * k, 10 * (k + 1)
        for j in range(10):
            jn = (j + 1) % 10
            quads.append((a + j, a + jn, b + jn, b + j))
    tris = [(c0, (j + 1) % 10, j) for j in range(10)]
    e = 10 * (s - 1)
    tris += [(c1, e + j, e + (j + 1) % 10) for j in range(10)]
    quads, tris = np.array(quads), np.array(tris)
    mesh = QuadSurfaceMesh(vertices=vertices, quads=quads, cap_triangles=tris)
    if enclosed_volume(mesh) < 0:
        return QuadSurfaceMesh(vertices, quads[:, ::-1], tris[:, ::-1]), True
    return mesh, False


def ref_volume_mesh(yarn, label):
    """(mesh, flipped) built cell by cell."""
    s = len(yarn.sections)
    vertices = np.vstack([yarn.aligned_rings.reshape(-1, 3), yarn.sections.centers])
    c = 10 * s
    wedges = []
    for k in range(s - 1):
        a, b = 10 * k, 10 * (k + 1)
        for j in range(10):
            jn = (j + 1) % 10
            wedges.append((c + k, a + j, a + jn, c + k + 1, b + j, b + jn))
    wedges = np.array(wedges)
    flipped = ref_wedge_volumes(SimpleNamespace(vertices=vertices, wedges=wedges)).sum() < 0
    if flipped:
        wedges = wedges[:, [0, 2, 1, 3, 5, 4]]
    mesh = VolumeMesh(
        vertices=vertices,
        wedges=wedges,
        hexes=np.empty((0, 8), np.int64),
        wedge_labels=np.full(len(wedges), label),
        hex_labels=np.empty(0, np.int64),
    )
    return mesh, flipped


def ref_hexes(nx, ny, nz):
    def vid(i, j, k):
        return (i * (ny + 1) + j) * (nz + 1) + k

    hexes = []
    for i in range(nx):
        for j in range(ny):
            for k in range(nz):
                hexes.append(
                    (
                        vid(i, j, k), vid(i + 1, j, k), vid(i + 1, j + 1, k), vid(i, j + 1, k),
                        vid(i, j, k + 1), vid(i + 1, j, k + 1), vid(i + 1, j + 1, k + 1),
                        vid(i, j + 1, k + 1),
                    )
                )
    return np.array(hexes)


def first_sections(yarn, s):
    secs = yarn.sections
    return ReconstructedYarn(
        axis=yarn.axis, path=yarn.path,
        sections=Sections(secs.rings[:s], secs.centers[:s], secs.stations[:s]),
        completed_flags=yarn.completed_flags[:s],
    )


class TestMeshTopologyOracle:
    def check(self, yarn):
        """Both builders equal their loop-built references; returns the
        surface and wedge flip decisions."""
        mesh, ref, flipped = build_surface_mesh(yarn), *ref_surface_mesh(yarn)
        assert np.array_equal(mesh.vertices, ref.vertices)
        assert np.array_equal(mesh.quads, ref.quads)
        assert np.array_equal(mesh.cap_triangles, ref.cap_triangles)
        vm, vref, vflipped = build_volume_mesh(yarn, label=3), *ref_volume_mesh(yarn, 3)
        assert np.array_equal(vm.vertices, vref.vertices)
        assert np.array_equal(vm.wedges, vref.wedges)
        assert np.array_equal(vm.wedge_labels, vref.wedge_labels)
        assert vm.hexes.shape == (0, 8) and vm.hex_labels.shape == (0,)
        return flipped, vflipped

    @pytest.mark.parametrize("seed", range(6))
    def test_curved_yarns_with_random_rolls(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 15))
        yarn = curved_yarn(n_secs=n, rolls=[int(r) for r in rng.integers(0, 10, n)])
        # One ring direction faces the caps inward, so exactly one of
        # the pair takes each flip.
        flips = {self.check(yarn), self.check(reversed_rings(yarn))}
        assert flips == {(False, False), (True, True)}

    def test_reversed_rings_take_the_flip(self):
        assert self.check(straight_yarn(n_secs=6)) == (False, False)
        assert self.check(reversed_rings(straight_yarn(n_secs=6))) == (True, True)

    def test_two_sections(self):
        for yarn in (straight_yarn(n_secs=2), first_sections(curved_yarn(), 2)):
            for y in (yarn, reversed_rings(yarn)):
                self.check(y)
                assert build_volume_mesh(y).wedges.shape == (10, 6)

    @pytest.mark.parametrize(
        "dims", [(1, 1, 1), (1, 5, 3), (3, 1, 7), (5, 3, 1), (7, 5, 3)]
    )
    def test_composite_hexes(self, dims):
        cell = 0.7
        lo = np.array([-1.3, 0.4, 2.1])
        box = Box(lo=lo, hi=lo + cell * (np.array(dims) - 0.5))
        mesh = build_composite_mesh([straight_yarn()], box, cell_size=cell)
        assert np.array_equal(mesh.hexes, ref_hexes(*dims))
        assert mesh.wedges.shape == (0, 6) and mesh.wedge_labels.shape == (0,)


@pytest.fixture(scope="module")
def desk():
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
    model = generate_interlock(spec)
    vol = voxelize(model, voxel_size=1.0)
    return model, vol


class TestEndToEnd:
    def test_full_reconstruction_recovers_all_yarns(self, desk):
        from textilemodel.segmenter import detect_batch, filter_transverse

        model, vol = desk
        dsets = [
            filter_transverse(detect_batch(vol, ax), 6.0)
            for ax in ("yz", "xz")
        ]
        yarns, tracks = reconstruct_yarns(dsets, d_gate=9.0)
        assert len(yarns) == len(model.yarns) == 16
        fams = [y.family for y in yarns]
        assert fams.count("warp") == 8 and fams.count("weft") == 8
        for y, tr in zip(yarns, tracks):
            assert tr.gaps == ()
            assert len(y.sections) >= 150
