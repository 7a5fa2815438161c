"""Geometry primitives: splines, resampling, ring areas, cross sections."""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textilemodel import geometry as geo
from textilemodel.errors import (
    ConfigError,
    DegenerateGeometryError,
    InsufficientDataError,
    InvalidContourError,
)
from textilemodel.schema import check
from textilemodel.storage import _SECTIONS


def rigid_motion(points, seed=7):
    """Random rotation + translation, used to probe invariance."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(3, 3))
    q, _ = np.linalg.qr(m)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return points @ q.T + rng.normal(size=3) * 5.0


def ellipse_equal_arc_points(a, b, n, dense=200_000):
    """Oracle: n points at equal arc spacing on an ellipse, by dense inversion."""
    theta = np.linspace(0.0, 2.0 * np.pi, dense + 1)
    x, y = a * np.cos(theta), b * np.sin(theta)
    seg = np.hypot(np.diff(x), np.diff(y))
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(n) * cum[-1] / n
    tx = np.interp(targets, cum, x)
    ty = np.interp(targets, cum, y)
    return np.column_stack([tx, ty])


def ellipse(center, normal, a, b, orientation=None, station=0.0):
    """A one-section stack from the stacked builder."""
    return geo.ellipse_sections([center], [normal], a, b, orientation, [station])


@dataclass(frozen=True)
class RefCrossSection:
    """The one-ring section that Sections replaced: one ring, its
    center and station, checked on construction."""

    contour: np.ndarray
    center: np.ndarray
    station: float = 0.0

    def __post_init__(self):
        ring = geo._as_points(self.contour, "contour")
        center = np.asarray(self.center, dtype=float).reshape(3)
        fault = geo.section_faults(ring[None], center[None], np.array([self.station]))[0]
        if fault is not None:
            raise fault
        object.__setattr__(self, "contour", geo._freeze(ring))
        object.__setattr__(self, "center", geo._freeze(center))
        object.__setattr__(self, "station", float(self.station))

    def area(self) -> float:
        return float(geo.ring_areas(self.contour[None])[0])


def shoelace_2d(uv):
    u, v = uv[:, 0], uv[:, 1]
    return 0.5 * abs(np.sum(u * np.roll(v, -1) - np.roll(u, -1) * v))


class TestBSpline:
    def test_eval_interpolates_clamped_ends(self):
        ctrl = np.array([[0.0, 0, 0], [1, 2, 0], [3, -1, 1], [4, 0, 0], [6, 1, 2]])
        knots = np.array([0, 0, 0, 0, 0.4, 1, 1, 1, 1.0])
        curve = geo.BSplineCurve(3, ctrl, knots)
        assert np.array_equal(geo.bspline_eval(curve, 0.0), ctrl[0])
        assert np.array_equal(geo.bspline_eval(curve, 1.0), ctrl[-1])

    def test_eval_partition_of_unity_on_translates(self):
        # Translating every control point translates every curve point.
        rng = np.random.default_rng(3)
        ctrl = rng.normal(size=(8, 3))
        knots = np.concatenate([np.zeros(4), np.sort(rng.random(4)), np.ones(4)])
        curve = geo.BSplineCurve(3, ctrl, knots)
        shift = np.array([2.0, -1.0, 0.5])
        shifted = geo.BSplineCurve(3, ctrl + shift, knots)
        ts = np.linspace(0, 1, 41)
        np.testing.assert_allclose(
            geo.bspline_eval(shifted, ts), geo.bspline_eval(curve, ts) + shift, atol=1e-12
        )

    def test_eval_linear_precision(self):
        # Control points on a line at Greville spacing reproduce the line.
        knots = np.concatenate([np.zeros(4), [0.3, 0.7], np.ones(4)])
        n_ctrl = 6
        grev = np.array([knots[i + 1 : i + 4].mean() for i in range(n_ctrl)])
        ctrl = np.column_stack([grev * 10.0, np.zeros(n_ctrl), np.zeros(n_ctrl)])
        curve = geo.BSplineCurve(3, ctrl, knots)
        ts = np.linspace(0, 1, 33)
        np.testing.assert_allclose(geo.bspline_eval(curve, ts)[:, 0], ts * 10.0, atol=1e-12)

    def test_tangent_matches_finite_difference(self):
        rng = np.random.default_rng(11)
        ctrl = rng.normal(size=(7, 3)) * 4.0
        knots = np.concatenate([np.zeros(4), [0.3, 0.55, 0.8], np.ones(4)])
        curve = geo.BSplineCurve(3, ctrl, knots)
        for t in (0.1, 0.37, 0.9):
            tg = geo.bspline_tangent(curve, t)
            h = 1e-7
            fd = (geo.bspline_eval(curve, t + h) - geo.bspline_eval(curve, t - h)) / (2 * h)
            fd /= np.linalg.norm(fd)
            assert np.linalg.norm(tg - fd) < 1e-5
            assert abs(np.linalg.norm(tg) - 1.0) < 1e-12

    def test_bad_knots_rejected(self):
        ctrl = np.zeros((4, 3))
        with pytest.raises(DegenerateGeometryError):
            geo.BSplineCurve(3, ctrl, np.array([0, 0, 0, 0.1, 1, 1, 1, 1.0]))
        with pytest.raises(DegenerateGeometryError):
            geo.BSplineCurve(3, ctrl, np.array([0, 0, 0, 0, 1, 1, 0.9, 1.0]))

    def test_fit_line_exact(self):
        xs = np.linspace(0, 10, 50)
        pts = np.column_stack([xs, 2 * xs, -xs])
        curve = geo.bspline_fit(pts, degree=3, n_controls=8)
        recon = geo.bspline_eval(curve, np.linspace(0, 1, 50))
        # All curve points stay on the line y = 2x, z = -x.
        np.testing.assert_allclose(recon[:, 1], 2 * recon[:, 0], atol=1e-9)
        np.testing.assert_allclose(recon[:, 2], -recon[:, 0], atol=1e-9)
        assert np.array_equal(curve.control_points[0], pts[0])
        assert np.array_equal(curve.control_points[-1], pts[-1])

    def test_fit_recovers_samples_on_existing_cubic(self):
        # Samples taken exactly on a gently curved cubic B-spline are
        # recovered within 1e-6 by a fit with the same degree and
        # control count.
        amp, n_ctrl = 5e-5, 12
        xs = np.linspace(0, 10, n_ctrl)
        base = np.column_stack([xs, np.zeros(n_ctrl), amp * np.sin(xs)])
        original = geo.bspline_fit(base, 3, n_ctrl)
        samples = geo.bspline_eval(original, np.linspace(0, 1, 200))
        refit = geo.bspline_fit(samples, 3, n_ctrl)
        params = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(samples, axis=0), axis=1))]
        )
        params /= params[-1]
        residual = np.abs(geo.bspline_eval(refit, params) - samples).max()
        assert residual < 1e-6

    def test_fit_residual_bound_at_strong_curvature(self):
        # At engineering amplitudes chord parameterization carries a
        # curvature-dependent wiggle; the fit residual stays bounded
        # but cannot reach 1e-6 (measured 1.45e-3 for this fixture).
        amp, n_ctrl = 0.2, 12
        xs = np.linspace(0, 10, n_ctrl)
        base = np.column_stack([xs, np.zeros(n_ctrl), amp * np.sin(xs)])
        original = geo.bspline_fit(base, 3, n_ctrl)
        samples = geo.bspline_eval(original, np.linspace(0, 1, 200))
        refit = geo.bspline_fit(samples, 3, n_ctrl)
        params = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(samples, axis=0), axis=1))]
        )
        params /= params[-1]
        residual = np.abs(geo.bspline_eval(refit, params) - samples).max()
        assert 1e-6 < residual < 2e-3

    def test_fit_requires_enough_samples(self):
        pts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        with pytest.raises(InsufficientDataError):
            geo.bspline_fit(pts, degree=3, n_controls=5)
        with pytest.raises(InsufficientDataError):
            geo.bspline_fit(pts, degree=3, n_controls=3)


# Scalar reference for the batched B-spline kernel: The NURBS Book A2.1
# (span) and A2.2 (nonzero basis functions), one parameter at a time.
def ref_find_span(knots, degree, u):
    hi = len(knots) - degree - 2
    if u >= knots[hi + 1]:
        return hi
    return max(int(np.searchsorted(knots, u, side="right")) - 1, degree)


def ref_basis_row(knots, degree, u):
    span = ref_find_span(knots, degree, u)
    n = np.zeros(degree + 1)
    n[0] = 1.0
    left = np.zeros(degree + 1)
    right = np.zeros(degree + 1)
    for j in range(1, degree + 1):
        left[j] = u - knots[span + 1 - j]
        right[j] = knots[span + j] - u
        saved = 0.0
        for r in range(j):
            denom = right[r + 1] + left[j - r]
            temp = n[r] / denom
            n[r] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        n[j] = saved
    return span, n


def ref_eval(curve, t):
    us = geo._map_param(curve, t)
    scalar = us.ndim == 0
    us = np.atleast_1d(us)
    out = np.empty((len(us), 3))
    p = curve.degree
    for i, u in enumerate(us):
        span, basis = ref_basis_row(curve.knots, p, float(u))
        out[i] = basis @ curve.control_points[span - p : span + 1]
    return out[0] if scalar else out


def ref_tangent(curve, t):
    p, ctrl, knots = curve.degree, curve.control_points, curve.knots
    denom = knots[p + 1 : p + len(ctrl)] - knots[1 : len(ctrl)]
    if np.any(denom <= 0):
        raise DegenerateGeometryError("curve has collapsed knot spans")
    dctrl = p * (ctrl[1:] - ctrl[:-1]) / denom[:, None]
    us = np.atleast_1d(geo._map_param(curve, t))
    out = np.empty((len(us), 3))
    for i, u in enumerate(us):
        if p == 1:
            vec = dctrl[ref_find_span(knots, 1, float(u)) - 1]
        else:
            span, basis = ref_basis_row(knots[1:-1], p - 1, float(u))
            vec = basis @ dctrl[span - p + 1 : span + 1]
        norm = np.linalg.norm(vec)
        if norm <= 0:
            raise DegenerateGeometryError("curve tangent vanishes")
        out[i] = vec / norm
    return out


def ref_fit_controls(pts, degree, n_controls):
    params = geo._chord_params(pts)
    knots = geo._fit_knots(params, n_controls, degree)
    basis = np.zeros((len(pts), n_controls))
    for row, u in enumerate(params):
        span, vals = ref_basis_row(knots, degree, float(u))
        basis[row, span - degree : span + 1] = vals
    rhs = pts - np.outer(basis[:, 0], pts[0]) - np.outer(basis[:, -1], pts[-1])
    if n_controls == 2:
        return np.vstack([pts[0], pts[-1]])
    sol = np.linalg.lstsq(basis[:, 1:-1], rhs, rcond=None)[0]
    return np.vstack([pts[0], sol, pts[-1]])


def outcome(fn, *args):
    """The result of fn(*args), or the type of the error it raised."""
    try:
        return fn(*args)
    except DegenerateGeometryError as err:
        return type(err)


def is_error(x):
    return isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], type)


def same_result(a, b):
    """Bitwise equal arrays (-0.0 differs from 0.0), or the same (type,
    message) error."""
    if is_error(a) or is_error(b):
        return a == b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_outcome(a, b):
    if isinstance(a, type) or isinstance(b, type):
        return a is b
    return np.array_equal(a, b)


ONE_ULP_PAST_1 = float(np.nextafter(1.0, 2.0))


@st.composite
def clamped_curves(draw):
    """Random clamped curve of degree 1-3; interior knots may repeat, and
    the knot domain is [0, 1] or a random interval."""
    degree = draw(st.integers(1, 3))
    n_ctrl = draw(st.integers(degree + 1, degree + 8))
    inner = st.floats(1e-6, 1.0 - 1e-6)
    interior = sorted(draw(st.lists(inner, min_size=n_ctrl - degree - 1, max_size=n_ctrl - degree - 1)))
    lo = draw(st.just(0.0) | st.floats(-50.0, 50.0))
    width = draw(st.just(1.0) | st.floats(0.01, 100.0))
    knots = lo + width * np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])
    ctrl = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n_ctrl, 3)) * 10.0
    return geo.BSplineCurve(degree, ctrl, knots)


@st.composite
def curve_params(draw, curve):
    """Curve parameters in [0, 1]: both ends, 1 + 1 ulp (clipped), the
    interior knots mapped back to [0, 1], and random values."""
    p = curve.degree
    u0, u1 = curve.knots[p], curve.knots[-p - 1]
    at_knots = (curve.knots[p + 1 : -p - 1] - u0) / (u1 - u0)
    rand = draw(st.lists(st.floats(0.0, 1.0), max_size=30))
    return np.concatenate([[0.0, 1.0, ONE_ULP_PAST_1], at_knots, rand])


class TestBSplineKernelMatchesScalarReference:
    """The batched kernel must reproduce the scalar A2.1/A2.2 code bit for
    bit: every yarn artifact is hashed."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_basis(self, data):
        curve = data.draw(clamped_curves())
        p, knots = curve.degree, curve.knots
        us = np.concatenate(
            [knots, [np.nextafter(knots[0], -np.inf), np.nextafter(knots[-1], np.inf)],
             knots[0] + (knots[-1] - knots[0]) * data.draw(curve_params(curve))]
        )
        spans, n = geo._basis(knots, p, us)
        for i, u in enumerate(us):
            ref_span, ref_n = ref_basis_row(knots, p, float(u))
            assert spans[i] == ref_span
            assert np.array_equal(n[i], ref_n)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_eval(self, data):
        curve = data.draw(clamped_curves())
        ts = data.draw(curve_params(curve))
        assert np.array_equal(geo.bspline_eval(curve, ts), ref_eval(curve, ts))
        for t in ts[:4]:
            point = geo.bspline_eval(curve, float(t))
            assert point.shape == (3,)
            assert np.array_equal(point, ref_eval(curve, float(t)))
        assert geo.bspline_eval(curve, np.empty(0)).shape == (0, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_tangent(self, data):
        curve = data.draw(clamped_curves())
        ts = data.draw(curve_params(curve))
        new = outcome(geo.bspline_tangent, curve, ts)
        assert same_outcome(new, outcome(ref_tangent, curve, ts))
        if not isinstance(new, type):
            assert np.array_equal(geo.bspline_tangent(curve, ts[1]), new[1])
            assert geo.bspline_tangent(curve, np.empty(0)).shape == (0, 3)

    @settings(max_examples=150, deadline=None)
    @given(
        degree=st.integers(1, 3),
        extra=st.integers(0, 8),
        surplus=st.integers(0, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_controls(self, degree, extra, surplus, seed):
        n_ctrl = degree + 1 + extra
        pts = np.cumsum(np.random.default_rng(seed).normal(size=(n_ctrl + surplus, 3)), axis=0)
        curve = geo.bspline_fit(pts, degree, n_ctrl)
        assert np.array_equal(curve.control_points, ref_fit_controls(pts, degree, n_ctrl))


def raised(fn, *args):
    """The result of fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except (DegenerateGeometryError, InvalidContourError) as err:
        return type(err), str(err)


def ref_resample_arclength(pts, n, closed):
    """The one-path resampler that the stacked one replaced."""
    if not np.all(np.isfinite(pts)):
        raise DegenerateGeometryError("path contains non-finite values")
    if closed:
        if n < 3:
            raise DegenerateGeometryError("closed resampling needs n >= 3")
        if len(pts) >= 2 and np.all(pts[0] == pts[-1]):
            pts = pts[:-1]
        ring = np.vstack([pts, pts[0]])
    else:
        if n < 2:
            raise DegenerateGeometryError("open resampling needs n >= 2")
        ring = pts
    if np.any(np.all(ring[1:] == ring[:-1], axis=1)):
        raise DegenerateGeometryError("path has consecutive duplicate points")
    cum = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(ring, axis=0), axis=1))])
    total = cum[-1]
    if total <= 0:
        raise DegenerateGeometryError(("closed " if closed else "") + "path has zero length")
    targets = np.arange(n) * total / n if closed else np.linspace(0.0, total, n)
    out = np.column_stack([np.interp(targets, cum, ring[:, k]) for k in range(3)])
    if not closed:
        out[0] = ring[0]
        out[-1] = ring[-1]
    return out


PATH_DEFECTS = ("seam", "signed_seam", "dup", "grid", "lattice", "tiny", "nan")


def random_path(rng, m, defects):
    """An (m, 3) random walk with some of these defects: "seam" (last
    point repeats the first), "signed_seam" (the same with -0.0 for
    0.0), "dup" (a repeated point), "grid" (points on a 2x2x2 grid, so
    repeats are common), "lattice" (half-unit steps along the axes, so
    arc lengths are exact and many targets land on a vertex, whose zero
    coordinates are -0.0), "tiny" (steps whose lengths underflow to 0),
    "nan" (a non-finite coordinate)."""
    pts = np.cumsum(rng.normal(size=(m, 3)), axis=0)
    if "grid" in defects:
        pts = rng.integers(0, 2, size=(m, 3)).astype(float)
    if "lattice" in defects:
        steps = np.zeros((m, 3))
        steps[np.arange(m), rng.integers(3, size=m)] = rng.choice([-0.5, 0.5], size=m)
        pts = np.cumsum(steps, axis=0)
        pts[pts == 0] = -0.0
    if "tiny" in defects:
        pts *= 1e-170
    if "dup" in defects and m >= 2:
        i = rng.integers(m - 1)
        pts[i + 1] = pts[i]
    if "seam" in defects:
        pts[-1] = pts[0]
    if "signed_seam" in defects:
        pts[0] = 0.0
        pts[-1] = [-0.0, 0.0, -0.0]
    if "nan" in defects:
        pts[rng.integers(m), rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
    return pts


path_stacks = st.integers(1, 12).flatmap(
    lambda m: st.lists(
        st.tuples(st.integers(0, 2**32 - 1), st.sets(st.sampled_from(PATH_DEFECTS), max_size=2)),
        min_size=1,
        max_size=5,
    ).map(lambda cases: np.array([random_path(np.random.default_rng(s), m, d) for s, d in cases]))
)


class TestResample:
    @settings(max_examples=300, deadline=None)
    @given(paths=path_stacks, n=st.integers(1, 12), closed=st.booleans(), block=st.integers(1, 64))
    def test_stack_matches_the_one_path_reference(self, paths, n, closed, block):
        want = [raised(ref_resample_arclength, p, n, closed) for p in paths]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geo, "RESAMPLE_BLOCK", block)
            for p, w in zip(paths, want):
                assert same_result(raised(geo.resample_arclength, p, n, closed), w)
            first = next((w for w in want if is_error(w)), None)
            got = raised(geo.resample_arclength, paths, n, closed)
        assert same_result(got, first if first is not None else np.array(want))

    def test_open_line_equal_spacing(self):
        pts = np.array([[0.0, 0, 0], [10, 0, 0]])
        out = geo.resample_arclength(pts, 6)
        np.testing.assert_allclose(out[:, 0], np.linspace(0, 10, 6), atol=1e-12)
        assert np.array_equal(out[0], pts[0]) and np.array_equal(out[-1], pts[-1])

    def test_open_idempotent_on_line(self):
        pts = np.array([[0.0, 0, 0], [3, 4, 0], [6, 8, 0]])
        once = geo.resample_arclength(pts, 9)
        twice = geo.resample_arclength(once, 9)
        np.testing.assert_allclose(once, twice, atol=1e-9)

    def test_closed_regular_sampling_idempotent(self):
        theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        circle = np.column_stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
        once = geo.resample_arclength(circle, 10, closed=True)
        twice = geo.resample_arclength(once, 10, closed=True)
        np.testing.assert_allclose(once, twice, atol=1e-9)
        chords = np.linalg.norm(np.diff(np.vstack([once, once[:1]]), axis=0), axis=1)
        np.testing.assert_allclose(chords, chords[0], atol=1e-9)

    def test_closed_no_seam_duplicate(self):
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        ring = np.column_stack([2 * np.cos(theta), np.sin(theta), np.zeros_like(theta)])
        out = geo.resample_arclength(ring, 10, closed=True)
        assert out.shape == (10, 3)
        assert not np.array_equal(out[0], out[-1])

    def test_near_idempotence_on_smooth_curve(self):
        # Corner cutting moves points slightly on generic smooth curves;
        # the drift is bounded by the sampling density, not 1e-9.
        xs = np.linspace(0, 10, 400)
        pts = np.column_stack([xs, np.sin(xs), np.zeros_like(xs)])
        once = geo.resample_arclength(pts, 40)
        twice = geo.resample_arclength(once, 40)
        assert np.abs(once - twice).max() < 5e-3

    def test_zero_length_raises(self):
        with pytest.raises(DegenerateGeometryError):
            geo.resample_arclength(np.array([[1.0, 1, 1]]), 4)

    def test_consecutive_duplicate_points_raise(self):
        line = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 0, 0]])
        for closed in (False, True):
            with pytest.raises(DegenerateGeometryError):
                geo.resample_arclength(line, 4, closed=closed)
        with pytest.raises(DegenerateGeometryError):  # -0.0 == 0.0
            geo.resample_arclength(np.array([[0.0, 0, 0], [-0.0, 0, 0], [1, 0, 0]]), 3)
        with pytest.raises(DegenerateGeometryError):  # one point closes onto itself
            geo.resample_arclength(np.array([[1.0, 1, 1]]), 3, closed=True)

    def test_duplicates_mean_equal_points_not_zero_steps(self):
        # The first step's length underflows to 0, but its points differ.
        pts = np.array([[0.0, 0, 0], [1e-170, 0, 0], [5, 0, 0]])
        out = geo.resample_arclength(pts, 6)
        np.testing.assert_allclose(out[:, 0], np.linspace(0, 5, 6), atol=1e-12)
        # A closed path may repeat its first point at the end.
        square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 0]])
        out = geo.resample_arclength(square, 4, closed=True)
        np.testing.assert_allclose(out, square[:4], atol=1e-12)

    def test_curve_input(self):
        pts = np.column_stack([np.linspace(0, 10, 30), np.zeros(30), np.zeros(30)])
        curve = geo.bspline_fit(pts, 3, 6)
        out = geo.resample_arclength(curve, 11)
        np.testing.assert_allclose(out[:, 0], np.linspace(0, 10, 11), atol=1e-6)


class TestSectionArea:
    def test_unit_square(self):
        ring = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        assert abs(geo.ring_areas(ring[None])[0] - 1.0) < 1e-12

    def test_rigid_motion_invariance(self):
        ring = ellipse([0, 0, 0], [0, 0, 1], 3.0, 1.5).rings[0]
        a0 = geo.ring_areas(ring[None])[0]
        moved = np.array([rigid_motion(ring, seed) for seed in (1, 2, 3)])
        assert np.abs(geo.ring_areas(moved) - a0).max() < 1e-9

    def test_self_intersection_raises(self):
        ring = np.array(ellipse([0, 0, 0], [0, 0, 1], 3.0, 1.5).rings[0])
        ring[[2, 6]] = ring[[6, 2]]
        assert not geo.ring_is_simple(ring[:, :2])
        with pytest.raises(InvalidContourError, match="self-intersecting"):
            geo.Sections(ring[None], ring.mean(axis=0)[None], [0.0])

    def test_too_few_points_raises(self):
        with pytest.raises(InvalidContourError):
            geo.Sections([[[0.0, 0, 0], [1, 0, 0]]], [[0.5, 0, 0]], [0.0])

    def test_cross_section_area_equals_array_path(self):
        sec = ellipse([1, 2, 3], [0.3, -0.4, 0.86], 4.0, 2.0)
        ref = RefCrossSection(sec.rings[0], sec.centers[0], sec.stations[0])
        assert ref.area() == geo.ring_areas(sec.rings)[0]

    def test_regular_decagon_on_circle_matches_analytic(self):
        # Ten equal-arc points on a circle form a regular decagon with
        # area (5/2) r^2 sin(2 pi / 10).
        sec = ellipse([0, 0, 0], [0, 0, 1], 1.0, 1.0)
        analytic = 5.0 * np.sin(np.pi / 5.0) / 2.0 * 1.0**2 * 2.0
        assert abs(geo.ring_areas(sec.rings)[0] - 2.938926261462366) < 1e-9
        assert abs(analytic - 2.938926261462366) < 1e-12

    def test_decagon_on_ellipse_matches_oracle(self):
        # Equal-arc decagon inscribed in an ellipse with a=2, b=1.
        # The inscribed polygon undercuts pi*a*b by about 7.3 percent,
        # so the area is compared against an independent dense oracle.
        sec = ellipse([0, 0, 0], [1, 0, 0], 2.0, 1.0)
        oracle_pts = ellipse_equal_arc_points(2.0, 1.0, 10)
        oracle_area = shoelace_2d(oracle_pts)
        area = geo.ring_areas(sec.rings)[0]
        assert abs(area - oracle_area) < 1e-4
        ratio = area / (np.pi * 2.0 * 1.0)
        assert 0.92 < ratio < 0.935

    def test_inscribed_area_deficit_shrinks_with_more_points(self):
        target = np.pi * 2.0 * 1.0
        theta = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
        dense = np.column_stack(
            [2.0 * np.cos(theta), np.sin(theta), np.zeros_like(theta)]
        )
        errs = []
        for n in (32, 128, 512):
            ring = geo.resample_arclength(dense, n, closed=True)
            errs.append(abs(geo.ring_areas(ring[None])[0] - target))
        assert errs[0] > errs[1] > errs[2]

    def test_perimeter_matches_oracle(self):
        sec = ellipse([0, 0, 0], [1, 0, 0], 2.0, 1.0)
        oracle_pts = ellipse_equal_arc_points(2.0, 1.0, 10)
        closed = np.vstack([oracle_pts, oracle_pts[:1]])
        oracle_perim = np.hypot(*np.diff(closed, axis=0).T[:2]).sum()
        ring = np.vstack([sec.rings[0], sec.rings[0, :1]])
        perim = np.linalg.norm(np.diff(ring, axis=0), axis=1).sum()
        assert abs(perim - oracle_perim) < 1e-4


# Scalar reference for ring_is_simple: every non-adjacent edge pair is
# tested on its own, collinear pairs by their 1D overlap.
def ref_cross2(a, b):
    return float(a[0] * b[1] - a[1] * b[0])


def ref_segments_cross(p, q, r, s):
    d1 = ref_cross2(q - p, r - p)
    d2 = ref_cross2(q - p, s - p)
    d3 = ref_cross2(s - r, p - r)
    d4 = ref_cross2(s - r, q - r)
    if ((d1 > 0) != (d2 > 0) or d1 == 0 or d2 == 0) and (
        (d3 > 0) != (d4 > 0) or d3 == 0 or d4 == 0
    ):
        if d1 == 0 and d2 == 0:
            axis = int(np.argmax(np.abs(q - p)))
            lo1, hi1 = sorted((p[axis], q[axis]))
            lo2, hi2 = sorted((r[axis], s[axis]))
            return hi1 > lo2 and hi2 > lo1
        return True
    return False


def ref_ring_is_simple(uv):
    m = len(uv)
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue  # wrap-around edges are adjacent
            if ref_segments_cross(uv[i], uv[(i + 1) % m], uv[j], uv[(j + 1) % m]):
                return False
    return True


class TestRingIsSimple:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=10))
    def test_matches_scalar_reference_on_integer_grid(self, points):
        # A 4x4 grid makes collinear, touching and repeated points common.
        uv = np.array(points, dtype=float)
        assert geo.ring_is_simple(uv) == ref_ring_is_simple(uv)

    def test_collinear_pairs(self):
        # A flat ring that folds back: non-adjacent edges overlap on one line.
        folded = np.array([[0.0, 1], [2, 1], [1, 1], [3, 1]])
        assert not geo.ring_is_simple(folded)
        # A repeated vertex on a straight side: the edges on either side of
        # it are collinear and not adjacent, but they only touch.
        repeated = np.array([[0.0, 0], [1, 0], [1, 0], [2, 0], [2, 2], [0, 2]])
        assert geo.ring_is_simple(repeated)
        assert ref_ring_is_simple(repeated)


class TestCrossSection:
    def test_valid_construction(self):
        sec = ellipse([1, 2, 3], [0, 1, 0], 4.0, 2.0, station=7.5)
        assert len(sec) == 1 and sec.stations.tolist() == [7.5]
        assert sec.rings.shape == (1, geo.RING_POINTS, 3) and sec.centers.shape == (1, 3)
        np.testing.assert_allclose(sec.rings[0].mean(axis=0), sec.centers[0], atol=1e-9)

    def test_center_mismatch_raises(self):
        rings = ellipse([0, 0, 0], [0, 0, 1], 2.0, 1.0).rings
        with pytest.raises(InvalidContourError):
            geo.Sections(rings, [[1.0, 0, 0]], [0.0])

    def test_nonplanar_raises(self):
        ring = np.array(ellipse([0, 0, 0], [0, 0, 1], 3.0, 2.0).rings[0])
        ring[0, 2] += 2.0
        with pytest.raises(InvalidContourError):
            geo.Sections(ring[None], ring.mean(axis=0)[None], [0.0])

    def test_wrong_point_count_raises(self):
        theta = np.linspace(0, 2 * np.pi, 12, endpoint=False)
        ring = np.column_stack(
            [2 * np.cos(theta), np.sin(theta), np.zeros_like(theta)]
        )
        with pytest.raises(InvalidContourError):
            geo.Sections(ring[None], np.zeros((1, 3)), [0.0])

    def test_immutability(self):
        sec = ellipse([0, 0, 0], [0, 0, 1], 2.0, 1.0)
        for arr in (sec.rings, sec.centers, sec.stations):
            with pytest.raises(ValueError):
                arr[0] = 99.0


class TestEllipseSection:
    def test_axis_lengths(self):
        a, b = 5.0, 2.0
        sec = ellipse([0, 0, 0], [0, 0, 1], a, b, orientation=[1, 0, 0])
        rel = sec.rings[0] - sec.centers[0]
        assert rel[:, 0].max() <= a + 1e-9
        assert rel[:, 1].max() <= b + 1e-9
        # First point sits at the +orientation vertex.
        assert abs(rel[0, 0] - a) < 1e-6

    def test_counterclockwise_about_normal(self):
        sec = ellipse([0, 0, 0], [0, 0, 1], 2.0, 1.0, orientation=[1, 0, 0])
        uv = sec.rings[0, :, :2]
        assert shoelace_2d(uv) > 0
        signed = 0.5 * np.sum(
            uv[:, 0] * np.roll(uv[:, 1], -1) - np.roll(uv[:, 0], -1) * uv[:, 1]
        )
        assert signed > 0

    def test_invalid_axes_raise(self):
        with pytest.raises(DegenerateGeometryError):
            ellipse([0, 0, 0], [0, 0, 1], 1.0, 2.0)
        with pytest.raises(DegenerateGeometryError):
            ellipse([0, 0, 0], [0, 0, 0], 2.0, 1.0)

    def test_orientation_parallel_to_normal_raises(self):
        with pytest.raises(DegenerateGeometryError):
            ellipse([0, 0, 0], [0, 0, 1], 2.0, 1.0, orientation=[0, 0, 1])


class TestCanonicalOrdering:
    def test_rotation_of_start_is_normalized(self):
        sec = ellipse([0, 0, 0], [0, 0, 1], 2.0, 1.0)
        uv = sec.rings[0, :, :2]
        for shift in (1, 3, 7):
            rolled = np.roll(uv, shift, axis=0)
            order = geo.canonical_indices(rolled)
            np.testing.assert_allclose(rolled[order], uv, atol=1e-12)

    def test_reversed_ring_is_reoriented(self):
        sec = ellipse([0, 0, 0], [0, 0, 1], 2.0, 1.0)
        uv = sec.rings[0, :, :2]
        reversed_uv = uv[::-1]
        order = geo.canonical_indices(reversed_uv)
        np.testing.assert_allclose(reversed_uv[order], uv, atol=1e-12)

    def test_duplicated_maximum_starts_at_its_first_index(self):
        # (3, 1) appears at indices 1 and 3: the first one starts the ring.
        uv = np.array([[0.0, 0], [3, 1], [1, 1], [3, 1], [1, 3]])
        assert np.array_equal(geo.canonical_indices(uv), [1, 2, 3, 4, 0])
        # Equal u, larger v wins.
        uv = np.array([[3.0, 0], [0, 0], [3, 2], [1, 1]])
        assert geo.canonical_indices(uv)[0] == 2


class TestPlaneHelpers:
    def test_plane_frame_right_handed(self):
        normals = np.array([[0, 0, 1], [1, 0, 0], [0.3, -0.4, 0.86], [0, 1, 0]])
        e1, e2 = geo.plane_frames(normals)
        n = normals / np.linalg.norm(normals, axis=1)[:, None]
        np.testing.assert_allclose(np.cross(e1, e2), n, atol=1e-9)
        assert np.abs(np.sum(e1 * n, axis=1)).max() < 1e-9
        assert np.abs(np.sum(e2 * n, axis=1)).max() < 1e-9

    def test_best_fit_plane_recovers_construction(self):
        rng = np.random.default_rng(5)
        (e1,), (e2,) = geo.plane_frames(np.array([[0.2, 0.5, 0.84]]))
        pts = np.outer(rng.normal(size=40), e1) + np.outer(rng.normal(size=40), e2)
        pts += np.array([3.0, -1.0, 2.0])
        (centroid,), (normal,), _ = geo.fit_planes(pts[None])
        n_true = np.cross(e1, e2)
        assert abs(abs(normal @ n_true) - 1.0) < 1e-9
        assert np.abs((pts - centroid) @ normal).max() < 1e-9


class TestBox:
    def test_contains_and_extent(self):
        box = geo.Box([0, 0, 0], [2, 3, 4])
        np.testing.assert_allclose(box.extent, [2, 3, 4])
        assert box.contains([1, 1, 1])[0]
        assert not box.contains([3, 1, 1])[0]

    def test_inverted_raises(self):
        with pytest.raises(DegenerateGeometryError):
            geo.Box([1, 0, 0], [0, 1, 1])

    def test_around_points(self):
        pts = np.array([[0.0, 1, 2], [4, -1, 3]])
        box = geo.Box.around(pts, margin=1.0)
        np.testing.assert_allclose(box.lo, [-1, -2, 1])
        np.testing.assert_allclose(box.hi, [5, 2, 4])


# Scalar references for the ring kernel: the one-ring plane fit, frame,
# projection, shoelace and one-ring section checks that the stacked kernel
# replaced.  The kernel must match them bit for bit.
def ref_cross3(a, b):
    return np.array(
        [a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]]
    )


def ref_best_fit_plane(pts):
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    normal = vt[-1]
    if normal[np.argmax(np.abs(normal))] < 0:
        normal = -normal
    return centroid, normal


def ref_plane_frame(normal):
    n = normal / np.linalg.norm(normal)
    zref = np.array([0.0, 0.0, 1.0])
    if abs(n @ zref) > 0.99:
        xref = np.array([1.0, 0.0, 0.0])
        e1 = xref - (xref @ n) * n
        e1 /= np.linalg.norm(e1)
        return e1, ref_cross3(n, e1)
    e2 = zref - (zref @ n) * n
    e2 /= np.linalg.norm(e2)
    return ref_cross3(e2, n), e2


def ref_project_ring(pts, centroid, normal):
    e1, e2 = ref_plane_frame(normal)
    rel = pts - centroid
    return np.column_stack([rel @ e1, rel @ e2])


def ref_shoelace(uv):
    u, v = uv[:, 0], uv[:, 1]
    u1 = np.concatenate((u[1:], u[:1]))
    v1 = np.concatenate((v[1:], v[:1]))
    return 0.5 * float(np.sum(u * v1 - u1 * v))


def ref_section_fault(ring, center, station):
    """(error type, message) of the one-ring section checks, or None."""
    if not np.all(np.isfinite(ring)):
        return DegenerateGeometryError, "contour contains non-finite values"
    if len(ring) != geo.RING_POINTS:
        return InvalidContourError, f"contour must have {geo.RING_POINTS} points"
    if not np.all(np.isfinite(center)) or not np.isfinite(station):
        return InvalidContourError, "section center and station must be finite"
    if np.linalg.norm(ring.mean(axis=0) - center) > geo.CENTROID_TOL:
        return InvalidContourError, "center does not match contour centroid"
    centroid, normal = ref_best_fit_plane(ring)
    if np.max(np.abs((ring - centroid) @ normal)) > geo.PLANE_TOL:
        return InvalidContourError, "contour is not planar within tolerance"
    if not ref_ring_is_simple(ref_project_ring(ring, centroid, normal)):
        return InvalidContourError, "contour is self-intersecting"
    return None


def ref_ellipse_section(center, normal, a, b, orientation=None, station=0.0):
    """The one-ring builder that ellipse_sections replaced."""
    if not (a >= b > 0):
        raise DegenerateGeometryError("ellipse needs a >= b > 0")
    c = np.asarray(center, dtype=float).reshape(3)
    n = np.asarray(normal, dtype=float).reshape(3)
    norm = np.linalg.norm(n)
    if norm <= 0:
        raise DegenerateGeometryError("section normal must be nonzero")
    n = n / norm
    if orientation is None:
        e1, e2 = ref_plane_frame(n)
    else:
        o = np.asarray(orientation, dtype=float).reshape(3)
        e1 = o - (o @ n) * n
        nrm = np.linalg.norm(e1)
        if nrm <= 1e-12:
            raise DegenerateGeometryError("orientation is parallel to the normal")
        e1 = e1 / nrm
        e2 = np.cross(n, e1)
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    dense_ring = c + np.outer(a * np.cos(theta), e1) + np.outer(b * np.sin(theta), e2)
    ring = ref_resample_arclength(dense_ring, geo.RING_POINTS, closed=True)
    uv = np.column_stack([(ring - c) @ e1, (ring - c) @ e2])
    ring = ring[ref_canonical_indices(uv)]
    return RefCrossSection(contour=ring, center=c, station=station)


def ref_canonical_indices(uv):
    top = np.flatnonzero(uv[:, 0] == uv[:, 0].max())
    start = top[np.argmax(uv[top, 1])]
    order = np.roll(np.arange(len(uv)), -start)
    if ref_shoelace(uv[order]) < 0:
        order = np.concatenate([[order[0]], order[1:][::-1]])
    return order


REPEATED_VERTEX_RECTANGLE = np.array(
    [[0.0, 0], [1, 0], [1, 0], [2, 0], [3, 0], [3, 1], [3, 2], [2, 2], [1, 2], [0, 2]]
)


def random_ring(rng, defects):
    """A 10-point ring with some of these defects: "flat" (|n_z| > 0.99),
    "grid" (integer points in a horizontal plane, so collinear and
    repeated points; half of them a rectangle with a repeated vertex on
    one side, simple only by the collinear-overlap rule), "warp" (not planar), "fold" (two points swapped),
    "off" (center off the centroid), "nan" (non-finite center, station
    or ring point).  Returns (ring, center, station)."""
    if "grid" in defects:
        if rng.random() < 0.5:
            uv = np.roll(REPEATED_VERTEX_RECTANGLE * rng.integers(1, 4), rng.integers(10), axis=0)
        else:
            uv = rng.integers(0, 4, size=(10, 2)).astype(float)
        ring = np.column_stack([uv, np.full(10, float(rng.integers(-5, 5)))])
    else:
        if "flat" in defects:
            normal = np.array([*rng.uniform(-0.1, 0.1, 2), rng.choice([-1.0, 1.0])])
        else:
            normal = rng.normal(size=3)
        e1, e2 = ref_plane_frame(normal)
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, 10))
        a, b = rng.uniform(1.0, 6.0, 2)
        ring = np.outer(a * np.cos(theta), e1) + np.outer(b * np.sin(theta), e2)
        ring += rng.normal(scale=1e-3, size=ring.shape) + rng.uniform(-50.0, 50.0, 3)
        if "warp" in defects:
            ring[rng.integers(10)] += rng.uniform(0.5, 4.0) * np.cross(e1, e2)
    if "fold" in defects:
        i = rng.integers(10)
        j = (i + rng.integers(2, 9)) % 10
        ring[[i, j]] = ring[[j, i]]
    center = ring.mean(axis=0)
    station = float(rng.uniform(0.0, 100.0))
    if "off" in defects:
        center = center + rng.normal(size=3) * rng.uniform(0.1, 0.5)
    if "nan" in defects:
        which = rng.integers(3)
        if which == 0:
            center[rng.integers(3)] = rng.choice([np.nan, np.inf])
        elif which == 1:
            station = float(rng.choice([np.nan, -np.inf]))
        else:
            ring[rng.integers(10), rng.integers(3)] = np.nan
    return ring, center, station


DEFECTS = ("flat", "grid", "warp", "fold", "off", "nan")

ring_stacks = st.lists(
    st.tuples(st.integers(0, 2**32 - 1), st.sets(st.sampled_from(DEFECTS), max_size=3)),
    min_size=1,
    max_size=8,
)


# Stacks of 1..6 rings of 3..10 points on a 4x4 grid: collinear,
# touching and repeated points are common.
grid_ring_stacks = st.integers(3, 10).flatmap(
    lambda m: st.lists(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=m, max_size=m),
        min_size=1,
        max_size=6,
    )
).map(lambda rings: np.array(rings, dtype=float))


def build_stack(cases):
    rows = [random_ring(np.random.default_rng(seed), defects) for seed, defects in cases]
    rings, centers, stations = (np.array(x) for x in zip(*rows))
    return rings, centers, stations


class TestRingKernelMatchesScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(ring_stacks)
    def test_faults(self, cases):
        rings, centers, stations = build_stack(cases)
        got = [None if f is None else (type(f), str(f))
               for f in geo.section_faults(rings, centers, stations)]
        want = [ref_section_fault(*row) for row in zip(rings, centers, stations)]
        assert got == want

    @settings(max_examples=150, deadline=None)
    @given(ring_stacks)
    def test_planes_frames_uv_and_areas(self, cases):
        rings, _, _ = build_stack(cases)
        rings = rings[np.isfinite(rings).all(axis=(1, 2))]
        if not len(rings):
            return
        centroids, normals, rel = geo.fit_planes(rings)
        e1, e2 = geo.plane_frames(normals)
        uvs = geo._project(rel, e1, e2)
        areas = geo.ring_areas(rings)
        assert geo.ring_is_simple(uvs[:1]).shape == (1,)
        for k, ring in enumerate(rings):
            c, n = ref_best_fit_plane(ring)
            f1, f2 = ref_plane_frame(n)
            uv = ref_project_ring(ring, c, n)
            assert np.array_equal(centroids[k], c) and np.array_equal(normals[k], n)
            assert np.array_equal(rel[k], ring - c)
            assert np.array_equal(e1[k], f1) and np.array_equal(e2[k], f2)
            assert np.array_equal(uvs[k], uv)
            assert areas[k] == abs(ref_shoelace(uv))

    @settings(max_examples=150, deadline=None)
    @given(ring_stacks)
    def test_cross_section_and_bulk_builder_raise_the_reference_error(self, cases):
        # Sections accepts a stack exactly when the one-ring reference
        # accepts every ring, and otherwise raises the reference error of
        # the first faulty ring.
        rings, centers, stations = build_stack(cases)
        want = [ref_section_fault(*row) for row in zip(rings, centers, stations)]
        refs = [raised(RefCrossSection, *row) for row in zip(rings, centers, stations)]
        for ref, w in zip(refs, want):
            if w is None:
                uv = ref_project_ring(ref.contour, *ref_best_fit_plane(ref.contour))
                assert ref.area() == abs(ref_shoelace(uv))
            else:
                assert ref == w
        first = next((w for w in want if w is not None), None)
        got = raised(geo.Sections, list(rings), centers.tolist(), stations.tolist())
        if first is not None:
            assert got == first
            return
        assert len(got) == len(rings)
        assert np.array_equal(got.rings, [r.contour for r in refs])
        assert np.array_equal(got.centers, [r.center for r in refs])
        assert got.stations.tolist() == [r.station for r in refs]
        assert [a.shape for a in (got.rings, got.centers, got.stations)] == [
            rings.shape, centers.shape, stations.shape
        ]
        for arr in (got.rings, got.centers, got.stations):
            assert arr.dtype == np.float64 and not arr.flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(grid_ring_stacks)
    def test_ring_is_simple_stack_on_integer_grid(self, uv):
        assert geo.ring_is_simple(uv).tolist() == [ref_ring_is_simple(r) for r in uv]

    @settings(max_examples=300, deadline=None)
    @given(grid_ring_stacks)
    def test_canonical_indices_stack(self, uv):
        # Integer points make tied maxima and zero-area rings common.
        want = [ref_canonical_indices(r) for r in uv]
        assert np.array_equal(geo.canonical_indices(uv), want)
        assert all(np.array_equal(geo.canonical_indices(r), w) for r, w in zip(uv, want))

    def test_ragged_stack_names_its_short_ring(self):
        # Ragged contour lists come from files: the sections schema names
        # the short ring before any ring is built, whatever the rings
        # before it hold; a stack of full rings raises its first fault.
        rings, centers, stations = build_stack([(1, set()), (2, {"fold"}), (3, set())])

        def read(contours):
            rows = [
                {"contour": np.asarray(r).tolist(), "center": c.tolist(), "station": float(t)}
                for r, c, t in zip(contours, centers, stations)
            ]
            s = check(rows, _SECTIONS, "sections")
            return geo.Sections(s["contour"], s["center"], s["station"])

        for k, contours in ((2, [rings[0], rings[1], rings[2][:9]]), (1, [rings[0], rings[2][:9], rings[1]])):
            with pytest.raises(ConfigError, match=rf"^sections\[{k}\]\.contour must be 10 × 3 finite numbers$"):
                read(contours)
        with pytest.raises(InvalidContourError, match="self-intersecting"):
            read(rings)
        assert len(geo.Sections([], [], [])) == 0


@st.composite
def ellipse_stacks(draw):
    """Arguments of ellipse_sections: 1..6 sections with random centres
    and normals, some horizontal (|n_z| near or past 0.99); a >= b shared
    or per section; orientation None, shared or per section; stations
    given or not; and possibly one faulty section (a < b or b = 0, a zero
    normal, or a normal parallel to the orientation)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    centers = rng.uniform(-50.0, 50.0, (n, 3))
    normals = rng.normal(size=(n, 3))
    flat = rng.random(n) < 0.4
    normals[flat] = np.column_stack(
        [rng.uniform(-0.1, 0.1, (flat.sum(), 2)), rng.choice([-1.0, 1.0], flat.sum())]
    )
    b = rng.uniform(0.2, 5.0, n)
    a = b * np.where(rng.random(n) < 0.2, 1.0, rng.uniform(1.0, 3.0, n))
    if draw(st.booleans()):
        a, b = a[0], b[0]
    orientation = draw(st.sampled_from([None, "shared", "rows"]))
    if orientation == "shared":
        orientation = rng.normal(size=3)
    elif orientation == "rows":
        orientation = rng.normal(size=(n, 3))
    stations = rng.uniform(0.0, 100.0, n) if draw(st.booleans()) else None
    fault = draw(st.sampled_from([None, "axes", "normal", "parallel"]))
    i = rng.integers(n)
    if fault == "axes":
        a, b = np.broadcast_to(a, n).copy(), np.broadcast_to(b, n).copy()
        a[i], b[i] = (b[i], a[i] * 1.5) if rng.random() < 0.7 else (a[i], 0.0)
    elif fault == "normal":
        normals[i] = 0.0
    elif fault == "parallel":
        if orientation is None:
            orientation = rng.normal(size=3)
        o = orientation if orientation.ndim == 1 else orientation[i]
        normals[i] = o * rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    return centers, normals, a, b, orientation, stations


class TestEllipseSectionsMatchOneRingReference:
    @settings(max_examples=300, deadline=None)
    @given(ellipse_stacks())
    def test_sections_and_errors(self, args):
        centers, normals, a, b, orientation, stations = args
        n = len(centers)
        rows = zip(
            centers,
            normals,
            np.broadcast_to(a, n),
            np.broadcast_to(b, n),
            [orientation] * n if orientation is None or orientation.ndim == 1 else orientation,
            np.zeros(n) if stations is None else stations,
        )
        want = []
        for row in rows:
            want.append(raised(ref_ellipse_section, *row))
            if is_error(want[-1]):
                want = want[-1]
                break
        got = raised(geo.ellipse_sections, centers, normals, a, b, orientation, stations)
        if is_error(want) or is_error(got):
            assert got == want
            return
        assert len(got) == len(want)
        assert np.array_equal(got.rings, [ref.contour for ref in want])
        assert np.array_equal(got.centers, [ref.center for ref in want])
        assert got.stations.tolist() == [ref.station for ref in want]


# scipy stays in the tests as the oracle of the gap-filling spline.


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def spline_data(draw):
    """Irregular integer abscissae, n in [4, 300], 1 or 20 channels;
    sometimes a fixed run of short steps then a long one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(4, 300))
        steps = rng.integers(1, draw(st.sampled_from([2, 4, 40])), n - 1)
        x = draw(st.integers(0, 500)) + np.concatenate([[0], np.cumsum(steps)])
    else:
        x = np.array([0, 1, 2, 12, 13, 15, 16])
    y = rng.normal(size=(len(x), draw(st.sampled_from([1, 20])))) * 10.0 ** rng.uniform(-3, 3)
    y[rng.random(y.shape) < 0.05] = -0.0
    return x, y


class TestNotAKnotSplineMatchesScipy:
    @settings(max_examples=200, deadline=None)
    @given(spline_data())
    def test_values_match_to_round_off(self, data):
        from scipy.interpolate import CubicSpline

        x, y = data
        # Every slice between the ends, as gap filling asks, plus
        # points off the integers and beyond both ends.
        q = np.r_[np.arange(x[0], x[-1] + 1), x[0] - 2.5, x[-1] + 1.75, (x[:-1] + x[1:]) / 2]
        got = geo.not_a_knot_spline(x, y)(q)
        want = CubicSpline(x, y, axis=0)(q)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-11 * np.abs(y).max()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(4, 50), st.sampled_from([1, 20]))
    def test_reproduces_cubic_polynomials(self, seed, n, m):
        # A cubic lies in the spline's space, so the interpolant is the
        # cubic itself at every slice between the ends.  Natural ends, or
        # knots too far from the data for a well-posed collocation, bend
        # it; any other interior knot choice keeps cubics, so the scipy
        # test above pins that.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 100) + np.concatenate([[0], np.cumsum(rng.integers(1, 8, n - 1))])
        coef = rng.normal(size=(4, m)) * 10.0 ** rng.uniform(-3, 3, (4, 1))

        def p(t):
            s = ((t - x[0]) / (x[-1] - x[0]))[:, None]  # in [0, 1], so no power swamps the rest
            return coef[0] + s * (coef[1] + s * (coef[2] + s * coef[3]))

        q = np.arange(x[0], x[-1] + 1)
        want = p(q)
        got = geo.not_a_knot_spline(x, p(x))(q)
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_rejects_short_or_unsorted_input(self):
        with pytest.raises(InsufficientDataError):
            geo.not_a_knot_spline([0, 1, 2], np.zeros((3, 2)))
        with pytest.raises(DegenerateGeometryError):
            geo.not_a_knot_spline([0, 1, 1, 2], np.zeros((4, 2)))


@st.composite
def point_set_pairs(draw):
    """(a, b) point sets with repeated points inside each set and points
    shared between them, so zero distances occur."""
    coord = st.floats(-1e6, 1e6, allow_subnormal=True) | st.sampled_from([0.0, -0.0, 1.0])
    pool = draw(st.lists(st.tuples(coord, coord, coord), min_size=1, max_size=12))
    picks = st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=20)
    a, b = (np.array([pool[i] for i in draw(picks)]) for _ in "ab")
    return a, b


class TestSquaredDistancesMatchCdist:
    @settings(max_examples=300, deadline=None)
    @given(point_set_pairs())
    def test_entries_match_cdist(self, pair):
        from scipy.spatial.distance import cdist

        a, b = pair
        d2 = geo.squared_distances(a, b)
        assert same_bits(d2, cdist(a, b, "sqeuclidean"))
        assert same_bits(np.sqrt(d2), cdist(a, b))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_gaussian_clouds_match_cdist(self, seed):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(int(rng.integers(1, 200)), 3)) * 10.0 ** rng.uniform(-3, 3) for _ in "ab")
        assert same_bits(np.sqrt(geo.squared_distances(a, b)), cdist(a, b))
