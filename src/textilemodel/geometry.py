"""Curve and cross-section primitives shared by every pipeline stage.

Coordinates are Cartesian with x along the warp direction, y along the
weft direction and z through the thickness.  Lengths are expressed in
voxel units; one voxel corresponds to a configurable physical size
(``DEFAULT_VOXEL_SIZE_UM`` micrometres by default).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateGeometryError,
    InsufficientDataError,
    InvalidContourError,
    SingularFitError,
)

DEFAULT_VOXEL_SIZE_UM = 20.0

# Cross-section contour size used throughout the pipeline.
RING_POINTS = 10

# Construction tolerances for cross sections, in voxel units.
PLANE_TOL = 0.5
CENTROID_TOL = 0.25

RESAMPLE_BLOCK = 2**15  # padded arc-length knots per chunk of the resampler


def _as_points(points, name: str = "points") -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise DegenerateGeometryError(f"{name} must have shape (n, 3), got {pts.shape}")
    if not np.all(np.isfinite(pts)):
        raise DegenerateGeometryError(f"{name} contains non-finite values")
    return pts


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned bounding box with corners ``lo`` and ``hi``."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float).reshape(3)
        hi = np.asarray(self.hi, dtype=float).reshape(3)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DegenerateGeometryError("box corners must be finite")
        if np.any(hi < lo):
            raise DegenerateGeometryError("box has hi < lo")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    def contains(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.all((pts >= self.lo) & (pts <= self.hi), axis=1)

    @staticmethod
    def around(points, margin: float = 0.0) -> "Box":
        pts = _as_points(points)
        return Box(pts.min(axis=0) - margin, pts.max(axis=0) + margin)


def cumulative_length(points: np.ndarray) -> np.ndarray:
    """Cumulative chord length per vertex of an (n, 3) polyline, starting at 0."""
    return np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(points, axis=0), axis=1))])


@dataclass(frozen=True)
class BSplineCurve:
    """Clamped B-spline curve in 3D.

    ``knots`` has length ``len(control_points) + degree + 1``, is
    non-decreasing and repeats the end knots ``degree + 1`` times, so
    the curve interpolates the first and last control point.  The public
    parameter runs over [0, 1] and is mapped affinely onto the knot
    domain.
    """

    degree: int
    control_points: np.ndarray
    knots: np.ndarray

    def __post_init__(self):
        if self.degree < 1:
            raise DegenerateGeometryError("curve degree must be >= 1")
        ctrl = _as_points(self.control_points, "control points")
        knots = np.asarray(self.knots, dtype=float).reshape(-1)
        if len(ctrl) < self.degree + 1:
            raise DegenerateGeometryError("need at least degree + 1 control points")
        if len(knots) != len(ctrl) + self.degree + 1:
            raise DegenerateGeometryError("knot count must be n_controls + degree + 1")
        if not np.all(np.isfinite(knots)):
            raise DegenerateGeometryError("knots contain non-finite values")
        if np.any(np.diff(knots) < 0):
            raise DegenerateGeometryError("knots must be non-decreasing")
        p = self.degree
        if not (np.all(knots[: p + 1] == knots[0]) and np.all(knots[-p - 1 :] == knots[-1])):
            raise DegenerateGeometryError("knots must be clamped at both ends")
        if not knots[p] < knots[-p - 1]:
            raise DegenerateGeometryError("knot domain is empty")
        object.__setattr__(self, "control_points", _freeze(ctrl))
        object.__setattr__(self, "knots", _freeze(knots))

    @property
    def n_controls(self) -> int:
        return len(self.control_points)


def _basis(knots: np.ndarray, degree: int, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero basis values at each parameter (The NURBS Book A2.1/A2.2).

    Returns (spans, N) with N of shape (len(us), degree + 1): row i holds
    the basis functions spans[i] - degree .. spans[i] at us[i].  The span
    satisfies knots[span] <= u < knots[span + 1]; the last span is closed.
    """
    hi = len(knots) - degree - 2
    spans = np.clip(np.searchsorted(knots, us, side="right") - 1, degree, hi)
    n = np.zeros((len(us), degree + 1))
    n[:, 0] = 1.0
    left = np.zeros_like(n)
    right = np.zeros_like(n)
    for j in range(1, degree + 1):
        left[:, j] = us - knots[spans + 1 - j]
        right[:, j] = knots[spans + j] - us
        saved = 0.0
        for r in range(j):
            temp = n[:, r] / (right[:, r + 1] + left[:, j - r])
            n[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        n[:, j] = saved
    return spans, n


def _eval(knots: np.ndarray, degree: int, ctrl: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Points of the spline (knots, degree, ctrl) at parameters us, shape (m, 3)."""
    spans, n = _basis(knots, degree, us)
    local = ctrl[spans[:, None] + np.arange(-degree, 1)]
    # matmul, not einsum: einsum sums in another order and moves the last bit.
    return (n[:, None, :] @ local)[:, 0]


def _collocation(knots: np.ndarray, degree: int, us: np.ndarray, n_controls: int) -> np.ndarray:
    """(len(us), n_controls) matrix of every basis function at each parameter."""
    spans, vals = _basis(knots, degree, us)
    basis = np.zeros((len(us), n_controls))
    basis[np.arange(len(us))[:, None], spans[:, None] + np.arange(-degree, 1)] = vals
    return basis


def _map_param(curve: BSplineCurve, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < -1e-12) or np.any(t > 1 + 1e-12):
        raise DegenerateGeometryError("curve parameter must lie in [0, 1]")
    t = np.clip(t, 0.0, 1.0)
    u0 = curve.knots[curve.degree]
    u1 = curve.knots[-curve.degree - 1]
    return u0 + t * (u1 - u0)


def bspline_eval(curve: BSplineCurve, t) -> np.ndarray:
    """Evaluate the curve at parameter(s) ``t`` in [0, 1].

    Returns shape (3,) for a scalar parameter and (m, 3) for an array.
    """
    us = _map_param(curve, t)
    out = _eval(curve.knots, curve.degree, curve.control_points, us.reshape(-1))
    return out.reshape(us.shape + (3,))


def bspline_tangent(curve: BSplineCurve, t) -> np.ndarray:
    """Unit tangent(s) of the curve at parameter(s) ``t``."""
    p = curve.degree
    ctrl = curve.control_points
    knots = curve.knots
    denom = knots[p + 1 : p + len(ctrl)] - knots[1 : len(ctrl)]
    if np.any(denom <= 0):
        raise DegenerateGeometryError("curve has collapsed knot spans")
    dctrl = p * (ctrl[1:] - ctrl[:-1]) / denom[:, None]
    us = _map_param(curve, t)
    # The derivative is a degree p - 1 spline on the inner knots.
    vec = _eval(knots[1:-1], p - 1, dctrl, us.reshape(-1))
    norm = _norms(vec)
    if np.any(norm <= 0):
        raise DegenerateGeometryError("curve tangent vanishes")
    return (vec / norm[:, None]).reshape(us.shape + (3,))


def _chord_params(points: np.ndarray) -> np.ndarray:
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = steps.sum()
    if total <= 0:
        raise DegenerateGeometryError("samples have zero total length")
    return np.concatenate([[0.0], np.cumsum(steps)]) / total


def _fit_knots(params: np.ndarray, n_controls: int, degree: int) -> np.ndarray:
    # Knot placement by parameter averaging.  Exact interpolation uses
    # sliding windows over the data parameters; overdetermined fits use
    # a strided average so every span keeps at least one sample.
    n_interior = n_controls - degree - 1
    interior = np.empty(n_interior)
    if len(params) == n_controls:
        for j in range(1, n_interior + 1):
            interior[j - 1] = params[j : j + degree].mean()
    else:
        d = len(params) / (n_controls - degree)
        for j in range(1, n_interior + 1):
            i = int(j * d)
            alpha = j * d - i
            interior[j - 1] = (1 - alpha) * params[i - 1] + alpha * params[i]
    return np.concatenate([np.zeros(degree + 1), interior, np.ones(degree + 1)])


def bspline_fit(samples, degree: int = 3, n_controls: int | None = None) -> BSplineCurve:
    """Least-squares clamped B-spline through ordered samples.

    Samples are parameterized by normalized chord length, the first and
    last control point are pinned to the end samples, and the interior
    control points solve the least-squares system.

    Parameters
    ----------
    samples : (n, 3) array
    degree : spline degree, default cubic
    n_controls : number of control points, default ``max(degree + 1, n // 4)``
    """
    pts = _as_points(samples, "samples")
    keep = np.concatenate([[True], np.any(pts[1:] != pts[:-1], axis=1)])
    pts = pts[keep]
    if n_controls is None:
        n_controls = max(degree + 1, len(pts) // 4)
    if n_controls < degree + 1:
        raise InsufficientDataError("n_controls must be at least degree + 1")
    if len(pts) < n_controls:
        raise InsufficientDataError(
            f"need at least {n_controls} distinct samples, got {len(pts)}"
        )
    params = _chord_params(pts)
    knots = _fit_knots(params, n_controls, degree)

    basis = _collocation(knots, degree, params, n_controls)

    # Pin the end controls to the end samples and solve for the rest.
    inner = basis[:, 1:-1]
    rhs = pts - np.outer(basis[:, 0], pts[0]) - np.outer(basis[:, -1], pts[-1])
    if n_controls > 2:
        sol, _, rank, _ = np.linalg.lstsq(inner, rhs, rcond=None)
        if rank < n_controls - 2:
            raise SingularFitError("fit system is rank deficient")
        ctrl = np.vstack([pts[0], sol, pts[-1]])
    else:
        ctrl = np.vstack([pts[0], pts[-1]])
    return BSplineCurve(degree, ctrl, knots)


def _densify(curve: BSplineCurve, n_hint: int) -> np.ndarray:
    n_dense = max(512, 16 * curve.n_controls, 8 * n_hint)
    return bspline_eval(curve, np.linspace(0.0, 1.0, n_dense))


def resample_arclength(path, n: int, closed: bool = False) -> np.ndarray:
    """Resample a path at n equal arc-length positions.

    Open paths keep both endpoints; closed paths are sampled at spacing
    L / n starting from the first point, without duplicating the seam.
    Accepts a BSplineCurve, an (m, 3) array whose consecutive points
    differ, or a stack (N, m, 3) of such arrays, which returns (N, n, 3)
    and raises the error of its first faulty path.
    """
    if isinstance(path, BSplineCurve):
        path = _densify(path, n)
    paths = np.asarray(path, dtype=float)
    single = paths.ndim == 2
    if single:
        paths = paths[None]
    if paths.ndim != 3 or paths.shape[2] != 3:
        raise DegenerateGeometryError(
            f"path must have shape (m, 3) or (N, m, 3), got {paths.shape}"
        )
    n_min = 3 if closed else 2
    # Equal consecutive points; a closed one-point path repeats itself.
    same = np.all(paths[:, 1:] == paths[:, :-1], axis=2).any(axis=1)
    same |= closed and paths.shape[1] == 1
    # A path has zero length when every squared step underflows to 0; a
    # closed path also steps from its last point back to its first.
    with np.errstate(invalid="ignore"):  # non-finite paths are flagged first
        diff = np.diff(paths, axis=1)
        squares = (diff * diff).sum(axis=(1, 2))
        if closed:
            seam = paths[:, :1] - paths[:, -1:]
            squares += (seam * seam).sum(axis=(1, 2))
    finite = np.isfinite(paths).all(axis=(1, 2))
    bad = np.array([~finite, np.full(len(paths), n < n_min), same, squares <= 0])
    if bad.any():
        raise DegenerateGeometryError(
            (
                "path contains non-finite values",
                f"{'closed' if closed else 'open'} resampling needs n >= {n_min}",
                "path has consecutive duplicate points",
                ("closed " if closed else "") + "path has zero length",
            )[bad[:, bad.any(axis=0).argmax()].argmax()]
        )
    out = _resample_loops(paths.reshape(-1, 3), np.arange(len(paths) + 1) * paths.shape[1], n, closed)
    if not closed:
        out[:, 0] = paths[:, 0]
        out[:, -1] = paths[:, -1]
    return out[0] if single else out


def _resample_loops(points: np.ndarray, offsets: np.ndarray, n: int, closed: bool) -> np.ndarray:
    """n equal arc-length samples of each path of a ragged stack, (R, n, d).

    Path k is the d-dimensional ``points[offsets[k]:offsets[k + 1]]``; a
    closed one steps back from its last point to its first.  Row k is,
    bit for bit, numpy.interp of each coordinate over the cumulative
    chord lengths at ``np.linspace(0, L, n)`` (open) or at spacing L / n
    (closed).  Paths are padded only within length-sorted chunks of at
    most ``RESAMPLE_BLOCK`` knots (or one path).
    """
    starts, ends, lengths = offsets[:-1], offsets[1:] - 1, np.diff(offsets)
    step = np.empty_like(points)
    step[:-1] = points[1:] - points[:-1]
    step[ends] = points[starts] - points[ends]
    step = np.sqrt(sum((step * step).T))  # left to right, as np.linalg.norm sums
    knots = lengths + closed  # arc-length knots per path: its points, a closed one's first again
    out = np.empty((len(lengths), n, points.shape[1]))
    by_length = np.argsort(knots, kind="stable")
    for rows in _chunks(knots[by_length]):
        rows = by_length[rows]
        m = knots[rows][:, None]
        r = np.arange(len(rows))[:, None]
        cols = np.arange(m.max() - 1)
        inside = cols < m - 1
        xp = np.zeros((len(rows), m.max()))  # xp[:, t]: arc length to knot t
        steps = step[np.where(inside, starts[rows][:, None] + cols, 0)]
        np.cumsum(np.where(inside, steps, 0.0), axis=1, out=xp[:, 1:])
        total = xp[r, m - 1]
        if closed:
            x = np.arange(n) * total / n
        else:  # np.linspace(0, total, n): a positive total is no subnormal
            x = np.arange(n) * (total / (n - 1))
            x[:, -1] = total[:, 0]
        # numpy.interp's interval: the last knot j with xp[j] <= x, found by
        # binary lifting; a NaN x keeps j = 0.
        j = np.zeros(x.shape, dtype=np.intp)
        for bit in reversed(range(int(m.max() - 1).bit_length())):
            k = np.minimum(j + (1 << bit), m - 1)
            j = np.where(xp[r, k] <= x, k, j)
        # numpy.interp's formula, with the knot value where x hits a knot or
        # passes the last one.
        x0, x1 = xp[r, j], xp[r, np.minimum(j + 1, m - 1)]
        base, loop = starts[rows][:, None], lengths[rows][:, None]
        f0, f1 = points[base + j % loop], points[base + (j + 1) % loop]
        at = ((x0 == x) | (j == m - 1))[..., None]
        with np.errstate(divide="ignore", invalid="ignore"):  # where at, x1 may equal x0
            slope = (f1 - f0) / (x1 - x0)[..., None]
            out[rows] = np.where(at, f0, slope * (x - x0)[..., None] + f0)
    return out


def _chunks(lengths: np.ndarray):
    """Runs of the ascending ``lengths``, each padding to at most ``RESAMPLE_BLOCK`` (or one)."""
    lo = 0
    while lo < len(lengths):
        fits = np.arange(1, len(lengths) - lo + 1) * lengths[lo:] <= RESAMPLE_BLOCK
        hi = lo + max(1, int(np.count_nonzero(fits)))
        yield slice(lo, hi)
        lo = hi


def _norms(v: np.ndarray) -> np.ndarray:
    # vecdot, not norm(axis=1): the latter moves the last bit.
    return np.sqrt(np.vecdot(v, v))


def squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n, m) squared Euclidean distances between point sets (n, 3) and (m, 3).

    Summed in the order x, y, z, as scipy's ``cdist`` sums them, so
    ``np.sqrt`` of any entry, or of any min or max over entries, is
    bit-identical to ``cdist``'s.  One reused difference buffer keeps
    the working set at two (n, m) arrays.
    """
    d2 = np.subtract.outer(a[:, 0], b[:, 0])
    d2 *= d2
    diff = np.empty_like(d2)
    for k in (1, 2):
        np.subtract.outer(a[:, k], b[:, k], out=diff)
        diff *= diff
        d2 += diff
    return d2


def not_a_knot_spline(x, y) -> Callable[[np.ndarray], np.ndarray]:
    """Interpolating cubic spline with not-a-knot ends through y (n, m) at x (n,).

    The not-a-knot interpolant is the cubic B-spline interpolant with
    interior knots x[2:-2] (de Boor, A Practical Guide to Splines,
    ch. XIII).  Returns its evaluator q -> (len(q), m), which continues
    the end pieces beyond the ends.  Equals scipy's
    ``CubicSpline(x, y, axis=0)`` up to round-off.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or len(x) < 4 or y.shape[:1] != x.shape or y.ndim != 2:
        raise InsufficientDataError("a not-a-knot spline needs n >= 4 points x (n,) and y (n, m)")
    if not (np.all(np.isfinite(x)) and np.all(np.diff(x) > 0)):
        raise DegenerateGeometryError("spline abscissae must be finite and strictly increase")
    knots = np.concatenate([np.repeat(x[:1], 4), x[2:-2], np.repeat(x[-1:], 4)])
    ctrl = np.linalg.solve(_collocation(knots, 3, x, len(x)), y)
    return lambda q: _eval(knots, 3, ctrl, np.asarray(q, dtype=float).reshape(-1))


def fit_planes(rings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares planes of a ring stack (N, m, 3).

    Returns the centroids (N, 3), the unit normals (N, 3) with their
    largest-magnitude component positive, and the rings relative to
    their centroids (N, m, 3).
    """
    centroids = rings.mean(axis=1)
    rel = rings - centroids[:, None]
    normals = np.linalg.svd(rel, full_matrices=False)[2][:, -1]
    lead = normals[np.arange(len(normals)), np.abs(normals).argmax(axis=1)]
    np.negative(normals, out=normals, where=lead[:, None] < 0)
    return centroids, normals, rel


# Reference axes of plane_frames, indexed by "the plane is horizontal".
_REFS = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def plane_frames(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed in-plane axes (e1, e2), e1 x e2 = normal, of nonzero
    normals (N, 3).

    e2 is the in-plane direction closest to +z when the plane is not
    horizontal (|n_z| <= 0.99), so vertical structure keeps a stable
    reference; horizontal planes take e1 closest to +x instead.
    """
    n = normals / _norms(normals)[:, None]
    flat = np.abs(n[:, 2:]) > 0.99
    # a: the reference axis made orthogonal to n; e1 on horizontal
    # planes, e2 on the others.  The reference picks one component of
    # n, so vecdot is exact here.
    ref = _REFS.take(flat[:, 0].astype(np.intp), axis=0)
    a = ref - np.vecdot(ref, n)[:, None] * n
    a = a / _norms(a)[:, None]
    # b = a x n, or n x a on horizontal planes, with np.cross's products.
    an = a.take(_NEXT, axis=1) * n.take(_PREV, axis=1)
    na = a.take(_PREV, axis=1) * n.take(_NEXT, axis=1)
    b = an - na
    np.subtract(na, an, out=b, where=flat)
    return np.where(flat, a, b), np.where(flat, b, a)


def _project(rel: np.ndarray, e1: np.ndarray, e2: np.ndarray) -> np.ndarray:
    # Stacked matmul, not einsum or vecdot: those move the last bit.
    return np.concatenate([rel @ e1[:, :, None], rel @ e2[:, :, None]], axis=2)


def _shoelace(uv: np.ndarray):
    """Signed area of a 2D ring (m, 2), or of each ring of a stack (..., m, 2)."""
    nxt = np.concatenate((uv[..., 1:, :], uv[..., :1, :]), axis=-2)
    return 0.5 * (uv[..., 0] * nxt[..., 1] - nxt[..., 0] * uv[..., 1]).sum(axis=-1)


@lru_cache(maxsize=8)
def _orientation_corners(m: int) -> np.ndarray:
    """Corner indices (3, 4, P) of the orientation tests of an m-ring.

    For each of the P non-adjacent edge pairs (p q, r s), row k of
    [A, B, C] gives cross(B - A, C - A) as d1..d4: the side of r and s
    against p q, then of p and q against r s.
    """
    ii, jj = np.triu_indices(m, k=2)
    keep = ~((ii == 0) & (jj == m - 1))  # wrap-around edges are adjacent
    ii, jj = ii[keep], jj[keep]
    i1, j1 = (ii + 1) % m, (jj + 1) % m
    return np.array([[ii, ii, jj, jj], [i1, i1, j1, j1], [jj, j1, ii, i1]])


def ring_is_simple(uv: np.ndarray):
    """True where a closed 2D polygon has no self-intersection: one bool
    for a ring (m, 2), one per ring for a stack (N, m, 2)."""
    uv = np.asarray(uv, dtype=float)
    corners = uv.take(_orientation_corners(uv.shape[-2]), axis=-2)  # (..., 3, 4, P, 2)
    ba = corners[..., 1, :, :, :] - corners[..., 0, :, :, :]
    ca = corners[..., 2, :, :, :] - corners[..., 0, :, :, :]
    d = ba[..., 0] * ca[..., 1] - ba[..., 1] * ca[..., 0]  # (..., 4, P)
    pos, zero = d > 0, d == 0
    # Each segment's ends lie on opposite sides of the other's line, or on it.
    straddle = ((pos[..., ::2, :] != pos[..., 1::2, :]) | zero[..., ::2, :] | zero[..., 1::2, :]).all(
        axis=-2
    )
    if not straddle.any():
        return ~straddle.any(axis=-1)
    # A collinear pair crosses only where it overlaps along the first
    # segment's dominant axis.
    collinear = zero[..., 0, :] & zero[..., 1, :]
    axis = np.abs(ba[..., 0, :, :]).argmax(axis=-1)[..., None, None, :, None]
    # Coordinates along that axis of [[p, r], [q, s]], then min/max per segment.
    ends = np.take_along_axis(corners[..., :2, ::2, :, :], axis, axis=-1)[..., 0]
    lo, hi = ends.min(axis=-3), ends.max(axis=-3)
    overlap = (hi[..., 0, :] > lo[..., 1, :]) & (hi[..., 1, :] > lo[..., 0, :])
    return ~(straddle & (~collinear | overlap)).any(axis=-1)


def ring_areas(rings: np.ndarray) -> np.ndarray:
    """Enclosed area of each ring of a stack (N, m, 3) in its best-fit
    plane, by the shoelace rule; the rings are not checked."""
    _, normals, rel = fit_planes(rings)
    return np.abs(_shoelace(_project(rel, *plane_frames(normals))))


def canonical_indices(uv: np.ndarray) -> np.ndarray:
    """Ring reordering: start at max u (ties by max v), go counterclockwise.

    Takes one ring (m, 2) or a stack (N, m, 2) and returns (m,) or
    (N, m) indices into the ring.
    """
    u, v = uv[..., 0], uv[..., 1]
    top = u == u.max(axis=-1, keepdims=True, initial=-np.inf)
    start = np.argmax(np.where(top, v, -np.inf), axis=-1)
    m = uv.shape[-2]
    order = (start[..., None] + np.arange(m)) % m
    reverse = np.concatenate([order[..., :1], order[..., :0:-1]], axis=-1)
    clockwise = _shoelace(np.take_along_axis(uv, order[..., None], axis=-2)) < 0
    return np.where(clockwise[..., None], reverse, order)


# Construction checks of a section, in the order they apply: a ring
# takes the first one it fails.
_FAULTS = (
    (DegenerateGeometryError, "contour contains non-finite values"),
    (InvalidContourError, f"contour must have {RING_POINTS} points"),
    (InvalidContourError, "section center and station must be finite"),
    (InvalidContourError, "center does not match contour centroid"),
    (InvalidContourError, "contour is not planar within tolerance"),
    (InvalidContourError, "contour is self-intersecting"),
)


def section_faults(rings: np.ndarray, centers: np.ndarray, stations: np.ndarray) -> list:
    """Check a stack of would-be sections in one pass.

    ``rings`` is (N, m, 3), ``centers`` (N, 3) and ``stations`` (N,).
    Returns, per ring, None or the error of the first check it fails.
    """
    n, m = rings.shape[:2]
    bad = np.zeros((len(_FAULTS), n), dtype=bool)
    finite = np.isfinite(rings).all(axis=(1, 2))
    bad[0] = ~finite
    bad[1] = m != RING_POINTS
    bad[2] = ~(np.isfinite(centers).all(axis=1) & np.isfinite(stations))
    if m == RING_POINTS and finite.any():
        live = slice(None) if finite.all() else finite
        centroids, normals, rel = fit_planes(rings[live])
        with np.errstate(invalid="ignore"):  # non-finite centers are flagged above
            bad[3, live] = _norms(centroids - centers[live]) > CENTROID_TOL
        bad[4, live] = np.abs(rel @ normals[:, :, None]).max(axis=(1, 2)) > PLANE_TOL
        bad[5, live] = ~ring_is_simple(_project(rel, *plane_frames(normals)))
    first = bad.argmax(axis=0)
    return [
        _FAULTS[k][0](_FAULTS[k][1]) if bad[k, i] else None for i, k in enumerate(first.tolist())
    ]


@dataclass(frozen=True, eq=False)
class Sections:
    """The planar cross-sections of one yarn, as one read-only stack.

    ``rings`` (S, RING_POINTS, 3) holds the contours, ``centers`` (S, 3)
    their centroids and ``stations`` (S,) their arc-length positions
    along the yarn path.  Each ring must match its center, be planar and
    be simple; the stack is checked in one ``section_faults`` pass and
    the first faulty ring raises its error.
    """

    rings: np.ndarray
    centers: np.ndarray
    stations: np.ndarray

    def __post_init__(self):
        rings = np.array(self.rings, dtype=float)
        if len(rings) == 0:
            rings = rings.reshape(0, RING_POINTS, 3)
        if rings.ndim != 3 or rings.shape[2] != 3:
            raise DegenerateGeometryError(f"contour must have shape (n, 3), got {rings.shape[1:]}")
        centers = np.array(self.centers, dtype=float).reshape(len(rings), 3)
        stations = np.array(self.stations, dtype=float).reshape(len(rings))
        for fault in section_faults(rings, centers, stations):
            if fault is not None:
                raise fault
        _fill(self, rings, centers, stations)

    def __len__(self) -> int:
        return len(self.stations)


def _fill(sections: Sections, rings, centers, stations) -> Sections:
    for name, arr in (("rings", rings), ("centers", centers), ("stations", stations)):
        object.__setattr__(sections, name, _freeze(arr))
    return sections


def _unchecked_sections(rings, centers, stations) -> Sections:
    """Sections of float arrays whose rows ``section_faults`` already
    passed; nothing is checked again."""
    return _fill(object.__new__(Sections), rings, centers, stations)


def ellipse_sections(centers, normals, a, b, orientation=None, stations=None) -> Sections:
    """Sections of ellipses centred on centers (N, 3) in the planes
    of normals (N, 3), at stations (N,), 0 by default.

    ``a`` is the semi-axis along ``orientation`` (projected into each
    section plane), ``b`` the perpendicular in-plane semi-axis; a, b and
    orientation are shared or given per section.  With no orientation
    given, the major axis takes the plane's horizontal direction.  Each
    ring holds RING_POINTS points at equal arc length along a 720-point
    ellipse, starting at the +orientation vertex and running
    counterclockwise about the normal.  The first section with a bad
    a, b, normal or orientation raises, once the ones before it are
    built and checked.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 3)
    n = np.asarray(normals, dtype=float).reshape(len(c), 3)
    a, b = (np.broadcast_to(np.asarray(v, dtype=float), len(c)) for v in (a, b))
    stations = np.zeros(len(c)) if stations is None else np.asarray(stations, dtype=float)
    norm = _norms(n)
    with np.errstate(divide="ignore", invalid="ignore"):  # faulty rows are cut off below
        n = n / norm[:, None]
        if orientation is None:
            e1, e2 = plane_frames(n)
            nrm = np.ones(len(c))
        else:
            o = np.asarray(orientation, dtype=float)
            # vecdot, not the matrix-vector n @ o: that moves the last bit.
            e1 = o - np.vecdot(n, o)[:, None] * n
            nrm = _norms(e1)
            e1 = e1 / nrm[:, None]
            e2 = np.cross(n, e1)
    faults = np.array([~((a >= b) & (b > 0)), norm <= 0, nrm <= 1e-12])
    k = int(faults.any(axis=0).argmax()) if faults.any() else len(c)
    theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
    dense = (
        c[:k, None]
        + (a[:k, None] * np.cos(theta))[..., None] * e1[:k, None]
        + (b[:k, None] * np.sin(theta))[..., None] * e2[:k, None]
    )
    rings = resample_arclength(dense, RING_POINTS, closed=True)
    uv = _project(rings - c[:k, None], e1[:k], e2[:k])
    rings = np.take_along_axis(rings, canonical_indices(uv)[..., None], axis=1)
    sections = Sections(rings, c[:k], stations[:k])
    if k < len(c):
        raise DegenerateGeometryError(
            (
                "ellipse needs a >= b > 0",
                "section normal must be nonzero",
                "orientation is parallel to the normal",
            )[faults[:, k].argmax()]
        )
    return sections
