"""Curve and cross-section primitives shared by every pipeline stage.

Coordinates are Cartesian with x along the warp direction, y along the
weft direction and z through the thickness.  Lengths are expressed in
voxel units; one voxel corresponds to a configurable physical size
(``DEFAULT_VOXEL_SIZE_UM`` micrometres by default).
"""

from __future__ import annotations

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
    # vecdot, not norm(axis=1): the latter moves the last bit.
    norm = np.sqrt(np.vecdot(vec, vec))
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

    spans, vals = _basis(knots, degree, params)
    basis = np.zeros((len(pts), n_controls))
    basis[np.arange(len(pts))[:, None], spans[:, None] + np.arange(-degree, 1)] = vals

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
    Accepts a BSplineCurve or an (m, 3) array whose consecutive points
    differ.
    """
    pts = _densify(path, n) if isinstance(path, BSplineCurve) else _as_points(path, "path")
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
    cum = cumulative_length(ring)
    total = cum[-1]
    if total <= 0:
        raise DegenerateGeometryError(("closed " if closed else "") + "path has zero length")
    targets = np.arange(n) * total / n if closed else np.linspace(0.0, total, n)
    out = np.column_stack([np.interp(targets, cum, ring[:, k]) for k in range(3)])
    if not closed:
        out[0] = ring[0]
        out[-1] = ring[-1]
    return out


def _cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # np.cross has high call overhead for single 3-vectors
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def plane_frame(normal) -> tuple[np.ndarray, np.ndarray]:
    """Right-handed in-plane axes (e1, e2) with e1 x e2 = normal.

    e2 is the in-plane direction closest to +z when the plane is not
    horizontal, so vertical structure keeps a stable reference.
    """
    n = np.asarray(normal, dtype=float).reshape(3)
    norm = np.linalg.norm(n)
    if norm <= 0:
        raise DegenerateGeometryError("plane normal must be nonzero")
    n = n / norm
    zref = np.array([0.0, 0.0, 1.0])
    if abs(n @ zref) > 0.99:
        xref = np.array([1.0, 0.0, 0.0])
        e1 = xref - (xref @ n) * n
        e1 /= np.linalg.norm(e1)
        e2 = _cross3(n, e1)
        return e1, e2
    e2 = zref - (zref @ n) * n
    e2 /= np.linalg.norm(e2)
    e1 = _cross3(e2, n)
    return e1, e2


def best_fit_plane(points) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares plane through points: returns (centroid, unit normal).

    The normal sign is fixed so its largest-magnitude component is
    positive, which keeps the result deterministic.
    """
    pts = _as_points(points)
    if len(pts) < 3:
        raise DegenerateGeometryError("plane fit needs at least 3 points")
    centroid = pts.mean(axis=0)
    _, _, vt = np.linalg.svd(pts - centroid, full_matrices=False)
    normal = vt[-1]
    lead = np.argmax(np.abs(normal))
    if normal[lead] < 0:
        normal = -normal
    return centroid, normal


def _shoelace(uv: np.ndarray) -> float:
    u, v = uv[:, 0], uv[:, 1]
    u1 = np.concatenate((u[1:], u[:1]))
    v1 = np.concatenate((v[1:], v[:1]))
    return 0.5 * float(np.sum(u * v1 - u1 * v))


@lru_cache(maxsize=8)
def _nonadjacent_edge_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    ii, jj = np.triu_indices(m, k=2)
    keep = ~((ii == 0) & (jj == m - 1))  # wrap-around edges are adjacent
    return ii[keep], jj[keep]


def ring_is_simple(uv: np.ndarray) -> bool:
    """True when the closed 2D polygon has no self-intersection."""
    uv = np.asarray(uv, dtype=float)
    m = len(uv)
    ii, jj = _nonadjacent_edge_pairs(m)
    p, q = uv[ii], uv[(ii + 1) % m]
    r, s = uv[jj], uv[(jj + 1) % m]

    def cross(a, b):
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    d1 = cross(q - p, r - p)
    d2 = cross(q - p, s - p)
    d3 = cross(s - r, p - r)
    d4 = cross(s - r, q - r)
    straddle = (((d1 > 0) != (d2 > 0)) | (d1 == 0) | (d2 == 0)) & (
        ((d3 > 0) != (d4 > 0)) | (d3 == 0) | (d4 == 0)
    )
    if not straddle.any():
        return True
    # A collinear pair crosses only where it overlaps along the first
    # segment's dominant axis.
    collinear = (d1 == 0) & (d2 == 0)
    axis = np.argmax(np.abs(q - p), axis=1)[:, None]
    pa, qa, ra, sa = (np.take_along_axis(x, axis, axis=1)[:, 0] for x in (p, q, r, s))
    overlap = (np.maximum(pa, qa) > np.minimum(ra, sa)) & (np.maximum(ra, sa) > np.minimum(pa, qa))
    return not np.any(straddle & (~collinear | overlap))


def project_ring(points, centroid=None, normal=None) -> np.ndarray:
    """In-plane (u, v) coordinates of ring points in the best-fit plane."""
    pts = _as_points(points)
    if centroid is None or normal is None:
        centroid, normal = best_fit_plane(pts)
    e1, e2 = plane_frame(normal)
    rel = pts - centroid
    return np.column_stack([rel @ e1, rel @ e2])


def section_area(section) -> float:
    """Enclosed area of a planar ring, by the shoelace rule.

    Accepts a CrossSection or an (n, 3) point array.  The ring is
    projected onto its best-fit plane; self-intersecting rings raise
    InvalidContourError.  The result is non-negative and invariant
    under rigid motion.
    """
    if isinstance(section, CrossSection):
        return section.area()
    pts = _as_points(section)
    if len(pts) < 3:
        raise InvalidContourError("a ring needs at least 3 points")
    uv = project_ring(pts)
    if not ring_is_simple(uv):
        raise InvalidContourError("ring is self-intersecting")
    return abs(_shoelace(uv))


def canonical_indices(uv: np.ndarray) -> np.ndarray:
    """Ring reordering: start at max u (ties by max v), go counterclockwise."""
    top = np.flatnonzero(uv[:, 0] == uv[:, 0].max())
    start = top[np.argmax(uv[top, 1])]
    order = np.roll(np.arange(len(uv)), -start)
    if _shoelace(uv[order]) < 0:
        order = np.concatenate([[order[0]], order[1:][::-1]])
    return order


@dataclass(frozen=True)
class CrossSection:
    """Planar yarn cross-section: a 10-point ring, its center, a station.

    The center must match the ring centroid and the ring must be planar
    and simple; violations raise at construction.  ``station`` is the
    arc-length position of the section along its yarn path.
    """

    contour: np.ndarray
    center: np.ndarray
    station: float = 0.0

    def __post_init__(self):
        ring = _as_points(self.contour, "contour")
        if len(ring) != RING_POINTS:
            raise InvalidContourError(f"contour must have {RING_POINTS} points")
        center = np.asarray(self.center, dtype=float).reshape(3)
        if not np.all(np.isfinite(center)) or not np.isfinite(self.station):
            raise InvalidContourError("section center and station must be finite")
        if np.linalg.norm(ring.mean(axis=0) - center) > CENTROID_TOL:
            raise InvalidContourError("center does not match contour centroid")
        centroid, normal = best_fit_plane(ring)
        if np.max(np.abs((ring - centroid) @ normal)) > PLANE_TOL:
            raise InvalidContourError("contour is not planar within tolerance")
        if not ring_is_simple(project_ring(ring, centroid, normal)):
            raise InvalidContourError("contour is self-intersecting")
        object.__setattr__(self, "contour", _freeze(ring))
        object.__setattr__(self, "center", _freeze(center))
        object.__setattr__(self, "station", float(self.station))

    def area(self) -> float:
        # Construction already checked that the ring is planar and simple.
        return abs(_shoelace(project_ring(self.contour)))


def ellipse_section(
    center,
    normal,
    a: float,
    b: float,
    orientation=None,
    station: float = 0.0,
    dense: int = 720,
) -> CrossSection:
    """Elliptical cross-section sampled at n equal arc-length points.

    ``a`` is the semi-axis along ``orientation`` (projected into the
    section plane), ``b`` the perpendicular in-plane semi-axis.  With no
    orientation given, the major axis takes the plane's horizontal
    direction.  Points start at the +orientation vertex and run
    counterclockwise about the normal.
    """
    if not (a >= b > 0):
        raise DegenerateGeometryError("ellipse needs a >= b > 0")
    c = np.asarray(center, dtype=float).reshape(3)
    n = np.asarray(normal, dtype=float).reshape(3)
    norm = np.linalg.norm(n)
    if norm <= 0:
        raise DegenerateGeometryError("section normal must be nonzero")
    n = n / norm
    if orientation is None:
        e1, e2 = plane_frame(n)
    else:
        o = np.asarray(orientation, dtype=float).reshape(3)
        e1 = o - (o @ n) * n
        nrm = np.linalg.norm(e1)
        if nrm <= 1e-12:
            raise DegenerateGeometryError("orientation is parallel to the normal")
        e1 = e1 / nrm
        e2 = np.cross(n, e1)
    theta = np.linspace(0.0, 2.0 * np.pi, dense, endpoint=False)
    dense_ring = c + np.outer(a * np.cos(theta), e1) + np.outer(b * np.sin(theta), e2)
    ring = resample_arclength(dense_ring, RING_POINTS, closed=True)
    uv = np.column_stack([(ring - c) @ e1, (ring - c) @ e2])
    ring = ring[canonical_indices(uv)]
    return CrossSection(contour=ring, center=c, station=station)
