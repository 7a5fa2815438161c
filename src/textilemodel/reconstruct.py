"""From per-slice detections to tracked, completed, meshed yarns.

Tracking sweeps the slices of one axis and associates detections to
yarn tracks by nearest center within a gate.  Interior gaps are filled
by interpolation; gaps touching the dataset boundary are reported and
never extrapolated.  Tracks lift to 3D, get a least-squares B-spline
axis, and mesh into a quad surface, a wedge volume per yarn, and a
voxel composite of the whole textile.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGeometryError,
    InsufficientDataError,
    MeshIntegrityError,
)
from .geometry import (
    RING_POINTS,
    Box,
    BSplineCurve,
    Sections,
    _norms,
    _project,
    _shoelace,
    _unchecked_sections,
    bspline_eval,
    bspline_fit,
    bspline_tangent,
    canonical_indices,
    cumulative_length,
    not_a_knot_spline,
    section_faults,
)
from .segmenter import _ROW_FIELDS, DetectionSet
from .voxelizer import AXIS_XZ, AXIS_YZ, SLICE_DIM, compute_dims, paint_labels, DEFAULT_VOXEL_BUDGET

log = logging.getLogger(__name__)

# Family seen in cross-section by each slicing axis: slices cut the
# yarns that run perpendicular to them.
AXIS_FAMILY = {AXIS_YZ: "warp", AXIS_XZ: "weft"}


@dataclass(frozen=True)
class YarnTrack:
    """A chain of detections across the slices of one axis.

    ``entries`` holds the chain's rows, at most one per slice and in
    slice order; their set carries the axis and the slice geometry, from
    which the track's family and its gaps follow.  ``filled`` lists the
    slices that completion interpolated.
    """

    entries: DetectionSet
    filled: tuple = ()

    def __post_init__(self):
        if len(self.entries) == 0:
            raise InsufficientDataError("a track needs at least one entry")
        if np.any(np.diff(self.entries.slice_index) <= 0):
            raise ConfigError("track entries must be ordered by slice index")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def indices(self) -> np.ndarray:
        return self.entries.slice_index

    @property
    def family(self) -> str:
        return AXIS_FAMILY[self.entries.axis]

    @property
    def gaps(self) -> tuple:
        """Inclusive (first, last) slice runs missing between entries."""
        idx = self.indices.tolist()
        return tuple((a + 1, b - 1) for a, b in zip(idx, idx[1:]) if b - a > 1)

    @property
    def boundary_gaps(self) -> tuple:
        """Inclusive slice runs before the first and after the last entry."""
        first, last = int(self.indices[0]), int(self.indices[-1])
        runs = ((0, first - 1), (last + 1, self.entries.n_slices - 1))
        return tuple((a, b) for a, b in runs if a <= b)


def track_yarns(
    dset: DetectionSet,
    d_gate: float,
    min_length: int = 4,
    max_gap: int = 10,
    min_span: float = 0.0,
) -> list:
    """Greedy nearest-center tracking across slices.

    A detection joins the track whose latest center is nearest within
    ``d_gate`` pixels; leftovers found new tracks.  Tracks survive up
    to ``max_gap`` consecutive empty slices and need ``min_length``
    detections to be kept.  ``min_span`` additionally requires the
    observed slice range to cover that fraction of all slices: a
    transverse yarn traverses the sample, so short-span tracks are
    grazing cuts of the perpendicular family that slipped past the
    aspect filter.  Returns tracks ordered by first slice and center.
    """
    if d_gate <= 0:
        raise ConfigError("d_gate must be positive")
    if min_length < 2:
        raise ConfigError("min_length must be at least 2")
    if not 0.0 <= min_span <= 1.0:
        raise ConfigError("min_span must be in [0, 1]")
    n = dset.n_slices
    bounds = np.searchsorted(dset.slice_index, np.arange(n + 1)).tolist()
    # A track is its list of rows; its center is its last row's.
    active: list[list] = []
    done: list[list] = []

    for i in range(n):
        done.extend(rows for rows in active if i - dset.slice_index[rows[-1]] > max_gap)
        active = [rows for rows in active if i - dset.slice_index[rows[-1]] <= max_gap]
        lo, hi = bounds[i], bounds[i + 1]
        used_d: set = set()
        if active and hi > lo:
            last = np.array([rows[-1] for rows in active])
            d = dset.centers[None, lo:hi] - dset.centers[last][:, None]
            dist = _norms(d)
            ti, di = np.nonzero(dist <= d_gate * (i - dset.slice_index[last])[:, None])
            order = np.lexsort((di, ti, dist[ti, di]))
            used_t: set = set()
            for t, k in zip(ti[order].tolist(), di[order].tolist()):
                if t in used_t or k in used_d:
                    continue
                used_t.add(t)
                used_d.add(k)
                active[t].append(lo + k)
        active.extend([lo + k] for k in range(hi - lo) if k not in used_d)
    done.extend(active)

    tracks = []
    for rows in done:
        if len(rows) < min_length:
            continue
        if dset.slice_index[rows[-1]] - dset.slice_index[rows[0]] + 1 < min_span * n:
            continue
        tracks.append(YarnTrack(dset.take(np.array(rows))))
    tracks.sort(key=lambda t: (int(t.indices[0]), tuple(t.entries.centers[0])))
    return tracks


def complete_missing(track: YarnTrack) -> YarnTrack:
    """Fill interior gaps of a track by keypoint-wise interpolation.

    Single-slice gaps interpolate linearly between their neighbours;
    longer gaps evaluate a not-a-knot cubic spline fitted per keypoint
    channel over all observed slices.  Boundary gaps are left alone and
    stay reported on the track; completion never extrapolates.
    """
    if not track.gaps:
        return track
    entries = track.entries
    observed = entries.slice_index
    channels = entries.contours.reshape(len(entries), -1)
    spline = not_a_knot_spline(observed, channels) if len(observed) >= 4 else None

    parts = [[getattr(entries, name)] for name in _ROW_FIELDS]
    filled = []
    for start, end in track.gaps:
        run = np.arange(start, end + 1)
        right = np.searchsorted(observed, end)
        left = right - 1
        if end - start == 0 or spline is None:
            t = ((run - observed[left]) / (observed[right] - observed[left]))[:, None]
            flat = (1 - t) * channels[left] + t * channels[right]
        else:
            flat = spline(run)
        contours = flat.reshape(len(run), RING_POINTS, 2)
        confidence = 0.5 * (entries.confidence[left] + entries.confidence[right])
        lab_l, lab_r = entries.true_label[left], entries.true_label[right]
        rows = (
            run,
            contours,
            contours.mean(axis=1),
            np.full(len(run), confidence),
            np.full(len(run), lab_l if lab_l == lab_r else -1),
        )
        for part, arr in zip(parts, rows):
            part.append(arr)
        filled.extend(run.tolist())

    merged = [np.concatenate(part) for part in parts]
    order = np.argsort(merged[0], kind="stable")
    return replace(
        track,
        entries=replace(entries, **{name: arr[order] for name, arr in zip(_ROW_FIELDS, merged)}),
        filled=tuple(sorted(set(track.filled) | set(filled))),
    )


@dataclass(frozen=True)
class ReconstructedYarn:
    """A lifted, fitted yarn: B-spline axis plus ordered 3D sections;
    its family follows from the slice ``axis`` it was tracked on.
    ``boundary_gaps`` holds its track's inclusive (first, last) slice
    runs before the first and after the last detection, left unfilled."""

    axis: str
    path: BSplineCurve
    sections: Sections
    completed_flags: tuple
    boundary_gaps: tuple = ()

    def __post_init__(self):
        if self.axis not in AXIS_FAMILY:
            raise ConfigError(f"axis must be one of {sorted(AXIS_FAMILY)}, got {self.axis!r}")
        if len(self.sections) < 2:
            raise InsufficientDataError("a yarn needs at least 2 sections")
        if len(self.completed_flags) != len(self.sections):
            raise ConfigError("completed_flags must align with sections")
        if np.any(np.diff(self.sections.stations) <= 0):
            raise DegenerateGeometryError("section stations must strictly increase")
        if not all(0 <= first <= last for first, last in self.boundary_gaps):
            raise ConfigError("boundary_gaps must be a list of [first, last] integers, 0 <= first <= last")
        object.__setattr__(self, "completed_flags", tuple(bool(f) for f in self.completed_flags))

    @property
    def family(self) -> str:
        return AXIS_FAMILY[self.axis]

    @property
    def aligned_rings(self) -> np.ndarray:
        """Section rings, shape (S, n, 3), each cyclically shifted so
        that the summed point distance to the previous aligned ring is
        least."""
        rings = self.sections.rings
        n = rings.shape[1]
        order = (np.arange(n) + self._ring_shifts[:, None]) % n
        return np.take_along_axis(rings, order[:, :, None], axis=1)

    # The shift search runs once per yarn; only the S shifts are kept.
    # cached_property writes the instance __dict__ directly, which a
    # frozen dataclass allows; replace() builds a fresh, uncached yarn.
    @cached_property
    def _ring_shifts(self) -> np.ndarray:
        rings = self.sections.rings
        n = rings.shape[1]
        shifts = (np.arange(n)[:, None] + np.arange(n)) % n  # row o: shift by o
        best = np.zeros(len(rings), dtype=np.intp)
        prev = rings[0]
        for k in range(1, len(rings)):
            candidates = rings[k][shifts]
            costs = np.linalg.norm(prev - candidates, axis=2).sum(axis=1)
            best[k] = np.argmin(costs)
            prev = candidates[best[k]]
        return best


def _lift(dset: DetectionSet, contour: np.ndarray, slice_index) -> np.ndarray:
    """World points of pixel points ``contour`` (n, 2) on slice
    ``slice_index`` of ``dset``: one index for all points or one per
    point."""
    d = SLICE_DIM[dset.axis]
    ijk = np.empty((len(contour), 3))
    ijk[:, d] = slice_index
    ijk[:, [1 - d, 2]] = contour
    return dset.origin + (ijk + 0.5) * dset.voxel_size


def _trim_end_slivers(areas: np.ndarray, keep_min: int) -> slice:
    """Drop grazing end cuts: leading/trailing detections whose area is
    under half the track median are cap slivers, not transverse
    sections, and would bend the fitted axis at the ends."""
    floor = 0.5 * float(np.median(areas))
    lo, hi = 0, len(areas)
    while hi - lo > keep_min and areas[lo] < floor:
        lo += 1
    while hi - lo > keep_min and areas[hi - 1] < floor:
        hi -= 1
    return slice(lo, hi)


def lift_and_fit(
    track: YarnTrack,
    n_controls: int | None = None,
    degree: int = 3,
) -> ReconstructedYarn:
    """Lift a track to 3D and fit its axis.

    Grazing end cuts are trimmed first, then section centers are lifted
    via the slice geometry, the axis is a least-squares cubic B-spline
    through them, and each ring is projected along the local tangent
    onto the plane through its center perpendicular to the path,
    undoing the oblique-cut stretch.  Stations are arc lengths along
    the fitted axis.  All rings of the track are lifted, projected and
    checked as one stack.
    """
    entries = track.entries
    trim = _trim_end_slivers(np.abs(_shoelace(entries.contours)), keep_min=degree + 1)
    contours = entries.contours[trim]
    slices = entries.slice_index[trim]
    centers = _lift(entries, entries.centers[trim], slices)
    if n_controls is None:
        n_controls = max(degree + 1, len(centers) // 4)
    n_controls = min(n_controls, len(centers))
    if len(centers) < degree + 1:
        raise InsufficientDataError("too few sections to fit a yarn axis")
    path = bspline_fit(centers, degree=degree, n_controls=n_controls)

    params = cumulative_length(centers)
    params /= params[-1]
    dense_t = np.linspace(0.0, 1.0, 512)
    stations = np.interp(params, dense_t, cumulative_length(bspline_eval(path, dense_t)))

    n, m = contours.shape[:2]
    rings = _lift(entries, contours.reshape(-1, 2), np.repeat(slices, m)).reshape(n, m, 3)
    ring_centers = rings.mean(axis=1)
    tangents = bspline_tangent(path, params)
    rel = rings - ring_centers[:, None]
    rings = rings - (rel @ tangents[:, :, None]) * tangents[:, None]
    # Start each ring at its largest-u point and run it counterclockwise
    # about the tangent.  This only rotates or reverses the point order:
    # a ring that detector noise folded stays folded, and section_faults
    # rejects it below.
    e1 = rings[:, 0] - ring_centers
    nrm = _norms(e1)
    degenerate = nrm < 1e-9
    live = np.flatnonzero(~degenerate)
    rings, ring_centers, stations = rings[live], ring_centers[live], stations[live]
    e1 = e1[live] / nrm[live, None]
    e2 = np.cross(tangents[live], e1)
    uv = _project(rings - ring_centers[:, None], e1, e2)
    rings = np.take_along_axis(rings, canonical_indices(uv)[:, :, None], axis=1)
    faults = section_faults(rings, ring_centers, stations)

    invalid = dict(zip(live.tolist(), faults))
    filled = set(track.filled)
    flags = []
    for k, i in enumerate(slices.tolist()):
        if degenerate[k]:
            log.info("dropping degenerate section at slice %d", i)
        elif invalid[k] is not None:
            log.info("dropping invalid section at slice %d", i)
        else:
            flags.append(i in filled)
    valid = np.array([f is None for f in faults], dtype=bool)
    rings, ring_centers, stations = rings[valid], ring_centers[valid], stations[valid]
    if len(stations) < 2:
        raise InsufficientDataError("track collapsed while lifting sections")
    # Guard against station duplicates from dropped or coincident rings:
    # a ring is kept only past every station before it.
    keep = np.concatenate([[True], stations[1:] > np.maximum.accumulate(stations)[:-1]])
    return ReconstructedYarn(
        axis=entries.axis,
        path=path,
        sections=_unchecked_sections(rings[keep], ring_centers[keep], stations[keep]),
        completed_flags=tuple(np.array(flags)[keep]),
        boundary_gaps=track.boundary_gaps,
    )


@dataclass(frozen=True)
class QuadSurfaceMesh:
    """Closed swept surface: lateral quads plus triangle-fan caps."""

    vertices: np.ndarray
    quads: np.ndarray
    cap_triangles: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        q = np.asarray(self.quads, dtype=np.int64)
        t = np.asarray(self.cap_triangles, dtype=np.int64)
        if v.ndim != 2 or v.shape[1] != 3:
            raise MeshIntegrityError("vertices must be (n, 3)")
        if q.ndim != 2 or q.shape[1] != 4 or t.ndim != 2 or t.shape[1] != 3:
            raise MeshIntegrityError("quads must be (m, 4) and caps (k, 3)")
        for arr in (q, t):
            if arr.size and (arr.min() < 0 or arr.max() >= len(v)):
                raise MeshIntegrityError("face index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "quads", q)
        object.__setattr__(self, "cap_triangles", t)


def _edge_counts(mesh: QuadSurfaceMesh) -> np.ndarray:
    """Number of faces on each distinct undirected edge."""
    edges = np.concatenate(
        [
            np.stack([f, np.roll(f, -1, axis=1)], axis=-1).reshape(-1, 2)
            for f in (mesh.quads, mesh.cap_triangles)
        ]
    )
    edges.sort(axis=1)
    keys = edges[:, 0] * len(mesh.vertices) + edges[:, 1]
    return np.unique(keys, return_counts=True)[1]


def is_watertight(mesh: QuadSurfaceMesh) -> bool:
    """True when every edge is shared by exactly two faces."""
    return bool((_edge_counts(mesh) == 2).all())


def euler_characteristic(mesh: QuadSurfaceMesh) -> int:
    used = np.unique(np.concatenate([mesh.quads.reshape(-1), mesh.cap_triangles.reshape(-1)]))
    v = len(used)
    e = len(_edge_counts(mesh))
    f = len(mesh.quads) + len(mesh.cap_triangles)
    return v - e + f


def _signed_tet_volumes(pts: np.ndarray) -> np.ndarray:
    """Signed volumes of the tets (origin, a, b, c) for pts[..., (a, b, c), :]."""
    a, b, c = pts[..., 0, :], pts[..., 1, :], pts[..., 2, :]
    return np.einsum("...i,...i->...", a, np.cross(b, c)) / 6.0


def enclosed_volume(mesh: QuadSurfaceMesh) -> float:
    """Volume by the divergence theorem; quads split along (0, 2)."""
    q = mesh.quads
    tris = np.concatenate([q[:, [0, 1, 2]], q[:, [0, 2, 3]], mesh.cap_triangles])
    return float(_signed_tet_volumes(mesh.vertices[tris]).sum())


def _ring_band(s: int) -> np.ndarray:
    """Lateral quads (a + j, a + jn, b + jn, b + j) between S stacked
    rings of RING_POINTS points, with a = RING_POINTS k, b = a + RING_POINTS and
    jn = (j + 1) % RING_POINTS; segment k major, ring point j minor."""
    j = np.arange(RING_POINTS)
    jn = (j + 1) % RING_POINTS
    a = RING_POINTS * np.arange(s - 1)[:, None]
    b = a + RING_POINTS
    return np.stack([a + j, a + jn, b + jn, b + j], axis=-1).reshape(-1, 4)


def build_surface_mesh(yarn: ReconstructedYarn) -> QuadSurfaceMesh:
    """Swept quad mesh over the yarn's sections.

    S sections give exactly 10 (S - 1) lateral quads and 2 * 10 cap
    triangles; ring correspondence picks the cyclic offset with least
    twist so the sweep never shears.
    """
    aligned = yarn.aligned_rings
    quads = _ring_band(len(aligned))
    # Fans about the two end centres over the first and last ring's edges.
    c0 = np.full(RING_POINTS, RING_POINTS * len(aligned))
    caps = [
        np.column_stack([c0, quads[:RING_POINTS, [1, 0]]]),  # start cap faces backward
        np.column_stack([c0 + 1, quads[-RING_POINTS:, [3, 2]]]),  # end cap faces forward
    ]
    mesh = QuadSurfaceMesh(
        vertices=np.vstack([aligned.reshape(-1, 3), yarn.sections.centers[[0, -1]]]),
        quads=quads,
        cap_triangles=np.concatenate(caps),
    )
    if enclosed_volume(mesh) < 0:
        # Ring orientation faced the caps inward; flip all faces.
        mesh = replace(mesh, quads=mesh.quads[:, ::-1], cap_triangles=mesh.cap_triangles[:, ::-1])
    if not is_watertight(mesh):
        raise MeshIntegrityError("swept surface has open or over-shared edges")
    return mesh


@dataclass(frozen=True)
class VolumeMesh:
    """Unstructured cell mesh: wedge and/or hexahedral cells."""

    vertices: np.ndarray
    wedges: np.ndarray
    hexes: np.ndarray
    wedge_labels: np.ndarray
    hex_labels: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        w = np.asarray(self.wedges, dtype=np.int64).reshape(-1, 6)
        h = np.asarray(self.hexes, dtype=np.int64).reshape(-1, 8)
        wl = np.asarray(self.wedge_labels, dtype=np.int64).reshape(-1)
        hl = np.asarray(self.hex_labels, dtype=np.int64).reshape(-1)
        if len(wl) != len(w) or len(hl) != len(h):
            raise MeshIntegrityError("cell labels must align with cells")
        for arr in (w, h):
            if arr.size and (arr.min() < 0 or arr.max() >= len(v)):
                raise MeshIntegrityError("cell index out of range")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "wedges", w)
        object.__setattr__(self, "hexes", h)
        object.__setattr__(self, "wedge_labels", wl)
        object.__setattr__(self, "hex_labels", hl)

    @property
    def n_cells(self) -> int:
        return len(self.wedges) + len(self.hexes)


# Divergence theorem over each wedge's faces (a0 a1 a2 bottom, b0 b1 b2
# top), quads split along (0, 2) exactly like enclosed_volume, so the
# outer quads and the caps match the surface mesh: bottom (a0 a2 a1),
# outward = -axis; top (b0 b1 b2); sides (a0 a1 b1 b0), (a1 a2 b2 b1),
# (a2 a0 b0 b2).  Neighbouring wedges split their shared radial quad
# along different diagonals, so per-yarn sums telescope exactly only
# where those quads are planar.
_WEDGE_TETS = np.array(
    [[0, 2, 1], [3, 4, 5], [0, 1, 4], [0, 4, 3], [1, 2, 5], [1, 5, 4], [2, 0, 3], [2, 3, 5]]
)


# VTK hexahedron corner order as (di, dj, dk) offsets from the lowest corner.
_HEX_CORNERS = np.array(
    [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]]
)


def wedge_volumes(mesh: VolumeMesh) -> np.ndarray:
    return _signed_tet_volumes(mesh.vertices[mesh.wedges[:, _WEDGE_TETS]]).sum(axis=1)


def build_volume_mesh(yarn: ReconstructedYarn, label: int = 1) -> VolumeMesh:
    """Wedge mesh of one yarn: 10 wedges per segment around the axis.

    Shares its outer boundary with ``build_surface_mesh``.  The sum of
    wedge volumes equals the surface-enclosed volume only where the
    radial quads (ring point, center, next center, next ring point) are
    planar, as on a straight yarn: neighbouring wedges split a shared
    radial quad along different diagonals, so on a curved yarn the sums
    differ slightly (up to 8.6e-4 relative on the 16 yarns of the
    default seed-11 run).
    """
    aligned = yarn.aligned_rings
    s = len(aligned)
    band = _ring_band(s)
    c = np.repeat(RING_POINTS * s + np.arange(s - 1), RING_POINTS)
    mesh = VolumeMesh(
        vertices=np.vstack([aligned.reshape(-1, 3), yarn.sections.centers]),
        wedges=np.column_stack([c, band[:, :2], c + 1, band[:, [3, 2]]]),
        hexes=(),
        wedge_labels=np.full(len(band), label),
        hex_labels=(),
    )
    vols = wedge_volumes(mesh)
    if vols.sum() < 0:
        mesh = replace(mesh, wedges=mesh.wedges[:, [0, 2, 1, 3, 5, 4]])
        vols = wedge_volumes(mesh)
    if (vols <= 0).any():
        seg = int(np.argmax(vols <= 0)) // RING_POINTS
        stations = yarn.sections.stations
        raise MeshIntegrityError(
            f"inverted wedge cell between stations {stations[seg]:.3f} and {stations[seg + 1]:.3f}"
        )
    return mesh


def build_composite_mesh(
    yarns,
    bbox: Box,
    cell_size: float,
    budget: int = DEFAULT_VOXEL_BUDGET,
) -> VolumeMesh:
    """Voxel composite mesh: hexahedral cells labeled matrix/yarn.

    Rasterizes the reconstructed yarns onto a coarse grid over ``bbox``
    and emits one hexahedron per cell; label 0 is matrix.
    """
    yarns = list(yarns)
    dims = compute_dims(bbox, cell_size)
    nx, ny, nz = dims
    n_cells = nx * ny * nz
    if n_cells > budget:
        raise MeshIntegrityError(
            f"composite grid {dims} = {n_cells} cells exceeds budget {budget}"
        )
    geoms = ((idx + 1, y.sections.rings, y.sections.centers) for idx, y in enumerate(yarns))
    grid = paint_labels(geoms, dims, bbox.lo, cell_size)

    xs = bbox.lo[0] + np.arange(nx + 1) * cell_size
    ys = bbox.lo[1] + np.arange(ny + 1) * cell_size
    zs = bbox.lo[2] + np.arange(nz + 1) * cell_size
    px, py, pz = np.meshgrid(xs, ys, zs, indexing="ij")
    vertices = np.stack([px, py, pz], axis=-1).reshape(-1, 3)
    # Vertex ids are linear in (i, j, k), so each hex corner is the
    # cell's lowest vertex plus the corner's (di, dj, dk) . stride.
    stride = np.array([(ny + 1) * (nz + 1), nz + 1, 1])
    lowest = np.arange(len(vertices)).reshape(nx + 1, ny + 1, nz + 1)[:-1, :-1, :-1].reshape(-1)
    return VolumeMesh(
        vertices=vertices,
        wedges=(),
        hexes=lowest[:, None] + _HEX_CORNERS @ stride,
        wedge_labels=(),
        hex_labels=grid.reshape(-1).astype(np.int64),
    )


def reconstruct_yarns(
    dsets,
    d_gate: float,
    min_length: int = 4,
    max_gap: int = 10,
    min_span: float = 0.0,
    n_controls: int | None = None,
) -> tuple[list, list]:
    """Track, complete and lift every yarn of one or more datasets.

    Returns (yarns, tracks); each yarn carries its track's boundary
    gaps, reported rather than filled, and the tracks keep the rest of
    the gap bookkeeping.
    """
    yarns = []
    tracks_out = []
    for dset in dsets:
        tracked = track_yarns(
            dset,
            d_gate=d_gate,
            min_length=min_length,
            max_gap=max_gap,
            min_span=min_span,
        )
        for track in tracked:
            completed = complete_missing(track)
            yarns.append(lift_and_fit(completed, n_controls=n_controls))
            tracks_out.append(completed)
    return yarns, tracks_out
