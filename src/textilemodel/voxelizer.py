"""Voxel label volumes and pseudo-CT rendering.

A label volume samples the textile on a regular grid: voxel (i, j, k)
covers the cell starting at ``origin + (i, j, k) * voxel_size`` and its
center sits half a voxel further.  Label 0 is matrix/background, yarn
labels are the yarn ids.

Yarns are painted as linear lofts of their cross-section rings.
``paint_labels`` takes the ring segments (between consecutive sections)
in blocks whose padded voxel boxes hold at most ``PAINT_BLOCK`` voxels
and ray-casts their candidate voxels ``RAY_CHUNK`` at a time, so its
working set follows those constants (and the largest single box), not
the grid size.  Each voxel goes to its candidate with the least
(squared distance to the segment's nearer section center, yarn id,
segment id); one ``lexsort`` per block finds that minimum exactly, so
overlapping yarns resolve to the nearest section center, the smaller
label winning ties, whatever the paint order and block size.

The pseudo-CT render holds one block too: ``render_pseudo_ct`` works on
slabs of whole x-planes, as many as fit in ``RENDER_BLOCK`` voxels (at
least one plane), and writes each slab to disk before the next, so its
float64 work arrays follow that budget, not the grid size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import BudgetExceededError, ConfigError, DegenerateGeometryError
from .geometry import DEFAULT_VOXEL_SIZE_UM, Box
from .schema import Array, Object, check
from .synthgen import FAMILIES, TextileModel

DEFAULT_VOXEL_BUDGET = 2**28
RENDER_BLOCK = 2**16  # voxels per rendered slab of whole x-planes
PAINT_BLOCK = 2**13  # padded box voxels per block of painted segments
RAY_CHUNK = 2**11  # candidate points per ray-cast chunk

# Raw sample type of each volume kind, little-endian.
VOLUME_DTYPES = {"labels": "<u2", "gray": "<f4"}

AXIS_XZ = "xz"  # one slice per y index, image axes (x, z)
AXIS_YZ = "yz"  # one slice per x index, image axes (y, z)
SLICE_AXES = (AXIS_XZ, AXIS_YZ)
# The grid axis each slice axis steps along; its images show the other
# horizontal axis, then z.
SLICE_DIM = {AXIS_XZ: 1, AXIS_YZ: 0}


def compute_dims(bbox: Box, voxel_size: float) -> tuple[int, int, int]:
    """Grid dimensions covering a bounding box at the given voxel size.

    Each axis uses ceil(extent / voxel_size) with a small epsilon so
    exact multiples do not gain a spurious extra voxel.
    """
    if not (voxel_size > 0):
        raise ConfigError("voxel_size must be positive")
    dims = tuple(
        max(1, int(np.ceil(e / voxel_size - 1e-9))) for e in bbox.extent
    )
    return dims


def slice_count(dims: tuple[int, int, int], axis: str) -> int:
    if axis not in SLICE_DIM:
        raise ConfigError(f"axis must be one of {SLICE_AXES}")
    return dims[SLICE_DIM[axis]]


@dataclass(frozen=True)
class LabelVolume:
    """Dense uint16 label grid plus placement metadata."""

    data: np.ndarray
    voxel_size: float
    origin: np.ndarray
    label_map: dict

    def __post_init__(self):
        if self.data.dtype != np.uint16 or self.data.ndim != 3:
            raise ConfigError("label data must be a 3D uint16 array")
        origin = np.asarray(self.origin, dtype=float).reshape(3)
        object.__setattr__(self, "origin", origin)
        self.data.flags.writeable = False

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    @cached_property
    def label_boxes(self) -> list:
        """The (x, y, z) index box, a tuple of slices, of label 1, 2, ...
        up to the largest label, or None for a label that does not occur
        (what ``ndimage.find_objects`` returns).

        One x-plane at a time, keyed counts of (y, label) and (z, label)
        mark where each label occurs; the y marks also give the x-planes.
        When the largest label exceeds a plane side, the labels that
        occur are first renumbered 0, 1, ..., so the counts never
        outgrow the plane.
        """
        data = self.data
        _, ny, nz = data.shape
        n = int(data.max()) + 1 if data.size else 1
        labels = np.arange(n)  # the label of each counted column
        renumber = None
        if n > min(ny, nz):
            occurs = np.zeros(n, dtype=bool)
            for plane in data:
                occurs[plane] = True
            labels = np.flatnonzero(occurs)
            renumber = np.zeros(n, dtype=np.intp)
            renumber[labels] = np.arange(len(labels))
        k = len(labels)
        y_key = (np.arange(ny) * k)[:, None]
        z_key = (np.arange(nz) * k)[None, :]
        seen = [np.zeros((size, k), dtype=bool) for size in data.shape]
        for x, plane in enumerate(data):
            if renumber is not None:
                plane = renumber[plane]
            in_y = np.bincount((plane + y_key).ravel(), minlength=ny * k).reshape(ny, k) > 0
            seen[0][x] = in_y.any(axis=0)
            seen[1] |= in_y
            seen[2] |= np.bincount((plane + z_key).ravel(), minlength=nz * k).reshape(nz, k) > 0
        present = seen[0].any(axis=0).tolist()
        lows = [axis.argmax(axis=0).tolist() for axis in seen]
        highs = [(len(axis) - axis[::-1].argmax(axis=0)).tolist() for axis in seen]
        boxes = [None] * (n - 1)
        for col, lab in enumerate(labels.tolist()):
            if lab and present[col]:
                boxes[lab - 1] = tuple(slice(low[col], high[col]) for low, high in zip(lows, highs))
        return boxes


def _ring_normals(rings: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Per-section plane normals oriented along the travel direction."""
    shifted = np.roll(rings, -1, axis=1)
    normals = np.cross(rings, shifted).sum(axis=1)
    forward = np.empty_like(centers)
    forward[0] = centers[1] - centers[0]
    forward[-1] = centers[-1] - centers[-2]
    forward[1:-1] = centers[2:] - centers[:-2]
    flip = np.sign((normals * forward).sum(axis=1))
    if np.any(flip == 0):
        raise DegenerateGeometryError("section plane degenerate against travel direction")
    normals *= flip[:, None]
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    return normals / lengths


def _center_d2(p, seg, tab: _Segments) -> np.ndarray:
    """Squared distance from points ``p`` (3, K) to the nearer section
    center of their segments ``seg``, summed over x, y, z in order."""
    d2 = []
    for c in (tab.c0, tab.c1):
        sq = [(p[d] - c[d].take(seg)) ** 2 for d in range(3)]
        d2.append((sq[0] + sq[1]) + sq[2])
    return np.minimum(*d2)


@dataclass(frozen=True)
class _Segments:
    """Per-segment tables of the lofted yarns; row 0 is "no owner".

    Segment k of a yarn runs from section k to section k + 1.  Vectors
    are stored as component planes: ``c0[d]`` is the d-th coordinate of
    every segment's start center.  Ring rows hold the n ring points and
    then the first again, closing the ring; a ring with fewer points
    than the longest repeats its last point, which only adds
    zero-length edges that no ray crosses.
    """

    yarn: np.ndarray  # (N,) yarn id
    c0: np.ndarray  # (3, N) start and end section centers
    c1: np.ndarray
    n0: np.ndarray  # (3, N) start and end plane normals, and n1 - n0
    n1: np.ndarray
    dn: np.ndarray
    r0: np.ndarray  # (3, n + 1, N) start ring, and end ring minus start ring
    dr: np.ndarray
    lo: np.ndarray  # (N, 3) lowest voxel index of the segment's box
    shape: np.ndarray  # (N, 3) box shape, all 0 where the box misses the grid

    @staticmethod
    def build(geoms, dims, origin, voxel_size) -> _Segments:
        n_pts = max(rings.shape[1] for _, rings, _ in geoms)
        cols = {key: [] for key in ("yarn", "c0", "c1", "n0", "n1", "r0", "r1")}
        for yarn_id, rings, centers in geoms:
            normals = _ring_normals(rings, centers)
            pad = np.repeat(rings[:, -1:], n_pts - rings.shape[1], axis=1)
            rings = np.concatenate([rings, pad, rings[:, :1]], axis=1)
            cols["yarn"].append(np.full(len(rings) - 1, yarn_id, dtype=np.uint16))
            for key, arr in (("c", centers), ("n", normals), ("r", rings)):
                cols[key + "0"].append(arr[:-1])
                cols[key + "1"].append(arr[1:])
        t = {key: _with_none_row(parts) for key, parts in cols.items()}
        lo = np.minimum(t["r0"].min(axis=1), t["r1"].min(axis=1))
        hi = np.maximum(t["r0"].max(axis=1), t["r1"].max(axis=1))
        i_lo = np.maximum(np.floor((lo - origin) / voxel_size - 0.5).astype(int), 0)
        i_hi = np.minimum(np.ceil((hi - origin) / voxel_size - 0.5).astype(int), np.array(dims) - 1)
        shape = i_hi - i_lo + 1
        shape[(shape <= 0).any(axis=1)] = 0
        shape[0] = 0
        # Component planes: (3, N) vectors and (3, n + 1, N) rings.
        planes = {key: np.ascontiguousarray(t[key].T) for key in t}
        return _Segments(
            yarn=t["yarn"],
            c0=planes["c0"],
            c1=planes["c1"],
            n0=planes["n0"],
            n1=planes["n1"],
            dn=planes["n1"] - planes["n0"],
            r0=planes["r0"],
            dr=planes["r1"] - planes["r0"],
            lo=i_lo,
            shape=shape,
        )


def _with_none_row(parts) -> np.ndarray:
    """Concatenated per-yarn segment rows behind a zero row for segment 0."""
    rows = np.concatenate(parts)
    return np.concatenate([np.zeros((1,) + rows.shape[1:], dtype=rows.dtype), rows])


def _blocks(sizes: np.ndarray):
    """Runs of consecutive segments with non-empty boxes, each at most
    ``PAINT_BLOCK`` voxels once every box is padded to the run's largest.

    A run holds only one-voxel boxes or none: numpy takes a one-row
    matrix-vector product as a BLAS dot, which can round differently
    from the matrix-vector kernel of larger boxes.
    """
    block, widest = [], 0
    for seg in np.flatnonzero(sizes).tolist():
        m = int(sizes[seg])
        if block and (
            max(widest, m) * (len(block) + 1) > PAINT_BLOCK or (m == 1) != (widest == 1)
        ):
            yield np.array(block)
            block, widest = [], 0
        block.append(seg)
        widest = max(widest, m)
    if block:
        yield np.array(block)


def _inside_rings(seg, p, s, tab: _Segments) -> np.ndarray:
    """Whether point ``p[:, i]`` lies inside segment ``seg[i]``'s ring
    lofted to fraction ``s[i]``, by a ray cast along the in-plane +u
    axis; ``RAY_CHUNK`` points at a time.

    Vectors are kept as component planes; every sum, norm and cross
    product adds its terms in the order numpy's length-3 versions do,
    so the result is bit for bit that of the (point, vertex, axis)
    array form.
    """
    inside = np.empty(len(seg), dtype=bool)
    for a in range(0, len(seg), RAY_CHUNK):
        sl = slice(a, a + RAY_CHUNK)
        sg, sc = seg[sl], s[sl]
        n = [tab.n0[d].take(sg) + sc * tab.dn[d].take(sg) for d in range(3)]
        length = np.sqrt((n[0] * n[0] + n[1] * n[1]) + n[2] * n[2])
        n = [c / length for c in n]

        # Stable in-plane frame: e2 toward +z (or +x for near-vertical planes).
        vertical = np.abs(n[2]) > 0.99
        ref = (vertical.astype(float), 0.0, (~vertical).astype(float))
        dot = (ref[0] * n[0] + ref[1] * n[1]) + ref[2] * n[2]
        e2 = [r - dot * c for r, c in zip(ref, n)]
        length = np.sqrt((e2[0] * e2[0] + e2[1] * e2[1]) + e2[2] * e2[2])
        e2 = [c / length for c in e2]
        e1 = [e2[1] * n[2] - e2[2] * n[1], e2[2] * n[0] - e2[0] * n[2], e2[0] * n[1] - e2[1] * n[0]]

        # In-plane coordinates (u, v) of the lofted ring about each
        # point, one row per ring point.
        for d in range(3):
            rel = tab.dr[d].take(sg, axis=1)
            rel *= sc
            rel += tab.r0[d].take(sg, axis=1)
            rel -= p[d][sl]
            if d == 0:
                u, v = rel * e1[0], rel * e2[0]
            else:
                u += rel * e1[d]
                v += rel * e2[d]

        # Ray casting from the voxel center along +u: count the edges
        # (ring point j, j + 1) that cross the ray.
        ua, ub, va, vb = u[:-1], u[1:], v[:-1], v[1:]
        straddle = (va > 0.0) != (vb > 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_hit = ua + (0.0 - va) * (ub - ua) / (vb - va)
        straddle &= x_hit > 0.0
        inside[sl] = np.bitwise_xor.reduce(straddle, axis=0)
    return inside


def _paint_block(owner, segs, tab: _Segments, axes) -> None:
    """Claim for the segments ``segs`` the voxels inside their lofts
    that they win.

    ``owner`` is the flat grid of winning segment ids, 0 meaning none.
    A winner's distance is recomputed with the same expression it was
    admitted with, so comparisons are exact.
    """
    _, ny, nz = (len(a) for a in axes)
    shape = tab.shape[segs]
    size = shape.prod(axis=1)
    # Row b walks box b in C order; padding repeats its last voxel.
    t = np.minimum(np.arange(size.max()), size[:, None] - 1)
    ijk = [t // shape[:, 1:2] // shape[:, 2:], t // shape[:, 2:] % shape[:, 1:2], t % shape[:, 2:]]
    pts = np.empty(t.shape + (3,))
    for d in range(3):
        ijk[d] += tab.lo[segs, d, None]
        pts[..., d] = axes[d].take(ijk[d])
    # One BLAS matrix-vector product per box and plane, as for a lone box.
    dist = []
    for c, n in ((tab.c0, tab.n0), (tab.c1, tab.n1)):
        normals = np.ascontiguousarray(n.take(segs, axis=1).T)[:, :, None]
        dist.append(np.matmul(pts - c.take(segs, axis=1).T[:, None], normals).reshape(-1))
    d0, d1 = dist
    between = (d0 >= 0.0) & (d1 < 0.0) & (np.arange(t.shape[1]) < size[:, None]).reshape(-1)
    idx = np.flatnonzero(between)
    seg = segs.take(idx // t.shape[1])
    ijk = [a.reshape(-1).take(idx) for a in ijk]
    p = [axes[d].take(ijk[d]) for d in range(3)]
    d0, d1 = d0.take(idx), d1.take(idx)
    inside = np.flatnonzero(_inside_rings(seg, p, d0 / (d0 - d1), tab))
    seg, p, ijk = seg.take(inside), [c.take(inside) for c in p], [a.take(inside) for a in ijk]
    vox = (ijk[0] * ny + ijk[1]) * nz + ijk[2]

    # The block's winner per voxel is its (d2, yarn, segment) minimum,
    # the order in which the rule below admits rivals.
    d2 = _center_d2(p, seg, tab)
    yarn = tab.yarn.take(seg)
    order = np.lexsort((seg, yarn, d2, vox))
    first = np.ones(len(order), dtype=bool)
    first[1:] = vox.take(order[1:]) != vox.take(order[:-1])
    win = order[first]
    vox, seg, d2, yarn = vox.take(win), seg.take(win), d2.take(win), yarn.take(win)
    p = [c.take(win) for c in p]

    # Earlier blocks hold smaller segment ids, so a tie on (d2, yarn)
    # keeps the current owner.
    cur = owner.take(vox)
    cur_d2 = np.full(len(cur), np.inf)
    owned = np.flatnonzero(cur)
    if len(owned):
        cur_d2[owned] = _center_d2([c.take(owned) for c in p], cur.take(owned), tab)
    take = (d2 < cur_d2) | ((d2 == cur_d2) & (yarn < tab.yarn.take(cur)))
    owner[vox[take]] = seg[take]


def paint_labels(yarn_geoms, dims, origin, voxel_size) -> np.ndarray:
    """Rasterize lofted yarns onto a label grid.

    ``yarn_geoms`` yields (yarn_id, rings, centers) with rings shaped
    (S, n, 3).  Cross-sections are lofted linearly between stations;
    a voxel center belongs to a segment when it falls between the two
    section planes and inside the interpolated ring polygon there.
    Each voxel takes the yarn of its lexicographically least candidate
    (d2, yarn id, segment id), d2 being the squared distance to the
    segment's nearer section center.

    Segments are painted in blocks of consecutive ids.  One ``lexsort``
    reduces a block's candidates to a winner per voxel, which then
    meets the voxel's current owner with the rule of painting one
    segment at a time; the labels are exactly those of that serial
    painter.  Memory: a block's voxel boxes, each padded to the block's
    largest, hold at most ``PAINT_BLOCK`` voxels (a lone larger box is
    a block of its own), and the ray cast holds ``RAY_CHUNK`` points by
    ring points at a time.  The only full grid is the owner grid of
    segment ids, uint16 up to 65535 segments; it then becomes the
    result, its ids mapped to yarn ids in place.
    """
    origin = np.asarray(origin, dtype=float).reshape(3)
    geoms = [
        (yarn_id, np.asarray(rings, dtype=float), np.asarray(centers, dtype=float))
        for yarn_id, rings, centers in yarn_geoms
    ]
    if not geoms:
        return np.zeros(dims, dtype=np.uint16)
    tab = _Segments.build(geoms, dims, origin, voxel_size)
    axes = [origin[d] + (np.arange(dims[d]) + 0.5) * voxel_size for d in range(3)]
    ids = np.promote_types(np.min_scalar_type(len(tab.yarn) - 1), np.uint16)
    owner = np.zeros(int(np.prod(dims)), dtype=ids)
    for segs in _blocks(tab.shape.prod(axis=1)):
        _paint_block(owner, segs, tab, axes)
    if owner.dtype != np.uint16:
        return tab.yarn[owner].reshape(dims)
    # Segment ids become yarn ids in place, a slab at a time.
    for a in range(0, len(owner), PAINT_BLOCK):
        owner[a : a + PAINT_BLOCK] = tab.yarn[owner[a : a + PAINT_BLOCK]]
    return owner.reshape(dims)


def voxelize(
    model: TextileModel,
    voxel_size: float = 1.0,
    budget: int = DEFAULT_VOXEL_BUDGET,
) -> LabelVolume:
    """Sample the textile model onto a voxel label grid.

    Raises BudgetExceededError before any allocation when the grid
    would exceed ``budget`` voxels; use ``compute_dims`` to check the
    size of a prospective grid without materializing it.
    """
    dims = compute_dims(model.bbox, voxel_size)
    n_vox = int(np.prod([float(d) for d in dims]))
    if n_vox > budget:
        raise BudgetExceededError(
            f"grid {dims[0]}x{dims[1]}x{dims[2]} = {n_vox} voxels exceeds budget {budget}"
        )
    geoms = ((y.yarn_id, y.sections.rings, y.sections.centers) for y in model.yarns)
    data = paint_labels(geoms, dims, model.bbox.lo, voxel_size)
    label_map = {y.yarn_id: y.family for y in model.yarns}
    return LabelVolume(
        data=data, voxel_size=voxel_size, origin=np.array(model.bbox.lo), label_map=label_map
    )


@dataclass(frozen=True)
class RenderParams:
    """Pseudo-CT intensity model.

    Matrix voxels take ``matrix_level``; yarn voxels take
    ``yarn_level`` plus a family-oriented periodic fiber texture with
    the given contrast.  Gaussian noise is added everywhere and the
    result is clamped to [0, 1].  ``ring_amplitude`` > 0 adds faint
    concentric rings about the volume axis, mimicking reconstruction
    artifacts.
    """

    matrix_level: float = 0.35
    yarn_level: float = 0.55
    warp_contrast: float = 0.12
    weft_contrast: float = 0.08
    texture_period: float = 6.0
    noise_sigma: float = 0.02
    ring_amplitude: float = 0.0
    ring_period: float = 25.0

    def __post_init__(self):
        for name in ("matrix_level", "yarn_level"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1]")
        for name in ("warp_contrast", "weft_contrast", "noise_sigma", "ring_amplitude"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.texture_period <= 0 or self.ring_period <= 0:
            raise ConfigError("texture_period and ring_period must be positive")


def render_pseudo_ct(
    volume: LabelVolume,
    params: RenderParams,
    seed: int,
    base_path,
    *,
    um_per_unit: float = DEFAULT_VOXEL_SIZE_UM,
) -> tuple[Path, Path]:
    """Render a label volume into a noisy pseudo-CT intensity volume on
    disk, as ``save_volume`` would write it; returns the ``.raw`` and
    ``.json`` paths.

    Deterministic for a given (volume, params, seed): the random field
    is seeded by ``seed`` only.  The volume is rendered in slabs of as
    many x-planes as fit in ``RENDER_BLOCK`` voxels, at least one, and
    each slab is written to the ``.raw`` file as float32 as soon as it
    is rendered, so the working set is one float64 slab, not the volume.
    The slabs draw their noise in turn from one generator in C order, so
    the noise stream equals one full-volume draw.  The sidecar gives
    µm per voxel as ``voxel_size * um_per_unit``, as ``save_volume``'s
    does.
    """
    from .storage import atomic_open, dump_json  # deferred: storage imports this module

    nx, ny, nz = volume.dims
    vs = volume.voxel_size
    ox, oy, oz = volume.origin

    warp_ids = [i for i, fam in volume.label_map.items() if fam == "warp"]
    weft_ids = [i for i, fam in volume.label_map.items() if fam == "weft"]

    two_pi = 2.0 * np.pi / params.texture_period
    xs = np.sin(two_pi * (ox + (np.arange(nx) + 0.5) * vs))
    ys = np.sin(two_pi * (oy + (np.arange(ny) + 0.5) * vs))
    zs = np.sin(two_pi * (oz + (np.arange(nz) + 0.5) * vs))
    # Fibers run along x in warps (texture across y and z), along y in wefts.
    warp_level = params.yarn_level + params.warp_contrast * (
        0.5 + 0.5 * ys[None, :, None] * zs[None, None, :]
    )
    weft_level = params.yarn_level + params.weft_contrast * (
        0.5 + 0.5 * xs[:, None, None] * zs[None, None, :]
    )

    ring_term = None
    if params.ring_amplitude > 0:
        cx = ox + nx * vs / 2.0
        cy = oy + ny * vs / 2.0
        px = ox + (np.arange(nx) + 0.5) * vs - cx
        py = oy + (np.arange(ny) + 0.5) * vs - cy
        r = np.hypot(px[:, None], py[None, :])
        ring_term = params.ring_amplitude * np.sin(2.0 * np.pi * r / params.ring_period)[:, :, None]

    raw_path, json_path = _volume_paths(base_path)
    planes = max(1, RENDER_BLOCK // (ny * nz))
    rng = np.random.default_rng(seed)
    with atomic_open(raw_path, "wb") as fh:
        for x0 in range(0, nx, planes):
            xsl = slice(x0, x0 + planes)
            labels = volume.data[xsl]
            g = np.full(labels.shape, params.matrix_level, dtype=np.float64)
            np.copyto(g, warp_level, where=np.isin(labels, warp_ids))
            np.copyto(g, weft_level[xsl], where=np.isin(labels, weft_ids))
            if ring_term is not None:
                g += ring_term[xsl]
            g += rng.normal(0.0, params.noise_sigma, size=g.shape)
            np.clip(g, 0.0, 1.0, out=g)
            g.astype(VOLUME_DTYPES["gray"]).tofile(fh)
    dump_json(_sidecar(volume, "gray", um_per_unit), json_path)
    return raw_path, json_path


def _sidecar(volume, kind: str, um_per_unit: float) -> dict:
    meta = {
        "schema": 1,
        "kind": kind,
        "dims": [int(d) for d in volume.dims],
        "dtype": VOLUME_DTYPES[kind],
        "order": "C",
        "axis_convention": "x warp, y weft, z thickness",
        "voxel_size": float(volume.voxel_size),
        "voxel_size_um": float(volume.voxel_size * um_per_unit),
        "origin": [float(v) for v in volume.origin],
    }
    if kind == "labels":
        meta["label_map"] = {str(k): v for k, v in sorted(volume.label_map.items())}
    return meta


def save_volume(
    volume: LabelVolume, base_path, *, um_per_unit: float = DEFAULT_VOXEL_SIZE_UM
) -> tuple[Path, Path]:
    """Write a label volume as little-endian raw plus a JSON sidecar.

    ``base_path`` gets the extensions ``.raw`` and ``.json``.  Returns
    the two paths.  ``um_per_unit`` is the micrometres per model unit
    (the config's ``validate.voxel_size_um``); the sidecar's
    ``voxel_size_um`` is ``voxel_size`` times it.
    """
    from .storage import atomic_open, dump_json  # deferred: storage imports this module

    raw_path, json_path = _volume_paths(base_path)
    with atomic_open(raw_path, "wb") as fh:
        volume.data.astype(VOLUME_DTYPES["labels"], copy=False).tofile(fh)
    dump_json(_sidecar(volume, "labels", um_per_unit), json_path)
    return raw_path, json_path


def _volume_paths(base_path) -> tuple[Path, Path]:
    """The ``.raw`` and ``.json`` paths of a volume, its directory made."""
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    return base.with_suffix(".raw"), base.with_suffix(".json")


SIDECAR_SCHEMA = Object(
    {
        "schema": int, "kind": tuple(VOLUME_DTYPES), "dims": tuple[int, int, int], "dtype": str, "order": str,
        "axis_convention": str, "voxel_size": float, "voxel_size_um": float, "origin": Array((3,)),
    },
    {"label_map": dict[str, FAMILIES]},
)


def read_sidecar(base_path) -> dict:
    """The JSON sidecar of a volume written by save_volume or
    render_pseudo_ct, as ``SIDECAR_SCHEMA`` checks it.

    Raises ConfigError naming the file if it is not valid JSON, has
    another schema, does not pass the schema or holds a value out of
    range: ``dims`` must be positive, ``dtype`` the one of its ``kind``,
    ``voxel_size`` positive and the ``label_map`` keys decimal labels.
    """
    from .storage import read_json  # deferred: storage imports this module

    path = Path(base_path).with_suffix(".json")
    meta = read_json(path)
    if meta.get("schema") != 1:
        raise ConfigError(f"{path}: unsupported volume schema")
    try:
        meta = check(meta, SIDECAR_SCHEMA)
        if min(meta["dims"]) < 1:
            raise ConfigError("dims must be 3 positive integers")
        if VOLUME_DTYPES[meta["kind"]] != meta["dtype"]:
            raise ConfigError(f"dtype must be that of its kind, one of {VOLUME_DTYPES}")
        if not meta["voxel_size"] > 0:
            raise ConfigError("voxel_size must be a positive finite number")
        if not all(key.isdecimal() for key in meta.get("label_map", {})):
            raise ConfigError("label_map must be an object keyed by decimal labels")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return meta


def load_volume(base_path) -> LabelVolume:
    """Load a label volume written by save_volume; inverse up to bit
    equality.  A sidecar of another kind, such as the pseudo-CT's, or a
    ``.raw`` file whose size is not the sidecar's dims times its dtype
    size raises ConfigError naming the file.
    """
    base = Path(base_path)
    meta = read_sidecar(base)
    if meta["kind"] != "labels":
        raise ConfigError(f"{base.with_suffix('.json')}: kind must be 'labels', got {meta['kind']!r}")
    dims = tuple(meta["dims"])
    raw_path = base.with_suffix(".raw")
    want = math.prod(dims) * np.dtype(meta["dtype"]).itemsize
    got = raw_path.stat().st_size
    if got != want:
        raise ConfigError(
            f"{raw_path}: {got} bytes, but dims {list(dims)} of {meta['dtype']} need {want}"
        )
    data = np.fromfile(raw_path, dtype=meta["dtype"]).reshape(dims)
    return LabelVolume(
        data=data.astype(np.uint16, copy=False),
        voxel_size=meta["voxel_size"],
        origin=np.array(meta["origin"]),
        label_map={int(k): v for k, v in meta.get("label_map", {}).items()},
    )
