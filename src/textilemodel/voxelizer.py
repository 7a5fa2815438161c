"""Voxel label volumes, pseudo-CT rendering and 2.5D slicing.

A label volume samples the textile on a regular grid: voxel (i, j, k)
covers the cell starting at ``origin + (i, j, k) * voxel_size`` and its
center sits half a voxel further.  Label 0 is matrix/background, yarn
labels are the yarn ids.  Overlapping yarns resolve to the yarn whose
nearest section center is closest, with the smaller label winning ties,
so the result does not depend on paint order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BudgetExceededError, ConfigError, DegenerateGeometryError
from .geometry import DEFAULT_VOXEL_SIZE_UM, Box
from .synthgen import TextileModel

DEFAULT_VOXEL_BUDGET = 2**28
RENDER_SLAB = 16  # x-planes rendered per float64 working slab

AXIS_XZ = "xz"  # one slice per y index, image axes (x, z)
AXIS_YZ = "yz"  # one slice per x index, image axes (y, z)
SLICE_AXES = (AXIS_XZ, AXIS_YZ)


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
    if axis == AXIS_XZ:
        return dims[1]
    if axis == AXIS_YZ:
        return dims[0]
    raise ConfigError(f"axis must be one of {SLICE_AXES}")


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


@dataclass(frozen=True)
class GrayVolume:
    """Dense float32 intensity grid with values in [0, 1]."""

    data: np.ndarray
    voxel_size: float
    origin: np.ndarray

    def __post_init__(self):
        if self.data.dtype != np.float32 or self.data.ndim != 3:
            raise ConfigError("gray data must be a 3D float32 array")
        if self.data.size and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ConfigError("gray values must lie in [0, 1]")
        origin = np.asarray(self.origin, dtype=float).reshape(3)
        object.__setattr__(self, "origin", origin)
        self.data.flags.writeable = False

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class SliceDataset:
    """A volume cut into parallel 2D slices along one axis.

    ``slices[i]`` is the image at slice index i; image axis 0 is the
    first in-plane volume axis (x for xz slices, y for yz slices) and
    image axis 1 is z.  Slicing is lossless: ``restack`` rebuilds the
    original array bit for bit.
    """

    axis: str
    slices: tuple
    voxel_size: float
    origin: np.ndarray

    def __post_init__(self):
        if self.axis not in SLICE_AXES:
            raise ConfigError(f"axis must be one of {SLICE_AXES}")
        object.__setattr__(self, "slices", tuple(self.slices))
        origin = np.asarray(self.origin, dtype=float).reshape(3)
        object.__setattr__(self, "origin", origin)

    def __len__(self) -> int:
        return len(self.slices)


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


def _center_d2(p, c0, c1):
    """Squared distance from each point to the nearer of two section centers."""
    return np.minimum(((p - c0) ** 2).sum(axis=1), ((p - c1) ** 2).sum(axis=1))


def _paint_segment(owner, seg, seg_yarn, seg_c0, seg_c1, r0, r1, n0, n1, origin, voxel_size):
    """Claim for segment ``seg`` the voxels inside its loft that it wins.

    ``owner`` holds the global segment id of each voxel's current
    winner, 0 meaning none.  The winner's distance is recomputed with
    the same elementwise expression, so comparisons see the exact
    value the winner was admitted with.
    """
    dims = owner.shape
    yarn_id = seg_yarn[seg]
    c0, c1 = seg_c0[seg], seg_c1[seg]
    lo = np.minimum(r0.min(axis=0), r1.min(axis=0))
    hi = np.maximum(r0.max(axis=0), r1.max(axis=0))
    i_lo = np.maximum(np.floor((lo - origin) / voxel_size - 0.5).astype(int), 0)
    i_hi = np.minimum(np.ceil((hi - origin) / voxel_size - 0.5).astype(int), np.array(dims) - 1)
    if np.any(i_lo > i_hi):
        return
    ax = [origin[d] + (np.arange(i_lo[d], i_hi[d] + 1) + 0.5) * voxel_size for d in range(3)]
    px, py, pz = np.meshgrid(*ax, indexing="ij")
    pts = np.stack([px, py, pz], axis=-1).reshape(-1, 3)

    d0 = (pts - c0) @ n0
    d1 = (pts - c1) @ n1
    between = (d0 >= 0.0) & (d1 < 0.0)
    if not between.any():
        return
    p = pts[between]
    s = (d0[between] / (d0[between] - d1[between]))[:, None]

    ring = r0[None, :, :] + s[:, :, None] * (r1 - r0)[None, :, :]
    normal = n0 + s * (n1 - n0)
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)

    # Stable in-plane frame: e2 toward +z (or +x for near-vertical planes).
    zdot = normal[:, 2]
    ref = np.where(
        (np.abs(zdot) > 0.99)[:, None], [[1.0, 0.0, 0.0]], [[0.0, 0.0, 1.0]]
    )
    e2 = ref - (ref * normal).sum(axis=1, keepdims=True) * normal
    e2 /= np.linalg.norm(e2, axis=1, keepdims=True)
    e1 = np.cross(e2, normal)

    rel = ring - p[:, None, :]
    u = (rel * e1[:, None, :]).sum(axis=2)
    v = (rel * e2[:, None, :]).sum(axis=2)

    # Ray casting from the voxel center along +u.
    u2, v2 = np.roll(u, -1, axis=1), np.roll(v, -1, axis=1)
    straddle = (v > 0.0) != (v2 > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_hit = u + (0.0 - v) * (u2 - u) / (v2 - v)
    crossings = (straddle & (x_hit > 0.0)).sum(axis=1)
    inside = (crossings % 2) == 1
    if not inside.any():
        return

    p = p[inside]
    cand_d2 = _center_d2(p, c0, c1)
    sub_shape = tuple(i_hi - i_lo + 1)
    idx = np.flatnonzero(between)[inside]
    ii, jj, kk = np.unravel_index(idx, sub_shape)
    ii = ii + i_lo[0]
    jj = jj + i_lo[1]
    kk = kk + i_lo[2]
    cur = owner[ii, jj, kk]
    cur_d2 = np.full(len(cur), np.inf)
    owned = cur > 0
    if owned.any():
        rival = cur[owned]
        cur_d2[owned] = _center_d2(p[owned], seg_c0[rival], seg_c1[rival])
    take = (cand_d2 < cur_d2) | ((cand_d2 == cur_d2) & (yarn_id < seg_yarn[cur]))
    owner[ii[take], jj[take], kk[take]] = seg


def paint_labels(yarn_geoms, dims, origin, voxel_size) -> np.ndarray:
    """Rasterize lofted yarns onto a label grid.

    ``yarn_geoms`` yields (yarn_id, rings, centers) with rings shaped
    (S, 10, 3).  Cross-sections are lofted linearly between stations;
    a voxel center belongs to a yarn when it falls inside the
    interpolated ring polygon between two consecutive section planes.

    The only full grid besides the result is one owner grid of segment
    ids in the smallest unsigned dtype that holds them; each winner's
    distance is recomputed from small per-segment tables when needed.
    """
    origin = np.asarray(origin, dtype=float).reshape(3)
    geoms = [
        (yarn_id, np.asarray(rings, dtype=float), np.asarray(centers, dtype=float))
        for yarn_id, rings, centers in yarn_geoms
    ]
    # Segment k of a yarn runs from centers[k] to centers[k + 1]; global
    # segment 0 is "no owner" and maps to label 0.
    seg_yarn = np.array(
        [0] + [yarn_id for yarn_id, rings, _ in geoms for _ in range(len(rings) - 1)],
        dtype=np.uint16,
    )
    seg_c0 = np.concatenate([np.zeros((1, 3))] + [centers[:-1] for _, _, centers in geoms])
    seg_c1 = np.concatenate([np.zeros((1, 3))] + [centers[1:] for _, _, centers in geoms])
    owner = np.zeros(dims, dtype=np.min_scalar_type(len(seg_yarn) - 1))
    seg = 0
    for _, rings, centers in geoms:
        normals = _ring_normals(rings, centers)
        for k in range(len(rings) - 1):
            seg += 1
            _paint_segment(
                owner,
                seg,
                seg_yarn,
                seg_c0,
                seg_c1,
                rings[k],
                rings[k + 1],
                normals[k],
                normals[k + 1],
                origin,
                voxel_size,
            )
    return seg_yarn[owner]


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
    geoms = (
        (y.yarn_id, np.stack([s.contour for s in y.sections]), y.centers)
        for y in model.yarns
    )
    data = paint_labels(geoms, dims, model.bbox.lo, voxel_size)
    label_map = {y.yarn_id: y.family for y in model.yarns}
    return LabelVolume(
        data=data, voxel_size=voxel_size, origin=np.array(model.bbox.lo), label_map=label_map
    )


def extract_slices(volume, axis: str) -> SliceDataset:
    """Cut a volume into 2D slices; views, not copies."""
    data = volume.data
    if axis == AXIS_XZ:
        slices = tuple(data[:, j, :] for j in range(data.shape[1]))
    elif axis == AXIS_YZ:
        slices = tuple(data[i, :, :] for i in range(data.shape[0]))
    else:
        raise ConfigError(f"axis must be one of {SLICE_AXES}")
    return SliceDataset(
        axis=axis, slices=slices, voxel_size=volume.voxel_size, origin=np.array(volume.origin)
    )


def restack(dataset: SliceDataset) -> np.ndarray:
    """Reassemble the 3D array from its slices, bit for bit."""
    if len(dataset.slices) == 0:
        raise DegenerateGeometryError("dataset has no slices")
    stack_axis = 1 if dataset.axis == AXIS_XZ else 0
    return np.stack(dataset.slices, axis=stack_axis)


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
    seed: int = 0

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


def render_pseudo_ct(volume: LabelVolume, params: RenderParams) -> GrayVolume:
    """Render a label volume into a noisy pseudo-CT intensity volume.

    Deterministic for a given (volume, params) pair: the random field
    is seeded by ``params.seed`` only.  The volume is rendered in slabs
    of ``RENDER_SLAB`` x-planes, so the float64 working set is one slab
    beside the float32 result.  The slabs draw their noise in turn from
    one generator in C order, so the noise stream equals one
    full-volume draw.
    """
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

    rng = np.random.default_rng(params.seed)
    out = np.empty(volume.dims, dtype=np.float32)
    for x0 in range(0, nx, RENDER_SLAB):
        xsl = slice(x0, x0 + RENDER_SLAB)
        labels = volume.data[xsl]
        g = np.full(labels.shape, params.matrix_level, dtype=np.float64)
        np.copyto(g, warp_level, where=np.isin(labels, warp_ids))
        np.copyto(g, weft_level[xsl], where=np.isin(labels, weft_ids))
        if ring_term is not None:
            g += ring_term[xsl]
        g += rng.normal(0.0, params.noise_sigma, size=g.shape)
        np.clip(g, 0.0, 1.0, out=g)
        out[xsl] = g
    return GrayVolume(data=out, voxel_size=vs, origin=np.array(volume.origin))


def _sidecar(volume, kind: str) -> dict:
    meta = {
        "schema": 1,
        "kind": kind,
        "dims": [int(d) for d in volume.dims],
        "dtype": "<u2" if kind == "labels" else "<f4",
        "order": "C",
        "axis_convention": "x warp, y weft, z thickness",
        "voxel_size": float(volume.voxel_size),
        "voxel_size_um": float(volume.voxel_size * DEFAULT_VOXEL_SIZE_UM),
        "origin": [float(v) for v in volume.origin],
    }
    if kind == "labels":
        meta["label_map"] = {str(k): v for k, v in sorted(volume.label_map.items())}
    return meta


def save_volume(volume, base_path) -> tuple[Path, Path]:
    """Write volume data as little-endian raw plus a JSON sidecar.

    ``base_path`` gets the extensions ``.raw`` and ``.json``.  Returns
    the two paths.
    """
    from .storage import atomic_open, atomic_write_text  # deferred: storage imports this module

    base = Path(base_path)
    kind = "labels" if isinstance(volume, LabelVolume) else "gray"
    raw_path = base.with_suffix(".raw")
    json_path = base.with_suffix(".json")
    dtype = "<u2" if kind == "labels" else "<f4"
    raw_path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(raw_path, "wb") as fh:
        volume.data.astype(dtype, copy=False).tofile(fh)
    atomic_write_text(json_path, json.dumps(_sidecar(volume, kind), indent=2, sort_keys=True))
    return raw_path, json_path


def load_volume(base_path):
    """Load a volume written by save_volume; inverse up to bit equality."""
    base = Path(base_path)
    meta = json.loads(base.with_suffix(".json").read_text())
    if meta.get("schema") != 1:
        raise ConfigError(f"unsupported volume schema in {base}.json")
    dims = tuple(meta["dims"])
    data = np.fromfile(base.with_suffix(".raw"), dtype=meta["dtype"]).reshape(dims)
    if meta["kind"] == "labels":
        label_map = {int(k): v for k, v in meta.get("label_map", {}).items()}
        return LabelVolume(
            data=data.astype(np.uint16, copy=False),
            voxel_size=meta["voxel_size"],
            origin=np.array(meta["origin"]),
            label_map=label_map,
        )
    return GrayVolume(
        data=data.astype(np.float32, copy=False),
        voxel_size=meta["voxel_size"],
        origin=np.array(meta["origin"]),
    )
