"""Synthetic ply-to-ply angle-interlock textile generation.

Warp yarns run along x and undulate through the thickness, weft yarns
run along y in stacked layers.  Yarn columns alternate their yarn count
according to repeating sequences, e.g. 4/3 for warp and 5/4 for weft.
All lengths are voxel units.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateGeometryError, InfeasibleWeaveError
from .geometry import (
    Box,
    BSplineCurve,
    Sections,
    bspline_eval,
    bspline_fit,
    cumulative_length,
    ellipse_sections,
    fit_planes,
    plane_frames,
    ring_areas,
)

# A section center must sit on its yarn path within this distance.
PATH_TOL = 1.0

FAMILIES = ("warp", "weft")

# Yarn ids are painted into a uint16 label grid, 0 being the background.
MAX_YARN_ID = int(np.iinfo(np.uint16).max)


def _is_number(v) -> bool:
    """``v`` is a real number, not a bool or a string."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_count(v) -> bool:
    """``v`` is a whole number of at least 1: an integer or an integral float."""
    return _is_number(v) and (isinstance(v, numbers.Integral) or float(v).is_integer()) and v >= 1


@dataclass(frozen=True)
class FiberSpec:
    """Filament content of a yarn: count and single-fiber radius."""

    fiber_radius: float
    fibers_per_yarn: int

    def __post_init__(self):
        if not (self.fiber_radius > 0 and math.isfinite(self.fiber_radius)):
            raise ConfigError("fiber_radius must be positive and finite")
        n = self.fibers_per_yarn
        if not 1 <= n <= sys.float_info.max:
            raise ConfigError("fibers_per_yarn must be an integer in [1, float max]")


@dataclass(frozen=True)
class WeaveSpec:
    """Parameters of a synthetic angle-interlock weave.

    ``warp_sequence`` and ``weft_sequence`` give the per-column yarn
    counts, cycled across the columns.  ``yarn_spacing`` is the column
    pitch (x pitch of weft columns, y pitch of warp columns).  The
    layer pitch through the thickness is ``4 * crimp_amplitude``, which
    keeps warp crests centered between weft layers for any mix of odd
    and even column counts.
    """

    n_warp_columns: int
    n_weft_columns: int
    warp_sequence: tuple[int, ...]
    weft_sequence: tuple[int, ...]
    yarn_spacing: tuple[float, float]
    crimp_amplitude: float
    ellipse_a: float
    ellipse_b: float

    def __post_init__(self):
        if self.n_warp_columns < 1 or self.n_weft_columns < 1:
            raise ConfigError("need at least one column per family")
        for name, seq in (("warp_sequence", self.warp_sequence), ("weft_sequence", self.weft_sequence)):
            seq = tuple(seq)
            if len(seq) == 0 or not all(map(_is_count, seq)):
                raise ConfigError(f"{name} must be a non-empty tuple of positive counts")
            object.__setattr__(self, name, tuple(map(int, seq)))
        if not all(map(_is_number, self.yarn_spacing)):
            raise ConfigError("yarn_spacing must hold numbers")
        sx, sy = (float(v) for v in self.yarn_spacing)
        if not (sx > 0 and sy > 0):
            raise ConfigError("yarn_spacing must be positive")
        object.__setattr__(self, "yarn_spacing", (sx, sy))
        if self.crimp_amplitude < 0:
            raise ConfigError("crimp_amplitude must be non-negative")
        if not (self.ellipse_a >= self.ellipse_b > 0):
            raise ConfigError("ellipse axes need a >= b > 0")

    @property
    def layer_pitch(self) -> float:
        if self.crimp_amplitude > 0:
            return 4.0 * self.crimp_amplitude
        return 4.0 * self.ellipse_b

    def column_counts(self, family: str) -> list[int]:
        if family == "warp":
            seq, cols = self.warp_sequence, self.n_warp_columns
        else:
            seq, cols = self.weft_sequence, self.n_weft_columns
        return [seq[j % len(seq)] for j in range(cols)]


@dataclass(frozen=True)
class YarnModel:
    """One yarn: a B-spline axis and ordered cross sections along it."""

    yarn_id: int
    family: str
    path: BSplineCurve
    sections: Sections

    def __post_init__(self):
        if self.yarn_id < 1:
            raise ConfigError("yarn ids start at 1; 0 is the background label")
        if self.yarn_id > MAX_YARN_ID:
            raise ConfigError(f"yarn id {self.yarn_id} is past {MAX_YARN_ID}, the largest uint16 label")
        if self.family not in FAMILIES:
            raise ConfigError(f"family must be one of {FAMILIES}")
        if len(self.sections) < 2:
            raise DegenerateGeometryError("a yarn needs at least 2 sections")
        stations = self.sections.stations
        if np.any(np.diff(stations) <= 0):
            raise DegenerateGeometryError("section stations must strictly increase")
        total = stations[-1] - stations[0]
        if total <= 0:
            raise DegenerateGeometryError("yarn has zero arc length")
        params = (stations - stations[0]) / total
        on_path = bspline_eval(self.path, params)
        if np.linalg.norm(on_path - self.sections.centers, axis=1).max() > PATH_TOL:
            raise DegenerateGeometryError("section centers stray from the yarn path")


@dataclass(frozen=True)
class TextileModel:
    """A full textile: yarns, bounding box, thickness and provenance."""

    yarns: tuple[YarnModel, ...]
    bbox: Box
    thickness: float
    spec: WeaveSpec
    fibers: FiberSpec | None = None

    def __post_init__(self):
        yarns = tuple(self.yarns)
        if len(yarns) == 0:
            raise DegenerateGeometryError("model has no yarns")
        ids = [y.yarn_id for y in yarns]
        if len(set(ids)) != len(ids):
            raise ConfigError("yarn ids must be unique")
        if not (self.thickness > 0):
            raise ConfigError("thickness must be positive")
        z_extent = self.bbox.extent[2]
        if abs(z_extent - self.thickness) > 1e-6:
            raise ConfigError("thickness must match the bbox z extent")
        for yarn in yarns:
            if not np.all(self.bbox.contains(yarn.sections.rings.reshape(-1, 3))):
                raise DegenerateGeometryError(
                    f"yarn {yarn.yarn_id} has keypoints outside the bbox"
                )
        object.__setattr__(self, "yarns", yarns)

    @property
    def mid_plane_z(self) -> float:
        return float(0.5 * (self.bbox.lo[2] + self.bbox.hi[2]))

    def family(self, family: str) -> tuple[YarnModel, ...]:
        return tuple(y for y in self.yarns if y.family == family)


def _keypoints(yarns) -> np.ndarray:
    """Every ring point of ``yarns``, shape (n, 3)."""
    return np.concatenate([y.sections.rings.reshape(-1, 3) for y in yarns])


def _build_yarn(yarn_id, family, centers, tangents, a, b, orientation) -> YarnModel:
    path = bspline_fit(centers, degree=3, n_controls=len(centers))
    sections = ellipse_sections(centers, tangents, a, b, orientation, cumulative_length(centers))
    return YarnModel(yarn_id=yarn_id, family=family, path=path, sections=sections)


def _check_same_family_spacing(spec: WeaveSpec) -> None:
    # Same-family yarn axes may not come closer than ellipse_b; with the
    # regular grid used here the closest approach is the smallest pitch.
    sx, sy = spec.yarn_spacing
    pitch = spec.layer_pitch
    if spec.crimp_amplitude > 0:
        # Same-column warp yarns swing toward each other by up to
        # 2 * crimp_amplitude at opposite phase.
        warp_gap = min(sy, pitch - 2.0 * spec.crimp_amplitude)
    else:
        warp_gap = min(sy, pitch)
    weft_gap = min(sx, pitch)
    if max(spec.column_counts("warp")) == 1:
        warp_gap = sy
    if max(spec.column_counts("weft")) == 1:
        weft_gap = sx
    gap = min(warp_gap, weft_gap)
    if gap < spec.ellipse_b:
        raise InfeasibleWeaveError(
            f"same-family yarn axes come within {gap:.3g} of each other, "
            f"closer than ellipse_b={spec.ellipse_b:.3g}"
        )


def generate_interlock(
    spec: WeaveSpec,
    n_sections_warp: int = 38,
    n_sections_weft: int = 49,
    z_margin: float = 16.0,
) -> TextileModel:
    """Generate a synthetic angle-interlock textile model.

    Warp paths follow a cosine profile through the thickness with
    crests at the weft column positions, the sign alternating per
    column and per layer.  Weft yarns are straight.  Yarn ids are
    assigned in generation order, warp first, starting at 1.

    Parameters
    ----------
    spec : weave description
    n_sections_warp, n_sections_weft : cross sections per yarn
    z_margin : empty space above and below the yarn stack
    """
    if n_sections_warp < 4 or n_sections_weft < 4:
        raise ConfigError("need at least 4 sections per yarn")
    if z_margin < 0:
        raise ConfigError("z_margin must be non-negative")
    _check_same_family_spacing(spec)

    sx, sy = spec.yarn_spacing
    a, b = spec.ellipse_a, spec.ellipse_b
    amp = spec.crimp_amplitude
    pitch = spec.layer_pitch
    lx = spec.n_weft_columns * sx
    ly = spec.n_warp_columns * sy

    warp_counts = spec.column_counts("warp")
    weft_counts = spec.column_counts("weft")
    half_span_warp = (max(warp_counts) - 1) / 2.0 * pitch + amp + b
    half_span_weft = (max(weft_counts) - 1) / 2.0 * pitch + b
    half_span = max(half_span_warp, half_span_weft)
    z_mid = half_span + z_margin
    thickness = 2.0 * z_mid

    x_cols = (np.arange(spec.n_weft_columns) + 0.5) * sx
    y_cols = (np.arange(spec.n_warp_columns) + 0.5) * sy

    yarns: list[YarnModel] = []
    yarn_id = 1

    for j, y in enumerate(y_cols):
        w = warp_counts[j]
        xs = np.linspace(0.0, lx, n_sections_warp)
        for m in range(w):
            mean_z = z_mid + (m - (w - 1) / 2.0) * pitch
            sign = 1.0 if (j + m) % 2 == 0 else -1.0
            phase = np.pi * (xs - x_cols[0]) / sx
            zs = mean_z + sign * amp * np.cos(phase)
            dz = -sign * amp * (np.pi / sx) * np.sin(phase)
            centers = np.column_stack([xs, np.full_like(xs, y), zs])
            tangents = np.column_stack([np.ones_like(xs), np.zeros_like(xs), dz])
            yarns.append(
                _build_yarn(yarn_id, "warp", centers, tangents, a, b, orientation=[0, 1, 0])
            )
            yarn_id += 1

    for i, x in enumerate(x_cols):
        c = weft_counts[i]
        ys = np.linspace(0.0, ly, n_sections_weft)
        for layer in range(c):
            z = z_mid + (layer - (c - 1) / 2.0) * pitch
            centers = np.column_stack([np.full_like(ys, x), ys, np.full_like(ys, z)])
            tangents = np.tile([0.0, 1.0, 0.0], (len(ys), 1))
            yarns.append(
                _build_yarn(yarn_id, "weft", centers, tangents, a, b, orientation=[1, 0, 0])
            )
            yarn_id += 1

    # Tilted end rings can poke past the nominal column extents; grow
    # the box in x/y so every keypoint is inside.  z keeps its margins.
    kp = _keypoints(yarns)
    lo = np.minimum([0.0, 0.0, 0.0], np.append(kp[:, :2].min(axis=0), 0.0))
    hi = np.maximum([lx, ly, thickness], np.append(kp[:, :2].max(axis=0), thickness))
    bbox = Box(lo, hi)
    return TextileModel(yarns=tuple(yarns), bbox=bbox, thickness=thickness, spec=spec)


def _scale_model(model: TextileModel, planes: list, thickness_k: float) -> TextileModel:
    """Flatten every section: centers follow the global z scale, rings
    contract by f along their in-plane vertical axis and widen by 1/f
    horizontally, which preserves their areas exactly.  ``planes`` holds
    per yarn the section centers, the frames (e1, e2) of the rings'
    best-fit planes and the ring coordinates (alpha, beta) in them."""
    z_mid = model.mid_plane_z
    f = thickness_k / model.thickness
    yarns = []
    for yarn, (centers, e1, e2, alpha, beta) in zip(model.yarns, planes):
        ctrl = np.array(yarn.path.control_points)
        ctrl[:, 2] = z_mid + f * (ctrl[:, 2] - z_mid)
        path = BSplineCurve(yarn.path.degree, ctrl, yarn.path.knots)
        centers = centers.copy()
        centers[:, 2] = z_mid + f * (centers[:, 2] - z_mid)
        # Stations shrink with the path; rebuild them from the scaled centers.
        stations = cumulative_length(centers)
        rings = centers[:, None] + (alpha / f) * e1[:, None] + (beta * f) * e2[:, None]
        yarns.append(YarnModel(yarn.yarn_id, yarn.family, path, Sections(rings, centers, stations)))

    lo = np.array(model.bbox.lo)
    hi = np.array(model.bbox.hi)
    lo[2] = z_mid - thickness_k / 2.0
    hi[2] = z_mid + thickness_k / 2.0
    # Widened sections may poke past the original x/y walls.
    kp = _keypoints(yarns)
    lo[:2] = np.minimum(lo[:2], kp[:, :2].min(axis=0))
    hi[:2] = np.maximum(hi[:2], kp[:, :2].max(axis=0))
    return TextileModel(
        yarns=tuple(yarns),
        bbox=Box(lo, hi),
        thickness=thickness_k,
        spec=model.spec,
        fibers=model.fibers,
    )


def compaction_sequence(
    model: TextileModel, thickness_final: float, n_steps: int = 12
) -> tuple[TextileModel, ...]:
    """Kinematic compaction from the initial thickness to a target.

    Step k of n has thickness H_0 - k * (H_0 - H_final) / n; geometry
    is scaled affinely in z about the fixed mid-plane and section rings
    flatten with exact area preservation.  Returns n + 1 models, the
    input first.
    """
    if n_steps < 1:
        raise ConfigError("n_steps must be at least 1")
    h0 = model.thickness
    if not (0 < thickness_final <= h0):
        raise ConfigError("target thickness must lie in (0, initial thickness]")
    # Every step scales the input model, so its section planes are shared.
    planes = []
    for yarn in model.yarns:
        rings, centers = yarn.sections.rings, yarn.sections.centers
        e1, e2 = plane_frames(fit_planes(rings)[1])
        rel = rings - centers[:, None]
        planes.append((centers, e1, e2, rel @ e1[:, :, None], rel @ e2[:, :, None]))
    out = [model]
    for k in range(1, n_steps + 1):
        hk = h0 - k * (h0 - thickness_final) / n_steps
        out.append(_scale_model(model, planes, hk))
    return tuple(out)


def fiber_spec_for_target_vf(
    model: TextileModel, target_vf: float, fibers_per_yarn: int = 1000
) -> FiberSpec:
    """Fiber radius that makes the mean intra-yarn fiber volume fraction
    of the model's sections equal to ``target_vf``."""
    if not (0 < target_vf <= 1):
        raise ConfigError("target_vf must lie in (0, 1]")
    areas = np.concatenate([ring_areas(y.sections.rings) for y in model.yarns])
    mean_area = float(np.mean(areas))
    radius = math.sqrt(target_vf * mean_area / (math.pi * fibers_per_yarn))
    return FiberSpec(fiber_radius=radius, fibers_per_yarn=fibers_per_yarn)


def with_fibers(model: TextileModel, fibers: FiberSpec) -> TextileModel:
    return replace(model, fibers=fibers)
