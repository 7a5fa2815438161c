"""Quantitative checks of reconstructed yarns against a reference model.

Path accuracy uses the symmetric Hausdorff distance between arc-length
resampled centerlines; intra-yarn fiber volume fraction divides total
fiber cross-section by yarn section area, capped at 1 and flagged when
it exceeds the hexagonal packing bound.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, InsufficientDataError
from .geometry import DEFAULT_VOXEL_SIZE_UM, resample_arclength, ring_areas, squared_distances
from .storage import atomic_open, dump_json

# Densest possible circle packing of a plane region.
HEX_PACKING_LIMIT = math.pi / (2.0 * math.sqrt(3.0))

PATH_SAMPLES = 200


def hausdorff(path_a, path_b, n_samples: int = PATH_SAMPLES):
    """Directed and symmetric Hausdorff distances between two paths.

    Both paths are resampled to ``n_samples`` equally spaced points by
    arc length first.  Returns (d_ab, d_ba, d_sym).
    """
    a, b = _resampled([path_a, path_b], n_samples)
    return _hausdorff_points(a, b)


def _resampled(paths, n_samples: int) -> list:
    if n_samples < 2:
        raise ConfigError("n_samples must be at least 2")
    return [resample_arclength(p, n_samples) for p in paths]


def _hausdorff_points(a, b):
    """(d_ab, d_ba, d_sym) between two point sets.  The square root comes
    after the reductions: it is monotone and correctly rounded, so it
    changes no result."""
    d2 = squared_distances(a, b)
    d_ab = math.sqrt(d2.min(axis=1).max())
    d_ba = math.sqrt(d2.min(axis=0).max())
    return d_ab, d_ba, max(d_ab, d_ba)


@dataclass(frozen=True)
class PathMatch:
    family: str
    reference_id: int
    yarn_index: int
    d_forward: float
    d_backward: float
    d_symmetric: float


@dataclass(frozen=True)
class PathReport:
    """Per-yarn path distances plus unmatched leftovers on both sides."""

    matches: tuple
    unmatched_reference: tuple
    unmatched_yarns: tuple
    voxel_size_um: float

    def max_distance(self) -> float:
        return max((m.d_symmetric for m in self.matches), default=float("nan"))

    def to_dict(self) -> dict:
        d = asdict(self)
        for m in d["matches"]:
            m["d_symmetric_um"] = m["d_symmetric"] * self.voxel_size_um
        return d

    def to_text(self) -> str:
        lines = [
            f"{'family':<6} {'ref':>4} {'yarn':>4} {'fwd':>8} {'bwd':>8} {'sym':>8} {'sym um':>9}"
        ]
        for m in self.matches:
            lines.append(
                f"{m.family:<6} {m.reference_id:>4d} {m.yarn_index:>4d} "
                f"{m.d_forward:>8.3f} {m.d_backward:>8.3f} {m.d_symmetric:>8.3f} "
                f"{m.d_symmetric * self.voxel_size_um:>9.2f}"
            )
        if self.unmatched_reference:
            lines.append(f"unmatched reference ids: {list(self.unmatched_reference)}")
        if self.unmatched_yarns:
            lines.append(f"unmatched yarn indices: {list(self.unmatched_yarns)}")
        return "\n".join(lines)


def match_and_assess_paths(
    model,
    yarns,
    n_samples: int = PATH_SAMPLES,
    voxel_size_um: float = DEFAULT_VOXEL_SIZE_UM,
) -> PathReport:
    """Greedy family-wise matching of reconstructed yarns to the model.

    Pairs are taken in order of increasing symmetric Hausdorff distance
    until one side of a family runs out; leftovers are reported, never
    force-matched.  Each path is resampled once, and only when its
    family has paths on both sides.
    """
    yarns = list(yarns)
    matches = []
    used_ref: set = set()
    used_rec: set = set()
    for family in ("warp", "weft"):
        refs = [y for y in model.yarns if y.family == family]
        recs = [(i, y) for i, y in enumerate(yarns) if y.family == family]
        if not refs or not recs:
            continue
        ref_pts = _resampled([y.path for y in refs], n_samples)
        rec_pts = _resampled([y.path for _, y in recs], n_samples)
        pairs = []
        for ref, a in zip(refs, ref_pts):
            for (i, _), b in zip(recs, rec_pts):
                d_ab, d_ba, d_sym = _hausdorff_points(a, b)
                pairs.append((d_sym, d_ab, d_ba, ref.yarn_id, i))
        pairs.sort(key=lambda p: (p[0], p[3], p[4]))
        for d_sym, d_ab, d_ba, ref_id, i in pairs:
            if ref_id in used_ref or i in used_rec:
                continue
            used_ref.add(ref_id)
            used_rec.add(i)
            matches.append(
                PathMatch(
                    family=family,
                    reference_id=ref_id,
                    yarn_index=i,
                    d_forward=d_ab,
                    d_backward=d_ba,
                    d_symmetric=d_sym,
                )
            )
    matches.sort(key=lambda m: (m.family, m.reference_id))
    unmatched_ref = tuple(y.yarn_id for y in model.yarns if y.yarn_id not in used_ref)
    unmatched_rec = tuple(i for i in range(len(yarns)) if i not in used_rec)
    return PathReport(
        matches=tuple(matches),
        unmatched_reference=unmatched_ref,
        unmatched_yarns=unmatched_rec,
        voxel_size_um=voxel_size_um,
    )


def _raw_vf(area, fibers):
    """n * pi * r^2 / A for each section area A."""
    if np.any(area <= 0):
        raise InsufficientDataError("section area must be positive")
    return fibers.fibers_per_yarn * math.pi * fibers.fiber_radius**2 / area


@dataclass(frozen=True)
class VfReport:
    """Distribution of per-section Vf over a set of yarns."""

    per_yarn_mean: tuple
    values: np.ndarray
    mean: float
    std: float
    n_capped: int
    n_over_hex_limit: int
    bin_edges: np.ndarray
    bin_counts: np.ndarray

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "n_sections": int(len(self.values)),
            "n_capped": self.n_capped,
            "n_over_hex_limit": self.n_over_hex_limit,
            "hex_packing_limit": HEX_PACKING_LIMIT,
            "per_yarn_mean": list(self.per_yarn_mean),
            "bin_edges": self.bin_edges.tolist(),
            "bin_counts": self.bin_counts.tolist(),
        }

    def to_text(self) -> str:
        lines = [
            f"sections {len(self.values)}  mean {self.mean:.4f}  std {self.std:.4f}"
            f"  capped {self.n_capped}  over hex limit {self.n_over_hex_limit}"
        ]
        width = 40
        peak = self.bin_counts.max() if self.bin_counts.size else 0
        for lo, hi, c in zip(self.bin_edges[:-1], self.bin_edges[1:], self.bin_counts):
            bar = "#" * (round(width * c / peak) if peak else 0)
            lines.append(f"[{lo:.2f}, {hi:.2f}) {c:>6d} {bar}")
        return "\n".join(lines)


def vf_distribution(yarns, fibers, n_bins: int = 20) -> VfReport:
    """Per-section Vf histogram over ``yarns`` (model or reconstructed).

    Vf = n * pi * r^2 / A, clamped to 1.  ``n_capped`` counts clamps,
    ``n_over_hex_limit`` values beyond the hexagonal packing bound
    pi / (2 sqrt 3); both mark sections implausibly small for their
    fiber count.
    """
    if n_bins < 1:
        raise ConfigError("n_bins must be positive")
    yarns = list(yarns)
    if not yarns:
        raise InsufficientDataError("no yarns to assess")
    values = []
    per_yarn = []
    n_capped = 0
    n_over = 0
    for y in yarns:
        raw = _raw_vf(ring_areas(y.sections.rings), fibers)
        vals = np.minimum(1.0, raw)
        n_capped += int(np.count_nonzero(raw > 1.0))
        n_over += int(np.count_nonzero(raw > HEX_PACKING_LIMIT))
        values.append(vals)
        per_yarn.append(float(np.mean(vals)))
    values = np.concatenate(values)
    counts, edges = np.histogram(values, bins=n_bins, range=(0.0, 1.0))
    return VfReport(
        per_yarn_mean=tuple(per_yarn),
        values=values,
        mean=float(values.mean()),
        std=float(values.std()),
        n_capped=int(n_capped),
        n_over_hex_limit=int(n_over),
        bin_edges=edges,
        bin_counts=counts,
    )


def write_report(path_report: PathReport, vf_report, out_json, out_text) -> None:
    """Write the combined validation report as JSON and aligned text."""
    payload = {"schema": 1, "kind": "validation_report", "paths": path_report.to_dict()}
    text = ["# path accuracy", path_report.to_text()]
    if vf_report is not None:
        payload["fiber_volume_fraction"] = vf_report.to_dict()
        text += ["", "# intra-yarn fiber volume fraction", vf_report.to_text()]
    dump_json(payload, out_json)
    with atomic_open(out_text) as fh:
        fh.write("\n".join(text) + "\n")
