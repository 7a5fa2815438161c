"""Pipeline configuration, the stage functions, and the run manifest.

Stages keep fixed indices whether or not they run: 1 generate,
2 compact, 3 voxelize, 4 render, 5 segment, 6 degrade, 7 reconstruct,
8 validate.  Each stage is one function over a ``RunContext``: it reads
what earlier stages passed on, writes its named artifacts and returns a
one-line summary.  ``run_pipeline`` runs every enabled stage in order;
each ``textile`` subcommand runs one, with the context filled from its
input files.  In ``run_pipeline`` a failure inside stage k surfaces as
StageError with that index so the CLI can exit with 10 + k.  Every
stage derives its own RNG seed from the global seed, and the manifest
with content digests of all artifacts is written last.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, StageError
from .geometry import DEFAULT_VOXEL_SIZE_UM, Box
from .reconstruct import (
    build_composite_mesh,
    build_surface_mesh,
    build_volume_mesh,
    reconstruct_yarns,
)
from .meshfiles import write_obj, write_vtk
from .schema import build
from .segmenter import (
    DegradeConfig,
    degrade,
    detect_batch,
    filter_transverse,
    read_detections,
    write_detections,
)
from .storage import dump_json, read_json, save_model, save_yarns, sha256_file
from .synthgen import (
    TextileModel,
    WeaveSpec,
    compaction_sequence,
    fiber_spec_for_target_vf,
    generate_interlock,
    with_fibers,
)
from .validate import match_and_assess_paths, vf_distribution, write_report
from .voxelizer import (
    DEFAULT_VOXEL_BUDGET,
    LabelVolume,
    RenderParams,
    render_pseudo_ct,
    save_volume,
    slice_count,
    voxelize,
)

log = logging.getLogger(__name__)

def stage_index(name: str) -> int:
    """Fixed 1-based index of a stage name."""
    try:
        return STAGES.index(name) + 1
    except ValueError:
        raise ConfigError(f"unknown stage {name!r}") from None


def stage_seed(seed: int, stage: str) -> int:
    """Per-stage RNG seed derived from the global seed by hashing."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


# The config sections check, when the config loads, the ranges that
# their stages reject whatever the data; the stages keep their checks.


@dataclass(frozen=True)
class CompactionConfig:
    enabled: bool = False
    thickness_final: float | None = None
    n_steps: int = 12

    def __post_init__(self):
        if not self.n_steps >= 1:
            raise ConfigError("n_steps must be at least 1")
        if self.thickness_final is not None and not self.thickness_final > 0:
            raise ConfigError("thickness_final must be null or positive")
        if self.enabled and self.thickness_final is None:
            raise ConfigError("thickness_final is required when compaction is enabled")


@dataclass(frozen=True)
class ReconstructConfig:
    d_gate: float | None = None  # None: 1.5 * max(ellipse_a, ellipse_b) px
    min_length: int = 4
    max_gap: int = 10
    min_span: float = 0.5  # tracks must cover this fraction of slices
    max_aspect: float = 6.0
    min_area: int = 12
    n_controls: int | None = None
    composite_cell: float = 4.0
    write_meshes: bool = True

    def __post_init__(self):
        if self.d_gate is not None and not self.d_gate > 0:
            raise ConfigError("d_gate must be null or positive")
        if not self.min_length >= 2:
            raise ConfigError("min_length must be at least 2")
        if not self.max_gap >= 1:
            raise ConfigError("max_gap must be at least 1")
        if not 0.0 <= self.min_span <= 1.0:
            raise ConfigError("min_span must be in [0, 1]")
        if not self.max_aspect > 1.0:
            raise ConfigError("max_aspect must exceed 1")
        if not self.composite_cell > 0:
            raise ConfigError("composite_cell must be positive")
        if self.n_controls is not None and not self.n_controls >= 4:
            raise ConfigError("n_controls must be null or at least 4")


@dataclass(frozen=True)
class ValidateConfig:
    n_samples: int = 200
    n_bins: int = 20
    voxel_size_um: float = DEFAULT_VOXEL_SIZE_UM

    def __post_init__(self):
        if not self.n_samples >= 2:
            raise ConfigError("n_samples must be at least 2")
        if not self.n_bins >= 1:
            raise ConfigError("n_bins must be positive")
        if not 0 < self.voxel_size_um <= sys.float_info.max:
            raise ConfigError("voxel_size_um must be a positive finite number")


def _default_weave() -> WeaveSpec:
    return WeaveSpec(
        n_warp_columns=4,
        n_weft_columns=4,
        warp_sequence=(2,),
        weft_sequence=(2,),
        yarn_spacing=(40.0, 40.0),
        crimp_amplitude=7.0,
        ellipse_a=6.0,
        ellipse_b=3.0,
    )


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    weave: WeaveSpec = field(default_factory=_default_weave)
    n_sections_warp: int = 38
    n_sections_weft: int = 49
    z_margin: float = 16.0
    target_vf: float | None = 0.6
    fibers_per_yarn: int = 1000
    voxel_size: float = 1.0
    voxel_budget: int = DEFAULT_VOXEL_BUDGET
    render: RenderParams = field(default_factory=RenderParams)
    degrade: DegradeConfig = field(default_factory=DegradeConfig)
    compaction: CompactionConfig = field(default_factory=CompactionConfig)
    reconstruct: ReconstructConfig = field(default_factory=ReconstructConfig)
    validate: ValidateConfig = field(default_factory=ValidateConfig)

    def __post_init__(self):
        # The ranges that generate and voxelize enforce, checked at load.
        for name, low in (
            ("n_sections_warp", 4),
            ("n_sections_weft", 4),
            ("fibers_per_yarn", 1),
            ("voxel_budget", 1),
        ):
            if not getattr(self, name) >= low:
                raise ConfigError(f"{name} must be an integer of at least {low}")
        if not 0 <= self.z_margin <= sys.float_info.max:
            raise ConfigError("z_margin must be a non-negative finite number")
        if self.target_vf is not None and not 0 < self.target_vf <= 1:
            raise ConfigError("target_vf must be null or lie in (0, 1]")
        if not 0 < self.voxel_size <= sys.float_info.max:
            raise ConfigError("voxel_size must be a positive finite number")

    def gate(self) -> float:
        if self.reconstruct.d_gate is not None:
            return self.reconstruct.d_gate
        return 1.5 * max(self.weave.ellipse_a, self.weave.ellipse_b) / self.voxel_size

    def to_dict(self) -> dict:
        """The fields as nested JSON values, tuples as lists."""
        return json.loads(json.dumps(dataclasses.asdict(self)))


def config_from_dict(data: dict) -> PipelineConfig:
    """Build a config from a plain dict; unknown keys are errors."""
    return build(PipelineConfig, data)


def load_config(path) -> PipelineConfig:
    """The config in the JSON file ``path``; a bad config raises
    ConfigError naming the file."""
    data = read_json(path)
    try:
        return config_from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def verify_manifest(path) -> list:
    """Re-hash the files listed in a manifest; returns mismatch names."""
    d = read_json(path)
    base = Path(path).parent
    bad = []
    for entry in d.get("files", []):
        p = base / entry["path"]
        if not p.exists() or sha256_file(p) != entry["sha256"]:
            bad.append(entry["path"])
    return bad


@dataclass
class RunContext:
    """One run's output directory and what its stages pass on.

    Each stage reads the fields that earlier stages filled and fills its
    own: ``model`` (generate, compact), ``labels`` and their grid ``box``
    (voxelize), ``detections`` keyed by file stem (segment, degrade),
    ``yarns`` (reconstruct).  A subcommand
    fills the fields its stage reads from input files instead; ``axes``
    limits segment to some slice axes.

    Working set: the label grid is the one field that grows with the
    voxel count, and ``run_pipeline`` drops it as soon as segment, its
    last reader, is done; ``box`` keeps the grid extent that reconstruct
    needs.  Render and the detection writer hold one bounded block at a
    time (``voxelizer.RENDER_BLOCK``, ``segmenter.WRITE_BLOCK``).
    """

    config: PipelineConfig
    out: Path
    model: TextileModel | None = None
    labels: LabelVolume | None = None
    box: Box | None = None
    detections: dict = field(default_factory=dict)
    yarns: list | None = None
    axes: tuple = ("yz", "xz")
    stage_records: list = field(default_factory=list)
    artifacts: list = field(default_factory=list)

    def __post_init__(self):
        self.out = Path(self.out)
        self.out.mkdir(parents=True, exist_ok=True)

    def path(self, name: str) -> Path:
        """``out / name``, listed as an artifact of the running stage."""
        p = self.out / name
        self.artifacts.append(p)
        return p

    def run_stage(self, name: str) -> None:
        k = stage_index(name)
        t0 = time.perf_counter()
        before = len(self.artifacts)
        try:
            summary = STAGE_FUNCTIONS[name](self)
        except Exception as exc:
            raise StageError(k, name, exc) from exc
        seconds = round(time.perf_counter() - t0, 6)
        self.stage_records.append(
            {
                "name": name,
                "index": k,
                "seconds": seconds,
                "artifacts": [str(p.relative_to(self.out)) for p in self.artifacts[before:]],
            }
        )
        log.info("stage %d %s done in %.3fs: %s", k, name, seconds, summary)

    def manifest(self) -> dict:
        """The run's config, stage records and artifact digests."""
        return {
            "schema": 1,
            "kind": "run_manifest",
            "package_version": __version__,
            "created": datetime.now(timezone.utc).isoformat(),
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "stages": self.stage_records,
            "files": [
                {
                    "path": str(p.relative_to(self.out)),
                    "bytes": p.stat().st_size,
                    "sha256": sha256_file(p),
                }
                for p in sorted(set(self.artifacts))
            ],
        }


def grid_box(origin, dims, voxel_size: float) -> Box:
    """Box covered by a voxel grid."""
    lo = np.asarray(origin, dtype=float)
    return Box(lo=lo, hi=lo + np.array(dims) * voxel_size)


def _generate(run: RunContext) -> str:
    cfg = run.config
    model = generate_interlock(
        cfg.weave,
        n_sections_warp=cfg.n_sections_warp,
        n_sections_weft=cfg.n_sections_weft,
        z_margin=cfg.z_margin,
    )
    if cfg.target_vf is not None:
        fibers = fiber_spec_for_target_vf(model, cfg.target_vf, cfg.fibers_per_yarn)
        model = with_fibers(model, fibers)
    save_model(model, run.path("model.json"))
    run.model = model
    return f"wrote model.json: {len(model.yarns)} yarns, thickness {model.thickness:g}"


def _compact(run: RunContext) -> str:
    c = run.config.compaction
    if c.thickness_final is None:
        raise ConfigError("compaction.thickness_final is required")
    seq = compaction_sequence(run.model, c.thickness_final, c.n_steps)
    for k, m in enumerate(seq):
        save_model(m, run.path(f"model_{k:02d}.json"))
    dump_json(
        {
            "schema": 1,
            "kind": "compaction_schedule",
            "thickness": [m.thickness for m in seq],
        },
        run.path("compaction.json"),
    )
    run.model = seq[-1]
    return f"wrote {len(seq)} models: thickness {seq[0].thickness:g} -> {seq[-1].thickness:g}"


def _voxelize(run: RunContext) -> str:
    cfg = run.config
    vol = voxelize(run.model, voxel_size=cfg.voxel_size, budget=cfg.voxel_budget)
    um = cfg.validate.voxel_size_um
    run.artifacts.extend(save_volume(vol, run.out / "labels", um_per_unit=um))
    run.labels = vol
    run.box = grid_box(vol.origin, vol.dims, vol.voxel_size)
    return f"wrote labels.raw and labels.json: dims {vol.dims}"


def _render(run: RunContext) -> str:
    cfg = run.config
    seed = stage_seed(cfg.seed, "render")
    base, um = run.out / "pseudo_ct", cfg.validate.voxel_size_um
    run.artifacts.extend(render_pseudo_ct(run.labels, cfg.render, seed, base, um_per_unit=um))
    return "wrote pseudo_ct.raw and pseudo_ct.json"


def _segment(run: RunContext) -> str:
    cfg = run.config
    run.detections = {}
    notes = []
    for axis in run.axes:
        ds = detect_batch(run.labels, axis, min_area=cfg.reconstruct.min_area)
        ds = filter_transverse(ds, max_aspect=cfg.reconstruct.max_aspect)
        write_detections(ds, run.path(f"detections_{axis}.jsonl"))
        run.detections[f"detections_{axis}"] = ds
        notes.append(f"detections_{axis}.jsonl: {ds.count()} detections over {ds.n_slices} slices")
    return "wrote " + "; ".join(notes)


def _degrade(run: RunContext) -> str:
    cfg = run.config
    degraded = {}
    notes = []
    for stem, ds in run.detections.items():
        dd = degrade(ds, cfg.degrade, stage_seed(cfg.seed, f"degrade:{ds.axis}"))
        write_detections(dd, run.path(f"{stem}_degraded.jsonl"))
        degraded[f"{stem}_degraded"] = dd
        notes.append(f"{stem}_degraded.jsonl: kept {dd.count()} of {ds.count()} detections")
    run.detections = degraded
    return "wrote " + "; ".join(notes)


def _reconstruct(run: RunContext) -> str:
    cfg = run.config
    dsets = list(run.detections.values())
    yarns, _ = reconstruct_yarns(
        dsets,
        d_gate=cfg.gate(),
        min_length=cfg.reconstruct.min_length,
        max_gap=cfg.reconstruct.max_gap,
        min_span=cfg.reconstruct.min_span,
        n_controls=cfg.reconstruct.n_controls,
    )
    run.yarns = yarns
    save_yarns(yarns, run.path("yarns.json"), voxel_size=dsets[0].voxel_size, origin=dsets[0].origin)
    if not cfg.reconstruct.write_meshes:
        return f"wrote yarns.json: {len(yarns)} yarns"
    (run.out / "meshes").mkdir(exist_ok=True)
    for i, y in enumerate(yarns):
        write_obj(build_surface_mesh(y), run.path(f"meshes/yarn_{i:03d}.obj"))
        write_vtk(
            build_volume_mesh(y, label=i + 1),
            run.path(f"meshes/yarn_{i:03d}.vtk"),
            title=f"yarn {i}",
        )
    box = run.box
    if box is None:
        centers = np.concatenate([y.sections.centers for y in yarns])
        box = Box.around(centers, margin=4 * cfg.reconstruct.composite_cell)
    comp = build_composite_mesh(
        yarns,
        box,
        cell_size=cfg.reconstruct.composite_cell,
        budget=cfg.voxel_budget,
    )
    write_vtk(comp, run.path("meshes/composite.vtk"), title="voxel composite")
    return f"wrote yarns.json and meshes/: {len(yarns)} yarns"


def _validate(run: RunContext) -> str:
    cfg = run.config
    model = run.model
    report = match_and_assess_paths(
        model,
        run.yarns,
        n_samples=cfg.validate.n_samples,
        voxel_size_um=cfg.validate.voxel_size_um,
    )
    vf = None
    if model.fibers is not None:
        vf = vf_distribution(run.yarns, model.fibers, n_bins=cfg.validate.n_bins)
    write_report(report, vf, run.path("report.json"), run.path("report.txt"))
    return (
        f"wrote report.json: {len(report.matches)} matches, "
        f"max symmetric Hausdorff {report.max_distance():.3f} voxels"
    )


STAGE_FUNCTIONS = {
    "generate": _generate,
    "compact": _compact,
    "voxelize": _voxelize,
    "render": _render,
    "segment": _segment,
    "degrade": _degrade,
    "reconstruct": _reconstruct,
    "validate": _validate,
}
STAGES = tuple(STAGE_FUNCTIONS)  # stage k is STAGES[k - 1]


def run_pipeline(config: PipelineConfig, out_dir) -> dict:
    """Run every enabled stage and write the manifest last.

    Artifacts land in ``out_dir``: model.json, optional compaction
    models, labels/pseudo-CT volumes, per-axis detection files, the
    reconstructed yarns, meshes under meshes/, and the validation
    report.  Returns the manifest dict, also written as manifest.json.
    """
    run = RunContext(config, out_dir)
    # A manifest left by an earlier run must not outlive a failed rerun.
    (run.out / "manifest.json").unlink(missing_ok=True)
    enabled = {"compact": config.compaction.enabled, "degrade": config.degrade.enabled}
    for name in STAGES:
        if enabled.get(name, True):
            run.run_stage(name)
        if name == "segment":
            run.labels = None  # no later stage reads the grid
    manifest = run.manifest()
    dump_json(manifest, run.out / "manifest.json")
    return manifest


def read_detection_pair(paths, labels_meta=None):
    """Load detection files for reconstruction outside the pipeline.

    ``labels_meta`` (a labels sidecar dict) supplies voxel size, origin
    and exact slice counts; without it both default and trailing empty
    slices are inferred from the records.
    """
    if labels_meta is None:
        return [read_detections(p) for p in paths]
    dsets = []
    for p in paths:
        ds = read_detections(p, voxel_size=labels_meta["voxel_size"], origin=labels_meta["origin"])
        try:
            dsets.append(dataclasses.replace(ds, n_slices=slice_count(labels_meta["dims"], ds.axis)))
        except ConfigError as exc:
            raise ConfigError(f"{p}: {exc}") from exc
    return dsets
