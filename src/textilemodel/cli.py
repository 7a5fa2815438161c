"""Command-line interface.

``textile <subcommand>`` runs one pipeline stage each, plus
``pipeline`` for the full run.  A subcommand reads its inputs from its
path flags, lets its other flags override config fields, and runs the
stage function that ``textile pipeline`` runs.  Exit codes: 0 success,
2 configuration or argument error, 3 missing or unreadable input file,
10 + k for a failure inside pipeline stage k.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, StageError, TextileError
from .pipeline import (
    STAGE_FUNCTIONS,
    PipelineConfig,
    RunContext,
    grid_box,
    load_config,
    read_detection_pair,
    run_pipeline,
    stage_index,
)
from .segmenter import read_detections
from .storage import load_model, load_yarns
from .voxelizer import SLICE_AXES, compute_dims, load_volume, read_sidecar, slice_count

log = logging.getLogger(__name__)


def _config_from_args(args, section: str | None = None, **flags) -> PipelineConfig:
    """The config file with ``--seed`` and the given flags overriding it.

    ``flags`` are fields of the nested config ``section``, or top-level
    fields when ``section`` is None; a flag left unset (None) keeps the
    config's value.
    """
    cfg = load_config(args.config) if args.config else PipelineConfig()
    values = {k: v for k, v in flags.items() if v is not None}
    if section is not None:
        values = {section: dataclasses.replace(getattr(cfg, section), **values)}
    if args.seed is not None:
        values["seed"] = args.seed
    return dataclasses.replace(cfg, **values)


def _run_stage(args, cfg: PipelineConfig, **inputs) -> int:
    """Run the subcommand's stage on inputs read from its path flags."""
    run = RunContext(cfg, args.out, **inputs)
    print(STAGE_FUNCTIONS[args.command](run))
    return 0


def cmd_generate(args) -> int:
    return _run_stage(args, _config_from_args(args))


def cmd_compact(args) -> int:
    cfg = _config_from_args(args, "compaction", thickness_final=args.thickness, n_steps=args.steps)
    return _run_stage(args, cfg, model=load_model(args.model))


def cmd_voxelize(args) -> int:
    cfg = _config_from_args(args, voxel_size=args.voxel_size)
    model = load_model(args.model)
    if args.dims_only:
        dims = compute_dims(model.bbox, cfg.voxel_size)
        n_xz = slice_count(dims, "xz")
        n_yz = slice_count(dims, "yz")
        print(
            f"dims {dims[0]}x{dims[1]}x{dims[2]}  "
            f"slices xz {n_xz} + yz {n_yz} = {n_xz + n_yz}"
        )
        return 0
    return _run_stage(args, cfg, model=model)


def cmd_render(args) -> int:
    cfg = _config_from_args(args)
    return _run_stage(args, cfg, labels=load_volume(args.labels))


def cmd_segment(args) -> int:
    cfg = _config_from_args(args)
    inputs = {"labels": load_volume(args.labels)}
    if args.axis:
        inputs["axes"] = (args.axis,)
    return _run_stage(args, cfg, **inputs)


def cmd_degrade(args) -> int:
    cfg = _config_from_args(args, "degrade", dropout_rate=args.dropout, jitter_sigma=args.jitter)
    ds = read_detections(args.detections)
    return _run_stage(args, cfg, detections={Path(args.detections).stem: ds})


def cmd_reconstruct(args) -> int:
    write_meshes = False if args.no_meshes else None
    cfg = _config_from_args(args, "reconstruct", d_gate=args.gate, write_meshes=write_meshes)
    stems = [Path(p).stem for p in args.detections]
    if len(set(stems)) != len(stems):
        raise ConfigError("detections files must have distinct names")
    labels_meta = read_sidecar(args.labels) if args.labels else None
    dsets = read_detection_pair(args.detections, labels_meta)
    box = None
    if labels_meta is not None:
        box = grid_box(labels_meta["origin"], labels_meta["dims"], labels_meta["voxel_size"])
    return _run_stage(args, cfg, detections=dict(zip(stems, dsets)), box=box)


def cmd_validate(args) -> int:
    cfg = _config_from_args(args)
    model = load_model(args.model)
    return _run_stage(args, cfg, model=model, yarns=load_yarns(args.yarns)[0])


def cmd_pipeline(args) -> int:
    cfg = _config_from_args(args)
    out = Path(args.out)
    manifest = run_pipeline(cfg, out)
    print(
        f"pipeline done: {len(manifest['stages'])} stages, "
        f"{len(manifest['files'])} artifacts in {out}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="textile",
        description="Synthetic textile modeling and slice-based yarn reconstruction.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help):
        epilog = "A flag's [config field] is overridden when the flag is given."
        p = sub.add_parser(name, help=help, epilog=epilog)
        p.add_argument("--config", "-c", help="pipeline config JSON")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", "-o", default=".", help="output directory")
        p.set_defaults(fn=fn)
        return p

    command("generate", cmd_generate, "create a synthetic interlock model")

    p = command("compact", cmd_compact, "kinematic compaction sequence")
    p.add_argument("--model", "-m", required=True, help="model JSON file")
    p.add_argument("--thickness", type=float, help="final thickness [compaction.thickness_final]")
    p.add_argument("--steps", type=int, help="number of steps [compaction.n_steps]")

    p = command("voxelize", cmd_voxelize, "rasterize a model into a label volume")
    p.add_argument("--model", "-m", required=True, help="model JSON file")
    p.add_argument("--voxel-size", type=float, help="voxel edge length [voxel_size]")
    p.add_argument(
        "--dims-only",
        action="store_true",
        help="print grid dims and slice counts without materializing",
    )

    p = command("render", cmd_render, "render a pseudo-CT gray volume from labels")
    p.add_argument("--labels", "-l", required=True, help="label volume base path")

    p = command("segment", cmd_segment, "detect yarn sections per slice")
    p.add_argument("--labels", "-l", required=True, help="label volume base path")
    p.add_argument("--axis", choices=SLICE_AXES, default=None, help="one axis only")

    p = command("degrade", cmd_degrade, "apply dropout and jitter to detections")
    p.add_argument("--detections", "-d", required=True, help="detections JSONL file")
    p.add_argument("--dropout", type=float, help="dropout rate [degrade.dropout_rate]")
    p.add_argument("--jitter", type=float, help="jitter sigma, pixels [degrade.jitter_sigma]")

    p = command("reconstruct", cmd_reconstruct, "track, complete, fit and mesh yarns")
    p.add_argument(
        "--detections",
        "-d",
        nargs="+",
        required=True,
        help="one or more detections JSONL files",
    )
    p.add_argument("--labels", "-l", default=None, help="label volume base path (geometry)")
    p.add_argument("--gate", type=float, help="tracking gate, pixels [reconstruct.d_gate]")
    p.add_argument(
        "--no-meshes", action="store_true", help="skip mesh export [reconstruct.write_meshes]"
    )

    p = command("validate", cmd_validate, "compare reconstructed yarns to a model")
    p.add_argument("--model", "-m", required=True, help="reference model JSON")
    p.add_argument("--yarns", "-y", required=True, help="reconstructed yarns JSON")

    command("pipeline", cmd_pipeline, "run all stages and write a manifest")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except StageError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 10 + exc.stage_index
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except TextileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            return 10 + stage_index(args.command)
        except ConfigError:
            return 1


if __name__ == "__main__":
    raise SystemExit(main(argv=sys.argv[1:]))
