"""One benchmark operation in a fresh interpreter.

Usage: ``python3 perfbench/op.py '<spec json>'``.  The spec names a
mode:

- ``probe``: import ``textilemodel.pipeline`` and ``textilemodel.cli``
  and exit (the parent times the whole process);
- ``inputs``: write the from-detections inputs (model, labels sidecar,
  oracle detections) with the ``textile`` CLI;
- ``op``: run one op of a workload into ``out``, optionally traced.

The result is written as JSON to ``spec["result"]``.  Only this file
and ``spans.py`` touch the package, and only through its public
functions and the ``textile`` CLI entry point.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "textilemodel"

TARGET_VF = 0.6
# The fine workload's voxel edge: (1 / 0.7)^3 = 2.9x the voxels of desk.
FINE_VOXEL_SIZE = 0.7
DROPOUT = 0.2
JITTER = 0.5

WORKLOADS = ("desk", "fine", "from-detections")


def pipeline_config(workload: str, seed: int) -> dict:
    if workload == "desk":
        return {"seed": seed}
    if workload == "fine":
        return {"seed": seed, "voxel_size": FINE_VOXEL_SIZE, "reconstruct": {"write_meshes": False}}
    raise ValueError(f"{workload} is not a pipeline workload")


def cli_calls(seed: int, inputs: Path, out: Path) -> list:
    """The four ``textile`` calls of one from-detections op."""
    calls = [
        ["degrade", "--seed", str(seed), "--dropout", str(DROPOUT), "--jitter", str(JITTER),
         "-d", str(inputs / f"detections_{axis}.jsonl"), "-o", str(out)]
        for axis in ("yz", "xz")
    ]
    calls.append(
        ["reconstruct", "--seed", str(seed), "--no-meshes", "--labels", str(inputs / "labels"),
         "-d", str(out / "detections_yz_degraded.jsonl"), str(out / "detections_xz_degraded.jsonl"),
         "-o", str(out)]
    )
    calls.append(
        ["validate", "-m", str(inputs / "model.json"),
         "-y", str(out / "yarns.json"), "-o", str(out)]
    )
    return calls


def input_calls(inputs: Path) -> list:
    """``textile`` calls that write the from-detections inputs."""
    return [
        ["generate", "-o", str(inputs)],
        ["voxelize", "-m", str(inputs / "model.json"), "-o", str(inputs)],
        ["segment", "-l", str(inputs / "labels"), "-o", str(inputs)],
    ]


def import_package():
    sys.path.insert(0, str(SRC))
    import textilemodel.cli
    import textilemodel.pipeline

    if not Path(textilemodel.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"{PACKAGE} imported from {textilemodel.__file__}, not {SRC}")


def run_cli(argv) -> None:
    from textilemodel.cli import main

    code = main(argv)
    if code != 0:
        raise RuntimeError(f"textile {argv[0]} exited with code {code}")


# ---------------------------------------------------------------- tracing


def hooks():
    """Traced functions, grouped into per-layer span names."""
    from spans import Hook

    def count(name, fn):
        return lambda rec, args, result: rec.count(name, fn(args, result))

    def both(*fs):
        def after(rec, args, result):
            for f in fs:
                f(rec, args, result)

        return after

    m = PACKAGE + "."
    spec = [
        ("synthgen.generate", "synthgen", "generate_interlock", None),
        ("synthgen.generate", "synthgen", "fiber_spec_for_target_vf", None),
        ("synthgen.generate", "synthgen", "with_fibers", None),
        ("voxelizer.voxelize", "voxelizer", "voxelize",
         count("voxelizer.voxels", lambda a, r: math.prod(r.dims))),
        ("voxelizer.render", "voxelizer", "render_pseudo_ct", None),
        ("segmenter.detect", "segmenter", "detect_batch",
         count("segmenter.detections", lambda a, r: r.count())),
        (None, "segmenter", "filter_transverse",
         both(count("segmenter.filter_in", lambda a, r: a["dset"].count()),
              count("segmenter.kept", lambda a, r: r.count()))),
        ("segmenter.trace_boundary", "segmenter", "trace_boundary", None),
        ("segmenter.degrade", "segmenter", "degrade", None),
        ("reconstruct.track", "reconstruct", "track_yarns",
         count("reconstruct.tracks", lambda a, r: len(r))),
        ("reconstruct.complete", "reconstruct", "complete_missing",
         count("reconstruct.filled_slices", lambda a, r: len(r.filled) - len(a["track"].filled))),
        ("reconstruct.fit", "reconstruct", "lift_and_fit",
         count("reconstruct.sections_dropped", lambda a, r: len(a["track"].entries) - len(r.sections))),
        ("reconstruct.surface_mesh", "reconstruct", "build_surface_mesh", None),
        ("reconstruct.volume_mesh", "reconstruct", "build_volume_mesh",
         both(count("reconstruct.wedges", lambda a, r: len(r.wedges)),
              count("reconstruct.hexes", lambda a, r: len(r.hexes)))),
        ("reconstruct.composite_mesh", "reconstruct", "build_composite_mesh",
         count("reconstruct.hexes", lambda a, r: len(r.hexes))),
        ("validate.match", "validate", "match_and_assess_paths",
         count("validate.paths", lambda a, r: len(a["model"].yarns) + len(a["yarns"]))),
        ("validate.vf", "validate", "vf_distribution", None),
        ("validate.hausdorff", "validate", "hausdorff", None),
        ("geometry.bspline_eval", "geometry", "bspline_eval", None),
        ("geometry.bspline_fit", "geometry", "bspline_fit", None),
        ("geometry.resample_arclength", "geometry", "resample_arclength", None),
        ("geometry.ring_is_simple", "geometry", "ring_is_simple", None),
        ("storage.write", "storage", "save_model", None),
        ("storage.write", "storage", "save_yarns", None),
        ("storage.write", "storage", "dump_json", None),
        ("storage.write", "voxelizer", "save_volume", None),
        ("storage.write", "segmenter", "write_detections", None),
        ("storage.write", "validate", "write_report", None),
        ("storage.read", "storage", "load_model", None),
        ("storage.read", "storage", "load_yarns", None),
        ("storage.read", "storage", "read_json", None),
        ("storage.read", "segmenter", "read_detections", None),
        ("storage.read", "pipeline", "read_detection_pair", None),
        ("meshfiles.write", "meshfiles", "write_obj", None),
        ("meshfiles.write", "meshfiles", "write_vtk", None),
        ("pipeline.hash", "storage", "sha256_file",
         count("pipeline.hash_bytes", lambda a, r: os.path.getsize(a["path"]))),
    ]
    return [Hook(name, m + mod, func, after) for name, mod, func, after in spec]


def layer_metrics(rec, op_idx: int, out: Path) -> dict:
    """Per-layer metrics of one traced op from its spans and counters."""
    from spans import self_time, span_cost

    totals = rec.totals()
    counts = rec.counts

    def secs(name):
        return totals.get(name, (0.0, 0))[0]

    def calls(name):
        return totals.get(name, (0.0, 0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    resamples_in_match = sum(
        1 for s in rec.spans
        if s.name == "geometry.resample_arclength" and rec.has_ancestor(s, "validate.match")
    )
    mesh_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file() and "meshes" in p.parts)
    all_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    voxels = counts.get("voxelizer.voxels", 0)
    metrics = {
        "synthgen.generate_s": secs("synthgen.generate"),
        "voxelizer.voxelize_s": secs("voxelizer.voxelize"),
        "voxelizer.render_s": secs("voxelizer.render"),
        "voxelizer.voxels": voxels,
        "voxelizer.mvoxels_per_s": ratio(voxels / 1e6, secs("voxelizer.voxelize")),
        "segmenter.detect_s": secs("segmenter.detect"),
        "segmenter.trace_boundary_s": secs("segmenter.trace_boundary"),
        "segmenter.trace_boundary_calls": calls("segmenter.trace_boundary"),
        "segmenter.detections": counts.get("segmenter.detections", 0),
        "segmenter.kept_ratio": ratio(counts.get("segmenter.kept", 0), counts.get("segmenter.filter_in", 0)),
        "segmenter.degrade_s": secs("segmenter.degrade"),
        "reconstruct.track_s": secs("reconstruct.track"),
        "reconstruct.complete_s": secs("reconstruct.complete"),
        "reconstruct.fit_s": secs("reconstruct.fit"),
        "reconstruct.tracks": counts.get("reconstruct.tracks", 0),
        "reconstruct.filled_slices": counts.get("reconstruct.filled_slices", 0),
        "reconstruct.sections_dropped": counts.get("reconstruct.sections_dropped", 0),
        "reconstruct.surface_mesh_s": secs("reconstruct.surface_mesh"),
        "reconstruct.volume_mesh_s": secs("reconstruct.volume_mesh"),
        "reconstruct.composite_mesh_s": secs("reconstruct.composite_mesh"),
        "reconstruct.wedges": counts.get("reconstruct.wedges", 0),
        "reconstruct.hexes": counts.get("reconstruct.hexes", 0),
        "validate.match_s": secs("validate.match"),
        "validate.vf_s": secs("validate.vf"),
        "validate.hausdorff_calls": calls("validate.hausdorff"),
        "validate.resample_per_path": ratio(resamples_in_match, counts.get("validate.paths", 0)),
        "storage.write_s": secs("storage.write"),
        "storage.write_mb": (all_bytes - mesh_bytes) / 1e6,
        "storage.read_s": secs("storage.read"),
        "meshfiles.write_s": secs("meshfiles.write"),
        "meshfiles.write_mb": mesh_bytes / 1e6,
        "pipeline.hash_s": secs("pipeline.hash"),
        "pipeline.hash_mb": counts.get("pipeline.hash_bytes", 0) / 1e6,
        "cli.self_s": self_time(rec.spans[op_idx], rec.children(op_idx)),
        "trace_overhead_s": len(rec.spans) * span_cost(),
    }
    for kernel in ("bspline_eval", "bspline_fit", "resample_arclength", "ring_is_simple"):
        metrics[f"geometry.{kernel}_s"] = secs(f"geometry.{kernel}")
        metrics[f"geometry.{kernel}_calls"] = calls(f"geometry.{kernel}")
    return metrics


# ----------------------------------------------------------- after the op


def digests(out: Path) -> dict:
    """sha256 of every artifact; the manifest without run times."""
    result = {}
    for p in sorted(out.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("created", None)
            for stage in manifest.get("stages", []):
                stage.pop("seconds", None)
            data = json.dumps(manifest, sort_keys=True).encode()
        result[str(p.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return result


def report_summary(report_path: Path, model_path: Path) -> dict:
    report = json.loads(report_path.read_text())
    model = json.loads(model_path.read_text())
    matches = report["paths"]["matches"]
    return {
        "n_reference": len(model["yarns"]),
        "distances": [m["d_symmetric"] for m in matches],
        "forward": [m["d_forward"] for m in matches],
        "backward": [m["d_backward"] for m in matches],
        "reference_ids": [m["reference_id"] for m in matches],
        "unmatched_reference": report["paths"]["unmatched_reference"],
        "vf_mean": report["fiber_volume_fraction"]["mean"],
    }


def slice_extents(path: Path) -> dict:
    """First and last slice index of each true label in a detections file."""
    extents = {}
    for line in path.read_text().splitlines():
        rec = json.loads(line)
        i = rec["slice_index"]
        lo, hi = extents.get(rec["true_label"], (i, i))
        extents[rec["true_label"]] = (min(lo, i), max(hi, i))
    return extents


def end_drops(inputs: Path, out: Path) -> dict:
    """Per reference yarn, the most end slices degrade dropped at one end.

    The program does not extend a yarn past its first and last detection
    (boundary gaps stay unfilled), so the reference path runs this many
    slices, one voxel each, past the reconstruction.  Labels are yarn ids.
    """
    drops = {}
    for axis in ("yz", "xz"):
        kept = slice_extents(out / f"detections_{axis}_degraded.jsonl")
        for label, (lo, hi) in slice_extents(inputs / f"detections_{axis}.jsonl").items():
            klo, khi = kept.get(label, (hi + 1, lo - 1))
            drops[str(label)] = max(klo - lo, hi - khi)
    return drops


def mesh_check(yarns_path: Path) -> dict:
    """Replay of the tier-1 mesh-integrity gate on the op's yarns."""
    from textilemodel.reconstruct import (
        build_surface_mesh,
        build_volume_mesh,
        enclosed_volume,
        euler_characteristic,
        is_watertight,
        wedge_volumes,
    )
    from textilemodel.storage import load_yarns

    yarns = load_yarns(yarns_path)[0]
    t0 = time.perf_counter()
    ok = True
    worst_rel = 0.0
    for yarn in yarns:
        surface = build_surface_mesh(yarn)
        ok = ok and is_watertight(surface) and euler_characteristic(surface) == 2
        v_surface = enclosed_volume(surface)
        v_wedges = wedge_volumes(build_volume_mesh(yarn)).sum()
        worst_rel = max(worst_rel, abs(v_wedges - v_surface) / v_surface)
    return {
        "reconstruct.mesh_check_s": time.perf_counter() - t0,
        "mesh_check_ok": bool(ok and worst_rel < 0.01),
    }


def volume_mesh_rejections(yarns_path: Path) -> dict:
    """Volume meshes of the degraded yarns that fail their integrity check."""
    from textilemodel.errors import MeshIntegrityError
    from textilemodel.reconstruct import build_volume_mesh
    from textilemodel.storage import load_yarns

    yarns = load_yarns(yarns_path)[0]
    rejected = 0
    for i, yarn in enumerate(yarns):
        try:
            build_volume_mesh(yarn, label=i + 1)
        except MeshIntegrityError:
            rejected += 1
    return {"reconstruct.volume_mesh_rejected": rejected, "reconstruct.volume_mesh_yarns": len(yarns)}


# ------------------------------------------------------------------ modes


def run_op(spec: dict) -> dict:
    workload, seed, out = spec["workload"], spec["seed"], Path(spec["out"])
    inputs = Path(spec["inputs"]) if spec.get("inputs") else None
    out.mkdir(parents=True, exist_ok=True)
    if workload == "from-detections":
        calls = cli_calls(seed, inputs, out)

        def op():
            for argv in calls:
                run_cli(argv)

        model_path = inputs / "model.json"
    else:
        from textilemodel.pipeline import config_from_dict, run_pipeline

        config = config_from_dict(pipeline_config(workload, seed))

        def op():
            run_pipeline(config, out)

        model_path = out / "model.json"

    result = {"error": None}
    rec = None
    t0 = time.perf_counter()
    cpu0 = time.process_time()
    try:
        if spec["trace"]:
            from spans import Recorder, traced

            rec = Recorder(op=spec["index"])
            with traced(rec, hooks(), PACKAGE), rec.span("op") as op_idx:
                op()
        else:
            op()
    except Exception as exc:  # the op's failure is a result, not a crash
        result["error"] = f"{type(exc).__name__}: {exc}"
    result["op_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if result["error"]:
        return result

    from textilemodel.pipeline import verify_manifest

    manifest = out / "manifest.json"
    result["manifest_bad"] = verify_manifest(manifest) if manifest.exists() else None
    result["digests"] = digests(out)
    result["report"] = report_summary(out / "report.json", model_path)
    if workload == "from-detections":
        result["end_drops"] = end_drops(inputs, out)
    if rec is not None:
        result["layers"] = layer_metrics(rec, op_idx, out)
        if workload == "desk":
            result["extras"] = mesh_check(out / "yarns.json")
        elif workload == "from-detections":
            result["extras"] = volume_mesh_rejections(out / "yarns.json")
    return result


def main(argv) -> int:
    spec = json.loads(argv[1])
    import_package()
    if spec["mode"] == "probe":
        result = {}
    elif spec["mode"] == "inputs":
        inputs = Path(spec["inputs"])
        t0 = time.perf_counter()
        for call in input_calls(inputs):
            run_cli(call)
        result = {"gen_s": time.perf_counter() - t0}
    else:
        result = run_op(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
