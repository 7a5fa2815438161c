"""Benchmark of the textilemodel chain: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 11 --seconds 30 --trace 0

Workloads (see NOTES.md for why each was chosen):

- ``desk``: ``run_pipeline`` on ``{"seed": S}``, meshes on;
- ``fine``: ``run_pipeline`` at voxel size 0.7, meshes off;
- ``from-detections``: oracle detections written once in set-up, then
  per op the CLI calls ``degrade`` (both axes), ``reconstruct
  --no-meshes`` and ``validate``.

Each op runs in a fresh interpreter, one at a time, and ops repeat
while the next one is expected to end within ``--seconds`` (at least
one op runs).  Every op's outputs are
checked; a failed check or a raised error counts the op as failed.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` every op is traced and it carries the per-layer
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import op as ops

ROOT = ops.ROOT
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "vf_error": "1",
}

PER_LAYER = {
    "synthgen.generate_s": "s",
    "voxelizer.voxelize_s": "s",
    "voxelizer.render_s": "s",
    "voxelizer.voxels": "count",
    "voxelizer.mvoxels_per_s": "Mvoxel/s",
    "segmenter.detect_s": "s",
    "segmenter.trace_boundary_s": "s",
    "segmenter.trace_boundary_calls": "count",
    "segmenter.detections": "count",
    "segmenter.kept_ratio": "1",
    "segmenter.degrade_s": "s",
    "reconstruct.track_s": "s",
    "reconstruct.complete_s": "s",
    "reconstruct.fit_s": "s",
    "reconstruct.tracks": "count",
    "reconstruct.filled_slices": "count",
    "reconstruct.sections_dropped": "count",
    "reconstruct.surface_mesh_s": "s",
    "reconstruct.volume_mesh_s": "s",
    "reconstruct.composite_mesh_s": "s",
    "reconstruct.wedges": "count",
    "reconstruct.hexes": "count",
    "reconstruct.mesh_check_s": "s",
    "reconstruct.volume_mesh_rejected": "count",
    "reconstruct.volume_mesh_yarns": "count",
    "validate.match_s": "s",
    "validate.vf_s": "s",
    "validate.hausdorff_calls": "count",
    "validate.resample_per_path": "count",
    "validate.hausdorff_max_vx": "voxel",
    "validate.within_3vx_ratio": "1",
    "geometry.bspline_eval_s": "s",
    "geometry.bspline_eval_calls": "count",
    "geometry.bspline_fit_s": "s",
    "geometry.bspline_fit_calls": "count",
    "geometry.resample_arclength_s": "s",
    "geometry.resample_arclength_calls": "count",
    "geometry.ring_is_simple_s": "s",
    "geometry.ring_is_simple_calls": "count",
    "storage.write_s": "s",
    "storage.write_mb": "MB",
    "storage.read_s": "s",
    "meshfiles.write_s": "s",
    "meshfiles.write_mb": "MB",
    "pipeline.hash_s": "s",
    "pipeline.hash_mb": "MB",
    "cli.self_s": "s",
    "trace_overhead_s": "s",
    "fail_ratio": "1",
}

# Clean acceptance bounds (desk, fine) and the degraded one (from-detections),
# the latter on distances less dropped end slices (see observed_distances).
CLEAN_MAX_VX = 2.0
CLEAN_VF_RANGE = (0.55, 0.65)
DEGRADED_VX = 3.0
DEGRADED_WITHIN = 0.95


def child_env() -> dict:
    env = dict(os.environ)
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Runner:
    """Starts op.py children one at a time and collects their results."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.n = 0

    def child(self, spec: dict) -> tuple[dict | None, float, str]:
        """Run one child; returns (result or None, wall seconds, error)."""
        self.n += 1
        result_path = self.work / f"result{self.n}.json"
        spec = dict(spec, result=str(result_path))
        timeout = max(5.0, self.deadline - time.perf_counter())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(Path(ops.__file__)), json.dumps(spec)],
                cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, f"timed out after {timeout:.0f} s"
        wall = time.perf_counter() - t0
        if proc.returncode != 0 or not result_path.exists():
            tail = proc.stderr.strip().splitlines()[-3:]
            return None, wall, f"child exited with code {proc.returncode}: {' | '.join(tail)}"
        return json.loads(result_path.read_text()), wall, ""


def check_op(workload: str, res: dict | None, error: str, reference: dict | None) -> list:
    """Problems with one op's outputs; an empty list means it passed."""
    if res is None:
        return [error]
    if res.get("error"):
        return [res["error"]]
    problems = []
    if workload != "from-detections":
        if res.get("manifest_bad") is None:
            problems.append("no manifest.json")
        elif res["manifest_bad"]:
            problems.append(f"verify_manifest: {res['manifest_bad']}")
    if reference is not None and res["digests"] != reference:
        names = sorted(
            k for k in set(res["digests"]) | set(reference)
            if res["digests"].get(k) != reference.get(k)
        )
        problems.append(f"artifacts differ from the first op: {names[:5]}")
    rep = res["report"]
    if rep["unmatched_reference"] or len(rep["distances"]) != rep["n_reference"]:
        problems.append(
            f"matched {len(rep['distances'])} of {rep['n_reference']} reference yarns"
        )
    if workload == "from-detections":
        ratio = within_ratio(rep, observed_distances(res))
        if ratio < DEGRADED_WITHIN:
            problems.append(f"{ratio:.1%} of yarns within {DEGRADED_VX} vx < {DEGRADED_WITHIN:.0%}")
    elif rep["distances"]:
        worst = max(rep["distances"])
        if worst > CLEAN_MAX_VX:
            problems.append(f"Hausdorff {worst:.3f} vx > {CLEAN_MAX_VX}")
        lo, hi = CLEAN_VF_RANGE
        if not lo <= rep["vf_mean"] <= hi:
            problems.append(f"Vf mean {rep['vf_mean']:.4f} outside [{lo}, {hi}]")
    if res.get("extras", {}).get("mesh_check_ok") is False:
        problems.append("mesh-integrity replay failed")
    return problems


def within_ratio(rep: dict, distances=None) -> float:
    distances = rep["distances"] if distances is None else distances
    return sum(d <= DEGRADED_VX for d in distances) / rep["n_reference"]


def observed_distances(res: dict) -> list:
    """Symmetric distances less the part explained by dropped end slices.

    Where degrade dropped a yarn's last k detections at one end, the
    reference runs k voxels past anything the program was given, and the
    program leaves such boundary gaps unfilled by design.  The forward
    distance (reference to reconstruction) is therefore taken less k;
    the backward distance counts in full.
    """
    rep, drops = res["report"], res["end_drops"]
    return [
        max(back, fwd - drops[str(ref)])
        for ref, fwd, back in zip(rep["reference_ids"], rep["forward"], rep["backward"])
    ]


def median(values, default: float = 0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def end_to_end(ops_done: list, setup_s: float) -> dict:
    good = [o for o in ops_done if not o["problems"]]
    return {
        "run_s": median(o["res"]["op_s"] for o in good),
        "setup_s": setup_s,
        "peak_rss_mb": median(o["res"]["rss_mb"] for o in good),
        "vf_error": median(
            abs(o["res"]["report"]["vf_mean"] - ops.TARGET_VF) for o in good
        ),
    }


def per_layer(ops_done: list) -> dict:
    traced = [o for o in ops_done if o["res"] and "layers" in o["res"]]
    per_op = [{**o["res"]["layers"], **o["res"].get("extras", {})} for o in traced]
    metrics = {name: median(m[name] for m in per_op if name in m) for name in PER_LAYER}
    reports = [o["res"]["report"] for o in traced]
    metrics["validate.hausdorff_max_vx"] = median(max(r["distances"]) for r in reports if r["distances"])
    metrics["validate.within_3vx_ratio"] = median(within_ratio(r) for r in reports)
    metrics["fail_ratio"] = sum(1 for o in ops_done if o["problems"]) / len(ops_done)
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    start = time.perf_counter()
    work = WORK / f"{workload}-s{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, start + DEADLINE_S)
    try:
        probes = []
        for _ in range(0 if trace else SETUP_PROBES):
            res, wall, error = runner.child({"mode": "probe"})
            if res is None:
                raise RuntimeError(f"set-up failed: {error}")
            probes.append(wall)
        inputs = None
        gen_s = 0.0
        if workload == "from-detections":
            inputs = work / "inputs"
            res, _, error = runner.child({"mode": "inputs", "inputs": str(inputs)})
            if res is None:
                raise RuntimeError(f"set-up failed: {error}")
            gen_s = res["gen_s"]
        setup_s = median(probes) + gen_s

        reference = None  # digests of this run's first passing op
        done = []
        measure_start = time.perf_counter()
        while True:
            out = work / f"op{len(done)}"
            spec = {"mode": "op", "workload": workload, "seed": seed, "out": str(out),
                    "inputs": str(inputs) if inputs else None, "trace": trace,
                    "index": len(done)}
            res, _, error = runner.child(spec)
            problems = check_op(workload, res, error, reference)
            if problems:
                print(f"op {len(done)} failed: {'; '.join(problems)}", file=sys.stderr)
            elif reference is None:
                reference = res["digests"]
            if res is not None:
                print(f"op {len(done)}: {res['op_s']:.3f} s wall, {res['cpu_s']:.3f} s cpu",
                      file=sys.stderr)
            done.append({"res": res, "problems": problems})
            shutil.rmtree(out, ignore_errors=True)
            # Stop before an op that would end past the window: op counts
            # then depend on op length, not on where the window cuts.
            elapsed = time.perf_counter() - measure_start
            if elapsed * (len(done) + 1) / len(done) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(done, trace, setup_s)


def summarize(done: list, trace: bool, setup_s: float) -> dict:
    """The result line: every attempted op counts, failed ones included."""
    failed = sum(1 for o in done if o["problems"])
    values = per_layer(done) if trace else end_to_end(done, setup_s)
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ops.SRC / ops.PACKAGE / "__init__.py").is_file():
        print(f"error: no {ops.PACKAGE} sources under {ops.SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
