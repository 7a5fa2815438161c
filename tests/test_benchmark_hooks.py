"""The benchmark harness against the package it traces.

``perfbench/op.py`` wraps package functions by name and its counters
read their parameters and results by name (``dset``, ``track``,
``model``, ``yarns``, ``path``, ``len(result.sections)``).  These tests
run the harness self-test and trace a small pipeline, one
``lift_and_fit`` and the from-detections op's ``textile`` calls through
the harness's own hook table, so a renamed function, parameter or
result attribute fails here and not first in a benchmark run.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import textilemodel.reconstruct as rc
from textilemodel.pipeline import config_from_dict, run_pipeline

from test_pipeline import SMALL, straight_dset

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Every counter that a hook of op.hooks() adds.
COUNTERS = {
    "voxelizer.voxels",
    "segmenter.detections",
    "segmenter.filter_in",
    "segmenter.kept",
    "reconstruct.tracks",
    "reconstruct.filled_slices",
    "reconstruct.sections_dropped",
    "reconstruct.wedges",
    "reconstruct.hexes",
    "validate.paths",
    "pipeline.hash_bytes",
}


@pytest.fixture(scope="module")
def harness():
    """perfbench's ``op`` and ``spans`` modules, imported as the harness does."""
    sys.path.insert(0, str(BENCH))
    try:
        import op
        import spans
    finally:
        sys.path.remove(str(BENCH))
    return op, spans


def test_harness_self_test_passes():
    done = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=BENCH.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def test_traced_pipeline_fills_every_counter_and_layer_metric(harness, tmp_path):
    op, spans = harness
    # Meshes on (the default), so every counter's stage runs.
    cfg = config_from_dict(SMALL)
    rec = spans.Recorder()
    with spans.traced(rec, op.hooks(), op.PACKAGE), rec.span("op") as op_idx:
        manifest = run_pipeline(cfg, tmp_path)
    assert COUNTERS <= set(rec.counts)
    assert rec.counts["validate.paths"] == 4 + 4  # model yarns plus reconstructed ones
    assert rec.counts["pipeline.hash_bytes"] == sum(f["bytes"] for f in manifest["files"])
    metrics = op.layer_metrics(rec, op_idx, tmp_path)
    for name in ("synthgen.generate_s", "segmenter.detect_s", "reconstruct.fit_s",
                 "reconstruct.volume_mesh_s", "validate.vf_s", "storage.write_s"):
        assert metrics[name] > 0, name
    assert metrics["reconstruct.tracks"] == 4
    assert all(np.isfinite(v) for v in metrics.values())


def test_traced_lift_and_fit_counts_dropped_sections(harness):
    op, spans = harness
    # Slice 9 holds a folded decagon, which lift_and_fit drops.
    dset = straight_dset()
    contours = dset.contours.copy()
    contours[9] = contours[9][[0, 1, 6, 3, 4, 5, 2, 7, 8, 9]]
    dset = dataclasses.replace(dset, contours=contours, centers=contours.mean(axis=1))
    (track,) = rc.track_yarns(dset, d_gate=6.0)
    rec = spans.Recorder()
    with spans.traced(rec, op.hooks(), op.PACKAGE):
        yarn = rc.lift_and_fit(track)
    assert [s.name for s in rec.spans if s.parent is None] == ["reconstruct.fit"]
    assert len(yarn.sections) == len(track.entries) - 1
    assert rec.counts["reconstruct.sections_dropped"] == 1


def test_traced_cli_chain_reads_degrades_and_fills_gaps(harness, tmp_path):
    op, spans = harness
    # The from-detections op's own textile calls, on the small fabric's
    # oracle detections, labels and model.
    inputs, out = tmp_path / "inputs", tmp_path / "out"
    run_pipeline(config_from_dict({**SMALL, "reconstruct": {"write_meshes": False}}), inputs)
    rec = spans.Recorder()
    with spans.traced(rec, op.hooks(), op.PACKAGE), rec.span("op") as op_idx:
        for argv in op.cli_calls(SMALL["seed"], inputs, out):
            op.run_cli(argv)
    assert rec.counts["reconstruct.filled_slices"] > 0
    assert "reconstruct.sections_dropped" in rec.counts
    assert rec.counts["reconstruct.tracks"] == 4
    metrics = op.layer_metrics(rec, op_idx, out)
    for name in ("segmenter.degrade_s", "storage.read_s", "reconstruct.complete_s",
                 "reconstruct.fit_s"):
        assert metrics[name] > 0, name
    # Each degrade call reads one file, reconstruct reads both.
    assert rec.totals()["storage.read"][1] >= 4
