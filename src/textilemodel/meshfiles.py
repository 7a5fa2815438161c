"""Mesh export: Wavefront OBJ for surfaces, legacy ASCII VTK for volumes.

Floats are written with %.9g so files stay compact, stable across runs
and precise enough to round-trip float32 exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .reconstruct import QuadSurfaceMesh, VolumeMesh
from .storage import atomic_open

VTK_WEDGE = 13
VTK_HEXAHEDRON = 12

# Rows formatted per % operation: the writers stream text a block at a
# time without holding every row of a large mesh as Python objects.
_BLOCK = 4096


def _write_rows(fh, row_fmt: str, arr: np.ndarray) -> None:
    """Write ``row_fmt`` for each row of ``arr`` (each scalar of a 1-D
    ``arr``), one ``%`` over up to ``_BLOCK`` rows at a time."""
    for lo in range(0, len(arr), _BLOCK):
        block = arr[lo : lo + _BLOCK]
        fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


def write_obj(mesh: QuadSurfaceMesh, path) -> None:
    """Write a quad surface mesh as OBJ (1-based face indices)."""
    with atomic_open(path) as fh:
        _write_rows(fh, "v %.9g %.9g %.9g\n", mesh.vertices)
        _write_rows(fh, "f %d %d %d %d\n", mesh.quads + 1)
        _write_rows(fh, "f %d %d %d\n", mesh.cap_triangles + 1)


def write_vtk(mesh: VolumeMesh, path, title: str = "textile volume mesh") -> None:
    """Write a wedge/hex volume mesh as legacy ASCII VTK with cell labels."""
    if "\n" in title:
        raise ConfigError("title must be a single line")
    n_cells = mesh.n_cells
    size = len(mesh.wedges) * 7 + len(mesh.hexes) * 9
    with atomic_open(path) as fh:
        fh.write(
            f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"
            f"POINTS {len(mesh.vertices)} float\n"
        )
        _write_rows(fh, "%.9g %.9g %.9g\n", mesh.vertices)
        fh.write(f"CELLS {n_cells} {size}\n")
        _write_rows(fh, "6 %d %d %d %d %d %d\n", mesh.wedges)
        _write_rows(fh, "8 %d %d %d %d %d %d %d %d\n", mesh.hexes)
        fh.write(f"CELL_TYPES {n_cells}\n")
        fh.write(f"{VTK_WEDGE}\n" * len(mesh.wedges) + f"{VTK_HEXAHEDRON}\n" * len(mesh.hexes))
        fh.write(f"CELL_DATA {n_cells}\nSCALARS yarn_id int 1\nLOOKUP_TABLE default\n")
        _write_rows(fh, "%d\n", np.concatenate([mesh.wedge_labels, mesh.hex_labels]))
