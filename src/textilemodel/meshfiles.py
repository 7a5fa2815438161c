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

# Rows converted to Python per tolist() call: the writers stream lines
# without holding every row of a large mesh as Python objects at once.
_BLOCK = 4096


def _rows(arr: np.ndarray):
    """The rows of ``arr`` as Python lists (scalars for 1-D), one block at a time."""
    return (row for lo in range(0, len(arr), _BLOCK) for row in arr[lo : lo + _BLOCK].tolist())


def write_obj(mesh: QuadSurfaceMesh, path) -> None:
    """Write a quad surface mesh as OBJ (1-based face indices)."""
    with atomic_open(path) as fh:
        fh.writelines("v %.9g %.9g %.9g\n" % tuple(v) for v in _rows(mesh.vertices))
        fh.writelines("f %d %d %d %d\n" % tuple(q) for q in _rows(mesh.quads + 1))
        fh.writelines("f %d %d %d\n" % tuple(t) for t in _rows(mesh.cap_triangles + 1))


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
        fh.writelines("%.9g %.9g %.9g\n" % tuple(v) for v in _rows(mesh.vertices))
        fh.write(f"CELLS {n_cells} {size}\n")
        fh.writelines("6 %d %d %d %d %d %d\n" % tuple(w) for w in _rows(mesh.wedges))
        fh.writelines("8 %d %d %d %d %d %d %d %d\n" % tuple(h) for h in _rows(mesh.hexes))
        fh.write(f"CELL_TYPES {n_cells}\n")
        fh.write(f"{VTK_WEDGE}\n" * len(mesh.wedges) + f"{VTK_HEXAHEDRON}\n" * len(mesh.hexes))
        fh.write(f"CELL_DATA {n_cells}\nSCALARS yarn_id int 1\nLOOKUP_TABLE default\n")
        fh.writelines("%d\n" % x for x in _rows(np.concatenate([mesh.wedge_labels, mesh.hex_labels])))
