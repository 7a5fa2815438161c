"""JSON persistence for textile models and reconstructed yarns.

All writers go through an atomic temp-file rename (``atomic_open``,
which the volume, detection and report writers elsewhere use too) so a
crash never leaves a half-written artifact, and every file carries a
``schema`` field for forward compatibility.  ``dump_json`` writes every
JSON artifact in one layout: one line, sorted keys, no whitespace.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os

import numpy as np

from .errors import ConfigError, TextileError
from .geometry import RING_POINTS, Box, BSplineCurve, Sections
from .reconstruct import ReconstructedYarn
from .schema import Array, Object, Stack, check
from .synthgen import FiberSpec, TextileModel, WeaveSpec, YarnModel

SCHEMA = 1

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# Containers this many levels down (file, yarns list, yarn) are written
# a member at a time, so a yarn's sections, already JSON text, are
# written as they are and the C encoder gets one small member at a time.
_STREAM_DEPTH = 3


@dataclasses.dataclass(frozen=True)
class _JSONText:
    """Text that ``dump_json`` writes verbatim; the encoder rejects it."""

    text: str


@contextlib.contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file beside ``path`` that replaces it on success.

    If the ``with`` body raises, the temp file is removed and any
    previous file at ``path`` is left as it was.  The temp file is
    opened exclusively ("x"), so it gets the permissions of a plain
    ``open`` under the process umask.
    """
    path = str(path)
    d = os.path.dirname(path) or "."
    tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}.part")
    fh = open(tmp, mode.replace("w", "x"))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def dump_json(payload: dict, path) -> None:
    """Write ``payload`` to ``path`` as one line of JSON.

    The bytes equal ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` plus a newline, for dicts with str keys.
    """
    with atomic_open(path) as fh:
        _write_json(fh, payload, _STREAM_DEPTH)
        fh.write("\n")


def _write_json(fh, value, depth: int) -> None:
    if isinstance(value, _JSONText):
        fh.write(value.text)
    elif depth and isinstance(value, dict):
        fh.write("{")
        for k, key in enumerate(sorted(value)):
            fh.write("," if k else "")
            fh.write(_ENCODE(key))
            fh.write(":")
            _write_json(fh, value[key], depth - 1)
        fh.write("}")
    elif depth and isinstance(value, (list, tuple)):
        fh.write("[")
        for i, item in enumerate(value):
            fh.write("," if i else "")
            _write_json(fh, item, depth - 1)
        fh.write("]")
    else:
        fh.write(_ENCODE(value))


def read_json(path) -> dict:
    """Parse a JSON file whose top level is an object.

    Raises ConfigError naming the file for invalid JSON or another top
    level; readers accept any whitespace.
    """
    try:
        with open(path) as fh:
            d = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(d, dict):
        raise ConfigError(f"{path}: top level is not a JSON object")
    return d


def _load(path, kind: str, schema, build):
    """``build`` of the JSON object in ``path`` once it passed ``schema``;
    any fault raises ConfigError naming the file once."""
    d = read_json(path)
    if d.get("kind") != kind:
        raise ConfigError(f"{path}: not a {kind.replace('_', ' ')} file")
    if isinstance(d.get("spec"), dict):
        # Model files written while the weave spec had a seed still carry it; nothing reads it.
        d["spec"].pop("seed", None)
    try:
        return build(check(d, schema))
    except TextileError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _curve_to_dict(curve: BSplineCurve) -> dict:
    return {
        "degree": curve.degree,
        "knots": curve.knots.tolist(),
        "control_points": curve.control_points.tolist(),
    }


def _sections_json(s: Sections) -> _JSONText:
    """The sections as a JSON list of ``{"center", "contour", "station"}``
    objects, formatted with one ``%`` over every float.

    ``Sections`` holds finite floats only, for which ``%r`` gives the
    JSON encoder's own ``float.__repr__`` text.
    """
    n = s.rings.shape[1]
    section = '{"center":[%r,%r,%r],"contour":[' + ",".join(["[%r,%r,%r]"] * n) + '],"station":%r}'
    rows = np.hstack([s.centers, s.rings.reshape(len(s), 3 * n), s.stations[:, None]])
    text = ",".join([section] * len(s)) % tuple(rows.ravel().tolist())
    return _JSONText(f"[{text}]")


# The JSON kinds (see ``schema``) of the model and yarns files.
_SECTIONS = Stack(Object({"center": Array((3,)), "contour": Array((RING_POINTS, 3)), "station": Array(())}))
_CURVE = Object({"degree": int, "knots": Array((None,)), "control_points": Array((None, 3))})
_YARN = {"family": str, "path": _CURVE, "sections": _SECTIONS}
MODEL_SCHEMA = Object({
    "schema": int, "kind": str, "spec": WeaveSpec, "thickness": float, "fibers": FiberSpec | None,
    "bbox": Object({"lo": Array((3,)), "hi": Array((3,))}),
    "yarns": tuple[Object({**_YARN, "id": int}), ...],
})
YARNS_SCHEMA = Object({
    "schema": int, "kind": str, "voxel_size": float, "origin": Array((3,)),
    "yarns": tuple[Object({
        **_YARN, "axis": str, "completed": tuple[bool, ...], "boundary_gaps": tuple[tuple[int, int], ...]
    }), ...],
})


def _axis_and_sections(yd: dict) -> dict:
    """A checked yarn's fitted ``path`` and its ``sections``."""
    s = yd["sections"]
    return {"path": BSplineCurve(**yd["path"]), "sections": Sections(s["contour"], s["center"], s["station"])}


def save_model(model: TextileModel, path) -> None:
    payload = {
        "schema": SCHEMA,
        "kind": "textile_model",
        "spec": dataclasses.asdict(model.spec),
        "thickness": model.thickness,
        "bbox": {"lo": model.bbox.lo.tolist(), "hi": model.bbox.hi.tolist()},
        "fibers": None if model.fibers is None else dataclasses.asdict(model.fibers),
        "yarns": [
            {
                "id": y.yarn_id,
                "family": y.family,
                "path": _curve_to_dict(y.path),
                "sections": _sections_json(y.sections),
            }
            for y in model.yarns
        ],
    }
    dump_json(payload, path)


def load_model(path) -> TextileModel:
    return _load(path, "textile_model", MODEL_SCHEMA, _model_from_dict)


def _model_from_dict(d: dict) -> TextileModel:
    yarns = tuple(
        YarnModel(yarn_id=yd["id"], family=yd["family"], **_axis_and_sections(yd)) for yd in d["yarns"]
    )
    return TextileModel(
        spec=d["spec"],
        yarns=yarns,
        bbox=Box(**d["bbox"]),
        thickness=float(d["thickness"]),
        fibers=d["fibers"],
    )


def save_yarns(yarns, path, voxel_size: float, origin) -> None:
    """Persist reconstructed yarns with their boundary gaps."""
    payload = {
        "schema": SCHEMA,
        "kind": "reconstructed_yarns",
        "voxel_size": float(voxel_size),
        "origin": np.asarray(origin, dtype=float).tolist(),
        "yarns": [
            {
                "family": y.family,
                "axis": y.axis,
                "path": _curve_to_dict(y.path),
                "sections": _sections_json(y.sections),
                "completed": list(y.completed_flags),
                "boundary_gaps": [list(g) for g in y.boundary_gaps],
            }
            for y in yarns
        ],
    }
    dump_json(payload, path)


def load_yarns(path):
    """Returns (yarns, voxel_size, origin); each yarn carries its
    boundary gaps."""
    return _load(path, "reconstructed_yarns", YARNS_SCHEMA, _yarns_from_dict)


def _yarns_from_dict(d: dict):
    yarns = []
    for yd in d["yarns"]:
        yarn = ReconstructedYarn(
            axis=yd["axis"],
            completed_flags=yd["completed"],
            boundary_gaps=yd["boundary_gaps"],
            **_axis_and_sections(yd),
        )
        if yd["family"] != yarn.family:
            raise ConfigError(f"family {yd['family']!r} does not match axis {yd['axis']!r} ({yarn.family!r})")
        yarns.append(yarn)
    return yarns, float(d["voxel_size"]), d["origin"]
