"""JSON persistence for textile models and reconstructed yarns.

All writers go through an atomic temp-file rename (``atomic_open``,
which the volume, detection and report writers elsewhere use too) so a
crash never leaves a half-written artifact, and every file carries a
``schema`` field for forward compatibility.  ``dump_json`` writes every
JSON artifact in one layout: one line, sorted keys, no whitespace.
``load_model`` and ``load_yarns`` accept any whitespace and key order
and decode a file one yarn at a time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import itertools
import json
import os
import typing

import numpy as np

from .errors import ConfigError, TextileError
from .geometry import RING_POINTS, Box, BSplineCurve, Sections
from .reconstruct import ReconstructedYarn
from .schema import Array, Object, Stack, check
from .synthgen import FiberSpec, TextileModel, WeaveSpec, YarnModel

SCHEMA = 1

_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
# The stdlib's C scanner: decodes one JSON value at an index of a text.
_SCAN = json.scanner.make_scanner(json.JSONDecoder())
_WS = json.decoder.WHITESPACE.match
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


def _value(text: str, i: int):
    """The JSON value that starts at ``text[i]`` and the index past it."""
    try:
        return _SCAN(text, i)
    except StopIteration as exc:
        raise json.JSONDecodeError("Expecting value", text, exc.value) from None


def _members(text: str, i: int, member) -> int:
    """Scan the JSON object or array whose bracket is at ``text[i]``.

    ``member(key, j)`` gets each member's key (in an array, its index)
    and the index ``j`` of its value; it decodes the value and returns
    the index past it.  Returns the index past the closing bracket.
    Faults raise JSONDecodeError with the stdlib decoder's message and
    position.
    """
    is_object = text[i] == "{"
    close = "}" if is_object else "]"
    i = _WS(text, i + 1).end()
    if text[i:i + 1] == close:
        return i + 1
    for key in itertools.count():
        if is_object:
            if text[i:i + 1] != '"':
                raise json.JSONDecodeError("Expecting property name enclosed in double quotes", text, i)
            key, i = json.decoder.scanstring(text, i + 1)
            i = _WS(text, i).end()
            if text[i:i + 1] != ":":
                raise json.JSONDecodeError("Expecting ':' delimiter", text, i)
            i += 1
        i = _WS(text, member(key, _WS(text, i).end())).end()
        if text[i:i + 1] == close:
            return i + 1
        if text[i:i + 1] != ",":
            raise json.JSONDecodeError("Expecting ',' delimiter", text, i)
        i = _WS(text, i + 1).end()


def _load(path, kind: str, schema: Object, yarn, build):
    """``build`` of the JSON object in ``path`` once it passed ``schema``;
    any fault raises ConfigError naming the file once.

    The object is decoded a top-level key at a time and its ``yarns``
    list an item at a time: each item is checked and built by ``yarn``
    before the next is decoded, so the JSON tree of one yarn is alive at
    a time.  When ``kind`` comes before ``yarns``, it and the keys before
    ``yarns`` are checked before the first yarn is built.  The first
    fault in file order is raised once the whole text is scanned, so
    that invalid JSON anywhere is reported first.
    """
    item = typing.get_args(schema.kinds["yarns"])[0]
    top, yarns, faults = {}, [], []

    def guard(step) -> None:
        if not faults:
            try:
                step()
            except TextileError as exc:
                faults.append(exc)

    def head() -> None:
        _check_kind(top, kind)
        check(top, Object({}, schema.kinds))

    def add_yarn(n: int, i: int) -> int:
        value, end = _value(text, i)
        guard(lambda: yarns.append(yarn(check(value, item, ("yarns", n)))))
        return end

    def member(key: str, i: int) -> int:
        if key != "yarns" or text[i:i + 1] != "[":
            top[key], end = _value(text, i)
            if key == "spec" and type(top[key]) is dict:
                # Model files written while the weave spec had a seed still carry it; nothing reads it.
                top[key].pop("seed", None)
            return end
        if "kind" in top:
            guard(head)
        yarns.clear()  # a repeated key keeps its last value, as in json.load
        top[key] = []  # checks as an empty list; the built yarns replace it
        return _members(text, i, add_yarn)

    with open(path) as fh:
        text = fh.read()
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        i = _WS(text).end()
        if text[i:i + 1] == "{":
            end = _members(text, i, member)
        else:
            top, end = _value(text, i)
        end = _WS(text, end).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
        if faults:
            raise faults[0]
        if type(top) is not dict:
            raise ConfigError("top level is not a JSON object")
        _check_kind(top, kind)
        d = check(top, schema)
        d["yarns"] = yarns
        return build(d)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    except TextileError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _check_kind(top: dict, kind: str) -> None:
    if top.get("kind") != kind:
        raise ConfigError(f"not a {kind.replace('_', ' ')} file")


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
    return _load(path, "textile_model", MODEL_SCHEMA, _model_yarn, _model_from_dict)


def _model_yarn(yd: dict) -> YarnModel:
    return YarnModel(yarn_id=yd["id"], family=yd["family"], **_axis_and_sections(yd))


def _model_from_dict(d: dict) -> TextileModel:
    return TextileModel(
        spec=d["spec"],
        yarns=tuple(d["yarns"]),
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
    return _load(path, "reconstructed_yarns", YARNS_SCHEMA, _reconstructed_yarn, _yarns_from_dict)


def _yarns_from_dict(d: dict):
    return d["yarns"], float(d["voxel_size"]), d["origin"]


def _reconstructed_yarn(yd: dict) -> ReconstructedYarn:
    yarn = ReconstructedYarn(
        axis=yd["axis"],
        completed_flags=yd["completed"],
        boundary_gaps=yd["boundary_gaps"],
        **_axis_and_sections(yd),
    )
    if yd["family"] != yarn.family:
        raise ConfigError(f"family {yd['family']!r} does not match axis {yd['axis']!r} ({yarn.family!r})")
    return yarn
