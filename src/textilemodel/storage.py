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


def _load(path, kind: str, build):
    """``build(d)`` of the JSON object ``d`` in ``path``, whose ``kind``
    must be ``kind``.

    A key that ``build`` misses, a value of the wrong type, a number
    past the float range or a value that the built objects reject
    raises ConfigError naming the file once.
    """
    d = read_json(path)
    if d.get("kind") != kind:
        raise ConfigError(f"{path}: not a {kind.replace('_', ' ')} file")
    try:
        return build(d)
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed value ({exc})") from exc
    except TextileError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _curve_to_dict(curve: BSplineCurve) -> dict:
    return {
        "degree": curve.degree,
        "knots": curve.knots.tolist(),
        "control_points": curve.control_points.tolist(),
    }


def _curve_from_dict(d: dict) -> BSplineCurve:
    if type(d["degree"]) is not int:
        raise ConfigError("curve degree must be an integer")
    return BSplineCurve(
        control_points=np.array(d["control_points"], dtype=float),
        degree=d["degree"],
        knots=np.array(d["knots"], dtype=float),
    )


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


def _sections_from_dicts(ds: list) -> Sections:
    contours = [d["contour"] for d in ds]
    centers = [d["center"] for d in ds]
    stations = [d["station"] for d in ds]
    if len({len(c) for c in contours}) > 1:
        # Ragged point counts do not stack: check the rings before the
        # first one of the wrong length, then that ring on its own,
        # which raises.
        k = next(k for k, c in enumerate(contours) if len(c) != RING_POINTS)
        Sections(contours[:k], centers[:k], stations[:k])
        Sections(contours[k : k + 1], centers[k : k + 1], stations[k : k + 1])
    return Sections(contours, centers, stations)


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
    return _load(path, "textile_model", _model_from_dict)


def _model_from_dict(d: dict) -> TextileModel:
    spec = WeaveSpec(
        n_warp_columns=d["spec"]["n_warp_columns"],
        n_weft_columns=d["spec"]["n_weft_columns"],
        warp_sequence=tuple(d["spec"]["warp_sequence"]),
        weft_sequence=tuple(d["spec"]["weft_sequence"]),
        yarn_spacing=tuple(d["spec"]["yarn_spacing"]),
        crimp_amplitude=d["spec"]["crimp_amplitude"],
        ellipse_a=d["spec"]["ellipse_a"],
        ellipse_b=d["spec"]["ellipse_b"],
    )
    fibers = None
    if d.get("fibers"):
        fibers = FiberSpec(
            fiber_radius=d["fibers"]["fiber_radius"],
            fibers_per_yarn=d["fibers"]["fibers_per_yarn"],
        )
    yarns = tuple(
        YarnModel(
            yarn_id=yd["id"],
            family=yd["family"],
            path=_curve_from_dict(yd["path"]),
            sections=_sections_from_dicts(yd["sections"]),
        )
        for yd in d["yarns"]
    )
    return TextileModel(
        spec=spec,
        yarns=yarns,
        bbox=Box(lo=np.array(d["bbox"]["lo"]), hi=np.array(d["bbox"]["hi"])),
        thickness=float(d["thickness"]),
        fibers=fibers,
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
    return _load(path, "reconstructed_yarns", _yarns_from_dict)


def _yarns_from_dict(d: dict):
    yarns = []
    for yd in d["yarns"]:
        family, axis, completed, gaps = yd["family"], yd["axis"], yd["completed"], yd["boundary_gaps"]
        if isinstance(completed, list) and not all(type(f) is bool for f in completed):
            raise ConfigError("completed flags must be true or false")
        if not (isinstance(gaps, list) and all(_is_gap(g) for g in gaps)):
            raise ConfigError("boundary_gaps must be a list of [first, last] integers, 0 <= first <= last")
        yarn = ReconstructedYarn(
            axis=axis,
            path=_curve_from_dict(yd["path"]),
            sections=_sections_from_dicts(yd["sections"]),
            completed_flags=tuple(bool(f) for f in completed),
            boundary_gaps=tuple(tuple(g) for g in gaps),
        )
        if family != yarn.family:
            raise ConfigError(f"family {family!r} does not match axis {axis!r} ({yarn.family!r})")
        yarns.append(yarn)
    return yarns, float(d["voxel_size"]), np.array(d["origin"])


def _is_gap(g) -> bool:
    """Whether ``g`` is a JSON pair of slice indices ``[first, last]``."""
    return isinstance(g, list) and len(g) == 2 and all(type(i) is int for i in g) and 0 <= g[0] <= g[1]
