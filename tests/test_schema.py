"""The JSON schema check and the readers that go through it."""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textilemodel.errors import ConfigError
from textilemodel.pipeline import config_from_dict, run_pipeline
from textilemodel.schema import Array, Object, Stack, check
from textilemodel.segmenter import RECORD_SCHEMA, read_detections
from textilemodel.storage import MODEL_SCHEMA, YARNS_SCHEMA, load_model, load_yarns
from textilemodel.voxelizer import SIDECAR_SCHEMA, load_volume

from test_pipeline import SMALL


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    run_pipeline(config_from_dict({**SMALL, "reconstruct": {"write_meshes": False}}), out)
    return out


def _docs(path):
    """The JSON values of a file: one, or one per line of a JSONL file."""
    text = Path(path).read_text()
    return [json.loads(line) for line in text.splitlines()] if path.suffix == ".jsonl" else [json.loads(text)]


def _nodes(value, path=()):
    """(path, value) of ``value`` and every value inside it."""
    yield path, value
    items = value.items() if type(value) is dict else enumerate(value) if type(value) is list else ()
    for key, item in items:
        yield from _nodes(item, path + (key,))


def _where(path) -> str:
    """A key path as check names it."""
    text = ""
    for key in path:
        text = f"{text}[{key}]" if type(key) is int else f"{text}.{key}" if text else key
    return text


class TestCheck:
    @pytest.mark.parametrize(
        "kind, good, bad",
        [
            (int, [0, -3, 10**300], [True, 1.0, "1", None, 10**400, [1]]),
            (float, [0, 1.5, -1e308, 10**300], [True, "1.5", None, math.nan, math.inf, 10**400, [1.0]]),
            (bool, [True, False], [0, 1, "true", None]),
            (str, ["", "yz"], [1, None, True, ["a"]]),
            (("warp", "weft"), ["warp", "weft"], ["matrix", 1, None, True]),
            (float | None, [None, 2.0], ["x", True, math.nan]),
            (tuple[int, ...], [[], [1, 2]], [[1.0], [True], "12", {}, None]),
            (tuple[float, float], [[1, 2.5]], [[1.0], [1.0, 2.0, 3.0], ["1", 2.0]]),
            (dict[str, ("warp", "weft")], [{}, {"1": "warp"}], [{"1": 5}, [], None]),
            (Array((2,)), [[1, 2.5]], [[1], [1, 2, 3], ["1", 2], [True, 1], [math.nan, 1], [10**400, 1], "ab"]),
            (Array((None, 2)), [[], [[1, 2], [3, 4]]], [[[1, 2], [3]], [[1, 2], "ab"], [[1, 2], 3], [[{}, 1]]]),
            (Array(()), [1, 2.5], [True, "1", [1], math.inf]),
            (Object({"a": int}, {"b": str}), [{"a": 1}, {"a": 1, "b": "x"}], [{}, {"b": "x"}, {"a": 1, "c": 2}, []]),
        ],
    )
    def test_kinds_accept_json_of_their_type_only(self, kind, good, bad):
        for value in good:
            got = check(value, kind, "k")
            if isinstance(kind, Array):
                got = got.tolist()
            assert got == (tuple(value) if type(value) is list and not isinstance(kind, Array) else value)
        for value in bad:
            with pytest.raises(ConfigError, match=r"^(unknown key |missing key ')?k[ .\[]"):
                check(value, kind, "k")

    def test_arrays_come_back_as_float64_of_their_shape(self):
        got = check([[1, 2], [3, 4.5]], Array((None, 2)))
        assert got.dtype == np.float64 and got.shape == (2, 2)
        assert check([], Array((None, 3))).shape == (0, 3)

    def test_stack_returns_columns_and_names_its_first_faulty_row(self):
        kind = Stack(Object({"c": Array((2,)), "t": Array(())}, {"n": int | None}))
        rows = [{"c": [1, 2], "t": 0, "n": None}, {"c": [3, 4], "t": 1.5}]
        got = check(rows, kind, "s")
        assert got["c"].tolist() == [[1, 2], [3, 4]] and got["t"].tolist() == [0.0, 1.5]
        assert got["n"] == [None, None]
        for k, (key, value) in enumerate([("t", "1"), ("c", [1]), ("x", 1), ("n", 1.0)]):
            bad = [dict(r) for r in rows] + [{"c": [5, 6], "t": 2.0} for _ in range(k + 1)]
            bad[k + 1][key] = value
            with pytest.raises(ConfigError, match=rf"s\[{k + 1}\]\.{key}"):
                check(bad, kind, "s")

    def test_dataclass_fields_are_checked_against_their_hints(self):
        @dataclasses.dataclass(frozen=True)
        class Spec:
            n: int
            scale: float | None = None

            def __post_init__(self):
                if self.n < 1:
                    raise ConfigError("n must be positive")

        assert check({"n": 2}, Spec) == Spec(2)
        cases = [({"n": 2.0}, "n must be an integer"), ({"scale": 1.0}, "missing key 'spec.n'"),
                 ({"n": 0}, "bad value under spec: n must be positive"), ({"n": 1, "m": 2}, "unknown key spec.m")]
        for value, message in cases:
            with pytest.raises(ConfigError, match=message):
                check(value, Spec, "spec")


# Each writer's output, by the file the small run writes it to, and the
# schema its reader checks it against.
_WRITTEN = [
    ("model.json", MODEL_SCHEMA),  # save_model
    ("yarns.json", YARNS_SCHEMA),  # save_yarns
    ("labels.json", SIDECAR_SCHEMA),  # save_volume
    ("pseudo_ct.json", SIDECAR_SCHEMA),  # render_pseudo_ct
    ("detections_yz.jsonl", RECORD_SCHEMA),  # write_detections
]


@pytest.mark.parametrize("name, schema", _WRITTEN)
def test_writer_output_passes_its_schema_and_declares_every_key(run_dir, name, schema):
    docs = _docs(run_dir / name)
    doc = docs[0]
    for d in docs:
        check(d, schema)
    # Objects are closed, so passing shows that the writer wrote no key
    # the schema lacks; an added key is named wherever it goes.
    objects = {}
    for path, value in _nodes(doc):
        if type(value) is dict:
            objects.setdefault(tuple("*" if type(k) is int else k for k in path), path)
    assert objects
    for path in objects.values():
        node = doc
        for key in path:
            node = node[key]
        node["extra"] = 1
        with pytest.raises(ConfigError) as err:
            check(doc, schema)
        assert _where(path + ("extra",)) in str(err.value)
        del node["extra"]


# Lists and maps whose size the format leaves free: an item more or
# less is another valid file, not a fault.
_FREE_SIZE = {"warp_sequence", "weft_sequence", "label_map"}
# Optional keys and the value a reader takes when one is missing.
_DEFAULTS = {"confidence": 1.0, "true_label": None, "label_map": {}}


def _mutations(path, value):
    """The mutations that apply to the value at ``path``."""
    out = ["string", "past float range", "nan"]
    if type(value) is not bool:
        out.append("bool")
    if type(value) is int:
        out.append("float for int")
    if path[-1] in _FREE_SIZE:
        return out
    if type(value) is dict and value:
        out.append("drop key")
    if type(value) is list and value and all(type(v) in (int, float, bool) for v in value):
        out += ["one short", "one long"]
    return out


def _mutate(value, mutation, key):
    if mutation == "string":
        return str(value)
    if mutation == "bool":
        return True
    if mutation == "float for int":
        return float(value)
    if mutation == "past float range":
        return 10**400
    if mutation == "nan":
        return math.nan
    if mutation == "drop key":
        return {k: v for k, v in value.items() if k != key}
    return value[:-1] if mutation == "one short" else value + value[-1:]


def _replaced(doc, path, new):
    """A copy of ``doc`` with the value at ``path`` replaced, copying only
    the containers on the path."""
    if not path:
        return new
    head = dict(doc) if type(doc) is dict else list(doc)
    head[path[0]] = _replaced(doc[path[0]], path[1:], new)
    return head


def _typed(value):
    """``value`` with every leaf's type: numbers compare by type too."""
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [_typed(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(v) for v in value]
    if isinstance(value, dict):
        return "dict", sorted((k, _typed(v)) for k, v in value.items())
    return type(value).__name__, repr(value)


_READERS = {
    "model.json": load_model,
    "yarns.json": load_yarns,
    "labels.json": lambda p: load_volume(p.with_suffix("")),
    "detections_yz.jsonl": read_detections,
}


@st.composite
def _mutated_files(draw, docs):
    """(key path, dropped key or None, new docs): ``docs`` with one value
    mutated.

    A kind of value is drawn first (its key path with list indices
    masked), then one value of that kind and one mutation, so that rare
    keys come up as often as contour coordinates."""
    nodes = {}
    for path, value in _nodes(docs):
        if len(path) > 1:
            nodes.setdefault(tuple("*" if type(k) is int else k for k in path), []).append((path, value))
    path, value = draw(st.sampled_from(nodes[draw(st.sampled_from(sorted(nodes, key=str)))]))
    mutation = draw(st.sampled_from(_mutations(path, value)))
    key = draw(st.sampled_from(sorted(value))) if mutation == "drop key" else None
    return path, key, _replaced(docs, path, _mutate(value, mutation, key))


@pytest.fixture(scope="module")
def originals(run_dir):
    return {name: _typed(read(run_dir / name)) for name, read in _READERS.items()}


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_reader_loads_the_same_value_or_names_the_file(run_dir, originals, name, data):
    """One value of a real file mutated: to its string form, a bool, a
    float where an integer is due, 10**400, NaN, without one key, or a
    list of numbers one item short or long.  The reader either loads a
    value equal to the original's, types included, or raises ConfigError
    naming the file, and for detections the line.  A dropped optional
    key loads as its default."""
    jsonl = name.endswith(".jsonl")
    docs = _docs(run_dir / name)  # a JSON file is a list of one document
    path, key, new = data.draw(_mutated_files(docs))
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / name
        if name == "labels.json":
            (Path(d) / "labels.raw").write_bytes((run_dir / "labels.raw").read_bytes())

        def load(docs):
            out.write_text("".join(json.dumps(r) + "\n" for r in docs) if jsonl else json.dumps(docs[0]))
            return _typed(_READERS[name](out))

        if key in _DEFAULTS:
            want = load(_replaced(docs, path + (key,), _DEFAULTS[key]))
        else:
            want = originals[name]
        try:
            got = load(new)
        except ConfigError as exc:
            where = f"{out}:{path[0] + 1}: " if jsonl else f"{out}: "
            assert str(exc).startswith(where) and str(exc).count(str(out)) == 1, str(exc)
        else:
            assert got == want, (path, key)
