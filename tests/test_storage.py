"""The streamed model and yarns readers against the whole-tree reader
they replace."""

import json
import random
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textilemodel import storage
from textilemodel.errors import ConfigError, TextileError
from textilemodel.schema import check
from textilemodel.storage import (
    MODEL_SCHEMA,
    YARNS_SCHEMA,
    load_model,
    load_yarns,
    read_json,
    save_model,
    save_yarns,
)

from test_schema import _docs, _mutated_files, _typed, run_dir  # noqa: F401  (run_dir is a fixture)


def _whole_tree(path, kind, schema, yarn, build):
    """The reader before streaming: the file's whole JSON tree is
    decoded, checked against the full schema, then built."""
    d = read_json(path)
    if d.get("kind") != kind:
        raise ConfigError(f"{path}: not a {kind.replace('_', ' ')} file")
    if isinstance(d.get("spec"), dict):
        d["spec"].pop("seed", None)
    try:
        d = check(d, schema)
        return build({**d, "yarns": [yarn(yd) for yd in d["yarns"]]})
    except TextileError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# name: (streamed reader, whole-tree reference)
_READERS = {
    "model.json": (load_model, lambda p: _whole_tree(
        p, "textile_model", MODEL_SCHEMA, storage._model_yarn, storage._model_from_dict)),
    "yarns.json": (load_yarns, lambda p: _whole_tree(
        p, "reconstructed_yarns", YARNS_SCHEMA, storage._reconstructed_yarn, storage._yarns_from_dict)),
}
_WHITESPACE = ("", "", " ", "\n", "\t ", "\r\n  ")


def _outcome(read, path):
    """The typed value ``read`` loads from ``path``, or its ConfigError text."""
    try:
        return _typed(read(path))
    except ConfigError as exc:
        return "ConfigError", str(exc)


def _layout(value, rnd, order=None) -> str:
    """``value`` as JSON text with random whitespace between tokens and
    every object's keys in random order (the top level's in ``order``).
    A list of numbers gets one separator."""
    def ws():
        return rnd.choice(_WHITESPACE)

    if type(value) is dict:
        keys = list(order or value)
        if order is None:
            rnd.shuffle(keys)
        members = (f"{ws()}{json.dumps(k)}{ws()}:{ws()}{_layout(value[k], rnd)}{ws()}" for k in keys)
        return "{" + (",".join(members) or ws()) + "}"
    if type(value) is list and all(type(v) in (int, float) for v in value):
        return "[" + ws() + f"{ws()},{ws()}".join(map(json.dumps, value)) + ws() + "]"
    if type(value) is list:
        return "[" + (",".join(ws() + _layout(v, rnd) + ws() for v in value) or ws()) + "]"
    return json.dumps(value)


@pytest.fixture(scope="module")
def loaded(run_dir):
    return {name: _typed(read(run_dir / name)) for name, (read, _) in _READERS.items()}


@pytest.mark.parametrize("name", sorted(_READERS))
def test_yarns_before_kind_in_an_indented_file(run_dir, loaded, name, tmp_path):
    (doc,) = _docs(run_dir / name)
    path = tmp_path / name
    path.write_text(json.dumps(dict(reversed(doc.items())), indent=2))
    keys = list(json.loads(path.read_text()))
    assert keys.index("yarns") < keys.index("kind")
    read, reference = _READERS[name]
    assert _typed(read(path)) == _typed(reference(path)) == loaded[name]


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_any_layout_and_key_order_loads_the_same_value(run_dir, loaded, name, data):
    """Random whitespace around every token and random key order at
    every level, the top level's drawn on its own so that ``yarns``
    comes before ``kind`` in about half the examples."""
    (doc,) = _docs(run_dir / name)
    order = data.draw(st.permutations(sorted(doc)))
    rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    read, reference = _READERS[name]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / name
        path.write_text(rnd.choice(_WHITESPACE) + _layout(doc, rnd, order) + rnd.choice(_WHITESPACE))
        assert _typed(read(path)) == _typed(reference(path)) == loaded[name]


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_mutated_value_gives_the_whole_tree_outcome(run_dir, name, data):
    """The single-value mutations of the schema fuzz test, in written key
    order: the same value or the same ConfigError text."""
    path, key, (doc,) = data.draw(_mutated_files(_docs(run_dir / name)))
    read, reference = _READERS[name]
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / name
        out.write_text(json.dumps(doc))
        assert _outcome(read, out) == _outcome(reference, out), (path, key)


@pytest.mark.parametrize("name", sorted(_READERS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_one_edited_character_gives_the_whole_tree_outcome(run_dir, name, data):
    """One character of the written file deleted, replaced or inserted,
    or the text cut short: invalid JSON is reported with the stdlib
    decoder's message and position, wherever it is, and valid JSON
    loads or fails as with the whole-tree reader."""
    text = (run_dir / name).read_text()
    i = data.draw(st.integers(0, len(text) - 1))
    edit = data.draw(st.sampled_from(["delete", "replace", "insert", "cut"]))
    char = data.draw(st.sampled_from(list('{}[],:" 0.-eEx\ufeff')))
    new = {
        "delete": text[:i] + text[i + 1:],
        "replace": text[:i] + char + text[i + 1:],
        "insert": text[:i] + char + text[i:],
        "cut": text[:i],
    }[edit]
    read, reference = _READERS[name]
    with tempfile.TemporaryDirectory() as d:
        out = Path(d) / name
        out.write_text(new)
        assert _outcome(read, out) == _outcome(reference, out), (edit, i, char)


def _peak_mib(read, path) -> float:
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_readers_peak_below_a_plain_json_load(run_dir, tmp_path):
    """Neither reader holds the file's whole JSON tree: its traced peak
    stays below that of ``json.load`` of the same file.  The small run's
    yarns are written eight times over, since building one yarn (its
    section checks) peaks above the whole tree of a four-yarn file."""
    model = load_model(run_dir / "model.json")
    copies = [replace(y, yarn_id=k * len(model.yarns) + y.yarn_id) for k in range(8) for y in model.yarns]
    save_model(replace(model, yarns=copies), tmp_path / "model.json")
    yarns, voxel_size, origin = load_yarns(run_dir / "yarns.json")
    save_yarns(yarns * 8, tmp_path / "yarns.json", voxel_size, origin)

    def plain(path):
        with open(path) as fh:
            return json.load(fh)

    for name, read in (("model.json", load_model), ("yarns.json", load_yarns)):
        path = tmp_path / name
        read(path)  # imports and caches outside the measurement
        assert _peak_mib(read, path) < _peak_mib(plain, path), name
