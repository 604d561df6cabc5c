"""Seeded scenario fuzzing through the command line.

Each example takes one fixture from tests/data, replaces one of its
fields (any JSON node, the whole document included) by a generated JSON
value, and runs `descent run` on the result.  Every run must end in a
documented exit code; a field whose new value has another JSON type must
be a validation failure (exit 2).
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qmtree import cli  # noqa: E402

DATA = Path(__file__).parent / "data"
FIXTURES = {p.name: json.loads(p.read_text(encoding="utf-8"))
            for p in sorted(DATA.glob("*.json"))}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=24),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)


def _json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    return "array" if isinstance(value, list) else "object"


def _paths(node, prefix=()):
    """Every node of a JSON document, as a key path from the root."""
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replaced(doc, path, value):
    if not path:
        return value
    out = json.loads(json.dumps(doc))
    _lookup(out, path[:-1])[path[-1]] = value
    return out


def _run_descent(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["descent", "run", str(path)])


@st.composite
def _mutation(draw, other_type):
    name = draw(st.sampled_from(sorted(FIXTURES)))
    doc = FIXTURES[name]
    path = draw(st.sampled_from(list(_paths(doc))))
    old = _json_type(_lookup(doc, path))
    values = JSON_VALUES.filter(lambda v: _json_type(v) != old) \
        if other_type else JSON_VALUES
    return _replaced(doc, path, draw(values))


@FUZZ
@given(_mutation(other_type=False))
def test_mutated_scenarios_exit_with_a_documented_code(doc):
    assert _run_descent(doc) in (0, 2, 3, 4, 5)


@FUZZ
@given(_mutation(other_type=True))
def test_field_of_another_type_is_a_validation_failure(doc):
    assert _run_descent(doc) == 2
