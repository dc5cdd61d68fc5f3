"""``cli.render_json`` against the reference serialiser it replaced.

``conftest.reference_render`` is the old ``isinstance`` chain; the
exact-type dispatch must write the same bytes and raise the same errors
for every type it still accepts.  Subclasses of the exact types and a
dataclass itself, which the chain also wrote, raise TypeError, and no
command emits them.
"""

import collections
import dataclasses
import enum
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from simplexgeo import cli
from simplexgeo.cli import render_json

from conftest import reference_render


@dataclasses.dataclass(frozen=True)
class Record:
    # "émoi" sorts after "zeta", but its escaped key "\u00e9moi" sorts first.
    zeta: object
    alpha: object
    émoi: object


@dataclasses.dataclass(frozen=True)
class Single:
    value: object


@dataclasses.dataclass
class Defaults:
    weight: float = 1.5
    label: str = "w"


class Level(enum.IntEnum):
    HIGH = 3


class Name(str):
    pass


Point = collections.namedtuple("Point", "x y")

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3)

floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
floats32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
int64s = st.integers(-(2**63), 2**63 - 1)
texts = st.text(max_size=6) | st.text(st.sampled_from('"\\\n\t/aé€😀\x00 '), max_size=6)
keys = texts | texts.map(np.str_)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    int64s.map(np.int64),
    floats,
    floats.map(np.float64),
    floats32.map(np.float32),
    texts,
)
shapes = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=floats),
    hnp.arrays(np.float32, shapes, elements=floats32),
    hnp.arrays(np.int64, shapes, elements=int64s),
    hnp.arrays(np.bool_, shapes),
)
values = st.recursive(
    scalars | arrays,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.builds(Record, children, children, children),
        st.builds(Single, children),
    ),
    max_leaves=16,
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_matches_reference(value):
    assert render_json(value) == reference_render(value)


@pytest.mark.parametrize(
    "value",
    [
        {Name("b"): 1, "a": "x"},  # a dict key may be any str
        np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float16),
        np.array([1, 2], dtype=">f8"),
        np.float64(np.pi),
        np.array(2.5),
        np.array(["a", "é"]),
        Defaults(),
        [Single(Single(None))] * 3,
    ],
    ids=lambda value: type(value).__name__,
)
def test_other_types_match_reference(value):
    assert render_json(value) == reference_render(value)


@pytest.mark.parametrize(
    "value",
    [
        Level.HIGH,
        Name('quote " and \\ and é'),
        collections.OrderedDict([("z", 1.0), ("a", [True])]),
        Point(0.5, -0.0),
        np.ma.masked_array([1.0, 2.0, 3.0], mask=[0, 1, 0]),
        Defaults,  # a dataclass itself, not an instance
    ],
    ids=lambda value: type(value).__name__,
)
def test_subclasses_and_dataclass_types_raise(value):
    with pytest.raises(TypeError, match=f"^cannot serialize {type(value).__name__}$"):
        render_json([value])


def test_commands_reach_only_report_dataclasses(tmp_path, monkeypatch, capsys):
    """Every value a command writes has an exact-type writer or is a report.

    The table is reset to its fixed types, so each report dataclass reaches
    ``_render_other`` once, when its writer is made.
    """
    seen, render_other = [], cli._render_other

    def spy(obj):
        seen.append(type(obj))
        return render_other(obj)

    monkeypatch.setattr(cli, "_render_other", spy)
    monkeypatch.setattr(cli, "_WRITERS", {kind: write for kind, write in cli._WRITERS.items()
                                          if not dataclasses.is_dataclass(kind)})
    simplex = tmp_path / "simplex.json"
    simplex.write_text('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
    points = tmp_path / "points.json"
    points.write_text('{"points": [[0, 0], [2, 0.5], [1, 3], [-1, 1], [0.5, 0.5]]}')
    runs = [
        ["analyze", str(simplex)],
        ["enclose", str(points), "--variant-jung", "--bw-check"],
        ["solve", "shifted-identity-2d", str(simplex), "--trace", str(tmp_path / "steps.jsonl")],
        ["regular", "--m", "3", "--n", "4", "--diam", "2"],
        ["corpus", "--seed", "3", "--count", "4"],
    ]
    for argv in runs:
        assert cli.main(argv) == cli.EXIT_OK, argv
    assert capsys.readouterr().err == ""
    assert sorted(kind.__name__ for kind in seen) == [
        "BisectionStep", "EnclosureReport", "MedianReport", "MetricsReport"]


def assert_same_error(value, kind):
    with pytest.raises(kind) as got:
        render_json(value)
    with pytest.raises(kind) as want:
        reference_render(value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_raises(bad):
    assert_same_error(np.array([1.0, bad, 2.0]), ValueError)
    assert_same_error(np.array([[0.5, 1.0], [2.0, bad]]), ValueError)
    assert_same_error({"b": [[1.0], [2.0, bad]], "a": [0.0]}, ValueError)
    assert_same_error(Single(np.float32(bad)), ValueError)


@pytest.mark.parametrize(
    "value",
    [{1: 2.0}, {"a": {(1, 2): None}}, [1, object()], {1.5j}, 2j],
    ids=["int-key", "tuple-key", "object", "set", "complex"],
)
def test_type_errors(value):
    assert_same_error(value, TypeError)
