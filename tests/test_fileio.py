"""Every rejection of the JSON input parser, for point and simplex files."""

import numpy as np
import pytest

from simplexgeo.errors import ParseError
from simplexgeo.fileio import parse_points_json, parse_simplex_json

HUGE_INT = "1" + "0" * 400

MALFORMED_ROWS = {
    "true": "[[true, 0], [1, 0], [0, 1]]",
    "false": "[[0, 0], [1, false], [0, 1]]",
    "string": '[[0, 0], [1, "1"], [0, 1]]',
    "null": "[[0, 0], [1, 0], [null, 1]]",
    "nested-list": "[[0, 0], [[1], 0], [0, 1]]",
    "object": '[[0, 0], [1, {"x": 0}], [0, 1]]',
    "non-list-row": "[[0, 0], 1, [0, 1]]",
    "object-row": '[[0, 0], {"x": 1}, [0, 1]]',
    "empty-row": "[[0, 0], [], [0, 1]]",
    "all-rows-empty": "[[], [], []]",
    "ragged": "[[0, 0], [1, 0, 0], [0, 1]]",
    "empty-list": "[]",
    "not-a-list": '"0, 0"',
    "nan-token": "[[NaN, 0], [1, 0], [0, 1]]",
    "infinity-token": "[[0, 0], [Infinity, 0], [0, 1]]",
    "minus-infinity-token": "[[0, 0], [1, 0], [0, -Infinity]]",
    "float-overflow": "[[0, 0], [1e400, 0], [0, 1]]",
    "int-overflow": f"[[0, 0], [1, {HUGE_INT}], [0, 1]]",
    "negative-int-overflow": f"[[0, 0], [1, -{HUGE_INT}], [0, 1]]",
}

PARSERS = {"points": parse_points_json, "vertices": parse_simplex_json}


@pytest.mark.parametrize("key", sorted(PARSERS))
@pytest.mark.parametrize("rows", sorted(MALFORMED_ROWS))
def test_malformed_rows(key, rows):
    with pytest.raises(ParseError):
        PARSERS[key](f'{{"{key}": {MALFORMED_ROWS[rows]}}}')


@pytest.mark.parametrize("key", sorted(PARSERS))
@pytest.mark.parametrize(
    "text",
    ["", "{not json", "[[0, 0], [1, 0], [0, 1]]", '{"other": [[0, 0], [1, 0], [0, 1]]}', "3"],
    ids=["empty-text", "invalid-json", "top-level-list", "missing-key", "top-level-number"],
)
def test_malformed_document(key, text):
    with pytest.raises(ParseError):
        PARSERS[key](text)


@pytest.mark.parametrize("key", sorted(PARSERS))
def test_deep_nesting(key):
    # json.loads raises RecursionError far below this depth.
    with pytest.raises(ParseError, match="nests too deeply"):
        PARSERS[key](f'{{"{key}": {"[" * 3000}{"]" * 3000}}}')


def test_other_key_rejected():
    with pytest.raises(ParseError):
        parse_points_json('{"vertices": [[0, 0], [1, 0], [0, 1]]}')
    with pytest.raises(ParseError):
        parse_simplex_json('{"points": [[0, 0], [1, 0], [0, 1]]}')


def test_accepts_mixed_ints_and_floats():
    pts = parse_points_json('{"points": [[0, 1.5], [-2, 3], [1e300, -0.0]]}')
    assert pts.dtype == float
    assert pts.tolist() == [[0.0, 1.5], [-2.0, 3.0], [1e300, -0.0]]
    s = parse_simplex_json('{"vertices": [[0, 0], [2, 0], [0, 2.5]]}')
    assert s.vertices.tolist() == [[0.0, 0.0], [2.0, 0.0], [0.0, 2.5]]


def test_large_int_within_float_range():
    # 10^308 still converts; only integers beyond the float range are rejected.
    pts = parse_points_json('{"points": [[1' + "0" * 308 + ", 0]]}")
    assert pts[0, 0] == 1e308
    assert np.isfinite(pts).all()
