"""JSON input formats: a single simplex, or a loose point set.

Both formats are an object with one key ("vertices" or "points") whose
value is a list of equal-length coordinate lists.  Non-finite numbers,
including the NaN/Infinity extensions some JSON writers emit, are
rejected at parse time.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from .core import Simplex, validate_simplex
from .errors import ParseError


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token!r} is not allowed")


def _coordinate_rows(text: str, key: str) -> np.ndarray:
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nests too deeply to parse") from exc
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f'top-level object must contain the key "{key}"')
    rows = doc[key]
    if not isinstance(rows, list) or not rows:
        raise ParseError(f'"{key}" must be a non-empty list of coordinate lists')
    if set(map(type, rows)) != {list} or not all(rows):
        raise ParseError("every entry must be a non-empty coordinate list")
    if len(set(map(len, rows))) != 1:
        raise ParseError("coordinate lists must share one length")
    flat = list(itertools.chain.from_iterable(rows))
    # bool is its own type, so true/false fail here too.
    if not set(map(type, flat)) <= {int, float}:
        bad = next(x for x in flat if type(x) not in (int, float))
        raise ParseError(f"coordinate {bad!r} is not a number")
    try:
        arr = np.array(flat, dtype=float).reshape(len(rows), -1)
    except OverflowError as exc:  # an integer beyond the float range
        raise ParseError("coordinates must be finite") from exc
    if not np.all(np.isfinite(arr)):
        raise ParseError("coordinates must be finite")
    return arr


def parse_simplex_json(text: str) -> Simplex:
    """Parse a {"vertices": [[...], ...]} document into a validated simplex."""
    return validate_simplex(_coordinate_rows(text, "vertices"))


def parse_points_json(text: str) -> np.ndarray:
    """Parse a {"points": [[...], ...]} document into an (N, n) array."""
    return _coordinate_rows(text, "points")


def _read_text(path) -> tuple[str, str]:
    """The UTF-8 text of a file and the SHA-256 hex digest of its bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from exc
    return text, hashlib.sha256(raw).hexdigest()


def load_simplex(path) -> tuple[Simplex, str]:
    text, digest = _read_text(path)
    return parse_simplex_json(text), digest


def load_points(path) -> tuple[np.ndarray, str]:
    text, digest = _read_text(path)
    return parse_points_json(text), digest
