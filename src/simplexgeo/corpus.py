"""Seeded random simplex generation for tests and the CLI corpus command."""

from __future__ import annotations

import numpy as np

from .core import Simplex, check_int, check_positive, validate_simplex
from .errors import Degenerate, InvalidDimension

# Ranges of the draws for an m or n that is not given: 1 <= m <= M_MAX,
# m <= n <= N_MAX.
M_MAX = 8
N_MAX = 12


def random_simplex(rng: np.random.Generator, m: int, n: int, coord_range: float = 10.0) -> Simplex:
    """Uniformly sampled valid m-simplex in R^n with coordinates in [-r, r].

    Degenerate draws are rejected and resampled; at these sizes rejection
    is vanishingly rare.  Raises InvalidDimension, before the first draw,
    for an m below 1, an n below m or a coord_range that is not a positive
    finite real.
    """
    check_int("m", m, 1)
    check_int("n", n, m)
    check_positive("coord_range", coord_range)
    for _ in range(64):
        coords = rng.uniform(-coord_range, coord_range, size=(m + 1, n))
        try:
            return validate_simplex(coords)
        except Degenerate:
            continue
    raise Degenerate("could not sample a nondegenerate simplex in 64 tries")


def generate(
    seed: int,
    count: int,
    m: int | None = None,
    n: int | None = None,
    coord_range: float = 10.0,
) -> list:
    """Deterministic list of random simplices for a given seed.

    When m or n is None each draw picks its own value in the ranges above,
    with m <= n when only n is given.  Raises InvalidDimension for a seed
    below 0, a count below 0, an m below 1, an n below 1 or below m, or a
    coord_range that is not a positive finite real, whatever the count.
    """
    check_int("seed", seed, 0)
    check_int("count", count, 0)
    check_positive("coord_range", coord_range)
    if m is not None:
        check_int("m", m, 1)
    if n is not None:
        check_int("n", n, 1 if m is None else m)
    elif m is not None and m > N_MAX:
        raise InvalidDimension(f"m = {m} exceeds n_max = {N_MAX}, the largest drawn n; give n too")
    m_max = M_MAX if n is None else min(M_MAX, n)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mi = int(m) if m is not None else int(rng.integers(1, m_max + 1))
        ni = int(n) if n is not None else int(rng.integers(mi, N_MAX + 1))
        out.append(random_simplex(rng, mi, ni, coord_range))
    return out
