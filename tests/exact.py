"""Exact rational arithmetic for certificates of float results.

Every float is a dyadic rational, so ``fractions.Fraction`` and Python
integers hold the exact value of any rational expression of the input.
"""

from fractions import Fraction
from math import lcm


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def solve(matrix, rhs):
    """Exact solution of a nonsingular square system, by Gaussian elimination."""
    size = len(rhs)
    rows = [[Fraction(a) for a in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r][col:] = [a - factor * b for a, b in zip(rows[r][col:], rows[col][col:])]
    x = [Fraction(0)] * size
    for r in reversed(range(size)):
        x[r] = (rows[r][size] - _dot(rows[r][r + 1 : size], x[r + 1 :])) / rows[r][r]
    return x


def circumcenter(points):
    """Exact circumcenter of affinely independent points within their affine
    hull, as (center, barycentric coefficients, squared radius).

    The center is p_0 + sum_j x_j (p_j - p_0), where the Gram system
    (p_i - p_0) . (p_j - p_0) x_j = |p_i - p_0|^2 / 2 puts it as far from
    every p_i as from p_0.
    """
    first, *rest = [[Fraction(a) for a in p] for p in points]
    edges = [[a - b for a, b in zip(p, first)] for p in rest]
    x = solve([[_dot(e, f) for f in edges] for e in edges], [_dot(e, e) / 2 for e in edges])
    offset = [_dot(x, column) for column in zip(*edges)] if edges else [Fraction(0)] * len(first)
    center = [a + b for a, b in zip(first, offset)]
    return center, [1 - sum(x)] + x, _dot(offset, offset)


def squared_distances(points, center):
    """Exact |p - center|^2 for every row of a float array, as Fractions.

    The work is done in integers over one common denominator, which keeps
    thousands of points cheap.
    """
    ratios = [[a.as_integer_ratio() for a in row] for row in points.tolist()]
    scale = lcm(*(den for row in ratios for _, den in row))
    denom = lcm(*(c.denominator for c in center))
    shifted = [c.numerator * (denom // c.denominator) * scale for c in center]
    out = []
    for row in ratios:
        gaps = [num * (scale // den) * denom - c for (num, den), c in zip(row, shifted)]
        out.append(Fraction(_dot(gaps, gaps), (scale * denom) ** 2))
    return out
