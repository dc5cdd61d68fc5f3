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
    return [row[0] for row in _solve_rows(matrix, [[b] for b in rhs])]


def inverse(matrix):
    """Exact inverse of a nonsingular square matrix, by the same elimination."""
    size = len(matrix)
    return _solve_rows(matrix, [[int(i == j) for j in range(size)] for i in range(size)])


def _solve_rows(matrix, rhs):
    """Exact X with matrix @ X = rhs, the right-hand sides given as rows."""
    size = len(matrix)
    rows = [[Fraction(a) for a in row] + [Fraction(b) for b in extra]
            for row, extra in zip(matrix, rhs)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r][col:] = [a - factor * b for a, b in zip(rows[r][col:], rows[col][col:])]
    x = [None] * size
    for r in reversed(range(size)):
        tail = rows[r][r + 1 : size]
        x[r] = [(b - _dot(tail, [row[k] for row in x[r + 1 :]])) / rows[r][r]
                for k, b in enumerate(rows[r][size:])]
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


def squared_inverse_altitudes(points):
    """Exact 1/h_i^2 for every vertex i of a simplex, h_i its altitude.

    With G the Gram matrix of the edges e_j = p_j - p_0, the gradients of
    the barycentric coordinates lambda_1..lambda_m within the affine hull
    are the rows of G^-1 E, so 1/h_i^2 = |grad lambda_i|^2 = (G^-1)_ii for
    i >= 1.  The gradient of lambda_0 is minus their sum, so 1/h_0^2 is
    the sum of every entry of G^-1.
    """
    first, *rest = [[Fraction(a) for a in p] for p in points]
    edges = [[a - b for a, b in zip(p, first)] for p in rest]
    inv = inverse([[_dot(e, f) for f in edges] for e in edges])
    return [sum(map(sum, inv))] + [inv[i][i] for i in range(len(inv))]


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
