"""Small exact linear-program solver (two-phase primal simplex) in integers.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  for rational
data and returns ``fractions.Fraction`` values. Bland's rule is used for both
the entering and the leaving variable, which rules out cycling. Dimensions
here are tiny (the least-core solver generates constraints lazily), so a
dense tableau is fine.

The tableau is fraction-free (integer-preserving elimination, after Bareiss
1968): each row is a primitive integer list, a positive multiple of the
rational row whose basic coefficient is 1. Its basic variable's value is
``Fraction(rhs, coefficient)``. The reduced costs are an integer row updated
by the same elimination. Positive multiples keep every sign, and the ratio
test compares by cross-multiplication, so the pivots are those of the
rational tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class LPInfeasible(Exception):
    pass


class LPUnbounded(Exception):
    pass


@dataclass(frozen=True)
class LPSolution:
    x: tuple[Fraction, ...]
    objective: Fraction


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _scaled(values: Sequence[Fraction | int]) -> list[int]:
    """``values`` times the lcm of their denominators."""
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def _eliminate(row: list[int], prow: list[int], col: int) -> list[int]:
    """A positive multiple of ``row`` minus a multiple of ``prow`` that is 0 at ``col``."""
    f = row[col]
    if f == 0:
        return row
    p = prow[col]
    return _primitive([p * v - f * w for v, w in zip(row, prow)])


def _pivot(tableau, basis, row, col):
    if tableau[row][col] < 0:
        tableau[row] = [-v for v in tableau[row]]
    prow = tableau[row]
    for r, other in enumerate(tableau):
        if r != row:
            tableau[r] = _eliminate(other, prow, col)
    basis[row] = col


def _optimize(tableau, basis, costs, limit):
    """Bland's-rule simplex over the first ``limit`` columns for the integer ``costs``."""
    reduced = costs + [0]
    for r, b in enumerate(basis):
        reduced = _eliminate(reduced, tableau[r], b)
    while True:
        entering = next((j for j in range(limit) if reduced[j] < 0), -1)
        if entering == -1:
            return
        leaving, num, den = -1, 1, 0  # best ratio num/den, +inf to start
        for r, row in enumerate(tableau):
            a = row[entering]
            if a > 0:
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leaving]):
                    leaving, num, den = r, row[-1], a
        if leaving == -1:
            raise LPUnbounded("objective unbounded below")
        _pivot(tableau, basis, leaving, entering)
        reduced = _eliminate(reduced, tableau[leaving], entering)


def _rational(v) -> int | Fraction:
    """``v`` itself if it is an int, else as an exact ``Fraction``."""
    return v if isinstance(v, int) else Fraction(v)


def solve_exact(c: Sequence, a_ub: Sequence[Sequence] = (), b_ub: Sequence = (),
                a_eq: Sequence[Sequence] = (), b_eq: Sequence = ()) -> LPSolution:
    c = [_rational(v) for v in c]
    nv = len(c)
    rows: list[tuple[list[int | Fraction], int | Fraction, bool]] = []
    for coeffs, b in zip(a_ub, b_ub):
        rows.append(([_rational(v) for v in coeffs], _rational(b), True))
    for coeffs, b in zip(a_eq, b_eq):
        rows.append(([_rational(v) for v in coeffs], _rational(b), False))
    m = len(rows)
    n_slack = sum(1 for _, _, has_slack in rows if has_slack)
    artificial = nv + n_slack
    width = artificial + m  # artificial variable per row

    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_at = nv
    for r, (coeffs, b, has_slack) in enumerate(rows):
        sign = -1 if b < 0 else 1
        row = [0] * (width + 1)
        row[:nv] = [sign * v for v in coeffs]
        if has_slack:
            row[slack_at] = sign
            slack_at += 1
        row[-1] = sign * b
        row[artificial + r] = 1
        tableau.append(_primitive(_scaled(row)))
        basis.append(artificial + r)

    # Phase 1: drive the artificial variables to zero.
    _optimize(tableau, basis, [0] * artificial + [1] * m, limit=width)
    if any(tableau[r][-1] for r in range(m) if basis[r] >= artificial):
        raise LPInfeasible("no feasible point")
    for r in range(m):
        if basis[r] >= artificial:
            # Basic artificial at value zero: pivot it out if the row has any
            # structural coefficient; otherwise the row is redundant.
            for j in range(artificial):
                if tableau[r][j] != 0:
                    _pivot(tableau, basis, r, j)
                    break

    _optimize(tableau, basis, _scaled(c) + [0] * (n_slack + m), limit=artificial)

    x = [Fraction(0)] * nv
    for r, b in enumerate(basis):
        if b < nv:
            x[b] = Fraction(tableau[r][-1], tableau[r][b])
    objective = sum((ci * xi for ci, xi in zip(c, x) if ci), start=Fraction(0))
    return LPSolution(tuple(x), objective)
