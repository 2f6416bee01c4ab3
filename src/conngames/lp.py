"""Small exact linear-program solver (two-phase primal simplex) in integers.

Solves  min c.x  s.t.  A_ub x <= b_ub,  A_eq x = b_eq,  x >= 0  for rational
data and returns ``fractions.Fraction`` values. Bland's rule is used for both
the entering and the leaving variable, which rules out cycling. Dimensions
here are tiny (the least-core solver generates constraints lazily), so a
dense tableau is fine.

The tableau is fraction-free (integer-preserving elimination, after Bareiss
1968): each row, integer data entered as it is, is a positive multiple of
the rational row whose basic coefficient is 1, divided by its gcd when an
elimination scales it. Its basic variable's value is ``Fraction(rhs,
coefficient)``. The reduced costs are an integer row updated by the same
elimination. Positive multiples keep every sign, and the ratio test compares
by cross-multiplication, so the pivots are those of the rational tableau.

Twin and artificial columns are left out without changing a pivot. A
column whose cost and coefficients equal an earlier one's stays equal to it
through every pivot, so Bland's rule, which takes the lowest index, never
enters it, and the scan that pivots zero artificials out after phase 1 meets
the earlier one first: it is dropped up front and gets x = 0. Phase 2 may
not enter an artificial, so it runs without those columns and without the
rows whose artificial stayed basic, which are 0 on every other column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
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


def _eliminate(row: list[int], prow: list[int], col: int) -> list[int]:
    """A positive multiple of ``row`` minus a multiple of ``prow`` that is 0 at ``col``."""
    f = row[col]
    if f == 0:
        return row
    p = prow[col]
    if p == 1:  # the row is not scaled, so no gcd pass
        return [v - f * w for v, w in zip(row, prow)]
    return _primitive([p * v - f * w for v, w in zip(row, prow)])


def _pivot(tableau, basis, row, col):
    if tableau[row][col] < 0:
        tableau[row] = [-v for v in tableau[row]]
    prow = tableau[row]
    for r, other in enumerate(tableau):
        if r != row:
            tableau[r] = _eliminate(other, prow, col)
    basis[row] = col


def _optimize(tableau, basis, reduced, limit):
    """Bland's-rule simplex over the first ``limit`` columns from the ``reduced`` costs."""
    while True:
        entering = next((j for j, v in enumerate(reduced[:limit]) if v < 0), -1)
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


def _integers(values: list) -> list[int]:
    """``values`` if all are ints, else as rationals times the lcm of their
    denominators; primitive either way if one of them is 1."""
    if set(map(type, values)) <= {int}:
        return values
    values = [_rational(v) for v in values]
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values]


def solve_exact(c: Sequence, a_ub: Sequence[Sequence] = (), b_ub: Sequence = (),
                a_eq: Sequence[Sequence] = (), b_eq: Sequence = ()) -> LPSolution:
    rows = [(coeffs, b, True) for coeffs, b in zip(a_ub, b_ub)]
    rows += [(coeffs, b, False) for coeffs, b in zip(a_eq, b_eq)]
    first: dict[tuple, int] = {}  # (cost, *column) -> its first index; twins are dropped
    for j, column in enumerate(zip(c, *(coeffs for coeffs, _, _ in rows))):
        first.setdefault(column, j)
    keep = list(first.values())
    nv, m = len(keep), len(rows)
    n_slack = sum(1 for _, _, has_slack in rows if has_slack)
    artificial = nv + n_slack
    width = artificial + m  # artificial variable per row

    tableau: list[list[int]] = []
    basis: list[int] = []
    slack_at = nv
    for r, (coeffs, b, has_slack) in enumerate(rows):
        row = [coeffs[j] for j in keep] + [0] * (n_slack + m) + [b]
        if has_slack:
            row[slack_at] = 1
            slack_at += 1
        row[artificial + r] = 1
        row = _integers(row)
        if row[-1] < 0:  # negate all but the artificial
            row = [-v for v in row]
            row[artificial + r] *= -1
        tableau.append(row)
        basis.append(artificial + r)

    # Phase 1: drive the artificial variables to zero. Row r is a_r times its
    # rational row, so the reduced costs are minus the sum of the rows
    # weighted by L / a_r, L = lcm(a_r), and 0 on the artificial columns.
    scale = math.lcm(*(row[artificial + r] for r, row in enumerate(tableau)))
    weights = [scale // row[artificial + r] for r, row in enumerate(tableau)]
    reduced = [-sum(map(mul, weights, column)) for column in zip(*tableau)]
    reduced[artificial:width] = [0] * m
    _optimize(tableau, basis, _primitive(reduced), limit=width)
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

    # Phase 2 drops the artificial columns, which may not enter, and the
    # redundant rows, which are 0 on every other column.
    live = [r for r in range(m) if basis[r] < artificial]
    tableau = [tableau[r][:artificial] + tableau[r][-1:] for r in live]
    basis = [basis[r] for r in live]
    reduced = _integers([c[j] for j in keep]) + [0] * (n_slack + 1)
    for row, b in zip(tableau, basis):
        reduced = _eliminate(reduced, row, b)
    _optimize(tableau, basis, reduced, limit=artificial)

    x = [Fraction(0)] * len(c)
    for row, b in zip(tableau, basis):
        if b < nv:
            x[keep[b]] = Fraction(row[-1], row[b])
    objective = sum((_rational(ci) * xi for ci, xi in zip(c, x) if ci), start=Fraction(0))
    return LPSolution(tuple(x), objective)
