"""Exact solver, in integers, for the least core's covering program.

Solves  min sum(x)  s.t.  x(C) >= 1 for every cut C,  x >= 0,  where each cut
is a nonempty coalition given as a bitmask over n agents, and returns
``fractions.Fraction`` values. Each cut is one row, -x(C) + s_C = -1, with its
own slack. Every cost is 1 >= 0, so the slack basis is dual feasible, and a
dual simplex starts there: no phase 1, no artificial columns. It takes as the
leaving row the one of the lowest basic index whose value is negative, and as
the entering column the one of least ratio of reduced cost to |coefficient|,
ties going to the lowest column: Bland's rule on the dual, which rules out
cycling. The program is feasible (x = 1 pays every cut) and bounded below by
0, so the dual simplex ends at an optimum.

The tableau is fraction-free (integer-preserving elimination, after Bareiss
1968): each row is a positive multiple of the rational row whose basic
coefficient is 1, divided by its gcd when an elimination scales it. Its basic
variable's value is ``Fraction(rhs, coefficient)``. The reduced costs are an
integer row updated by the same elimination. Positive multiples keep every
sign, and the ratio test compares by cross-multiplication, so the pivots are
those of the rational tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


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


def solve_exact(n: int, cuts: Sequence[int]) -> LPSolution:
    """The least x >= 0 of sum(x) with x(C) >= 1 for every mask C in ``cuts``."""
    m = len(cuts)
    tableau = [[-(cut >> i & 1) for i in range(n)] + [int(k == r) for k in range(m)] + [-1]
               for r, cut in enumerate(cuts)]
    basis = list(range(n, n + m))
    reduced = [1] * n + [0] * (m + 1)
    while True:
        infeasible = [r for r, row in enumerate(tableau) if row[-1] < 0]
        if not infeasible:
            break
        leaving = min(infeasible, key=basis.__getitem__)
        entering, num, den = -1, 1, 0  # least ratio num/den, +inf to start
        for j, a in enumerate(tableau[leaving][:-1]):
            if a < 0 and reduced[j] * den < num * -a:
                entering, num, den = j, reduced[j], -a
        _pivot(tableau, basis, leaving, entering)
        reduced = _eliminate(reduced, tableau[leaving], entering)
    x = [Fraction(0)] * n
    for row, b in zip(tableau, basis):
        if b < n:
            x[b] = Fraction(row[-1], row[b])
    return LPSolution(tuple(x), sum(x, Fraction(0)))
