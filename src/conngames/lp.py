"""Exact solver, in integers, for the least core's covering program.

Solves  min sum(x)  s.t.  x(C) >= 1 for every cut C,  x >= 0,  where each cut
is a nonempty coalition given as a bitmask over n agents, and returns x as
ints over one common denominator. Each cut is one row, -x(C) + s_C = -1, with
its own slack. Every cost is 1 >= 0, so the slack basis is dual feasible, and
a dual simplex starts there: no phase 1, no artificial columns. It takes as
the leaving row the one of the lowest basic index whose value is negative,
and as the entering column the one of least ratio of reduced cost to
|coefficient|, ties going to the lowest column: Bland's rule on the dual,
which rules out cycling. The program is feasible (x = 1 pays every cut) and
bounded below by 0, so the dual simplex ends at an optimum.

The cuts are appended, one row each, to an empty program or to the program
a previous solution kept, so that constraint generation, which adds one cut
a round, goes on from the last optimum in a few pivots. A new row enters with
its slack basic, once the structural basic columns are eliminated from it.
Its slack column is 0 in every other row and in the reduced costs, so the
basis stays dual feasible, and the same loop goes on from there.

The tableau is fraction-free (integer-preserving elimination, after Bareiss
1968): each row is a positive multiple of the rational row whose basic
coefficient is 1, divided by its gcd when an elimination scales it. Its basic
variable's value is rhs / coefficient. The reduced costs are an integer row
updated by the same elimination. Positive multiples keep every sign, and the
ratio test compares by cross-multiplication, so the pivots are those of the
rational tableau. At the optimum each nonzero value is reduced by one gcd,
and the values are put over the lcm of their denominators above 1: the ints
that ``enumeration._scaled`` would make of the Fractions, with no Fraction
built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class LPSolution:
    # The optimal x over one common denominator: x_i = scaled[i] / scale,
    # with scale the lcm of the values' reduced denominators.
    scale: int
    scaled: tuple[int, ...]
    # The final tableau, basis and reduced-cost row, which the next solve
    # that starts from this solution takes over.
    _program: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def x(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.scale) for v in self.scaled)

    @property
    def objective(self) -> Fraction:
        return Fraction(sum(self.scaled), self.scale)


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


def solve_exact(n: int, cuts: Sequence[int], start: LPSolution | None = None) -> LPSolution:
    """The least x >= 0 of sum(x) with x(C) >= 1 for every mask C in ``cuts``.

    ``start``, a solution returned for a prefix of ``cuts`` over the same n
    agents, is continued from: only the cuts it does not hold are appended.
    Its program is taken over and changed in place, so a solution can be
    started from once."""
    tableau, basis, reduced = start._program if start else ([], [], [1] * n + [0])
    for cut in cuts[len(basis):]:
        for row in tableau:
            row.insert(-1, 0)
        reduced.insert(-1, 0)
        new = [-(cut >> i & 1) for i in range(n)] + [0] * len(basis) + [1, -1]
        for row, b in zip(tableau, basis):
            if b < n:
                new = _eliminate(new, row, b)
        basis.append(n + len(basis))
        tableau.append(new)
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
    values = [(0, 1)] * n  # (numerator, denominator) of each x_i, in lowest terms
    for row, b in zip(tableau, basis):
        if b < n and row[-1]:
            g = math.gcd(row[-1], row[b])
            values[b] = row[-1] // g, row[b] // g
    scale = math.lcm(*(d for _, d in values if d > 1))
    return LPSolution(scale, tuple(v * (scale // d) for v, d in values),
                      (tableau, basis, reduced))
