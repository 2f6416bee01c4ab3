"""Stable reward divisions: veto players, core membership, maximal excess,
epsilon-core membership, and the least core.

The core of a connectivity game has a concise representation: the set of veto
agents (agents present in every winning coalition). An imputation is in the
core iff it hands the whole unit of reward to veto agents. Agent i is veto iff
the coalition of everyone else loses, which the structural pass
``domain.classify`` asks for every agent in its one kernel batch.

Maximal excess is found from two candidates, whatever the payoffs' signs.
With N- the negatively paid agents, the winning one is the least-paid
winning coalition, W | N- for some minimal winning W: every winning
coalition contains such a W, and adding the rest of N- only lowers its
payment. The domain's exact game (``enumeration._exact_game``) gives it by
``least_paid_winning``: from the veto set where it wins, at any size; else
from the minimal winning coalitions read from the win table, behind the
enumeration cap; or, where a cost estimate favours it, and past the cap
within the query's work budget, by a minimum node-weighted Steiner tree on
the primaries, with N- free and no table. The losing candidate is N- itself
when N- loses, and there is none when it wins, in two steps: any losing L
pays p(L) >= p(N-), a tie only for N- plus zero-paid agents, so no losing
coalition has more excess than N-, nor as much with fewer members; and if
N- wins, the least-paid winning coalition's excess is at least 1 - p(N-),
above -p(N-). So N- is scored at -p(N-) without asking whether it loses: it
is chosen only if it does. Payments are scored exactly in Python integers.

The least core of a game whose veto set wins is eps = 0 with the equal split
over the veto agents. Otherwise it solves  min eps  s.t.  p(C) >= v(C) - eps
over nonempty coalitions, exactly, as the covering program  tau = min sum(x)
s.t.  x(W) >= 1  over winning W, x >= 0: with x = p / (1 - eps), eps =
1 - 1/tau and p = x / tau (tau - 1 is the cost of stability, Bachrach et al.
2009). A winning coalition joins the first primary's region to every other,
so it meets every agent cut between them: x = 1 on a minimum one, of kappa
agents, is feasible, and tau <= kappa. Where kappa pairwise disjoint
coalitions win, y = 1 on each is a dual packing of kappa, so tau = kappa and
that x is optimal. Max-flows on the Steiner oracle's contraction find both
(``enumeration._Steiner.least_cut``), where they can: then they answer, at
any size, with no program, round, table or budget. Otherwise its cuts are
generated lazily. Each round's separation asks the exact game for the
least-paid winning coalition under x, which is minimal (Maschler, Peleg &
Shapley 1979): the table lists the minimal winning
coalitions once and scores them exactly in Python integers, or the Steiner
oracle searches, planned by the rule maximal excess takes. The rounds run in
ints: the program's solution comes as x over one common denominator, which
the separation takes as it is, and Fractions are built once, for the result.
No cut is added twice, so the rounds are bounded by the number of minimal
winning coalitions. Behind the enumeration cap that number bounds them;
past it the query's work does, in the unit of ``enumeration.WORK_BUDGET``:
each round is charged its search's work and its program's tableau, and a
least core that would spend more than the budget is refused.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import enumeration, lp
from .domain import Coalition, ConnectivityDomain, classify
from .enumeration import DEFAULT_ENUMERATION_CAP
from .errors import CapExceededError, DegenerateDomainError

EXACT_LP = "exact-lp"

# 1 / IMPUTATION_TOL: for payoffs scaled to ints over ``scale``, a sum x is
# within the tolerance of y iff |x - y scale| * _TOL_INVERSE <= scale.
_TOL_INVERSE = 10 ** 9
IMPUTATION_TOL = Fraction(1, _TOL_INVERSE)

# Past the enumeration cap, the units of ``enumeration.WORK_BUDGET`` that one
# entry of the least core's tableau, cuts x (n + cuts), is charged: on 48-500
# agents (one Xeon core, CPython 3.11) a search unit took 1.4-21 ns and a
# tableau entry 18-247 ns.
ENTRY_WORK = 16


_EXPONENT = re.compile(r"e([-+]?[\d_]+)\s*\Z", re.IGNORECASE)


def _to_fraction(value) -> Fraction:
    """``value`` as an exact rational. A boolean, which ``Fraction`` reads
    as 0 or 1, is refused with ``ValueError``, and so is a decimal string
    whose exponent exceeds ``sys.int_info.default_max_str_digits``, the most
    digits ``int`` parses: ``Fraction("1e999999999")`` would build a
    billion-digit integer."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"{value!r} is not a number")
    if type(value) is str:
        # "p/q" in decimal digits, as Fraction would read it, without its regex.
        numerator, slash, denominator = value.partition("/")
        if slash and numerator.isdecimal() and denominator.isdecimal():
            return Fraction(int(numerator), int(denominator))
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    if exponent and abs(int(exponent[1])) > sys.int_info.default_max_str_digits:
        raise ValueError(f"exponent of {value!r} is out of range")
    return Fraction(value)


@dataclass(frozen=True)
class Imputation:
    """A division of the grand coalition's reward; payoffs kept as exact rationals."""

    payoffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "Imputation":
        return cls(tuple(_to_fraction(v) for v in values))

    def __len__(self) -> int:
        return len(self.payoffs)

    def __iter__(self):
        return iter(self.payoffs)

    def __getitem__(self, i):
        return self.payoffs[i]


@dataclass(frozen=True)
class CoreDescription:
    """Concise core representation: the veto agents and an emptiness flag."""

    veto_agents: tuple[int, ...]
    is_empty: bool


@dataclass(frozen=True)
class ExcessReport:
    """The maximal excess with a witness coalition, the epsilon verdict when
    asked, and the method tag of the exact form that gave them."""

    max_excess: Fraction
    witness: Coalition
    epsilon_verdict: bool | None = None
    method: str = enumeration.EXACT_ENUMERATION


@dataclass(frozen=True)
class LeastCoreResult:
    epsilon: Fraction
    imputation: tuple[Fraction, ...]
    method: str


def _fractions(payoffs) -> tuple[Fraction, ...]:
    if isinstance(payoffs, Imputation):
        return payoffs.payoffs
    return tuple(_to_fraction(v) for v in payoffs)


def _scaled_imputation(domain: ConnectivityDomain,
                       values: Sequence[Fraction]) -> tuple[int, list[int]]:
    """``values`` over one denominator, as ``enumeration._scaled`` gives
    them, once there is one per agent and they sum to v(N) within
    ``IMPUTATION_TOL``."""
    n = domain.n_agents
    if len(values) != n:
        raise ValueError(f"imputation has {len(values)} entries for {n} agents")
    scale, scaled = enumeration._scaled(values)
    grand_value = 0 if classify(domain).degenerate_all_lose else 1
    total = sum(scaled)
    if abs(total - grand_value * scale) * _TOL_INVERSE > scale:
        raise ValueError(f"not an imputation: payoffs sum to "
                         f"{float(Fraction(total, scale))}, expected {grand_value}")
    return scale, scaled


def veto_players(domain: ConnectivityDomain) -> CoreDescription:
    """Agents present in every winning coalition, as ``classify`` found them;
    the core is non-empty iff at least one exists."""
    veto = classify(domain).veto_agents
    return CoreDescription(veto_agents=veto, is_empty=not veto)


def _refuse_degenerate(domain: ConnectivityDomain, queries: str) -> None:
    """Raise ``DegenerateDomainError`` on a degenerate domain, naming the
    refused ``queries`` (the CLI prints this text as it is)."""
    classification = classify(domain)
    if classification.degenerate:
        kind = "all coalitions win" if classification.degenerate_all_win \
            else "all coalitions lose"
        raise DegenerateDomainError(f"degenerate domain ({kind}); {queries} queries refused")


def is_in_core(domain: ConnectivityDomain, payoffs) -> bool:
    """Core membership via the veto representation: nonnegative payoffs with
    the full unit on veto agents. Refuses degenerate domains."""
    domain.ensure_valid()
    _refuse_degenerate(domain, "core")
    scale, scaled = _scaled_imputation(domain, _fractions(payoffs))
    if any(x * _TOL_INVERSE < -scale for x in scaled):
        return False
    veto_total = sum(scaled[i] for i in classify(domain).veto_agents)
    return abs(veto_total - scale) * _TOL_INVERSE <= scale


def max_excess(domain: ConnectivityDomain, payoffs, *,
               cap: int = DEFAULT_ENUMERATION_CAP,
               allow_negative: bool = False,
               epsilon: float | None = None) -> ExcessReport:
    """Maximal excess v(C) - p(C) over all coalitions, with a witness.

    The maximum is that of two candidates. The winning one is the exact
    game's ``least_paid_winning``, which takes N-, the negatively paid
    agents, as free. The losing one is N- itself, with excess -p(N-): every
    losing coalition pays at least p(N-). If N- wins, the winning one's
    excess is at least 1 - p(N-), so N- is the answer only if it loses. With
    no negative payoff N- is the empty coalition, with excess 0. Payoffs
    below -IMPUTATION_TOL are rejected unless ``allow_negative`` is set.
    Past the enumeration ``cap`` a domain answered by neither the closed
    forms nor the Steiner oracle is refused before the payoffs are checked.
    Payments are scored in ints, the payoffs scaled to one denominator.
    """
    values = _fractions(payoffs)
    game = enumeration._exact_game(domain, cap, separates=True)
    scale, scaled = _scaled_imputation(domain, values)
    if not allow_negative:
        for i, x in enumerate(scaled):
            if x * _TOL_INVERSE < -scale:
                raise ValueError(f"agent {i} has negative payoff {values[i]}; the "
                                 f"epsilon-core test takes nonnegative payoffs")
    # N- is scored as losing whether it loses or not: if it wins, the
    # winning candidate's excess is at least 1 - p(N-), so N- is not chosen.
    negative = enumeration._negatively_paid(scaled)
    keys = [(enumeration._scaled_payment(negative, scaled), negative.bit_count(), negative)]
    winning = game.least_paid_winning(scaled)
    if winning:
        mask, payment = winning
        keys.append((payment - scale, mask.bit_count(), mask))
    # Largest excess, then the smallest coalition, then the smallest mask.
    deficit, _, best_mask = min(keys)
    best_excess = Fraction(-deficit, scale)
    verdict = None
    if epsilon is not None:
        verdict = best_excess <= _to_fraction(epsilon) + IMPUTATION_TOL
    return ExcessReport(max_excess=best_excess,
                        witness=Coalition(best_mask, domain.n_agents),
                        epsilon_verdict=verdict,
                        method=game.method)


def ecm(domain: ConnectivityDomain, payoffs, epsilon, *,
        cap: int = DEFAULT_ENUMERATION_CAP, allow_negative: bool = False) -> bool:
    """Epsilon-core membership: no coalition's excess exceeds epsilon."""
    report = max_excess(domain, payoffs, cap=cap, allow_negative=allow_negative,
                        epsilon=epsilon)
    return bool(report.epsilon_verdict)


def least_core_value(domain: ConnectivityDomain, *,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> LeastCoreResult:
    """Smallest eps whose eps-core is non-empty, with an optimal imputation.

    Deviating coalitions are the nonempty ones. Both eps and the imputation
    are exact rationals. Where the veto set wins, eps is 0 and the imputation
    is the equal split over the veto agents, tagged ``tree-closed-form``.
    Otherwise max-flows on the Steiner oracle's contraction
    (``enumeration._Steiner.least_cut``) give a minimum agent cut of kappa
    agents that every winning coalition meets, so the covering program's
    tau is at most kappa, and, where they can, kappa pairwise disjoint
    winning coalitions, so tau is at least kappa. With both, 1/kappa on each
    agent of the cut is optimal: eps = 1 - 1/kappa, at any size, with no
    program, round or table, tagged ``exact-maxflow``; the cut is the one
    nearest the first primary's region. The flows' cost is polynomial, at
    most 2k - 3 max-flows for k primary regions, each of a few BFS passes
    over V + E, so they are charged nothing to ``enumeration.WORK_BUDGET``. Any other least core takes the
    rounds of ``_least_core_by_rounds``. Refuses degenerate domains.
    """
    _refuse_degenerate(domain, "least-core")
    if classify(domain).veto_wins:
        game = enumeration._exact_game(domain, cap)
        return LeastCoreResult(*game.least_core(), game.method)
    cut, packing = enumeration._steiner(domain).least_cut()
    if packing is not None:
        return _least_core_result(domain, 1, [cut >> i & 1 for i in range(domain.n_agents)],
                                  "exact-maxflow")
    return _least_core_by_rounds(domain, enumeration._exact_game(domain, cap, separates=True),
                                 cap)


def _least_core_by_rounds(domain: ConnectivityDomain, game, cap: int) -> LeastCoreResult:
    """The least core by lazily generated cuts, separated by ``game``.

    Past the enumeration ``cap`` a domain is answered only by the Steiner
    oracle, within one budget for the query, ``enumeration.WORK_BUDGET``,
    and refused (``CapExceededError``) otherwise, before any table is built.
    Each round is charged, before it solves and searches, one search's
    ``work`` plus ``ENTRY_WORK`` for each entry of its program's tableau,
    cuts x (n + cuts); the round that would pass the budget is refused.
    Each round adds the least-paid winning coalition under x, which the
    exact game's ``least_paid_winning`` finds from the table's minimal
    winning coalitions, listed once, or by the Steiner oracle, and
    ``lp.solve_exact`` solves each restricted covering program
    min sum(x)  s.t.  x(W) >= 1, x >= 0, until every winning coalition is
    paid at least 1; then eps = 1 - 1/tau and the imputation is x / tau, for
    tau = sum(x). Each round's solve starts from the last round's solution
    and appends only the new cut to its optimal basis. The rounds score x in
    ints, as the solver scales it; eps and the imputation become Fractions
    once, after the last round.
    """
    n = domain.n_agents
    budget = enumeration.WORK_BUDGET if n > cap else None
    spent = 0
    active = [(1 << n) - 1]
    solution = None
    while True:
        if budget is not None:
            spent += game.work + ENTRY_WORK * len(active) * (n + len(active))
            if spent > budget:
                raise CapExceededError(
                    f"instance too large for exact solver: the least core of {n} agents "
                    f"needs more than {budget} units of work past the enumeration cap "
                    f"of {cap}", cap)
        solution = lp.solve_exact(n, active, solution)
        mask, payment = game.least_paid_winning(solution.scaled)
        if payment >= solution.scale:
            break
        if mask in active:  # a cut the program already holds: no progress
            raise RuntimeError("least-core constraint generation failed to converge")
        active.append(mask)
    return _least_core_result(domain, solution.scale, solution.scaled, EXACT_LP)


def _least_core_result(domain: ConnectivityDomain, scale: int, scaled: Sequence[int],
                       method: str) -> LeastCoreResult:
    """eps = 1 - 1/tau and the imputation x / tau for the optimal covering
    x = scaled / scale, checked against the veto agents: eps = 0 iff one
    exists."""
    # With tau = total / scale for total = sum(scaled), eps = 1 - 1/tau =
    # (total - scale) / total and p = x / tau = scaled / total.
    total = sum(scaled)
    eps_star = Fraction(total - scale, total)
    if (eps_star == 0) == (not classify(domain).veto_agents):
        raise RuntimeError("least-core solution inconsistent with the veto-player analysis")
    # One object per distinct share, which cli._converted converts once.
    shares = {v: Fraction(v, total) for v in set(scaled)}
    return LeastCoreResult(eps_star, tuple(map(shares.__getitem__, scaled)), method)
