"""Stable reward divisions: veto players, core membership, maximal excess,
epsilon-core membership, and the least core.

The core of a connectivity game has a concise representation: the set of veto
agents (agents present in every winning coalition). An imputation is in the
core iff it hands the whole unit of reward to veto agents. Agent i is veto iff
the coalition of everyone else loses, which the structural pass
``domain.classify`` asks for every agent in its one kernel batch.

Maximal excess is found from the minimal winning coalitions. With N- the
negatively paid agents, a least-paid winning coalition is W | N- for some
minimal winning W: every winning coalition contains such a W, and adding the
rest of N- only lowers its payment. Likewise a least-paid losing coalition is
L & N- for some maximal losing L, the complement of a minimal winner of the
dual game (C wins iff its complement loses). For nonnegative payoffs the
losing side is just the empty coalition, with excess 0. Each candidate list is
scored exactly in Python integers.

Both lists come from the domain's exact game (``enumeration._exact_game``).
When the veto set wins, it is the only minimal winning coalition and the
maximal losing ones are N - {i} for each veto agent i, at any size; otherwise
both are read from the win table, behind the enumeration cap.

The least core of a game whose veto set wins is eps = 0 with the equal split
over the veto agents. Otherwise it solves  min eps  s.t.  p(C) >= v(C) - eps
over nonempty coalitions, exactly, with constraints generated lazily. Its
payoffs are nonnegative, so a least-paid winning coalition is always a
minimal winning one (Maschler, Peleg & Shapley 1979): the minimal winning
coalitions are listed once, and each round scores only them, exactly in
Python integers. The rounds are bounded by the number of those coalitions,
so the enumeration cap on the win table is the least core's only cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import enumeration, lp
from .domain import Coalition, ConnectivityDomain, classify
from .enumeration import DEFAULT_ENUMERATION_CAP, TREE_CLOSED_FORM
from .errors import DegenerateDomainError

EXACT_LP = "exact-lp"

IMPUTATION_TOL = Fraction(1, 10 ** 9)


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
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


def _as_payoffs(payoffs, n: int) -> tuple[Fraction, ...]:
    if isinstance(payoffs, Imputation):
        values = payoffs.payoffs
    else:
        values = tuple(_to_fraction(v) for v in payoffs)
    if len(values) != n:
        raise ValueError(f"imputation has {len(values)} entries for {n} agents")
    return values


def _check_total(domain: ConnectivityDomain, payoffs: Sequence[Fraction]) -> None:
    grand_value = 0 if classify(domain).degenerate_all_lose else 1
    total = sum(payoffs, Fraction(0))
    if abs(total - grand_value) > IMPUTATION_TOL:
        raise ValueError(
            f"not an imputation: payoffs sum to {float(total)}, expected {grand_value}")


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
    p = _as_payoffs(payoffs, domain.n_agents)
    _check_total(domain, p)
    if any(x < -IMPUTATION_TOL for x in p):
        return False
    veto_total = sum((p[i] for i in classify(domain).veto_agents), Fraction(0))
    return abs(veto_total - 1) <= IMPUTATION_TOL


def _scaled_payment(mask: int, weights: Sequence[int]) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def max_excess(domain: ConnectivityDomain, payoffs, *,
               cap: int = DEFAULT_ENUMERATION_CAP,
               allow_negative: bool = False,
               epsilon: float | None = None) -> ExcessReport:
    """Maximal excess v(C) - p(C) over all coalitions, with a witness.

    For nonnegative payoffs the maximum is max(0, 1 - min winning payment).
    Payoffs below -IMPUTATION_TOL are rejected unless ``allow_negative`` is
    set; any negative payoff adds the maximal losing coalitions' candidates,
    as losing coalitions can then have positive excess too. Past the
    enumeration ``cap`` only a domain whose veto set wins is answered, and
    any other is refused before its payoffs are read.
    """
    n = domain.n_agents
    game = enumeration._exact_game(domain, cap)
    p = _as_payoffs(payoffs, n)
    _check_total(domain, p)
    if not allow_negative:
        for i, x in enumerate(p):
            if x < -IMPUTATION_TOL:
                raise ValueError(f"agent {i} has negative payoff {x}; the "
                                 f"epsilon-core test takes nonnegative payoffs")
    # Payoffs tolerated as nonnegative may still be slightly negative; a
    # losing coalition of such agents then has a small positive excess.
    negative = sum(1 << i for i, x in enumerate(p) if x < 0)
    winning = [m | negative for m in game.minimal_winning()]
    if negative:
        losing = [negative & m for m in game.maximal_losing()]
    else:
        losing = [] if classify(domain).degenerate_all_win else [0]
    keys = []
    for masks, value in ((winning, 1), (losing, 0)):
        if masks:
            mask, payment = _least_paid(masks, p)
            keys.append((payment - value, mask.bit_count(), mask))
    # Largest excess, then the smallest coalition, then the smallest mask.
    deficit, _, best_mask = min(keys)
    best_excess = -deficit
    verdict = None
    if epsilon is not None:
        verdict = best_excess <= _to_fraction(epsilon) + IMPUTATION_TOL
    return ExcessReport(max_excess=best_excess,
                        witness=Coalition(best_mask, n),
                        epsilon_verdict=verdict,
                        method=game.method)


def ecm(domain: ConnectivityDomain, payoffs, epsilon, *,
        cap: int = DEFAULT_ENUMERATION_CAP, allow_negative: bool = False) -> bool:
    """Epsilon-core membership: no coalition's excess exceeds epsilon."""
    report = max_excess(domain, payoffs, cap=cap, allow_negative=allow_negative,
                        epsilon=epsilon)
    return bool(report.epsilon_verdict)


def _solve_active_exact(active: list[int], n: int, grand_value: int) -> lp.LPSolution:
    # Variables: p_0..p_{n-1}, eps; constraint p(C) + eps >= 1 per active mask.
    a_ub = [[-(mask >> i & 1) for i in range(n)] + [-1] for mask in active]
    return lp.solve_exact([0] * n + [1], a_ub, [-1] * len(active),
                          [[1] * n + [0]], [grand_value])


def _least_paid(masks: list[int], payoffs: Sequence[Fraction]) -> tuple[int, Fraction]:
    """Mask of least (payment, size, mask) in the nonempty list ``masks``,
    with its payment; payments are scored exactly, as integers scaled by the
    lcm of the payoff denominators."""
    scale = math.lcm(*(x.denominator for x in payoffs))
    weights = [x.numerator * (scale // x.denominator) for x in payoffs]
    total, _, mask = min((_scaled_payment(m, weights), m.bit_count(), m) for m in masks)
    return mask, Fraction(total, scale)


def least_core_value(domain: ConnectivityDomain, *,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> LeastCoreResult:
    """Smallest eps whose eps-core is non-empty, with an optimal imputation.

    Deviating coalitions are the nonempty ones. Both eps and the imputation
    are exact rationals. Where the veto set wins, eps is 0 and the imputation
    is the equal split over the veto agents, tagged ``tree-closed-form``.
    Past the enumeration ``cap`` a domain whose veto set loses is refused
    (``CapExceededError``) before any table is built. Constraints are
    generated lazily: each round adds the least-paid minimal winning
    coalition, listed once, and the integer simplex of ``lp`` solves each
    restricted program. Refuses degenerate domains.
    """
    _refuse_degenerate(domain, "least-core")
    n = domain.n_agents
    game = enumeration._exact_game(domain, cap)
    if game.method == TREE_CLOSED_FORM:
        return LeastCoreResult(*game.least_core(), game.method)
    minimal = game.minimal_winning()
    active = [(1 << n) - 1]
    for _ in range(len(minimal) + 2):
        solution = _solve_active_exact(active, n, 1)  # the grand coalition wins
        p_star, eps_star = solution.x[:n], solution.x[n]
        mask, payment = _least_paid(minimal, p_star)
        if 1 - payment <= eps_star:
            break
        active.append(mask)
    else:
        raise RuntimeError("least-core constraint generation failed to converge")
    if (eps_star == 0) == (not classify(domain).veto_agents):
        raise RuntimeError("least-core solution inconsistent with the veto-player analysis")
    return LeastCoreResult(eps_star, p_star, EXACT_LP)
