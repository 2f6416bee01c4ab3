"""Stable reward divisions: veto players, core membership, maximal excess,
epsilon-core membership, and the least core.

The core of a connectivity game has a concise representation: the set of veto
agents (agents present in every winning coalition). An imputation is in the
core iff it hands the whole unit of reward to veto agents. Agent i is veto iff
the coalition of everyone else loses, so the core is computable with n
connectivity checks.

Maximal excess is found by exhaustive enumeration: for nonnegative payoffs the
worst-off constraint comes from a minimally paid winning coalition (losing
coalitions have nonpositive excess), so the scan reduces to a minimum payment
over the winning entries of the coalition table. Payments are int64 subset
sums of the payoffs scaled to their least common denominator, built block by
block; weights too large for int64 are shifted right, and the few masks the
rounding cannot separate are scored in Python integers.

The least core solves  min eps  s.t.  p(C) >= v(C) - eps  over nonempty
coalitions, exactly, with constraints generated lazily. Its payoffs are
nonnegative, so a least-paid winning coalition is always a minimal winning
one (Maschler, Peleg & Shapley 1979): the minimal winning coalitions are
listed once from the win table, and each round scores only them, exactly in
Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import enumeration, lp
from .domain import Coalition, ConnectivityDomain, _value_of_mask, classify
from .errors import CapExceededError, DegenerateDomainError
from .powerindex import DEFAULT_ENUMERATION_CAP

DEFAULT_LP_CAP = 16

EXACT_LP = "exact-lp"

IMPUTATION_TOL = Fraction(1, 10 ** 9)

_SCAN_BITS = 16  # payment blocks of 2^16 int64 values: 512 KB each
_INT64_BITS = 62  # sum of |weights| below 2^62: subset sums and margins fit int64
_INT64_MAX = np.iinfo(np.int64).max


def _to_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return Fraction(value)
    return Fraction(value)


@dataclass(frozen=True)
class Imputation:
    """A division of the grand coalition's reward; payoffs kept as exact rationals."""

    payoffs: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "Imputation":
        return cls(tuple(_to_fraction(v) for v in values))

    def total(self) -> Fraction:
        return sum(self.payoffs, Fraction(0))

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
    max_excess: Fraction
    witness: Coalition
    epsilon_verdict: bool | None = None

    @property
    def max_excess_float(self) -> float:
        return float(self.max_excess)


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
    grand_value = _value_of_mask(domain, (1 << domain.n_agents) - 1)
    total = sum(payoffs, Fraction(0))
    if abs(total - grand_value) > IMPUTATION_TOL:
        raise ValueError(
            f"not an imputation: payoffs sum to {float(total)}, expected {grand_value}")


def veto_players(domain: ConnectivityDomain) -> CoreDescription:
    """Agents present in every winning coalition; the core is non-empty iff
    at least one exists. Agent i is veto iff everyone-but-i loses."""
    domain.ensure_valid()
    n = domain.n_agents
    grand = (1 << n) - 1
    veto = tuple(i for i in range(n) if _value_of_mask(domain, grand ^ (1 << i)) == 0)
    return CoreDescription(veto_agents=veto, is_empty=not veto)


def is_in_core(domain: ConnectivityDomain, payoffs) -> bool:
    """Core membership via the veto representation: nonnegative payoffs with
    the full unit on veto agents. Refuses degenerate domains."""
    domain.ensure_valid()
    classification = classify(domain)
    if classification.degenerate:
        raise DegenerateDomainError(
            "core membership is undefined on a degenerate domain "
            "(all coalitions win or all coalitions lose)")
    p = _as_payoffs(payoffs, domain.n_agents)
    _check_total(domain, p)
    if any(x < -IMPUTATION_TOL for x in p):
        return False
    veto = veto_players(domain)
    veto_total = sum((p[i] for i in veto.veto_agents), Fraction(0))
    return abs(veto_total - 1) <= IMPUTATION_TOL


def _scaled_payment(mask: int, weights: Sequence[int]) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _min_payment_mask(select: np.ndarray, payoffs: Sequence[Fraction],
                      n: int) -> tuple[int, Fraction] | None:
    """Mask minimizing the coalition payment among ``select`` entries.

    The payoffs, scaled by the lcm of their denominators, are integer
    weights. They are shifted right until their absolute sum fits in
    ``_INT64_BITS``, and int64 subset sums are scanned one block of the low
    ``_SCAN_BITS`` agents at a time. A floored sum lies within n of the true
    sum over 2^shift, so unshifted weights decide exactly and every mask
    within n of the shifted minimum is scored in Python integers. Ties break
    to the smallest coalition, then the smallest mask.
    """
    if not select.any():
        return None
    scale = math.lcm(*(x.denominator for x in payoffs))
    weights = [x.numerator * (scale // x.denominator) for x in payoffs]
    shift = max(0, sum(map(abs, weights)).bit_length() - _INT64_BITS)
    window = n if shift else 0
    bits = min(n, _SCAN_BITS)
    floored = [w >> shift for w in weights]
    low = enumeration._subset_sums(floored[:bits], np.int64)
    offsets = enumeration._subset_sums(floored[bits:], np.int64)
    sizes = enumeration.size_table(bits)
    blocks = select.reshape(len(offsets), len(low))
    minima = [int(np.min(low, where=sel, initial=_INT64_MAX)) + int(offset)
              if sel.any() else math.inf for sel, offset in zip(blocks, offsets)]
    threshold = min(minima) + window
    shortlist = []
    for h, (sel, offset) in enumerate(zip(blocks, offsets)):
        if minima[h] > threshold:
            continue
        found = np.flatnonzero(sel & (low <= threshold - int(offset)))
        if not shift:  # exact sums: the block's smallest coalition, then its smallest mask
            found = found[[np.argmin(sizes[found])]]
        shortlist += (h << bits | int(m) for m in found)
    total, _, mask = min((_scaled_payment(m, weights), m.bit_count(), m) for m in shortlist)
    return mask, Fraction(total, scale)


def max_excess(domain: ConnectivityDomain, payoffs, *,
               cap: int = DEFAULT_ENUMERATION_CAP,
               allow_negative: bool = False,
               epsilon: float | None = None) -> ExcessReport:
    """Maximal excess v(C) - p(C) over all coalitions, with a witness.

    For nonnegative payoffs the maximum is max(0, 1 - min winning payment).
    Payoffs below -IMPUTATION_TOL are rejected unless ``allow_negative`` is
    set; any negative payoff adds the scan of losing coalitions, which can
    then have positive excess too.
    """
    domain.ensure_valid()
    n = domain.n_agents
    if n > cap:
        raise CapExceededError(
            f"instance too large for exact solver: {n} agents exceeds the "
            f"enumeration cap of {cap}", cap)
    p = _as_payoffs(payoffs, n)
    _check_total(domain, p)
    if not allow_negative and any(x < -IMPUTATION_TOL for x in p):
        raise ValueError(
            "negative payoffs rejected; pass allow_negative=True for the full scan")
    # Payoffs tolerated as nonnegative may still be slightly negative; a
    # losing coalition of such agents then has a small positive excess.
    has_negative = any(x < 0 for x in p)

    win = enumeration.win_table(domain)
    candidates: list[tuple[int, Fraction]] = []
    winning = _min_payment_mask(win, p, n)
    if winning is not None:
        candidates.append(winning)
    if has_negative:
        losing = _min_payment_mask(~win, p, n)
        if losing is not None:
            candidates.append(losing)
    elif not win[0]:
        candidates.append((0, Fraction(0)))  # empty coalition: excess exactly 0

    best_mask = 0
    best_excess = None
    best_key = None
    for mask, payment in candidates:
        excess = int(win[mask]) - payment
        key = (-excess, mask.bit_count(), mask)
        if best_key is None or key < best_key:
            best_excess, best_mask, best_key = excess, mask, key
    assert best_excess is not None
    verdict = None
    if epsilon is not None:
        verdict = best_excess <= _to_fraction(epsilon) + IMPUTATION_TOL
    return ExcessReport(max_excess=best_excess,
                        witness=Coalition(best_mask, n),
                        epsilon_verdict=verdict)


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


def _least_paid(masks: list[int], payoffs: Sequence[Fraction]) -> tuple[int, Fraction] | None:
    """Mask of least (payment, size, mask) among ``masks``, with its payment;
    payments are scored exactly, as integers scaled by the lcm of the payoff
    denominators."""
    if not masks:
        return None
    scale = math.lcm(*(x.denominator for x in payoffs))
    weights = [x.numerator * (scale // x.denominator) for x in payoffs]
    total, _, mask = min((_scaled_payment(m, weights), m.bit_count(), m) for m in masks)
    return mask, Fraction(total, scale)


def least_core_value(domain: ConnectivityDomain, *,
                     lp_cap: int = DEFAULT_LP_CAP,
                     cap: int = DEFAULT_ENUMERATION_CAP) -> LeastCoreResult:
    """Smallest eps whose eps-core is non-empty, with an optimal imputation.

    Deviating coalitions are the nonempty ones. Both eps and the imputation
    are exact rationals, up to ``lp_cap`` agents, and refused past the
    enumeration ``cap`` before any table is built. Constraints are generated
    lazily: each round adds the least-paid minimal winning coalition, listed
    once from the win table, and the integer simplex of ``lp`` solves each
    restricted program.
    """
    domain.ensure_valid()
    n = domain.n_agents
    if n > lp_cap:
        raise CapExceededError(
            f"{n} agents exceeds the least-core LP cap of {lp_cap}; use the tree "
            f"solver on acyclic domains, or veto_players for the 0-vs-positive "
            f"dichotomy", lp_cap)
    if n > cap:
        raise CapExceededError(
            f"instance too large for exact solver: {n} agents exceeds the "
            f"enumeration cap of {cap}", cap)
    if n == 0:
        return LeastCoreResult(Fraction(0), (), EXACT_LP)
    grand_mask = (1 << n) - 1
    grand_value = _value_of_mask(domain, grand_mask)
    win = enumeration.win_table(domain)
    # The empty coalition does not deviate. When it wins, every coalition
    # does, and the minimal nonempty winners are the single agents.
    minimal = ([1 << i for i in range(n)] if win[0]
               else enumeration.minimal_winning_masks(win, n).tolist())
    active: list[int] = [grand_mask] if win[grand_mask] else []
    for _ in range(len(minimal) + 2):
        solution = _solve_active_exact(active, n, grand_value)
        p_star, eps_star = solution.x[:n], solution.x[n]
        worst = _least_paid(minimal, p_star)
        if worst is None or 1 - worst[1] <= eps_star:
            break
        active.append(worst[0])
    else:
        raise RuntimeError("least-core constraint generation failed to converge")
    if not classify(domain).degenerate and (eps_star == 0) == veto_players(domain).is_empty:
        raise RuntimeError("least-core solution inconsistent with the veto-player analysis")
    return LeastCoreResult(eps_star, p_star, EXACT_LP)
