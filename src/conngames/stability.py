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
over the winning entries of the coalition table. Float payments, built block
by block, shortlist the candidates; exact integer payments, with the payoffs
scaled to their least common denominator, decide. The least core solves
min eps  s.t.  p(C) >= v(C) - eps  over nonempty coalitions, with
constraints generated lazily from the same min-payment search.
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
DEFAULT_EXACT_LP_CAP = 12

EXACT_LP = "exact-lp"
FLOAT_LP = "float-lp"

IMPUTATION_TOL = Fraction(1, 10 ** 9)

_SCAN_BITS = 16  # payment blocks of 2^16 floats: 512 KB each


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
    epsilon: Fraction | float
    imputation: tuple
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

    Float payments shortlist near-minimal masks, one block of the low
    ``_SCAN_BITS`` agents at a time; integer payments, with the payoffs
    scaled by the lcm of their denominators, decide. Ties break to the
    smallest coalition, then the smallest mask.
    """
    if not select.any():
        return None
    pfl = np.array([float(x) for x in payoffs], dtype=np.float64)
    slack = 1e-6 * max(1.0, float(np.abs(pfl).sum()))
    bits = min(n, _SCAN_BITS)
    low = enumeration._subset_sums(pfl[:bits], np.float64)
    offsets = enumeration._subset_sums(pfl[bits:], np.float64)
    blocks = select.reshape(len(offsets), len(low))
    minima = [float(np.min(low, where=sel, initial=np.inf)) + offset
              for sel, offset in zip(blocks, offsets)]
    threshold = min(minima) + slack
    shortlist = (h << bits | int(m) for h, (sel, offset) in enumerate(zip(blocks, offsets))
                 if minima[h] <= threshold
                 for m in np.flatnonzero(sel & (low + offset <= threshold)))
    scale = math.lcm(*(x.denominator for x in payoffs))
    weights = [x.numerator * (scale // x.denominator) for x in payoffs]
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
    a_ub = []
    b_ub = []
    for mask in active:
        row = [0] * (n + 1)
        m = mask
        while m:
            low = m & -m
            row[low.bit_length() - 1] = -1
            m ^= low
        row[n] = -1
        a_ub.append(row)
        b_ub.append(-1)
    c = [0] * n + [1]
    a_eq = [[1] * n + [0]]
    b_eq = [grand_value]
    return lp.solve_exact(c, a_ub, b_ub, a_eq, b_eq)


def least_core_value(domain: ConnectivityDomain, *,
                     lp_cap: int = DEFAULT_LP_CAP,
                     exact_cap: int = DEFAULT_EXACT_LP_CAP) -> LeastCoreResult:
    """Smallest eps whose eps-core is non-empty, with an optimal imputation.

    Deviating coalitions are the nonempty ones. Exact rationals up to
    ``exact_cap`` agents (lazy constraint generation over the integer
    simplex of ``lp``); a floating-point LP over the minimal winning
    coalitions above.
    """
    domain.ensure_valid()
    n = domain.n_agents
    if n > lp_cap:
        raise CapExceededError(
            f"{n} agents exceeds the least-core LP cap of {lp_cap}; use the tree "
            f"solver on acyclic domains, or veto_players for the 0-vs-positive "
            f"dichotomy", lp_cap)
    if n == 0:
        return LeastCoreResult(Fraction(0), (), EXACT_LP)
    grand_value = _value_of_mask(domain, (1 << n) - 1)
    win = enumeration.win_table(domain).copy()
    win[0] = False

    if n <= exact_cap:
        result = _least_core_exact(domain, win, n, grand_value)
    else:
        result = _least_core_float(win, n, grand_value)

    classification = classify(domain)
    if not classification.degenerate:
        is_zero = (result.epsilon == 0 if result.method == EXACT_LP
                   else abs(result.epsilon) <= 1e-9)
        if is_zero == veto_players(domain).is_empty:
            raise RuntimeError(
                "least-core solution inconsistent with the veto-player analysis")
    return result


def _least_core_exact(domain, win, n, grand_value) -> LeastCoreResult:
    grand_mask = (1 << n) - 1
    active: list[int] = [grand_mask] if win[grand_mask] else []
    for _ in range(int(win.sum()) + 2):
        solution = _solve_active_exact(active, n, grand_value)
        p_star = solution.x[:n]
        eps_star = solution.x[n]
        worst = _min_payment_mask(win, p_star, n)
        if worst is None or Fraction(1) - worst[1] <= eps_star:
            return LeastCoreResult(eps_star, p_star, EXACT_LP)
        active.append(worst[0])
    raise RuntimeError("least-core constraint generation failed to converge")


def _least_core_float(win, n, grand_value) -> LeastCoreResult:
    from scipy.optimize import linprog

    minimal = enumeration.minimal_winning_masks(win, n)
    a_ub = np.zeros((len(minimal), n + 1))
    for r, mask in enumerate(minimal):
        for i in range(n):
            if mask >> i & 1:
                a_ub[r, i] = -1.0
        a_ub[r, n] = -1.0
    b_ub = np.full(len(minimal), -1.0)
    c = np.zeros(n + 1)
    c[n] = 1.0
    a_eq = np.ones((1, n + 1))
    a_eq[0, n] = 0.0
    result = linprog(c, A_ub=a_ub if len(minimal) else None,
                     b_ub=b_ub if len(minimal) else None,
                     A_eq=a_eq, b_eq=[float(grand_value)],
                     bounds=[(0, None)] * (n + 1), method="highs")
    if not result.success:
        raise RuntimeError(f"least-core LP failed: {result.message}")
    return LeastCoreResult(float(result.x[n]), tuple(float(v) for v in result.x[:n]),
                           FLOAT_LP)
