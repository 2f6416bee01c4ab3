"""Banzhaf indices and Shapley values, exact and Monte Carlo.

Exact solvers enumerate all 2^n coalitions in rational arithmetic:

* Banzhaf index of agent i: (number of coalitions containing i in which i is
  critical) / 2^(n-1).
* Shapley value of agent i: sum over coalitions C containing i of
  (|C|-1)! (n-|C|)! / n! for each C where i is critical. Each such C arises
  from exactly (|C|-1)!(n-|C|)! agent orderings, so this equals the average
  marginal contribution over all n! permutations.

Monte Carlo estimators carry a two-sided Hoeffding guarantee: with
m = ceil(ln(2/delta) / (2 epsilon^2)) samples the estimate is within epsilon
of the true index with probability at least 1 - delta.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import enumeration
from .domain import ConnectivityDomain, _value_of_mask
from .errors import CapExceededError

DEFAULT_ENUMERATION_CAP = 24

BANZHAF = "banzhaf"
SHAPLEY = "shapley"

EXACT_ENUMERATION = "exact-enumeration"
TREE_CLOSED_FORM = "tree-closed-form"
MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class ApproxParams:
    """Accuracy/confidence target for the Monte Carlo solvers."""

    epsilon: float
    delta: float
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")

    @property
    def samples(self) -> int:
        return max(1, math.ceil(math.log(2.0 / self.delta) / (2.0 * self.epsilon ** 2)))


@dataclass(frozen=True)
class IndexVector:
    """Per-agent power-index values plus the method that produced them."""

    kind: str
    values: tuple
    method: str
    samples: int | None = None
    seed: int | None = None

    def as_floats(self) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values)


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(
            f"instance too large for exact solver: {n} agents exceeds the "
            f"enumeration cap of {cap}", cap)


def banzhaf_exact(domain: ConnectivityDomain, *, cap: int = DEFAULT_ENUMERATION_CAP) -> IndexVector:
    """Exact Banzhaf index of every agent, as rationals."""
    domain.ensure_valid()
    n = domain.n_agents
    _check_cap(n, cap)
    if n == 0:
        return IndexVector(BANZHAF, (), EXACT_ENUMERATION)
    win = enumeration.win_table(domain)
    counts = enumeration.criticality_counts(win, n)
    denom = 1 << (n - 1)
    return IndexVector(BANZHAF, tuple(Fraction(c, denom) for c in counts), EXACT_ENUMERATION)


def shapley_exact(domain: ConnectivityDomain, *, cap: int = DEFAULT_ENUMERATION_CAP) -> IndexVector:
    """Exact Shapley value of every agent, as rationals."""
    domain.ensure_valid()
    n = domain.n_agents
    _check_cap(n, cap)
    if n == 0:
        return IndexVector(SHAPLEY, (), EXACT_ENUMERATION)
    win = enumeration.win_table(domain)
    histograms = enumeration.criticality_size_counts(win, n)
    n_fact = math.factorial(n)
    weight = [Fraction(0)] * (n + 1)
    for size in range(1, n + 1):
        weight[size] = Fraction(math.factorial(size - 1) * math.factorial(n - size), n_fact)
    values = []
    for hist in histograms:
        total = Fraction(0)
        for size, count in enumerate(hist):
            if count:
                total += weight[size] * int(count)
        values.append(total)
    return IndexVector(SHAPLEY, tuple(values), EXACT_ENUMERATION)


def derive_seed(seed: int, label: str) -> int:
    """Stable per-label sub-seed, used to give each agent its own sample stream."""
    # Imported here: only Monte Carlo needs it, and loading hashlib (OpenSSL)
    # adds about 4 MB of resident memory to every process that imports the CLI.
    import hashlib

    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _cached_value(domain, cache, mask):
    value = cache.get(mask)
    if value is None:
        value = _value_of_mask(domain, mask)
        cache[mask] = value
    return value


def banzhaf_mc(domain: ConnectivityDomain, agent: int, params: ApproxParams) -> float:
    """Monte Carlo Banzhaf estimate for one agent.

    Draws coalitions uniformly from the subsets of the other agents (each
    included independently with probability 1/2) and returns the fraction in
    which the agent is critical once added. Deterministic given the seed.
    """
    domain.ensure_valid()
    n = domain.n_agents
    if not 0 <= agent < n:
        raise ValueError(f"agent index {agent} out of range")
    rng = random.Random(params.seed)
    bit = 1 << agent
    others = ((1 << n) - 1) ^ bit
    cache: dict[int, int] = {}
    hits = 0
    m = params.samples
    for _ in range(m):
        sample = rng.getrandbits(n) & others
        if _cached_value(domain, cache, sample | bit) and not _cached_value(domain, cache, sample):
            hits += 1
    return hits / m


def shapley_mc(domain: ConnectivityDomain, agent: int, params: ApproxParams) -> float:
    """Monte Carlo Shapley estimate for one agent.

    Averages the agent's marginal contribution over uniformly sampled agent
    permutations; same (epsilon, delta) contract as :func:`banzhaf_mc`.
    """
    domain.ensure_valid()
    n = domain.n_agents
    if not 0 <= agent < n:
        raise ValueError(f"agent index {agent} out of range")
    rng = random.Random(params.seed)
    order = list(range(n))
    cache: dict[int, int] = {}
    bit = 1 << agent
    hits = 0
    m = params.samples
    for _ in range(m):
        rng.shuffle(order)
        predecessors = 0
        for j in order:
            if j == agent:
                break
            predecessors |= 1 << j
        if _cached_value(domain, cache, predecessors | bit) and not _cached_value(
                domain, cache, predecessors):
            hits += 1
    return hits / m


def _mc_vector(domain, params, kind, estimator) -> IndexVector:
    values = []
    for agent in range(domain.n_agents):
        sub = ApproxParams(params.epsilon, params.delta,
                           derive_seed(params.seed, f"{kind}:{agent}"))
        values.append(estimator(domain, agent, sub))
    return IndexVector(kind, tuple(values), MONTE_CARLO,
                       samples=params.samples, seed=params.seed)


def banzhaf_mc_all(domain: ConnectivityDomain, params: ApproxParams) -> IndexVector:
    """Banzhaf estimates for every agent; each agent gets a derived sub-seed."""
    domain.ensure_valid()
    return _mc_vector(domain, params, BANZHAF, banzhaf_mc)


def shapley_mc_all(domain: ConnectivityDomain, params: ApproxParams) -> IndexVector:
    """Shapley estimates for every agent; each agent gets a derived sub-seed."""
    domain.ensure_valid()
    return _mc_vector(domain, params, SHAPLEY, shapley_mc)
