"""Banzhaf indices and Shapley values, exact and Monte Carlo.

Exact solvers take their values from the domain's exact game
(``enumeration._exact_game``): the closed forms of the unanimity game where
the veto agents win on their own, at any size, and otherwise per-agent
histograms of critical coalitions by size, read from the 2^n win table and
summed in integers, one ``Fraction`` per value:

* Banzhaf index of agent i: (number of coalitions containing i in which i is
  critical) / 2^(n-1).
* Shapley value of agent i: sum over coalitions C containing i of
  (|C|-1)! (n-|C|)! / n! for each C where i is critical. Each such C arises
  from exactly (|C|-1)!(n-|C|)! agent orderings, so this equals the average
  marginal contribution over all n! permutations.

Monte Carlo estimators carry a two-sided Hoeffding guarantee: with
m = ceil(ln(2/delta) / (2 epsilon^2)) samples the estimate is within epsilon
of the true index with probability at least 1 - delta. Each agent draws its
m samples from its own seeded stream: uniform subsets of the other agents
(Banzhaf) or its predecessors in a shuffled order (Shapley). The samples of
all agents are cut into blocks, and each block's coalitions, every sample
without and then with its agent, are evaluated by one call of the domain's
batched kernel (``ConnectivityDomain._win_bits``); memory does not grow with m.
A run of more than 2^23 samples in all (two coalitions each, as many as the
table at the default enumeration cap) is refused before any draw.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import enumeration
from .domain import ConnectivityDomain
from .enumeration import DEFAULT_ENUMERATION_CAP
from .errors import CapExceededError

# The builtin SHA-256 module, tried first as random.py does for SHA-512:
# hashlib loads OpenSSL, which adds about 4 MB of resident memory to every
# process that derives a seed (3.12+ has _sha2, 3.10 and 3.11 have _sha256).
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

# Monte Carlo samples per run: two coalitions each, as many as the 2^24 table.
_MC_SAMPLE_BOUND = 1 << (DEFAULT_ENUMERATION_CAP - 1)
_BLOCK_BITS = 12  # Monte Carlo coalitions per kernel call: 2^12, 512 bytes per vertex

BANZHAF = "banzhaf"
SHAPLEY = "shapley"

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
        try:
            return max(1, math.ceil(math.log(2.0 / self.delta) / (2.0 * self.epsilon ** 2)))
        except (ZeroDivisionError, OverflowError):  # epsilon < 1e-154 or delta < 1e-308
            log_term = Fraction(math.log(2.0) - math.log(self.delta))
            return math.ceil(log_term / (2 * Fraction(self.epsilon) ** 2))


@dataclass(frozen=True)
class IndexVector:
    """Per-agent power-index values plus the method that produced them."""

    kind: str
    values: tuple
    method: str
    samples: int | None = None
    seed: int | None = None


def banzhaf_exact(domain: ConnectivityDomain, *, cap: int = DEFAULT_ENUMERATION_CAP) -> IndexVector:
    """Exact Banzhaf index of every agent, as rationals."""
    game = enumeration._exact_game(domain, cap)
    return IndexVector(BANZHAF, game.banzhaf(), game.method)


def shapley_exact(domain: ConnectivityDomain, *, cap: int = DEFAULT_ENUMERATION_CAP) -> IndexVector:
    """Exact Shapley value of every agent, as rationals."""
    game = enumeration._exact_game(domain, cap)
    return IndexVector(SHAPLEY, game.shapley(), game.method)


def derive_seed(seed: int, label: str) -> int:
    """Stable per-label sub-seed, used to give each agent its own sample stream."""
    digest = _sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def banzhaf_mc(domain: ConnectivityDomain, agent: int, params: ApproxParams) -> float:
    """Monte Carlo Banzhaf estimate for one agent.

    Draws coalitions uniformly from the subsets of the other agents (each
    included independently with probability 1/2) and returns the fraction in
    which the agent is critical once added. Deterministic given the seed.
    """
    return _single_estimate(domain, BANZHAF, agent, params)


def shapley_mc(domain: ConnectivityDomain, agent: int, params: ApproxParams) -> float:
    """Monte Carlo Shapley estimate for one agent.

    Averages the agent's marginal contribution over uniformly sampled agent
    permutations; same (epsilon, delta) contract as :func:`banzhaf_mc`.
    """
    return _single_estimate(domain, SHAPLEY, agent, params)


def banzhaf_mc_all(domain: ConnectivityDomain, params: ApproxParams) -> IndexVector:
    """Banzhaf estimates for every agent; each agent gets a derived sub-seed."""
    return _mc_vector(domain, params, BANZHAF)


def shapley_mc_all(domain: ConnectivityDomain, params: ApproxParams) -> IndexVector:
    """Shapley estimates for every agent; each agent gets a derived sub-seed."""
    return _mc_vector(domain, params, SHAPLEY)


def _single_estimate(domain, kind, agent, params) -> float:
    domain.ensure_valid()
    if not 0 <= agent < domain.n_agents:
        raise ValueError(f"agent index {agent} out of range")
    return _estimates(domain, kind, [(agent, params.seed)], params.samples)[0]


def _mc_vector(domain, params, kind) -> IndexVector:
    domain.ensure_valid()
    streams = [(agent, derive_seed(params.seed, f"{kind}:{agent}"))
               for agent in range(domain.n_agents)]
    return IndexVector(kind, tuple(_estimates(domain, kind, streams, params.samples)),
                       MONTE_CARLO, samples=params.samples, seed=params.seed)


def _banzhaf_draws(n: int, agent: int, seed: int):
    """``draw(count)``: the next ``count`` coalitions of the agent's stream,
    as rows of agent membership, the agent itself left out."""
    getrandbits = random.Random(seed).getrandbits
    width = (n + 7) >> 3

    def draw(count: int) -> np.ndarray:
        raw = b"".join([getrandbits(n).to_bytes(width, "little") for _ in range(count)])
        rows = np.unpackbits(np.frombuffer(raw, np.uint8).reshape(count, width), axis=1,
                             count=n, bitorder="little").view(bool)
        rows[:, agent] = False
        return rows

    return draw


def _shapley_draws(n: int, agent: int, seed: int):
    """``draw(count)``: the agent's predecessors in the next ``count``
    permutations of its stream, as rows of agent membership."""
    shuffle = random.Random(seed).shuffle
    order = list(range(n))
    typecode = "H" if n <= 1 << 16 else "L"

    def draw(count: int) -> np.ndarray:
        perms = array(typecode)
        for _ in range(count):
            shuffle(order)
            perms.fromlist(order)
        perms = np.frombuffer(perms, dtype=f"u{perms.itemsize}").reshape(count, n)
        position = np.empty_like(perms)
        np.put_along_axis(position, perms, np.arange(n, dtype=perms.dtype), axis=1)
        return position < position[:, agent, None]

    return draw


def _estimates(domain, kind, streams, m: int) -> list[float]:
    """Per (agent, seed) stream, the fraction of its m samples in which the
    agent is critical: the coalition wins with the agent and loses without.

    Streams are drawn in order, m samples each, and their samples are cut
    into blocks of 2^(_BLOCK_BITS - 1) across streams; each block's
    coalitions, every sample without and then with its agent, go to the
    domain's kernel in one call, one Python int per agent.
    """
    total = len(streams) * m
    if total > _MC_SAMPLE_BOUND:
        shown = m if m < 10 ** 15 else f"about 10^{len(str(m)) - 1}"
        raise CapExceededError(
            f"Monte Carlo run too large: {len(streams)} agents x {shown} samples "
            f"exceeds the bound of {_MC_SAMPLE_BOUND} samples", _MC_SAMPLE_BOUND)
    n = domain.n_agents
    draws = _banzhaf_draws if kind == BANZHAF else _shapley_draws
    agents = np.array([agent for agent, _ in streams], dtype=np.intp)
    counts = np.zeros(len(streams), dtype=np.int64)
    capacity = 1 << (_BLOCK_BITS - 1)
    current, draw = -1, None
    for lo in range(0, total, capacity):
        hi = min(lo + capacity, total)
        rows = []
        g = lo
        while g < hi:
            stream, done = divmod(g, m)
            if stream != current:
                current = stream
                draw = draws(n, *streams[stream])
            take = min(hi - g, m - done)
            rows.append(draw(take))
            g += take
        size = hi - lo
        stream_of = np.arange(lo, hi) // m
        members = np.concatenate(rows * 2)
        members[np.arange(size, 2 * size), agents[stream_of]] = True
        packed = np.packbits(members.T, axis=1, bitorder="little")
        usable = [int.from_bytes(row.tobytes(), "little") for row in packed]
        wins = domain._win_bits(usable, (1 << 2 * size) - 1).to_bytes(packed.shape[1], "little")
        wins = np.unpackbits(np.frombuffer(wins, np.uint8), count=2 * size,
                             bitorder="little").view(bool)
        counts += np.bincount(stream_of[wins[size:] & ~wins[:size]], minlength=len(streams))
    return [hits / m for hits in counts.tolist()]
