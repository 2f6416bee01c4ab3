"""The exact game source, and the win table with its reductions: criticality
size histograms and the minimal winning coalitions.

Every exact solver asks ``_exact_game`` for the domain's exact form. Where
the veto agents win on their own, the game is their unanimity game
(Shapley 1953), and ``_Unanimity`` answers at any size with no table: 1/m
Shapley values and 2^(1-m) Banzhaf indices for the m veto agents, the veto
set as the one minimal winning coalition, and a least core of eps = 0 with
the equal split. Otherwise ``_Table`` reads the win table, which is refused
past the enumeration cap before it is built.

The win table holds the values of all 2^n coalitions as packed bits, the
format the domain's batched kernel (``ConnectivityDomain._win_bits``)
returns: bit b of byte j is the value of mask 8j + b, and the bits past 2^n
(n < 3) are clear. It is built in blocks of 2^k coalitions, with periodic
bitsets for agents below k and constant ones above.

The reductions read those bytes as they are and find the masks in which
agent i is critical by one AND-NOT per agent: within each byte for i < 3,
and for i >= 3 between the two halves of each run of 2^(i-2) bytes. One pass
gives every agent's histogram over coalition sizes, whose sums are the
Banzhaf counts. Tables and histograms are memoized on the domain.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .domain import ConnectivityDomain, classify
from .errors import CapExceededError

DEFAULT_ENUMERATION_CAP = 24

EXACT_ENUMERATION = "exact-enumeration"
TREE_CLOSED_FORM = "tree-closed-form"

# Win-table blocks of 2^18 coalitions (32 KB per vertex bitset), and 2^18
# bytes per bincount in the reductions (a 2 MB intp copy).
_CHUNK_BITS = 18
_WIN_CACHE_KEY = "_win_table_cache"
_HISTOGRAM_CACHE_KEY = "_histogram_cache"
_IN_BYTE = (0xAA, 0xCC, 0xF0)  # bits b of a byte whose bit i is set, for i < 3
_REVERSED = np.array([int(f"{v:08b}"[::-1], 2) for v in range(256)], dtype=np.uint8)
# Row v: how many set bits of byte value v sit at bit positions of popcount 0..3.
_BYTE_FOLD = np.stack([sum(np.arange(256) >> b & 1 for b in range(8) if bin(b).count("1") == k)
                       for k in range(4)], axis=1).astype(np.float64)


def _memoized(domain: ConnectivityDomain, key: str, compute) -> np.ndarray:
    cached = domain.__dict__.get(key)
    if cached is None:
        domain.ensure_valid()
        cached = compute()
        cached.setflags(write=False)
        domain.__dict__[key] = cached
    return cached


def win_table(domain: ConnectivityDomain) -> np.ndarray:
    """The packed win table: a read-only uint8 array of max(1, 2^(n-3))
    bytes, bit b of byte j holding the value of coalition 8j + b. The bits
    past 2^n are clear."""
    return _memoized(domain, _WIN_CACHE_KEY, lambda: _compute_win_table(domain))


def criticality_histograms(domain: ConnectivityDomain) -> np.ndarray:
    """The domain's :func:`criticality_size_counts`, computed once per domain."""
    return _memoized(domain, _HISTOGRAM_CACHE_KEY, lambda: criticality_size_counts(
        win_table(domain), domain.n_agents))


def _periodic_bitset(i: int, nbytes: int) -> int:
    """Bit m set iff bit i of m is set, for every m below 8 * ``nbytes``."""
    if i < 3:
        period = bytes([_IN_BYTE[i]])
    else:
        period = bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
    return int.from_bytes(period * (nbytes // len(period)), "little")


def _compute_win_table(domain: ConnectivityDomain) -> np.ndarray:
    n = domain.n_agents
    k = min(n, _CHUNK_BITS)
    nbytes = max(1, 1 << k >> 3)
    full = (1 << (1 << k)) - 1  # the block's 2^k coalitions; padding bits stay clear
    usable = [_periodic_bitset(i, nbytes) for i in range(k)]
    blocks = []
    for high in range(1 << (n - k)):
        usable[k:] = [full if high >> (i - k) & 1 else 0 for i in range(k, n)]
        blocks.append(domain._win_bits(usable, full).to_bytes(nbytes, "little"))
    return np.frombuffer(b"".join(blocks), dtype=np.uint8)


def minimal_winning_masks(win: np.ndarray, n: int) -> np.ndarray:
    """Ascending masks of the winning coalitions in which every member is critical.

    Mask m is struck off when m ^ 2^i wins for a member i: within each byte
    for i < 3 (a shift and a constant mask), and from the low half of each
    run of 2^(i-2) bytes onto its high half for i >= 3.
    """
    minimal = win.copy()
    for i in range(min(n, 3)):
        minimal &= ~(np.left_shift(win, 1 << i) & _IN_BYTE[i])
    for i in range(3, n):
        run = 1 << (i - 3)
        minimal.reshape(-1, 2 * run)[:, run:] &= ~win.reshape(-1, 2 * run)[:, :run]
    at = np.flatnonzero(minimal)
    rows, bits = np.nonzero(np.unpackbits(minimal[at, None], axis=1, bitorder="little"))
    return at[rows] * 8 + bits


def maximal_losing_masks(win: np.ndarray, n: int) -> np.ndarray:
    """Descending masks of the losing coalitions that any outsider would turn
    winning: the complements of the dual game's minimal winning coalitions
    (C wins the dual game iff its complement loses).

    Reversing the bytes and the bits of each byte puts mask 2^n - 1 - m at
    bit m, past the 8 - 2^n padding bits of a table of n < 3; the shift
    drops those and leaves the new padding clear.
    """
    dual = ~_REVERSED[win[::-1]] >> max(0, 8 - (1 << n))
    return ((1 << n) - 1) ^ minimal_winning_masks(dual, n)


def criticality_size_counts(win: np.ndarray, n: int) -> np.ndarray:
    """int64 array of shape (n, n + 1): row i counts, by size |C|, the
    coalitions C in which agent i is critical (C wins, C minus i loses).

    The size of mask 8j + b is popcount(j) + popcount(b). Each agent's
    critical bytes are counted by (popcount(j), byte value) in one
    ``bincount`` per 2^_CHUNK_BITS bytes, keyed by a uint16 holding
    popcount(j) in its high byte, and the counts are folded into sizes by
    the byte table ``_BYTE_FOLD``. For i >= 3 only the upper half of each
    2^(i-2)-byte run can hold i; taken in order, those bytes' indices have
    the popcounts of the upper half of all byte indices.
    """
    groups = max(n - 3, 0) + 1  # popcount(j) ranges over 0..n-3
    high = np.zeros(win.size, dtype=np.uint16)  # popcount(j) << 8
    for t in range(n - 3):
        np.add(high[:1 << t], 256, out=high[1 << t: 2 << t])
    folded = np.zeros((n, groups, 4))  # (agent, popcount(j), popcount(b))
    chunk = 1 << _CHUNK_BITS
    for i in range(n):
        if i < 3:
            crit = win & ~np.left_shift(win, 1 << i) & _IN_BYTE[i]
            keys = high
        else:
            run = 1 << (i - 3)
            halves = win.reshape(-1, 2 * run)
            crit = (halves[:, run:] & ~halves[:, :run]).reshape(-1)
            keys = high[high.size // 2:]
        for lo in range(0, crit.size, chunk):
            pairs = np.bincount(keys[lo:lo + chunk] | crit[lo:lo + chunk],
                                minlength=groups << 8)
            # A float64 product goes to BLAS; every count is below 2^53.
            folded[i] += pairs.reshape(groups, 256).astype(np.float64) @ _BYTE_FOLD
    out = np.zeros((n, groups + 3), dtype=np.int64)
    for k in range(4):  # bit positions of popcount k add k to popcount(j)
        out[:, k:k + groups] += folded[:, :, k].astype(np.int64)
    return out[:, :n + 1]


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(
            f"instance too large for exact solver: {n} agents exceeds the "
            f"enumeration cap of {cap}", cap)


class _Unanimity:
    """The unanimity game of the veto agents ``veto`` among ``n`` agents."""

    method = TREE_CLOSED_FORM

    def __init__(self, n: int, veto: tuple[int, ...]):
        self.n, self.veto = n, veto

    def _split(self, share: Fraction) -> tuple[Fraction, ...]:
        members = set(self.veto)
        return tuple(share if i in members else Fraction(0) for i in range(self.n))

    def banzhaf(self) -> tuple[Fraction, ...]:
        return self._split(Fraction(1, 1 << (len(self.veto) - 1)))

    def shapley(self) -> tuple[Fraction, ...]:
        return self._split(Fraction(1, len(self.veto)))

    def minimal_winning(self) -> list[int]:
        return [sum(1 << i for i in self.veto)]

    def maximal_losing(self) -> list[int]:
        return [((1 << self.n) - 1) ^ (1 << i) for i in self.veto]

    def least_core(self) -> tuple[Fraction, tuple[Fraction, ...]]:
        return Fraction(0), self.shapley()


class _Table:
    """The domain's win table, built on first use, and its reductions; the
    index sums are those the ``powerindex`` module docstring gives."""

    method = EXACT_ENUMERATION

    def __init__(self, domain: ConnectivityDomain):
        self.domain, self.n = domain, domain.n_agents

    def banzhaf(self) -> tuple[Fraction, ...]:
        counts = criticality_histograms(self.domain).sum(axis=1).tolist()
        return tuple(Fraction(c, 1 << (self.n - 1)) for c in counts)

    def shapley(self) -> tuple[Fraction, ...]:
        n = self.n
        weights = [math.factorial(size - 1) * math.factorial(n - size) for size in range(1, n + 1)]
        n_fact = math.factorial(n)
        return tuple(Fraction(sum(count * weight for count, weight in zip(hist[1:], weights)),
                              n_fact)
                     for hist in criticality_histograms(self.domain).tolist())

    def minimal_winning(self) -> list[int]:
        return minimal_winning_masks(win_table(self.domain), self.n).tolist()

    def maximal_losing(self) -> list[int]:
        return maximal_losing_masks(win_table(self.domain), self.n).tolist()


def _exact_game(domain: ConnectivityDomain, cap: int) -> _Unanimity | _Table:
    """The domain's exact form: the unanimity game where the veto agents win
    on their own, at any size; else the win table, refused past ``cap``
    agents (``CapExceededError``) before anything is built."""
    classification = classify(domain)
    if classification.veto_wins:
        return _Unanimity(domain.n_agents, classification.veto_agents)
    _check_cap(domain.n_agents, cap)
    return _Table(domain)
