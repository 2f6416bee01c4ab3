"""Bit-sliced evaluation of the characteristic function over batches of coalitions.

One kernel evaluates a batch of coalitions at once. Each agent brings a
packed membership bitset over the batch (bit t: the agent is in coalition t)
and each vertex holds a packed bitset of the coalitions that reach it from
the first primary. Sweeps of R_v = U_v & OR(R_u, u in N(v)) in breadth-first
order run to a fixed point, U_v being the owner's membership bitset (all ones
for primaries and backbones), and a coalition wins where every primary is
reached. There is no vertex-count limit.

The win table runs the kernel over all 2^n coalitions in blocks of 2^k, with
periodic bitsets for agents below k and constant ones above; tables are
memoized on the domain. The Monte Carlo estimators in :mod:`.powerindex` run
it over blocks of sampled coalitions.
"""

from __future__ import annotations

import numpy as np

from .domain import ConnectivityDomain

_CHUNK_BITS = 18  # 2^18-coalition blocks: 32 KB per vertex, 2 MB at 62 vertices
_WIN_CACHE_KEY = "_win_table_cache"


def win_table(domain: ConnectivityDomain) -> np.ndarray:
    """Boolean array of length 2^n; entry ``m`` is the value of coalition ``m``."""
    cached = domain.__dict__.get(_WIN_CACHE_KEY)
    if cached is not None:
        return cached
    domain.ensure_valid()
    table = _compute_win_table(domain)
    table.setflags(write=False)
    domain.__dict__[_WIN_CACHE_KEY] = table
    return table


def _periodic_bitset(i: int, nbytes: int) -> np.ndarray:
    """Bit m set iff bit i of m is set, packed little-endian over ``nbytes`` bytes."""
    if i < 3:
        return np.full(nbytes, (0xAA, 0xCC, 0xF0)[i], dtype=np.uint8)
    return np.tile(np.repeat(np.array([0, 0xFF], np.uint8), 1 << (i - 3)), nbytes >> (i - 2))


def _compute_win_table(domain: ConnectivityDomain) -> np.ndarray:
    n = domain.n_agents
    k = min(n, _CHUNK_BITS)
    nbytes = max(1, 1 << k >> 3)
    win_bits = _win_bits_evaluator(domain)
    usable = [_periodic_bitset(i, nbytes) for i in range(k)]
    constant = (np.zeros(nbytes, dtype=np.uint8), np.full(nbytes, 0xFF, dtype=np.uint8))
    out = np.empty((1 << (n - k), 1 << k), dtype=bool)
    for high, row in enumerate(out):
        usable[k:] = [constant[high >> (i - k) & 1] for i in range(k, n)]
        row[:] = np.unpackbits(win_bits(usable, nbytes), count=row.size, bitorder="little")
    return out.reshape(-1)


def _win_bits_evaluator(domain: ConnectivityDomain):
    """The batched kernel for one domain: returns ``win_bits(usable, nbytes)``.

    ``usable[i]`` is agent i's packed membership bitset over a batch of
    coalitions: ``nbytes`` uint8 values whose bit t (little-endian) says
    whether agent i is in coalition t. ``win_bits`` returns the batch's
    packed win bits. The neighbour lists and the sweep order are built here,
    once, and shared by every batch.
    """
    primary = list(domain.primary)
    if len(primary) < 2:
        return lambda usable, nbytes: np.full(nbytes, 0xFF, dtype=np.uint8)
    start = min(primary)
    nbrs = [list(vs) for vs in domain._adjacency]
    nbrs[start].append(start)  # a self-loop keeps the start vertex reached
    order = [start]
    for v in order:
        order += [u for u in nbrs[v] if u not in order]
    owner = {v: i for i, v in enumerate(domain.standard)}

    def win_bits(usable, nbytes: int) -> np.ndarray:
        acc = np.empty(nbytes, dtype=np.uint8)
        reached = np.zeros((domain.vertex_count, nbytes), dtype=np.uint8)
        reached[start] = 0xFF
        stale = set(order)
        while stale:
            for v in [u for u in order if u in stale]:
                stale.discard(v)
                np.bitwise_or.reduce(reached[nbrs[v]], axis=0, out=acc)
                if v in owner:
                    acc &= usable[owner[v]]
                if acc.tobytes() != reached[v].tobytes():
                    reached[v] = acc
                    stale.update(nbrs[v])
        return np.bitwise_and.reduce(reached[primary])

    return win_bits


def size_table(n: int) -> np.ndarray:
    """uint8 array of length 2^n holding the popcount of each mask, filled by doubling."""
    table = np.zeros(1 << n, dtype=np.uint8)
    for i in range(n):
        np.add(table[: 1 << i], 1, out=table[1 << i: 1 << (i + 1)])
    return table


def criticality_counts(win: np.ndarray, n: int) -> list[int]:
    """Per agent, the number of coalitions containing it in which it is critical."""
    counts = []
    for i in range(n):
        view = win.reshape(-1, 2, 1 << i)
        counts.append(int(np.count_nonzero(view[:, 1, :] & ~view[:, 0, :])))
    return counts


def minimal_winning_masks(win: np.ndarray, n: int) -> np.ndarray:
    """Ascending masks of the winning coalitions in which every member is critical.

    The table is packed little-endian, bit m of byte b standing for mask
    8b + m, and mask m is struck off when m ^ 2^i wins for a member i: within
    each byte for i < 3 (a shift and a constant mask), and from the low half
    of each run of 2^(i-2) bytes onto its high half for i >= 3.
    """
    packed = np.packbits(win, bitorder="little")
    minimal = packed.copy()
    for i in range(min(n, 3)):
        minimal &= ~(np.left_shift(packed, 1 << i) & (0xAA, 0xCC, 0xF0)[i])
    for i in range(3, n):
        run = 1 << (i - 3)
        minimal.reshape(-1, 2 * run)[:, run:] &= ~packed.reshape(-1, 2 * run)[:, :run]
    at = np.flatnonzero(minimal)
    rows, bits = np.nonzero(np.unpackbits(minimal[at, None], axis=1, bitorder="little"))
    return at[rows] * 8 + bits


def criticality_size_counts(win: np.ndarray, n: int) -> list[np.ndarray]:
    """Per agent, a histogram over |C| of coalitions where the agent is critical."""
    sizes = size_table(n)
    out = []
    for i in range(n):
        w = win.reshape(-1, 2, 1 << i)
        s = sizes.reshape(-1, 2, 1 << i)
        crit = w[:, 1, :] & ~w[:, 0, :]
        out.append(np.bincount(s[:, 1, :][crit], minlength=n + 1))
    return out

