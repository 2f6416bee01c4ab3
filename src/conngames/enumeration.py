"""Bit-sliced evaluation of the characteristic function over all coalitions.

The exact solvers enumerate all 2^n coalitions in blocks of 2^k. Each vertex
holds a packed bitset over the block whose bit m says whether coalition m
reaches it from the first primary. Sweeps of R_v = U_v & OR(R_u, u in N(v)) in
breadth-first order run to a fixed point, U_v being the owner's usable bitset
(periodic for agents below k, constant above), and a coalition wins where every
primary is reached. No vertex-count limit; tables are memoized on the domain.
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


def _agent_bitset(i: int, k: int, high: int, nbytes: int) -> np.ndarray:
    """Bit m set iff agent i is in coalition ``high << k | m``, packed little-endian."""
    if i >= k:
        return np.full(nbytes, 0xFF if high >> (i - k) & 1 else 0, dtype=np.uint8)
    if i < 3:
        return np.full(nbytes, (0xAA, 0xCC, 0xF0)[i], dtype=np.uint8)
    return np.tile(np.repeat(np.array([0, 0xFF], np.uint8), 1 << (i - 3)), nbytes >> (i - 2))


def _compute_win_table(domain: ConnectivityDomain) -> np.ndarray:
    n = domain.n_agents
    if len(domain.primary) < 2:
        return np.ones(1 << n, dtype=bool)
    k = min(n, _CHUNK_BITS)
    nbytes = max(1, 1 << k >> 3)
    start = min(domain.primary)
    nbrs = [list(vs) for vs in domain._adjacency]
    nbrs[start].append(start)  # a self-loop keeps the start vertex reached
    order = [start]
    for v in order:
        order += [u for u in nbrs[v] if u not in order]
    acc = np.empty(nbytes, dtype=np.uint8)
    out = np.empty((1 << (n - k), 1 << k), dtype=bool)
    for high, row in enumerate(out):
        usable = {v: _agent_bitset(i, k, high, nbytes) for i, v in enumerate(domain.standard)}
        reached = np.zeros((domain.vertex_count, nbytes), dtype=np.uint8)
        reached[start] = 0xFF
        stale = set(order)
        while stale:
            for v in [u for u in order if u in stale]:
                stale.discard(v)
                np.bitwise_or.reduce(reached[nbrs[v]], axis=0, out=acc)
                if v in usable:
                    acc &= usable[v]
                if not np.array_equal(acc, reached[v]):
                    reached[v] = acc
                    stale.update(nbrs[v])
        wins = np.bitwise_and.reduce(reached[list(domain.primary)])
        row[:] = np.unpackbits(wins, count=row.size, bitorder="little")
    return out.reshape(-1)


def _subset_sums(weights, dtype) -> np.ndarray:
    """Entry m is the sum of ``weights[i]`` over the bits i of m, filled by doubling."""
    table = np.zeros(1 << len(weights), dtype=dtype)
    for i, w in enumerate(weights):
        np.add(table[: 1 << i], w, out=table[1 << i: 1 << (i + 1)])
    return table


def size_table(n: int) -> np.ndarray:
    """uint8 array of length 2^n holding the popcount of each mask."""
    return _subset_sums([1] * n, np.uint8)


def criticality_counts(win: np.ndarray, n: int) -> list[int]:
    """Per agent, the number of coalitions containing it in which it is critical."""
    counts = []
    for i in range(n):
        view = win.reshape(-1, 2, 1 << i)
        counts.append(int(np.count_nonzero(view[:, 1, :] & ~view[:, 0, :])))
    return counts


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


def minimal_winning_masks(win: np.ndarray, n: int) -> np.ndarray:
    """Masks of winning coalitions in which every member is critical."""
    minimal = win.copy()
    for i in range(n):
        m = minimal.reshape(-1, 2, 1 << i)
        w = win.reshape(-1, 2, 1 << i)
        m[:, 1, :] &= ~w[:, 0, :]
    return np.flatnonzero(minimal)
