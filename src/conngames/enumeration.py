"""The win table and its reductions: criticality counts, size histograms and
the minimal winning coalitions.

The win table runs the domain's batched kernel (``ConnectivityDomain._win_bits``)
over all 2^n coalitions in blocks of 2^k, with periodic bitsets for agents
below k and constant ones above; tables are memoized on the domain. A block's
bitsets go to the kernel as Python ints and come back as packed bytes.
"""

from __future__ import annotations

import numpy as np

from .domain import ConnectivityDomain

_CHUNK_BITS = 18  # 2^18-coalition blocks: 32 KB per vertex bitset
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


def _periodic_bitset(i: int, nbytes: int) -> int:
    """Bit m set iff bit i of m is set, for every m below 8 * ``nbytes``."""
    if i < 3:
        period = bytes([(0xAA, 0xCC, 0xF0)[i]])
    else:
        period = bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
    return int.from_bytes(period * (nbytes // len(period)), "little")


def _compute_win_table(domain: ConnectivityDomain) -> np.ndarray:
    n = domain.n_agents
    k = min(n, _CHUNK_BITS)
    nbytes = max(1, 1 << k >> 3)
    full = (1 << 8 * nbytes) - 1
    usable = [_periodic_bitset(i, nbytes) for i in range(k)]
    out = np.empty((1 << (n - k), 1 << k), dtype=bool)
    for high, row in enumerate(out):
        usable[k:] = [full if high >> (i - k) & 1 else 0 for i in range(k, n)]
        wins = domain._win_bits(usable, full).to_bytes(nbytes, "little")
        row[:] = np.unpackbits(np.frombuffer(wins, np.uint8), count=row.size,
                               bitorder="little")
    return out.reshape(-1)


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
    return _minimal_packed(np.packbits(win, bitorder="little"), n)


def maximal_losing_masks(win: np.ndarray, n: int) -> np.ndarray:
    """Descending masks of the losing coalitions that any outsider would turn
    winning: the complements of the dual game's minimal winning coalitions
    (C wins the dual game iff its complement loses).

    The dual table is packed without a 2^n copy of the table: bytes packed
    big-endian and reversed put mask 2^n - 1 - m at bit m. That needs whole
    bytes, so a table of n < 3 (at most 4 entries) is reversed and copied.
    """
    if n >= 3:
        dual = ~np.packbits(win, bitorder="big")[::-1]
    else:
        dual = np.packbits(~win[::-1], bitorder="little")
    return ((1 << n) - 1) ^ _minimal_packed(dual, n)


def _minimal_packed(packed: np.ndarray, n: int) -> np.ndarray:
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

