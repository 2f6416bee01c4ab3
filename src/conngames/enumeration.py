"""The exact game source, the Steiner separation oracle, and the win table
with its reductions: criticality size histograms and the minimal winning
coalitions.

Every exact solver asks ``_exact_game`` for the domain's exact form. Where
the veto agents win on their own, the game is their unanimity game
(Shapley 1953), and ``_Unanimity`` answers at any size with no table: 1/m
Shapley values and 2^(1-m) Banzhaf indices for the m veto agents, the veto
set as the one minimal winning coalition, and a least core of eps = 0 with
the equal split. Otherwise ``_Table`` reads the win table, which is refused
past the enumeration cap before it is built. A solver that needs only
least-paid winning coalitions (maximal excess, the least core's separation)
may get ``_Steiner`` instead, a minimum node-weighted Steiner tree search
over the primaries, where a deterministic estimate of one search's work is
at most the table's 2^n - 1 coalitions, and past the cap where it fits
``WORK_BUDGET``, the work one query may spend there, in the same unit: one
win-table coalition. Every form answers ``least_paid_winning`` for payoffs
of any sign, scaled to ints over one denominator (``_scaled``), the agents
of N-, those paid below 0, taken as free: the least-paid winning coalition
is m | N- for some minimal winning m, as every winning coalition holds such
an m and joining N- only lowers its payment.
No form lists losing coalitions, as maximal excess needs only one: any
losing L pays p(L) >= p(N-), a tie only for N- plus zero-paid agents, so the
losing candidate is N- if N- loses; if N- wins, the least-paid winning
coalition's excess is at least 1 - p(N-), above that of every losing one.
The oracle's contraction, one node per agent and per region of primary and
backbone vertices, is built once per domain (``_steiner``). With two
terminal regions its ``least_cut`` max-flow gives a minimum agent cut
between them, which is the least core's answer, with no search.

numpy is imported on first use, by the table and its reductions only.

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

import functools
import heapq
import math
from fractions import Fraction
from operator import add, sub
from typing import Sequence

from .domain import ConnectivityDomain, classify
from .errors import CapExceededError

DEFAULT_ENUMERATION_CAP = 24

EXACT_ENUMERATION = "exact-enumeration"
EXACT_STEINER = "exact-steiner"
TREE_CLOSED_FORM = "tree-closed-form"

# Win-table blocks of 2^18 coalitions (32 KB per vertex bitset), and 2^18
# bytes per bincount in the reductions (a 2 MB intp copy).
_CHUNK_BITS = 18
_WIN_CACHE_KEY = "_win_table_cache"
_HISTOGRAM_CACHE_KEY = "_histogram_cache"
_IN_BYTE = (0xAA, 0xCC, 0xF0)  # bits b of a byte whose bit i is set, for i < 3


@functools.cache
def _byte_fold() -> np.ndarray:
    """Row v: how many set bits of byte value v sit at bit positions of popcount 0..3."""
    import numpy as np
    return np.stack([sum(np.arange(256) >> b & 1 for b in range(8) if bin(b).count("1") == k)
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


@functools.cache
def _periodic_bitset(i: int, nbytes: int) -> int:
    """Bit m set iff bit i of m is set, for every m below 8 * ``nbytes``;
    kept for every table size, about 1.1 MB in all."""
    if i < 3:
        period = bytes([_IN_BYTE[i]])
    else:
        period = bytes(1 << (i - 3)) + b"\xff" * (1 << (i - 3))
    return int.from_bytes(period * (nbytes // len(period)), "little")


def _compute_win_table(domain: ConnectivityDomain) -> np.ndarray:
    import numpy as np
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
    import numpy as np
    minimal = win.copy()
    for i in range(min(n, 3)):
        minimal &= ~(np.left_shift(win, 1 << i) & _IN_BYTE[i])
    for i in range(3, n):
        run = 1 << (i - 3)
        minimal.reshape(-1, 2 * run)[:, run:] &= ~win.reshape(-1, 2 * run)[:, :run]
    at = np.flatnonzero(minimal)
    rows, bits = np.nonzero(np.unpackbits(minimal[at, None], axis=1, bitorder="little"))
    return at[rows] * 8 + bits


def criticality_size_counts(win: np.ndarray, n: int) -> np.ndarray:
    """int64 array of shape (n, n + 1): row i counts, by size |C|, the
    coalitions C in which agent i is critical (C wins, C minus i loses).

    The size of mask 8j + b is popcount(j) + popcount(b). Each agent's
    critical bytes are counted by (popcount(j), byte value) in one
    ``bincount`` per 2^_CHUNK_BITS bytes, keyed by a uint16 holding
    popcount(j) in its high byte, and the counts are folded into sizes by
    the byte table ``_byte_fold()``. For i >= 3 only the upper half of each
    2^(i-2)-byte run can hold i; taken in order, those bytes' indices have
    the popcounts of the upper half of all byte indices.
    """
    import numpy as np
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
            folded[i] += pairs.reshape(groups, 256).astype(np.float64) @ _byte_fold()
    out = np.zeros((n, groups + 3), dtype=np.int64)
    for k in range(4):  # bit positions of popcount k add k to popcount(j)
        out[:, k:k + groups] += folded[:, :, k].astype(np.int64)
    return out[:, :n + 1]


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        raise CapExceededError(
            f"instance too large for exact solver: {n} agents exceeds the "
            f"enumeration cap of {cap}", cap)


def _scaled_payment(mask: int, weights: Sequence[int]) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += weights[low.bit_length() - 1]
        mask ^= low
    return total


def _scaled(payoffs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The payoffs over one denominator: the lcm of theirs, and each payoff
    times it, an int."""
    scale = math.lcm(*(x.denominator for x in payoffs))
    return scale, [x.numerator * (scale // x.denominator) for x in payoffs]


def _negatively_paid(scaled: Sequence[int]) -> int:
    """Mask of N-, the agents paid below 0."""
    return sum(1 << i for i, x in enumerate(scaled) if x < 0)


def _least_paid(masks: list[int], scaled: Sequence[int]) -> tuple[int, int] | None:
    """Mask of least (payment, size, mask) in the list ``masks``, with its
    payment, or None if the list is empty."""
    if not masks:
        return None
    total, _, mask = min((_scaled_payment(m, scaled), m.bit_count(), m) for m in masks)
    return mask, total


class _Listed:
    """A form that lists its minimal winning coalitions, ``minimal_winning``."""

    def least_paid_winning(self, scaled: Sequence[int]) -> tuple[int, int] | None:
        """The winning coalition of least (payment, size, mask), with its
        payment, for payoffs scaled to ints (``_scaled``); None if no
        coalition wins. It is m | N- for a minimal winning m: every winning
        coalition holds some m, and joining N- to it only lowers its payment."""
        free = _negatively_paid(scaled)
        return _least_paid([m | free for m in self.minimal_winning], scaled)


class _Unanimity(_Listed):
    """The unanimity game of the veto agents ``veto`` among ``n`` agents."""

    method = TREE_CLOSED_FORM

    def __init__(self, n: int, veto: tuple[int, ...]):
        self.n, self.veto = n, veto

    def _split(self, share: Fraction) -> tuple[Fraction, ...]:
        members, zero = set(self.veto), Fraction(0)
        return tuple(share if i in members else zero for i in range(self.n))

    def banzhaf(self) -> tuple[Fraction, ...]:
        return self._split(Fraction(1, 1 << (len(self.veto) - 1)))

    def shapley(self) -> tuple[Fraction, ...]:
        return self._split(Fraction(1, len(self.veto)))

    @property
    def minimal_winning(self) -> list[int]:
        return [sum(1 << i for i in self.veto)]

    def least_core(self) -> tuple[Fraction, tuple[Fraction, ...]]:
        return Fraction(0), self.shapley()


class _Table(_Listed):
    """The domain's win table, built on first use, and its reductions; the
    index sums are those the ``powerindex`` module docstring gives. The
    minimal winning coalitions are listed once per form."""

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

    @functools.cached_property
    def minimal_winning(self) -> list[int]:
        return minimal_winning_masks(win_table(self.domain), self.n).tolist()


class _Steiner:
    """Least-paid winning coalitions as minimum node-weighted Steiner trees
    over the primaries (Dreyfus & Wagner, Networks 1, 1971), with no table.

    The graph is contracted: each connected region of primary and backbone
    vertices is one node of weight 0, and a region holding a primary is a
    terminal, so with k terminals a search costs O(3^k V + 2^k (E + V log V))
    operations on node weights of over n bits (below), in time and memory.
    ``work`` = 3^k (V + E) (n // 64 + 1), with the domain's vertex and edge
    counts and the 64-bit words of 2^n, estimates it before the contracted
    edges are built, on the first search, and before the payoffs, whose
    digits widen the weights further, are known. It keeps the domain's edge
    list, not the domain, which memoizes it (``_steiner``).

    The agents of N-, paid below 0, are free: their nodes weigh 0, as do
    the regions'. Any other agent i's node weighs
    w_i = P_i (n+1) 2^n + 2^n + 2^i, P_i its payoff scaled to an integer.
    A set W of such agents then weighs
    P(W) (n+1) 2^n + |W| 2^n + mask(W), so the lightest tree's W gives the
    winning coalition W | N- of least (payment, size, mask): N- is disjoint
    from W and adds the same payment, size and mask to every candidate. The
    mask of W is the weight mod 2^n.
    """

    method = EXACT_STEINER

    def __init__(self, domain: ConnectivityDomain):
        self.n, self._edges = domain.n_agents, domain.edges
        adjacency = domain._adjacency
        node = [-1] * domain.vertex_count  # agent i is node i, regions follow
        for i, v in enumerate(domain.standard):
            node[v] = i
        nodes = self.n
        for start in (*domain.primary, *domain.backbone):
            if node[start] < 0:
                node[start] = nodes
                stack = [start]
                while stack:
                    for u in adjacency[stack.pop()]:
                        if node[u] < 0:  # not an agent's, so always usable
                            node[u] = nodes
                            stack.append(u)
                nodes += 1
        self._node, self._nodes = node, nodes
        self.terminals = sorted({node[p] for p in domain.primary})
        self.work = (3 ** len(self.terminals) * (domain.vertex_count + len(domain.edges))
                     * (self.n // 64 + 1))

    @functools.cached_property
    def _nbrs(self) -> list[tuple[int, ...]]:
        """The contracted graph's adjacency lists."""
        node = self._node
        nbrs: list[set[int]] = [set() for _ in range(self._nodes)]
        for u, v in self._edges:
            if node[u] != node[v]:
                nbrs[node[u]].add(node[v])
                nbrs[node[v]].add(node[u])
        return [tuple(ns) for ns in nbrs]

    def least_paid_winning(self, scaled: Sequence[int]) -> tuple[int, int] | None:
        """The winning coalition of least (payment, size, mask), with its
        payment, for payoffs scaled to ints (``_scaled``); None if no
        coalition wins."""
        n = self.n
        free = _negatively_paid(scaled)
        step = (n + 1) << n
        weights = [0 if x < 0 else x * step + (1 << n) + (1 << i) for i, x in enumerate(scaled)]
        weights += [0] * (self._nodes - n)
        total = self._lightest_tree(weights)
        if total is None:
            return None
        payment = (total >> n) // (n + 1) + _scaled_payment(free, scaled)
        return (total & ((1 << n) - 1)) | free, payment

    def _lightest_tree(self, weights: list[int]) -> int | None:
        """Weight of the lightest connected node set holding every terminal.

        best[S][v] is the lightest tree holding node v and the terminals in
        S, S ranging over the terminals other than the root: one Dijkstra
        from each terminal, then for |S| >= 2 each split of S is merged at v
        and a Dijkstra grows the merged trees along edges. A merge may count
        a node shared by both parts twice; that only overstates a connected
        set the search also reaches, so the least value is a tree's weight.
        """
        if len(self.terminals) < 2:
            return 0
        root, *rest = self.terminals
        nbrs = self._nbrs
        unreached = sum(weights) + 1  # heavier than any tree
        full = (1 << len(rest)) - 1

        def grow(dist: list[int], stop: int | None) -> list[int]:
            heap = [(d, v) for v, d in enumerate(dist) if d < unreached]
            heapq.heapify(heap)
            while heap:
                d, v = heapq.heappop(heap)
                if d > dist[v]:
                    continue
                if v == stop:
                    break
                for u in nbrs[v]:
                    grown = d + weights[u]
                    if grown < dist[u]:
                        dist[u] = grown
                        heapq.heappush(heap, (grown, u))
            return dist

        best: list[list[int]] = [[]] * (full + 1)
        for j, terminal in enumerate(rest):
            dist = [unreached] * len(nbrs)
            dist[terminal] = 0
            best[1 << j] = grow(dist, root if 1 << j == full else None)
        for s in range(3, full + 1):
            if s & (s - 1) == 0:
                continue
            low = s & -s
            merged = None
            part = (s - 1) & s
            while part:  # each split once: the part holding the lowest terminal
                if part & low:
                    pair = map(add, best[part], best[s ^ part])
                    merged = list(pair) if merged is None else list(map(min, merged, pair))
                part = (part - 1) & s
            best[s] = grow(list(map(sub, merged, weights)), root if s == full else None)
        total = best[full][root]
        return total if total < unreached else None

    def least_cut(self) -> int:
        """Mask of a minimum agent cut between two terminals: the one nearest
        the first, whose size is the largest number of agent-disjoint paths
        between them (Menger 1927).

        One max-flow: agent i is an in-node i and an out-node nodes + i,
        joined by an arc of capacity 1; a region is one node of both sides;
        each contracted edge is an arc from either end's out-side to the
        other's in-side, of capacity n + 1, more than any flow. Flow is
        pushed along BFS augmenting paths, each arc beside its residual twin
        (index ^ 1), so at most min(deg source, deg sink) + 1 passes over
        V + E. The cut is the agents whose in-node the last pass reaches and
        whose out-node it does not.
        """
        n, nodes = self.n, self._nodes
        source, sink = self.terminals
        edges = [(i, nodes + i, 1) for i in range(n)]
        edges += [(nodes + v if v < n else v, u, n + 1)
                  for v, us in enumerate(self._nbrs) for u in us]
        heads: list[int] = []
        caps: list[int] = []
        arcs: list[list[int]] = [[] for _ in range(nodes + n)]
        for a, b, cap in edges:
            arcs[a].append(len(heads))
            arcs[b].append(len(heads) + 1)
            heads += b, a
            caps += cap, 0
        while True:
            reached = [-1] * (nodes + n)  # the arc each node was reached by
            reached[source] = len(heads)
            queue = [source]
            for a in queue:
                for e in arcs[a]:
                    if caps[e] and reached[heads[e]] < 0:
                        reached[heads[e]] = e
                        queue.append(heads[e])
                if reached[sink] >= 0:
                    break
            else:
                return sum(1 << i for i in range(n) if reached[i] >= 0 > reached[nodes + i])
            b = sink
            while b != source:
                e = reached[b]
                caps[e] -= 1
                caps[e ^ 1] += 1
                b = heads[e ^ 1]


# Past the enumeration cap, the work one query may spend, in units of
# ``_Steiner.work``: one unit stands for one win-table coalition. At 500
# agents in 4 primary regions one search is 2.3M units (about 10 ms).
WORK_BUDGET = 1 << 26


def _steiner(domain: ConnectivityDomain) -> _Steiner:
    """The domain's ``_Steiner`` form, its contraction built once per domain."""
    cached = domain.__dict__.get("_steiner_cache")
    if cached is None:
        cached = domain.__dict__["_steiner_cache"] = _Steiner(domain)
    return cached


def _exact_game(domain: ConnectivityDomain, cap: int,
                separates: bool = False) -> _Unanimity | _Table | _Steiner:
    """The domain's exact form, chosen by a deterministic cost estimate.

    Where the veto agents win on their own it is the unanimity game, at any
    size. A caller that ``separates`` asks only for least-paid winning
    coalitions (maximal excess, each round of the least core); any other
    needs the table's histograms. One rule plans every separating caller:
    it gets the Steiner oracle where one search's work is at most the
    table's 2^n - 1 coalitions, and past ``cap`` agents where it fits
    ``WORK_BUDGET``, the query's budget: maximal excess spends one search,
    and the least core's rounds charge each a search and its program
    (``stability._least_core_by_rounds``). Otherwise it is the win table,
    refused past ``cap`` (``CapExceededError``) before anything is built.
    """
    classification = classify(domain)
    n = domain.n_agents
    if classification.veto_wins:
        return _Unanimity(n, classification.veto_agents)
    if separates:
        steiner = _steiner(domain)
        if steiner.work <= (WORK_BUDGET if n > cap else (1 << n) - 1):
            return steiner
    _check_cap(n, cap)
    return _Table(domain)
