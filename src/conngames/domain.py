"""Graph model for vertex connectivity games.

A domain is a simple undirected graph whose vertices are partitioned into
primary, backbone, and standard vertices. Each standard vertex is owned by one
agent (agent ``i`` owns ``standard[i]``, which is also bit ``i`` in coalition
encodings). A coalition wins when the vertices it owns, together with all
primary and backbone vertices, connect every pair of primary vertices.

Primary and backbone vertices are usable in every coalition. ``classify`` is
the one structural pass: one kernel batch of n + 2 coalitions (each agent's
removal from the grand coalition, the empty and the grand coalition) gives
the degeneracy flags and the veto agents, and one more coalition tells
whether the veto agents win on their own. The closed forms, the core and the
epsilon-core scan read that result; none needs another view of the graph.

Every coalition is evaluated by one bit-sliced kernel, ``_win_bits``, over a
batch of coalitions at a time: each agent brings a membership bitset over
the batch as a Python int (bit t: the agent is in coalition t), and each
vertex's bitset of the coalitions that reach it from the first primary grows
by R_v = U_v & OR(R_u, u in N(v)) to a fixed point, U_v being the owner's
membership bitset (all ones for primaries and backbones). A coalition wins
where every primary is reached. The win table, the Monte Carlo estimators
and the single-coalition questions below all run it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import InvalidDomainError

PRIMARY = "primary"
BACKBONE = "backbone"
STANDARD = "standard"


@dataclass(frozen=True)
class Coalition:
    """Subset of agents encoded as a bitmask (bit ``i`` set = agent ``i`` in)."""

    mask: int
    n_agents: int

    def __post_init__(self):
        if self.n_agents < 0:
            raise ValueError("n_agents must be nonnegative")
        if not 0 <= self.mask < (1 << self.n_agents):
            raise ValueError(f"mask {self.mask:#x} out of range for {self.n_agents} agents")

    @classmethod
    def from_members(cls, members: Iterable[int], n_agents: int) -> "Coalition":
        mask = 0
        for i in members:
            if not 0 <= i < n_agents:
                raise ValueError(f"agent index {i} out of range 0..{n_agents - 1}")
            mask |= 1 << i
        return cls(mask, n_agents)

    @classmethod
    def empty(cls, n_agents: int) -> "Coalition":
        return cls(0, n_agents)

    @classmethod
    def grand(cls, n_agents: int) -> "Coalition":
        return cls((1 << n_agents) - 1, n_agents)

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def add(self, agent: int) -> "Coalition":
        if not 0 <= agent < self.n_agents:
            raise ValueError(f"agent index {agent} out of range")
        return Coalition(self.mask | (1 << agent), self.n_agents)

    def remove(self, agent: int) -> "Coalition":
        if not 0 <= agent < self.n_agents:
            raise ValueError(f"agent index {agent} out of range")
        return Coalition(self.mask & ~(1 << agent), self.n_agents)

    def union(self, other: "Coalition") -> "Coalition":
        return Coalition(self.mask | other.mask, self.n_agents)

    def __contains__(self, agent: int) -> bool:
        return 0 <= agent < self.n_agents and bool(self.mask >> agent & 1)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class ConnectivityDomain:
    """A network with its primary / backbone / standard vertex partition.

    ``standard`` doubles as the agent map: agent ``i`` owns ``standard[i]``.
    Instances are immutable; all evaluation functions are pure, so a shared
    domain may be used concurrently without synchronization.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    primary: tuple[int, ...]
    backbone: tuple[int, ...]
    standard: tuple[int, ...]

    def __post_init__(self):
        edges, edge_violations = _edge_pass(self.edges, self.vertex_count, strict=False)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_edge_violations", edge_violations)
        object.__setattr__(self, "primary", tuple(int(v) for v in self.primary))
        object.__setattr__(self, "backbone", tuple(int(v) for v in self.backbone))
        object.__setattr__(self, "standard", tuple(int(v) for v in self.standard))

    @classmethod
    def _built(cls, vertex_count: int, edges: tuple[tuple[int, int], ...],
               edge_violations: tuple[str, ...], primary: tuple[int, ...],
               backbone: tuple[int, ...], standard: tuple[int, ...]) -> "ConnectivityDomain":
        """A domain from fields already as ``__post_init__`` leaves them, with
        the edge violations ``_edge_pass`` found; the fields are not walked again."""
        domain = cls.__new__(cls)
        domain.__dict__.update(vertex_count=vertex_count, edges=edges, primary=primary,
                               backbone=backbone, standard=standard,
                               _edge_violations=edge_violations)
        return domain

    @property
    def n_agents(self) -> int:
        return len(self.standard)

    @cached_property
    def _validation(self) -> ValidationReport:
        return validate(self)

    def ensure_valid(self) -> None:
        report = self._validation
        if not report.ok:
            raise InvalidDomainError(report.violations)

    # The cached graph views below assume a validated domain.

    @cached_property
    def _adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(ns) for ns in nbrs)

    @cached_property
    def _slots(self) -> tuple[int, ...]:
        """Per vertex, the index of its usable bitset in a kernel batch: the
        owner's for a standard vertex, ``n_agents`` (all ones) otherwise."""
        slot = [self.n_agents] * self.vertex_count
        for i, v in enumerate(self.standard):
            slot[v] = i
        return tuple(slot)

    def _win_bits(self, usable: list[int], full: int) -> int:
        """The batched kernel: the win bits of a batch of coalitions.

        ``usable[i]`` is agent i's membership bitset over the batch and
        ``full`` has a bit set for every coalition of the batch. Vertices
        are swept from a queue, and one is queued again only when a
        neighbour's bitset grows, so the sweep ends at the fixed point.
        """
        if len(self.primary) < 2:
            return full  # vacuously connected
        start = min(self.primary)
        nbrs, slot = self._adjacency, self._slots
        masks = [*usable, full]
        reached = [0] * self.vertex_count
        reached[start] = full
        queue = list(nbrs[start])
        queued = {start, *queue}  # the start vertex is never swept
        for v in queue:
            queued.discard(v)
            acc = 0
            for u in nbrs[v]:
                acc |= reached[u]
            acc &= masks[slot[v]]
            if acc != reached[v]:
                reached[v] = acc
                stale = [u for u in nbrs[v] if u not in queued]
                queued.update(stale)
                queue += stale
        wins = full
        for p in self.primary:
            wins &= reached[p]
        return wins


@dataclass(frozen=True)
class DomainClassification:
    """Degeneracy flags, the veto agents (those in every winning coalition)
    and whether they win on their own. ``veto_wins`` is False on a
    degenerate domain, where it is not asked."""

    degenerate_all_win: bool
    degenerate_all_lose: bool
    veto_agents: tuple[int, ...]
    veto_wins: bool

    @property
    def degenerate(self) -> bool:
        return self.degenerate_all_win or self.degenerate_all_lose


def validate(domain: ConnectivityDomain) -> ValidationReport:
    """Check the partition, edge list, and agent map; violations are data.
    The edge list's were found in the one walk that built the domain."""
    violations: list[str] = []
    n_vertices = domain.vertex_count
    if n_vertices < 0:
        return ValidationReport(("negative vertex count",))

    # Labels are counted per labeled vertex and only the first 10 unlabeled
    # vertices are named, so the cost follows the document, not vertex_count.
    label_count: dict[int, int] = {}
    for name, vertices in ((PRIMARY, domain.primary), (BACKBONE, domain.backbone),
                           (STANDARD, domain.standard)):
        for v in vertices:
            if not 0 <= v < n_vertices:
                violations.append(f"{name} label references unknown vertex {v}")
            else:
                label_count[v] = label_count.get(v, 0) + 1
    unlabeled = n_vertices - len(label_count)
    named: list[int] = []
    v = 0
    while len(named) < min(unlabeled, 10):
        if v not in label_count:
            named.append(v)
        v += 1
    for v in sorted(named + [v for v, count in label_count.items() if count > 1]):
        if v not in label_count:
            violations.append(f"vertex {v} has no kind label (non-partition labels)")
        else:
            violations.append(f"vertex {v} labeled more than once (non-partition labels)")
    if unlabeled > len(named):
        violations.append(f"... and {unlabeled - len(named)} more vertices have no "
                          f"kind label (non-partition labels)")
    if len(set(domain.standard)) != len(domain.standard):
        violations.append("agent map is not a bijection: repeated standard vertex")

    violations += domain._edge_violations
    return ValidationReport(tuple(violations))


def _edge_pass(entries, n_vertices: int, strict: bool
               ) -> tuple[tuple[tuple[int, int], ...], tuple[str, ...]]:
    """The edge list as pairs of ints and its violations, in one walk.

    Each entry must unpack to a pair. An end that is not an int is refused
    by ``_strict_int`` if ``strict``, else converted by ``int``. Self-loops,
    unknown vertices and repeated edges are the violations, in edge order.
    """
    edges: list[tuple[int, int]] = []
    violations: list[str] = []
    seen: set[tuple[int, int]] = set()
    for entry in entries:
        try:
            u, v = entry
        except (TypeError, ValueError):
            raise ValueError(f"edges: expected a pair of integers, got {entry!r}") from None
        if type(u) is not int:
            u = _strict_int(u, "edges") if strict else int(u)
        if type(v) is not int:
            v = _strict_int(v, "edges") if strict else int(v)
        edge = (u, v)
        edges.append(edge)
        if u == v:
            violations.append(f"edge ({u}, {v}) is a self-loop")
        elif not (0 <= u < n_vertices and 0 <= v < n_vertices):
            violations.append(f"edge ({u}, {v}) references an unknown vertex")
        else:
            key = edge if u < v else (v, u)
            if key in seen:
                violations.append(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
    return tuple(edges), tuple(violations)


def _as_mask(coalition, n_agents: int) -> int:
    if isinstance(coalition, Coalition):
        if coalition.n_agents != n_agents:
            raise ValueError("coalition sized for a different agent set")
        return coalition.mask
    mask = int(coalition)
    if not 0 <= mask < (1 << n_agents):
        raise ValueError(f"coalition mask {mask:#x} out of range for {n_agents} agents")
    return mask


def coalition_value(domain: ConnectivityDomain, coalition) -> int:
    """Value of a coalition: 1 iff its vertices plus the always-usable ones
    connect every pair of primary vertices.

    One batch of one coalition for the kernel. ``coalition`` may be a
    :class:`Coalition` or a raw bitmask.
    """
    domain.ensure_valid()
    mask = _as_mask(coalition, domain.n_agents)
    return domain._win_bits([mask >> i & 1 for i in range(domain.n_agents)], 1)


def is_critical(domain: ConnectivityDomain, agent: int, coalition) -> bool:
    """True iff the coalition wins but loses once ``agent`` is removed."""
    domain.ensure_valid()
    mask = _as_mask(coalition, domain.n_agents)
    if not 0 <= agent < domain.n_agents:
        raise ValueError(f"agent index {agent} out of range")
    if not mask >> agent & 1:
        raise ValueError(f"agent {agent} is not a member of the coalition")
    # Coalition 0 of the batch is the given one, coalition 1 lacks the agent.
    usable = [(mask >> i & 1) * 3 for i in range(domain.n_agents)]
    usable[agent] = 1
    return domain._win_bits(usable, 3) == 1


def classify(domain: ConnectivityDomain) -> DomainClassification:
    """The structural pass, memoized on the domain instance.

    Coalition i < n of one batch lacks agent i, so agent i is veto iff it
    loses; coalition n is the empty one and n + 1 the grand one. On a
    non-degenerate domain the veto set is then evaluated on its own.
    """
    cached = domain.__dict__.get("_classification_cache")
    if cached is None:
        domain.ensure_valid()
        n = domain.n_agents
        full = (1 << (n + 2)) - 1
        wins = domain._win_bits([full ^ (1 << i) ^ (1 << n) for i in range(n)], full)
        veto = tuple(i for i in range(n) if not wins >> i & 1)
        all_win, all_lose = bool(wins >> n & 1), not wins >> (n + 1) & 1
        veto_wins = not (all_win or all_lose) and bool(
            coalition_value(domain, sum(1 << i for i in veto)))
        cached = domain.__dict__["_classification_cache"] = DomainClassification(
            degenerate_all_win=all_win,
            degenerate_all_lose=all_lose,
            veto_agents=veto,
            veto_wins=veto_wins,
        )
    return cached


def domain_to_dict(domain: ConnectivityDomain) -> dict:
    return {
        "vertices": domain.vertex_count,
        "edges": [[u, v] for u, v in domain.edges],
        "primary": list(domain.primary),
        "backbone": list(domain.backbone),
        "standard": list(domain.standard),
    }


def _strict_int(value, field: str) -> int:
    """``value`` as an int; bools, floats and strings are refused, not coerced."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{field}: expected an integer, got {value!r}")


def _strict_ints(values, field: str) -> tuple[int, ...]:
    return tuple([v if type(v) is int else _strict_int(v, field) for v in values])


def domain_from_dict(data: dict) -> ConnectivityDomain:
    """Build a domain from the JSON schema; unknown top-level keys are ignored.

    Agent ``i`` is the i-th entry of ``standard`` — that ordering is the bit
    position used in every coalition encoding.
    """
    if not isinstance(data, dict):
        raise ValueError("domain document must be a JSON object")
    try:
        vertices = _strict_int(data["vertices"], "vertices")
        edges, edge_violations = _edge_pass(data["edges"], vertices, strict=True)
        primary = _strict_ints(data["primary"], "primary")
        backbone = _strict_ints(data["backbone"], "backbone")
        standard = _strict_ints(data["standard"], "standard")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed domain document: {exc}") from exc
    return ConnectivityDomain._built(vertices, edges, edge_violations, primary, backbone,
                                     standard)
