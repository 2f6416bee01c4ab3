"""Instance generators and brute-force oracles for end-to-end identities.

Two constructions turn classic covering problems into connectivity games:

* Set cover -> game. One standard vertex per set plus a distinguished
  standard vertex v_a, all forming a clique; one primary vertex per item,
  each wired to the sets containing it; and a pendant primary v_b whose only
  edge goes to v_a. A coalition wins iff it contains v_a and its set-vertices
  cover the universe, and v_a is critical in every winning coalition, so the
  number of covers equals v_a's Banzhaf numerator: covers = beta_a * 2^(m-1)
  with m agents.

* Vertex cover -> eps-core membership. Each original vertex becomes a
  standard vertex, each original edge becomes a primary vertex wired to the
  edge's two endpoints, and one backbone vertex links every standard vertex.
  A coalition wins iff it is a vertex cover, so under the equal imputation
  the maximal excess is 1 - tau/n where tau is the minimum cover size.

The exhaustive counters below are deliberately naive; they exist as
independent oracles for the identities above.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .domain import ConnectivityDomain, _strict_int
from .errors import CapExceededError

ORACLE_CAP = 20

# Largest domain the builders write; a larger one is refused before building.
# Set cover checks its edge count against it too: its sets form a clique.
MAX_GENERATED_VERTICES = 100_000


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe 0..universe_size-1 plus a list of subsets."""

    universe_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.universe_size < 0:
            raise ValueError("universe size must be nonnegative")
        normalized = []
        for s in self.sets:
            items = tuple(sorted(set(int(t) for t in s)))
            for t in items:
                if not 0 <= t < self.universe_size:
                    raise ValueError(f"item {t} outside universe 0..{self.universe_size - 1}")
            normalized.append(items)
        object.__setattr__(self, "sets", tuple(normalized))

    def uncovered_items(self) -> tuple[int, ...]:
        covered = set()
        for s in self.sets:
            covered.update(s)
        return tuple(t for t in range(self.universe_size) if t not in covered)


@dataclass(frozen=True)
class VertexCoverInstance:
    """A simple graph plus the cover-size threshold."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    threshold: int

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex count must be nonnegative")
        if self.threshold < 0:
            raise ValueError("threshold must be nonnegative")
        seen = set()
        normalized = []
        for u, v in self.edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop ({u}, {v})")
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)
            normalized.append((u, v))
        object.__setattr__(self, "edges", tuple(normalized))


def _check_size(count: int, what: str = "vertices") -> None:
    if count > MAX_GENERATED_VERTICES:
        raise CapExceededError(
            f"instance too large: its domain would have {count} {what}, "
            f"past the generator's bound of {MAX_GENERATED_VERTICES}",
            MAX_GENERATED_VERTICES)


def setcover_to_cg(instance: SetCoverInstance) -> tuple[ConnectivityDomain, int]:
    """Build the covering game for a set-cover instance.

    Vertex order: set vertices, then v_a, then item vertices, then v_b.
    Returns the domain and the agent index of v_a (the last agent).
    """
    n_sets = len(instance.sets)
    k = instance.universe_size
    _check_size(n_sets + k + 2)
    # The clique on the sets and v_a, one edge per membership, and v_b's edge.
    _check_size((n_sets + 1) * n_sets // 2 + sum(map(len, instance.sets)) + 1, "edges")
    v_a = n_sets
    item_base = n_sets + 1
    v_b = item_base + k

    edges: list[tuple[int, int]] = list(combinations(range(n_sets + 1), 2))
    edges.append((v_a, v_b))
    for s_idx, items in enumerate(instance.sets):
        for t in items:
            edges.append((s_idx, item_base + t))

    domain = ConnectivityDomain(
        vertex_count=v_b + 1,
        edges=tuple(edges),
        primary=tuple(range(item_base, item_base + k)) + (v_b,),
        backbone=(),
        standard=tuple(range(n_sets + 1)),
    )
    return domain, n_sets


def count_set_covers(instance: SetCoverInstance, *, cap: int = ORACLE_CAP) -> int:
    """Exhaustive count of subset families whose union is the whole universe."""
    n = len(instance.sets)
    if n > cap:
        raise CapExceededError(
            f"{n} sets exceeds the brute-force cap of {cap}", cap)
    target = (1 << instance.universe_size) - 1
    set_masks = []
    for items in instance.sets:
        mask = 0
        for t in items:
            mask |= 1 << t
        set_masks.append(mask)
    unions = [0] * (1 << n)
    count = 1 if target == 0 else 0
    for family in range(1, 1 << n):
        low = family & -family
        unions[family] = unions[family ^ low] | set_masks[low.bit_length() - 1]
        if unions[family] == target:
            count += 1
    return count


def vertexcover_to_ecm(
        instance: VertexCoverInstance) -> tuple[ConnectivityDomain, tuple[Fraction, ...], Fraction]:
    """Build the covering game for a vertex-cover instance.

    Vertex order: original vertices (as agents), then one primary vertex per
    original edge, then the backbone vertex. Returns the domain, the equal
    imputation, and the membership threshold eps = 1 - t/n; a threshold t
    past the vertex count n is refused, as eps would be negative.
    """
    n = instance.vertex_count
    _check_size(n + len(instance.edges) + 1)
    if n == 0:
        raise ValueError("vertex-cover instance needs at least one vertex")
    if instance.threshold > n:
        raise ValueError(f"threshold t = {instance.threshold} exceeds the {n} vertices, "
                         f"so epsilon = 1 - t/n would be negative")
    if len(instance.edges) < 2:
        warnings.warn(
            "vertex-cover instance has fewer than two edges; the generated "
            "domain is degenerate and the cover identity does not apply",
            stacklevel=2)
    edge_base = n
    v_b = edge_base + len(instance.edges)

    edges: list[tuple[int, int]] = []
    for j, (u, w) in enumerate(instance.edges):
        edges.append((u, edge_base + j))
        edges.append((w, edge_base + j))
    for v in range(n):
        edges.append((v, v_b))

    domain = ConnectivityDomain(
        vertex_count=v_b + 1,
        edges=tuple(edges),
        primary=tuple(range(edge_base, edge_base + len(instance.edges))),
        backbone=(v_b,),
        standard=tuple(range(n)),
    )
    imputation = (Fraction(1, n),) * n
    epsilon = Fraction(n - instance.threshold, n)
    return domain, imputation, epsilon


def min_vertex_cover(instance: VertexCoverInstance, *, cap: int = ORACLE_CAP) -> int:
    """Exhaustive minimum vertex-cover size, smallest subsets first."""
    n = instance.vertex_count
    if n > cap:
        raise CapExceededError(
            f"{n} vertices exceeds the brute-force cap of {cap}", cap)
    if not instance.edges:
        return 0
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in instance.edges):
                return size
    return n


def setcover_to_dict(instance: SetCoverInstance) -> dict:
    return {"universe": instance.universe_size, "sets": [list(s) for s in instance.sets]}


def setcover_from_dict(data: dict) -> SetCoverInstance:
    try:
        return SetCoverInstance(_strict_int(data["universe"], "universe"),
                                tuple(tuple(_strict_int(t, "sets") for t in s)
                                      for s in data["sets"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed set-cover instance: {exc}") from exc


def vertexcover_to_dict(instance: VertexCoverInstance) -> dict:
    return {"vertices": instance.vertex_count,
            "edges": [[u, v] for u, v in instance.edges],
            "t": instance.threshold}


def vertexcover_from_dict(data: dict) -> VertexCoverInstance:
    try:
        return VertexCoverInstance(_strict_int(data["vertices"], "vertices"),
                                   tuple((_strict_int(u, "edges"), _strict_int(v, "edges"))
                                         for u, v in data["edges"]),
                                   _strict_int(data["t"], "t"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed vertex-cover instance: {exc}") from exc
