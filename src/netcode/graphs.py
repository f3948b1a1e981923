"""Undirected network instances and the graph algorithms used on them.

An instance is a finite undirected graph with exact rational edge
capacities, a vector of source nodes, a vector of terminal nodes, and a 0/1
demand matrix (rows are sources, columns terminals).  Instances are
immutable; every operation returns a new object.

Capacities are `fractions.Fraction` throughout.  No floats.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import (
    BadDemandMatrix,
    BadPath,
    BadSets,
    DuplicateEdge,
    EdgeExists,
    EdgeMissing,
    InteriorNodeCollision,
    MalformedDocument,
    NoEdges,
    NonPositiveCapacity,
    NonPositiveScale,
    NotConnected,
    UnknownVertex,
)
from .rational import format_rational, parse_rational

# The two travel directions of an edge stored as a -> b.
FWD = "fwd"
BWD = "bwd"


class Edge(NamedTuple):
    """Undirected edge, stored with a fixed orientation a -> b.

    The orientation only names the two travel directions; capacity is
    shared between them by the code's alphabet splits.
    """

    a: str
    b: str
    cap: Fraction


class _Record:
    """A slotted record whose read-only fields `_fields` are its __init__
    arguments in order (stored with object.__setattr__); it compares,
    hashes, prints, copies and pickles field by field, and
    `_replace(**changes)` returns a copy with some fields changed."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")
    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return type(self), self._key()

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._key())), **changes})

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self._key()))})"


class NetworkInstance(_Record):
    """Immutable network instance (graph, sources, terminals, demand)."""

    _fields = ("vertices", "edges", "sources", "terminals", "demand")
    __slots__ = _fields + ("_pair_index", "_demanded", "_alphabets")  # the fields, then derived tables

    def __init__(self, vertices: tuple[str, ...], edges: tuple[Edge, ...], sources: tuple[str, ...],
                 terminals: tuple[str, ...], demand: tuple[tuple[int, ...], ...]):
        pairs = {}
        for idx, e in enumerate(edges):
            pairs[(e.a, e.b)] = (idx, True)
            pairs[(e.b, e.a)] = (idx, False)
        demanded = tuple(tuple(i for i in range(len(sources)) if demand[i][j])
                         for j in range(len(terminals)))
        for name, value in zip(self.__slots__, (vertices, edges, sources, terminals, demand,
                                                pairs, demanded, {})):
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------- lookups

    def edge_between(self, x: str, y: str) -> Optional[tuple[int, bool]]:
        """(edge index, x is the 'a' endpoint) for the edge {x, y}, if any."""
        return self._pair_index.get((x, y))

    def slot(self, sender: str, receiver: str) -> tuple[int, str]:
        """(edge index, direction) of the slot sender -> receiver; LookupError if none."""
        found = self._pair_index.get((sender, receiver))
        if found is None:
            raise LookupError(f"no edge {sender!r}-{receiver!r}")
        idx, sender_is_a = found
        return idx, FWD if sender_is_a else BWD

    def has_edge(self, x: str, y: str) -> bool:
        return (x, y) in self._pair_index

    def neighbors(self, v: str) -> list[str]:
        return list(_wide_neighbors(self, 0, v))

    def sources_at(self, v: str) -> tuple[int, ...]:
        return tuple(i for i, s in enumerate(self.sources) if s == v)

    def demanded_at(self, j: int) -> tuple[int, ...]:
        """Source indices demanded by terminal j, ascending."""
        return self._demanded[j]

    def to_doc(self) -> dict:
        """Plain-JSON document form (capacities as canonical strings)."""
        return {
            "vertices": list(self.vertices),
            "edges": [
                {"a": e.a, "b": e.b, "cap": format_rational(e.cap)}
                for e in self.edges
            ],
            "sources": list(self.sources),
            "terminals": list(self.terminals),
            "demand": [list(row) for row in self.demand],
        }


def slot_tail(inst: NetworkInstance, edge_idx: int, direction: str) -> str:
    """The node that sends on edge `edge_idx` in `direction`."""
    e = inst.edges[edge_idx]
    return e.a if direction == FWD else e.b


def incoming_slots(inst: NetworkInstance, node: str) -> tuple[tuple[int, str, str], ...]:
    """Slots readable by a node: (edge index, direction, sending neighbor).

    Ordered by edge index with forward before backward; this order is the
    canonical one used when encoder tables are serialized.
    """
    out = []
    for idx, e in enumerate(inst.edges):
        if e.b == node:
            out.append((idx, FWD, e.a))
        if e.a == node:
            out.append((idx, BWD, e.b))
    return tuple(out)


def validate_instance(doc) -> NetworkInstance:
    """Check a parsed JSON document and build the instance.

    Raises MalformedDocument / UnknownVertex / NonPositiveCapacity /
    DuplicateEdge / BadSets / BadDemandMatrix with a message naming the
    offending element.
    """
    if not isinstance(doc, dict):
        raise MalformedDocument("instance document must be a JSON object")
    required = {"vertices", "edges", "sources", "terminals", "demand"}
    missing = required - set(doc)
    if missing:
        raise MalformedDocument(f"missing keys: {sorted(missing)}")
    extra = set(doc) - required
    if extra:
        raise MalformedDocument(f"unknown keys: {sorted(extra)}")

    vertices = doc["vertices"]
    if (
        not isinstance(vertices, list)
        or not vertices
        or not all(isinstance(v, str) and v for v in vertices)
    ):
        raise MalformedDocument("vertices must be a non-empty list of names")
    if len(set(vertices)) != len(vertices):
        raise MalformedDocument("duplicate vertex names")
    vset = set(vertices)

    if not isinstance(doc["edges"], list):
        raise MalformedDocument("edges must be a list")
    edges = []
    seen_pairs = set()
    for item in doc["edges"]:
        if not isinstance(item, dict) or set(item) != {"a", "b", "cap"}:
            raise MalformedDocument(f"bad edge entry: {item!r}")
        a, b = item["a"], item["b"]
        for v in (a, b):
            if not isinstance(v, str) or v not in vset:
                raise UnknownVertex(f"edge endpoint {v!r} not a vertex")
        if a == b:
            raise MalformedDocument(f"self-loop at {a!r}")
        key = frozenset((a, b))
        if key in seen_pairs:
            raise DuplicateEdge(f"parallel edge {a!r}-{b!r}")
        seen_pairs.add(key)
        cap = parse_rational(item["cap"])
        if cap <= 0:
            raise NonPositiveCapacity(f"edge {a!r}-{b!r} has cap {item['cap']!r}")
        edges.append(Edge(a, b, cap))

    for key in ("sources", "terminals"):
        nodes = doc[key]
        if not isinstance(nodes, list) or not nodes:
            raise BadSets(f"{key} must be a non-empty list")
        for v in nodes:
            if not isinstance(v, str) or v not in vset:
                raise UnknownVertex(f"{key} entry {v!r} not a vertex")
    sources = tuple(doc["sources"])
    terminals = tuple(doc["terminals"])

    demand = doc["demand"]
    if not isinstance(demand, list) or len(demand) != len(sources):
        raise BadDemandMatrix("demand must have one row per source")
    rows = []
    for row in demand:
        if not isinstance(row, list) or len(row) != len(terminals):
            raise BadDemandMatrix("demand row length must match terminals")
        if not all(isinstance(x, int) and not isinstance(x, bool) and x in (0, 1) for x in row):
            raise BadDemandMatrix("demand entries must be 0 or 1")
        rows.append(tuple(row))
    if not any(any(row) for row in rows):
        raise BadDemandMatrix("demand matrix has no 1 entries")

    return NetworkInstance(
        vertices=tuple(vertices),
        edges=tuple(edges),
        sources=sources,
        terminals=terminals,
        demand=tuple(rows),
    )


# ------------------------------------------------------------ edit operations

def _require_vertices(inst: NetworkInstance, *nodes: str) -> None:
    for v in nodes:
        if v not in inst.vertices:
            raise UnknownVertex(f"unknown vertex {v!r}")


def add_edge(inst: NetworkInstance, u: str, v: str, cap: Fraction) -> NetworkInstance:
    """New instance with the extra edge (u, v); rejects an existing pair."""
    _require_vertices(inst, u, v)
    if u == v:
        raise MalformedDocument(f"self-loop at {u!r}")
    if inst.has_edge(u, v):
        raise EdgeExists(f"edge {u!r}-{v!r} already present")
    cap = Fraction(cap)
    if cap <= 0:
        raise NonPositiveCapacity(f"cap {cap} for edge {u!r}-{v!r}")
    return inst._replace(edges=inst.edges + (Edge(u, v, cap),))


def drop_edge(inst: NetworkInstance, u: str, v: str) -> NetworkInstance:
    """New instance without the edge {u, v}."""
    found = inst.edge_between(u, v)
    if found is None:
        raise EdgeMissing(f"no edge {u!r}-{v!r}")
    idx = found[0]
    return inst._replace(edges=inst.edges[:idx] + inst.edges[idx + 1 :])


def scale_instance(inst: NetworkInstance, alpha: Fraction) -> NetworkInstance:
    """Multiply every capacity by alpha > 0."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise NonPositiveScale(f"scale factor {alpha}")
    return inst._replace(edges=tuple(Edge(e.a, e.b, e.cap * alpha) for e in inst.edges))


def replace_edge_with_path(
    inst: NetworkInstance,
    u: str,
    v: str,
    path_nodes: Sequence[str],
    fresh: bool,
) -> NetworkInstance:
    """Remove edge {u, v} and route its capacity along path_nodes.

    With fresh=True the interior nodes must be new identifiers; each
    consecutive pair becomes a new edge carrying the removed capacity.
    With fresh=False the path must already exist in the graph and each
    edge on it has the removed capacity added to its own.
    """
    found = inst.edge_between(u, v)
    if found is None:
        raise EdgeMissing(f"no edge {u!r}-{v!r}")
    lam = inst.edges[found[0]].cap

    path = tuple(path_nodes)
    if len(path) < 2:
        raise BadPath("path needs at least two nodes")
    if path[0] != u or path[-1] != v:
        raise BadPath(f"path must run from {u!r} to {v!r}")
    if len(set(path)) != len(path):
        raise BadPath("path nodes must be distinct")

    base = drop_edge(inst, u, v)
    interior = path[1:-1]

    if fresh:
        clash = [w for w in interior if w in inst.vertices]
        if clash:
            raise InteriorNodeCollision(f"interior nodes already exist: {clash}")
        fresh_edges = tuple(Edge(x, y, lam) for x, y in zip(path, path[1:]))
        return base._replace(vertices=base.vertices + interior, edges=base.edges + fresh_edges)

    for w in interior:
        if w not in inst.vertices:
            raise BadPath(f"interior node {w!r} not in the graph")
    edges = list(base.edges)
    for x, y in zip(path, path[1:]):
        hop = base.edge_between(x, y)
        if hop is None:
            raise BadPath(f"no existing edge {x!r}-{y!r} on the path")
        idx = hop[0]
        e = edges[idx]
        edges[idx] = Edge(e.a, e.b, e.cap + lam)
    return base._replace(edges=tuple(edges))


# ------------------------------------------------------------------ analysis

def connected_components(inst: NetworkInstance) -> tuple[tuple[str, ...], ...]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    seen: set[str] = set()
    comps = []
    for start in sorted(inst.vertices):
        if start not in seen:
            comps.append(tuple(sorted(_reachable(inst, Fraction(0), start))))
            seen.update(comps[-1])
    return tuple(comps)


class WidestPath(NamedTuple):
    nodes: tuple[str, ...]
    gamma: Fraction


def _wide_neighbors(inst: NetworkInstance, threshold: Fraction, x: str) -> Iterator[str]:
    """Neighbours of x over edges with cap >= threshold, in edge order."""
    for e in inst.edges:
        if e.cap >= threshold and x in (e.a, e.b):
            yield e.b if e.a == x else e.a


def _reachable(inst: NetworkInstance, threshold: Fraction, start: str) -> dict[str, int]:
    """BFS hop distances from start using only edges with cap >= threshold."""
    dist = {start: 0}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in _wide_neighbors(inst, threshold, x):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def widest_path(inst: NetworkInstance, u: str, v: str) -> WidestPath:
    """Maximum-bottleneck path from u to v.

    Ties are broken deterministically: largest bottleneck, then fewest
    edges, then lexicographically smallest vertex sequence.
    """
    _require_vertices(inst, u, v)
    if u == v:
        raise BadPath("endpoints must differ")

    gamma = None
    for cap in sorted({e.cap for e in inst.edges}, reverse=True):
        if v in _reachable(inst, cap, u):
            gamma = cap
            break
    if gamma is None:
        raise NotConnected(f"no path {u!r} -> {v!r}")

    # Min-hop, lexicographically smallest path within the gamma subgraph:
    # walk from u, always stepping to the smallest neighbor that still lies
    # on some shortest path to v.
    dist = _reachable(inst, gamma, v)
    path = [u]
    cur = u
    while cur != v:
        cur = min(y for y in _wide_neighbors(inst, gamma, cur) if dist.get(y, -1) == dist[cur] - 1)
        path.append(cur)
    return WidestPath(tuple(path), gamma)


def cut_bound(inst: NetworkInstance, group_a: Sequence[str], group_b: Sequence[str]) -> Fraction:
    """Minimum capacity separating group_a from group_b.

    Computed as an exact max-flow where every undirected edge contributes
    one directed arc of full capacity in each direction.
    """
    a_set, b_set = set(group_a), set(group_b)
    if not a_set or not b_set:
        raise BadSets("both vertex groups must be non-empty")
    if a_set & b_set:
        raise BadSets("vertex groups overlap")
    for v in a_set | b_set:
        if v not in inst.vertices:
            raise UnknownVertex(f"unknown vertex {v!r}")

    index = {v: i for i, v in enumerate(inst.vertices)}
    n = len(inst.vertices)
    src, snk = n, n + 1
    inf = sum((e.cap for e in inst.edges), Fraction(0)) + 1

    # adjacency of arcs [to, remaining, index of reverse arc]
    adj: list[list[list]] = [[] for _ in range(n + 2)]

    def arc(x: int, y: int, cap: Fraction) -> None:
        adj[x].append([y, cap, len(adj[y])])
        adj[y].append([x, Fraction(0), len(adj[x]) - 1])

    for e in inst.edges:
        arc(index[e.a], index[e.b], e.cap)
        arc(index[e.b], index[e.a], e.cap)
    for v in sorted(a_set):
        arc(src, index[v], inf)
    for v in sorted(b_set):
        arc(index[v], snk, inf)

    flow = Fraction(0)
    while True:
        parent: dict[int, tuple[int, int]] = {src: (-1, -1)}
        queue = deque([src])
        while queue and snk not in parent:
            x = queue.popleft()
            for ai, a in enumerate(adj[x]):
                if a[1] > 0 and a[0] not in parent:
                    parent[a[0]] = (x, ai)
                    queue.append(a[0])
        if snk not in parent:
            return flow
        push = inf
        node = snk
        while node != src:
            x, ai = parent[node]
            push = min(push, adj[x][ai][1])
            node = x
        node = snk
        while node != src:
            x, ai = parent[node]
            adj[x][ai][1] -= push
            rev = adj[x][ai][2]
            adj[adj[x][ai][0]][rev][1] += push
            node = x
        flow += push


def removal_constant(inst: NetworkInstance) -> tuple[Fraction, Fraction, Fraction]:
    """(W, w, c): total capacity, smallest capacity, and c = 2W/w."""
    if not inst.edges:
        raise NoEdges("instance has no edges")
    total = sum((e.cap for e in inst.edges), Fraction(0))
    smallest = min(e.cap for e in inst.edges)
    return total, smallest, 2 * total / smallest
