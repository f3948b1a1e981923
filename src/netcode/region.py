"""Exhaustive zero-error rate search at micro scale.

For a fixed inner blocklength n and round count N, this enumerates every
deterministic code table over every message-size tuple (powers of two
only, so the resulting rates log2|W_i|/(Nn) are rational) and returns the
Pareto-maximal achievable rate points.

The search is exact but exponential: defaults cap it at 3 edges, binary
edge alphabets, N <= 2, and message spaces of at most 4.  Anything beyond
the configured limits raises EnumerationTooLarge rather than running
forever.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import EnumerationTooLarge, MalformedDocument
from .graphs import BWD, FWD, NetworkInstance, incoming_slots, slot_tail
from .rational import alphabet_size


@dataclass(frozen=True)
class RegionLimits:
    max_edges: int = 3
    max_alphabet: int = 2
    max_outer: int = 2
    max_message_size: int = 4
    max_ops: int = 2_000_000

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise MalformedDocument(
                    f"region limit {name} must be an integer >= 1, got {value!r}"
                )


def _rgs_exact(count: int, blocks: int):
    """Surjections [count] -> [blocks] up to relabeling of the range.

    Yields restricted-growth strings: value[0] == 0 and each later value
    is at most one above the running maximum.  Requiring the maximum to
    end at blocks-1 makes the function use every output symbol; smaller
    images are covered by smaller split sizes elsewhere in the search.
    """
    if blocks > count:
        return
    value = [0] * count

    def rec(pos: int, top: int):
        if pos == count:
            if top == blocks - 1:
                yield tuple(value)
            return
        # cannot reach `blocks` distinct values with what remains
        if top + (count - pos) < blocks - 1:
            return
        for v in range(min(top + 1, blocks - 1) + 1):
            value[pos] = v
            yield from rec(pos + 1, max(top, v))

    yield from rec(0, -1)


class _Budget:
    __slots__ = ("left",)

    def __init__(self, ops: int):
        self.left = ops

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise EnumerationTooLarge("code-table enumeration budget exhausted")


def _search_codes(
    inst: NetworkInstance,
    alphabets: tuple[int, ...],
    outer_n: int,
    sizes: tuple[int, ...],
    budget: _Budget,
) -> bool:
    """True iff some deterministic code is zero-error at these sizes."""
    tuples = list(itertools.product(*(range(s) for s in sizes)))
    count = len(tuples)
    own = {v: inst.sources_at(v) for v in inst.vertices}
    incoming = {v: incoming_slots(inst, v) for v in inst.vertices}
    split_options = [
        [(f, b) for f in range(1, a + 1) for b in range(1, a + 1) if f * b <= a]
        for a in alphabets
    ]
    demands = [
        (j, inst.terminals[j], inst.demanded_at(j))
        for j in range(len(inst.terminals))
        if inst.demanded_at(j)
    ]

    # hist holds per-tuple symbols for every committed slot of size > 1
    hist: dict[tuple[int, int, str], tuple[int, ...]] = {}

    def views(node: str, horizon: int) -> list:
        keys = [
            (e, t, d)
            for (e, d, _) in incoming[node]
            for t in range(1, horizon + 1)
            if (e, t, d) in hist
        ]
        out = []
        for idx, msgs in enumerate(tuples):
            out.append(
                (
                    tuple(msgs[i] for i in own[node]),
                    tuple(hist[k][idx] for k in keys),
                )
            )
        return out

    def slot_functions(edge_idx: int, direction: str, size: int, t: int):
        """Candidate per-tuple symbol vectors for one slot."""
        if size == 1:
            yield None
            return
        tail = slot_tail(inst, edge_idx, direction)
        seen: dict = {}
        ranks = []
        for key in views(tail, t - 1):
            ranks.append(seen.setdefault(key, len(seen)))
        for assignment in _rgs_exact(len(seen), size):
            budget.spend()
            yield tuple(assignment[r] for r in ranks)

    def decodable() -> bool:
        for _, node, demanded in demands:
            groups: dict = {}
            for idx, key in enumerate(views(node, outer_n)):
                wit = groups.get(key)
                if wit is None:
                    groups[key] = idx
                    continue
                for i in demanded:
                    if tuples[wit][i] != tuples[idx][i]:
                        return False
        return True

    def fill_round(t: int) -> bool:
        if t > outer_n:
            return decodable()

        def per_edge(pos: int, staged: list) -> bool:
            if pos == len(inst.edges):
                for key, syms in staged:
                    hist[key] = syms
                ok = fill_round(t + 1)
                for key, _ in staged:
                    del hist[key]
                return ok
            for f, b in split_options[pos]:
                for fsyms in slot_functions(pos, FWD, f, t):
                    staged_f = staged + (
                        [((pos, t, FWD), fsyms)] if fsyms is not None else []
                    )
                    for bsyms in slot_functions(pos, BWD, b, t):
                        staged_fb = staged_f + (
                            [((pos, t, BWD), bsyms)] if bsyms is not None else []
                        )
                        if per_edge(pos + 1, staged_fb):
                            return True
            return False

        return per_edge(0, [])

    if count == 1:
        return True
    return fill_round(1)


def _cut_prune(
    inst: NetworkInstance, alphabets: tuple[int, ...], outer_n: int
) -> list[tuple[set, int]]:
    """(vertex set X, crossing alphabet product) for every bipartition."""
    verts = inst.vertices
    cuts = []
    for mask in range(1, 2 ** len(verts) - 1):
        x = {verts[i] for i in range(len(verts)) if mask >> i & 1}
        prod = 1
        for e_idx, e in enumerate(inst.edges):
            if (e.a in x) != (e.b in x):
                prod *= alphabets[e_idx] ** outer_n
        cuts.append((x, prod))
    return cuts


def _passes_cuts(inst: NetworkInstance, cuts, sizes: tuple[int, ...]) -> bool:
    """Counting bound: messages demanded across a cut must fit, jointly in
    both directions, inside the crossing alphabet product."""
    k, r = len(inst.sources), len(inst.terminals)
    for x, prod in cuts:
        need = 1
        for inside in (True, False):
            crossing = {
                i
                for i in range(k)
                for j in range(r)
                if inst.demand[i][j]
                and (inst.sources[i] in x) == inside
                and (inst.terminals[j] in x) != inside
            }
            for i in crossing:
                need *= sizes[i]
        if need > prod:
            return False
    return True


def rate_region_micro(
    inst: NetworkInstance,
    n: int,
    outer_n: int,
    limits: Optional[RegionLimits] = None,
) -> frozenset[tuple[Fraction, ...]]:
    """Pareto-maximal zero-error rate points at blocklengths (n, N).

    Message space sizes range over powers of two up to the configured
    maximum, so every reported rate is exactly log2(size)/(N*n).
    Feasibility of a size tuple is decided by exhaustive code search with
    two sound reductions: output symbols of each slot are canonicalized
    up to relabeling, and size tuples violating a cut-capacity count are
    rejected without search.  limits.max_ops counts every size tuple tried
    and every slot function enumerated.
    """
    limits = limits or RegionLimits()
    if len(inst.edges) > limits.max_edges:
        raise EnumerationTooLarge(
            f"{len(inst.edges)} edges exceed region limit {limits.max_edges}"
        )
    if outer_n > limits.max_outer:
        raise EnumerationTooLarge(f"N={outer_n} exceeds region limit {limits.max_outer}")
    alphabets = tuple(alphabet_size(e.cap, n) for e in inst.edges)
    for e, a in zip(inst.edges, alphabets):
        if a > limits.max_alphabet:
            raise EnumerationTooLarge(
                f"alphabet {a} on edge {e.a!r}-{e.b!r} exceeds limit {limits.max_alphabet}"
            )
    if len(inst.vertices) > 16:
        raise EnumerationTooLarge("more than 16 vertices")

    size_options = [1 << b for b in range(limits.max_message_size.bit_length())]

    budget = _Budget(limits.max_ops)
    cuts = _cut_prune(inst, alphabets, outer_n)
    k = len(inst.sources)

    feasible: list[tuple[int, ...]] = []
    infeasible: list[tuple[int, ...]] = []

    # Ascending lexicographic order extends the componentwise order, so
    # every tuple below `sizes` has been decided before it.
    for sizes in itertools.product(size_options, repeat=k):
        budget.spend()
        if any(all(s >= g for s, g in zip(sizes, known)) for known in infeasible):
            infeasible.append(sizes)
            continue
        if not _passes_cuts(inst, cuts, sizes):
            infeasible.append(sizes)
            continue
        if _search_codes(inst, alphabets, outer_n, sizes, budget):
            feasible.append(sizes)
        else:
            infeasible.append(sizes)

    denom = n * outer_n
    points = {
        tuple(Fraction(s.bit_length() - 1, denom) for s in sizes)
        for sizes in feasible
    }
    maximal = frozenset(
        p
        for p in points
        if not any(
            q != p and all(qi >= pi for qi, pi in zip(q, p)) for q in points
        )
    )
    return maximal
