"""Exhaustive zero-error rate search at micro scale.

For a fixed inner blocklength n and round count N, this enumerates every
deterministic code table over every message-size tuple (powers of two
only, so the resulting rates log2|W_i|/(Nn) are rational) and returns the
Pareto-maximal achievable rate points.

The search is exact but exponential, so it is a branch and bound: a
branch stops at the first slot after which some terminal can no longer
receive enough to tell its demanded messages apart, and each source is
searched up to the largest size the cuts allow.  Defaults cap it at 3
edges, binary edge alphabets and N <= 2.  A search that a limit cuts
short raises EnumerationTooLarge naming the limit, rather than running
forever or answering wrong.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Optional

from .errors import EnumerationTooLarge, MalformedDocument, sized
from .graphs import BWD, FWD, NetworkInstance, _Record, incoming_slots, slot_tail
from .rational import MAX_ROUNDS, alphabet_size, check_count


class RegionLimits(_Record):
    """Bounds on a region search.  `max_message_size`, when set, caps every
    message size below its cut ceiling; `max_ops` bounds the size tuples
    tried plus the slot functions enumerated.  The fields are read-only."""

    __slots__ = _fields = ("max_edges", "max_alphabet", "max_outer", "max_message_size", "max_ops")

    def __init__(self, max_edges: int = 3, max_alphabet: int = 2, max_outer: int = 2,
                 max_message_size: Optional[int] = None, max_ops: int = 2_000_000):
        for name, value in zip(self.__slots__, (max_edges, max_alphabet, max_outer,
                                                max_message_size, max_ops)):
            optional = value is None and name == "max_message_size"
            if not optional and (isinstance(value, bool) or not isinstance(value, int) or value < 1):
                raise MalformedDocument(f"region limit {name} must be an integer >= 1, got {value!r}")
            object.__setattr__(self, name, value)


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
    __slots__ = ("ops", "left")

    def __init__(self, ops: int):
        self.ops = self.left = ops

    def spend(self, amount: int = 1) -> None:
        self.left -= amount
        if self.left < 0:
            raise EnumerationTooLarge(f"region search used all of max_ops={self.ops}")


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
    own = {
        v: [tuple(msgs[i] for i in inst.sources_at(v)) for msgs in tuples]
        for v in inst.vertices
    }
    incoming = {v: incoming_slots(inst, v) for v in inst.vertices}
    split_options = [
        [(f, b) for f in range(1, a + 1) for b in range(1, a + 1) if f * b <= a]
        for a in alphabets
    ]
    # Edges are staged round by round; checks[step] lists (terminal, its
    # demanded values per tuple, how many symbol sequences its incoming
    # slots from `step` on can carry, capped at count + 1) for the
    # terminals whose view the slot before `step` may have refined.
    slots = [(t, pos) for t in range(1, outer_n + 1) for pos in range(len(inst.edges))]
    checks: list[list] = [[] for _ in range(len(slots) + 1)]
    for j, node in enumerate(inst.terminals):
        if not inst.demanded_at(j):
            continue
        into = {e for e, _, _ in incoming[node]}
        wanted = [tuple(msgs[i] for i in inst.demanded_at(j)) for msgs in tuples]
        room = 1
        for step in reversed(range(1, len(slots) + 1)):
            if slots[step - 1][1] in into:
                checks[step].append((node, wanted, room))
                room = min(count + 1, room * alphabets[slots[step - 1][1]])
        checks[0].append((node, wanted, room))

    # hist holds per-tuple symbols for every committed slot of size > 1
    hist: dict[tuple[int, int, str], tuple[int, ...]] = {}
    heard = {v: {(e, d) for e, d, _ in incoming[v]} for v in inst.vertices}

    def views(node: str, horizon: int) -> list:
        """Per tuple: the node's own messages, then what it received."""
        keys = [key for key in hist if key[1] <= horizon and (key[0], key[2]) in heard[node]]
        return list(zip(own[node], *(hist[k] for k in keys)))

    def slot_functions(edge_idx: int, direction: str, size: int, t: int):
        """Candidate per-tuple symbol vectors for one slot, each charged."""
        if size == 1:
            budget.spend()
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

    def receivable(step: int) -> bool:
        """Cut-set bound mid-search: the tuples a terminal cannot tell apart
        so far can hold at most `room` demanded values; finally, one."""
        for node, wanted, room in checks[step]:
            groups = Counter(key for key, _ in set(zip(views(node, outer_n), wanted)))
            if max(groups.values()) > room:
                return False
        return True

    def choices(step: int):
        """What slot `step` can commit, in search order: its (key, symbols)
        of size > 1 per split and pair of slot functions."""
        t, pos = slots[step]
        for f, b in split_options[pos]:
            for fsyms in slot_functions(pos, FWD, f, t):
                for bsyms in slot_functions(pos, BWD, b, t):
                    yield [(key, syms) for key, syms in (((pos, t, FWD), fsyms), ((pos, t, BWD), bsyms))
                           if syms is not None]

    if count == 1:
        return True
    # depth-first over the slots: per committed slot, its choices and what
    # it staged in hist
    stack, ok = [], receivable(0)
    while True:
        if ok:
            if len(stack) == len(slots):
                return True
            stack.append([choices(len(stack)), ()])
        while stack:
            top = stack[-1]
            for key, _ in top[1]:
                del hist[key]
            top[1] = next(top[0], None)
            if top[1] is not None:
                hist.update(top[1])
                break
            stack.pop()
        else:
            return False
        ok = receivable(len(stack))


def _cut_prune(
    inst: NetworkInstance, alphabets: tuple[int, ...], outer_n: int
) -> list[tuple[set[int], int]]:
    """(sources demanded across X in either direction, crossing alphabet
    product) for every bipartition X that some demand crosses."""
    verts = inst.vertices
    k, r = len(inst.sources), len(inst.terminals)
    cuts = []
    for mask in range(1, 2 ** len(verts) - 1):
        x = {verts[i] for i in range(len(verts)) if mask >> i & 1}
        crossing = {
            i
            for i in range(k)
            for j in range(r)
            if inst.demand[i][j] and (inst.sources[i] in x) != (inst.terminals[j] in x)
        }
        prod = 1
        for e_idx, e in enumerate(inst.edges):
            if (e.a in x) != (e.b in x):
                prod *= alphabets[e_idx] ** outer_n
        if crossing:
            cuts.append((crossing, prod))
    return cuts


def _passes_cuts(cuts, sizes: tuple[int, ...]) -> bool:
    """Counting bound: messages demanded across a cut must fit, jointly in
    both directions, inside the crossing alphabet product."""
    return all(math.prod(sizes[i] for i in crossing) <= prod for crossing, prod in cuts)


def rate_region_micro(
    inst: NetworkInstance,
    n: int,
    outer_n: int,
    limits: Optional[RegionLimits] = None,
) -> frozenset[tuple[Fraction, ...]]:
    """Pareto-maximal zero-error rate points at blocklengths (n, N).

    Message space sizes range over powers of two, so every reported rate
    is exactly log2(size)/(N*n).  Source i is searched up to its cut
    ceiling, the largest power of two that passes the cut-capacity count
    while every other source has size 1, and below limits.max_message_size
    when that is set.  A size tuple is decided by exhaustive code search
    with three sound reductions: output symbols of each slot are
    canonicalized up to relabeling, size tuples violating a cut-capacity
    count are rejected without search, and a branch stops at a slot
    after which some terminal could no longer receive enough to decode.
    limits.max_ops counts every size tuple tried and every slot function
    enumerated, a size-1 direction's one included.  EnumerationTooLarge
    names the limit that stopped the search; the cap stops it when a
    feasible size tuple sits at the cap in a coordinate whose doubling
    still passes the cut count, or when no cut bounds a source and there
    is no cap.  An outer_n past MAX_ROUNDS raises
    it before anything is laid out, whatever limits.max_outer allows; the
    slot search is a loop, so no N within it exhausts the recursion limit.
    """
    limits = limits or RegionLimits()
    if len(inst.edges) > limits.max_edges:
        raise EnumerationTooLarge(
            f"{len(inst.edges)} edges exceed region limit {limits.max_edges}"
        )
    if outer_n > limits.max_outer:
        raise EnumerationTooLarge(f"N={outer_n} exceeds region limit {limits.max_outer}")
    # An alphabet floor(2^(cap*n)) past both 2^99 and the limit is never
    # built: it is named by its exponent, as errors.sized names it.
    built_below = max(limits.max_alphabet.bit_length(), 99)
    alphabets = tuple(alphabet_size(e.cap, n) if e.cap * n < built_below else None for e in inst.edges)
    for e, a in zip(inst.edges, alphabets):
        if a is None or a > limits.max_alphabet:
            whole, part = divmod(e.cap * n, 1)
            name = sized(a) if a is not None else f"{'over ' if part else ''}2^{whole}"
            raise EnumerationTooLarge(
                f"alphabet {name} on edge {e.a!r}-{e.b!r} exceeds limit {limits.max_alphabet}"
            )
    if len(inst.vertices) > 16:
        raise EnumerationTooLarge("more than 16 vertices")

    check_count(outer_n, MAX_ROUNDS, "round count")
    budget = _Budget(limits.max_ops)
    cuts = _cut_prune(inst, alphabets, outer_n)
    k = len(inst.sources)
    cap = limits.max_message_size

    def describe(i: int, ceiling) -> str:
        return f"source {i} at {inst.sources[i]!r} (cut ceiling {sized(ceiling) if ceiling else 'none'})"

    tops, ceilings = [], []
    for i in range(k):
        bounds = [prod for crossing, prod in cuts if i in crossing]
        ceiling = 1 << (min(bounds).bit_length() - 1) if bounds else None
        if ceiling is None and cap is None:
            raise EnumerationTooLarge(f"no cut bounds {describe(i, None)}; set max_message_size")
        ceilings.append(ceiling)
        top = min(c for c in (ceiling, cap) if c is not None)
        tops.append(1 << (top.bit_length() - 1))

    feasible: list[tuple[int, ...]] = []
    infeasible: list[tuple[int, ...]] = []

    # Ascending lexicographic order extends the componentwise order, so
    # every tuple below `sizes` has been decided before it.
    for exponents in itertools.product(*(range(top.bit_length()) for top in tops)):
        sizes = tuple(1 << b for b in exponents)
        budget.spend()
        if any(all(s >= g for s, g in zip(sizes, known)) for known in infeasible):
            infeasible.append(sizes)
            continue
        if not _passes_cuts(cuts, sizes):
            infeasible.append(sizes)
            continue
        if _search_codes(inst, alphabets, outer_n, sizes, budget):
            feasible.append(sizes)
        else:
            infeasible.append(sizes)

    for sizes in feasible:
        for i in range(k):
            doubled = sizes[:i] + (2 * sizes[i],) + sizes[i + 1:]
            if sizes[i] == tops[i] and _passes_cuts(cuts, doubled):
                raise EnumerationTooLarge(
                    f"max_message_size={cap} may hide larger sizes of "
                    f"{describe(i, ceilings[i])}"
                )

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
