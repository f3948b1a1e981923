"""Network codes and their round-based execution semantics.

A code for an instance fixes an inner blocklength n, an outer blocklength N
(the number of communication rounds), one message space size per source,
a directional alphabet split per edge and round, and deterministic encoder
and decoder maps.

Execution is two-phase per round: every encoder for round t reads only
symbols committed at rounds <= t-1 (plus the sender's own messages), then
all round-t symbols are committed at once.  Both directions of an edge
share its capacity: at every round the two directional alphabet sizes
multiply to at most floor(2**(cap*n)).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

from .errors import (
    BadRate,
    BadRoute,
    CapacityOverflow,
    EnumerationTooLarge,
    MalformedDocument,
    SplitCapacityViolation,
    SymbolOutOfRange,
)
from .graphs import NetworkInstance
from .rational import alphabet_size, combine_digits, floor_pow2, split_digits

FWD = "fwd"
BWD = "bwd"
DIRECTIONS = (FWD, BWD)

SlotKey = tuple[int, int, str]  # (edge index, round, direction)


def edge_alphabets(inst: NetworkInstance, n: int) -> tuple[int, ...]:
    """floor(2**(cap*n)) for every edge, in edge order."""
    return tuple(alphabet_size(e.cap, n) for e in inst.edges)


def slot_tail(inst: NetworkInstance, edge_idx: int, direction: str) -> str:
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


class AlphabetSplit:
    """Per-(edge, round) directional alphabet sizes.

    Entries not present default to (1, 1), i.e. the edge carries nothing
    in either direction at that round.
    """

    def __init__(self, sizes: Mapping[tuple[int, int], tuple[int, int]] | None = None):
        table = {}
        for key, pair in (sizes or {}).items():
            edge_idx, t = key
            f, b = int(pair[0]), int(pair[1])
            if f < 1 or b < 1:
                raise SplitCapacityViolation(
                    f"split sizes must be >= 1 at edge {edge_idx}, t={t}"
                )
            if (f, b) != (1, 1):
                table[(int(edge_idx), int(t))] = (f, b)
        self._table = table

    def shape(self, edge_idx: int, t: int) -> tuple[int, int]:
        return self._table.get((edge_idx, t), (1, 1))

    def size(self, edge_idx: int, t: int, direction: str) -> int:
        f, b = self.shape(edge_idx, t)
        return f if direction == FWD else b

    def items(self):
        return sorted(self._table.items())

    def validate(self, inst: NetworkInstance, n: int, outer_n: int) -> None:
        alphabets = edge_alphabets(inst, n)
        for (edge_idx, t), (f, b) in self._table.items():
            if not 0 <= edge_idx < len(inst.edges):
                raise SplitCapacityViolation(f"split for unknown edge {edge_idx}")
            if not 1 <= t <= outer_n:
                raise SplitCapacityViolation(f"split for round {t} outside 1..{outer_n}")
            if f * b > alphabets[edge_idx]:
                e = inst.edges[edge_idx]
                raise SplitCapacityViolation(
                    f"{f}*{b} exceeds alphabet {alphabets[edge_idx]} "
                    f"on edge {e.a!r}-{e.b!r} at t={t}"
                )

    def __eq__(self, other):
        return isinstance(other, AlphabetSplit) and self._table == other._table

    def __repr__(self):
        return f"AlphabetSplit({self._table!r})"


class StateView:
    """What one node has seen up to (and including) round `time`.

    Encoders and decoders receive exactly this view: the node's own source
    messages (`message(i)`, KeyError for a message the node does not hold)
    and the symbols that arrived on its incident edges (`recv`).  Reads
    beyond `time` raise LookupError, which makes causality violations loud.

    `execute` builds the view of the real execution; code transforms build
    views that reinterpret the host execution (a session digit, a remapped
    timestep, a replayed neighbor) and run the old encoders against them.
    """

    __slots__ = ("node", "time", "_message_fn", "_recv_fn")

    def __init__(self, node: str, time: int, message_fn: Callable, recv_fn: Callable):
        self.node = node
        self.time = time
        self._message_fn = message_fn
        self._recv_fn = recv_fn

    def message(self, i: int) -> int:
        return self._message_fn(i)

    def recv(self, sender: str, t: int) -> int:
        if not 1 <= t <= self.time:
            raise LookupError(
                f"symbol from {sender!r} at t={t} not visible at time {self.time}"
            )
        return self._recv_fn(sender, t)


@dataclass(frozen=True)
class NetworkCode:
    """A deterministic network code (see module docstring)."""

    inner_n: int
    outer_n: int
    message_sizes: tuple[int, ...]
    splits: AlphabetSplit
    encoders: Mapping[SlotKey, Callable]
    decoders: Mapping[int, Callable]
    structure: object = None  # transform-specific metadata (e.g. interleave tag)

    def __post_init__(self):
        if self.inner_n < 1 or self.outer_n < 1:
            raise MalformedDocument("blocklengths must be >= 1")
        if any(s < 1 for s in self.message_sizes):
            raise MalformedDocument("message sizes must be >= 1")


@dataclass(frozen=True)
class ExecutionTrace:
    """Committed symbols of one execution: [edge][round-1] per direction."""

    inst: NetworkInstance
    messages: tuple[int, ...]
    fwd: tuple[tuple[int, ...], ...]
    bwd: tuple[tuple[int, ...], ...]

    def symbol(self, edge_idx: int, t: int, direction: str) -> int:
        row = self.fwd if direction == FWD else self.bwd
        return row[edge_idx][t - 1]

    def sent(self, x: str, y: str, t: int) -> int:
        """Symbol traveling from x to y at round t."""
        found = self.inst.edge_between(x, y)
        if found is None:
            raise LookupError(f"no edge {x!r}-{y!r}")
        idx, x_is_a = found
        return self.symbol(idx, t, FWD if x_is_a else BWD)


def _node_readers(
    inst: NetworkInstance,
    node: str,
    messages: Sequence[int],
    fwd: Sequence[Sequence[int]],
    bwd: Sequence[Sequence[int]],
) -> tuple[Callable, Callable]:
    """The message and recv functions of a node's StateView.

    They read `fwd`/`bwd` as the execution fills them in, so one pair
    serves the node at every round.
    """
    own = {i: messages[i] for i in inst.sources_at(node)}

    def message(i: int) -> int:
        if i not in own:
            raise KeyError(f"node {node!r} holds no message {i}")
        return own[i]

    def lookup(sender: str, t: int) -> int:
        found = inst.edge_between(sender, node)
        if found is None:
            raise LookupError(f"no edge {sender!r}-{node!r}")
        idx, sender_is_a = found
        return fwd[idx][t - 1] if sender_is_a else bwd[idx][t - 1]

    return message, lookup


def execute(code: NetworkCode, inst: NetworkInstance, messages: Sequence[int]) -> ExecutionTrace:
    """Run the code on one message tuple and return the full trace."""
    k = len(inst.sources)
    if len(messages) != k:
        raise SymbolOutOfRange(f"expected {k} messages, got {len(messages)}")
    if len(code.message_sizes) != k:
        raise MalformedDocument("code message_sizes do not match instance sources")
    for i, (m, size) in enumerate(zip(messages, code.message_sizes)):
        if not 0 <= m < size:
            raise SymbolOutOfRange(f"message {i} value {m} outside [0, {size})")
    code.splits.validate(inst, code.inner_n, code.outer_n)

    fwd = [[0] * code.outer_n for _ in inst.edges]
    bwd = [[0] * code.outer_n for _ in inst.edges]
    messages = tuple(messages)
    readers: dict[str, tuple[Callable, Callable]] = {}

    for t in range(1, code.outer_n + 1):
        pending = []
        for edge_idx in range(len(inst.edges)):
            for direction in DIRECTIONS:
                size = code.splits.size(edge_idx, t, direction)
                enc = code.encoders.get((edge_idx, t, direction))
                if enc is None:
                    if size != 1:
                        e = inst.edges[edge_idx]
                        raise MalformedDocument(
                            f"missing encoder for edge {e.a!r}-{e.b!r} t={t} {direction}"
                        )
                    pending.append((edge_idx, direction, 0))
                    continue
                tail = slot_tail(inst, edge_idx, direction)
                if tail not in readers:
                    readers[tail] = _node_readers(inst, tail, messages, fwd, bwd)
                out = enc(StateView(tail, t - 1, *readers[tail]))
                if not isinstance(out, int) or not 0 <= out < size:
                    e = inst.edges[edge_idx]
                    raise SymbolOutOfRange(
                        f"encoder on {e.a!r}-{e.b!r} t={t} {direction} "
                        f"produced {out!r}, alphabet size {size}"
                    )
                pending.append((edge_idx, direction, out))
        # commit phase: round t becomes visible only after every encoder ran
        for edge_idx, direction, out in pending:
            (fwd if direction == FWD else bwd)[edge_idx][t - 1] = out

    return ExecutionTrace(
        inst=inst,
        messages=messages,
        fwd=tuple(tuple(row) for row in fwd),
        bwd=tuple(tuple(row) for row in bwd),
    )


def decode_outputs(
    code: NetworkCode, inst: NetworkInstance, trace: ExecutionTrace
) -> dict[int, tuple[int, ...]]:
    """Decoded message tuples per terminal index, in demanded-source order."""
    out: dict[int, tuple[int, ...]] = {}
    for j, node in enumerate(inst.terminals):
        demanded = inst.demanded_at(j)
        dec = code.decoders.get(j)
        if dec is None:
            if demanded:
                raise MalformedDocument(f"missing decoder for terminal {j} ({node!r})")
            out[j] = ()
            continue
        readers = _node_readers(inst, node, trace.messages, trace.fwd, trace.bwd)
        got = tuple(dec(StateView(node, code.outer_n, *readers)))
        if len(got) != len(demanded):
            raise SymbolOutOfRange(
                f"decoder {j} returned {len(got)} values, expected {len(demanded)}"
            )
        for i, value in zip(demanded, got):
            if not 0 <= value < code.message_sizes[i]:
                raise SymbolOutOfRange(
                    f"decoder {j} output {value!r} outside message space {i}"
                )
        out[j] = got
    return out


def demands_met(inst: NetworkInstance, messages: Sequence[int], decoded) -> bool:
    for j in range(len(inst.terminals)):
        for i, value in zip(inst.demanded_at(j), decoded[j]):
            if value != messages[i]:
                return False
    return True


# ------------------------------------------------------------- feasibility

def message_size_for_rate(rate: Fraction, n: int, outer_n: int) -> int:
    """floor(2**(rate*N*n)): the message space size demanded by a rate."""
    rate = Fraction(rate)
    if rate < 0:
        raise BadRate(f"negative rate {rate}")
    return floor_pow2(rate * n * outer_n)


def _binom_tail_ge(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p).  Float helper for the interval."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    # iterate terms of P(X = i) from i = 0, accumulate the complement
    q = 1.0 - p
    term = q ** n
    below = 0.0
    for i in range(k):
        below += term
        term *= (n - i) / (i + 1) * (p / q)
    return max(0.0, 1.0 - below)


def clopper_pearson(failures: int, trials: int, tail: Fraction = Fraction(1, 40)) -> tuple[Fraction, Fraction]:
    """Exact-coverage 95% interval for a binomial proportion.

    The bisection runs in floats; endpoints are then rounded outward to
    rationals with denominator 10**6, so the reported interval is a
    (slightly wider) valid interval and the report stays float-free.
    """
    if not 0 <= failures <= trials or trials < 1:
        raise ValueError("need 0 <= failures <= trials, trials >= 1")
    level = float(tail)

    if failures == 0:
        low = 0.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if _binom_tail_ge(failures, trials, mid) < level:
                lo = mid
            else:
                hi = mid
        low = lo
    if failures == trials:
        high = 1.0
    else:
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            if 1.0 - _binom_tail_ge(failures + 1, trials, mid) < level:
                hi = mid
            else:
                lo = mid
        high = hi

    denom = 10 ** 6
    lower = Fraction(max(0, int(low * denom) - 1), denom)
    upper = Fraction(min(denom, int(high * denom) + 2), denom)
    return lower, min(upper, Fraction(1))


@dataclass(frozen=True)
class FeasibilityReport:
    epsilon: Fraction
    rates: Optional[tuple[Fraction, ...]]
    inner_n: int
    outer_n: int
    message_sizes: tuple[int, ...]
    mode: str  # "exhaustive" | "sampled"
    trials: int
    failures: int
    measured_error: Fraction
    passed: bool
    certified: bool
    failing: tuple[tuple[int, ...], ...]
    interval: Optional[tuple[Fraction, Fraction]] = None


def check_feasibility(
    code: NetworkCode,
    inst: NetworkInstance,
    rates: Optional[Sequence[Fraction]] = None,
    epsilon: Fraction = Fraction(0),
    mode: str = "exhaustive",
    trials: int = 1000,
    seed: int = 0,
    limit: int = 2 ** 20,
    keep_failures: int = 32,
) -> FeasibilityReport:
    """Measure the code's error probability under uniform messages.

    Exhaustive mode enumerates the whole product message space (error is
    exact; this is the only mode that certifies zero error).  Sampled mode
    draws seeded uniform tuples and reports a Clopper-Pearson interval
    alongside the point estimate.

    When `rates` is given, source i is checked over the first
    floor(2**(R_i*N*n)) messages; the code must have at least that many.
    """
    epsilon = Fraction(epsilon)
    if rates is not None:
        rates = tuple(Fraction(r) for r in rates)
        if len(rates) != len(inst.sources):
            raise BadRate(f"expected {len(inst.sources)} rates")
        spaces = tuple(
            message_size_for_rate(r, code.inner_n, code.outer_n) for r in rates
        )
        for i, (need, have) in enumerate(zip(spaces, code.message_sizes)):
            if need > have:
                raise BadRate(
                    f"rate {rates[i]} needs {need} messages at source {i}, "
                    f"code carries {have}"
                )
    else:
        spaces = code.message_sizes

    def run_one(tup):
        trace = execute(code, inst, tup)
        return demands_met(inst, tup, decode_outputs(code, inst, trace))

    failing: list[tuple[int, ...]] = []
    if mode == "exhaustive":
        total = 1
        for s in spaces:
            total *= s
        if total > limit:
            raise EnumerationTooLarge(f"{total} message tuples exceed limit {limit}")
        failures = 0
        for tup in itertools.product(*(range(s) for s in spaces)):
            if not run_one(tup):
                failures += 1
                if len(failing) < keep_failures:
                    failing.append(tup)
        measured = Fraction(failures, total)
        return FeasibilityReport(
            epsilon=epsilon,
            rates=rates,
            inner_n=code.inner_n,
            outer_n=code.outer_n,
            message_sizes=tuple(code.message_sizes),
            mode=mode,
            trials=total,
            failures=failures,
            measured_error=measured,
            passed=measured <= epsilon,
            certified=True,
            failing=tuple(failing),
        )

    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
    if trials < 1:
        raise ValueError("sampled mode needs trials >= 1")
    rng = random.Random(seed)
    failures = 0
    for _ in range(trials):
        tup = tuple(rng.randrange(s) for s in spaces)
        if not run_one(tup):
            failures += 1
            if len(failing) < keep_failures:
                failing.append(tup)
    estimate = Fraction(failures, trials)
    return FeasibilityReport(
        epsilon=epsilon,
        rates=rates,
        inner_n=code.inner_n,
        outer_n=code.outer_n,
        message_sizes=tuple(code.message_sizes),
        mode=mode,
        trials=trials,
        failures=failures,
        measured_error=estimate,
        passed=estimate <= epsilon,
        certified=False,
        failing=tuple(failing),
        interval=clopper_pearson(failures, trials),
    )


# ------------------------------------------------------------ routing codes

@dataclass(frozen=True)
class Route:
    """One store-and-forward delivery: a path plus one round per hop."""

    source: int
    terminal: int
    nodes: tuple[str, ...]
    rounds: tuple[int, ...]


def make_routing_code(
    inst: NetworkInstance,
    routes: Sequence[Route],
    n: int,
    outer_n: int,
    message_sizes: Sequence[int],
) -> NetworkCode:
    """Store-and-forward code: each route carries its source's whole message.

    Several routes may share an (edge, round, direction) slot; the slot then
    carries the mixed-radix combination of their values, and the split sizes
    are the products of the carried message space sizes.  Overfull slots
    raise CapacityOverflow.
    """
    k, r = len(inst.sources), len(inst.terminals)
    sizes = tuple(int(s) for s in message_sizes)
    if len(sizes) != k or any(s < 1 for s in sizes):
        raise BadRoute("need one message size >= 1 per source")

    for route in routes:
        if not 0 <= route.source < k or not 0 <= route.terminal < r:
            raise BadRoute(f"route references unknown source/terminal: {route}")
        if route.nodes[0] != inst.sources[route.source]:
            raise BadRoute(f"route must start at its source node: {route}")
        if route.nodes[-1] != inst.terminals[route.terminal]:
            raise BadRoute(f"route must end at its terminal node: {route}")
        if len(route.rounds) != len(route.nodes) - 1:
            raise BadRoute(f"route needs one round per hop: {route}")
        if any(t2 <= t1 for t1, t2 in zip(route.rounds, route.rounds[1:])):
            raise BadRoute(f"route rounds must be strictly increasing: {route}")
        if any(not 1 <= t <= outer_n for t in route.rounds):
            raise BadRoute(f"route rounds outside 1..{outer_n}: {route}")
        for x, y in zip(route.nodes, route.nodes[1:]):
            if inst.edge_between(x, y) is None:
                raise BadRoute(f"no edge {x!r}-{y!r} on route {route}")

    # slot -> ordered (route index, hop) entries sharing it
    slots: dict[SlotKey, list[tuple[int, int]]] = {}
    for ridx, route in enumerate(routes):
        for hop, (x, y) in enumerate(zip(route.nodes, route.nodes[1:])):
            idx, x_is_a = inst.edge_between(x, y)
            key = (idx, route.rounds[hop], FWD if x_is_a else BWD)
            slots.setdefault(key, []).append((ridx, hop))

    def slot_radices(key: SlotKey) -> tuple[int, ...]:
        return tuple(sizes[routes[ridx].source] for ridx, _ in slots[key])

    split_table: dict[tuple[int, int], tuple[int, int]] = {}
    for (edge_idx, t, direction), _ in slots.items():
        f, b = split_table.get((edge_idx, t), (1, 1))
        load = 1
        for radix in slot_radices((edge_idx, t, direction)):
            load *= radix
        if direction == FWD:
            f = load
        else:
            b = load
        split_table[(edge_idx, t)] = (f, b)
    alphabets = edge_alphabets(inst, n)
    for (edge_idx, t), (f, b) in split_table.items():
        if f * b > alphabets[edge_idx]:
            e = inst.edges[edge_idx]
            raise CapacityOverflow(
                f"routed load {f}*{b} exceeds alphabet {alphabets[edge_idx]} "
                f"on edge {e.a!r}-{e.b!r} at t={t}"
            )

    def carried_value(state: StateView, ridx: int, hop: int) -> int:
        route = routes[ridx]
        if hop == 0:
            return state.message(route.source)
        x, y = route.nodes[hop - 1], route.nodes[hop]
        prev_t = route.rounds[hop - 1]
        idx, x_is_a = inst.edge_between(x, y)
        prev_key = (idx, prev_t, FWD if x_is_a else BWD)
        symbol = state.recv(x, prev_t)
        digits = split_digits(symbol, slot_radices(prev_key))
        return digits[slots[prev_key].index((ridx, hop - 1))]

    def make_encoder(key: SlotKey):
        entries = slots[key]
        radices = slot_radices(key)

        def encoder(state: StateView) -> int:
            values = [carried_value(state, ridx, hop) for ridx, hop in entries]
            return combine_digits(values, radices)

        return encoder

    encoders = {key: make_encoder(key) for key in slots}

    route_for: dict[tuple[int, int], int] = {}
    for ridx, route in enumerate(routes):
        route_for.setdefault((route.source, route.terminal), ridx)

    def make_decoder(j: int):
        demanded = inst.demanded_at(j)

        def decoder(state: StateView) -> tuple[int, ...]:
            out = []
            for i in demanded:
                ridx = route_for.get((i, j))
                if ridx is None:
                    out.append(state.message(i) if inst.sources[i] == state.node else 0)
                    continue
                route = routes[ridx]
                if len(route.nodes) == 1:
                    out.append(state.message(i))
                    continue
                out.append(carried_value(state, ridx, len(route.nodes) - 1))
            return tuple(out)

        return decoder

    decoders = {j: make_decoder(j) for j in range(r) if inst.demanded_at(j)}

    return NetworkCode(
        inner_n=n,
        outer_n=outer_n,
        message_sizes=sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders=decoders,
    )
