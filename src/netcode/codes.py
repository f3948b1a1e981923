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

An Engine runs a code on many message tuples and caches every encoder and
decoder by the values it read; it also fills serialize's tables, so every
consumer of a code reads execution state through its one guarded view.
The contract this relies on: an encoder or decoder is a deterministic
function of what it reads through its StateView (its messages and
received symbols, plus the view's node and time).  A map with hidden
state or randomness falls outside the contract.  A check, exhaustive or
sampled, first runs each map on only the messages it reads (see
check_feasibility), and a message packed from sessions (Joined) on only
the digits it reads.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Container, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    BadRate,
    EnumerationTooLarge,
    MalformedDocument,
    SplitCapacityViolation,
    SymbolOutOfRange,
    sized,
)
from .graphs import BWD, FWD, NetworkInstance, _Record, slot_tail
from .rational import MAX_ROUNDS, alphabet_size, check_count, combine_digits, floor_pow2, split_digits

DIRECTIONS = (FWD, BWD)

SlotKey = tuple[int, int, str]  # (edge index, round, direction)


def edge_alphabets(inst: NetworkInstance, n: int) -> tuple[int, ...]:
    """floor(2**(cap*n)) for every edge, in edge order; kept on `inst` by n,
    each distinct capacity computed once."""
    if n not in inst._alphabets:
        sizes = {cap: alphabet_size(cap, n) for cap in {e.cap for e in inst.edges}}
        inst._alphabets[n] = tuple(sizes[e.cap] for e in inst.edges)
    return inst._alphabets[n]


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
    messages (`message(i)`, KeyError for a message the node does not hold;
    `digit(i, j, radices)` for one mixed-radix digit of one) and the
    symbols that arrived on its incident edges (`recv`).  Reads beyond
    `time` raise LookupError, which makes causality violations loud.

    A view is a slotted subclass that sets `node` and `time` and defines
    `message` and `recv` (guarded by `_visible`): the Engine's view reads
    the execution, a transform's reinterprets a host view for old maps.
    """

    __slots__ = ("node", "time")

    def digit(self, i: int, j: int, radices: tuple[int, ...]) -> int:
        """split_digits(message(i), radices)[j]; a view that holds messages
        by digit reads one directly."""
        return split_digits(self.message(i), radices)[j]

    def _visible(self, sender: str, t: int) -> None:
        if not 1 <= t <= self.time:
            raise LookupError(f"symbol from {sender!r} at t={t} not visible at time {self.time}")


def pack(values: Sequence[int], radices: Sequence[int], name: Callable[[int], str]) -> int:
    """combine_digits; SymbolOutOfRange naming name(k) for a bad value k."""
    for k, (value, radix) in enumerate(zip(values, radices)):
        if not 0 <= value < radix:
            raise SymbolOutOfRange(f"{name(k)} produced {value!r}, alphabet size {radix}")
    return combine_digits(values, radices)


class Joined:
    """A decoder that runs `base` on the `count` session views of its state
    (`sessions(state)` maps j to session j's view) and packs the outputs
    for demanded source pos as digits of `radices[pos]`, session 0 first.
    An exhaustive check walks each session on its own."""

    __slots__ = ("base", "sessions", "count", "radices")

    def __init__(self, base: Callable, sessions: Callable, count: int, radices: tuple):
        self.base, self.sessions, self.count, self.radices = base, sessions, count, radices

    def __call__(self, state):
        view = self.sessions(state)
        outputs = [self.base(view(j)) for j in range(self.count)]
        return tuple(pack([out[pos] for out in outputs], radices, "session {} decoder".format)
                     for pos, radices in enumerate(self.radices))

    def part(self, j: int) -> Callable:
        """The base decoder on session j alone."""
        return lambda state: self.base(self.sessions(state)(j))


class NetworkCode(_Record):
    """A deterministic network code (see module docstring); `structure` is
    transform-specific metadata (e.g. interleave tag).  The fields are
    read-only; vary a code with `code._replace(**changes)`."""

    __slots__ = _fields = ("inner_n", "outer_n", "message_sizes", "splits", "encoders", "decoders",
                           "structure")
    # The fields as CPython 3.11's dataclasses.replace reads them, for the
    # perfbench's Tracer.counted; goes once it calls _replace (ROADMAP item 2).
    __dataclass_fields__ = {name: SimpleNamespace(name=name, init=True, _field_type=None)
                            for name in _fields}

    def __init__(self, inner_n: int, outer_n: int, message_sizes: tuple[int, ...],
                 splits: AlphabetSplit, encoders: Mapping[SlotKey, Callable],
                 decoders: Mapping[int, Callable], structure: object = None):
        if inner_n < 1 or outer_n < 1:
            raise MalformedDocument("blocklengths must be >= 1")
        check_count(outer_n, MAX_ROUNDS, "round count")
        if any(s < 1 for s in message_sizes):
            raise MalformedDocument("message sizes must be >= 1")
        for name, value in zip(self._fields, (inner_n, outer_n, message_sizes, splits, encoders,
                                              decoders, structure)):
            object.__setattr__(self, name, value)


class ExecutionTrace(NamedTuple):
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
        idx, direction = self.inst.slot(x, y)
        return self.symbol(idx, t, direction)


class _Unset(Exception):
    """Read of a state position (args[0]) that a sliced walk has not set."""


class _Recording(StateView):
    """The guarded view of one memo's map runs (Engine._memo): a run points
    `state` and `reads` at its own; each read it answers is recorded in
    `reads`, and an unset one raises _Unset, the run's first kept in `unset`.
    `digits` lays messages out as Engine._digits does; those are read by digit."""

    __slots__ = ("state", "reads", "own", "inbound", "digits", "unset")

    def __init__(self, node, time, state, reads, own, inbound, digits):
        self.node, self.time, self.state, self.reads = node, time, state, reads
        self.own, self.inbound, self.digits, self.unset = own, inbound, digits, None

    def _read(self, pos: int) -> int:
        value = self.state[pos]
        self.reads.append((pos, value))
        if value < 0:
            if self.unset is None:
                self.unset = pos
            raise _Unset(pos)
        return value

    def message(self, i: int) -> int:
        if i not in self.own:
            raise KeyError(f"node {self.node!r} holds no message {i}")
        if i not in self.digits:
            return self._read(i)
        at, radices = self.digits[i]
        return combine_digits([self._read(at + s) for s in range(len(radices))], radices)

    def digit(self, i: int, j: int, radices: tuple[int, ...]) -> int:
        laid = self.digits.get(i)
        if laid is None or laid[1] != radices or i not in self.own:
            return split_digits(self.message(i), radices)[j]
        return self._read(laid[0] + j)

    def recv(self, sender: str, t: int) -> int:
        if not 1 <= t <= self.time:
            raise LookupError(f"symbol from {sender!r} at t={t} not visible at time {self.time}")
        row = self.inbound.get(sender)
        if row is None:
            raise LookupError(f"no edge {sender!r}-{self.node!r}")
        return self._read(row[t - 1])


class _Renamed(StateView):
    """A part's view of a run (`view`): its message q is the run's message
    names[q], read whole, and its symbols are the run's."""

    __slots__ = ("view", "names")

    def __init__(self, view, names):
        self.node, self.time = view.node, view.time
        self.view, self.names = view, names

    def message(self, q):
        return self.view.message(self.names[q])

    def recv(self, sender, t):
        return self.view.recv(sender, t)


def _matched(fn, check, names, view) -> tuple:
    """A part's map `fn` on `view` renamed by `names`, checked: a sink's one output."""
    return (check(fn(_Renamed(view, names))),)


# Total trie nodes one Engine stores (about 100 bytes each on CPython 3.11);
# past it, a miss runs uncached.
TRIE_NODE_CAP = 1 << 17
# Failing tuples a FeasibilityReport lists: the first ones that ran.
KEEP_FAILURES = 32


def _symbol_check(e, t: int, direction: str, size: int) -> Callable:
    """Check of an encoder's fresh output: a symbol of its slot's alphabet."""
    def check(out):
        if not isinstance(out, int) or not 0 <= out < size:
            raise SymbolOutOfRange(
                f"encoder on {e.a!r}-{e.b!r} t={t} {direction} "
                f"produced {out!r}, alphabet size {size}"
            )
        return out

    return check


def _output_check(j: int, demanded: Sequence[int], sizes: Sequence[int]) -> Callable:
    """Check of a decoder's fresh output: one message per demanded source."""
    def check(out):
        got = tuple(out)
        if len(got) != len(demanded):
            raise SymbolOutOfRange(
                f"decoder {j} returned {len(got)} values, expected {len(demanded)}"
            )
        for i, value in zip(demanded, got):
            if not isinstance(value, int) or not 0 <= value < sizes[i]:
                raise SymbolOutOfRange(
                    f"decoder {j} output {value!r} outside message space {i}"
                )
        return got

    return check


def _covered(node, state: list[int], reach: Sequence[int], slots: Mapping[int, tuple]) -> bool:
    """Whether trie `node` holds an output for every completion of `state`:
    each value in range(reach) at an unset walked position, the set value
    elsewhere, and at an unset slot position (a key of `slots`) the output
    its own trie holds on the same completion, which is exact: that leaf is
    the checked output of a clean run that read the same values, so the
    contract makes it the symbol a run writes there.  A loop walks the tries: a
    branch on an unset slot waits (`waiting`, innermost first) while that
    slot's trie is walked, whose leaf is then set at the slot; a branch on
    an unset walked position is a choice, retried with each value after
    undoing what was set since.  A trie with no leaf for some completion
    makes it False.  Each position it sets is unset again when it returns."""
    trail, choices, waiting = [], [], None
    try:
        while True:
            while type(node) is list:
                pos, kids = node
                value = state[pos]
                if value < 0:
                    if not reach[pos]:
                        waiting, node = (node, waiting), slots[pos][4].get(None)
                        continue
                    choices.append((pos, kids, waiting, len(trail)))
                    trail.append(pos)
                    value = state[pos] = 0
                node = kids.get(value)
            if node is None:
                return False
            if waiting is not None:  # a slot's output: the branch that waits on it goes on
                branch, waiting = waiting
                state[branch[0]] = node
                trail.append(branch[0])
                node = branch
                continue
            while choices:  # this completion is covered: try the next one
                pos, kids, waiting, mark = choices[-1]
                while len(trail) > mark + 1:
                    state[trail.pop()] = -1
                value = state[pos] + 1
                if value < reach[pos]:
                    state[pos] = value
                    node = kids.get(value)
                    break
                choices.pop()
            else:
                return True
    finally:
        for pos in trail:
            state[pos] = -1


def _missing_decoder(j: int, node: str) -> Callable:
    """The map that stands in for the absent decoder of terminal j."""
    def decoder(view):
        raise MalformedDocument(f"missing decoder for terminal {j} ({node!r})")

    return decoder


class Engine:
    """Runs one code on one instance for any number of message tuples.

    Construction validates the splits and lists, in round order, the live
    slots (an encoder or a split size other than 1); one without an encoder
    raises there.  `box`, the space a check covers, gives each message
    (values, radix) digits, most significant first, the digit ranging over
    range(values).  A run is one flat state list over the positions a run
    writes: the messages, then one position per live slot in round order,
    then one per digit of each message the box splits (read whole as all
    its digits, and by `StateView.digit` as one), then one cell that holds
    0.  Each edge has a row of positions per direction (`_inbound`), by
    round: a live round's slot, else -1, the zero cell, so a read is one index
    whatever the round count, and `trace` expands a state to full rows.
    Round-t symbols are written as they are produced, which equals the
    two-phase commit because the causality guard keeps every round-t
    encoder from reading them.

    Every encoder and decoder is memoized in a trie keyed on the ordered
    values it read (see the module docstring for the contract this needs).
    A call replays the recorded reads against the state; on a miss it
    re-points the memo's one `_Recording` view at the state and runs the
    real map on it, so the guard checks every read a map makes, and a
    replayed read is one the guard passed at the same horizon.  A read
    that raises is not recorded: it raises in every state.
    A leaf is a checked output, as a raising run is never stored, so a slot
    whose trie covers every tuple a walk would try, reading each slot it
    reads from that slot's trie (`_covered`), needs no walk.  The tries
    hold at most TRIE_NODE_CAP nodes in all (`nodes`); past the cap a miss
    runs uncached and nothing more is stored.  `_table` runs one map over a
    tabulation domain, and `_walk` over partial states: a trie seeded by one
    clean run (`_sliced_pass`) names the walk's unset read without a map run.
    """

    def __init__(self, code: NetworkCode, inst: NetworkInstance, box: Optional[tuple] = None):
        k, n_out = len(inst.sources), code.outer_n
        if len(code.message_sizes) != k:
            raise MalformedDocument("code message_sizes do not match instance sources")
        code.splits.validate(inst, code.inner_n, n_out)
        self.code, self.inst, self.nodes = code, inst, 0
        self._own = {x: set(inst.sources_at(x)) for x in inst.vertices}
        # node -> sender -> state position of the sender's symbol, by round:
        # a live round's slot, else -1, the last position, which holds 0
        self._inbound: dict[str, dict[str, list[int]]] = {x: {} for x in inst.vertices}
        rows = [[-1] * n_out for _ in range(2 * len(inst.edges))]
        for idx, e in enumerate(inst.edges):
            self._inbound[e.b][e.a], self._inbound[e.a][e.b] = rows[2 * idx:2 * idx + 2]
        # split message -> (state position of its first digit, radices)
        self._digits: dict[int, tuple[int, tuple[int, ...]]] = {}
        # state position -> memo (see _memo), also kept by slot key or
        # terminal index; a live slot's position -> its slot key
        self._slots: dict[int, tuple] = {}
        self._memos: dict[SlotKey | int, tuple] = {}
        self._keys: dict[int, SlotKey] = {}
        # the live slots, those with an encoder or a split size other than 1,
        # in round order: (round, edge, direction index)
        live = {(t, idx, d) for (idx, t), sizes in code.splits._table.items()
                for d, size in enumerate(sizes) if size != 1}
        live.update((t, idx, DIRECTIONS.index(direction)) for idx, t, direction in code.encoders
                    if direction in DIRECTIONS and 0 <= idx < len(inst.edges) and 1 <= t <= n_out)
        for pos, (t, idx, d) in enumerate(sorted(live), k):
            e, direction = inst.edges[idx], DIRECTIONS[d]
            key = self._keys[pos] = (idx, t, direction)
            enc = code.encoders.get(key)
            if enc is None:
                raise MalformedDocument(
                    f"missing encoder for edge {e.a!r}-{e.b!r} t={t} {direction}"
                )
            check = _symbol_check(e, t, direction, code.splits.shape(idx, t)[d])
            rows[2 * idx + d][t - 1] = pos
            self._slots[pos] = self._memos[key] = \
                self._memo(enc, slot_tail(inst, idx, direction), t - 1, check)
        self._blank = [0] * (k + len(live))
        # the box lays each message out as a Joined decoder packs it, in full
        # where the given box covers it whole, else where the given digits
        # fit that split
        split: dict[int, tuple[int, ...]] = {}
        self._decoders: dict[int, tuple] = {}
        for j, node in enumerate(inst.terminals):
            demanded, dec = inst.demanded_at(j), code.decoders.get(j)
            if dec is None:
                dec = _missing_decoder(j, node) if demanded else lambda view: ()
            check = _output_check(j, demanded, code.message_sizes)
            self._decoders[j] = self._memos[j] = self._memo(dec, node, n_out, check)
            if isinstance(dec, Joined) and len(dec.radices) == len(demanded):
                for i, radices in zip(demanded, dec.radices):
                    if math.prod(radices) == code.message_sizes[i]:
                        split.setdefault(i, radices)
        self.box, self._spelled = (), []
        for i, size in enumerate(code.message_sizes):
            given = box[i] if box and _size(box[i]) < size else ((size, size),)
            digits = _over(given, split.get(i, (size,))) or given
            self.box += (digits,)
            radices, at = tuple(radix for _, radix in digits), i
            if len(digits) > 1:
                at = len(self._blank)
                self._digits[i] = (at, radices)
                self._blank += [0] * len(digits)
            self._spelled.append(tuple(enumerate(radices, at)))
        self._blank.append(0)  # the zero cell every non-live round reads as -1
        # the walk's sinks, decoders first: (memo, per output the (position,
        # radix) digits it must spell), one per session of a laid-out Joined
        self._sinks = []
        for j, memo in self._decoders.items():
            dec, targets = memo[0], [self._spelled[i] for i in inst.demanded_at(j)]
            laid_out = [tuple(radix for _, radix in t) for t in targets]
            if isinstance(dec, Joined) and laid_out == list(dec.radices):
                self._sinks += [((dec.part(s), memo[1], n_out, tuple, {}, memo[5]),
                                 [(t[s],) for t in targets]) for s in range(dec.count)]
            else:
                self._sinks.append((memo, targets))
        self._sinks += [(memo, ()) for memo in self._slots.values()]

    def _memo(self, fn: Callable, node: str, time: int, check: Callable) -> tuple:
        """(map, node, horizon, check of fresh outputs, {None: trie root}, the
        one `_Recording` view of node at that horizon that its runs read)."""
        return fn, node, time, check, {}, _Recording(node, time, None, None, self._own[node],
                                                    self._inbound[node], self._digits)

    def _lay_out(self, state: list[int]) -> list[int]:
        """`state` with each laid-out message also written by digit."""
        for i, (at, radices) in self._digits.items():
            state[at:at + len(radices)] = split_digits(state[i], radices)
        return state

    def _fresh(self, messages: Sequence[int]) -> list[int]:
        """A blank state holding the message tuple, each message checked
        against its space."""
        k = len(self.inst.sources)
        if len(messages) != k:
            raise SymbolOutOfRange(f"expected {k} messages, got {len(messages)}")
        for i, (m, size) in enumerate(zip(messages, self.code.message_sizes)):
            if not isinstance(m, int) or not 0 <= m < size:
                raise SymbolOutOfRange(f"message {i} value {m!r} outside [0, {size})")
        state = self._blank[:]
        state[:k] = messages
        return state

    def run(self, messages: Sequence[int]) -> list[int]:
        """The flat state of one execution on the message tuple."""
        state = self._fresh(messages)
        if self._digits:
            self._lay_out(state)
        for pos, memo in self._slots.items():
            state[pos] = self._call(memo, state)
        return state

    def decode(self, state: list[int]) -> dict[int, tuple[int, ...]]:
        """Decoded message tuples per terminal index, in demanded-source order."""
        return {j: self._call(memo, state) for j, memo in self._decoders.items()}

    def trace(self, state: list[int]) -> ExecutionTrace:
        """The ExecutionTrace of a state that `run` returned."""
        edges, inbound, read = self.inst.edges, self._inbound, state.__getitem__
        return ExecutionTrace(
            self.inst, tuple(state[:len(self.inst.sources)]),
            tuple(tuple(map(read, inbound[e.b][e.a])) for e in edges),
            tuple(tuple(map(read, inbound[e.a][e.b])) for e in edges),
        )

    def _table(self, key: SlotKey | int, messages: Sequence[int],
               received: Sequence[tuple[str, int]], radices: Sequence[int]) -> list:
        """Outputs of the encoder of slot `key`, or the decoder of terminal
        `key`, on every assignment of values in range(radix) to its node's
        messages and received (sender, round) symbols, the first varying
        slowest.  Each output is checked as in a run."""
        memo, state = self._memos[key], self._blank[:]
        inbound = self._inbound[memo[1]]
        positions = [*messages, *(inbound[sender][t - 1] for sender, t in received)]
        # a radix-1 position holds 0 in every entry, so only the others are set
        wide = [(pos, radix) for pos, radix in zip(positions, radices) if radix > 1]
        positions = [pos for pos, _ in wide]
        table = []
        for values in itertools.product(*(range(radix) for _, radix in wide)):
            for pos, value in zip(positions, values):
                state[pos] = value
            table.append(self._call(memo, self._lay_out(state)))
        return table

    def _sliced_pass(self, total: int, budget: Optional[int] = None, sinks: Optional[list] = None,
                     fixed: Optional[Mapping[int, int]] = None) -> bool:
        """Whether every tuple of the box runs clean and meets every demand,
        decided per sink (`sinks`, by default the code's own; a target that
        is a slot is pulled first, so a sink runs once per branch; a slot
        sink its trie covers, `_covered`, settles uncalled); False once the
        walk has made `budget` map calls, by default as many as `total`
        tuples make (one per map).  Each message is walked by the digits of
        its box; one in `fixed` (index -> value) holds its value.  The code's
        own sinks are seeded first, outside the budget: every slot in round
        order, then each decoder sink, is called once on the box's first
        tuple; a map that raises there makes the pass False."""
        budget = total * len(self._memos) if budget is None else budget
        fixed, k = fixed or {}, len(self.box)
        state = self._lay_out([fixed.get(i, 0) for i in range(k)] + self._blank[k:])
        reach = [0] * len(state)  # values tried per position; 0: fixed, a slot or unused
        for i, (spelled, digits) in enumerate(zip(self._spelled, self.box)):
            for (pos, _), (count, _) in zip(spelled, digits):
                reach[pos] = 0 if i in fixed else count
        if sinks is None:  # seed every trie with the box's first completion
            try:
                for pos, memo in self._slots.items():
                    state[pos] = self._call(memo, state)
                for memo, _ in self._sinks[:len(self._sinks) - len(self._slots)]:
                    self._call(memo, state)
            except Exception:  # a map raised: the joint loop reports it
                return False
        unset = [-1 if reach[p] or p in self._slots else value for p, value in enumerate(state)]
        for sink in self._sinks if sinks is None else sinks:
            if not sink[1] and _covered(sink[0][4].get(None), unset, reach, self._slots):
                continue
            pulls = [pos for digits in sink[1] for pos, _ in digits if pos in self._slots]
            budget = self._walk(sink, unset, pulls, reach, budget)
            if budget < 0:
                return False
        return True

    def _matches(self, code: NetworkCode, edges: Sequence[int], messages: Sequence[int],
                 fixed: Mapping[int, int], agreed: Container) -> bool:
        """Whether `code` (its edge p and message q are this code's edges[p]
        and messages[q]; its live slots are this code's on those edges) sends
        what this code does on every tuple of its messages in the box, the
        others at `fixed`.  A walk sink per such slot, in round order, whose
        map in `code` is not in `agreed` (known to agree) runs that map, with
        this slot's check, on this execution (through one `_Renamed`) against
        this code's symbol.  On a raising map, a mismatch, or past the map
        calls the tuples make, each tuple runs once; all sinks run on it, then compare."""
        k, maps = len(self.inst.sources), len(self._slots)
        sinks, walked, total = [], [], math.prod(_size(self.box[i]) for i in messages)
        for pos, (idx, t, direction) in self._keys.items():
            if idx in edges:
                maps += 1
                fn = code.encoders[(edges.index(idx), t, direction)]
                if fn not in agreed:
                    _, node, time, check, *_ = self._slots[pos]
                    walked.append(pos)
                    sinks.append((self._memo(functools.partial(_matched, fn, check, messages), node, time,
                                             tuple), [((pos, 1),)]))  # one digit: its radix is unused

        def agree(free):
            given = {**fixed, **dict(zip(messages, free))}
            state = self.run([given[i] for i in range(k)])
            return [self._call(memo, state) for memo, _ in sinks] == [(state[pos],) for pos in walked]

        return (self._sliced_pass(total, total * maps, sinks, fixed)
                or all(map(agree, itertools.product(*(_values(self.box[i]) for i in messages)))))

    def _walk(self, sink: tuple, state: list, pulls: list, reach: Sequence, budget: int) -> int:
        """The map calls left of `budget` once `sink` (memo, digits each
        output must equal) runs clean, after the slots it waits on (`pulls`,
        innermost last), on every completion of `state` in the message
        positions it reads; -1 on a fault or past the budget.  Every frame
        of a pass shares `state`: the positions a frame sets, its pulled
        slots and its branch, are unset again when it returns."""
        trail = []
        try:
            while (budget := budget - 1) >= 0:
                try:
                    out = self._call(self._slots[pulls[-1]] if pulls else sink[0], state)
                    if pulls:
                        state[pulls[-1]] = out
                        trail.append(pulls.pop())
                        continue
                    for at, digits in enumerate(sink[1]):
                        value = 0
                        for pos, radix in digits:
                            if state[pos] < 0:
                                raise _Unset(pos)
                            value = value * radix + state[pos]
                        if out[at] != value or not isinstance(out[at], int):  # an equal float fails too
                            return -1
                    return budget
                except _Unset as need:
                    pos = need.args[0]
                    if not reach[pos]:
                        pulls.append(pos)
                        continue
                    if reach[pos] > budget:  # each value costs a call
                        return -1
                    trail.append(pos)
                    for value in range(reach[pos]):
                        state[pos] = value
                        budget = self._walk(sink, state, pulls[:], reach, budget)
                        if budget < 0:
                            break
                    return budget
                except Exception:  # a map raised: the joint loop reports it
                    return -1
            return budget
        finally:
            for pos in trail:
                state[pos] = -1

    def _call(self, memo: tuple, state: list[int]):
        """The map's output on `state`, from its trie when the reads match.

        A trie node is a leaf (the output) or a branch, a list [position
        the map reads next, {value read: subtree}]; outputs are ints or
        tuples, never lists or None."""
        fn, _, _, check, top, view = memo
        branch, found = None, top.get(None)
        while type(found) is list:
            branch, found = found, found[1].get(state[found[0]])
        if found is not None:
            return found
        if branch is not None and state[branch[0]] < 0:  # -1 is never a key
            raise _Unset(branch[0])
        view.state, view.unset = state, None
        reads = view.reads = []
        try:
            out = check(fn(view))
        except Exception:
            if view.unset is None:
                raise
        if view.unset is not None:  # also where the map swallowed _Unset
            raise _Unset(view.unset)
        if self.nodes + len(reads) < TRIE_NODE_CAP:
            nxt, key = top, None
            for pos, value in reads:
                branch = nxt.get(key)
                if type(branch) is not list:
                    branch = nxt[key] = [pos, {}]
                    self.nodes += 1
                nxt, key = branch[1], value
            nxt[key] = out
            self.nodes += 1
        return out


def execute(code: NetworkCode, inst: NetworkInstance, messages: Sequence[int]) -> ExecutionTrace:
    """Run the code on one message tuple and return the full trace."""
    engine = Engine(code, inst)
    return engine.trace(engine.run(messages))


def decode_outputs(
    code: NetworkCode, inst: NetworkInstance, trace: ExecutionTrace
) -> dict[int, tuple[int, ...]]:
    """Decoded message tuples per terminal index, in demanded-source order.
    `trace` must be one of `code` on `inst` in shape (MalformedDocument) and
    in every message and committed symbol (SymbolOutOfRange)."""
    engine, k, n_out, edges = Engine(code, inst), len(inst.sources), code.outer_n, inst.edges
    rows = (trace.fwd, trace.bwd)
    if len(trace.messages) != k or any(len(r) != len(edges) or any(len(row) != n_out for row in r)
                                       for r in rows):
        raise MalformedDocument(f"trace does not fit the code: expected {k} messages and, "
                                f"each way, {len(edges)} edge rows of {n_out} rounds")
    state = engine._fresh(trace.messages)
    for (idx, e), (direction, r) in itertools.product(enumerate(edges), zip(DIRECTIONS, rows)):
        for t, symbol in enumerate(r[idx], 1):
            if not isinstance(symbol, int) or not 0 <= symbol < code.splits.size(idx, t, direction):
                raise SymbolOutOfRange(
                    f"trace symbol on {e.a!r}-{e.b!r} t={t} {direction} is {symbol!r}, "
                    f"alphabet size {code.splits.size(idx, t, direction)}"
                )
    for pos, key in engine._keys.items():
        state[pos] = trace.symbol(*key)
    return engine.decode(engine._lay_out(state))


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


def checked_rates(rates: Sequence[Fraction], count: int) -> tuple[Fraction, ...]:
    """`rates` as Fractions; BadRate unless there are `count`, none negative."""
    rates = tuple(Fraction(r) for r in rates)
    if len(rates) != count:
        raise BadRate(f"expected {count} rates")
    for rate in rates:
        if rate < 0:
            raise BadRate(f"negative rate {rate}")
    return rates


def _binom_tail_ge(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p).  Float helper for the interval;
    the terms are summed from their logarithms, so none underflows."""
    if k <= 0:
        return 1.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    # accumulate P(X = i) for i < k, the complement; log P(X = 0) = n log q
    log_term, odds, below = n * math.log1p(-p), p / (1.0 - p), 0.0
    for i in range(k):
        if i:
            log_term += math.log((n - i + 1) / i * odds)
        below += math.exp(log_term)
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

    def bisect(below: Callable) -> tuple[float, float]:
        """[lo, hi] after 60 halvings of [0, 1] toward where `below` turns False."""
        lo, hi = 0.0, 1.0
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if below(mid) else (lo, mid)
        return lo, hi

    low = 0.0 if failures == 0 else bisect(
        lambda p: _binom_tail_ge(failures, trials, p) < level)[0]
    high = 1.0 if failures == trials else bisect(
        lambda p: 1.0 - _binom_tail_ge(failures + 1, trials, p) >= level)[1]

    denom = 10 ** 6
    lower = Fraction(max(0, int(low * denom) - 1), denom)
    upper = Fraction(min(denom, int(high * denom) + 2), denom)
    return lower, min(upper, Fraction(1))


class FeasibilityReport(NamedTuple):
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
) -> FeasibilityReport:
    """Measure the code's error probability under uniform messages.

    Exhaustive mode covers the whole product message space (error is exact;
    this is the only mode that certifies zero error).  Sampled mode draws
    `trials` seeded uniform tuples and reports a Clopper-Pearson interval
    alongside the point estimate.  Either mode first runs every map once on
    the all-zero message tuple, seeding its cache, then walks each decoder
    (each session of a Joined one), then each slot not yet run on every
    value it reads, over only the messages, or session digits, it reads; if
    none raises or misdecodes, no tuple fails, and none is run or drawn.
    Otherwise, or once the walk makes as many map calls as the check's
    tuples would (one per map per tuple or draw), the tuples run: every one
    in exhaustive mode, `trials` seeded draws in sampled mode.  Past `limit`
    tuples, after that seed, the exhaustive walk may make `limit` map calls,
    and EnumerationTooLarge is raised only if it does not settle the code.

    When `rates` is given, source i is checked over its first
    floor(2**(R_i*N*n)) messages, a box of one digit that the Engine lays
    out by session digit where it can, else over the whole space; the code
    must have at least that many.
    An `epsilon` outside [0, 1] raises MalformedDocument.
    """
    return _check(code, inst, rates, epsilon, mode, trials, seed, limit)[0]


def _size(digits) -> int:
    """How many message values a box's digits hold."""
    return math.prod(count for count, _ in digits)


def _over(digits, radices) -> Optional[tuple]:
    """The box digits `digits` laid out over `radices`, most significant
    first: each digit's radix must be the product of a run of them, over
    which its range(values) is leading 1s, one digit, then full digits;
    None where it is not."""
    out, rest = [], list(reversed(radices))
    for values, radix in digits:
        while radix > 1:
            if not rest or radix % rest[-1]:
                return None
            r = rest.pop()
            radix //= r
            if values > radix and values % radix:
                return None
            out.append((max(1, values // radix), r))
            values = min(values, radix)
    return None if rest else tuple(out)


def _values(digits) -> list[int]:
    """Every message value a box's digits hold, ascending."""
    values = [0]
    for count, radix in digits:
        values = [value * radix + d for value in values for d in range(count)]
    return values


def _check(code, inst, rates, epsilon, mode, trials, seed, limit, observe=None, box=None):
    """check_feasibility's report and its Engine, over the rates' box, else
    `box`; `observe(tuple, decoded)` is called for every tuple the joint loop runs."""
    epsilon = Fraction(epsilon)
    if not 0 <= epsilon <= 1:
        raise MalformedDocument(f"error tolerance {epsilon} outside [0, 1]")
    if rates is not None:
        rates = checked_rates(rates, len(inst.sources))
        box = tuple(((message_size_for_rate(r, code.inner_n, code.outer_n), size),)
                    for r, size in zip(rates, code.message_sizes))
        for i, ((need, have),) in enumerate(box):
            if need > have:
                raise BadRate(
                    f"rate {rates[i]} needs {need} messages at source {i}, code carries {have}"
                )

    engine = Engine(code, inst, box)
    sampled = mode == "sampled"
    if sampled:
        if trials < 1:
            raise ValueError("sampled mode needs trials >= 1")
        total = trials
    elif mode == "exhaustive":
        total = math.prod(map(_size, engine.box))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    capped = not sampled and total > limit
    if engine._sliced_pass(total, limit if capped else None):
        tuples = ()
    elif capped:
        raise EnumerationTooLarge(f"{sized(total)} message tuples exceed limit {limit}")
    elif sampled:
        # a sampled box, the rates' or the whole space, holds values 0, 1, ...
        rng = random.Random(seed)
        tuples = (tuple(rng.randrange(_size(digits)) for digits in engine.box) for _ in range(trials))
    else:
        tuples = itertools.product(*map(_values, engine.box))

    failing: list[tuple[int, ...]] = []
    failures = 0
    for tup in tuples:
        decoded = engine.decode(engine.run(tup))
        if observe is not None:
            observe(tup, decoded)
        if not demands_met(inst, tup, decoded):
            failures += 1
            if len(failing) < KEEP_FAILURES:
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
        certified=not sampled,
        failing=tuple(failing),
        interval=clopper_pearson(failures, total) if sampled else None,
    ), engine
