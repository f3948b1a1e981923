"""The per-tuple executor that the memoizing Engine replaced, kept as the
reference the engine is checked against (tests/test_engine.py).

`execute`, `decode_outputs` and `check_feasibility` below are the earlier
bodies of their namesakes in netcode.codes, and `_tabulate` and
`code_to_doc` the earlier per-entry tabulation of netcode.serialize, all
unchanged except for imports.  `bridge_decompose` is the earlier bridge
regime of netcode.removal, which ran every free tuple of a side once per
fixing of its foreign messages (tests/test_removal.py); it is unchanged
except for imports and the dropped `terminal_indices` field.
`per_tuple_bridge_decompose` and `_per_tuple_decompose_side` are the
later one-pass bridge regime, whose trace match ran every free tuple of
a side on the joint engine and on the side code's own engine and
compared the two traces (tests/test_removal.py); they are unchanged
except for their names and for reaching the removal helpers through the
module, so a test that patches `_simulated_side_code` patches them too.
`_search_codes`, `_cut_prune`, `_passes_cuts` and `rate_region_micro` are
the earlier exhaustive region search of netcode.region, which checked
decodability only after the last round and swept every source up to
`max_message_size` (tests/test_region.py); they are unchanged except for
imports.  `binom_cdf_scaled` and `interval_valid` are the exact integer
check of a Clopper-Pearson interval that perfbench/workloads.py applies
to every sampled report (`_binom_cdf_scaled` there); they are unchanged
except for the name of the first (tests/test_codes.py).
`make_routing_code` is the earlier store-and-forward builder, now in
netcode.routing, whose maps worked out on every call each hop's sender,
round, slot radices and position in the slot (`carried_value`); it is
unchanged except for imports (tests/test_engine.py).
`_replaying_view` is the earlier closure-built view of the bridge's side
code (netcode.removal), which replayed every far-side slot round by
round up to the latest round asked for, and `match_view` the view that
the earlier `Engine._matches` sink built around the engine's recording
view for a side encoder (side message q read as joint message
messages[q]); they are unchanged except for the second one's name and
signature.  `_on_demand_view` is the same closure view replaying only
the slots a read asks for, each once per view tree, as
netcode.removal's `_Replaying` does (tests/test_properties.py).
`pipeline_path` and `host_path_code` are the earlier builders of
netcode.transforms and netcode.removal, which scanned every tilde round
of every edge and derived each host slot's radices per round through a
cache; `floor_pow2` is the earlier netcode.rational one, which compared
Fractions (tests/test_transforms.py, tests/test_rational.py).  They are
unchanged except for imports.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Callable, Optional, Sequence

from netcode.codes import (
    DIRECTIONS,
    AlphabetSplit,
    Engine,
    ExecutionTrace,
    FeasibilityReport,
    NetworkCode,
    SlotKey,
    StateView,
    clopper_pearson,
    demands_met,
    edge_alphabets,
    message_size_for_rate,
    pack,
)
from netcode.errors import (
    BadPath,
    BadPathInstance,
    BadRate,
    BadRoute,
    BitBudgetExceeded,
    CapacityOverflow,
    EdgeMissing,
    EnumerationTooLarge,
    InteriorNodeCollision,
    MalformedDocument,
    NotABridge,
    NotInterleaved,
    SymbolOutOfRange,
    TableTooLarge,
    sized,
)
from netcode.graphs import (
    BWD,
    FWD,
    NetworkInstance,
    connected_components,
    drop_edge,
    incoming_slots,
    replace_edge_with_path,
    slot_tail,
)
import netcode.removal as removal
from netcode.rational import MAX_BITS, _over_budget, alphabet_size, combine_digits, floor_root, split_digits
from netcode.region import RegionLimits, _Budget, _rgs_exact
from netcode.removal import (
    BridgeDecomposition,
    SideDecomposition,
    _induced_instance,
    _simulated_side_code,
)
from netcode.routing import Route
from netcode.serialize import DEFAULT_TABLE_LIMIT, _domain
from netcode.transforms import InterleaveTag, remapped


class FnView(StateView):
    """A view over two functions: message(i), and recv(sender, t) behind
    the horizon guard."""

    __slots__ = ("message_fn", "recv_fn")

    def __init__(self, node: str, time: int, message_fn: Callable, recv_fn: Callable):
        self.node, self.time, self.message_fn, self.recv_fn = node, time, message_fn, recv_fn

    def message(self, i: int) -> int:
        return self.message_fn(i)

    def recv(self, sender: str, t: int) -> int:
        self._visible(sender, t)
        return self.recv_fn(sender, t)


def _node_readers(
    inst: NetworkInstance,
    node: str,
    messages: Sequence[int],
    fwd: Sequence[Sequence[int]],
    bwd: Sequence[Sequence[int]],
) -> tuple[Callable, Callable]:
    """The message and recv functions of a node's FnView.

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
                out = enc(FnView(tail, t - 1, *readers[tail]))
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
        got = tuple(dec(FnView(node, code.outer_n, *readers)))
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


def binom_cdf_scaled(k: int, n: int, p: Fraction) -> int:
    """b**n * P(X <= k) for X ~ Binomial(n, a/b), p = a/b, as an exact int."""
    a, b = p.numerator, p.denominator
    c = b - a
    if c == 0:
        return b ** n if k >= n else 0
    term = c ** n  # i = 0: C(n,0) a**0 c**n
    total = term
    for i in range(min(k, n)):
        term = term * (n - i) * a // ((i + 1) * c)
        total += term
    return total


def interval_valid(failures: int, trials: int, low: Fraction, high: Fraction,
                   tail: Fraction = Fraction(1, 40)) -> bool:
    """True when [low, high] contains the exact Clopper-Pearson interval
    with `tail` in each tail, decided in exact integer arithmetic."""
    k, n = failures, trials
    if not 0 <= low <= Fraction(k, n) <= high <= 1:
        return False
    if k == 0:
        low_ok = low == 0
    else:  # P(X >= k | low) <= tail
        whole = low.denominator ** n
        low_ok = (whole - binom_cdf_scaled(k - 1, n, low)) * tail.denominator <= whole * tail.numerator
    if k == n:
        high_ok = high == 1
    else:  # P(X <= k | high) <= tail
        whole = high.denominator ** n
        high_ok = binom_cdf_scaled(k, n, high) * tail.denominator <= whole * tail.numerator
    return low_ok and high_ok


def _tabulate(fn, inst, code, node, horizon, limit):
    own, dims, radices = _domain(inst, code, node, horizon)
    total = math.prod(radices)
    if total > limit:
        raise TableTooLarge(f"table of {total} entries exceeds limit {limit}")
    by_sender = {(sender, tp): (e, d) for (e, tp, d, sender, _) in dims}
    table = []
    for combo in itertools.product(*(range(r) for r in radices)):
        msgs = dict(zip(own, combo[: len(own)]))
        slot_vals = {
            (e, tp, d): val
            for (e, tp, d, _, _), val in zip(dims, combo[len(own):])
        }

        def message(i, msgs=msgs):
            if i not in msgs:
                raise KeyError(f"node {node!r} holds no message {i}")
            return msgs[i]

        def recv(sender, tq, slot_vals=slot_vals):
            found = by_sender.get((sender, tq))
            if found is None:
                raise LookupError(f"no slot from {sender!r} at t={tq}")
            e, d = found
            return slot_vals[(e, tq, d)]

        table.append(fn(FnView(node, horizon, message, recv)))
    return table


def code_to_doc(
    code: NetworkCode, inst: NetworkInstance, limit: int = DEFAULT_TABLE_LIMIT
) -> dict:
    """Tabulate a code into a self-contained JSON document."""
    splits = [
        {"edge": [inst.edges[e].a, inst.edges[e].b], "t": t, "fwd": f, "bwd": b}
        for (e, t), (f, b) in code.splits.items()
    ]
    encoders = []
    for (e, t, d) in sorted(code.encoders):
        table = _tabulate(
            code.encoders[(e, t, d)], inst, code, slot_tail(inst, e, d), t - 1, limit
        )
        encoders.append(
            {
                "edge": [inst.edges[e].a, inst.edges[e].b],
                "t": t,
                "dir": d,
                "table": table,
            }
        )
    decoders = []
    for j in sorted(code.decoders):
        out_radices = [code.message_sizes[i] for i in inst.demanded_at(j)]

        def packed(state, dec=code.decoders[j], out_radices=out_radices):
            return combine_digits(list(dec(state)), out_radices)

        table = _tabulate(packed, inst, code, inst.terminals[j], code.outer_n, limit)
        decoders.append({"terminal": j, "table": table})
    return {
        "kind": "table",
        "inner_n": code.inner_n,
        "outer_n": code.outer_n,
        "message_sizes": list(code.message_sizes),
        "splits": splits,
        "encoders": encoders,
        "decoders": decoders,
    }


def _decompose_side(
    engine: Engine,
    side: set[str],
    anchor: str,
    other_anchor: str,
) -> SideDecomposition:
    inst, code = engine.inst, engine.code
    k = len(inst.sources)
    s_idx = tuple(
        i
        for i in range(k)
        if inst.sources[i] in side
        and all(
            inst.terminals[j] in side
            for j in range(len(inst.terminals))
            if inst.demand[i][j]
        )
    )
    d_idx = tuple(j for j, d in enumerate(inst.terminals) if d in side)
    foreign = tuple(i for i in range(k) if i not in s_idx)

    demands = [
        (i, j)
        for i in s_idx
        for j in range(len(inst.terminals))
        if inst.demand[i][j]
    ]

    free_sizes = [code.message_sizes[i] for i in s_idx]
    free_total = math.prod(free_sizes)

    def tuples(fix: dict[int, int]):
        """(free messages, full message list) for each free tuple under `fix`."""
        for free in itertools.product(*(range(s) for s in free_sizes)):
            msgs = [0] * k
            for i, w in fix.items():
                msgs[i] = w
            for i, w in zip(s_idx, free):
                msgs[i] = w
            yield free, msgs

    def run(fix: dict[int, int]) -> Fraction:
        fails = 0
        for _, msgs in tuples(fix):
            decoded = engine.decode(engine.run(msgs))
            for i, j in demands:
                pos = inst.demanded_at(j).index(i)
                if decoded[j][pos] != msgs[i]:
                    fails += 1
                    break
        return Fraction(fails, free_total)

    best_fix: dict[int, int] = {}
    best_err: Optional[Fraction] = None
    for combo in itertools.product(*(range(code.message_sizes[i]) for i in foreign)):
        fix = dict(zip(foreign, combo))
        err = run(fix)
        if best_err is None or err < best_err:
            best_fix, best_err = fix, err

    side_inst = _induced_instance(inst, side, s_idx, d_idx)
    side_code, match = None, True
    if side_inst is not None:
        # side edge p is edge orig_of_side[p] of the original instance
        orig_of_side = [inst.edge_between(se.a, se.b)[0] for se in side_inst.edges]
        side_code = _simulated_side_code(
            inst, code, side, inst.edge_between(anchor, other_anchor)[0],
            s_idx, d_idx, side_inst, orig_of_side, best_fix,
        )
        # Simulated side traces must equal the original ones edge for edge.
        side_engine = Engine(side_code, side_inst)
        for free, msgs in tuples(best_fix):
            full = engine.trace(engine.run(msgs))
            part = side_engine.trace(side_engine.run(free))
            if any(
                full.fwd[oi] != part.fwd[p] or full.bwd[oi] != part.bwd[p]
                for p, oi in enumerate(orig_of_side)
            ):
                match = False
                break
    return SideDecomposition(
        vertices=tuple(sorted(side)),
        source_indices=s_idx,
        fixing=best_fix,
        conditional_error=best_err,
        instance=side_inst,
        code=side_code,
        trace_match=match,
    )


def bridge_decompose(
    inst_with_e: NetworkInstance,
    u: str,
    v: str,
    code: NetworkCode,
    limit: int = 2 ** 20,
) -> BridgeDecomposition:
    """Split a bridged instance into two independently feasible halves.

    For each side, enumerates every fixing of the foreign messages (those
    not fully demanded inside the side), picks the one minimizing the
    side's conditional error, and builds the simulated code in which the
    side's anchor node replays the far side's transmissions internally.
    """
    found = inst_with_e.edge_between(u, v)
    if found is None:
        raise EdgeMissing(f"no edge {u!r}-{v!r}")
    minus = drop_edge(inst_with_e, u, v)
    comp_u = next(b for b in connected_components(minus) if u in b)
    if v in comp_u:
        raise NotABridge(f"{u!r}-{v!r} is not a bridge")
    u_set = set(comp_u)
    v_set = set(inst_with_e.vertices) - u_set

    total = math.prod(code.message_sizes)
    if total > limit:
        raise EnumerationTooLarge(f"{total} message tuples exceed limit {limit}")
    engine = Engine(code, inst_with_e)
    return BridgeDecomposition(
        u_side=_decompose_side(engine, u_set, u, v),
        v_side=_decompose_side(engine, v_set, v, u),
    )


def _per_tuple_decompose_side(
    engine: Engine,
    side: set[str],
    e_idx: int,
    s_idx: tuple[int, ...],
    foreign: tuple[int, ...],
    fails: Counter,
    limit: int,
) -> SideDecomposition:
    """The side's fixing, the first foreign combination in ascending order
    with the fewest failing tuples (`fails`), and its simulated code.  The
    trace match runs every free tuple, so more than `limit` of them raise
    EnumerationTooLarge."""
    inst, code = engine.inst, engine.code
    free_sizes = [code.message_sizes[i] for i in s_idx]
    free_total = math.prod(free_sizes)
    best = min(
        itertools.product(*(range(code.message_sizes[i]) for i in foreign)),
        key=lambda combo: fails[combo],
    ) if fails else (0,) * len(foreign)
    fixing = dict(zip(foreign, best))

    d_idx = tuple(j for j, d in enumerate(inst.terminals) if d in side)
    side_inst = removal._induced_instance(inst, side, s_idx, d_idx)
    side_code, match = None, True
    if side_inst is not None:
        # side edge p is edge orig_of_side[p] of the original instance
        orig_of_side = [inst.edge_between(se.a, se.b)[0] for se in side_inst.edges]
        if free_total > limit:
            raise EnumerationTooLarge(
                f"{free_total} free message tuples of side {sorted(side)} exceed limit {limit}"
            )
        side_code = removal._simulated_side_code(
            inst, code, side, e_idx, s_idx, d_idx, side_inst, orig_of_side, fixing
        )
        # Simulated side traces must equal the original ones edge for edge.
        side_engine = Engine(side_code, side_inst)
        for free in itertools.product(*(range(s) for s in free_sizes)):
            given = {**fixing, **dict(zip(s_idx, free))}
            msgs = [given[i] for i in range(len(inst.sources))]
            full = engine.trace(engine.run(msgs))
            part = side_engine.trace(side_engine.run(free))
            if any(
                full.fwd[oi] != part.fwd[p] or full.bwd[oi] != part.bwd[p]
                for p, oi in enumerate(orig_of_side)
            ):
                match = False
                break
    return SideDecomposition(
        vertices=tuple(sorted(side)),
        source_indices=s_idx,
        fixing=fixing,
        conditional_error=Fraction(fails[best], free_total),
        instance=side_inst,
        code=side_code,
        trace_match=match,
    )


def per_tuple_bridge_decompose(
    inst_with_e: NetworkInstance,
    u: str,
    v: str,
    code: NetworkCode,
    limit: int = 2 ** 20,
) -> BridgeDecomposition:
    """Split a bridged instance into two independently feasible halves.

    Each side fixes its foreign messages (those not fully demanded inside
    the side) to the values that minimize the side's conditional error,
    and gets the simulated code in which its anchor node replays the far
    side's transmissions internally.  One pass over the joint message
    tuples counts, for both sides at once, the tuples that miss one of
    the side's demands, keyed by the side's foreign values.  The pass is
    skipped when the engine's sliced walk (see check_feasibility) proves
    that no tuple misses a demand.  As in check_feasibility, past `limit`
    tuples the walk may make `limit` map runs, and EnumerationTooLarge is
    raised only if it does not settle the code.
    """
    minus = drop_edge(inst_with_e, u, v)
    comp_u = next(b for b in connected_components(minus) if u in b)
    if v in comp_u:
        raise NotABridge(f"{u!r}-{v!r} is not a bridge")
    u_set = set(comp_u)
    v_set = set(inst_with_e.vertices) - u_set

    total = math.prod(code.message_sizes)
    engine = Engine(code, inst_with_e)
    e_idx = inst_with_e.edge_between(u, v)[0]
    sides = (u_set, v_set)
    parts = [removal._side_messages(inst_with_e, side) for side in sides]
    fails = [Counter() for _ in sides]
    if not engine._sliced_pass(total, None if total <= limit else limit):
        if total > limit:
            raise EnumerationTooLarge(f"{total} message tuples exceed limit {limit}")
        for msgs in itertools.product(*(range(s) for s in code.message_sizes)):
            decoded = engine.decode(engine.run(msgs))
            for (_, foreign, demands), count in zip(parts, fails):
                if any(decoded[j][pos] != msgs[i] for i, j, pos in demands):
                    count[tuple(msgs[i] for i in foreign)] += 1
    return BridgeDecomposition(*(
        _per_tuple_decompose_side(engine, side, e_idx, owned, foreign, count, limit)
        for side, (owned, foreign, _), count in zip(sides, parts, fails)
    ))


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
            idx, direction = inst.slot(x, y)
            slots.setdefault((idx, route.rounds[hop], direction), []).append((ridx, hop))

    def slot_radices(key: SlotKey) -> tuple[int, ...]:
        return tuple(sizes[routes[ridx].source] for ridx, _ in slots[key])

    split_table: dict[tuple[int, int], tuple[int, int]] = {}
    for (edge_idx, t, direction) in slots:
        f, b = split_table.get((edge_idx, t), (1, 1))
        load = math.prod(slot_radices((edge_idx, t, direction)))
        split_table[(edge_idx, t)] = (load, b) if direction == FWD else (f, load)
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
        idx, direction = inst.slot(x, y)
        prev_key = (idx, prev_t, direction)
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
                out.append(carried_value(state, ridx, len(routes[ridx].nodes) - 1))
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


def _replaying_view(replay: tuple, node: str, horizon: int, state, sim=None) -> StateView:
    """The original code's view at `node` over the side execution seen by
    `state`, a side view of `node` or, in a replay, of the anchor.  `replay`
    is what `_simulated_side_code` fixed for the side; sim[r-1] holds the
    replayed symbols of round r (a fresh list outside a replay)."""
    inst, e_idx, side, own, side_pos, fixing, replayed = replay
    sim = [] if sim is None else sim

    def message(i):
        if i not in own[node]:
            raise KeyError(f"node {node!r} holds no message {i}")
        return state.message(side_pos[i]) if i in side_pos else fixing[i]

    def recv(sender, t):
        oi, direction = inst.slot(sender, node)
        if oi != e_idx and sender in side:
            return state.recv(sender, t)
        while len(sim) < t:
            r = len(sim) + 1
            sim.append({})
            for key, enc, tail in replayed.get(r, ()):
                sim[r - 1][key] = enc(_replaying_view(replay, tail, r - 1, state, sim))
        return sim[t - 1].get((oi, direction), 0)

    return FnView(node, horizon, message, recv)


def _on_demand_view(replay: tuple, node: str, horizon: int, state, sim=None) -> StateView:
    """`_replaying_view` with `replay`'s last entry mapping each replayed
    slot key (edge, round, direction) with an encoder to that encoder: a
    read computes its slot only when it is not yet in `sim`, the symbols
    one view tree has computed by slot key (0 where no encoder sends)."""
    inst, e_idx, side, own, side_pos, fixing, replayed = replay
    sim = {} if sim is None else sim

    def message(i):
        if i not in own[node]:
            raise KeyError(f"node {node!r} holds no message {i}")
        return state.message(side_pos[i]) if i in side_pos else fixing[i]

    def recv(sender, t):
        oi, direction = inst.slot(sender, node)
        if oi != e_idx and sender in side:
            return state.recv(sender, t)
        if (oi, t, direction) not in sim:
            enc = replayed.get((oi, t, direction))
            sim[(oi, t, direction)] = 0 if enc is None else enc(
                _on_demand_view(replay, sender, t - 1, state, sim))
        return sim[(oi, t, direction)]

    return FnView(node, horizon, message, recv)


def match_view(view: StateView, messages: Sequence[int]) -> StateView:
    """The side view a match sink gave a side encoder: `view` with side
    message q read as message messages[q]."""
    return FnView(view.node, view.time, lambda q: view.message(messages[q]), view.recv)


def pipeline_path(
    tilde: NetworkCode,
    inst: NetworkInstance,
    u: str,
    v: str,
    path_inst: NetworkInstance,
    ell: int,
) -> NetworkCode:
    """Re-route edge {u, v} of an interleaved code over an ell-node path.

    path_inst must be replace_edge_with_path(inst, u, v, path, fresh=True)
    for path = (u, *fresh, v), fresh being the vertices path_inst lists
    after inst's; anything else raises BadPathInstance.

    Sub-blocks widen from N to N+ell steps.  Within sub-block i, the j-th
    symbol the removed edge carries from u leaves u at offset j and reaches
    v after ell-1 hops at offset j+ell-2; symbols from v mirror this.  A
    symbol produced in sub-block i is therefore delivered inside sub-block
    i, and the interleave property guarantees nobody needs it before
    sub-block i+1.  Non-path edges replay their sub-block schedule in the
    first N offsets and idle afterwards.
    """
    tag = tilde.structure
    if not isinstance(tag, InterleaveTag):
        raise NotInterleaved("pipeline_path needs interleave output")
    nb = tag.base_outer
    if tilde.outer_n != nb * nb:
        raise NotInterleaved("outer blocklength is not base_outer squared")

    found = inst.edge_between(u, v)
    if found is None:
        raise EdgeMissing(f"no edge {u!r}-{v!r}")
    e_idx = found[0]

    if ell < 2:
        raise BadPathInstance("path needs at least two nodes")
    path = (u, *path_inst.vertices[len(inst.vertices):], v)
    if len(path) != ell:
        raise BadPathInstance(f"path has {len(path)} nodes, expected ell={ell}")
    try:
        laid_out = replace_edge_with_path(inst, u, v, path, fresh=True)
    except (BadPath, InteriorNodeCollision) as exc:
        raise BadPathInstance(str(exc)) from exc
    if laid_out != path_inst:
        raise BadPathInstance(
            f"path instance is not edge {u!r}-{v!r} replaced by the fresh path {list(path)}"
        )

    # constant split per sub-block on the removed edge (the property the
    # schedule below relies on)
    for i in range(1, nb + 1):
        shapes = {tilde.splits.shape(e_idx, (i - 1) * nb + j) for j in range(1, nb + 1)}
        if len(shapes) != 1:
            raise NotInterleaved(f"splits vary inside sub-block {i} on {u!r}-{v!r}")

    width = nb + ell
    out_n = nb * width

    def tilde_time(i: int, j: int) -> int:
        return (i - 1) * nb + j

    def pipe_time(i: int, j: int) -> int:
        return (i - 1) * width + j

    # Path hop k (0-based) is path_inst edge m-1+k, stored path[k] ->
    # path[k+1].  travel: a hop direction -> the path nodes in that travel
    # order; trip_dir: a hop direction -> the removed edge's direction that
    # makes the same trip.
    travel = {FWD: path, BWD: path[::-1]}
    trip_dir = {d: inst.slot(nodes[0], nodes[-1])[1] for d, nodes in travel.items()}
    # (receiving end, original sender) -> the last path hop's sender
    last_hop = {(nodes[-1], nodes[0]): nodes[-2] for nodes in travel.values()}

    def tilde_recv(state, sender, tt):
        """The tilde execution's round-tt symbol, read from the pipelined one."""
        t_out = pipe_time((tt - 1) // nb + 1, (tt - 1) % nb + 1)
        relay_from = last_hop.get((state.node, sender))
        if relay_from is not None:
            return state.recv(relay_from, t_out + ell - 2)
        return state.recv(sender, t_out)

    def relay(sender: str):
        """Pass on the symbol `sender` committed one round earlier."""
        return lambda state: state.recv(sender, state.time)

    def idle(state):
        return 0

    split_table: dict[tuple[int, int], tuple[int, int]] = {}
    encoders = {}

    # path_inst edge p < m-1 is tilde edge p, or p+1 past the removed edge,
    # stored the same way round
    m = len(inst.edges)
    for p_idx in range(m - 1):
        t_idx = p_idx + (p_idx >= e_idx)
        for i in range(1, nb + 1):
            for j in range(1, nb + 1):
                tt = tilde_time(i, j)
                shape = tilde.splits.shape(t_idx, tt)
                if shape != (1, 1):
                    split_table[(p_idx, pipe_time(i, j))] = shape
                for direction in (FWD, BWD):
                    base_enc = tilde.encoders.get((t_idx, tt, direction))
                    if base_enc is not None:
                        encoders[(p_idx, pipe_time(i, j), direction)] = remapped(base_enc, tt - 1, tilde_recv)

    # The removed edge's symbols in direction trip_dir[d] cross path hop k
    # in direction d as hop h of their trip, and the j-th symbol of
    # sub-block i crosses it at offset j+h-1: the first hop runs the tilde
    # encoder, later hops relay what arrived one round earlier.
    for k in range(ell - 1):
        p_idx = m - 1 + k
        for i in range(1, nb + 1):
            size = {d: tilde.splits.size(e_idx, tilde_time(i, 1), trip_dir[d]) for d in travel}
            shape = (size[FWD], size[BWD])
            if shape != (1, 1):
                for o in range(1, width + 1):
                    split_table[(p_idx, pipe_time(i, o))] = shape
            for direction, nodes in travel.items():
                if size[direction] == 1:
                    continue
                hop = k + 1 if direction == FWD else ell - 1 - k
                for o in range(1, width + 1):
                    j = o - hop + 1
                    if not 1 <= j <= nb:
                        enc = idle
                    elif hop > 1:
                        enc = relay(nodes[hop - 2])
                    else:
                        base_enc = tilde.encoders.get((e_idx, tilde_time(i, j), trip_dir[direction]))
                        if base_enc is None:
                            continue
                        enc = remapped(base_enc, tilde_time(i, j) - 1, tilde_recv)
                    encoders[(p_idx, pipe_time(i, o), direction)] = enc

    return NetworkCode(
        inner_n=tilde.inner_n,
        outer_n=out_n,
        message_sizes=tilde.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders={j: remapped(dec, nb * nb, tilde_recv) for j, dec in tilde.decoders.items()},
    )


def host_path_code(
    piped: NetworkCode,
    star_inst: NetworkInstance,
    host_inst: NetworkInstance,
    star_path: Sequence[str],
    host_path: Sequence[str],
) -> NetworkCode:
    """Merge a fresh relay path back onto the real path it shadows.

    star_inst contains both the original edges and a fresh path
    star_path; host_inst is the same graph with the fresh path folded
    onto host_path (capacities added).  Each host edge carries the star
    edges folded onto it, the original edge before its relay edge, as one
    mixed-radix value, the first star edge most significant.
    """
    if len(star_path) != len(host_path) or star_path[0] != host_path[0] or star_path[-1] != host_path[-1]:
        raise BadPath("path length/endpoint mismatch")
    to_host = dict(zip(star_path, host_path))
    originals = set(host_inst.vertices)

    # host slot (host edge, host direction) -> its parts (star sender, star
    # edge, star direction); (star sender, star node) -> (its host slot,
    # position among the parts); star edge -> host edge
    parts: dict[tuple[int, str], list[tuple[str, int, str]]] = {}
    part_of: dict[tuple[str, str], tuple[tuple[int, str], int]] = {}
    host_edge: dict[int, int] = {}
    fresh_last = sorted(
        enumerate(star_inst.edges), key=lambda item: not {item[1].a, item[1].b} <= originals
    )
    for s_idx, se in fresh_last:
        for sender, node, s_dir in ((se.a, se.b, FWD), (se.b, se.a, BWD)):
            h_idx, h_dir = host_inst.slot(to_host.get(sender, sender), to_host.get(node, node))
            host_edge[s_idx] = h_idx
            layout = parts.setdefault((h_idx, h_dir), [])
            part_of[(sender, node)] = ((h_idx, h_dir), len(layout))
            layout.append((sender, s_idx, s_dir))

    @functools.cache
    def radices(slot: tuple[int, str], t: int) -> tuple[int, ...]:
        """The star alphabet sizes folded onto a host slot at round t."""
        return tuple([piped.splits.size(s_idx, t, s_dir) for _, s_idx, s_dir in parts[slot]])

    def star_recv(star_node: str):
        """star_node's star symbols, read from the host execution."""

        def recv(state, star_sender, t):
            slot, pos = part_of[(star_sender, star_node)]
            symbol = state.recv(to_host.get(star_sender, star_sender), t)
            return split_digits(symbol, radices(slot, t))[pos]

        return recv

    def fold(slot: tuple[int, str], t: int):
        """Host encoder of round t: every part's star encoder, combined; a
        part outside its star slot's alphabet raises SymbolOutOfRange."""
        layout = parts[slot]
        encs = [piped.encoders.get((s_idx, t, s_dir)) for _, s_idx, s_dir in layout]
        if not any(encs):
            return None
        sizes = radices(slot, t)
        calls = [enc and remapped(enc, t - 1, star_recv(sender))
                 for enc, (sender, _, _) in zip(encs, layout)]
        edges = [(star_inst.edges[s_idx], s_dir) for _, s_idx, s_dir in layout]
        names = [f"encoder on {e.a!r}-{e.b!r} t={t} {s_dir}" for e, s_dir in edges]

        def encoder(state):
            return pack([call(state) if call else 0 for call in calls], sizes, names.__getitem__)

        return encoder

    # Only host rounds that some folded star slot uses carry anything.
    live = {(host_edge[s_idx], t) for s_idx, t, _ in piped.encoders}
    live.update((host_edge[s_idx], t) for (s_idx, t), _ in piped.splits.items())
    encoders = {}
    split_table: dict[tuple[int, int], tuple[int, int]] = {}
    for h_idx, t in sorted(live):
        shape = tuple(math.prod(radices((h_idx, direction), t)) for direction in DIRECTIONS)
        if shape != (1, 1):
            split_table[(h_idx, t)] = shape
        for direction in DIRECTIONS:
            encoder = fold((h_idx, direction), t)
            if encoder is not None:
                encoders[(h_idx, t, direction)] = encoder

    return NetworkCode(
        inner_n=piped.inner_n,
        outer_n=piped.outer_n,
        message_sizes=piped.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders={j: remapped(dec, piped.outer_n, star_recv(host_inst.terminals[j]))
                  for j, dec in piped.decoders.items()},
    )


def floor_pow2(exponent: Fraction) -> int:
    """floor(2 ** exponent) for exponent >= 0.  It builds 2^numerator, so an
    exponent of 1 or more whose numerator is past MAX_BITS raises
    BitBudgetExceeded, as does every exponent past MAX_BITS."""
    if exponent < 0:
        raise ValueError("exponent must be non-negative")
    if exponent < 1:
        return 1
    if exponent > MAX_BITS:
        whole, part = divmod(exponent, 1)
        raise _over_budget(whole, part != 0)
    if exponent.numerator > MAX_BITS:
        raise BitBudgetExceeded(f"size 2^({sized(exponent.numerator)}/{sized(exponent.denominator)}) "
                                "has a numerator past the 2^20-bit budget")
    return floor_root(2 ** exponent.numerator, exponent.denominator)
