"""The memoizing Engine against the per-tuple reference executor.

Each property check warms one Engine on a list of message tuples, then
runs the list again so that the second pass answers from the tries, and
requires every trace, decoded output and feasibility report to equal the
reference's (tests/reference_exec.py).
"""

import gc
import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import netcode as nc
from netcode import codes, rational, routing
from netcode.codes import Engine
from netcode.errors import (
    CapacityOverflow,
    EnumerationTooLarge,
    MalformedDocument,
    SymbolOutOfRange,
)
from netcode.graphs import slot_tail
from netcode.serialize import _domain

import reference_exec as ref
from conftest import (
    all_simple_paths,
    clamp_code,
    cycle4,
    identity_suite,
    inst_doc,
    line3,
    make,
    pair_at_one_node,
    path_chain,
    single_edge,
    star3,
    two_way,
    unset_runs,
)


def synthetic_map(seed, modulus):
    """A map whose every read after the first is chosen by the values read
    so far.  Some choices raise (a message the node does not hold, a
    sender that is not a neighbour, a round outside the view); the map
    catches those and goes on."""

    def fn(view):
        h = seed
        for _ in range(3):
            key = h % 7
            try:
                if key < 2:
                    value = view.message(key)
                else:
                    value = view.recv("abc"[key % 3], key % 4)
            except LookupError:  # KeyError included
                value = -1
            h = (h * 31 + value + 11) % 10007
        return h % modulus

    return fn


def synthetic_case(case_seed):
    inst = make(inst_doc(
        "abc", [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1")],
        ["a", "c"], ["b", "b"], [[1, 0], [0, 1]]))
    outer_n, sizes = 3, (3, 2)
    encoders = {
        (idx, t, d): synthetic_map(case_seed * 101 + idx * 17 + t * 5 + (d == nc.BWD), 2)
        for idx in range(3) for t in range(1, outer_n + 1) for d in codes.DIRECTIONS
    }

    def decoder(j):
        fn = synthetic_map(case_seed * 7 + j, sizes[j])
        return lambda view: (fn(view),)

    code = nc.NetworkCode(
        inner_n=2, outer_n=outer_n, message_sizes=sizes,
        splits=nc.AlphabetSplit(
            {(idx, t): (2, 2) for idx in range(3) for t in range(1, outer_n + 1)}),
        encoders=encoders, decoders={0: decoder(0), 1: decoder(1)},
    )
    return (f"synthetic-{case_seed}", inst, code)


def cases():
    out = [(f"routing-{pos}", inst, code) for pos, (inst, code) in enumerate(identity_suite())]
    out += [(name, inst, code) for name, inst, code in path_chain(2) if name == "chain-base"]
    for name, inst, code in list(out):
        table, _ = nc.load_code(nc.code_to_doc(code, inst), inst)
        out.append((name.replace("routing", "table").replace("chain", "table"), inst, table))
    inst = single_edge()
    clamp = clamp_code(inst, "a", "b", 2, 1, 1)
    out.append(("clamp", inst, clamp))
    out.append(("amplify", inst, nc.amplify(
        clamp, inst, 3, "repetition", Fraction(1, 4), strict=False)))
    out += [case for case in path_chain(2) if case[0] != "chain-base"]
    out += path_chain(2, off_path=True)
    # session-packed codes: an interleaved and a repeated routing code, one
    # over base messages of three values, and the host stage of a chain
    # whose b->a slot folds two sessions (c->a also goes c-b-a)
    inst = two_way()
    base = nc.make_routing_code(
        inst, [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("b", "a"), (2,))], 1, 2, [2, 2])
    ternary = nc.make_routing_code(single_edge(), [nc.Route(0, 0, ("a", "b"), (1,))], 2, 1, [3])
    out += [("interleave", inst, nc.interleave(base, inst)),
            ("repeat", inst, nc.parallel_repeat(base, inst, 3)),
            ("repeat-ternary", single_edge(), nc.parallel_repeat(ternary, single_edge(), 2))]
    fold = (nc.Route(1, 1, ("c", "b", "a"), (1, 2)),)
    out += [(f"folded-{name}", inst, code) for name, inst, code in path_chain(2, extra=fold)
            if name == "chain-host"]
    out += [synthetic_case(s) for s in range(3)]
    return out


CASES = cases()
CASE_NAMES = [name for name, _, _ in CASES]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_matches_reference(data):
    name, inst, code = data.draw(st.sampled_from(CASES))
    tuples = data.draw(st.lists(
        st.tuples(*(st.integers(0, s - 1) for s in code.message_sizes)),
        min_size=1, max_size=8))
    engine = Engine(code, inst)
    for tup in tuples + tuples:
        want = ref.execute(code, inst, tup)
        state = engine.run(tup)
        assert engine.trace(state) == want, name
        assert engine.decode(state) == ref.decode_outputs(code, inst, want), name
    assert nc.execute(code, inst, tuples[0]) == ref.execute(code, inst, tuples[0])
    assert nc.decode_outputs(code, inst, want) == ref.decode_outputs(code, inst, want)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_reports_match_reference(name):
    _, inst, code = CASES[CASE_NAMES.index(name)]
    for kwargs in ({}, {"mode": "sampled", "trials": 300, "seed": 5}):
        assert nc.check_feasibility(code, inst, **kwargs) == \
            ref.check_feasibility(code, inst, **kwargs)


def test_synthetic_codes_fail_somewhere():
    # The synthetic decoders guess, so their reports exercise failure counts.
    for case_seed in range(3):
        _, inst, code = synthetic_case(case_seed)
        assert nc.check_feasibility(code, inst).failures > 0


def probe_code(encoder, decoder, outer_n=2, size=4):
    """single_edge (a -> b, n=2) with a->b at round 2 and b->a at round 1."""
    return nc.NetworkCode(
        inner_n=2, outer_n=outer_n, message_sizes=(size,),
        splits=nc.AlphabetSplit({(0, 1): (1, 2), (0, 2): (4, 1)}),
        encoders={(0, 1, nc.BWD): lambda view: 1, (0, 2, nc.FWD): encoder},
        decoders={0: decoder},
    )


def test_causality_guard_holds_after_warm_trie():
    def encoder(view):
        w = view.message(0)
        # b's round-2 symbol is not visible at horizon 1: only w == 3 asks
        view.recv("b", 2 if w == 3 else 1)
        return w

    inst = single_edge()
    code = probe_code(encoder, lambda view: (view.recv("a", 2),))
    engine = Engine(code, inst)
    for _ in range(2):
        for w in range(3):
            state = engine.run((w,))
            assert engine.trace(state) == ref.execute(code, inst, (w,))
    with pytest.raises(LookupError):
        engine.run((3,))
    with pytest.raises(LookupError):
        ref.execute(code, inst, (3,))


def test_each_read_path_runs_once():
    calls = []

    def encoder(view):
        calls.append(view.time)
        return view.message(0) % 2

    inst = single_edge()
    code = probe_code(encoder, lambda view: (view.recv("a", 2),), size=4)
    engine = Engine(code, inst)
    for _ in range(3):
        for w in range(4):
            engine.run((w,))
    assert len(calls) == 4


def test_trie_cap_bounds_memory(monkeypatch):
    cap = 12
    monkeypatch.setattr(codes, "TRIE_NODE_CAP", cap)
    inst = single_edge()

    def high(view):
        return view.message(0) // 4

    def low(view):
        return view.message(0) % 4

    def decoder(view):
        # reads both symbols: a distinct value path for every message
        w = 4 * view.recv("a", 1) + view.recv("a", 2)
        return (w if w != 15 else 0,)

    code = nc.NetworkCode(
        inner_n=2, outer_n=2, message_sizes=(16,),
        splits=nc.AlphabetSplit({(0, 1): (4, 1), (0, 2): (4, 1)}),
        encoders={(0, 1, nc.FWD): high, (0, 2, nc.FWD): low},
        decoders={0: decoder},
    )
    engine = Engine(code, inst)
    for _ in range(2):
        for w in range(16):
            state = engine.run((w,))
            want = ref.execute(code, inst, (w,))
            assert engine.trace(state) == want
            assert engine.decode(state) == ref.decode_outputs(code, inst, want)
            assert engine.nodes <= cap
    assert engine.nodes > 0
    report = nc.check_feasibility(code, inst)
    assert report == ref.check_feasibility(code, inst)
    assert report.failures == 1


# ----------------------------------------------------------------- tabulation

TABULATED = CASES + [("chain-scale-n3", *path_chain(3)[-1][1:])]


@pytest.mark.parametrize("case", TABULATED, ids=[name for name, _, _ in TABULATED])
def test_tabulation_matches_reference(case):
    _, inst, code = case
    assert nc.code_to_doc(code, inst) == ref.code_to_doc(code, inst)


def test_tabulation_runs_each_read_path_once():
    calls = []

    def encoder(view):
        calls.append(view.time)
        return view.message(0)

    # a holds message 0 (size 2) and message 1 (size 8): 16 table entries
    inst = pair_at_one_node()
    code = nc.NetworkCode(
        inner_n=2, outer_n=1, message_sizes=(2, 8),
        splits=nc.AlphabetSplit({(0, 1): (2, 1)}),
        encoders={(0, 1, nc.FWD): encoder}, decoders={},
    )
    doc = nc.code_to_doc(code, inst)
    assert doc["encoders"][0]["table"] == [entry // 8 for entry in range(16)]
    assert len(calls) == 2


def test_tabulation_checks_symbols_no_execution_sends():
    # a always sends 0 at round 1, so b's round-2 encoder never sees 1,
    # the one input on which it leaves its binary alphabet
    inst = single_edge()
    code = nc.NetworkCode(
        inner_n=2, outer_n=2, message_sizes=(2,),
        splits=nc.AlphabetSplit({(0, 1): (2, 1), (0, 2): (1, 2)}),
        encoders={
            (0, 1, nc.FWD): lambda view: 0,
            (0, 2, nc.BWD): lambda view: 2 * view.recv("a", 1),
        },
        decoders={0: lambda view: (0,)},
    )
    assert nc.check_feasibility(code, inst).failures == 1
    with pytest.raises(SymbolOutOfRange):
        nc.code_to_doc(code, inst)


# ------------------------------------------------------------ sliced pass
#
# An exhaustive check first walks each slot and decoder over only the
# messages it reads (`Engine._sliced_pass`); the joint loop runs only when
# that walk does not prove every tuple correct.  Every report, failing
# tuples and raised errors included, must equal the reference's.

def outcome(fn):
    """The call's result, or the type and text of what it raised."""
    try:
        return fn()
    except Exception as exc:  # the comparison covers every error
        return type(exc), str(exc)


def count_runs(monkeypatch):
    """Count Engine.run calls: the joint loop runs one per tuple."""
    calls = []
    run = Engine.run

    def counted(self, messages):
        calls.append(tuple(messages))
        return run(self, messages)

    monkeypatch.setattr(Engine, "run", counted)
    return calls


def rates_for(code, bits):
    """Rates that check source i over its first 2**bits[i] messages."""
    scale = code.outer_n * code.inner_n
    return [Fraction(b, scale) for b in bits]


def shrunk_bits(data, code):
    """None, or per source a bit count at most the code's (for `rates`)."""
    if not data.draw(st.booleans(), label="with rates"):
        return None
    return [data.draw(st.integers(0, s.bit_length() - 1), label="bits")
            for s in code.message_sizes]


def faulty(data, code, inst):
    """The code, or the code with one decoder wrong on one decoded value
    or one encoder out of range on one output value."""
    kind = data.draw(st.sampled_from(["none", "decoder", "encoder"]), label="fault")
    if kind == "decoder" and code.decoders:
        j = data.draw(st.sampled_from(sorted(code.decoders)), label="terminal")
        sizes = [code.message_sizes[i] for i in inst.demanded_at(j)]
        bad = data.draw(st.integers(0, max(sizes) - 1), label="bad value")
        dec = code.decoders[j]

        def wrong(view):
            out = dec(view)
            return tuple((x + 1) % s if x == bad else x for x, s in zip(out, sizes))

        return code._replace(decoders={**code.decoders, j: wrong})
    if kind == "encoder" and code.encoders:
        key = data.draw(st.sampled_from(sorted(code.encoders)), label="slot")
        size = code.splits.size(*key)
        bad = data.draw(st.integers(0, size - 1), label="bad symbol")
        enc = code.encoders[key]

        def off(view):
            out = enc(view)
            return size if out == bad else out

        return code._replace(encoders={**code.encoders, key: off})
    return code


ROUTED = [two_way(), pair_at_one_node(), star3(), line3(), cycle4()]


def routing_code(data):
    """A store-and-forward code on a micro instance.  Some demands get no
    route, so their decoder answers 0 without reading the message."""
    inst = data.draw(st.sampled_from(ROUTED), label="instance")
    outer_n = data.draw(st.integers(2, 4), label="N")
    sizes = [data.draw(st.sampled_from([1, 2, 4, 8]), label="size") for _ in inst.sources]
    routes = []
    for i, j in itertools.product(range(len(inst.sources)), range(len(inst.terminals))):
        if not inst.demand[i][j] or not data.draw(st.booleans(), label="routed"):
            continue
        paths = all_simple_paths(inst, inst.sources[i], inst.terminals[j])
        nodes = data.draw(st.sampled_from(paths), label="path")
        rounds = sorted(data.draw(st.sets(
            st.integers(1, outer_n), min_size=len(nodes) - 1, max_size=len(nodes) - 1),
            label="rounds"))
        routes.append(nc.Route(i, j, nodes, tuple(rounds)))
    try:
        return inst, nc.make_routing_code(inst, routes, 3, outer_n, sizes)
    except CapacityOverflow:
        assume(False)


CHAINS = {n: path_chain(n) for n in (2, 3, 4)}


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_sliced_reports_match_reference(data):
    source = data.draw(st.sampled_from(["routing", "table", "chain"]), label="source")
    if source == "chain":
        stages = CHAINS[data.draw(st.sampled_from(sorted(CHAINS)), label="N")]
        _, inst, code = data.draw(st.sampled_from(stages), label="stage")
    else:
        inst, code = routing_code(data)
        if source == "table":
            code, _ = nc.load_code(nc.code_to_doc(code, inst), inst)
    code = faulty(data, code, inst)
    bits = shrunk_bits(data, code)
    rates = None if bits is None else rates_for(code, bits)
    want = outcome(lambda: ref.check_feasibility(code, inst, rates=rates))
    assert outcome(lambda: nc.check_feasibility(code, inst, rates=rates)) == want
    # with an unbounded budget the walk alone says whether every tuple is
    # correct
    clean = isinstance(want, codes.FeasibilityReport) and want.failures == 0
    box = None if bits is None else [((2 ** b, s),) for b, s in zip(bits, code.message_sizes)]
    assert Engine(code, inst, box)._sliced_pass(10 ** 9) == clean


def count_calls(monkeypatch):
    """Count Engine._call calls: map calls, from the trie or not."""
    calls = [0]
    call = Engine._call

    def counted(self, memo, state):
        calls[0] += 1
        return call(self, memo, state)

    monkeypatch.setattr(Engine, "_call", counted)
    return calls


# map calls of the check on the final chain code: the seed runs every slot
# and each session of each terminal once on the box's first tuple, then the
# walk takes one sink per session, then one per slot, each branching over
# the one digit it reads; a slot whose trie the earlier sinks filled for
# every value it reads, through the tries of the slots it reads, settles
# with none (the joint loop would run 4**N tuples of 4*N + 14 maps)
CHAIN_WALK_CALLS = {2: 60, 3: 84, 4: 108, 5: 132, 6: 156}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sliced_pass_settles_the_path_chain(monkeypatch, n):
    _, inst, code = (CHAINS[n] if n in CHAINS else path_chain(n))[-1]
    runs, calls = count_runs(monkeypatch), count_calls(monkeypatch)
    report = nc.check_feasibility(code, inst)
    assert (report.trials, report.failures, report.failing) == (4 ** n, 0, ())
    assert report.passed and report.certified and runs == []
    assert calls[0] == CHAIN_WALK_CALLS[n]


@pytest.mark.parametrize("case", [*(f"chain{n}" for n in range(2, 7)), "amplified16"])
def test_no_map_run_ends_in_an_unset_read(monkeypatch, case):
    # the seed leaves one clean path in every trie, so the walk finds each
    # unset position by a trie descent, not by a map run.  The sampled walk
    # settles both codes; the exhaustive one settles the chain, and on the
    # clamp code spends its 8 calls (4 tuples of 2 maps) and falls back to
    # running the tuples
    if case == "amplified16":
        inst, code = amplified_clamp(16)
    else:
        _, inst, code = path_chain(int(case[5:]))[-1]
    runs, unset = count_runs(monkeypatch), unset_runs(monkeypatch)
    assert nc.check_feasibility(code, inst, mode="sampled", trials=200).failures == 0
    assert runs == []
    assert nc.check_feasibility(code, inst).failures == 0
    assert unset == []


def test_limit_counts_the_walk_map_calls_past_the_tuple_limit(monkeypatch):
    # at N=11 the final chain code has 4**11 tuples, over the default
    # limit of 2**20, and after the seed's 78 map calls the walk settles it
    # in 198: a limit of 198 certifies the code, one less raises.  At 10 of
    # each message's 11 bits the box is 0 in the top session digit and full
    # in the other ten, laid out over the decoders' split, so the walk
    # still branches per session digit, in 192 calls, 270 with the seed's
    # (as one 1024-value digit per message it would exhaust 198)
    _, inst, code = path_chain(11)[-1]
    runs, calls = count_runs(monkeypatch), count_calls(monkeypatch)
    report = nc.check_feasibility(code, inst)
    assert (report.trials, report.failures, report.passed, report.certified) == \
        (4 ** 11, 0, True, True)
    assert nc.check_feasibility(code, inst, limit=198) == report
    with pytest.raises(EnumerationTooLarge):
        nc.check_feasibility(code, inst, limit=197)
    assert Engine(code, inst, [((2 ** 10, 2 ** 11),)] * 2).box == (((1, 2),) + ((2, 2),) * 10,) * 2
    calls[0] = 0
    rated = nc.check_feasibility(code, inst, rates=[Fraction(10, code.inner_n * code.outer_n)] * 2,
                                 limit=198)
    assert (rated.trials, rated.failures, rated.certified, calls[0]) == (4 ** 10, 0, True, 270)
    assert runs == []


@pytest.mark.parametrize("digits, radices, laid", [
    (((16, 16),), (4, 4), ((4, 4), (4, 4))),
    (((8, 16),), (4, 4), ((2, 4), (4, 4))),
    (((3, 16),), (4, 4), ((1, 4), (3, 4))),
    (((4, 16),), (4, 4), ((1, 4), (4, 4))),
    (((1, 16),), (4, 4), ((1, 4), (1, 4))),
    (((2, 4), (3, 4)), (2, 2, 4), ((1, 2), (2, 2), (3, 4))),
    (((3, 4), (2, 4)), (2, 2, 4), None),  # {0, 1, 2} is no box over 2 x 2
    (((6, 16),), (4, 4), None),  # no digit box over the split
    (((3, 8),), (4, 4), None),  # 8 is no run of the radices
    (((3, 4),), (4, 4), None),  # radices left over
])
def test_box_digits_are_laid_out_over_the_split(digits, radices, laid):
    assert codes._over(digits, radices) == laid
    if laid is not None:
        assert codes._values(laid) == codes._values(digits)


FACTORED = [case for case in CASES
            if any(isinstance(dec, codes.Joined) for dec in case[2].decoders.values())]


@pytest.mark.parametrize("case", FACTORED, ids=[name for name, *_ in FACTORED])
def test_factored_walk_settles_and_matches_reference_at_rates(case):
    # the walk settles every code whose decoders are Joined (its whole
    # spaces are compared with the reference in test_reports_match_reference);
    # at rates of about a quarter of each message space it may spend its
    # budget first, and the report must still equal the reference's
    _, inst, code = case
    assert Engine(code, inst)._sliced_pass(10 ** 9)
    rates = [Fraction(max(0, s.bit_length() - 2), code.outer_n * code.inner_n)
             for s in code.message_sizes]
    report = nc.check_feasibility(code, inst, rates=rates)
    assert report == ref.check_feasibility(code, inst, rates=rates)
    assert report.failures == 0


def test_walk_past_a_rated_space_only_falls_back(monkeypatch):
    # two sessions of a three-value message: the rated space of 4 messages
    # is no digit box over the two ternary session digits, so it stays one
    # digit, messages 0..3, and the walk never meets the fault
    # at message 5; reading the message whole, it spends its budget of 8
    # map calls (4 tuples of 2 maps) and falls back to the 4 tuples
    inst = single_edge()
    base = nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b"), (1,))], 2, 1, [3])
    code = nc.parallel_repeat(base, inst, 2)
    enc = code.encoders[(0, 1, nc.FWD)]
    code = code._replace(encoders={(0, 1, nc.FWD): lambda view: 9 if view.message(0) == 5 else enc(view)})
    rates = [Fraction(1, 2)]
    runs = count_runs(monkeypatch)
    report = nc.check_feasibility(code, inst, rates=rates)
    assert report == ref.check_feasibility(code, inst, rates=rates)
    assert (report.trials, report.failures) == (4, 0)
    assert runs == [(0,), (1,), (2,), (3,)]
    with pytest.raises(SymbolOutOfRange):
        nc.check_feasibility(code, inst)


def with_wrong_session(code, j, s):
    """The code with terminal j's Joined decoder reading every symbol of
    session s as 0: it decodes 0 there, wrong exactly where that session's
    digit of the demanded message is 1."""
    dec = code.decoders[j]

    def sessions(state):
        view = dec.sessions(state)

        def session(k):
            seen = view(k)
            if k != s:
                return seen
            return ref.FnView(seen.node, seen.time, seen.message, lambda sender, t: 0)

        return session

    return code._replace(decoders={**code.decoders, j: codes.Joined(dec.base, sessions, dec.count, dec.radices)})


@pytest.mark.parametrize("s", range(3))
def test_one_wrong_session_is_reported_as_the_reference(s):
    # every session is a sink of its own, so the walk finds the one that
    # decodes a wrong digit; the joint loop then lists its failing tuples
    _, inst, code = CHAINS[3][-1]
    code = with_wrong_session(code, 0, s)
    want = ref.check_feasibility(code, inst)
    assert nc.check_feasibility(code, inst) == want
    assert want.failures == 4 ** 3 // 2
    assert not Engine(code, inst)._sliced_pass(10 ** 9)


def test_a_wrong_decoder_ends_the_walk_before_any_slot_sink(monkeypatch):
    # decoders are walked first, so a code that misdecodes at its first
    # leaf falls back without walking a single slot
    _, inst, code = CHAINS[3][-1]
    dec, size = code.decoders[0], code.message_sizes[inst.demanded_at(0)[0]]

    def wrong(view):
        return tuple((x + 1) % size for x in dec(view))

    code = code._replace(decoders={**code.decoders, 0: wrong})
    sinks = []
    walk = Engine._walk

    def recorded(self, sink, *args):
        sinks.append(sink[0][0])
        return walk(self, sink, *args)

    monkeypatch.setattr(Engine, "_walk", recorded)
    assert nc.check_feasibility(code, inst) == ref.check_feasibility(code, inst)
    assert sinks and set(sinks) == {wrong}


def full_cone_code(wrong_at=None):
    """a sends both its messages at round 1 as one symbol, and b decodes
    each from it: every slot and decoder reads every message.  With
    `wrong_at`, terminal 1 decodes that symbol wrong."""
    inst = pair_at_one_node()

    def decoder(j):
        def dec(view):
            symbol = view.recv("a", 1)
            if j == 1 and symbol == wrong_at:
                return (1 - symbol % 2,)
            return (symbol // 2 if j == 0 else symbol % 2,)
        return dec

    return inst, nc.NetworkCode(
        inner_n=2, outer_n=1, message_sizes=(2, 2),
        splits=nc.AlphabetSplit({(0, 1): (4, 1)}),
        encoders={(0, 1, nc.FWD): lambda view: 2 * view.message(0) + view.message(1)},
        decoders={0: decoder(0), 1: decoder(1)},
    )


def test_full_cone_code_falls_back_within_its_budget(monkeypatch):
    # decoder 0's walk spends the 12 map calls the four tuples make (three
    # maps each), so the joint loop runs
    for wrong_at in (None, 3):
        inst, code = full_cone_code(wrong_at)
        want = ref.check_feasibility(code, inst)
        runs = count_runs(monkeypatch)
        assert nc.check_feasibility(code, inst) == want
        assert len(runs) == 4
        assert want.failures == (wrong_at is not None)


# A sampled check walks first too, with a budget of `trials` times the
# number of maps; a code the walk settles is reported with no tuple drawn,
# and any other runs the reference's seeded draws.

def sampled(code, inst, trials, seed):
    """The engine's and the reference's sampled reports (or errors)."""
    kwargs = {"mode": "sampled", "trials": trials, "seed": seed}
    return (outcome(lambda: nc.check_feasibility(code, inst, **kwargs)),
            outcome(lambda: ref.check_feasibility(code, inst, **kwargs)))


def amplified_clamp(m):
    inst = single_edge()
    clamp = clamp_code(inst, "a", "b", 2, 1, 1)
    return inst, nc.amplify(clamp, inst, m, "repetition", Fraction(1, 4), strict=False)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sampled_check_of_a_settled_code_draws_no_tuple(monkeypatch, seed):
    # the clamp code amplified over 16 sessions (4 tuples) and the final
    # path-chain code at N=6 (4,096 tuples)
    for inst, code in (amplified_clamp(16), path_chain(6)[-1][1:]):
        runs = count_runs(monkeypatch)
        got, want = sampled(code, inst, 200, seed)
        assert runs == []
        assert got == want
        assert (got.failures, got.passed, got.certified) == (0, True, False)


def test_sampled_check_of_an_unsettled_code_draws_every_tuple(monkeypatch):
    inst = single_edge()
    code = clamp_code(inst, "a", "b", 2, 1, 1)
    runs = count_runs(monkeypatch)
    got, want = sampled(code, inst, 500, 3)
    assert got == want
    assert len(runs) == 500 and 0 < got.failures < 500


def test_sampled_check_raises_only_where_a_seed_draws_the_raising_message():
    # the decoder raises on message 13 alone, so the walk falls back and a
    # seed whose 5 draws miss 13 still gets its report
    inst = single_edge()
    base = nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b"), (1,))], 4, 1, [16])
    dec = base.decoders[0]

    def decoder(view):
        out = dec(view)
        if out == (13,):
            raise ValueError("decoder fails on 13")
        return out

    code = base._replace(decoders={0: decoder})
    kinds = set()
    for seed in range(12):
        got, want = sampled(code, inst, 5, seed)
        assert got == want
        kinds.add(type(got))
    assert kinds == {codes.FeasibilityReport, tuple}


@pytest.mark.parametrize("wrong_at", [None, 3])
def test_sampled_walk_stays_within_trials_times_maps(monkeypatch, wrong_at):
    # the correct full-cone code needs 24 walk calls over its 3 maps: 7
    # trials (21 calls) fall back to drawing them, 8 settle it; the seed's
    # one call per map is outside that budget
    inst, code = full_cone_code(wrong_at)
    calls, walked = count_calls(monkeypatch), []
    sliced = Engine._sliced_pass

    def recorded(self, *args):
        before = calls[0]
        settled = sliced(self, *args)
        walked.append(calls[0] - before)
        return settled

    monkeypatch.setattr(Engine, "_sliced_pass", recorded)
    for trials in (7, 8):
        runs = count_runs(monkeypatch)
        got, want = sampled(code, inst, trials, 7)
        assert got == want
        assert walked[-1] <= (trials + 1) * 3
        assert len(runs) == (0 if wrong_at is None and trials == 8 else trials)


def test_one_failing_terminal_report_matches_reference():
    inst = two_way()
    base = nc.make_routing_code(
        inst, [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("b", "a"), (2,))],
        2, 2, [4, 4])
    dec = base.decoders[1]
    code = base._replace(decoders={
        **base.decoders, 1: lambda view: ((dec(view)[0] + 1) % 4 if dec(view)[0] == 2 else
                                          dec(view)[0],)})
    report = nc.check_feasibility(code, inst)
    assert report == ref.check_feasibility(code, inst)
    assert report.failures == 4
    assert report.failing == ((0, 2), (1, 2), (2, 2), (3, 2))


def test_decoder_that_reads_nothing_fails_where_its_guess_is_wrong():
    # the decoder reads nothing, so only its comparison with the demanded
    # message branches the walk; the joint loop then finds the failures
    inst = single_edge()
    code = nc.NetworkCode(
        inner_n=2, outer_n=1, message_sizes=(4,),
        splits=nc.AlphabetSplit({(0, 1): (4, 1)}),
        encoders={(0, 1, nc.FWD): lambda view: 0}, decoders={0: lambda view: (1,)},
    )
    report = nc.check_feasibility(code, inst)
    assert report == ref.check_feasibility(code, inst)
    assert report.failing == ((0,), (2,), (3,))


def test_unread_slot_out_of_range_still_raises():
    # no decoder reads b's round-2 symbol, which leaves its alphabet at w=1
    inst = single_edge()
    code = nc.NetworkCode(
        inner_n=2, outer_n=2, message_sizes=(2,),
        splits=nc.AlphabetSplit({(0, 1): (2, 1), (0, 2): (1, 2)}),
        encoders={
            (0, 1, nc.FWD): lambda view: view.message(0),
            (0, 2, nc.BWD): lambda view: 2 * view.recv("a", 1),
        },
        decoders={0: lambda view: (view.recv("a", 1),)},
    )
    got = outcome(lambda: nc.check_feasibility(code, inst))
    assert got == outcome(lambda: ref.check_feasibility(code, inst))
    assert got[0] is SymbolOutOfRange


def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_read_chain_longer_than_the_recursion_limit(monkeypatch):
    # message 0 ping-pongs between a and b for more rounds than the
    # recursion limit allows frames; message 1 (512 values) is demanded by
    # no one, so no sink branches over it and the walk's map calls stay
    # within the 1,024 tuples' budget
    limit = stack_depth() + 100
    hops = limit + 21 - limit % 2  # odd: the route ends at b
    inst = make(inst_doc("ab", [("a", "b", "1")], ["a", "a"], ["b"], [[1], [0]]))
    nodes = tuple("ab"[h % 2] for h in range(hops + 1))
    assert nodes[-1] == "b"
    code = nc.make_routing_code(
        inst, [nc.Route(0, 0, nodes, tuple(range(1, hops + 1)))], 1, hops, [2, 512])
    runs = count_runs(monkeypatch)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        assert hops > sys.getrecursionlimit()
        report = nc.check_feasibility(code, inst)
    finally:
        sys.setrecursionlimit(old)
    assert (report.trials, report.failures, report.failing) == (1024, 0, ())
    assert report.passed and report.certified and runs == []


def test_map_that_swallows_every_error():
    # a's round-1 encoder reads message 0 inside a bare except, and leaves
    # its alphabet at w=3; no decoder reads it, so only the slot's own
    # leaves find that, and only if the swallowed read is not taken as
    # the map's answer
    inst = make(inst_doc("ab", [("a", "b", "1")], ["a", "a"], ["b"], [[0], [1]]))

    def swallowing(view):
        try:
            w = view.message(0)
        except:  # noqa: E722 - the case under test
            w = 0
        return 5 if w == 3 else w % 2

    code = nc.NetworkCode(
        inner_n=1, outer_n=2, message_sizes=(4, 2),
        splits=nc.AlphabetSplit({(0, 1): (2, 1), (0, 2): (2, 1)}),
        encoders={(0, 1, nc.FWD): swallowing, (0, 2, nc.FWD): lambda view: view.message(1)},
        decoders={0: lambda view: (view.recv("a", 2),)},
    )
    got = outcome(lambda: nc.check_feasibility(code, inst))
    assert got == outcome(lambda: ref.check_feasibility(code, inst))
    assert got[0] is SymbolOutOfRange
    engine = Engine(code, inst)
    assert not engine._sliced_pass(8)
    for tup in itertools.product(range(4), range(2)):
        want = outcome(lambda: ref.execute(code, inst, tup))
        assert outcome(lambda: engine.trace(engine.run(tup))) == want


def test_exhaustive_check_leaves_no_cyclic_garbage():
    cases = [CHAINS[3][-1][1:], full_cone_code(3), full_cone_code()]
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for inst, code in cases:
            nc.check_feasibility(code, inst)
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# ------------------------------------------------------- covered slot sinks

def relay_code():
    """(line3, code): message 0 (4 values) goes a->b at round 1, b->c at 2."""
    inst = line3()
    return inst, nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b", "c"), (1, 2))], 2, 2, [4])


def sink_calls(monkeypatch, engine):
    """Per sink of `engine`, in walk order: (its node, whether its walk
    settles, the map calls it makes), each sink walked on its own after
    the ones before it."""
    calls, walked = count_calls(monkeypatch), []
    for sink in engine._sinks:
        before = calls[0]
        settled = engine._sliced_pass(4, 10 ** 6, [sink])
        walked.append((sink[0][1], settled, calls[0] - before))
    return walked


def test_covered_slot_sink_makes_no_map_call(monkeypatch):
    # the decoder at c pulls both slots over message 0's four values, so
    # the a->b encoder's trie, which reads message 0 alone, covers its
    # sink's box: that sink settles without a call
    inst, code = relay_code()
    walked = sink_calls(monkeypatch, Engine(code, inst))
    assert walked[:2] == [("c", True, 15), ("a", True, 0)]
    # on its own, with an empty trie, the same sink walks: one call that
    # meets the unset message, then one per value
    engine = Engine(code, inst)
    calls = count_calls(monkeypatch)
    assert engine._sliced_pass(4, 10 ** 6, [engine._sinks[1]]) and calls[0] == 5


def test_slot_whose_trie_branches_on_a_slot_settles_from_that_slots_trie(monkeypatch):
    # the b->c encoder reads the a->b symbol, a slot position the walk has
    # not set; the a->b trie holds that symbol for each of message 0's four
    # values, and the b->c trie an output for each symbol, so its sink
    # settles without a call
    inst, code = relay_code()
    walked = sink_calls(monkeypatch, Engine(code, inst))
    assert walked[2] == ("b", True, 0)


def test_slot_read_through_a_trie_without_a_leaf_is_walked(monkeypatch):
    # the a->b encoder raises on message value 2, so its trie holds no leaf
    # for 2 and the b->c sink, which reads the a->b symbol, is walked: it
    # meets the raising encoder and does not settle
    inst, code = relay_code()
    key = (0, 1, nc.FWD)
    enc = code.encoders[key]

    def raising(view):
        if view.message(0) == 2:
            raise ValueError("relay fails on 2")
        return enc(view)

    engine = Engine(code._replace(encoders={**code.encoders, key: raising}), inst)
    assert sink_calls(monkeypatch, engine) == [("c", False, 10), ("a", False, 4), ("b", False, 7)]
    assert 2 not in engine._memos[key][4][None][1]


def test_truncated_tries_are_walked(monkeypatch):
    # with room for 4 trie nodes no slot's trie covers its box, so every
    # slot sink walks (106 calls, 24 of them the seed's) and the reports
    # stay the reference's
    monkeypatch.setattr(codes, "TRIE_NODE_CAP", 4)
    _, inst, code = CHAINS[2][-1]
    calls = count_calls(monkeypatch)
    assert nc.check_feasibility(code, inst) == ref.check_feasibility(code, inst)
    assert calls[0] == 106
    for inst, code in (relay_code(), full_cone_code(), full_cone_code(3)):
        assert nc.check_feasibility(code, inst) == ref.check_feasibility(code, inst)
        for trials in (1, 5):
            got, want = sampled(code, inst, trials, 3)
            assert got == want


def test_slot_raising_on_one_message_value_is_reported():
    # the round-2 a->b encoder, which no decoder reads, raises on message
    # value 2: its trie never holds a leaf for 2, so its sink walks and
    # the check raises as the reference does, even after runs on every
    # other value filled the trie
    inst = single_edge()

    def raising(view):
        if view.message(0) == 2:
            raise ValueError("encoder fails on 2")
        return view.message(0)

    code = nc.NetworkCode(
        inner_n=2, outer_n=2, message_sizes=(4,),
        splits=nc.AlphabetSplit({(0, 1): (4, 1), (0, 2): (4, 1)}),
        encoders={(0, 1, nc.FWD): lambda view: view.message(0), (0, 2, nc.FWD): raising},
        decoders={0: lambda view: (view.recv("a", 1),)},
    )
    want = outcome(lambda: ref.check_feasibility(code, inst))
    assert want == (ValueError, "encoder fails on 2")
    assert outcome(lambda: nc.check_feasibility(code, inst)) == want
    engine = Engine(code, inst)
    for m in (0, 1, 3):
        engine.run([m])
    assert not engine._sliced_pass(4, 10 ** 6)


# ------------------------------------------------------ engine construction

def raising_at_two():
    """(single_edge, code): the round-2 a->b encoder raises on message 2,
    as in test_slot_raising_on_one_message_value_is_reported."""
    inst = single_edge()

    def raising(view):
        if view.message(0) == 2:
            raise ValueError("encoder fails on 2")
        return view.message(0)

    return inst, nc.NetworkCode(
        inner_n=2, outer_n=2, message_sizes=(4,),
        splits=nc.AlphabetSplit({(0, 1): (4, 1), (0, 2): (4, 1)}),
        encoders={(0, 1, nc.FWD): lambda view: view.message(0), (0, 2, nc.FWD): raising},
        decoders={0: lambda view: (view.recv("a", 1),)},
    )


@pytest.mark.parametrize("case, budget, settles", [
    ("settling", 10 ** 9, True), ("misdecoding", 10 ** 9, False), ("raising", 10 ** 9, False),
    ("out of budget", 40, False),
])
def test_every_walk_frame_of_a_pass_shares_one_state(monkeypatch, case, budget, settles):
    # the frames backtrack in place: each unsets what it set when it
    # returns, whether its sink settled, misdecoded, met a raising map or
    # ran out of budget, so every sink starts from the unset layout and the
    # pass ends on it
    _, inst, code = CHAINS[3][-1]
    if case == "misdecoding":
        code = with_wrong_session(code, 0, 1)
    elif case == "raising":
        inst, code = raising_at_two()
    frames, tops, depth = [], [], [0]
    walk = Engine._walk

    def recorded(self, sink, state, *args):
        frames.append(state)
        if not depth[0]:
            tops.append(state[:])
        depth[0] += 1
        try:
            return walk(self, sink, state, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Engine, "_walk", recorded)
    engine = Engine(code, inst)
    assert engine._sliced_pass(4 ** 3, budget) == settles
    assert len(frames) > len(tops) > 0  # some frame branched
    assert all(state is frames[0] for state in frames)
    unset = tops[0]
    assert all(unset[pos] == -1 for pos in engine._slots)
    assert tops == [unset] * len(tops) and frames[0] == unset


def test_first_missing_encoder_in_round_order_is_named():
    # b-c lacks its round-1 encoder and a-b its round-2 one: the round
    # comes before the edge, so b-c is named
    inst = line3()
    code = nc.NetworkCode(
        inner_n=1, outer_n=2, message_sizes=(2,),
        splits=nc.AlphabetSplit({(0, 2): (2, 1), (1, 1): (2, 1), (0, 1): (2, 1)}),
        encoders={(0, 1, nc.FWD): lambda view: view.message(0)},
        decoders={0: lambda view: (0,)},
    )
    with pytest.raises(MalformedDocument, match="missing encoder for edge 'b'-'c' t=1 fwd"):
        Engine(code, inst)


def test_encoders_outside_the_code_are_ignored():
    # encoders keyed past the last round, at an unknown edge or with a bad
    # direction are never run
    inst = single_edge()
    base = nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b"), (1,))], 2, 1, [4])

    def never(view):
        raise AssertionError("ran an encoder outside the code")

    stray = {(0, 2, nc.FWD): never, (1, 1, nc.FWD): never, (-1, 1, nc.BWD): never,
             (0, 1, "up"): never, (0, 0, nc.BWD): never}
    code = base._replace(encoders={**base.encoders, **stray})
    engine = Engine(code, inst)
    assert list(engine._memos) == [(0, 1, nc.FWD), 0]
    assert nc.check_feasibility(code, inst) == nc.check_feasibility(base, inst)
    assert nc.execute(code, inst, [3]) == nc.execute(base, inst, [3])


def test_encoder_of_a_size_one_slot_is_run_and_checked():
    # b->a has no split entry, so its alphabet is {0}: its encoder still
    # runs, and its output 1 is out of range
    inst = single_edge()
    base = nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b"), (1,))], 2, 1, [4])
    code = base._replace(encoders={**base.encoders, (0, 1, nc.BWD): lambda view: 1})
    with pytest.raises(SymbolOutOfRange, match="t=1 bwd produced 1, alphabet size 1"):
        nc.execute(code, inst, [0])
    assert outcome(lambda: nc.check_feasibility(code, inst)) == \
        outcome(lambda: ref.check_feasibility(code, inst))


# ------------------------------------------------------------- state layout

def one_hop_code(size, outer_n):
    """(inst, code): `size` messages routed a->b at round 1 of `outer_n`,
    over one edge of capacity 40."""
    inst = make(inst_doc("ab", [("a", "b", "40")], ["a"], ["b"], [[1]]))
    return inst, nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b"), (1,))], 1, outer_n, [size])


def test_the_state_holds_messages_live_slots_digits_and_a_zero_cell():
    # the final N=6 chain engine: its 2 messages, its 36 live slots in
    # round order, 6 digits per message and one last cell that holds 0,
    # which every other round of each edge reads as position -1, not a
    # position per edge, direction and round
    _, inst, code = path_chain(6)[-1]
    engine = Engine(code, inst)
    digits = sum(len(radices) for _, radices in engine._digits.values())
    assert (len(inst.sources), len(engine._slots), digits) == (2, 36, 12)
    assert len(engine._blank) == 2 + 36 + 12 + 1 == 51 and engine._blank[-1] == 0
    assert list(engine._slots) == list(range(2, 38))
    rows = [row for inbound in engine._inbound.values() for row in inbound.values()]
    assert sorted(pos for row in rows for pos in row if pos != -1) == list(engine._slots)


def test_a_one_hop_state_does_not_grow_with_the_rounds():
    # one message, one live slot and the zero cell at N = 2 and at N = 2^12
    assert [len(Engine(code, inst)._blank) for inst, code in
            (one_hop_code(4, 2), one_hop_code(4, 2 ** 12))] == [3, 3]


def test_every_joint_run_copies_the_live_state(monkeypatch):
    # the one-hop check at 2^14 messages over 2^12 rounds falls into the
    # joint loop (its walk budget is two calls short, ROADMAP item 15), and
    # each of its 2^14 runs copies a state of 3 positions, whatever N is
    inst, code = one_hop_code(2 ** 14, 2 ** 12)
    lengths, run = [], Engine.run
    monkeypatch.setattr(Engine, "run", lambda self, messages: lengths.append(len(self._blank))
                        or run(self, messages))
    report = nc.check_feasibility(code, inst)
    assert (report.trials, report.failures, report.certified) == (2 ** 14, 0, True)
    assert lengths == [3] * 2 ** 14


# --------------------------------------------------------- routing oracle

def shared_routes(data):
    """(instance, routes, N, sizes) of a routing code whose routes often
    share slots: a route may be drawn twice, and rounds come from 1..N
    with N at most 3, so routes over one edge tend to meet."""
    inst = data.draw(st.sampled_from(ROUTED), label="instance")
    outer_n = data.draw(st.integers(2, 3), label="N")
    sizes = [data.draw(st.sampled_from([1, 2, 4]), label="size") for _ in inst.sources]
    pairs = [(i, j) for i, row in enumerate(inst.demand) for j, wanted in enumerate(row) if wanted]
    routes = []
    for _ in range(data.draw(st.integers(1, 4), label="routes")):
        i, j = data.draw(st.sampled_from(pairs), label="pair")
        paths = all_simple_paths(inst, inst.sources[i], inst.terminals[j])
        nodes = data.draw(st.sampled_from(paths), label="path")
        if len(nodes) - 1 > outer_n:
            continue
        rounds = sorted(data.draw(st.sets(
            st.integers(1, outer_n), min_size=len(nodes) - 1, max_size=len(nodes) - 1),
            label="rounds"))
        copies = data.draw(st.integers(1, 2), label="copies")
        routes += [nc.Route(i, j, nodes, tuple(rounds))] * copies
    return inst, routes, outer_n, sizes


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_routing_maps_match_the_per_call_builder(data):
    # every encoder and decoder, on drawn messages and received symbols
    # (some outside their slot's alphabet), answers as the builder that
    # worked out each hop on every call
    inst, routes, outer_n, sizes = shared_routes(data)
    built = outcome(lambda: nc.make_routing_code(inst, routes, 6, outer_n, sizes))
    oracle = outcome(lambda: ref.make_routing_code(inst, routes, 6, outer_n, sizes))
    if not isinstance(oracle, nc.NetworkCode):  # an overfull slot
        assert built == oracle
        return
    assert (built.splits, built.message_sizes) == (oracle.splits, oracle.message_sizes)
    assert list(built.encoders) == list(oracle.encoders)
    assert list(built.decoders) == list(oracle.decoders)
    wide = data.draw(st.booleans(), label="wide")
    messages = [data.draw(st.integers(0, s - 1), label="message") for s in sizes]
    symbols = {}
    for key in itertools.product(range(len(inst.edges)), range(1, outer_n + 1), codes.DIRECTIONS):
        size = built.splits.size(*key) * (2 if wide else 1)
        symbols[key] = data.draw(st.integers(0, size - 1), label="symbol")

    def view(node, horizon):
        def message(i):
            if inst.sources[i] != node:
                raise KeyError(f"node {node!r} holds no message {i}")
            return messages[i]

        def recv(sender, t):
            idx, d = inst.slot(sender, node)
            return symbols[(idx, t, d)]

        return ref.FnView(node, horizon, message, recv)

    maps = [(built.encoders[key], oracle.encoders[key], slot_tail(inst, key[0], key[2]), key[1] - 1)
            for key in built.encoders]
    maps += [(built.decoders[j], oracle.decoders[j], inst.terminals[j], outer_n)
             for j in built.decoders]
    for got, want, node, horizon in maps:
        assert outcome(lambda: got(view(node, horizon))) == \
            outcome(lambda: want(view(node, horizon)))


def test_a_walk_gives_up_at_once_on_a_branch_wider_than_its_budget(monkeypatch):
    # a message of 10^12 values on a one-edge routing code: each value costs
    # the walk a map call, so it gives up before it tries one beyond the
    # seed's; it once made 2^20 map calls (3 s) before the same refusal
    calls = []
    call = Engine._call
    monkeypatch.setattr(Engine, "_call", lambda self, memo, state: calls.append(1) or call(self, memo, state))
    inst = make(inst_doc("ab", [("a", "b", "40")], ["a"], ["b"], [[1]]))
    code = nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b"), (1,))], 1, 1, [10 ** 12])
    with pytest.raises(EnumerationTooLarge, match=r"^1000000000000 message tuples exceed limit 1048576$"):
        nc.check_feasibility(code, inst)
    # the seed runs the encoder, then the decoder, on message 0; the walk's
    # decoder, then the encoder it pulls, each finds an unset value in its trie
    assert len(calls) == 4
    code = code._replace(message_sizes=(3,))
    assert nc.check_feasibility(code, inst, limit=3).passed
    with pytest.raises(EnumerationTooLarge, match="3 message tuples exceed limit 2"):
        nc.check_feasibility(code, inst, limit=2)


def test_one_route_slots_run_without_the_digit_helpers(monkeypatch):
    # each slot of a-b-c carries one route, so its maps read the carried
    # value by place value: a check calls neither digit helper through
    # netcode.routing.  A slot two routes share still packs its symbol.
    calls = []

    def counted(name):
        fn = getattr(rational, name)
        return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(routing, "combine_digits", counted("combine_digits"))
    monkeypatch.setattr(routing, "split_digits", counted("split_digits"), raising=False)
    inst = line3()
    code = nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b", "c"), (1, 2))], 2, 2, [4])
    assert nc.check_feasibility(code, inst).failures == 0
    assert calls == []
    pair = pair_at_one_node()
    shared = nc.make_routing_code(
        pair, [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("a", "b"), (1,))], 2, 1, [2, 2])
    assert nc.check_feasibility(shared, pair).failures == 0
    assert set(calls) == {"combine_digits"}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_table_maps_match_a_lookup_of_the_packed_reads(data):
    # every loaded table encoder and decoder, on views whose messages and
    # symbols may fall outside their radices and whose read of one slot may
    # raise, answers as table[combine_digits(reads, radices)]: a later read
    # that raises wins over an earlier digit out of range
    inst, routed = routing_code(data)
    doc = nc.code_to_doc(routed, inst)
    code, _ = nc.load_code(doc, inst)
    maps = [(code.encoders[key], item["table"], slot_tail(inst, key[0], key[2]), key[1] - 1, None)
            for key, item in zip(sorted(routed.encoders), doc["encoders"])]
    maps += [(code.decoders[item["terminal"]], item["table"], inst.terminals[item["terminal"]],
              code.outer_n, [code.message_sizes[i] for i in inst.demanded_at(item["terminal"])])
             for item in doc["decoders"]]
    for got, table, node, horizon, out_radices in maps:
        own, dims, radices = _domain(inst, code, node, horizon)
        messages = {i: data.draw(st.integers(-1, 2 * r), label="message") for i, r in zip(own, radices)}
        symbols = {(sender, tp): data.draw(st.integers(-1, 2 * w), label="symbol")
                   for _, tp, _, sender, w in dims}
        failing = data.draw(st.sampled_from([None, *symbols]), label="failing read")

        def recv(sender, tp):
            if (sender, tp) == failing:
                raise LookupError(f"no symbol from {sender!r} at t={tp}")
            return symbols[(sender, tp)]

        def want():
            reads = [messages[i] for i in own] + [recv(sender, tp) for _, tp, _, sender, _ in dims]
            entry = table[rational.combine_digits(reads, radices)]
            return entry if out_radices is None else rational.split_digits(entry, out_radices)

        view = ref.FnView(node, horizon, messages.__getitem__, recv)
        assert outcome(lambda: got(view)) == outcome(want)


# ------------------------------------------------ one recording view per memo

def counted_views(monkeypatch):
    """The node of every `_Recording` view built from now on, in order."""
    built = []

    class Counted(codes._Recording):
        __slots__ = ()

        def __init__(self, node, *args):
            built.append(node)
            super().__init__(node, *args)

    monkeypatch.setattr(codes, "_Recording", Counted)
    return built


@pytest.mark.parametrize("case", [relay_code, lambda: CHAINS[3][-1][1:], lambda: amplified_clamp(16)],
                         ids=["relay", "chain3", "amplified16"])
def test_an_engine_builds_one_recording_view_per_memo(monkeypatch, case):
    # every run of a map that misses its trie re-points its memo's view, so
    # an engine builds one view per memo, with the memo (a Joined
    # decoder's session sinks share its view), however many calls it makes
    inst, code = case()
    built, calls = counted_views(monkeypatch), count_calls(monkeypatch)
    engine = Engine(code, inst)
    memos = list(engine._memos.values())
    assert len(built) == len(memos) == len({id(memo[5]) for memo in memos})
    assert {id(sink[0][5]) for sink in engine._sinks} == {id(memo[5]) for memo in memos}
    engine._sliced_pass(math.prod(map(codes._size, engine.box)))
    for tup in itertools.islice(itertools.product(*map(codes._values, engine.box)), 16):
        engine.decode(engine.run(tup))
    assert len(built) == len(memos) and calls[0] > 2 * len(memos)


def test_a_map_that_swallows_unset_raises_unset_at_its_first_unset_read():
    # the memo's view keeps the first unset position a run reads, so a map
    # that catches _Unset and answers anyway raises it for that position;
    # the next run starts clean, and is stored
    inst = make(inst_doc("ab", [("a", "b", "1")], ["a", "a"], ["b"], [[1], [0]]))

    def swallowing(view):
        for i in (1, 0):
            try:
                view.message(i)
            except codes._Unset:
                pass
        return 0

    code = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2, 2), splits=nc.AlphabetSplit({(0, 1): (2, 1)}),
        encoders={(0, 1, nc.FWD): swallowing}, decoders={0: lambda view: (view.recv("a", 1),)})
    engine = Engine(code, inst)
    memo, state = engine._memos[(0, 1, nc.FWD)], engine._blank[:]
    for unset, first in (((0, 1), 1), ((0,), 0), ((1,), 1)):
        state[:2] = [-1 if i in unset else 0 for i in range(2)]
        with pytest.raises(codes._Unset) as raised:
            engine._call(memo, state)
        assert raised.value.args == (first,) and memo[4] == {}
    state[:2] = [1, 0]
    assert engine._call(memo, state) == 0 and memo[5].unset is None
    assert memo[4] == {None: [1, {0: [0, {1: 0}]}]}
