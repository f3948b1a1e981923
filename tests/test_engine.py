"""The memoizing Engine against the per-tuple reference executor.

Each property check warms one Engine on a list of message tuples, then
runs the list again so that the second pass answers from the tries, and
requires every trace, decoded output and feasibility report to equal the
reference's (tests/reference_exec.py).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import netcode as nc
from netcode import codes
from netcode.codes import Engine
from netcode.errors import SymbolOutOfRange

import reference_exec as ref
from conftest import (
    clamp_code,
    identity_suite,
    inst_doc,
    make,
    pair_at_one_node,
    path_chain,
    single_edge,
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
