from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import netcode as nc
from netcode import codes, rational
from netcode.graphs import slot_tail
from netcode.errors import (
    BadRate,
    BadRoute,
    CapacityOverflow,
    EnumerationTooLarge,
    MalformedDocument,
    SplitCapacityViolation,
    SymbolOutOfRange,
)

from netcode.transforms import remapped

from reference_exec import FnView, interval_valid
from conftest import (
    clamp_code,
    inst_doc,
    line3,
    make,
    pair_at_one_node,
    single_edge,
    single_edge_cap2,
    two_way,
    unit_code,
)


def test_edge_alphabets_and_slots():
    inst = line3()
    assert nc.edge_alphabets(inst, 1) == (2, 2)
    assert nc.edge_alphabets(inst, 3) == (8, 8)
    # b sees both edges, forward slot before backward slot per edge
    assert nc.incoming_slots(inst, "b") == ((0, nc.FWD, "a"), (1, nc.BWD, "c"))
    assert nc.incoming_slots(inst, "a") == ((0, nc.BWD, "b"),)
    assert slot_tail(inst, 0, nc.FWD) == "a"
    assert slot_tail(inst, 0, nc.BWD) == "b"


def test_edge_alphabets_are_computed_once_per_capacity_and_n(monkeypatch):
    # an instance keeps its alphabets by n, each distinct capacity computed
    # once, so building a routing code and checking it twice compute
    # floor(2^(cap*n)) once per (cap, n); an equal instance built afresh
    # computes its own
    exponents, real = [], rational.floor_pow2

    def counted(exponent):
        exponents.append(exponent)
        return real(exponent)

    monkeypatch.setattr(rational, "floor_pow2", counted)

    def triangle():
        return make(inst_doc("abc", [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "2")],
                             ["a"], ["c"], [[1]]))

    inst = triangle()
    code = nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b", "c"), (1, 2))], 2, 2, [4])
    assert nc.check_feasibility(code, inst).passed and nc.check_feasibility(code, inst).passed
    assert sorted(exponents) == [2, 4]
    assert nc.edge_alphabets(inst, 2) == (4, 4, 16)
    assert nc.check_feasibility(code, triangle()).passed
    assert sorted(exponents) == [2, 2, 4, 4]


def test_alphabet_split_basics():
    sp = nc.AlphabetSplit({(0, 1): (2, 1), (1, 3): (1, 1)})
    assert sp.shape(0, 1) == (2, 1)
    assert sp.shape(1, 3) == (1, 1)  # trivial entries are dropped
    assert sp.shape(5, 9) == (1, 1)
    assert sp.size(0, 1, nc.FWD) == 2
    assert sp.size(0, 1, nc.BWD) == 1
    assert sp.items() == [((0, 1), (2, 1))]
    assert sp == nc.AlphabetSplit({(0, 1): (2, 1)})
    with pytest.raises(SplitCapacityViolation):
        nc.AlphabetSplit({(0, 1): (0, 2)})


def test_alphabet_split_validate():
    inst = line3()
    nc.AlphabetSplit({(0, 1): (2, 1)}).validate(inst, 1, 1)
    with pytest.raises(SplitCapacityViolation):
        nc.AlphabetSplit({(0, 1): (2, 2)}).validate(inst, 1, 1)
    with pytest.raises(SplitCapacityViolation):
        nc.AlphabetSplit({(7, 1): (2, 1)}).validate(inst, 1, 1)
    with pytest.raises(SplitCapacityViolation):
        nc.AlphabetSplit({(0, 2): (2, 1)}).validate(inst, 1, 1)
    # shared capacity: 2*2 fits once n doubles the alphabet
    nc.AlphabetSplit({(0, 1): (2, 2)}).validate(inst, 2, 1)


def test_execute_store_and_forward_trace():
    inst = line3()
    code = unit_code(inst, "abc", (1, 2), outer_n=2)
    trace = nc.execute(code, inst, [1])
    assert trace.sent("a", "b", 1) == 1
    assert trace.sent("b", "c", 2) == 1
    assert trace.sent("b", "c", 1) == 0
    assert trace.symbol(0, 1, nc.FWD) == 1
    assert trace.symbol(0, 1, nc.BWD) == 0
    decoded = nc.decode_outputs(code, inst, trace)
    assert decoded == {0: (1,)}
    assert nc.demands_met(inst, (1,), decoded)
    assert not nc.demands_met(inst, (0,), decoded)
    with pytest.raises(LookupError):
        trace.sent("a", "c", 1)


def test_execute_rejects_bad_messages():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    with pytest.raises(SymbolOutOfRange):
        nc.execute(code, inst, [0, 1])
    with pytest.raises(SymbolOutOfRange):
        nc.execute(code, inst, [2])
    with pytest.raises(MalformedDocument):
        nc.execute(code, two_way(), [0, 0])


def test_execute_requires_encoders_for_live_slots():
    inst = single_edge()
    code = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2,),
        splits=nc.AlphabetSplit({(0, 1): (2, 1)}),
        encoders={}, decoders={0: lambda s: (0,)},
    )
    with pytest.raises(MalformedDocument):
        nc.execute(code, inst, [0])


def test_execute_rejects_out_of_alphabet_symbols():
    inst = single_edge()
    code = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2,),
        splits=nc.AlphabetSplit({(0, 1): (2, 1)}),
        encoders={(0, 1, nc.FWD): lambda s: 5},
        decoders={0: lambda s: (0,)},
    )
    with pytest.raises(SymbolOutOfRange):
        nc.execute(code, inst, [0])


def test_round_t_encoder_cannot_read_round_t():
    inst = line3()

    def greedy(state):
        return state.recv("a", 1)  # round-1 symbol is not committed yet

    code = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2,),
        splits=nc.AlphabetSplit({(0, 1): (2, 1), (1, 1): (2, 1)}),
        encoders={(0, 1, nc.FWD): lambda s: s.message(0), (1, 1, nc.FWD): greedy},
        decoders={0: lambda s: (s.recv("b", 1),)},
    )
    with pytest.raises(LookupError):
        nc.execute(code, inst, [0])


def test_state_view_guards_time():
    view = FnView("x", 2, lambda i: 0, lambda sender, t: 7)
    assert view.recv("y", 1) == 7
    assert view.recv("y", 2) == 7
    with pytest.raises(LookupError):
        view.recv("y", 3)
    with pytest.raises(LookupError):
        view.recv("y", 0)
    assert view.message(0) == 0


def test_a_remapped_view_runs_its_rule_on_the_host_view():
    calls = []
    host = FnView("x", 1, {0: 5, 1: 11}.__getitem__, lambda sender, t: 7)

    def rule(view, sender, t):
        calls.append((view, sender, t))
        return view.recv(sender, 1) + t

    replaced = remapped(lambda view: view, 3, rule)(host)
    assert (replaced.node, replaced.time) == ("x", 3)
    assert replaced.recv("y", 3) == 10
    assert calls == [(host, "y", 3)]
    for t in (0, 4):  # past the new horizon: raised before the rule runs
        with pytest.raises(LookupError):
            replaced.recv("y", t)
    assert calls == [(host, "y", 3)]
    # message and digit reads are the host's
    assert replaced.message(1) == 11 and replaced.digit(1, 0, (4, 4)) == 2
    with pytest.raises(KeyError):
        replaced.message(2)


def test_a_remapped_view_reads_a_laid_out_digit_once():
    # on an Engine, a digit read through remapped's view reads one digit position
    inst = single_edge()
    code = nc.parallel_repeat(unit_code(inst, "ab", (1,)), inst, 2)
    engine = codes.Engine(code, inst)
    at, radices = engine._digits[0]
    assert radices == (2, 2)
    state, reads = engine.run([2]), []
    view = codes._Recording("a", 0, state, reads, engine._own["a"], engine._inbound["a"],
                            engine._digits)
    replaced = remapped(lambda view: view, 1, lambda host, sender, t: host.recv(sender, t))(view)
    assert replaced.digit(0, 0, radices) == 1
    assert reads == [(at, 1)]


def test_decoder_output_validation():
    inst = single_edge()
    good = unit_code(inst, "ab", (1,))
    bad_arity = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2,), splits=good.splits,
        encoders=good.encoders, decoders={0: lambda s: (0, 0)},
    )
    trace = nc.execute(good, inst, [1])
    with pytest.raises(SymbolOutOfRange):
        nc.decode_outputs(bad_arity, inst, trace)
    bad_range = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2,), splits=good.splits,
        encoders=good.encoders, decoders={0: lambda s: (9,)},
    )
    with pytest.raises(SymbolOutOfRange):
        nc.decode_outputs(bad_range, inst, trace)
    missing = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2,), splits=good.splits,
        encoders=good.encoders, decoders={},
    )
    with pytest.raises(MalformedDocument):
        nc.decode_outputs(missing, inst, trace)



@pytest.mark.parametrize("cast", [float, bool])
def test_a_decoder_output_is_refused_unless_it_is_an_int(cast):
    # on the relay a->b->c a decoder that returns the received symbol as a
    # float equals the demanded message, but is refused as an encoder's
    # float output is, also as one session of a Joined decoder, whose walk
    # would otherwise settle a sampled check; a bool is the int 0 or 1, and
    # passes
    inst, relay = line3(), unit_code(line3(), "abc", (1, 2), outer_n=2)
    code = relay._replace(decoders={0: lambda view: (cast(view.recv("b", 2)),)})
    trace, joined = nc.execute(code, inst, [1]), nc.parallel_repeat(code, inst, 2)
    if cast is bool:
        assert nc.check_feasibility(code, inst).failures == 0
        assert nc.decode_outputs(code, inst, trace) == {0: (True,)}
        assert nc.check_feasibility(joined, inst, mode="sampled", trials=100).failures == 0
        return
    with pytest.raises(SymbolOutOfRange, match=r"^decoder 0 output 0\.0 outside message space 0$"):
        nc.check_feasibility(code, inst)
    with pytest.raises(SymbolOutOfRange, match=r"^decoder 0 output 1\.0 outside message space 0$"):
        nc.decode_outputs(code, inst, trace)
    with pytest.raises(SymbolOutOfRange, match=r"^decoder 0 output \d\.0 outside message space 0$"):
        nc.check_feasibility(joined, inst, mode="sampled", trials=100)

def relay_trace(**changes):
    """The trace of the 2-round relay a->b->c on message 1, with `changes`."""
    return nc.execute(unit_code(line3(), "abc", (1, 2), outer_n=2), line3(), [1])._replace(**changes)


@pytest.mark.parametrize("changes, error, message", [
    ({"fwd": ((1,), (0,)), "bwd": ((0,), (0,))}, MalformedDocument, "trace does not fit the code"),
    ({"messages": (1, 0)}, MalformedDocument, "trace does not fit the code"),
    ({"fwd": ((1, 0),), "bwd": ((0, 0),)}, MalformedDocument, "trace does not fit the code"),
    ({"bwd": ((0, 0), (0, 0, 0))}, MalformedDocument, "trace does not fit the code"),
    ({"messages": (2,)}, SymbolOutOfRange, r"message 0 value 2 outside \[0, 2\)"),
    ({"messages": (-1,)}, SymbolOutOfRange, r"message 0 value -1 outside \[0, 2\)"),
    ({"messages": (0.5,)}, SymbolOutOfRange, r"message 0 value 0\.5 outside \[0, 2\)"),
    ({"fwd": ((1, 0), (0, 2))}, SymbolOutOfRange,
     "trace symbol on 'b'-'c' t=2 fwd is 2, alphabet size 2"),
    ({"fwd": ((1, 1), (0, 1))}, SymbolOutOfRange,  # a->b carries nothing at round 2
     "trace symbol on 'a'-'b' t=2 fwd is 1, alphabet size 1"),
    ({"bwd": ((0, 0), (-1, 0))}, SymbolOutOfRange,
     "trace symbol on 'b'-'c' t=1 bwd is -1, alphabet size 1"),
    ({"fwd": ((1, 0), (0, 0.5))}, SymbolOutOfRange,
     r"trace symbol on 'b'-'c' t=2 fwd is 0\.5, alphabet size 2"),
], ids=["one_round", "two_messages", "one_edge_row", "three_rounds", "message_past_size",
        "negative_message", "fractional_message", "symbol_past_split", "symbol_on_a_size_one_slot",
        "negative_symbol", "fractional_symbol"])
def test_decode_outputs_refuses_a_trace_that_does_not_fit_the_code(changes, error, message):
    # the relay code, given a trace of the wrong shape or with a value outside
    # its size, raises a named error rather than decoding what it can read
    code = unit_code(line3(), "abc", (1, 2), outer_n=2)
    assert nc.decode_outputs(code, line3(), relay_trace()) == {0: (1,)}
    with pytest.raises(error, match=message):
        nc.decode_outputs(code, line3(), relay_trace(**changes))


def test_routing_code_shares_slots_mixed_radix():
    inst = pair_at_one_node()
    code = nc.make_routing_code(
        inst,
        [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("a", "b"), (1,))],
        2, 1, [2, 2],
    )
    assert code.splits.shape(0, 1) == (4, 1)
    for w0 in range(2):
        for w1 in range(2):
            trace = nc.execute(code, inst, [w0, w1])
            # first route's digit is most significant
            assert trace.sent("a", "b", 1) == 2 * w0 + w1
            decoded = nc.decode_outputs(code, inst, trace)
            assert decoded == {0: (w0,), 1: (w1,)}


def test_routing_code_validation():
    inst = line3()
    ok = [nc.Route(0, 0, ("a", "b", "c"), (1, 2))]
    nc.make_routing_code(inst, ok, 1, 2, [2])
    cases = [
        ([nc.Route(3, 0, ("a", "b", "c"), (1, 2))], BadRoute),
        ([nc.Route(0, 0, ("b", "c"), (1,))], BadRoute),
        ([nc.Route(0, 0, ("a", "b"), (1,))], BadRoute),
        ([nc.Route(0, 0, ("a", "b", "c"), (1,))], BadRoute),
        ([nc.Route(0, 0, ("a", "b", "c"), (2, 1))], BadRoute),
        ([nc.Route(0, 0, ("a", "b", "c"), (1, 3))], BadRoute),
        ([nc.Route(0, 0, ("a", "c"), (1,))], BadRoute),
    ]
    for routes, err in cases:
        with pytest.raises(err):
            nc.make_routing_code(inst, routes, 1, 2, [2])
    with pytest.raises(BadRoute):
        nc.make_routing_code(inst, ok, 1, 2, [2, 2])
    with pytest.raises(BadRoute):
        nc.make_routing_code(inst, ok, 1, 2, [0])


def test_routing_code_overfull_slot():
    inst = pair_at_one_node()
    with pytest.raises(CapacityOverflow):
        nc.make_routing_code(
            inst,
            [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("a", "b"), (1,))],
            1, 1, [2, 2],
        )


def test_message_size_for_rate():
    assert nc.message_size_for_rate(Fraction(1), 2, 1) == 4
    assert nc.message_size_for_rate(Fraction(1, 2), 1, 1) == 1
    assert nc.message_size_for_rate(Fraction(3, 2), 2, 1) == 8
    assert nc.message_size_for_rate(Fraction(0), 5, 5) == 1
    with pytest.raises(BadRate):
        nc.message_size_for_rate(Fraction(-1), 1, 1)


def test_clopper_pearson_interval():
    low, high = nc.clopper_pearson(0, 100)
    assert low == 0
    # exact upper endpoint solves (1-p)^100 = 0.025, about 0.036217
    assert Fraction(36217, 10 ** 6) <= high <= Fraction(36222, 10 ** 6)
    low, high = nc.clopper_pearson(100, 100)
    assert high == 1
    assert Fraction(963778, 10 ** 6) <= low <= Fraction(963783, 10 ** 6)
    low, high = nc.clopper_pearson(10, 40)
    assert low <= Fraction(10, 40) <= high
    assert low.denominator <= 10 ** 6 and high.denominator <= 10 ** 6
    with pytest.raises(ValueError):
        nc.clopper_pearson(5, 4)


@pytest.mark.parametrize("failures, trials, low, high", [
    # half failing at the CLI's default trial count: the upper end is about 0.5315
    (500, 1000, Fraction(117137, 250000), Fraction(132863, 250000)),
    (999, 1000, Fraction(24861, 25000), Fraction(124997, 125000)),
    (2000, 2000, Fraction(249539, 250000), Fraction(1)),
    (1000, 2000, Fraction(477849, 10 ** 6), Fraction(522151, 10 ** 6)),
    (0, 10 ** 4, Fraction(0), Fraction(37, 10 ** 5)),
])
def test_clopper_pearson_is_valid_where_float_terms_underflow(failures, trials, low, high):
    # a term (1-p)**n below the smallest float once made these intervals miss
    assert nc.clopper_pearson(failures, trials) == (low, high)
    assert interval_valid(failures, trials, low, high)


@given(st.integers(1, 2000), st.data())
@settings(deadline=None, max_examples=6)
def test_clopper_pearson_passes_the_exact_check(trials, data):
    failures = data.draw(st.integers(0, trials))
    assert interval_valid(failures, trials, *nc.clopper_pearson(failures, trials))


def test_check_feasibility_exhaustive_zero_error():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    rep = nc.check_feasibility(code, inst)
    assert rep.passed and rep.certified
    assert rep.measured_error == 0
    assert rep.mode == "exhaustive" and rep.trials == 2
    assert rep.failing == ()
    assert rep.interval is None


def test_check_feasibility_exact_error_fraction():
    inst = single_edge_cap2()
    code = clamp_code(inst, "a", "b", 1, 1, 1)
    rep = nc.check_feasibility(code, inst, epsilon=Fraction(1, 4))
    assert rep.measured_error == Fraction(1, 4)
    assert rep.failures == 1
    assert rep.failing == ((3,),)
    assert rep.passed
    strict = nc.check_feasibility(code, inst, epsilon=Fraction(0))
    assert not strict.passed
    assert strict.measured_error == Fraction(1, 4)


def test_check_feasibility_rate_restricts_space():
    inst = single_edge_cap2()
    code = clamp_code(inst, "a", "b", 1, 1, 1)
    # rate 1 over n=1, N=1 needs 2 messages; the clamp only breaks value 3
    rep = nc.check_feasibility(code, inst, rates=[Fraction(1)])
    assert rep.trials == 2
    assert rep.measured_error == 0 and rep.passed
    with pytest.raises(BadRate):
        nc.check_feasibility(code, inst, rates=[Fraction(3)])
    with pytest.raises(BadRate):
        nc.check_feasibility(code, inst, rates=[Fraction(1), Fraction(1)])


def test_check_feasibility_sampled_deterministic():
    inst = single_edge_cap2()
    code = clamp_code(inst, "a", "b", 1, 1, 1)
    rep1 = nc.check_feasibility(code, inst, epsilon=Fraction(1, 2),
                                mode="sampled", trials=400, seed=11)
    rep2 = nc.check_feasibility(code, inst, epsilon=Fraction(1, 2),
                                mode="sampled", trials=400, seed=11)
    assert rep1 == rep2
    assert not rep1.certified
    assert rep1.interval[0] <= rep1.measured_error <= rep1.interval[1]
    # around a quarter of uniform draws hit the clamped value
    assert Fraction(1, 10) < rep1.measured_error < Fraction(2, 5)
    other = nc.check_feasibility(code, inst, mode="sampled", trials=400, seed=12)
    assert other.trials == rep1.trials


def test_check_feasibility_limits_and_modes():
    inst = single_edge_cap2()
    code = clamp_code(inst, "a", "b", 1, 1, 1)
    with pytest.raises(EnumerationTooLarge):
        nc.check_feasibility(code, inst, limit=3)
    with pytest.raises(ValueError):
        nc.check_feasibility(code, inst, mode="guess")
    with pytest.raises(ValueError):
        nc.check_feasibility(code, inst, mode="sampled", trials=0)
