import gc
import itertools
import math
import sys
from fractions import Fraction

import pytest

import netcode as nc
from netcode.codes import Engine
from netcode.errors import (
    BadPath,
    EdgeMissing,
    EdgePresent,
    EnumerationTooLarge,
    NonPositiveCapacity,
    NotABridge,
    SymbolOutOfRange,
    UnknownVertex,
)
from netcode.rational import combine_digits, log2_at_least

import reference_exec as ref
from conftest import (
    bridged_pair, cycle4, fractional_alpha, inst_doc, make, path_chain, three_as_zero_chord_code,
    two_triangles, unset_runs)


def clamped_pair_code(aug):
    e_ab = aug.edge_between("a", "b")[0]
    e_cd = aug.edge_between("c", "d")[0]

    def clamp(state):
        w = state.message(0)
        return w if w < 3 else 0

    return nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(4, 4),
        splits=nc.AlphabetSplit({(e_ab, 1): (4, 1), (e_cd, 1): (4, 1)}),
        encoders={(e_ab, 1, nc.FWD): clamp,
                  (e_cd, 1, nc.FWD): lambda s: s.message(1)},
        decoders={0: lambda s: (s.recv("a", 1),),
                  1: lambda s: (s.recv("c", 1),)},
    )


# -------------------------------------------------------------- classification

def test_classify_edge():
    case = nc.classify_edge(cycle4(), "a", "c")
    assert isinstance(case, nc.PathCase)
    assert case.gamma == 1
    assert case.nodes == ("a", "b", "c")

    case = nc.classify_edge(two_triangles(), "c", "d")
    assert isinstance(case, nc.BridgeCase)
    assert case.u_side == ("a", "b", "c")
    assert case.v_side == ("d", "f", "g")

    with pytest.raises(UnknownVertex):
        nc.classify_edge(cycle4(), "a", "zz")
    with pytest.raises(BadPath):
        nc.classify_edge(cycle4(), "a", "a")
    with pytest.raises(EdgePresent):
        nc.classify_edge(cycle4(), "a", "b")


def test_rate_at_least_exact():
    assert log2_at_least(2, Fraction(1))
    assert not log2_at_least(2, Fraction(3, 2))
    assert log2_at_least(3, Fraction(3, 2))  # 9 >= 8
    assert log2_at_least(1, Fraction(0))
    assert log2_at_least(1, Fraction(-1))
    assert not log2_at_least(1, Fraction(1, 100))


# ----------------------------------------------------------------- path bound

def test_path_case_bound_unit_cycle():
    inst = cycle4()
    rep = nc.path_case_bound(inst, "a", "c", Fraction(1, 2))
    assert rep.case == "path"
    assert rep.path.gamma == 1
    assert (rep.total_capacity, rep.min_capacity, rep.removal_c) == (4, 1, 8)
    assert rep.delta == Fraction(1, 2)
    assert rep.alpha == Fraction(2, 3)
    assert rep.f_lambda == 4
    assert not rep.degenerate

    rep = nc.path_case_bound(inst, "a", "c", Fraction(1))
    assert rep.delta == 1
    assert rep.alpha == Fraction(1, 2)
    assert rep.f_lambda == 8


def test_path_case_bound_wider_bottleneck():
    inst = make(inst_doc(
        "abcd", [("a", "b", "2"), ("b", "c", "2"), ("c", "d", "2")],
        ["a"], ["d"], [[1]]))
    rep = nc.path_case_bound(inst, "a", "d", Fraction(1))
    assert rep.path.gamma == 2
    assert rep.delta == Fraction(1, 2)
    assert rep.alpha == Fraction(2, 3)
    assert rep.removal_c == 6
    assert rep.f_lambda == 6


def test_path_case_bound_degenerate():
    rep = nc.path_case_bound(cycle4(), "a", "c", Fraction(10))
    assert rep.degenerate
    assert rep.f_lambda == 20


def test_path_case_bound_errors():
    with pytest.raises(NonPositiveCapacity):
        nc.path_case_bound(cycle4(), "a", "c", Fraction(0))
    with pytest.raises(NotABridge):
        nc.path_case_bound(two_triangles(), "c", "d", Fraction(1))


# --------------------------------------------------------------- bridge bound

def test_bridge_report_without_code():
    rep = nc.edge_removal_report(two_triangles(), "c", "d", Fraction(1))
    assert rep.case == "bridge"
    assert rep.f_lambda == 1
    assert rep.cross_demands == ()
    assert rep.cross_rate_ok is None
    assert rep.verification is None
    # both demands stay inside their sides, so any rates pass vacuously
    rep = nc.edge_removal_report(two_triangles(), "c", "d", Fraction(1),
                                 rates=[Fraction(5), Fraction(5)])
    assert rep.cross_rate_ok is True


def test_bridge_cross_demand_rate_cap():
    # a's message is also wanted at g, across the probe
    inst = make(inst_doc(
        "abcdfg",
        [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1"),
         ("d", "f", "1"), ("f", "g", "1"), ("d", "g", "1")],
        ["a", "d"], ["b", "g"], [[1, 1], [0, 1]]))
    rep = nc.edge_removal_report(inst, "c", "d", Fraction(1))
    assert rep.cross_demands == ((0, 1),)
    assert rep.cross_rate_ok is None
    # crossing demand at R = 2*lam exceeds the bridge cut
    rep = nc.edge_removal_report(inst, "c", "d", Fraction(1),
                                 rates=[Fraction(2), Fraction(1)])
    assert rep.cross_rate_ok is False
    ok = nc.edge_removal_report(inst, "c", "d", Fraction(1),
                                rates=[Fraction(1), Fraction(1)])
    assert ok.cross_rate_ok is True


def test_bridge_decompose_zero_error_sides():
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    code = nc.make_routing_code(
        aug,
        [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("c", "d"), (1,))],
        1, 1, [4, 4])
    decomp = nc.bridge_decompose(aug, "b", "c", code)
    for side, srcs in ((decomp.u_side, (0,)), (decomp.v_side, (1,))):
        assert side.source_indices == srcs
        assert side.conditional_error == 0
        assert side.trace_match
        rep = nc.check_feasibility(side.code, side.instance)
        assert rep.passed and rep.certified
    assert decomp.u_side.fixing == {1: 0}
    assert decomp.v_side.fixing == {0: 0}
    assert decomp.u_side.instance.vertices == ("a", "b")


def test_bridge_decompose_conditional_error_matches_clamp():
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    code = clamped_pair_code(aug)
    rep = nc.check_feasibility(code, aug, epsilon=Fraction(1, 4))
    assert rep.measured_error == Fraction(1, 4)
    decomp = nc.bridge_decompose(aug, "b", "c", code)
    assert decomp.u_side.conditional_error == Fraction(1, 4)
    assert decomp.v_side.conditional_error == 0
    assert decomp.u_side.trace_match and decomp.v_side.trace_match
    side_rep = nc.check_feasibility(
        decomp.u_side.code, decomp.u_side.instance, epsilon=Fraction(1, 4))
    assert side_rep.measured_error == Fraction(1, 4)


def cross_traffic(n=1):
    """(augmented instance, code): d's message reaches a over the bridge
    b-c; n=1 and 2 messages a source, or n=2 and 4."""
    inst = make(inst_doc(
        "abcd", [("a", "b", "1"), ("c", "d", "1")],
        ["a", "d"], ["b", "a"], [[1, 0], [0, 1]]))
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    code = nc.make_routing_code(
        aug,
        [nc.Route(0, 0, ("a", "b"), (1,)),
         nc.Route(1, 1, ("d", "c", "b", "a"), (1, 2, 3))],
        n, 3, [2 ** n] * 2)
    return aug, code


def cross_traffic_n2():
    return cross_traffic(2)


def test_bridge_decompose_replays_cross_traffic():
    # after decomposition the near side must regenerate d's traffic from
    # the fixed far messages
    aug, code = cross_traffic()
    assert nc.check_feasibility(code, aug).passed

    decomp = nc.bridge_decompose(aug, "b", "c", code)
    near = decomp.u_side
    assert near.source_indices == (0,)
    assert near.conditional_error == 0
    assert near.trace_match
    assert set(near.fixing) == {1}
    # the replayed bridge traffic shows up on b -> a regardless of the
    # free message
    for w in range(2):
        tr = nc.execute(near.code, near.instance, [w])
        assert tr.sent("b", "a", 3) == near.fixing[1]
        assert tr.sent("a", "b", 1) == w

    far = decomp.v_side
    assert far.source_indices == ()
    assert far.instance is None
    assert far.conditional_error == 0


def test_bridge_decompose_errors():
    inst = cycle4()
    code = nc.make_routing_code(
        inst,
        [nc.Route(0, 0, ("a", "b", "c"), (1, 2)),
         nc.Route(1, 1, ("c", "d", "a"), (1, 2))],
        1, 2, [2, 2])
    with pytest.raises(NotABridge):
        nc.bridge_decompose(inst, "a", "b", code)
    with pytest.raises(EdgeMissing):
        nc.bridge_decompose(inst, "a", "c", code)
    aug = nc.add_edge(bridged_pair(), "b", "c", Fraction(1))
    with pytest.raises(EnumerationTooLarge):
        nc.bridge_decompose(aug, "b", "c", clamped_pair_code(aug), limit=8)


def diagonal_triangles(sources, terminals):
    """two_triangles + c-d with diagonal demands, and its routing code
    at n=4, N=1 and 16 messages per source, each sent over one edge."""
    k = len(sources)
    inst = make(inst_doc(
        "abcdfg",
        [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1"),
         ("d", "f", "1"), ("f", "g", "1"), ("d", "g", "1")],
        sources, terminals, [[int(i == j) for j in range(k)] for i in range(k)]))
    aug = nc.add_edge(inst, "c", "d", Fraction(1))
    routes = [nc.Route(i, i, (s, d), (1,)) for i, (s, d) in enumerate(zip(sources, terminals))]
    return inst, aug, nc.make_routing_code(aug, routes, 4, 1, [16] * k)


def test_bridge_report_walks_past_the_tuple_limit():
    # 256 joint tuples over limit 255: the walk settles the code in 68 map
    # calls, as in check_feasibility, and each side's trace match runs 16
    # free tuples; a limit of 67 leaves the walk short
    inst, aug, code = diagonal_triangles("ad", "bg")
    assert nc.check_feasibility(code, aug, limit=255).certified
    rep = nc.edge_removal_report(inst, "c", "d", Fraction(1), code=code, limit=255)
    assert rep.verification.passed
    assert nc.bridge_decompose(aug, "c", "d", code, limit=68).u_side.trace_match
    with pytest.raises(EnumerationTooLarge, match="256 message tuples exceed limit 67"):
        nc.bridge_decompose(aug, "c", "d", code, limit=67)


def test_bridge_trace_match_builds_no_closure_view(monkeypatch):
    # each side encoder of the match reads the joint recording view through
    # slotted views alone, so no StateView is built while Engine._matches
    # runs; the report makes 105 map calls, 33 of them in the match, which
    # walks only d's slot d->g (a->b is away from c, its side's anchor)
    inst, _, code = diagonal_triangles("ad", "bg")
    counts, inside = {"calls": 0, "match calls": 0, "match views": 0}, []
    call, init, matches = Engine._call, nc.StateView.__init__, Engine._matches

    def counted_call(self, memo, state):
        counts["calls"] += 1
        counts["match calls"] += bool(inside)
        return call(self, memo, state)

    def counted_init(self, *args, **kwargs):
        counts["match views"] += bool(inside)
        init(self, *args, **kwargs)

    def marked(self, *args):
        inside.append(True)
        try:
            return matches(self, *args)
        finally:
            inside.pop()

    monkeypatch.setattr(Engine, "_call", counted_call)
    monkeypatch.setattr(nc.StateView, "__init__", counted_init)
    monkeypatch.setattr(Engine, "_matches", marked)
    ver = nc.edge_removal_report(inst, "c", "d", Fraction(1), code=code).verification
    assert ver.passed
    assert [side.trace_match for side in (ver.decomposition.u_side, ver.decomposition.v_side)] == [True, True]
    assert counts == {"calls": 105, "match calls": 33, "match views": 0}


def test_bridge_trace_match_counts_its_free_tuples_against_the_limit():
    # the walk settles 4,096 joint tuples under limit 255, but side a-b-c
    # owns two messages, 256 free tuples to match
    _, aug, code = diagonal_triangles("abd", "bcg")
    assert nc.check_feasibility(code, aug, limit=255).passed
    with pytest.raises(EnumerationTooLarge, match=r"256 free message tuples of side \['a', 'b', 'c'\]"):
        nc.bridge_decompose(aug, "c", "d", code, limit=255)
    assert nc.bridge_decompose(aug, "c", "d", code, limit=256).u_side.trace_match


def test_bridge_report_with_code_verifies():
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    code = clamped_pair_code(aug)
    rep = nc.edge_removal_report(inst, "b", "c", Fraction(1), code=code,
                                 epsilon=Fraction(1, 4))
    ver = rep.verification
    assert ver is not None
    assert ver.base_report.measured_error == Fraction(1, 4)
    assert ver.passed
    tight = nc.edge_removal_report(inst, "b", "c", Fraction(1), code=code,
                                   epsilon=Fraction(0))
    assert not tight.verification.passed


def test_bridge_sides_are_measured_over_the_checked_rate_spaces():
    # rate 1 checks messages 0 and 1, which the clamp keeps: the base check
    # is zero-error there, and so must each side be
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    rep = nc.edge_removal_report(inst, "b", "c", Fraction(1), code=clamped_pair_code(aug),
                                 rates=[Fraction(1), Fraction(1)])
    ver = rep.verification
    assert ver.base_report.measured_error == 0 and ver.base_report.trials == 4
    sides = (ver.decomposition.u_side, ver.decomposition.v_side)
    assert [(side.fixing, side.conditional_error) for side in sides] == [({1: 0}, 0), ({0: 0}, 0)]
    assert ver.passed


def test_diverging_side_trace_fails_the_bridge_report(monkeypatch):
    # side codes whose encoders send one more than the original's: every
    # side trace differs from the original one, so the report must fail
    # on trace_match alone
    real = nc.removal._simulated_side_code

    def skewed(*args):
        side_code = real(*args)
        bumped = {key: (lambda s, enc=enc: (enc(s) + 1) % 4)
                  for key, enc in side_code.encoders.items()}
        return side_code._replace(encoders=bumped)

    monkeypatch.setattr(nc.removal, "_simulated_side_code", skewed)
    _, code = routed_pair()
    rep = nc.edge_removal_report(bridged_pair(), "b", "c", Fraction(1), code=code)
    ver = rep.verification
    sides = (ver.decomposition.u_side, ver.decomposition.v_side)
    assert ver.base_report.passed
    assert [side.conditional_error for side in sides] == [0, 0]
    assert [side.trace_match for side in sides] == [False, False]
    assert not ver.passed
    doc = nc.removal_report_doc(rep)
    assert [side["trace_match"] for side in doc["verification"]["sides"]] == [False, False]


def test_bridge_side_views_keep_message_ownership():
    # a reads message 1 only where it holds it; the side view must raise
    # KeyError for it as the real execution does, not hand out the fixing
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    e_ab = aug.edge_between("a", "b")[0]

    def guarded(state):
        try:
            return state.message(1)
        except KeyError:
            return state.message(0)

    base = clamped_pair_code(aug)
    code = base._replace(encoders={**base.encoders, (e_ab, 1, nc.FWD): guarded})
    assert nc.check_feasibility(code, aug).measured_error == 0
    near = nc.bridge_decompose(aug, "b", "c", code).u_side
    assert near.fixing == {1: 0}
    assert near.trace_match
    assert nc.check_feasibility(near.code, near.instance).measured_error == 0
    assert nc.edge_removal_report(inst, "b", "c", Fraction(1), code=code).verification.passed


def test_bridge_replay_runs_each_far_round_once():
    # b's decoder reads c's symbol of every round; one execution of the
    # side code must replay each far round once, not once per read
    n_rounds = 6
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    e_ab = aug.edge_between("a", "b")[0]
    e_cd = aug.edge_between("c", "d")[0]
    e_bc, c_is_a = aug.edge_between("c", "b")
    calls = []

    def far(state):
        calls.append(state.time + 1)
        return state.message(1) % 2

    def decode_b(state):
        for t in range(1, n_rounds + 1):
            state.recv("c", t)
        return (state.recv("a", 1),)

    splits = {(e_ab, 1): (4, 1), (e_cd, 1): (4, 1)}
    encoders = {(e_ab, 1, nc.FWD): lambda s: s.message(0),
                (e_cd, 1, nc.FWD): lambda s: s.message(1)}
    for t in range(1, n_rounds + 1):
        splits[(e_bc, t)] = (2, 1) if c_is_a else (1, 2)
        encoders[(e_bc, t, nc.FWD if c_is_a else nc.BWD)] = far
    code = nc.NetworkCode(
        inner_n=1, outer_n=n_rounds, message_sizes=(4, 4),
        splits=nc.AlphabetSplit(splits), encoders=encoders,
        decoders={0: decode_b, 1: lambda s: (s.recv("c", 1),)},
    )
    near = nc.bridge_decompose(aug, "b", "c", code).u_side
    assert near.trace_match and near.conditional_error == 0
    calls.clear()
    trace = nc.execute(near.code, near.instance, [3])
    assert nc.decode_outputs(near.code, near.instance, trace) == {0: (3,)}
    assert calls == list(range(1, n_rounds + 1))


def foreign_demand_code():
    """(augmented instance, code) on a-b, a-e | c-d with the bridge b-c.

    b's message 1 is demanded at d across the bridge, so it is foreign to
    b's own side.  a sends message 0 to b and e, clamping the top value on
    a-e; b's decoder clamps it too, and is wrong everywhere when message 1
    is 0.  d decodes message 1 over the bridge and message 2 from c, but
    outputs 0 for message 2 when message 1 is 0.  So the u side's best
    fixing has message 1 at 1 and two failing demands on one tuple, and
    the v side's is the first with message 1 at 1.
    """
    inst = make(inst_doc(
        "abcde", [("a", "b", "2"), ("a", "e", "2"), ("c", "d", "2")],
        ["a", "b", "c"], ["b", "e", "d"], [[1, 1, 0], [0, 0, 1], [0, 0, 1]]))
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    e_ab, e_ae, e_cd = (aug.edge_between(x, y)[0] for x, y in ("ab", "ae", "cd"))
    e_bc, bc_dir = aug.slot("b", "c")

    def decode_b(s):
        w = s.recv("a", 1)
        return (w if w < 3 else 0,) if s.message(1) else ((w + 1) % 4,)

    def decode_d(s):
        m1 = s.recv("c", 2)
        return (m1, s.recv("c", 1) if m1 else 0)

    code = nc.NetworkCode(
        inner_n=1, outer_n=2, message_sizes=(4, 2, 2),
        splits=nc.AlphabetSplit({
            (e_ab, 1): (4, 1), (e_ae, 1): (4, 1), (e_cd, 1): (2, 1), (e_cd, 2): (2, 1),
            (e_bc, 1): (2, 1) if bc_dir == nc.FWD else (1, 2)}),
        encoders={
            (e_ab, 1, nc.FWD): lambda s: s.message(0),
            (e_ae, 1, nc.FWD): lambda s: s.message(0) if s.message(0) < 3 else 0,
            (e_bc, 1, bc_dir): lambda s: s.message(1),
            (e_cd, 1, nc.FWD): lambda s: s.message(2),
            (e_cd, 2, nc.FWD): lambda s: s.recv("b", 1)},
        decoders={0: decode_b, 1: lambda s: (s.recv("a", 1),), 2: decode_d},
    )
    return aug, code


def clamp_pair():
    aug = nc.add_edge(bridged_pair(), "b", "c", Fraction(1))
    return aug, clamped_pair_code(aug)


def routed_pair():
    aug = nc.add_edge(bridged_pair(), "b", "c", Fraction(1))
    return aug, nc.make_routing_code(
        aug, [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("c", "d"), (1,))],
        1, 1, [4, 4])


def bridge_fields(decomp):
    return [
        (side.source_indices, side.fixing, side.conditional_error, side.trace_match)
        for side in (decomp.u_side, decomp.v_side)
    ]


@pytest.mark.parametrize(
    "case", [clamp_pair, routed_pair, cross_traffic, cross_traffic_n2, foreign_demand_code])
def test_bridge_decompose_matches_per_fixing_reference(case):
    # one joint pass must pick the fixings and errors that running every
    # fixing of each side separately picks
    aug, code = case()
    got = bridge_fields(nc.bridge_decompose(aug, "b", "c", code))
    assert got == bridge_fields(ref.bridge_decompose(aug, "b", "c", code))
    if case is foreign_demand_code:
        assert got == [((0,), {1: 1, 2: 0}, Fraction(1, 4), True),
                       ((2,), {0: 0, 1: 1}, Fraction(0), True)]


def raising_decoder_pair():
    aug, code = clamp_pair()

    def decode_d(s):
        if s.recv("c", 1) == 3:
            raise ValueError("no decoding for 3")
        return (s.recv("c", 1),)

    return aug, code._replace(decoders={**code.decoders, 1: decode_d})


def out_of_range_encoder_pair():
    aug, code = clamp_pair()
    e_ab = aug.edge_between("a", "b")[0]
    return aug, code._replace(
        encoders={**code.encoders, (e_ab, 1, nc.FWD): lambda s: s.message(0) + 1})


@pytest.mark.parametrize("case", [raising_decoder_pair, out_of_range_encoder_pair])
def test_bridge_decompose_raises_as_the_reference(case):
    aug, code = case()
    with pytest.raises(Exception) as want:
        ref.bridge_decompose(aug, "b", "c", code)
    with pytest.raises(want.type):
        nc.bridge_decompose(aug, "b", "c", code)


def engine_runs(monkeypatch, code):
    """Record Engine.run calls as (on `code`'s own engine, messages)."""
    calls = []
    run = Engine.run

    def counted(self, messages):
        calls.append((self.code is code, list(messages)))
        return run(self, messages)

    monkeypatch.setattr(Engine, "run", counted)
    return calls


def engine_walks(monkeypatch):
    """Record Engine._sliced_pass verdicts: (feasibility walks over the
    code's own sinks, trace-match walks over a side's sinks)."""
    walks = ([], [])
    walk = Engine._sliced_pass

    def recorded(self, total, budget=None, sinks=None, fixed=None):
        settled = walk(self, total, budget, sinks, fixed)
        walks[sinks is not None].append(settled)
        return settled

    monkeypatch.setattr(Engine, "_sliced_pass", recorded)
    return walks


def trace_match_runs(decomp, k, settled):
    """The joint tuples of k messages the trace match runs: each side's
    free tuples under its fixing, for the sides with a side code whose
    match walk (`settled`, one verdict per such side) did not settle."""
    sides = [side for side in (decomp.u_side, decomp.v_side) if side.instance is not None]
    assert len(settled) == len(sides)
    runs = []
    for side, done in zip(sides, settled):
        if done:
            continue
        for free in itertools.product(*(range(s) for s in side.code.message_sizes)):
            msgs = {**side.fixing, **dict(zip(side.source_indices, free))}
            runs.append([msgs[i] for i in range(k)])
    return runs


def ping_pong_pair(hops=5, n=1, sizes=(4, 4)):
    """(augmented bridged_pair, code): message 0 bounces a-b-a-b-a-b over
    five rounds (`hops`, odd), so each match sink pulls the whole chain
    before it; c sends message 1 to d at round 1."""
    aug = nc.add_edge(bridged_pair(), "b", "c", Fraction(1))
    return aug, nc.make_routing_code(
        aug, [nc.Route(0, 0, tuple("ab" * hops)[:hops + 1], tuple(range(1, hops + 1))),
              nc.Route(1, 1, ("c", "d"), (1,))],
        n, hops, list(sizes))


def long_ping_pong_pair():
    """ping_pong_pair over seven rounds at n=2, with 16 values of message 1:
    the sinks of b, the u side's anchor, at rounds 2, 4 and 6 alone spend
    that side's match budget, while the base walk, whose budget grows
    with message 1's values, still settles the code."""
    return ping_pong_pair(7, 2, (4, 16))


@pytest.mark.parametrize("case, walked", [
    pytest.param(case, walked, id=case.__name__) for case, walked in (
        (routed_pair, [True, True]), (cross_traffic_n2, [True]), (ping_pong_pair, [True, True]),
        (long_ping_pong_pair, [False, True]))])
def test_settled_bridge_code_runs_no_joint_tuple(monkeypatch, case, walked):
    # the sliced walk proves these codes correct, so only the trace match
    # runs tuples: none for a side whose match walk settles, and exactly
    # its free tuples, once each on the check's engine, for one whose walk
    # falls back
    aug, code = case()
    assert Engine(code, aug)._sliced_pass(math.prod(code.message_sizes))
    calls, walks = engine_runs(monkeypatch, code), engine_walks(monkeypatch)
    decomp = nc.bridge_decompose(aug, "b", "c", code)
    joint = [msgs for on_code, msgs in calls if on_code]
    assert walks == ([True], walked)
    assert joint == trace_match_runs(decomp, len(aug.sources), walks[1])
    assert len(calls) == len(joint)
    assert decomp.u_side.trace_match and decomp.v_side.trace_match


def test_trace_match_walks_only_the_anchor_slots(monkeypatch):
    # only the anchors' slots are walked: b's (rounds 2 and 4) on the u
    # side and c's (c->d at round 1) on the v side; a's slots run the
    # original encoders on the joint reads, so their sinks are not walked
    aug, code = ping_pong_pair()
    walked, sliced = [], Engine._sliced_pass

    def recorded(self, total, budget=None, sinks=None, fixed=None):
        if sinks is not None:
            walked.append([(sink[0][1], sink[0][2]) for sink in sinks])
        return sliced(self, total, budget, sinks, fixed)

    monkeypatch.setattr(Engine, "_sliced_pass", recorded)
    decomp = nc.bridge_decompose(aug, "b", "c", code)
    assert walked == [[("b", 1), ("b", 3)], [("c", 0)]]
    assert decomp.u_side.trace_match and decomp.v_side.trace_match


def test_unsettled_bridge_code_runs_joint_tuples_once(monkeypatch):
    aug, code = foreign_demand_code()
    calls, walks = engine_runs(monkeypatch, code), engine_walks(monkeypatch)
    decomp = nc.bridge_decompose(aug, "b", "c", code)
    joint = [msgs for on_code, msgs in calls if on_code]
    everything = [list(t) for t in itertools.product(*(range(s) for s in code.message_sizes))]
    assert walks == ([False], [True, True])
    assert joint == everything + trace_match_runs(decomp, len(aug.sources), walks[1])


def side_encoders_patched(change):
    """_simulated_side_code with each side encoder `enc` of a side replaced
    by change(side, enc), or kept where that returns None."""
    real = nc.removal._simulated_side_code

    def patched(*args):
        side_code = real(*args)
        return side_code._replace(encoders={
            key: change(args[2], enc) or enc for key, enc in side_code.encoders.items()})

    return patched


def skewed(side, enc):
    return lambda s: (enc(s) + 1) % 4


def at_two(s):
    return s.node == "a" and s.message(0) == 2


def off_at_two(side, enc):
    # a's encoders are wrong for free message 2 alone
    if "a" in side:
        return lambda s: enc(s) ^ 1 if at_two(s) else enc(s)


def raises_at_two(side, enc):
    def encoder(s):
        if at_two(s):
            raise ValueError("no symbol for message 2")
        return enc(s)

    return encoder if "a" in side else None


def as_float(side, enc):
    # equal in value to the real symbol, but not an int: a run rejects it
    if "a" in side:
        return lambda s: float(enc(s))


def diagonal_pair():
    _, aug, code = diagonal_triangles("ad", "bg")
    return aug, code


def interleaved_cross_traffic():
    # three sessions packed into each message: the engine walks it by digit
    aug, code = cross_traffic()
    return aug, nc.interleave(code, aug)


@pytest.mark.parametrize("case, change", [
    (routed_pair, None), (clamp_pair, None), (cross_traffic, None), (cross_traffic_n2, None),
    (foreign_demand_code, None), (diagonal_pair, None), (ping_pong_pair, None),
    (long_ping_pong_pair, None),
    (interleaved_cross_traffic, None), (raising_decoder_pair, None), (out_of_range_encoder_pair, None),
    (routed_pair, skewed), (routed_pair, off_at_two), (routed_pair, raises_at_two),
    (routed_pair, as_float), (interleaved_cross_traffic, off_at_two),
], ids=lambda p: getattr(p, "__name__", "real"))
def test_trace_match_equals_the_per_tuple_reference(monkeypatch, case, change):
    # the match walk on the shared engine must give what running every free
    # tuple on both engines gives, through bridge_decompose and the report
    aug, code = case()
    u, v = ("c", "d") if case is diagonal_pair else ("b", "c")
    if change is not None:
        monkeypatch.setattr(nc.removal, "_simulated_side_code", side_encoders_patched(change))

    def outcome(decompose):
        try:
            return bridge_fields(decompose())
        except Exception as exc:
            return type(exc)

    want = outcome(lambda: ref.per_tuple_bridge_decompose(aug, u, v, code))
    assert outcome(lambda: nc.bridge_decompose(aug, u, v, code)) == want
    inst = nc.drop_edge(aug, u, v)
    assert outcome(lambda: nc.edge_removal_report(
        inst, u, v, Fraction(1), code=code, epsilon=Fraction(1)).verification.decomposition) == want
    if change in (raises_at_two, as_float):
        assert want is (ValueError if change is raises_at_two else SymbolOutOfRange)
    elif change is not None:
        assert want[0][3] is False


def test_off_anchor_maps_run_only_on_the_joint_execution(monkeypatch):
    # b, the u side's anchor, sends 1 to a at round 1 in its side code,
    # where the code sends 0; a's round-2 encoder raises on a 1, which the
    # joint execution never sends it.  The match compares the anchor's map
    # on the joint run alone, so it reports the divergence and raises
    # nothing, where running the diverged side code raises
    aug = nc.add_edge(bridged_pair(), "b", "c", Fraction(1))
    e_ab, e_cd = aug.edge_between("a", "b")[0], aug.edge_between("c", "d")[0]

    def a_sends(s):
        if s.recv("b", 1):
            raise ValueError("b sends 0 at round 1")
        return s.message(0)

    code = nc.NetworkCode(
        inner_n=1, outer_n=2, message_sizes=(2, 2),
        splits=nc.AlphabetSplit({(e_ab, 1): (1, 2), (e_ab, 2): (2, 1), (e_cd, 1): (2, 1)}),
        encoders={(e_ab, 1, nc.BWD): lambda s: 0, (e_ab, 2, nc.FWD): a_sends,
                  (e_cd, 1, nc.FWD): lambda s: s.message(1)},
        decoders={0: lambda s: (s.recv("a", 2),), 1: lambda s: (s.recv("c", 1),)})

    def anchor_sends_one(side, enc):
        if enc.node == "b":
            return lambda s: 1

    monkeypatch.setattr(nc.removal, "_simulated_side_code", side_encoders_patched(anchor_sends_one))
    with pytest.raises(ValueError, match="b sends 0"):
        ref.per_tuple_bridge_decompose(aug, "b", "c", code)
    ver = nc.edge_removal_report(bridged_pair(), "b", "c", Fraction(1), code=code).verification
    assert ver.base_report.passed
    assert [ver.decomposition.u_side.trace_match, ver.decomposition.v_side.trace_match] == [False, True]
    assert not ver.passed


@pytest.mark.parametrize("case", [diagonal_pair, clamp_pair, cross_traffic], ids=lambda f: f.__name__)
def test_reblocked_code_decomposes_as_the_code(case):
    # the side code runs the code's encoders, replayed ones too, on its
    # slotted views, and reblock's encoders read remapped's view of those;
    # reblock at m=1 keeps every trace, so each side must decompose as on
    # the code itself, in bridge_decompose and in the report
    aug, code = case()
    u, v = ("c", "d") if case is diagonal_pair else ("b", "c")
    want = bridge_fields(nc.bridge_decompose(aug, u, v, code))
    reb = nc.reblock(code, aug, 1)
    assert bridge_fields(nc.bridge_decompose(aug, u, v, reb)) == want
    ver = nc.edge_removal_report(nc.drop_edge(aug, u, v), u, v, Fraction(1), code=reb,
                                 epsilon=Fraction(1)).verification
    assert bridge_fields(ver.decomposition) == want


def rated_sides(aug, code, u_side, spaces):
    """(source indices, fixing, conditional error) of each side of the
    bridged code, counted tuple by tuple with the reference executor over
    the messages below `spaces`: of every fixing of the side's foreign
    messages, the first whose free tuples miss the side's demands least."""
    k, terminals = len(aug.sources), range(len(aug.terminals))
    fields = []
    for side in (set(u_side), set(aug.vertices) - set(u_side)):
        owned = tuple(i for i in range(k) if aug.sources[i] in side
                      and all(aug.terminals[j] in side for j in terminals if aug.demand[i][j]))
        foreign = tuple(i for i in range(k) if i not in owned)
        counts = []
        for combo in itertools.product(*(range(spaces[i]) for i in foreign)):
            fails = 0
            for free in itertools.product(*(range(spaces[i]) for i in owned)):
                given = {**dict(zip(foreign, combo)), **dict(zip(owned, free))}
                msgs = [given[i] for i in range(k)]
                decoded = ref.decode_outputs(code, aug, ref.execute(code, aug, msgs))
                fails += any(decoded[j][aug.demanded_at(j).index(i)] != msgs[i]
                             for i in owned for j in terminals if aug.demand[i][j])
            counts.append((fails, combo))
        fails, combo = min(counts, key=lambda count: count[0])
        fields.append((owned, dict(zip(foreign, combo)),
                       Fraction(fails, math.prod(spaces[i] for i in owned))))
    return fields


@pytest.mark.parametrize("case", [routed_pair, foreign_demand_code])
def test_bridge_report_shares_one_engine_and_one_walk(monkeypatch, case):
    # the base check's engine, walk and joint loop serve the decomposition,
    # with or without rates: no side builds an engine of its own, each
    # joint tuple runs at most once, and with rates the fixings and errors
    # are taken over the spaces the check covers
    aug, code = case()
    # joint runs without and with rates: the walk settles routed_pair's
    # whole space and its four rated tuples, while foreign_demand_code's
    # misdecoding falls back to the joint loop both times
    runs = {routed_pair: (0, 0), foreign_demand_code: (16, 8)}[case]
    inst = nc.drop_edge(aug, "b", "c")
    built = []
    init = Engine.__init__

    def counted(self, c, i, box=None):
        built.append(c is code)
        init(self, c, i, box)

    monkeypatch.setattr(Engine, "__init__", counted)
    walks, calls = engine_walks(monkeypatch), engine_runs(monkeypatch, code)
    rep = nc.edge_removal_report(inst, "b", "c", Fraction(1), code=code, epsilon=Fraction(1))
    assert built == [True] and len(walks[0]) == 1
    assert len(walks[1]) == 2
    assert sum(on_code for on_code, _ in calls) == runs[0]

    rates = [Fraction(1, code.outer_n)] * len(aug.sources)
    built.clear()
    walks[0].clear()
    calls.clear()
    rated = nc.edge_removal_report(inst, "b", "c", Fraction(1), code=code, rates=rates,
                                   epsilon=Fraction(1))
    assert built == [True] and len(walks[0]) == 1
    assert sum(on_code for on_code, _ in calls) == runs[1]
    ver = rated.verification
    assert ver.base_report == nc.check_feasibility(code, aug, rates=rates, epsilon=Fraction(1))
    spaces = [nc.message_size_for_rate(r, code.inner_n, code.outer_n) for r in rates]
    sides = (ver.decomposition.u_side, ver.decomposition.v_side)
    assert [(s.source_indices, s.fixing, s.conditional_error) for s in sides] == rated_sides(
        aug, code, rated.bridge.u_side, spaces)
    assert all(side.trace_match for side in sides)
    want = bridge_fields(ref.per_tuple_bridge_decompose(aug, "b", "c", code))
    assert bridge_fields(rep.verification.decomposition) == want
    assert ver.passed == rep.verification.passed


def test_bridge_report_leaves_no_cyclic_garbage():
    inst = bridged_pair()
    _, code = clamp_pair()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        nc.edge_removal_report(inst, "b", "c", Fraction(1), code=code, epsilon=Fraction(1, 4))
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


# ------------------------------------------------------ on-demand far replay

def bridge_n12_code(n_rounds=12):
    """(two triangles joined by the probe c-d, its augmented instance, the
    routing code of the bridge benchmark workload): a->b at round N, d->g
    at round 1, c->d->f at (N-1, N), and g->d->c->a at (t, t+1, t+2) for
    every t = 1..N-2; n=8."""
    inst = make(inst_doc(
        "abcdfg",
        [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1"),
         ("d", "f", "1"), ("f", "g", "1"), ("d", "g", "1")],
        ["a", "d", "c", "g"], ["b", "g", "f", "a"],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))
    aug = nc.add_edge(inst, "c", "d", Fraction(1))
    routes = [nc.Route(0, 0, ("a", "b"), (n_rounds,)), nc.Route(1, 1, ("d", "g"), (1,)),
              nc.Route(2, 2, ("c", "d", "f"), (n_rounds - 1, n_rounds))]
    routes += [nc.Route(3, 3, ("g", "d", "c", "a"), (t, t + 1, t + 2)) for t in range(1, n_rounds - 1)]
    return inst, aug, nc.make_routing_code(aug, routes, 8, n_rounds, [256, 2, 2, 2])


def counted(monkeypatch, module, name):
    """The arguments of every `module.name` view built from now on."""
    built, cls = [], getattr(module, name)

    class Counted(cls):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(module, name, Counted)
    return built


def test_bridge_report_replays_only_the_slots_its_anchors_read(monkeypatch):
    # each anchor map call replays the far slots its reads reach, each once:
    # on the u side c reads d->c at t+1, which reads g->d at t; on the v
    # side d reads c->d at 11 alone.  No other far encoder runs in a replay
    # (c->a at 3..12, a->b at 12 and d->f at 12 and d->g at 1 are far for
    # one side each, outside its cone), and a report builds 34 replaying
    # views and 50 recording views, all on the check's engine, for 810 map
    # calls
    inst, aug, code = bridge_n12_code()
    ran, real = {}, nc.removal._side_replay

    def spied(inst, code, side, *rest):
        def spy(key, enc):
            def encoder(view):
                ran.setdefault(min(side), []).append(key)
                return enc(view)
            return encoder

        return real(inst, code._replace(encoders={key: spy(key, enc) for key, enc in
                                                  code.encoders.items()}), side, *rest)

    monkeypatch.setattr(nc.removal, "_side_replay", spied)
    replaying = counted(monkeypatch, nc.removal, "_Replaying")
    recording = counted(monkeypatch, nc.codes, "_Recording")
    calls, call = [0], Engine._call

    def counted_call(self, memo, state):
        calls[0] += 1
        return call(self, memo, state)

    monkeypatch.setattr(Engine, "_call", counted_call)
    rep = nc.edge_removal_report(inst, "c", "d", Fraction(1), code=code)
    assert rep.verification.passed

    def keys(sender, receiver, rounds):
        idx, direction = aug.slot(sender, receiver)
        return {(idx, t, direction) for t in rounds}

    assert {side: set(ran_keys) for side, ran_keys in ran.items()} == {
        "a": keys("d", "c", range(2, 12)) | keys("g", "d", range(1, 11)), "d": keys("c", "d", (11,))}
    assert (len(replaying), len(recording), calls[0]) == (34, 50, 810)



def test_no_map_run_of_the_bridge_check_or_report_ends_in_an_unset_read(monkeypatch):
    # the check's seed leaves one clean path in every trie, so its walk
    # finds each unset position by a trie descent, and the trace matches'
    # side sinks read only positions the pass sets
    inst, aug, code = bridge_n12_code()
    unset = unset_runs(monkeypatch)
    assert nc.check_feasibility(code, aug).certified
    assert nc.edge_removal_report(inst, "c", "d", Fraction(1), code=code).verification.passed
    assert unset == []

def stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_replay_chain_longer_than_the_recursion_limit(monkeypatch):
    # message 0 ping-pongs g-d on the far side for more rounds than the
    # recursion limit allows frames, then crosses d->c->a; c, the u side's
    # anchor, relays it at the last round, so its replay reaches back to
    # round 1.  Slots REPLAY_ROUNDS or more rounds back are replayed first,
    # in round order, so the report needs no deeper stack; without that
    # bound the replay recurses once per round
    limit = stack_depth() + 300
    hops = limit + 21 - limit % 2  # odd: the ping-pong ends at d
    inst = make(inst_doc("acdg", [("a", "c", "1"), ("d", "g", "1")], ["g", "c"], ["a"], [[1], [1]]))
    aug = nc.add_edge(inst, "c", "d", Fraction(1))
    nodes = tuple("gd"[h % 2] for h in range(hops + 1)) + ("c", "a")
    code = nc.make_routing_code(aug, [nc.Route(0, 0, nodes, tuple(range(1, hops + 3))),
                                      nc.Route(1, 0, ("c", "a"), (1,))], 1, hops + 2, [2, 2])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        assert hops > sys.getrecursionlimit()
        rep = nc.edge_removal_report(inst, "c", "d", Fraction(1), code=code)
        monkeypatch.setattr(nc.removal, "REPLAY_ROUNDS", hops)
        with pytest.raises(RecursionError):
            nc.edge_removal_report(inst, "c", "d", Fraction(1), code=code)
    finally:
        sys.setrecursionlimit(old)
    ver = rep.verification
    assert ver.passed and ver.decomposition.u_side.code is not None
    assert ver.decomposition.u_side.trace_match and ver.decomposition.v_side.trace_match


def cycle4_against_path():
    # cycle4 with b-c stored as c-b, against the widest a-c path a-b-c
    return make(inst_doc(
        "abcd",
        [("a", "b", "1"), ("c", "b", "1"), ("c", "d", "1"), ("d", "a", "1")],
        ["a", "c"], ["c", "a"], [[1, 0], [0, 1]]))


@pytest.mark.parametrize("n_rounds", [2, 3])
@pytest.mark.parametrize(
    "make_inst, off_path",
    [(cycle4, False), (cycle4_against_path, False), (cycle4, True), (cycle4_against_path, True)],
    ids=["cycle4", "cycle4_against_path", "cycle4_off_path", "cycle4_against_path_off_path"])
def test_host_path_code_folds_star_symbols(n_rounds, make_inst, off_path):
    # Each host symbol is the mixed-radix combination of the star symbols
    # folded onto its edge, the original edge first: the relay path
    # a-relay2-c folds onto a-b-c.  Off the path, c-d and d-a carry one
    # star edge each, a one-digit combination.
    stages = {name[name.index("-") + 1:]: (inst, code)
              for name, inst, code in path_chain(n_rounds, make_inst(), off_path)}
    star, piped = stages["pipeline"]
    host, hosted = stages["host"]

    def host_of(x):
        return "b" if x == "relay2" else x

    folds = []  # (host sender, host receiver, [(star sender, star receiver)])
    for he in host.edges:
        onto = sorted(
            (se for se in star.edges if {host_of(se.a), host_of(se.b)} == {he.a, he.b}),
            key=lambda se: "relay2" in (se.a, se.b),
        )
        for x, y in ((he.a, he.b), (he.b, he.a)):
            folds.append((x, y, [(se.a, se.b) if host_of(se.a) == x else (se.b, se.a) for se in onto]))
    assert sorted(len(parts) for *_, parts in folds) == [1, 1, 1, 1, 2, 2, 2, 2]

    def star_size(sender, receiver, t):
        idx, sender_is_a = star.edge_between(sender, receiver)
        return piped.splits.size(idx, t, nc.FWD if sender_is_a else nc.BWD)

    relay_digits = set()
    for tup in itertools.product(*(range(s) for s in piped.message_sizes)):
        star_tr = nc.execute(piped, star, tup)
        host_tr = nc.execute(hosted, host, tup)
        for t in range(1, piped.outer_n + 1):
            for x, y, parts in folds:
                digits = [star_tr.sent(a, b, t) for a, b in parts]
                radices = [star_size(a, b, t) for a, b in parts]
                assert host_tr.sent(x, y, t) == combine_digits(digits, radices)
                relay_digits.update(digits[1:])
    assert relay_digits == {0, 1}


# ----------------------------------------------------- path-case verification

def chord_routes_code(aug, n):
    routes = [nc.Route(0, 0, ("a", "c"), (1,)), nc.Route(1, 1, ("c", "a"), (2,))]
    return nc.make_routing_code(aug, routes, n, 2, [2, 2])


def test_path_report_full_chain_unit_lambda():
    inst = cycle4()
    lam = Fraction(1)
    aug = nc.add_edge(inst, "a", "c", lam)
    code = chord_routes_code(aug, 1)
    rates = [Fraction(1, 2), Fraction(1, 2)]
    rep = nc.edge_removal_report(inst, "a", "c", lam, code=code, rates=rates)
    assert rep.alpha == Fraction(1, 2)
    assert rep.f_lambda == 8
    assert rep.f_rate_form == Fraction(1, 4)
    ver = rep.verification
    assert ver.ell == 3
    assert (ver.final_inner_n, ver.final_outer_n) == (2, 10)
    assert ver.base_report.passed and ver.base_report.measured_error == 0
    assert ver.final_report.passed and ver.final_report.measured_error == 0
    assert [cl.claimed_rate for cl in ver.rate_claims] == [Fraction(1, 10)] * 2
    assert all(cl.achieved for cl in ver.rate_claims)
    assert ver.passed


def test_path_report_on_a_reblocked_code():
    # the path case interleaves the code, so a reblocked code's encoders
    # read remapped's view of session views; reblock at m=1 keeps every
    # trace, so both checks must measure what they measure on the code
    inst = cycle4()
    aug = nc.add_edge(inst, "a", "c", Fraction(1))
    code = chord_routes_code(aug, 1)
    vers = [nc.edge_removal_report(inst, "a", "c", Fraction(1), code=c).verification
            for c in (code, nc.reblock(code, aug, 1))]
    assert [(ver.passed, ver.base_report.measured_error, ver.base_report.trials,
             ver.final_report.measured_error, ver.final_report.trials) for ver in vers] == \
        [(True, 0, 4, 0, 16)] * 2


def test_path_report_full_chain_half_lambda():
    inst = cycle4()
    lam = Fraction(1, 2)
    aug = nc.add_edge(inst, "a", "c", lam)
    code = chord_routes_code(aug, 2)
    rates = [Fraction(1, 4), Fraction(1, 4)]
    rep = nc.edge_removal_report(inst, "a", "c", lam, code=code, rates=rates)
    assert rep.delta == Fraction(1, 2)
    assert rep.alpha == Fraction(2, 3)
    assert rep.f_lambda == 4
    assert rep.f_rate_form == Fraction(1, 12)
    ver = rep.verification
    assert (ver.final_inner_n, ver.final_outer_n) == (3, 10)
    assert ver.final_report.measured_error == 0
    assert [cl.claimed_rate for cl in ver.rate_claims] == [Fraction(1, 15)] * 2
    assert ver.passed


def test_path_report_renames_a_relay_that_names_a_vertex(monkeypatch):
    # cycle4 with b named relay2: the widest a-c path is a-d-c, and the
    # fresh relay node takes the next free name
    inst = make(inst_doc(
        ["a", "relay2", "c", "d"],
        [("a", "relay2", "1"), ("relay2", "c", "1"), ("c", "d", "1"), ("d", "a", "1")],
        ["a", "c"], ["c", "a"], [[1, 0], [0, 1]]))
    aug = nc.add_edge(inst, "a", "c", Fraction(1))
    paths = []
    real = nc.removal.host_path_code

    def spy(piped, star_inst, host_inst, star_path, host_path):
        paths.append((list(star_path), list(host_path)))
        return real(piped, star_inst, host_inst, star_path, host_path)

    monkeypatch.setattr(nc.removal, "host_path_code", spy)
    rep = nc.edge_removal_report(inst, "a", "c", Fraction(1), code=chord_routes_code(aug, 1))
    assert paths == [(["a", "relay2_", "c"], ["a", "d", "c"])]
    assert rep.verification.passed


def test_path_report_claims_the_rate_the_rounded_blocklength_gives():
    # alpha = 3/5 does not divide n = 2: scale_code stretches n to
    # ceil(2/alpha) = 4, so the final code carries exactly
    # 2/4 * N/(N+ell) * R = 1/16, below alpha * N/(N+ell) * R = 3/40
    inst = fractional_alpha()
    aug = nc.add_edge(inst, "v0", "v4", Fraction(1))
    code = nc.make_routing_code(aug, [nc.Route(0, 0, ("v3", "v2"), (1,))], 2, 1, [2])
    rep = nc.edge_removal_report(inst, "v0", "v4", Fraction(1), code=code, rates=[Fraction(1, 2)])
    ver = rep.verification
    assert (rep.alpha, ver.ell, ver.final_inner_n, ver.final_outer_n) == (Fraction(3, 5), 3, 4, 4)
    assert ver.base_report.measured_error == ver.final_report.measured_error == 0
    assert [(cl.claimed_rate, cl.achieved) for cl in ver.rate_claims] == [(Fraction(1, 16), True)]
    assert ver.passed


def test_path_report_names_the_star_slot_a_folded_symbol_overflows():
    # a->c sends message 0 whole over a two-symbol slot.  Over its whole
    # space the final code meets message 2, which the host fold names on
    # the relay; at rates (1, 0) the base check runs messages 0 and 1,
    # which fit, and the final check runs only their image
    inst = cycle4()
    aug = nc.add_edge(inst, "a", "c", Fraction(1))
    probe = aug.edge_between("a", "c")[0]
    code = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(4, 2),
        splits=nc.AlphabetSplit({(probe, 1): (2, 1)}),
        encoders={(probe, 1, nc.FWD): lambda view: view.message(0)},
        decoders={0: lambda view: (view.recv("a", 1),), 1: lambda view: (0,)},
    )
    _, _, scaled = path_chain(1, base=code)[-1]
    with pytest.raises(SymbolOutOfRange,
                       match="encoder on 'a'-'relay2' t=1 fwd produced 2, alphabet size 2"):
        nc.check_feasibility(scaled, inst)
    rep = nc.edge_removal_report(inst, "a", "c", Fraction(1), code=code,
                                 rates=[Fraction(1), Fraction(0)])
    assert rep.verification.final_report.trials == 2 and rep.verification.passed


def test_path_report_checks_the_final_code_over_the_image_of_the_rates():
    # rates 1/2 check messages 0 and 1, which the chord sends as they are:
    # the final check runs their image, a box of two session digits in
    # {0, 1} per message, and never meets message 3 in a session
    inst = cycle4()
    aug = nc.add_edge(inst, "a", "c", Fraction(2))
    rep = nc.edge_removal_report(inst, "a", "c", Fraction(2), code=three_as_zero_chord_code(aug),
                                 rates=[Fraction(1, 2)] * 2)
    ver = rep.verification
    assert (ver.base_report.measured_error, ver.base_report.trials) == (0, 4)
    final = ver.final_report
    assert (final.rates, final.trials, final.measured_error) == (None, 16, 0)
    assert final.message_sizes == (16, 16)
    assert [(cl.claimed_rate, cl.achieved) for cl in ver.rate_claims] == [(Fraction(1, 15), True)] * 2
    assert ver.passed


def test_path_report_without_code():
    rep = nc.edge_removal_report(cycle4(), "a", "c", Fraction(1),
                                 rates=[Fraction(1, 2), Fraction(1, 3)])
    assert rep.case == "path"
    assert rep.verification is None
    assert rep.f_rate_form == Fraction(1, 2) * Fraction(1, 2)
