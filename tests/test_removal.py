from fractions import Fraction

import pytest

import netcode as nc
from netcode.errors import (
    BadPath,
    EdgeMissing,
    EdgePresent,
    EnumerationTooLarge,
    NonPositiveCapacity,
    NotABridge,
    UnknownVertex,
)
from netcode.rational import log2_at_least

from conftest import cycle4, inst_doc, make, two_triangles


def bridged_pair():
    # two cap-2 links; the probe b-c is their only connection
    return make(inst_doc(
        "abcd", [("a", "b", "2"), ("c", "d", "2")],
        ["a", "c"], ["b", "d"], [[1, 0], [0, 1]]))


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


def test_bridge_decompose_replays_cross_traffic():
    # d's message reaches a over the bridge; after decomposition the near
    # side must regenerate that traffic from the fixed far messages
    inst = make(inst_doc(
        "abcd", [("a", "b", "1"), ("c", "d", "1")],
        ["a", "d"], ["b", "a"], [[1, 0], [0, 1]]))
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    code = nc.make_routing_code(
        aug,
        [nc.Route(0, 0, ("a", "b"), (1,)),
         nc.Route(1, 1, ("d", "c", "b", "a"), (1, 2, 3))],
        1, 3, [2, 2])
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


def test_path_report_without_code():
    rep = nc.edge_removal_report(cycle4(), "a", "c", Fraction(1),
                                 rates=[Fraction(1, 2), Fraction(1, 3)])
    assert rep.case == "path"
    assert rep.verification is None
    assert rep.f_rate_form == Fraction(1, 2) * Fraction(1, 2)
