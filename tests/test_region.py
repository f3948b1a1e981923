import copy
import itertools
import pickle
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

import netcode as nc
import reference_exec as ref
from netcode import region
from netcode.errors import EnumerationTooLarge, MalformedDocument
from netcode.rational import alphabet_size
from netcode.region import _rgs_exact

from conftest import (
    corpus,
    cycle4,
    inst_doc,
    line3,
    make,
    pair_at_one_node,
    single_edge,
    single_edge_cap2,
    star3,
    triangle,
    two_way,
)


def F(x):
    return Fraction(x)


def test_rgs_enumeration():
    assert list(_rgs_exact(3, 2)) == [(0, 0, 1), (0, 1, 0), (0, 1, 1)]
    assert list(_rgs_exact(3, 1)) == [(0, 0, 0)]
    assert list(_rgs_exact(2, 3)) == []
    assert list(_rgs_exact(1, 1)) == [(0,)]
    # surjection counts up to range relabeling: Stirling numbers
    assert len(list(_rgs_exact(4, 2))) == 7
    assert len(list(_rgs_exact(4, 3))) == 6


def test_single_edge_region():
    assert nc.rate_region_micro(single_edge(), 1, 1) == {(F(1),)}


def test_two_way_region_n1():
    # both directions want a bit but one round's split cannot carry both
    assert nc.rate_region_micro(two_way(), 1, 1) == {(F(1), F(0)), (F(0), F(1))}


def test_two_way_region_n2_includes_split_point():
    region = nc.rate_region_micro(two_way(), 1, 2)
    assert region == {
        (F(1), F(0)),
        (F(0), F(1)),
        (Fraction(1, 2), Fraction(1, 2)),
    }


def test_relay_region_needs_second_round():
    assert nc.rate_region_micro(line3(), 1, 1) == {(F(0),)}
    assert nc.rate_region_micro(line3(), 1, 2) == {(Fraction(1, 2),)}


def test_pair_at_one_node_region():
    assert nc.rate_region_micro(pair_at_one_node(), 1, 1) == {
        (F(1), F(0)),
        (F(0), F(1)),
    }


def test_multicast_region():
    assert nc.rate_region_micro(star3(), 1, 1) == {(F(1),)}


def test_triangle_region_rejects_two_bits_in_one_round():
    # the chord relay cannot help inside a single round, so 2 bits fail
    # even though the vertex cut would allow them
    assert nc.rate_region_micro(triangle(), 1, 1) == {(F(1),)}


def test_region_points_respect_cut_bounds():
    for inst, n, outer_n in (
        (single_edge(), 1, 1),
        (two_way(), 1, 2),
        (line3(), 1, 2),
        (star3(), 1, 1),
    ):
        region = nc.rate_region_micro(inst, n, outer_n)
        for point in region:
            for i, rate in enumerate(point):
                wanted = [
                    inst.terminals[j]
                    for j in range(len(inst.terminals))
                    if inst.demand[i][j]
                ]
                group_b = [d for d in wanted if d != inst.sources[i]]
                if not group_b:
                    continue
                assert rate <= nc.cut_bound(inst, [inst.sources[i]], group_b)


@pytest.mark.parametrize("value", [True, 1.5, "4", 0])
def test_region_limits_are_positive_integers(value):
    with pytest.raises(MalformedDocument):
        nc.RegionLimits(max_ops=value)


def test_region_limits_copy_and_pickle():
    limits = nc.RegionLimits(max_outer=3, max_message_size=4)
    for twin in (copy.copy(limits), copy.deepcopy(limits), pickle.loads(pickle.dumps(limits))):
        assert twin == limits and repr(twin) == repr(limits)


def test_bigger_alphabet_with_raised_limits():
    limits = nc.RegionLimits(max_alphabet=4)
    region = nc.rate_region_micro(single_edge_cap2(), 1, 1, limits)
    assert region == {(F(2),)}


def test_region_limit_guards():
    with pytest.raises(EnumerationTooLarge):
        nc.rate_region_micro(cycle4(), 1, 1)
    with pytest.raises(EnumerationTooLarge):
        nc.rate_region_micro(single_edge(), 1, 3)
    with pytest.raises(EnumerationTooLarge):
        nc.rate_region_micro(single_edge_cap2(), 1, 1)
    with pytest.raises(EnumerationTooLarge):
        nc.rate_region_micro(line3(), 1, 2, nc.RegionLimits(max_ops=10))



def test_region_budget_charges_the_descent_over_empty_slots(monkeypatch):
    # every slot of size (1, 1) is charged for its two trivial functions, so
    # max_ops=100 stops the search within 50 steps of its 3,000 slots; each
    # step rebuilds the terminal's views (one Counter)
    steps = []
    monkeypatch.setattr(region, "Counter", lambda groups: steps.append(1) or Counter(groups))
    limits = nc.RegionLimits(max_outer=3000, max_ops=100)
    with pytest.raises(EnumerationTooLarge, match="^region search used all of max_ops=100$"):
        nc.rate_region_micro(single_edge(), 1, 3000, limits)
    assert len(steps) <= 50

def test_region_budget_bounds_the_size_sweep():
    # five sources on one edge: 11**5 size tuples up to 1024, one op allowed
    inst = make(inst_doc("ab", [("a", "b", "1")], ["a"] * 5, ["b"], [[1]] * 5))
    limits = nc.RegionLimits(max_message_size=1024, max_ops=1)
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationTooLarge):
            nc.rate_region_micro(inst, 1, 1, limits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Every corpus case the earlier search (reference_exec) decides within
# about 50 ms: (corpus index, n, N).  Larger N, and n = 2 on the 4- and
# 6-vertex instances other than cycle4, take it seconds; single_edge_cap2
# (index 1) has alphabet 16 at n = 2.
REFERENCE_CASES = (
    [(i, 1, 1) for i in range(12)]
    + [(i, 1, 2) for i in (0, 1, 2, 3, 4, 5, 6, 10)]
    + [(i, 2, 1) for i in (0, 2, 3, 4, 5, 6, 7, 10)]
)
REFERENCE_LIMITS = nc.RegionLimits(max_edges=7, max_alphabet=4, max_message_size=4)


def verdicts(search, inst, n, outer_n, cap):
    """Each size tuple the sweep up to `cap` searches, with its verdict."""
    alphabets = tuple(alphabet_size(e.cap, n) for e in inst.edges)
    cuts = region._cut_prune(inst, alphabets, outer_n)
    powers = [1 << b for b in range(cap.bit_length())]
    out, infeasible = {}, []
    for sizes in itertools.product(powers, repeat=len(inst.sources)):
        if any(all(s >= g for s, g in zip(sizes, bad)) for bad in infeasible):
            continue
        if region._passes_cuts(cuts, sizes):
            out[sizes] = search(inst, alphabets, outer_n, sizes, region._Budget(10 ** 6))
        if not out.get(sizes):
            infeasible.append(sizes)
    return out


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_pruned_search_matches_the_earlier_search(case):
    idx, n, outer_n = case
    inst = corpus()[idx]
    cap = REFERENCE_LIMITS.max_message_size
    assert verdicts(region._search_codes, inst, n, outer_n, cap) == verdicts(
        ref._search_codes, inst, n, outer_n, cap
    )
    before = ref.rate_region_micro(inst, n, outer_n, REFERENCE_LIMITS)
    try:
        after = nc.rate_region_micro(inst, n, outer_n, REFERENCE_LIMITS)
    except EnumerationTooLarge as exc:
        # only a cap that binds stops the search, at a point the cap reaches
        assert "max_message_size=4" in str(exc)
        assert any(Fraction(2, n * outer_n) in point for point in before)
    else:
        assert after == before


def test_sizes_reach_each_cut_ceiling():
    # the old size ceiling of 4 hid the single-message points at N=3
    limits = nc.RegionLimits(max_outer=3)
    assert nc.rate_region_micro(two_way(), 1, 3, limits) == {
        (F(0), F(1)),
        (Fraction(1, 3), Fraction(2, 3)),
        (Fraction(2, 3), Fraction(1, 3)),
        (F(1), F(0)),
    }
    with pytest.raises(EnumerationTooLarge, match=r"max_message_size=4 .*cut ceiling 8"):
        nc.rate_region_micro(two_way(), 1, 3, nc.RegionLimits(max_outer=3, max_message_size=4))
    # a cap at the cut ceiling cuts nothing short
    assert nc.rate_region_micro(
        two_way(), 1, 3, nc.RegionLimits(max_outer=3, max_message_size=8)
    ) == nc.rate_region_micro(two_way(), 1, 3, limits)


def test_terminal_decodes_with_its_own_messages():
    # b demands its own message, which a also demands: b decodes it from
    # its own messages alone, so a prune that groups b's view without them
    # would lose (0, 1)
    inst = make(inst_doc("ab", [("a", "b", "1")], ["a", "b"], ["b", "a", "b"],
                         [[1, 0, 0], [0, 1, 1]]))
    assert nc.rate_region_micro(inst, 1, 1) == {(F(1), F(0)), (F(0), F(1))}


def test_source_bounded_by_no_cut_needs_a_cap():
    # source 1 is demanded only where it sits, so its rate has no bound
    inst = make(inst_doc("ab", [("a", "b", "1")], ["a", "b"], ["b", "b"], [[1, 0], [0, 1]]))
    with pytest.raises(EnumerationTooLarge, match=r"no cut bounds source 1 at 'b'"):
        nc.rate_region_micro(inst, 1, 1)
    with pytest.raises(EnumerationTooLarge, match=r"max_message_size=2 .*source 1 .*none"):
        nc.rate_region_micro(inst, 1, 1, nc.RegionLimits(max_message_size=2))
