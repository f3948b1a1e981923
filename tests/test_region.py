import tracemalloc
from fractions import Fraction

import pytest

import netcode as nc
from netcode.errors import EnumerationTooLarge, MalformedDocument
from netcode.region import _rgs_exact

from conftest import (
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
