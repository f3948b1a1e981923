"""Randomized invariant checks over small generated inputs."""

from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

import netcode as nc
from netcode.errors import NotConnected
from netcode.rational import (
    alphabet_size,
    ceil_root,
    combine_digits,
    floor_pow2,
    floor_root,
    format_rational,
    log2_at_least,
    parse_rational,
    split_digits,
)

from conftest import brute_force_cut, inst_doc, make, widest_path_oracle

CAPS = ["1/2", "1", "3/2", "2", "7/3"]


@st.composite
def small_instances(draw):
    nv = draw(st.integers(2, 5))
    verts = [f"v{i}" for i in range(nv)]
    pairs = [(verts[i], verts[j]) for i in range(nv) for j in range(i + 1, nv)]
    chosen = draw(st.lists(
        st.sampled_from(pairs), unique=True, min_size=1, max_size=len(pairs)))
    caps = draw(st.lists(
        st.sampled_from(CAPS), min_size=len(chosen), max_size=len(chosen)))
    edges = [(a, b, c) for (a, b), c in zip(chosen, caps)]
    k = draw(st.integers(1, 2))
    sources, terminals = [], []
    for _ in range(k):
        s = draw(st.sampled_from(verts))
        t = draw(st.sampled_from([v for v in verts if v != s]))
        sources.append(s)
        terminals.append(t)
    demand = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    return make(inst_doc(verts, edges, sources, terminals, demand))


@given(small_instances())
@settings(deadline=None)
def test_components_partition_the_vertices(inst):
    blocks = nc.connected_components(inst)
    flat = [v for block in blocks for v in block]
    assert sorted(flat) == sorted(inst.vertices)
    assert len(flat) == len(set(flat))
    assert all(list(block) == sorted(block) for block in blocks)
    assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
    where = {v: i for i, block in enumerate(blocks) for v in block}
    for e in inst.edges:
        assert where[e.a] == where[e.b]


@given(small_instances(), st.sampled_from(["1/3", "1/2", "5/4", "2", "3"]))
@settings(deadline=None)
def test_scaling_is_exact_and_cut_bound_is_linear(inst, alpha_text):
    alpha = Fraction(alpha_text)
    scaled = nc.scale_instance(inst, alpha)
    assert scaled.vertices == inst.vertices
    assert scaled.sources == inst.sources
    assert scaled.terminals == inst.terminals
    assert scaled.demand == inst.demand
    assert all(
        se.cap == alpha * e.cap and (se.a, se.b) == (e.a, e.b)
        for se, e in zip(scaled.edges, inst.edges)
    )
    s, t = inst.sources[0], inst.terminals[0]
    assert nc.cut_bound(scaled, [s], [t]) == alpha * nc.cut_bound(inst, [s], [t])


@given(small_instances())
@settings(deadline=None)
def test_cut_bound_is_symmetric_and_matches_enumeration(inst):
    s, t = inst.sources[0], inst.terminals[0]
    bound = nc.cut_bound(inst, [s], [t])
    assert bound == nc.cut_bound(inst, [t], [s])
    assert bound == brute_force_cut(inst, [s], [t])

    group_a, group_b = set(inst.sources), set(inst.terminals)
    assume(not group_a & group_b)
    grouped = nc.cut_bound(inst, sorted(group_a), sorted(group_b))
    assert grouped == nc.cut_bound(inst, sorted(group_b), sorted(group_a))
    assert grouped == brute_force_cut(inst, group_a, group_b)


@given(small_instances())
@settings(deadline=None)
def test_widest_path_matches_oracle_and_respects_cuts(inst):
    s, t = inst.sources[0], inst.terminals[0]
    oracle = widest_path_oracle(inst, s, t)
    if oracle is None:
        assert nc.cut_bound(inst, [s], [t]) == 0
        try:
            nc.widest_path(inst, s, t)
        except NotConnected:
            return
        raise AssertionError("expected NotConnected")
    wp = nc.widest_path(inst, s, t)
    assert wp.gamma == oracle[0]
    assert list(wp.nodes) == list(oracle[1])
    assert wp.gamma <= nc.cut_bound(inst, [s], [t])


@given(st.lists(st.integers(1, 6), min_size=1, max_size=5), st.data())
def test_mixed_radix_round_trip(radices, data):
    digits = [data.draw(st.integers(0, r - 1)) for r in radices]
    packed = combine_digits(digits, radices)
    total = 1
    for r in radices:
        total *= r
    assert 0 <= packed < total
    assert list(split_digits(packed, radices)) == digits

    # first digit is most significant
    rest = 1
    for r in radices[1:]:
        rest *= r
    assert packed == digits[0] * rest + combine_digits(digits[1:], radices[1:])

    x = data.draw(st.integers(0, total - 1))
    assert combine_digits(list(split_digits(x, radices)), radices) == x


@given(st.integers(0, 10**6), st.integers(1, 5))
def test_integer_roots_bracket_their_argument(x, k):
    r = floor_root(x, k)
    assert r >= 0
    assert r**k <= x < (r + 1) ** k
    if x >= 1:
        c = ceil_root(x, k)
        assert (c - 1) ** k < x <= c**k


@given(st.integers(0, 24), st.integers(1, 4))
def test_floor_pow2_is_the_largest_admissible_size(p, q):
    exponent = Fraction(p, q)
    v = floor_pow2(exponent)
    assert v >= 1
    assert log2_at_least(v + 1, exponent)
    assert not log2_at_least(v, exponent) or v**q == 2**p
    # v <= 2^(p/q) iff v^q <= 2^p, exactly
    assert v**q <= 2**p < (v + 1) ** q


@given(st.sampled_from(CAPS), st.integers(1, 8))
def test_alphabet_size_agrees_with_exact_power_comparison(cap_text, n):
    cap = Fraction(cap_text)
    size = alphabet_size(cap, n)
    exponent = cap * n
    assert size == floor_pow2(exponent)
    assert size ** exponent.denominator <= 2**exponent.numerator
    assert (size + 1) ** exponent.denominator > 2**exponent.numerator


@given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
def test_rational_strings_round_trip(num, den):
    x = Fraction(num, den)
    text = format_rational(x)
    assert parse_rational(text) == x
    assert " " not in text
    if x.denominator == 1:
        assert "/" not in text
