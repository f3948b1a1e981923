"""Randomized invariant checks over small generated inputs."""

import itertools
from fractions import Fraction
from unittest import mock

from hypothesis import assume, example, given, settings, strategies as st

import netcode as nc
from netcode import codes
from netcode.codes import Engine
from netcode.errors import NotConnected
from netcode.transforms import remapped
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

import reference_exec as ref
from conftest import (
    all_simple_paths, bridged_pair, brute_force_cut, inst_doc, make, widest_path_oracle)

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


@st.composite
def removal_cases(draw, bridge=False, path=False):
    """(G, probe u-v, lambda, routing code on G+e, rates): G has 3-5
    vertices in one component (the path case, always with `path`) or two
    that the probe joins (the bridge case, always with `bridge`); each of
    at most two unit-demand sources routes one bit along a simple path of
    G+e, hop h in round h."""
    nv = draw(st.integers(3, 5))
    verts = [f"v{i}" for i in range(nv)]
    split = nv
    if not path and (bridge or draw(st.booleans())):
        split = draw(st.integers(1, nv - 1))
    tree = [(verts[draw(st.integers(0 if i < split else split, i - 1))], verts[i])
            for i in range(1, nv) if i != split]
    side = {v: i >= split for i, v in enumerate(verts)}
    others = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
              if (a, b) not in tree and side[a] == side[b]]
    extra = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
    probes = [(a, b) for i, a in enumerate(verts) for b in verts[i + 1:]
              if (a, b) not in tree + extra and (split == nv or side[a] != side[b])]
    assume(probes)
    u, v = draw(st.sampled_from(probes))
    edges = [(a, b, draw(st.sampled_from(CAPS))) for a, b in tree + extra]
    lam = Fraction(draw(st.sampled_from(["1/2", "2/3", "1", "5/3", "2"])))
    pairs = [(s, t) for s in verts for t in verts if s != t]
    ends = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=2))
    k = len(ends)
    inst = make(inst_doc(verts, edges, [s for s, _ in ends], [t for _, t in ends],
                         [[int(i == j) for j in range(k)] for i in range(k)]))
    aug = nc.add_edge(inst, u, v, lam)
    paths = [draw(st.sampled_from(all_simple_paths(aug, s, t))) for s, t in ends]
    outer_n = max(len(path) - 1 for path in paths)
    # n = 4 gives every edge at least 4 symbols, room for two bits in a slot
    code = nc.make_routing_code(
        aug, [nc.Route(i, i, path, tuple(range(1, len(path)))) for i, path in enumerate(paths)],
        4, outer_n, [2] * k)
    return inst, u, v, lam, code, [Fraction(1, 4 * outer_n)] * k


@given(removal_cases())
@settings(deadline=None, max_examples=25)
def test_removing_the_probe_edge_keeps_a_zero_error_code(case):
    # the paper's theorem on drawn inputs: a zero-error code on G+e becomes
    # a zero-error code on G at the claimed rates, losing at most O(lambda)
    inst, u, v, lam, code, rates = case
    rep = nc.edge_removal_report(inst, u, v, lam, code=code, rates=rates)
    ver = rep.verification
    assert ver.base_report.measured_error == 0
    assert ver.passed
    if rep.case == "bridge":
        return
    final = ver.final_report
    assert final.measured_error == 0 and final.certified
    for claim, size, rate in zip(ver.rate_claims, final.message_sizes, rates):
        # message sizes stay powers of two, so the final rate is exact
        assert size & (size - 1) == 0
        assert claim.claimed_rate == Fraction(size.bit_length() - 1,
                                              ver.final_outer_n * ver.final_inner_n)
        assert rate - rep.alpha * rate <= rep.f_rate_form


@given(removal_cases(bridge=True), st.integers(0, 7), st.integers(0, 3), st.booleans())
@settings(deadline=None, max_examples=25)
def test_perturbed_side_encoder_matches_the_per_tuple_trace_match(case, slot, value, outside):
    # in each side code, one slot's encoder is off (by one in range, or out
    # of range) wherever the real one outputs `value`; the report's trace
    # match must give the reference loop's verdicts or raise its error
    inst, u, v, lam, code, _ = case
    real = nc.removal._simulated_side_code

    def perturbed(*args):
        side_code = real(*args)
        keys = sorted(side_code.encoders)
        key = keys[slot % len(keys)]
        enc, size = side_code.encoders[key], side_code.splits.size(*key)

        def encoder(s):
            out = enc(s)
            if out != value % size:
                return out
            return out + size if outside else (out + 1) % size

        return side_code._replace(encoders={**side_code.encoders, key: encoder})

    def outcome(decompose):
        try:
            decomp = decompose()
        except Exception as exc:
            return type(exc)
        return [side.trace_match for side in (decomp.u_side, decomp.v_side)]

    with mock.patch.object(nc.removal, "_simulated_side_code", perturbed):
        want = outcome(lambda: ref.per_tuple_bridge_decompose(nc.add_edge(inst, u, v, lam), u, v, code))
        assert outcome(lambda: nc.edge_removal_report(
            inst, u, v, lam, code=code).verification.decomposition) == want


def reads_of(view, aug, k, n_rounds, replaced=True) -> list:
    """What `view` answers, value or exception, to every message, digit and
    recv read of a node of `aug` (and a few past them), in one order; then,
    with `replaced`, what remapped's view of it answers."""
    def answer(read, *args):
        try:
            return read(*args)
        except Exception as exc:
            return type(exc), exc.args

    out = [answer(view.message, i) for i in range(k + 1)]
    out += [answer(view.digit, i, j, radices) for i in range(k + 1)
            for radices in ((2,), (1, 2), (2, 2)) for j in range(len(radices))]
    out += [answer(view.recv, sender, t) for sender in aug.vertices for t in range(n_rounds + 2)]
    if replaced:
        out += reads_of(remapped(lambda view: view, n_rounds, lambda host, sender, t: (sender, t))(view),
                        aug, k, n_rounds, False)
    return out


@given(removal_cases(bridge=True), st.integers(0, 3), st.booleans())
@settings(deadline=None, max_examples=25)
def test_side_views_read_as_the_closure_views(case, values, unset_slots):
    # the slotted replaying view over the slotted renaming view must answer
    # every read, and raise every error in the same order with the same
    # message, as the on-demand closure-built views do around the same
    # recording view, and make the same recorded reads, also through
    # remapped's view; with `unset_slots` the joint symbols are unset, so a
    # read raises the walk's _Unset.  The closure views read the production
    # replay in their own layouts, and split local from replayed slots by
    # their own rule.  The eager closure view, which replays every far slot
    # up to the round asked for, must give the same answers wherever the
    # joint symbols are set: it runs encoders outside the asked slot's cone,
    # so it reads more, and where a read is unset it may raise first
    inst, u, v, lam, code, _ = case
    aug = nc.add_edge(inst, u, v, lam)
    engine, k, e_idx = Engine(code, aug), len(aug.sources), aug.edge_between(u, v)[0]
    msgs = [(values >> i) & 1 for i in range(k)]
    state = [-1 if unset_slots and pos in engine._slots else value
             for pos, value in enumerate(engine.run(msgs))]
    u_side = next(c for c in nc.connected_components(inst) if u in c)
    for side in (set(u_side), set(aug.vertices) - set(u_side)):
        owned, foreign, _ = nc.removal._side_messages(aug, side)
        replay = nc.removal._side_replay(aug, code, side, e_idx, owned, {i: msgs[i] for i in foreign})
        _, _, own, side_pos, fixing, replayed = replay
        closure_replay = (aug, e_idx, side, own, side_pos, fixing, replayed)
        by_round = {}
        for (oi, t, direction), enc in replayed.items():
            by_round.setdefault(t, []).append(((oi, direction), enc, nc.graphs.slot_tail(aug, oi, direction)))
        eager_replay = closure_replay[:-1] + (by_round,)
        for node in sorted(side):
            for horizon in range(code.outer_n + 1):
                def recording(reads):
                    return codes._Recording(node, horizon, state, reads, engine._own[node],
                                            engine._inbound[node], engine._digits)

                old_reads, new_reads = [], []
                old = ref._on_demand_view(closure_replay, node, horizon,
                                          ref.match_view(recording(old_reads), owned))
                new = nc.removal._Replaying(replay, node, horizon,
                                            codes._Renamed(recording(new_reads), owned))
                answers = reads_of(new, aug, k, code.outer_n)
                assert answers == reads_of(old, aug, k, code.outer_n)
                assert new_reads == old_reads
                if not unset_slots:
                    eager = ref._replaying_view(eager_replay, node, horizon,
                                                ref.match_view(recording([]), owned))
                    assert answers == reads_of(eager, aug, k, code.outer_n)


@given(removal_cases(bridge=True))
@settings(deadline=None, max_examples=25)
def test_trace_match_skips_only_side_encoders_that_send_the_joint_symbol(case):
    # each side's match walks exactly the side slots of its anchor, the
    # bridge's end in the side; every other side encoder, on every free
    # tuple of the box, sends the joint symbol both on the joint execution,
    # read through the view the walk would give it, and in the side run of
    # an engine built here on the side code, which must be a valid code
    inst, u, v, lam, code, _ = case
    aug = nc.add_edge(inst, u, v, lam)
    e = aug.edges[aug.edge_between(u, v)[0]]
    matched, walked = [], []
    matches, sliced = Engine._matches, Engine._sliced_pass

    def spied_match(self, side_code, edges, messages, fixed, agreed):
        matched.append((self, side_code, edges, messages, fixed, agreed))
        return matches(self, side_code, edges, messages, fixed, agreed)

    def spied_pass(self, total, budget=None, sinks=None, fixed=None):
        if sinks is not None:
            walked.append(sorted((sink[0][1], sink[0][2]) for sink in sinks))
        return sliced(self, total, budget, sinks, fixed)

    with mock.patch.object(Engine, "_matches", spied_match), \
            mock.patch.object(Engine, "_sliced_pass", spied_pass):
        decomp = nc.bridge_decompose(aug, u, v, code)
    assert len(matched) == len(walked)
    k = len(aug.sources)
    for (engine, side_code, edges, messages, fixed, agreed), sinks in zip(matched, walked):
        side = next(side for side in decomp if side.code is side_code)
        part = Engine(side.code, side.instance)
        anchor = e.a if e.a in part.inst.vertices else e.b
        slots = part._slots.items()
        assert sinks == sorted((node, time) for _, node, time, *_ in part._slots.values()
                               if node == anchor)
        skipped = [(pos, memo) for pos, memo in slots if memo[0] in agreed]
        assert [memo[1] != anchor for _, memo in slots] == [memo[0] in agreed for _, memo in slots]
        for free in itertools.product(*(codes._values(engine.box[i]) for i in messages)):
            given = {**fixed, **dict(zip(messages, free))}
            state, mine = engine.run([given[i] for i in range(k)]), part.run(free)
            trace = engine.trace(state)
            for pos, (fn, node, time, *_) in skipped:
                p, t, direction = part._keys[pos]
                joint = trace.symbol(edges[p], t, direction)
                view = codes._Recording(node, time, state, [], engine._own[node],
                                        engine._inbound[node], engine._digits)
                assert fn(codes._Renamed(view, messages)) == joint
                assert mine[pos] == joint


def wrong_outside_rate_zero(case, key, i, outside):
    """The case's code with the encoder of slot `key` sending a wrong
    symbol, out of range with `outside`, wherever message i is not 0, and
    its rates with source i at 0."""
    inst, u, v, lam, code, rates = case
    enc, size = code.encoders[key], code.splits.size(*key)

    def encoder(s):
        if not s.message(i):
            return enc(s)
        return enc(s) + size if outside else (enc(s) + 1) % size

    code = code._replace(encoders={**code.encoders, key: encoder})
    return code, [Fraction(0) if source == i else rate for source, rate in enumerate(rates)]


def at_sources(aug, code, keep) -> list:
    """(slot, source i) for every encoder at the node of a source i that
    `keep(i)` accepts."""
    return [(key, i) for key in sorted(code.encoders) for i in range(len(aug.sources))
            if keep(i) and nc.graphs.slot_tail(aug, key[0], key[2]) == aug.sources[i]]


def bridged_pair_case():
    """removal_cases' form of bridged_pair with the probe b-c at lambda 1,
    a->b and c->d each routing one bit."""
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    routes = [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("c", "d"), (1,))]
    code = nc.make_routing_code(aug, routes, 4, 1, [2, 2])
    return inst, "b", "c", Fraction(1), code, [Fraction(1, 4)] * 2


@given(removal_cases(bridge=True), st.integers(0, 15), st.booleans())
@example(bridged_pair_case(), 0, True)  # a->b leaves its slot on message 1
@settings(deadline=None, max_examples=15)
def test_bridge_sides_ignore_messages_outside_the_checked_rates(case, pick, outside):
    # one encoder at the node of a side-owned source i sends a wrong symbol,
    # in range or not, whenever message i lies outside the rate-0 space
    # {0}; the check at the rates never runs such a tuple, and neither may
    # the sides
    inst, u, v, lam, code, _ = case
    aug, u_side = nc.add_edge(inst, u, v, lam), set(nc.classify_edge(inst, u, v).u_side)
    owned = at_sources(aug, code, lambda i: (aug.sources[i] in u_side) == (aug.terminals[i] in u_side))
    assume(owned)
    code, rates = wrong_outside_rate_zero(case, *owned[pick % len(owned)], outside)
    ver = nc.edge_removal_report(inst, u, v, lam, code=code, rates=rates).verification
    if ver.base_report.measured_error == 0:
        assert ver.passed


@given(removal_cases(path=True), st.integers(0, 15), st.booleans())
@settings(deadline=None, max_examples=15)
def test_path_report_ignores_messages_outside_the_checked_rates(case, pick, outside):
    # the path twin: the final check covers the image of the rate spaces,
    # one session digit in {0} for message i, and never runs the wrong
    # symbol either
    inst, u, v, lam, code, _ = case
    found = at_sources(nc.add_edge(inst, u, v, lam), code, lambda i: True)
    assume(found)
    code, rates = wrong_outside_rate_zero(case, *found[pick % len(found)], outside)
    ver = nc.edge_removal_report(inst, u, v, lam, code=code, rates=rates).verification
    assert ver.final_report.rates is None
    if ver.base_report.measured_error == 0:
        assert ver.passed


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


@settings(max_examples=80)
@given(st.one_of(
    st.tuples(st.integers(65, 6000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)),
              st.integers(1, 80)),
    st.tuples(st.integers(2, 1 << 200), st.integers(1, 40), st.integers(-1, 1)).map(
        lambda case: (case[0] ** case[1] + case[2], case[1])),
))
def test_integer_roots_of_long_integers_bracket_their_argument(case):
    # past 64 bits Newton is seeded from the root of x's leading half: on
    # long values, and next to exact powers
    x, k = case
    r = floor_root(x, k)
    assert r ** k <= x < (r + 1) ** k


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
