import itertools
from fractions import Fraction

import pytest

import netcode as nc
from netcode.errors import (
    AlphabetInclusionFails,
    AlphabetTooSmallForRS,
    BadPathInstance,
    DistanceTooSmall,
    EdgeMissing,
    EnumerationTooLarge,
    MalformedDocument,
    NonPositiveScale,
    NotInterleaved,
    SeedSearchFailed,
    SplitCapacityViolation,
)
from netcode.rational import split_digits
from netcode.transforms import InterleaveTag

from conftest import (
    clamp_code,
    identity_suite,
    inst_doc,
    line3,
    make,
    single_edge,
    single_edge_cap2,
    unit_code,
)


# ----------------------------------------------------------- identity family

def test_identity_transforms_preserve_traces_and_outputs():
    for inst, code in identity_suite():
        variants = [
            nc.parallel_repeat(code, inst, 1),
            nc.interleave(code, inst),
            nc.scale_code(code, Fraction(1)),
            nc.reblock(code, inst, 1),
        ]
        assert variants[3].inner_n == code.inner_n + 1
        for msgs in itertools.product(*(range(s) for s in code.message_sizes)):
            base_trace = nc.execute(code, inst, msgs)
            base_dec = nc.decode_outputs(code, inst, base_trace)
            for var in variants:
                tr = nc.execute(var, inst, msgs)
                assert tr.fwd == base_trace.fwd
                assert tr.bwd == base_trace.bwd
                assert nc.decode_outputs(var, inst, tr) == base_dec


# ------------------------------------------------------------ parallel_repeat

def test_parallel_repeat_packs_sessions():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    par = nc.parallel_repeat(code, inst, 2)
    assert par.inner_n == 2
    assert par.message_sizes == (4,)
    assert par.splits.shape(0, 1) == (4, 1)
    for w in range(4):
        tr = nc.execute(par, inst, [w])
        assert tr.sent("a", "b", 1) == w
        assert nc.decode_outputs(par, inst, tr) == {0: (w,)}
    with pytest.raises(MalformedDocument):
        nc.parallel_repeat(code, inst, 0)


def test_parallel_repeat_error_composition():
    # sessions are independent: error is 1 - (1 - eps)**m, exactly
    inst = single_edge_cap2()
    base = clamp_code(inst, "a", "b", 1, 1, 1)
    for m, expect in ((2, Fraction(7, 16)), (3, Fraction(37, 64))):
        rep = nc.check_feasibility(
            nc.parallel_repeat(base, inst, m), inst, epsilon=Fraction(1))
        assert rep.measured_error == expect


# ----------------------------------------------------------------- interleave

def test_interleave_schedule():
    inst = line3()
    code = unit_code(inst, "abc", (1, 2), outer_n=2)
    til = nc.interleave(code, inst)
    assert til.outer_n == 4
    assert til.message_sizes == (4,)
    assert til.structure == InterleaveTag(base_outer=2)
    # round i of session j runs at (i-1)*N + j; session 1 holds the most
    # significant message digit
    for w1 in range(2):
        for w2 in range(2):
            tr = nc.execute(til, inst, [2 * w1 + w2])
            assert tr.sent("a", "b", 1) == w1
            assert tr.sent("a", "b", 2) == w2
            assert tr.sent("b", "c", 3) == w1
            assert tr.sent("b", "c", 4) == w2
            assert nc.decode_outputs(til, inst, tr) == {0: (2 * w1 + w2,)}


def test_interleave_error_at_most_n_times_base():
    inst = single_edge_cap2()
    base = clamp_code(inst, "a", "b", 1, 2, 1)
    base_err = nc.check_feasibility(base, inst, epsilon=Fraction(1)).measured_error
    assert base_err == Fraction(1, 4)
    til = nc.interleave(base, inst)
    rep = nc.check_feasibility(til, inst, epsilon=Fraction(1))
    assert rep.measured_error == Fraction(7, 16)
    assert rep.measured_error <= 2 * base_err


# ---------------------------------------------------------------- outer codes

def test_make_outer_spec():
    rep = nc.make_outer_spec("repetition", 5, 3)
    assert (rep.length, rep.k, rep.distance, rep.alphabet) == (5, 1, 5, 3)
    rs = nc.make_outer_spec("reed_solomon", 4, 7, Fraction(1, 2))
    assert (rs.k, rs.distance) == (2, 3)
    one = nc.make_outer_spec("reed_solomon", 3, 1, Fraction(1, 2))
    assert one.family == "repetition"
    with pytest.raises(AlphabetTooSmallForRS):
        nc.make_outer_spec("reed_solomon", 8, 7, Fraction(1, 2))
    with pytest.raises(MalformedDocument):
        nc.make_outer_spec("reed_solomon", 4, 6, Fraction(1, 2))
    with pytest.raises(MalformedDocument):
        nc.make_outer_spec("reed_solomon", 4, 7, None)
    with pytest.raises(MalformedDocument):
        nc.make_outer_spec("fountain", 4, 7)
    with pytest.raises(MalformedDocument):
        nc.make_outer_spec("reed_solomon", 4, 7, Fraction(2))


def test_outer_encode_values():
    rep = nc.make_outer_spec("repetition", 4, 5)
    assert nc.outer_encode(rep, (3,)) == (3, 3, 3, 3)
    rs = nc.make_outer_spec("reed_solomon", 4, 7, Fraction(1, 2))
    # message (c0, c1) evaluates c0 + c1*x at x = 0..3 over GF(7)
    assert nc.outer_encode(rs, (1, 2)) == (1, 3, 5, 0)
    assert nc.outer_encode(rs, (0, 0)) == (0, 0, 0, 0)
    with pytest.raises(MalformedDocument):
        nc.outer_encode(rs, (1,))
    with pytest.raises(MalformedDocument):
        nc.outer_encode(rs, (7, 0))


def test_rs_codewords_have_design_distance():
    rs = nc.make_outer_spec("reed_solomon", 4, 7, Fraction(1, 2))
    words = [nc.outer_encode(rs, m) for m in itertools.product(range(7), repeat=2)]
    for x in range(len(words)):
        for y in range(x + 1, len(words)):
            dist = sum(1 for a, b in zip(words[x], words[y]) if a != b)
            assert dist >= rs.distance


def test_nearest_codeword_corrects_repetition():
    for m in (3, 5, 7):
        spec = nc.make_outer_spec("repetition", m, 2)
        radius = (spec.distance - 1) // 2
        for msg in range(2):
            cw = list(nc.outer_encode(spec, (msg,)))
            for k in range(radius + 1):
                for pos in itertools.combinations(range(m), k):
                    word = list(cw)
                    for p in pos:
                        word[p] ^= 1
                    assert nc.nearest_codeword_decode(word, spec) == (msg,)


def test_nearest_codeword_corrects_rs():
    spec = nc.make_outer_spec("reed_solomon", 4, 7, Fraction(1, 2))
    assert (spec.distance - 1) // 2 == 1
    for msg in itertools.product(range(7), repeat=2):
        cw = nc.outer_encode(spec, msg)
        assert nc.nearest_codeword_decode(cw, spec) == msg
        for pos in range(4):
            for wrong in range(7):
                if wrong == cw[pos]:
                    continue
                word = list(cw)
                word[pos] = wrong
                assert nc.nearest_codeword_decode(word, spec) == msg


def test_nearest_codeword_tie_break_and_limit():
    spec = nc.make_outer_spec("repetition", 2, 2)
    assert nc.nearest_codeword_decode((0, 1), spec) == (0,)
    with pytest.raises(MalformedDocument):
        nc.nearest_codeword_decode((0,), spec)
    rs = nc.make_outer_spec("reed_solomon", 4, 7, Fraction(1, 2))
    with pytest.raises(EnumerationTooLarge):
        nc.nearest_codeword_decode((0, 0, 0, 0), rs, limit=10)


# -------------------------------------------------------------------- amplify

def test_generate_permutations():
    a = nc.generate_permutations(7, (4, 2), 3)
    assert a == nc.generate_permutations(7, (4, 2), 3)
    assert len(a) == 2 and all(len(row) == 3 for row in a)
    for row, size in zip(a, (4, 2)):
        for p in row:
            assert sorted(p) == list(range(size))


def test_amplify_strict_distance_gate():
    inst = single_edge_cap2()
    base = clamp_code(inst, "a", "b", 1, 1, 1)
    with pytest.raises(DistanceTooSmall):
        nc.amplify(base, inst, 16, "repetition", Fraction(1, 4))
    # at eps = 1/8 the repetition distance 16 >= 4*2+1 clears the gate
    amp = nc.amplify(base, inst, 16, "repetition", Fraction(1, 8))
    assert amp.message_sizes == (4,)
    assert amp.inner_n == 16
    with pytest.raises(MalformedDocument):
        nc.amplify(base, inst, 4, "repetition", Fraction(3, 2))
    with pytest.raises(MalformedDocument):
        # one permutation where two sessions are needed
        nc.amplify(base, inst, 2, "repetition", Fraction(0),
                   perms=(((0, 1, 2, 3),),))
    with pytest.raises(MalformedDocument):
        # second entry is not a permutation of the message space
        nc.amplify(base, inst, 2, "repetition", Fraction(0),
                   perms=(((0, 1, 2, 3), (0, 0, 1, 2)),))


def test_amplify_reduces_clamp_error():
    inst = single_edge_cap2()
    base = clamp_code(inst, "a", "b", 1, 1, 1)
    assert nc.check_feasibility(
        base, inst, epsilon=Fraction(1)).measured_error == Fraction(1, 4)
    seed, amp, report = nc.find_amplify_seed(
        base, inst, 16, "repetition", Fraction(1, 4), Fraction(1, 4))
    assert report.measured_error < Fraction(1, 4)
    assert report.certified
    assert amp.message_sizes == (4,)
    assert amp.outer_n == base.outer_n


def test_amplify_rs_round_trip():
    inst = single_edge_cap2()
    code = unit_code(inst, "ab", (1,), n=2, sizes=(5,))
    amp = nc.amplify(code, inst, 4, "reed_solomon", Fraction(0),
                     rate_target=Fraction(1, 2), seed=1)
    assert amp.message_sizes == (25,)
    rep = nc.check_feasibility(amp, inst)
    assert rep.passed and rep.measured_error == 0
    with pytest.raises(AlphabetTooSmallForRS):
        nc.amplify(code, inst, 7, "reed_solomon", Fraction(0),
                   rate_target=Fraction(1, 2))


def shifted_code(inst, size, n):
    """Zero-error single-edge code that sends w+1 mod size."""
    return nc.NetworkCode(
        inner_n=n, outer_n=1, message_sizes=(size,),
        splits=nc.AlphabetSplit({(0, 1): (size, 1)}),
        encoders={(0, 1, nc.FWD): lambda s: (s.message(0) + 1) % size},
        decoders={0: lambda s: ((s.recv("a", 1) - 1) % size,)},
    )


@pytest.mark.parametrize("family, size, n, rate_target, perms", [
    ("repetition", 4, 2, None,
     ((1, 2, 3, 0), (2, 0, 3, 1), (3, 2, 0, 1))),
    ("reed_solomon", 5, 3, Fraction(2, 3),
     ((1, 2, 3, 4, 0), (3, 0, 4, 1, 2), (2, 4, 1, 0, 3))),
])
def test_amplify_wire_format(family, size, n, rate_target, perms):
    # Session j's digit of the packed slot is the base encoder run on the
    # permuted codeword symbol perms[0][j][codeword[j]]; none of these
    # permutations is its own inverse, so swapping perms and inverses shows.
    inst = single_edge()
    base = shifted_code(inst, size, n)
    m = len(perms)
    amp = nc.amplify(base, inst, m, family, Fraction(0),
                     rate_target=rate_target, perms=(perms,), strict=False)
    spec = nc.make_outer_spec(family, m, size, rate_target)
    base_enc = base.encoders[(0, 1, nc.FWD)]
    assert amp.message_sizes == (size ** spec.k,)
    for w in range(amp.message_sizes[0]):
        codeword = nc.outer_encode(spec, split_digits(w, (size,) * spec.k))
        expected = tuple(
            base_enc(nc.StateView("a", 0, lambda i, x=perms[j][codeword[j]]: x, None))
            for j in range(m)
        )
        trace = nc.execute(amp, inst, (w,))
        assert split_digits(trace.symbol(0, 1, nc.FWD), (size,) * m) == expected
        assert nc.decode_outputs(amp, inst, trace) == {0: (w,)}


def test_find_amplify_seed_can_fail():
    inst = single_edge_cap2()
    base = clamp_code(inst, "a", "b", 1, 1, 1)
    with pytest.raises(SeedSearchFailed):
        nc.find_amplify_seed(base, inst, 2, "repetition", Fraction(1, 4),
                             Fraction(0), max_tries=2)


# -------------------------------------------------------------- pipeline_path

def chord_relay():
    # relay path a-b-c plus a direct chord; traffic in both chord directions
    return make(inst_doc(
        "abc", [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1")],
        ["a", "c"], ["c", "a"], [[1, 0], [0, 1]]))


def chord_code(inst):
    routes = [
        nc.Route(0, 0, ("a", "c"), (1,)),
        nc.Route(0, 0, ("a", "b", "c"), (1, 2)),
        nc.Route(1, 1, ("c", "a"), (3,)),
    ]
    return nc.make_routing_code(inst, routes, 1, 3, [2, 2])


@pytest.mark.parametrize("ell", [2, 3, 5])
def test_pipeline_path_delivery_schedule(ell):
    inst = chord_relay()
    tilde = nc.interleave(chord_code(inst), inst)
    nb = 3
    interior = [f"p{r}" for r in range(1, ell - 1)]
    path = ["a"] + interior + ["c"]
    path_inst = nc.replace_edge_with_path(inst, "a", "c", path, fresh=True)
    piped = nc.pipeline_path(tilde, inst, "a", "c", path_inst, ell)
    width = nb + ell
    assert piped.outer_n == nb * width
    piped.splits.validate(path_inst, piped.inner_n, piped.outer_n)

    chord_idx = inst.edge_between("a", "c")[0]
    for msgs in itertools.product(range(8), repeat=2):
        tt = nc.execute(tilde, inst, msgs)
        pt = nc.execute(piped, path_inst, msgs)
        for i in range(1, nb + 1):
            for j in range(1, nb + 1):
                t_til = (i - 1) * nb + j
                t_arr = (i - 1) * width + j + ell - 2
                f_size, b_size = tilde.splits.shape(chord_idx, t_til)
                if f_size > 1:
                    assert pt.sent(path[-2], "c", t_arr) == tt.sent("a", "c", t_til)
                if b_size > 1:
                    assert pt.sent(path[1], "a", t_arr) == tt.sent("c", "a", t_til)
                # untouched edges replay their schedule in the first N offsets
                assert pt.sent("a", "b", (i - 1) * width + j) == \
                    tt.sent("a", "b", t_til)
        for i in range(1, nb + 1):
            for o in range(nb + 1, width + 1):
                assert piped.splits.shape(0, (i - 1) * width + o) == (1, 1)
        assert nc.decode_outputs(piped, path_inst, pt) == \
            nc.decode_outputs(tilde, inst, tt)

    rep = nc.check_feasibility(piped, path_inst, limit=100)
    assert rep.passed and rep.measured_error == 0


def test_pipeline_path_requires_interleaved_input():
    inst = chord_relay()
    code = chord_code(inst)
    path_inst = nc.replace_edge_with_path(inst, "a", "c", ["a", "p1", "c"], fresh=True)
    with pytest.raises(NotInterleaved):
        nc.pipeline_path(code, inst, "a", "c", path_inst, 3)
    doctored = nc.NetworkCode(
        inner_n=code.inner_n, outer_n=code.outer_n,
        message_sizes=code.message_sizes, splits=code.splits,
        encoders=code.encoders, decoders=code.decoders,
        structure=InterleaveTag(base_outer=2),
    )
    with pytest.raises(NotInterleaved):
        nc.pipeline_path(doctored, inst, "a", "c", path_inst, 3)


def test_pipeline_path_validates_path_instance():
    inst = chord_relay()
    tilde = nc.interleave(chord_code(inst), inst)
    path_inst = nc.replace_edge_with_path(inst, "a", "c", ["a", "p1", "c"], fresh=True)
    with pytest.raises(BadPathInstance):
        nc.pipeline_path(tilde, inst, "a", "c", path_inst, 5)
    with pytest.raises(BadPathInstance):
        nc.pipeline_path(tilde, inst, "a", "c", path_inst, 1)
    with pytest.raises(EdgeMissing):
        nc.pipeline_path(tilde, inst, "a", "z", path_inst, 3)
    # wrong capacity on the replacement chain
    wrong = nc.drop_edge(inst, "a", "c")
    wrong = nc.validate_instance({
        **wrong.to_doc(),
        "vertices": list(wrong.vertices) + ["p1"],
        "edges": wrong.to_doc()["edges"] + [
            {"a": "a", "b": "p1", "cap": "2"},
            {"a": "p1", "b": "c", "cap": "2"},
        ],
    })
    with pytest.raises(BadPathInstance):
        nc.pipeline_path(tilde, inst, "a", "c", wrong, 3)


# ----------------------------------------------------------------- scale_code

def test_scale_code_rehosts_across_capacity_scaling():
    inst = single_edge()
    half = make(inst_doc("ab", [("a", "b", "1/2")], ["a"], ["b"], [[1]]))
    code = unit_code(inst, "ab", (1,))
    with pytest.raises(SplitCapacityViolation):
        code.splits.validate(half, code.inner_n, code.outer_n)
    scaled = nc.scale_code(code, Fraction(2))
    assert scaled.inner_n == 2
    rep = nc.check_feasibility(scaled, half)
    assert rep.passed and rep.measured_error == 0


def test_scale_code_blocklength_and_structure():
    inst = line3()
    code = unit_code(inst, "abc", (1, 2), n=2, outer_n=2)
    til = nc.interleave(code, inst)
    scaled = nc.scale_code(til, Fraction(3, 2))
    assert scaled.inner_n == 3
    assert scaled.structure == til.structure
    assert scaled.splits == til.splits
    with pytest.raises(NonPositiveScale):
        nc.scale_code(code, Fraction(0))


# -------------------------------------------------------------------- reblock

def test_reblock_splits_symbols_into_digits():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,), n=3, sizes=(8,))
    reb = nc.reblock(code, inst, 3)
    assert (reb.inner_n, reb.outer_n) == (2, 3)
    assert reb.splits.shape(0, 1) == (2, 1)
    for w in range(8):
        tr = nc.execute(reb, inst, [w])
        digits = [tr.sent("a", "b", t) for t in (1, 2, 3)]
        assert digits == list(split_digits(w, (2, 2, 2)))
        assert nc.decode_outputs(reb, inst, tr) == {0: (w,)}


def test_reblock_input_validation():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,), n=3, sizes=(8,))
    with pytest.raises(MalformedDocument):
        nc.reblock(code, inst, 2)
    with pytest.raises(MalformedDocument):
        nc.reblock(code, inst, 0)


def test_reblock_alphabet_inclusion_failure():
    # cap 1/4: four inner steps give one bit, but 2 rounds of length 2
    # give floor(2**(1/2)) = 1 symbol each
    inst = make(inst_doc("ab", [("a", "b", "1/4")], ["a"], ["b"], [[1]]))
    code = nc.NetworkCode(
        inner_n=4, outer_n=1, message_sizes=(2,),
        splits=nc.AlphabetSplit({(0, 1): (2, 1)}),
        encoders={(0, 1, nc.FWD): lambda s: s.message(0)},
        decoders={0: lambda s: (s.recv("a", 1),)},
    )
    with pytest.raises(AlphabetInclusionFails):
        nc.reblock(code, inst, 4)


def test_reblock_directional_refinement_failure():
    # whole-edge inclusion holds (9 <= 3**4) but the per-direction digit
    # radices 2*2 overflow the round alphabet 3
    inst = make(inst_doc("ab", [("a", "b", "4/5")], ["a"], ["b"], [[1]]))
    code = nc.NetworkCode(
        inner_n=4, outer_n=1, message_sizes=(3,),
        splits=nc.AlphabetSplit({(0, 1): (3, 3)}),
        encoders={
            (0, 1, nc.FWD): lambda s: s.message(0),
            (0, 1, nc.BWD): lambda s: 0,
        },
        decoders={0: lambda s: (s.recv("a", 1),)},
    )
    with pytest.raises(AlphabetInclusionFails):
        nc.reblock(code, inst, 4)
