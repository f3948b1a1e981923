import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

import netcode as nc
from netcode.errors import (
    AlphabetInclusionFails,
    AlphabetTooSmallForRS,
    BadPath,
    BadPathInstance,
    DistanceTooSmall,
    EdgeMissing,
    EnumerationTooLarge,
    MalformedDocument,
    NonPositiveScale,
    NotInterleaved,
    SeedSearchFailed,
    SplitCapacityViolation,
    SymbolOutOfRange,
)
from netcode.rational import combine_digits, split_digits
from netcode import removal, transforms
from netcode.transforms import InterleaveTag, _side_by_side, _Staggered

import reference_exec as ref
from reference_exec import FnView
from conftest import (
    clamp_code,
    cycle4,
    identity_suite,
    inst_doc,
    line3,
    make,
    path_chain,
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


@pytest.mark.parametrize("pack", [
    lambda code, inst: nc.parallel_repeat(code, inst, 2),
    nc.interleave,
], ids=["parallel_repeat", "interleave"])
def test_reblocked_code_packs_as_the_code(pack):
    # reblock's encoders read remapped's view of the view they get, here
    # a packing's session view; reblock at m=1 keeps every trace, so the
    # packed reblocked code must send, decode and check as the packed code
    cap2 = single_edge_cap2()
    for inst, code in identity_suite() + [(cap2, clamp_code(cap2, "a", "b", 1, 2, 1))]:
        got, want = pack(nc.reblock(code, inst, 1), inst), pack(code, inst)
        for msgs in itertools.product(*(range(s) for s in want.message_sizes)):
            tr, base = nc.execute(got, inst, msgs), nc.execute(want, inst, msgs)
            assert (tr.fwd, tr.bwd) == (base.fwd, base.bwd)
            assert nc.decode_outputs(got, inst, tr) == nc.decode_outputs(want, inst, base)
        rep, exp = (nc.check_feasibility(c, inst, epsilon=Fraction(1)) for c in (got, want))
        assert (rep.measured_error, rep.trials, rep.passed) == \
            (exp.measured_error, exp.trials, exp.passed)


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


def test_parallel_repeat_names_the_session_symbol_outside_its_slot():
    # the encoder sends message 0 over a slot of one symbol: the base code
    # fails at message 1, and the two-session code where session 1 sends 1
    inst = single_edge()
    code = nc.NetworkCode(
        inner_n=1, outer_n=1, message_sizes=(2,), splits=nc.AlphabetSplit({}),
        encoders={(0, 1, nc.FWD): lambda view: view.message(0)},
        decoders={0: lambda view: (0,)},
    )
    with pytest.raises(SymbolOutOfRange, match="encoder on 'a'-'b' t=1 fwd produced 1"):
        nc.check_feasibility(code, inst)
    with pytest.raises(SymbolOutOfRange,
                       match="session 1 encoder on 'a'-'b' t=1 fwd produced 1, alphabet size 1"):
        nc.check_feasibility(nc.parallel_repeat(code, inst, 2), inst)


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


# -------------------------------------------------------------- session views

class CountingHost(FnView):
    """A host view that counts its message, digit and recv calls."""

    def __init__(self, node, time, messages, symbols):
        super().__init__(node, time, messages.__getitem__, lambda sender, t: symbols[(sender, t)])
        self.reads = Counter()

    def message(self, i):
        self.reads["message", i] += 1
        return self.message_fn(i)

    def digit(self, i, j, radices):
        self.reads["digit", i] += 1
        return split_digits(self.message_fn(i), radices)[j]

    def recv(self, sender, t):
        self.reads["recv", sender, t] += 1
        return super().recv(sender, t)


def test_a_staggered_session_reads_the_host_directly():
    host = CountingHost("b", 7, {0: combine_digits((2, 3, 1), (4, 4, 4))},
                        {("a", t): 10 * t for t in range(1, 8)})
    views = [_Staggered(3, [(4, 4, 4), (2, 2, 2)], host, j) for j in range(3)]
    assert [v.time for v in views] == [2, 2, 2]  # 7 // 3
    assert [v.message(0) for v in views] == [2, 3, 1]
    assert host.reads == Counter({("digit", 0): 3})
    # round t of session j is host round (t-1)*3 + j + 1
    assert [[v.recv("a", t) for t in (1, 2)] for v in views] == [[10, 40], [20, 50], [30, 60]]
    assert all(host.reads["recv", "a", t] == 1 for t in range(1, 7))
    host.reads.clear()
    with pytest.raises(LookupError, match="at t=3 not visible at time 2"):
        views[0].recv("a", 3)
    assert not host.reads
    # the host's own errors pass through: a message it does not hold, a
    # symbol it cannot answer
    with pytest.raises(KeyError):
        views[1].message(1)
    with pytest.raises(KeyError):
        views[1].recv("c", 2)
    assert host.reads == Counter({("digit", 1): 1, ("recv", "c", 5): 1})


def test_side_by_side_sessions_split_each_host_read_once_per_host_view():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    splits = []

    def parts(i, w):
        splits.append((i, w))
        return (w, w + 1, w + 2)

    sessions = _side_by_side(code, inst, 3, (8,), message_parts=parts).decoders[0].sessions
    host = CountingHost("b", 1, {0: 4}, {("a", 1): combine_digits((1, 0, 1), (2, 2, 2))})
    for _ in range(2):
        view = sessions(host)
        for _ in range(2):
            assert [view(j).recv("a", 1) for j in range(3)] == [1, 0, 1]
            assert [view(j).message(0) for j in range(3)] == [4, 5, 6]
    assert host.reads == Counter({("recv", "a", 1): 2, ("message", 0): 2})
    assert splits == [(0, 4), (0, 4)]
    # by default a session reads its message as one host digit, unsplit
    view = nc.parallel_repeat(code, inst, 3).decoders[0].sessions(host)
    host.reads.clear()
    assert [view(j).message(0) for j in range(3)] == [1, 0, 0]
    assert host.reads == Counter({("digit", 0): 3})


def test_checking_an_interleaved_code_builds_no_side_by_side_session(monkeypatch):
    built = []
    init = transforms._Session.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(transforms._Session, "__init__", counting)
    inst = line3()
    code = unit_code(inst, "abc", (1, 2), outer_n=2)
    assert nc.check_feasibility(nc.interleave(code, inst), inst).failures == 0
    assert nc.check_feasibility(nc.interleave(nc.interleave(code, inst), inst), inst).failures == 0
    assert built == []
    assert nc.check_feasibility(nc.parallel_repeat(code, inst, 2), inst).failures == 0
    assert built


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


def test_repetition_vote_equals_the_enumeration():
    # every word over q <= 4 and m <= 5, with symbols -1 and q out of range:
    # the decode is the first message at the least Hamming distance
    for q, m in itertools.product(range(1, 5), range(1, 6)):
        spec = nc.make_outer_spec("repetition", m, q)
        for word in itertools.product(range(-1, q + 1), repeat=m):
            want = min(((x,) for x in range(q)), key=lambda msg: sum(
                a != b for a, b in zip(nc.outer_encode(spec, msg), word)))
            assert nc.nearest_codeword_decode(word, spec) == want, (q, word)


def test_repetition_decodes_past_the_enumeration_limit():
    spec = nc.make_outer_spec("repetition", 3, 2 ** 17)
    assert nc.nearest_codeword_decode((5, 5, 7), spec) == (5,)
    assert nc.nearest_codeword_decode((9, 2 ** 17, 7), spec) == (7,)


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
            base_enc(FnView("a", 0, lambda i, x=perms[j][codeword[j]]: x, None))
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


def chord_code(inst, outer_n=3):
    routes = [
        nc.Route(0, 0, ("a", "c"), (1,)),
        nc.Route(0, 0, ("a", "b", "c"), (1, 2)),
        nc.Route(1, 1, ("c", "a"), (min(outer_n, 3),)),
    ]
    return nc.make_routing_code(inst, routes, 1, outer_n, [2, 2])


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


def test_pipelined_code_runs_on_session_views():
    # pipeline_path's encoders read remapped's view of the view they get,
    # here a session view of parallel_repeat: each session of the packed
    # pipelined code decodes as the pipelined code does on its digits
    inst = chord_relay()
    path_inst = nc.replace_edge_with_path(inst, "a", "c", ["a", "c"], fresh=True)
    piped = nc.pipeline_path(nc.interleave(chord_code(inst), inst), inst, "a", "c", path_inst, 2)
    par = nc.parallel_repeat(piped, path_inst, 2)
    assert par.message_sizes == (64, 64)
    for msgs in [(0, 0), (5, 3), (63, 17), (42, 63)]:
        per_session = [nc.decode_outputs(piped, path_inst, nc.execute(
            piped, path_inst, [split_digits(w, (8, 8))[j] for w in msgs])) for j in range(2)]
        got = nc.decode_outputs(par, path_inst, nc.execute(par, path_inst, msgs))
        assert got == {t: tuple(combine_digits([out[t][p] for out in per_session], (8, 8))
                                for p in range(len(out_t)))
                       for t, out_t in per_session[0].items()}


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
    # the chord's split changes inside sub-block 1
    tilde = nc.interleave(code, inst)
    chord = inst.edge_between("a", "c")[0]
    assert tilde.splits.shape(chord, 1) == tilde.splits.shape(chord, 2) != (1, 1)
    splits = {**dict(tilde.splits.items()), (chord, 2): (1, 1)}
    varied = tilde._replace(splits=nc.AlphabetSplit(splits))
    with pytest.raises(NotInterleaved, match="vary inside sub-block 1"):
        nc.pipeline_path(varied, inst, "a", "c", path_inst, 3)


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
    # the same graph laid out otherwise than replace_edge_with_path does:
    # edges reordered, the first hop stored p1 -> a, vertices reordered
    hop = nc.Edge("a", "p1", Fraction(1))
    assert path_inst.edges[-2] == hop
    for variant in (
        path_inst._replace(edges=path_inst.edges[::-1]),
        path_inst._replace(edges=path_inst.edges[:-2] + (hop._replace(a="p1", b="a"),)
                + path_inst.edges[-1:]),
        path_inst._replace(vertices=path_inst.vertices[::-1]),
    ):
        with pytest.raises(BadPathInstance):
            nc.pipeline_path(tilde, inst, "a", "c", variant, 3)


# ------------------------------------------------------------ builder parity
#
# pipeline_path builds from tilde's encoder and split keys, and
# host_path_code from piped's, where the earlier builders
# (reference_exec) scanned every round: both must build the same code.

BUILDERS = {"pipeline_path": transforms.pipeline_path, "host_path_code": removal.host_path_code}


@pytest.fixture
def builds(monkeypatch):
    """The arguments of every pipeline_path and host_path_code call, by
    builder name, as edge_removal_report and path_chain make them."""
    calls = []
    for module, name in ((transforms, "pipeline_path"), (removal, "pipeline_path"),
                         (removal, "host_path_code")):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append((name, args))
                            or BUILDERS[name](*args))
    return calls


def parity_tuples(code, seed):
    """Every message tuple of `code` up to 64 of them; else its first and
    last tuple and 14 seeded draws."""
    if math.prod(code.message_sizes) <= 64:
        return list(itertools.product(*map(range, code.message_sizes)))
    rng = random.Random(seed)
    return [tuple(0 for _ in code.message_sizes), tuple(s - 1 for s in code.message_sizes),
            *(tuple(rng.randrange(s) for s in code.message_sizes) for _ in range(14))]


def assert_same_code(got, want, inst, seed=0):
    """Equal fields, encoder keys and splits, and on every tuple of
    parity_tuples equal reference traces and decoded outputs."""
    assert (got.inner_n, got.outer_n, got.message_sizes, got.structure) == \
        (want.inner_n, want.outer_n, want.message_sizes, want.structure)
    assert set(got.encoders) == set(want.encoders)
    assert set(got.decoders) == set(want.decoders)
    assert got.splits == want.splits
    for msgs in parity_tuples(want, seed):
        trace = ref.execute(want, inst, msgs)
        assert ref.execute(got, inst, msgs) == trace
        assert ref.decode_outputs(got, inst, trace) == ref.decode_outputs(want, inst, trace)


def assert_builders_agree(calls):
    """Each recorded build rerun by the new and the earlier builder."""
    assert calls
    for name, args in calls:
        new, old = BUILDERS[name], getattr(ref, name)
        target = args[4] if name == "pipeline_path" else args[2]
        assert_same_code(new(*args), old(*args), target)


# message 0 also goes a-b-c, so host a-b carries its own symbol and the
# relayed a-c symbol in one round
SHARED = (nc.Route(0, 0, ("a", "b", "c"), (1, 2)),)


@pytest.mark.parametrize("variant", [{}, {"off_path": True}, {"extra": SHARED}],
                         ids=["chain", "off_path", "shared"])
@pytest.mark.parametrize("n_rounds", range(2, 9))
def test_path_builders_match_the_round_scanning_builders(builds, n_rounds, variant):
    path_chain(n_rounds, **variant)
    assert [name for name, _ in builds] == ["pipeline_path", "host_path_code"]
    assert_builders_agree(builds)


def test_path_builders_match_on_the_acceptance_path_cases(builds):
    # criterion 2's chord codes, and criterion 3's reports at lambda 1 and 1/2
    inst = chord_relay()
    for nb, ell in itertools.product((2, 3), (2, 3, 5)):
        path = ["a", *(f"p{r}" for r in range(1, ell - 1)), "c"]
        path_inst = nc.replace_edge_with_path(inst, "a", "c", path, fresh=True)
        nc.pipeline_path(nc.interleave(chord_code(inst, nb), inst), inst, "a", "c", path_inst, ell)
    square = cycle4()
    for lam, inner_n, rate in ((Fraction(1), 1, Fraction(1, 2)), (Fraction(1, 2), 2, Fraction(1, 4))):
        aug = nc.add_edge(square, "a", "c", lam)
        code = nc.make_routing_code(
            aug, [nc.Route(0, 0, ("a", "c"), (1,)), nc.Route(1, 1, ("c", "a"), (2,))], inner_n, 2, [2, 2])
        assert nc.edge_removal_report(square, "a", "c", lam, code=code, rates=[rate] * 2).verification.passed
    assert Counter(name for name, _ in builds) == {"pipeline_path": 8, "host_path_code": 2}
    assert_builders_agree(builds)


def test_pipeline_path_ignores_tilde_keys_outside_its_code_as_before():
    # keys past the last edge or outside rounds 1..N^2 are dropped, and a
    # sub-block whose removed-edge shape differs from the others' is kept
    inst = chord_relay()
    tilde = nc.interleave(chord_code(inst), inst)
    path_inst = nc.replace_edge_with_path(inst, "a", "c", ["a", "p1", "c"], fresh=True)
    chord, enc = inst.edge_between("a", "c")[0], tilde.encoders[(0, 1, nc.FWD)]
    splits = {**dict(tilde.splits.items()), (0, 0): (2, 1), (0, 10): (2, 1), (5, 1): (2, 1),
              **{(chord, t): (1, 2) for t in (7, 8, 9)}}
    encoders = {**tilde.encoders, (0, 0, nc.FWD): enc, (0, 10, nc.FWD): enc, (5, 1, nc.FWD): enc,
                (0, 1, "sideways"): enc, **{(chord, t, nc.BWD): enc for t in (7, 8, 9)}}
    doctored = tilde._replace(splits=nc.AlphabetSplit(splits), encoders=encoders)
    args = (doctored, inst, "a", "c", path_inst, 3)
    got, want = nc.pipeline_path(*args), ref.pipeline_path(*args)
    assert set(got.encoders) == set(want.encoders) and got.splits == want.splits


def outcome(build, *args):
    """The type and message of what `build(*args)` raised, else None."""
    try:
        build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_path_builders_refuse_the_same_inputs():
    inst = chord_relay()
    code = chord_code(inst)
    tilde = nc.interleave(code, inst)
    path_inst = nc.replace_edge_with_path(inst, "a", "c", ["a", "p1", "c"], fresh=True)
    chord = inst.edge_between("a", "c")[0]
    shapes = dict(tilde.splits.items())
    doctored = code._replace(structure=InterleaveTag(base_outer=2))
    bad_tildes = [
        code, doctored,
        tilde._replace(splits=nc.AlphabetSplit({**shapes, (chord, 2): (1, 1)})),
        tilde._replace(splits=nc.AlphabetSplit({**shapes, (chord, 5): (2, 2)})),
        tilde._replace(splits=nc.AlphabetSplit({**shapes, (chord, 8): (1, 2)})),
        tilde._replace(splits=nc.AlphabetSplit({**shapes, **{(chord, t): (1, 2) for t in (1, 2, 3)}})),
    ]
    wrong = nc.validate_instance({**path_inst.to_doc(), "edges": [
        *nc.drop_edge(inst, "a", "c").to_doc()["edges"],
        {"a": "a", "b": "p1", "cap": "2"}, {"a": "p1", "b": "c", "cap": "2"}]})
    hop = path_inst.edges[-2]
    variants = [wrong, path_inst._replace(edges=path_inst.edges[::-1]),
                path_inst._replace(edges=path_inst.edges[:-2] + (hop._replace(a="p1", b="a"),)
                                   + path_inst.edges[-1:]),
                path_inst._replace(vertices=path_inst.vertices[::-1])]
    cases = [(bad, inst, "a", "c", path_inst, 3) for bad in bad_tildes]
    cases += [(tilde, inst, "a", "c", path_inst, ell) for ell in (1, 2, 5)]
    cases += [(tilde, inst, "a", "z", path_inst, 3), (tilde, inst, "c", "a", path_inst, 3)]
    cases += [(tilde, inst, "a", "c", variant, 3) for variant in variants]
    seen = [outcome(nc.pipeline_path, *case) for case in cases]
    assert seen == [outcome(ref.pipeline_path, *case) for case in cases]
    assert {kind for kind, _ in filter(None, seen)} == {NotInterleaved, BadPathInstance, EdgeMissing}
    # host_path_code refuses a star path that does not shadow the host path
    (_, star, piped), (_, host, _) = path_chain(2)[2:4]
    for star_path, host_path in ((["a", "relay2", "c"], ["a", "c"]), (["a", "relay2", "c"], ["c", "b", "a"]),
                                 (["a", "relay2", "d"], ["a", "b", "c"])):
        args = (piped, star, host, star_path, host_path)
        assert outcome(nc.host_path_code, *args) == outcome(ref.host_path_code, *args) == \
            (BadPath, "path length/endpoint mismatch")


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


@pytest.mark.parametrize("bad", [3, 5])
def test_reblock_names_the_old_symbol_outside_its_slot(bad):
    # the (2, 1) split gives the old slot 2 symbols; 3 fits two binary
    # digits and 5 does not, and both must be named
    inst = single_edge()
    code = nc.NetworkCode(
        inner_n=2, outer_n=1, message_sizes=(8,),
        splits=nc.AlphabetSplit({(0, 1): (2, 1)}),
        encoders={(0, 1, nc.FWD): lambda s: bad if s.message(0) == 7 else s.message(0) % 2},
        decoders={0: lambda s: (s.recv("a", 1),)},
    )
    reb = nc.reblock(code, inst, 2)
    message = f"encoder on 'a'-'b' t=1 fwd produced {bad}, alphabet size 2"
    with pytest.raises(SymbolOutOfRange, match=message):
        nc.check_feasibility(reb, inst)
    with pytest.raises(SymbolOutOfRange, match=message):
        nc.execute(reb, inst, [7])


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
