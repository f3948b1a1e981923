import copy
import pickle
from fractions import Fraction

import pytest

import netcode as nc
from netcode.errors import (
    BadDemandMatrix,
    BadPath,
    BadSets,
    DuplicateEdge,
    EdgeExists,
    EdgeMissing,
    InteriorNodeCollision,
    MalformedDocument,
    NoEdges,
    NonPositiveCapacity,
    NotConnected,
    UnknownVertex,
)

from conftest import (
    brute_force_cut,
    corpus,
    cycle4,
    inst_doc,
    line3,
    make,
    two_triangles,
    two_way,
    widest_path_oracle,
)


def test_validate_round_trip():
    inst = cycle4()
    again = nc.validate_instance(inst.to_doc())
    assert again == inst


def test_validate_rejects_bad_documents():
    good = inst_doc("ab", [("a", "b", "1")], ["a"], ["b"], [[1]])

    with pytest.raises(MalformedDocument):
        nc.validate_instance([])
    doc = dict(good)
    del doc["edges"]
    with pytest.raises(MalformedDocument):
        nc.validate_instance(doc)
    doc = dict(good, extra=1)
    with pytest.raises(MalformedDocument):
        nc.validate_instance(doc)
    doc = dict(good, vertices=["a", "a"])
    with pytest.raises(MalformedDocument):
        nc.validate_instance(doc)
    doc = dict(good, edges=[{"a": "a", "b": "a", "cap": "1"}])
    with pytest.raises(MalformedDocument):
        nc.validate_instance(doc)
    doc = dict(good, edges=[{"a": "a", "b": "b", "cap": "1"}] * 2)
    with pytest.raises(DuplicateEdge):
        nc.validate_instance(doc)
    doc = dict(good, edges=[{"a": "a", "b": "b", "cap": "0"}])
    with pytest.raises(NonPositiveCapacity):
        nc.validate_instance(doc)
    doc = dict(good, edges=[{"a": "a", "b": "z", "cap": "1"}])
    with pytest.raises(UnknownVertex):
        nc.validate_instance(doc)
    doc = dict(good, sources=[])
    with pytest.raises(BadSets):
        nc.validate_instance(doc)
    doc = dict(good, demand=[[0]])
    with pytest.raises(BadDemandMatrix):
        nc.validate_instance(doc)
    doc = dict(good, demand=[[2]])
    with pytest.raises(BadDemandMatrix):
        nc.validate_instance(doc)
    doc = dict(good, demand=[[1], [1]])
    with pytest.raises(BadDemandMatrix):
        nc.validate_instance(doc)


def test_edge_lookups():
    inst = line3()
    assert inst.edge_between("a", "b") == (0, True)
    assert inst.edge_between("b", "a") == (0, False)
    assert inst.edge_between("a", "c") is None
    assert inst.slot("a", "b") == (0, nc.FWD)
    assert inst.slot("b", "a") == (0, nc.BWD)
    with pytest.raises(LookupError):
        inst.slot("a", "c")
    assert sorted(inst.neighbors("b")) == ["a", "c"]
    assert inst.sources_at("a") == (0,)
    assert inst.demanded_at(0) == (0,)


def test_add_drop_edge():
    inst = line3()
    grown = nc.add_edge(inst, "a", "c", Fraction(1, 2))
    assert grown.edges[-1] == nc.Edge("a", "c", Fraction(1, 2))
    with pytest.raises(EdgeExists):
        nc.add_edge(grown, "c", "a", Fraction(1))
    with pytest.raises(NonPositiveCapacity):
        nc.add_edge(inst, "a", "c", Fraction(0))
    with pytest.raises(UnknownVertex):
        nc.add_edge(inst, "a", "z", Fraction(1))
    back = nc.drop_edge(grown, "c", "a")
    assert back == inst
    with pytest.raises(EdgeMissing):
        nc.drop_edge(inst, "a", "c")


def test_scale_instance():
    inst = line3()
    doubled = nc.scale_instance(inst, Fraction(2))
    assert [e.cap for e in doubled.edges] == [Fraction(2), Fraction(2)]
    with pytest.raises(nc.InputError):
        nc.scale_instance(inst, Fraction(0))


def test_replace_edge_with_fresh_path():
    inst = nc.add_edge(line3(), "a", "c", Fraction(1, 2))
    star = nc.replace_edge_with_path(inst, "a", "c", ["a", "p", "q", "c"], fresh=True)
    assert star.has_edge("a", "p") and star.has_edge("p", "q") and star.has_edge("q", "c")
    assert not star.has_edge("a", "c")
    caps = {
        (e.a, e.b): e.cap for e in star.edges
    }
    assert caps[("a", "p")] == Fraction(1, 2)
    # original edges untouched
    assert caps[("a", "b")] == Fraction(1)
    with pytest.raises(InteriorNodeCollision):
        nc.replace_edge_with_path(inst, "a", "c", ["a", "b", "c"], fresh=True)


def test_replace_edge_onto_existing_path():
    inst = nc.add_edge(line3(), "a", "c", Fraction(1, 2))
    host = nc.replace_edge_with_path(inst, "a", "c", ["a", "b", "c"], fresh=False)
    caps = {(e.a, e.b): e.cap for e in host.edges}
    assert caps[("a", "b")] == Fraction(3, 2)
    assert caps[("b", "c")] == Fraction(3, 2)
    assert not host.has_edge("a", "c")
    with pytest.raises(BadPath):
        nc.replace_edge_with_path(inst, "a", "c", ["a", "c"], fresh=False)
    with pytest.raises(EdgeMissing):
        nc.replace_edge_with_path(line3(), "a", "c", ["a", "b", "c"], fresh=False)


def _lookups(inst):
    """Every answer of slot, edge_between and has_edge over all vertex
    pairs of inst, and of demanded_at over its terminals."""
    answers = []
    for x in inst.vertices:
        for y in inst.vertices:
            try:
                slot = inst.slot(x, y)
            except LookupError as exc:
                slot = str(exc)
            answers.append((x, y, slot, inst.edge_between(x, y), inst.has_edge(x, y)))
    return answers, [inst.demanded_at(j) for j in range(len(inst.terminals))]


def test_edited_instances_look_up_as_validated_ones():
    # each edit copies the instance with changed fields; the copy's derived
    # lookup tables must be the ones validation builds from its document
    edited = []
    for inst in corpus():
        absent = [(x, y) for x in inst.vertices for y in inst.vertices
                  if x < y and not inst.has_edge(x, y)]
        grown = nc.add_edge(inst, *absent[0], Fraction(1, 3)) if absent else inst
        edited += [grown, nc.drop_edge(grown, inst.edges[0].a, inst.edges[0].b),
                   nc.scale_instance(inst, Fraction(3, 2))]
    chord = nc.add_edge(cycle4(), "a", "c", Fraction(1, 2))
    edited += [nc.replace_edge_with_path(chord, "a", "c", ["a", "p", "q", "c"], fresh=True),
               nc.replace_edge_with_path(chord, "a", "c", ["a", "b", "c"], fresh=False)]
    for inst in edited:
        fresh = nc.validate_instance(inst.to_doc())
        assert inst == fresh and hash(inst) == hash(fresh) and repr(inst) == repr(fresh)
        assert _lookups(inst) == _lookups(fresh)
    # copying and pickling rebuild the lookup tables too
    for inst in (copy.deepcopy(chord), pickle.loads(pickle.dumps(chord))):
        assert inst == chord and _lookups(inst) == _lookups(chord)
    with pytest.raises(TypeError):
        chord._replace(capacity=1)


def test_connected_components():
    inst = two_triangles()
    comps = nc.connected_components(inst)
    assert comps == (("a", "b", "c"), ("d", "f", "g"))
    assert nc.connected_components(line3()) == (("a", "b", "c"),)


def test_widest_path_against_oracle_on_corpus():
    for inst in corpus():
        verts = inst.vertices
        for u in verts:
            for v in verts:
                if u == v:
                    continue
                oracle = widest_path_oracle(inst, u, v)
                if oracle is None:
                    with pytest.raises(NotConnected):
                        nc.widest_path(inst, u, v)
                    continue
                got = nc.widest_path(inst, u, v)
                assert got.gamma == oracle[0]
                assert got.nodes == oracle[1]


def test_widest_path_prefers_bottleneck_then_hops():
    # wide 3-hop route vs narrow direct edge
    inst = make(inst_doc(
        "abcd",
        [("a", "b", "2"), ("b", "c", "2"), ("c", "d", "2"), ("a", "d", "1")],
        ["a"], ["d"], [[1]]))
    wp = nc.widest_path(inst, "a", "d")
    assert wp.gamma == Fraction(2)
    assert wp.nodes == ("a", "b", "c", "d")
    # equal bottleneck: fewest hops wins
    inst2 = make(inst_doc(
        "abcd",
        [("a", "b", "1"), ("b", "c", "1"), ("c", "d", "1"), ("a", "d", "1")],
        ["a"], ["d"], [[1]]))
    assert nc.widest_path(inst2, "a", "d").nodes == ("a", "d")


def test_widest_path_errors():
    with pytest.raises(BadPath):
        nc.widest_path(line3(), "a", "a")
    with pytest.raises(NotConnected):
        nc.widest_path(two_triangles(), "a", "d")


def test_cut_bound_matches_brute_force_on_corpus():
    for inst in corpus():
        for i, s in enumerate(inst.sources):
            for j, d in enumerate(inst.terminals):
                if s == d or not inst.demand[i][j]:
                    continue
                assert nc.cut_bound(inst, [s], [d]) == brute_force_cut(inst, [s], [d])
        src, dst = set(inst.sources), set(inst.terminals)
        if src and dst and not src & dst:
            assert nc.cut_bound(inst, sorted(src), sorted(dst)) == brute_force_cut(
                inst, sorted(src), sorted(dst)
            )


def test_cut_bound_disconnected_and_errors():
    inst = two_triangles()
    assert nc.cut_bound(inst, ["a"], ["d"]) == 0
    with pytest.raises(BadSets):
        nc.cut_bound(inst, [], ["d"])
    with pytest.raises(BadSets):
        nc.cut_bound(inst, ["a"], ["a"])
    with pytest.raises(UnknownVertex):
        nc.cut_bound(inst, ["a"], ["zz"])


def test_removal_constant():
    inst = cycle4()
    total, smallest, c = nc.removal_constant(inst)
    assert (total, smallest, c) == (Fraction(4), Fraction(1), Fraction(8))
    uneven = make(inst_doc(
        "abc", [("a", "b", "1/2"), ("b", "c", "2")], ["a"], ["c"], [[1]]))
    total, smallest, c = nc.removal_constant(uneven)
    assert (total, smallest, c) == (Fraction(5, 2), Fraction(1, 2), Fraction(10))
    lonely = make(inst_doc("ab", [("a", "b", "1")], ["a"], ["b"], [[1]]))
    with pytest.raises(NoEdges):
        nc.removal_constant(nc.drop_edge(lonely, "a", "b"))


def test_two_way_instance_is_symmetric():
    inst = two_way()
    assert nc.cut_bound(inst, ["a"], ["b"]) == nc.cut_bound(inst, ["b"], ["a"])
