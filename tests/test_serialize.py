import itertools
import json
from fractions import Fraction

import pytest

import netcode as nc
from netcode.errors import MalformedDocument, TableTooLarge
from netcode.serialize import DEFAULT_TABLE_LIMIT, derived_doc

from conftest import (
    clamp_code,
    inst_doc,
    line3,
    make,
    single_edge,
    single_edge_cap2,
    unit_code,
)


def relay_routing_doc():
    return {
        "kind": "routing",
        "inner_n": 1,
        "outer_n": 2,
        "message_sizes": [2],
        "routes": [
            {"source": 0, "terminal": 0, "nodes": ["a", "b", "c"], "rounds": [1, 2]}
        ],
    }


def codes_agree(code_a, code_b, inst):
    for msgs in itertools.product(*(range(s) for s in code_a.message_sizes)):
        ta = nc.execute(code_a, inst, msgs)
        tb = nc.execute(code_b, inst, msgs)
        if ta.fwd != tb.fwd or ta.bwd != tb.bwd:
            return False
        if nc.decode_outputs(code_a, inst, ta) != nc.decode_outputs(code_b, inst, tb):
            return False
    return True


# ------------------------------------------------------------------- tables

def test_table_round_trip():
    inst = line3()
    code = unit_code(inst, "abc", (1, 2), outer_n=2)
    doc = nc.code_to_doc(code, inst)
    assert doc["kind"] == "table"
    json.dumps(doc)  # must be plain JSON data
    loaded, target = nc.load_code(doc, inst)
    assert target == inst
    assert loaded.message_sizes == code.message_sizes
    assert loaded.splits == code.splits
    assert codes_agree(code, loaded, inst)


def test_table_round_trip_with_errors_preserved():
    inst = single_edge_cap2()
    code = clamp_code(inst, "a", "b", 1, 1, 1)
    doc = nc.code_to_doc(code, inst)
    loaded, _ = nc.load_code(doc, inst)
    rep = nc.check_feasibility(loaded, inst, epsilon=Fraction(1, 4))
    assert rep.measured_error == Fraction(1, 4)
    assert rep.failing == ((3,),)


def test_table_doc_accepts_reversed_edge_references():
    inst = single_edge()
    doc = {
        "kind": "table",
        "inner_n": 1,
        "outer_n": 1,
        "message_sizes": [2],
        "splits": [{"edge": ["b", "a"], "t": 1, "fwd": 1, "bwd": 2}],
        "encoders": [{"edge": ["b", "a"], "t": 1, "dir": "bwd", "table": [0, 1]}],
        "decoders": [{"terminal": 0, "table": [0, 1]}],
    }
    code, _ = nc.load_code(doc, inst)
    assert code.splits.shape(0, 1) == (2, 1)
    rep = nc.check_feasibility(code, inst)
    assert rep.passed and rep.measured_error == 0


def test_table_limit():
    inst = line3()
    code = unit_code(inst, "abc", (1, 2), outer_n=2)
    with pytest.raises(TableTooLarge):
        nc.code_to_doc(code, inst, limit=1)
    assert DEFAULT_TABLE_LIMIT == 1 << 16


class _CountedState(list):
    """A state list that counts the single positions written to it and its copies."""

    def __init__(self, values, writes):
        super().__init__(values)
        self.writes = writes

    def __getitem__(self, index):
        got = super().__getitem__(index)
        return _CountedState(got, self.writes) if isinstance(index, slice) else got

    def __setitem__(self, index, value):
        if not isinstance(index, slice):
            self.writes[0] += 1
        super().__setitem__(index, value)


def test_a_long_table_domain_costs_its_entries_not_its_rounds(monkeypatch):
    # the decoder of a one-hop code over 2^10 rounds reads one symbol of
    # 2^10 values and 2^10 - 1 of size 1: its table has 2^10 entries, and
    # tabulating it, like the sender's encoder, writes one position per
    # entry, not one per round
    inst = make(inst_doc("ab", [("a", "b", "40")], ["a"], ["b"], [[1]]))
    size = 1 << 10
    code = nc.parallel_repeat(
        nc.make_routing_code(inst, [nc.Route(0, 0, ("a", "b"), (1,))], 1, size, [size]), inst, 1)
    writes, table = [0], nc.codes.Engine._table

    def counted(engine, *args):
        engine._blank = _CountedState(engine._blank, writes)
        return table(engine, *args)

    monkeypatch.setattr(nc.codes.Engine, "_table", counted)
    doc = nc.code_to_doc(code, inst)
    tables = [item["table"] for item in doc["encoders"] + doc["decoders"]]
    assert tables == [list(range(size))] * 2
    assert writes[0] == 2 * size


def test_table_doc_validation():
    inst = single_edge()
    base = nc.code_to_doc(unit_code(inst, "ab", (1,)), inst)
    with pytest.raises(MalformedDocument):
        nc.load_code({**base, "message_sizes": [2, 2]}, inst)
    bad_dir = json.loads(json.dumps(base))
    bad_dir["encoders"][0]["dir"] = "sideways"
    with pytest.raises(MalformedDocument):
        nc.load_code(bad_dir, inst)
    bad_edge = json.loads(json.dumps(base))
    bad_edge["encoders"][0]["edge"] = ["a", "z"]
    with pytest.raises(MalformedDocument):
        nc.load_code(bad_edge, inst)
    bad_term = json.loads(json.dumps(base))
    bad_term["decoders"][0]["terminal"] = 5
    with pytest.raises(MalformedDocument):
        nc.load_code(bad_term, inst)
    missing = json.loads(json.dumps(base))
    del missing["encoders"][0]["table"]
    with pytest.raises(MalformedDocument):
        nc.load_code(missing, inst)


# ------------------------------------------------------------------- routing

def test_routing_doc_loads():
    inst = line3()
    code, target = nc.load_code(relay_routing_doc(), inst)
    assert target == inst
    direct = unit_code(inst, "abc", (1, 2), outer_n=2)
    assert codes_agree(code, direct, inst)


# ------------------------------------------------------------------- derived

def test_derived_doc_replays_chain():
    inst = line3()
    doc = derived_doc(relay_routing_doc(), inst, [{"op": "interleave"}])
    code, target = nc.load_code(doc, inst)
    assert target == inst
    assert code.outer_n == 4
    assert code.message_sizes == (4,)
    assert nc.check_feasibility(code, inst).passed


def test_derived_doc_rejects_wrong_target():
    inst = line3()
    doc = derived_doc(relay_routing_doc(), inst, [{"op": "interleave"}])
    with pytest.raises(MalformedDocument):
        nc.load_code(doc, single_edge())


def test_derived_doc_with_pipeline_moves_instance():
    inst = make(inst_doc(
        "abc", [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1")],
        ["a", "c"], ["c", "a"], [[1, 0], [0, 1]]))
    base_doc = {
        "kind": "routing",
        "inner_n": 1,
        "outer_n": 2,
        "message_sizes": [2, 2],
        "routes": [
            {"source": 0, "terminal": 0, "nodes": ["a", "c"], "rounds": [1]},
            {"source": 1, "terminal": 1, "nodes": ["c", "a"], "rounds": [2]},
        ],
    }
    steps = [
        {"op": "interleave"},
        {"op": "pipeline_path", "u": "a", "v": "c", "path": ["a", "p1", "c"]},
    ]
    star = nc.replace_edge_with_path(inst, "a", "c", ["a", "p1", "c"], fresh=True)
    code, target = nc.load_code(derived_doc(base_doc, inst, steps), star)
    assert target == star
    assert code.outer_n == 2 * (2 + 3)
    assert nc.check_feasibility(code, star).passed


# --------------------------------------------------------------------- chains

def test_apply_chain_each_op():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,), n=2, sizes=(4,))
    code, inst2 = nc.apply_chain(code, inst, [
        {"op": "parallel_repeat", "m": 2},
        {"op": "scale_code", "alpha": "3/2"},
        {"op": "reblock", "m": 2},
    ])
    assert inst2 == inst
    # n: 2 -> 4 -> 6 -> 4; N: 1 -> 2; sizes: 4 -> 16
    assert (code.inner_n, code.outer_n) == (4, 2)
    assert code.message_sizes == (16,)
    assert nc.check_feasibility(code, inst).passed

    amp, _ = nc.apply_chain(
        unit_code(inst, "ab", (1,)), inst,
        [{"op": "amplify", "m": 3, "family": "repetition",
          "base_error": "0", "seed": 2}])
    assert amp.inner_n == 3
    assert nc.check_feasibility(amp, inst).passed


def test_apply_chain_rejects_bad_steps():
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    with pytest.raises(MalformedDocument):
        nc.apply_chain(code, inst, [{"op": "transmogrify"}])
    with pytest.raises(MalformedDocument):
        nc.apply_chain(code, inst, ["interleave"])


# -------------------------------------------------------------------- loading

def test_load_code_kind_errors():
    inst = single_edge()
    with pytest.raises(MalformedDocument):
        nc.load_code({"inner_n": 1}, inst)
    with pytest.raises(MalformedDocument):
        nc.load_code({"kind": "mystery"}, inst)
    with pytest.raises(MalformedDocument):
        nc.load_code([], inst)


# -------------------------------------------------------------------- reports

def walk_no_floats(value):
    if isinstance(value, float):
        raise AssertionError(f"float {value!r} leaked into a report")
    if isinstance(value, dict):
        for v in value.values():
            walk_no_floats(v)
    elif isinstance(value, list):
        for v in value:
            walk_no_floats(v)


def test_feasibility_report_doc():
    inst = single_edge_cap2()
    code = clamp_code(inst, "a", "b", 1, 1, 1)
    rep = nc.check_feasibility(code, inst, epsilon=Fraction(1, 4))
    doc = nc.feasibility_report_doc(rep)
    assert doc["measured_error"] == "1/4"
    assert doc["epsilon"] == "1/4"
    assert doc["passed"] is True
    assert doc["certified"] is True
    assert doc["failing"] == [[3]]
    assert doc["interval"] is None
    walk_no_floats(doc)
    json.dumps(doc)

    sampled = nc.check_feasibility(code, inst, epsilon=Fraction(1, 2),
                                   mode="sampled", trials=200, seed=3)
    doc = nc.feasibility_report_doc(sampled)
    assert doc["mode"] == "sampled"
    lo, hi = doc["interval"]
    assert Fraction(lo) <= Fraction(doc["measured_error"]) <= Fraction(hi)
    walk_no_floats(doc)


def test_removal_report_doc_path():
    from conftest import cycle4
    rep = nc.edge_removal_report(cycle4(), "a", "c", Fraction(1, 2),
                                 rates=[Fraction(1, 4), Fraction(1, 4)])
    doc = nc.removal_report_doc(rep)
    assert doc["case"] == "path"
    assert doc["lambda"] == "1/2"
    assert doc["f_lambda"] == "4"
    assert doc["path"]["alpha"] == "2/3"
    assert doc["path"]["nodes"] == ["a", "b", "c"]
    assert doc["f_rate_form"] == "1/12"
    assert doc["verification"] is None
    walk_no_floats(doc)
    json.dumps(doc)


def test_removal_report_doc_bridge_with_verification():
    inst = make(inst_doc(
        "abcd", [("a", "b", "2"), ("c", "d", "2")],
        ["a", "c"], ["b", "d"], [[1, 0], [0, 1]]))
    aug = nc.add_edge(inst, "b", "c", Fraction(1))
    code = nc.make_routing_code(
        aug,
        [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("c", "d"), (1,))],
        1, 1, [4, 4])
    rep = nc.edge_removal_report(inst, "b", "c", Fraction(1), code=code,
                                 rates=[Fraction(1), Fraction(1)])
    doc = nc.removal_report_doc(rep)
    assert doc["case"] == "bridge"
    assert doc["bridge"]["cross_demands"] == []
    assert doc["bridge"]["cross_rate_ok"] is True
    ver = doc["verification"]
    assert ver["kind"] == "bridge"
    assert ver["passed"] is True
    assert ver["sides"][0]["fixing"] == {"1": 0}
    assert ver["sides"][1]["fixing"] == {"0": 0}
    walk_no_floats(doc)
    json.dumps(doc)


def test_removal_report_doc_path_with_verification():
    from conftest import cycle4
    inst = cycle4()
    aug = nc.add_edge(inst, "a", "c", Fraction(1))
    code = nc.make_routing_code(
        aug,
        [nc.Route(0, 0, ("a", "c"), (1,)), nc.Route(1, 1, ("c", "a"), (2,))],
        1, 2, [2, 2])
    rep = nc.edge_removal_report(inst, "a", "c", Fraction(1), code=code,
                                 rates=[Fraction(1, 2), Fraction(1, 2)])
    doc = nc.removal_report_doc(rep)
    ver = doc["verification"]
    assert ver["kind"] == "path"
    assert ver["passed"] is True
    assert ver["alpha"] == "1/2"
    assert ver["ell"] == 3
    assert [cl["claimed_rate"] for cl in ver["rate_claims"]] == ["1/10", "1/10"]
    assert all(cl["achieved"] for cl in ver["rate_claims"])
    walk_no_floats(doc)
    json.dumps(doc)
