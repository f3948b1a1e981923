"""End-to-end tests for the command-line interface.

Most tests drive `netcode.cli.main(argv)` in-process and inspect the JSON
document printed to stdout plus the returned exit code.  One test runs the
real interpreter twice via subprocess to pin down byte-identical output.

Exit-code contract: 0 pass, 2 invalid input, 3 I/O error, 4 verification
or feasibility failure, 5 resource limit exceeded.
"""

import copy
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import netcode as nc
from netcode.cli import main
from netcode.errors import sized

from conftest import (
    bridged_pair,
    clamp_code,
    cycle4,
    fractional_alpha,
    inst_doc,
    line3,
    make,
    pair_at_one_node,
    single_edge,
    three_as_zero_chord_code,
    two_way,
    unit_code,
)


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def jfile(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


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


# ------------------------------------------------------------------- validate

def test_validate_accepts_good_instance(tmp_path, capsys):
    path = jfile(tmp_path, "inst.json", cycle4().to_doc())
    rc, doc = run_cli(capsys, ["validate", path])
    assert rc == 0
    assert doc == {
        "ok": True, "vertices": 4, "edges": 4, "sources": 2, "terminals": 2,
    }


def test_validate_reports_schema_errors(tmp_path, capsys):
    bad = cycle4().to_doc()
    del bad["demand"]
    path = jfile(tmp_path, "inst.json", bad)
    rc, doc = run_cli(capsys, ["validate", path])
    assert rc == 2
    assert doc["ok"] is False
    [err] = doc["errors"]
    assert err["error"] == "MalformedDocument"
    assert err["message"]


@pytest.mark.parametrize("field", [("edges", 0, "a"), ("sources", 0), ("terminals", 0)])
def test_validate_rejects_non_name_vertices(tmp_path, capsys, field):
    bad = cycle4().to_doc()
    target = bad
    for key in field[:-1]:
        target = target[key]
    target[field[-1]] = ["a"]
    rc, doc = run_cli(capsys, ["validate", jfile(tmp_path, "inst.json", bad)])
    assert rc == 2
    [err] = doc["errors"]
    assert err["error"] == "UnknownVertex"


def test_validate_rejects_unparsable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    rc, doc = run_cli(capsys, ["validate", str(path)])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"


def test_validate_missing_file_is_io_error(tmp_path, capsys):
    rc, doc = run_cli(capsys, ["validate", str(tmp_path / "absent.json")])
    assert rc == 3
    assert doc["error"] == "IoError"


# ---------------------------------------------------------------------- check

def test_check_exhaustive_pass(tmp_path, capsys):
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))
    rc, doc = run_cli(capsys, ["check", ipath, cpath, "--rate", "1"])
    assert rc == 0
    assert doc["passed"] is True
    assert doc["certified"] is True
    assert doc["mode"] == "exhaustive"
    assert doc["epsilon"] == "0"
    assert doc["rates"] == ["1"]
    assert doc["measured_error"] == "0"


def test_check_fail_then_pass_with_tolerance(tmp_path, capsys):
    inst = single_edge()
    code = clamp_code(inst, "a", "b", 2, 1, 1)
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))

    rc, doc = run_cli(capsys, ["check", ipath, cpath])
    assert rc == 4
    assert doc["passed"] is False
    assert doc["measured_error"] == "1/4"

    rc, doc = run_cli(capsys, ["check", ipath, cpath, "--epsilon", "1/4"])
    assert rc == 0
    assert doc["passed"] is True


@pytest.mark.parametrize("epsilon", ["3", "-1"])
def test_check_rejects_tolerance_outside_unit_interval(tmp_path, capsys, epsilon):
    inst, code = clamp_table_doc()
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", code)
    rc, doc = run_cli(capsys, ["check", ipath, cpath, "--epsilon", epsilon])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"


def test_check_sampled_mode_is_seeded(tmp_path, capsys):
    inst = single_edge()
    code = clamp_code(inst, "a", "b", 2, 1, 1)
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))
    argv = ["check", ipath, cpath, "--epsilon", "1/2",
            "--mode", "sampled:300:9"]

    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2

    doc = json.loads(out1)
    assert doc["mode"] == "sampled"
    assert doc["trials"] == 300
    assert doc["interval"] is not None


def test_check_rejects_bad_mode_and_rate(tmp_path, capsys):
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))

    rc, doc = run_cli(capsys, ["check", ipath, cpath, "--mode", "sampled:x:1"])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"

    rc, doc = run_cli(capsys, ["check", ipath, cpath, "--rate", "2"])
    assert rc == 2
    assert doc["error"] == "BadRate"


def clamp_table_doc():
    inst = single_edge()
    return inst, nc.code_to_doc(clamp_code(inst, "a", "b", 2, 1, 1), inst)


def _short_table(doc):
    doc["encoders"][0]["table"].pop()


def _entry_outside_alphabet(doc):
    doc["encoders"][0]["table"][0] = 4


def _decoder_entry_outside_outputs(doc):
    doc["decoders"][0]["table"][0] = 4


def _string_inner_n(doc):
    doc["inner_n"] = "1"


def _bool_message_size(doc):
    doc["message_sizes"] = [True]


def _encoder_round_zero(doc):
    # an all-zero table over a's four messages would load and never run
    doc["encoders"].append({"edge": ["a", "b"], "t": 0, "dir": "fwd", "table": [0] * 4})


def _string_split_round(doc):
    doc["splits"][0]["t"] = "x"


@pytest.mark.parametrize("mutate", [
    _short_table, _entry_outside_alphabet, _decoder_entry_outside_outputs,
    _string_inner_n, _bool_message_size, _encoder_round_zero, _string_split_round,
])
def test_check_rejects_malformed_table_codes(tmp_path, capsys, mutate):
    inst, doc = clamp_table_doc()
    mutate(doc)
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", doc)
    rc, out = run_cli(capsys, ["check", ipath, cpath])
    assert rc == 2
    assert out["error"] == "MalformedDocument"


def unit_routing_doc(**route):
    return {
        "kind": "routing", "inner_n": 1, "outer_n": 1, "message_sizes": [2],
        "routes": [{"source": 0, "terminal": 0, "nodes": ["a", "b"], "rounds": [1], **route}],
    }


@pytest.mark.parametrize("doc", [
    unit_routing_doc(nodes="ab"),
    unit_routing_doc(rounds=[True]),
    unit_routing_doc(source="0"),
    {**unit_routing_doc(), "inner_n": 0},
    {**unit_routing_doc(), "routes": {}},
], ids=["string_nodes", "bool_round", "string_source", "zero_inner_n", "routes_object"])
def test_check_rejects_malformed_routing_codes(tmp_path, capsys, doc):
    ipath = jfile(tmp_path, "inst.json", single_edge().to_doc())
    rc, out = run_cli(capsys, ["check", ipath, jfile(tmp_path, "code.json", doc)])
    assert rc == 2
    assert out["error"] == "MalformedDocument"


def _field_paths(doc, prefix=(), every_item=False):
    """Every field path of a document; of a list, only its first item
    unless `every_item`."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc if every_item else doc[:1])
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,), every_item)


BAD_VALUES = ["x", [1], -1, 0, True, None, 1.5, {}]

RELAY_ROUTING = {
    "kind": "routing", "inner_n": 1, "outer_n": 2, "message_sizes": [2],
    "routes": [{"source": 0, "terminal": 0, "nodes": ["a", "b", "c"], "rounds": [1, 2]}],
}

@pytest.mark.parametrize("route, message", [
    ({"rounds": [2, 1]}, "route rounds must be strictly increasing: Route(source=0, terminal=0,"
                         " nodes=('a', 'b', 'c'), rounds=(2, 1))"),
    ({"nodes": ["a", "c"], "rounds": [1]}, "no edge 'a'-'c' on route Route(source=0, terminal=0,"
                                           " nodes=('a', 'c'), rounds=(1,))"),
], ids=["rounds_not_increasing", "missing_edge"])
def test_check_bad_route_keeps_its_error_bytes(tmp_path, capsys, route, message):
    # BadRoute messages embed the route's repr, so the record type of
    # Route shows in stdout; these bytes are pinned
    doc = {**RELAY_ROUTING, "routes": [{**RELAY_ROUTING["routes"][0], **route}]}
    rc = main(["check", jfile(tmp_path, "inst.json", line3().to_doc()),
               jfile(tmp_path, "code.json", doc)])
    assert rc == 2
    assert capsys.readouterr().out == (
        '{\n  "error": "BadRoute",\n  "message": "' + message + '"\n}\n')


# One step of every chain op, in an order each op accepts.
EVERY_OP_CHAIN = {"steps": [
    {"op": "interleave"},
    {"op": "pipeline_path", "u": "a", "v": "b", "path": ["a", "p1", "b"]},
    {"op": "scale_code", "alpha": "2"},
    {"op": "reblock", "m": 2},
    {"op": "parallel_repeat", "m": 2},
    {"op": "amplify", "m": 3, "family": "repetition", "base_error": "0",
     "rate_target": "1/3", "seed": 1, "strict": False},
]}


def _malformed_variants(doc, every_item=False, values=BAD_VALUES):
    """(path, value, copy of doc with the field at path set to value)."""
    for path in list(_field_paths(doc, every_item=every_item)):
        for value in values:
            case = copy.deepcopy(doc)
            target = case
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            yield path, value, case


def _malformed_runs(tmp_path, values=BAD_VALUES):
    """(path, value, argv) for every malformed variant, each field set to
    each of `values`; each argv is valid only until the next one is drawn,
    since they share file names."""
    derived = nc.serialize.derived_doc(
        RELAY_ROUTING, line3(), [{"op": "interleave"}, {"op": "scale_code", "alpha": "2"}])
    for inst, doc, every_item in (
        (*clamp_table_doc(), False), (line3(), RELAY_ROUTING, False), (line3(), derived, True),
    ):
        ipath = jfile(tmp_path, "inst.json", inst.to_doc())
        for path, value, case in _malformed_variants(doc, every_item, values):
            yield path, value, ["check", ipath, jfile(tmp_path, "code.json", case)]
    ipath = jfile(tmp_path, "inst.json", line3().to_doc())
    cpath = jfile(tmp_path, "code.json", RELAY_ROUTING)
    out = str(tmp_path / "result.json")
    for path, value, case in _malformed_variants(EVERY_OP_CHAIN, True, values):
        hpath = jfile(tmp_path, "chain.json", case)
        yield path, value, ["transform", ipath, cpath, hpath, "--out", out]


def test_check_survives_every_malformed_field(tmp_path, capsys):
    # Every field of a table, a routing and a derived code document, and
    # of a transform chain, set to each of BAD_VALUES, must end in an exit
    # code and one JSON document, never a traceback.
    problems = []
    for path, value, argv in _malformed_runs(tmp_path):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback breaks the CLI contract
            problems.append((argv[0], path, value, repr(exc)))
            capsys.readouterr()
            continue
        stdout = capsys.readouterr().out
        try:
            json.loads(stdout)
        except ValueError:
            problems.append((argv[0], path, value, f"stdout is not one JSON document: {stdout!r}"))
        if rc not in (0, 2, 4, 5):
            problems.append((argv[0], path, value, f"exit {rc}"))
    assert problems == []


@pytest.mark.parametrize("mode", ["sampled:0:1", "sampled:-5:1"])
def test_check_rejects_non_positive_trials(tmp_path, capsys, mode):
    inst, doc = clamp_table_doc()
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", doc)
    rc, out = run_cli(capsys, ["check", ipath, cpath, "--mode", mode])
    assert rc == 2
    assert out["error"] == "MalformedDocument"


@pytest.mark.parametrize("flag", ["--n", "--N"])
def test_region_rejects_non_positive_lengths(tmp_path, capsys, flag):
    path = jfile(tmp_path, "inst.json", line3().to_doc())
    argv = ["region", path, "--n", "1", "--N", "2"]
    argv[argv.index(flag) + 1] = "0"
    rc, out = run_cli(capsys, argv)
    assert rc == 2
    assert out["error"] == "MalformedDocument"


# -------------------------------------------------------------------- analyze

def test_analyze_bound_only(tmp_path, capsys):
    path = jfile(tmp_path, "inst.json", cycle4().to_doc())
    rc, doc = run_cli(
        capsys, ["analyze", path, "--edge", "a,c", "--lambda", "1"])
    assert rc == 0
    assert doc["case"] == "path"
    assert doc["lambda"] == "1"
    assert doc["f_lambda"] == "8"
    assert doc["path"]["nodes"] == ["a", "b", "c"]
    assert doc["path"]["gamma"] == "1"
    assert doc["verification"] is None

    rc, doc = run_cli(
        capsys, ["analyze", path, "--edge", "a,c", "--lambda", "1",
                 "--rate", "1/2,1/3"])
    assert rc == 0
    assert doc["f_rate_form"] == "1/4"


# two routes on cycle4 plus the probe a-c: a->c at round 1, c->a at round 2
TWO_ROUTE = {
    "kind": "routing", "inner_n": 1, "outer_n": 2,
    "message_sizes": [2, 2],
    "routes": [
        {"source": 0, "terminal": 0, "nodes": ["a", "c"], "rounds": [1]},
        {"source": 1, "terminal": 1, "nodes": ["c", "a"], "rounds": [2]},
    ],
}


def test_analyze_path_case_with_code(tmp_path, capsys):
    inst = cycle4()
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", TWO_ROUTE)
    rc, doc = run_cli(
        capsys, ["analyze", ipath, "--edge", "a,c", "--lambda", "1",
                 "--code", cpath, "--rate", "1/2,1/2"])
    assert rc == 0
    ver = doc["verification"]
    assert ver["kind"] == "path"
    assert ver["alpha"] == "1/2"
    assert ver["ell"] == 3
    assert ver["passed"] is True
    assert [cl["claimed_rate"] for cl in ver["rate_claims"]] == ["1/10", "1/10"]
    assert all(cl["achieved"] for cl in ver["rate_claims"])
    assert ver["final"]["passed"] is True


def test_analyze_path_case_claims_the_rate_at_its_blocklength(tmp_path, capsys):
    # alpha = 3/5 does not divide n = 2; the claim is n/ceil(n/alpha) *
    # N/(N+ell) * R = 1/2 * 1/4 * 1/2, which the final code achieves
    ipath = jfile(tmp_path, "inst.json", fractional_alpha().to_doc())
    cpath = jfile(tmp_path, "code.json", {
        "kind": "routing", "inner_n": 2, "outer_n": 1, "message_sizes": [2],
        "routes": [{"source": 0, "terminal": 0, "nodes": ["v3", "v2"], "rounds": [1]}],
    })
    rc, doc = run_cli(
        capsys, ["analyze", ipath, "--edge", "v0,v4", "--lambda", "1",
                 "--code", cpath, "--rate", "1/2"])
    assert rc == 0
    ver = doc["verification"]
    assert (ver["alpha"], ver["passed"]) == ("3/5", True)
    assert ver["rate_claims"] == [{"achieved": True, "claimed_rate": "1/16", "source": 0}]


def test_analyze_path_case_checks_the_image_of_the_rates(tmp_path, capsys):
    # the tabulated chord code sends message 3 as 0, outside the rate-1/2
    # spaces {0, 1}; the final check covers their image, 16 tuples
    inst = cycle4()
    aug = nc.add_edge(inst, "a", "c", 2)
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(three_as_zero_chord_code(aug), aug))
    rc, doc = run_cli(
        capsys, ["analyze", ipath, "--edge", "a,c", "--lambda", "2",
                 "--code", cpath, "--rate", "1/2,1/2"])
    assert rc == 0
    ver = doc["verification"]
    final = ver["final"]
    assert (final["rates"], final["trials"], final["measured_error"]) == (None, 16, "0")
    assert [(cl["claimed_rate"], cl["achieved"]) for cl in ver["rate_claims"]] == [("1/15", True)] * 2
    assert ver["passed"] is True


def test_analyze_bridge_verification_sets_exit_code(tmp_path, capsys):
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", 1)
    code = clamped_pair_code(aug)
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, aug))

    rc, doc = run_cli(
        capsys, ["analyze", ipath, "--edge", "b,c", "--lambda", "1",
                 "--code", cpath])
    assert rc == 4
    ver = doc["verification"]
    assert ver["kind"] == "bridge"
    assert ver["passed"] is False
    errors = [side["conditional_error"] for side in ver["sides"]]
    assert "1/4" in errors

    rc, doc = run_cli(
        capsys, ["analyze", ipath, "--edge", "b,c", "--lambda", "1",
                 "--code", cpath, "--epsilon", "1/4"])
    assert rc == 0
    assert doc["verification"]["passed"] is True


def test_analyze_bridge_sides_are_measured_at_the_checked_rates(tmp_path, capsys):
    # at rate 1 only messages 0 and 1 are checked, which the clamp keeps
    inst = bridged_pair()
    aug = nc.add_edge(inst, "b", "c", 1)
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(clamped_pair_code(aug), aug))
    rc, doc = run_cli(
        capsys, ["analyze", ipath, "--edge", "b,c", "--lambda", "1",
                 "--code", cpath, "--rate", "1,1"])
    assert rc == 0
    assert doc["verification"]["passed"] is True
    assert [side["conditional_error"] for side in doc["verification"]["sides"]] == ["0", "0"]


@pytest.mark.parametrize("epsilon", ["-1", "3"])
def test_analyze_rejects_tolerance_outside_unit_interval(tmp_path, capsys, epsilon):
    ipath = jfile(tmp_path, "inst.json", cycle4().to_doc())
    argv = ["analyze", ipath, "--edge", "a,c", "--lambda", "1", "--epsilon", epsilon]
    for extra in ([], ["--code", jfile(tmp_path, "code.json", TWO_ROUTE), "--rate", "1/2,1/2"]):
        rc, doc = run_cli(capsys, argv + extra)
        assert rc == 2
        assert doc["error"] == "MalformedDocument"


def two_triangles_diag():
    # two triangles that only the probe c-d would join; four unicast demands
    return make(inst_doc(
        "abcdfg",
        [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1"),
         ("d", "f", "1"), ("f", "g", "1"), ("d", "g", "1")],
        ["a", "d", "c", "g"], ["b", "g", "f", "a"],
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]))


@pytest.mark.parametrize("make_inst, edge, rate, message", [
    (two_triangles_diag, "c,d", "1/2", "expected 4 rates"),
    (two_triangles_diag, "c,d", "1/2,1/2,-5,1/2", "negative rate -5"),
    (cycle4, "a,c", "1/2", "expected 2 rates"),
    (cycle4, "a,c", "1/2,-1", "negative rate -1"),
])
def test_analyze_rejects_bad_rates_without_a_code(tmp_path, capsys, make_inst, edge, rate, message):
    # the bound alone reads the rates (cross_rate_ok, f_rate_form), so they
    # are checked as check_feasibility checks them, before any code is seen
    path = jfile(tmp_path, "inst.json", make_inst().to_doc())
    rc, doc = run_cli(
        capsys, ["analyze", path, "--edge", edge, "--lambda", "1", "--rate", rate])
    assert rc == 2
    assert doc == {"error": "BadRate", "message": message}


def test_analyze_rejects_bad_edge_flag(tmp_path, capsys):
    path = jfile(tmp_path, "inst.json", cycle4().to_doc())
    rc, doc = run_cli(
        capsys, ["analyze", path, "--edge", "a-c", "--lambda", "1"])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"


# ------------------------------------------------------------------ transform

def test_transform_writes_tabulated_result(tmp_path, capsys):
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))
    chain = {"steps": [
        {"op": "parallel_repeat", "m": 2},
        {"op": "scale_code", "alpha": "3/2"},
    ]}
    hpath = jfile(tmp_path, "chain.json", chain)
    out = str(tmp_path / "result.json")

    rc, doc = run_cli(
        capsys, ["transform", ipath, cpath, hpath, "--out", out])
    assert rc == 0
    assert doc == {
        "written": out, "kind": "table", "inner_n": 3, "outer_n": 1,
        "message_sizes": [4],
    }

    payload = json.loads(open(out, encoding="utf-8").read())
    final_inst = nc.validate_instance(payload["instance"])
    assert final_inst.to_doc() == inst.to_doc()
    loaded, _ = nc.load_code(payload["code"], final_inst)
    rep = nc.check_feasibility(loaded, final_inst)
    assert rep.passed and rep.measured_error == 0


def test_transform_reports_failing_step(tmp_path, capsys):
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))
    chain = {"steps": [
        {"op": "parallel_repeat", "m": 2},
        {"op": "scale_code", "alpha": "0"},
    ]}
    hpath = jfile(tmp_path, "chain.json", chain)
    out = str(tmp_path / "result.json")

    rc, doc = run_cli(
        capsys, ["transform", ipath, cpath, hpath, "--out", out])
    assert rc == 2
    assert doc["error"] == "NonPositiveScale"
    assert doc["step"] == 1
    assert doc["op"] == "scale_code"

    chain = {"steps": [{"op": "warp"}]}
    hpath = jfile(tmp_path, "chain2.json", chain)
    rc, doc = run_cli(
        capsys, ["transform", ipath, cpath, hpath, "--out", out])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"
    assert doc["step"] == 0
    assert doc["op"] == "warp"


AMPLIFY_STEP = {"op": "amplify", "m": 3, "family": "repetition", "base_error": "0", "strict": False}


@pytest.mark.parametrize("steps", [
    [{"op": "parallel_repeat", "m": "x"}],
    [{"op": "parallel_repeat"}],
    [{"op": "reblock", "m": 1.5}],
    [{"op": "interleave"}, {"op": "pipeline_path", "u": "a", "v": "b", "path": 5}],
    [{"op": "interleave"}, {"op": "pipeline_path", "u": ["a"], "v": "b", "path": ["a", "p", "b"]}],
    [{**AMPLIFY_STEP, "strict": "no"}],
    [{**AMPLIFY_STEP, "seed": "1"}],
    [{**AMPLIFY_STEP, "family": ["repetition"]}],
], ids=["string_m", "missing_m", "float_m", "int_path", "list_endpoint", "string_strict",
        "string_seed", "list_family"])
def test_transform_rejects_malformed_chain_steps(tmp_path, capsys, steps):
    ipath = jfile(tmp_path, "inst.json", line3().to_doc())
    cpath = jfile(tmp_path, "code.json", RELAY_ROUTING)
    hpath = jfile(tmp_path, "chain.json", {"steps": steps})
    rc, doc = run_cli(
        capsys, ["transform", ipath, cpath, hpath, "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"
    assert doc["step"] == len(steps) - 1


@pytest.mark.parametrize("chain", [
    "x", [{"op": "interleave"}], {}, {"steps": "x"}, {"steps": {"op": "interleave"}},
    {"steps": [{"op": "parallel_repeat", "m": "2"}]},
], ids=["string", "list", "no_steps", "string_steps", "object_steps", "string_m"])
def test_check_rejects_malformed_derived_chain(tmp_path, capsys, chain):
    inst = line3()
    doc = {**nc.serialize.derived_doc(RELAY_ROUTING, inst, []), "chain": chain}
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    rc, out = run_cli(capsys, ["check", ipath, jfile(tmp_path, "code.json", doc)])
    assert rc == 2
    assert out["error"] == "MalformedDocument"


def test_transform_tabulates_reblocked_code(tmp_path, capsys):
    # reblock sends each old symbol of size 2 as two binary digits, so
    # tabulation meets digit pairs no execution sends.
    ipath = jfile(tmp_path, "inst.json", line3().to_doc())
    cpath = jfile(tmp_path, "code.json", RELAY_ROUTING)
    steps = [{"op": "scale_code", "alpha": "2"}, {"op": "reblock", "m": 2}]
    hpath = jfile(tmp_path, "chain.json", {"steps": steps})
    out = str(tmp_path / "result.json")
    rc, doc = run_cli(capsys, ["transform", ipath, cpath, hpath, "--out", out])
    assert rc == 0
    assert (doc["kind"], doc["inner_n"], doc["outer_n"]) == ("table", 2, 4)

    code = json.loads(open(out, encoding="utf-8").read())["code"]
    rc, rep = run_cli(capsys, ["check", ipath, jfile(tmp_path, "table.json", code)])
    assert rc == 0
    assert rep["measured_error"] == "0"


def test_transform_falls_back_to_derived_form(tmp_path, capsys):
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))
    # 17 packed sessions give a 2^17-entry message domain, past the
    # tabulation limit of 2^16, so the output switches to a replayable
    # chain descriptor.
    chain = {"steps": [{"op": "parallel_repeat", "m": 17}]}
    hpath = jfile(tmp_path, "chain.json", chain)
    out = str(tmp_path / "result.json")

    rc, doc = run_cli(
        capsys, ["transform", ipath, cpath, hpath, "--out", out])
    assert rc == 0
    assert doc["kind"] == "derived"
    assert doc["inner_n"] == 17
    assert doc["message_sizes"] == [1 << 17]

    payload = json.loads(open(out, encoding="utf-8").read())
    assert payload["code"]["kind"] == "derived"
    loaded, _ = nc.load_code(payload["code"], inst)
    assert loaded.message_sizes == (1 << 17,)
    trace = nc.execute(loaded, inst, (54321,))
    assert nc.decode_outputs(loaded, inst, trace) == {0: (54321,)}


def test_transform_rejects_result_beyond_capacity(tmp_path, capsys):
    # halving n=2 leaves n=1, whose alphabet of 2 cannot hold the clamp
    # code's split of 4; the result must not be written
    inst, code = clamp_table_doc()
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", code)
    hpath = jfile(tmp_path, "chain.json", {"steps": [{"op": "scale_code", "alpha": "1/2"}]})
    out = tmp_path / "result.json"
    rc, doc = run_cli(capsys, ["transform", ipath, cpath, hpath, "--out", str(out)])
    assert rc == 2
    assert doc["error"] == "SplitCapacityViolation"
    assert not out.exists()


def test_transform_requires_steps_list(tmp_path, capsys):
    inst = single_edge()
    code = unit_code(inst, "ab", (1,))
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))
    hpath = jfile(tmp_path, "chain.json", {"steps": "nope"})
    rc, doc = run_cli(
        capsys, ["transform", ipath, cpath, hpath,
                 "--out", str(tmp_path / "r.json")])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"


# --------------------------------------------------------------------- region

def test_region_outputs_sorted_rational_points(tmp_path, capsys):
    path = jfile(tmp_path, "inst.json", line3().to_doc())
    rc, doc = run_cli(capsys, ["region", path, "--n", "1", "--N", "2"])
    assert rc == 0
    assert doc == {"n": 1, "N": 2, "points": [["1/2"]]}

    path = jfile(tmp_path, "inst.json", pair_at_one_node().to_doc())
    rc, doc = run_cli(capsys, ["region", path, "--n", "1", "--N", "1"])
    assert rc == 0
    assert doc["points"] == [["0", "1"], ["1", "0"]]


def test_region_limit_overrides_and_exit_codes(tmp_path, capsys):
    path = jfile(tmp_path, "inst.json", cycle4().to_doc())
    rc, doc = run_cli(
        capsys, ["region", path, "--n", "1", "--N", "1",
                 "--limits", "max_edges=2"])
    assert rc == 5
    assert doc["error"] == "EnumerationTooLarge"

    rc, doc = run_cli(
        capsys, ["region", path, "--n", "1", "--N", "1",
                 "--limits", "bogus=3"])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"

    rc, doc = run_cli(
        capsys, ["region", path, "--n", "1", "--N", "1",
                 "--limits", "max_edges=x"])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"

    rc, doc = run_cli(
        capsys, ["region", path, "--n", "1", "--N", "1",
                 "--limits", "max_ops"])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"

    # an empty part, as after a trailing comma, is skipped
    path = jfile(tmp_path, "two_way.json", two_way().to_doc())
    argv = ["region", path, "--n", "1", "--N", "2"]
    assert run_cli(capsys, argv)[0] == 0
    rc, doc = run_cli(capsys, argv + ["--limits", "max_ops=3,"])
    assert rc == 5
    assert (rc, doc) == run_cli(capsys, argv + ["--limits", "max_ops=3"])


def test_region_exits_5_naming_the_limit_that_stopped_it(tmp_path, capsys):
    path = jfile(tmp_path, "two_way.json", two_way().to_doc())
    argv = ["region", path, "--n", "1", "--N", "3", "--limits", "max_outer=3"]
    rc, doc = run_cli(capsys, argv)
    assert rc == 0
    assert len(doc["points"]) == 4

    # the cuts let each message reach 8, so a cap of 4 may hide points
    rc, doc = run_cli(capsys, argv[:-1] + ["max_outer=3,max_message_size=4"])
    assert (rc, doc["error"]) == (5, "EnumerationTooLarge")
    assert doc["message"] == (
        "max_message_size=4 may hide larger sizes of source 1 at 'b' (cut ceiling 8)"
    )
    rc, doc = run_cli(capsys, argv[:-1] + ["max_outer=3,max_ops=20"])
    assert (rc, doc["message"]) == (5, "region search used all of max_ops=20")


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("field", list(nc.RegionLimits.__slots__))
def test_region_rejects_limits_below_one(tmp_path, capsys, field, value):
    path = jfile(tmp_path, "inst.json", two_way().to_doc())
    rc, doc = run_cli(
        capsys, ["region", path, "--n", "1", "--N", "2", "--limits", f"{field}={value}"])
    assert rc == 2
    assert doc["error"] == "MalformedDocument"


# ------------------------------------------------------------ huge integers

def cli_child(argv, cwd, seconds=60, args=("-m", "netcode.cli"), **run):
    """`python -m netcode.cli argv` (or `python args argv`) in a child whose
    address space is capped at 2 GiB, so an input that makes netcode build a
    huge integer fails fast instead of filling the machine's memory."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args, *argv], capture_output=True,
                          env=env, cwd=cwd, timeout=seconds, preexec_fn=cap, **run)


def huge_integer_repro(tmp_path, case):
    """(argv, exit code, error, message prefix) of one input that made the
    CLI format an integer past CPython's 4,300-digit limit, or build one
    past its memory."""
    ipath = jfile(tmp_path, "inst.json", single_edge().to_doc())
    if case in ("region_alphabet", "region_alphabet_memory"):
        n = "20000" if case == "region_alphabet" else "100000000000"
        return (["region", jfile(tmp_path, "two_way.json", two_way().to_doc()), "--n", n, "--N", "1"],
                5, "EnumerationTooLarge", f"alphabet 2^{n} on edge 'a'-'b' exceeds limit ")
    if case == "transform_parallel_repeat":
        chain = jfile(tmp_path, "chain.json", {"steps": [{"op": "parallel_repeat", "m": 15000}]})
        return (["transform", ipath, jfile(tmp_path, "code.json", unit_routing_doc()), chain,
                 "--out", str(tmp_path / "out.json")],
                5, "TableTooLarge", "message size 2^15000 of source 0 exceeds the print limit")
    if case in ("check_inner_n_memory", "check_capacity_memory"):
        golden = Path(__file__).parent / "golden" / "check_two_route_table"
        inst, code = (json.loads((golden / name).read_text()) for name in ("instance.json", "code.json"))
        if case == "check_inner_n_memory":
            code["inner_n"] = 10 ** 11
        else:
            inst["edges"][0]["cap"] = 10 ** 11
        return (["check", jfile(tmp_path, "inst.json", inst), jfile(tmp_path, "code.json", code)],
                5, "BitBudgetExceeded", "size 2^100000000000 exceeds the 2^20-bit budget")
    if case in ("transform_parallel_repeat_sessions", "transform_amplify_sessions"):
        # message size 1 passes the bit budget however many sessions pack it
        step = ({"op": "parallel_repeat", "m": 10 ** 9} if case == "transform_parallel_repeat_sessions"
                else {"op": "amplify", "m": 10 ** 9, "family": "repetition", "base_error": "0"})
        count = "session count" if "parallel" in case else "permuted symbol count"
        return (["transform", ipath, jfile(tmp_path, "code.json", unit_routing_doc() | {"message_sizes": [1]}),
                 jfile(tmp_path, "chain.json", {"steps": [step]}), "--out", str(tmp_path / "out.json")],
                5, "EnumerationTooLarge", f"{count} 1000000000 exceeds the limit 65536")
    if case.startswith("check_rounds_"):
        golden = Path(__file__).parent / "golden" / "check_two_route_table"
        if case == "check_rounds_table":
            ipath, code = str(golden / "instance.json"), json.loads((golden / "code.json").read_text())
        else:
            code = unit_routing_doc()
        outer_n = 10 ** 12 if case.endswith("_e12") else 10 ** 8
        return (["check", ipath, jfile(tmp_path, "code.json", code | {"outer_n": outer_n})],
                5, "EnumerationTooLarge", f"round count {outer_n} exceeds the limit 65536")
    text = json.dumps(unit_routing_doc()).replace('"inner_n": 1', '"inner_n": 1' + "0" * 4999)
    code = tmp_path / "code.json"
    code.write_text(text, encoding="utf-8")
    if case == "code_integer":
        return ["check", ipath, str(code)], 2, "MalformedDocument", f"{code}: not valid JSON"
    big = tmp_path / "big.json"
    big.write_text(json.dumps(single_edge().to_doc()).replace('"1"', "1" + "0" * 4999),
                   encoding="utf-8")
    return ["validate", str(big)], 2, "MalformedDocument", f"{big}: not valid JSON"


@pytest.mark.parametrize("case", [
    "region_alphabet", "region_alphabet_memory", "transform_parallel_repeat", "code_integer",
    "instance_integer", "check_inner_n_memory", "check_capacity_memory",
    "transform_parallel_repeat_sessions", "transform_amplify_sessions", "check_rounds_routing",
    "check_rounds_routing_e12", "check_rounds_table"])
def test_huge_integers_exit_with_a_named_error(tmp_path, case):
    # each input once ended in exit 1 with a traceback: CPython's ValueError
    # for an int of more than 4,300 digits, or (the *_memory cases, an
    # alphabet of 2^(10^11)) MemoryError under cli_child's address-space cap;
    # the *_sessions and check_rounds_* cases built a tuple of 10^9 radices
    # or 10^8 permutations, or an Engine state or table domain of 2N rounds
    argv, code, error, message = huge_integer_repro(tmp_path, case)
    run = cli_child(argv, tmp_path)
    assert b"Traceback" not in run.stderr
    doc = json.loads(run.stdout)
    assert (run.returncode, doc["error"]) == (code, error)
    assert doc["message"].startswith(message)
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("rounds, seconds, message", [
    (10 ** 7, 1, "round count 10000000 exceeds the limit 65536"),
    (10 ** 5, 1, "round count 100000 exceeds the limit 65536"),
    (1100, 10, "region search used all of max_ops=1000"),
    (65536, 10, "region search used all of max_ops=1000")])
def test_region_refuses_or_searches_any_round_count(tmp_path, rounds, seconds, message):
    # with max_outer raised to N, region once laid out per-round structures
    # that max_ops never reached: at N = 10^7 a size ladder of N integers of
    # up to N bits ended in MemoryError under cli_child's cap, N = 10^5 ran
    # past 15 s, and at N = 1,100 the slot-by-slot search overflowed the
    # recursion limit.  Past MAX_ROUNDS it is refused; within, max_ops stops it
    argv = ["region", jfile(tmp_path, "inst.json", single_edge().to_doc()), "--n", "1",
            "--N", str(rounds), "--limits", f"max_outer={rounds},max_ops=1000"]
    start = time.perf_counter()
    run = cli_child(argv, tmp_path)
    assert time.perf_counter() - start < seconds
    assert b"Traceback" not in run.stderr
    assert (run.returncode, json.loads(run.stdout)) == (
        5, {"error": "EnumerationTooLarge", "message": message})


@pytest.mark.parametrize("cap", ["1/1000000000000", "999999999999/1000000000000"])
def test_a_capacity_with_a_huge_denominator_checks(tmp_path, cap):
    # floor(2^cap) is 1 here: it once ended in MemoryError under cli_child's
    # cap, building r^(10^12 - 1) in floor_root or 2^999999999999
    golden = Path(__file__).parent / "golden" / "check_two_route_table"
    inst, code = (json.loads((golden / name).read_text()) for name in ("instance.json", "code.json"))
    inst["edges"][0]["cap"] = cap  # edge a-b, which carries no split
    run = cli_child(["check", jfile(tmp_path, "inst.json", inst), jfile(tmp_path, "code.json", code),
                     "--mode", "exhaustive"], tmp_path)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (golden / "expected_stdout.json").read_bytes()


def test_a_message_space_past_the_bit_budget_is_refused_before_it_is_built(tmp_path):
    # a fifth interleave squares 2^32768 into 2^(2^31): the child once ran
    # for 42 s and ended in MemoryError; four steps reach TableTooLarge
    golden = Path(__file__).parent / "golden" / "interleave_two_route"
    chain = jfile(tmp_path, "chain.json", {"steps": [{"op": "interleave"}] * 5})
    run = cli_child(["transform", str(golden / "instance.json"), str(golden / "code.json"), chain,
                     "--out", str(tmp_path / "out.json")], tmp_path, seconds=2)
    assert b"Traceback" not in run.stderr
    doc = json.loads(run.stdout)
    assert (run.returncode, doc) == (5, {"error": "BitBudgetExceeded",
                                         "message": "size 2^2147483648 exceeds the 2^20-bit budget"})
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command", ["validate", "check"])
def test_a_deeply_nested_document_is_malformed(tmp_path, command):
    # json.loads raises RecursionError on 200,000 nested arrays
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000, encoding="utf-8")
    argv = [command, str(nested)] if command == "validate" else [
        command, jfile(tmp_path, "inst.json", single_edge().to_doc()), str(nested)]
    run = cli_child(argv, tmp_path)
    assert b"Traceback" not in run.stderr
    doc = json.loads(run.stdout)
    assert (run.returncode, doc["error"]) == (2, "MalformedDocument")
    assert doc["message"].startswith(f"{nested}: not valid JSON (maximum recursion depth exceeded")


# One child runs every drawn argv in turn and prints, per run, its exit code
# (or "over time" past PER_RUN_S, or "raised" with a traceback when an
# exception leaves main), its wall time and what it wrote to stderr.
DRAWN_RUNNER = """
import contextlib, io, json, signal, sys, time, traceback
from netcode.cli import main

class OverTime(BaseException):
    pass

def over_time(signum, frame):
    raise OverTime

signal.signal(signal.SIGALRM, over_time)
runs = []
for argv in json.load(sys.stdin):
    err, start = io.StringIO(), time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, float(sys.argv[1]))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except OverTime:
        code = "over time"
    except Exception:
        code = "raised"
        err.write(traceback.format_exc())
    signal.setitimer(signal.ITIMER_REAL, 0)
    runs.append([argv, code, time.perf_counter() - start, err.getvalue()])
json.dump(runs, sys.stdout)
"""
PER_RUN_S = 60


def log_uniform():
    """An integer in 1..10^12 whose bit length is uniform in 1..40."""
    return st.integers(0, 39).flatmap(lambda e: st.integers(1 << e, (2 << e) - 1)).map(
        lambda x: min(x, 10 ** 12))


@st.composite
def drawn_case(draw):
    """(instance, code, chain, n, N): one edge a-b of capacity p/q, a
    routing code over it with one message and one route, and one transform
    step; each size log-uniform up to 10^12."""
    cap = f"{draw(log_uniform())}/{draw(log_uniform())}"
    n, outer_n, size, m = (draw(log_uniform()) for _ in range(4))
    inst = inst_doc("ab", [("a", "b", cap)], ["a"], ["b"], [[1]])
    code = {"kind": "routing", "inner_n": n, "outer_n": outer_n, "message_sizes": [size],
            "routes": [{"source": 0, "terminal": 0, "nodes": ["a", "b"],
                        "rounds": [draw(st.sampled_from([1, outer_n]))]}]}
    step = draw(st.sampled_from([
        {"op": "parallel_repeat", "m": m}, {"op": "interleave"}, {"op": "reblock", "m": m},
        {"op": "amplify", "m": m, "family": "repetition", "base_error": "0"}]))
    return inst, code, {"steps": [step]}, n, outer_n


@settings(max_examples=2, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(drawn_case(), min_size=25, max_size=25))
def test_drawn_sizes_exit_with_a_named_code_in_time(cases):
    # capacities, blocklengths, message sizes and session counts up to 10^12
    # through validate, check, region and a one-step transform, all in one
    # child under cli_child's 2 GiB cap: each run exits 0, 2, 4 or 5, with
    # no traceback, within PER_RUN_S.  Before the round, session and
    # permuted-symbol bounds, the seeded floor_root and the walk's branch
    # rule, such draws ended in MemoryError, looped for minutes, or spent
    # seconds on a refusal
    with tempfile.TemporaryDirectory() as work:
        argvs = []
        for i, (inst, code, chain, n, outer_n) in enumerate(cases):
            files = [jfile(Path(work), f"{name}{i}.json", doc)
                     for name, doc in (("inst", inst), ("code", code), ("chain", chain))]
            argvs += [["validate", files[0]], ["check", *files[:2]],
                      ["region", files[0], "--n", str(n), "--N", str(outer_n)],
                      ["transform", *files, "--out", str(Path(work) / f"out{i}.json")]]
        run = cli_child([str(PER_RUN_S)], work, 300, ("-c", DRAWN_RUNNER), input=json.dumps(argvs),
                        text=True)
    assert run.returncode == 0, run.stderr
    bad = [(argv, code, err) for argv, code, _, err in json.loads(run.stdout)
           if code not in (0, 2, 4, 5) or "Traceback" in err]
    assert bad == []


# Huge integers for every field of the malformed-field sweep; the last has
# 5,000 digits, past CPython's 4,300-digit limit on reading one.
HUGE_VALUES = [10 ** 12, -10 ** 12, 2 ** 64 + 1, 10 ** 4999]
HUGE_RUN_S = 2


def test_every_malformed_field_survives_huge_integers(tmp_path):
    # the sweep's fields set to each of HUGE_VALUES, every run in one child
    # under cli_child's 2 GiB cap: each exits 0, 2, 4 or 5, with no
    # traceback, within HUGE_RUN_S.  Each run's documents are copied to a
    # directory of its own, as the sweep rewrites one set of files
    argvs, limit = [], sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # jfile writes the 5,000-digit value
    try:
        for i, (_, _, argv) in enumerate(_malformed_runs(tmp_path, HUGE_VALUES)):
            run_dir = tmp_path / f"run{i}"
            run_dir.mkdir()
            argvs.append([shutil.copy(arg, run_dir) if os.path.isfile(arg) else arg for arg in argv])
    finally:
        sys.set_int_max_str_digits(limit)
    run = cli_child([str(HUGE_RUN_S)], tmp_path, 120, ("-c", DRAWN_RUNNER), input=json.dumps(argvs),
                    text=True)
    assert run.returncode == 0, run.stderr
    runs = json.loads(run.stdout)
    assert len(runs) == len(argvs) > 400
    assert [(argv, code, err) for argv, code, _, err in runs
            if code not in (0, 2, 4, 5) or "Traceback" in err] == []


def test_sized_names_a_long_count_by_its_size():
    assert [sized(n) for n in (0, 7, 10 ** 29, (1 << 99) - 1)] == [
        "0", "7", str(10 ** 29), str((1 << 99) - 1)]
    assert [sized(1 << 99), sized((1 << 20000) + 1), sized(3 ** 5000)] == [
        "2^99", "over 2^20000", "over 2^7924"]


# -------------------------------------------------------------- determinism

def test_repeated_invocations_are_byte_identical(tmp_path):
    inst = single_edge()
    code = clamp_code(inst, "a", "b", 2, 1, 1)
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", nc.code_to_doc(code, inst))

    commands = [
        [sys.executable, "-m", "netcode.cli", "region", ipath,
         "--n", "1", "--N", "2"],
        [sys.executable, "-m", "netcode.cli", "check", ipath, cpath,
         "--epsilon", "1/2", "--mode", "sampled:200:7"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for cmd in commands:
        first = subprocess.run(cmd, capture_output=True, env=env)
        second = subprocess.run(cmd, capture_output=True, env=env)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.endswith(b"\n")
        json.loads(first.stdout)
