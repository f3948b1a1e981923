"""End-to-end tests for the command-line interface.

Most tests drive `netcode.cli.main(argv)` in-process and inspect the JSON
document printed to stdout plus the returned exit code.  One test runs the
real interpreter twice via subprocess to pin down byte-identical output.

Exit-code contract: 0 pass, 2 invalid input, 3 I/O error, 4 verification
or feasibility failure, 5 resource limit exceeded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import netcode as nc
from netcode.cli import main

from conftest import (
    clamp_code,
    cycle4,
    inst_doc,
    line3,
    make,
    pair_at_one_node,
    single_edge,
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


def bridged_pair():
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


def test_analyze_path_case_with_code(tmp_path, capsys):
    inst = cycle4()
    code_doc = {
        "kind": "routing", "inner_n": 1, "outer_n": 2,
        "message_sizes": [2, 2],
        "routes": [
            {"source": 0, "terminal": 0, "nodes": ["a", "c"], "rounds": [1]},
            {"source": 1, "terminal": 1, "nodes": ["c", "a"], "rounds": [2]},
        ],
    }
    ipath = jfile(tmp_path, "inst.json", inst.to_doc())
    cpath = jfile(tmp_path, "code.json", code_doc)
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
