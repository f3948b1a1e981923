"""The package surface and what each entry point imports.

`netcode/__init__.py` resolves its public names lazily from the
submodules, so `import netcode` and each CLI command load only the
modules they run.  These tests pin the public names, their identity with
the submodule attributes, the module set each entry point loads, and the
contract of the package's records: read-only fields, compared and
printed field by field.
"""

import ast
import dataclasses
import importlib
import json
import os
import shutil
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest

import netcode

from conftest import bridged_pair, cycle4

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden"

PUBLIC_NAMES = [
    "AlphabetSplit", "BWD", "BridgeCase", "Edge", "ExecutionTrace", "FWD",
    "FeasibilityReport", "InputError", "NetcodeError", "NetworkCode",
    "NetworkInstance", "OuterCodeSpec", "PathCase", "RegionLimits",
    "RemovalReport", "ResourceLimit", "Route", "StateView", "WidestPath",
    "add_edge", "amplify", "apply_chain", "bridge_decompose",
    "check_feasibility", "classify_edge", "clopper_pearson", "code_to_doc",
    "codes", "connected_components", "cut_bound", "decode_outputs",
    "demands_met", "drop_edge", "edge_alphabets", "edge_removal_report",
    "errors", "execute", "feasibility_report_doc", "find_amplify_seed",
    "generate_permutations", "graphs", "host_path_code", "incoming_slots",
    "interleave", "load_code", "make_outer_spec", "make_routing_code",
    "message_size_for_rate", "nearest_codeword_decode", "outer_encode",
    "parallel_repeat", "path_case_bound", "pipeline_path",
    "rate_region_micro", "rational", "reblock", "region", "removal",
    "removal_constant", "removal_report_doc", "replace_edge_with_path",
    "routing", "scale_code", "scale_instance", "serialize", "transforms",
    "validate_instance", "widest_path",
]

SUBMODULES = [
    "codes", "errors", "graphs", "rational", "region", "removal",
    "routing", "serialize", "transforms",
]


# ------------------------------------------------------------ package surface

def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 68
    assert netcode.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(netcode))


def test_every_public_name_is_its_submodules_object():
    for name in PUBLIC_NAMES:
        value = getattr(netcode, name)
        if name in SUBMODULES:
            assert value is importlib.import_module(f"netcode.{name}")
            continue
        homes = [
            sub for sub in SUBMODULES
            if getattr(importlib.import_module(f"netcode.{sub}"), name, None) is value
        ]
        assert homes, name


def test_slot_orientation_lives_in_graphs():
    from netcode import codes, graphs

    for name in ("FWD", "BWD", "slot_tail"):
        assert getattr(codes, name) is getattr(graphs, name)
    assert graphs.slot_tail.__module__ == graphs.incoming_slots.__module__ == "netcode.graphs"
    assert not hasattr(codes, "incoming_slots")


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from netcode import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(netcode, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        netcode.no_such_name
    assert not hasattr(netcode, "no_such_name")


def test_package_reads_through_to_rebound_submodule_attributes(monkeypatch):
    # An outside tracer rebinds submodule attributes; the package must not
    # keep a copy that would outlive the rebinding.
    sentinel = object()
    original = netcode.edge_removal_report
    monkeypatch.setattr(netcode.removal, "edge_removal_report", sentinel)
    assert netcode.edge_removal_report is sentinel
    monkeypatch.undo()
    assert netcode.edge_removal_report is original


# ------------------------------------------------------------- import sets

LOADED = (
    "import json, sys; print(json.dumps(sorted(m for m in sys.modules"
    " if m == 'netcode' or m.startswith('netcode.'))), file=sys.stderr)"
)
# the standard-library modules that cost a cold CLI process the most:
# dataclasses loads inspect, ast, dis and tokenize, about 10 ms
HEAVY = (
    "import json, sys; print(json.dumps(sorted({'dataclasses', 'inspect'} & set(sys.modules))),"
    " file=sys.stderr)"
)


def run_cli(probe: str) -> str:
    """`python -c` source running the CLI on argv, then the probe."""
    return ("import sys; from netcode.cli import main; rc = main(sys.argv[1:]); "
            + probe + "; sys.exit(rc)")


CLI_BASE = {"netcode", "netcode.cli", "netcode.errors", "netcode.graphs", "netcode.rational"}
CHECK = CLI_BASE | {"netcode.codes", "netcode.routing", "netcode.serialize"}
TRANSFORM = CHECK | {"netcode.transforms"}

# golden case -> the netcode modules its command may load
COMMANDS = {
    "validate_cycle4": CLI_BASE,
    "region_two_way": CLI_BASE | {"netcode.region"},
    "check_two_route_table": CHECK,
    "interleave_two_route": TRANSFORM,
    "analyze_path_n2": TRANSFORM | {"netcode.removal"},
}


def _loaded_modules(code, args=(), cwd=None):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


def test_bare_import_loads_only_the_package():
    assert _loaded_modules("import netcode; " + LOADED) == {"netcode"}


def _golden_argv(case: str, tmp_path) -> list[str]:
    """Copy a golden case's inputs to tmp_path and return its argv."""
    src = GOLDEN / case
    for path in src.iterdir():
        if not path.name.startswith("expected_"):
            shutil.copy(path, tmp_path / path.name)
    return json.loads((src / "argv.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_cli_command_loads_only_what_it_runs(case, tmp_path):
    argv = _golden_argv(case, tmp_path)
    assert _loaded_modules(run_cli(LOADED), argv, cwd=tmp_path) == COMMANDS[case]


# golden case -> which of dataclasses and inspect its command loads
HEAVY_LOADS = {
    "validate_cycle4": set(),
    "region_two_way": set(),
    "check_two_route_table": set(),
    "interleave_two_route": set(),
    "analyze_path_n2": set(),
}


@pytest.mark.parametrize("case", sorted(HEAVY_LOADS))
def test_validate_and_region_load_no_dataclasses(case, tmp_path):
    argv = _golden_argv(case, tmp_path)
    assert _loaded_modules(run_cli(HEAVY), argv, cwd=tmp_path) == HEAVY_LOADS[case]


def test_network_code_is_the_only_dataclass():
    # no module imports dataclasses or decorates a class with it; NetworkCode
    # is a dataclass to dataclasses.replace alone (test_dataclasses_replace_*)
    importers, decorated = [], []
    for path in sorted((SRC / "netcode").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                modules = [node.module] if isinstance(node, ast.ImportFrom) else []
            if "dataclasses" in modules:
                importers.append(path.name)
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                decorated.append((path.name, node.name))
    assert importers == []
    assert decorated == []


# ------------------------------------------------------------------ records

# Every record type of the package: NamedTuples, except NetworkCode,
# NetworkInstance and RegionLimits, which derive or validate state.
RECORDS = [
    "BridgeCase", "BridgeDecomposition", "BridgeVerification", "ExecutionTrace",
    "FeasibilityReport", "InterleaveTag", "NetworkCode", "NetworkInstance", "OuterCodeSpec",
    "PathCase", "PathVerification", "RateClaim", "RegionLimits", "RemovalReport", "Route",
    "SideDecomposition",
]


@pytest.fixture(scope="module")
def records():
    """Record name -> one value of it, built the way the package builds it."""
    Route = netcode.Route
    aug = netcode.add_edge(cycle4(), "a", "c", Fraction(1))
    code = netcode.make_routing_code(
        aug, [Route(0, 0, ("a", "c"), (1,)), Route(1, 1, ("c", "a"), (2,))], 1, 2, [2, 2])
    path = netcode.edge_removal_report(
        cycle4(), "a", "c", Fraction(1), code=code, rates=[Fraction(1, 2)] * 2)
    pair = netcode.add_edge(bridged_pair(), "b", "c", Fraction(1))
    pair_code = netcode.make_routing_code(
        pair, [Route(0, 0, ("a", "b"), (1,)), Route(1, 1, ("c", "d"), (1,))], 1, 1, [4, 4])
    bridge = netcode.edge_removal_report(bridged_pair(), "b", "c", Fraction(1), code=pair_code)
    decomposition = bridge.verification.decomposition
    values = [
        aug, code, netcode.RegionLimits(max_message_size=4), Route(0, 0, ("a", "c"), (1,)),
        netcode.execute(code, aug, (1, 0)), path, path.path, path.verification,
        path.verification.base_report, path.verification.rate_claims[0], bridge, bridge.bridge,
        bridge.verification, decomposition, decomposition.u_side,
        netcode.make_outer_spec("repetition", 3, 2), netcode.interleave(code, aug).structure,
    ]
    return {type(value).__name__: value for value in values}


def _changed(value):
    """A value unequal to `value` that its record still accepts."""
    if isinstance(value, tuple) and value:
        return value[::-1] if value[::-1] != value else value[:-1]
    if value is None or isinstance(value, int) and not isinstance(value, bool):
        return (value or 0) + 1
    return object()


def test_records_cover_every_record_type(records):
    assert sorted(records) == RECORDS
    # NetworkCode's one is a shim that the harness's dataclasses.replace reads
    assert [name for name, rec in records.items() if hasattr(rec, "__dataclass_fields__")] == [
        "NetworkCode"]


def test_record_fields_are_read_only(records):
    for name, record in records.items():
        for field in record._fields:
            value = getattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, field, value)
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert getattr(record, field) is value, (name, field)


def test_records_compare_and_print_field_by_field(records):
    for name, record in records.items():
        values = {field: getattr(record, field) for field in record._fields}
        twin = type(record)(**values)
        assert twin is not record and twin == record and not twin != record, name
        if name in ("NetworkInstance", "RegionLimits"):
            assert hash(twin) == hash(record)
        assert repr(record) == f"{name}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
        for field, value in values.items():
            assert type(record)(**{**values, field: _changed(value)}) != record, (name, field)


def test_records_replace_field_by_field(records):
    for name, record in records.items():
        for field in record._fields:
            value = _changed(getattr(record, field))
            copy = record._replace(**{field: value})
            assert type(copy) is type(record) and getattr(copy, field) is value, (name, field)
            assert all(getattr(copy, other) is getattr(record, other)
                       for other in record._fields if other != field), (name, field)
        with pytest.raises((TypeError, ValueError)):
            record._replace(no_such_field=1)


def test_dataclasses_replace_varies_a_code_as_the_harness_does(records):
    # perfbench's Tracer.counted varies a code with dataclasses.replace
    code = records["NetworkCode"]
    encoders, decoders = dict(code.encoders), dict(code.decoders)
    varied = dataclasses.replace(code, encoders=encoders, decoders=decoders)
    assert type(varied) is netcode.NetworkCode
    assert varied.encoders is encoders and varied.decoders is decoders
    assert all(getattr(varied, field) is getattr(code, field)
               for field in code._fields if field not in ("encoders", "decoders"))
    with pytest.raises(netcode.errors.MalformedDocument, match="message sizes"):
        dataclasses.replace(code, message_sizes=(0,))


# Top-level functions that may still compute in floats, until the
# Clopper-Pearson interval is computed exactly (ROADMAP item 3).
FLOAT_ALLOWED = {("codes", "_binom_tail_ge"), ("codes", "clopper_pearson")}
# math functions that take and return integers only
INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_sites(tree) -> list[tuple[int, str]]:
    """(line, source) of every float literal, use of the name `float`, and
    math name outside INTEGER_MATH in the tree."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            sites.append(node)
        elif isinstance(node, ast.Name) and node.id == "float":
            sites.append(node)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            sites.append(node)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            if any(alias.name not in INTEGER_MATH for alias in node.names):
                sites.append(node)
    return [(node.lineno, ast.unparse(node)) for node in sites]


def test_no_float_code_outside_the_allowlist():
    found, allowed_seen = [], set()
    for path in sorted((SRC / "netcode").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and (path.stem, node.name) in FLOAT_ALLOWED:
                assert float_sites(node), f"{path.stem}.{node.name} no longer uses floats"
                allowed_seen.add((path.stem, node.name))
                continue
            found += [(path.name, *site) for site in float_sites(node)]
    assert allowed_seen == FLOAT_ALLOWED
    assert found == []


@pytest.mark.parametrize("source, flagged", [
    ("x = 0.5", True), ("y = float(3)", True), ("z = math.log2(8)", True),
    ("from math import sqrt", True), ("w = 1j", True),
    ("n = math.prod(s) // 3", False), ("from math import comb", False),
])
def test_float_guard_flags(source, flagged):
    assert bool(float_sites(ast.parse(source))) == flagged


def _bare_name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def orientation_sites(tree) -> list[tuple[int, str]]:
    """(line, source) of every `FWD if <flag> else BWD` in the tree: a
    direction derived by hand instead of by NetworkInstance.slot."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.IfExp)
        and _bare_name(node.body) == "FWD"
        and _bare_name(node.orelse) == "BWD"
    ]


def test_slot_direction_is_derived_in_graphs_only():
    found = []
    for path in sorted((SRC / "netcode").glob("*.py")):
        if path.name != "graphs.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(path.name, *site) for site in orientation_sites(tree)]
    assert found == []


@pytest.mark.parametrize("source, flagged", [
    ("d = FWD if is_a else BWD", True), ("d = nc.FWD if is_a else nc.BWD", True),
    ("d = BWD if d == FWD else FWD", False),
])
def test_orientation_guard_flags(source, flagged):
    assert bool(orientation_sites(ast.parse(source))) == flagged


def calls_to(tree, name: str) -> list[tuple[int, str]]:
    """(line, source) of every call of a `name` in the tree."""
    return [
        (node.lineno, ast.unparse(node))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _bare_name(node.func) == name
    ]


def calls_outside_codes(name: str) -> list[tuple[str, int, str]]:
    """(file, line, source) of every call of a `name` in src/netcode
    outside codes.py."""
    found = []
    for path in sorted((SRC / "netcode").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "codes.py" and name in text:  # parse only a candidate
            found += [(path.name, *site) for site in calls_to(ast.parse(text), name)]
    return found


def test_only_the_check_walks_a_code():
    # every other module reaches the walk through a check, so no report
    # walks the same code twice
    assert calls_outside_codes("_sliced_pass") == []


def test_only_codes_turns_rates_into_boxes():
    # a check's box at given rates is decided in codes alone, so the base
    # check, the bridge sides and the path-case image all cover one space
    assert calls_outside_codes("message_size_for_rate") == []


@pytest.mark.parametrize("source, flagged", [
    ("engine._sliced_pass(spaces, total)", True), ("Engine._sliced_pass(e, s, t)", True),
    ("walk = engine._sliced_pass", False), ("engine._matches(part, edges, s, f)", False),
])
def test_walk_guard_flags(source, flagged):
    assert bool(calls_to(ast.parse(source), "_sliced_pass")) == flagged


@pytest.mark.parametrize("source, flagged", [
    ("nc.message_size_for_rate(r, n, N)", True), ("message_size_for_rate(r, 1, 2)", True),
    ("size = codes.message_size_for_rate", False), ("sizes = code.message_sizes", False),
])
def test_rate_guard_flags(source, flagged):
    assert bool(calls_to(ast.parse(source), "message_size_for_rate")) == flagged


WALKERS = {"_walk", "_sliced_pass"}
STATE_LISTS = {"state", "unset", "_blank"}


def walk_state_copies(tree) -> list[tuple[int, str]]:
    """(line, source) of every copy of a whole state list (`state[:]`,
    `unset[:]`, `list(state)`, `state.copy()`) inside `_walk` or
    `_sliced_pass`: a walk branch or sink that copies the state pays for
    every round, not for the positions it sets."""
    found = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in WALKERS):
            continue
        for node in ast.walk(fn):
            copied = None
            if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
                whole = node.slice.lower is node.slice.upper is node.slice.step is None
                copied = node.value if whole else None
            elif isinstance(node, ast.Call) and _bare_name(node.func) == "list" and len(node.args) == 1:
                copied = node.args[0]
            elif isinstance(node, ast.Call) and _bare_name(node.func) == "copy" and not node.args:
                copied = node.func.value if isinstance(node.func, ast.Attribute) else None
            if copied is not None and _bare_name(copied) in STATE_LISTS:
                found.append((node.lineno, ast.unparse(node)))
    return found


def test_the_walk_copies_no_whole_state():
    # every frame of a sliced pass backtracks over one state list
    tree = ast.parse((SRC / "netcode" / "codes.py").read_text(encoding="utf-8"))
    assert {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)} >= WALKERS
    assert walk_state_copies(tree) == []


@pytest.mark.parametrize("source, flagged", [
    ("def _walk(self, state):\n    return self._walk(state[:])", True),
    ("def _sliced_pass(self, total):\n    budget = self._walk(unset[:])", True),
    ("def _sliced_pass(self, total):\n    state = self._blank[:]", True),
    ("def _walk(self, state):\n    return list(state)", True),
    ("def _walk(self, state):\n    return state.copy()", True),
    ("class Engine:\n    def _walk(self, state):\n        def inner():\n            return state[:]", True),
    ("def _walk(self, state, pulls):\n    return self._walk(state, pulls[:])", False),
    ("def _walk(self, state):\n    return state[1:] + state[pos:pos + 1]", False),
    ("def _walk(self, state):\n    return list(state, 2) or state.copy(1)", False),
    ("def run(self, messages):\n    state = self._blank[:]", False),
    ("def _table(self, key):\n    state = self._blank[:]", False),
])
def test_walk_copy_guard_flags(source, flagged):
    assert bool(walk_state_copies(ast.parse(source))) == flagged


PER_CALL = {"_call", "_run", "_walk"}


def per_call_views(tree) -> list[tuple[int, str]]:
    """(line, source) of every `_Recording(...)` built inside `_call`,
    `_run` or `_walk`: a view built per map call costs an allocation and seven
    fields per call, where one view per memo, re-pointed at each call's
    state, costs one per memo."""
    return [site for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) and fn.name in PER_CALL
            for site in calls_to(fn, "_Recording")]


def test_a_map_call_builds_no_view():
    # each memo carries the one recording view its map runs read
    tree = ast.parse((SRC / "netcode" / "codes.py").read_text(encoding="utf-8"))
    assert {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)} >= PER_CALL
    assert calls_to(tree, "_Recording") != []
    assert per_call_views(tree) == []


@pytest.mark.parametrize("source, flagged", [
    ("def _call(self, memo, state):\n    reads = []\n"
     "    out = check(fn(_Recording(node, time, state, reads, self._own[node],\n"
     "                              self._inbound[node], self._digits)))", True),
    ("def _walk(self, sink, state):\n    view = codes._Recording(node, 0, state, [], {}, {}, {})", True),
    ("class Engine:\n    def _call(self, memo, state):\n        def run():\n"
     "            return _Recording(*memo)", True),
    ("def _memo(self, fn, node, time):\n    return fn, _Recording(node, time, None, None, {}, {}, {})",
     False),
    ("def _call(self, memo, state):\n    view = memo[5]\n    view.state = state", False),
    ("def _walk(self, sink):\n    return _Recordings(sink)", False),
])
def test_per_call_view_guard_flags(source, flagged):
    assert bool(per_call_views(ast.parse(source))) == flagged


def test_removal_builds_no_engine():
    # a bridge report runs on its check's engine alone: each side's trace
    # match is walked, and if need be compared, there, so removal builds
    # no engine of its own (a type hint names one without building it)
    tree = ast.parse((SRC / "netcode" / "removal.py").read_text(encoding="utf-8"))
    assert calls_to(tree, "_matches") != []
    assert calls_to(tree, "Engine") == []


@pytest.mark.parametrize("source, flagged", [
    ("match = engine._matches(Engine(side_code, side_inst), edges, s, fixing, agreed)", True),
    ("part = codes.Engine(code, inst, box)", True),
    ("def side(engine: Engine, code: NetworkCode) -> Engine:\n    return engine", False),
    ("engine: Engine = report_engine", False),
    ("match = engine._matches(side_code, edges, s, fixing, agreed)", False),
    ("engines = Engines(code, inst)", False),
])
def test_engine_guard_flags(source, flagged):
    assert bool(calls_to(ast.parse(source), "Engine")) == flagged


def _bound(fn) -> set[str]:
    """The names a function or lambda binds: its parameters, and every name
    it, or a function inside it, assigns or defines."""
    args = fn.args
    names = {arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs}
    names.update(arg.arg for arg in (args.vararg, args.kwarg) if arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node is not fn:
            names.add(node.name)
    return names


def view_contract_breaks(tree, exempt: str | None = None) -> list[tuple[int, str]]:
    """(line, source) of every break of the view contract:
    - a call of `StateView(...)` or `_Replaced(...)`, or a `_Remapped(...)`
      built outside the functions named `exempt`;
    - a call `x.replace(t, rule, ...)` whose `rule` is a lambda or a name
      that an enclosing function binds, as a view's replace would be called;
    - a `StateView` that defines `__init__`, `message`, `recv` or
      `replace`, and a subclass of it (in the same tree, at any depth) that
      declares no `__slots__` or defines `replace`."""
    found, views = [], {"StateView"}
    classes = sorted((node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)),
                     key=lambda node: node.lineno)
    for node in classes:
        if any(_bare_name(base) in views for base in node.bases):
            views.add(node.name)
    for node in classes:
        defined = {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        slotted = any(isinstance(item, ast.Assign) and "__slots__" in
                      {_bare_name(target) for target in item.targets} for item in node.body)
        if node.name == "StateView":
            banned = defined & {"__init__", "message", "recv", "replace"}
        elif node.name in views:
            banned = defined & {"replace"} | (set() if slotted else {"__slots__"})
        else:
            continue
        found += [(node.lineno, f"{node.name}.{name}") for name in sorted(banned)]

    def visit(node, scopes):
        if isinstance(node, ast.Call):
            names = [scope.name for scope in scopes if not isinstance(scope, ast.Lambda)]
            rule = node.args[1] if len(node.args) > 1 else None
            local = isinstance(rule, ast.Lambda) or isinstance(rule, ast.Name) and any(
                rule.id in _bound(scope) for scope in scopes if not isinstance(scope, ast.ClassDef))
            built = _bare_name(node.func)
            if (built in ("StateView", "_Replaced") or built == "_Remapped" and exempt not in names
                    or isinstance(node.func, ast.Attribute) and built == "replace" and local):
                found.append((node.lineno, ast.unparse(node)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            scopes = scopes + [node]
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(tree, [])
    return found


def test_only_remapped_replaces_a_view():
    # StateView is the bare contract: every view is a slotted subclass, no
    # view has a replace method, and only transforms.remapped builds a
    # remapped view, on a recv rule built with the transform
    found, sources = [], {}
    for path in sorted((SRC / "netcode").glob("*.py")):
        sources[path.name] = path.read_text(encoding="utf-8")
        exempt = "remapped" if path.name == "transforms.py" else None
        found += [(path.name, *site) for site in view_contract_breaks(ast.parse(sources[path.name]), exempt)]
    assert found == []
    assert "class StateView:" in sources["codes.py"] and "def remapped(" in sources["transforms.py"]
    assert netcode.StateView.__slots__ == ("node", "time")
    assert {name for name in vars(netcode.StateView) if not name.startswith("__")} == {
        "node", "time", "digit", "_visible"}


REMAPPED = "def remapped(fn, time, recv_fn):\n    return lambda state: fn(state.replace(time, recv_fn))"
REMAPPED_VIEW = "def remapped(fn, time, rule):\n    return lambda state: fn(_Remapped(state, time, rule))"
VIEW = "class StateView:\n    __slots__ = ('node', 'time')\n"


@pytest.mark.parametrize("source, exempt, flagged", [
    ("def tilde_view(horizon, state):\n    def recv(sender, t):\n        return 0\n"
     "    return state.replace(horizon, recv)", None, True),
    ("view = state.replace(1, lambda host, sender, t: 0)", None, True),
    ("def relay(fn):\n    return lambda state: fn(state.replace(1, lambda host, s, t: 0))", "remapped", True),
    # no view has a replace method, so remapped calls none
    (REMAPPED, "remapped", True),
    (REMAPPED, None, True),
    ("s = name.replace('a', 'b')", None, False),
    ("def tidy(name, new):\n    return name.replace('a', 'b').replace(' ', '')", None, False),
    ("inst = inst._replace(edges=edges)", None, False),
    ("code = dataclasses.replace(code, encoders=encoders)", None, False),
    ("def view(state):\n    return codes._Replaced(state, 1, rule)", None, True),
    ("class StateView:\n    def replace(self, time, recv_fn):\n"
     "        return _Replaced(self, time, recv_fn)", None, True),
    ("class Other:\n    def replace(self, time, recv_fn):\n"
     "        return _Replaced(self, time, recv_fn)", None, True),
    (REMAPPED_VIEW, "remapped", False),
    (REMAPPED_VIEW, None, True),
    (REMAPPED_VIEW.replace("def remapped", "def relay"), "remapped", True),
    ("view = transforms._Remapped(state, 1, lambda host, sender, t: 0)", "remapped", True),
    ("def tilde_view(horizon, state):\n    return StateView(state.node, horizon, f, g)", None, True),
    ("view = codes.StateView('a', 0, f, g)", None, True),
    (VIEW + "    def digit(self, i, j, radices):\n        return 0", None, False),
    (VIEW + "    def __init__(self, node, time):\n        self.node = node", None, True),
    (VIEW + "    def message(self, i):\n        return 0", None, True),
    (VIEW + "    def recv(self, sender, t):\n        return 0", None, True),
    ("class _Host(StateView):\n    __slots__ = ('host',)", None, False),
    ("class _Host(codes.StateView):\n    def message(self, i):\n        return 0", None, True),
    ("class _Host(StateView):\n    __slots__ = ()\n"
     "    def replace(self, time, rule):\n        return self", None, True),
    ("class _Host(StateView):\n    __slots__ = ()\nclass _Inner(_Host):\n    pass", None, True),
    ("class _Other:\n    def replace(self, name):\n        return name", None, False),
])
def test_view_replace_guard_flags(source, exempt, flagged):
    assert bool(view_contract_breaks(ast.parse(source), exempt)) == flagged


def test_every_module_stays_below_the_parser_token_step():
    """Every module of the package compiles from fewer than 8,192 tokens
    (as `tokenize` counts them, COMMENT and NL excluded).

    CPython's parser holds a module's tokens in an array that doubles when
    it fills, so a module of 8,192 tokens or more raises the peak memory of
    compiling it by about 0.5 MiB.  perfbench's processes compile the
    package on every start, so `peak_rss_mib` reports that step on every
    workload.  Measured with CPython 3.11.7 on Linux x86-64: compiling a
    copy of `codes.py` at 8,140 tokens, and the same copy padded to 8,224,
    raised `ru_maxrss` by 3,072 and 3,584 KiB, and the padded tree read
    0.47-0.66 MiB more `peak_rss_mib` on `amplify-m16` and 0.42-0.55 MiB
    more on `cli-cold` (two 5-second runs each).  `codes.py` has 6,832
    tokens since `StateView` became the bare view contract, without its
    closure form and `replace` (7,094 before, since `Route` and
    `make_routing_code` moved to `routing.py` and `NetworkCode` became a
    slotted record; 8,170 before that; 8,152 before
    the trace match's `agreed` slots and `sized` counts, 8,135 before
    `StateView.replace` took a recv rule, 8,148 before its records became
    NamedTuples); it had 7,762 before the Engine's recording view and
    covered-slot rule.
    """
    counts = {}
    for path in sorted((SRC / "netcode").glob("*.py")):
        with path.open("rb") as source:
            counts[path.name] = sum(1 for tok in tokenize.tokenize(source.readline)
                                    if tok.type not in (tokenize.COMMENT, tokenize.NL))
    assert {name: count for name, count in counts.items() if count >= 8192} == {}
    assert "codes.py" in counts
