"""Simulation and transformation workbench for network coding on
undirected networks.

Instances are undirected graphs with exact rational capacities, source
and terminal vectors, and a 0/1 demand matrix.  Codes run in discrete
rounds where both directions of an edge share its capacity; transforms
rewrite codes (session packing, outer codes, interleaving, path
pipelining, blocklength changes) while preserving machine-checked
feasibility.

`import netcode` loads no submodule: each public name below imports its
submodule the first time it is read (PEP 562).  The name is looked up in
the submodule on every read and never stored here, so a rebinding of a
submodule attribute (as an outside tracer does) shows through the package.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# submodule -> the public names it provides
_EXPORTS = {
    "codes": (
        "AlphabetSplit", "ExecutionTrace", "FeasibilityReport", "NetworkCode",
        "StateView", "check_feasibility", "clopper_pearson", "decode_outputs",
        "demands_met", "edge_alphabets", "execute", "message_size_for_rate",
    ),
    "errors": ("InputError", "NetcodeError", "ResourceLimit"),
    "graphs": (
        "BWD", "FWD", "Edge", "NetworkInstance", "WidestPath", "add_edge",
        "connected_components", "cut_bound", "drop_edge", "incoming_slots",
        "removal_constant", "replace_edge_with_path", "scale_instance",
        "validate_instance", "widest_path",
    ),
    "rational": (),
    "region": ("RegionLimits", "rate_region_micro"),
    "removal": (
        "BridgeCase", "PathCase", "RemovalReport", "bridge_decompose",
        "classify_edge", "edge_removal_report", "host_path_code", "path_case_bound",
    ),
    "routing": ("Route", "make_routing_code"),
    "serialize": (
        "apply_chain", "code_to_doc", "feasibility_report_doc", "load_code",
        "removal_report_doc",
    ),
    "transforms": (
        "OuterCodeSpec", "amplify", "find_amplify_seed", "generate_permutations",
        "interleave", "make_outer_spec", "nearest_codeword_decode", "outer_encode",
        "parallel_repeat", "pipeline_path", "reblock", "scale_code",
    ),
}

# public name -> its submodule; a submodule's own name maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_HOME.update((module, module) for module in _EXPORTS)

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    sub = _import_module(f"{__name__}.{module}")
    return sub if name == module else getattr(sub, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
