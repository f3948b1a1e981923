"""Simulation and transformation workbench for network coding on
undirected networks.

Instances are undirected graphs with exact rational capacities, source
and terminal vectors, and a 0/1 demand matrix.  Codes run in discrete
rounds where both directions of an edge share its capacity; transforms
rewrite codes (session packing, outer codes, interleaving, path
pipelining, blocklength changes) while preserving machine-checked
feasibility.
"""

from .codes import (
    BWD,
    FWD,
    AlphabetSplit,
    ExecutionTrace,
    FeasibilityReport,
    NetworkCode,
    Route,
    StateView,
    check_feasibility,
    clopper_pearson,
    decode_outputs,
    demands_met,
    edge_alphabets,
    execute,
    incoming_slots,
    make_routing_code,
    message_size_for_rate,
)
from .errors import (
    InputError,
    NetcodeError,
    ResourceLimit,
)
from .graphs import (
    Edge,
    NetworkInstance,
    WidestPath,
    add_edge,
    connected_components,
    cut_bound,
    drop_edge,
    removal_constant,
    replace_edge_with_path,
    scale_instance,
    validate_instance,
    widest_path,
)
from .region import RegionLimits, rate_region_micro
from .removal import (
    BridgeCase,
    PathCase,
    RemovalReport,
    bridge_decompose,
    classify_edge,
    edge_removal_report,
    host_path_code,
    path_case_bound,
)
from .serialize import (
    apply_chain,
    code_to_doc,
    feasibility_report_doc,
    load_code,
    removal_report_doc,
)
from .transforms import (
    OuterCodeSpec,
    amplify,
    find_amplify_seed,
    generate_permutations,
    interleave,
    make_outer_spec,
    nearest_codeword_decode,
    outer_encode,
    parallel_repeat,
    pipeline_path,
    reblock,
    scale_code,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
