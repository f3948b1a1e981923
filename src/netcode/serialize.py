"""JSON serialization for instances, codes, transform chains, and reports.

Code files come in three kinds:

- "table": encoders and decoders tabulated over canonical input domains
  (exact, self-contained, but bounded by a table-size limit),
- "routing": a list of store-and-forward routes, rebuilt on load,
- "derived": a base code plus a transform-chain descriptor, replayed on
  load; used when tabulated tables would be too large.

All rationals are canonical lowest-terms strings; no floats appear
anywhere in documents or reports.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence

from .codes import (
    BWD,
    FWD,
    AlphabetSplit,
    FeasibilityReport,
    NetworkCode,
    Route,
    StateView,
    incoming_slots,
    make_routing_code,
    slot_tail,
)
from .errors import MalformedDocument, TableTooLarge
from .graphs import NetworkInstance, replace_edge_with_path, validate_instance
from .rational import combine_digits, format_rational, parse_rational, split_digits
from .removal import (
    BridgeVerification,
    PathVerification,
    RemovalReport,
)
from .transforms import (
    amplify,
    interleave,
    parallel_repeat,
    pipeline_path,
    reblock,
    scale_code,
)

DEFAULT_TABLE_LIMIT = 1 << 16


# -------------------------------------------------------------- table domains

def _domain(inst: NetworkInstance, code: NetworkCode, node: str, horizon: int):
    """Canonical input domain of an encoder or decoder at `node` that sees
    rounds 1..horizon: the node's own messages (ascending source index),
    then every incident slot at rounds 1..horizon in incoming_slots order.
    Returns (own source ids, slot dims, radices)."""
    own = list(inst.sources_at(node))
    dims = []
    for tp in range(1, horizon + 1):
        for e, d, sender in incoming_slots(inst, node):
            dims.append((e, tp, d, sender, code.splits.size(e, tp, d)))
    radices = [code.message_sizes[i] for i in own] + [w for *_, w in dims]
    return own, dims, radices


def _tabulate(fn, inst, code, node, horizon, limit):
    own, dims, radices = _domain(inst, code, node, horizon)
    total = 1
    for r in radices:
        total *= r
    if total > limit:
        raise TableTooLarge(f"table of {total} entries exceeds limit {limit}")
    by_sender = {(sender, tp): (e, d) for (e, tp, d, sender, _) in dims}
    table = []
    for combo in itertools.product(*(range(r) for r in radices)):
        msgs = dict(zip(own, combo[: len(own)]))
        slot_vals = {
            (e, tp, d): val
            for (e, tp, d, _, _), val in zip(dims, combo[len(own):])
        }

        def message(i, msgs=msgs):
            if i not in msgs:
                raise KeyError(f"node {node!r} holds no message {i}")
            return msgs[i]

        def recv(sender, tq, slot_vals=slot_vals):
            found = by_sender.get((sender, tq))
            if found is None:
                raise LookupError(f"no slot from {sender!r} at t={tq}")
            e, d = found
            return slot_vals[(e, tq, d)]

        table.append(fn(StateView(node, horizon, message, recv)))
    return table


def _table_entry(inst: NetworkInstance, code: NetworkCode, node: str, horizon: int, table):
    """Function of a view that reads its domain and returns the table entry."""
    own, dims, radices = _domain(inst, code, node, horizon)

    def lookup(state):
        digits = [state.message(i) for i in own]
        digits += [state.recv(sender, tp) for (_, tp, _, sender, _) in dims]
        return table[combine_digits(digits, radices)]

    return lookup


def code_to_doc(
    code: NetworkCode, inst: NetworkInstance, limit: int = DEFAULT_TABLE_LIMIT
) -> dict:
    """Tabulate a code into a self-contained JSON document."""
    splits = [
        {"edge": [inst.edges[e].a, inst.edges[e].b], "t": t, "fwd": f, "bwd": b}
        for (e, t), (f, b) in code.splits.items()
    ]
    encoders = []
    for (e, t, d) in sorted(code.encoders):
        table = _tabulate(
            code.encoders[(e, t, d)], inst, code, slot_tail(inst, e, d), t - 1, limit
        )
        encoders.append(
            {
                "edge": [inst.edges[e].a, inst.edges[e].b],
                "t": t,
                "dir": d,
                "table": table,
            }
        )
    decoders = []
    for j in sorted(code.decoders):
        out_radices = [code.message_sizes[i] for i in inst.demanded_at(j)]

        def packed(state, dec=code.decoders[j], out_radices=out_radices):
            return combine_digits(list(dec(state)), out_radices)

        table = _tabulate(packed, inst, code, inst.terminals[j], code.outer_n, limit)
        decoders.append({"terminal": j, "table": table})
    return {
        "kind": "table",
        "inner_n": code.inner_n,
        "outer_n": code.outer_n,
        "message_sizes": list(code.message_sizes),
        "splits": splits,
        "encoders": encoders,
        "decoders": decoders,
    }


def _edge_index(inst: NetworkInstance, pair) -> tuple[int, bool]:
    if not isinstance(pair, list) or len(pair) != 2:
        raise MalformedDocument(f"bad edge reference {pair!r}")
    found = inst.edge_between(pair[0], pair[1])
    if found is None:
        raise MalformedDocument(f"no edge {pair[0]!r}-{pair[1]!r}")
    return found


def _table_code_from_doc(doc: dict, inst: NetworkInstance) -> NetworkCode:
    inner_n = doc["inner_n"]
    outer_n = doc["outer_n"]
    sizes = tuple(int(s) for s in doc["message_sizes"])
    if len(sizes) != len(inst.sources):
        raise MalformedDocument("message_sizes length must match sources")

    split_table = {}
    for item in doc.get("splits", []):
        idx, is_a = _edge_index(inst, item["edge"])
        f, b = int(item["fwd"]), int(item["bwd"])
        if not is_a:
            f, b = b, f
        split_table[(idx, int(item["t"]))] = (f, b)
    splits = AlphabetSplit(split_table)

    stub = NetworkCode(
        inner_n=inner_n, outer_n=outer_n, message_sizes=sizes,
        splits=splits, encoders={}, decoders={},
    )

    encoders = {}
    for item in doc.get("encoders", []):
        idx, is_a = _edge_index(inst, item["edge"])
        t = int(item["t"])
        d = item["dir"]
        if d not in (FWD, BWD):
            raise MalformedDocument(f"bad direction {d!r}")
        if not is_a:
            d = BWD if d == FWD else FWD
        encoders[(idx, t, d)] = _table_entry(
            inst, stub, slot_tail(inst, idx, d), t - 1, list(item["table"])
        )

    decoders = {}
    for item in doc.get("decoders", []):
        j = int(item["terminal"])
        if not 0 <= j < len(inst.terminals):
            raise MalformedDocument(f"unknown terminal {j}")
        entry = _table_entry(inst, stub, inst.terminals[j], outer_n, list(item["table"]))
        out_radices = [sizes[i] for i in inst.demanded_at(j)]

        def decoder(state, entry=entry, out_radices=out_radices):
            return split_digits(entry(state), out_radices)

        decoders[j] = decoder

    return NetworkCode(
        inner_n=inner_n, outer_n=outer_n, message_sizes=sizes,
        splits=splits, encoders=encoders, decoders=decoders,
    )


def _routing_code_from_doc(doc: dict, inst: NetworkInstance) -> NetworkCode:
    routes = []
    for item in doc.get("routes", []):
        routes.append(
            Route(
                source=int(item["source"]),
                terminal=int(item["terminal"]),
                nodes=tuple(item["nodes"]),
                rounds=tuple(int(t) for t in item["rounds"]),
            )
        )
    return make_routing_code(
        inst,
        routes,
        int(doc["inner_n"]),
        int(doc["outer_n"]),
        [int(s) for s in doc["message_sizes"]],
    )


# ------------------------------------------------------------ transform chains

def apply_chain(
    code: NetworkCode, inst: NetworkInstance, steps: Sequence[dict]
) -> tuple[NetworkCode, NetworkInstance]:
    """Replay a transform-chain descriptor.  Returns the transformed code
    and the instance it now targets (pipeline steps move to a fresh-path
    instance; every other step keeps the instance)."""
    for step in steps:
        if not isinstance(step, dict) or "op" not in step:
            raise MalformedDocument(f"bad chain step: {step!r}")
        op = step["op"]
        if op == "parallel_repeat":
            code = parallel_repeat(code, inst, int(step["m"]))
        elif op == "interleave":
            code = interleave(code, inst)
        elif op == "amplify":
            code = amplify(
                code,
                inst,
                int(step["m"]),
                step["family"],
                parse_rational(step["base_error"]),
                rate_target=(
                    parse_rational(step["rate_target"])
                    if "rate_target" in step
                    else None
                ),
                seed=int(step.get("seed", 0)),
                strict=bool(step.get("strict", True)),
            )
        elif op == "pipeline_path":
            u, v = step["u"], step["v"]
            path = list(step["path"])
            star = replace_edge_with_path(inst, u, v, path, fresh=True)
            code = pipeline_path(code, inst, u, v, star, len(path))
            inst = star
        elif op == "scale_code":
            code = scale_code(code, parse_rational(step["alpha"]))
        elif op == "reblock":
            code = reblock(code, inst, int(step["m"]))
        else:
            raise MalformedDocument(f"unknown chain op {op!r}")
    return code, inst


def derived_doc(base_doc: dict, base_inst: NetworkInstance, steps: Sequence[dict]) -> dict:
    return {
        "kind": "derived",
        "base_instance": base_inst.to_doc(),
        "base": base_doc,
        "chain": {"steps": list(steps)},
    }


def load_code(doc: dict, inst: NetworkInstance) -> tuple[NetworkCode, NetworkInstance]:
    """Build a code from any document kind.

    Table and routing codes load against `inst` directly.  Derived codes
    replay their chain from the embedded base instance; the result must
    target an instance identical to `inst`.
    """
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MalformedDocument("code document needs a 'kind'")
    kind = doc["kind"]
    try:
        if kind == "table":
            return _table_code_from_doc(doc, inst), inst
        if kind == "routing":
            return _routing_code_from_doc(doc, inst), inst
        if kind == "derived":
            base_inst = validate_instance(doc["base_instance"])
            base, _ = load_code(doc["base"], base_inst)
            code, final_inst = apply_chain(base, base_inst, doc["chain"]["steps"])
            if final_inst.to_doc() != inst.to_doc():
                raise MalformedDocument("derived code targets a different instance")
            return code, final_inst
    except KeyError as exc:
        raise MalformedDocument(f"code document missing key {exc}") from exc
    raise MalformedDocument(f"unknown code kind {kind!r}")


# ------------------------------------------------------------------- reports

def _rat(x: Optional[Fraction]):
    return None if x is None else format_rational(x)


def feasibility_report_doc(rep: FeasibilityReport) -> dict:
    return {
        "epsilon": format_rational(rep.epsilon),
        "rates": None if rep.rates is None else [format_rational(r) for r in rep.rates],
        "inner_n": rep.inner_n,
        "outer_n": rep.outer_n,
        "message_sizes": list(rep.message_sizes),
        "mode": rep.mode,
        "trials": rep.trials,
        "failures": rep.failures,
        "measured_error": format_rational(rep.measured_error),
        "passed": rep.passed,
        "certified": rep.certified,
        "failing": [list(t) for t in rep.failing],
        "interval": None
        if rep.interval is None
        else [format_rational(rep.interval[0]), format_rational(rep.interval[1])],
    }


def removal_report_doc(rep: RemovalReport) -> dict:
    doc = {
        "edge": list(rep.edge),
        "lambda": format_rational(rep.lam),
        "case": rep.case,
        "total_capacity": format_rational(rep.total_capacity),
        "min_capacity": format_rational(rep.min_capacity),
        "c": format_rational(rep.removal_c),
        "f_lambda": format_rational(rep.f_lambda),
        "degenerate": rep.degenerate,
        "f_rate_form": _rat(rep.f_rate_form),
    }
    if rep.case == "path":
        doc["path"] = {
            "nodes": list(rep.path.nodes),
            "gamma": format_rational(rep.path.gamma),
            "delta": _rat(rep.delta),
            "alpha": _rat(rep.alpha),
        }
    else:
        doc["bridge"] = {
            "u_side": list(rep.bridge.u_side),
            "v_side": list(rep.bridge.v_side),
            "cross_demands": [list(d) for d in rep.cross_demands],
            "cross_rate_ok": rep.cross_rate_ok,
        }
    ver = rep.verification
    if isinstance(ver, PathVerification):
        doc["verification"] = {
            "kind": "path",
            "base": feasibility_report_doc(ver.base_report),
            "final": feasibility_report_doc(ver.final_report),
            "final_inner_n": ver.final_inner_n,
            "final_outer_n": ver.final_outer_n,
            "alpha": format_rational(ver.alpha),
            "ell": ver.ell,
            "rate_claims": [
                {
                    "source": cl.source,
                    "claimed_rate": format_rational(cl.claimed_rate),
                    "achieved": cl.achieved,
                }
                for cl in ver.rate_claims
            ],
            "passed": ver.passed,
        }
    elif isinstance(ver, BridgeVerification):
        sides = []
        for side in (ver.decomposition.u_side, ver.decomposition.v_side):
            sides.append(
                {
                    "vertices": list(side.vertices),
                    "sources": list(side.source_indices),
                    "fixing": {str(i): w for i, w in sorted(side.fixing.items())},
                    "conditional_error": _rat(side.conditional_error),
                    "trace_match": side.trace_match,
                }
            )
        doc["verification"] = {
            "kind": "bridge",
            "base": feasibility_report_doc(ver.base_report),
            "sides": sides,
            "cross_rate_ok": ver.cross_rate_ok,
            "passed": ver.passed,
        }
    else:
        doc["verification"] = None
    return doc
