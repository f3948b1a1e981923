"""JSON serialization for instances, codes, transform chains, and reports.

Code files come in three kinds:

- "table": encoders and decoders tabulated over canonical input domains
  (exact, self-contained, but bounded by a table-size limit),
- "routing": a list of store-and-forward routes, rebuilt on load,
- "derived": a base code plus a transform-chain descriptor, replayed on
  load; used when tabulated tables would be too large.

Tables are filled on one codes.Engine over `_domain`'s canonical order: a
map runs once per distinct set of values it reads, and the code and every
entry are checked as in a run, so `code_to_doc` raises rather than write
a table that the loader rejects.

All rationals are canonical lowest-terms strings; no floats appear
anywhere in documents or reports.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .codes import AlphabetSplit, Engine, FeasibilityReport, NetworkCode
from .errors import MalformedDocument, TableTooLarge, sized
from .graphs import (
    BWD,
    FWD,
    NetworkInstance,
    incoming_slots,
    replace_edge_with_path,
    slot_tail,
    validate_instance,
)
from .rational import combine_digits, format_rational, parse_rational, split_digits
from .routing import Route, make_routing_code  # loaded with serialize, so a tracer sees its calls

if TYPE_CHECKING:
    from .removal import RemovalReport

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


def _tabulate(engine: Engine, key, node: str, horizon: int, limit: int) -> list:
    """The table of the engine's encoder (slot key) or decoder (terminal
    index) at `node` over its canonical domain."""
    own, dims, radices = _domain(engine.inst, engine.code, node, horizon)
    total = math.prod(radices)
    if total > limit:
        raise TableTooLarge(f"table of {sized(total)} entries exceeds limit {limit}")
    return engine._table(key, own, [(sender, tp) for _, tp, _, sender, _ in dims], radices)


# Typed readers for code-document fields: each returns the field or raises
# MalformedDocument.

def _integer(value, what: str, low: int, high: Optional[int] = None) -> int:
    """An int (not a bool) within low..high; no upper bound without high."""
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value < low
        or (high is not None and value > high)
    ):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise MalformedDocument(f"{what} must be an integer {span}, got {value!r}")
    return value


def _positive(value, what: str) -> int:
    return _integer(value, what, 1)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedDocument(f"{what} must be a list, got {value!r}")
    return value


def _objects(doc: dict, key: str) -> list:
    """doc[key], by default empty, as a list of objects."""
    items = _list(doc.get(key, []), key)
    for item in items:
        if not isinstance(item, dict):
            raise MalformedDocument(f"{key} entries must be objects, got {item!r}")
    return items


def _name(value, what: str) -> str:
    if not isinstance(value, str):
        raise MalformedDocument(f"{what} must be a name, got {value!r}")
    return value


def _names(value, what: str) -> tuple[str, ...]:
    """A non-empty list of vertex names."""
    if not _list(value, what) or not all(isinstance(x, str) for x in value):
        raise MalformedDocument(f"{what} must be a non-empty list of names, got {value!r}")
    return tuple(value)


def _table_entry(inst: NetworkInstance, code: NetworkCode, node: str, horizon: int, table, bound: int):
    """Function of a view that reads its domain and returns the table entry.
    The table must cover the domain with entries in range(bound)."""
    own, dims, radices = _domain(inst, code, node, horizon)
    total = math.prod(radices)
    if not isinstance(table, list) or len(table) != total:
        raise MalformedDocument(f"table at {node!r} needs {total} entries")
    for x in table:
        if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < bound:
            raise MalformedDocument(f"table entry {x!r} at {node!r} outside [0, {bound})")

    messages = list(zip(own, radices))
    received = [(sender, tp, w) for (_, tp, _, sender, w) in dims]

    def lookup(state):
        # table[combine_digits(reads, radices)]; a digit out of range raises after every read
        index, bad = 0, None
        for i, r in messages:
            d = state.message(i)
            if not 0 <= d < r and bad is None:
                bad = d, r
            index = index * r + d
        for sender, tp, r in received:
            d = state.recv(sender, tp)
            if not 0 <= d < r and bad is None:
                bad = d, r
            index = index * r + d
        if bad is not None:
            raise ValueError("digit {} out of range for radix {}".format(*bad))
        return table[index]

    return lookup


def code_to_doc(
    code: NetworkCode, inst: NetworkInstance, limit: int = DEFAULT_TABLE_LIMIT
) -> dict:
    """Tabulate a code into a self-contained JSON document."""
    splits = [
        {"edge": [inst.edges[e].a, inst.edges[e].b], "t": t, "fwd": f, "bwd": b}
        for (e, t), (f, b) in code.splits.items()
    ]
    engine = Engine(code, inst)
    encoders = [
        {
            "edge": [inst.edges[e].a, inst.edges[e].b],
            "t": t,
            "dir": d,
            "table": _tabulate(engine, (e, t, d), slot_tail(inst, e, d), t - 1, limit),
        }
        for (e, t, d) in sorted(code.encoders)
    ]
    decoders = []
    for j in sorted(code.decoders):
        out_radices = [code.message_sizes[i] for i in inst.demanded_at(j)]
        table = _tabulate(engine, j, inst.terminals[j], code.outer_n, limit)
        decoders.append(
            {"terminal": j, "table": [combine_digits(out, out_radices) for out in table]}
        )
    return {
        "kind": "table",
        "inner_n": code.inner_n,
        "outer_n": code.outer_n,
        "message_sizes": list(code.message_sizes),
        "splits": splits,
        "encoders": encoders,
        "decoders": decoders,
    }


def _edge_pair(inst: NetworkInstance, pair) -> tuple[str, str]:
    """A document's reference to an edge of `inst`, as (sender, receiver)
    of the slot that the document's `fwd` names."""
    if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(x, str) for x in pair):
        raise MalformedDocument(f"bad edge reference {pair!r}")
    if not inst.has_edge(*pair):
        raise MalformedDocument(f"no edge {pair[0]!r}-{pair[1]!r}")
    return pair[0], pair[1]


def _table_code_from_doc(doc: dict, inst: NetworkInstance) -> NetworkCode:
    inner_n = _positive(doc["inner_n"], "inner_n")
    outer_n = _positive(doc["outer_n"], "outer_n")
    sizes = tuple(_positive(s, "message size") for s in _list(doc["message_sizes"], "message_sizes"))
    if len(sizes) != len(inst.sources):
        raise MalformedDocument("message_sizes length must match sources")

    split_table = {}
    for item in _objects(doc, "splits"):
        idx, d = inst.slot(*_edge_pair(inst, item["edge"]))
        f, b = _positive(item["fwd"], "split fwd"), _positive(item["bwd"], "split bwd")
        t = _integer(item["t"], "split round", 1, outer_n)
        split_table[(idx, t)] = (f, b) if d == FWD else (b, f)
    splits = AlphabetSplit(split_table)

    stub = NetworkCode(
        inner_n=inner_n, outer_n=outer_n, message_sizes=sizes,
        splits=splits, encoders={}, decoders={},
    )

    encoders = {}
    for item in _objects(doc, "encoders"):
        pair = _edge_pair(inst, item["edge"])
        t = _integer(item["t"], "encoder round", 1, outer_n)
        d = item["dir"]
        if d not in (FWD, BWD):
            raise MalformedDocument(f"bad direction {d!r}")
        idx, d = inst.slot(*(pair if d == FWD else pair[::-1]))
        encoders[(idx, t, d)] = _table_entry(
            inst, stub, slot_tail(inst, idx, d), t - 1, item["table"], splits.size(idx, t, d)
        )

    decoders = {}
    for item in _objects(doc, "decoders"):
        j = _integer(item["terminal"], "terminal", 0, len(inst.terminals) - 1)
        out_radices = [sizes[i] for i in inst.demanded_at(j)]
        entry = _table_entry(
            inst, stub, inst.terminals[j], outer_n, item["table"], math.prod(out_radices)
        )

        def decoder(state, entry=entry, out_radices=out_radices):
            return split_digits(entry(state), out_radices)

        decoders[j] = decoder

    return NetworkCode(
        inner_n=inner_n, outer_n=outer_n, message_sizes=sizes,
        splits=splits, encoders=encoders, decoders=decoders,
    )


def _routing_code_from_doc(doc: dict, inst: NetworkInstance) -> NetworkCode:
    routes = [
        Route(
            source=_integer(item["source"], "route source", 0),
            terminal=_integer(item["terminal"], "route terminal", 0),
            nodes=_names(item["nodes"], "route nodes"),
            rounds=tuple(_integer(t, "route round", 1) for t in _list(item["rounds"], "route rounds")),
        )
        for item in _objects(doc, "routes")
    ]
    return make_routing_code(
        inst,
        routes,
        _positive(doc["inner_n"], "inner_n"),
        _positive(doc["outer_n"], "outer_n"),
        [_positive(s, "message size") for s in _list(doc["message_sizes"], "message_sizes")],
    )


# ------------------------------------------------------------ transform chains

def apply_chain(
    code: NetworkCode, inst: NetworkInstance, steps: Sequence[dict]
) -> tuple[NetworkCode, NetworkInstance]:
    """Replay a transform-chain descriptor.  Returns the transformed code
    and the instance it now targets (pipeline steps move to a fresh-path
    instance; every other step keeps the instance)."""
    from .transforms import (
        amplify,
        interleave,
        parallel_repeat,
        pipeline_path,
        reblock,
        scale_code,
    )

    for step in steps:
        if not isinstance(step, dict) or "op" not in step:
            raise MalformedDocument(f"bad chain step: {step!r}")
        op = step["op"]
        try:
            if op == "parallel_repeat":
                code = parallel_repeat(code, inst, _positive(step["m"], "parallel_repeat m"))
            elif op == "interleave":
                code = interleave(code, inst)
            elif op == "amplify":
                strict = step.get("strict", True)
                if not isinstance(strict, bool):
                    raise MalformedDocument(f"amplify strict must be true or false, got {strict!r}")
                code = amplify(
                    code,
                    inst,
                    _positive(step["m"], "amplify m"),
                    _name(step["family"], "amplify family"),
                    parse_rational(step["base_error"]),
                    rate_target=(
                        parse_rational(step["rate_target"])
                        if "rate_target" in step
                        else None
                    ),
                    seed=_integer(step.get("seed", 0), "amplify seed", 0),
                    strict=strict,
                )
            elif op == "pipeline_path":
                u = _name(step["u"], "pipeline_path u")
                v = _name(step["v"], "pipeline_path v")
                path = list(_names(step["path"], "pipeline_path path"))
                star = replace_edge_with_path(inst, u, v, path, fresh=True)
                code = pipeline_path(code, inst, u, v, star, len(path))
                inst = star
            elif op == "scale_code":
                code = scale_code(code, parse_rational(step["alpha"]))
            elif op == "reblock":
                code = reblock(code, inst, _positive(step["m"], "reblock m"))
            else:
                raise MalformedDocument(f"unknown chain op {op!r}")
        except KeyError as exc:
            raise MalformedDocument(f"chain step {op!r} missing key {exc}") from exc
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
            chain = doc["chain"]
            if not isinstance(chain, dict):
                raise MalformedDocument(f"chain must be an object, got {chain!r}")
            steps = _list(chain["steps"], "chain steps")
            code, final_inst = apply_chain(base, base_inst, steps)
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
    from .removal import BridgeVerification, PathVerification

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
