"""Command-line front end.

Subcommands: validate, analyze, transform, check, region.  Every command
prints one JSON document to standard output with sorted keys and
canonical rational strings, so identical invocations are byte-identical.

Exit codes: 0 pass, 2 invalid input, 3 I/O error, 4 verification or
feasibility failure, 5 resource limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import InputError, MalformedDocument, ResourceLimit, TableTooLarge, sized
from .rational import format_rational, parse_rational

if TYPE_CHECKING:
    from fractions import Fraction

    from .region import RegionLimits

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_IO = 3
EXIT_FAIL = 4
EXIT_LIMIT = 5


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an int past int()'s digit limit, or deep nesting
        raise MalformedDocument(f"{path}: not valid JSON ({exc})") from exc


def _load_instance(path: str):
    from .graphs import validate_instance

    return validate_instance(_read_json(path))


def _parse_edge(text: str) -> tuple[str, str]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2 or not all(parts):
        raise MalformedDocument(f"--edge wants 'u,v', got {text!r}")
    return parts[0], parts[1]


def _parse_rates(text: str) -> list[Fraction]:
    return [parse_rational(p.strip()) for p in text.split(",")]


def _parse_mode(text: str) -> tuple[str, int, int]:
    if text == "exhaustive":
        return "exhaustive", 0, 0
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "sampled":
        try:
            trials, seed = int(parts[1]), int(parts[2])
        except ValueError:
            trials = 0
        if trials >= 1:
            return "sampled", trials, seed
    raise MalformedDocument(
        f"--mode wants 'exhaustive' or 'sampled:TRIALS:SEED' with TRIALS >= 1, got {text!r}"
    )


def _parse_limits(text: str) -> RegionLimits:
    from .region import RegionLimits

    fields = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise MalformedDocument(f"--limits wants 'key=value,...', got {text!r}")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in RegionLimits.__slots__:
            raise MalformedDocument(f"unknown limit {key!r}")
        try:
            fields[key] = int(value)
        except ValueError as exc:
            raise MalformedDocument(f"limit {key!r} wants an integer") from exc
    return RegionLimits(**fields)


def cmd_validate(args) -> int:
    from .graphs import validate_instance

    doc = _read_json(args.instance)
    try:
        inst = validate_instance(doc)
    except InputError as exc:
        _emit({"ok": False, "errors": [{"error": type(exc).__name__, "message": str(exc)}]})
        return EXIT_INPUT
    _emit(
        {
            "ok": True,
            "vertices": len(inst.vertices),
            "edges": len(inst.edges),
            "sources": len(inst.sources),
            "terminals": len(inst.terminals),
        }
    )
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .graphs import add_edge
    from .removal import edge_removal_report
    from .serialize import load_code, removal_report_doc

    inst = _load_instance(args.instance)
    u, v = _parse_edge(args.edge)
    lam = parse_rational(args.lam)
    rates = _parse_rates(args.rate) if args.rate else None
    epsilon = parse_rational(args.epsilon)
    code = None
    if args.code:
        augmented = add_edge(inst, u, v, lam)
        code, _ = load_code(_read_json(args.code), augmented)
    report = edge_removal_report(
        inst, u, v, lam, code=code, rates=rates, epsilon=epsilon
    )
    _emit(removal_report_doc(report))
    ver = report.verification
    if ver is not None and not ver.passed:
        return EXIT_FAIL
    return EXIT_OK


def cmd_transform(args) -> int:
    from .serialize import apply_chain, code_to_doc, derived_doc, load_code

    inst = _load_instance(args.instance)
    base_doc = _read_json(args.code)
    chain = _read_json(args.chain)
    if not isinstance(chain, dict) or not isinstance(chain.get("steps"), list):
        raise MalformedDocument("chain document needs a 'steps' list")
    code, cur = load_code(base_doc, inst)
    for pos, step in enumerate(chain["steps"]):
        try:
            code, cur = apply_chain(code, cur, [step])
        except InputError as exc:
            _emit(
                {
                    "error": type(exc).__name__,
                    "message": str(exc),
                    "step": pos,
                    "op": step.get("op") if isinstance(step, dict) else None,
                }
            )
            return EXIT_INPUT
    for i, size in enumerate(code.message_sizes):
        if size.bit_length() > 14_000:  # CPython prints ints of up to 4,300 digits
            raise TableTooLarge(f"message size {sized(size)} of source {i} exceeds the print limit")
    try:
        out_code = code_to_doc(code, cur)
    except TableTooLarge:
        out_code = derived_doc(base_doc, inst, chain["steps"])
    payload = {"instance": cur.to_doc(), "code": out_code}
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    _emit(
        {
            "written": args.out,
            "kind": out_code["kind"],
            "inner_n": code.inner_n,
            "outer_n": code.outer_n,
            "message_sizes": list(code.message_sizes),
        }
    )
    return EXIT_OK


def cmd_check(args) -> int:
    from .codes import check_feasibility
    from .serialize import feasibility_report_doc, load_code

    inst = _load_instance(args.instance)
    code, _ = load_code(_read_json(args.code), inst)
    rates = _parse_rates(args.rate) if args.rate else None
    epsilon = parse_rational(args.epsilon)
    mode, trials, seed = _parse_mode(args.mode)
    rep = check_feasibility(
        code,
        inst,
        rates=rates,
        epsilon=epsilon,
        mode=mode,
        trials=trials,
        seed=seed,
    )
    _emit(feasibility_report_doc(rep))
    return EXIT_OK if rep.passed else EXIT_FAIL


def cmd_region(args) -> int:
    from .region import rate_region_micro

    inst = _load_instance(args.instance)
    if args.n < 1 or args.outer_n < 1:
        raise MalformedDocument("--n and --N must be >= 1")
    limits = _parse_limits(args.limits) if args.limits else None
    points = rate_region_micro(inst, args.n, args.outer_n, limits)
    doc = {
        "n": args.n,
        "N": args.outer_n,
        "points": [[format_rational(r) for r in p] for p in sorted(points)],
    }
    _emit(doc)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netcode",
        description="Simulation and transformation workbench for network "
        "coding on undirected networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("analyze", help="edge-removal bound and verification")
    p.add_argument("instance")
    p.add_argument("--edge", required=True, help="probe pair 'u,v'")
    p.add_argument("--lambda", dest="lam", required=True, help="probe capacity p/q")
    p.add_argument("--code", help="code file for the augmented instance")
    p.add_argument("--rate", help="comma-separated rates R1,R2,...")
    p.add_argument("--epsilon", default="0", help="error tolerance (default 0)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("transform", help="apply a transform chain to a code")
    p.add_argument("instance")
    p.add_argument("code")
    p.add_argument("chain")
    p.add_argument("--out", required=True, help="output file for the result")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("check", help="measure feasibility of a code")
    p.add_argument("instance")
    p.add_argument("code")
    p.add_argument("--rate", help="comma-separated rates R1,R2,...")
    p.add_argument("--epsilon", default="0", help="error tolerance (default 0)")
    p.add_argument(
        "--mode",
        default="exhaustive",
        help="'exhaustive' or 'sampled:TRIALS:SEED'",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("region", help="micro zero-error rate region search")
    p.add_argument("instance")
    p.add_argument("--n", type=int, required=True, help="inner blocklength")
    p.add_argument("--N", dest="outer_n", type=int, required=True, help="rounds")
    p.add_argument("--limits", help="override limits, e.g. max_edges=4")
    p.set_defaults(func=cmd_region)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_LIMIT
    except InputError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return EXIT_INPUT
    except OSError as exc:
        _emit({"error": "IoError", "message": str(exc)})
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
