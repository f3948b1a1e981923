"""Outside-in tracing of netcode's public layers.

The tracer never edits the package.  `Tracer.install` rebinds module
attributes: every name in a `netcode.*` module that refers to one of the
public functions below is pointed at a wrapper that records a span
(name, start, end, parent) in memory, and the two digit helpers of
`netcode.rational` at wrappers that only count calls (they run hundreds of
thousands of times per operation, so a span each would swamp the
measurement).  `Tracer.uninstall` puts the originals back, so the same
process can alternate untraced and traced operations.

Base-code encoders and decoders are counted by `Tracer.counted`, which
returns a copy of a code whose callables bump a counter before running.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name); check_feasibility's name carries its mode.
SPANNED = (
    ("netcode.codes", "check_feasibility", "codes.check_feasibility"),
    ("netcode.codes", "execute", "codes.execute"),
    ("netcode.codes", "decode_outputs", "codes.decode_outputs"),
    ("netcode.codes", "clopper_pearson", "codes.clopper_pearson"),
    ("netcode.graphs", "widest_path", "graphs.widest_path"),
    ("netcode.transforms", "parallel_repeat", "transforms.parallel_repeat"),
    ("netcode.transforms", "amplify", "transforms.amplify"),
    ("netcode.transforms", "find_amplify_seed", "transforms.find_amplify_seed"),
    ("netcode.transforms", "interleave", "transforms.interleave"),
    ("netcode.transforms", "pipeline_path", "transforms.pipeline_path"),
    ("netcode.transforms", "scale_code", "transforms.scale_code"),
    ("netcode.removal", "classify_edge", "removal.classify_edge"),
    ("netcode.removal", "bridge_decompose", "removal.bridge_decompose"),
    ("netcode.removal", "host_path_code", "removal.host_path_code"),
    ("netcode.removal", "edge_removal_report", "removal.edge_removal_report"),
    ("netcode.serialize", "load_code", "serialize.load_code"),
    ("netcode.serialize", "code_to_doc", "serialize.code_to_doc"),
    ("netcode.region", "rate_region_micro", "region.rate_region_micro"),
    ("netcode.cli", "cmd_validate", "cli.validate"),
    ("netcode.cli", "cmd_check", "cli.check"),
    ("netcode.cli", "cmd_transform", "cli.transform"),
    ("netcode.cli", "cmd_region", "cli.region"),
    ("netcode.cli", "cmd_analyze", "cli.analyze"),
)

COUNTED = (
    ("netcode.rational", "split_digits", "rational.split_digits.calls"),
    ("netcode.rational", "combine_digits", "rational.combine_digits.calls"),
)

BASE_ENCODER_CALLS = "codes.base_encoder_calls"
BASE_DECODER_CALLS = "codes.base_decoder_calls"

# counter name -> (span counted, ancestor span it must run under)
NESTED_COUNTS = {
    "codes.execute.calls": ("codes.execute", None),
    "removal.bridge_decompose.execute_calls": ("codes.execute", "removal.bridge_decompose"),
    "transforms.find_amplify_seed.seeds_tried": ("transforms.amplify", "transforms.find_amplify_seed"),
}


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        namer = _NAMERS.get(name)
        after = _AFTER.get(name)
        signature = inspect.signature(fn) if namer else None

        def wrapper(*args, **kwargs):
            label = namer(signature, args, kwargs) if namer else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            spans[idx][1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            return after(self, result) if after else result

        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def counted(self, code):
        """Copy of `code` whose encoders and decoders count their calls."""
        enc = {k: self._count_wrapper(f, BASE_ENCODER_CALLS) for k, f in code.encoders.items()}
        dec = {k: self._count_wrapper(f, BASE_DECODER_CALLS) for k, f in code.decoders.items()}
        return dataclasses.replace(code, encoders=enc, decoders=dec)

    # ------------------------------------------------------- install/undo

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            for module, attr, name in SPANNED:
                fn = getattr(importlib.import_module(module), attr)
                self._wrappers[id(fn)] = self._span_wrapper(fn, name)
            for module, attr, key in COUNTED:
                fn = getattr(importlib.import_module(module), attr)
                self._wrappers[id(fn)] = self._count_wrapper(fn, key)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "netcode" or modname.startswith("netcode.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # ------------------------------------------------------------ results

    def adopt(self, start: float, end: float, spans: list, counts: dict[str, int]) -> None:
        """Add a traced child process as one `cli.process` span holding
        the spans it recorded.  perf_counter is system-wide on Linux, so
        the child's times share the parent's clock."""
        base = len(self.spans)
        self.spans.append(["cli.process", start, end, -1])
        for name, s, e, parent in spans:
            self.spans.append([name, s, e, base + 1 + parent if parent >= 0 else base])
        self.counts.update(counts)

    def take(self) -> tuple[dict[str, float], dict[str, int], list]:
        """Self seconds per span name and counters since the last take;
        also hands back the raw spans and clears them."""
        if self._stack:
            raise RuntimeError("take() inside an open span")
        spans = self.spans[:]
        self.spans.clear()
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_s):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        counts = dict(self.counts)
        self.counts.clear()
        for key, (name, ancestor) in NESTED_COUNTS.items():
            counts[key] = counts.get(key, 0) + sum(
                1 for i, span in enumerate(spans)
                if span[0] == name and (ancestor is None or _under(spans, i, ancestor))
            )
        return self_s, counts, spans


def _under(spans, idx: int, ancestor: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == ancestor:
            return True
        parent = spans[parent][3]
    return False


def _feasibility_name(signature, args, kwargs) -> str:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return "codes.check_feasibility." + str(bound.arguments["mode"])


def _count_tuples(tracer: Tracer, report):
    tracer.counts["codes.tuples"] += report.trials
    return report


def _count_table_entries(tracer: Tracer, doc):
    tracer.counts["serialize.code_to_doc.table_entries"] += sum(
        len(item["table"]) for item in doc["encoders"] + doc["decoders"]
    )
    return doc


def _count_loaded_code(tracer: Tracer, loaded):
    # A code loaded from a document is the base code of a CLI command.
    code, inst = loaded
    return tracer.counted(code), inst


_NAMERS = {"codes.check_feasibility": _feasibility_name}
_AFTER = {
    "codes.check_feasibility": _count_tuples,
    "serialize.code_to_doc": _count_table_entries,
    "serialize.load_code": _count_loaded_code,
}
