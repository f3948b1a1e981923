"""netcode benchmark: time to an exact verdict, end to end and per layer.

One workload:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
Everything (each workload untraced, then traced), with a summary table:
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a netcode checkout; the package is imported from
`src/`.  A run is a closed loop: one client, operations back to back in
one process, plus at most one CLI child at a time.  Every operation's
output is checked; an exception, a wrong exit code or a mismatch counts
as a failed operation.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of the unmodified program.
--trace 1 alternates untraced and traced operations: traced ones run
with the wrappers of `tracing.py` installed and give the per-layer
metrics; the ratio of the two gives the tracing overhead.  The spans of
the first traced operation are written to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import tracing
from clock import ReferenceClock, pin_to_one_core

# `workloads` imports netcode, so functions import it only after main()
# has checked src/netcode and put src/ on sys.path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = {
    "verdict_s": "s",
    "verdict_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# per-layer metric -> span whose self seconds per operation it reports
LAYER_TIMES = {
    "codes.check_feasibility.exhaustive.s": "codes.check_feasibility.exhaustive",
    "codes.check_feasibility.sampled.s": "codes.check_feasibility.sampled",
    "codes.execute.s": "codes.execute",
    "codes.decode_outputs.s": "codes.decode_outputs",
    "codes.clopper_pearson.s": "codes.clopper_pearson",
    "transforms.interleave.build_s": "transforms.interleave",
    "transforms.pipeline_path.build_s": "transforms.pipeline_path",
    "transforms.scale_code.build_s": "transforms.scale_code",
    "transforms.parallel_repeat.build_s": "transforms.parallel_repeat",
    "transforms.amplify.build_s": "transforms.amplify",
    "removal.host_path_code.build_s": "removal.host_path_code",
    "removal.bridge_decompose.s": "removal.bridge_decompose",
    "removal.classify_edge.s": "removal.classify_edge",
    "graphs.widest_path.s": "graphs.widest_path",
    "serialize.load_code.s": "serialize.load_code",
    "serialize.code_to_doc.s": "serialize.code_to_doc",
    "region.rate_region_micro.s": "region.rate_region_micro",
    "cli.validate.s": "cli.validate",
    "cli.check.s": "cli.check",
    "cli.transform.s": "cli.transform",
    "cli.region.s": "cli.region",
    "cli.analyze.s": "cli.analyze",
    "cli.startup_s": "cli.process",
}

LAYER_COUNTS = (
    "codes.tuples",
    "codes.execute.calls",
    "codes.base_encoder_calls",
    "codes.base_decoder_calls",
    "rational.split_digits.calls",
    "rational.combine_digits.calls",
    "transforms.find_amplify_seed.seeds_tried",
    "removal.bridge_decompose.execute_calls",
    "serialize.code_to_doc.table_entries",
)

STAGES = ("base", "interleave", "pipeline", "host", "scale")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("path-n6", "amplify-m16", "bridge-n12", "cli-cold"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")
    return args


def attempt(op, check):
    """Run one operation; returns (its ReferenceClock, problems)."""
    try:
        with ReferenceClock() as timer:
            out = op()
    except Exception:
        return timer, ["raised: " + traceback.format_exc(limit=3)]
    try:
        problems = check(out)
    except Exception:
        problems = ["check raised: " + traceback.format_exc(limit=3)]
    return timer, problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"operation {self.attempted} failed:", *problems, sep="\n  ", file=sys.stderr)


def tail(samples):
    """Highest percentile with at least ten samples beyond it:
    (value, percentile, samples beyond).  With 11 or fewer samples no
    percentile above the minimum qualifies, so the minimum is reported."""
    xs = sorted(samples)
    i = max(0, len(xs) - 11)
    pct = 100.0 * i / (len(xs) - 1) if len(xs) > 1 else 0.0
    return xs[i], pct, len(xs) - 1 - i


def setup_seconds(workload: str, seed: int) -> float:
    """One set-up: a fresh process that starts the interpreter, imports
    netcode and (except for cli-cold) builds the workload's objects."""
    import workloads

    if workload == "cli-cold":
        cmd = [sys.executable, "-c", "import netcode"]
    else:
        cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    with ReferenceClock() as timer:
        subprocess.run(cmd, cwd=ROOT, env=workloads.child_env(), capture_output=True,
                       timeout=SETUP_TIMEOUT_S, check=True)
    return timer.seconds


def run_untraced(args, work: Path) -> dict:
    import workloads

    setup = statistics.median(setup_seconds(args.workload, args.seed) for _ in range(SETUP_REPEATS))
    case = workloads.build(args.workload, args.seed, work)
    op = case.operation()
    tally, times, walls = Tally(), [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        timer, problems = attempt(op, case.check)
        times.append(timer.seconds)
        walls.append(timer.wall)
        tally.add(problems)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    peak_mib = resource.getrusage(who).ru_maxrss / 1024
    tail_s, pct, beyond = tail(times)
    values = {
        "verdict_s": statistics.median(times),
        "verdict_tail_s": tail_s,
        "setup_s": setup,
        "peak_rss_mib": peak_mib,
    }
    print(f"{args.workload} seed={args.seed} trace=0: {tally.attempted} operations, "
          f"{tally.failed} failed, failed_share {tally.failed / tally.attempted} (share)")
    print(f"  verdict_s {values['verdict_s']:.4f} s: median of {len(times)} at reference "
          f"speed; per operation: {' '.join(f'{t:.3f}' for t in times)}")
    print(f"  verdict_wall_s {statistics.median(walls):.4f} s: median wall time, "
          f"not speed-corrected; per operation: {' '.join(f'{t:.3f}' for t in walls)}")
    print(f"  verdict_tail_s {tail_s:.4f} s: p{pct:.1f} of {len(times)}, {beyond} beyond")
    print(f"  setup_s {setup:.4f} s: median of {SETUP_REPEATS} fresh processes")
    print(f"  peak_rss_mib {peak_mib:.2f} MiB")
    return result(tally, {k: (v, END_TO_END[k]) for k, v in values.items()})


def run_traced(args, work: Path) -> dict:
    import workloads

    case = workloads.build(args.workload, args.seed, work)
    tracer = tracing.Tracer()
    plain, traced = case.operation(), case.operation(tracer)
    stages = workloads.stage_costs(case) if args.workload == "path-n6" else {}
    tally = Tally()
    plain_s, traced_s, per_op, first_spans = [], [], [], None
    start = time.perf_counter()
    while len(traced_s) < 2 or time.perf_counter() - start < args.seconds:
        for kind in (("plain", "traced") if len(traced_s) % 2 == 0 else ("traced", "plain")):
            if kind == "plain":
                timer, problems = attempt(plain, case.check)
                plain_s.append(timer.seconds)
            else:
                tracer.install()
                try:
                    timer, problems = attempt(traced, case.check)
                finally:
                    tracer.uninstall()
                self_s, counts, spans = tracer.take()
                per_op.append(({k: v * timer.speed for k, v in self_s.items()}, counts))
                traced_s.append(timer.seconds)
                if first_spans is None:
                    first_spans = spans
            tally.add(problems)

    counts = per_op[0][1]
    consistent = all(c == counts for _, c in per_op)
    if not consistent:
        print("error: traced operations disagree on their counters:", file=sys.stderr)
        for _, c in per_op:
            print("  ", json.dumps(c, sort_keys=True), file=sys.stderr)
    metrics = {
        name: (statistics.median(s.get(span, 0.0) for s, _ in per_op), "s")
        for name, span in LAYER_TIMES.items()
    }
    metrics.update({name: (counts.get(name, 0), "count") for name in LAYER_COUNTS})
    metrics.update({f"codes.execute.us_per_tuple.{st}": (stages.get(st, 0.0), "us") for st in STAGES})
    overhead = statistics.median(traced_s) / statistics.median(plain_s) - 1
    metrics["trace.overhead_share"] = (overhead, "share")

    trace_dir = ROOT / ".perfbench" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "fields": ["name", "start", "end", "parent"], "spans": first_spans}, fh)
    print(f"{args.workload} seed={args.seed} trace=1: {len(plain_s)} untraced and "
          f"{len(traced_s)} traced operations, {tally.failed} failed, "
          f"counters {'identical' if consistent else 'DIFFER'}; spans in {trace_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    return result(tally, metrics, consistent)


def result(tally: Tally, metrics: dict, consistent: bool = True) -> dict:
    return {
        "correct": tally.failed == 0 and consistent,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> int:
    """Each workload untraced then traced, in child processes one at a
    time; prints every metric by name with its unit."""
    ok = True
    for workload in ("path-n6", "amplify-m16", "bridge-n12", "cli-cold"):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            print("\n".join(lines[:-1]))
            print(f"  correct {res['correct']}, attempted {res['attempted']}, "
                  f"failed {res['failed']}, failed_share {res['failed'] / res['attempted']} share")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "netcode" / "__init__.py").is_file():
        print(f"error: no netcode package at {SRC / 'netcode'}; run from the root "
              "of a netcode checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.all:
        return run_all(args)
    pin_to_one_core()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        res = (run_traced if args.trace else run_untraced)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
