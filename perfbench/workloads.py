"""The four benchmark workloads: inputs, one operation, output checks.

Every input is a committed fixture under `fixtures/`.  The workload seed
reaches the program only as `check_seed` of `amplify-m16`.  Expected
values in the checks come from the paper's formulas (noted beside each),
never from earlier program output.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import netcode as nc
from clock import ReferenceClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = HERE / "fixtures"
CHILD_TIMEOUT_S = 120

F = Fraction


def fixture(name: str):
    with open(FIXTURES / name, encoding="utf-8") as fh:
        return json.load(fh)


def instance(name: str):
    return nc.validate_instance(fixture(name))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class _InProcess:
    """A workload whose operation is one call into the package."""

    def operation(self, tracer=None):
        """Zero-argument callable running one operation; with a tracer,
        on a copy of the base code whose callables count their calls."""
        code = self.code if tracer is None else tracer.counted(self.code)
        return lambda: self.run(code)


# ------------------------------------------------------------ path-n6

class PathN6(_InProcess):
    """Path-case `edge_removal_report` on cycle4 with probe a-c, lambda 1.

    The base code routes a->c at round 1 and c->a at round 2 with n=1,
    N=6.  Rates are 1/N: at N>2, `1/2,1/2` would ask for more messages
    than the code carries and raise BadRate.
    """

    N = 6
    LAM = F(1)

    def __init__(self, seed: int, work: Path):
        self.inst = instance("cycle4.json")
        self.augmented = nc.add_edge(self.inst, "a", "c", self.LAM)
        self.code, _ = nc.load_code(fixture("two_route_n6.json"), self.augmented)
        self.rates = [F(1, self.N)] * 2

    def run(self, code):
        return nc.edge_removal_report(
            self.inst, "a", "c", self.LAM, code=code, rates=self.rates
        )

    def check(self, rep) -> list[str]:
        n_rounds = self.N
        gamma = F(1)  # widest a-c path a-b-c: every capacity is 1
        alpha = gamma / (gamma + self.LAM)
        ell = 3  # nodes on that path
        ver = rep.verification
        final = ver.final_report
        return _mismatches(
            ("case", rep.case, "path"),
            ("passed", ver.passed, True),
            ("base measured_error", ver.base_report.measured_error, 0),
            ("final measured_error", final.measured_error, 0),
            ("final certified", final.certified, True),
            # interleaving squares each message space: (2**N)**2 tuples
            ("final tuples", final.trials, (2 ** n_rounds) ** 2),
            ("alpha", ver.alpha, alpha),
            ("ell", ver.ell, ell),
            # N sessions, each widened from N to N+ell rounds
            ("final_outer_n", ver.final_outer_n, n_rounds * (n_rounds + ell)),
            # scaling by 1/alpha stretches n=1
            ("final_inner_n", ver.final_inner_n, 1 / alpha),
            ("claims", [(c.claimed_rate, c.achieved) for c in ver.rate_claims],
             [(alpha * F(n_rounds, n_rounds + ell) * r, True) for r in self.rates]),
        )


# ----------------------------------------------------------- bridge-n12

class BridgeN12(_InProcess):
    """Bridge-case `edge_removal_report`: two triangles joined by c-d.

    Sources a, d, c, g send to terminals b, g, f, a.  Routes: a->b at
    round N, d->g at round 1, c->d->f at rounds (N-1, N), and g->d->c->a
    at (t, t+1, t+2) for every t = 1..N-2; n=8, N=12.
    """

    LAM = F(1)

    def __init__(self, seed: int, work: Path):
        self.inst = instance("two_triangles_diag.json")
        augmented = nc.add_edge(self.inst, "c", "d", self.LAM)
        self.code, _ = nc.load_code(fixture("bridge_n12.json"), augmented)

    def run(self, code):
        return nc.edge_removal_report(self.inst, "c", "d", self.LAM, code=code)

    def check(self, rep) -> list[str]:
        ver = rep.verification
        sides = (ver.decomposition.u_side, ver.decomposition.v_side)
        return _mismatches(
            ("case", rep.case, "bridge"),
            # c->f and g->a are the demands whose ends the bridge separates
            ("cross_demands", rep.cross_demands, ((2, 2), (3, 3))),
            ("passed", ver.passed, True),
            ("base measured_error", ver.base_report.measured_error, 0),
            ("base tuples", ver.base_report.trials, 256 * 2 * 2 * 2),
            ("trace_match", [s.trace_match for s in sides], [True, True]),
            ("conditional_error", [s.conditional_error for s in sides], [0, 0]),
        )


# ---------------------------------------------------------- amplify-m16

class AmplifyM16(_InProcess):
    """`find_amplify_seed` on the single-edge clamp code (n=2, four
    messages, the top one sent as 0, so error 1/4): m=16 repetition,
    strict=False, sampled with 10**4 trials, check_seed = workload seed."""

    M = 16
    TRIALS = 10 ** 4
    BASE_ERROR = F(1, 4)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inst = instance("single_edge.json")
        self.code, _ = nc.load_code(fixture("clamp_n2_table.json"), self.inst)

    def run(self, code):
        return nc.find_amplify_seed(
            code, self.inst, self.M, "repetition", self.BASE_ERROR, self.BASE_ERROR,
            strict=False, mode="sampled", trials=self.TRIALS, check_seed=self.seed,
        )

    def check(self, result) -> list[str]:
        _, amp, rep = result
        problems = _mismatches(
            ("below base error", rep.measured_error < self.BASE_ERROR, True),
            ("inner_n", amp.inner_n, 2 * self.M),  # m sessions of n=2
            ("mode", rep.mode, "sampled"),
            ("trials", rep.trials, self.TRIALS),
            ("estimate", rep.measured_error, F(rep.failures, rep.trials)),
        )
        if rep.interval is None or not interval_valid(rep.failures, rep.trials, *rep.interval):
            problems.append(f"interval {rep.interval} is not a valid 95% interval")
        return problems


def _binom_cdf_scaled(k: int, n: int, p: Fraction) -> int:
    """b**n * P(X <= k) for X ~ Binomial(n, a/b), p = a/b, as an exact int."""
    a, b = p.numerator, p.denominator
    c = b - a
    if c == 0:
        return b ** n if k >= n else 0
    term = c ** n  # i = 0: C(n,0) a**0 c**n
    total = term
    for i in range(min(k, n)):
        term = term * (n - i) * a // ((i + 1) * c)
        total += term
    return total


def interval_valid(failures: int, trials: int, low: Fraction, high: Fraction,
                   tail: Fraction = F(1, 40)) -> bool:
    """True when [low, high] contains the exact Clopper-Pearson interval
    with `tail` in each tail, decided in exact integer arithmetic."""
    k, n = failures, trials
    if not 0 <= low <= F(k, n) <= high <= 1:
        return False
    if k == 0:
        low_ok = low == 0
    else:  # P(X >= k | low) <= tail
        whole = low.denominator ** n
        low_ok = (whole - _binom_cdf_scaled(k - 1, n, low)) * tail.denominator <= whole * tail.numerator
    if k == n:
        high_ok = high == 1
    else:  # P(X <= k | high) <= tail
        whole = high.denominator ** n
        high_ok = _binom_cdf_scaled(k, n, high) * tail.denominator <= whole * tail.numerator
    return low_ok and high_ok


# ------------------------------------------------------------- cli-cold

def _cli_commands(work: Path) -> list[tuple[str, list[str]]]:
    fx = lambda name: str(FIXTURES / name)  # noqa: E731
    return [
        ("validate", ["validate", fx("cycle4.json")]),
        ("check", ["check", fx("cycle4_chord.json"), fx("two_route_n2_table.json")]),
        ("transform", ["transform", fx("cycle4_chord.json"), fx("two_route_n2.json"),
                       fx("chain_interleave.json"), "--out", str(work / "transformed.json")]),
        ("region", ["region", fx("two_way.json"), "--n", "1", "--N", "3",
                    "--limits", "max_outer=3"]),
        ("analyze", ["analyze", fx("cycle4.json"), "--edge", "a,c", "--lambda", "1",
                     "--code", fx("two_route_n2.json"), "--rate", "1/2,1/2"]),
    ]


class CliCold:
    """Five fresh `python -m netcode.cli` processes, one after another."""

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.commands = _cli_commands(work)

    def operation(self, tracer=None):
        return lambda: self.run(tracer)

    def run(self, tracer=None):
        """Run the sequence; with a tracer, each child runs under
        `cli_child.py` and the tracer adopts its spans and counters."""
        (self.work / "transformed.json").unlink(missing_ok=True)
        results = []
        for name, argv in self.commands:
            if tracer is None:
                cmd = [sys.executable, "-m", "netcode.cli", *argv]
            else:
                trace_file = self.work / f"trace-{name}.json"
                cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_file), *argv]
            start = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            wall = time.perf_counter() - start
            if tracer is not None and proc.returncode == 0:
                with open(trace_file, encoding="utf-8") as fh:
                    child = json.load(fh)
                tracer.adopt(start, start + wall, child["spans"], child["counts"])
            results.append((name, proc.returncode, proc.stdout, proc.stderr))
        return results

    def check(self, results) -> list[str]:
        problems = []
        for name, rc, out, err in results:
            if rc != 0:
                problems.append(f"{name}: exit {rc}: {err.strip()[-300:]}")
                continue
            try:
                doc = json.loads(out)  # rejects anything but one document
            except json.JSONDecodeError as exc:
                problems.append(f"{name}: stdout is not one JSON document ({exc})")
                continue
            problems += [f"{name}: {p}" for p in getattr(self, "_check_" + name)(doc)]
        return problems

    @staticmethod
    def _check_validate(doc):
        return _mismatches(("report", doc, {"ok": True, "vertices": 4, "edges": 4,
                                            "sources": 2, "terminals": 2}))

    @staticmethod
    def _check_check(doc):
        return _mismatches(
            ("passed", doc["passed"], True), ("mode", doc["mode"], "exhaustive"),
            ("measured_error", doc["measured_error"], "0"), ("certified", doc["certified"], True),
            ("trials", doc["trials"], 2 * 2),
        )

    def _check_transform(self, doc):
        n_rounds = 2
        with open(self.work / "transformed.json", encoding="utf-8") as fh:
            written = json.load(fh)
        return _mismatches(
            ("kind", doc["kind"], "table"),
            ("written kind", written["code"]["kind"], "table"),
            # interleaving N sessions: N*N rounds, message spaces 2**N
            ("outer_n", doc["outer_n"], n_rounds * n_rounds),
            ("inner_n", doc["inner_n"], 1),
            ("message_sizes", doc["message_sizes"], [2 ** n_rounds] * 2),
        )

    @staticmethod
    def _check_region(doc):
        points = [tuple(F(r) for r in p) for p in doc["points"]]
        problems = []
        # both demands cross the single capacity-1 edge: r1 + r2 <= 1
        for p in points:
            if min(p) < 0 or sum(p) > 1:
                problems.append(f"point {p} outside the cut bound")
        for want in ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))):
            if want not in points:
                problems.append(f"point {want} missing")
        return problems

    @staticmethod
    def _check_analyze(doc):
        n_rounds, ell, alpha = 2, 3, F(1, 2)
        ver = doc["verification"]
        claimed = str(alpha * F(n_rounds, n_rounds + ell) * F(1, 2))
        return _mismatches(
            ("case", doc["case"], "path"), ("passed", ver["passed"], True),
            ("alpha", ver["alpha"], str(alpha)), ("ell", ver["ell"], ell),
            ("final_outer_n", ver["final_outer_n"], n_rounds * (n_rounds + ell)),
            ("final_inner_n", ver["final_inner_n"], 2),
            ("final measured_error", ver["final"]["measured_error"], "0"),
            ("claims", [(c["claimed_rate"], c["achieved"]) for c in ver["rate_claims"]],
             [(claimed, True)] * 2),
        )


def _mismatches(*checks) -> list[str]:
    return [f"{what}: got {got!r}, want {want!r}" for what, got, want in checks if got != want]


WORKLOADS = {
    "path-n6": PathN6,
    "amplify-m16": AmplifyM16,
    "bridge-n12": BridgeN12,
    "cli-cold": CliCold,
}


def build(name: str, seed: int, work: Path):
    """The workload's objects; `work` is a scratch directory for CLI output."""
    return WORKLOADS[name](seed, work)


# -------------------------------------------------- analyze-chain stages

def stage_costs(case: PathN6, sample: int = 16, repeats: int = 5) -> dict[str, float]:
    """Microseconds per `execute` call at each stage of the path-case
    chain, rebuilt here from the public transforms the way
    `edge_removal_report` builds it.  Each stage runs a fixed, evenly
    spaced sample of its message tuples; the best of `repeats` passes
    counts, untraced, at reference speed (see clock.py)."""
    u, v = "a", "c"
    bound = nc.path_case_bound(case.inst, u, v, case.LAM)
    path = list(bound.path.nodes)
    star_path = [u] + [f"relay{r}" for r in range(2, len(path))] + [v]
    star = nc.replace_edge_with_path(case.augmented, u, v, star_path, fresh=True)
    host = nc.replace_edge_with_path(case.augmented, u, v, path, fresh=False)
    tilde = nc.interleave(case.code, case.augmented)
    piped = nc.pipeline_path(tilde, case.augmented, u, v, star, len(path))
    hosted = nc.host_path_code(piped, star, host, star_path, path)
    scaled = nc.scale_code(hosted, 1 / bound.alpha)
    stages = {
        "base": (case.code, case.augmented),
        "interleave": (tilde, case.augmented),
        "pipeline": (piped, star),
        "host": (hosted, host),
        "scale": (scaled, case.inst),
    }
    out = {}
    for stage, (code, inst) in stages.items():
        space = list(itertools.product(*(range(s) for s in code.message_sizes)))
        tuples = [space[i * len(space) // sample] for i in range(sample)]
        best = None
        for _ in range(repeats):
            with ReferenceClock() as timer:
                for tup in tuples:
                    nc.execute(code, inst, tup)
            best = timer.seconds if best is None else min(best, timer.seconds)
        out[stage] = best / sample * 1e6
    return out
