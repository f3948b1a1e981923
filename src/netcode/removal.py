"""Edge-removal analysis.

Given an instance I (not containing the probe edge) and a capacity lam,
these functions bound how much feasible rate is lost when the augmented
instance I + (u,v,lam) is stripped back to I, and optionally verify the
bound constructively by transforming a concrete code for the augmented
instance into one for I.

Two regimes:

- bridge: removing the probe disconnects u from v.  Each side can fix the
  other side's messages to their best value and replay the lost edge's
  traffic locally, so per-side rates survive unchanged and crossing
  demands are capped by lam.  The decomposition observes the base check's
  one pass: it counts each side's failing tuples from the tuples that
  check runs, and takes fixings, conditional errors and the trace match
  over the box it covers, the rates' spaces when rates are given, so the
  joint tuples follow the check's one limit rule.  Each side's trace
  match is walked, and if need be compared, on the check's engine alone.
- path: u and v stay connected.  The probe's traffic is pipelined over
  the widest u-v path (bottleneck gamma) and the whole instance is scaled
  by alpha = gamma/(gamma+lam) to make room, costing each rate at most
  f(lam) = (2W/w)*lam in the limit.  A base message is one session digit
  of N in the final code, which is checked, and its rates claimed, over
  the image of the base check's box: each digit over that box's values.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .codes import (
    DIRECTIONS,
    AlphabetSplit,
    Engine,
    FeasibilityReport,
    NetworkCode,
    StateView,
    _check,
    _size,
    _values,
    checked_rates,
    pack,
)
from .errors import (
    BadPath,
    EdgePresent,
    EnumerationTooLarge,
    MalformedDocument,
    NonPositiveCapacity,
    NotABridge,
    UnknownVertex,
    sized,
)
from .graphs import (
    BWD,
    FWD,
    NetworkInstance,
    add_edge,
    connected_components,
    drop_edge,
    removal_constant,
    replace_edge_with_path,
    slot_tail,
    widest_path,
)
from .rational import log2_at_least, split_digits
from .transforms import interleave, pipeline_path, remapped, scale_code


class BridgeCase(NamedTuple):
    u_side: tuple[str, ...]
    v_side: tuple[str, ...]


class PathCase(NamedTuple):
    nodes: tuple[str, ...]
    gamma: Fraction


def classify_edge(inst: NetworkInstance, u: str, v: str):
    """BridgeCase or PathCase for the probe pair (u, v), which must not be
    an existing edge."""
    for w in (u, v):
        if w not in inst.vertices:
            raise UnknownVertex(f"unknown vertex {w!r}")
    if u == v:
        raise BadPath("probe endpoints must differ")
    if inst.has_edge(u, v):
        raise EdgePresent(f"{u!r}-{v!r} is an existing edge")
    block = next(b for b in connected_components(inst) if u in b)
    if v in block:
        wp = widest_path(inst, u, v)
        return PathCase(nodes=wp.nodes, gamma=wp.gamma)
    return BridgeCase(u_side=block, v_side=tuple(sorted(set(inst.vertices) - set(block))))


# ----------------------------------------------------------- bridge regime

class SideDecomposition(NamedTuple):
    """One side of a bridge split with its simulated code."""

    vertices: tuple[str, ...]
    source_indices: tuple[int, ...]
    fixing: dict[int, int]
    conditional_error: Fraction
    instance: Optional[NetworkInstance]
    code: Optional[NetworkCode]
    trace_match: bool


class BridgeDecomposition(NamedTuple):
    u_side: SideDecomposition
    v_side: SideDecomposition


def _induced_instance(
    inst: NetworkInstance, side: set[str], s_idx: Sequence[int], d_idx: Sequence[int]
) -> Optional[NetworkInstance]:
    demand = tuple(tuple(inst.demand[i][j] for j in d_idx) for i in s_idx)
    if not s_idx or not d_idx or not any(any(row) for row in demand):
        return None
    return NetworkInstance(
        vertices=tuple(x for x in inst.vertices if x in side),
        edges=tuple(e for e in inst.edges if e.a in side and e.b in side),
        sources=tuple(inst.sources[i] for i in s_idx),
        terminals=tuple(inst.terminals[j] for j in d_idx),
        demand=demand,
    )


def _side_messages(inst: NetworkInstance, side: set[str]):
    """(owned, foreign, demands) of one side: the sources whose every demand
    lies in the side, the other sources, and each owned source's demands as
    (source, terminal, position in the terminal's decoded tuple)."""
    k, r = len(inst.sources), len(inst.terminals)
    owned = tuple(
        i
        for i in range(k)
        if inst.sources[i] in side
        and all(inst.terminals[j] in side for j in range(r) if inst.demand[i][j])
    )
    foreign = tuple(i for i in range(k) if i not in owned)
    demands = tuple(
        (i, j, inst.demanded_at(j).index(i)) for i in owned for j in range(r) if inst.demand[i][j]
    )
    return owned, foreign, demands


def _decompose_side(
    engine: Engine,
    side: set[str],
    e_idx: int,
    s_idx: tuple[int, ...],
    foreign: tuple[int, ...],
    fails: Counter,
    limit: int,
) -> SideDecomposition:
    """The side's fixing, the first foreign combination of the engine's box
    in ascending order with the fewest failing tuples (`fails`), its
    conditional error over the box's free tuples, and its simulated code,
    trace matched on `engine` alone, as in bridge_decompose; more than
    `limit` free tuples raise EnumerationTooLarge."""
    inst, code, box = engine.inst, engine.code, engine.box
    best = min(
        itertools.product(*(_values(box[i]) for i in foreign)),
        key=lambda combo: fails[combo],
    ) if fails else (0,) * len(foreign)
    fixing = dict(zip(foreign, best))
    free_total = math.prod(_size(box[i]) for i in s_idx)

    d_idx = tuple(j for j, d in enumerate(inst.terminals) if d in side)
    side_inst = _induced_instance(inst, side, s_idx, d_idx)
    side_code, match = None, True
    if side_inst is not None:
        # side edge p is edge orig_of_side[p] of the original instance
        orig_of_side = [inst.edge_between(se.a, se.b)[0] for se in side_inst.edges]
        if free_total > limit:
            raise EnumerationTooLarge(
                f"{sized(free_total)} free message tuples of side {sorted(side)} exceed limit {limit}"
            )
        side_code = _simulated_side_code(
            inst, code, side, e_idx, s_idx, d_idx, side_inst, orig_of_side, fixing
        )
        # Side traces must equal the original ones; off the anchor they do.
        anchor = next(x for x in (inst.edges[e_idx].a, inst.edges[e_idx].b) if x in side)
        agreed = {f for f in side_code.encoders.values() if type(f) is _SideMap and f.node != anchor}
        match = engine._matches(side_code, orig_of_side, s_idx, fixing, agreed)
    return SideDecomposition(
        vertices=tuple(sorted(side)),
        source_indices=s_idx,
        fixing=fixing,
        conditional_error=Fraction(fails[best], free_total),
        instance=side_inst,
        code=side_code,
        trace_match=match,
    )


REPLAY_ROUNDS = 32  # the rounds one replay recurses through at most (see _Replaying)


class _Replaying(StateView):
    """The original code's view at `node` over the side execution seen by
    `state`, a side view of `node` or, in a replay, of the anchor.  `replay`
    is what `_simulated_side_code` fixed for the side.  A replayed slot is
    computed when a read asks for it, by its encoder on a view of its
    sender, and kept in `sim` by slot key (0 where it has no encoder): one
    dict for the views of one tree, so a map call replays only the slots
    its reads reach.  So that a replay recurses through at most
    REPLAY_ROUNDS rounds, the slots that many rounds or more before the one
    asked for are replayed first, in round order; sim[None] counts them."""

    __slots__ = ("replay", "state", "sim")

    def __init__(self, replay: tuple, node: str, time: int, state, sim: Optional[dict] = None):
        self.replay, self.node, self.time = replay, node, time
        self.state, self.sim = state, sim

    def message(self, i: int) -> int:
        _, _, own, side_pos, fixing, _, _ = self.replay
        if i not in own[self.node]:
            raise KeyError(f"node {self.node!r} holds no message {i}")
        return self.state.message(side_pos[i]) if i in side_pos else fixing[i]

    def recv(self, sender: str, t: int) -> int:
        self._visible(sender, t)
        inst, local, _, _, _, replayed, order = self.replay
        if (sender, self.node) in local:
            return self.state.recv(sender, t)
        oi, direction = inst.slot(sender, self.node)
        key, sim = (oi, t, direction), self.sim
        if sim is None:
            sim = self.sim = {None: 0}
        value = sim.get(key)
        if value is None:
            done, stop = sim[None], t - REPLAY_ROUNDS
            while done < len(order) and order[done][0] <= stop:
                r, early, enc, tail = order[done]
                if early not in sim:
                    sim[early] = enc(_Replaying(self.replay, tail, r - 1, self.state, sim))
                sim[None] = done = done + 1
            enc = replayed.get(key)
            value = sim[key] = enc(_Replaying(self.replay, sender, t - 1, self.state, sim)) if enc else 0
        return value


class _SideMap:
    """A side code's map: the original encoder or decoder `fn` at `node`,
    run on one `_Replaying` view, at horizon `time`, of the side view it gets."""

    __slots__ = ("replay", "fn", "node", "time")

    def __init__(self, replay: tuple, fn, node: str, time: int):
        self.replay, self.fn, self.node, self.time = replay, fn, node, time

    def __call__(self, state):
        return self.fn(_Replaying(self.replay, self.node, self.time, state))


def _side_replay(inst: NetworkInstance, code: NetworkCode, side: set[str], e_idx: int,
                 s_idx: tuple[int, ...], fixing: dict[int, int]) -> tuple:
    """The `replay` of one side's `_Replaying` views: (inst, local, own,
    side_pos, fixing, replayed, order).  `local` holds the (sender, receiver)
    of every slot the side execution carries, those off the removed edge
    sent from the side.  Every other slot is replayed: `replayed` maps the
    slot key (edge, round, direction) of each one with an encoder to that
    map, and `order` lists them by round as (round, key, map, sender)."""
    ends = {(oi, d): pair for oi, e in enumerate(inst.edges)
            for d, pair in ((FWD, (e.a, e.b)), (BWD, (e.b, e.a)))}
    local = {pair for (oi, _), pair in ends.items() if oi != e_idx and pair[0] in side}
    order = sorted(((t, (oi, t, d), enc, ends[oi, d][0]) for (oi, t, d), enc in code.encoders.items()
                    if t > 0 and (oi, d) in ends and ends[oi, d] not in local), key=lambda item: item[0])
    replayed = {key: enc for _, key, enc, _ in order}
    own = {x: set(inst.sources_at(x)) for x in inst.vertices}
    return inst, local, own, {i: pos for pos, i in enumerate(s_idx)}, fixing, replayed, order


def _simulated_side_code(
    inst: NetworkInstance,
    code: NetworkCode,
    side: set[str],
    e_idx: int,
    s_idx: tuple[int, ...],
    d_idx: tuple[int, ...],
    side_inst: NetworkInstance,
    orig_of_side: Sequence[int],
    fixing: dict[int, int],
) -> NetworkCode:
    """Restrict the code to one side, replaying the removed edge `e_idx`.

    The side code runs every original encoder and decoder of the side on
    one kind of view: each map, a `_SideMap`, builds one `_Replaying`
    straight on the side view it gets.  A view reads each slot either from
    the side execution or from a replay.  The replayed slots are those
    whose sender is on the far side, plus both directions of the removed
    edge: with every far message fixed, the anchor (the edge's end in the
    side), which alone receives on them, can recompute them from its own
    inputs.  A map call's views replay a slot only when a read asks for it,
    and each one once (see `_Replaying`).
    """
    replay = _side_replay(inst, code, side, e_idx, s_idx, fixing)

    def restrict(j: int):
        keep = [pos for pos, i in enumerate(inst.demanded_at(j)) if i in s_idx]
        dec = _SideMap(replay, code.decoders[j], inst.terminals[j], code.outer_n)
        return lambda state: tuple(map(dec(state).__getitem__, keep))

    side_of = {oi: si for si, oi in enumerate(orig_of_side)}
    return NetworkCode(
        inner_n=code.inner_n,
        outer_n=code.outer_n,
        message_sizes=tuple(code.message_sizes[i] for i in s_idx),
        splits=AlphabetSplit(
            {(side_of[oi], t): shape for (oi, t), shape in code.splits.items() if oi in side_of}
        ),
        encoders={
            (side_of[oi], t, direction): _SideMap(replay, enc, slot_tail(inst, oi, direction), t - 1)
            for (oi, t, direction), enc in code.encoders.items()
            if oi in side_of
        },
        decoders={
            sj: restrict(j)
            for sj, j in enumerate(d_idx)
            if any(side_inst.demand[si][sj] for si in range(len(s_idx)))
        },
    )


def bridge_decompose(
    inst_with_e: NetworkInstance,
    u: str,
    v: str,
    code: NetworkCode,
    limit: int = 2 ** 20,
) -> BridgeDecomposition:
    """Split a bridged instance into two independently feasible halves.

    Each side fixes its foreign messages (those not fully demanded inside
    the side) to the values that minimize the side's conditional error,
    and gets the simulated code in which its anchor node replays the far
    side's transmissions internally.  The counts come from the one pass of
    the code's exhaustive check (check_feasibility, no rates): it observes
    every joint tuple it runs and counts, for both sides at once, the
    tuples that miss one of the side's demands, keyed by the side's foreign
    values.  A check whose sliced walk settles the code runs no tuple, and
    no side misses a demand.  The joint tuples follow check_feasibility's
    limit rule: past `limit` of them the walk may make `limit` map calls,
    and EnumerationTooLarge is raised only if it does not settle the code.

    The trace match walks the check's engine, the report's only one, over
    the box the check covers, the foreign messages at the fixing: each side
    encoder, run on the joint execution, must send the joint symbol of its
    slot.  A round-t encoder reads only earlier rounds, so by induction this
    holds exactly when every free tuple's side trace equals the original
    one, edge for edge.  Only the anchor's slots are walked: any other
    `_SideMap` is the original map on joint reads, which the check ran clean
    over the box, so it sends the joint symbol, even where a diverged side
    run would raise (a side map not built so is walked).  On a raising map,
    a mismatch or past the free tuples' map calls, each runs once on that
    engine, its walked maps compared; over `limit` raise EnumerationTooLarge.
    """
    minus = drop_edge(inst_with_e, u, v)
    comp_u = next(b for b in connected_components(minus) if u in b)
    if v in comp_u:
        raise NotABridge(f"{u!r}-{v!r} is not a bridge")
    return _decompose(code, inst_with_e, u, v, set(comp_u), None, 0, limit)[1]


def _decompose(code: NetworkCode, inst: NetworkInstance, u: str, v: str, u_set: set[str],
               rates: Optional[Sequence[Fraction]], epsilon: Fraction,
               limit: int) -> tuple[FeasibilityReport, BridgeDecomposition]:
    """The exhaustive check at `rates` of the bridged code, and
    bridge_decompose over the box it covers, counted from the
    tuples its joint loop runs; u_set is u's side."""
    e_idx = inst.edge_between(u, v)[0]
    sides = (u_set, set(inst.vertices) - u_set)
    parts = [_side_messages(inst, side) for side in sides]
    fails = [Counter() for _ in sides]

    def observe(msgs, decoded):
        for (_, foreign, demands), count in zip(parts, fails):
            if any(decoded[j][pos] != msgs[i] for i, j, pos in demands):
                count[tuple(msgs[i] for i in foreign)] += 1

    report, engine = _check(code, inst, rates, epsilon, "exhaustive", 1, 0, limit, observe)
    return report, BridgeDecomposition(*(
        _decompose_side(engine, side, e_idx, owned, foreign, count, limit)
        for side, (owned, foreign, _), count in zip(sides, parts, fails)
    ))


# -------------------------------------------------------------- path regime

def host_path_code(
    piped: NetworkCode,
    star_inst: NetworkInstance,
    host_inst: NetworkInstance,
    star_path: Sequence[str],
    host_path: Sequence[str],
) -> NetworkCode:
    """Merge a fresh relay path back onto the real path it shadows.

    star_inst contains both the original edges and a fresh path
    star_path; host_inst is the same graph with the fresh path folded
    onto host_path (capacities added).  Each host edge carries the star
    edges folded onto it, the original edge before its relay edge, as one
    mixed-radix value, the first star edge most significant.
    """
    if len(star_path) != len(host_path) or star_path[0] != host_path[0] or star_path[-1] != host_path[-1]:
        raise BadPath("path length/endpoint mismatch")
    to_host = dict(zip(star_path, host_path))
    originals = set(host_inst.vertices)

    # host slot (host edge, host direction) -> its parts (star sender, star
    # edge, star direction); star slot (edge, direction) -> (host edge, host
    # direction, position among the parts); part_of: the same by (star
    # sender, star node)
    parts: dict[tuple[int, str], list[tuple[str, int, str]]] = {}
    place: dict[tuple[int, str], tuple[int, str, int]] = {}
    part_of: dict[tuple[str, str], tuple[int, str, int]] = {}
    fresh_last = sorted(
        enumerate(star_inst.edges), key=lambda item: not {item[1].a, item[1].b} <= originals
    )
    for s_idx, se in fresh_last:
        for sender, node, s_dir in ((se.a, se.b, FWD), (se.b, se.a, BWD)):
            h_idx, h_dir = host_inst.slot(to_host.get(sender, sender), to_host.get(node, node))
            layout = parts.setdefault((h_idx, h_dir), [])
            place[(s_idx, s_dir)] = part_of[(sender, node)] = (h_idx, h_dir, len(layout))
            layout.append((sender, s_idx, s_dir))

    # host slot key (host edge, round, host direction) -> the star alphabet
    # sizes folded onto it (`ones` of its host slot when none is above 1),
    # and -> the star encoders (None for a part without one)
    ones = {slot: [1] * len(layout) for slot, layout in parts.items()}
    radices: dict[tuple[int, int, str], list[int]] = {}
    folds: dict[tuple[int, int, str], list] = {}
    for (s_idx, t), sizes in piped.splits.items():
        for s_dir, size in zip(DIRECTIONS, sizes):
            if size != 1:
                h_idx, h_dir, pos = place[(s_idx, s_dir)]
                radices.setdefault((h_idx, t, h_dir), ones[(h_idx, h_dir)][:])[pos] = size
    for (s_idx, t, s_dir), enc in piped.encoders.items():
        h_idx, h_dir, pos = place[(s_idx, s_dir)]
        folds.setdefault((h_idx, t, h_dir), [None] * len(parts[(h_idx, h_dir)]))[pos] = enc

    def star_recv(star_node: str):
        """star_node's star symbols, read from the host execution."""

        def recv(state, star_sender, t):
            h_idx, h_dir, pos = part_of[(star_sender, star_node)]
            symbol = state.recv(to_host.get(star_sender, star_sender), t)
            return split_digits(symbol, radices.get((h_idx, t, h_dir)) or ones[(h_idx, h_dir)])[pos]

        return recv

    recvs = {x: star_recv(x) for x in star_inst.vertices}

    def fold(h_idx: int, t: int, h_dir: str, encs: list):
        """Host encoder of round t: every part's star encoder, combined; a
        part outside its star slot's alphabet raises SymbolOutOfRange."""
        layout = parts[(h_idx, h_dir)]
        calls = [enc and remapped(enc, t - 1, recvs[sender]) for enc, (sender, _, _) in zip(encs, layout)]
        sizes = radices.get((h_idx, t, h_dir)) or ones[(h_idx, h_dir)]

        def name(pos: int) -> str:
            _, s_idx, s_dir = layout[pos]
            e = star_inst.edges[s_idx]
            return f"encoder on {e.a!r}-{e.b!r} t={t} {s_dir}"

        def encoder(state):
            return pack([call(state) if call else 0 for call in calls], sizes, name)

        return encoder

    split_table: dict[tuple[int, int], list[int]] = {}
    for (h_idx, t, h_dir), sizes in radices.items():
        split_table.setdefault((h_idx, t), [1, 1])[DIRECTIONS.index(h_dir)] = math.prod(sizes)

    return NetworkCode(
        inner_n=piped.inner_n,
        outer_n=piped.outer_n,
        message_sizes=piped.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders={key: fold(*key, encs) for key, encs in folds.items()},
        decoders={j: remapped(dec, piped.outer_n, recvs[host_inst.terminals[j]])
                  for j, dec in piped.decoders.items()},
    )


# ------------------------------------------------------------------ reports

class RateClaim(NamedTuple):
    source: int
    claimed_rate: Fraction
    achieved: bool


class PathVerification(NamedTuple):
    base_report: FeasibilityReport
    final_report: FeasibilityReport
    final_inner_n: int
    final_outer_n: int
    alpha: Fraction
    ell: int
    rate_claims: tuple[RateClaim, ...]
    passed: bool


class BridgeVerification(NamedTuple):
    base_report: FeasibilityReport
    decomposition: BridgeDecomposition
    cross_rate_ok: Optional[bool]
    passed: bool


class RemovalReport(NamedTuple):
    edge: tuple[str, str]
    lam: Fraction
    case: str  # "bridge" | "path"
    total_capacity: Fraction
    min_capacity: Fraction
    removal_c: Fraction
    f_lambda: Fraction
    degenerate: bool
    path: Optional[PathCase] = None
    delta: Optional[Fraction] = None
    alpha: Optional[Fraction] = None
    bridge: Optional[BridgeCase] = None
    cross_demands: tuple[tuple[int, int], ...] = ()
    cross_rate_ok: Optional[bool] = None
    f_rate_form: Optional[Fraction] = None
    verification: object = None


def _classify(inst: NetworkInstance, u: str, v: str, lam: Fraction):
    """(lam as a Fraction, classify_edge's case) for a positive lam."""
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveCapacity(f"lambda {lam}")
    return lam, classify_edge(inst, u, v)


def _bound(inst: NetworkInstance, u: str, v: str, lam: Fraction, case) -> RemovalReport:
    """The rate-loss bound of a classified probe, without verification."""
    total, smallest, c = removal_constant(inst)
    common = dict(edge=(u, v), lam=lam, total_capacity=total, min_capacity=smallest, removal_c=c)
    if isinstance(case, BridgeCase):
        u_set = set(case.u_side)
        cross = tuple(
            (i, j)
            for i in range(len(inst.sources))
            for j in range(len(inst.terminals))
            if inst.demand[i][j]
            and (inst.sources[i] in u_set) != (inst.terminals[j] in u_set)
        )
        return RemovalReport(
            **common, case="bridge", f_lambda=lam, degenerate=False, bridge=case, cross_demands=cross
        )
    delta = lam / case.gamma
    degenerate = lam > total
    return RemovalReport(
        **common,
        case="path",
        f_lambda=2 * lam if degenerate else c * lam,
        degenerate=degenerate,
        path=case,
        delta=delta,
        alpha=1 / (1 + delta),
    )


def path_case_bound(
    inst: NetworkInstance, u: str, v: str, lam: Fraction
) -> RemovalReport:
    """Rate-loss bound when u and v stay connected without the probe."""
    lam, case = _classify(inst, u, v, lam)
    if not isinstance(case, PathCase):
        raise NotABridge(f"{u!r}-{v!r} separates the graph; use the bridge regime")
    return _bound(inst, u, v, lam, case)


def edge_removal_report(
    inst: NetworkInstance,
    u: str,
    v: str,
    lam: Fraction,
    code: Optional[NetworkCode] = None,
    rates: Optional[Sequence[Fraction]] = None,
    epsilon: Fraction = Fraction(0),
    limit: int = 2 ** 20,
) -> RemovalReport:
    """Classify the probe edge, bound the removal cost, and (with a code)
    run the constructive verification chain end to end.  An `epsilon`
    outside [0, 1] raises MalformedDocument; `rates` of the wrong length
    or with a negative entry raise BadRate, with or without a code."""
    if not 0 <= epsilon <= 1:
        raise MalformedDocument(f"error tolerance {epsilon} outside [0, 1]")
    lam, case = _classify(inst, u, v, lam)
    report = _bound(inst, u, v, lam, case)
    if rates is not None:
        rates = checked_rates(rates, len(inst.sources))
        if report.case == "bridge":
            report = report._replace(cross_rate_ok=all(rates[i] <= lam for i, _ in report.cross_demands))
        else:
            report = report._replace(f_rate_form=report.delta / (1 + report.delta) * max(rates))
    if code is None:
        return report
    augmented = add_edge(inst, u, v, lam)
    if report.case == "bridge":
        base_rep, decomp = _decompose(code, augmented, u, v, set(report.bridge.u_side), rates,
                                      epsilon, limit)
        sides_ok = all(
            side.trace_match and side.conditional_error <= base_rep.measured_error
            for side in (decomp.u_side, decomp.v_side)
        )
        verification = BridgeVerification(
            base_report=base_rep,
            decomposition=decomp,
            cross_rate_ok=report.cross_rate_ok,
            passed=base_rep.passed and sides_ok and report.cross_rate_ok is not False,
        )
        return report._replace(verification=verification)

    base_rep, base = _check(code, augmented, rates, epsilon, "exhaustive", 1, 0, limit)
    tilde = interleave(code, augmented)
    nb = code.outer_n
    path_nodes = report.path.nodes
    ell = len(path_nodes)

    taken = set(inst.vertices)
    star_path = [u]
    for r in range(2, ell):
        name = f"relay{r}"
        while name in taken:
            name += "_"
        taken.add(name)
        star_path.append(name)
    star_path.append(v)
    star_inst = replace_edge_with_path(augmented, u, v, star_path, fresh=True)
    piped = pipeline_path(tilde, augmented, u, v, star_inst, ell)
    host_inst = replace_edge_with_path(augmented, u, v, path_nodes, fresh=False)
    hosted = host_path_code(piped, star_inst, host_inst, star_path, path_nodes)
    scaled = scale_code(hosted, 1 / report.alpha)

    final_eps = min(Fraction(1), nb * Fraction(epsilon))
    image = tuple(((_size(digits), size),) * nb for digits, size in zip(base.box, code.message_sizes))
    final_rep = _check(scaled, inst, None, final_eps, "exhaustive", 1, 0, limit, box=image)[0]

    claims = []
    for i, (rate, digits) in enumerate(zip(rates or (), image)):
        # the rate the final code carries: n/ceil(n/alpha) is alpha once
        # alpha divides n, and tends to it as n grows
        claimed = Fraction(code.inner_n, scaled.inner_n) * Fraction(nb, nb + ell) * rate
        exponent = claimed * scaled.outer_n * scaled.inner_n
        claims.append(
            RateClaim(
                source=i,
                claimed_rate=claimed,
                achieved=log2_at_least(_size(digits), exponent),
            )
        )
    verification = PathVerification(
        base_report=base_rep,
        final_report=final_rep,
        final_inner_n=scaled.inner_n,
        final_outer_n=scaled.outer_n,
        alpha=report.alpha,
        ell=ell,
        rate_claims=tuple(claims),
        passed=base_rep.passed
        and final_rep.passed
        and all(cl.achieved for cl in claims),
    )
    return report._replace(verification=verification)
