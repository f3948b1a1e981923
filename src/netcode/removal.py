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
  demands are capped by lam.
- path: u and v stay connected.  The probe's traffic is pipelined over
  the widest u-v path (bottleneck gamma) and the whole instance is scaled
  by alpha = gamma/(gamma+lam) to make room, costing each rate at most
  f(lam) = (2W/w)*lam in the limit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .codes import (
    BWD,
    FWD,
    AlphabetSplit,
    FeasibilityReport,
    NetworkCode,
    StateView,
    check_feasibility,
    decode_outputs,
    execute,
)
from .errors import (
    BadPath,
    EdgeMissing,
    EdgePresent,
    EnumerationTooLarge,
    NonPositiveCapacity,
    NotABridge,
    UnknownVertex,
)
from .graphs import (
    NetworkInstance,
    add_edge,
    connected_components,
    drop_edge,
    removal_constant,
    replace_edge_with_path,
    widest_path,
)
from .rational import combine_digits, log2_at_least, split_digits
from .transforms import interleave, pipeline_path, scale_code


@dataclass(frozen=True)
class BridgeCase:
    u_side: tuple[str, ...]
    v_side: tuple[str, ...]


@dataclass(frozen=True)
class PathCase:
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
    for block in connected_components(inst):
        if u in block:
            if v in block:
                wp = widest_path(inst, u, v)
                return PathCase(nodes=wp.nodes, gamma=wp.gamma)
            rest = tuple(sorted(set(inst.vertices) - set(block)))
            return BridgeCase(u_side=block, v_side=rest)
    raise UnknownVertex(f"unknown vertex {u!r}")  # unreachable


# ----------------------------------------------------------- bridge regime

@dataclass(frozen=True)
class SideDecomposition:
    """One side of a bridge split with its simulated code."""

    vertices: tuple[str, ...]
    source_indices: tuple[int, ...]
    terminal_indices: tuple[int, ...]
    fixing: dict[int, int]
    conditional_error: Optional[Fraction]
    instance: Optional[NetworkInstance]
    code: Optional[NetworkCode]
    trace_match: bool


@dataclass(frozen=True)
class BridgeDecomposition:
    u_side: SideDecomposition
    v_side: SideDecomposition


def _induced_instance(
    inst: NetworkInstance, side: set[str], s_idx: Sequence[int], d_idx: Sequence[int]
) -> Optional[NetworkInstance]:
    demand = tuple(
        tuple(inst.demand[i][j] for j in d_idx) for i in s_idx
    )
    if not s_idx or not d_idx or not any(any(row) for row in demand):
        return None
    return NetworkInstance(
        vertices=tuple(x for x in inst.vertices if x in side),
        edges=tuple(e for e in inst.edges if e.a in side and e.b in side),
        sources=tuple(inst.sources[i] for i in s_idx),
        terminals=tuple(inst.terminals[j] for j in d_idx),
        demand=demand,
    )


def _decompose_side(
    inst: NetworkInstance,
    code: NetworkCode,
    side: set[str],
    anchor: str,
    other_anchor: str,
    limit: int,
) -> SideDecomposition:
    k = len(inst.sources)
    s_idx = tuple(
        i
        for i in range(k)
        if inst.sources[i] in side
        and all(
            inst.terminals[j] in side
            for j in range(len(inst.terminals))
            if inst.demand[i][j]
        )
    )
    d_idx = tuple(j for j, d in enumerate(inst.terminals) if d in side)
    foreign = tuple(i for i in range(k) if i not in s_idx)

    demands = [
        (i, j)
        for i in s_idx
        for j in range(len(inst.terminals))
        if inst.demand[i][j]
    ]

    total = 1
    for s in code.message_sizes:
        total *= s
    if total > limit:
        raise EnumerationTooLarge(f"{total} message tuples exceed limit {limit}")

    free_sizes = [code.message_sizes[i] for i in s_idx]
    free_total = 1
    for s in free_sizes:
        free_total *= s

    def run(fix: dict[int, int]) -> Fraction:
        fails = 0
        for free in itertools.product(*(range(s) for s in free_sizes)):
            msgs = [0] * k
            for i, w in fix.items():
                msgs[i] = w
            for i, w in zip(s_idx, free):
                msgs[i] = w
            trace = execute(code, inst, msgs)
            decoded = decode_outputs(code, inst, trace)
            for i, j in demands:
                pos = inst.demanded_at(j).index(i)
                if decoded[j][pos] != msgs[i]:
                    fails += 1
                    break
        return Fraction(fails, free_total)

    best_fix: dict[int, int] = {}
    best_err: Optional[Fraction] = None
    for combo in itertools.product(*(range(code.message_sizes[i]) for i in foreign)):
        fix = dict(zip(foreign, combo))
        err = run(fix)
        if best_err is None or err < best_err:
            best_fix, best_err = fix, err

    side_inst = _induced_instance(inst, side, s_idx, d_idx)
    if side_inst is None:
        return SideDecomposition(
            vertices=tuple(sorted(side)),
            source_indices=s_idx,
            terminal_indices=d_idx,
            fixing=best_fix,
            conditional_error=best_err,
            instance=None,
            code=None,
            trace_match=True,
        )

    side_code = _simulated_side_code(
        inst, code, side, anchor, other_anchor, s_idx, d_idx, side_inst, best_fix
    )
    match = _traces_match(
        inst, code, side_inst, side_code, side, s_idx, best_fix, free_sizes
    )
    return SideDecomposition(
        vertices=tuple(sorted(side)),
        source_indices=s_idx,
        terminal_indices=d_idx,
        fixing=best_fix,
        conditional_error=best_err,
        instance=side_inst,
        code=side_code,
        trace_match=match,
    )


def _simulated_side_code(
    inst: NetworkInstance,
    code: NetworkCode,
    side: set[str],
    anchor: str,
    other_anchor: str,
    s_idx: tuple[int, ...],
    d_idx: tuple[int, ...],
    side_inst: NetworkInstance,
    fixing: dict[int, int],
) -> NetworkCode:
    """Restrict the code to one side, replaying the lost edge internally.

    Node `anchor` reconstructs every symbol the removed edge would have
    delivered by simulating the entire far side round by round: all far
    messages are fixed, and the anchor can recompute its own past
    transmissions from its own inputs.
    """
    e_idx = inst.edge_between(anchor, other_anchor)[0]
    anchor_dir = FWD if inst.edges[e_idx].a == anchor else BWD
    other_dir = BWD if anchor_dir == FWD else FWD
    side_pos = {i: pos for pos, i in enumerate(s_idx)}
    orig_of_side = [
        next(
            oi
            for oi, oe in enumerate(inst.edges)
            if (oe.a, oe.b) == (se.a, se.b)
        )
        for se in side_inst.edges
    ]
    side_of_orig = {oi: si for si, oi in enumerate(orig_of_side)}
    far_edges = [
        oi
        for oi, oe in enumerate(inst.edges)
        if oe.a not in side and oi != e_idx
    ]

    # The side instance renumbers sources, so views translate indices.
    def make_full_view(state, node: str, horizon: int, cross):
        def message(i):
            if i in side_pos:
                return state.message(side_pos[i])
            return fixing[i]

        def recv(sender, t):
            if sender == other_anchor and node == anchor:
                return cross(t)
            return state.recv(sender, t)

        return StateView(node, horizon, message, recv)

    def replay_far(state, t_query: int) -> int:
        """Symbol the far anchor sends across the removed edge at t_query."""
        anchor_out: dict[int, int] = {}
        far: dict[tuple[int, int, str], int] = {}

        def far_lookup(node):
            def recv(sender, t):
                if sender == anchor and node == other_anchor:
                    return anchor_out[t]
                oi, sender_is_a = inst.edge_between(sender, node)
                return far.get((oi, t, FWD if sender_is_a else BWD), 0)

            return recv

        def cross(t):
            return far.get((e_idx, t, other_dir), 0)

        for t in range(1, t_query + 1):
            enc = code.encoders.get((e_idx, t, anchor_dir))
            if enc is not None:
                view = make_full_view(state, anchor, t - 1, cross)
                anchor_out[t] = enc(view)
            else:
                anchor_out[t] = 0
            for oi in far_edges + [e_idx]:
                for direction in (FWD, BWD):
                    if oi == e_idx and direction != other_dir:
                        continue
                    enc = code.encoders.get((oi, t, direction))
                    if enc is None:
                        continue
                    tail = (
                        inst.edges[oi].a if direction == FWD else inst.edges[oi].b
                    )
                    def message(i, tail=tail):
                        if i in side_pos:
                            raise KeyError(f"free message {i} on the far side")
                        return fixing[i]

                    view = StateView(tail, t - 1, message, far_lookup(tail))
                    far[(oi, t, direction)] = enc(view)
        return far.get((e_idx, t_query, other_dir), 0)

    def wrap_encoder(orig_key):
        base = code.encoders[orig_key]
        oi, t, direction = orig_key
        tail = inst.edges[oi].a if direction == FWD else inst.edges[oi].b

        def encoder(state):
            view = make_full_view(
                state, tail, t - 1, lambda tq: replay_far(state, tq)
            )
            return base(view)

        return encoder

    encoders = {}
    for (oi, t, direction), _ in code.encoders.items():
        si = side_of_orig.get(oi)
        if si is not None:
            encoders[(si, t, direction)] = wrap_encoder((oi, t, direction))

    split_table = {}
    for (oi, t), shape in code.splits.items():
        si = side_of_orig.get(oi)
        if si is not None:
            split_table[(si, t)] = shape

    def wrap_decoder(j: int):
        base = code.decoders[j]
        node = inst.terminals[j]
        orig_demanded = inst.demanded_at(j)
        keep = [pos for pos, i in enumerate(orig_demanded) if i in side_pos]

        def decoder(state):
            view = make_full_view(
                state, node, code.outer_n, lambda tq: replay_far(state, tq)
            )
            full = base(view)
            return tuple(full[pos] for pos in keep)

        return decoder

    decoders = {}
    for sj, j in enumerate(d_idx):
        if any(side_inst.demand[si][sj] for si in range(len(s_idx))):
            decoders[sj] = wrap_decoder(j)

    return NetworkCode(
        inner_n=code.inner_n,
        outer_n=code.outer_n,
        message_sizes=tuple(code.message_sizes[i] for i in s_idx),
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders=decoders,
    )


def _traces_match(
    inst: NetworkInstance,
    code: NetworkCode,
    side_inst: NetworkInstance,
    side_code: NetworkCode,
    side: set[str],
    s_idx: tuple[int, ...],
    fixing: dict[int, int],
    free_sizes: list[int],
) -> bool:
    """Simulated side traces must equal the original ones edge for edge."""
    k = len(inst.sources)
    pairs = [(se.a, se.b) for se in side_inst.edges]
    for free in itertools.product(*(range(s) for s in free_sizes)):
        msgs = [0] * k
        for i, w in fixing.items():
            msgs[i] = w
        for i, w in zip(s_idx, free):
            msgs[i] = w
        full = execute(code, inst, msgs)
        part = execute(side_code, side_inst, list(free))
        for pair_pos, (a, b) in enumerate(pairs):
            oi = inst.edge_between(a, b)[0]
            for t in range(1, code.outer_n + 1):
                if (
                    full.fwd[oi][t - 1] != part.fwd[pair_pos][t - 1]
                    or full.bwd[oi][t - 1] != part.bwd[pair_pos][t - 1]
                ):
                    return False
    return True


def bridge_decompose(
    inst_with_e: NetworkInstance,
    u: str,
    v: str,
    code: NetworkCode,
    limit: int = 2 ** 20,
) -> BridgeDecomposition:
    """Split a bridged instance into two independently feasible halves.

    For each side, enumerates every fixing of the foreign messages (those
    not fully demanded inside the side), picks the one minimizing the
    side's conditional error, and builds the simulated code in which the
    side's anchor node replays the far side's transmissions internally.
    """
    found = inst_with_e.edge_between(u, v)
    if found is None:
        raise EdgeMissing(f"no edge {u!r}-{v!r}")
    minus = drop_edge(inst_with_e, u, v)
    comp_u = next(b for b in connected_components(minus) if u in b)
    if v in comp_u:
        raise NotABridge(f"{u!r}-{v!r} is not a bridge")
    u_set = set(comp_u)
    v_set = set(inst_with_e.vertices) - u_set

    return BridgeDecomposition(
        u_side=_decompose_side(inst_with_e, code, u_set, u, v, limit),
        v_side=_decompose_side(inst_with_e, code, v_set, v, u, limit),
    )


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
    onto host_path (capacities added).  Each host path edge then carries
    the pair (original symbol, relay symbol) as one mixed-radix value,
    with the original component most significant.
    """
    if len(star_path) != len(host_path) or star_path[0] != host_path[0] or star_path[-1] != host_path[-1]:
        raise BadPath("path length/endpoint mismatch")
    to_host = {x: h for x, h in zip(star_path, host_path)}
    chain_pairs = {
        frozenset((star_path[r], star_path[r + 1])) for r in range(len(star_path) - 1)
    }

    # host edge -> component records
    plain: dict[int, int] = {}  # host idx -> star idx (same pair)
    combo: dict[int, tuple[int, int, bool]] = {}  # host idx -> (orig star idx, relay star idx, host edge runs along the chain)
    host_pairs = {
        frozenset((host_path[r], host_path[r + 1])): r for r in range(len(host_path) - 1)
    }
    for h_idx, he in enumerate(host_inst.edges):
        r = host_pairs.get(frozenset((he.a, he.b)))
        if r is None:
            plain[h_idx] = star_inst.edge_between(he.a, he.b)[0]
        else:
            orig_idx = star_inst.edge_between(he.a, he.b)[0]
            relay_idx = star_inst.edge_between(star_path[r], star_path[r + 1])[0]
            combo[h_idx] = (orig_idx, relay_idx, he.a == host_path[r])

    def star_dir(star_idx: int, sender: str) -> str:
        return FWD if star_inst.edges[star_idx].a == sender else BWD

    def pair_radices(h_idx: int, t: int, host_sender: str) -> tuple[int, int, int, str, int, str]:
        """(osize, rsize, orig_idx, orig_dir, relay_idx, relay_dir)."""
        orig_idx, relay_idx, _ = combo[h_idx]
        he = host_inst.edges[h_idx]
        r = host_pairs[frozenset((he.a, he.b))]
        chain_forward = host_sender == host_path[r]
        o_dir = star_dir(orig_idx, host_sender)
        rel_senders = (star_path[r], star_path[r + 1])
        rel_sender = rel_senders[0] if chain_forward else rel_senders[1]
        r_dir = star_dir(relay_idx, rel_sender)
        osize = piped.splits.size(orig_idx, t, o_dir)
        rsize = piped.splits.size(relay_idx, t, r_dir)
        return osize, rsize, orig_idx, o_dir, relay_idx, r_dir

    def star_view(state, star_node: str, horizon: int):
        """Present the host execution as the star instance's execution."""

        def recv(star_sender, t):
            host_sender = to_host.get(star_sender, star_sender)
            host_node = to_host.get(star_node, star_node)
            h_idx = host_inst.edge_between(host_sender, host_node)[0]
            symbol = state.recv(host_sender, t)
            if h_idx in plain:
                return symbol
            osize, rsize, *_ = pair_radices(h_idx, t, host_sender)
            orig, relay = split_digits(symbol, (osize, rsize))
            if frozenset((star_sender, star_node)) in chain_pairs:
                return relay
            return orig

        return StateView(to_host.get(star_node, star_node), horizon, state.message, recv)

    n_out = piped.outer_n
    encoders = {}
    split_table: dict[tuple[int, int], tuple[int, int]] = {}

    for h_idx, star_idx in plain.items():
        he = host_inst.edges[h_idx]
        for t in range(1, n_out + 1):
            shape = piped.splits.shape(star_idx, t)
            flip = star_inst.edges[star_idx].a != he.a
            if flip:
                shape = (shape[1], shape[0])
            if shape != (1, 1):
                split_table[(h_idx, t)] = shape
            for direction in (FWD, BWD):
                sender = he.a if direction == FWD else he.b
                s_dir = star_dir(star_idx, sender)
                base = piped.encoders.get((star_idx, t, s_dir))
                if base is None:
                    continue

                def encoder(state, base=base, sender=sender, t=t):
                    return base(star_view(state, sender, t - 1))

                encoders[(h_idx, t, direction)] = encoder

    for h_idx in combo:
        he = host_inst.edges[h_idx]
        for t in range(1, n_out + 1):
            f_sizes = pair_radices(h_idx, t, he.a)
            b_sizes = pair_radices(h_idx, t, he.b)
            shape = (f_sizes[0] * f_sizes[1], b_sizes[0] * b_sizes[1])
            if shape != (1, 1):
                split_table[(h_idx, t)] = shape
            for direction, sizes in ((FWD, f_sizes), (BWD, b_sizes)):
                osize, rsize, orig_idx, o_dir, relay_idx, r_dir = sizes
                if osize * rsize == 1:
                    continue
                host_sender = he.a if direction == FWD else he.b
                o_enc = piped.encoders.get((orig_idx, t, o_dir))
                r_enc = piped.encoders.get((relay_idx, t, r_dir))
                rel_sender = star_inst.edges[relay_idx].a if r_dir == FWD else star_inst.edges[relay_idx].b

                def encoder(
                    state,
                    o_enc=o_enc,
                    r_enc=r_enc,
                    host_sender=host_sender,
                    rel_sender=rel_sender,
                    osize=osize,
                    rsize=rsize,
                    t=t,
                ):
                    orig = o_enc(star_view(state, host_sender, t - 1)) if o_enc else 0
                    relay = r_enc(star_view(state, rel_sender, t - 1)) if r_enc else 0
                    return combine_digits([orig, relay], (osize, rsize))

                encoders[(h_idx, t, direction)] = encoder

    def make_decoder(j):
        base = piped.decoders[j]
        node = host_inst.terminals[j]

        def decoder(state):
            return base(star_view(state, node, n_out))

        return decoder

    decoders = {j: make_decoder(j) for j in piped.decoders}

    return NetworkCode(
        inner_n=piped.inner_n,
        outer_n=n_out,
        message_sizes=piped.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders=decoders,
    )


# ------------------------------------------------------------------ reports

@dataclass(frozen=True)
class RateClaim:
    source: int
    claimed_rate: Fraction
    achieved: bool


@dataclass(frozen=True)
class PathVerification:
    base_report: FeasibilityReport
    final_report: FeasibilityReport
    final_inner_n: int
    final_outer_n: int
    alpha: Fraction
    ell: int
    rate_claims: tuple[RateClaim, ...]
    passed: bool


@dataclass(frozen=True)
class BridgeVerification:
    base_report: FeasibilityReport
    decomposition: BridgeDecomposition
    cross_rate_ok: Optional[bool]
    passed: bool


@dataclass(frozen=True)
class RemovalReport:
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


def path_case_bound(
    inst: NetworkInstance, u: str, v: str, lam: Fraction
) -> RemovalReport:
    """Rate-loss bound when u and v stay connected without the probe."""
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveCapacity(f"lambda {lam}")
    case = classify_edge(inst, u, v)
    if not isinstance(case, PathCase):
        raise NotABridge(f"{u!r}-{v!r} separates the graph; use the bridge regime")
    total, smallest, c = removal_constant(inst)
    delta = lam / case.gamma
    alpha = 1 / (1 + delta)
    degenerate = lam > total
    return RemovalReport(
        edge=(u, v),
        lam=lam,
        case="path",
        total_capacity=total,
        min_capacity=smallest,
        removal_c=c,
        f_lambda=2 * lam if degenerate else c * lam,
        degenerate=degenerate,
        path=case,
        delta=delta,
        alpha=alpha,
    )


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
    run the constructive verification chain end to end."""
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveCapacity(f"lambda {lam}")
    case = classify_edge(inst, u, v)
    total, smallest, c = removal_constant(inst)

    if isinstance(case, BridgeCase):
        u_set = set(case.u_side)
        cross = tuple(
            (i, j)
            for i in range(len(inst.sources))
            for j in range(len(inst.terminals))
            if inst.demand[i][j]
            and (inst.sources[i] in u_set) != (inst.terminals[j] in u_set)
        )
        cross_ok = None
        if rates is not None:
            cross_ok = all(Fraction(rates[i]) <= lam for i, _ in cross)
        report = RemovalReport(
            edge=(u, v),
            lam=lam,
            case="bridge",
            total_capacity=total,
            min_capacity=smallest,
            removal_c=c,
            f_lambda=lam,
            degenerate=False,
            bridge=case,
            cross_demands=cross,
            cross_rate_ok=cross_ok,
        )
        if code is None:
            return report
        augmented = add_edge(inst, u, v, lam)
        base_rep = check_feasibility(
            code, augmented, rates=rates, epsilon=epsilon, limit=limit
        )
        decomp = bridge_decompose(augmented, u, v, code, limit=limit)
        sides_ok = all(
            side.conditional_error is None
            or side.conditional_error <= base_rep.measured_error
            for side in (decomp.u_side, decomp.v_side)
        ) and decomp.u_side.trace_match and decomp.v_side.trace_match
        verification = BridgeVerification(
            base_report=base_rep,
            decomposition=decomp,
            cross_rate_ok=cross_ok,
            passed=base_rep.passed and sides_ok and (cross_ok is not False),
        )
        return RemovalReport(
            **{**report.__dict__, "verification": verification}
        )

    report = path_case_bound(inst, u, v, lam)
    f_rate = None
    if rates is not None:
        f_rate = (report.delta / (1 + report.delta)) * max(Fraction(r) for r in rates)
    if code is None:
        return RemovalReport(**{**report.__dict__, "f_rate_form": f_rate})

    augmented = add_edge(inst, u, v, lam)
    base_rep = check_feasibility(
        code, augmented, rates=rates, epsilon=epsilon, limit=limit
    )
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
    scaled.splits.validate(inst, scaled.inner_n, scaled.outer_n)

    final_eps = min(Fraction(1), nb * Fraction(epsilon))
    final_rep = check_feasibility(scaled, inst, epsilon=final_eps, limit=limit)

    claims = []
    if rates is not None:
        for i, rate in enumerate(rates):
            claimed = report.alpha * Fraction(nb, nb + ell) * Fraction(rate)
            exponent = claimed * scaled.outer_n * scaled.inner_n
            claims.append(
                RateClaim(
                    source=i,
                    claimed_rate=claimed,
                    achieved=log2_at_least(scaled.message_sizes[i], exponent),
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
    return RemovalReport(
        **{**report.__dict__, "f_rate_form": f_rate, "verification": verification}
    )
