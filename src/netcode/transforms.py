"""Code transforms.

Each function takes a code (plus the instance it runs on, when capacities
matter) and returns a new code whose encoders wrap the old ones behind a
reinterpreted view of the execution.  Nothing is retrained or searched:
the output code is correct by construction, and the executor's causality
guard will raise if a schedule ever reads a symbol before it is committed.

Transforms provided:

- parallel_repeat: m independent sessions packed into one symbol per slot.
- amplify: outer code + per-session message permutations; converts a small
  error probability into a smaller one at slightly reduced rate.
- interleave: N sessions staggered so that every symbol is consumed one
  sub-block after it is produced.
- pipeline_path: re-routes one edge of an interleaved code over a path,
  overlapping the per-hop delays inside each widened sub-block.
- scale_code: re-hosts a code between capacity-scaled instances.
- reblock: trades a long inner blocklength for more rounds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .codes import (
    BWD,
    FWD,
    AlphabetSplit,
    NetworkCode,
    StateView,
    check_feasibility,
    edge_alphabets,
)
from .errors import (
    AlphabetInclusionFails,
    AlphabetTooSmallForRS,
    BadPathInstance,
    DistanceTooSmall,
    EdgeMissing,
    EnumerationTooLarge,
    MalformedDocument,
    NonPositiveScale,
    NotInterleaved,
    SeedSearchFailed,
)
from .graphs import NetworkInstance
from .rational import ceil_frac, ceil_mul, ceil_root, combine_digits, split_digits


_REVERSE = {FWD: BWD, BWD: FWD}


def _slot_size(code: NetworkCode, inst: NetworkInstance, sender: str, node: str, t: int) -> int:
    """Alphabet size of the directional slot sender -> node at round t."""
    found = inst.edge_between(sender, node)
    if found is None:
        raise LookupError(f"no edge {sender!r}-{node!r}")
    idx, sender_is_a = found
    return code.splits.size(idx, t, FWD if sender_is_a else BWD)


# ------------------------------------------------------------------ sessions

def _pack_sessions(
    code: NetworkCode,
    inst: NetworkInstance,
    count: int,
    staggered: bool = False,
    message_parts=None,
    join=None,
):
    """Session views and decoders for `count` runs of `code` in one host code.

    Session j (0-based) of a host view sees message i as
    message_parts(i, w)[j], w being the host's message i (by default the
    mixed-radix digits of w).  Its round-t symbol is digit j of the host's
    round-t symbol when the sessions sit side by side, or the host's round
    (t-1)*count + j + 1 symbol when they are staggered; a staggered view
    of host time T sees base rounds up to T // count, which is t-1 for an
    encoder of base round t and N for a decoder.  Each host message and
    symbol is split at most once per host view, however many sessions read
    it.

    Returns (sessions, decoders).  sessions(state) maps j to the view of
    session j.  Each decoder runs the base decoder on every session and
    joins, per demanded source i, the session outputs with join(i, outputs)
    (by default the mixed-radix combination).
    """
    if message_parts is None:
        def message_parts(i, w):
            return split_digits(w, (code.message_sizes[i],) * count)

        def join(i, parts):
            return combine_digits(parts, (code.message_sizes[i],) * count)

    def sessions(state):
        node = state.node
        horizon = state.time // count if staggered else state.time
        messages, symbols = {}, {}

        def view(j: int) -> StateView:
            def message(i):
                parts = messages.get(i)
                if parts is None:
                    parts = messages[i] = message_parts(i, state.message(i))
                return parts[j]

            def recv(sender, t):
                if staggered:
                    return state.recv(sender, (t - 1) * count + j + 1)
                parts = symbols.get((sender, t))
                if parts is None:
                    radix = _slot_size(code, inst, sender, node, t)
                    parts = symbols[(sender, t)] = split_digits(
                        state.recv(sender, t), (radix,) * count
                    )
                return parts[j]

            return StateView(node, horizon, message, recv)

        return view

    def make_decoder(j_term):
        base = code.decoders[j_term]
        demanded = inst.demanded_at(j_term)

        def decoder(state):
            view = sessions(state)
            outputs = [base(view(j)) for j in range(count)]
            return tuple(
                join(i, [out[pos] for out in outputs])
                for pos, i in enumerate(demanded)
            )

        return decoder

    return sessions, {j: make_decoder(j) for j in code.decoders}


def _side_by_side(
    code: NetworkCode,
    inst: NetworkInstance,
    m: int,
    message_sizes: tuple[int, ...],
    message_parts=None,
    join=None,
) -> NetworkCode:
    """m sessions packed into every directional slot (see _pack_sessions)."""
    sessions, decoders = _pack_sessions(
        code, inst, m, message_parts=message_parts, join=join
    )

    def make_encoder(key):
        base = code.encoders[key]
        radix = code.splits.size(*key)

        def encoder(state):
            view = sessions(state)
            return combine_digits([base(view(j)) for j in range(m)], (radix,) * m)

        return encoder

    return NetworkCode(
        inner_n=code.inner_n * m,
        outer_n=code.outer_n,
        message_sizes=message_sizes,
        splits=AlphabetSplit(
            {key: (f ** m, b ** m) for key, (f, b) in code.splits.items()}
        ),
        encoders={key: make_encoder(key) for key in code.encoders},
        decoders=decoders,
    )


def parallel_repeat(code: NetworkCode, inst: NetworkInstance, m: int) -> NetworkCode:
    """Run m independent sessions of the code side by side.

    Inner blocklength grows to n*m; every directional slot carries the
    mixed-radix pack of the m session symbols, every message space becomes
    an m-fold product.  Rates are unchanged.
    """
    if m < 1:
        raise MalformedDocument("session count must be >= 1")
    return _side_by_side(code, inst, m, tuple(s ** m for s in code.message_sizes))


# ---------------------------------------------------------------- outer codes

def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


@dataclass(frozen=True)
class OuterCodeSpec:
    """Block code over [q] used to protect one source across m sessions.

    family 'repetition': k=1, distance m.  family 'reed_solomon': prime q,
    q >= m, k = ceil(rate_target*m), distance m-k+1 (evaluation points
    0..m-1).  Messages are k-tuples over [q], indexed in row-major order.
    """

    family: str
    length: int
    alphabet: int
    rate_target: Fraction
    k: int
    distance: int


def make_outer_spec(
    family: str, m: int, q: int, rate_target: Optional[Fraction] = None
) -> OuterCodeSpec:
    if m < 1 or q < 1:
        raise MalformedDocument("outer code needs m >= 1 and q >= 1")
    if family == "repetition" or q == 1:
        return OuterCodeSpec(
            family="repetition",
            length=m,
            alphabet=q,
            rate_target=Fraction(1, m),
            k=1,
            distance=m,
        )
    if family != "reed_solomon":
        raise MalformedDocument(f"unknown outer code family {family!r}")
    if rate_target is None:
        raise MalformedDocument("reed_solomon needs a rate_target")
    rate_target = Fraction(rate_target)
    k = ceil_frac(rate_target * m)
    if not 1 <= k <= m:
        raise MalformedDocument(f"rate target {rate_target} gives k={k} outside 1..{m}")
    if q < m:
        raise AlphabetTooSmallForRS(f"need q >= m, got q={q}, m={m}")
    if not _is_prime(q):
        raise MalformedDocument(
            f"reed_solomon here works over prime fields only, q={q}"
        )
    return OuterCodeSpec(
        family="reed_solomon",
        length=m,
        alphabet=q,
        rate_target=rate_target,
        k=k,
        distance=m - k + 1,
    )


def outer_encode(spec: OuterCodeSpec, message: Sequence[int]) -> tuple[int, ...]:
    if len(message) != spec.k or any(not 0 <= x < max(spec.alphabet, 1) for x in message):
        raise MalformedDocument(f"message {message!r} not a k-tuple over [q]")
    if spec.family == "repetition":
        return (message[0],) * spec.length if spec.alphabet > 1 else (0,) * spec.length
    q = spec.alphabet
    out = []
    for point in range(spec.length):
        acc = 0
        for coeff in reversed(message):
            acc = (acc * point + coeff) % q
        out.append(acc)
    return tuple(out)


def nearest_codeword_decode(
    word: Sequence[int], spec: OuterCodeSpec, limit: int = 2 ** 16
) -> tuple[int, ...]:
    """Minimum-Hamming-distance decoding by full message enumeration.

    Ties go to the smallest message index (row-major over the k digits).
    Corrects any pattern of up to floor((d-1)/2) corruptions.
    """
    if len(word) != spec.length:
        raise MalformedDocument(f"word length {len(word)} != {spec.length}")
    q = max(spec.alphabet, 1)
    if q ** spec.k > limit:
        raise EnumerationTooLarge(f"{q}**{spec.k} candidate messages exceed {limit}")
    best = None
    best_dist = spec.length + 1
    for message in itertools.product(range(q), repeat=spec.k):
        cw = outer_encode(spec, message)
        dist = sum(1 for a, b in zip(cw, word) if a != b)
        if dist < best_dist:
            best, best_dist = message, dist
    return best


# ------------------------------------------------------------------- amplify

def generate_permutations(
    seed: int, message_sizes: Sequence[int], m: int
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Seeded per-(source, session) permutations of each message alphabet."""
    rng = random.Random(seed)
    out = []
    for size in message_sizes:
        row = []
        for _ in range(m):
            perm = list(range(size))
            rng.shuffle(perm)
            row.append(tuple(perm))
        out.append(tuple(row))
    return tuple(out)


def amplify(
    code: NetworkCode,
    inst: NetworkInstance,
    m: int,
    family: str,
    base_error: Fraction,
    rate_target: Optional[Fraction] = None,
    seed: int = 0,
    perms=None,
    strict: bool = True,
) -> NetworkCode:
    """Outer-code the messages across m parallel sessions.

    Source i's message becomes a k_i-tuple over its base space, encoded to
    an m-symbol codeword; session j transmits the permuted symbol
    perms[i][j][codeword[j]], and decoding inverts the permutations and
    applies nearest-codeword decoding.

    With `strict` the outer distance must satisfy d >= 4*ceil(eps*m) + 1,
    the threshold under which nearest-codeword decoding provably wins
    whenever at most 2*eps*m sessions misdecode; pass strict=False to
    build the code anyway and let measurement judge it.
    """
    base_error = Fraction(base_error)
    if not 0 <= base_error <= 1:
        raise MalformedDocument(f"base error {base_error} outside [0, 1]")
    specs = [
        make_outer_spec(family, m, q, rate_target) for q in code.message_sizes
    ]
    if strict:
        need = 4 * ceil_frac(base_error * m) + 1
        for i, spec in enumerate(specs):
            if code.message_sizes[i] > 1 and spec.distance < need:
                raise DistanceTooSmall(
                    f"outer distance {spec.distance} < {need} needed for "
                    f"base error {base_error} at m={m} (source {i})"
                )

    if perms is None:
        perms = generate_permutations(seed, code.message_sizes, m)
    for i, row in enumerate(perms):
        if len(row) != m or any(
            sorted(p) != list(range(code.message_sizes[i])) for p in row
        ):
            raise MalformedDocument(f"bad permutation set for source {i}")
    inverses = tuple(
        tuple(tuple(sorted(range(len(p)), key=p.__getitem__)) for p in row)
        for row in perms
    )

    def message_parts(i: int, w: int) -> tuple[int, ...]:
        """The m permuted codeword symbols for message w of source i."""
        spec = specs[i]
        cw = outer_encode(spec, split_digits(w, (max(spec.alphabet, 1),) * spec.k))
        return tuple(perms[i][j][cw[j]] for j in range(m))

    def join(i: int, parts) -> int:
        spec = specs[i]
        word = tuple(inverses[i][j][parts[j]] for j in range(m))
        digits = nearest_codeword_decode(word, spec)
        return combine_digits(digits, (max(spec.alphabet, 1),) * spec.k)

    sizes = tuple(max(spec.alphabet, 1) ** spec.k for spec in specs)
    return _side_by_side(code, inst, m, sizes, message_parts, join)


def find_amplify_seed(
    code: NetworkCode,
    inst: NetworkInstance,
    m: int,
    family: str,
    base_error: Fraction,
    target_error: Fraction,
    rate_target: Optional[Fraction] = None,
    strict: bool = False,
    mode: str = "exhaustive",
    trials: int = 10 ** 4,
    check_seed: int = 0,
    max_tries: int = 64,
):
    """Retry seeds until the amplified code measures below target_error.

    Returns (seed, amplified code, feasibility report).  A good seed exists
    with overwhelming probability once the outer distance has any slack;
    this loop replaces that existence argument with an explicit search.
    """
    target_error = Fraction(target_error)
    for seed in range(max_tries):
        candidate = amplify(
            code,
            inst,
            m,
            family,
            base_error,
            rate_target=rate_target,
            seed=seed,
            strict=strict,
        )
        report = check_feasibility(
            candidate,
            inst,
            epsilon=target_error,
            mode=mode,
            trials=trials,
            seed=check_seed,
        )
        if report.measured_error < target_error:
            return seed, candidate, report
    raise SeedSearchFailed(
        f"no seed in 0..{max_tries - 1} measured below {target_error}"
    )


# ---------------------------------------------------------------- interleave

@dataclass(frozen=True)
class InterleaveTag:
    """Marks a code as the interleaving of a base code with this outer N."""

    base_outer: int


def interleave(code: NetworkCode, inst: NetworkInstance) -> NetworkCode:
    """Stagger N sessions so round i of session j runs at t=(i-1)N+j.

    The output has outer blocklength N**2 and constant splits inside each
    sub-block ((i-1)N, iN].  Its key property: every symbol consumed by a
    round-i encoder was committed in sub-block i-1 or earlier, never in
    the current sub-block, which is what pipeline_path later exploits.
    """
    n_base = code.outer_n
    sizes = tuple(s ** n_base for s in code.message_sizes)

    split_table = {}
    for (edge_idx, t_base), shape in code.splits.items():
        for j in range(1, n_base + 1):
            split_table[(edge_idx, (t_base - 1) * n_base + j)] = shape

    sessions, decoders = _pack_sessions(code, inst, n_base, staggered=True)

    encoders = {}
    for (edge_idx, t_base, direction), base_enc in code.encoders.items():
        for j in range(n_base):

            def encoder(state, base_enc=base_enc, j=j):
                return base_enc(sessions(state)(j))

            encoders[(edge_idx, (t_base - 1) * n_base + j + 1, direction)] = encoder

    return NetworkCode(
        inner_n=code.inner_n,
        outer_n=n_base * n_base,
        message_sizes=sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders=decoders,
        structure=InterleaveTag(base_outer=n_base),
    )


# -------------------------------------------------------------- pipeline_path

def _match_path_instance(
    inst: NetworkInstance, u: str, v: str, path_inst: NetworkInstance, lam: Fraction
) -> tuple[str, ...]:
    """Validate path_inst = inst with edge {u,v} replaced by a fresh path.

    Returns the path node sequence from u to v.
    """
    if (
        path_inst.sources != inst.sources
        or path_inst.terminals != inst.terminals
        or path_inst.demand != inst.demand
    ):
        raise BadPathInstance("sources/terminals/demand differ")
    fresh = [w for w in path_inst.vertices if w not in set(inst.vertices)]
    if set(path_inst.vertices) != set(inst.vertices) | set(fresh):
        raise BadPathInstance("original vertices missing")

    old_pairs = {
        frozenset((e.a, e.b)): e.cap for e in inst.edges if {e.a, e.b} != {u, v}
    }
    extra = []
    for e in path_inst.edges:
        key = frozenset((e.a, e.b))
        if key in old_pairs:
            if old_pairs.pop(key) != e.cap:
                raise BadPathInstance(f"capacity changed on edge {e.a!r}-{e.b!r}")
        else:
            extra.append(e)
    if old_pairs:
        raise BadPathInstance(f"edges missing from path instance: {sorted(old_pairs)}")

    adjacency: dict[str, list[str]] = {}
    for e in extra:
        if e.cap != lam:
            raise BadPathInstance(
                f"path edge {e.a!r}-{e.b!r} has cap {e.cap}, expected {lam}"
            )
        adjacency.setdefault(e.a, []).append(e.b)
        adjacency.setdefault(e.b, []).append(e.a)

    path = [u]
    prev = None
    while path[-1] != v:
        nxt = [w for w in adjacency.get(path[-1], ()) if w != prev]
        if len(nxt) != 1:
            raise BadPathInstance("replacement edges do not form a simple u-v path")
        prev = path[-1]
        path.append(nxt[0])
        if len(path) > len(path_inst.vertices):
            raise BadPathInstance("replacement edges do not form a simple u-v path")
    if set(path[1:-1]) != set(fresh) or len(extra) != len(path) - 1:
        raise BadPathInstance("replacement edges do not form a simple u-v path")
    return tuple(path)


def pipeline_path(
    tilde: NetworkCode,
    inst: NetworkInstance,
    u: str,
    v: str,
    path_inst: NetworkInstance,
    ell: int,
) -> NetworkCode:
    """Re-route edge {u, v} of an interleaved code over an ell-node path.

    Sub-blocks widen from N to N+ell steps.  Within sub-block i, the j-th
    forward symbol of the removed edge leaves u at offset j and reaches v
    after ell-1 hops at offset j+ell-2; backward symbols mirror this.  A
    symbol produced in sub-block i is therefore delivered inside sub-block
    i, and the interleave property guarantees nobody needs it before
    sub-block i+1.  Non-path edges replay their sub-block schedule in the
    first N offsets and idle afterwards.
    """
    tag = tilde.structure
    if not isinstance(tag, InterleaveTag):
        raise NotInterleaved("pipeline_path needs interleave output")
    nb = tag.base_outer
    if tilde.outer_n != nb * nb:
        raise NotInterleaved("outer blocklength is not base_outer squared")

    found = inst.edge_between(u, v)
    if found is None:
        raise EdgeMissing(f"no edge {u!r}-{v!r}")
    e_idx, u_is_a = found
    if not u_is_a:
        u, v = v, u  # normalize to the stored orientation; fwd runs u -> v
        e_idx, u_is_a = inst.edge_between(u, v)
    lam = inst.edges[e_idx].cap

    if ell < 2:
        raise BadPathInstance("path needs at least two nodes")
    path = _match_path_instance(inst, u, v, path_inst, lam)
    if len(path) != ell:
        raise BadPathInstance(f"path has {len(path)} nodes, expected ell={ell}")

    # constant split per sub-block on the removed edge (the property the
    # schedule below relies on)
    e_shapes = []
    for i in range(1, nb + 1):
        shapes = {tilde.splits.shape(e_idx, (i - 1) * nb + j) for j in range(1, nb + 1)}
        if len(shapes) != 1:
            raise NotInterleaved(f"splits vary inside sub-block {i} on {u!r}-{v!r}")
        e_shapes.append(shapes.pop())

    width = nb + ell
    out_n = nb * width

    # map every path_inst edge back to the tilde code's edge table
    base_of: dict[int, tuple[int, bool]] = {}  # path edge idx -> (tilde idx, flipped)
    path_pos: dict[int, tuple[int, bool]] = {}  # path edge idx -> (r, along_path)
    for p_idx, e in enumerate(path_inst.edges):
        hit = None
        for r in range(len(path) - 1):
            if {e.a, e.b} == {path[r], path[r + 1]}:
                hit = (r + 1, e.a == path[r])
                break
        if hit is not None:
            path_pos[p_idx] = hit
        else:
            idx, same_a = inst.edge_between(e.a, e.b)
            base_of[p_idx] = (idx, not same_a)

    def tilde_time(i: int, j: int) -> int:
        return (i - 1) * nb + j

    def pipe_time(i: int, j: int) -> int:
        return (i - 1) * width + j

    # direction of the removed edge -> its path nodes in travel order
    travel = {FWD: path, BWD: path[::-1]}
    # (receiving end, original sender) -> the last path hop's sender
    last_hop = {(nodes[-1], nodes[0]): nodes[-2] for nodes in travel.values()}

    def tilde_view(state, horizon: int):
        """Present the pipelined history as the tilde execution's history."""

        def recv(sender, tt):
            t_out = pipe_time((tt - 1) // nb + 1, (tt - 1) % nb + 1)
            relay_from = last_hop.get((state.node, sender))
            if relay_from is not None:
                return state.recv(relay_from, t_out + ell - 2)
            return state.recv(sender, t_out)

        return StateView(state.node, horizon, state.message, recv)

    def replay(base, horizon: int):
        """Run a tilde encoder or decoder on the pipelined history, seen
        as the tilde history up to round `horizon`."""
        return lambda state: base(tilde_view(state, horizon))

    def relay(sender: str):
        """Pass on the symbol `sender` committed one round earlier."""
        return lambda state: state.recv(sender, state.time)

    def idle(state):
        return 0

    split_table: dict[tuple[int, int], tuple[int, int]] = {}
    encoders = {}

    for p_idx in range(len(path_inst.edges)):
        if p_idx in path_pos:
            continue
        t_idx, flipped = base_of[p_idx]
        for i in range(1, nb + 1):
            for j in range(1, nb + 1):
                tt = tilde_time(i, j)
                shape = tilde.splits.shape(t_idx, tt)
                if flipped:
                    shape = (shape[1], shape[0])
                if shape != (1, 1):
                    split_table[(p_idx, pipe_time(i, j))] = shape
                for direction in (FWD, BWD):
                    base_dir = _REVERSE[direction] if flipped else direction
                    base_enc = tilde.encoders.get((t_idx, tt, base_dir))
                    if base_enc is not None:
                        encoders[(p_idx, pipe_time(i, j), direction)] = replay(base_enc, tt - 1)

    # Path hop r joins path[r-1] and path[r].  The removed edge's symbols
    # in direction d cross it as hop h of their trip, and the j-th symbol
    # of sub-block i crosses hop h at offset j+h-1: the first hop runs the
    # tilde encoder, later hops relay what arrived one round earlier.
    for p_idx, (r, along) in path_pos.items():
        for i in range(1, nb + 1):
            shape = e_shapes[i - 1]
            if shape != (1, 1):
                for o in range(1, width + 1):
                    split_table[(p_idx, pipe_time(i, o))] = shape if along else shape[::-1]
            for base_dir, size in zip((FWD, BWD), shape):
                if size == 1:
                    continue
                nodes = travel[base_dir]
                hop = r if base_dir == FWD else ell - r
                direction = base_dir if along else _REVERSE[base_dir]
                for o in range(1, width + 1):
                    j = o - hop + 1
                    if not 1 <= j <= nb:
                        enc = idle
                    elif hop > 1:
                        enc = relay(nodes[hop - 2])
                    else:
                        base_enc = tilde.encoders.get((e_idx, tilde_time(i, j), base_dir))
                        if base_enc is None:
                            continue
                        enc = replay(base_enc, tilde_time(i, j) - 1)
                    encoders[(p_idx, pipe_time(i, o), direction)] = enc

    return NetworkCode(
        inner_n=tilde.inner_n,
        outer_n=out_n,
        message_sizes=tilde.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders={j: replay(dec, nb * nb) for j, dec in tilde.decoders.items()},
    )


# ------------------------------------------------------------------- scaling

def scale_code(code: NetworkCode, alpha: Fraction) -> NetworkCode:
    """Re-host a code built for alpha-scaled capacities.

    A code for the instance with every capacity multiplied by alpha runs
    unchanged on the unscaled instance once the inner blocklength grows to
    ceil(alpha*n): floor(2**(alpha*cap*n)) <= floor(2**(cap*ceil(alpha*n))).
    Encoders, decoders, splits, and message spaces are untouched, so the
    rate shrinks by exactly n/ceil(alpha*n).
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise NonPositiveScale(f"scale factor {alpha}")
    return NetworkCode(
        inner_n=ceil_mul(alpha, code.inner_n),
        outer_n=code.outer_n,
        message_sizes=code.message_sizes,
        splits=code.splits,
        encoders=dict(code.encoders),
        decoders=dict(code.decoders),
        structure=code.structure,
    )


# ------------------------------------------------------------------- reblock

def reblock(code: NetworkCode, inst: NetworkInstance, m: int) -> NetworkCode:
    """Split an inner blocklength n*m into m rounds of blocklength n+1.

    Each old symbol is re-sent as m base-B digits, where B is the smallest
    integer with B**m >= old directional size.  Requires the alphabet
    inclusion floor(2**(cap*n*m)) <= floor(2**(cap*(n+1)))**m on every edge
    (and its directional refinement per split); decoded outputs are
    unchanged, outer blocklength becomes N*m.
    """
    if m < 1:
        raise MalformedDocument("m must be >= 1")
    if code.inner_n % m:
        raise MalformedDocument(f"inner blocklength {code.inner_n} not divisible by {m}")
    n_new = code.inner_n // m + 1

    old_alpha = edge_alphabets(inst, code.inner_n)
    new_alpha = edge_alphabets(inst, n_new)
    for idx, e in enumerate(inst.edges):
        if old_alpha[idx] > new_alpha[idx] ** m:
            raise AlphabetInclusionFails(
                f"{old_alpha[idx]} > {new_alpha[idx]}**{m} on edge {e.a!r}-{e.b!r}"
            )

    radix: dict[tuple[int, int, str], int] = {}
    split_table: dict[tuple[int, int], tuple[int, int]] = {}
    for (edge_idx, t), (f, b) in code.splits.items():
        bf, bb = ceil_root(f, m), ceil_root(b, m)
        if bf * bb > new_alpha[edge_idx]:
            e = inst.edges[edge_idx]
            raise AlphabetInclusionFails(
                f"directional digits {bf}*{bb} exceed alphabet "
                f"{new_alpha[edge_idx]} on edge {e.a!r}-{e.b!r} at t={t}"
            )
        radix[(edge_idx, t, FWD)] = bf
        radix[(edge_idx, t, BWD)] = bb
        for s in range(1, m + 1):
            split_table[(edge_idx, (t - 1) * m + s)] = (bf, bb)

    def digit_radix(sender: str, node: str, t: int) -> int:
        idx, sender_is_a = inst.edge_between(sender, node)
        return radix.get((idx, t, FWD if sender_is_a else BWD), 1)

    def old_view(state, horizon: int):
        def recv(sender, t):
            b = digit_radix(sender, state.node, t)
            digits = [state.recv(sender, (t - 1) * m + s) for s in range(1, m + 1)]
            return combine_digits(digits, (b,) * m)

        return StateView(state.node, horizon, state.message, recv)

    encoders = {}
    for (edge_idx, t, direction), base_enc in code.encoders.items():
        b = radix.get((edge_idx, t, direction), 1)
        for s in range(1, m + 1):
            def encoder(state, base_enc=base_enc, t=t, b=b, s=s):
                symbol = base_enc(old_view(state, t - 1))
                return split_digits(symbol, (b,) * m)[s - 1]

            encoders[(edge_idx, (t - 1) * m + s, direction)] = encoder

    decoders = {
        j: (lambda dec: (lambda state: dec(old_view(state, code.outer_n))))(dec)
        for j, dec in code.decoders.items()
    }

    return NetworkCode(
        inner_n=n_new,
        outer_n=code.outer_n * m,
        message_sizes=code.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders=decoders,
    )
