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

Two packings run several sessions in one, each with its own view of the
host execution: side by side in every slot (parallel_repeat and amplify,
`_Session`) or staggered in time (interleave, `_Staggered`).  The message
spaces and splits they build are held to the bit budget (checked_pow).
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

from .codes import (
    AlphabetSplit,
    Joined,
    NetworkCode,
    StateView,
    check_feasibility,
    edge_alphabets,
    pack,
)
from .errors import (
    AlphabetInclusionFails,
    AlphabetTooSmallForRS,
    BadPath,
    BadPathInstance,
    DistanceTooSmall,
    EdgeMissing,
    EnumerationTooLarge,
    InteriorNodeCollision,
    MalformedDocument,
    NonPositiveScale,
    NotInterleaved,
    SeedSearchFailed,
    sized,
)
from .graphs import BWD, FWD, NetworkInstance, replace_edge_with_path
from .rational import (MAX_PERMUTED, MAX_ROUNDS, MAX_SESSIONS, check_count, checked_pow, ceil_frac,
                       ceil_mul, ceil_root, combine_digits, split_digits)


class _Remapped(StateView):
    """remapped's view of `view`: its node, messages and digits, horizon
    `time`, and a visible recv(sender, t) answered by rule(view, sender, t)."""

    __slots__ = ("view", "rule")

    def __init__(self, view: StateView, time: int, rule: Callable):
        self.node, self.time, self.view, self.rule = view.node, time, view, rule

    def message(self, i: int) -> int:
        return self.view.message(i)

    def digit(self, i: int, j: int, radices: tuple[int, ...]) -> int:
        return self.view.digit(i, j, radices)

    def recv(self, sender: str, t: int) -> int:
        self._visible(sender, t)
        return self.rule(self.view, sender, t)


def remapped(fn: Callable, time: int, rule: Callable) -> Callable:
    """`fn` run on _Remapped(state, time, rule), Joined if `fn` is."""
    if isinstance(fn, Joined):
        return Joined(fn.base, lambda state: fn.sessions(_Remapped(state, time, rule)),
                      fn.count, fn.radices)
    return lambda state: fn(_Remapped(state, time, rule))


# ------------------------------------------------------------------ sessions

class _Session(StateView):
    """Session j's view of the host view `host` (see _side_by_side).
    `packing` is (count, radices, message_parts, inst, splits); `split` is
    ({message: parts}, {(sender, round): digits}), what the session views
    of one host view have split of it so far."""

    __slots__ = ("host", "j", "packing", "split")

    def __init__(self, host: StateView, j: int, packing: tuple, split: tuple):
        self.node, self.time, self.host, self.j = host.node, host.time, host, j
        self.packing, self.split = packing, split

    def message(self, i: int) -> int:
        _, radices, message_parts, _, _ = self.packing
        if message_parts is None:
            return self.host.digit(i, self.j, radices[i])
        parts = self.split[0].get(i)
        if parts is None:
            parts = self.split[0][i] = message_parts(i, self.host.message(i))
        return parts[self.j]

    def recv(self, sender: str, t: int) -> int:
        self._visible(sender, t)
        parts = self.split[1].get((sender, t))
        if parts is None:
            count, _, _, inst, splits = self.packing
            idx, direction = inst.slot(sender, self.node)
            radix = splits.size(idx, t, direction)
            parts = self.split[1][(sender, t)] = split_digits(
                self.host.recv(sender, t), (radix,) * count
            )
        return parts[self.j]


def _side_by_side(
    code: NetworkCode,
    inst: NetworkInstance,
    m: int,
    message_sizes: tuple[int, ...],
    message_parts=None,
    join=None,
) -> NetworkCode:
    """m sessions of `code` packed into every directional slot.

    Session j (0-based) of a host view sees message i as
    message_parts(i, w)[j], w being the host's message i, or by default as
    digit j of w in m digits of i's base size, one StateView.digit read.
    Its round-t symbol is digit j of the host's round-t symbol.  Each host
    symbol, and each message that message_parts splits, is split at most
    once per host view, however many sessions read it.  Each decoder runs
    the base decoder on every session and is Joined, or with `join` joins
    the outputs of source i by join(i, outputs).  A session symbol outside
    its slot's alphabet raises SymbolOutOfRange.
    """
    check_count(m, MAX_SESSIONS, "session count")
    radices = [(size,) * m for size in code.message_sizes]
    packing = (m, radices, message_parts, inst, code.splits)

    def sessions(state):
        split = ({}, {})
        return lambda j: _Session(state, j, packing, split)

    def make_encoder(key):
        base = code.encoders[key]
        radices = (code.splits.size(*key),) * m
        e = inst.edges[key[0]]
        where = f"encoder on {e.a!r}-{e.b!r} t={key[1]} {key[2]}"

        def encoder(state):
            view = sessions(state)
            return pack([base(view(j)) for j in range(m)], radices, lambda j: f"session {j} {where}")

        return encoder

    def make_decoder(j_term):
        base = code.decoders[j_term]
        demanded = inst.demanded_at(j_term)
        if join is None:
            return Joined(base, sessions, m, tuple(radices[i] for i in demanded))

        def decoder(state):
            view = sessions(state)
            outputs = [base(view(j)) for j in range(m)]
            return tuple(
                join(i, [out[pos] for out in outputs])
                for pos, i in enumerate(demanded)
            )

        return decoder

    return NetworkCode(
        inner_n=code.inner_n * m,
        outer_n=code.outer_n,
        message_sizes=message_sizes,
        splits=AlphabetSplit(
            {key: (checked_pow(f, m), checked_pow(b, m)) for key, (f, b) in code.splits.items()}
        ),
        encoders={key: make_encoder(key) for key in code.encoders},
        decoders={j: make_decoder(j) for j in code.decoders},
    )


def parallel_repeat(code: NetworkCode, inst: NetworkInstance, m: int) -> NetworkCode:
    """Run m independent sessions of the code side by side.

    Inner blocklength grows to n*m; every directional slot carries the
    mixed-radix pack of the m session symbols, every message space becomes
    an m-fold product.  Rates are unchanged.
    """
    if m < 1:
        raise MalformedDocument("session count must be >= 1")
    return _side_by_side(code, inst, m, tuple(checked_pow(s, m) for s in code.message_sizes))


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


class OuterCodeSpec(NamedTuple):
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
    """Minimum-Hamming-distance decoding; ties go to the smallest message
    index (row-major over the k digits).  Corrects any pattern of up to
    floor((d-1)/2) corruptions.  A repetition word decodes to its most
    frequent in-range symbol, (0,) when it has none; Reed-Solomon enumerates
    all q**k messages, at most `limit`.
    """
    if len(word) != spec.length:
        raise MalformedDocument(f"word length {len(word)} != {spec.length}")
    q = max(spec.alphabet, 1)
    if spec.family == "repetition":
        votes = [s for s in word if 0 <= s < q]
        return (min(votes, key=lambda s: (-votes.count(s), s), default=0),)
    if q ** spec.k > limit:
        raise EnumerationTooLarge(f"{sized(q)}**{spec.k} candidate messages exceed {limit}")
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

    check_count(m * sum(code.message_sizes), MAX_PERMUTED, "permuted symbol count")
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

    sizes = tuple(checked_pow(max(spec.alphabet, 1), spec.k) for spec in specs)
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

class InterleaveTag(NamedTuple):
    """Marks a code as the interleaving of a base code with this outer N."""

    base_outer: int


class _Staggered(StateView):
    """Session j of `count` staggered over the host view `host` (see
    interleave): message i is digit j of the host's message i in
    `radices[i]`, one StateView.digit read, and round t is the host's round
    (t-1)*count + j + 1.  A view of host time T sees rounds up to
    T // count, which is t-1 for an encoder of base round t and N for a
    decoder."""

    __slots__ = ("host", "j", "count", "radices")

    def __init__(self, count: int, radices: list, host: StateView, j: int):
        self.node, self.time = host.node, host.time // count
        self.host, self.j, self.count, self.radices = host, j, count, radices

    def message(self, i: int) -> int:
        return self.host.digit(i, self.j, self.radices[i])

    def recv(self, sender: str, t: int) -> int:
        self._visible(sender, t)
        return self.host.recv(sender, (t - 1) * self.count + self.j + 1)


def interleave(code: NetworkCode, inst: NetworkInstance) -> NetworkCode:
    """Stagger N sessions so round i of session j runs at t=(i-1)N+j.

    The output has outer blocklength N**2 and constant splits inside each
    sub-block ((i-1)N, iN].  Its key property: every symbol consumed by a
    round-i encoder was committed in sub-block i-1 or earlier, never in
    the current sub-block, which is what pipeline_path later exploits.
    """
    n_base = code.outer_n
    sizes = tuple(checked_pow(s, n_base) for s in code.message_sizes)
    check_count(n_base * n_base, MAX_ROUNDS, "round count")

    split_table = {}
    for (edge_idx, t_base), shape in code.splits.items():
        for j in range(1, n_base + 1):
            split_table[(edge_idx, (t_base - 1) * n_base + j)] = shape

    radices = [(size,) * n_base for size in code.message_sizes]
    session = functools.partial(_Staggered, n_base, radices)
    encoders = {
        (edge_idx, (t_base - 1) * n_base + j + 1, direction):
            lambda state, enc=base_enc, j=j: enc(session(state, j))
        for (edge_idx, t_base, direction), base_enc in code.encoders.items()
        for j in range(n_base)
    }
    # Joined's sessions(state) maps j to session j's view of state
    sessions = functools.partial(functools.partial, session)
    decoders = {j: Joined(dec, sessions, n_base, tuple(radices[i] for i in inst.demanded_at(j)))
                for j, dec in code.decoders.items()}

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

def pipeline_path(
    tilde: NetworkCode,
    inst: NetworkInstance,
    u: str,
    v: str,
    path_inst: NetworkInstance,
    ell: int,
) -> NetworkCode:
    """Re-route edge {u, v} of an interleaved code over an ell-node path.

    path_inst must be replace_edge_with_path(inst, u, v, path, fresh=True)
    for path = (u, *fresh, v), fresh being the vertices path_inst lists
    after inst's; anything else raises BadPathInstance.

    Sub-blocks widen from N to N+ell steps.  Within sub-block i, the j-th
    symbol the removed edge carries from u leaves u at offset j and reaches
    v after ell-1 hops at offset j+ell-2; symbols from v mirror this.  A
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
    e_idx = found[0]

    if ell < 2:
        raise BadPathInstance("path needs at least two nodes")
    path = (u, *path_inst.vertices[len(inst.vertices):], v)
    if len(path) != ell:
        raise BadPathInstance(f"path has {len(path)} nodes, expected ell={ell}")
    try:
        laid_out = replace_edge_with_path(inst, u, v, path, fresh=True)
    except (BadPath, InteriorNodeCollision) as exc:
        raise BadPathInstance(str(exc)) from exc
    if laid_out != path_inst:
        raise BadPathInstance(
            f"path instance is not edge {u!r}-{v!r} replaced by the fresh path {list(path)}"
        )

    # constant split per sub-block on the removed edge (the property the
    # schedule below relies on): its split keys fill a sub-block or miss it
    blocks: dict[int, list] = {}
    for (idx, tt), shape in tilde.splits.items():
        if idx == e_idx and 1 <= tt <= nb * nb:
            blocks.setdefault((tt - 1) // nb + 1, []).append(shape)
    for i, shapes in sorted(blocks.items()):
        if len(shapes) != nb or len(set(shapes)) != 1:
            raise NotInterleaved(f"splits vary inside sub-block {i} on {u!r}-{v!r}")

    width = nb + ell
    out_n = nb * width

    def pipe_round(tt: int) -> int:
        """Tilde round tt, offset j of sub-block i, at offset j of the widened one."""
        return tt + (tt - 1) // nb * ell

    # Path hop k (0-based) is path_inst edge m-1+k, stored path[k] ->
    # path[k+1].  travel: a hop direction -> the path nodes in that travel
    # order; trip_dir: a hop direction -> the removed edge's direction that
    # makes the same trip.
    travel = {FWD: path, BWD: path[::-1]}
    trip_dir = {d: inst.slot(nodes[0], nodes[-1])[1] for d, nodes in travel.items()}
    # (receiving end, original sender) -> the last path hop's sender
    last_hop = {(nodes[-1], nodes[0]): nodes[-2] for nodes in travel.values()}

    def tilde_recv(state, sender, tt):
        """The tilde execution's round-tt symbol, read from the pipelined one."""
        relay_from = last_hop.get((state.node, sender))
        if relay_from is not None:
            return state.recv(relay_from, pipe_round(tt) + ell - 2)
        return state.recv(sender, pipe_round(tt))

    def relay(sender: str):
        """Pass on the symbol `sender` committed one round earlier."""
        return lambda state: state.recv(sender, state.time)

    def idle(state):
        return 0

    # path_inst edge p < m-1 is tilde edge p, or p+1 past the removed edge,
    # stored the same way round; tilde keys outside the code are ignored
    m = len(inst.edges)

    def moved(idx: int, tt: int) -> Optional[tuple[int, int]]:
        if idx != e_idx and 0 <= idx < m and 1 <= tt <= nb * nb:
            return idx - (idx > e_idx), pipe_round(tt)

    split_table = {at: shape for key, shape in tilde.splits.items() if (at := moved(*key))}
    encoders = {(*at, direction): remapped(base_enc, tt - 1, tilde_recv)
                for (idx, tt, direction), base_enc in tilde.encoders.items()
                if direction in (FWD, BWD) and (at := moved(idx, tt))}

    # The removed edge's symbols in direction trip_dir[d] cross path hop k
    # in direction d as hop h of their trip, and the j-th symbol of
    # sub-block i crosses it at offset j+h-1: the first hop runs the tilde
    # encoder, later hops relay what arrived one round earlier.  A sub-block
    # with no split key carries nothing.
    for k, i in itertools.product(range(ell - 1), sorted(blocks)):
        p_idx, start = m - 1 + k, (i - 1) * width
        size = {d: tilde.splits.size(e_idx, (i - 1) * nb + 1, trip_dir[d]) for d in travel}
        for o in range(1, width + 1):
            split_table[(p_idx, start + o)] = (size[FWD], size[BWD])
        for direction, nodes in travel.items():
            if size[direction] == 1:
                continue
            hop = k + 1 if direction == FWD else ell - 1 - k
            for o in range(1, width + 1):
                j = o - hop + 1
                tt = (i - 1) * nb + j
                if not 1 <= j <= nb:
                    enc = idle
                elif hop > 1:
                    enc = relay(nodes[hop - 2])
                else:
                    base_enc = tilde.encoders.get((e_idx, tt, trip_dir[direction]))
                    if base_enc is None:
                        continue
                    enc = remapped(base_enc, tt - 1, tilde_recv)
                encoders[(p_idx, start + o, direction)] = enc

    return NetworkCode(
        inner_n=tilde.inner_n,
        outer_n=out_n,
        message_sizes=tilde.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders={j: remapped(dec, nb * nb, tilde_recv) for j, dec in tilde.decoders.items()},
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
    unchanged, outer blocklength becomes N*m.  An old symbol outside its
    slot's alphabet raises SymbolOutOfRange naming the old slot.
    """
    if m < 1:
        raise MalformedDocument("m must be >= 1")
    if code.inner_n % m:
        raise MalformedDocument(f"inner blocklength {code.inner_n} not divisible by {m}")
    check_count(code.outer_n * m, MAX_ROUNDS, "round count")
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

    def old_recv(state, sender, t):
        idx, direction = inst.slot(sender, state.node)
        key = (idx, t, direction)
        b = radix.get(key, 1)
        digits = [state.recv(sender, (t - 1) * m + s) for s in range(1, m + 1)]
        # When b**m exceeds the old size, some digit tuples are never
        # sent, but tabulation enumerates them: clamp them into the
        # old alphabet so the old code sees a symbol it accepts.
        return min(combine_digits(digits, (b,) * m), code.splits.size(*key) - 1)

    encoders = {}
    for (edge_idx, t, direction), base_enc in code.encoders.items():
        b = radix.get((edge_idx, t, direction), 1)
        old = remapped(base_enc, t - 1, old_recv)
        size = (code.splits.size(edge_idx, t, direction),)
        edge = inst.edges[edge_idx]
        names = [f"encoder on {edge.a!r}-{edge.b!r} t={t} {direction}"]
        for s in range(1, m + 1):
            def encoder(state, old=old, b=b, s=s, size=size, names=names):
                symbol = pack([old(state)], size, names.__getitem__)
                return split_digits(symbol, (b,) * m)[s - 1]

            encoders[(edge_idx, (t - 1) * m + s, direction)] = encoder

    decoders = {j: remapped(dec, code.outer_n, old_recv) for j, dec in code.decoders.items()}

    return NetworkCode(
        inner_n=n_new,
        outer_n=code.outer_n * m,
        message_sizes=code.message_sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders=decoders,
    )
