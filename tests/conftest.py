"""Shared micro instances, independent oracles and spies for the test suite."""

import itertools
from fractions import Fraction

import netcode as nc
from netcode import codes


def make(doc):
    return nc.validate_instance(doc)


def inst_doc(vertices, edges, sources, terminals, demand):
    return {
        "vertices": list(vertices),
        "edges": [{"a": a, "b": b, "cap": cap} for a, b, cap in edges],
        "sources": list(sources),
        "terminals": list(terminals),
        "demand": [list(r) for r in demand],
    }


# -------------------------------------------------------------- micro corpus

def single_edge():
    return make(inst_doc("ab", [("a", "b", "1")], ["a"], ["b"], [[1]]))


def single_edge_cap2():
    return make(inst_doc("ab", [("a", "b", "2")], ["a"], ["b"], [[1]]))


def two_way():
    return make(inst_doc("ab", [("a", "b", "1")], ["a", "b"], ["b", "a"], [[1, 0], [0, 1]]))


def pair_at_one_node():
    # two messages both originating at a, both wanted at b
    return make(inst_doc("ab", [("a", "b", "1")], ["a", "a"], ["b", "b"],
                         [[1, 0], [0, 1]]))


def star3():
    return make(inst_doc(
        ["s", "x", "y"], [("s", "x", "1"), ("s", "y", "1")],
        ["s"], ["x", "y"], [[1, 1]]))


def triangle():
    return make(inst_doc(
        "abc", [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1")],
        ["a"], ["b"], [[1]]))


def line3():
    return make(inst_doc(
        "abc", [("a", "b", "1"), ("b", "c", "1")], ["a"], ["c"], [[1]]))


def cycle4():
    return make(inst_doc(
        "abcd",
        [("a", "b", "1"), ("b", "c", "1"), ("c", "d", "1"), ("d", "a", "1")],
        ["a", "c"], ["c", "a"], [[1, 0], [0, 1]]))


def fractional_alpha():
    # the probe v0-v4 at lambda 1 rides the widest v0-v4 path v0-v2-v4
    # (gamma 3/2), so alpha = 3/5 divides no inner blocklength below 3
    return make(inst_doc(
        ["v0", "v1", "v2", "v3", "v4"],
        [("v1", "v2", "1"), ("v2", "v3", "1"), ("v0", "v2", "2"), ("v0", "v3", "2"),
         ("v2", "v4", "3/2")],
        ["v3"], ["v2"], [[1]]))


def two_triangles():
    # disconnected; the probe pair (c, d) bridges them
    return make(inst_doc(
        "abcdfg",
        [("a", "b", "1"), ("b", "c", "1"), ("a", "c", "1"),
         ("d", "f", "1"), ("f", "g", "1"), ("d", "g", "1")],
        ["a", "d"], ["b", "g"], [[1, 0], [0, 1]]))


def corpus():
    """Instances swept by the cut-bound consistency checks."""
    out = [
        single_edge(), single_edge_cap2(), two_way(), pair_at_one_node(),
        star3(), triangle(), line3(), cycle4(), two_triangles(),
    ]
    out.append(nc.add_edge(cycle4(), "a", "c", Fraction(1)))
    out.append(nc.add_edge(line3(), "a", "c", Fraction(1, 2)))
    out.append(nc.add_edge(two_triangles(), "c", "d", Fraction(1)))
    return out


# ------------------------------------------------------------- simple codes

def unit_code(inst, route_nodes, rounds, n=1, outer_n=1, sizes=(2,)):
    routes = [nc.Route(0, 0, tuple(route_nodes), tuple(rounds))]
    return nc.make_routing_code(inst, routes, n, outer_n, list(sizes))


def identity_suite():
    """(instance, single-round code) pairs used by the identity checks."""
    out = []
    out.append((single_edge(), unit_code(single_edge(), "ab", (1,))))
    out.append((single_edge_cap2(), unit_code(single_edge_cap2(), "ab", (1,), sizes=(4,))))
    pair = pair_at_one_node()
    out.append((
        pair,
        nc.make_routing_code(
            pair,
            [nc.Route(0, 0, ("a", "b"), (1,)), nc.Route(1, 1, ("a", "b"), (1,))],
            2, 1, [2, 2],
        ),
    ))
    st = star3()
    out.append((
        st,
        nc.make_routing_code(
            st,
            [nc.Route(0, 0, ("s", "x"), (1,)), nc.Route(0, 1, ("s", "y"), (1,))],
            1, 1, [2],
        ),
    ))
    out.append((triangle(), unit_code(triangle(), "ab", (1,))))
    return out


def clamp_code(inst, sender, receiver, n, outer_n, send_round, size=4):
    """Unicast code that sends 0 in place of the top message value, so
    exactly 1/size of the messages decode wrong."""
    idx, is_a = inst.edge_between(sender, receiver)
    direction = nc.FWD if is_a else nc.BWD

    def encoder(state):
        w = state.message(0)
        return w if w < size - 1 else 0

    def decoder(state):
        return (state.recv(sender, send_round),)

    return nc.NetworkCode(
        inner_n=n,
        outer_n=outer_n,
        message_sizes=(size,),
        splits=nc.AlphabetSplit({(idx, send_round): (size, 1) if is_a else (1, size)}),
        encoders={(idx, send_round, direction): encoder},
        decoders={0: decoder},
    )


def bridged_pair():
    # two cap-2 links; a probe b-c is their only connection
    return make(inst_doc(
        "abcd", [("a", "b", "2"), ("c", "d", "2")],
        ["a", "c"], ["b", "d"], [[1, 0], [0, 1]]))


def path_chain(n_rounds, inst=None, off_path=False, extra=(), base=None):
    """interleave -> pipeline_path -> host_path_code -> scale_code on
    cycle4 (or `inst`, whose widest a-c path is a-b-c) with probe a-c,
    built the way edge_removal_report builds it.  Each base route sends
    one bit (n=1), so both base messages have two values.  a->c takes the
    probe at round 1; c->a takes it at round 2 or, with `off_path`, goes
    c-d-a at rounds 1 and 2, off the host path (stages named "offpath-").
    The `extra` routes also run; decoders read the routes above.  A given
    `base` code on the instance plus a-c at capacity 1 replaces the routes."""
    inst = cycle4() if inst is None else inst
    aug = nc.add_edge(inst, "a", "c", Fraction(1))
    back = nc.Route(1, 1, ("c", "d", "a"), (1, 2)) if off_path else nc.Route(1, 1, ("c", "a"), (2,))
    base = base or nc.make_routing_code(
        aug, [nc.Route(0, 0, ("a", "c"), (1,)), back, *extra], 1, n_rounds, [2, 2])
    bound = nc.path_case_bound(inst, "a", "c", Fraction(1))
    path = list(bound.path.nodes)
    star_path = ["a"] + [f"relay{r}" for r in range(2, len(path))] + ["c"]
    star = nc.replace_edge_with_path(aug, "a", "c", star_path, fresh=True)
    host = nc.replace_edge_with_path(aug, "a", "c", path, fresh=False)
    tilde = nc.interleave(base, aug)
    piped = nc.pipeline_path(tilde, aug, "a", "c", star, len(path))
    hosted = nc.host_path_code(piped, star, host, star_path, path)
    scaled = nc.scale_code(hosted, 1 / bound.alpha)
    prefix = "offpath" if off_path else "chain"
    return [
        (f"{prefix}-base", aug, base),
        (f"{prefix}-interleave", aug, tilde),
        (f"{prefix}-pipeline", star, piped),
        (f"{prefix}-host", host, hosted),
        (f"{prefix}-scale", inst, scaled),
    ]


def three_as_zero_chord_code(aug):
    """Chord routes on cycle4 + a-c at lambda 2 (n=1, N=2, sizes (4, 4)):
    message 0 goes a->c at round 1 and is sent as 0 when it is 3, message
    1 goes c->a at round 2."""
    routes = [nc.Route(0, 0, ("a", "c"), (1,)), nc.Route(1, 1, ("c", "a"), (2,))]
    code = nc.make_routing_code(aug, routes, 1, 2, [4, 4])
    key = (aug.edge_between("a", "c")[0], 1, nc.FWD)
    send = code.encoders[key]
    return code._replace(encoders={**code.encoders, key: lambda view: send(view) % 3})


# ------------------------------------------------------------------- oracles

def brute_force_cut(inst, group_a, group_b):
    """Minimum crossing capacity over all bipartitions, by enumeration."""
    a_set, b_set = set(group_a), set(group_b)
    rest = [v for v in inst.vertices if v not in a_set and v not in b_set]
    best = None
    for picks in itertools.product((False, True), repeat=len(rest)):
        x = set(a_set)
        x.update(v for v, take in zip(rest, picks) if take)
        crossing = sum(
            (e.cap for e in inst.edges if (e.a in x) != (e.b in x)),
            Fraction(0),
        )
        if best is None or crossing < best:
            best = crossing
    return best


def all_simple_paths(inst, u, v):
    paths = []

    def walk(node, seen, acc):
        if node == v:
            paths.append(tuple(acc))
            return
        for y in inst.neighbors(node):
            if y not in seen:
                walk(y, seen | {y}, acc + [y])

    walk(u, {u}, [u])
    return paths


def widest_path_oracle(inst, u, v):
    """(best bottleneck, best path) by exhaustive path enumeration with the
    documented tie-break: bottleneck desc, hop count asc, lexicographic."""
    best = None
    for path in all_simple_paths(inst, u, v):
        bn = min(
            inst.edges[inst.edge_between(x, y)[0]].cap
            for x, y in zip(path, path[1:])
        )
        key = (-bn, len(path), path)
        if best is None or key < best[0]:
            best = (key, bn, path)
    return None if best is None else (best[1], best[2])


# --------------------------------------------------------------------- spies

def unset_runs(monkeypatch):
    """The first unset position of every map run that reads one, from now
    on: a run that ends in `_Unset` was spent only to find that position."""
    runs, read = [], codes._Recording._read

    def spied(self, pos):
        first = self.unset is None
        try:
            return read(self, pos)
        except codes._Unset:
            if first:
                runs.append(pos)
            raise

    monkeypatch.setattr(codes._Recording, "_read", spied)
    return runs
