"""Store-and-forward routing codes, the "routing" kind of serialize's
code documents: each route carries its source's whole message."""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

from .codes import AlphabetSplit, NetworkCode, SlotKey, StateView, edge_alphabets
from .errors import BadRoute, CapacityOverflow
from .graphs import FWD, NetworkInstance
from .rational import combine_digits


class Route(NamedTuple):
    """One store-and-forward delivery: a path plus one round per hop."""

    source: int
    terminal: int
    nodes: tuple[str, ...]
    rounds: tuple[int, ...]


def make_routing_code(
    inst: NetworkInstance,
    routes: Sequence[Route],
    n: int,
    outer_n: int,
    message_sizes: Sequence[int],
) -> NetworkCode:
    """Store-and-forward code: each route carries its source's whole message.

    Several routes may share an (edge, round, direction) slot; the slot then
    carries the mixed-radix combination of their values, and the split sizes
    are the products of the carried message space sizes.  Overfull slots
    raise CapacityOverflow.
    """
    k, r = len(inst.sources), len(inst.terminals)
    sizes = tuple(int(s) for s in message_sizes)
    if len(sizes) != k or any(s < 1 for s in sizes):
        raise BadRoute("need one message size >= 1 per source")

    for route in routes:
        if not 0 <= route.source < k or not 0 <= route.terminal < r:
            raise BadRoute(f"route references unknown source/terminal: {route}")
        if route.nodes[0] != inst.sources[route.source]:
            raise BadRoute(f"route must start at its source node: {route}")
        if route.nodes[-1] != inst.terminals[route.terminal]:
            raise BadRoute(f"route must end at its terminal node: {route}")
        if len(route.rounds) != len(route.nodes) - 1:
            raise BadRoute(f"route needs one round per hop: {route}")
        if any(t2 <= t1 for t1, t2 in zip(route.rounds, route.rounds[1:])):
            raise BadRoute(f"route rounds must be strictly increasing: {route}")
        if any(not 1 <= t <= outer_n for t in route.rounds):
            raise BadRoute(f"route rounds outside 1..{outer_n}: {route}")
        for x, y in zip(route.nodes, route.nodes[1:]):
            if inst.edge_between(x, y) is None:
                raise BadRoute(f"no edge {x!r}-{y!r} on route {route}")

    # slot -> ordered (route index, hop) entries sharing it
    slots: dict[SlotKey, list[tuple[int, int]]] = {}
    for ridx, route in enumerate(routes):
        for hop, (x, y) in enumerate(zip(route.nodes, route.nodes[1:])):
            idx, direction = inst.slot(x, y)
            slots.setdefault((idx, route.rounds[hop], direction), []).append((ridx, hop))

    def slot_radices(key: SlotKey) -> tuple[int, ...]:
        return tuple(sizes[routes[ridx].source] for ridx, _ in slots[key])

    split_table: dict[tuple[int, int], tuple[int, int]] = {}
    for (edge_idx, t, direction) in slots:
        f, b = split_table.get((edge_idx, t), (1, 1))
        load = math.prod(slot_radices((edge_idx, t, direction)))
        split_table[(edge_idx, t)] = (load, b) if direction == FWD else (f, load)
    alphabets = edge_alphabets(inst, n)
    for (edge_idx, t), (f, b) in split_table.items():
        if f * b > alphabets[edge_idx]:
            e = inst.edges[edge_idx]
            raise CapacityOverflow(
                f"routed load {f}*{b} exceeds alphabet {alphabets[edge_idx]} "
                f"on edge {e.a!r}-{e.b!r} at t={t}"
            )

    def carried(ridx: int, hop: int) -> Callable[[StateView], int]:
        """The value route ridx carries into hop `hop`, as its node reads it:
        the source's message, else its split_digits digit of the previous
        hop's symbol, read by place value."""
        route = routes[ridx]
        if hop == 0:
            return lambda state: state.message(route.source)
        x, t = route.nodes[hop - 1], route.rounds[hop - 1]
        idx, direction = inst.slot(x, route.nodes[hop])
        radices = slot_radices((idx, t, direction))
        at = slots[(idx, t, direction)].index((ridx, hop - 1))
        size, place, radix = math.prod(radices), math.prod(radices[at + 1:]), radices[at]

        def read(state: StateView) -> int:
            symbol = state.recv(x, t)
            if not 0 <= symbol < size:
                raise ValueError("value out of range for radices")
            return symbol // place % radix

        return read

    def make_encoder(key: SlotKey):
        reads = [carried(ridx, hop) for ridx, hop in slots[key]]
        radices = slot_radices(key)
        if len(reads) > 1:
            return lambda state: combine_digits([read(state) for read in reads], radices)
        read, radix = reads[0], radices[0]

        def encoder(state: StateView) -> int:
            # one route: the packed symbol is the carried value itself
            value = read(state)
            if not 0 <= value < radix:
                raise ValueError(f"digit {value} out of range for radix {radix}")
            return value

        return encoder

    encoders = {key: make_encoder(key) for key in slots}

    route_for: dict[tuple[int, int], int] = {}
    for ridx, route in enumerate(routes):
        route_for.setdefault((route.source, route.terminal), ridx)

    def make_decoder(j: int):
        reads = []
        for i in inst.demanded_at(j):
            ridx = route_for.get((i, j))
            if ridx is None:
                reads.append(lambda state, i=i:
                             state.message(i) if inst.sources[i] == state.node else 0)
            else:
                reads.append(carried(ridx, len(routes[ridx].nodes) - 1))

        if len(reads) == 1:
            return lambda state, read=reads[0]: (read(state),)
        return lambda state: tuple([read(state) for read in reads])

    decoders = {j: make_decoder(j) for j in range(r) if inst.demanded_at(j)}

    return NetworkCode(
        inner_n=n,
        outer_n=outer_n,
        message_sizes=sizes,
        splits=AlphabetSplit(split_table),
        encoders=encoders,
        decoders=decoders,
    )
