"""Power-network graph data model.

Buses are graph nodes; every other device (AC line, transformer, DC line)
is an edge between two buses.  A :class:`Snapshot` holds the electrical
state of the whole grid at one time slot, a :class:`FaultSample` names one
N-1 contingency on one snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque

import numpy as np

AC_LINE = "AcLine"
TRANSFORMER = "Transformer"
DC_LINE = "DcLine"
ELEMENT_KINDS = (AC_LINE, TRANSFORMER, DC_LINE)

STABLE = 0
UNSTABLE = 1
LABEL_NAMES = {STABLE: "Stable", UNSTABLE: "Unstable"}
LABEL_VALUES = {name: value for value, name in LABEL_NAMES.items()}

# Column order of the per-bus state vector.  AC sums aggregate the signed
# flows of incident AC lines (+ when the bus is the measured I side).
BUS_STATE_COLUMNS = (
    "V", "theta", "P_G", "Q_G", "gen_pf", "P_L", "Q_L", "load_pf",
    "Q_PC", "Q_PL", "P_AC_sum", "Q_AC_sum", "degree",
)
N_BUS_STATE = len(BUS_STATE_COLUMNS)


class GridError(ValueError):
    """Structural problem in a network or snapshot."""


@dataclass(frozen=True)
class Bus:
    """One bus with its reference (base-case) electrical state."""

    id: int
    voltage_mag: float = 1.0
    voltage_ang: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0
    p_load: float = 0.0
    q_load: float = 0.0
    gen_pf: float = 0.0
    load_pf: float = 0.0
    q_cap: float = 0.0
    q_reactor: float = 0.0
    degree: int = 0
    region: int = 0


@dataclass(frozen=True)
class Element:
    """A two-terminal device; flows are measured at side I (= from_bus)."""

    id: int
    kind: str
    from_bus: int
    to_bus: int
    p_flow: float = 0.0
    q_flow: float = 0.0
    rating: float = 1.0


@dataclass(frozen=True)
class Network:
    buses: tuple[Bus, ...]
    elements: tuple[Element, ...]

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    def ac_line_ids(self) -> list[int]:
        return [e.id for e in self.elements if e.kind == AC_LINE]

    def element_by_id(self, element_id: int) -> Element:
        if not 0 <= element_id < len(self.elements):
            raise GridError(f"unknown element id {element_id}")
        return self.elements[element_id]


@dataclass(frozen=True)
class Snapshot:
    """One power-flow section: per-bus 13-dim states + per-element flows.

    ``bus_states`` is (n_bus, 13) in :data:`BUS_STATE_COLUMNS` order,
    ``element_states`` is (n_elements, 2) holding (p_flow, q_flow).
    """

    day: int
    slot: int
    bus_states: np.ndarray
    element_states: np.ndarray


@dataclass(frozen=True)
class FaultSample:
    """One N-1 candidate: (snapshot key, faulted AC line, stability label).

    ``label`` is STABLE/UNSTABLE, or None while still unlabeled.
    """

    day: int
    slot: int
    element_id: int
    label: int | None = None


def build_adjacency(network: Network) -> np.ndarray:
    """Symmetric 0/1 bus adjacency with a zero diagonal.

    Parallel elements between the same bus pair collapse to one entry of 1.
    Raises :class:`GridError` on a dangling endpoint.
    """
    n = network.n_bus
    adj = np.zeros((n, n), dtype=float)
    for elem in network.elements:
        i, j = elem.from_bus, elem.to_bus
        if not (0 <= i < n and 0 <= j < n):
            raise GridError(
                f"element {elem.id} references missing bus {i if not 0 <= i < n else j}"
            )
        if i == j:
            raise GridError(f"element {elem.id} is a self-loop on bus {i}")
        adj[i, j] = 1.0
        adj[j, i] = 1.0
    return adj


def adjacency_lists(n_bus: int, pairs) -> list[list[int]]:
    """Per-bus sorted neighbor ids of the endpoint ``pairs``.

    Parallel edges collapse; self-loops and out-of-range endpoints are
    skipped (:func:`validate_network` reports them).
    """
    nbrs: list[set[int]] = [set() for _ in range(n_bus)]
    for a, b in pairs:
        if 0 <= a < n_bus and 0 <= b < n_bus and a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    return [sorted(s) for s in nbrs]


def neighbor_lists(network: Network) -> list[list[int]]:
    """Per-bus sorted neighbor ids (parallel edges collapsed)."""
    return adjacency_lists(network.n_bus, ((e.from_bus, e.to_bus) for e in network.elements))


def bfs(nbrs: list[list[int]], seeds, max_nodes: int | None = None,
        max_hops: int | None = None) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search from ``seeds``, which all sit at hop 0.

    Seeds are deduplicated in order; each bus's neighbors are expanded in
    the order of ``nbrs`` (ascending ids from :func:`adjacency_lists`); a
    bus counts as visited when first reached.  The walk stops as soon as
    ``max_nodes`` buses are visited and does not expand buses ``max_hops``
    away.  Returns the first ``max_nodes`` visited buses in order and the
    hop distance of every visited bus, the seeds included.
    """
    hops = dict.fromkeys(seeds, 0)
    order = list(hops)
    limit = len(nbrs) if max_nodes is None else max_nodes
    queue = deque(order)
    while queue and len(order) < limit:
        u = queue.popleft()
        if max_hops is not None and hops[u] >= max_hops:
            break
        for v in nbrs[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                order.append(v)
                queue.append(v)
                if len(order) >= limit:
                    break
    return order[:limit], hops


def validate_network(network: Network) -> list[str]:
    """Return every structural violation; an empty list means the network is valid."""
    errors: list[str] = []
    n = network.n_bus
    seen_bus_ids: set[int] = set()
    for bus in network.buses:
        if bus.id in seen_bus_ids:
            errors.append(f"duplicate-bus-id: {bus.id}")
        seen_bus_ids.add(bus.id)
        if bus.voltage_mag < 0:
            errors.append(f"negative-voltage: bus {bus.id}")
    if seen_bus_ids and (min(seen_bus_ids) != 0 or max(seen_bus_ids) != len(seen_bus_ids) - 1):
        errors.append("bus-ids-not-dense")

    seen_elem_ids: set[int] = set()
    dangling = False
    for elem in network.elements:
        if elem.id in seen_elem_ids:
            errors.append(f"duplicate-element-id: {elem.id}")
        seen_elem_ids.add(elem.id)
        if elem.kind not in ELEMENT_KINDS:
            errors.append(f"unknown-element-kind: element {elem.id} kind {elem.kind!r}")
        if not (0 <= elem.from_bus < n) or not (0 <= elem.to_bus < n):
            errors.append(f"dangling-endpoint: element {elem.id}")
            dangling = True
        elif elem.from_bus == elem.to_bus:
            errors.append(f"self-loop: element {elem.id} on bus {elem.from_bus}")

    if n > 0 and not dangling:
        if len(bfs(neighbor_lists(network), [0])[0]) < n:
            errors.append("disconnected-graph")
    return errors


def validate_snapshot(network: Network, snapshot: Snapshot) -> list[str]:
    errors: list[str] = []
    if snapshot.bus_states.shape != (network.n_bus, N_BUS_STATE):
        errors.append(
            f"bus-state-shape: expected {(network.n_bus, N_BUS_STATE)}, "
            f"got {snapshot.bus_states.shape}"
        )
    if snapshot.element_states.shape != (len(network.elements), 2):
        errors.append("element-state-shape")
    if not np.isfinite(snapshot.bus_states).all() or not np.isfinite(snapshot.element_states).all():
        errors.append("non-finite-state")
    return errors
