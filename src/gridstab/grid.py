"""Power-network graph data model.

Buses are graph nodes; every other device (AC line, transformer, DC line)
is an edge between two buses.  A :class:`Snapshot` holds the electrical
state of the whole grid at one time slot, a :class:`FaultSample` names one
N-1 contingency on one snapshot: the form of synth, the oracle and
hand-built tests.  Faults on disk and in a report bundle are int64 columns.
"""

from __future__ import annotations

import numbers
import sys
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

    ``label`` is STABLE/UNSTABLE, or None while still unlabeled.  Synth, the
    oracle and hand-built tests make these; a dataset on disk or in a report
    bundle holds ``features.FAULT_COLUMNS`` instead (label -1 when unlabeled).
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


def bfs(nbrs: list[list[int]], seeds,
        max_nodes: int | None = None) -> tuple[list[int], dict[int, int]]:
    """Breadth-first search from ``seeds``, which all sit at hop 0.

    Seeds are deduplicated in order; each bus's neighbors are expanded in
    the order of ``nbrs`` (ascending ids from :func:`adjacency_lists`); a
    bus counts as visited when first reached.  There is no hop limit: the
    walk stops as soon as ``max_nodes`` buses are visited, or when it has
    reached every bus it can.  Returns the first ``max_nodes`` visited buses
    in order and the hop distance of every visited bus, in visiting order,
    the seeds included.
    """
    hops = dict.fromkeys(seeds, 0)
    order = list(hops)
    limit = len(nbrs) if max_nodes is None else max_nodes
    queue = deque(order)
    while queue and len(order) < limit:
        u = queue.popleft()
        for v in nbrs[u]:
            if v not in hops:
                hops[v] = hops[u] + 1
                order.append(v)
                queue.append(v)
                if len(order) >= limit:
                    break
    return order[:limit], hops


def _is_int(n) -> bool:
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _is_real(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


# A rule is (test of a valid value, what a valid value is), as check_fields reads it.
FLAG = (lambda v: isinstance(v, bool), "true or false")
# (an integer past the float range is no finite float: math.isfinite raises on it)
FINITE = (lambda v: _is_real(v) and abs(v) <= sys.float_info.max, "a finite number")


def at_least(low: int, what: str | None = None) -> tuple:
    """The rule of an integer >= ``low`` (a bool is not an integer)."""
    return (lambda v: _is_int(v) and v >= low), what or f"an integer >= {low}"


def check_fields(values, rules: dict) -> None:
    """Raise a ValueError naming the first field of ``rules`` whose value in
    the mapping ``values`` fails its rule; a field missing from ``values`` is
    a KeyError."""
    for name, (valid, what) in rules.items():
        value = values[name]
        if not valid(value):
            raise ValueError(f"{name} must be {what}, not {value!r}")


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
        if elem.rating <= 0:
            errors.append(f"non-positive-rating: element {elem.id}")

    if n > 0 and not dangling:
        if len(bfs(neighbor_lists(network), [0])[0]) < n:
            errors.append("disconnected-graph")
    return errors


def validate_snapshot(network: Network, snapshot: Snapshot) -> list[str]:
    """Every violation of one snapshot; an empty list means it is valid."""
    return validate_states(network, snapshot.bus_states[None],
                           snapshot.element_states[None])[1]


def validate_states(network: Network, bus_states: np.ndarray,
                    element_states: np.ndarray) -> tuple[int, list[str]]:
    """The first snapshot of a stack that violates the network, and its
    violations; ``(0, [])`` when every snapshot is valid.

    ``bus_states`` stacks S snapshots' (n_bus, 13) states and
    ``element_states`` their (n_elements, 2) flows.  A wrong shape is every
    snapshot's, so it is the first snapshot's violation.
    """
    if not len(bus_states):
        return 0, []
    errors: list[str] = []
    stacks = {"bus_states": bus_states, "element_states": element_states}
    shapes = {"bus-state-shape": (network.n_bus, N_BUS_STATE),
              "element-state-shape": (len(network.elements), 2)}
    for (name, states), (violation, want) in zip(stacks.items(), shapes.items()):
        if states.shape[1:] != want:
            errors.append(f"{violation}: {name} expected {want}, got {states.shape[1:]}")
    finite = {name: np.isfinite(states.reshape(len(states), -1)).all(axis=1)
              for name, states in stacks.items()}
    valid = finite["bus_states"] & finite["element_states"]
    first = 0 if errors else int(np.argmin(valid))
    if not valid[first]:
        errors.append("non-finite-state: " + ", ".join(
            name for name, ok in finite.items() if not ok[first]))
    return first, errors
