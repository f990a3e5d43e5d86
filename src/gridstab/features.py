"""Feature extraction: grid-wide statistics and the fault-local subgraph.

Global features are (physical quantity, statistic, range) triples evaluated
over one snapshot; :func:`snapshot_globals` validates each snapshot that the
faults refer to and computes its vector once.  Local features describe the
50-node breadth-first neighborhood of the faulted line (:func:`bfs_nodes`,
a walk by :func:`grid.bfs`) as an adjacency matrix plus a 59-dim feature
row per node.

Both per-snapshot parts are a few grouped row reductions, not one numpy call
per value range.  A :class:`StatsPlan`, built once per (network, spec),
groups the spec's value ranges by length.  A snapshot gathers each group
into one (k, n) matrix, and each statistic is one reduction along its rows:
max, min, mean, ``std``, centred moments, ``median``, ``quantile`` and one
sort for the trimmed pair.  The bus table groups the buses by their number
k of incident AC lines and reduces a (g, 6, k) stack along its last axis.
Rows are never padded, so every value keeps the bytes of the same reduction
of its own range.

Each part of a local subgraph is computed once for what it depends on (see
:func:`local_subgraph`'s column table): the per-(bus, snapshot) and per-bus
columns in one bus table per snapshot, and the BFS order, node mask, padded
adjacency and per-(line, bus) columns in one template row per AC line.  A
sample's node matrix, which only :func:`gather_nodes` lays out, is its kept
buses' rows of the bus table with the template's line columns written over.

:func:`featurize` does not build that matrix, nor any per-sample or
per-fault object.  Its faults are int64 columns (:data:`FAULT_COLUMNS`), as
the faults archive holds them; a :class:`~grid.FaultSample` list is
converted to them once at entry.  Its dataset is those columns over a
:class:`FeatureStore`, the one stored form of a fault's inputs: one global
vector and one read-only bus table per snapshot (whose state columns are
the raw states, when asked for), and the :class:`LineTemplates` of every AC
line, filled in place once per (network, max_nodes).  A sample is a row of
the columns: its fault, its snapshot's table row and its line's template
row.  The model gathers a batch's node rows from the store in one call.

The per-network parts live as long as the network: :func:`featurize`,
:func:`global_stats` and :func:`local_subgraph` without an ``index`` share
one :class:`NetworkIndex` for the last :class:`~grid.Network` object they
saw, so an online screen builds the index, the statistics plan and the line
templates once per process and each snapshot pays only for its own bus
table and global vector.  The memo holds one network, and drops it when
nothing else refers to the network.
"""

from __future__ import annotations

import copy
import hashlib
import json
import weakref
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter

import numpy as np

from .grid import (
    AC_LINE, DC_LINE, N_BUS_STATE, GridError, Network, Snapshot, bfs,
    build_adjacency, neighbor_lists, validate_snapshot,
)

LOCAL_NODES = 50
HOP_BUCKETS = 8          # one-hot of hop distance 0..6, last bucket = 7+
INCIDENT_STATS = 24      # 6 incident-AC-line quantities x 4 aggregates
ENDPOINT_FLAGS = 2
DEGREE_STATS = 12
NODE_FEATURES = 13 + HOP_BUCKETS + INCIDENT_STATS + ENDPOINT_FLAGS + DEGREE_STATS
EMBED_DIM = 20
LOCAL_TOTAL_DIM = LOCAL_NODES * NODE_FEATURES + EMBED_DIM   # 2970
# Node-feature columns that depend on the faulted line: hop one-hot,
# endpoint flags and deg_sub.  Every other column depends only on the bus
# and the snapshot.
LINE_COLUMNS = np.r_[13:13 + HOP_BUCKETS, 45, 46, 48]


class StatKind(Enum):
    MAX = "Max"
    MIN = "Min"
    MEAN = "Mean"
    SD = "Sd"
    SKEW = "Skew"
    KURT = "Kurt"
    MEDIAN = "Median"
    MSD = "Msd"
    Q1 = "Q1"
    Q3 = "Q3"
    MAD = "Mad"
    INTERQ = "Interq"
    MJ10 = "Mj10"
    MJ10S = "Mj10s"


ALL_STATS = tuple(StatKind)

# Bus-level quantities map to columns of the snapshot state matrix;
# element-level quantities are read from per-element flows.
BUS_QUANTITIES = {
    "V": 0, "theta": 1, "P_G": 2, "Q_G": 3, "gen_pf": 4,
    "P_L": 5, "Q_L": 6, "load_pf": 7, "Q_PC": 8, "Q_PL": 9,
}
ELEMENT_QUANTITIES = {
    "P_AC": (AC_LINE, 0), "Q_AC": (AC_LINE, 1),
    "P_DC": (DC_LINE, 0), "Q_DC": (DC_LINE, 1),
}
ALL_QUANTITIES = tuple(BUS_QUANTITIES) + tuple(ELEMENT_QUANTITIES)


def _trim_bounds(n: int) -> tuple[int, int]:
    k = int(np.floor(0.1 * n))
    return k, n - k


def _sd(x: np.ndarray) -> np.ndarray:
    """Row-wise ``std(ddof=1)``; 0 for rows of one value."""
    return np.zeros(len(x)) if x.shape[1] < 2 else x.std(axis=1, ddof=1)


class _Rows:
    """Statistics of every row of a (k, n) value matrix, n >= 1.

    Each intermediate (mean, median, quantiles, sorted trim) is computed once
    and shared by the statistics that use it.  Every reduction runs along
    axis 1 of a row-contiguous matrix, so each row gets the bytes that the
    same reduction of that row alone gives.

    ``strided`` rows stand for columns of a state matrix.  numpy's max and
    min of a strided vector break ties between 0.0 and -0.0 differently from
    those of a contiguous one, so for strided rows both reduce a row-strided
    copy of ``x``.
    """

    def __init__(self, x: np.ndarray, strided: bool = False):
        self.x = x
        self.strided = strided

    @cached_property
    def extremes_input(self) -> np.ndarray:
        if not self.strided:
            return self.x
        spaced = np.empty((self.x.shape[0], 2 * self.x.shape[1]))
        spaced[:, ::2] = self.x
        return spaced[:, ::2]

    @cached_property
    def mean(self) -> np.ndarray:
        return self.x.mean(axis=1)

    @cached_property
    def dev(self) -> np.ndarray:
        return self.x - self.mean[:, None]

    @cached_property
    def m2(self) -> np.ndarray:
        return (self.dev ** 2).mean(axis=1)

    def standardized(self, order: int, power: float, offset: float) -> np.ndarray:
        """``m_order / m2 ** power - offset``, and 0 where ``m2 <= 0``.

        The power and the division run one row at a time on scalars: numpy's
        array power can differ from the scalar one in the last bit.
        """
        m = (self.dev ** order).mean(axis=1)
        return np.array([0.0 if b <= 0.0 else a / b ** power - offset
                         for a, b in zip(m, self.m2)])

    @cached_property
    def median(self) -> np.ndarray:
        return np.median(self.x, axis=1)

    @cached_property
    def mad(self) -> np.ndarray:
        return np.median(np.abs(self.x - self.median[:, None]), axis=1)

    @cached_property
    def q1(self) -> np.ndarray:
        return np.quantile(self.x, 0.25, axis=1)

    @cached_property
    def q3(self) -> np.ndarray:
        return np.quantile(self.x, 0.75, axis=1)

    @cached_property
    def trimmed(self) -> np.ndarray:
        lo, hi = _trim_bounds(self.x.shape[1])
        return np.sort(self.x, axis=1)[:, lo:hi]


_ROW_STATS = {
    StatKind.MAX: lambda r: r.extremes_input.max(axis=1),
    StatKind.MIN: lambda r: r.extremes_input.min(axis=1),
    StatKind.MEAN: lambda r: r.mean,
    StatKind.SD: lambda r: _sd(r.x),
    StatKind.SKEW: lambda r: r.standardized(3, 1.5, 0.0),
    StatKind.KURT: lambda r: r.standardized(4, 2, 3.0),
    StatKind.MEDIAN: lambda r: r.median,
    StatKind.MSD: lambda r: 1.4826 * r.mad,
    StatKind.Q1: lambda r: r.q1,
    StatKind.Q3: lambda r: r.q3,
    StatKind.MAD: lambda r: r.mad,
    StatKind.INTERQ: lambda r: r.q3 - r.q1,
    StatKind.MJ10: lambda r: r.trimmed.mean(axis=1),
    StatKind.MJ10S: lambda r: _sd(r.trimmed),
}


def compute_statistic(values, kind: StatKind) -> float:
    """One statistic of a non-empty value list: the one-row case of the
    grouped reductions that :func:`global_stats` runs.

    Degenerate cases follow fixed conventions: Sd of one value is 0,
    Skew/Kurt of a constant vector are 0 (Kurt is excess kurtosis), Mj10
    trims floor(n/10) values from each end, Msd = 1.4826 * Mad.  Overflowing
    moments give inf or nan, without a warning.
    """
    x = np.asarray(values, dtype=float).reshape(1, -1)
    if x.size == 0:
        raise ValueError("compute_statistic needs a non-empty value list")
    if kind not in _ROW_STATS:
        raise ValueError(f"unknown statistic {kind!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        return float(_ROW_STATS[kind](_Rows(x))[0])


@dataclass(frozen=True)
class FeatureField:
    quantity: str
    stat: StatKind
    range_kind: str = "grid"      # "grid" or "region"
    region: int | None = None

    def key(self) -> tuple:
        return (self.quantity, self.stat.value, self.range_kind, self.region)


@dataclass(frozen=True)
class GlobalFeatureSpec:
    fields: tuple[FeatureField, ...]

    def __post_init__(self):
        keys = [f.key() for f in self.fields]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate feature field in spec")

    def __len__(self) -> int:
        return len(self.fields)

    @cached_property
    def spec_hash(self) -> str:
        """Digest of the field keys, computed once: the spec is frozen."""
        payload = json.dumps([f.key() for f in self.fields], sort_keys=False)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def default_feature_spec(n_regions: int = 0) -> GlobalFeatureSpec:
    """All quantities x all 14 statistics over the whole grid, plus optional
    per-region replicas of the bus-level quantities."""
    fields = [
        FeatureField(q, s) for q in ALL_QUANTITIES for s in ALL_STATS
    ]
    for r in range(n_regions):
        fields.extend(
            FeatureField(q, s, "region", r)
            for q in BUS_QUANTITIES for s in ALL_STATS
        )
    return GlobalFeatureSpec(fields=tuple(fields))


def _value_positions(network: Network, f: FeatureField) -> np.ndarray:
    """Positions of a field's values in a snapshot's flat state vector: the
    bus states, then the element states, both row-major.  May be empty."""
    if f.range_kind not in ("grid", "region"):
        raise GridError(f"feature field {f.key()}: range_kind must be 'grid' or "
                        f"'region', not {f.range_kind!r}")
    if (f.range_kind == "region") != (f.region is not None):
        raise GridError(f"feature field {f.key()}: a region range needs a region, "
                        f"and a grid range takes none")
    n = network.n_bus
    if f.quantity in BUS_QUANTITIES:
        buses = (range(n) if f.range_kind == "grid" else
                 [i for i, b in enumerate(network.buses) if b.region == f.region])
        return np.array(buses, dtype=np.intp) * N_BUS_STATE + BUS_QUANTITIES[f.quantity]
    if f.quantity in ELEMENT_QUANTITIES:
        kind, col = ELEMENT_QUANTITIES[f.quantity]
        ids = [e.id for e in network.elements if e.kind == kind]
        if f.range_kind == "region":
            ids = [i for i in ids if network.elements[i].from_bus < n
                   and network.buses[network.elements[i].from_bus].region == f.region]
        return n * N_BUS_STATE + np.array(ids, dtype=np.intp) * 2 + col
    raise GridError(f"feature field {f.key()}: unknown physical quantity {f.quantity!r}")


@dataclass(frozen=True)
class _StatGroup:
    """Value ranges of one length: row r of ``take`` locates range r's values."""

    take: np.ndarray       # (k, n) positions in the snapshot's flat state vector
    strided: bool          # whether the ranges are columns of the bus-state matrix
    # (statistic, rows of take, spec positions) for each statistic the spec asks
    outputs: tuple[tuple[StatKind, np.ndarray, np.ndarray], ...]


class StatsPlan:
    """The global statistics of one spec on one network, as grouped row
    reductions.

    Fields sharing a ``(quantity, range, region)`` key share one value range.
    Ranges of equal length form one group: the bus quantities over the grid
    share ``n_bus``, region ranges group by region size, and element ranges
    by their element count.  A snapshot gathers each group into one (k, n)
    matrix and computes each statistic the group needs as one reduction along
    its rows.  Empty ranges give 0.  The grid bus quantities, which are
    columns of the bus-state matrix, keep a group of their own (see
    :class:`_Rows`).
    """

    def __init__(self, network: Network, spec: GlobalFeatureSpec):
        self.size = len(spec)
        self.bus_shape = (network.n_bus, N_BUS_STATE)
        self.element_shape = (len(network.elements), 2)
        keys: dict[tuple, np.ndarray] = {}
        for f in spec.fields:
            key = (f.quantity, f.range_kind, f.region)
            if key not in keys:
                keys[key] = _value_positions(network, f)
        by_length: dict[tuple[int, bool], list[tuple]] = {}
        for key, take in keys.items():
            if take.size:
                strided = key[0] in BUS_QUANTITIES and key[1] == "grid"
                by_length.setdefault((take.size, strided), []).append(key)
        self.groups = []
        for (_, strided), group_keys in by_length.items():
            row = {key: r for r, key in enumerate(group_keys)}
            wanted: dict[StatKind, tuple[list[int], list[int]]] = {}
            for pos, f in enumerate(spec.fields):
                r = row.get((f.quantity, f.range_kind, f.region))
                if r is not None:
                    rows, positions = wanted.setdefault(f.stat, ([], []))
                    rows.append(r)
                    positions.append(pos)
            self.groups.append(_StatGroup(
                take=np.stack([keys[key] for key in group_keys]), strided=strided,
                outputs=tuple((kind, np.array(rows, dtype=np.intp),
                               np.array(positions, dtype=np.intp))
                              for kind, (rows, positions) in wanted.items()),
            ))

    def __call__(self, snapshot: Snapshot) -> np.ndarray:
        bus, elements = snapshot.bus_states, snapshot.element_states
        if bus.shape != self.bus_shape or elements.shape != self.element_shape:
            raise GridError(f"snapshot day {snapshot.day} slot {snapshot.slot}: state "
                            f"shapes {bus.shape} and {elements.shape} do not fit the "
                            f"network's {self.bus_shape} and {self.element_shape}")
        flat = np.concatenate((bus.ravel(), elements.ravel()), dtype=float)
        out = np.zeros(self.size)
        # Overflowing moments give inf or nan, which become 0 below.
        with np.errstate(over="ignore", invalid="ignore"):
            for group in self.groups:
                rows = _Rows(flat[group.take], group.strided)
                for kind, at, positions in group.outputs:
                    out[positions] = _ROW_STATS[kind](rows)[at]
        out[~np.isfinite(out)] = 0.0
        return out


def global_stats(network: Network, snapshot: Snapshot,
                 spec: GlobalFeatureSpec) -> np.ndarray:
    """Statistical feature vector; degenerate/empty ranges yield 0, never NaN.

    Runs the :class:`StatsPlan` that the network's memoized index holds for
    ``spec``.
    """
    return _network_index(network).stats_plan(spec)(snapshot)


def _stack(arrays: list, tail: tuple, dtype=np.float64) -> np.ndarray:
    return np.stack(arrays) if arrays else np.zeros((0, *tail), dtype=dtype)


def pack_adjacency(adjacency: np.ndarray) -> np.ndarray:
    """0/1 adjacency matrices with each row packed into bits (``np.packbits``)."""
    if not np.all((adjacency == 0) | (adjacency == 1)):
        raise ValueError("a local subgraph adjacency must hold only 0 and 1")
    return np.packbits(adjacency != 0, axis=-1)


@dataclass(eq=False)
class LineTemplates:
    """Subgraph templates, each array stacked along one leading axis ``L``.

    Template ``t`` places a sample's nodes and links them: node ``j`` is row
    ``rows[t, j]`` of the sample's table, with ``line_values[t, j]`` written
    into LINE_COLUMNS, and its graph is the 0/1 ``adjacency[t]``, packed by
    :func:`pack_adjacency`, over the nodes of ``node_mask[t]``.
    :func:`featurize` uses one object per (network, max_nodes), whose row
    ``i`` :meth:`NetworkIndex.templates` fills with the ``i``-th AC line's
    template.  A dataset of hand-built samples gets one template per sample.

    The arrays are read-only.  ``propagation`` is where the model keeps the
    propagation matrix of every template, once per kind, so that every
    dataset whose store holds these templates shares them.
    """

    rows: np.ndarray           # (L, max_nodes) intp
    line_values: np.ndarray    # (L, max_nodes, len(LINE_COLUMNS))
    adjacency: np.ndarray      # (L, max_nodes, ceil(max_nodes / 8)) uint8
    node_mask: np.ndarray      # (L, max_nodes) bool
    propagation: dict = field(default_factory=dict, init=False)
    _graphs: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for array in (self.rows, self.line_values, self.adjacency, self.node_mask):
            array.flags.writeable = False

    def dense_adjacency(self, templates=slice(None)) -> np.ndarray:
        """The 0/1 adjacency of ``templates``, unpacked to uint8."""
        return np.unpackbits(self.adjacency[templates], axis=-1,
                             count=self.node_mask.shape[1])

    def graph(self, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Template ``t``'s read-only float adjacency and node mask: the same
        two arrays on every call."""
        arrays = self._graphs.get(t)
        if arrays is None:
            adjacency = self.dense_adjacency(t).astype(float)
            adjacency.flags.writeable = False
            arrays = self._graphs[t] = (adjacency, self.node_mask[t])
        return arrays


def gather_nodes(tables: np.ndarray, templates, table, template, node=slice(None),
                 out: np.ndarray | None = None) -> np.ndarray:
    """Node-feature rows at the broadcast ``(table, template, node)`` indices,
    the one code that lays them out: one gather from ``tables`` (into the
    flat buffer ``out``, when given), then the templates' line columns.

    ``templates`` has a :class:`LineTemplates`' ``rows`` and ``line_values``:
    a store's, or a model's standardized copy.  The store's loader checks
    every index; ``mode="clip"`` lets ``np.take`` fill ``out`` directly.
    """
    n_rows, f = tables.shape[1:]
    at = np.multiply(table, n_rows) + templates.rows[template, node]
    if out is not None:
        out = out[:at.size * f].reshape(*at.shape, f)
    out = np.take(tables.reshape(-1, f), at, axis=0, out=out, mode="clip")
    out[..., LINE_COLUMNS] = templates.line_values[template, node]
    return out


class NetworkIndex:
    """Static per-network structure reused across every featurized sample.

    Besides the neighbor structure it holds the per-bus columns that no
    snapshot changes, and it memoizes the stacked :class:`LineTemplates` of
    every AC line per max_nodes, and the :class:`StatsPlan` of the last spec
    seen, for the life of the index.  :func:`featurize` keeps one index per
    process, for the last network it saw while that network is alive.  The
    index refers to its network weakly and is to be used only while the
    network is alive.
    """

    def __init__(self, network: Network):
        # Weak, so that the memoized index does not keep its network alive.
        self._network = weakref.ref(network)
        self.nbrs = neighbor_lists(network)
        n = network.n_bus
        self.degree = np.array([len(self.nbrs[i]) for i in range(n)], dtype=float)
        self.max_degree = float(self.degree.max(initial=0.0)) or 1.0
        self.incident: list[list[int]] = [[] for _ in range(n)]
        for e in network.elements:
            self.incident[e.from_bus].append(e.id)
            self.incident[e.to_bus].append(e.id)
        self.two_hop_count = np.zeros(n)
        self.clustering = np.zeros(n)
        nbr_sets = [set(v) for v in self.nbrs]
        for i in range(n):
            reach = set(self.nbrs[i])
            for j in self.nbrs[i]:
                reach.update(self.nbrs[j])
            reach.discard(i)
            self.two_hop_count[i] = len(reach)
            deg = len(self.nbrs[i])
            if deg >= 2:
                links = sum(
                    1 for a in self.nbrs[i] for b in self.nbrs[i]
                    if a < b and b in nbr_sets[a]
                )
                self.clustering[i] = 2.0 * links / (deg * (deg - 1))
        # Buses grouped by their number k >= 1 of incident AC lines: the
        # group's bus rows and its (g, k) line ids and ratings.
        incident_ac = [[i for i in self.incident[bus] if network.elements[i].kind == AC_LINE]
                       for bus in range(n)]
        by_count: dict[int, list[int]] = {}
        for bus, ids in enumerate(incident_ac):
            if ids:
                by_count.setdefault(len(ids), []).append(bus)
        self._incident_groups = [
            (np.array(buses), np.array([incident_ac[b] for b in buses]),
             np.array([[network.elements[i].rating for i in incident_ac[b]] for b in buses],
                      dtype=float))
            for buses in by_count.values()
        ]
        self.static_rows = self._static_rows(network)
        self._adjacency: np.ndarray | None = None
        self._templates: dict[int, tuple[dict[int, int], LineTemplates]] = {}
        self._plan: tuple[GlobalFeatureSpec, StatsPlan] | None = None

    @property
    def network(self) -> Network | None:
        """The indexed network, or None once nothing else refers to it."""
        return self._network()

    def _static_rows(self, net: Network) -> np.ndarray:
        """(n_bus + 1, NODE_FEATURES) with the per-bus-only columns filled.

        The extra last row stays all-zero; padded subgraph rows gather it.
        """
        rows = np.zeros((net.n_bus + 1, NODE_FEATURES))
        for bus in range(net.n_bus):
            nbr_deg = self.degree[self.nbrs[bus]] if self.nbrs[bus] else np.zeros(1)
            inc = [net.elements[i] for i in self.incident[bus]]
            rows[bus, 47:59] = [
                self.degree[bus],
                0.0,                 # deg_sub, per (line, bus)
                sum(1 for e in inc if e.kind == AC_LINE),
                sum(1 for e in inc if e.kind != AC_LINE and e.kind != DC_LINE),
                sum(1 for e in inc if e.kind == DC_LINE),
                self.degree[bus] / self.max_degree,
                float(nbr_deg.mean()),
                float(nbr_deg.max()),
                float(nbr_deg.min()),
                float(nbr_deg.sum()),
                float(self.two_hop_count[bus]),
                float(self.clustering[bus]),
            ]
        return rows

    def bus_table(self, snapshot: Snapshot, out: np.ndarray | None = None) -> np.ndarray:
        """(n_bus + 1, NODE_FEATURES) node rows of one snapshot, written into
        ``out`` when given.

        Every column except LINE_COLUMNS is final; the last row is all-zero.
        """
        if out is None:
            out = np.empty_like(self.static_rows)
        out[...] = self.static_rows
        out[:-1, :N_BUS_STATE] = snapshot.bus_states
        flows = snapshot.element_states
        # One (g, 6, k) stack per group, reduced along its last axis.  Rows of
        # one length keep numpy's pairwise summation of each row alone, which
        # padding to a common length would regroup from 8 values on.
        for buses, ids, rating in self._incident_groups:
            p, q = flows[ids, 0], flows[ids, 1]
            size = np.abs(p)
            quantities = np.stack(
                (p, q, size / rating, rating - size, np.hypot(p, q), rating), axis=1)
            aggregates = (quantities.sum(axis=2), quantities.mean(axis=2),
                          quantities.max(axis=2), quantities.min(axis=2))
            out[buses, 21:45] = np.stack(aggregates, axis=2).reshape(len(buses), 24)
        return out

    def stats_plan(self, spec: GlobalFeatureSpec) -> StatsPlan:
        """The :class:`StatsPlan` of ``spec``, memoized for the last spec seen;
        an equal spec reuses it."""
        if self._plan is None or (self._plan[0] is not spec and self._plan[0] != spec):
            self._plan = (spec, StatsPlan(self.network, spec))
        return self._plan[1]

    def templates(self, max_nodes: int) -> tuple[dict[int, int], LineTemplates]:
        """Each AC line's position, and every AC line's template, written into
        its row of the stacked arrays in line order; built once per max_nodes."""
        if max_nodes not in self._templates:
            ids = self.network.ac_line_ids()
            shape = (len(ids), max_nodes)
            rows = np.full(shape, self.network.n_bus, dtype=np.intp)
            values = np.zeros((*shape, len(LINE_COLUMNS)))
            adjacency = np.zeros((*shape, max_nodes), dtype=np.uint8)
            for i, eid in enumerate(ids):
                kept, line, adj = self._build_template(eid, max_nodes)
                n = len(kept)
                rows[i, :n], values[i, :n], adjacency[i, :n, :n] = kept, line, adj
            positions = {eid: i for i, eid in enumerate(ids)}
            self._templates[max_nodes] = (positions, LineTemplates(
                rows=rows,
                # Hop one-hots, endpoint flags and counts: small non-negative
                # integers, kept in the smallest unsigned type that holds them.
                # Writing them into a float table is exact.
                line_values=values.astype(np.min_scalar_type(int(values.max(initial=0)))),
                adjacency=pack_adjacency(adjacency),
                node_mask=rows < self.network.n_bus,      # padding reads row n_bus
            ))
        return self._templates[max_nodes]

    def line_position(self, element_id: int, max_nodes: int) -> int:
        """``element_id``'s position in :meth:`templates`; a :class:`GridError`
        when it names no AC line."""
        position = self.templates(max_nodes)[0].get(element_id)
        if position is None:
            self.network.element_by_id(element_id)      # names an unknown id
            raise GridError(f"element {element_id} is not an AC line")
        return position

    def _build_template(self, element_id: int, max_nodes: int) -> tuple:
        """The kept buses of ``element_id``'s subgraph in BFS order, their
        LINE_COLUMNS values and their 0/1 adjacency."""
        network = self.network
        kept, hops = bfs_nodes(network, element_id, max_nodes, self.nbrs)
        elem = network.elements[element_id]
        kept_set = set(kept)
        # Columns of LINE_COLUMNS: the hop one-hot, the two endpoint flags, deg_sub.
        line = np.zeros((len(kept), len(LINE_COLUMNS)))
        for row, bus in enumerate(kept):
            line[row, min(hops[bus], HOP_BUCKETS - 1)] = 1.0
            line[row, HOP_BUCKETS:] = (bus == elem.from_bus, bus == elem.to_bus,
                                       sum(1 for v in self.nbrs[bus] if v in kept_set))
        if self._adjacency is None:
            self._adjacency = build_adjacency(network)
        return kept, line, self._adjacency[np.ix_(kept, kept)]


# (weak reference to a network, its index) for the last network featurized.
# One entry bounds the memo.  The reference's callback empties the memo when
# the network dies, and a dead reference matches no network, so a reused id()
# cannot match; ``Network`` is a frozen dataclass of tuples.
_last_index: list[tuple[weakref.ref, NetworkIndex]] = []


def _network_index(network: Network) -> NetworkIndex:
    """The memoized :class:`NetworkIndex` of ``network``, built when it is not
    the network last seen."""
    if not _last_index or _last_index[0][0]() is not network:
        _last_index[:] = [(weakref.ref(network, lambda _: _last_index.clear()),
                           NetworkIndex(network))]
    return _last_index[0][1]


class LocalGraph:
    """Padded fault-local subgraph: masked-out rows/columns stay all-zero.

    ``LocalGraph(adjacency, node_features, node_mask, fault_element_id)``
    holds its own arrays; the adjacency is 0/1.  Given ``source=(tables,
    templates, table, template)`` instead, the graph is a position in a
    store: its ``adjacency`` and ``node_mask`` are its template's shared
    read-only arrays (:meth:`LineTemplates.graph`), and :func:`gather_nodes`
    copies its ``node_features`` out of the store when they are first read.
    """

    def __init__(self, adjacency, node_features, node_mask, fault_element_id: int,
                 source: tuple | None = None):
        self._adjacency = adjacency
        self._node_features = node_features
        self._node_mask = node_mask
        self.fault_element_id = fault_element_id
        self.source = source

    @property
    def adjacency(self) -> np.ndarray:      # (max_nodes, max_nodes)
        if self.source is None:
            return self._adjacency
        return self.source[1].graph(self.source[3])[0]

    @property
    def node_mask(self) -> np.ndarray:      # (max_nodes,) bool
        if self.source is None:
            return self._node_mask
        return self.source[1].graph(self.source[3])[1]

    @property
    def node_features(self) -> np.ndarray:  # (max_nodes, NODE_FEATURES)
        if self._node_features is None:
            self._node_features = gather_nodes(*self.source)
        return self._node_features

    @property
    def n_real(self) -> int:
        return int(self.node_mask.sum())


def bfs_nodes(network: Network, element_id: int, max_nodes: int,
              nbrs: list[list[int]] | None = None) -> tuple[list[int], dict[int, int]]:
    """First ``max_nodes`` buses visited by BFS from the faulted line.

    Both endpoints seed the search (from_bus first); neighbors are expanded
    in ascending bus-id order; a bus counts as visited when first reached.
    Returns the kept buses in visitation order and their hop distances.
    """
    if nbrs is None:
        nbrs = neighbor_lists(network)
    elem = network.element_by_id(element_id)
    if elem.kind != AC_LINE:
        raise GridError(f"element {element_id} is not an AC line")
    return bfs(nbrs, [elem.from_bus, elem.to_bus], max_nodes=max_nodes)


def local_subgraph(network: Network, snapshot: Snapshot, element_id: int,
                   max_nodes: int = LOCAL_NODES, index: NetworkIndex | None = None,
                   table: tuple[np.ndarray, int] | None = None) -> LocalGraph:
    """Fault-local subgraph tensor pair (adjacency, node features).

    Node feature layout (59 per node), with what each column depends on:
      [0:13)   snapshot bus state                            bus, snapshot
      [13:21)  hop distance one-hot (0..6, then 7+)          line, bus
      [21:45)  incident AC lines: (p, q, loading, headroom,  bus, snapshot
               |s|, rating) aggregated by (sum, mean, max, min)
      [45:47)  faulted-line endpoint flags (from, to side)   line, bus
      [47:59)  degree/structure stats                        bus
               (except deg_sub, column 48: line, bus)

    The graph is a position in the store (:class:`LocalGraph`'s
    ``source``), which copies its node rows out when they are first read.
    ``table`` is ``(tables, k)`` when ``snapshot``'s bus table is already
    row ``k`` of ``tables``, as :func:`featurize` passes it; otherwise the
    call builds the table.  Pass one ``index`` to reuse the templates across
    calls; without one, the call uses the memoized index of ``network``.
    """
    if index is None:
        index = _network_index(network)
    line = index.line_position(element_id, max_nodes)
    if table is None:
        tables = index.bus_table(snapshot)[None]
        tables.flags.writeable = False
        table = (tables, 0)
    return LocalGraph(None, None, None, element_id,
                      source=(table[0], index.templates(max_nodes)[1], table[1], line))


# A dataset's int64 columns: the fault, and its rows in the store.
FAULT_COLUMNS = ("day", "slot", "element_id", "label")
INDEX_COLUMNS = ("table_index", "template_index")
COLUMNS = (*FAULT_COLUMNS, *INDEX_COLUMNS)


def int_columns(records, names) -> dict[str, np.ndarray]:
    """One int64 array per field of ``names``: a dict's columns as they are,
    or the fields of a list of records, where an unlabeled record's label
    (None) is -1."""
    if isinstance(records, dict):
        return {name: np.asarray(records[name], dtype=np.int64) for name in names}
    return {name: np.array([-1 if v is None else v for v in map(attrgetter(name), records)],
                           dtype=np.int64) for name in names}


@dataclass
class FeaturizedSample:
    day: int
    slot: int
    element_id: int
    label: int | None
    global_vec: np.ndarray
    local: LocalGraph

    @property
    def fault_key(self) -> str:
        return f"d{self.day}s{self.slot}e{self.element_id}"


@dataclass(eq=False)
class FeatureStore:
    """The arrays a dataset's index columns point into, shared by its views.

    A sample's ``table_index`` selects its global vector and its table, rows
    of ``global_vecs`` and ``tables``; its ``template_index`` selects its
    template (see :class:`LineTemplates`).  Its node matrix is
    ``gather_nodes(tables, templates, table, template, :)``.  From
    :func:`featurize` there is one global vector and one table per snapshot,
    and the network's templates are shared, not copied.
    """

    global_vecs: np.ndarray    # (T, global_dim)
    tables: np.ndarray         # (T, R, NODE_FEATURES), read-only
    templates: LineTemplates

    @classmethod
    def of(cls, samples: list[FeaturizedSample], global_dim: int,
           max_nodes: int) -> tuple[FeatureStore, dict[str, np.ndarray]]:
        """The store and the columns of hand-built ``samples``: each sample
        gets its own global vector, table (its graph's ``node_features``) and
        template."""
        graphs = [s.local for s in samples]
        tables = _stack([g.node_features for g in graphs], (max_nodes, NODE_FEATURES))
        tables.flags.writeable = False
        m = tables.shape[1]
        templates = LineTemplates(
            rows=np.tile(np.arange(m), (len(graphs), 1)),
            line_values=tables[:, :, LINE_COLUMNS],
            adjacency=pack_adjacency(_stack([g.adjacency for g in graphs], (m, m))),
            node_mask=_stack([g.node_mask for g in graphs], (m,), bool),
        )
        own = np.arange(len(samples), dtype=np.int64)
        columns = {**int_columns(samples, FAULT_COLUMNS), **dict.fromkeys(INDEX_COLUMNS, own)}
        return cls(global_vecs=_stack([s.global_vec for s in samples], (global_dim,)),
                   tables=tables, templates=templates), columns


class FeaturizedDataset:
    """Featurized samples: int64 ``columns`` (:data:`COLUMNS`, ``label`` -1
    when unlabeled) whose index columns point into a :class:`FeatureStore`.

    Sample ``i`` is row ``i`` of every column.  :meth:`take` gives a view
    that shares the store, the header and ``raw_states`` ((day, slot) ->
    (n_bus, 13), when carried).  ``FeaturizedDataset(samples, spec, ...)``
    builds a dataset from hand-built :class:`FeaturizedSample` objects, and
    ``samples`` builds such objects on each read, for tests and the
    benchmark; a change to one is not seen by the dataset.
    """

    def __init__(self, samples: list[FeaturizedSample] | None = None,
                 spec: GlobalFeatureSpec | None = None, n_elements: int = 0,
                 max_nodes: int = LOCAL_NODES, synth_fingerprint: str = "",
                 raw_states: dict | None = None, *, columns: dict | None = None,
                 store: FeatureStore | None = None):
        if samples is not None:
            store, columns = FeatureStore.of(samples, len(spec), max_nodes)
        self.spec, self.n_elements, self.max_nodes = spec, n_elements, max_nodes
        self.synth_fingerprint = synth_fingerprint
        self.raw_states = {} if raw_states is None else raw_states
        self.columns: dict[str, np.ndarray] = {name: columns[name] for name in COLUMNS}
        self.store = store

    def __len__(self) -> int:
        return len(self.columns["label"])

    def take(self, rows) -> FeaturizedDataset:
        """The samples at ``rows``, in that order, as a view."""
        view = copy.copy(self)
        view.columns = {name: column[rows] for name, column in self.columns.items()}
        return view

    @property
    def samples(self) -> list[FeaturizedSample]:
        """Every sample, built on each read.  Samples share their table's
        global vector, and their template's read-only adjacency and node
        mask; each copies its node matrix out of the store when it is first
        read.  A graph's ``fault_element_id`` is its sample's element."""
        store = self.store
        vecs = list(store.global_vecs)
        return [
            FeaturizedSample(day, slot, element_id, None if label < 0 else label, vecs[table],
                             LocalGraph(None, None, None, element_id,
                                        source=(store.tables, store.templates, table,
                                                template)))
            for day, slot, element_id, label, table, template
            in zip(*(self.columns[name].tolist() for name in COLUMNS))]

    @property
    def global_dim(self) -> int:
        return len(self.spec)

    def feature_spec_hash(self) -> str:
        payload = json.dumps({
            "spec": self.spec.spec_hash,
            "n_elements": self.n_elements,
            "max_nodes": self.max_nodes,
            "node_features": NODE_FEATURES,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def labels(self) -> np.ndarray:
        """The labels as floats, which every fit, calibration and metric reads:
        unlabeled faults (label -1) are a ValueError naming the first."""
        label = self.columns["label"]
        unlabeled = np.flatnonzero(label < 0)
        if unlabeled.size:
            day, slot, element_id = (self.columns[name][unlabeled[0]]
                                     for name in ("day", "slot", "element_id"))
            raise ValueError(f"{unlabeled.size} of {len(label)} faults are unlabeled "
                             f"(label -1), the first day {day} slot {slot} element "
                             f"{element_id}: they cannot be fitted, calibrated or scored")
        return label.astype(float)

    def global_rows(self, rows=slice(None)) -> np.ndarray:
        """The global vectors of the samples at ``rows``."""
        return self.store.global_vecs[self.columns["table_index"][rows]]

    def raw_rows(self, rows=slice(None)) -> np.ndarray:
        """The (n, n_bus, 13) raw states of the samples at ``rows``."""
        keys = zip(*(self.columns[name][rows].tolist() for name in ("day", "slot")))
        return np.stack([self.raw_states[key] for key in keys])


def key_groups(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct key of the int ``columns``, in
    first-seen order, and the place of each row's key in that order."""
    order = np.lexsort(columns[::-1])      # stable: a key's rows keep their order
    ordered = [column[order] for column in columns]
    new = np.ones(len(order), dtype=bool)
    new[1:] = np.any([c[1:] != c[:-1] for c in ordered], axis=0)
    first = order[new]                     # in key order
    group = np.empty(len(order), dtype=np.intp)
    group[order] = np.argsort(np.argsort(first))[np.cumsum(new) - 1]
    return np.sort(first), group


def snapshot_globals(network: Network, snapshots, keys,
                     spec: GlobalFeatureSpec) -> dict[tuple, tuple[Snapshot, np.ndarray]]:
    """(day, slot) -> (snapshot, global statistic vector) for each of the
    distinct (day, slot) ``keys``, in their order.

    Each snapshot is checked with :func:`validate_snapshot`; the first missing
    or bad one raises :class:`GridError` naming it (and its violations).
    """
    by_key = {(s.day, s.slot): s for s in snapshots}
    out: dict[tuple, tuple[Snapshot, np.ndarray]] = {}
    for day, slot in keys:
        snap = by_key.get((day, slot))
        if snap is None:
            raise GridError(f"no snapshot for day {day} slot {slot}")
        errors = validate_snapshot(network, snap)
        if errors:
            raise GridError(f"snapshot day {day} slot {slot}: " + "; ".join(errors))
        out[day, slot] = (snap, global_stats(network, snap, spec))
    return out


def featurize(network: Network, snapshots, faults, spec: GlobalFeatureSpec,
              max_nodes: int = LOCAL_NODES, include_raw: bool = False,
              synth_fingerprint: str = "") -> FeaturizedDataset:
    """Featurize faults against their snapshots (deterministic order).

    ``faults`` are the :data:`FAULT_COLUMNS` or a :class:`~grid.FaultSample`
    list, converted to them once; each fault is one row of the dataset's
    columns, in the order given.  Snapshots are validated and their global
    vectors computed by :func:`snapshot_globals`.  The store holds one
    global vector and one bus table per snapshot, in first-seen fault order
    (:func:`key_groups`), and the network index's templates.  With
    ``include_raw``, each snapshot's raw state is a read-only view of its
    bus table's first :data:`~grid.N_BUS_STATE` columns, not a copy.
    """
    index = _network_index(network)
    columns = int_columns(faults, FAULT_COLUMNS)
    first, position = key_groups(columns["day"], columns["slot"])
    keys = zip(*(columns[name][first].tolist() for name in ("day", "slot")))
    per_snapshot = snapshot_globals(network, snapshots, keys, spec)
    snaps = [snap for snap, _ in per_snapshot.values()]
    tables = np.empty((len(snaps), network.n_bus + 1, NODE_FEATURES))
    for k, snap in enumerate(snaps):
        index.bus_table(snap, out=tables[k])
    tables.flags.writeable = False
    # One local_subgraph call per fault, as benchmark/tests/test_bench_tracer.py
    # counts them; the graph's source holds the fault's template.
    templates = [local_subgraph(network, snaps[k], element_id, max_nodes, index,
                                table=(tables, k)).source[3]
                 for k, element_id in zip(position.tolist(), columns["element_id"].tolist())]
    columns.update(table_index=position.astype(np.int64),
                   template_index=np.array(templates, dtype=np.int64))
    vecs = _stack([vec for _, vec in per_snapshot.values()], (len(spec),))
    store = FeatureStore(vecs, tables, index.templates(max_nodes)[1])
    raw_states = ({key: tables[k, :-1, :N_BUS_STATE] for k, key in enumerate(per_snapshot)}
                  if include_raw else {})
    return FeaturizedDataset(
        spec=spec, n_elements=len(network.elements), max_nodes=max_nodes,
        synth_fingerprint=synth_fingerprint, raw_states=raw_states,
        columns=columns, store=store,
    )
