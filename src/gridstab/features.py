"""Feature extraction: grid-wide statistics and the fault-local subgraph.

Global features are (physical quantity, statistic, range) triples evaluated
over one snapshot; :func:`snapshot_globals` validates each snapshot a set of
faults refers to and computes its vector once.  Local features describe the
50-node breadth-first neighborhood of the faulted line (:func:`bfs_nodes`,
a walk by :func:`grid.bfs`) as an adjacency matrix plus a 59-dim feature
row per node.

Each part of a local subgraph is computed once for what it depends on:

* per bus and snapshot: the bus state (columns 0-12) and the incident-AC-line
  aggregates (21-44), in one bus table per snapshot;
* per bus only: the degree and structure statistics (47-58) except
  ``deg_sub`` (48), in the same table;
* per line: the BFS order, node mask and padded adjacency;
* per (line, bus): the hop one-hot (13-20), the endpoint flags (45-46) and
  ``deg_sub`` (48).

The last two live in a per-line template.  A sample gathers its kept buses'
rows from the bus table and writes the template's per-(line, bus) columns.

The per-network parts live as long as the network: :func:`featurize` and
:func:`local_subgraph` without an ``index`` share one :class:`NetworkIndex`
for the last :class:`~grid.Network` object they saw, so an online screen
builds the index and the line templates once per process and each snapshot
pays only for its own bus table and global vector.  The memo holds one
network, and drops it when nothing else refers to the network.  The index's
per-snapshot memo is emptied when a call starts, and again when
``featurize`` returns, so it holds only the snapshots of the running call; a
snapshot's arrays must not change during a call.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .grid import (
    AC_LINE, DC_LINE, GridError, Network, Snapshot, bfs, build_adjacency,
    neighbor_lists, validate_snapshot,
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


def _quantile(values: np.ndarray, q: float) -> float:
    return float(np.quantile(values, q))


def _trim_bounds(n: int) -> tuple[int, int]:
    k = int(np.floor(0.1 * n))
    return k, n - k


def compute_statistic(values, kind: StatKind) -> float:
    """One statistic of a non-empty value list.

    Degenerate cases follow fixed conventions: Sd of one value is 0,
    Skew/Kurt of a constant vector are 0 (Kurt is excess kurtosis), Mj10
    trims floor(n/10) values from each end, Msd = 1.4826 * Mad.
    """
    x = np.asarray(values, dtype=float)
    if x.size == 0:
        raise ValueError("compute_statistic needs a non-empty value list")
    if kind is StatKind.MAX:
        return float(x.max())
    if kind is StatKind.MIN:
        return float(x.min())
    if kind is StatKind.MEAN:
        return float(x.mean())
    if kind is StatKind.SD:
        return 0.0 if x.size < 2 else float(x.std(ddof=1))
    if kind is StatKind.SKEW:
        m2 = float(((x - x.mean()) ** 2).mean())
        if m2 <= 0.0:
            return 0.0
        m3 = float(((x - x.mean()) ** 3).mean())
        return m3 / m2 ** 1.5
    if kind is StatKind.KURT:
        m2 = float(((x - x.mean()) ** 2).mean())
        if m2 <= 0.0:
            return 0.0
        m4 = float(((x - x.mean()) ** 4).mean())
        return m4 / m2 ** 2 - 3.0
    if kind is StatKind.MEDIAN:
        return float(np.median(x))
    if kind is StatKind.MAD:
        return float(np.median(np.abs(x - np.median(x))))
    if kind is StatKind.MSD:
        return 1.4826 * float(np.median(np.abs(x - np.median(x))))
    if kind is StatKind.Q1:
        return _quantile(x, 0.25)
    if kind is StatKind.Q3:
        return _quantile(x, 0.75)
    if kind is StatKind.INTERQ:
        return _quantile(x, 0.75) - _quantile(x, 0.25)
    if kind is StatKind.MJ10:
        lo, hi = _trim_bounds(x.size)
        return float(np.sort(x)[lo:hi].mean())
    if kind is StatKind.MJ10S:
        lo, hi = _trim_bounds(x.size)
        trimmed = np.sort(x)[lo:hi]
        return 0.0 if trimmed.size < 2 else float(trimmed.std(ddof=1))
    raise ValueError(f"unknown statistic {kind!r}")


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

    def spec_hash(self) -> str:
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


def quantity_values(network: Network, snapshot: Snapshot,
                    quantity: str, range_kind: str = "grid",
                    region: int | None = None) -> np.ndarray:
    """Raw values a feature field aggregates; may be empty for a range."""
    if quantity in BUS_QUANTITIES:
        col = snapshot.bus_states[:, BUS_QUANTITIES[quantity]]
        if range_kind == "grid":
            return np.asarray(col, dtype=float)
        mask = np.array([b.region == region for b in network.buses])
        return np.asarray(col[mask], dtype=float)
    if quantity in ELEMENT_QUANTITIES:
        kind, state_col = ELEMENT_QUANTITIES[quantity]
        ids = [e.id for e in network.elements if e.kind == kind]
        if range_kind == "region":
            ids = [i for i in ids if network.elements[i].from_bus < network.n_bus
                   and network.buses[network.elements[i].from_bus].region == region]
        return np.asarray(snapshot.element_states[ids, state_col], dtype=float)
    raise GridError(f"unknown physical quantity {quantity!r}")


def global_stats(network: Network, snapshot: Snapshot,
                 spec: GlobalFeatureSpec) -> np.ndarray:
    """Statistical feature vector; degenerate/empty ranges yield 0, never NaN."""
    out = np.zeros(len(spec))
    cache: dict[tuple, np.ndarray] = {}
    for i, f in enumerate(spec.fields):
        key = (f.quantity, f.range_kind, f.region)
        if key not in cache:
            cache[key] = quantity_values(network, snapshot, f.quantity,
                                         f.range_kind, f.region)
        values = cache[key]
        if values.size == 0:
            continue
        v = compute_statistic(values, f.stat)
        out[i] = v if np.isfinite(v) else 0.0
    return out


def global_raw(snapshot: Snapshot) -> np.ndarray:
    """Copy of the raw per-bus state matrix in the documented column order."""
    return np.array(snapshot.bus_states, dtype=float, copy=True)


@dataclass(frozen=True)
class LineTemplate:
    """Snapshot-independent part of one AC line's local subgraph."""

    rows: np.ndarray           # (max_nodes,) bus-table row per node; padding -> zero row
    line_values: np.ndarray    # (max_nodes, len(LINE_COLUMNS))
    adjacency: np.ndarray      # (max_nodes, max_nodes) 0/1, read-only
    node_mask: np.ndarray      # (max_nodes,) bool, read-only


class NetworkIndex:
    """Static per-network structure reused across every featurized sample.

    Besides the neighbor structure it holds the per-bus columns that no
    snapshot changes, and it memoizes one :class:`LineTemplate` per (AC line,
    max_nodes) for the life of the index and one bus table per snapshot (by
    object identity).  :func:`featurize` keeps one index per process, for the
    last network it saw while that network is alive, and empties the
    bus-table memo when each call starts and when it returns, so that memo
    holds the snapshots of one call.  The snapshots' arrays must not change
    while their tables are memoized.  The index refers to its network weakly
    and is to be used only while the network is alive.
    """

    def __init__(self, network: Network):
        # Weak, so that the memoized index does not keep its network alive.
        self._network = weakref.ref(network)
        self.nbrs = neighbor_lists(network)
        n = network.n_bus
        self.degree = np.array([len(self.nbrs[i]) for i in range(n)], dtype=float)
        self.max_degree = float(self.degree.max()) if n else 1.0
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
        self.incident_ac = [
            np.array([i for i in self.incident[bus] if network.elements[i].kind == AC_LINE],
                     dtype=int)
            for bus in range(n)
        ]
        self.incident_ac_rating = [
            np.array([network.elements[i].rating for i in ids]) for ids in self.incident_ac
        ]
        self.static_rows = self._static_rows(network)
        self._adjacency: np.ndarray | None = None
        self._tables: dict[int, tuple[Snapshot, np.ndarray]] = {}
        self._templates: dict[tuple[int, int], LineTemplate] = {}

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

    def bus_table(self, snapshot: Snapshot) -> np.ndarray:
        """Read-only (n_bus + 1, NODE_FEATURES) node rows of one snapshot.

        Every column except LINE_COLUMNS is final; the last row is all-zero.
        """
        cached = self._tables.get(id(snapshot))
        if cached is not None and cached[0] is snapshot:
            return cached[1]
        table = self.static_rows.copy()
        table[:-1, 0:13] = snapshot.bus_states
        flows = snapshot.element_states
        for bus, ids in enumerate(self.incident_ac):
            if ids.size:
                p, q = flows[ids, 0], flows[ids, 1]
                rating = self.incident_ac_rating[bus]
                loading = np.abs(p) / rating
                quantities = [p, q, loading, rating - np.abs(p), np.hypot(p, q), rating]
                col = 21
                for vals in quantities:
                    table[bus, col:col + 4] = [vals.sum(), vals.mean(), vals.max(), vals.min()]
                    col += 4
        table.flags.writeable = False
        self._tables[id(snapshot)] = (snapshot, table)
        return table

    def line_template(self, element_id: int, max_nodes: int) -> LineTemplate:
        key = (element_id, max_nodes)
        if key not in self._templates:
            self._templates[key] = self._build_template(element_id, max_nodes)
        return self._templates[key]

    def _build_template(self, element_id: int, max_nodes: int) -> LineTemplate:
        network = self.network
        kept, hops = bfs_nodes(network, element_id, max_nodes, self.nbrs)
        elem = network.elements[element_id]
        n = len(kept)
        kept_set = set(kept)
        line = np.zeros((max_nodes, NODE_FEATURES))
        for row, bus in enumerate(kept):
            line[row, 13 + min(hops[bus], HOP_BUCKETS - 1)] = 1.0
            line[row, 45] = 1.0 if bus == elem.from_bus else 0.0
            line[row, 46] = 1.0 if bus == elem.to_bus else 0.0
            line[row, 48] = float(sum(1 for v in self.nbrs[bus] if v in kept_set))
        rows = np.full(max_nodes, network.n_bus)
        rows[:n] = kept
        if self._adjacency is None:
            self._adjacency = build_adjacency(network)
        adj = np.zeros((max_nodes, max_nodes))
        adj[:n, :n] = self._adjacency[np.ix_(kept, kept)]
        mask = np.zeros(max_nodes, dtype=bool)
        mask[:n] = True
        adj.flags.writeable = False
        mask.flags.writeable = False
        return LineTemplate(rows=rows, line_values=line[:, LINE_COLUMNS],
                            adjacency=adj, node_mask=mask)


# (weak reference to a network, its index) for the last network featurized.
# One entry bounds the memo.  The reference's callback empties the memo when
# the network dies, and a dead reference matches no network, so a reused id()
# cannot match; ``Network`` is a frozen dataclass of tuples.
_last_index: list[tuple[weakref.ref, NetworkIndex]] = []


def _network_index(network: Network) -> NetworkIndex:
    """The memoized :class:`NetworkIndex` of ``network``, built when it is not
    the network last seen, with its bus-table memo emptied for a new call."""
    if not _last_index or _last_index[0][0]() is not network:
        _last_index[:] = [(weakref.ref(network, lambda _: _last_index.clear()),
                           NetworkIndex(network))]
    index = _last_index[0][1]
    index._tables.clear()
    return index


@dataclass(frozen=True)
class LocalGraph:
    """Padded fault-local subgraph: masked-out rows/columns stay all-zero.

    ``featurize`` gives every sample of one line the same read-only
    ``adjacency`` and ``node_mask`` arrays; ``node_features`` is per sample.
    """

    adjacency: np.ndarray      # (max_nodes, max_nodes) 0/1
    node_features: np.ndarray  # (max_nodes, NODE_FEATURES)
    node_mask: np.ndarray      # (max_nodes,) bool
    fault_element_id: int

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
                   max_nodes: int = LOCAL_NODES,
                   index: NetworkIndex | None = None) -> LocalGraph:
    """Fault-local subgraph tensor pair (adjacency, node features).

    Node feature layout (59 per node), with what each column depends on:
      [0:13)   snapshot bus state                            bus, snapshot
      [13:21)  hop distance one-hot (0..6, then 7+)          line, bus
      [21:45)  incident AC lines: (p, q, loading, headroom,  bus, snapshot
               |s|, rating) aggregated by (sum, mean, max, min)
      [45:47)  faulted-line endpoint flags (from, to side)   line, bus
      [47:59)  degree/structure stats                        bus
               (except deg_sub, column 48: line, bus)

    The adjacency and node mask depend on the line only and are read-only
    arrays shared through ``index``; pass one index to reuse them and the
    snapshot's bus table across calls.  Without one, the call uses the
    memoized index of ``network``.
    """
    if index is None:
        index = _network_index(network)
    template = index.line_template(element_id, max_nodes)
    feats = index.bus_table(snapshot)[template.rows]
    feats[:, LINE_COLUMNS] = template.line_values
    return LocalGraph(adjacency=template.adjacency, node_features=feats,
                      node_mask=template.node_mask, fault_element_id=element_id)


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


@dataclass
class FeaturizedDataset:
    samples: list[FeaturizedSample]
    spec: GlobalFeatureSpec
    n_elements: int
    max_nodes: int = LOCAL_NODES
    synth_fingerprint: str = ""
    raw_states: dict = field(default_factory=dict)   # (day, slot) -> (n_bus, 13)

    @property
    def global_dim(self) -> int:
        return len(self.spec)

    def feature_spec_hash(self) -> str:
        payload = json.dumps({
            "spec": self.spec.spec_hash(),
            "n_elements": self.n_elements,
            "max_nodes": self.max_nodes,
            "node_features": NODE_FEATURES,
        }, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def labels(self) -> np.ndarray:
        return np.array([s.label for s in self.samples], dtype=float)


def snapshot_globals(network: Network, snapshots, faults,
                     spec: GlobalFeatureSpec) -> dict[tuple, tuple[Snapshot, np.ndarray]]:
    """(day, slot) -> (snapshot, global statistic vector) for every snapshot
    the faults refer to, in first-seen fault order.

    Each snapshot is checked once with :func:`validate_snapshot`; a missing
    or bad one raises :class:`GridError` naming it (and its violations).
    """
    by_key = {(s.day, s.slot): s for s in snapshots}
    out: dict[tuple, tuple[Snapshot, np.ndarray]] = {}
    for fs in faults:
        key = (fs.day, fs.slot)
        if key in out:
            continue
        snap = by_key.get(key)
        if snap is None:
            raise GridError(f"no snapshot for day {fs.day} slot {fs.slot}")
        errors = validate_snapshot(network, snap)
        if errors:
            raise GridError(f"snapshot day {snap.day} slot {snap.slot}: "
                            + "; ".join(errors))
        out[key] = (snap, global_stats(network, snap, spec))
    return out


def featurize(network: Network, snapshots, faults, spec: GlobalFeatureSpec,
              max_nodes: int = LOCAL_NODES, include_raw: bool = False,
              synth_fingerprint: str = "") -> FeaturizedDataset:
    """Featurize fault samples against their snapshots (deterministic order).

    Snapshots are validated and their global vectors computed by
    :func:`snapshot_globals`; all samples of one snapshot share its vector.
    """
    index = _network_index(network)
    per_snapshot = snapshot_globals(network, snapshots, faults, spec)
    samples = []
    for fs in faults:
        snap, global_vec = per_snapshot[(fs.day, fs.slot)]
        samples.append(FeaturizedSample(
            day=fs.day, slot=fs.slot, element_id=fs.element_id, label=fs.label,
            global_vec=global_vec,
            local=local_subgraph(network, snap, fs.element_id, max_nodes, index),
        ))
    # Tables kept past the call pin heap pages under later allocations: kept,
    # they raised the cli benchmark's peak RSS by about 6 MB.
    index._tables.clear()
    raw_states = ({key: global_raw(snap) for key, (snap, _) in per_snapshot.items()}
                  if include_raw else {})
    return FeaturizedDataset(
        samples=samples, spec=spec, n_elements=len(network.elements),
        max_nodes=max_nodes, synth_fingerprint=synth_fingerprint,
        raw_states=raw_states,
    )
