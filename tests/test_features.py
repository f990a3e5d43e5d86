import math

import numpy as np
import pytest

from gridstab.features import (
    ALL_QUANTITIES, ALL_STATS, LOCAL_TOTAL_DIM, NODE_FEATURES, FeatureField,
    GlobalFeatureSpec, NetworkIndex, StatKind, bfs_nodes, compute_statistic,
    default_feature_spec, featurize, global_stats, local_subgraph,
)
from gridstab.grid import (
    AC_LINE, Bus, Element, FaultSample, GridError, Network, Snapshot, build_adjacency,
)
from gridstab.synth import SynthConfig, generate_day, generate_network

from conftest import chain_network, zero_snapshot


# ------------------------------------------------------- naive references

def ref_quantile(xs, q):
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ref_stat(values, kind):
    """Pure-python reference for every statistic."""
    xs = list(map(float, values))
    n = len(xs)
    mean = sum(xs) / n
    if kind is StatKind.MAX:
        return max(xs)
    if kind is StatKind.MIN:
        return min(xs)
    if kind is StatKind.MEAN:
        return mean
    if kind is StatKind.SD:
        return 0.0 if n < 2 else math.sqrt(sum((x - mean) ** 2 for x in xs) / (n - 1))
    if kind in (StatKind.SKEW, StatKind.KURT):
        m2 = sum((x - mean) ** 2 for x in xs) / n
        if m2 <= 0:
            return 0.0
        if kind is StatKind.SKEW:
            return (sum((x - mean) ** 3 for x in xs) / n) / m2 ** 1.5
        return (sum((x - mean) ** 4 for x in xs) / n) / m2 ** 2 - 3.0
    if kind is StatKind.MEDIAN:
        return ref_quantile(xs, 0.5)
    med = ref_quantile(xs, 0.5)
    if kind is StatKind.MAD:
        return ref_quantile([abs(x - med) for x in xs], 0.5)
    if kind is StatKind.MSD:
        return 1.4826 * ref_quantile([abs(x - med) for x in xs], 0.5)
    if kind is StatKind.Q1:
        return ref_quantile(xs, 0.25)
    if kind is StatKind.Q3:
        return ref_quantile(xs, 0.75)
    if kind is StatKind.INTERQ:
        return ref_quantile(xs, 0.75) - ref_quantile(xs, 0.25)
    k = int(math.floor(0.1 * n))
    trimmed = sorted(xs)[k:n - k]
    if kind is StatKind.MJ10:
        return sum(trimmed) / len(trimmed)
    if kind is StatKind.MJ10S:
        if len(trimmed) < 2:
            return 0.0
        tm = sum(trimmed) / len(trimmed)
        return math.sqrt(sum((x - tm) ** 2 for x in trimmed) / (len(trimmed) - 1))
    raise AssertionError(kind)


def ref_bfs_first_k(network, element_id, k):
    """Independent level-set BFS honoring the ascending-id tie-break."""
    nbrs = {b.id: set() for b in network.buses}
    for e in network.elements:
        nbrs[e.from_bus].add(e.to_bus)
        nbrs[e.to_bus].add(e.from_bus)
    elem = network.elements[element_id]
    order = [elem.from_bus] + ([elem.to_bus] if elem.to_bus != elem.from_bus else [])
    seen = set(order)
    frontier = list(order)
    while frontier and len(order) < k:
        nxt = []
        for u in frontier:
            for v in sorted(nbrs[u]):
                if v not in seen:
                    seen.add(v)
                    order.append(v)
                    nxt.append(v)
                    if len(order) >= k:
                        return order
        frontier = nxt
    return order


# --------------------------------------------------------------- statistics

def test_exactly_fourteen_statistics():
    assert len(ALL_STATS) == 14


def test_stat_frozen_examples():
    assert compute_statistic([1, 2, 3], StatKind.MEAN) == 2.0
    assert compute_statistic([1, 2, 3], StatKind.MAD) == 1.0
    # drop 0 and 9, mean of 1..8 = 4.5
    assert compute_statistic(list(range(10)), StatKind.MJ10) == 4.5
    assert compute_statistic([1, 2, 3], StatKind.MSD) == pytest.approx(1.4826)
    assert compute_statistic([1, 2, 3, 4], StatKind.INTERQ) == pytest.approx(1.5)


def test_stat_degenerate_conventions():
    assert compute_statistic([5.0], StatKind.SD) == 0.0
    assert compute_statistic([2.0, 2.0, 2.0], StatKind.SKEW) == 0.0
    assert compute_statistic([2.0, 2.0, 2.0], StatKind.KURT) == 0.0
    with pytest.raises(ValueError):
        compute_statistic([], StatKind.MEAN)


def test_statistics_run_without_numpy_median_or_quantile(small_world, monkeypatch):
    """The order statistics are partition kernels planned once per network,
    not calls of numpy's median, quantile or percentile wrappers."""
    def refuse(*args, **kwargs):
        raise AssertionError("a numpy median, quantile or percentile wrapper ran")

    for name in ("median", "quantile", "percentile"):
        monkeypatch.setattr(np, name, refuse)
    faults = [f for f in small_world["faults"] if f.day == 0]
    ds = featurize(small_world["network"], small_world["snapshots"], faults,
                   default_feature_spec(3))
    assert len(ds) == len(faults)
    for kind in ALL_STATS:
        assert math.isfinite(compute_statistic([3.0, -1.0, 0.5, 2.0, 2.0], kind))


def test_all_stats_match_reference_on_random_vectors():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        values = rng.normal(scale=rng.uniform(0.1, 50), size=n)
        for kind in ALL_STATS:
            got = compute_statistic(values, kind)
            want = ref_stat(values, kind)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (kind, n)


# ------------------------------------------------------------ global features

def test_global_stats_single_field():
    net = chain_network(4)
    snap = zero_snapshot(net)
    snap.bus_states[:, 0] = 1.0
    spec = GlobalFeatureSpec(fields=(FeatureField("V", StatKind.MEAN),))
    assert global_stats(net, snap, spec).tolist() == [1.0]


def test_feature_spec_size_product():
    spec = GlobalFeatureSpec(fields=tuple(
        FeatureField(q, s) for q in list(ALL_QUANTITIES)[:13] for s in ALL_STATS))
    assert len(spec) == 182


def test_default_spec_counts():
    assert len(default_feature_spec()) == 14 * 14
    assert len(default_feature_spec(n_regions=2)) == 14 * 14 + 2 * 10 * 14


def test_duplicate_field_rejected():
    with pytest.raises(ValueError):
        GlobalFeatureSpec(fields=(
            FeatureField("V", StatKind.MEAN), FeatureField("V", StatKind.MEAN)))


def test_unknown_quantity_errors():
    net = chain_network(3)
    spec = GlobalFeatureSpec(fields=(FeatureField("bogus", StatKind.MEAN),))
    with pytest.raises(GridError):
        global_stats(net, zero_snapshot(net), spec)


@pytest.mark.parametrize("field", [
    FeatureField("V", StatKind.MEAN, "Grid"),
    FeatureField("P_AC", StatKind.MEAN, "Grid"),
    FeatureField("V", StatKind.MEAN, "region", None),
    FeatureField("Q_DC", StatKind.MAX, "region", None),
    FeatureField("V", StatKind.MEAN, "grid", 1),
    FeatureField("P_AC", StatKind.SD, "grid", 0),
    FeatureField("bogus", StatKind.MEAN),
], ids=["misspelled-range-bus", "misspelled-range-element", "region-without-index-bus",
        "region-without-index-element", "grid-with-region-bus", "grid-with-region-element",
        "unknown-quantity"])
def test_malformed_feature_field_is_named(field):
    net = chain_network(3)
    spec = GlobalFeatureSpec(fields=(FeatureField("V", StatKind.MAX), field))
    with pytest.raises(GridError) as info:
        global_stats(net, zero_snapshot(net), spec)
    assert f"feature field {field.key()}" in str(info.value)


def test_global_stats_never_nan(small_world):
    net, snaps = small_world["network"], small_world["snapshots"]
    spec = default_feature_spec(n_regions=3)
    vec = global_stats(net, snaps[0], spec)
    assert np.isfinite(vec).all()


def test_global_stats_permutation_invariant(small_world):
    net, snap = small_world["network"], small_world["snapshots"][2]
    spec = default_feature_spec()
    base = global_stats(net, snap, spec)

    rng = np.random.default_rng(0)
    perm = rng.permutation(net.n_bus)
    inverse = np.argsort(perm)
    perm_buses = tuple(
        Bus(**{**net.buses[perm[i]].__dict__, "id": i}) for i in range(net.n_bus))
    perm_elements = tuple(
        Element(id=e.id, kind=e.kind, from_bus=int(inverse[e.from_bus]),
                to_bus=int(inverse[e.to_bus]), p_flow=e.p_flow, q_flow=e.q_flow,
                rating=e.rating)
        for e in net.elements)
    perm_net = Network(buses=perm_buses, elements=perm_elements)
    perm_snap = Snapshot(day=snap.day, slot=snap.slot,
                         bus_states=snap.bus_states[perm],
                         element_states=snap.element_states)
    permuted = global_stats(perm_net, perm_snap, spec)
    assert np.allclose(base, permuted, atol=1e-9)
    # while the raw states, which are the bus states, are order-sensitive
    assert not np.array_equal(snap.bus_states, perm_snap.bus_states)


def test_raw_states_are_read_only_views_of_the_bus_tables(small_world):
    net, snaps = small_world["network"], small_world["snapshots"]
    faults = [f for f in small_world["faults"] if f.day == 1]
    ds = featurize(net, snaps, faults, default_feature_spec(), include_raw=True)
    by_key = {(s.day, s.slot): s for s in snaps}
    assert list(ds.raw_states) == list(dict.fromkeys((f.day, f.slot) for f in faults))
    for k, (key, raw) in enumerate(ds.raw_states.items()):
        want = by_key[key].bus_states
        assert np.shares_memory(raw, ds.store.tables[k])
        assert not raw.flags.writeable
        assert (raw.shape, raw.dtype) == ((net.n_bus, 13), want.dtype)
        assert raw.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        raw[0, 0] = 123.0
    assert featurize(net, snaps, faults[:3], default_feature_spec()).raw_states == {}


# ------------------------------------------------------------- local subgraph

def test_bfs_chain_order():
    net = chain_network(3)
    graph = local_subgraph(net, zero_snapshot(net), element_id=0, max_nodes=50)
    kept, _ = bfs_nodes(net, 0, 50)
    assert kept == [0, 1, 2]
    assert graph.node_mask.tolist() == [True] * 3 + [False] * 47
    assert graph.node_features.shape == (50, NODE_FEATURES)


def test_truncation_to_max_nodes(small_world):
    net = small_world["network"]
    snap = small_world["snapshots"][0]
    graph = local_subgraph(net, snap, net.ac_line_ids()[0], max_nodes=20)
    assert graph.n_real == 20


def test_bfs_matches_reference_oracle():
    for seed in range(6):
        net = generate_network(SynthConfig(n_bus=80, seed=seed))
        for eid in net.ac_line_ids()[:5]:
            kept, _ = bfs_nodes(net, eid, 30)
            assert set(kept) == set(ref_bfs_first_k(net, eid, 30))


def test_local_adjacency_is_principal_submatrix():
    for seed in range(5):
        cfg = SynthConfig(n_bus=60, slots_per_day=2, seed=seed)
        net = generate_network(cfg)
        snap = generate_day(net, 0, cfg)[0]
        full = build_adjacency(net)
        eid = net.ac_line_ids()[seed % len(net.ac_line_ids())]
        graph = local_subgraph(net, snap, eid, max_nodes=25)
        kept, _ = bfs_nodes(net, eid, 25)
        n = len(kept)
        assert np.array_equal(graph.adjacency[:n, :n], full[np.ix_(kept, kept)])


def test_masked_rows_all_zero(small_world):
    net = small_world["network"]
    snap = small_world["snapshots"][1]
    graph = local_subgraph(net, snap, net.ac_line_ids()[2], max_nodes=60)
    off = ~graph.node_mask
    assert np.all(graph.node_features[off] == 0.0)
    assert np.all(graph.adjacency[off] == 0.0)
    assert np.all(graph.adjacency[:, off] == 0.0)
    assert np.array_equal(graph.adjacency, graph.adjacency.T)


def test_non_ac_line_rejected():
    net = chain_network(4, kind="Transformer")
    with pytest.raises(GridError):
        local_subgraph(net, zero_snapshot(net), 0)


@pytest.mark.parametrize("entry", ["global_stats", "local_subgraph", "featurize"])
@pytest.mark.parametrize("ends,message", [
    pytest.param((2, 4), "element 2 references missing bus 4", id="bus-n"),
    pytest.param((2, -1), "element 2 references missing bus -1", id="bus-minus-1"),
    pytest.param((2, 2), "element 2 is a self-loop on bus 2", id="self-loop"),
])
def test_a_bad_hand_built_network_is_named(entry, ends, message):
    pairs = [(0, 1), (1, 2), ends, (2, 3)]
    net = Network(buses=tuple(Bus(id=i) for i in range(4)), elements=tuple(
        Element(id=k, kind=AC_LINE, from_bus=a, to_bus=b) for k, (a, b) in enumerate(pairs)))
    snap = zero_snapshot(net)
    calls = {
        "global_stats": lambda: global_stats(net, snap, default_feature_spec()),
        "local_subgraph": lambda: local_subgraph(net, snap, 0),
        "featurize": lambda: featurize(net, [snap], [FaultSample(0, 0, 0, 0)],
                                       default_feature_spec()),
    }
    with pytest.raises(GridError, match=f"^{message}$"):
        calls[entry]()


def test_total_local_dimensionality():
    assert LOCAL_TOTAL_DIM == 50 * 59 + 20 == 2970


def test_featurize_deterministic(small_world):
    net, snaps = small_world["network"], small_world["snapshots"]
    faults = [f for f in small_world["faults"] if f.day == 0][:30]
    spec = default_feature_spec()
    a = featurize(net, snaps, faults, spec, max_nodes=15)
    b = featurize(net, snaps, faults, spec, max_nodes=15)
    for sa, sb in zip(a.samples, b.samples):
        assert np.array_equal(sa.global_vec, sb.global_vec)
        assert np.array_equal(sa.local.node_features, sb.local.node_features)
    assert a.feature_spec_hash() == b.feature_spec_hash()
