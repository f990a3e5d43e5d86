"""Pin ``global_stats``, ``compute_statistic`` and ``NetworkIndex.bus_table``
bit for bit against their original implementations, which made one numpy
call per (field, statistic) and looped over the buses.  The references below
are those implementations, kept only here."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridstab import features
from gridstab.features import (
    ALL_QUANTITIES, ALL_STATS, BUS_QUANTITIES, ELEMENT_QUANTITIES, FeatureField,
    GlobalFeatureSpec, NetworkIndex, StatKind, compute_statistic,
    default_feature_spec, global_stats,
)
from gridstab.grid import (
    AC_LINE, DC_LINE, TRANSFORMER, Bus, Element, GridError, Network, Snapshot,
)


# ------------------------------------------------- the original implementation

def _quantile(values: np.ndarray, q: float) -> float:
    return float(np.quantile(values, q))


def _trim_bounds(n: int) -> tuple[int, int]:
    k = int(np.floor(0.1 * n))
    return k, n - k


def ref_compute_statistic(values, kind: StatKind) -> float:
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


def ref_quantity_values(network: Network, snapshot: Snapshot,
                        quantity: str, range_kind: str = "grid",
                        region: int | None = None) -> np.ndarray:
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


def ref_global_stats(network: Network, snapshot: Snapshot,
                     spec: GlobalFeatureSpec) -> np.ndarray:
    out = np.zeros(len(spec))
    cache: dict[tuple, np.ndarray] = {}
    for i, f in enumerate(spec.fields):
        key = (f.quantity, f.range_kind, f.region)
        if key not in cache:
            cache[key] = ref_quantity_values(network, snapshot, f.quantity,
                                             f.range_kind, f.region)
        values = cache[key]
        if values.size == 0:
            continue
        v = ref_compute_statistic(values, f.stat)
        out[i] = v if np.isfinite(v) else 0.0
    return out


def ref_bus_table(index: NetworkIndex, network: Network, snapshot: Snapshot) -> np.ndarray:
    n = network.n_bus
    incident = [[] for _ in range(n)]
    for e in network.elements:
        incident[e.from_bus].append(e.id)
        incident[e.to_bus].append(e.id)
    incident_ac = [
        np.array([i for i in incident[bus] if network.elements[i].kind == AC_LINE], dtype=int)
        for bus in range(n)
    ]
    incident_ac_rating = [
        np.array([network.elements[i].rating for i in ids]) for ids in incident_ac
    ]
    table = index.static_rows.copy()
    table[:-1, 0:13] = snapshot.bus_states
    flows = snapshot.element_states
    for bus, ids in enumerate(incident_ac):
        if ids.size:
            p, q = flows[ids, 0], flows[ids, 1]
            rating = incident_ac_rating[bus]
            loading = np.abs(p) / rating
            quantities = [p, q, loading, rating - np.abs(p), np.hypot(p, q), rating]
            col = 21
            for vals in quantities:
                table[bus, col:col + 4] = [vals.sum(), vals.mean(), vals.max(), vals.min()]
                col += 4
    return table


def reference(fn, *args):
    """The reference's result.  Moments of values near 1e200 overflow; the
    reference then warns, and those warnings are not under test here."""
    with np.errstate(over="ignore", invalid="ignore"):
        return fn(*args)


# ----------------------------------------------------------------- worlds

# Value scales.  1e200 overflows the centred moments (their squares exceed
# the float range), which must then come out 0.  Scales whose second moment
# is finite but whose 1.5th or 2nd power overflows are left out: there the
# reference raises OverflowError (see test_python_float_overflow_gives_zero).
SCALES = (0.0, 1e-3, 1.0, 1e3, 1e200)


def random_world(seed: int, n_bus: int, region_sizes: list[int], n_ac: int,
                 n_dc: int, n_tr: int, scale: float, constant_cols: int):
    rng = np.random.default_rng(seed)
    regions = np.repeat(np.arange(len(region_sizes)), region_sizes)[:n_bus]
    regions = np.concatenate([regions, np.zeros(n_bus - regions.size, dtype=int)])
    rng.shuffle(regions)
    buses = tuple(Bus(id=i, region=int(r)) for i, r in enumerate(regions))
    kinds = [AC_LINE] * n_ac + [DC_LINE] * n_dc + [TRANSFORMER] * n_tr
    rng.shuffle(kinds)
    elements = []
    for i, kind in enumerate(kinds):
        a, b = rng.choice(n_bus, size=2, replace=False) if n_bus > 1 else (0, 0)
        elements.append(Element(id=i, kind=kind, from_bus=int(a), to_bus=int(b),
                                rating=float(rng.uniform(50, 500))))
    network = Network(buses=buses, elements=tuple(elements))
    bus_states = rng.normal(size=(n_bus, 13)) * scale + rng.normal(size=13) * scale
    element_states = rng.normal(size=(len(elements), 2)) * scale
    for col in rng.choice(13, size=constant_cols, replace=False):
        bus_states[:, col] = rng.normal() * scale      # Skew/Kurt are 0
    if rng.random() < 0.3:                             # ties for medians and sorts
        bus_states = np.round(bus_states, 0)
        element_states = np.round(element_states, 0)
    snapshot = Snapshot(day=0, slot=0, bus_states=bus_states,
                        element_states=element_states)
    return network, snapshot


@st.composite
def worlds(draw):
    n_bus = draw(st.integers(1, 40))
    region_sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    return random_world(
        seed=draw(st.integers(0, 2**32 - 1)), n_bus=n_bus, region_sizes=region_sizes,
        n_ac=draw(st.integers(0, 45)) if n_bus > 1 else 0,
        n_dc=draw(st.integers(0, 3)) if n_bus > 1 else 0,
        n_tr=draw(st.integers(0, 3)) if n_bus > 1 else 0,
        scale=draw(st.sampled_from(SCALES)),
        constant_cols=draw(st.integers(0, 4)),
    )


def all_fields(max_region: int) -> list[FeatureField]:
    """Every quantity and statistic, on the grid and on regions 0..max_region,
    element quantities included."""
    fields = [FeatureField(q, s) for q in ALL_QUANTITIES for s in ALL_STATS]
    fields += [FeatureField(q, s, "region", r) for r in range(max_region + 1)
               for q in ALL_QUANTITIES for s in ALL_STATS]
    return fields


@st.composite
def specs(draw):
    if draw(st.booleans()):
        return default_feature_spec(draw(st.integers(0, 5)))
    fields = all_fields(draw(st.integers(0, 5)))
    chosen = draw(st.lists(st.sampled_from(range(len(fields))), min_size=1,
                           max_size=80, unique=True))
    return GlobalFeatureSpec(fields=tuple(fields[i] for i in chosen))


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# ------------------------------------------------------------ global stats

@settings(max_examples=150, deadline=None)
@given(world=worlds(), spec=specs())
def test_global_stats_bit_identical_to_reference(world, spec):
    network, snapshot = world
    got = global_stats(network, snapshot, spec)
    assert same_bytes(got, reference(ref_global_stats, network, snapshot, spec))
    assert np.isfinite(got).all()


@pytest.mark.parametrize("n_dc", [0, 1, 2])
@pytest.mark.parametrize("n_regions", [0, 1, 3, 6])
def test_global_stats_small_ranges(n_dc, n_regions):
    """One-bus and two-bus regions, one or two DC lines, no DC line at all,
    and region indices the network lacks."""
    for seed in range(5):
        network, snapshot = random_world(
            seed, n_bus=7, region_sizes=[1, 2, 4], n_ac=6, n_dc=n_dc, n_tr=1,
            scale=1.0, constant_cols=1)
        spec = GlobalFeatureSpec(fields=tuple(all_fields(n_regions)))
        got = global_stats(network, snapshot, spec)
        assert same_bytes(got, ref_global_stats(network, snapshot, spec))


def test_global_stats_on_a_synth_world(small_world):
    network = small_world["network"]
    spec = default_feature_spec(3)
    for snapshot in small_world["snapshots"][:16]:
        got = global_stats(network, snapshot, spec)
        assert same_bytes(got, ref_global_stats(network, snapshot, spec))


def test_global_stats_of_huge_values_are_zero_where_moments_overflow():
    network, snapshot = random_world(1, n_bus=12, region_sizes=[12], n_ac=8, n_dc=0,
                                     n_tr=0, scale=1e200, constant_cols=0)
    spec = default_feature_spec()
    got = global_stats(network, snapshot, spec)
    assert same_bytes(got, reference(ref_global_stats, network, snapshot, spec))
    for i, f in enumerate(spec.fields):
        if f.stat in (StatKind.SD, StatKind.SKEW, StatKind.KURT):
            assert got[i] == 0.0, f


def test_python_float_overflow_gives_zero():
    """A second moment near 1e240 is finite, but its square is not.  The
    original code raised OverflowError there; now Kurt and Skew are 0."""
    values = np.array([1e120, -1e120, 3e120, 0.5e120])
    with pytest.raises(OverflowError):
        reference(ref_compute_statistic, values, StatKind.KURT)
    assert np.isnan(compute_statistic(values, StatKind.KURT))
    assert np.isnan(compute_statistic(values, StatKind.SKEW))

    network, snapshot = random_world(2, n_bus=6, region_sizes=[6], n_ac=4, n_dc=0,
                                     n_tr=0, scale=1e120, constant_cols=0)
    spec = default_feature_spec()
    got = global_stats(network, snapshot, spec)
    assert np.isfinite(got).all()
    for i, f in enumerate(spec.fields):
        if f.stat in (StatKind.SKEW, StatKind.KURT):
            assert got[i] == 0.0, f


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from(SCALES), constant=st.booleans())
def test_compute_statistic_bit_identical_to_reference(n, seed, scale, constant):
    rng = np.random.default_rng(seed)
    values = np.full(n, rng.normal() * scale) if constant else rng.normal(size=n) * scale
    for kind in ALL_STATS:
        want = reference(ref_compute_statistic, values, kind)
        got = compute_statistic(values, kind)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (kind, n)


# --------------------------------------------------------------- bus table

def hub_network(spokes: int) -> Network:
    """Bus 0 carries ``spokes`` AC lines; buses 1 and 2 are joined by two
    parallel lines; bus ``spokes + 1`` has only a DC line and a transformer,
    and bus ``spokes + 2`` only that transformer."""
    dc_bus, tr_bus = spokes + 1, spokes + 2
    pairs = [(0, b, AC_LINE) for b in range(1, spokes + 1)]
    pairs += [(1, 2, AC_LINE), (2, 1, AC_LINE), (2, 3, AC_LINE)]
    pairs += [(0, dc_bus, DC_LINE), (dc_bus, tr_bus, TRANSFORMER)]
    rng = np.random.default_rng(spokes)
    elements = tuple(
        Element(id=i, kind=kind, from_bus=a, to_bus=b, rating=float(rng.uniform(10, 900)))
        for i, (a, b, kind) in enumerate(pairs))
    buses = tuple(Bus(id=i) for i in range(spokes + 3))
    return Network(buses=buses, elements=elements)


@pytest.mark.parametrize("spokes", [9, 16, 130])
def test_bus_table_bit_identical_to_reference(spokes):
    network = hub_network(spokes)
    index = NetworkIndex(network)
    rng = np.random.default_rng(spokes)
    for scale, decimals in ((0.0, None), (1e-3, None), (1.0, 0), (1.0, None), (1e4, None)):
        flows = rng.normal(size=(len(network.elements), 2)) * scale    # 0.0 and -0.0 at 0
        if decimals is not None:                                         # ties
            flows = np.round(flows, decimals)
        snapshot = Snapshot(day=0, slot=0, bus_states=rng.normal(size=(network.n_bus, 13)),
                            element_states=flows)
        got = index.bus_table(snapshot)
        want = ref_bus_table(index, network, snapshot)
        assert same_bytes(got, want)
        assert got[spokes + 1, 21:45].tolist() == [0.0] * 24    # DC and transformer only
        assert got[spokes + 2, 21:45].tolist() == [0.0] * 24


def test_bus_table_on_a_synth_world(small_world):
    network = small_world["network"]
    index = NetworkIndex(network)
    for snapshot in small_world["snapshots"][:8]:
        assert same_bytes(index.bus_table(snapshot),
                          ref_bus_table(index, network, snapshot))


# ------------------------------------------------- non-finite values, row lengths

# Rows holding NaN and +-inf.  Values never reach global_stats this way from
# featurize, which validates its snapshots, but compute_statistic takes any
# list, and the statistics' own NaN rules (numpy's median and quantile NaN
# check, inf - inf in the moments) decide these bytes, NaN sign bits included.
NON_FINITE_ROWS = {
    "nan": [np.nan],
    "inf": [np.inf],
    "-inf": [-np.inf],
    "nan-among-values": [1.0, np.nan, 2.0, 3.0],
    "inf-among-values": [1.0, np.inf, 2.0, -1.0, 5.0],
    "-inf-and-inf": [np.inf, -np.inf, 0.0, 1.0],
    "-inf-lowest": [-np.inf, 2.0, 3.0],
    "nan-inf-zeros": [np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0],
    "all-inf": [np.inf] * 5,
    "two-nans-in-eleven": [np.nan, 1.0, np.nan, -2.0, 0.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0],
}


def same_statistic(values, kind: StatKind) -> bool:
    got = compute_statistic(values, kind)
    want = reference(ref_compute_statistic, np.asarray(values, dtype=float), kind)
    return np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.parametrize("row", sorted(NON_FINITE_ROWS))
def test_compute_statistic_of_non_finite_rows_is_pinned(row):
    values = NON_FINITE_ROWS[row]
    for kind in ALL_STATS:
        assert same_statistic(values, kind), kind


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 60), seed=st.integers(0, 2**32 - 1),
       specials=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1,
                         max_size=4))
def test_compute_statistic_of_rows_with_nan_and_inf_matches_reference(n, seed, specials):
    rng = np.random.default_rng(seed)
    values = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    values[rng.choice(n, size=min(n, len(specials)), replace=False)] = specials[:n]
    for kind in ALL_STATS:
        assert same_statistic(values, kind), (kind, values.tolist())


def signed_zero_row(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` values drawn from 0.0, -0.0 and a few repeated numbers, with
    some fresh ones: ties everywhere, and zeros of both signs next to each
    other in sorted order."""
    pool = np.concatenate(([0.0, -0.0, 0.0, -0.0], np.round(rng.normal(size=3), 1)))
    values = rng.choice(pool, size=n)
    fresh = rng.random(n) < rng.random()
    values[fresh] = rng.normal(size=int(fresh.sum()))
    return values


def line_network(rng: np.random.Generator, n: int) -> Network:
    """``n`` buses in one region and, from two buses on, ``n`` AC lines."""
    buses = tuple(Bus(id=i, region=0) for i in range(n))
    elements = tuple(
        Element(id=i, kind=AC_LINE, from_bus=int(a), to_bus=int(b), rating=100.0)
        for i, (a, b) in enumerate(rng.choice(n, size=2, replace=False)
                                   for _ in range(n if n > 1 else 0)))
    return Network(buses=buses, elements=elements)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
@example(n=48, seed=0)
@example(n=54, seed=1)
@example(n=1, seed=2)
@example(n=2, seed=3)
@example(n=130, seed=4)
def test_statistics_at_every_row_length_with_signed_zeros(n, seed):
    """Row lengths 1..130 (the benchmark's 48 AC lines and 54 buses among
    them) give both parities and every quantile fraction (0, 0.25, 0.5,
    0.75); signed zeros and repeats test each order statistic's ties.
    ``compute_statistic`` and the grid groups of ``global_stats`` (bus
    quantities and AC-line flows, both of length n) match the reference."""
    rng = np.random.default_rng(seed)
    values = signed_zero_row(rng, n)
    for kind in ALL_STATS:
        assert same_statistic(values, kind), (kind, values.tolist())
    network = line_network(rng, n)
    snapshot = Snapshot(day=0, slot=0,
                        bus_states=np.stack([signed_zero_row(rng, n) for _ in range(13)], 1),
                        element_states=signed_zero_row(rng, 2 * len(network.elements))
                        .reshape(-1, 2))
    spec = default_feature_spec()
    got = global_stats(network, snapshot, spec)
    assert same_bytes(got, reference(ref_global_stats, network, snapshot, spec))
