"""Synthetic grid scenarios: topology, daily snapshots, faults and labels.

Stands in for real online operating data.  :class:`StabilityOracle`, the
hidden deterministic labeler, scores each N-1 fault from three ingredients
the learning models must recover: overload around the faulted line,
system-wide stress, and a time-invariant per-element susceptibility.  Its
threshold ``tau`` is calibrated once, on day 0, to the target unstable rate.

The oracle reads each faulted line's 2-hop neighborhood off the bus
adjacency (:func:`grid.build_adjacency`); the region order of a generated
network is a walk by :func:`grid.bfs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import (
    AC_LINE, DC_LINE, TRANSFORMER, STABLE, UNSTABLE,
    FINITE, Bus, Element, FaultSample, Network, Snapshot, _is_real, adjacency_lists, at_least,
    bfs, build_adjacency, check_fields,
)

REF_CURVE = 0.8            # curve level at which Bus/Element base values hold
STRESS_LO, STRESS_HI = 0.40, 0.70   # raw load/capacity ratio mapped onto [0, 1]
CAPACITY_MARGIN = 1.30     # total generation capacity over peak load


@dataclass
class SynthConfig:
    n_bus: int = 100
    days: int = 8
    slots_per_day: int = 96
    seed: int = 0
    target_unstable_rate: float = 0.10
    noise_amp: float = 0.10
    ar_coeff: float = 0.7
    oracle_weights: dict = field(default_factory=lambda: {
        "local_overload": 0.45, "global_stress": 0.25, "latent": 0.30,
    })

    # field -> (test of a valid value, what it must be), as check_fields reads it
    RULES = {
        "n_bus": at_least(10), "days": at_least(1), "slots_per_day": at_least(1),
        "seed": at_least(0),
        "target_unstable_rate": (lambda v: _is_real(v) and 0.0 < v < 0.5,
                                 "a number in (0, 0.5)"),
        "noise_amp": FINITE,
        "ar_coeff": (lambda v: _is_real(v) and 0.0 <= v < 1.0, "a number in [0, 1)"),
        "oracle_weights": (lambda v: isinstance(v, dict) and all(map(FINITE[0], v.values()))
                           and {"local_overload", "global_stress", "latent"} <= set(v),
                           "an object that maps 'local_overload', 'global_stress' and "
                           "'latent' to finite numbers"),
    }

    def validate(self) -> None:
        check_fields(vars(self), self.RULES)


def generate_network(config: SynthConfig) -> Network:
    """Random connected power-grid-like topology, deterministic in the seed.

    A random spanning tree guarantees connectivity; extra chords push the
    mean degree into the sparse 2-3 band typical of transmission grids.
    """
    n = config.n_bus
    if n < 2:
        raise ValueError("need at least 2 buses")
    rng = np.random.default_rng([config.seed, 1])

    order = rng.permutation(n)
    edges: set[tuple[int, int]] = set()
    for k in range(1, n):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))

    n_chords = int(round(n * rng.uniform(0.12, 0.32)))
    attempts = 0
    added = 0
    while added < n_chords and attempts < 50 * n:
        attempts += 1
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in edges:
            continue
        edges.add(key)
        added += 1

    edge_list = sorted(edges)
    kinds = []
    for _ in edge_list:
        u = rng.uniform()
        kinds.append(AC_LINE if u < 0.80 else (TRANSFORMER if u < 0.95 else DC_LINE))
    if AC_LINE not in kinds:
        kinds[0] = AC_LINE

    degree = np.zeros(n, dtype=int)
    for a, b in edge_list:
        degree[a] += 1
        degree[b] += 1

    # Regions: contiguous blocks of a BFS order from bus 0 (the spanning
    # tree makes the network connected, so the walk reaches every bus).
    n_regions = max(1, min(3, n // 8))
    bfs_order, _ = bfs(adjacency_lists(n, edge_list), [0])
    region = np.zeros(n, dtype=int)
    block = max(1, math.ceil(n / n_regions))
    for pos, bus in enumerate(bfs_order):
        region[bus] = min(pos // block, n_regions - 1)

    is_gen = rng.uniform(size=n) < 0.30
    is_gen[int(rng.integers(0, n))] = True   # at least one generator
    is_load = rng.uniform(size=n) < 0.85
    base_pl = np.where(is_load, np.exp(rng.normal(4.0, 0.5, size=n)), 0.0)
    gen_share = np.where(is_gen, rng.uniform(0.5, 1.5, size=n), 0.0)
    gen_share /= gen_share.sum()
    total_ref_load = float(base_pl.sum())
    base_pg = gen_share * total_ref_load * 1.02
    q_ratio = rng.uniform(0.25, 0.45, size=n)

    buses = []
    for i in range(n):
        buses.append(Bus(
            id=i,
            voltage_mag=float(1.0 + 0.03 * rng.normal()),
            voltage_ang=float(0.25 * rng.normal()),
            p_gen=float(base_pg[i]),
            q_gen=float(0.3 * base_pg[i]),
            p_load=float(base_pl[i]),
            q_load=float(base_pl[i] * q_ratio[i]),
            gen_pf=float(rng.uniform(0.90, 0.99)) if is_gen[i] else 0.0,
            load_pf=float(rng.uniform(0.92, 0.98)) if base_pl[i] > 0 else 0.0,
            q_cap=float(rng.uniform(0, 60)) if rng.uniform() < 0.3 else 0.0,
            q_reactor=float(rng.uniform(0, 40)) if rng.uniform() < 0.2 else 0.0,
            degree=int(degree[i]),
            region=int(region[i]),
        ))

    elements = []
    for eid, ((a, b), kind) in enumerate(zip(edge_list, kinds)):
        rating = float(rng.uniform(100, 1000))
        frac = float(rng.uniform(0.25, 0.85))
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        elements.append(Element(
            id=eid, kind=kind, from_bus=a, to_bus=b,
            p_flow=sign * frac * rating,
            q_flow=sign * 0.25 * frac * rating,
            rating=rating,
        ))
    return Network(buses=tuple(buses), elements=tuple(elements))


def day_curve(slot: int | np.ndarray, slots_per_day: int) -> np.ndarray:
    """Deterministic daily load shape, identical every day.

    Overnight valley with a morning bump and the dominant evening peak
    around 80% of the day, roughly [0.55, 0.9].
    """
    x = (np.asarray(slot, dtype=float) + 0.5) / slots_per_day
    morning = np.exp(-((x - 0.35) / 0.12) ** 2)
    evening = np.exp(-((x - 0.80) / 0.12) ** 2)
    return 0.50 + 0.16 * morning + 0.38 * evening


def _ar1(rng: np.random.Generator, shape: tuple[int, ...], slots: int,
         rho: float, amp: float) -> np.ndarray:
    """Stationary AR(1) noise over the slot axis (last axis), sd = amp."""
    out = np.empty(shape + (slots,))
    innov_sd = amp * math.sqrt(max(1.0 - rho * rho, 0.0))
    x = rng.normal(0.0, 1.0, size=shape) * amp
    for s in range(slots):
        out[..., s] = x
        x = rho * x + rng.normal(0.0, 1.0, size=shape) * innov_sd
    return out


def _diffusion_operator(network: Network, steps: int = 2) -> np.ndarray:
    """Row-normalized multi-step spread over the grid, rescaled so that
    applying it to unit-variance noise returns unit per-bus variance."""
    a_hat = np.eye(network.n_bus) + build_adjacency(network)
    p = a_hat / a_hat.sum(axis=1, keepdims=True)
    w = np.linalg.matrix_power(p, steps)
    scale = 1.0 / np.sqrt((w ** 2).sum(axis=1))
    return w * scale[:, None]


def generate_day(network: Network, day: int, config: SynthConfig) -> list[Snapshot]:
    """All snapshots of one day; deterministic in (seed, day).

    Bus and element states follow the shared daily curve times per-bus /
    per-element AR(1) multipliers, so the same slot on consecutive days is
    strongly correlated while individual samples still churn.  Bus load
    fluctuations are diffused over the grid, forming neighborhood-scale
    load pockets rather than independent per-bus wiggles.
    """
    if day < 0:
        raise ValueError("day must be >= 0")
    n = network.n_bus
    n_elem = len(network.elements)
    slots = config.slots_per_day
    rng = np.random.default_rng([config.seed, 3, day])

    curve = day_curve(np.arange(slots), slots)
    bus_noise = _diffusion_operator(network) @ _ar1(
        rng, (n,), slots, config.ar_coeff, config.noise_amp)
    elem_own_noise = _ar1(rng, (n_elem,), slots, config.ar_coeff, 0.4 * config.noise_amp)
    gen_noise = _ar1(rng, (n,), slots, config.ar_coeff, 0.3 * config.noise_amp)

    base = np.array([
        [b.voltage_mag, b.voltage_ang, b.p_gen, b.q_gen, b.gen_pf,
         b.p_load, b.q_load, b.load_pf, b.q_cap, b.q_reactor]
        for b in network.buses
    ])
    degree_col = np.array([float(b.degree) for b in network.buses])
    elem_base_p = np.array([e.p_flow for e in network.elements])
    elem_base_q = np.array([e.q_flow for e in network.elements])

    from_ids = np.array([e.from_bus for e in network.elements], dtype=int)
    to_ids = np.array([e.to_bus for e in network.elements], dtype=int)
    is_ac = np.array([e.kind == AC_LINE for e in network.elements])

    snapshots = []
    for s in range(slots):
        c = float(curve[s])
        mult = 1.0 + bus_noise[:, s]
        load_level = (c / REF_CURVE) * mult

        states = np.zeros((n, 13))
        states[:, 0] = base[:, 0] - 0.06 * (c * mult - REF_CURVE)
        states[:, 1] = base[:, 1] * (c / REF_CURVE) + 0.05 * bus_noise[:, s]
        states[:, 2] = base[:, 2] * (c / REF_CURVE) * (1.0 + gen_noise[:, s])
        states[:, 3] = base[:, 3] * (c / REF_CURVE) * (1.0 + gen_noise[:, s])
        states[:, 4] = np.where(base[:, 4] > 0, base[:, 4] - 0.02 * (c - REF_CURVE), 0.0)
        states[:, 5] = base[:, 5] * load_level
        states[:, 6] = base[:, 6] * load_level
        states[:, 7] = np.where(base[:, 7] > 0, base[:, 7] - 0.02 * (c - REF_CURVE), 0.0)
        states[:, 8] = base[:, 8] if c > 0.85 else 0.0 * base[:, 8]
        states[:, 9] = base[:, 9] if c < 0.70 else 0.0 * base[:, 9]
        states[:, 12] = degree_col

        # lines feel the load swings of the buses they connect
        endpoint_noise = 0.5 * (bus_noise[from_ids, s] + bus_noise[to_ids, s])
        flow_mult = 1.0 + endpoint_noise + elem_own_noise[:, s]
        p_flow = elem_base_p * c * flow_mult
        q_flow = elem_base_q * c * flow_mult

        p_ac = np.where(is_ac, p_flow, 0.0)
        q_ac = np.where(is_ac, q_flow, 0.0)
        np.add.at(states[:, 10], from_ids, p_ac)
        np.add.at(states[:, 10], to_ids, -p_ac)
        np.add.at(states[:, 11], from_ids, q_ac)
        np.add.at(states[:, 11], to_ids, -q_ac)

        snapshots.append(Snapshot(
            day=day, slot=s,
            bus_states=states,
            element_states=np.column_stack([p_flow, q_flow]),
        ))
    return snapshots


def enumerate_faults(network: Network, snapshot: Snapshot) -> list[FaultSample]:
    """One unlabeled N-1 candidate per AC line for this snapshot."""
    return [
        FaultSample(day=snapshot.day, slot=snapshot.slot, element_id=eid, label=None)
        for eid in network.ac_line_ids()
    ]


def draw_latent(network: Network, seed: int) -> np.ndarray:
    """Per-element susceptibility in [0, 1], fixed for the network's lifetime.

    Bimodal: most elements are intrinsically safe, a minority carries a
    high hidden susceptibility.
    """
    rng = np.random.default_rng([seed, 2])
    n = len(network.elements)
    fragile = rng.uniform(size=n) < 0.35
    low = rng.uniform(0.0, 0.30, size=n)
    high = rng.uniform(0.60, 1.0, size=n)
    return np.where(fragile, high, low)


class StabilityOracle:
    """Fault labeler with the threshold calibrated once per network.

    A fault's risk score is the weighted sum (``config.oracle_weights``) of:

    * local overload: 0.40 x the faulted line's loading |p| / rating, plus
      0.35 x the mean loading of the other elements touching its 2-hop bus
      neighborhood, plus 0.25 x the neighborhood's mean load over twice the
      grid's mean load, clipped to [0, 1];
    * global stress: total load over generation capacity, mapped from
      [STRESS_LO, STRESS_HI] onto [0, 1];
    * the element's latent susceptibility (:func:`draw_latent`).

    The fault is UNSTABLE iff its score exceeds ``tau``.  The 2-hop bus
    neighborhood of a line is read off the bus adjacency ``A``: the buses
    whose columns are nonzero in either endpoint's row of ``I + A + A·A``.
    """

    def __init__(self, network: Network, config: SynthConfig):
        self.network = network
        self.config = config
        self.weights = dict(config.oracle_weights)
        self.latent = draw_latent(network, config.seed)
        self.tau = 0.5

        self.ac_ids = network.ac_line_ids()
        self.ratings = np.array([e.rating for e in network.elements])
        # Membership matrices: per AC line, mean weights over the elements
        # touching its 2-hop neighborhood (the line itself excluded) and
        # over the neighborhood buses themselves.
        a = build_adjacency(network)
        reach = (np.eye(network.n_bus) + a + a @ a) > 0
        ends = np.array([(e.from_bus, e.to_bus) for e in network.elements],
                        dtype=np.intp).reshape(-1, 2)
        line_ends = ends[self.ac_ids]
        nbhd = reach[line_ends[:, 0]] | reach[line_ends[:, 1]]
        member = nbhd[:, ends[:, 0]] | nbhd[:, ends[:, 1]]
        member[np.arange(len(self.ac_ids)), self.ac_ids] = False
        # 1 / count on each member and 0 elsewhere, also on a line with no member.
        self._member = member / np.maximum(member.sum(axis=1), 1)[:, None]
        self._bus_member = nbhd / nbhd.sum(axis=1)[:, None]
        self._capacity = sum(b.p_gen for b in network.buses) / REF_CURVE * CAPACITY_MARGIN

    def scores(self, snapshot: Snapshot) -> np.ndarray:
        """Risk score of every AC line on this snapshot (AC-line order)."""
        loading = np.abs(snapshot.element_states[:, 0]) / self.ratings
        own = loading[self.ac_ids]
        around = self._member @ loading
        p_load = snapshot.bus_states[:, 5]
        total_mean = float(p_load.mean())
        if total_mean > 0:
            share = np.clip((self._bus_member @ p_load) / total_mean / 2.0, 0.0, 1.0)
        else:
            share = np.zeros(len(self.ac_ids))
        local = 0.40 * own + 0.35 * around + 0.25 * share
        raw = float(snapshot.bus_states[:, 5].sum()) / self._capacity if self._capacity > 0 else 0.0
        stress = float(np.clip((raw - STRESS_LO) / (STRESS_HI - STRESS_LO), 0.0, 1.0))
        return (
            self.weights["local_overload"] * local
            + self.weights["global_stress"] * stress
            + self.weights["latent"] * self.latent[self.ac_ids]
        )

    def calibrate(self, snapshots: list[Snapshot]) -> float:
        """Bisect tau on the empirical day-0 score distribution.

        The final threshold is snapped into the gap between adjacent score
        values so no sample ever sits exactly on the boundary.
        """
        scores = np.concatenate([self.scores(s) for s in snapshots])
        target = self.config.target_unstable_rate
        lo, hi = float(scores.min()) - 1.0, float(scores.max()) + 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if float(np.mean(scores > mid)) > target:
                lo = mid
            else:
                hi = mid
        tau = 0.5 * (lo + hi)
        ordered = np.sort(scores)
        pos = int(np.searchsorted(ordered, tau))
        below = float(ordered[pos - 1]) if pos > 0 else tau - 1.0
        above = float(ordered[pos]) if pos < ordered.size else tau + 1.0
        self.tau = 0.5 * (below + above)
        return self.tau

    def label_snapshot(self, snapshot: Snapshot) -> list[FaultSample]:
        scores = self.scores(snapshot)
        return [
            FaultSample(day=snapshot.day, slot=snapshot.slot, element_id=eid,
                        label=UNSTABLE if float(sc) > self.tau else STABLE)
            for eid, sc in zip(self.ac_ids, scores)
        ]


def build_dataset(config: SynthConfig):
    """Full pipeline: network, all snapshots, labeled faults, calibrated oracle."""
    config.validate()
    network = generate_network(config)
    days = [generate_day(network, d, config) for d in range(config.days)]
    oracle = StabilityOracle(network, config)
    oracle.calibrate(days[0])
    faults = [fs for day in days for snap in day for fs in oracle.label_snapshot(snap)]
    snapshots = [snap for day in days for snap in day]
    return network, snapshots, faults, oracle
