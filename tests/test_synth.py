import numpy as np
import pytest

from gridstab.grid import AC_LINE, STABLE, UNSTABLE, Element, Network, neighbor_lists
from gridstab.synth import (
    StabilityOracle, SynthConfig, build_dataset, draw_latent, enumerate_faults,
    generate_day, generate_network,
)

from conftest import chain_network, zero_snapshot
from test_bfs_reference import ref_two_hop_bus_set


def test_generate_network_bounds():
    net = generate_network(SynthConfig(n_bus=10, seed=1))
    assert net.n_bus == 10
    assert 9 <= len(net.elements) <= 14
    from gridstab.grid import validate_network
    assert validate_network(net) == []


def test_generate_network_two_buses():
    net = generate_network(SynthConfig(n_bus=2, seed=0))
    assert len(net.elements) == 1


def test_generate_network_deterministic():
    a = generate_network(SynthConfig(n_bus=25, seed=9))
    b = generate_network(SynthConfig(n_bus=25, seed=9))
    assert a == b


def test_mean_degree_in_power_grid_band():
    for seed in range(8):
        net = generate_network(SynthConfig(n_bus=60, seed=seed))
        pairs = {(min(e.from_bus, e.to_bus), max(e.from_bus, e.to_bus))
                 for e in net.elements}
        mean_degree = 2.0 * len(pairs) / net.n_bus
        assert 2.0 <= mean_degree <= 3.0


def test_generate_day_slot_count():
    cfg = SynthConfig(n_bus=12, slots_per_day=96, seed=2)
    net = generate_network(cfg)
    assert len(generate_day(net, 0, cfg)) == 96


def test_day_to_day_load_correlation():
    cfg = SynthConfig(n_bus=50, slots_per_day=12, seed=4)
    net = generate_network(cfg)
    day0 = generate_day(net, 0, cfg)
    day1 = generate_day(net, 1, cfg)
    # Same slot, P_L vector across buses: computed on generated data.
    rs = []
    for s in range(cfg.slots_per_day):
        a, b = day0[s].bus_states[:, 5], day1[s].bus_states[:, 5]
        rs.append(np.corrcoef(a, b)[0, 1])
    assert np.mean(rs) > 0.5

    # Mean per-quantity correlation across the flattened day.
    per_quantity = []
    flat0 = np.concatenate([s.bus_states for s in day0], axis=0)
    flat1 = np.concatenate([s.bus_states for s in day1], axis=0)
    for col in range(13):
        a, b = flat0[:, col], flat1[:, col]
        if a.std() < 1e-12 or b.std() < 1e-12:
            continue
        per_quantity.append(np.corrcoef(a, b)[0, 1])
    assert np.mean(per_quantity) > 0.5


def test_zero_noise_repeats_days_exactly():
    cfg = SynthConfig(n_bus=15, slots_per_day=8, seed=5, noise_amp=0.0)
    net = generate_network(cfg)
    day0 = generate_day(net, 0, cfg)
    day1 = generate_day(net, 1, cfg)
    for a, b in zip(day0, day1):
        assert np.array_equal(a.bus_states, b.bus_states)
        assert np.array_equal(a.element_states, b.element_states)


def test_generate_day_deterministic():
    cfg = SynthConfig(n_bus=15, slots_per_day=8, seed=5)
    net = generate_network(cfg)
    a = generate_day(net, 2, cfg)
    b = generate_day(net, 2, cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x.bus_states, y.bus_states)


def test_enumerate_faults_counts():
    net = chain_network(13)   # 12 AC lines
    snap = zero_snapshot(net)
    assert len(enumerate_faults(net, snap)) == 12

    no_ac = Network(buses=net.buses, elements=tuple(
        Element(id=e.id, kind="Transformer", from_bus=e.from_bus, to_bus=e.to_bus)
        for e in net.elements))
    assert enumerate_faults(no_ac, snap) == []

    # 7 days x 96 slots x 12 lines
    total = 7 * 96 * len(net.ac_line_ids())
    assert total == 8064


def test_oracle_zero_load_stable():
    net = chain_network(5)
    snap = zero_snapshot(net)
    oracle = StabilityOracle(net, SynthConfig(n_bus=5))
    oracle.latent = np.zeros(len(net.elements))
    oracle.tau = 0.3
    assert oracle.scores(snap).tolist() == [0.0] * len(net.elements)
    assert {f.label for f in oracle.label_snapshot(snap)} == {STABLE}


def test_oracle_deterministic(small_world):
    oracle, snap = small_world["oracle"], small_world["snapshots"][3]
    stored = [f for f in small_world["faults"] if (f.day, f.slot) == (snap.day, snap.slot)]
    assert oracle.label_snapshot(snap) == oracle.label_snapshot(snap) == stored


def test_unstable_rate_near_target():
    cfg = SynthConfig(n_bus=60, days=4, slots_per_day=96, seed=3)
    _, _, faults, _ = build_dataset(cfg)
    rate = np.mean([f.label for f in faults])
    assert 0.08 <= rate <= 0.12


def test_latent_time_invariant(small_world):
    oracle = small_world["oracle"]
    again = draw_latent(small_world["network"], small_world["config"].seed)
    assert np.array_equal(oracle.latent, again)


def test_oracle_depends_on_topology(small_world):
    """Relabeling a far-away bus into the 2-hop neighborhood moves the
    fault's score for at least one fault."""
    net, config = small_world["network"], small_world["config"]
    snap = small_world["snapshots"][5]
    base = StabilityOracle(net, config).scores(snap)
    changed = 0
    for row, eid in enumerate(net.ac_line_ids()):
        line = net.elements[eid]
        nbhd = ref_two_hop_bus_set(neighbor_lists(net), line.from_bus, line.to_bus)
        outside = [b.id for b in net.buses if b.id not in nbhd]
        inside = [b for b in nbhd]
        if not outside:
            continue
        u, v = inside[0], outside[0]
        swap = {u: v, v: u}
        permuted = Network(buses=net.buses, elements=tuple(
            Element(id=e.id, kind=e.kind,
                    from_bus=swap.get(e.from_bus, e.from_bus),
                    to_bus=swap.get(e.to_bus, e.to_bus),
                    p_flow=e.p_flow, q_flow=e.q_flow, rating=e.rating)
            for e in net.elements))
        if StabilityOracle(permuted, config).scores(snap)[row] != base[row]:
            changed += 1
    assert changed > 0


def test_full_dataset_deterministic():
    cfg = SynthConfig(n_bus=20, days=2, slots_per_day=6, seed=21)
    net_a, snaps_a, faults_a, _ = build_dataset(cfg)
    net_b, snaps_b, faults_b, _ = build_dataset(cfg)
    assert net_a == net_b
    assert faults_a == faults_b
    for a, b in zip(snaps_a, snaps_b):
        assert np.array_equal(a.bus_states, b.bus_states)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_bus=5).validate()
    with pytest.raises(ValueError):
        SynthConfig(target_unstable_rate=0.7).validate()
    SynthConfig().validate()


def test_oracle_calibration_window(small_world):
    # Short 16-slot days drift more than production-length days; the tight
    # +-2% window is asserted at default slots in test_unstable_rate_near_target.
    faults = small_world["faults"]
    rate = np.mean([f.label for f in faults])
    target = small_world["config"].target_unstable_rate
    assert abs(rate - target) <= 0.04
    day0 = np.mean([f.label for f in faults if f.day == 0])
    assert abs(day0 - target) <= 0.02
