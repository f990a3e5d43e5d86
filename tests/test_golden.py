"""Golden digests of the generated world and its features on two fixed seeds.

A refactor that keeps every output the same keeps these digests.  Each one
hashes the exact bytes of: the network as ``save_network`` writes it, every
snapshot's state arrays, every fault label, the calibrated oracle threshold
``tau``, and ``featurize`` of one whole day (global vectors with the
per-region statistics on, adjacencies, node features and node masks).  A
digest only changes on purpose, and then the change must say why.

The digests were made with Python 3.11.7 and numpy 2.4.6 linked to
scipy-openblas 0.3.31 (x86_64, Haswell kernels).  Result
bytes depend on which BLAS path runs, so another numpy or BLAS build may fail
them with no change to the code.
"""

import hashlib

import numpy as np
import pytest

from gridstab import persist
from gridstab.features import default_feature_spec, featurize
from gridstab.synth import SynthConfig, build_dataset

# (n_bus, days, slots_per_day, seed, featurized day) -> digests
GOLDEN = {
    (40, 3, 16, 11, 1): {
        "network": "1b47dba087174595bb1e9d2e3882edb61bdefb5284d6c42ec0545b190a71f3c5",
        "snapshots": "2e7748a306f744a805df792ad81376977edd491ceefd846b11b7eb751a1bbf71",
        "faults": "945f303556995d64f4b90e5061479c0c811a75d0b0fc41c53401caf3e59763ad",
        "tau": "0x1.096e66d53f11fp-1",
        "features": "6563bcdde469540013bc49d739acd20d8b8372bec169f8789ed267c3eee1d68b",
    },
    (100, 2, 8, 3, 1): {
        "network": "3e8e2cf8ef9461a9ec246fc47bb73a8497c0195994fff39c609a22a3af200429",
        "snapshots": "2aeeee885bfe2109decbd17824b5beb7e7d53235ad8a4e8819a4665b221d7364",
        "faults": "d56b2b5c0bb8154815be279919b68be38514d76f1f5e7e7f0e65b9614785a68c",
        "tau": "0x1.0c3263a1e7c4cp-1",
        "features": "ab5350068cabe5505ee446fed5924c2c7dedcfdcf93a2a951955aa416e3ab0cd",
    },
}


def _sha(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def world_digests(tmp_path, n_bus, days, slots, seed, feature_day) -> dict[str, str]:
    config = SynthConfig(n_bus=n_bus, days=days, slots_per_day=slots, seed=seed)
    network, snapshots, faults, oracle = build_dataset(config)
    path = tmp_path / "network.json"
    persist.save_network(network, path)
    day_faults = [f for f in faults if f.day == feature_day]
    ds = featurize(network, snapshots, day_faults, default_feature_spec(n_regions=3))

    def sample_parts():
        for s in ds.samples:
            yield (s.day, s.slot, s.element_id, s.label)
            for arr in (s.global_vec, s.local.adjacency, s.local.node_features,
                        s.local.node_mask):
                yield (arr.dtype.str, arr.shape)
                yield np.ascontiguousarray(arr).tobytes()

    return {
        "network": _sha([path.read_bytes()]),
        "snapshots": _sha(part for s in snapshots for part in (
            (s.day, s.slot), s.bus_states.tobytes(), s.element_states.tobytes())),
        "faults": _sha((f.day, f.slot, f.element_id, f.label) for f in faults),
        "tau": oracle.tau.hex(),
        "features": _sha(sample_parts()),
    }


@pytest.mark.parametrize("world", sorted(GOLDEN), ids=lambda w: "x".join(map(str, w)))
def test_golden_digests(tmp_path, world):
    assert world_digests(tmp_path, *world) == GOLDEN[world]
