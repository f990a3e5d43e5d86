"""Pin every per-network structure column of the local subgraph against the
original neighbour-set loops (``test_featurize_reference.RefIndex`` and
``ref_local_subgraph``) on random networks: isolated buses, parallel
elements, disconnected parts and all three element kinds."""

from hypothesis import given, settings, strategies as st

from gridstab.features import NetworkIndex, local_subgraph
from gridstab.grid import AC_LINE

from test_bfs_reference import random_networks
from test_featurize_reference import RefIndex, random_snapshots, ref_local_subgraph, same_graph


@settings(max_examples=150, deadline=None)
@given(net=random_networks(), data=st.data())
def test_local_subgraphs_match_reference_on_random_networks(net, data):
    max_nodes = data.draw(st.integers(1, net.n_bus + 10), label="max_nodes")
    seed = data.draw(st.integers(0, 2**16), label="seed")
    snap = random_snapshots(net, 1, seed)[0]
    index, ref_index = NetworkIndex(net), RefIndex(net)
    for e in net.elements:
        if e.kind == AC_LINE:
            assert same_graph(local_subgraph(net, snap, e.id, max_nodes, index),
                              ref_local_subgraph(net, snap, e.id, max_nodes, ref_index)), e.id
