"""Tree shape arithmetic: pure-data invariants the overlay relies on."""

import pytest

from repro.federation import FederationParams, TreeTopology, broker_name


def test_broker_count_complete_trees():
    assert FederationParams(fanout=2, depth=1).broker_count == 1
    assert FederationParams(fanout=2, depth=2).broker_count == 3
    assert FederationParams(fanout=2, depth=3).broker_count == 7
    assert FederationParams(fanout=2, depth=4).broker_count == 15
    assert FederationParams(fanout=3, depth=3).broker_count == 13
    assert FederationParams(fanout=1, depth=4).broker_count == 4


def test_params_validation():
    with pytest.raises(ValueError):
        FederationParams(fanout=0)
    with pytest.raises(ValueError):
        FederationParams(depth=0)
    with pytest.raises(ValueError):
        FederationParams(routing="flood")


def test_parent_child_inverse():
    topology = TreeTopology(15, fanout=2)
    for name in topology.names:
        for child in topology.children(name):
            assert topology.parent(child) == name
    assert topology.parent(topology.root) is None


def test_bfs_heap_layout():
    topology = TreeTopology(7, fanout=2)
    assert topology.root == "fed0"
    assert topology.children("fed0") == ("fed1", "fed2")
    assert topology.children("fed1") == ("fed3", "fed4")
    assert topology.leaves() == ("fed3", "fed4", "fed5", "fed6")
    assert topology.depth == 3
    assert topology.depth_of("fed0") == 0
    assert topology.depth_of("fed6") == 2


def test_left_packed_incomplete_tree():
    topology = TreeTopology(5, fanout=2)
    assert topology.children("fed1") == ("fed3", "fed4")
    assert topology.children("fed2") == ()
    assert topology.is_leaf("fed2")
    assert topology.link_count == 4
    assert len(list(topology.links())) == 4


def test_path_to_root_and_links():
    topology = TreeTopology(15, fanout=2)
    assert topology.path_to_root("fed11") == ("fed11", "fed5", "fed2", "fed0")
    links = list(topology.links())
    assert links[0] == ("fed0", "fed1")
    assert ("fed5", "fed11") in links
    assert len(links) == topology.link_count
    # every non-root broker appears exactly once as a child
    children = [child for _, child in links]
    assert sorted(children) == sorted(topology.names[1:])


def test_from_params_round_trip():
    params = FederationParams(fanout=3, depth=3)
    topology = TreeTopology.from_params(params)
    assert topology.broker_count == params.broker_count
    assert topology.depth == params.depth
    assert topology.names[4] == broker_name(4)
