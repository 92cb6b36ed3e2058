"""Tests for Network topology and routing."""

import heapq

import pytest

from repro.net import Link, Network
from repro.net.topology import RoutingError
from repro.topology.sc04 import build_sc04
from repro.topology.sdsc2005 import build_sdsc2005
from repro.topology.teragrid import TERAGRID_SITES, add_teragrid_backbone
from repro.util.units import Gbps


def triangle() -> Network:
    net = Network()
    for name in ["a", "b", "c"]:
        net.add_node(name, kind="switch")
    net.add_link("a", "b", Gbps(10), delay=0.010)
    net.add_link("b", "c", Gbps(10), delay=0.010)
    net.add_link("a", "c", Gbps(1), delay=0.030)
    return net


class TestLink:
    def test_usable_rate(self):
        link = Link("a", "b", rate=1000.0, efficiency=0.9)
        assert link.usable_rate == pytest.approx(900.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Link("a", "b", rate=0)
        with pytest.raises(ValueError):
            Link("a", "b", rate=1, delay=-1)
        with pytest.raises(ValueError):
            Link("a", "b", rate=1, efficiency=0)
        with pytest.raises(ValueError):
            Link("a", "b", rate=1, efficiency=1.5)


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node("x")
        with pytest.raises(ValueError):
            net.add_node("x")

    def test_link_to_unknown_node_rejected(self):
        net = Network()
        net.add_node("x")
        with pytest.raises(RoutingError):
            net.add_link("x", "ghost", Gbps(1))

    def test_duplex_creates_two_links(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        fwd, back = net.add_link("x", "y", Gbps(1))
        assert fwd.src == "x" and back.src == "y"
        assert len(net.links) == 2

    def test_simplex(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        fwd, back = net.add_link("x", "y", Gbps(1), duplex=False)
        assert back is None
        net.path("x", "y")
        with pytest.raises(RoutingError):
            net.path("y", "x")

    def test_asymmetric_rates(self):
        net = Network()
        net.add_node("x")
        net.add_node("y")
        fwd, back = net.add_link("x", "y", Gbps(10), rate_back=Gbps(1))
        assert back.rate == Gbps(1)

    def test_add_host(self):
        net = Network()
        net.add_node("sw", kind="switch")
        node = net.add_host("h1", "sw", Gbps(1), site="sdsc")
        assert node.site == "sdsc"
        assert net.path("h1", "sw")

    def test_hosts_filter(self):
        net = Network()
        net.add_node("sw", kind="switch")
        net.add_host("h1", "sw", Gbps(1), site="sdsc")
        net.add_host("h2", "sw", Gbps(1), site="ncsa")
        assert [n.name for n in net.hosts("sdsc")] == ["h1"]
        assert len(net.hosts()) == 2

    def test_link_indices_match_capacities(self):
        net = triangle()
        caps = net.link_capacities()
        for link in net.links:
            assert caps[link.index] == link.usable_rate

    def test_link_capacities_cached_read_only(self):
        net = triangle()
        caps = net.link_capacities()
        assert net.link_capacities() is caps
        with pytest.raises(ValueError):
            caps[0] = 1.0
        net.links[0].set_rate(Gbps(5))
        fresh = net.link_capacities()
        assert fresh is not caps
        assert fresh[0] == net.links[0].usable_rate


class TestRouting:
    def test_routes_by_delay(self):
        net = triangle()
        # a->c direct is 30ms; via b is 20ms → prefer via b.
        path = net.path("a", "c")
        assert [l.dst for l in path] == ["b", "c"]

    def test_loopback_empty(self):
        net = triangle()
        assert net.path("a", "a") == []

    def test_no_route_raises(self):
        net = Network()
        net.add_node("island1")
        net.add_node("island2")
        with pytest.raises(RoutingError):
            net.path("island1", "island2")

    def test_unknown_node_raises(self):
        net = triangle()
        with pytest.raises(RoutingError):
            net.path("a", "nowhere")

    def test_path_cache_invalidated_on_new_link(self):
        net = triangle()
        assert len(net.path("a", "c")) == 2
        net.add_link("a", "c", Gbps(10), delay=0.001)
        assert len(net.path("a", "c")) == 1

    def test_one_way_delay_and_rtt(self):
        net = triangle()
        assert net.one_way_delay("a", "c") == pytest.approx(0.020)
        assert net.rtt("a", "c") == pytest.approx(0.040)

    def test_bottleneck_rate(self):
        net = Network()
        for n in "xyz":
            net.add_node(n)
        net.add_link("x", "y", Gbps(10), efficiency=1.0)
        net.add_link("y", "z", Gbps(1), efficiency=1.0)
        assert net.bottleneck_rate("x", "z") == pytest.approx(Gbps(1))
        assert net.bottleneck_rate("x", "x") == float("inf")


def _early_exit_path(net: Network, src: str, dst: str):
    """Dijkstra by (delay, hops) that stops when ``dst`` is popped."""
    dist = {src: (0.0, 0)}
    prev = {}
    heap = [(0.0, 0, src)]
    visited = set()
    while heap:
        d, h, u = heapq.heappop(heap)
        if u in visited:
            continue
        visited.add(u)
        if u == dst:
            break
        for link in net._adj[u]:
            v = link.dst
            nd, nh = d + link.delay, h + 1
            if v not in dist or (nd, nh) < dist[v]:
                dist[v] = (nd, nh)
                prev[v] = link
                heapq.heappush(heap, (nd, nh, v))
    if dst not in prev:
        return None
    links = []
    cur = dst
    while cur != src:
        links.append(prev[cur])
        cur = prev[cur].src
    return links[::-1]


def _teragrid_mesh() -> Network:
    net = Network()
    add_teragrid_backbone(net)
    for site in TERAGRID_SITES:
        for h in range(3):
            net.add_host(f"{site}-h{h}", f"{site}-sw", Gbps(10), site=site)
    return net


@pytest.mark.parametrize("build", [
    lambda: build_sc04(nsd_servers=9, sdsc_clients=4, ncsa_clients=4,
                       arrays=3, with_disks=False).gfs.network,
    lambda: build_sdsc2005(nsd_servers=8, ds4100_count=2, sdsc_clients=4,
                           anl_clients=3, ncsa_clients=2,
                           with_disks=False).gfs.network,
    _teragrid_mesh,
], ids=["sc04", "sdsc2005", "teragrid"])
def test_tree_paths_match_early_exit_search(build):
    """One full search per source routes every pair as a search per pair."""
    net = build()
    names = sorted(net.nodes)
    for src in names:
        for dst in names:
            if src == dst:
                continue
            want = _early_exit_path(net, src, dst)
            if want is None:
                with pytest.raises(RoutingError):
                    net.path(src, dst)
            else:
                assert net.path(src, dst) == want
