import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minplus import (
    ContainmentAreas,
    Topology,
    compute_containment_areas,
    make_fault_model,
    radius_area,
)
from minplus import graph
from minplus.exhaustive import connected_graph_catalog, labeled_connected_graphs
from minplus.graph import (
    NO_FAULTS,
    parse_topology,
    topology_sha256,
    topology_text,
)

from _oracles import (
    area_oracle,
    component_of,
    floyd_warshall,
    random_connected_edges,
)

HEX_EDGES = [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]


def hexagon():
    topo = Topology.from_edges(6, 0, HEX_EDGES)
    return topo, make_fault_model(topo, [5])


def path(n, byz=()):
    topo = Topology.from_edges(n, 0, [(i, i + 1) for i in range(n - 1)])
    return topo, make_fault_model(topo, byz)


def random_cases(count=40, n_max=10, seed=7):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, n_max)
        edges = random_connected_edges(rng, n)
        root = rng.randrange(n)
        pool = [v for v in range(n) if v != root]
        byz = rng.sample(pool, rng.randint(0, min(3, len(pool))))
        yield Topology.from_edges(n, root, edges), byz


class TestTopology:
    def test_rejects_malformed_graphs(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology.from_edges(2, 0, [(0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            Topology.from_edges(2, 0, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="not connected"):
            Topology.from_edges(3, 0, [(0, 1)])
        with pytest.raises(ValueError, match="root"):
            Topology.from_edges(2, 5, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            Topology.from_edges(2, 0, [(0, 3)])

    def test_neighbor_order_follows_edge_order(self):
        topo = Topology.from_edges(4, 0, [(1, 0), (2, 1), (1, 3)])
        assert topo.neighbors[1] == (0, 2, 3)
        assert topo.neighbors[0] == (1,)

    def test_counts_match_oracle_on_random_graphs(self):
        for topo, _ in random_cases():
            n = topo.process_count
            assert topo.edge_count == sum(len(nb) for nb in topo.neighbors) // 2
            assert topo.max_degree == max(len(nb) for nb in topo.neighbors)
            dist = floyd_warshall(n, topo.edges)
            assert topo.diameter == max(max(row) for row in dist)
            for u in range(n):
                for v in range(n):
                    assert topo.hop_distance(u, v) == dist[u][v]

    def test_adjacency_symmetric(self):
        for topo, _ in random_cases(count=15):
            for v in topo.processes():
                for u in topo.neighbors[v]:
                    assert v in topo.neighbors[u]


class TestHopDistance:
    def test_identity(self):
        topo, _ = hexagon()
        for v in topo.processes():
            assert topo.hop_distance(v, v) == 0

    def test_hexagon_root_to_byzantine(self):
        topo, _ = hexagon()
        assert topo.hop_distance(0, 5) == 3  # r-u-v-b

    def test_path_endpoints(self):
        topo, _ = path(5)
        assert topo.hop_distance(0, 4) == 4

    def test_symmetry(self):
        topo, _ = hexagon()
        for u in topo.processes():
            for v in topo.processes():
                assert topo.hop_distance(u, v) == topo.hop_distance(v, u)

    def test_invalid_id(self):
        topo, _ = path(3)
        with pytest.raises(ValueError):
            topo.hop_distance(0, 9)


class TestDiameter:
    def test_single_node(self):
        assert Topology.from_edges(1, 0, []).diameter == 0

    def test_path(self):
        assert path(5)[0].diameter == 4

    def test_hexagon(self):
        assert hexagon()[0].diameter == 3


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


def complete_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def grid_edges(w, h):
    edges = []
    for i in range(h):
        for j in range(w):
            v = i * w + j
            if j + 1 < w:
                edges.append((v, v + 1))
            if i + 1 < h:
                edges.append((v, v + w))
    return edges


def lollipop_edges(k, tail):
    # A k-clique with a path of ``tail`` processes hanging off process k-1.
    return complete_edges(k) + [(v, v + 1) for v in range(k - 1, k + tail - 1)]


# The diameter search prunes best on paths and stars and worst on cycles and
# complete graphs, where every process has the same eccentricity; grids tie
# many processes at each distance, and a lollipop puts the centre off the
# densest part of the graph.
SHAPES = {
    **{f"cycle{n}": (n, cycle_edges(n)) for n in (3, 4, 5, 10, 11, 30)},
    **{f"complete{n}": (n, complete_edges(n)) for n in (1, 2, 3, 7, 12)},
    **{f"star{n}": (n, [(0, v) for v in range(1, n)]) for n in (2, 3, 9)},
    **{f"path{n}": (n, [(v, v + 1) for v in range(n - 1)]) for n in (2, 7, 30)},
    **{f"grid{w}x{h}": (w * h, grid_edges(w, h)) for w, h in ((1, 5), (2, 3), (5, 5), (4, 7), (6, 6))},
    "lollipop6+5": (11, lollipop_edges(6, 5)),
    "lollipop4+12": (16, lollipop_edges(4, 12)),
    # Every sweep of the search finds eccentricity 2 here; only the
    # eccentricities of the centre's outer layer find the diameter, 3.
    "sweeps_undershoot": (
        9,
        [(0, 1), (1, 2), (1, 3), (2, 4), (3, 5), (4, 6), (2, 7), (5, 8),
         (1, 6), (3, 7), (5, 4), (8, 0), (2, 3), (8, 7), (6, 0)],
    ),
}


def assert_matches_floyd_warshall(n, edges, roots):
    dist = floyd_warshall(n, edges)
    for root in roots:
        topo = Topology.from_edges(n, root, edges)
        assert topo.diameter == max(max(row) for row in dist)
        for u in range(n):
            assert topo.distances_from(u) == tuple(dist[u])
            for v in range(n):
                assert topo.hop_distance(u, v) == dist[u][v]


@st.composite
def connected_graphs(draw, n_max=30):
    """A random spanning tree over shuffled labels, plus random chords."""
    n = draw(st.integers(1, n_max))
    order = draw(st.permutations(range(n)))
    edges = [(order[draw(st.integers(0, i - 1))], order[i]) for i in range(1, n)]
    present = {frozenset(e) for e in edges}
    if n > 1:
        pairs = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
        for u, v in draw(st.lists(pairs, max_size=2 * n)):
            if frozenset((u, v)) not in present:
                present.add(frozenset((u, v)))
                edges.append((u, v))
    return n, edges


class TestDiameterSearch:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_shapes_match_floyd_warshall(self, shape):
        n, edges = SHAPES[shape]
        assert_matches_floyd_warshall(n, edges, roots=[0, n - 1])
        # Relabelled and reordered, so the search starts somewhere else.
        rng = random.Random(shape)
        perm = list(range(n))
        rng.shuffle(perm)
        shuffled = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(shuffled)
        assert_matches_floyd_warshall(n, shuffled, roots=[0])

    def test_many_small_graphs_match_floyd_warshall(self):
        # About one graph in a hundred of these needs more than the sweeps.
        rng = random.Random(11)
        for _ in range(1500):
            n = rng.randint(4, 14)
            edges = [(rng.randrange(v), v) for v in range(1, n)]
            present = {frozenset(e) for e in edges}
            for _ in range(rng.randint(0, n)):
                u, v = rng.sample(range(n), 2)
                if frozenset((u, v)) not in present:
                    present.add(frozenset((u, v)))
                    edges.append((u, v))
            dist = floyd_warshall(n, edges)
            topo = Topology.from_edges(n, 0, edges)
            assert topo.diameter == max(max(row) for row in dist), edges

    @settings(max_examples=150, deadline=None)
    @given(connected_graphs())
    def test_random_connected_graphs_match_floyd_warshall(self, graph):
        n, edges = graph
        assert_matches_floyd_warshall(n, edges, roots=range(n))

    def test_filled_rows_do_not_change_equality_or_hash(self):
        edges = grid_edges(3, 4)
        a = Topology.from_edges(12, 0, edges)
        b = Topology.from_edges(12, 0, edges)
        assert a.hop_distance(0, 11) == 5
        assert compute_containment_areas(a, make_fault_model(a, [7, 9])).near
        assert a == b and hash(a) == hash(b)
        assert {b: "b"}[a] == "b"
        assert repr(a) == repr(b)


class TestSmallGraphDiameter:
    """Graphs of up to ``graph._PLAIN_MAX`` processes take one BFS per
    process instead of iFUB; both paths are checked on every small graph,
    iFUB by lowering the threshold to 0."""

    @pytest.fixture(params=["plain", "ifub"])
    def search(self, request, monkeypatch):
        if request.param == "ifub":
            monkeypatch.setattr(graph, "_PLAIN_MAX", 0)

    def test_every_catalog_graph_takes_the_plain_path(self):
        assert graph._PLAIN_MAX >= 7

    def test_every_catalog_graph_under_every_root(self, search):
        for n, edges in connected_graph_catalog(7):
            want = max(map(max, floyd_warshall(n, edges)))
            for root in range(n):
                assert Topology.from_edges(n, root, edges).diameter == want, (edges, root)

    def test_every_labeled_graph(self, search):
        for n in range(1, 6):
            for edges in labeled_connected_graphs(n):
                want = max(map(max, floyd_warshall(n, edges)))
                assert Topology.from_edges(n, 0, edges).diameter == want, edges

    @pytest.mark.parametrize("shape", sorted(s for s in SHAPES if SHAPES[s][0] <= graph._PLAIN_MAX))
    def test_ifub_on_the_small_shapes(self, monkeypatch, shape):
        monkeypatch.setattr(graph, "_PLAIN_MAX", 0)
        n, edges = SHAPES[shape]
        assert_matches_floyd_warshall(n, edges, roots=[0, n - 1])


def traced_peak(build) -> int:
    """Peak bytes that tracemalloc sees allocated while ``build`` runs."""
    tracemalloc.start()
    try:
        build()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


class TestConstructionMemory:
    # An n x n distance table of n = 2,000 alone takes over 30 MB.
    LIMIT = 4 * 2**20

    def test_long_path_builds_in_linear_memory(self):
        edges = [(v, v + 1) for v in range(1999)]
        built = []
        peak = traced_peak(lambda: built.append(Topology.from_edges(2000, 0, edges)))
        assert built[0].diameter == 1999
        assert peak < self.LIMIT

    def test_disconnected_graph_is_refused_in_linear_memory(self):
        def build():
            with pytest.raises(ValueError, match="not connected"):
                Topology.from_edges(3000, 0, [(0, 1)])

        assert traced_peak(build) < self.LIMIT


class TestFaultModel:
    def test_root_never_byzantine(self):
        topo, _ = path(3)
        with pytest.raises(ValueError, match="root"):
            make_fault_model(topo, [0])

    def test_invalid_id(self):
        topo, _ = path(3)
        with pytest.raises(ValueError):
            make_fault_model(topo, [7])

    def test_count(self):
        _, fm = path(5, byz=[3, 4])
        assert fm.count == 2
        assert fm.is_correct(1) and not fm.is_correct(3)


class TestContainmentAreas:
    def test_hexagon_strictly_near_is_the_far_pair(self):
        # The two processes adjacent to the Byzantine one, and nothing else.
        topo, fm = hexagon()
        areas = compute_containment_areas(topo, fm)
        assert areas.strictly_near == frozenset({3, 4})
        assert areas.near == frozenset({3, 4})
        assert areas.frontier == frozenset()

    def test_path_frontier_is_the_midpoint(self):
        topo, fm = path(5, byz=[4])
        areas = compute_containment_areas(topo, fm)
        assert areas.frontier == frozenset({2})  # d(0,2) == 2 == d(2,4)
        assert areas.near == frozenset({2, 3})
        assert areas.strictly_near == frozenset({3})

    def test_no_faults_empty(self):
        topo, fm = path(6)
        areas = compute_containment_areas(topo, fm)
        assert areas == ContainmentAreas(frozenset(), frozenset(), frozenset())

    def test_matches_distance_oracle(self):
        for topo, byz in random_cases():
            fm = make_fault_model(topo, byz)
            areas = compute_containment_areas(topo, fm)
            near, strict, frontier = area_oracle(
                topo.process_count, topo.edges, topo.root, set(byz)
            )
            assert areas.near == near
            assert areas.strictly_near == strict
            assert areas.frontier == frontier

    def test_excludes_root_and_byzantine(self):
        for topo, byz in random_cases(count=20):
            areas = compute_containment_areas(topo, make_fault_model(topo, byz))
            assert topo.root not in areas.near
            assert not areas.near & set(byz)

    def test_correct_processes_outside_area_stay_connected(self):
        # Deleting an area together with the Byzantine processes leaves the
        # rest in one component around the root.
        for topo, byz in random_cases(count=30):
            areas = compute_containment_areas(topo, make_fault_model(topo, byz))
            for area in (areas.near, areas.strictly_near):
                removed = set(area) | set(byz)
                keep = set(topo.processes()) - removed
                comp = component_of(
                    topo.process_count, topo.edges, topo.root, removed
                )
                assert comp == keep

    def test_monotone_in_byzantine_set(self):
        rng = random.Random(3)
        for topo, byz in random_cases(count=25):
            pool = [
                v for v in topo.processes() if v != topo.root and v not in byz
            ]
            if not pool:
                continue
            bigger = set(byz) | {rng.choice(pool)}
            small = compute_containment_areas(topo, make_fault_model(topo, byz))
            large = compute_containment_areas(topo, make_fault_model(topo, bigger))
            assert small.near <= large.near | bigger
            assert small.strictly_near <= large.strictly_near | bigger

    def test_radius_area(self):
        topo, fm = path(5, byz=[4])
        assert radius_area(topo, fm, 0) == frozenset()
        assert radius_area(topo, fm, 1) == frozenset({3})
        assert radius_area(topo, fm, 2) == frozenset({2, 3})
        assert radius_area(topo, make_fault_model(topo, []), 3) == frozenset()


class TestTopologyFile:
    def test_round_trip_preserves_neighbor_order(self):
        topo = Topology.from_edges(4, 1, [(1, 0), (2, 1), (1, 3), (0, 2)])
        fm = make_fault_model(topo, [3])
        again, fm2 = parse_topology(topology_text(topo, fm))
        assert again.neighbors == topo.neighbors
        assert again.edges == topo.edges
        assert again.root == topo.root
        assert fm2.byzantine == fm.byzantine

    def test_hash_tracks_content(self):
        topo, fm = hexagon()
        assert topology_sha256(topo, fm) != topology_sha256(topo, NO_FAULTS)
        assert topology_sha256(topo, fm) == topology_sha256(topo, fm)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_topology("")
        with pytest.raises(ValueError):
            parse_topology("2 0\n0 1 9")

    def test_byz_line_is_a_line_whose_first_token_is_byz(self):
        assert parse_topology("3 0\n0 1\n1 2\nbyz 1 2\n")[1].byzantine == {1, 2}
        assert parse_topology("3 0\n0 1\n1 2\n  byz\n")[1].byzantine == frozenset()
        with pytest.raises(ValueError):
            parse_topology("3 0\n0 1\n1 2\nbyz2 1\n")

    @pytest.mark.parametrize(
        "text",
        ["04 0\n0 1\n", "4 +0\n0 1\n", "4 0\n0 01\n", "4 0\n0 1_0\n", "4 0\n0 1\nbyz 03\n"],
    )
    def test_integers_not_in_canonical_form_are_malformed(self, text):
        # "02 3" would load as "2 3" and re-encode to other bytes.
        with pytest.raises(ValueError, match="not in canonical form"):
            parse_topology(text)

    def test_a_second_byz_line_is_malformed(self):
        with pytest.raises(ValueError, match="second byz line"):
            parse_topology("3 0\n0 1\n1 2\nbyz 1\nbyz 2\n")
