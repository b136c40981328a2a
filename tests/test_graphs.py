import numpy as np
import pytest

from postqubo import (
    EdgeRef,
    Graph,
    InvalidGraph,
    MultiGraph,
    NoEulerianCircuit,
    NonUndirectedGraph,
    NotStronglyConnected,
    is_strongly_connected,
    odd_degree_vertices,
    shortest_paths,
)
from postqubo.graphs import _euler_edge_sequence
from conftest import figure_example_graph, floyd_warshall, random_connected_undirected


# --- construction invariants -------------------------------------------------

def test_rejects_self_loop():
    with pytest.raises(InvalidGraph):
        Graph.build([0, 1], undirected=[(0, 0, 1)])


def test_rejects_duplicate_edges():
    with pytest.raises(InvalidGraph):
        Graph.build([0, 1], undirected=[(0, 1, 1), (1, 0, 2)])
    with pytest.raises(InvalidGraph):
        Graph.build([0, 1], directed=[(0, 1, 1), (0, 1, 2)])


def test_rejects_unknown_endpoint_and_bad_weight():
    with pytest.raises(InvalidGraph):
        Graph.build([0, 1], undirected=[(0, 2, 1)])
    with pytest.raises(InvalidGraph):
        Graph.build([0, 1], undirected=[(0, 1, -1)])
    with pytest.raises(InvalidGraph):
        Graph.build([0, 1], directed=[(0, 1, float("inf"))])


def test_opposite_directed_arcs_coexist():
    g = Graph.build([0, 1], directed=[(0, 1, 1), (1, 0, 2)])
    assert g.edge_count == 2


def test_edge_ref_orders_undirected_endpoints_only():
    ref = EdgeRef("u", 2, 1)
    assert (ref.a, ref.b) == (1, 2)
    assert ref == EdgeRef("u", 1, 2)
    assert (EdgeRef("d", 2, 1).a, EdgeRef("d", 2, 1).b) == (2, 1)


def test_undirected_and_directed_between_same_pair_are_distinct():
    g = Graph.build([0, 1], undirected=[(0, 1, 1)], directed=[(0, 1, 2)])
    assert g.edge_count == 2
    assert len(g.arcs()) == 3


# --- degree_profile: undirected degrees and their parity -------------------------

def degrees(g: Graph) -> dict[int, int]:
    return MultiGraph.from_graph(g).degrees()


def test_degree_profile_example_vertex_two():
    assert degrees(figure_example_graph())[2] == 4


def test_degree_profile_single_edge():
    g = Graph.build([0, 1], undirected=[(0, 1, 1)])
    assert degrees(g) == {0: 1, 1: 1}
    assert odd_degree_vertices(g) == {0, 1}


def test_degree_profile_matches_recount(rng):
    g = random_connected_undirected(rng, 6, 3)
    assert g.edge_count >= 8 - 3  # tree edges at minimum
    profile = degrees(g)
    for v in g.vertices:
        recount = sum(1 for e in g.undirected if v in (e.a, e.b))
        assert profile[v] == recount
    assert odd_degree_vertices(g) == {v for v, d in profile.items() if d % 2 == 1}


def test_degree_sum_is_twice_edge_count(rng):
    for _ in range(10):
        g = random_connected_undirected(rng, int(rng.integers(3, 9)), int(rng.integers(0, 6)))
        assert sum(degrees(g).values()) == 2 * g.edge_count


# --- odd_degree_vertices ---------------------------------------------------------

def test_odd_vertices_example():
    assert odd_degree_vertices(figure_example_graph()) == {3, 5}


def test_odd_vertices_cycle_empty():
    c4 = Graph.build(range(4), undirected=[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    assert odd_degree_vertices(c4) == frozenset()


def test_odd_vertices_rejects_directed():
    g = Graph.build([0, 1], directed=[(0, 1, 1)])
    with pytest.raises(NonUndirectedGraph):
        odd_degree_vertices(g)


def test_odd_vertex_count_always_even(rng):
    for _ in range(30):
        g = random_connected_undirected(rng, int(rng.integers(3, 10)), int(rng.integers(0, 8)))
        odd = odd_degree_vertices(g)
        recount = {
            v
            for v in g.vertices
            if sum(1 for e in g.undirected if v in (e.a, e.b)) % 2 == 1
        }
        assert odd == recount
        assert len(odd) % 2 == 0


# --- shortest_paths ---------------------------------------------------------------

def test_shortest_paths_example():
    sp = shortest_paths(figure_example_graph())
    assert sp.distance(3, 5) == 9.0
    assert sp.path(3, 5) == [3, 2, 5]


def test_shortest_paths_self_distance_zero():
    g = figure_example_graph()
    sp = shortest_paths(g)
    for v in g.vertices:
        assert sp.distance(v, v) == 0.0
        assert sp.path(v, v) == [v]


def test_shortest_paths_windy_direction_dependent():
    g = Graph.build([0, 1], undirected=[(0, 1, 2, 7)])
    sp = shortest_paths(g)
    assert sp.distance(0, 1) == 2.0
    assert sp.distance(1, 0) == 7.0


def test_shortest_paths_match_floyd_warshall(rng):
    for _ in range(20):
        n = int(rng.integers(3, 7))
        undirected = []
        directed = []
        for a in range(n):
            for b in range(a + 1, n):
                r = rng.random()
                if r < 0.5:
                    undirected.append(
                        (a, b, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
                    )
                elif r < 0.7:
                    directed.append((a, b, int(rng.integers(1, 9))))
                    directed.append((b, a, int(rng.integers(1, 9))))
        g = Graph.build(range(n), undirected=undirected, directed=directed)
        if not is_strongly_connected(g):
            continue
        sp = shortest_paths(g)
        reference = floyd_warshall(g)
        for a in g.vertices:
            for b in g.vertices:
                assert sp.distance(a, b) == pytest.approx(reference[(a, b)])


def test_shortest_paths_triangle_inequality(rng):
    g = random_connected_undirected(rng, 7, 6)
    sp = shortest_paths(g)
    for a in g.vertices:
        for b in g.vertices:
            for c in g.vertices:
                assert sp.distance(a, c) <= sp.distance(a, b) + sp.distance(b, c) + 1e-9


def test_path_reconstruction_weight_equals_distance(rng):
    g = random_connected_undirected(rng, 7, 8)
    sp = shortest_paths(g)
    weight_of = {}
    for arc in g.arcs():
        weight_of[(arc.tail, arc.head)] = arc.weight
    for a in g.vertices:
        for b in g.vertices:
            steps = sp.path_steps(a, b)
            assert sum(weight_of[s] for s in steps) == pytest.approx(sp.distance(a, b))


def test_shortest_paths_requires_strong_connectivity():
    g = Graph.build([0, 1, 2], directed=[(0, 1, 1), (1, 2, 1)])
    with pytest.raises(NotStronglyConnected):
        shortest_paths(g)


# --- is_strongly_connected ----------------------------------------------------------

def test_strongly_connected_example():
    assert is_strongly_connected(figure_example_graph())


def test_isolated_vertices_not_connected():
    assert not is_strongly_connected(Graph.build([0, 1]))


def test_directed_cycle_minus_arc_not_connected():
    g = Graph.build([0, 1, 2], directed=[(0, 1, 1), (1, 2, 1)])
    assert not is_strongly_connected(g)
    # exhaustive reachability cross-check
    full = Graph.build([0, 1, 2], directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert is_strongly_connected(full)


# --- eulerian_circuit ------------------------------------------------------------

def circuit(mg: MultiGraph) -> tuple[list[tuple[int, int]], float]:
    """Closed walk over every multigraph edge once, plus its weight."""
    seq = _euler_edge_sequence(mg)
    return [(a, b) for a, b, _ in seq], sum(mg.edges[idx].weight for _, _, idx in seq)


def is_closed_walk(steps: list[tuple[int, int]]) -> bool:
    contiguous = all(b == c for (_, b), (c, _) in zip(steps, steps[1:]))
    return bool(steps) and contiguous and steps[0][0] == steps[-1][1]


def test_euler_circuit_on_augmented_example():
    mg = MultiGraph.from_graph(figure_example_graph())
    mg.add_edge(3, 5, 9.0)
    steps, weight = circuit(mg)
    assert weight == 32.0
    assert is_closed_walk(steps)
    assert len(steps) == 8


def test_euler_circuit_triangle():
    mg = MultiGraph()
    for a, b in [(0, 1), (1, 2), (2, 0)]:
        mg.add_edge(a, b, 1.0)
    steps, weight = circuit(mg)
    assert weight == 3.0
    assert is_closed_walk(steps)


def test_euler_circuit_uses_every_edge_once(rng):
    for _ in range(20):
        mg = MultiGraph()
        n = int(rng.integers(3, 7))
        # random even multigraph: add random cycles (each keeps degrees even)
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, n + 1))
            cyc = list(rng.choice(n, size=size, replace=False))
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                mg.add_edge(int(a), int(b), float(rng.integers(1, 9)))
        # keep one connected component only
        try:
            steps, weight = circuit(mg)
        except NoEulerianCircuit:
            continue
        used = sorted((min(a, b), max(a, b)) for a, b in steps)
        expected = sorted((min(e.tail, e.head), max(e.tail, e.head)) for e in mg.edges)
        assert used == expected
        assert weight == pytest.approx(mg.total_weight)


def test_euler_circuit_rejects_odd_degree():
    mg = MultiGraph()
    mg.add_edge(0, 1, 1.0)
    with pytest.raises(NoEulerianCircuit):
        circuit(mg)


def test_euler_circuit_rejects_disconnected():
    mg = MultiGraph()
    for a, b in [(0, 1), (1, 0), (2, 3), (3, 2)]:
        mg.add_edge(a, b, 1.0)
    with pytest.raises(NoEulerianCircuit):
        circuit(mg)


def test_euler_circuit_directed_balance():
    mg = MultiGraph(directed=True)
    for a, b in [(0, 1), (1, 2), (2, 0)]:
        mg.add_edge(a, b, 2.0)
    steps, weight = circuit(mg)
    assert weight == 6.0
    assert steps[0][0] == 0
    mg.add_edge(0, 1, 1.0)
    with pytest.raises(NoEulerianCircuit):
        circuit(mg)
