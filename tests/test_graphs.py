import numpy as np
import pytest

from postqubo import (
    EdgeRef,
    Graph,
    InvalidGraph,
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


NAN, INF = float("nan"), float("inf")
GRAPH_ERRORS = {
    "undirected-self-loop": (lambda: Graph.build([0, 1], undirected=[(1, 1, 1)]), "self-loop"),
    "directed-self-loop": (lambda: Graph.build([0, 1], directed=[(0, 0, 1)]), "self-loop"),
    "undirected-unknown-endpoint": (
        lambda: Graph.build([0, 1], undirected=[(2, 0, 1)]), "endpoint not in vertex set"),
    "directed-unknown-endpoint": (
        lambda: Graph.build([0, 1], directed=[(0, 5, 1)]), "endpoint not in vertex set"),
    "duplicate-undirected": (
        lambda: Graph.build([0, 1], undirected=[(0, 1, 1), (0, 1, 2)]), "duplicate"),
    "duplicate-undirected-reversed": (
        lambda: Graph.build([0, 1], undirected=[(0, 1, 1), (1, 0, 2)]), "duplicate"),
    "duplicate-directed": (
        lambda: Graph.build([0, 1], directed=[(1, 0, 1), (1, 0, 1)]), "duplicate"),
    "negative-w_ab": (lambda: Graph.build([0, 1], undirected=[(0, 1, -1, 1)]),
                      "weight must be finite and non-negative"),
    "infinite-w_ab": (lambda: Graph.build([0, 1], undirected=[(1, 0, 1, INF)]),
                      "weight must be finite and non-negative"),
    "negative-w_ba": (lambda: Graph.build([0, 1], undirected=[(0, 1, 1, -0.5)]),
                      "weight must be finite and non-negative"),
    "nan-w_ba": (lambda: Graph.build([0, 1], undirected=[(0, 1, 1, NAN)]),
                 "weight must be finite and non-negative"),
    "negative-directed": (lambda: Graph.build([0, 1], directed=[(0, 1, -2)]),
                          "weight must be finite and non-negative"),
    "nan-directed": (lambda: Graph.build([0, 1], directed=[(1, 0, NAN)]),
                     "weight must be finite and non-negative"),
    "no-vertices": (lambda: Graph.build([]), "at least one vertex"),
    "negative-vertex": (lambda: Graph.build([0, -1]), "non-negative ints"),
    "non-int-vertex": (lambda: Graph(frozenset({0, 1.5})), "non-negative ints"),
    "undirected-row-too-short": (lambda: Graph.build([0, 1], undirected=[(0, 1)]),
                                 "3 or 4 fields"),
    "undirected-row-too-long": (lambda: Graph.build([0, 1], undirected=[(0, 1, 1, 1, 1)]),
                                "3 or 4 fields"),
    "directed-row-too-short": (lambda: Graph.build([0, 1], directed=[(0, 1)]), "3 fields"),
    "directed-row-too-long": (lambda: Graph.build([0, 1], directed=[(0, 1, 1, 1)]), "3 fields"),
    "edge-ref-kind": (lambda: EdgeRef("x", 0, 1), "edge kind"),
}


@pytest.mark.parametrize("case", list(GRAPH_ERRORS))
def test_graph_construction_errors_are_invalid_graph(case):
    build, fragment = GRAPH_ERRORS[case]
    with pytest.raises(InvalidGraph, match=fragment):
        build()


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


# --- odd degree parity --------------------------------------------------------------

def test_degree_profile_single_edge():
    g = Graph.build([0, 1], undirected=[(0, 1, 1)])
    assert odd_degree_vertices(g) == {0, 1}


def test_degree_profile_matches_recount(rng):
    g = random_connected_undirected(rng, 6, 3)
    assert g.edge_count >= 8 - 3  # tree edges at minimum
    recount = {v: sum(1 for e in g.undirected if v in (e.a, e.b)) for v in g.vertices}
    assert odd_degree_vertices(g) == {v for v, d in recount.items() if d % 2 == 1}


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


@pytest.mark.parametrize("graph, connected", [
    (Graph.build([4]), True),
    (Graph.build([0, 1], directed=[(0, 1, 1)]), False),
    (Graph.build([0, 1], directed=[(1, 0, 1)]), False),
])
def test_strong_connectivity_of_a_single_vertex_and_a_one_way_path(graph, connected):
    assert is_strongly_connected(graph) is connected


def test_directed_cycle_minus_arc_not_connected():
    g = Graph.build([0, 1, 2], directed=[(0, 1, 1), (1, 2, 1)])
    assert not is_strongly_connected(g)
    # exhaustive reachability cross-check
    full = Graph.build([0, 1, 2], directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    assert is_strongly_connected(full)


# --- eulerian_circuit ------------------------------------------------------------

def circuit(edges: list[tuple[int, int]], directed: bool = False) -> list[tuple[int, int]]:
    """Closed walk over every listed edge once, checked against its edge indices."""
    seq = _euler_edge_sequence(edges, directed)
    assert sorted(idx for _, _, idx in seq) == list(range(len(edges)))
    for tail, head, idx in seq:
        assert (tail, head) == edges[idx] or (not directed and (head, tail) == edges[idx])
    return [(a, b) for a, b, _ in seq]


def is_closed_walk(steps: list[tuple[int, int]]) -> bool:
    contiguous = all(b == c for (_, b), (c, _) in zip(steps, steps[1:]))
    return bool(steps) and contiguous and steps[0][0] == steps[-1][1]


def test_euler_circuit_on_augmented_example():
    g = figure_example_graph()
    edges = [(e.a, e.b) for e in g.undirected] + [(3, 5)]
    weights = [e.w_ab for e in g.undirected] + [9.0]
    seq = _euler_edge_sequence(edges)
    assert sum(weights[idx] for _, _, idx in seq) == 32.0
    assert is_closed_walk([(a, b) for a, b, _ in seq])
    assert len(seq) == 8


def test_euler_circuit_triangle():
    steps = circuit([(0, 1), (1, 2), (2, 0)])
    assert len(steps) == 3
    assert is_closed_walk(steps)
    assert _euler_edge_sequence([]) == []


def test_euler_circuit_uses_every_edge_once(rng):
    checked = 0
    for _ in range(40):
        edges = []
        n = int(rng.integers(3, 7))
        directed = bool(rng.integers(0, 2))
        # random even (balanced) multigraph: add random cycles
        for _ in range(int(rng.integers(1, 4))):
            size = int(rng.integers(2, n + 1))
            cyc = [int(v) for v in rng.choice(n, size=size, replace=False)]
            edges += list(zip(cyc, cyc[1:] + cyc[:1]))
        try:
            steps = circuit(edges, directed)
        except NoEulerianCircuit as exc:
            assert str(exc) == "edge set is not connected"
            continue
        checked += 1
        assert is_closed_walk(steps)
        assert steps[0][0] == min(v for edge in edges for v in edge)
    assert checked >= 10


def test_euler_circuit_rejects_odd_degree():
    with pytest.raises(NoEulerianCircuit, match="vertex 0 has odd degree 1"):
        _euler_edge_sequence([(0, 1)])


def test_euler_circuit_rejects_disconnected():
    for directed in (False, True):
        with pytest.raises(NoEulerianCircuit, match="edge set is not connected"):
            _euler_edge_sequence([(0, 1), (1, 0), (2, 3), (3, 2)], directed)


def test_euler_circuit_directed_balance():
    edges = [(0, 1), (1, 2), (2, 0)]
    steps = circuit(edges, directed=True)
    assert steps == edges
    # the reversed triangle is an undirected circuit but not a directed one
    assert len(circuit([(1, 0), (1, 2), (2, 0)])) == 3
    with pytest.raises(NoEulerianCircuit):
        _euler_edge_sequence([(1, 0), (1, 2), (2, 0)], directed=True)
    with pytest.raises(NoEulerianCircuit):
        _euler_edge_sequence(edges + [(0, 1)], directed=True)
