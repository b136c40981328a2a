import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from postqubo import (
    EdgeRef,
    Graph,
    InputError,
    Postmen,
    PostquboError,
    ProblemSpec,
    ServiceMode,
    TurnPenalty,
    brute_force,
    compile_general,
    default_penalties,
    euler_shortcut,
    exact_walk_oracle,
)
from postqubo.pairing import augment_and_route, compile_pairing, euler_route, exact_pairing_oracle
from postqubo.routes import RouteSolution, RouteWalk, WalkStep
from postqubo.serialization import (
    GraphDocument,
    SpecDocument,
    load_instance,
    parse_graph,
    parse_spec,
    render_dot,
    revalidate_route,
    route_from_json,
    route_to_json,
)
from conftest import encode_pairing, encode_route, random_graph_with_odd_count, random_mixed_graph


FIG_GRAPH = {
    "vertices": [0, 1, 2, 3, 4, 5],
    "undirected": [[3, 2, 5], [2, 1, 1], [1, 0, 1], [0, 5, 2], [5, 4, 5], [4, 2, 5], [5, 2, 4]],
}


def test_parse_graph_roundtrip_labels():
    doc = parse_graph({"vertices": ["x", "y", "z"], "undirected": [["x", "y", 2]],
                       "directed": [["y", "z", 3], ["z", "x", 1]]})
    assert doc.id_of("x") == 0 and doc.label_of(2) == "z"
    assert doc.graph.edge_count == 3


def test_parse_graph_windy_defaults():
    doc = parse_graph({"vertices": [0, 1], "undirected": [[0, 1, 2, 7]]})
    e = doc.graph.undirected[0]
    assert (e.w_ab, e.w_ba) == (2.0, 7.0)
    sym = parse_graph({"vertices": [0, 1], "undirected": [[0, 1, 2]]})
    assert sym.graph.undirected[0].w_ba == 2.0


def test_parse_graph_rejects_unknown_keys_and_bad_edges():
    with pytest.raises(InputError):
        parse_graph({"vertices": [0, 1], "extra": 1})
    with pytest.raises(InputError):
        parse_graph({"vertices": [0, 1], "undirected": [[0, 1]]})
    with pytest.raises(InputError):
        parse_graph({"vertices": [0, 1], "undirected": [[0, 2, 1]]})
    with pytest.raises(InputError):
        parse_graph({"vertices": []})


def test_parse_spec_full_feature():
    obj = {
        "graph": {"vertices": ["a", "b", "c"],
                  "directed": [["a", "b", 1], ["b", "c", 1], ["c", "a", 1]]},
        "start": "a",
        "required": [["a", "b", "d"], ["b", "c", "d"]],
        "turn_penalties": [[["a", "b"], ["b", "c"], 2.5]],
        "service": {"traverse_weights": [["a", "b", 0.5]]},
        "hierarchy": [[["b", "c", "d"], ["a", "b", "d"]]],
        "i_max": 5,
    }
    doc = parse_spec(obj)
    spec = doc.spec
    assert spec.start == 0 and spec.stop is None
    assert spec.resolved_required() == (EdgeRef("d", 0, 1), EdgeRef("d", 1, 2))
    assert spec.turn_penalties[0].bonus == 2.5
    assert spec.service is not None
    assert spec.weight(0, (0, 1, "d"), "traverse") == 0.5
    assert spec.hierarchy == ((EdgeRef("d", 1, 2), EdgeRef("d", 0, 1)),)
    assert spec.effective_i_max == 5


def test_parse_spec_postmen_block():
    obj = {
        "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 2], [1, 2, 3]]},
        "postmen": {"count": 2, "capacities": [4, 5]},
        "forbid_edge_collisions": True,
    }
    spec = parse_spec(obj).spec
    assert spec.postmen.count == 2
    assert spec.postmen.capacities == (4.0, 5.0)
    assert spec.forbid_edge_collisions


def test_parse_spec_rejects_unknown_and_inconsistent():
    with pytest.raises(InputError):
        parse_spec({"graph": FIG_GRAPH, "bogus": 1})
    with pytest.raises(InputError):
        parse_spec({"graph": FIG_GRAPH, "required": [[0, 3, "u"]]})  # not an edge
    with pytest.raises(InputError):
        parse_spec({
            "graph": FIG_GRAPH,
            "turn_penalties": [[[3, 2], [5, 2], 1.0]],  # out must start at 2
        })
    with pytest.raises(InputError):
        parse_spec({"graph": FIG_GRAPH, "service": "yes"})


def test_load_instance_detects_kind(tmp_path):
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(FIG_GRAPH))
    assert isinstance(load_instance(gpath), GraphDocument)
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps({"graph": FIG_GRAPH, "i_max": 3}))
    assert isinstance(load_instance(spath), SpecDocument)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        load_instance(bad)


def test_route_json_roundtrip():
    doc = parse_graph({"vertices": ["p", "q", "r", "s"],
                       "undirected": [["p", "q", 1], ["q", "r", 2], ["r", "s", 3], ["s", "p", 4]]})
    solution = euler_route(doc.graph)
    obj = route_to_json(solution, doc, "pairing", "brute", 0, 10.0, 0)
    assert obj["walks"][0][0]["from"] in ("p", "q", "r", "s")
    back = route_from_json(obj, doc)
    assert back.objective_weight == solution.objective_weight
    assert [s.frm for s in back.walks[0].steps] == [s.frm for s in solution.walks[0].steps]
    assert revalidate_route(doc, back) == []


def test_spec_required_edge_accepts_either_endpoint_order():
    sd = parse_spec({"graph": {"vertices": [0, 1, 2],
                               "undirected": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]},
                     "required": [[2, 1, "u"]]})
    assert sd.spec.required_edges == frozenset({EdgeRef("u", 1, 2)})


def test_route_step_kind_is_optional_but_never_guessed():
    doc = parse_graph({"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 1]],
                       "directed": [[1, 0, 4]]})
    route = {"pipeline": "general", "weight": 2.0, "valid": True,
             "walks": [[{"from": 0, "to": 1}, {"from": 1, "to": 2}]]}
    steps = route_from_json(route, doc).walks[0].steps
    assert [s.kind for s in steps] == ["u", "u"]
    route["walks"] = [[{"from": 1, "to": 0}]]  # both an undirected and a directed arc
    with pytest.raises(InputError, match="give a kind"):
        route_from_json(route, doc)
    route["walks"] = [[{"from": 1, "to": 0, "kind": "d"}]]
    assert route_from_json(route, doc).walks[0].steps[0].kind == "d"


# 1, 1.0 and true are equal in Python but three distinct JSON labels
NUMERIC_LABELS = {"vertices": [0, 1.0, 1], "undirected": [[0, 1.0, 1], [1.0, 1, 1], [1, 0, 1]]}


def test_spec_endpoint_labels_match_by_repr():
    sd = parse_spec({"graph": NUMERIC_LABELS, "start": 1, "stop": 1.0})
    assert (sd.spec.start, sd.spec.stop) == (2, 1)
    with pytest.raises(InputError, match="unknown vertex label"):
        sd.graph_doc.id_of(True)


def test_route_step_labels_match_by_repr():
    doc = parse_graph(NUMERIC_LABELS)
    route = {"pipeline": "pairing", "weight": 1.0, "valid": True,
             "walks": [[{"from": 1, "to": 0}]]}
    step = route_from_json(route, doc).walks[0].steps[0]
    assert (step.frm, step.to) == (2, 0)


def test_route_step_rejects_unknown_mode():
    doc = parse_graph(FIG_GRAPH)
    route = {"pipeline": "pairing", "weight": 1.0, "valid": True,
             "walks": [[{"from": 0, "to": 1, "mode": "banana"}]]}
    with pytest.raises(InputError, match="mode"):
        route_from_json(route, doc)


@st.composite
def tiny_mixed_specs(draw) -> dict:
    """Connected 2-3 vertex specs whose extra edges may be windy or directed
    and may join the same vertex pair as an existing edge of the other kind,
    with endpoints, turn bonuses, and either service mode (with an ordered
    pair) or a team of postmen (with capacities and collision bans)."""
    nv = draw(st.integers(2, 3))
    weight = st.integers(1, 5)
    undirected = [[v, v + 1, draw(weight)] for v in range(nv - 1)]
    directed = []
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.permutations(range(nv)))[:2]
        if draw(st.booleans()):
            if all({a, b} != {e[0], e[1]} for e in undirected):
                undirected.append([a, b, draw(weight), draw(weight)])
        elif [a, b] not in [d[:2] for d in directed]:
            directed.append([a, b, draw(weight)])
    spec = {"graph": {"vertices": list(range(nv)), "undirected": undirected,
                      "directed": directed},
            "i_max": draw(st.integers(1, 3))}
    arcs = [(e[0], e[1]) for e in undirected] + [(e[1], e[0]) for e in undirected]
    arcs += [(d[0], d[1]) for d in directed]
    turns = [(a, b) for a in arcs for b in arcs if a[1] == b[0]]
    if turns and draw(st.booleans()):
        (j, k), (_, r) = draw(st.sampled_from(turns))
        spec["turn_penalties"] = [[[j, k], [k, r], draw(weight)]]
    variant = draw(st.sampled_from(["service", "team", "single"]))
    ends = ("start",) if variant == "team" else ("start", "stop")
    for end in ends:
        if draw(st.booleans()):
            spec[end] = draw(st.integers(0, nv - 1))
    if variant == "service":
        spec["service"] = True
        edges = [[*e[:2], "u"] for e in undirected] + [[*d[:2], "d"] for d in directed]
        if len(edges) > 1 and draw(st.booleans()):
            spec["hierarchy"] = [draw(st.permutations(edges))[:2]]
    elif variant == "team":
        count = draw(st.integers(1, 2))
        spec["postmen"] = {"count": count}
        if draw(st.booleans()):
            spec["postmen"]["capacities"] = [draw(st.integers(1, 8)) for _ in range(count)]
        spec["forbid_edge_collisions"] = draw(st.booleans())
    return spec


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(tiny_mixed_specs())
def test_route_json_round_trip_keeps_decode_validity(obj):
    sd = parse_spec(obj)
    try:
        compiled = compile_general(sd.spec)
    except PostquboError:
        assume(False)
    q = compiled.qubo(default_penalties(sd.spec))
    assume(q.n <= 20)
    report = brute_force(q)
    solution = compiled.decode(report.best_assignment)
    text = json.dumps(route_to_json(solution, sd.graph_doc, "general", "brute", 0,
                                    report.best_energy))
    back = route_from_json(json.loads(text), sd.graph_doc)
    assert (revalidate_route(sd, back) == []) == solution.is_valid


def test_revalidate_flags_broken_routes():
    doc = parse_graph(FIG_GRAPH)
    bad = RouteSolution(
        walks=(RouteWalk((WalkStep(0, 1), WalkStep(1, 2)), 2.0),),
        objective_weight=2.0,
    )
    problems = revalidate_route(doc, bad)
    assert any("not closed" in p for p in problems)
    assert any("never traversed" in p for p in problems)


def test_revalidate_flags_a_step_that_is_not_a_graph_arc():
    doc = parse_graph(FIG_GRAPH)
    steps = (WalkStep(0, 1), WalkStep(1, 3), WalkStep(3, 2), WalkStep(2, 1), WalkStep(1, 0))
    bad = RouteSolution(walks=(RouteWalk(steps, 0.0),), objective_weight=0.0)
    assert revalidate_route(doc, bad) == ["walk 0 step 1->3 is not a graph arc"]


def test_revalidate_flags_jumps_and_endpoints():
    sd = parse_spec({"graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 1], [1, 2, 2]]},
                     "start": 0, "stop": 2})
    walk = RouteWalk((WalkStep(1, 0), WalkStep(1, 2), WalkStep(2, 1)), 5.0)
    problems = revalidate_route(sd, RouteSolution(walks=(walk,), objective_weight=5.0))
    assert problems == ["walk 0 jumps from 0 to 1", "walk 0 starts at 1, not 0",
                        "walk 0 ends at 1, not 2"]


def test_revalidate_flags_modes_outside_the_spec():
    plain = parse_spec({"graph": {"vertices": [0, 1], "undirected": [[0, 1, 2]]}})
    walk = RouteWalk((WalkStep(0, 1, "service"), WalkStep(1, 0, "traverse")), 4.0)
    problems = revalidate_route(plain, RouteSolution(walks=(walk,), objective_weight=4.0))
    assert len([p for p in problems if "mode" in p]) == 2
    served = parse_spec({"graph": {"vertices": [0, 1], "undirected": [[0, 1, 2]]},
                         "service": True})
    walk = RouteWalk((WalkStep(0, 1, "service"), WalkStep(1, 0, "plain")), 4.0)
    problems = revalidate_route(served, RouteSolution(walks=(walk,), objective_weight=4.0))
    assert any("'plain'" in p for p in problems)


def test_revalidate_flags_a_stated_nan():
    sd = parse_spec({"graph": {"vertices": [0, 1], "undirected": [[0, 1, 2]]}})
    walk = RouteWalk((WalkStep(0, 1), WalkStep(1, 0)), 4.0)
    assert revalidate_route(sd, RouteSolution(walks=(walk,), objective_weight=4.0)) == []
    nan = float("nan")
    problems = revalidate_route(sd, RouteSolution(walks=(walk,), objective_weight=nan))
    assert problems == ["stated weight nan != recomputed 4.0"]
    problems = revalidate_route(
        sd, RouteSolution(walks=(walk,), objective_weight=4.0, turn_extra=nan))
    assert problems == ["stated turn_extra nan != recomputed 0.0"]


def test_revalidate_spec_route_checks_capacity_and_required():
    obj = {
        "graph": {"vertices": [0, 1, 2], "undirected": [[0, 1, 2], [1, 2, 3]]},
        "postmen": {"count": 1, "capacities": [4]},
        "i_max": 2,
    }
    instance = parse_spec(obj)
    walk = RouteWalk((WalkStep(0, 1), WalkStep(1, 2)), 5.0)
    solution = RouteSolution(walks=(walk,), objective_weight=5.0)
    problems = revalidate_route(instance, solution)
    assert any("capacity" in p for p in problems)


def test_render_dot_contains_route_overlay():
    doc = parse_graph(FIG_GRAPH)
    solution = None
    text = render_dot(doc, solution)
    assert text.startswith("digraph route {")
    solution = euler_route(
        parse_graph({"vertices": [0, 1, 2],
                     "undirected": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]}).graph
    )
    doc2 = parse_graph({"vertices": [0, 1, 2],
                        "undirected": [[0, 1, 1], [1, 2, 1], [0, 2, 1]]})
    text = render_dot(doc2, solution)
    assert "color=red" in text


def test_render_dot_draws_directed_edges_with_their_weight():
    doc = parse_graph({"vertices": ["a", "b", "c"], "undirected": [["a", "b", 1, 2]],
                       "directed": [["b", "c", 2.5], ["c", "a", 3]]})
    lines = render_dot(doc).splitlines()
    assert '  v0 -> v1 [dir=none, color=gray, label="1" , headlabel="2"];' in lines
    assert '  v1 -> v2 [color=gray, label="2.5"];' in lines
    assert '  v2 -> v0 [color=gray, label="3"];' in lines


# --- every route producer round-trips through validate -----------------------------

def _fractional(rng, g):
    """`g` with every weight drawn again as a four-decimal float."""
    def w():
        return round(float(rng.uniform(1e5, 1e6)), 4)
    return Graph.build(
        sorted(g.vertices),
        undirected=[(e.a, e.b, w()) if e.symmetric else (e.a, e.b, w(), w())
                    for e in g.undirected],
        directed=[(d.tail, d.head, w()) for d in g.directed],
    )


def _even_cycle(rng, n):
    """An n-cycle with fractional weights: no odd vertex, one Euler circuit."""
    return _fractional(rng, Graph.build(range(n), undirected=[(i, (i + 1) % n, 1)
                                                                for i in range(n)]))


def _round_trip(doc, solution, pipeline):
    """The route as `validate` reads it back: problems, weight, turn_extra, recomputed."""
    graph_doc = doc if isinstance(doc, GraphDocument) else doc.graph_doc
    obj = json.loads(json.dumps(route_to_json(solution, graph_doc, pipeline, "test", 0, None)))
    back = route_from_json(obj, graph_doc)
    spec = doc.spec if isinstance(doc, SpecDocument) else ProblemSpec(graph=doc.graph)
    _, weights, turn_extra = spec.check_walks([w.steps for w in back.walks])
    assert (back.objective_weight, back.turn_extra) == (sum(weights, 0.0), turn_extra)
    return revalidate_route(doc, back)


def _mixed_specs(rng, count):
    """Windy mixed specs with fractional weights; some have a fractional turn
    bonus, a rural subset, endpoints or service mode."""
    made = 0
    while made < count:
        g = random_mixed_graph(rng, int(rng.integers(3, 5)), int(rng.integers(3, 5)),
                               windy=True, directed_frac=0.3)
        if g is None:
            continue
        g = _fractional(rng, g)
        refs, arcs = sorted(g.edge_refs()), list(g.arcs())
        kwargs = {"i_max": g.edge_count + 2}
        if made % 2 == 0:
            turns = [(a, b) for a in arcs for b in arcs if a.head == b.tail]
            a, b = turns[int(rng.integers(0, len(turns)))]
            kwargs["turn_penalties"] = (TurnPenalty(a.tail, a.head, b.head,
                                                    round(float(rng.uniform(0.1, 1e5)), 4)),)
        if made % 3 == 1:
            kwargs["required_edges"] = frozenset(refs[: max(1, len(refs) - 1)])
        if made % 4 == 2:
            kwargs["start"] = int(rng.integers(0, len(g.vertices)))
        if made % 5 == 3:
            kwargs["service"] = ServiceMode()
        made += 1
        yield ProblemSpec(graph=g, **kwargs)


def test_every_producer_states_the_weight_and_bonus_validate_recomputes():
    # fractional weights make the summation order show: each producer's
    # route must carry exactly what `check_walks` recomputes, and validate
    rng = np.random.default_rng(2203)
    for _ in range(12):
        g = _fractional(rng, random_graph_with_odd_count(rng, int(rng.choice([2, 4, 6]))))
        doc = GraphDocument(g, tuple(sorted(g.vertices)))
        compiled = compile_pairing(g)
        pairing, _ = exact_pairing_oracle(g)
        decoded = compiled.decode(encode_pairing(pairing, compiled.registry))
        assert decoded.is_valid
        for solution in (decoded, augment_and_route(g, pairing)):
            assert _round_trip(doc, solution, "pairing") == []
        even = _even_cycle(rng, int(rng.integers(3, 7)))
        even_doc = GraphDocument(even, tuple(sorted(even.vertices)))
        assert _round_trip(even_doc, euler_route(even), "pairing") == []

    for spec in _mixed_specs(rng, 24):  # 12 with a turn bonus, 4 of whose walks pay it
        doc = SpecDocument(spec, GraphDocument(spec.graph, tuple(sorted(spec.graph.vertices))))
        oracle = exact_walk_oracle(spec)
        assert oracle.is_valid and _round_trip(doc, oracle, "general") == []
        # the repetition encoding pads with repeats, and a service step never repeats
        compiled = compile_general(spec, "terminal" if spec.service else "auto")
        steps = [(s.frm, s.to, s.mode, s.kind) for s in oracle.single_walk().steps]
        decoded = compiled.decode(encode_route(compiled, [steps]))
        assert decoded.is_valid and _round_trip(doc, decoded, "general") == []
    for n in (3, 4, 5):
        cycle = _even_cycle(rng, n)
        spec = ProblemSpec(graph=cycle, start=n - 1)
        doc = SpecDocument(spec, GraphDocument(cycle, tuple(range(n))))
        shortcut = euler_shortcut(spec)
        assert shortcut is not None and _round_trip(doc, shortcut, "general") == []
