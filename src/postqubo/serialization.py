"""JSON formats for graphs, problem specs, and routes, plus DOT rendering.

External files may label vertices arbitrarily; labels are remapped to dense
internal ids (their position in the `vertices` list) at ingestion and mapped
back on output.  A label is looked up by its `repr`, so 1, 1.0 and true stay
three distinct vertices.  Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from .errors import InputError
from .graphs import EdgeRef, Graph
from .problem import Postmen, ProblemSpec, ServiceMode, TurnPenalty
from .qubo import MODE_PLAIN, MODE_SERVICE, MODE_TRAVERSE
from .routes import RouteSolution, RouteWalk, ValidityReport, WalkStep


def _check_keys(obj: Mapping, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(obj, Mapping):
        raise InputError(f"{what} must be a JSON object")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise InputError(f"{what}: missing keys {sorted(missing)}")
    if unknown:
        raise InputError(f"{what}: unknown keys {sorted(unknown)}")


def _as_list(items: Any, what: str) -> list:
    if not isinstance(items, list):
        raise InputError(f"{what} must be a list: {items!r}")
    return items


def _integer(value: Any, what: str) -> int:
    """An integral JSON number (2 or 2.0); not a bool, string or fraction."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise InputError(f"{what} must be an integer: {value!r}")
    return int(value)


def _number(value: Any, what: str) -> float:
    """A JSON number (int or float) as a float; not a bool or string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputError(f"{what} must be a number: {value!r}")
    return float(value)


def _label_index(labels: Sequence[Any]) -> dict[str, int]:
    """repr(label) -> internal id: 1, 1.0 and true are distinct labels."""
    index = {repr(lab): i for i, lab in enumerate(labels)}
    if len(index) != len(labels):
        raise InputError("duplicate vertex labels")
    return index


@dataclass(frozen=True)
class GraphDocument:
    """A graph plus the label <-> internal id mapping from its source file."""

    graph: Graph
    labels: tuple[Any, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", _label_index(self.labels))

    def id_of(self, label: Any) -> int:
        vid = self._index.get(repr(label))
        if vid is None:
            raise InputError(f"unknown vertex label {label!r}")
        return vid

    def label_of(self, vid: int) -> Any:
        return self.labels[vid]


def parse_graph(obj: Mapping) -> GraphDocument:
    _check_keys(obj, {"vertices"}, {"undirected", "directed"}, "graph")
    labels = obj["vertices"]
    if not isinstance(labels, list) or not labels:
        raise InputError("graph.vertices must be a non-empty list")
    index = _label_index(labels)

    def vid(label: Any) -> int:
        key = repr(label)
        if key not in index:
            raise InputError(f"edge endpoint {label!r} is not a listed vertex")
        return index[key]

    undirected = []
    for item in _as_list(obj.get("undirected", []), "graph.undirected"):
        if not isinstance(item, list) or len(item) not in (3, 4):
            raise InputError(f"undirected entry needs [a,b,w] or [a,b,w_ab,w_ba]: {item!r}")
        weights = (_number(w, "undirected edge weight") for w in item[2:])
        undirected.append((vid(item[0]), vid(item[1]), *weights))
    directed = []
    for item in _as_list(obj.get("directed", []), "graph.directed"):
        if not isinstance(item, list) or len(item) != 3:
            raise InputError(f"directed entry needs [from,to,w]: {item!r}")
        directed.append((vid(item[0]), vid(item[1]), _number(item[2], "directed edge weight")))
    for a, b, *_ in undirected + directed:
        if a == b:  # named here by its label, not by the vertex id the graph sees
            raise InputError(f"invalid graph: self-loop on vertex {labels[a]!r}")
    try:
        graph = Graph.build(range(len(labels)), undirected=undirected, directed=directed)
    except Exception as exc:
        raise InputError(f"invalid graph: {exc}") from exc
    return GraphDocument(graph, tuple(labels))


def _parse_edge_ref(item: Sequence, doc: GraphDocument, what: str) -> EdgeRef:
    if not isinstance(item, list) or len(item) != 3 or item[2] not in ("u", "d"):
        raise InputError(f'{what} must be [a, b, "u"|"d"]: {item!r}')
    ref = EdgeRef(item[2], doc.id_of(item[0]), doc.id_of(item[1]))
    if (ref.a, ref.b, ref.kind) not in doc.graph.arc_weights:
        raise InputError(f"{what} references a missing edge: {item!r}")
    return ref


def _resolve_arc_kind(g: Graph, tail: int, head: int, kind: str | None, what: str) -> str:
    """The kind of arc tail->head: the given one if it exists, else the only one."""
    kinds = [k for k in ("u", "d") if (tail, head, k) in g.arc_weights]
    if kind is not None:
        if kind not in kinds:
            raise InputError(f"{what}: no arc {tail}->{head} of kind {kind!r}")
        return kind
    if len(kinds) != 1:
        raise InputError(f"{what}: arc {tail}->{head} is ambiguous or missing; give a kind")
    return kinds[0]


def _parse_weight_overrides(items, doc: GraphDocument, what: str):
    out = []
    for item in _as_list(items, f"{what} table"):
        if not isinstance(item, list) or len(item) not in (3, 4):
            raise InputError(f"{what} entry needs [from,to,w] or [from,to,w,kind]: {item!r}")
        tail, head = doc.id_of(item[0]), doc.id_of(item[1])
        kind = item[3] if len(item) == 4 else None
        kind = _resolve_arc_kind(doc.graph, tail, head, kind, what)
        out.append((tail, head, kind, _number(item[2], what)))
    return tuple(out)


@dataclass(frozen=True)
class SpecDocument:
    spec: ProblemSpec
    graph_doc: GraphDocument


def parse_spec(obj: Mapping) -> SpecDocument:
    _check_keys(
        obj,
        {"graph"},
        {
            "start",
            "stop",
            "required",
            "turn_penalties",
            "service",
            "hierarchy",
            "postmen",
            "forbid_edge_collisions",
            "i_max",
        },
        "spec",
    )
    doc = parse_graph(obj["graph"])

    start = doc.id_of(obj["start"]) if obj.get("start") is not None else None
    stop = doc.id_of(obj["stop"]) if obj.get("stop") is not None else None

    required = None
    req_obj = obj.get("required", "all")
    if req_obj != "all":
        if not isinstance(req_obj, list):
            raise InputError('spec.required must be "all" or a list of edge refs')
        required = frozenset(_parse_edge_ref(item, doc, "required edge") for item in req_obj)

    turns, arcs = [], {key[:2] for key in doc.graph.arc_weights}
    for item in _as_list(obj.get("turn_penalties", []), "spec.turn_penalties"):
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not isinstance(item[0], list)
            or not isinstance(item[1], list)
            or len(item[0]) != 2
            or len(item[1]) != 2
        ):
            raise InputError(f"turn entry needs [[j,k],[k,r],bonus]: {item!r}")
        j, k = doc.id_of(item[0][0]), doc.id_of(item[0][1])
        k2, r = doc.id_of(item[1][0]), doc.id_of(item[1][1])
        if k2 != k:
            raise InputError(f"turn entry: edge-out must start where edge-in ends: {item!r}")
        if not {(j, k), (k, r)} <= arcs:
            raise InputError(f"turn tuple references missing arcs: {item!r}")
        turns.append((j, k, r, _number(item[2], "turn bonus")))

    service = None
    svc_obj = obj.get("service")
    if svc_obj is True:
        service = ServiceMode()
    elif isinstance(svc_obj, Mapping):
        _check_keys(svc_obj, set(), {"service_weights", "traverse_weights"}, "spec.service")
        service = ServiceMode(
            service_overrides=_parse_weight_overrides(
                svc_obj.get("service_weights", []), doc, "service weight"
            ),
            traverse_overrides=_parse_weight_overrides(
                svc_obj.get("traverse_weights", []), doc, "traverse weight"
            ),
        )
    elif svc_obj not in (None, False):
        raise InputError("spec.service must be true, false, null, or an object")

    hierarchy = []
    for item in _as_list(obj.get("hierarchy", []), "spec.hierarchy"):
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f"hierarchy entry needs [first_edge, second_edge]: {item!r}")
        hierarchy.append(
            (
                _parse_edge_ref(item[0], doc, "hierarchy edge"),
                _parse_edge_ref(item[1], doc, "hierarchy edge"),
            )
        )

    pm_obj = obj.get("postmen")
    weights = None
    if pm_obj is not None:
        _check_keys(pm_obj, {"count"}, {"capacities", "weights"}, "spec.postmen")
        if pm_obj.get("weights") is not None:
            weights = tuple(
                _parse_weight_overrides(table, doc, "postman weight")
                for table in _as_list(pm_obj["weights"], "spec.postmen.weights")
            )
        count = _integer(pm_obj["count"], "spec.postmen.count")
        capacities = pm_obj.get("capacities")
        if capacities is not None:
            capacities = tuple(
                _number(c, "capacity") for c in _as_list(capacities, "spec.postmen.capacities")
            )

    i_max = _integer(obj["i_max"], "spec.i_max") if obj.get("i_max") is not None else None
    collisions = obj.get("forbid_edge_collisions", False)
    if not isinstance(collisions, bool):
        raise InputError(f"spec.forbid_edge_collisions must be true or false: {collisions!r}")
    try:  # the spec checks the values, so a bad one is an input error
        postmen = Postmen() if pm_obj is None else Postmen(count, capacities, weights)
        spec = ProblemSpec(
            graph=doc.graph,
            start=start,
            stop=stop,
            required_edges=required,
            turn_penalties=tuple(TurnPenalty(j, k, r, b) for j, k, r, b in turns),
            service=service,
            hierarchy=tuple(hierarchy),
            postmen=postmen,
            forbid_edge_collisions=collisions,
            i_max=i_max,
        )
    except Exception as exc:
        raise InputError(f"invalid spec: {exc}") from exc
    return SpecDocument(spec, doc)


def load_instance(path) -> GraphDocument | SpecDocument:
    """Load a graph or a spec JSON file, detected by its top-level keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "graph" in obj:
        return parse_spec(obj)
    doc = parse_graph(obj)
    if not doc.graph.edge_count:  # a graph file asks for a closed walk over its edges
        raise InputError("the graph has no edges to walk")
    return doc


# --- route files -------------------------------------------------------------

def route_to_json(
    solution: RouteSolution,
    doc: GraphDocument,
    pipeline: str,
    solver: str,
    seed: int,
    energy: float | None,
    retunes: int = 0,
) -> dict:
    return {
        "pipeline": pipeline,
        "solver": solver,
        "seed": seed,
        "energy": energy,
        "retunes": retunes,
        "weight": solution.objective_weight,
        "turn_extra": solution.turn_extra,
        "valid": solution.is_valid,
        "validity": solution.validity.as_dict(),
        "walks": [
            [
                {"from": doc.label_of(s.frm), "to": doc.label_of(s.to), "mode": s.mode,
                 "kind": s.kind}
                for s in walk.steps
            ]
            for walk in solution.walks
        ],
    }


def route_from_json(obj: Mapping, doc: GraphDocument) -> RouteSolution:
    _check_keys(
        obj,
        {"pipeline", "walks", "weight", "valid"},
        {"solver", "seed", "energy", "retunes", "turn_extra", "validity"},
        "route",
    )
    walks = []
    for walk_obj in _as_list(obj["walks"], "route.walks"):
        steps = []
        for step in _as_list(walk_obj, "route walk"):
            _check_keys(step, {"from", "to"}, {"mode", "kind"}, "route step")
            frm, to = doc.id_of(step["from"]), doc.id_of(step["to"])
            kind = _resolve_arc_kind(doc.graph, frm, to, step.get("kind"), "route step")
            mode = step.get("mode", MODE_PLAIN)
            if mode not in (MODE_PLAIN, MODE_SERVICE, MODE_TRAVERSE):
                raise InputError(f"route step: unknown mode {mode!r}")
            steps.append(WalkStep(frm, to, mode, kind))
        walks.append(RouteWalk(tuple(steps), 0.0))
    flags = obj.get("validity", {})
    _check_keys(flags, set(), {f.name for f in fields(ValidityReport)}, "route.validity")
    for name, flag in flags.items():
        if not isinstance(flag, bool):
            raise InputError(f"route.validity.{name} must be true or false: {flag!r}")
    return RouteSolution(
        walks=tuple(walks),
        objective_weight=_number(obj["weight"], "route.weight"),
        validity=ValidityReport(**flags),
        turn_extra=_number(obj.get("turn_extra", 0.0), "route.turn_extra"),
    )


def dump_json(obj: dict, path) -> None:
    """Write `obj` as indented, key-sorted JSON plus a newline, in one write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")


# --- walk-level revalidation (no bits involved) --------------------------------

def revalidate_route(
    instance: GraphDocument | SpecDocument, solution: RouteSolution
) -> list[str]:
    """Re-check a decoded route directly at the walk level; [] means valid.

    The route rules, the walk weights and the turn bonus come from
    `ProblemSpec.check_walks`, the checker `decode` uses.  A graph file is
    checked as the spec with every edge required, plus a non-empty closed
    walk.
    """
    problems: list[str] = []
    closed = isinstance(instance, GraphDocument)
    spec = ProblemSpec(graph=instance.graph) if closed else instance.spec
    if len(solution.walks) != spec.postmen.count:
        return [f"expected {spec.postmen.count} walks, found {len(solution.walks)}"]
    if closed:
        if not solution.walks[0].steps:
            return ["empty walk"]
        if not solution.walks[0].closed:
            problems.append("walk is not closed")

    walks = []
    unresolved = False
    for p, walk in enumerate(solution.walks):
        steps = []
        for s in walk.steps:
            try:
                kind = _resolve_arc_kind(spec.graph, s.frm, s.to, s.kind, "")
            except InputError:
                problems.append(f"walk {p} step {s.frm}->{s.to} is not a graph arc")
                unresolved = True
                continue
            if s.mode not in spec.modes:
                problems.append(f"walk {p} step {s.frm}->{s.to} has mode {s.mode!r}")
            steps.append(WalkStep(s.frm, s.to, s.mode, kind))
        walks.append(steps)
    if unresolved:
        return problems  # the route rules need every step on a graph arc
    found, weights, turn_extra = spec.check_walks(walks)
    problems.extend(message for _, message in found)
    total = sum(weights, 0.0)
    # `not <=` so that a stated NaN, which JSON readers accept, fails too
    if not abs(total - solution.objective_weight) <= 1e-9:
        problems.append(f"stated weight {solution.objective_weight} != recomputed {total}")
    if not abs(turn_extra - solution.turn_extra) <= 1e-9:
        problems.append(f"stated turn_extra {solution.turn_extra} != recomputed {turn_extra}")
    return problems


# --- DOT rendering -------------------------------------------------------------

def render_dot(doc: GraphDocument, solution: RouteSolution | None = None) -> str:
    """Graph in DOT form; route steps overlaid in red with their order."""
    g = doc.graph
    lines = ["digraph route {", "  rankdir=LR;"]
    for vid in sorted(g.vertices):
        label = str(doc.label_of(vid)).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  v{vid} [label="{label}"];')
    for e in g.undirected:
        lines.append(
            f'  v{e.a} -> v{e.b} [dir=none, color=gray, label="{e.w_ab:g}"'
            + (f' , headlabel="{e.w_ba:g}"' if e.w_ba != e.w_ab else "")
            + "];"
        )
    for d in g.directed:
        lines.append(f'  v{d.tail} -> v{d.head} [color=gray, label="{d.w:g}"];')
    if solution is not None:
        palette = ["red", "blue", "darkgreen", "orange", "purple"]
        for p, walk in enumerate(solution.walks):
            color = palette[p % len(palette)]
            for i, s in enumerate(walk.steps):
                style = "dashed" if s.mode == "traverse" else "solid"
                lines.append(
                    f'  v{s.frm} -> v{s.to} [color={color}, style={style}, '
                    f'label="{i}", fontcolor={color}, constraint=false];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
