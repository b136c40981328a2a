"""Problem configuration for the general time-indexed compiler.

A ProblemSpec selects the variant mix: endpoints, required-edge subset,
turn bonuses, service/traversal split, service ordering, postman count with
capacities, and the step budget.

Every per-step weight comes from one rule, `ProblemSpec.weight(postman, arc,
mode)`: a service step costs the service override, a traverse step the
traverse override, a plain step the postman's override, and any arc without
an override costs its graph weight.  `ProblemSpec.modes` is the matching mode
rule: service and traverse in service mode, plain otherwise.

The route rules live in one place, `ProblemSpec.check_walks`: the route
validator calls it, and every route is built by its wrapper `ProblemSpec.route`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import SpecError, UnsupportedCombination
from .graphs import EdgeRef, Graph, reach
from .qubo import MODE_PLAIN, MODE_SERVICE, MODE_TRAVERSE
from .routes import RouteSolution, RouteWalk, ValidityReport, WalkStep

ArcKey = tuple[int, int, str]  # (tail, head, kind)


@dataclass(frozen=True)
class TurnPenalty:
    """Bonus weight added whenever arc (j,k) is immediately followed by (k,r)."""

    in_tail: int
    in_head: int
    out_head: int
    bonus: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.bonus) or self.bonus < 0:
            raise SpecError(f"turn bonuses must be finite and non-negative, got {self.bonus}")

    @property
    def arc_in(self) -> tuple[int, int]:
        return (self.in_tail, self.in_head)

    @property
    def arc_out(self) -> tuple[int, int]:
        return (self.in_head, self.out_head)


@dataclass(frozen=True)
class ServiceMode:
    """Service/traversal split: every arc doubles into a servicing variant
    (required edges must be serviced exactly once) and a plain traversal.

    Weights default to the graph's arc weights; overrides are (tail, head,
    kind, weight) tuples.
    """

    service_overrides: tuple[tuple[int, int, str, float], ...] = ()
    traverse_overrides: tuple[tuple[int, int, str, float], ...] = ()


@dataclass(frozen=True)
class Postmen:
    """Postman count with optional per-postman capacities and arc weights."""

    count: int = 1
    capacities: tuple[float, ...] | None = None
    weights: tuple[tuple[tuple[int, int, str, float], ...], ...] | None = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise SpecError("postman count must be >= 1")
        if self.capacities is not None and len(self.capacities) != self.count:
            raise SpecError("need one capacity per postman")
        if self.weights is not None and len(self.weights) != self.count:
            raise SpecError("need one weight table per postman")


def _is_integral(value: float) -> bool:
    return math.isfinite(value) and float(value) == int(value)


@dataclass(frozen=True)
class ProblemSpec:
    """One postman-problem instance for the general compiler.

    required_edges=None means every edge is required (the proper-subset case
    is the rural variant).  i_max=None defaults to twice the edge count.  That
    budget holds an optimal walk on undirected graphs, where it uses each edge
    at most twice (Edmonds & Johnson 1973), but not always with directed arcs:
    a covering walk may have to repeat a directed return path more often.

    `hierarchy` pairs (first, second) say that `first` is serviced before
    `second`.  Their transitive closure is built once, with one `reach`
    search from each pair's second edge, and kept sorted; a cycle in it is a
    SpecError.
    """

    graph: Graph
    start: int | None = None
    stop: int | None = None
    required_edges: frozenset[EdgeRef] | None = None
    turn_penalties: tuple[TurnPenalty, ...] = ()
    service: ServiceMode | None = None
    hierarchy: tuple[tuple[EdgeRef, EdgeRef], ...] = ()
    postmen: Postmen = field(default_factory=Postmen)
    forbid_edge_collisions: bool = False
    i_max: int | None = None

    def __post_init__(self) -> None:
        g = self.graph
        if self.start is not None and self.start not in g.vertices:
            raise SpecError(f"start vertex {self.start} not in graph")
        if self.stop is not None and self.stop not in g.vertices:
            raise SpecError(f"stop vertex {self.stop} not in graph")

        if self.required_edges is not None:
            extra = set(self.required_edges) - set(g.edge_refs())
            if extra:
                raise SpecError(f"required edges not in graph: {sorted(map(str, extra))}")
        required = self.required_edges if self.required_edges is not None else g.edge_refs()
        object.__setattr__(self, "_required", tuple(sorted(required)))

        if self.i_max is not None and self.i_max < 1:
            raise SpecError("i_max must be a positive integer")

        arc_keys = {(a.tail, a.head) for a in g.arcs()}
        for t in self.turn_penalties:
            if t.arc_in not in arc_keys or t.arc_out not in arc_keys:
                raise SpecError(f"turn tuple references missing arcs: {t}")

        required = set(self._required)
        for first, second in self.hierarchy:
            if first not in required or second not in required:
                raise SpecError("hierarchy pairs must reference required edges")
            if first == second:
                raise SpecError("hierarchy pair relates an edge to itself")
        if self.hierarchy and self.service is None:
            raise SpecError("hierarchy ordering requires service mode")
        # every edge the search from a pair's second edge reaches follows its
        # first; the closure must stay acyclic (a partial order)
        closure = sorted({(a, c) for a, b in self.hierarchy for c in reach(self.hierarchy, [b])})
        object.__setattr__(self, "_precedence", tuple(closure))
        for a, c in closure:
            if a == c:
                raise SpecError(f"hierarchy relation is cyclic through {a}")

        if self.service is not None and self.postmen.count > 1:
            raise UnsupportedCombination(
                "service/traversal mode with multiple postmen is not modeled"
            )
        if self.uses_rest_encoding and self.stop is not None:
            raise UnsupportedCombination(
                "rest-based formulations end walks freely; stop vertex unsupported"
            )
        if self.uses_rest_encoding and self.service is not None:
            raise UnsupportedCombination(
                "rest-based formulations do not combine with service mode"
            )

        # override tables, built once: service, traverse, one per postman
        svc = self.service or ServiceMode()
        service = _override_table(svc.service_overrides, g, "service/traverse")
        traverse = _override_table(svc.traverse_overrides, g, "service/traverse")
        per_postman = self.postmen.weights or ((),) * self.postmen.count
        postman = tuple(_override_table(items, g, "postman") for items in per_postman)
        object.__setattr__(self, "_service_weights", service)
        object.__setattr__(self, "_traverse_weights", traverse)
        object.__setattr__(self, "_postman_weights", postman)
        # for check_walks: the required edge each arc traverses, and the order pairs
        required_arcs: dict[ArcKey, EdgeRef] = {}
        for ref in required:
            required_arcs[(ref.a, ref.b, ref.kind)] = ref
            if ref.kind == "u":
                required_arcs[(ref.b, ref.a, ref.kind)] = ref
        object.__setattr__(self, "_required_arcs", required_arcs)

        if self.postmen.capacities is not None:
            for c in self.postmen.capacities:
                if not _is_integral(c) or c < 1:
                    raise SpecError("capacities must be positive integers")
            for a in range(self.postmen.count):
                for key in g.arc_weights:
                    if not _is_integral(self.weight(a, key, MODE_PLAIN)):
                        raise SpecError("capacitated problems need integer arc weights")

    # -- derived views ----------------------------------------------------

    def resolved_required(self) -> tuple[EdgeRef, ...]:
        """The required edges in sorted order, every edge when none are named."""
        return self._required

    @property
    def effective_i_max(self) -> int:
        return self.i_max if self.i_max is not None else 2 * self.graph.edge_count

    @property
    def uses_rest_encoding(self) -> bool:
        return (
            self.postmen.count > 1
            or self.postmen.capacities is not None
            or self.forbid_edge_collisions
        )

    def hierarchy_closure(self) -> tuple[tuple[EdgeRef, EdgeRef], ...]:
        """Transitive closure of the must-precede pairs, sorted, computed once."""
        return self._precedence

    @property
    def modes(self) -> tuple[str, ...]:
        """Step modes an arc can be used in: service/traverse, or plain."""
        return (MODE_SERVICE, MODE_TRAVERSE) if self.service is not None else (MODE_PLAIN,)

    def weight(self, postman: int, arc: ArcKey, mode: str) -> float:
        """Cost of one step over `arc` in `mode` by `postman`."""
        if mode == MODE_SERVICE:
            table = self._service_weights
        elif mode == MODE_TRAVERSE:
            table = self._traverse_weights
        else:
            table = self._postman_weights[postman]
        w = table.get(arc)
        if w is None:
            try:
                w = self.graph.arc_weights[arc]
            except KeyError:
                raise SpecError(f"no arc {arc[0]}->{arc[1]} of kind {arc[2]}") from None
        return w

    def check_walks(
        self, walks: Sequence[Sequence[WalkStep]]
    ) -> tuple[list[tuple[str, str]], list[float], float]:
        """The route rules, checked on one walk per postman.

        Every step names a graph arc by (frm, to, kind) and carries its mode.
        Returns the problems as (ValidityReport field, message) pairs, the
        weight of each walk and the total turn bonus; the walks are valid
        exactly when there are no problems.
        """
        problems: list[tuple[str, str]] = []
        weights: list[float] = []
        turn_extra = 0.0
        serviced: dict[EdgeRef, list[int]] = {}
        visited: set[EdgeRef] = set()
        for p, walk in enumerate(walks):
            for a, b in zip(walk, walk[1:]):
                if a.to != b.frm:
                    problems.append(("contiguous", f"walk {p} jumps from {a.to} to {b.frm}"))
                for t in self.turn_penalties:
                    if (a.frm, a.to) == t.arc_in and (b.frm, b.to) == t.arc_out:
                        turn_extra += t.bonus
            if self.start is not None and walk and walk[0].frm != self.start:
                problems.append(
                    ("endpoints_ok", f"walk {p} starts at {walk[0].frm}, not {self.start}")
                )
            if self.stop is not None and walk and walk[-1].to != self.stop:
                problems.append(
                    ("endpoints_ok", f"walk {p} ends at {walk[-1].to}, not {self.stop}")
                )
            for i, s in enumerate(walk):
                ref = self._required_arcs.get((s.frm, s.to, s.kind))
                if ref is None:
                    continue
                if s.mode == MODE_SERVICE:
                    serviced.setdefault(ref, []).append(i)
                visited.add(ref)
            used = sum((self.weight(p, (s.frm, s.to, s.kind), s.mode) for s in walk), 0.0)
            weights.append(used)
            caps = self.postmen.capacities
            if caps is not None and used > caps[p]:
                problems.append(
                    ("capacity_ok", f"walk {p} weight {used} exceeds capacity {caps[p]}")
                )
        for ref in self.resolved_required():
            if self.service is not None:
                if len(serviced.get(ref, [])) != 1:
                    problems.append(("required_covered", f"required edge {ref} serviced != once"))
            elif ref not in visited:
                problems.append(("required_covered", f"required edge {ref} never traversed"))
        for first, second in self._precedence:
            f_steps = serviced.get(first, [])
            s_steps = serviced.get(second, [])
            if f_steps and s_steps and min(s_steps) < max(f_steps):
                problems.append(("hierarchy_ok", f"{second} serviced before {first}"))
        if self.forbid_edge_collisions:
            for i in range(max((len(w) for w in walks), default=0)):
                seen: dict[tuple[int, int], int] = {}
                for p, walk in enumerate(walks):
                    if i < len(walk):
                        key = (walk[i].frm, walk[i].to)
                        if key in seen:
                            problems.append(
                                ("collisions_ok",
                                 f"postmen {seen[key]} and {p} collide on {key} at step {i}")
                            )
                        seen[key] = p
        return problems, weights, turn_extra

    def route(self, walks: Sequence[Sequence[WalkStep]], **flags: bool) -> RouteSolution:
        """The walks as a route, its weights, turn bonus and validity from `check_walks`.

        `flags` are ValidityReport fields the caller knows from elsewhere (the
        decoder's bit-level forms); a field is valid when its flag holds and
        `check_walks` finds no problem of its kind.  A total weight or turn
        bonus that is not finite raises SpecError.
        """
        problems, weights, turn_extra = self.check_walks(walks)
        objective = sum(weights, 0.0)
        if not (math.isfinite(objective) and math.isfinite(turn_extra)):
            raise SpecError(f"route weight {objective} or turn bonus {turn_extra} is not finite")
        for name, _ in problems:
            flags[name] = False
        return RouteSolution(
            walks=tuple(RouteWalk(tuple(w), weight) for w, weight in zip(walks, weights)),
            objective_weight=objective,
            validity=ValidityReport(**flags),
            turn_extra=turn_extra,
        )


def _override_table(
    items: tuple[tuple[int, int, str, float], ...], g: Graph, what: str
) -> dict[ArcKey, float]:
    table: dict[ArcKey, float] = {}
    for t, h, k, w in items:
        if (t, h, k) not in g.arc_weights:
            raise SpecError(f"weight override references missing arc {(t, h, k)}")
        w = float(w)
        if not math.isfinite(w) or w < 0:
            raise SpecError(f"{what} weights must be finite and non-negative, got {w}")
        table[(t, h, k)] = w
    return table
