"""Time-indexed QUBO compiler for the general postman variants.

Each binary variable is "traverse arc (j,k) at step i" (per postman, with a
service/traverse split when service mode is on).  Two over-estimation
encodings are supported for a single postman:

* repetition -- an arc variable may repeat at consecutive steps to pad the
  walk out to the preset step budget; the objective discounts repeats;
* terminal -- a synthetic absorbing vertex marks the end of the walk; no
  repetition, objective is a plain sum.

Multiple postmen (or capacities / collision bans) use per-postman rest
variables: the rest bit plays the terminal role for that postman's walk.

`compile_general` sizes both single-postman encodings (arcs, step pruning,
registry) and builds the constraint forms only for the smaller one.  Every
objective, capacity and decode weight comes from the spec's one weight rule,
`ProblemSpec.weight`; terminal arcs cost nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import InfeasibleEndpoints, SpecError
from .graphs import EdgeRef
from .problem import ProblemSpec
from .qubo import (
    MODE_PLAIN,
    MODE_SERVICE,
    MODE_TRAVERSE,
    CapacitySlack,
    CompiledProblem,
    EdgeStep,
    PenaltyConfig,
    Qubo,
    RequiredSlack,
    RestVar,
    VariableRegistry,
)
from .routes import RouteSolution, RouteWalk, ValidityReport, WalkStep

TERMINAL = -1
KIND_TERMINAL = "t"

ENC_REPETITION = "repetition"
ENC_TERMINAL = "terminal"
ENC_REST = "rest"

# constraint families that decide validity; turn bonuses are objective-like
VALIDITY_FAMILIES = ("one_edge", "adjacency", "required", "hierarchy", "collision", "capacity")


@dataclass(frozen=True)
class CompArc:
    index: int
    tail: int
    head: int
    kind: str
    ref: EdgeRef | None

    @property
    def is_terminal(self) -> bool:
        return self.kind == KIND_TERMINAL


def _slack_bit_count(limit: int) -> int:
    """Bits 2^0 .. 2^ceil(log2(limit)), exact integer arithmetic."""
    return (max(limit, 1) - 1).bit_length() + 1


def _build_arcs(spec: ProblemSpec, with_terminal: bool) -> list[CompArc]:
    arcs: list[CompArc] = []
    for a in spec.graph.arcs():
        arcs.append(CompArc(len(arcs), a.tail, a.head, a.ref.kind, a.ref))
    if with_terminal:
        ends = [spec.stop] if spec.stop is not None else sorted(spec.graph.vertices)
        for v in ends:
            arcs.append(CompArc(len(arcs), v, TERMINAL, KIND_TERMINAL, None))
        arcs.append(CompArc(len(arcs), TERMINAL, TERMINAL, KIND_TERMINAL, None))
    return arcs


def _prune_steps(
    spec: ProblemSpec,
    arcs: list[CompArc],
    i_max: int,
    repetition: bool,
    terminal_gate: int | None,
) -> list[frozenset[int]]:
    """allowed[i] = arcs usable at step i given start/stop reachability."""

    def mask(i: int, arc: CompArc) -> bool:
        if arc.is_terminal:
            if terminal_gate is None:
                return False
            if i < terminal_gate:
                return False
            if i == 0 and arc.tail == TERMINAL:
                return False
        return True

    start, stop = spec.start, spec.stop
    fwd: list[set[int]] = []
    prev: set[int] = {
        a.index for a in arcs if mask(0, a) and (start is None or a.tail == start)
    }
    fwd.append(prev)
    for i in range(1, i_max):
        heads = {arcs[j].head for j in prev}
        cur = {
            a.index
            for a in arcs
            if mask(i, a) and (a.tail in heads or (repetition and a.index in prev))
        }
        fwd.append(cur)
        prev = cur

    bwd: list[set[int]] = [set()] * i_max
    if stop is None:
        nxt = {a.index for a in arcs if mask(i_max - 1, a)}
    else:
        nxt = {
            a.index
            for a in arcs
            if mask(i_max - 1, a) and a.head in (stop, TERMINAL)
        }
    bwd[i_max - 1] = nxt
    for i in range(i_max - 2, -1, -1):
        tails = {arcs[j].tail for j in nxt}
        cur = {
            a.index
            for a in arcs
            if mask(i, a) and (a.head in tails or (repetition and a.index in nxt))
        }
        bwd[i] = cur
        nxt = cur

    allowed: list[frozenset[int]] = []
    for i in range(i_max):
        step_set = frozenset(fwd[i] & bwd[i])
        if not step_set:
            raise InfeasibleEndpoints(
                f"no arc can appear at step {i} given start={start}, stop={stop}"
            )
        allowed.append(step_set)
    return allowed


class CompiledGeneral(CompiledProblem):
    """Spec compiled to a registry, objective and per-family constraints.

    Construction lays out arcs, step pruning, the registry and its step
    table; `compile_general` then builds the forms for the encoding it
    returns.
    """

    def __init__(self, spec: ProblemSpec, encoding: str):
        if encoding not in (ENC_REPETITION, ENC_TERMINAL, ENC_REST):
            raise SpecError(f"unknown encoding {encoding!r}")
        if spec.uses_rest_encoding and encoding != ENC_REST:
            raise SpecError("this spec requires the rest encoding")
        if not spec.uses_rest_encoding and encoding == ENC_REST:
            raise SpecError("rest encoding is only for capacitated/multi-postman specs")
        self.spec = spec
        self.encoding = encoding
        self.i_max = spec.effective_i_max
        self.postmen = spec.postmen.count
        self.required: tuple[EdgeRef, ...] = spec.resolved_required()
        self.service_mode = spec.service is not None
        # modes in which an arc may repeat at the next step to pad the walk
        self._repeat_modes = (MODE_PLAIN, MODE_TRAVERSE) if encoding == ENC_REPETITION else ()

        with_terminal = encoding == ENC_TERMINAL
        self.arcs = _build_arcs(spec, with_terminal)
        self._arc_lookup = {(a.tail, a.head, a.kind): a.index for a in self.arcs}
        gate = len(self.required) if with_terminal else None
        self.allowed = _prune_steps(
            spec, self.arcs, self.i_max, encoding == ENC_REPETITION, gate
        )

        self._hierarchy = spec.hierarchy_closure()
        self._build_registry()

    # ---- variables -------------------------------------------------------

    def _arc_modes(self, arc: CompArc) -> tuple[str, ...]:
        # a terminal arc is padding, never service
        return self.spec.modes[-1:] if arc.is_terminal else self.spec.modes

    def _build_registry(self) -> None:
        """Lay out the variables once, as tables of registry indices.

        `_steps[p][i]` holds (index, arc, mode) for postman p's edge variables
        at step i, in arc then mode order; `_rest[p][i]` the rest bits (none
        outside the rest encoding); `_req_slack[(ref, p)]` and `_cap_slack[p]`
        the (bit, index) slack registers; `_covers[ref]` the (postman, step,
        index) variables that count as covering a required edge.
        """
        postmen, steps = range(self.postmen), range(self.i_max)
        edge_labels = [
            [
                [
                    (EdgeStep(i, arc.tail, arc.head, mode, p, arc.kind), arc, mode)
                    for arc in (self.arcs[ai] for ai in sorted(self.allowed[i]))
                    for mode in self._arc_modes(arc)
                ]
                for i in steps
            ]
            for p in postmen
        ]
        rest_labels = [
            [RestVar(i, p) for i in steps] if self.encoding == ENC_REST else [] for p in postmen
        ]
        nbits = 0 if self.service_mode else _slack_bit_count(self.i_max)
        req_labels = {
            (ref, p): [RequiredSlack(bit, ref.a, ref.b, p, ref.kind) for bit in range(nbits)]
            for ref in self.required
            for p in postmen
        }
        cap_labels = [
            [CapacitySlack(bit, p) for bit in range(_slack_bit_count(int(cap)))]
            for p, cap in enumerate(self.spec.postmen.capacities or ())
        ]
        self.registry = VariableRegistry(
            [lab for per_p in edge_labels for step in per_p for lab, _, _ in step]
            + [lab for labs in rest_labels for lab in labs]
            + [lab for labs in req_labels.values() for lab in labs]
            + [lab for labs in cap_labels for lab in labs]
        )

        index = self.registry.index_of
        self._steps = [
            [[(index(lab), arc, mode) for lab, arc, mode in step] for step in per_p]
            for per_p in edge_labels
        ]
        self._rest = [[index(lab) for lab in labs] for labs in rest_labels]
        self._req_slack = {
            key: [(lab.bit, index(lab)) for lab in labs] for key, labs in req_labels.items()
        }
        self._cap_slack = [[(lab.bit, index(lab)) for lab in labs] for labs in cap_labels]
        self._edge_var: dict[tuple[int, int, int, str], int] = {}
        self._covers: dict[EdgeRef, list[tuple[int, int, int]]] = {
            ref: [] for ref in self.required
        }
        for p, per_p in enumerate(self._steps):
            for i, step in enumerate(per_p):
                for idx, arc, mode in step:
                    self._edge_var[(p, i, arc.index, mode)] = idx
                    # in service mode only a service step covers its edge
                    if arc.ref in self._covers and (
                        not self.service_mode or mode == MODE_SERVICE
                    ):
                        self._covers[arc.ref].append((p, i, idx))

    def _find_arc(self, tail: int, head: int, kind: str) -> int:
        try:
            return self._arc_lookup[(tail, head, kind)]
        except KeyError:
            raise SpecError(f"no arc {tail}->{head} kind {kind}") from None

    # ---- weights ----------------------------------------------------------

    def _weight(self, postman: int, arc: CompArc, mode: str) -> float:
        if arc.is_terminal:
            return 0.0
        return self.spec.weight(postman, (arc.tail, arc.head, arc.kind), mode)

    # ---- QUBO assembly ----------------------------------------------------

    def _build_forms(self) -> None:
        n = len(self.registry)
        spec = self.spec
        objective = Qubo(n)
        one_edge = Qubo(n)
        adjacency = Qubo(n)
        required_c = Qubo(n)
        constraints: dict[str, Qubo] = {
            "one_edge": one_edge,
            "adjacency": adjacency,
            "required": required_c,
        }

        for p, steps in enumerate(self._steps):
            rest = self._rest[p]
            # exactly one move (or rest) per step
            for i, step in enumerate(steps):
                terms = [(idx, -1.0) for idx, _, _ in step]
                if rest:
                    terms.append((rest[i], -1.0))
                one_edge.add_square_penalty(terms, constant=1.0)

            # no jumping between consecutive steps: a move starts where the
            # last one ended, or repeats it in a repeat mode
            for i, (cur, nxt) in enumerate(zip(steps, steps[1:])):
                for idx_a, arc_a, mode_a in cur:
                    for idx_b, arc_b, mode_b in nxt:
                        if arc_b.tail != arc_a.head and not (
                            arc_b.index == arc_a.index
                            and mode_b == mode_a
                            and mode_a in self._repeat_modes
                        ):
                            adjacency.add_quadratic(idx_a, idx_b, 1.0)
                if rest:
                    # rest is absorbing: resuming movement afterwards is illegal
                    for idx_b, _, _ in nxt:
                        adjacency.add_quadratic(rest[i], idx_b, 1.0)

            # objective: traversal weights, with the repeat discount only in
            # the repetition encoding (service steps are never discounted)
            for i, step in enumerate(steps):
                for idx, arc, mode in step:
                    w = self._weight(p, arc, mode)
                    if w == 0.0:
                        continue
                    objective.add_linear(idx, w)
                    if i > 0 and mode in self._repeat_modes:
                        prev = self._edge_var.get((p, i - 1, arc.index, mode))
                        if prev is not None:
                            objective.add_quadratic(idx, prev, -w)

        # coverage of required edges: one service, or visits less the slack
        for ref in self.required:
            terms = [(idx, -1.0) for _, _, idx in self._covers[ref]]
            for p in range(self.postmen):
                terms.extend((idx, float(2**bit)) for bit, idx in self._req_slack[(ref, p)])
            required_c.add_square_penalty(terms, constant=1.0)

        if spec.turn_penalties:
            turn = Qubo(n)
            for steps in self._steps:
                for cur, nxt in zip(steps, steps[1:]):
                    for t in spec.turn_penalties:
                        for idx_a, arc_a, _ in cur:
                            if (arc_a.tail, arc_a.head) != t.arc_in:
                                continue
                            for idx_b, arc_b, _ in nxt:
                                if (arc_b.tail, arc_b.head) == t.arc_out:
                                    turn.add_quadratic(idx_a, idx_b, t.bonus)
            constraints["turn"] = turn

        if self._hierarchy:
            # a service of `second` before one of `first` by the same postman
            hier = Qubo(n)
            for first, second in sorted(self._hierarchy):
                for pa, i0, ia in self._covers[first]:
                    for pb, i1, ib in self._covers[second]:
                        if pa == pb and i1 < i0:
                            hier.add_quadratic(ia, ib, 1.0)
            constraints["hierarchy"] = hier

        if spec.forbid_edge_collisions:
            coll = Qubo(n)
            for i in range(self.i_max):
                by_key: dict[tuple[int, int], list[tuple[int, int]]] = {}
                for p, steps in enumerate(self._steps):
                    for idx, arc, _ in steps[i]:
                        by_key.setdefault((arc.tail, arc.head), []).append((p, idx))
                for entries in by_key.values():
                    for (pa, ia), (pb, ib) in itertools.combinations(entries, 2):
                        if pa != pb:
                            coll.add_quadratic(ia, ib, 1.0)
            constraints["collision"] = coll

        if spec.postmen.capacities is not None:
            cap = Qubo(n)
            for p, c in enumerate(spec.postmen.capacities):
                terms = []
                for step in self._steps[p]:
                    for idx, arc, mode in step:
                        w = self._weight(p, arc, mode)
                        if w:
                            terms.append((idx, -w))
                for bit, idx in self._cap_slack[p]:
                    terms.append((idx, -float(2**bit)))
                cap.add_square_penalty(terms, constant=float(c))
            constraints["capacity"] = cap

        self.objective = objective
        self.constraints = constraints

    # ---- decoding ---------------------------------------------------------

    def decode(self, x: Sequence[int]) -> RouteSolution:
        """Interpret a bit assignment as per-postman walks plus validity.

        One move or rest per step, legal moves between steps and required
        coverage hold exactly when their compiled forms are zero: the forms
        have small integer coefficients, so their energies are exact.  The
        capacity-slack identity is checked linearly: the capacity form's
        offset, the capacity squared, is inexact past 2^53.  The walks, with
        terminal arcs and repeats stripped, go through
        `ProblemSpec.check_walks` for the route rules, the walk weights and
        the turn bonus.
        """
        if len(x) != len(self.registry):
            raise SpecError(f"assignment length {len(x)} != {len(self.registry)}")
        spec = self.spec
        # per postman and step, the (arc, mode) moves that are set
        moves = [
            [[(arc, mode) for idx, arc, mode in step if x[idx]] for step in steps]
            for steps in self._steps
        ]
        walks = [self._walk(per_step) for per_step in moves]
        problems, weights, turn_extra = spec.check_walks(walks)
        # the rest encoding strips nothing, so a walk weight is the bits' used weight
        capacity_ok = spec.postmen.capacities is None or all(
            float(c) - used - _register_value(slots, x) == 0.0
            for c, used, slots in zip(spec.postmen.capacities, weights, self._cap_slack)
        )
        flags = {
            "one_edge_per_step": self.constraints["one_edge"].energy(x) == 0.0,
            "contiguous": self.constraints["adjacency"].energy(x) == 0.0,
            "required_covered": self.constraints["required"].energy(x) == 0.0,
            "capacity_ok": capacity_ok,
        }
        for name, _ in problems:
            flags[name] = False
        return RouteSolution(
            walks=tuple(RouteWalk(tuple(w), weight) for w, weight in zip(walks, weights)),
            objective_weight=sum(weights, 0.0),
            validity=ValidityReport(**flags),
            turn_extra=turn_extra,
        )

    def _walk(self, per_step: list[list[tuple[CompArc, str]]]) -> list[WalkStep]:
        """One postman's moves in step order, terminal arcs and repeats stripped."""
        steps: list[WalkStep] = []
        prev = None
        for i, entries in enumerate(per_step):
            for arc, mode in entries:
                if arc.is_terminal:
                    continue
                if not (mode in self._repeat_modes and prev == (i - 1, arc.index, mode)):
                    steps.append(WalkStep(arc.tail, arc.head, mode, arc.kind))
                prev = (i, arc.index, mode)
        return steps

    # ---- encoding a walk back into bits ------------------------------------

    def _resolve_step(self, step: Sequence) -> tuple[int, str]:
        """(arc index, mode) from (tail, head[, mode[, kind]])."""
        tail, head = int(step[0]), int(step[1])
        mode = str(step[2]) if len(step) > 2 and step[2] is not None else None
        kind = str(step[3]) if len(step) > 3 and step[3] is not None else None
        candidates = [
            self._arc_lookup[(tail, head, k)]
            for k in ((kind,) if kind is not None else ("u", "d"))
            if k != KIND_TERMINAL and (tail, head, k) in self._arc_lookup
        ]
        if len(candidates) != 1:
            raise SpecError(
                f"arc {tail}->{head} (kind={kind}) matches {len(candidates)} arcs"
            )
        if mode is None:
            mode = self.spec.modes[-1]
        return candidates[0], mode

    def encode_route(self, walks: Sequence[Sequence[Sequence]]) -> list[int]:
        """Bits for per-postman walks given as (tail, head[, mode[, kind]]) steps.

        Pads with edge repetition, terminal arcs, or rest bits depending on
        the encoding, and fills slack registers to match (clamped to their
        range, so deliberately violating walks stay encodable for tests).
        """
        if len(walks) != self.postmen:
            raise SpecError(f"need {self.postmen} walks, got {len(walks)}")
        x = [0] * len(self.registry)
        for p, walk in enumerate(walks):
            seq = [self._resolve_step(s) for s in walk]
            if len(seq) > self.i_max:
                raise SpecError(f"walk of {len(seq)} steps exceeds i_max={self.i_max}")
            if self.encoding == ENC_REPETITION:
                if not seq:
                    raise SpecError("repetition encoding cannot express empty walks")
                seq = seq + [seq[-1]] * (self.i_max - len(seq))
            padded_real = len(seq)
            for i, (ai, mode) in enumerate(seq):
                key = (p, i, ai, mode)
                if key not in self._edge_var:
                    raise SpecError(
                        f"step {i}: arc {self.arcs[ai].tail}->{self.arcs[ai].head} "
                        "was pruned for this spec"
                    )
                x[self._edge_var[key]] = 1
            if self.encoding == ENC_TERMINAL and padded_real < self.i_max:
                if seq:
                    end_vertex = self.arcs[seq[-1][0]].head
                elif self.spec.start is not None:
                    end_vertex = self.spec.start
                else:
                    end_vertex = min(self.spec.graph.vertices)
                enter = self._find_arc(end_vertex, TERMINAL, KIND_TERMINAL)
                loop = self._find_arc(TERMINAL, TERMINAL, KIND_TERMINAL)
                for i in range(padded_real, self.i_max):
                    ai = enter if i == padded_real else loop
                    key = (p, i, ai, self.spec.modes[-1])
                    if key not in self._edge_var:
                        raise SpecError(f"terminal arc unavailable at step {i}")
                    x[self._edge_var[key]] = 1
            for idx in self._rest[p][padded_real:]:
                x[idx] = 1
            if self.spec.postmen.capacities is not None:
                used = sum(self._weight(p, self.arcs[ai], mode) for ai, mode in seq)
                value = int(max(float(self.spec.postmen.capacities[p]) - used, 0))
                _fill_register(self._cap_slack[p], value, x)

        if not self.service_mode:
            for ref in self.required:
                visits = sum(x[idx] for _, _, idx in self._covers[ref])
                _fill_register(self._req_slack[(ref, 0)], max(visits - 1, 0), x)
        return x


def _register_value(slots: list[tuple[int, int]], x: Sequence[int]) -> int:
    """Value of a slack register: (bit, index) slots read from x."""
    return sum(2**bit for bit, idx in slots if x[idx])


def _fill_register(slots: list[tuple[int, int]], value: int, x: list[int]) -> None:
    """Set a slack register's bits in x to `value`, clamped to its range."""
    value = min(value, sum(2**bit for bit, _ in slots))
    for bit, idx in slots:
        if value & (1 << bit):
            x[idx] = 1


def compile_general(spec: ProblemSpec, encoding: str = "auto") -> CompiledGeneral:
    """Compile a spec, choosing the smaller of the two single-postman encodings
    when `encoding` is 'auto'.  Only the returned encoding builds its forms."""
    if spec.uses_rest_encoding:
        compiled = CompiledGeneral(spec, ENC_REST)
    elif encoding != "auto":
        compiled = CompiledGeneral(spec, encoding)
    else:
        candidates: list[CompiledGeneral] = []
        errors: list[Exception] = []
        for enc in (ENC_REPETITION, ENC_TERMINAL):
            try:
                candidates.append(CompiledGeneral(spec, enc))
            except InfeasibleEndpoints as exc:
                errors.append(exc)
        if not candidates:
            raise errors[0]
        compiled = min(
            candidates, key=lambda c: (len(c.registry), c.encoding != ENC_REPETITION)
        )
    compiled._build_forms()
    return compiled


def default_penalties(spec: ProblemSpec) -> PenaltyConfig:
    """Uniform multipliers at PENALTY_FACTOR times the largest arc weight in play."""
    # plain weights count in service mode too: postman overrides may be set
    weights = [
        spec.weight(p, key, mode)
        for p in range(spec.postmen.count)
        for key in spec.graph.arc_weights
        for mode in (MODE_PLAIN, *spec.modes)
    ]
    return PenaltyConfig.for_max_weight(max(weights) if weights else 1.0)
