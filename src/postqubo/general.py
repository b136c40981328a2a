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
from collections import Counter
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
    weight: float
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
        arcs.append(CompArc(len(arcs), a.tail, a.head, a.ref.kind, a.weight, a.ref))
    if with_terminal:
        ends = [spec.stop] if spec.stop is not None else sorted(spec.graph.vertices)
        for v in ends:
            arcs.append(CompArc(len(arcs), v, TERMINAL, KIND_TERMINAL, 0.0, None))
        arcs.append(CompArc(len(arcs), TERMINAL, TERMINAL, KIND_TERMINAL, 0.0, None))
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

    Construction lays out arcs, step pruning and the registry;
    `compile_general` then builds the forms for the encoding it returns.
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
        spec = self.spec
        labels: list = []
        self._edge_var: dict[tuple[int, int, int, str], int] = {}
        self._rest_var: dict[tuple[int, int], int] = {}
        self._req_slack: dict[tuple[EdgeRef, int], list[tuple[int, int]]] = {}
        self._cap_slack: dict[int, list[tuple[int, int]]] = {}

        for p in range(self.postmen):
            for i in range(self.i_max):
                for ai in sorted(self.allowed[i]):
                    arc = self.arcs[ai]
                    for mode in self._arc_modes(arc):
                        labels.append(
                            EdgeStep(i, arc.tail, arc.head, mode, p, arc.kind)
                        )
            if self.encoding == ENC_REST:
                labels.extend(RestVar(i, p) for i in range(self.i_max))

        if not self.service_mode:
            nbits = _slack_bit_count(self.i_max)
            slack_postmen = range(self.postmen) if self.encoding == ENC_REST else (0,)
            for ref in self.required:
                for p in slack_postmen:
                    for bit in range(nbits):
                        labels.append(RequiredSlack(bit, ref.a, ref.b, p, ref.kind))

        if spec.postmen.capacities is not None:
            for p, cap in enumerate(spec.postmen.capacities):
                for bit in range(_slack_bit_count(int(cap))):
                    labels.append(CapacitySlack(bit, p))

        self.registry = VariableRegistry(labels)
        for idx, lab in enumerate(self.registry.labels):
            if isinstance(lab, EdgeStep):
                arc_index = self._find_arc(lab.frm, lab.to, lab.kind)
                self._edge_var[(lab.postman, lab.step, arc_index, lab.mode)] = idx
            elif isinstance(lab, RestVar):
                self._rest_var[(lab.postman, lab.step)] = idx
            elif isinstance(lab, RequiredSlack):
                ref = EdgeRef(lab.kind, lab.frm, lab.to)
                self._req_slack.setdefault((ref, lab.postman), []).append((lab.bit, idx))
            elif isinstance(lab, CapacitySlack):
                self._cap_slack.setdefault(lab.postman, []).append((lab.bit, idx))

    def _find_arc(self, tail: int, head: int, kind: str) -> int:
        try:
            return self._arc_lookup[(tail, head, kind)]
        except KeyError:
            raise SpecError(f"no arc {tail}->{head} kind {kind}") from None

    def _step_vars(self, postman: int, step: int) -> list[tuple[int, CompArc, str]]:
        """(registry index, arc, mode) for all edge variables at one step."""
        out = []
        for ai in sorted(self.allowed[step]):
            arc = self.arcs[ai]
            for mode in self._arc_modes(arc):
                out.append((self._edge_var[(postman, step, ai, mode)], arc, mode))
        return out

    # ---- weights ----------------------------------------------------------

    def _weight(self, postman: int, arc: CompArc, mode: str) -> float:
        if arc.is_terminal:
            return 0.0
        return self.spec.weight(postman, (arc.tail, arc.head, arc.kind), mode)

    # ---- movement rule ----------------------------------------------------

    def _move_allowed(
        self,
        a_arc: CompArc | None,
        a_mode: str | None,
        b_arc: CompArc | None,
        b_mode: str | None,
    ) -> bool:
        """May variable A at step i be followed by variable B at step i+1?

        None stands for a rest variable.  Rest is absorbing: anything may
        enter rest, nothing may leave it.
        """
        if a_arc is None:
            return b_arc is None
        if b_arc is None:
            return True
        if b_arc.tail == a_arc.head:
            return True
        if self.encoding == ENC_REPETITION and a_arc.index == b_arc.index:
            if a_mode == b_mode and a_mode in (MODE_PLAIN, MODE_TRAVERSE):
                return True
        return False

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

        for p in range(self.postmen):
            # exactly one move (or rest) per step
            for i in range(self.i_max):
                terms = [(idx, -1.0) for idx, _, _ in self._step_vars(p, i)]
                if self.encoding == ENC_REST:
                    terms.append((self._rest_var[(p, i)], -1.0))
                one_edge.add_square_penalty(terms, constant=1.0)

            # no jumping between consecutive steps
            for i in range(self.i_max - 1):
                cur = self._step_vars(p, i)
                nxt = self._step_vars(p, i + 1)
                rest_cur = self._rest_var.get((p, i))
                for idx_a, arc_a, mode_a in cur:
                    for idx_b, arc_b, mode_b in nxt:
                        if not self._move_allowed(arc_a, mode_a, arc_b, mode_b):
                            adjacency.add_quadratic(idx_a, idx_b, 1.0)
                if rest_cur is not None:
                    # rest is absorbing: resuming movement afterwards is illegal
                    for idx_b, _, _ in nxt:
                        adjacency.add_quadratic(rest_cur, idx_b, 1.0)

            # objective: traversal weights, with the repeat discount only in
            # the repetition encoding (service steps are never discounted)
            for i in range(self.i_max):
                for idx, arc, mode in self._step_vars(p, i):
                    w = self._weight(p, arc, mode)
                    if w == 0.0:
                        continue
                    objective.add_linear(idx, w)
                    if (
                        self.encoding == ENC_REPETITION
                        and i > 0
                        and mode in (MODE_PLAIN, MODE_TRAVERSE)
                    ):
                        prev = self._edge_var.get((p, i - 1, arc.index, mode))
                        if prev is not None:
                            objective.add_quadratic(idx, prev, -w)

        # coverage of required edges
        for ref in self.required:
            if self.service_mode:
                terms = [
                    (idx, -1.0)
                    for p in range(self.postmen)
                    for i in range(self.i_max)
                    for idx, arc, mode in self._step_vars(p, i)
                    if mode == MODE_SERVICE and arc.ref == ref
                ]
                required_c.add_square_penalty(terms, constant=1.0)
            else:
                terms = [
                    (idx, -1.0)
                    for p in range(self.postmen)
                    for i in range(self.i_max)
                    for idx, arc, _ in self._step_vars(p, i)
                    if arc.ref == ref
                ]
                slack_postmen = range(self.postmen) if self.encoding == ENC_REST else (0,)
                for p in slack_postmen:
                    for bit, idx in self._req_slack[(ref, p)]:
                        terms.append((idx, float(2**bit)))
                required_c.add_square_penalty(terms, constant=1.0)

        if spec.turn_penalties:
            turn = Qubo(n)
            for p in range(self.postmen):
                for i in range(self.i_max - 1):
                    cur = self._step_vars(p, i)
                    nxt = self._step_vars(p, i + 1)
                    for t in spec.turn_penalties:
                        for idx_a, arc_a, _ in cur:
                            if (arc_a.tail, arc_a.head) != t.arc_in:
                                continue
                            for idx_b, arc_b, _ in nxt:
                                if (arc_b.tail, arc_b.head) == t.arc_out:
                                    turn.add_quadratic(idx_a, idx_b, t.bonus)
            constraints["turn"] = turn

        if self._hierarchy:
            hier = Qubo(n)
            for first, second in sorted(self._hierarchy):
                for p in range(self.postmen):
                    for i0 in range(self.i_max):
                        firsts = [
                            idx
                            for idx, arc, mode in self._step_vars(p, i0)
                            if mode == MODE_SERVICE and arc.ref == first
                        ]
                        if not firsts:
                            continue
                        for i1 in range(i0):
                            seconds = [
                                idx
                                for idx, arc, mode in self._step_vars(p, i1)
                                if mode == MODE_SERVICE and arc.ref == second
                            ]
                            for ia in firsts:
                                for ib in seconds:
                                    hier.add_quadratic(ia, ib, 1.0)
            constraints["hierarchy"] = hier

        if spec.forbid_edge_collisions:
            coll = Qubo(n)
            for i in range(self.i_max):
                by_key: dict[tuple[int, int], list[tuple[int, int]]] = {}
                for p in range(self.postmen):
                    for idx, arc, _ in self._step_vars(p, i):
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
                for i in range(self.i_max):
                    for idx, arc, mode in self._step_vars(p, i):
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

    def _set_entries(self, x: Sequence[int]):
        """Per postman: step -> list of (arc, mode); plus rest/slack values."""
        if len(x) != len(self.registry):
            raise SpecError(f"assignment length {len(x)} != {len(self.registry)}")
        moves: list[dict[int, list[tuple[CompArc, str]]]] = [
            {} for _ in range(self.postmen)
        ]
        rest: list[set[int]] = [set() for _ in range(self.postmen)]
        req_slack: dict[EdgeRef, int] = {ref: 0 for ref in self.required}
        cap_slack: list[int] = [0] * self.postmen
        for idx, bit in enumerate(x):
            if not bit:
                continue
            lab = self.registry.label_of(idx)
            if isinstance(lab, EdgeStep):
                arc = self.arcs[self._find_arc(lab.frm, lab.to, lab.kind)]
                moves[lab.postman].setdefault(lab.step, []).append((arc, lab.mode))
            elif isinstance(lab, RestVar):
                rest[lab.postman].add(lab.step)
            elif isinstance(lab, RequiredSlack):
                req_slack[EdgeRef(lab.kind, lab.frm, lab.to)] += 2**lab.bit
            elif isinstance(lab, CapacitySlack):
                cap_slack[lab.postman] += 2**lab.bit
        for per_step in moves:
            for lst in per_step.values():
                lst.sort(key=lambda am: (am[0].index, am[1]))
        return moves, rest, req_slack, cap_slack

    def decode(self, x: Sequence[int]) -> RouteSolution:
        """Interpret a bit assignment as per-postman walks plus validity.

        Decode checks what only the bits show: one move or rest per step,
        legal moves between steps, and the required- and capacity-slack
        identities.  The walks, with terminal arcs and repeats stripped, go
        through `ProblemSpec.check_walks` for the route rules, the walk
        weights and the turn bonus.
        """
        spec = self.spec
        moves, rest, req_slack, cap_slack = self._set_entries(x)

        one_edge_ok = True
        contiguous_ok = True
        for p in range(self.postmen):
            for i in range(self.i_max):
                count = len(moves[p].get(i, []))
                if self.encoding == ENC_REST:
                    count += 1 if i in rest[p] else 0
                if count != 1:
                    one_edge_ok = False
            for i in range(self.i_max - 1):
                cur = [(arc, mode) for arc, mode in moves[p].get(i, [])]
                nxt = [(arc, mode) for arc, mode in moves[p].get(i + 1, [])]
                cur_entries = cur + ([(None, None)] if i in rest[p] else [])
                nxt_entries = nxt + ([(None, None)] if (i + 1) in rest[p] else [])
                for arc_a, mode_a in cur_entries:
                    for arc_b, mode_b in nxt_entries:
                        if not self._move_allowed(arc_a, mode_a, arc_b, mode_b):
                            contiguous_ok = False

        walks = [self._walk(per_step) for per_step in moves]
        problems, weights, turn_extra = spec.check_walks(walks)
        # slack identities: every visit past the first, and unused capacity
        required_ok = True
        if not self.service_mode:
            visits = Counter(
                arc.ref for per_step in moves for entries in per_step.values() for arc, _ in entries
            )
            required_ok = all(visits[ref] - 1 - req_slack[ref] == 0 for ref in self.required)
        # the rest encoding strips nothing, so a walk weight is the bits' used weight
        capacity_ok = spec.postmen.capacities is None or all(
            float(c) - used - slack == 0.0
            for c, used, slack in zip(spec.postmen.capacities, weights, cap_slack)
        )
        flags = {
            "one_edge_per_step": one_edge_ok,
            "contiguous": contiguous_ok,
            "required_covered": required_ok,
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

    def _walk(self, per_step: dict[int, list[tuple[CompArc, str]]]) -> list[WalkStep]:
        """One postman's moves in step order, terminal arcs and repeats stripped."""
        steps: list[WalkStep] = []
        prev = None
        for i in sorted(per_step):
            for arc, mode in per_step[i]:
                if arc.is_terminal:
                    continue
                repeat = (
                    self.encoding == ENC_REPETITION
                    and prev == (i - 1, arc.index, mode)
                    and mode in (MODE_PLAIN, MODE_TRAVERSE)
                )
                if not repeat:
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
            a
            for a in self.arcs
            if not a.is_terminal
            and a.tail == tail
            and a.head == head
            and (kind is None or a.kind == kind)
        ]
        if len(candidates) != 1:
            raise SpecError(
                f"arc {tail}->{head} (kind={kind}) matches {len(candidates)} arcs"
            )
        if mode is None:
            mode = self.spec.modes[-1]
        return candidates[0].index, mode

    def encode_route(self, walks: Sequence[Sequence[Sequence]]) -> list[int]:
        """Bits for per-postman walks given as (tail, head[, mode[, kind]]) steps.

        Pads with edge repetition, terminal arcs, or rest bits depending on
        the encoding, and fills slack registers to match (clamped to their
        range, so deliberately violating walks stay encodable for tests).
        """
        if len(walks) != self.postmen:
            raise SpecError(f"need {self.postmen} walks, got {len(walks)}")
        x = [0] * len(self.registry)
        raw_counts: dict[EdgeRef, int] = {ref: 0 for ref in self.required}
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
                ref = self.arcs[ai].ref
                if ref in raw_counts and (
                    not self.service_mode or mode == MODE_SERVICE
                ):
                    raw_counts[ref] += 1
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
            if self.encoding == ENC_REST:
                for i in range(padded_real, self.i_max):
                    x[self._rest_var[(p, i)]] = 1

        if not self.service_mode:
            for ref in self.required:
                value = max(raw_counts[ref] - 1, 0)
                slots = self._req_slack[(ref, 0)]
                limit = sum(2**bit for bit, _ in slots)
                value = min(value, limit)
                for bit, idx in slots:
                    if value & (1 << bit):
                        x[idx] = 1

        if self.spec.postmen.capacities is not None:
            for p, c in enumerate(self.spec.postmen.capacities):
                used = sum(
                    self._weight(p, self.arcs[ai], mode)
                    for (pp, _ii, ai, mode), idx in self._edge_var.items()
                    if pp == p and x[idx]
                )
                value = int(max(float(c) - used, 0))
                slots = self._cap_slack[p]
                limit = sum(2**bit for bit, _ in slots)
                value = min(value, limit)
                for bit, idx in slots:
                    if value & (1 << bit):
                        x[idx] = 1
        return x


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


def default_penalties(spec: ProblemSpec, factor: float = 5.0) -> PenaltyConfig:
    """Uniform multipliers at `factor` times the largest arc weight in play."""
    # plain weights count in service mode too: postman overrides may be set
    weights = [
        spec.weight(p, key, mode)
        for p in range(spec.postmen.count)
        for key in spec.graph.arc_weights
        for mode in (MODE_PLAIN, *spec.modes)
    ]
    return PenaltyConfig.for_max_weight(max(weights) if weights else 1.0, factor)
