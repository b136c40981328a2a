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

Each postman's edge variables form one step table (`STEP_ROW` rows in step,
arc-index and mode order) that the forms, `decode` and `encode_route` all
read.  `compile_general` sizes both single-postman encodings by counting
their pruned (arc, mode) slots and builds the registry, tables and forms only
for the smaller one.  Every weight comes from one `ProblemSpec.weight` call
per edge variable, kept in the table; terminal arcs cost nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InfeasibleEndpoints, LengthMismatch, SpecError
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

MODES = (MODE_PLAIN, MODE_SERVICE, MODE_TRAVERSE)  # a step table's mode codes

# one edge variable: its step, registry index, arc endpoints and index, mode
# code, whether it may repeat at the next step, and the step weight
STEP_ROW = np.dtype([
    ("step", np.int64), ("index", np.int64), ("tail", np.int64), ("head", np.int64),
    ("arc", np.int64), ("mode", np.int64), ("repeat", np.bool_), ("weight", np.float64),
])


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

    Construction lays out arcs and step pruning; `compile_general` then
    builds the registry, the step tables and the forms for the encoding it
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

        with_terminal = encoding == ENC_TERMINAL
        self.arcs = _build_arcs(spec, with_terminal)
        self._arc_lookup = {(a.tail, a.head, a.kind): a.index for a in self.arcs}
        gate = len(self.required) if with_terminal else None
        self.allowed = _prune_steps(
            spec, self.arcs, self.i_max, encoding == ENC_REPETITION, gate
        )
        # the (arc, mode) slots of one postman: step, then arc index, then
        # mode; a terminal arc is padding, never service
        self._slots = [
            (i, arc, mode)
            for i, step in enumerate(self.allowed)
            for arc in (self.arcs[ai] for ai in sorted(step))
            for mode in (spec.modes[-1:] if arc.is_terminal else spec.modes)
        ]

    # ---- variables -------------------------------------------------------

    def _build_registry(self) -> None:
        """Lay out the variables once: the registry and one step table per postman.

        `_tables[p]` holds postman p's edge variables as STEP_ROW rows, one
        per slot, in step, arc-index and mode order; `_rest[p]` the rest bits
        (none outside the rest encoding); `_req_slack[(ref, p)]` and
        `_cap_slack[p]` the (bit, index) slack registers.
        """
        spec, postmen, steps = self.spec, range(self.postmen), range(self.i_max)
        edge_labels = [
            [EdgeStep(i, arc.tail, arc.head, mode, p, arc.kind) for i, arc, mode in self._slots]
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
            for p, cap in enumerate(spec.postmen.capacities or ())
        ]
        self.registry = VariableRegistry(
            [lab for labs in edge_labels for lab in labs]
            + [lab for labs in rest_labels for lab in labs]
            + [lab for labs in req_labels.values() for lab in labs]
            + [lab for labs in cap_labels for lab in labs]
        )

        index = self.registry.index_of
        # an arc may repeat at the next step to pad the walk in these modes
        repeat_modes = (MODE_PLAIN, MODE_TRAVERSE) if self.encoding == ENC_REPETITION else ()

        def row(p: int, lab: EdgeStep, i: int, arc: CompArc, mode: str) -> tuple:
            key = (arc.tail, arc.head, arc.kind)
            weight = 0.0 if arc.is_terminal else spec.weight(p, key, mode)
            return (i, index(lab), arc.tail, arc.head, arc.index, MODES.index(mode),
                    mode in repeat_modes, weight)

        self._tables = [
            np.array([row(p, lab, *slot) for lab, slot in zip(labels, self._slots)],
                     dtype=STEP_ROW)
            for p, labels in enumerate(edge_labels)
        ]
        self._rest = [[index(lab) for lab in labs] for labs in rest_labels]
        self._req_slack = {
            key: [(lab.bit, index(lab)) for lab in labs] for key, labs in req_labels.items()
        }
        self._cap_slack = [[(lab.bit, index(lab)) for lab in labs] for labs in cap_labels]

    def _covers(self, ref: EdgeRef) -> list[np.ndarray]:
        """Per postman, the step-table rows that count as covering `ref`; in
        service mode only a service step covers its edge."""
        arcs = [a.index for a in self.arcs if a.ref == ref]
        rows = []
        for table in self._tables:
            hit = np.isin(table["arc"], arcs)
            if self.service_mode:
                hit &= table["mode"] == MODES.index(MODE_SERVICE)
            rows.append(table[hit])
        return rows

    def _find_arc(self, tail: int, head: int, kind: str) -> int:
        try:
            return self._arc_lookup[(tail, head, kind)]
        except KeyError:
            raise SpecError(f"no arc {tail}->{head} kind {kind}") from None

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
        # each postman's table split into its steps (views)
        steps = [
            np.split(t, np.searchsorted(t["step"], np.arange(1, self.i_max)))
            for t in self._tables
        ]

        for t, per_step, rest in zip(self._tables, steps, self._rest):
            objective.add_quadratic_terms(t["index"], t["index"], t["weight"])
            # exactly one move (or rest) per step
            one_edge.add_square_penalty(t["index"].tolist() + rest, -1.0, [1.0] * self.i_max,
                                        t["step"].tolist() + list(range(len(rest))))

            # no jumping between consecutive steps: a move starts where the
            # last one ended, or repeats it in a repeat mode; a repeat is
            # discounted in the objective (service steps are never repeats)
            for i, (cur, nxt) in enumerate(zip(per_step, per_step[1:])):
                repeat = cur["repeat"][:, None] & (nxt["arc"] == cur["arc"][:, None])
                repeat &= nxt["mode"] == cur["mode"][:, None]
                a, b = np.nonzero((nxt["tail"] != cur["head"][:, None]) & ~repeat)
                adjacency.add_quadratic_terms(cur["index"][a], nxt["index"][b], 1.0)
                if rest:
                    # rest is absorbing: resuming movement afterwards is illegal
                    adjacency.add_quadratic_terms(np.full(len(nxt), rest[i]), nxt["index"], 1.0)
                a, b = np.nonzero(repeat)
                objective.add_quadratic_terms(cur["index"][a], nxt["index"][b],
                                              -nxt["weight"][b])

        # coverage of required edges: one service, or visits less the slack
        covers = {ref: self._covers(ref) for ref in self.required}
        terms = [
            (g, idx, -1.0) for g, ref in enumerate(self.required)
            for rows in covers[ref] for idx in rows["index"].tolist()
        ] + [
            (g, idx, float(2**bit)) for g, ref in enumerate(self.required)
            for p in range(self.postmen) for bit, idx in self._req_slack[(ref, p)]
        ]
        group, idx, coef = zip(*terms) if terms else ((), (), ())
        required_c.add_square_penalty(idx, coef, [1.0] * len(self.required), group)

        if spec.turn_penalties:
            turn = Qubo(n)
            for per_step in steps:
                for cur, nxt in zip(per_step, per_step[1:]):
                    for t in spec.turn_penalties:
                        ia = cur["index"][(cur["tail"] == t.in_tail) & (cur["head"] == t.in_head)]
                        ib = nxt["index"][(nxt["tail"] == t.in_head) & (nxt["head"] == t.out_head)]
                        turn.add_quadratic_terms(np.repeat(ia, len(ib)), np.tile(ib, len(ia)),
                                                 t.bonus)
            constraints["turn"] = turn

        hierarchy = spec.hierarchy_closure()
        if hierarchy:
            # a service of `second` before one of `first`; service mode has one postman
            hier = Qubo(n)
            for first, second in sorted(hierarchy):
                (ra,), (rb,) = covers[first], covers[second]
                a, b = np.nonzero(rb["step"] < ra["step"][:, None])
                hier.add_quadratic_terms(ra["index"][a], rb["index"][b], 1.0)
            constraints["hierarchy"] = hier

        if spec.forbid_edge_collisions:
            # two postmen on the same arc at the same step
            coll = Qubo(n)
            for i in range(self.i_max):
                rows = np.concatenate([per_step[i] for per_step in steps])
                owner = np.repeat(np.arange(self.postmen), [len(s[i]) for s in steps])
                clash = (rows["tail"][:, None] == rows["tail"]) & (owner[:, None] != owner)
                clash &= rows["head"][:, None] == rows["head"]
                a, b = np.nonzero(np.triu(clash, 1))
                coll.add_quadratic_terms(rows["index"][a], rows["index"][b], 1.0)
            constraints["collision"] = coll

        if spec.postmen.capacities is not None:
            # per postman, the used weight plus the slack fills the capacity
            terms = [
                (p, idx, -w) for p, t in enumerate(self._tables)
                for idx, w in t[["index", "weight"]][t["weight"] != 0].tolist()
            ] + [
                (p, idx, -float(2**bit)) for p, slots in enumerate(self._cap_slack)
                for bit, idx in slots
            ]
            group, idx, coef = zip(*terms)
            cap = Qubo(n)
            cap.add_square_penalty(idx, coef, [float(c) for c in spec.postmen.capacities], group)
            constraints["capacity"] = cap

        for form in (objective, *constraints.values()):
            form.settle()
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
            raise LengthMismatch(f"assignment length {len(x)} != {len(self.registry)}")
        spec = self.spec
        bits = np.asarray(x, dtype=np.float64)  # once, for the masks and the three forms
        # per postman, the table rows whose bits are set, in step order
        walks = [self._walk(t[bits[t["index"]] != 0]) for t in self._tables]
        problems, weights, turn_extra = spec.check_walks(walks)
        # the rest encoding strips nothing, so a walk weight is the bits' used weight
        capacity_ok = spec.postmen.capacities is None or all(
            float(c) - used - _register_value(slots, x) == 0.0
            for c, used, slots in zip(spec.postmen.capacities, weights, self._cap_slack)
        )
        flags = {
            "one_edge_per_step": self.constraints["one_edge"].energy(bits) == 0.0,
            "contiguous": self.constraints["adjacency"].energy(bits) == 0.0,
            "required_covered": self.constraints["required"].energy(bits) == 0.0,
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

    def _walk(self, rows: np.ndarray) -> list[WalkStep]:
        """One postman's set rows as a walk, terminal arcs and repeats stripped."""
        steps: list[WalkStep] = []
        prev = None
        for i, _, tail, head, arc, mode, repeat, _ in rows.tolist():
            kind = self.arcs[arc].kind
            if kind == KIND_TERMINAL:
                continue
            if not (repeat and prev == (i - 1, arc, mode)):
                steps.append(WalkStep(tail, head, MODES[mode], kind))
            prev = (i, arc, mode)
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
        for p, (walk, table) in enumerate(zip(walks, self._tables)):
            seq = [self._resolve_step(s) for s in walk]
            if len(seq) > self.i_max:
                raise SpecError(f"walk of {len(seq)} steps exceeds i_max={self.i_max}")
            if self.encoding == ENC_REPETITION:
                if not seq:
                    raise SpecError("repetition encoding cannot express empty walks")
                seq = seq + [seq[-1]] * (self.i_max - len(seq))
            moves = len(seq)
            if self.encoding == ENC_TERMINAL and moves < self.i_max:
                if seq:
                    end_vertex = self.arcs[seq[-1][0]].head
                elif self.spec.start is not None:
                    end_vertex = self.spec.start
                else:
                    end_vertex = min(self.spec.graph.vertices)
                pad = self.spec.modes[-1]
                seq.append((self._find_arc(end_vertex, TERMINAL, KIND_TERMINAL), pad))
                loop = self._find_arc(TERMINAL, TERMINAL, KIND_TERMINAL)
                seq += [(loop, pad)] * (self.i_max - len(seq))
            used = 0.0
            for i, (ai, mode) in enumerate(seq):
                row = table[(table["step"] == i) & (table["arc"] == ai)
                            & (table["mode"] == MODES.index(mode))]
                if not len(row):
                    arc = self.arcs[ai]
                    raise SpecError(
                        f"step {i}: arc {arc.tail}->{arc.head} was pruned for this spec"
                    )
                x[int(row["index"][0])] = 1
                used += float(row["weight"][0])
            for idx in self._rest[p][moves:]:
                x[idx] = 1
            if self.spec.postmen.capacities is not None:
                value = int(max(float(self.spec.postmen.capacities[p]) - used, 0))
                _fill_register(self._cap_slack[p], value, x)

        if not self.service_mode:
            for ref in self.required:
                visits = sum(x[idx] for rows in self._covers(ref) for idx in rows["index"])
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
    when `encoding` is 'auto' (ties go to repetition).

    The two differ only in their pruned (arc, mode) slots, so they are sized
    by counting those; only the returned encoding builds its registry, step
    table and forms.
    """
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
            candidates, key=lambda c: (len(c._slots), c.encoding != ENC_REPETITION)
        )
    compiled._build_registry()
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
