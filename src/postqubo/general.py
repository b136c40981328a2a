"""Time-indexed QUBO compiler for the general postman variants.

Each binary variable is "traverse arc (j,k) at step i" (per postman, with a
service/traverse split when service mode is on).  Two over-estimation
encodings are supported for a single postman:

* repetition -- an arc variable may repeat at consecutive steps to pad the
  walk out to the preset step budget; the objective discounts repeats.
  Plain mode only: repeats cannot pad a walk of service steps;
* terminal -- a synthetic absorbing vertex marks the end of the walk; no
  repetition, objective is a plain sum.  Service mode always uses it.

Multiple postmen (or capacities / collision bans) use per-postman rest
variables: the rest bit plays the terminal role for that postman's walk.

`CompiledGeneral(spec, encoding)` builds the whole compiled problem in its
constructor; `compile_general` is that call.  The layout is kept only as
integer columns.  The arcs are tail, head, kind and required-edge columns,
laid out once, an arc's index being its position in `Graph.arcs()` (the
terminal arcs follow; only the terminal encoding lets them in).  Step
pruning is one boolean (step x arc) reachability sweep over them each way,
run once per encoding in play, and a postman's slots are the (step, arc,
mode) columns of the allowed entries.  Under "auto" both single-postman
encodings are pruned and the one with fewer slots is kept, so only it gets a
registry, tables and forms.  Each postman's edge variables form one step
table (`STEP_ROW` rows in step, arc-index and mode order, registry indices
from one lexsort in label order, whose sorted columns are the registry's
edge labels); the rest, required-slack and capacity-slack variables are
int64 (owner, postman, bit, index) register rows.  The forms and `decode` read only these.  Adjacency, rest, the repeat
discount and turns are masks over one join of every row with every row of
the next step; the required family is one grouped square over the rows'
required-edge column.  Every weight comes from one `ProblemSpec.weight` call
per (arc, mode) and postman, kept in the table; terminal arcs cost nothing.
Turn bonuses are objective terms, so a valid state's energy is its route's
weight plus bonus.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import InfeasibleEndpoints, LengthMismatch, SpecError
from .graphs import EdgeRef
from .problem import ProblemSpec
from .qubo import (
    EDGE_KINDS,
    EDGE_MODES,
    MODE_PLAIN,
    MODE_SERVICE,
    CapacitySlack,
    CompiledProblem,
    PenaltyConfig,
    Qubo,
    RequiredSlack,
    RestVar,
    VariableRegistry,
    _pairs,
)
from .routes import RouteSolution, WalkStep

TERMINAL = -1
KIND_TERMINAL = "t"
KINDS = EDGE_KINDS  # arc kind codes, in label order

ENC_REPETITION = "repetition"
ENC_TERMINAL = "terminal"
ENC_REST = "rest"

MODES = EDGE_MODES  # a step table's mode codes

# one edge variable: its step, registry index, arc endpoints and index, mode
# code and the step weight
STEP_ROW = np.dtype([
    ("step", np.int64), ("index", np.int64), ("tail", np.int64), ("head", np.int64),
    ("arc", np.int64), ("mode", np.int64), ("weight", np.float64),
])


def _prune_steps(
    spec: ProblemSpec,
    tail: np.ndarray,
    head: np.ndarray,
    terminal: np.ndarray,
    i_max: int,
    repetition: bool,
    terminal_gate: int | None,
) -> np.ndarray:
    """allowed[i, a]: arc a is usable at step i given start/stop reachability.

    One forward sweep from the start and one backward sweep from the stop
    over (step, arc) booleans: an arc is reached when it leaves a vertex the
    last step's arcs enter (entering one the next step's arcs leave, going
    back), or repeats one of them in the repetition encoding.
    """
    # a terminal arc is usable from the gate on, the terminal loop never at step 0
    mask = np.repeat(~terminal[None, :], i_max, axis=0)
    if terminal_gate is not None:
        mask[terminal_gate:] = True
        mask[0, tail == TERMINAL] = False
    verts, pos = np.unique(np.concatenate([tail, head]), return_inverse=True)
    tpos, hpos = pos[: len(tail)], pos[len(tail) :]

    def sweep(first: np.ndarray, steps: range, out: np.ndarray, into: np.ndarray) -> np.ndarray:
        reach = np.zeros_like(mask)
        reach[steps[0]] = first
        for prev, i in zip(steps, steps[1:]):
            at = np.zeros(len(verts), dtype=bool)
            at[out[reach[prev]]] = True
            reach[i] = mask[i] & (at[into] | (reach[prev] & repetition))
        return reach

    start, stop = spec.start, spec.stop
    first = mask[0] if start is None else mask[0] & (tail == start)
    last = mask[-1] if stop is None else mask[-1] & ((head == stop) | (head == TERMINAL))
    allowed = sweep(first, range(i_max), hpos, tpos)
    allowed &= sweep(last, range(i_max - 1, -1, -1), tpos, hpos)
    empty = np.flatnonzero(~allowed.any(axis=1))
    if len(empty):
        raise InfeasibleEndpoints(
            f"no arc can appear at step {empty[0]} given start={start}, stop={stop}"
        )
    return allowed


class CompiledGeneral(CompiledProblem):
    """Spec compiled to a registry, objective, per-family constraints and penalties.

    The constructor builds the whole compiled problem: it lays out the arc
    columns once, prunes steps for each encoding in play (the one `encoding`
    names, or under "auto" every encoding the spec admits), keeps the one
    with the fewest (step, arc, mode) slots, repetition on a tie, and builds
    its registry, step tables and forms; its `penalties` are
    `default_penalties(spec)`.  A rest spec admits only rest, a service spec
    only terminal; any other encoding is a `SpecError`.
    """

    def __init__(self, spec: ProblemSpec, encoding: str = "auto"):
        if spec.uses_rest_encoding:
            admitted: tuple[str, ...] = (ENC_REST,)
        elif spec.service is not None:
            admitted = (ENC_TERMINAL,)
        else:
            admitted = (ENC_REPETITION, ENC_TERMINAL)
        if encoding not in ("auto", ENC_REPETITION, ENC_TERMINAL, ENC_REST):
            raise SpecError(f"unknown encoding {encoding!r}")
        if encoding not in ("auto", *admitted):
            raise SpecError(f"this spec compiles the {' or '.join(admitted)} encoding, "
                            f"not {encoding}")
        self.spec = spec
        self.penalties = default_penalties(spec)
        self.i_max = spec.effective_i_max
        if self.i_max < 1:
            raise SpecError("the step budget i_max is 0: the graph has no edges to walk")
        self.postmen = spec.postmen.count
        self.required: tuple[EdgeRef, ...] = spec.resolved_required()
        self.service_mode = spec.service is not None

        # arc columns: tail, head, kind code and required edge (position in
        # `required`, or -1); an arc's index is its position in graph.arcs(),
        # then one arc into the terminal per possible end and the terminal
        # loop, which only the terminal encoding lets in
        required = {ref: g for g, ref in enumerate(self.required)}
        arcs = [(a.tail, a.head, KINDS.index(a.ref.kind), required.get(a.ref, -1))
                for a in spec.graph.arcs()]
        ends = [spec.stop] if spec.stop is not None else sorted(spec.graph.vertices)
        arcs += [(v, TERMINAL, KINDS.index(KIND_TERMINAL), -1) for v in [*ends, TERMINAL]]
        self._tail, self._head, self._kind, self._group = np.array(
            arcs, dtype=np.int64).reshape(-1, 4).T
        terminal = self._kind == KINDS.index(KIND_TERMINAL)
        # a slot's usable modes; a terminal arc is padding in the last mode, never service
        modes = np.array([m in spec.modes for m in MODES])
        last = np.array([m == spec.modes[-1] for m in MODES])
        usable = np.where(terminal[:, None], last, modes)
        fits, errors = {}, []
        for enc in admitted if encoding == "auto" else (encoding,):
            gate = len(self.required) if enc == ENC_TERMINAL else None
            try:
                allowed = _prune_steps(spec, self._tail, self._head, terminal, self.i_max,
                                       enc == ENC_REPETITION, gate)
            except InfeasibleEndpoints as exc:
                errors.append(exc)
                continue
            # the (step, arc, mode) slots of one postman, in that order
            fits[enc] = allowed, np.nonzero(allowed[:, :, None] & usable)
        if not fits:
            raise errors[0]
        # the fewest slots; repetition, listed first, wins a tie
        self.encoding = min(fits, key=lambda enc: len(fits[enc][1][0]))
        self.allowed, self._slots = fits[self.encoding]
        del fits, errors  # the other encoding's arrays go before the build
        self._build_registry()
        self._build_forms()

    # ---- variables -------------------------------------------------------

    def _build_registry(self) -> None:
        """Lay out the variables once: the registry and one step table per postman.

        `_tables[p]` holds postman p's edge variables as STEP_ROW rows, one
        per slot, in step, arc-index and mode order, and `_cover` the
        required edge each slot covers (-1 for none; in service mode only a
        service step covers its edge).  The other variables are registers of
        int64 (owner, postman, bit, index) rows, the owner being the group
        the register joins in its penalty: `_rest` has one row per step
        (owner) and postman, bit 0 (no rows outside the rest encoding);
        `_req_slack` the slack bits of each required edge (owner: its
        position in `required`; postman -1, as all postmen share it);
        `_cap_slack` each postman's capacity slack bits (owner: the postman).

        A register has the bits of the largest value it must hold.  Every
        step of every postman covers at most one required edge and a valid
        walk covers each at least once, so one edge's extra visits are at
        most P * i_max - |R| (no register in service mode, where each is
        serviced exactly once); a capacity's unused part is at most c.
        """
        spec, postmen, steps = self.spec, range(self.postmen), range(self.i_max)
        step, arc, mode = self._slots
        size = len(step)
        tail, head = self._tail[arc], self._head[arc]
        # edge labels lead the registry, in EdgeStep.sort_key order: step,
        # postman, tail, head, kind (d < t < u), mode (MODES order)
        cols = np.stack([np.tile(step, self.postmen), np.repeat(postmen, size),
                         *(np.tile(c, self.postmen) for c in (tail, head, self._kind[arc], mode))])
        order = np.lexsort(cols[::-1])
        index = np.empty(len(order), dtype=np.int64)
        index[order] = np.arange(len(order))
        rest = [(i, p, 0) for p in postmen for i in steps] if self.encoding == ENC_REST else []
        extra = 0 if self.service_mode else self.postmen * self.i_max - len(self.required)
        req = [(g, -1, bit) for g in range(len(self.required))
               for bit in range(max(extra, 0).bit_length())]
        cap = [(p, p, bit) for p, c in enumerate(spec.postmen.capacities or ())
               for bit in range(int(c).bit_length())]
        refs = self.required
        labels = (
            [RestVar(i, p) for i, p, _ in rest]
            + [RequiredSlack(bit, refs[g].a, refs[g].b, refs[g].kind) for g, _, bit in req]
            + [CapacitySlack(bit, p) for _, p, bit in cap]
        )
        self.registry = VariableRegistry(labels, cols[:, order])
        # the other labels follow the edge block, in sort-key order
        rank = sorted(range(len(labels)), key=lambda r: labels[r].sort_key())
        rows = np.zeros((len(labels), 4), dtype=np.int64)
        rows[:, :3] = np.reshape(rest + req + cap, (-1, 3))
        rows[rank, 3] = len(order) + np.arange(len(rank))
        self._rest, self._req_slack, self._cap_slack = np.split(
            rows, [len(rest), len(rest) + len(req)])

        template = np.empty(size, dtype=STEP_ROW)
        template["step"], template["tail"], template["head"] = step, tail, head
        template["arc"], template["mode"] = arc, mode
        cover = self._group[arc]
        if self.service_mode:
            cover = np.where(mode == MODES.index(MODE_SERVICE), cover, -1)
        self._tables, self._cover = [], cover  # every postman has the same slots
        for p in postmen:
            # one weight per (arc, mode) in play; the terminal arcs follow
            # the graph's and cost nothing
            weight = np.zeros((len(self._tail), len(MODES)))
            for a, edge in enumerate(spec.graph.arcs()):
                for m in spec.modes:
                    key = (edge.tail, edge.head, edge.ref.kind)
                    weight[a, MODES.index(m)] = spec.weight(p, key, m)
            table = template.copy()
            table["index"], table["weight"] = index[p * size : (p + 1) * size], weight[arc, mode]
            self._tables.append(table)

    # ---- QUBO assembly ----------------------------------------------------

    def _build_forms(self) -> None:
        n = len(self.registry)
        spec, tables, cover = self.spec, self._tables, self._cover
        objective = Qubo(n)
        one_edge = Qubo(n)
        adjacency = Qubo(n)
        required_c = Qubo(n)
        constraints: dict[str, Qubo] = {
            "one_edge": one_edge,
            "adjacency": adjacency,
            "required": required_c,
        }
        # (row a at step s, row b at step s + 1) for every s, step-major, then
        # a-major; every postman has the same slots, so one join serves all
        step, tail, head, arc = (tables[0][f] for f in ("step", "tail", "head", "arc"))
        bounds = np.searchsorted(step, np.arange(self.i_max + 2))
        a, b = _pairs(bounds[step + 1], bounds[step + 2])
        # no jumping between consecutive steps: a move starts where the last
        # one ended, or repeats it in the repetition encoding; a repeat is
        # discounted in the objective
        repeat = (arc[b] == arc[a]) & (self.encoding == ENC_REPETITION)
        jump = (tail[b] != head[a]) & ~repeat
        later = step > 0

        for p, t in enumerate(tables):
            index, rest = t["index"], self._rest[self._rest[:, 1] == p, 3]  # in step order
            objective.add_quadratic_terms(index, index, t["weight"])
            # exactly one move (or rest) per step
            one_edge.add_square_penalty(np.append(index, rest), -1.0, [1.0] * self.i_max,
                                        np.append(step, np.arange(len(rest))))
            adjacency.add_quadratic_terms(index[a[jump]], index[b[jump]], 1.0)
            if len(rest):
                # rest is absorbing: resuming movement afterwards is illegal
                adjacency.add_quadratic_terms(rest[step[later] - 1], index[later], 1.0)
            objective.add_quadratic_terms(index[a[repeat]], index[b[repeat]],
                                          -t["weight"][b[repeat]])

        # coverage of required edges: one service, or all postmen's visits
        # less the edge's one slack register
        slack, _, bit, slack_index = self._req_slack.T
        covering = np.flatnonzero(cover >= 0)
        required_c.add_square_penalty(
            np.concatenate([*(t["index"][covering] for t in tables), slack_index]),
            np.append(np.full(len(covering) * len(tables), -1.0), 2.0**bit),
            [1.0] * len(self.required),
            np.append(np.tile(cover[covering], len(tables)), slack),
        )

        # a turn bonus is part of the objective, paid once per matched pair of moves
        for tp in spec.turn_penalties:
            into = (tail == tp.in_tail) & (head == tp.in_head)
            hit = into[a] & (tail[b] == tp.in_head) & (head[b] == tp.out_head)
            for t in tables:
                objective.add_quadratic_terms(t["index"][a[hit]], t["index"][b[hit]], tp.bonus)

        hierarchy = spec.hierarchy_closure()
        if hierarchy:
            # a service of `second` before one of `first`; service mode has one postman
            hier = Qubo(n)
            (table,) = tables
            for first, second in hierarchy:
                ra = table[cover == self.required.index(first)]
                rb = table[cover == self.required.index(second)]
                a, b = np.nonzero(rb["step"] < ra["step"][:, None])
                hier.add_quadratic_terms(ra["index"][a], rb["index"][b], 1.0)
            constraints["hierarchy"] = hier

        if spec.forbid_edge_collisions:
            # two postmen on the same arc at the same step: every pair of rows
            # of different postmen within one (step, tail, head) run
            coll = Qubo(n)
            rows = np.concatenate(tables)
            owner = np.repeat(np.arange(self.postmen), len(step))
            key = np.stack([rows["step"], rows["tail"], rows["head"]])
            order = np.lexsort(key[::-1])
            key, rows, owner = key[:, order], rows[order], owner[order]
            run = np.cumsum(np.append(True, (key[:, 1:] != key[:, :-1]).any(axis=0)))
            a, b = _pairs(np.arange(1, len(run) + 1), np.searchsorted(run, run, side="right"))
            clash = owner[a] != owner[b]
            coll.add_quadratic_terms(rows["index"][a[clash]], rows["index"][b[clash]], 1.0)
            constraints["collision"] = coll

        if spec.postmen.capacities is not None:
            # per postman, the used weight plus the slack fills the capacity
            used = [t[t["weight"] != 0] for t in tables]
            owner, _, bit, slack_index = self._cap_slack.T
            cap = Qubo(n)
            cap.add_square_penalty(
                np.concatenate([*(t["index"] for t in used), slack_index]),
                np.concatenate([*(-t["weight"] for t in used), -(2.0**bit)]),
                [float(c) for c in spec.postmen.capacities],
                np.concatenate([*(np.full(len(t), p) for p, t in enumerate(used)), owner]),
            )
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
        terminal arcs and repeats stripped, go through `ProblemSpec.route` for
        the route rules, the walk weights and the turn bonus.
        """
        if len(x) != len(self.registry):
            raise LengthMismatch(f"assignment length {len(x)} != {len(self.registry)}")
        spec = self.spec
        bits = np.asarray(x, dtype=np.float64)  # once, for the masks and the three forms
        # per postman, the table rows whose bits are set, in step order
        rows = [t[bits[t["index"]] != 0] for t in self._tables]
        # the set rows' weights plus the set slack bits must fill each capacity
        slack = self._cap_slack[bits[self._cap_slack[:, 3]] != 0].tolist()
        capacity_ok = spec.postmen.capacities is None or all(
            float(c) - float(r["weight"].sum())
            - sum(1 << bit for owner, _, bit, _ in slack if owner == p) == 0.0
            for p, (c, r) in enumerate(zip(spec.postmen.capacities, rows))
        )
        return spec.route(
            [self._walk(r) for r in rows],
            one_edge_per_step=self.constraints["one_edge"].energy(bits) == 0.0,
            contiguous=self.constraints["adjacency"].energy(bits) == 0.0,
            required_covered=self.constraints["required"].energy(bits) == 0.0,
            capacity_ok=capacity_ok,
        )

    def _walk(self, rows: np.ndarray) -> list[WalkStep]:
        """One postman's set rows as a walk, terminal arcs and repeats stripped."""
        steps: list[WalkStep] = []
        repetition, prev = self.encoding == ENC_REPETITION, None
        for i, _, tail, head, arc, mode, _ in rows.tolist():
            kind = KINDS[self._kind[arc]]
            if kind == KIND_TERMINAL:
                continue
            if not (repetition and prev == (i - 1, arc)):
                steps.append(WalkStep(tail, head, MODES[mode], kind))
            prev = (i, arc)
        return steps


def compile_general(spec: ProblemSpec, encoding: str = "auto") -> CompiledGeneral:
    """Compile a spec: `CompiledGeneral(spec, encoding)`."""
    return CompiledGeneral(spec, encoding)


def default_penalties(spec: ProblemSpec) -> PenaltyConfig:
    """Uniform multipliers at PENALTY_FACTOR times the largest arc weight or turn bonus."""
    # plain weights count in service mode too: postman overrides may be set
    weights = [
        spec.weight(p, key, mode)
        for p in range(spec.postmen.count)
        for key in spec.graph.arc_weights
        for mode in (MODE_PLAIN, *spec.modes)
    ]
    weights += [tp.bonus for tp in spec.turn_penalties]
    return PenaltyConfig.for_max_weight(max(weights) if weights else 1.0)
