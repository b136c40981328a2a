"""Seeded instance generators for the four workloads.

Every instance is a plain JSON object in the documented graph or spec file
format.  The same (workload, seed) always yields the same list of instances,
and the program under test only ever sees the files written from them.

Edge entries are written in random orientation and an undirected edge may
share its vertex pair with a directed one, as hand-written inputs do.
Required and hierarchy edge refs are written with the lower vertex first,
the orientation `EdgeRef` documents; one general-retune slot lists a
required edge the other way round (see GENERAL_MENU).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from reference import walk_optimum


@dataclass(frozen=True)
class Op:
    """One documented command run on an instance file.

    kind is "solve" (always followed by `validate` when it exits 0),
    "export" (`export-qubo --force-qubo`) or "oracle".
    """

    kind: str
    solver: str = "sa+greedy"
    seed: int = 0
    reads: int = 1000
    sweeps: int = 1000
    force: bool = False


@dataclass
class Instance:
    """One generated input file plus the command sequence run on it."""

    name: str
    doc: dict
    ops: tuple[Op, ...]
    optimum: float | None = None  # reference optimum, filled in untimed
    checked: bool = False  # reference already compared with the oracles
    timed: bool = True  # counts toward the time and size metrics

    @property
    def is_graph(self) -> bool:
        return "graph" not in self.doc


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, *salt])


def _connected(n: int, pairs) -> bool:
    adj = {v: set() for v in range(n)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for u in adj[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def _strongly_connected(n: int, arcs) -> bool:
    def reach(adj):
        seen, stack = {0}, [0]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == n

    fwd = {v: [] for v in range(n)}
    bwd = {v: [] for v in range(n)}
    for t, h in arcs:
        fwd[t].append(h)
        bwd[h].append(t)
    return reach(fwd) and reach(bwd)


def pairing_graph(rng: np.random.Generator, odd: int, max_weight: int = 9) -> dict:
    """Connected undirected graph with exactly `odd` odd-degree vertices."""
    while True:
        n = odd + int(rng.integers(0, 4))
        pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
        m = int(rng.integers(n - 1, min(len(pool), 2 * n) + 1))
        picks = rng.choice(len(pool), size=m, replace=False)
        pairs = [pool[i] for i in sorted(picks)]
        if not _connected(n, pairs):
            continue
        degree = [0] * n
        for a, b in pairs:
            degree[a] += 1
            degree[b] += 1
        if sum(d % 2 for d in degree) != odd:
            continue
        edges = []
        for a, b in pairs:
            if rng.random() < 0.5:
                a, b = b, a
            edges.append([a, b, int(rng.integers(1, max_weight + 1))])
        return {"vertices": list(range(n)), "undirected": edges}


def mixed_graph(
    rng: np.random.Generator,
    n_vertices: int,
    n_edges: int,
    windy: bool,
    directed_frac: float,
    max_weight: int = 9,
) -> dict:
    """Strongly connected mixed graph; windy undirected edges when asked.

    Each vertex pair offers one undirected and one directed slot, so an
    undirected and a directed edge may join the same pair.
    """
    if n_edges < n_vertices - 1:
        raise ValueError(f"{n_edges} edges cannot connect {n_vertices} vertices")
    pool = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    slots = [(p, kind) for p in pool for kind in ("u", "d")]
    weights = np.array([directed_frac if kind == "d" else 1.0 - directed_frac
                        for _, kind in slots])
    while True:
        picks = rng.choice(len(slots), size=n_edges, replace=False, p=weights / weights.sum())
        undirected, directed, arcs = [], [], []
        for i in sorted(picks):
            (a, b), kind = slots[i]
            if rng.random() < 0.5:
                a, b = b, a
            w = int(rng.integers(1, max_weight + 1))
            if kind == "d":
                directed.append([a, b, w])
                arcs.append((a, b))
            elif windy and rng.random() < 0.7:
                undirected.append([a, b, w, int(rng.integers(1, max_weight + 1))])
                arcs += [(a, b), (b, a)]
            else:
                undirected.append([a, b, w])
                arcs += [(a, b), (b, a)]
        if windy and not any(len(e) == 4 and e[2] != e[3] for e in undirected):
            continue
        if _strongly_connected(n_vertices, arcs):
            graph = {"vertices": list(range(n_vertices))}
            if undirected:
                graph["undirected"] = undirected
            if directed:
                graph["directed"] = directed
            return graph


def edge_entries(graph: dict) -> list[list]:
    """Edge refs: undirected with the lower vertex first, directed tail first."""
    return [[min(e[:2]), max(e[:2]), "u"] for e in graph.get("undirected", [])] + [
        [d[0], d[1], "d"] for d in graph.get("directed", [])
    ]


def endpoint_fields(rng: np.random.Generator, n: int, mode: str) -> dict:
    v = int(rng.integers(0, n))
    return {
        "closed": {"start": v, "stop": v},
        "open": {},
        "start": {"start": v},
        "stop": {"stop": v},
    }[mode]


def single_spec(
    rng: np.random.Generator,
    n_vertices: int,
    n_edges: int,
    endpoints: str,
    rural: bool,
    windy: bool,
    i_max: int | None = None,
) -> dict:
    graph = mixed_graph(
        rng, n_vertices, n_edges, windy, float(rng.choice([0.15, 0.3, 0.45]))
    )
    spec = {"graph": graph, **endpoint_fields(rng, n_vertices, endpoints)}
    if rural:
        refs = edge_entries(graph)
        count = int(rng.integers(1, len(refs)))
        spec["required"] = [refs[i] for i in sorted(rng.choice(len(refs), count, replace=False))]
    if i_max is not None:
        spec["i_max"] = i_max
    return spec


def relabel(spec: dict, rng: np.random.Generator, fresh_weights: bool, max_weight: int = 9) -> dict:
    """The same structure under a random vertex relabelling and random entry
    orientations, with the same or fresh weights.  Required refs keep their
    orientation rule: lower vertex first, unless the ref was deliberately
    written the other way."""
    graph = spec["graph"]
    perm = [int(v) for v in rng.permutation(len(graph["vertices"]))]

    def weights(entry):
        if not fresh_weights:
            return list(entry[2:])
        return [int(rng.integers(1, max_weight + 1)) for _ in entry[2:]]

    undirected = []
    for e in graph.get("undirected", []):
        a, b = perm[e[0]], perm[e[1]]
        w = weights(e)
        undirected.append([a, b] + w if rng.random() < 0.5 else [b, a] + w[::-1])
    directed = [[perm[d[0]], perm[d[1]]] + weights(d) for d in graph.get("directed", [])]
    out = dict(spec, graph={"vertices": graph["vertices"]})
    if undirected:
        out["graph"]["undirected"] = undirected
    if directed:
        out["graph"]["directed"] = directed
    for key in ("start", "stop"):
        if key in spec:
            out[key] = perm[spec[key]]

    def ref(a, b, kind):
        pa, pb = perm[a], perm[b]
        if kind == "u":
            pa, pb = (max(pa, pb), min(pa, pb)) if a > b else (min(pa, pb), max(pa, pb))
        return [pa, pb, kind]

    if "required" in spec:
        out["required"] = [ref(*r) for r in spec["required"]]
    if "hierarchy" in spec:
        out["hierarchy"] = [[ref(*first), ref(*second)] for first, second in spec["hierarchy"]]
    if "turn_penalties" in spec:
        out["turn_penalties"] = [[[perm[j], perm[k]], [perm[k], perm[r]], int(rng.integers(1, 4))]
                                 for (j, k), (_, r), _ in spec["turn_penalties"]]
    if "postmen" in spec:
        count = spec["postmen"]["count"]
        out["postmen"] = dict(spec["postmen"], capacities=[total_weight(out["graph"])] * count)
    return out


def total_weight(graph: dict) -> int:
    """Sum of edge weights (first weight of a windy edge): a capacity every
    postman can meet."""
    return sum(e[2] for e in graph.get("undirected", [])) + sum(
        d[2] for d in graph.get("directed", []))


# --- workload rounds ------------------------------------------------------------
# A round is the fixed mix of instance shapes a workload cycles through; a run
# holds a fixed number of whole rounds, so every run measures the same mix.

PAIRING_SA_ODD = (4, 6, 8, 10, 12)
# (salt, endpoints, vertices, edges, i_max, rural, windy), after the
# acceptance suite's criterion-8 menu.  Each slot's structure and weights are
# drawn once from TOPOLOGY_SEED and its salt; the workload seed relabels the
# vertices, flips entry orientations and draws the solver seeds.  SA time and
# retune counts follow the QUBO's coefficients, so every run measures the
# same mix.  The seven timed slots (all but REVERSED_REF_SLOT) are chosen so
# that the median instance falls inside one slot's cluster of latencies rather
# than in the gap between two: three slots (salts 2, 5 and 12) stay below
# about 0.13 s for every seed, so the median falls among the instances of the
# slot with salt 7.  The two costliest slots (salts 1 and 4) hold two sevenths
# of the timed instances, so p90 falls inside their cluster as well.
GENERAL_MENU = (
    (1, "open", 4, 4, 5, False, True),
    (2, "start", 3, 4, 5, False, True),
    (3, "stop", 3, 4, 5, False, False),
    (4, "open", 4, 4, 5, False, False),
    (5, "open", 4, 4, 5, True, False),
    (6, "closed", 4, 5, 6, True, True),
    (7, "closed", 4, 5, 6, False, True),
    (12, "start", 3, 4, 5, False, True),
)
# Slot REVERSED_REF_SLOT lists one required undirected edge as [high, low,
# "u"].  The file is valid, but postqubo's EdgeRef swap turns the ref into a
# self-loop and the run exits 1 at load, so that defect shows in every
# round.  The slot counts toward the failure counts only, never toward the
# time or size metrics, so fixing the defect (which turns it into a full
# solve) does not move them.
REVERSED_REF_SLOT = 5
# (vertices, edges, endpoints, extra variant)
EXPORT_SHAPES = (
    (8, 12, "closed", None),
    (10, 16, "open", None),
    (8, 12, "open", "rural"),
    (8, 12, "closed", "turns"),
    (8, 12, "closed", "service"),
    (8, 12, "closed", "team"),
)
TOPOLOGY_SEED = 20240817
EXACT_ODD = (10, 12)
# More brute-force instances than oracle instances, so the median instance is
# a brute-force solve, whose cost is fixed by the structure.
EXACT_BRUTE = 5
EXACT_SPECS = ((6, 9, "closed"), (7, 10, "start"))
GENERAL_SA = dict(reads=100, sweeps=200)


def _solver_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _feasible_spec(rng, n_v, n_e, ends, rural, windy, i_max) -> dict:
    while True:
        spec = single_spec(rng, n_v, n_e, ends, rural, windy, i_max)
        if walk_optimum(spec) < float("inf"):
            return spec


@functools.cache
def pairing_slot(odd: int) -> dict:
    """Structure of the pairing-sa graph with `odd` odd vertices, the same for
    every seed: SA's cost follows the QUBO's coefficients, so a fresh graph
    per seed would move the timings more than any usable bound."""
    return pairing_graph(_rng(TOPOLOGY_SEED, 1, odd), odd)


def pairing_sa(seed: int, r: int) -> list[Instance]:
    out = []
    for odd in PAIRING_SA_ODD:
        rng = _rng(seed, 1, r, odd)
        doc = relabel({"graph": pairing_slot(odd)}, rng, fresh_weights=False)["graph"]
        out.append(Instance(f"pair-r{r}-k{odd}", doc, (Op("solve", seed=_solver_seed(rng)),)))
    return out


@functools.cache
def general_slot(k: int) -> dict:
    """Structure of general-retune slot k, the same for every seed."""
    salt, ends, n_v, n_e, i_max, rural, windy = GENERAL_MENU[k]
    rng = _rng(TOPOLOGY_SEED, 2, salt)
    while True:
        spec = single_spec(rng, n_v, n_e, ends, rural, windy, i_max)
        if k == REVERSED_REF_SLOT:
            a, b, _ = next(ref for ref in edge_entries(spec["graph"]) if ref[2] == "u")
            spec["required"] = [[b, a, "u"]] + [
                ref for ref in spec["required"] if ref[:2] not in ([a, b], [b, a])]
        if walk_optimum(spec) < float("inf"):
            return spec


def general_retune(seed: int, r: int) -> list[Instance]:
    out = []
    for k in range(len(GENERAL_MENU)):
        rng = _rng(seed, 2, r, k)
        spec = relabel(general_slot(k), rng, fresh_weights=False)
        s = _solver_seed(rng)
        ops = (Op("solve", "sa+greedy", s, **GENERAL_SA), Op("solve", "tabu+greedy", s))
        out.append(Instance(f"gen-r{r}-{k}", spec, ops, timed=k != REVERSED_REF_SLOT))
    return out


def _turns(rng: np.random.Generator, graph: dict, count: int) -> list:
    arcs = [(e[0], e[1]) for e in graph.get("undirected", [])]
    arcs += [(e[1], e[0]) for e in graph.get("undirected", [])]
    arcs += [(d[0], d[1]) for d in graph.get("directed", [])]
    turns = [[list(a), list(b)] for a in arcs for b in arcs if a[1] == b[0] and b[1] != a[0]]
    picks = rng.choice(len(turns), size=min(count, len(turns)), replace=False)
    return [turns[i] + [int(rng.integers(1, 4))] for i in sorted(picks)]


def export_spec(rng: np.random.Generator, shape) -> dict:
    n_v, n_e, ends, extra = shape
    spec = single_spec(rng, n_v, n_e, ends, rural=extra == "rural", windy=True)
    graph = spec["graph"]
    if extra == "turns":
        spec["turn_penalties"] = _turns(rng, graph, 6)
    elif extra == "service":
        refs = edge_entries(graph)
        first, second = rng.choice(len(refs), size=2, replace=False)
        spec["service"] = True
        spec["hierarchy"] = [[refs[first], refs[second]]]
        spec["i_max"] = n_e + 4
    elif extra == "team":
        spec.pop("stop", None)
        spec["postmen"] = {"count": 2, "capacities": [total_weight(graph)] * 2}
        spec["forbid_edge_collisions"] = True
        spec["i_max"] = n_e
    return spec


@functools.cache
def export_slot(k: int) -> dict:
    """Structure of qubo-export slot k, the same for every seed."""
    return export_spec(_rng(TOPOLOGY_SEED, 3, k), EXPORT_SHAPES[k])


def qubo_export(seed: int, r: int) -> list[Instance]:
    return [
        Instance(f"exp-r{r}-{k}", relabel(export_slot(k), _rng(seed, 3, r, k), fresh_weights=True),
                 (Op("export"),))
        for k in range(len(EXPORT_SHAPES))
    ]


def triangle_spec(rng: np.random.Generator) -> dict:
    """Closed windy triangle with a four-step budget: a fixed structure, so its
    QUBO size (and the brute-force table) is the same for every seed."""
    edges = []
    for a, b in ((0, 1), (1, 2), (0, 2)):
        if rng.random() < 0.5:
            a, b = b, a
        edges.append([a, b, int(rng.integers(1, 10)), int(rng.integers(1, 10))])
    v = int(rng.integers(0, 3))
    return {"graph": {"vertices": [0, 1, 2], "undirected": edges},
            "start": v, "stop": v, "i_max": 4}


@functools.cache
def exact_slot(k: int) -> dict:
    """Structure of exact-certify spec slot k, the same for every seed."""
    n_v, n_e, ends = EXACT_SPECS[k]
    return _feasible_spec(_rng(TOPOLOGY_SEED, 5, k), n_v, n_e, ends, False, True, n_e + 3)


def exact_certify(seed: int, r: int) -> list[Instance]:
    out = []
    for odd in EXACT_ODD:
        doc = pairing_graph(_rng(seed, 4, r, odd), odd)
        out.append(Instance(f"orc-r{r}-k{odd}", doc, (Op("oracle"),)))
    for k in range(len(EXACT_SPECS)):
        spec = relabel(exact_slot(k), _rng(seed, 5, r, k), fresh_weights=True)
        out.append(Instance(f"orc-r{r}-s{k}", spec, (Op("oracle"),)))
    for k in range(EXACT_BRUTE):
        rng = _rng(seed, 6, r, k)
        doc = triangle_spec(rng)
        out.append(Instance(f"bru-r{r}-{k}", doc,
                            (Op("solve", "brute", _solver_seed(rng), force=True),)))
    return out


# workload -> (round generator, rounds): a run runs that many rounds (at
# --seconds 25, about two thirds of the run for general-retune, whose
# latencies vary most with the seed, and a fifth to a half for the others),
# then runs the same instances again in turn until its time is up.
WORKLOADS = {
    "pairing-sa": (pairing_sa, 1),
    "general-retune": (general_retune, 12),
    "qubo-export": (qubo_export, 8),
    "exact-certify": (exact_certify, 8),
}
