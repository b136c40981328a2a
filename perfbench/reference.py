"""Reference optima computed by the benchmark itself, independent of postqubo.

They read the same JSON the program reads, but share no code with it:

* pairing graphs: Floyd-Warshall distances plus enumeration of every perfect
  pairing of the odd-degree vertices;
* single-postman specs: a layered search over (vertex, covered set, step)
  states, vectorised over the covered sets.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf


def _arcs(graph: dict) -> list[tuple[int, int, float, tuple]]:
    """(tail, head, weight, edge identity) for every traversal direction."""
    index = {repr(v): i for i, v in enumerate(graph["vertices"])}
    arcs = []
    for e in graph.get("undirected", []):
        a, b = index[repr(e[0])], index[repr(e[1])]
        w_ab = float(e[2])
        w_ba = float(e[3]) if len(e) == 4 else w_ab
        ident = ("u", min(a, b), max(a, b))
        arcs += [(a, b, w_ab, ident), (b, a, w_ba, ident)]
    for d in graph.get("directed", []):
        a, b = index[repr(d[0])], index[repr(d[1])]
        arcs.append((a, b, float(d[2]), ("d", a, b)))
    return arcs


def pairing_optimum(graph: dict) -> float:
    """Closed covering walk weight: every edge once plus the cheapest pairing."""
    n = len(graph["vertices"])
    dist = [[0.0 if i == j else INF for j in range(n)] for i in range(n)]
    degree = [0] * n
    total = 0.0
    for a, b, w, ident in _arcs(graph):
        dist[a][b] = min(dist[a][b], w)
        if a < b:
            degree[a] += 1
            degree[b] += 1
            total += w
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if dist[i][k] + dist[k][j] < dist[i][j]:
                    dist[i][j] = dist[i][k] + dist[k][j]
    odd = [v for v in range(n) if degree[v] % 2]

    def best(rest: tuple[int, ...]) -> float:
        if not rest:
            return 0.0
        first = rest[0]
        return min(
            dist[first][rest[k]] + best(rest[1:k] + rest[k + 1:])
            for k in range(1, len(rest))
        )

    return total + best(tuple(odd))


UNSUPPORTED_KEYS = ("turn_penalties", "service", "hierarchy", "postmen")


def walk_optimum(spec: dict) -> float:
    """Minimum weight of a walk of at most i_max steps covering the required
    edges and honouring the endpoints; inf when none exists."""
    for key in UNSUPPORTED_KEYS:
        if spec.get(key):
            raise ValueError(f"the reference search does not model {key!r}")
    graph = spec["graph"]
    index = {repr(v): i for i, v in enumerate(graph["vertices"])}
    n = len(index)
    arcs = _arcs(graph)
    edges = sorted({ident for *_, ident in arcs})
    required = spec.get("required", "all")
    if required == "all":
        req = edges
    else:
        req = []
        for a, b, kind in required:
            a, b = index[repr(a)], index[repr(b)]
            req.append(("u", min(a, b), max(a, b)) if kind == "u" else ("d", a, b))
    bit = {ident: 1 << k for k, ident in enumerate(sorted(set(req)))}
    full = (1 << len(bit)) - 1
    i_max = int(spec.get("i_max") or 2 * len(edges))
    start = index[repr(spec["start"])] if spec.get("start") is not None else None
    stop = index[repr(spec["stop"])] if spec.get("stop") is not None else None
    ends = [stop] if stop is not None else list(range(n))

    masks = np.arange(full + 1)
    dist = np.full((n, full + 1), INF)
    if start is None:
        dist[:, 0] = 0.0
    else:
        dist[start, 0] = 0.0
    best = INF
    for _ in range(i_max):
        nxt = np.full_like(dist, INF)
        for tail, head, w, ident in arcs:
            src = dist[tail] + w
            b = bit.get(ident)
            if b is None:
                np.minimum(nxt[head], src, out=nxt[head])
            else:
                has = masks[(masks & b) != 0]
                cand = np.minimum(src[has], src[has ^ b])
                nxt[head, has] = np.minimum(nxt[head, has], cand)
        dist = nxt
        best = min(best, float(dist[ends, full].min()))
    return best
