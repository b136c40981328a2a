"""Turn costs, service/traversal splits, ordering, and postman teams.

Each extension adds a constraint block to the same step-indexed QUBO; the
decoded walks show the effect directly.
"""

import postqubo as pq
from postqubo.general import compile_general

sampler = pq.make_sampler("sa+greedy", seed=11, reads=400, sweeps=400)


def solve(spec, force_brute=False):
    compiled = compile_general(spec)
    qubo = compiled.qubo()
    report = pq.brute_force(qubo) if (force_brute or qubo.n <= 22) else sampler(qubo)
    return compiled, compiled.decode(report.best_assignment)


def show(tag, decoded):
    print(tag)
    for p, walk in enumerate(decoded.walks):
        path = " ".join(f"{s.frm}->{s.to}[{s.mode[0]}]" for s in walk.steps) or "(rests)"
        print(f"  postman {p}: weight {walk.weight}  {path}")
    print(f"  total {decoded.objective_weight}, turn extra {decoded.turn_extra}, "
          f"valid={decoded.is_valid}\n")


# 1. turning costs: u-turns on the square get taxed, the tour reroutes
square = pq.Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
plain = pq.ProblemSpec(graph=square, start=0, stop=0, i_max=3)
_, decoded = solve(plain)
show("directed triangle, closed at 0:", decoded)

taxed = pq.ProblemSpec(
    graph=square, i_max=3,
    turn_penalties=(pq.TurnPenalty(0, 1, 2, 5.0),),
)
_, decoded = solve(taxed)
show("same tour but the 0->1->2 turn costs 5 extra (open, so it rotates away):", decoded)

# 2. service vs traversal: servicing is slow, driving through is quick.
# Note the filler traversal: service steps cannot pad the preset step
# budget, so the cheapest extra move rounds the walk out.
path_graph = pq.Graph.build(range(3), undirected=[(0, 1, 4), (1, 2, 4)])
service = pq.ProblemSpec(
    graph=path_graph,
    service=pq.ServiceMode(
        traverse_overrides=tuple((a.tail, a.head, a.ref.kind, 1.0) for a in path_graph.arcs())
    ),
    i_max=3,
)
_, decoded = solve(service)
show("service both pipes (cost 4 each), traversals cost 1:", decoded)

# 3. hierarchy: pick up the mis-delivered parcel before dropping it off
ring = pq.Graph.build(range(3), directed=[(0, 1, 1), (1, 2, 1), (2, 0, 1)])
pickup, dropoff = pq.EdgeRef("d", 1, 2), pq.EdgeRef("d", 0, 1)
ordered = pq.ProblemSpec(
    graph=ring, service=pq.ServiceMode(), hierarchy=((pickup, dropoff),), i_max=4
)
_, decoded = solve(ordered)
services = [f"{s.frm}->{s.to}" for s in decoded.single_walk().steps if s.mode == "service"]
show(f"service {pickup} before {dropoff} (order came out {services}):", decoded)

# 4. two postmen, no shared arcs, capped workloads
street = pq.Graph.build(range(3), undirected=[(0, 1, 2), (1, 2, 3)])
team = pq.ProblemSpec(
    graph=street, start=1,
    postmen=pq.Postmen(count=2, capacities=(3, 3)),
    forbid_edge_collisions=True,
    i_max=2,
)
_, decoded = solve(team, force_brute=False)
show("two postmen from the depot at 1, capacity 3 each, no collisions:", decoded)
