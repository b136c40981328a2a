"""Closed undirected route inspection, end to end.

A six-vertex neighborhood has two dead-end-ish corners (odd-degree vertices
3 and 5).  Any closed walk over every street must re-use some street, and the
cheapest re-use is the shortest path between the odd corners.  We encode that
pairing choice as a one-variable QUBO, solve it exactly, and expand the
answer into the full patrol route.
"""

import postqubo as pq

graph = pq.Graph.build(
    range(6),
    undirected=[(3, 2, 5), (2, 1, 1), (1, 0, 1), (0, 5, 2), (5, 4, 5), (4, 2, 5), (5, 2, 4)],
)

odd = sorted(pq.odd_degree_vertices(graph))
print(f"odd-degree vertices: {odd}")

sp = pq.shortest_paths(graph)
print(f"cheapest reconnection: {sp.path(odd[0], odd[1])} at cost {sp.distance(odd[0], odd[1])}")

compiled = pq.compile_pairing(graph, p=10.0)
qubo, registry = compiled.qubo(), compiled.registry
print(f"pairing QUBO has {len(registry)} variable(s): {[str(l) for l in registry]}")
print(f"  energy with the pair skipped:  {qubo.energy([0])}")
print(f"  energy with the pair matched:  {qubo.energy([1])}")

report = pq.brute_force(qubo)
pairing = pq.decode_pairing(report.best_assignment, registry)
print(f"sampler picked pairing {pairing.sorted_pairs()} at energy {report.best_energy}")

route = pq.augment_and_route(graph, pairing)
walk = route.single_walk()
print(f"route weight {route.objective_weight} over {len(walk.steps)} street traversals:")
print("  " + " -> ".join(str(v) for v in walk.vertices_visited()))

oracle_pairing, oracle_added = pq.exact_pairing_oracle(graph)
assert oracle_pairing == pairing and route.objective_weight == 23 + oracle_added
print(f"exhaustive pairing oracle agrees: added weight {oracle_added}")
