"""The time-indexed compiler across endpoint / rural / windy variants.

Every variant below compiles to a QUBO whose variables say "traverse this
arc at step i".  We brute-force each QUBO, decode the ground state back into
a walk, and certify it against the exhaustive walk oracle.
"""

import postqubo as pq
from postqubo.general import compile_general

mixed = pq.Graph.build(
    range(4),
    undirected=[(0, 1, 2), (1, 2, 3)],
    directed=[(2, 3, 1), (3, 0, 2)],
)
windy = pq.Graph.build(range(3), undirected=[(0, 1, 1, 6), (1, 2, 2, 2), (0, 2, 4, 1)])

cases = {
    "closed at 0, mixed graph": pq.ProblemSpec(graph=mixed, start=0, stop=0, i_max=6),
    "open, mixed graph": pq.ProblemSpec(graph=mixed, i_max=5),
    "start fixed at 2": pq.ProblemSpec(graph=mixed, start=2, i_max=5),
    "rural: only the directed arcs": pq.ProblemSpec(
        graph=mixed,
        required_edges=frozenset([pq.EdgeRef("d", 2, 3), pq.EdgeRef("d", 3, 0)]),
        i_max=4,
    ),
    "windy triangle (direction-dependent)": pq.ProblemSpec(graph=windy, i_max=4),
}

annealer = pq.make_sampler("sa+greedy", seed=7, reads=300, sweeps=400)

for name, spec in cases.items():
    compiled = compile_general(spec)
    qubo = compiled.qubo()  # at compiled.penalties, the spec's default penalties
    # exact enumeration when it fits, annealing otherwise
    report = pq.brute_force(qubo) if qubo.n <= 24 else annealer(qubo)
    decoded = compiled.decode(report.best_assignment)
    oracle = pq.exact_walk_oracle(spec)
    walk = decoded.single_walk()
    path = " -> ".join(str(v) for v in walk.vertices_visited())
    print(f"{name}")
    print(f"  encoding={compiled.encoding}, {len(compiled.registry)} variables, "
          f"solver={report.solver_name}")
    print(f"  best walk weight {decoded.objective_weight} (valid={decoded.is_valid}): {path}")
    print(f"  oracle optimum {oracle.objective_weight}")
    assert decoded.is_valid and decoded.objective_weight == oracle.objective_weight
    print()

print("every solution matched the exhaustive oracle")
