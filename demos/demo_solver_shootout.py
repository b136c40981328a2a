"""Sampler comparison on a batch of pairing instances.

Brute force gives the ground truth; the heuristics are scored by how often
they land on it and how far off they are when they miss.  Greedy descent
alone tends to strand in local minima; annealing or tabu plus a greedy
polish is reliably exact at this scale.
"""

import numpy as np

import postqubo as pq

rng = np.random.default_rng(2024)

instances = []
while len(instances) < 10:
    n = int(rng.integers(7, 10))
    extra = int(rng.integers(1, n))
    perm = list(rng.permutation(n))
    edges = {(min(a, b), max(a, b)) for a, b in zip(perm, perm[1:])}
    pool = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    rng.shuffle(pool)
    edges |= set(pool[:extra])
    g = pq.Graph.build(range(n), undirected=[(a, b, int(rng.integers(1, 9))) for a, b in sorted(edges)])
    odd = pq.odd_degree_vertices(g)
    if len(odd) == 6:
        instances.append(g)

qubos = []
for g in instances:
    qubo = pq.compile_pairing(g, p=pq.default_pairing_penalty(g)).qubo()
    qubos.append((qubo, pq.brute_force(qubo).best_energy))

solvers = {
    "greedy (1 start)": dict(name="greedy", starts=1),
    "greedy (32 starts)": dict(name="greedy", starts=32),
    "sa+greedy": dict(name="sa+greedy", reads=100, sweeps=300),
    "tabu+greedy": dict(name="tabu+greedy", iterations=800),
}

print(f"{'solver':<20} {'exact':>7} {'mean gap':>9}")
for label, params in solvers.items():
    name = params.pop("name")
    exact = 0
    gaps = []
    for k, (qubo, ground) in enumerate(qubos):
        report = pq.make_sampler(name, seed=k, **params)(qubo)
        gaps.append(report.best_energy - ground)
        exact += report.best_energy == ground
    print(f"{label:<20} {exact:>4}/10 {np.mean(gaps):>9.2f}")
