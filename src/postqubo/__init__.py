"""Postman-problem variants as QUBOs: compile, sample, decode, certify."""

import os

# one BLAS thread unless the user chose otherwise: the products here are
# small, and a thread pool on them is slower; set before numpy is imported,
# as it is read only then
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (
    AsymmetricUndirectedWeights,
    DirectedEdgesPresent,
    IndexOutOfRange,
    InfeasibleEndpoints,
    InputError,
    InvalidGraph,
    LengthMismatch,
    NoEulerianCircuit,
    NoOddVertices,
    NotPerfectPairing,
    NotStronglyConnected,
    NoValidSolution,
    NonUndirectedGraph,
    PostquboError,
    SearchBudgetExceeded,
    SpecError,
    TooLarge,
    TooManyOddVertices,
    UnsupportedCombination,
)
from .general import CompiledGeneral, compile_general, default_penalties
from .graphs import (
    DirectedEdge,
    EdgeRef,
    Graph,
    UndirectedEdge,
    is_strongly_connected,
    odd_degree_vertices,
    shortest_paths,
)
from .oracle import euler_shortcut, exact_walk_oracle
from .pairing import (
    Pairing,
    augment_and_route,
    compile_pairing,
    decode_pairing,
    default_pairing_penalty,
    exact_pairing_oracle,
)
from .problem import Postmen, ProblemSpec, ServiceMode, TurnPenalty
from .qubo import (
    CapacitySlack,
    CompiledProblem,
    EdgeStep,
    PairVar,
    PenaltyConfig,
    Qubo,
    RequiredSlack,
    RestVar,
    VariableRegistry,
    format_qubo_text,
    format_registry_text,
)
from .routes import RouteSolution, RouteWalk, ValidityReport, WalkStep
from .solvers import (
    SolveReport,
    brute_force,
    greedy_descent,
    greedy_post,
    make_sampler,
    simulated_annealing,
    solve_with_retune,
    tabu_search,
)

__version__ = "0.1.0"
