"""Exception hierarchy shared by all postqubo modules."""

from __future__ import annotations


class PostquboError(Exception):
    """Base class for every error raised by this package.

    `exit_code` is the status `postqubo` exits with when the error ends a command.
    """

    exit_code = 1  # input error; 2 is no valid solution, 3 an oracle limit


# --- graph layer ---------------------------------------------------------

class GraphError(PostquboError):
    pass


class InvalidGraph(GraphError):
    """Graph violates a structural invariant (self loop, bad weight, ...)."""


class NonUndirectedGraph(GraphError):
    """Operation requires a purely undirected graph but directed arcs exist."""


class NotStronglyConnected(GraphError):
    """Some ordered vertex pair has no connecting walk."""


class NoEulerianCircuit(GraphError):
    """Even-degree / balance criterion fails, no Euler circuit exists."""


# --- QUBO layer ----------------------------------------------------------

class QuboError(PostquboError):
    pass


class LengthMismatch(QuboError):
    """Assignment length differs from the QUBO's variable count."""


class IndexOutOfRange(QuboError):
    """Variable index outside [0, n)."""


# --- pairing pipeline ----------------------------------------------------

class PairingError(PostquboError):
    pass


class NoOddVertices(PairingError):
    """Graph is already Eulerian; the pairing QUBO would be empty."""


class DirectedEdgesPresent(PairingError):
    """Pairing pipeline accepts undirected graphs only."""


class AsymmetricUndirectedWeights(PairingError):
    """Pairing pipeline requires w_ab == w_ba on every undirected edge."""


class NotPerfectPairing(PairingError):
    """Decoded bits do not cover every odd vertex exactly once."""


class TooManyOddVertices(PairingError):
    """The pairing oracle's memoized subset DP is capped at 12 odd vertices."""

    exit_code = 3


# --- general compiler ----------------------------------------------------

class SpecError(PostquboError):
    """ProblemSpec violates one of its invariants."""


class InfeasibleEndpoints(PostquboError):
    """Start/stop pruning emptied the variable set of some step."""


class UnsupportedCombination(PostquboError):
    """Variant combination the compiler does not model."""


# --- solvers / oracles ---------------------------------------------------

class SolveError(PostquboError):
    pass


class TooLarge(SolveError):
    """Instance exceeds an exhaustive solver's hard size cap."""

    exit_code = 3


class NoValidSolution(SolveError):
    """Penalty retuning exhausted without producing a valid decode."""

    exit_code = 2


class SearchBudgetExceeded(SolveError):
    """The walk oracle expanded more search states than its node limit."""

    exit_code = 3


class InputError(PostquboError):
    """Malformed or inconsistent input file/document."""
