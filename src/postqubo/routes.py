"""Decoded route containers shared by the pairing and general pipelines."""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class WalkStep:
    frm: int
    to: int
    mode: str = "plain"
    kind: str | None = None  # edge kind, "u" or "d"; None when not known


@dataclass(frozen=True)
class ValidityReport:
    """One flag per constraint family, matching the QUBO penalty semantics.

    required_covered and capacity_ok include the slack-register identities,
    so each flag is true exactly when the matching constraint value is zero.
    """

    one_edge_per_step: bool = True
    contiguous: bool = True
    required_covered: bool = True
    endpoints_ok: bool = True
    hierarchy_ok: bool = True
    collisions_ok: bool = True
    capacity_ok: bool = True

    @property
    def all_valid(self) -> bool:
        return all(getattr(self, f.name) for f in fields(self))

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def failures(self) -> list[str]:
        return [f.name for f in fields(self) if not getattr(self, f.name)]


@dataclass(frozen=True)
class RouteWalk:
    """One postman's walk: real moves only, padding and rest steps stripped."""

    steps: tuple[WalkStep, ...]
    weight: float

    @property
    def closed(self) -> bool:
        return bool(self.steps) and self.steps[0].frm == self.steps[-1].to

    def vertices_visited(self) -> list[int]:
        if not self.steps:
            return []
        return [self.steps[0].frm] + [s.to for s in self.steps]


@dataclass(frozen=True)
class RouteSolution:
    """Per-postman walks plus the objective value and a validity report.

    objective_weight sums the walk weights; turn_extra collects matched turn
    bonus weights separately.  `ProblemSpec.route` builds both from the walks.
    """

    walks: tuple[RouteWalk, ...]
    objective_weight: float
    validity: ValidityReport = field(default_factory=ValidityReport)
    turn_extra: float = 0.0

    @property
    def is_valid(self) -> bool:
        return self.validity.all_valid

    def single_walk(self) -> RouteWalk:
        if len(self.walks) != 1:
            raise ValueError(f"expected a single walk, have {len(self.walks)}")
        return self.walks[0]
