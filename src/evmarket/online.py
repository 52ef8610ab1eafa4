"""Periodic market clearing with immutable prior commitments.

At each clearing point the accumulated reports are optimized on top of
every previously committed slot, which enters the market as station load
(Instance.committed), then priced with the chosen mechanism scoped to the
newly admitted agents.  Committed slots are never touched by later
clearings, and committed agents are no part of them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .allocator import STATUS_OPTIMAL, STATUS_TIME_LIMITED, build_model, evaluate_objective, solve_exact
from .model import Allocation, Instance, PricingOutcome
from .pricing import DEFAULT_INCR, MECHANISMS, Solver, price
from .transport import remaining_request


@dataclass(frozen=True)
class ClearingSchedule:
    """Ordered clearing times; a final clearing at the horizon end is allowed."""

    points: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("at least one clearing point is required")
        if (bad := next((p for p in self.points if type(p) is not int), None)) is not None:
            raise ValueError(f"clearing point {bad!r} must be an integer")  # a bool is not one
        if any(b <= a for a, b in zip(self.points, self.points[1:])):
            raise ValueError("clearing points must be strictly increasing")

    def check_horizon(self, horizon: int) -> None:
        """Raise ValueError unless every point lies in [1, horizon], the times a market can clear."""
        if not 1 <= self.points[0] <= self.points[-1] <= horizon:
            raise ValueError(f"clearing points must lie in [1, {horizon}]")

    @staticmethod
    def evenly(horizon: int, count: int) -> "ClearingSchedule":
        """count clearings spread over (0, horizon]; for 1 <= count <= horizon
        the rounded points are always count distinct times, all >= 1."""
        if not 1 <= count <= horizon:
            raise ValueError(f"clearing count must lie in [1, {horizon}], got {count}")
        return ClearingSchedule(tuple(round(horizon * (k + 1) / count) for k in range(count)))


@dataclass
class ClearingResult:
    time: int
    eligible: list[str]
    newly_committed: list[str]
    commitments_added: frozenset[tuple[str, str, int]]
    outcome: Optional[PricingOutcome]
    status: str  # solve status of this clearing, or "no-op" when nobody was eligible


@dataclass
class OnlineResult:
    clearings: list[ClearingResult]
    allocation: Allocation  # combined committed allocation on the full instance
    outcome: PricingOutcome  # merged payments/utilities with global accounting
    status: str  # optimal when every clearing was proven optimal or a no-op


def run_online(
    instance: Instance,
    clearing_schedule: ClearingSchedule,
    mechanism: str = "vcg",
    solver: Solver = solve_exact,
    incr: float = DEFAULT_INCR,
    carryover: bool = False,
) -> OnlineResult:
    """Algorithm: for each clearing point, gather the agents that reported
    since the previous one (report time = start_time), load the stations
    with all existing commitments, solve from the clearing time onward, and
    price the new winners.  With carryover=True, agents left out at their
    first clearing stay eligible while their remaining window still fits
    their demand; the default is single-shot participation.  A VCG clearing
    whose solve is not proven optimal raises CounterfactualNotOptimal.  The
    result is read from one ledger, written once as each agent commits.
    """
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    clearing_schedule.check_horizon(instance.time_grid.horizon_len)

    # the ledger, each entry written when its agent commits
    committed: dict[str, str] = {}  # agent -> station, in commit order
    schedule: frozenset[tuple[str, str, int]] = frozenset()
    payments = dict.fromkeys((r.ev.id for r in instance.requests), 0)
    utilities = dict(payments)
    proven = True  # every clearing so far proven optimal or a no-op
    clearings: list[ClearingResult] = []
    pool: list[str] = []
    prev_point = 0

    for t_p in clearing_schedule.points:
        new_ids = [
            r.ev.id
            for r in instance.requests
            if prev_point <= r.ev.start_time < t_p and r.ev.id not in committed
        ]
        carried = [aid for aid in pool if aid not in committed] if carryover else []
        pool = carried + new_ids
        # the past is frozen: each pool agent's windows cut to start at t_p
        remaining = [remaining_request(instance.request(aid), t_p) for aid in pool]
        eligible_requests = [req for req in remaining if req.feasible_stations]
        eligible = [req.ev.id for req in eligible_requests]
        prev_point = t_p
        if not eligible:
            clearings.append(ClearingResult(t_p, [], [], frozenset(), None, "no-op"))
            continue

        model = build_model(dataclasses.replace(instance, requests=tuple(eligible_requests),
                                                committed=schedule))
        result = solver(model)
        allocation = result.allocation
        newly_assigned = [aid for aid in eligible if allocation.assigned.get(aid) is not None]
        outcome = price(mechanism, model, result, incr, solver=solver, agent_ids=newly_assigned)
        # only agents that actually charge become commitments
        committed_now = [aid for aid in newly_assigned if aid in outcome.charged]
        for aid in committed_now:
            committed[aid] = allocation.assigned[aid]
            payments[aid], utilities[aid] = outcome.payments[aid], outcome.utilities[aid]
        added = frozenset(tr for tr in allocation.schedule if tr[0] in outcome.charged)
        schedule |= added
        proven &= result.status == STATUS_OPTIMAL
        clearings.append(ClearingResult(t_p, eligible, committed_now, added, outcome, result.status))

    assigned = {aid: committed.get(aid) for aid in payments}
    combined = Allocation(assigned, schedule, evaluate_objective(instance, assigned, schedule))
    outcome = PricingOutcome.settle(instance, schedule, payments, utilities, committed.keys())
    return OnlineResult(clearings, combined, outcome, STATUS_OPTIMAL if proven else STATUS_TIME_LIMITED)
