"""Payment rules over a solved allocation: fixed-price (Coop) and VCG.

All payments are exact fixed-point integers.  The Coop markup `incr` is
interpreted in steps of 0.1% and applied with deterministic half-up
rounding; VCG payments are differences of exact integer welfare values, so
counterfactual optima must be proven, not time-limited incumbents.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from .allocator import DEFAULT_TIME_LIMIT, STATUS_OPTIMAL, SolveResult, build_model, solve_exact
from .model import Allocation, Instance, Money, PricingOutcome, imbalance_cost

Solver = Callable[[Instance], SolveResult]


class CounterfactualNotOptimal(Exception):
    """A VCG counterfactual solve ended without proof of optimality; the
    resulting payments would be unsound and are not reported."""


class NoBreakeven(Exception):
    """The Coop markup never turned the budget positive within incr <= 1.0."""


def default_solver(instance: Instance, time_limit: float = DEFAULT_TIME_LIMIT) -> SolveResult:
    return solve_exact(build_model(instance), time_limit=time_limit)


def _agent_elec_cost(instance: Instance, allocation: Allocation, agent_id: str) -> Money:
    return sum(
        instance.station(sid).slot_elec_cost
        for aid, sid, t in allocation.schedule
        if aid == agent_id
    )


def _coop_price(energy_demand: int, elec_cost: Money, incr_mil: int) -> Money:
    raw = energy_demand * elec_cost * (1000 + incr_mil)
    return (raw + 500) // 1000  # half-up in fixed point


def budget(instance: Instance, outcome: PricingOutcome) -> Money:
    """Mechanism cash position: payments received minus electricity bought
    minus the imbalance penalty."""
    return (
        sum(outcome.payments.values())
        - sum(outcome.elec_costs.values())
        - outcome.total_imbalance_cost
    )


def _finalize(
    payments: dict[str, Money],
    utilities: dict[str, Money],
    charged: frozenset[str],
    elec_costs: dict[str, Money],
    total_imbalance: Money,
) -> PricingOutcome:
    return PricingOutcome(
        payments=payments,
        utilities=utilities,
        charged=charged,
        elec_costs=elec_costs,
        total_imbalance_cost=total_imbalance,
        budget=sum(payments.values()) - sum(elec_costs.values()) - total_imbalance,
    )


def price_coop(
    instance: Instance,
    allocation: Allocation,
    incr: float,
    agent_ids: Optional[Iterable[str]] = None,
) -> PricingOutcome:
    """Cost-plus pricing: energy demand times electricity cost times (1+incr).

    The price ignores valuations, so it can exceed one; such agents decline,
    their slots stay unallocated (no re-optimization), and the imbalance is
    re-measured on the thinned schedule.  agent_ids limits pricing to the
    given agents (used by online clearings); everyone else keeps payment 0.
    """
    incr_mil = round(incr * 1000)
    scope = set(agent_ids) if agent_ids is not None else {
        aid for aid, sid in allocation.assigned.items() if sid is not None
    }
    payments: dict[str, Money] = {}
    utilities: dict[str, Money] = {}
    charged = set()
    dropped = set()
    for aid in sorted(scope):
        sid = allocation.assigned.get(aid)
        if sid is None:
            payments[aid] = 0
            utilities[aid] = 0
            continue
        req = instance.request(aid)
        price = _coop_price(req.ev.energy_demand, instance.station(sid).elec_cost, incr_mil)
        val = req.access(sid).valuation
        if price > val:
            dropped.add(aid)
            payments[aid] = 0
            utilities[aid] = 0
        else:
            charged.add(aid)
            payments[aid] = price
            utilities[aid] = val - price
    kept_schedule = frozenset(tr for tr in allocation.schedule if tr[0] not in dropped)
    kept_assigned = {
        aid: (None if aid in dropped else sid) for aid, sid in allocation.assigned.items()
    }
    kept = Allocation(assigned=kept_assigned, schedule=kept_schedule, objective=allocation.objective)
    _, total_imb = imbalance_cost(
        kept, instance.stations, instance.time_grid, instance.imbalance_unit_cost
    )
    elec = {aid: _agent_elec_cost(instance, kept, aid) for aid in charged}
    return _finalize(payments, utilities, frozenset(charged), elec, total_imb)


def price_vcg(
    instance: Instance,
    allocation: Allocation,
    solver: Optional[Solver] = None,
    agent_ids: Optional[Iterable[str]] = None,
) -> PricingOutcome:
    """Each winner pays its externality: the others' best welfare without it
    minus their welfare with it.  Requires allocation to be a proven optimum;
    every counterfactual solve must also prove optimality.  Payments can be
    negative when an EV's charging reduces the imbalance penalty.
    """
    solve = solver if solver is not None else default_solver
    scope = set(agent_ids) if agent_ids is not None else {
        aid for aid, sid in allocation.assigned.items() if sid is not None
    }
    pinned_agents = set(instance.pinned.assigned) if instance.pinned else set()
    payments: dict[str, Money] = {}
    utilities: dict[str, Money] = {}
    charged = set()
    for aid in sorted(scope):
        sid = allocation.assigned.get(aid)
        if sid is None or aid in pinned_agents:
            payments[aid] = 0
            utilities[aid] = 0
            continue
        counterfactual = instance.without_agent(aid)
        result = solve(counterfactual)
        if result.status != STATUS_OPTIMAL:
            raise CounterfactualNotOptimal(
                f"counterfactual solve without {aid} ended with status {result.status}"
            )
        val = instance.request(aid).access(sid).valuation
        payments[aid] = result.allocation.objective - (allocation.objective - val)
        utilities[aid] = val - payments[aid]
        charged.add(aid)
    _, total_imb = imbalance_cost(
        allocation, instance.stations, instance.time_grid, instance.imbalance_unit_cost
    )
    elec = {aid: _agent_elec_cost(instance, allocation, aid) for aid in charged}
    return _finalize(payments, utilities, frozenset(charged), elec, total_imb)


def calibrate_incr(
    scenario_family: Iterable[Instance],
    step: float = 0.001,
    solver: Optional[Solver] = None,
) -> float:
    """Smallest Coop markup at which each scenario stops making losses,
    averaged over the family.  Starts at 0.1% and walks upward by `step`."""
    if step <= 0:
        raise ValueError("step must be > 0")
    solve = solver if solver is not None else default_solver
    step_mil = max(1, round(step * 1000))
    stops = []
    for instance in scenario_family:
        allocation = solve(instance).allocation
        incr_mil = 1
        while True:
            outcome = price_coop(instance, allocation, incr_mil / 1000)
            if outcome.budget > 0:
                stops.append(incr_mil / 1000)
                break
            incr_mil += step_mil
            if incr_mil > 1000:
                raise NoBreakeven(
                    "budget never turned positive for a scenario within incr <= 1.0"
                )
    return sum(stops) / len(stops)
