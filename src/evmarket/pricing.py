"""Payment rules over a solved allocation: fixed-price (Coop) and VCG.

All payments are exact fixed-point integers.  The Coop markup `incr` is a
whole number of 0.1% steps (thousandths) and each fee is rounded half-up;
VCG payments are differences of exact integer welfare values, so
counterfactual optima must be proven, not time-limited incumbents.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import partial
from typing import Callable, Iterable, Optional

from .allocator import STATUS_OPTIMAL, IpModel, SolveResult, build_model, solve_exact
from .model import Allocation, Instance, Money, PricingOutcome, cell_loads, welfare_without

# solver(model), or solver(model, incumbent=allocation, without=aid) for the VCG
# counterfactual: model.instance's market without aid, starting from a feasible allocation
Solver = Callable[..., SolveResult]

MECHANISMS = ("coop", "vcg")
DEFAULT_INCR = 0.025  # Coop markup, a fraction of the electricity cost


class CounterfactualNotOptimal(Exception):
    """A welfare value VCG needs, that of the priced allocation or of a
    counterfactual without one winner, or an allocation calibrate_incr
    prices, was not proven optimal; the resulting payments or markup would be
    unsound and are not reported."""


class NoBreakeven(Exception):
    """The Coop markup never turned the budget positive within incr <= 1.0."""


def _proven(result: SolveResult, what: str, why: str = "") -> None:
    """Raise CounterfactualNotOptimal unless result is a proven optimum."""
    if result.status != STATUS_OPTIMAL:
        raise CounterfactualNotOptimal(f"{what} ended with status {result.status}{why}")


def thousandths(name: str, value: float, least: int) -> int:
    """value as a whole number of thousandths, at least least/1000, float
    noise aside (0.007 * 1000 is 7.000000000000001); otherwise ValueError,
    worded "<name> <rule>"."""
    mils = value * 1000
    if not (math.isfinite(mils) and round(mils) >= least and math.isclose(mils, round(mils))):
        raise ValueError(f"{name} must be a whole number of thousandths >= {least / 1000:g}, got {value}")
    return round(mils)


def _coop_price(energy_demand: int, elec_cost: Money, incr_mil: int) -> Money:
    raw = energy_demand * elec_cost * (1000 + incr_mil)
    return (raw + 500) // 1000  # half-up in fixed point


def _scope(allocation: Allocation, agent_ids: Optional[Iterable[str]]) -> list[str]:
    """The agents to price, in id order: agent_ids, or every assigned agent."""
    if agent_ids is None:
        agent_ids = (aid for aid, sid in allocation.assigned.items() if sid is not None)
    return sorted(set(agent_ids))


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
    An incr that is not a whole number of thousandths >= 0 raises ValueError.
    """
    incr_mil = thousandths("incr", incr, 0)
    payments: dict[str, Money] = {}
    utilities: dict[str, Money] = {}
    charged = set()
    dropped = set()
    for aid in _scope(allocation, agent_ids):
        payments[aid] = utilities[aid] = 0
        sid = allocation.assigned.get(aid)
        if sid is None:
            continue
        req = instance.request(aid)
        fee = _coop_price(req.ev.energy_demand, instance.station(sid).elec_cost, incr_mil)
        val = req.access(sid).valuation
        if fee > val:
            dropped.add(aid)
        else:
            charged.add(aid)
            payments[aid], utilities[aid] = fee, val - fee
    kept = frozenset(tr for tr in allocation.schedule if tr[0] not in dropped)
    return PricingOutcome.settle(instance, kept, payments, utilities, charged)


def price_vcg(
    instance: Instance,
    allocation: Allocation,
    solver: Solver = solve_exact,
    agent_ids: Optional[Iterable[str]] = None,
) -> PricingOutcome:
    """Each winner pays its externality: the others' best welfare without it
    minus their welfare with it.  Requires allocation to be a proven optimum
    whose objective is its exact welfare (evaluate_objective), as
    solve_exact reports it: each incumbent's welfare is derived from it
    (welfare_without).  Every counterfactual solve must also prove
    optimality.  Each counterfactual calls solver(model, incumbent=...,
    without=winner) on one model of instance, built here and freed on
    return, where the incumbent is the priced allocation without the
    winner.  Payments can be negative when an EV's charging reduces the
    imbalance penalty.
    """
    return _vcg(build_model(instance), allocation, solver, agent_ids)


def _vcg(model: IpModel, allocation: Allocation, solver: Solver,
         agent_ids: Optional[Iterable[str]]) -> PricingOutcome:
    """price_vcg with every counterfactual solved on model."""
    instance = model.instance
    payments: dict[str, Money] = {}
    utilities: dict[str, Money] = {}
    charged = set()
    loads = cell_loads(instance, allocation.schedule)
    slots: dict[str, list[tuple[str, str, int]]] = {}  # each agent's triples of the schedule
    for triple in allocation.schedule:
        slots.setdefault(triple[0], []).append(triple)
    for aid in _scope(allocation, agent_ids):
        payments[aid] = utilities[aid] = 0
        sid = allocation.assigned.get(aid)
        if sid is None:
            continue
        # without aid in it, D_i's welfare is the same in the market without aid
        own = slots.get(aid, [])
        assigned = {a: s for a, s in allocation.assigned.items() if a != aid}
        welfare = welfare_without(instance, allocation, aid, own, loads)
        incumbent = Allocation(assigned, allocation.schedule.difference(own), welfare)
        result = solver(model, incumbent=incumbent, without=aid)
        _proven(result, f"counterfactual solve without {aid}")
        val = instance.request(aid).access(sid).valuation
        payments[aid] = result.allocation.objective - (allocation.objective - val)
        utilities[aid] = val - payments[aid]
        charged.add(aid)
    return PricingOutcome.settle(instance, allocation.schedule, payments, utilities, charged)


def price(mechanism: str, model: IpModel, result: SolveResult, incr: float,
          solver: Solver = solve_exact,
          agent_ids: Optional[Iterable[str]] = None) -> PricingOutcome:
    """Price an allocation solved on model with the named mechanism (one of
    MECHANISMS); VCG runs its counterfactuals on that same model.

    VCG payments are differences of optimal welfare values, so VCG refuses an
    allocation whose solve was not proven optimal (CounterfactualNotOptimal).
    """
    if mechanism == "coop":
        return price_coop(model.instance, result.allocation, incr, agent_ids=agent_ids)
    if mechanism != "vcg":
        raise ValueError(f"unknown mechanism {mechanism!r}")
    _proven(result, "allocation solve", "; VCG needs a proven optimum")
    return _vcg(model, result.allocation, solver, agent_ids)


def markup_grid(step: float) -> range:
    """The markups calibrate_incr tries, in thousandths: 1, 1 + step, ... up to
    1000.  step must be a whole number of thousandths >= 0.001."""
    return range(1, 1001, thousandths("step", step, 1))


def calibrate_incr(
    scenario_family: Iterable[Instance],
    step: float = 0.001,
    solver: Solver = solve_exact,
) -> float:
    """Smallest Coop markup at which each scenario stops making losses,
    averaged over the family: the first of 0.1%, 0.1% + step, ... up to
    100% at which price_coop's budget is positive (see markup_grid).

    Fees only rise with the markup, so the charged set only shrinks, each
    agent leaving it where its fee first exceeds its valuation.  Between two
    such crossings the budget therefore does not fall, and each of these
    segments is binary-searched instead of walked.  A scenario whose
    allocation solve is not proven optimal raises CounterfactualNotOptimal,
    and an empty family ValueError."""
    grid = markup_grid(step)
    stops = []
    for index, instance in enumerate(scenario_family):
        result = solver(build_model(instance))
        _proven(result, f"allocation solve of scenario {index}", "; calibration needs a proven optimum")
        allocation = result.allocation

        def positive(k: int) -> bool:
            return price_coop(instance, allocation, grid[k] / 1000).budget > 0

        crossings = {0, len(grid)}  # grid indices where an agent declines (len(grid): never)
        for aid, sid in allocation.assigned.items():
            if sid is not None:
                req = instance.request(aid)
                fee = partial(_coop_price, req.ev.energy_demand, instance.station(sid).elec_cost)
                crossings.add(bisect_right(grid, req.access(sid).valuation, key=fee))
        bounds = sorted(crossings)
        for lo, hi in zip(bounds, bounds[1:]):
            if positive(hi - 1):
                stops.append(grid[bisect_left(range(hi), True, lo, key=positive)] / 1000)
                break
        else:
            raise NoBreakeven("budget never turned positive for a scenario within incr <= 1.0")
    if not stops:
        raise ValueError("scenario_family must hold at least one instance")
    return sum(stops) / len(stops)
