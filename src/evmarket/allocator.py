"""0-1 integer program for EV-to-station allocation and an exact solver.

The model maximizes total valuation of assigned EVs minus electricity cost
minus the imbalance penalty, with one auxiliary nonnegative variable per
(station, time) cell linearizing the absolute imbalance term (two lower-bound
rows per cell).

Pinned commitments are checked with validate_allocation, the same rules
that judge any allocation; build_model raises InfeasiblePin naming every
violation instead of building a model around a bad pin.

solve_exact hands the model to HiGHS branch-and-cut (scipy's milp) with a
zero MIP gap.  The solution is re-evaluated in exact integer arithmetic
(evaluate_objective, whose imbalance term is model.imbalance_cost) so that
reported optima are bit-reproducible and comparable across counterfactual
solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from .model import Allocation, Instance, Money, imbalance_cost

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMITED = "feasible_time_limited"

DEFAULT_TIME_LIMIT = 300.0  # seconds per exact solve


class InfeasiblePin(Exception):
    """The pinned commitments fail validate_allocation; the message lists
    each violation by code and detail."""


class Infeasible(Exception):
    """The model has no feasible point (only possible with contradictory pins)."""


@dataclass
class IpModel:
    instance: Instance
    phi_index: dict[tuple[str, str], int]
    charge_index: dict[tuple[str, str, int], int]
    c: np.ndarray  # objective (maximize), integer-valued cents
    A: sparse.csr_matrix  # A x <= b
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_binary: np.ndarray

    @property
    def n_vars(self) -> int:
        return len(self.c)


@dataclass(frozen=True)
class Violation:
    code: str
    subject: tuple
    detail: str


@dataclass
class SolveResult:
    allocation: Allocation
    status: str
    nodes: int = 0
    runtime_s: float = 0.0


def build_model(instance: Instance) -> IpModel:
    """Assemble objective, constraint rows, and variable bounds.

    Stations outside an EV's feasible set and time points outside its window
    contribute no variables at all.  Pinned agents have every variable fixed
    to its committed value; unpinned agents cannot charge before
    instance.frozen_before (the market cannot schedule the past).
    """
    if instance.pinned is not None:
        violations = validate_allocation(instance, instance.pinned)
        if violations:
            raise InfeasiblePin("; ".join(f"{v.code}: {v.detail}" for v in violations))
    horizon = instance.time_grid.horizon_len
    pinned_assigned = dict(instance.pinned.assigned) if instance.pinned else {}
    pinned_slots = instance.pinned.schedule if instance.pinned else frozenset()

    phi_index: dict[tuple[str, str], int] = {}
    charge_index: dict[tuple[str, str, int], int] = {}
    c: list[float] = []
    lb: list[float] = []
    ub: list[float] = []

    def add_var(coef: Money, fixed: Optional[bool] = None, hi: float = 1.0) -> int:
        """New variable in [0, hi], or fixed to a pinned 0/1 value."""
        c.append(float(coef))
        lb.append(0.0 if fixed is None else float(fixed))
        ub.append(hi if fixed is None else float(fixed))
        return len(c) - 1

    # binaries first (assignment, then charge): is_binary marks the first n_binary.
    # pairs holds, per request, one (station, access, assignment var, first
    # schedulable slot, charge vars) entry for each station it may use.
    pairs: list[list[tuple]] = []
    for req in instance.requests:
        aid = req.ev.id
        pinned = aid in pinned_assigned
        own = []
        for st in instance.stations:
            if st.id not in req.feasible_stations:
                continue
            acc = req.access(st.id)
            start = acc.first_slot(acc.arrival if pinned else instance.frozen_before)
            if start is None:
                continue
            phi = add_var(acc.valuation, pinned_assigned[aid] == st.id if pinned else None)
            phi_index[(aid, st.id)] = phi
            own.append((st, acc, phi, start, []))
        pairs.append(own)
    cells: dict[tuple[str, int], list[int]] = {}  # (station, t) -> charge vars
    for req, own in zip(instance.requests, pairs):
        aid = req.ev.id
        pinned = aid in pinned_assigned
        for st, acc, _, start, pair in own:
            for t in range(start, acc.departure):
                i = add_var(-st.slot_elec_cost, (aid, st.id, t) in pinned_slots if pinned else None)
                charge_index[(aid, st.id, t)] = i
                pair.append(i)
                cells.setdefault((st.id, t), []).append(i)
    n_binary = len(c)

    data: list[float] = []
    ri: list[int] = []
    ci: list[int] = []
    b: list[float] = []

    def add_row(coefs: dict[int, float], rhs: float) -> None:
        """Append the row coefs . x <= rhs."""
        ri.extend([len(b)] * len(coefs))
        ci.extend(coefs)
        data.extend(coefs.values())
        b.append(rhs)

    for req, own in zip(instance.requests, pairs):
        if own:
            add_row({phi: 1.0 for _, _, phi, _, _ in own}, 1.0)
        for st, acc, phi, _, pair in own:
            # charge at least the demand when assigned
            add_row({phi: float(acc.charge_slots_needed), **dict.fromkeys(pair, -1.0)}, 0.0)
            # never exceed the battery
            add_row(
                dict.fromkeys(pair, float(st.rate)),
                float(req.ev.battery_capacity - acc.battery_on_arrival),
            )
            # no charging at a station the EV is not assigned to
            for i in pair:
                add_row({i: 1.0, phi: -1.0}, 0.0)
    for st in instance.stations:
        for t in range(horizon):
            cell = cells.get((st.id, t), [])
            if cell:
                add_row(dict.fromkeys(cell, 1.0), float(st.slots))
            dem = st.expected_demand[t] if t < len(st.expected_demand) else 0
            # |load - dem| <= m, one continuous variable per cell
            m = add_var(-instance.imbalance_unit_cost, hi=np.inf)
            add_row({**dict.fromkeys(cell, 1.0), m: -1.0}, float(dem))
            add_row({**dict.fromkeys(cell, -1.0), m: -1.0}, float(-dem))

    n = len(c)
    A = sparse.csr_matrix((data, (ri, ci)), shape=(len(b), n))
    is_binary = np.zeros(n, dtype=bool)
    is_binary[:n_binary] = True
    return IpModel(
        instance=instance,
        phi_index=phi_index,
        charge_index=charge_index,
        c=np.array(c),
        A=A,
        b=np.array(b),
        lb=np.array(lb),
        ub=np.array(ub),
        is_binary=is_binary,
    )


def evaluate_objective(
    instance: Instance,
    assigned: dict[str, Optional[str]],
    schedule: frozenset[tuple[str, str, int]],
) -> Money:
    """Exact integer objective: valuations minus electricity minus imbalance."""
    total = 0
    for req in instance.requests:
        sid = assigned.get(req.ev.id)
        if sid is not None:
            total += req.access(sid).valuation
    for _, sid, _ in schedule:
        total -= instance.station(sid).slot_elec_cost
    return total - imbalance_cost(instance, schedule)


def _allocation_from_x(model: IpModel, x: np.ndarray) -> Allocation:
    assigned: dict[str, Optional[str]] = {r.ev.id: None for r in model.instance.requests}
    for (aid, sid), i in model.phi_index.items():
        if x[i] > 0.5:
            assigned[aid] = sid
    schedule = frozenset(
        (aid, sid, t) for (aid, sid, t), i in model.charge_index.items() if x[i] > 0.5
    )
    obj = evaluate_objective(model.instance, assigned, schedule)
    return Allocation(assigned=assigned, schedule=schedule, objective=obj)


def _baseline_allocation(model: IpModel) -> Allocation:
    """Pins-only allocation: always feasible once pins validate."""
    inst = model.instance
    assigned: dict[str, Optional[str]] = {r.ev.id: None for r in inst.requests}
    schedule: frozenset[tuple[str, str, int]] = frozenset()
    if inst.pinned is not None:
        for aid, sid in inst.pinned.assigned.items():
            if aid in assigned:
                assigned[aid] = sid
        schedule = inst.pinned.schedule
    return Allocation(assigned=assigned, schedule=schedule, objective=evaluate_objective(inst, assigned, schedule))


def solve_exact(model: IpModel, time_limit: float = DEFAULT_TIME_LIMIT) -> SolveResult:
    """Solve the 0-1 program to proven optimality.

    HiGHS branch-and-cut runs with a zero MIP gap; the incumbent is
    re-evaluated in exact integer arithmetic.  Deterministic for a fixed
    input; reports feasible_time_limited when the clock runs out before the
    proof.
    """
    start = time.monotonic()
    incumbent = _baseline_allocation(model)
    if model.n_vars == 0:
        return SolveResult(incumbent, STATUS_OPTIMAL, nodes=0, runtime_s=time.monotonic() - start)
    res = milp(
        -model.c,
        constraints=LinearConstraint(model.A, -np.inf, model.b),
        integrality=model.is_binary.astype(int),
        bounds=Bounds(model.lb, model.ub),
        options={"mip_rel_gap": 0.0, "time_limit": time_limit},
    )
    runtime = time.monotonic() - start
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    if res.status == 2:
        raise Infeasible("model infeasible: contradictory pinned commitments")
    if res.status == 1:  # hit the time limit
        if res.x is not None:
            cand = _allocation_from_x(model, np.round(res.x))
            if cand.objective > incumbent.objective:
                incumbent = cand
        return SolveResult(incumbent, STATUS_TIME_LIMITED, nodes, runtime)
    if res.status != 0 or res.x is None:
        raise RuntimeError(f"MILP solve failed with status {res.status}: {res.message}")
    allocation = _allocation_from_x(model, np.round(res.x))
    if abs(-res.fun - allocation.objective) >= 0.5:
        raise RuntimeError(
            f"solver objective {-res.fun} drifted from exact evaluation {allocation.objective}"
        )
    return SolveResult(allocation, STATUS_OPTIMAL, nodes, runtime)


def validate_allocation(instance: Instance, allocation: Allocation) -> list[Violation]:
    """Check every scheduling constraint; empty list means the allocation is valid."""
    violations: list[Violation] = []
    horizon = instance.time_grid.horizon_len
    station_ids = {st.id for st in instance.stations}

    stations_used: dict[str, set[str]] = {}
    slots: dict[str, list[int]] = {}  # each agent's slots at its assigned station
    loads: dict[tuple[str, int], int] = {}
    for aid, sid, t in allocation.schedule:
        stations_used.setdefault(aid, set()).add(sid)
        loads[(sid, t)] = loads.get((sid, t), 0) + 1
        if allocation.assigned.get(aid) == sid:
            slots.setdefault(aid, []).append(t)
        else:
            violations.append(
                Violation("unassigned-charging", (aid, sid, t), f"{aid} charges at {sid} unassigned")
            )
    for aid, used in stations_used.items():
        if len(used) > 1:
            violations.append(
                Violation("single-station", (aid,), f"{aid} charges at {sorted(used)}")
            )

    for aid, sid in allocation.assigned.items():
        if sid is None:
            continue
        try:
            req = instance.request(aid)
        except KeyError:
            violations.append(Violation("unknown-agent", (aid,), f"{aid} not in instance"))
            continue
        if sid not in req.feasible_stations:
            violations.append(
                Violation("infeasible-station", (aid, sid), f"{sid} not feasible for {aid}")
            )
            continue
        acc = req.access(sid)
        st = instance.station(sid)
        times = slots.get(aid, [])
        for t in times:
            if not (acc.arrival <= t < acc.departure) or not (0 <= t < horizon):
                violations.append(
                    Violation("outside-window", (aid, sid, t), f"slot {t} outside {aid}'s window at {sid}")
                )
        if len(times) < acc.charge_slots_needed:
            violations.append(
                Violation(
                    "min-charge",
                    (aid, sid),
                    f"{aid} gets {len(times)} slots, needs {acc.charge_slots_needed}",
                )
            )
        if len(times) * st.rate + acc.battery_on_arrival > req.ev.battery_capacity:
            violations.append(
                Violation("battery-capacity", (aid, sid), f"{aid} overfills its battery")
            )

    named = {sid for sid in allocation.assigned.values() if sid is not None}
    named |= {sid for _, sid, _ in allocation.schedule}
    for sid in sorted(named - station_ids):
        violations.append(Violation("unknown-station", (sid,), f"{sid} not in instance"))
    for (sid, t), load in loads.items():
        if sid in station_ids and load > instance.station(sid).slots:
            violations.append(
                Violation(
                    "station-capacity",
                    (sid, t),
                    f"{load} EVs at ({sid},{t}) with {instance.station(sid).slots} chargers",
                )
            )
    return violations
