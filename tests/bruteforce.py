"""Exhaustive-search oracle for small instances.

Enumerates every EV-to-station assignment; for each assignment the stations
decouple, and the optimal charging placement per station is found by exact
dynamic programming over time with per-agent charged-slot counts as state.
Each cell's committed load (Instance.committed) takes chargers and counts
towards its imbalance, but is no agent's to place.
Completely independent of the LP-based solver, so the two can cross-check
each other.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from evmarket.allocator import evaluate_objective
from evmarket.model import Allocation, Instance

GUARD_MAX_AGENTS = 4
GUARD_MAX_STATIONS = 3
GUARD_MAX_HORIZON = 10


class TooLarge(Exception):
    """Instance exceeds the oracle's guard rails."""


def _station_best_schedule(
    instance: Instance, station_id: str, agent_ids: Sequence[str]
) -> Optional[tuple[int, list[tuple[str, str, int]]]]:
    """Minimum electricity + imbalance cost of serving the given agents at
    one station on top of its committed load, with the slot-by-slot schedule.
    Returns None when the agents cannot all complete their charge."""
    st = instance.station(station_id)
    horizon = instance.time_grid.horizon_len
    cimbl = instance.imbalance_unit_cost
    slot_cost = st.slot_elec_cost

    free = []
    for aid in agent_ids:
        req = instance.request(aid)
        acc = req.access(station_id)
        tau = acc.charge_slots_needed
        cap_slots = (req.ev.battery_capacity - acc.battery_on_arrival) // st.rate
        max_slots = min(acc.departure - acc.arrival, cap_slots)
        if cimbl <= slot_cost:
            # an extra slot costs more than any imbalance saving; demand-exact is optimal
            max_slots = min(max_slots, tau)
        if max_slots < tau:
            return None
        free.append((aid, acc.arrival, acc.departure, tau, max_slots))

    n = len(free)
    states: dict[tuple[int, ...], int] = {tuple([0] * n): 0}
    parents: list[dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]]] = []
    for t in range(horizon):
        dem = st.demand_at(t)
        committed = instance.committed_load(station_id, t)
        eligible = [i for i, (_, start, dep, _, _) in enumerate(free) if start <= t < dep]
        cap_free = st.slots - committed
        nxt: dict[tuple[int, ...], int] = {}
        par: dict[tuple[int, ...], tuple[tuple[int, ...], tuple[int, ...]]] = {}
        for state in sorted(states):
            base = states[state]
            usable = [i for i in eligible if state[i] < free[i][4]]
            for size in range(0, min(cap_free, len(usable)) + 1):
                for subset in itertools.combinations(usable, size):
                    cost = base + size * slot_cost + abs(committed + size - dem) * cimbl
                    new = list(state)
                    for i in subset:
                        new[i] += 1
                    key = tuple(new)
                    if key not in nxt or cost < nxt[key]:
                        nxt[key] = cost
                        par[key] = (state, subset)
        # drop states that can no longer finish in time
        remaining = [
            sum(1 for tt in range(t + 1, dep) if tt >= start)
            for (_, start, dep, _, _) in free
        ]
        states = {
            s: c
            for s, c in nxt.items()
            if all(free[i][3] - s[i] <= remaining[i] for i in range(n))
        }
        parents.append(par)
        if not states:
            return None

    final = [s for s in sorted(states) if all(s[i] >= free[i][3] for i in range(n))]
    if not final:
        return None
    best_state = min(final, key=lambda s: (states[s], s))
    cost = states[best_state]

    triples: list[tuple[str, str, int]] = []
    state = best_state
    for t in range(horizon - 1, -1, -1):
        prev, subset = parents[t][state]
        for i in subset:
            triples.append((free[i][0], station_id, t))
        state = prev
    return cost, triples


def solve_bruteforce(instance: Instance) -> Allocation:
    """Maximize the market objective by full enumeration (guard-railed)."""
    if len(instance.requests) > GUARD_MAX_AGENTS:
        raise TooLarge(f"{len(instance.requests)} agents exceed the oracle limit")
    if len(instance.stations) > GUARD_MAX_STATIONS:
        raise TooLarge(f"{len(instance.stations)} stations exceed the oracle limit")
    if instance.time_grid.horizon_len > GUARD_MAX_HORIZON:
        raise TooLarge(f"horizon {instance.time_grid.horizon_len} exceeds the oracle limit")

    options = [[None] + sorted(req.feasible_stations) for req in instance.requests]

    station_ids = [s.id for s in instance.stations]
    cache: dict[tuple[str, tuple[str, ...]], Optional[tuple[int, list]]] = {}

    best_obj = None
    best_assigned = None
    best_schedule = None
    for combo in itertools.product(*options):
        value = 0
        grouped: dict[str, list[str]] = {sid: [] for sid in station_ids}
        for req, sid in zip(instance.requests, combo):
            if sid is not None:
                value += req.access(sid).valuation
                grouped[sid].append(req.ev.id)
        cost = 0
        schedule: list[tuple[str, str, int]] = []
        feasible = True
        for sid in station_ids:
            key = (sid, tuple(grouped[sid]))
            if key not in cache:
                cache[key] = _station_best_schedule(instance, sid, grouped[sid])
            entry = cache[key]
            if entry is None:
                feasible = False
                break
            cost += entry[0]
            schedule.extend(entry[1])
        if not feasible:
            continue
        obj = value - cost
        if best_obj is None or obj > best_obj:
            best_obj = obj
            best_assigned = {
                req.ev.id: sid for req, sid in zip(instance.requests, combo)
            }
            best_schedule = frozenset(schedule)

    if best_obj is None:  # the all-None assignment is always feasible
        raise RuntimeError("oracle found no feasible assignment")
    if evaluate_objective(instance, best_assigned, best_schedule) != best_obj:
        raise RuntimeError("oracle bookkeeping disagrees with the objective formula")
    return Allocation(assigned=best_assigned, schedule=best_schedule, objective=best_obj)
