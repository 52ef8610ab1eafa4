"""Independent correctness checks for cleared markets.

Nothing here imports evmarket.  The checks read the instance's stations and
requests and the library's outputs as plain data, and recompute feasibility,
welfare, payments and budgets with their own integer arithmetic.  Each check
returns a list of problems; every problem starts with a short code (such as
``capacity:``) so that the self-test can tell which check rejected a market.
"""

from __future__ import annotations

from collections import Counter


def _demand(station, t: int) -> int:
    return station.expected_demand[t] if t < len(station.expected_demand) else 0


def imbalance(instance, schedule) -> int:
    """Total |load - contracted demand| * unit cost over every (station, time) cell."""
    loads = Counter((s, t) for _, s, t in schedule)
    return instance.imbalance_unit_cost * sum(
        abs(loads[(st.id, t)] - _demand(st, t))
        for st in instance.stations
        for t in range(instance.time_grid.horizon_len)
    )


def welfare(instance, assigned, schedule) -> int:
    """Valuations of the assigned agents minus electricity minus imbalance."""
    stations = {st.id: st for st in instance.stations}
    requests = {r.ev.id: r for r in instance.requests}
    value = sum(
        requests[a].per_station[s].valuation for a, s in assigned.items() if s is not None
    )
    elec = sum(stations[s].rate * stations[s].elec_cost for _, s, _ in schedule)
    return value - elec - imbalance(instance, schedule)


def feasibility(instance, allocation) -> list[str]:
    """Single station, charging window, minimum charge, battery and capacity."""
    problems = []
    horizon = instance.time_grid.horizon_len
    stations = {st.id: st for st in instance.stations}
    requests = {r.ev.id: r for r in instance.requests}
    slots_of = Counter()
    for a, s, t in allocation.schedule:
        if allocation.assigned.get(a) != s:
            problems.append(f"single-station: {a} charges at {s} but is assigned {allocation.assigned.get(a)}")
            continue
        if a not in requests or s not in requests[a].per_station:
            continue  # reported below with the assignment
        acc = requests[a].per_station[s]
        if not (acc.arrival <= t < acc.departure and 0 <= t < horizon):
            problems.append(f"window: {a} charges at t={t} outside [{acc.arrival}, {acc.departure})")
        slots_of[a] += 1
    for a, s in allocation.assigned.items():
        if s is None:
            continue
        if a not in requests or s not in requests[a].feasible_stations:
            problems.append(f"single-station: {a} assigned to {s}, which it cannot use")
            continue
        ev, acc, rate = requests[a].ev, requests[a].per_station[s], stations[s].rate
        delivered = slots_of[a] * rate
        if delivered < ev.energy_demand:
            problems.append(f"min-charge: {a} gets {delivered} of {ev.energy_demand} units")
        if acc.battery_on_arrival + delivered > ev.battery_capacity:
            problems.append(f"battery: {a} ends at {acc.battery_on_arrival + delivered} > {ev.battery_capacity}")
    for (s, t), load in Counter((s, t) for _, s, t in allocation.schedule).items():
        if load > stations[s].slots:
            problems.append(f"capacity: {load} EVs at ({s}, {t}) with {stations[s].slots} chargers")
    return problems


def allocation_ok(instance, allocation) -> list[str]:
    """Feasibility plus the reported objective against recomputed welfare."""
    problems = feasibility(instance, allocation)
    if not problems:
        w = welfare(instance, allocation.assigned, allocation.schedule)
        if w != allocation.objective:
            problems.append(f"welfare: objective {allocation.objective} but recomputed {w}")
    return problems


def budget(instance, allocation, outcome) -> list[str]:
    """payments - electricity - imbalance, on the schedule of the charged agents."""
    problems = []
    stations = {st.id: st for st in instance.stations}
    kept = [tr for tr in allocation.schedule if tr[0] in outcome.charged]
    elec = Counter()
    for a, s, _ in kept:
        elec[a] += stations[s].rate * stations[s].elec_cost
    for a in outcome.charged:
        if outcome.elec_costs.get(a) != elec[a]:
            problems.append(f"budget: {a} electricity {outcome.elec_costs.get(a)} != {elec[a]}")
    imb = imbalance(instance, kept)
    if outcome.total_imbalance_cost != imb:
        problems.append(f"budget: imbalance {outcome.total_imbalance_cost} != {imb}")
    expected = sum(outcome.payments.values()) - sum(elec.values()) - imb
    if outcome.budget != expected:
        problems.append(f"budget: reported {outcome.budget} != {expected}")
    return problems


def vcg(instance, allocation, outcome) -> list[str]:
    """0 <= u_i <= opt - W(X* without i) for every winner i.

    X* with i removed is feasible for the market without i, so the
    counterfactual optimum is at least its welfare; that bounds the utility
    from above.  The lower bound is individual rationality.
    """
    problems = []
    requests = {r.ev.id: r for r in instance.requests}
    winners = {a: s for a, s in allocation.assigned.items() if s is not None}
    if set(outcome.charged) != set(winners):
        problems.append(f"vcg-scope: charged {sorted(outcome.charged)} != winners {sorted(winners)}")
    opt = allocation.objective
    for a, s in sorted(winners.items()):
        val = requests[a].per_station[s].valuation
        pay, util = outcome.payments.get(a), outcome.utilities.get(a)
        if pay is None or util != val - pay:
            problems.append(f"vcg-utility: {a} value {val} payment {pay} utility {util}")
            continue
        if util < 0:
            problems.append(f"vcg-ir: {a} pays {pay} for value {val}")
        others = {b: t for b, t in winners.items() if b != a}
        rest = [tr for tr in allocation.schedule if tr[0] != a]
        bound = opt - welfare(instance, others, rest)
        if util > bound:
            problems.append(f"vcg-bound: {a} utility {util} > {bound}")
    return problems


def coop(instance, allocation, outcome, incr_mil: int) -> list[str]:
    """Price = half-up(demand * elec_cost * (1 + incr)); decline iff price > value."""
    problems = []
    stations = {st.id: st for st in instance.stations}
    requests = {r.ev.id: r for r in instance.requests}
    for a, s in sorted(allocation.assigned.items()):
        if s is None:
            continue
        raw = requests[a].ev.energy_demand * stations[s].elec_cost * (1000 + incr_mil)
        price = (raw + 500) // 1000
        val = requests[a].per_station[s].valuation
        if price > val:
            if a in outcome.charged or outcome.payments.get(a) != 0 or outcome.utilities.get(a) != 0:
                problems.append(f"coop-decline: {a} price {price} > value {val} but it charges")
        elif a not in outcome.charged:
            problems.append(f"coop-decline: {a} price {price} <= value {val} but it declines")
        elif outcome.payments.get(a) != price or outcome.utilities.get(a) != val - price:
            problems.append(f"coop-price: {a} pays {outcome.payments.get(a)}, price is {price}")
    return problems


def uncontested_optimum(instance) -> int:
    """Sum over EVs of max(0, best value - slots needed * slot cost).

    Exact when capacity cannot bind and imbalance costs nothing: every EV
    then takes its best station independently of the others.
    """
    stations = {st.id: st for st in instance.stations}
    total = 0
    for req in instance.requests:
        best = 0
        for s, acc in req.per_station.items():
            st = stations[s]
            needed = -(-req.ev.energy_demand // st.rate)
            if acc.departure - acc.arrival < needed:
                continue
            if acc.battery_on_arrival + needed * st.rate > req.ev.battery_capacity:
                continue
            best = max(best, acc.valuation - needed * st.rate * st.elec_cost)
        total += best
    return total


def online(instance, result, offline) -> list[str]:
    """Commitments disjoint and never before their clearing, the combined
    schedule feasible, committed utilities >= 0, and online welfare at most
    the offline optimum of the same instance."""
    problems = []
    seen_triples, seen_agents = set(), set()
    for c in result.clearings:
        for tr in sorted(c.commitments_added):
            if tr[2] < c.time:
                problems.append(f"online-time: {tr} committed at clearing t={c.time}")
        agents = {tr[0] for tr in c.commitments_added}
        if c.commitments_added & seen_triples or agents & seen_agents:
            problems.append(f"online-disjoint: clearing t={c.time} recommits earlier slots")
        seen_triples |= c.commitments_added
        seen_agents |= agents
    if seen_triples != set(result.allocation.schedule):
        problems.append("online-union: combined schedule differs from the clearings' commitments")
    problems += allocation_ok(instance, result.allocation)
    problems += budget(instance, result.allocation, result.outcome)
    for a in sorted(result.outcome.charged):
        if result.outcome.utilities[a] < 0:
            problems.append(f"online-ir: {a} utility {result.outcome.utilities[a]}")
    problems += [f"offline {p}" for p in allocation_ok(instance, offline)]
    if result.allocation.objective > offline.objective:
        problems.append(
            f"online-offline: online welfare {result.allocation.objective} > offline {offline.objective}"
        )
    return problems
