import dataclasses
import random
from collections import Counter

import pytest

from evmarket import (
    Allocation, EvRequest, EvType, MONEY_SCALE, RoadNetwork, Station, StationAccess, TimeGrid, imbalance_cost,
)
from evmarket.allocator import evaluate_objective
from evmarket.model import cell_loads, welfare_without

from conftest import flat_instance, make_ev, make_station, random_flat_instance


def test_money_scale():
    assert MONEY_SCALE == 100


def test_imbalance_single_cell():
    inst = flat_instance([make_station("L1", dem=(2,))], [], imbalance_unit_cost=100, horizon=1)
    assert imbalance_cost(inst, frozenset({("a1", "L1", 0)})) == 100  # |1 - 2| * 1.00


def _every_cell_imbalance(instance, schedule):
    """imbalance_cost summed over every (station, time) cell of the
    instance, loaded or not: the reference for the loaded-cell sum."""
    loads = Counter((sid, t) for _, sid, t in instance.committed)
    loads.update((sid, t) for _, sid, t in schedule)
    return instance.imbalance_unit_cost * sum(
        abs(loads[(s.id, t)] - s.demand_at(t))
        for s in instance.stations for t in range(instance.time_grid.horizon_len))


def test_imbalance_over_loaded_cells_matches_every_cell():
    # random demand profiles, some shorter and some longer than the horizon,
    # committed load, and schedules that also name an unknown station and
    # time points outside [0, horizon), which add nothing
    rng = random.Random(0)
    for _ in range(300):
        horizon = rng.randint(1, 6)
        stations = [make_station(f"L{k}", slots=rng.randint(1, 3),
                                 dem=[rng.randint(0, 3) for _ in range(rng.randint(0, horizon + 2))])
                    for k in range(rng.randint(1, 3))]
        inst = flat_instance(stations, [], imbalance_unit_cost=rng.choice([1, 5, 60]), horizon=horizon)
        committed = set()
        for st in stations:
            for t in range(horizon):
                committed |= {(f"z{k}", st.id, t) for k in range(rng.randint(0, st.slots))}
        inst = dataclasses.replace(inst, committed=frozenset(committed))
        sids = [st.id for st in stations] + ["X"]
        schedule = frozenset((f"a{rng.randint(0, 4)}", rng.choice(sids), rng.randint(-2, horizon + 1))
                             for _ in range(rng.randint(0, 12)))
        for sched in (schedule, frozenset()):
            assert imbalance_cost(inst, sched) == _every_cell_imbalance(inst, sched)


def test_imbalance_empty_schedule():
    inst = flat_instance([make_station("L1", dem=(2, 2))], [], imbalance_unit_cost=50, horizon=2)
    assert imbalance_cost(inst, frozenset()) == 200  # (2+2) * 0.50


def test_imbalance_zero_cost():
    inst = flat_instance([make_station("L1", dem=(2, 2))], [], imbalance_unit_cost=0, horizon=2)
    assert imbalance_cost(inst, frozenset()) == 0


def test_valuation_clamps_at_zero():
    # a time cost above the charging value leaves a valuation of 0, not -150
    ev = make_ev("a1", demand=1, valuation=100, time_cost=250)
    inst = flat_instance([make_station("L1")], [ev])
    assert inst.requests[0].access("L1").valuation == 0


def test_station_validation():
    with pytest.raises(ValueError):
        make_station("L1", slots=-1)
    with pytest.raises(ValueError):
        Station(id="L1", location=0, slots=1, rate=0, elec_cost=0, expected_demand=())


def test_ev_validation():
    with pytest.raises(ValueError):
        make_ev("a1", demand=3, valuation=100, capacity=2)
    with pytest.raises(ValueError):
        make_ev("a1", demand=1, valuation=-5)
    with pytest.raises(ValueError):
        EvType(id="a1", discharge_rate=1.0, battery_capacity=2, battery_initial=3,
               start_location=0, start_time=0, end_location=0, park_duration=1,
               energy_demand=1, base_valuation=0)


def test_instance_rejects_unknown_station(tiny1):
    import dataclasses
    bad_req = dataclasses.replace(
        tiny1.requests[0],
        per_station={"L9": tiny1.requests[0].per_station["L1"]},
    )
    with pytest.raises(ValueError, match="unknown stations"):
        dataclasses.replace(tiny1, requests=(bad_req,))


def test_instance_rejects_duplicate_ids(tiny1):
    import dataclasses
    with pytest.raises(ValueError, match="duplicate EV id 'a1'"):
        dataclasses.replace(tiny1, requests=(tiny1.requests[0], tiny1.requests[0]))
    with pytest.raises(ValueError, match="duplicate station id 'L1'"):
        dataclasses.replace(tiny1, stations=(tiny1.stations[0], tiny1.stations[0]))


def test_request_derives_its_feasible_stations():
    # feasible_stations is derived from per_station, never passed in
    assert [f.name for f in dataclasses.fields(EvRequest) if f.init] == ["ev", "per_station"]
    acc = StationAccess(arrival=0, departure=2, valuation=5, time_cost=0, battery_on_arrival=0,
                        charge_slots_needed=1)
    req = EvRequest(make_ev("a1", demand=1, valuation=5),
                    {"L1": acc, "L2": dataclasses.replace(acc, valuation=0)})
    assert req.feasible_stations == frozenset({"L1"})


# one refused value per type: (build, the message it raises)
NOT_INTEGERS = {
    "time_grid": (lambda: TimeGrid(horizon_len=4.0), "horizon_len must be an integer"),
    # a 0.5-cent electricity price would make a 3-EV market's welfare 628.0
    # and its VCG payments 300.0: money is integer cents in the library too
    "station": (lambda: Station("L1", 0, 1, 1, 0.5, (0, 0, 0, 0)), "station L1: elec_cost must be an integer"),
    "station-demand": (lambda: make_station("L1", dem=(0, 0.5, 0, 0)),
                       "station L1: expected_demand entries must be integers"),
    "ev": (lambda: make_ev("a1", demand=1, valuation=True), "ev a1: base_valuation must be an integer"),
    "instance": (lambda: flat_instance([make_station("L1")], [], imbalance_unit_cost=2.5),
                 "imbalance_unit_cost must be an integer"),
    "road_network": (lambda: RoadNetwork(frozenset({0, 1}), ((0, 1, 1.0),), frozenset({0}), per_walk_km=1.5),
                     "per_walk_km: must be an integer"),
}


@pytest.mark.parametrize("case", NOT_INTEGERS)
def test_integer_field_refuses_a_non_integer(case):
    build, message = NOT_INTEGERS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("slot, error", [
    (("z1", "L9", 0), r"^committed slot \('z1', 'L9', 0\) names an unknown station$"),
    (("z1", "L1", 4), r"^committed slot \('z1', 'L1', 4\) lies outside \[0, 4\)$"),
    (("z1", "L1", -1), r"^committed slot \('z1', 'L1', -1\) lies outside \[0, 4\)$"),
    (("a1", "L1", 0), r"^committed slot \('a1', 'L1', 0\) belongs to a request of this market$"),
    (("z2", "L1", 3), r"^committed slots fill \(L1,3\) past its 1 chargers$"),
], ids=["unknown-station", "past-horizon", "before-0", "market-agent", "overfull-cell"])
def test_instance_refuses_a_committed_slot(tiny1, slot, error):
    # z1 already holds L1's one charger at t=3, the last point of the horizon
    with pytest.raises(ValueError, match=error):
        dataclasses.replace(tiny1, committed=frozenset({("z1", "L1", 3), slot}))


def test_instance_takes_committed_slots_up_to_each_cell_s_chargers(tiny1):
    # the first and the last point, each cell filled to its one charger
    slots = frozenset({("z1", "L1", 0), ("z1", "L1", 3), ("z2", "L2", 3)})
    inst = dataclasses.replace(tiny1, committed=slots)
    assert [inst.committed_load("L1", t) for t in range(4)] == [1, 0, 0, 1]
    assert [inst.committed_load("L2", t) for t in range(4)] == [0, 0, 0, 1]


def test_imbalance_counts_the_committed_load():
    inst = flat_instance([make_station("L1", slots=2, dem=(2, 2))], [], imbalance_unit_cost=100,
                         horizon=2)
    inst = dataclasses.replace(inst, committed=frozenset({("z1", "L1", 0), ("z1", "L1", 1)}))
    # |1 + 1 - 2| at t=0, |0 + 1 - 2| at t=1
    assert imbalance_cost(inst, frozenset({("a1", "L1", 0)})) == 100
    assert imbalance_cost(inst, frozenset()) == 200


def test_demand_past_the_profile_is_zero():
    station = make_station("L1", dem=(3, 1))
    assert [station.demand_at(t) for t in range(4)] == [3, 1, 0, 0]


@pytest.mark.parametrize("seed", range(60))
def test_welfare_without_matches_evaluate_objective(seed):
    # the welfare of an allocation less one agent, derived from the
    # allocation's own in O(the agent's slots), against evaluate_objective of
    # the smaller allocation: random markets over random committed load, and
    # random allocations, rules aside (an unassigned agent may charge)
    rng = random.Random(seed)
    inst = random_flat_instance(seed, max_evs=6)
    committed = {(f"c{k}", st.id, t) for st in inst.stations for t in range(inst.time_grid.horizon_len)
                 if rng.random() < 0.4 for k in range(rng.randint(1, st.slots))}
    inst = dataclasses.replace(inst, committed=frozenset(committed))
    assigned, schedule = {}, set()
    for req in inst.requests:
        aid, options = req.ev.id, sorted(req.per_station)
        sid = rng.choice(options) if options else None
        if sid is not None:
            acc = req.access(sid)
            schedule |= {(aid, sid, t) for t in range(acc.arrival, acc.departure) if rng.random() < 0.7}
        assigned[aid] = sid if sid in req.feasible_stations and rng.random() < 0.8 else None
    allocation = Allocation(assigned, frozenset(schedule), evaluate_objective(inst, assigned, frozenset(schedule)))
    loads = cell_loads(inst, allocation.schedule)
    assert imbalance_cost(inst, allocation.schedule) == _every_cell_imbalance(inst, allocation.schedule)
    for aid in assigned:
        own = [tr for tr in allocation.schedule if tr[0] == aid]
        rest = {a: s for a, s in assigned.items() if a != aid}
        expected = evaluate_objective(inst, rest, allocation.schedule.difference(own))
        assert welfare_without(inst, allocation, aid, own, loads) == expected, aid
