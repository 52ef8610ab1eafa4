import dataclasses
import hashlib

import pytest

import evmarket.transport
from evmarket import GenParams, RoadNetwork, TimeGrid, build_requests, generate
from evmarket.experiments import DESK, DESK_CONTESTED
from evmarket.serialize import instance_from_dict, instance_to_dict
from evmarket.transport import distances_km, remaining_request

from conftest import make_ev, make_station


def line_network(**kw):
    # 0 -1km- 1 -1km- 2, charger at node 2
    defaults = dict(
        nodes=frozenset({0, 1, 2}),
        edges=((0, 1, 1.0), (1, 2, 1.0)),
        charging_nodes=frozenset({2}),
        avg_speed=1.0,
    )
    defaults.update(kw)
    return RoadNetwork(**defaults)


def test_shortest_route_simple():
    assert distances_km(line_network(), [0]) == {0: {0: 0.0, 1: 1.0, 2: 2.0}}


def test_shortest_route_same_node():
    assert distances_km(line_network(), [1])[1][1] == 0.0


def test_shortest_route_prefers_shorter():
    net = RoadNetwork(
        nodes=frozenset({0, 1, 2}),
        edges=((0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)),
        charging_nodes=frozenset(),
    )
    assert distances_km(net, [0])[0][2] == 2.0


def test_shortest_route_tie_gives_same_distance():
    # two equal-length routes 0-1-3 and 0-2-3, listed in either order
    edges = ((0, 1, 1.0), (1, 3, 1.0), (0, 2, 1.0), (2, 3, 1.0))
    for order in (edges, edges[::-1]):
        net = RoadNetwork(nodes=frozenset({0, 1, 2, 3}), edges=order, charging_nodes=frozenset())
        tables = distances_km(net, [0, 3])
        assert tables[0][3] == tables[3][0] == 2.0


def test_no_path():
    net = RoadNetwork(
        nodes=frozenset({0, 1, 2}),
        edges=((0, 1, 1.0),),
        charging_nodes=frozenset(),
    )
    assert distances_km(net, [0]) == {0: {0: 0.0, 1: 1.0}}
    # a station on a node the EV cannot reach is not listed
    st = dataclasses.replace(make_station("L1"), location=2)
    ev = make_ev("a1", demand=1, valuation=300, capacity=5, initial=4)
    assert build_requests(net, [ev], [st], TimeGrid(8))[0].per_station == {}


def _access_at_node_2(net, discharge_rate=1.0):
    st = dataclasses.replace(make_station("L1"), location=2)
    ev = dataclasses.replace(
        make_ev("a1", demand=1, valuation=300, park=4, capacity=5, initial=4),
        discharge_rate=discharge_rate,
    )
    return build_requests(net, [ev], [st], TimeGrid(8))[0].access("L1")


def test_route_energy_need_rounds_up():
    net = line_network()  # node 0 to node 2 is 2 km
    assert _access_at_node_2(net, 1.0).battery_on_arrival == 4 - 2
    assert _access_at_node_2(net, 0.6).battery_on_arrival == 4 - 2  # 1.2 units -> 2
    assert _access_at_node_2(net, 0.5).battery_on_arrival == 4 - 1


def test_speed_affects_drive_time():
    assert _access_at_node_2(line_network()).arrival == 2
    assert _access_at_node_2(line_network(avg_speed=2.0)).arrival == 1
    assert _access_at_node_2(line_network(avg_speed=0.8)).arrival == 3  # 2.5 points -> 3


def test_flat_requests_windows_and_clipping():
    st = make_station("L1")
    ev = make_ev("a1", demand=2, valuation=300, start=2, park=10)
    req = build_requests(None, [ev], [st], TimeGrid(6))[0]
    acc = req.access("L1")
    assert acc.arrival == 2
    assert acc.departure == 6  # clipped to horizon
    assert acc.charge_slots_needed == 2
    assert acc.battery_on_arrival == 0
    assert req.feasible_stations == frozenset({"L1"})


def test_flat_requests_window_too_small():
    st = make_station("L1")
    ev = make_ev("a1", demand=3, valuation=300, start=2, park=2)
    req = build_requests(None, [ev], [st], TimeGrid(4))[0]
    assert "L1" not in req.per_station


def test_flat_time_cost_reduces_valuation():
    st = make_station("L1")
    ev = make_ev("a1", demand=1, valuation=100, time_cost=100)
    req = build_requests(None, [ev], [st], TimeGrid(4))[0]
    assert req.access("L1").valuation == 0
    # zero valuation stations are reachable but not feasible
    assert req.feasible_stations == frozenset()


def test_routed_requests():
    net = line_network(per_drive_point=5, per_walk_km=3)
    st = make_station("L1")
    st = type(st)(**{**st.__dict__, "location": 2})
    ev = make_ev("a1", demand=1, valuation=300, park=6, capacity=5, initial=2)
    req = build_requests(net, [ev], [st], TimeGrid(8))[0]
    acc = req.access("L1")
    assert acc.arrival == 2  # start 0 + 2 points driving
    assert acc.battery_on_arrival == 0  # burned 2 units over 2 km
    # drive cost 2*5, walk back home 2 km * 3
    assert acc.time_cost == 16
    assert acc.valuation == 300 - 16
    # the EV's own time cost adds to the drive and walk terms
    ev = dataclasses.replace(ev, time_cost=4)
    acc = build_requests(net, [ev], [st], TimeGrid(8))[0].access("L1")
    assert (acc.time_cost, acc.valuation) == (20, 300 - 20)


def test_station_off_the_network_is_named():
    st = dataclasses.replace(make_station("L1"), location=9)
    with pytest.raises(ValueError, match="station L1 is at location 9, not a network node"):
        build_requests(line_network(), [make_ev("a1", demand=1, valuation=300)], [st], TimeGrid(8))


@pytest.mark.parametrize("field", ["start_location", "end_location"])
def test_ev_off_the_network_is_named(field):
    st = dataclasses.replace(make_station("L1"), location=2)
    ev = dataclasses.replace(make_ev("a1", demand=1, valuation=300), **{field: 9})
    with pytest.raises(ValueError, match=f"EV a1 has {field} 9, not a network node"):
        build_requests(line_network(), [ev], [st], TimeGrid(8))


def test_routed_unreachable_battery():
    net = line_network()
    st = make_station("L1")
    st = type(st)(**{**st.__dict__, "location": 2})
    ev = make_ev("a1", demand=1, valuation=300, capacity=2, initial=1)
    req = build_requests(net, [ev], [st], TimeGrid(8))[0]
    assert req.per_station == {}


def test_remaining_request_cuts_the_frozen_prefix():
    # window [2, 6) needing 2 slots, cut at each of five clearing times
    ev = make_ev("a1", demand=2, valuation=300, start=2, park=4)
    req = build_requests(None, [ev], [make_station("L1")], TimeGrid(6))[0]
    cut = [remaining_request(req, t) for t in (0, 2, 3, 4, 5)]
    assert [r.access("L1").arrival for r in cut[:4]] == [2, 2, 3, 4]
    assert cut[2].access("L1") == dataclasses.replace(req.access("L1"), arrival=3)  # only the arrival moves
    assert all(r.feasible_stations == frozenset({"L1"}) for r in cut[:4])
    # at 5 one slot is left of the two needed: the station is dropped
    assert (cut[4].per_station, cut[4].feasible_stations) == ({}, frozenset())
    assert all(r.ev is ev for r in cut)


def _request_digest(instance):
    rows = [
        (r.ev.id, list(r.per_station.items()), sorted(r.feasible_stations))
        for r in instance.requests
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# Digests of every request's per-station access and feasible set, recorded
# when each (EV, station) pair was routed by its own path-carrying search.
GOLDEN_REQUESTS = {
    "desk30": (DESK, 1000, "8fe4d0108c65e686fe76c58aabb9ab43b3a6ef81411cfcd93fdc9541184819a4"),
    "contested": (DESK_CONTESTED, 0, "69aa3a04729b1e2b3b8fb7b7ef4b79b34f078b2b98900523886896d23a17173e"),
    "ring10-walk": (
        GenParams(n_evs=40, n_stations=10, horizon=30, per_drive_point=7, per_walk_km=3),
        5,
        "42ecabfbfa8f469b1057ffe00ff470c24382e7bd71248076894f44aa71fc75f0",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REQUESTS))
def test_requests_match_golden_digests(case):
    params, seed, digest = GOLDEN_REQUESTS[case]
    inst = generate(params, seed)
    assert _request_digest(inst) == digest
    assert _request_digest(instance_from_dict(instance_to_dict(inst))) == digest


def test_routing_runs_once_per_station_location(monkeypatch):
    calls = []
    real = evmarket.transport.distances_km

    def recording(network, sources):
        calls.append(sorted(sources))
        return real(network, calls[-1])

    monkeypatch.setattr(evmarket.transport, "distances_km", recording)
    inst = generate(DESK, 1000)
    locations = sorted(st.location for st in inst.stations)
    assert calls == [locations]  # one table per station, shared by all EVs and resamples
    instance_from_dict(instance_to_dict(inst))
    assert calls == [locations, locations]


@pytest.mark.parametrize(
    "kw, field",
    [({"avg_speed": 0.0}, "avg_speed"),
     ({"edges": ((0, 1, 1.0), (1, 9, 1.0))}, "edges[1].b"),
     ({"charging_nodes": frozenset({9})}, "charging_nodes"),
     ({"edges": ((0, 1, 0.0),)}, "edges[0].km"),
     ({"per_drive_point": -1}, "per_drive_point"),
     ({"per_walk_km": -1}, "per_walk_km")],
)
def test_network_checks_its_fields(kw, field):
    # build_requests divided by a zero speed before the network checked itself
    with pytest.raises(ValueError) as exc:
        build_requests(line_network(**kw), [], [], TimeGrid(horizon_len=4))
    assert exc.value.field == field
