import dataclasses
import random
import weakref

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import evmarket.cli
import evmarket.experiments
from evmarket import EvType, Instance, Station, TimeGrid, build_model, build_requests, solve_bruteforce
from evmarket.allocator import STATUS_OPTIMAL, STATUS_TIME_LIMITED, SolveResult, _allocation_from_x


def flat_instance(stations, evs, imbalance_unit_cost=0, horizon=4):
    """Assemble an Instance with no road network (zero travel cost)."""
    grid = TimeGrid(horizon_len=horizon)
    stations = tuple(stations)
    evs = tuple(evs)
    return Instance(
        time_grid=grid,
        stations=stations,
        requests=tuple(build_requests(None, evs, stations, grid)),
        imbalance_unit_cost=imbalance_unit_cost,
    )


def make_station(sid, slots=1, rate=1, elec_cost=100, dem=(0, 0, 0, 0)):
    return Station(
        id=sid, location=0, slots=slots, rate=rate, elec_cost=elec_cost,
        expected_demand=tuple(dem),
    )


def make_ev(aid, demand, valuation, start=0, park=4, capacity=None,
            initial=0, time_cost=0):
    return EvType(
        id=aid,
        discharge_rate=1.0,
        battery_capacity=capacity if capacity is not None else initial + demand,
        battery_initial=initial,
        start_location=0,
        start_time=start,
        end_location=0,
        park_duration=park,
        energy_demand=demand,
        base_valuation=valuation,
        time_cost=time_cost,
    )


@pytest.fixture
def tiny1():
    # two stations, no congestion: both EVs fit, payments are pure
    # electricity cost
    return flat_instance(
        stations=[
            make_station("L1", elec_cost=100, dem=(0, 0, 0, 0)),
            make_station("L2", elec_cost=100, dem=(0, 0, 0, 0)),
        ],
        evs=[
            make_ev("a1", demand=2, valuation=500),
            make_ev("a2", demand=3, valuation=400),
        ],
        imbalance_unit_cost=0,
        horizon=4,
    )


@pytest.fixture
def tiny2():
    # one slot, two EVs that both want it: classic second-price situation
    return flat_instance(
        stations=[make_station("L1", elec_cost=0, dem=(0, 0))],
        evs=[
            make_ev("a1", demand=2, valuation=500, park=2),
            make_ev("a2", demand=2, valuation=400, park=2),
        ],
        imbalance_unit_cost=0,
        horizon=2,
    )


def random_flat_instance(seed, max_evs=4, max_stations=3, max_horizon=10):
    """Small random instance inside the brute-force guard rails."""
    rng = random.Random(seed)
    horizon = rng.randint(2, max_horizon)
    n_st = rng.randint(1, max_stations)
    n_ev = rng.randint(1, max_evs)
    stations = [
        make_station(
            f"L{i+1}",
            slots=rng.randint(1, 2),
            rate=rng.randint(1, 2),
            elec_cost=rng.choice([0, 50, 100]),
            dem=[rng.randint(0, 2) for _ in range(horizon)],
        )
        for i in range(n_st)
    ]
    evs = []
    for k in range(n_ev):
        start = rng.randint(0, horizon - 1)
        park = rng.randint(1, horizon - start)
        demand = rng.randint(1, 3)
        evs.append(make_ev(
            f"a{k+1}",
            demand=demand,
            valuation=rng.randint(0, 600),
            start=start,
            park=park,
            time_cost=rng.choice([0, 0, 40]),
        ))
    return flat_instance(
        stations, evs,
        imbalance_unit_cost=rng.choice([0, 10, 60]),
        horizon=horizon,
    )


def pytest_terminal_summary(terminalreporter):
    """Echo the per-criterion pass/fail lines from the acceptance suite."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def built_models(monkeypatch):
    """A weak reference to each model that the library's own modules build."""
    refs = []

    def recording(instance):
        model = build_model(instance)
        refs.append(weakref.ref(model))
        return model

    for module in (evmarket.cli, evmarket.experiments, evmarket.online, evmarket.pricing):
        monkeypatch.setattr(module, "build_model", recording)
    return refs


def drop_agent(instance, agent_id):
    """The market without agent_id's request (instance itself for None)."""
    if agent_id is None:
        return instance
    return dataclasses.replace(
        instance, requests=tuple(r for r in instance.requests if r.ev.id != agent_id))


def bf_solver(model, time_limit=None, incumbent=None, without=None):
    """Brute-force enumeration wrapped in the Solver interface, over the
    model's market without the agent `without`; always optimal."""
    return SolveResult(allocation=solve_bruteforce(drop_agent(model.instance, without)), status=STATUS_OPTIMAL)


def unproven_full_market_solver(n_agents):
    """Brute-force solver that reports a market of n_agents as time-limited
    and every smaller market (each VCG counterfactual) as optimal."""
    def solve(model, time_limit=None, incumbent=None, without=None):
        market = drop_agent(model.instance, without)
        status = STATUS_TIME_LIMITED if len(market.requests) == n_agents else STATUS_OPTIMAL
        return SolveResult(allocation=solve_bruteforce(market), status=status)
    return solve


def milp_allocation(model):
    """scipy's milp, a HiGHS instance of its own, on the model's arrays with
    a zero gap: the reference that the model's session must reproduce."""
    res = milp(-model.c, constraints=LinearConstraint(model.A, -np.inf, model.b),
               integrality=model.is_binary.astype(int), bounds=Bounds(model.lb, model.ub),
               options={"mip_rel_gap": 0.0})
    assert res.status == 0, res.message
    return _allocation_from_x(model, np.round(res.x))
