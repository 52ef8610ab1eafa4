import dataclasses

import numpy as np
import pytest

import evmarket.online
from evmarket import ClearingSchedule, build_model, generate, run_online, solve_exact
from evmarket.allocator import validate_allocation
from evmarket.experiments import DESK, _clearing_schedule
from evmarket.pricing import CounterfactualNotOptimal

from conftest import (
    bf_solver,
    flat_instance,
    make_ev,
    make_station,
    random_flat_instance,
    unproven_full_market_solver,
)


def test_clearing_schedule_validation():
    with pytest.raises(ValueError):
        ClearingSchedule(points=())
    with pytest.raises(ValueError):
        ClearingSchedule(points=(3, 3))
    assert ClearingSchedule.evenly(24, 5).points == (5, 10, 14, 19, 24)


@pytest.mark.parametrize("points, bad", [((3.5, 10.0), "3.5"), ((True, 5), "True"), ((2, 4.0), "4.0")])
def test_clearing_points_must_be_ints(points, bad):
    # a float point used to pass here and fail later inside run_online, and
    # True passed as a clearing at 1
    with pytest.raises(ValueError, match=rf"^clearing point {bad} must be an integer$"):
        ClearingSchedule(points)


def test_evenly_gives_count_distinct_points_after_0():
    for horizon in range(1, 60):
        for count in range(1, horizon + 1):
            points = ClearingSchedule.evenly(horizon, count).points
            assert len(points) == count and 1 <= points[0] and points[-1] == horizon
        for count in (0, horizon + 1):
            with pytest.raises(ValueError):
                ClearingSchedule.evenly(horizon, count)
    # every study clears at the same five points
    assert _clearing_schedule(dataclasses.replace(DESK, n_evs=10)).points == (3, 6, 9, 12, 15)


@pytest.mark.parametrize("points", [(-5, 40), (0, 2), (2, 5)])
def test_schedule_outside_the_horizon_is_refused(tiny1, points):
    # a point below 1 or past the horizon is no clearing of this market; at
    # (-5, 40) both would be no-ops, and the run would pass as optimal with nobody served
    with pytest.raises(ValueError, match=r"^clearing points must lie in \[1, 4\]$"):
        run_online(tiny1, ClearingSchedule(points), solver=bf_solver)


def test_unknown_mechanism(tiny2):
    with pytest.raises(ValueError):
        run_online(tiny2, ClearingSchedule((2,)), mechanism="nope")


def test_single_early_clearing_services_everyone(tiny1):
    # everyone reports at t=0 and the windows have slack, so one early
    # clearing reaches the same serviced set as the offline solve
    offline = solve_exact(build_model(tiny1)).allocation
    online = run_online(tiny1, ClearingSchedule((1,)), solver=bf_solver)
    assert online.allocation.objective <= offline.objective
    assert len(online.outcome.charged) == 2


def test_pinned_commitments_survive():
    # a1 reports first and takes the only slot; a2 arrives later and is
    # rejected because the commitment can't be touched
    inst = flat_instance(
        [make_station("L1", elec_cost=0, dem=(0, 0, 0, 0))],
        [
            make_ev("a1", demand=2, valuation=500, start=0, park=4),
            make_ev("a2", demand=2, valuation=900, start=2, park=2),
        ],
        horizon=4,
    )
    result = run_online(inst, ClearingSchedule((2, 4)), solver=bf_solver)
    first, second = result.clearings
    assert first.newly_committed == ["a1"]
    assert result.outcome.payments["a1"] == 0  # no competition at its clearing
    assert second.newly_committed == []
    assert result.allocation.assigned["a2"] is None
    # commitment monotonicity: nothing from clearing 1 was dropped later
    assert first.commitments_added <= result.allocation.schedule


def test_no_scheduling_before_report():
    inst = flat_instance(
        [make_station("L1", elec_cost=0, dem=(0, 0, 0, 0))],
        [make_ev("a1", demand=2, valuation=500, start=1, park=3)],
        horizon=4,
    )
    result = run_online(inst, ClearingSchedule((2, 4)), solver=bf_solver)
    times = {t for _, _, t in result.allocation.schedule}
    assert times and min(times) >= 2  # cleared at t=2, scheduled from there


def test_window_expired_agent_excluded():
    inst = flat_instance(
        [make_station("L1", elec_cost=0, dem=(0, 0, 0, 0))],
        [make_ev("a1", demand=2, valuation=500, start=0, park=2)],
        horizon=4,
    )
    result = run_online(inst, ClearingSchedule((3,)), solver=bf_solver)
    assert result.clearings[0].status == "no-op"
    assert result.status == "optimal"  # a no-op clearing proves nothing wrong
    assert result.outcome.charged == frozenset()


def test_run_status_flags_unproven_clearing(tiny1):
    proven = run_online(tiny1, ClearingSchedule((1,)), mechanism="coop", solver=bf_solver)
    assert proven.status == "optimal"

    def time_limited(model, incumbent=None, without=None):
        return dataclasses.replace(bf_solver(model, without=without), status="feasible_time_limited")

    unproven = run_online(tiny1, ClearingSchedule((1,)), mechanism="coop", solver=time_limited)
    assert [c.status for c in unproven.clearings] == ["feasible_time_limited"]
    assert unproven.status == "feasible_time_limited"


def test_vcg_refuses_unproven_clearing(tiny1):
    with pytest.raises(CounterfactualNotOptimal):
        run_online(tiny1, ClearingSchedule((1,)), mechanism="vcg",
                   solver=unproven_full_market_solver(2))


def test_carryover_keeps_agents_eligible():
    # clearing 1: a2 wins the contested window on welfare but declines the
    # coop price (100% markup), so nothing is committed.  With carryover a1
    # is retried at clearing 2 while its window still fits; without it a1
    # is simply gone.
    inst = flat_instance(
        [make_station("L1", elec_cost=50, dem=(0, 0, 0, 0))],
        [
            make_ev("a1", demand=2, valuation=215, start=0, park=4),
            make_ev("a2", demand=3, valuation=280, start=0, park=4),
        ],
        horizon=4,
    )
    schedule = ClearingSchedule((1, 2))
    kw = dict(mechanism="coop", incr=1.0, solver=bf_solver)
    dropped = run_online(inst, schedule, carryover=False, **kw)
    kept = run_online(inst, schedule, carryover=True, **kw)
    assert dropped.outcome.charged == frozenset()
    assert kept.outcome.charged == frozenset({"a1"})
    assert kept.outcome.payments["a1"] == 200


@pytest.mark.parametrize("seed", range(15))
def test_offline_dominates_online(seed):
    inst = random_flat_instance(seed + 1000)
    offline = solve_exact(build_model(inst)).allocation
    horizon = inst.time_grid.horizon_len
    pts = tuple(sorted({max(1, horizon // 3), max(2, 2 * horizon // 3), horizon}))
    online = run_online(inst, ClearingSchedule(pts), solver=bf_solver)
    assert online.allocation.objective <= offline.objective
    assert validate_allocation(inst, online.allocation) == []


def _engines_agree(model, incumbent=None, without=None):
    """solve_exact, checked against the oracle on the same market."""
    exact = solve_exact(model, incumbent=incumbent, without=without)
    oracle = bf_solver(model, without=without)
    assert exact.status == "optimal"
    assert exact.allocation.objective == oracle.allocation.objective
    assert validate_allocation(model.instance, exact.allocation) == []
    return exact


@pytest.mark.parametrize("mechanism", ["vcg", "coop"])
@pytest.mark.parametrize("seed", range(40))
def test_exact_engines_agree_on_every_clearing(seed, mechanism):
    # each clearing is a market of window-cut requests over the committed
    # load, and each VCG counterfactual one without a winner; HiGHS and the
    # oracle agree on all
    inst = random_flat_instance(seed + 2000)
    horizon = inst.time_grid.horizon_len
    pts = tuple(sorted({max(1, horizon // 3), max(2, 2 * horizon // 3), horizon}))
    online = run_online(inst, ClearingSchedule(pts), mechanism=mechanism, incr=0.0,
                        solver=_engines_agree, carryover=True)
    assert validate_allocation(inst, online.allocation) == []


def test_online_coop_pricing(tiny1):
    online = run_online(
        tiny1, ClearingSchedule((1,)), mechanism="coop", incr=0.0, solver=bf_solver
    )
    assert online.outcome.payments == {"a1": 200, "a2": 300}


@pytest.mark.parametrize("mechanism", ["vcg", "coop"])
@pytest.mark.parametrize("seed", range(3))
def test_pricing_is_scoped_to_each_clearings_eligible_agents(seed, mechanism, monkeypatch):
    # every agent a clearing hands to price is one of its eligible agents, so
    # none is committed already: pricing never needs to know about
    # commitments; and the clearing's model fixes no column, as it carries
    # the commitments as station load
    scopes = []
    price = evmarket.online.price

    def recording(mechanism, model, result, incr, solver, agent_ids):
        scopes.append(list(agent_ids))
        assert np.all(model.lb < model.ub)
        return price(mechanism, model, result, incr, solver=solver, agent_ids=agent_ids)

    monkeypatch.setattr(evmarket.online, "price", recording)
    inst = generate(DESK, seed)
    online = run_online(inst, _clearing_schedule(DESK), mechanism=mechanism, carryover=True)
    cleared = [c for c in online.clearings if c.status != "no-op"]
    assert len(scopes) == len(cleared) > 0
    committed = set()
    for clearing, scope in zip(cleared, scopes):
        assert set(scope) <= set(clearing.eligible)
        assert not set(scope) & committed
        committed |= set(clearing.newly_committed)
    assert committed == online.outcome.charged
