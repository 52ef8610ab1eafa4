import dataclasses

import pytest

from evmarket import build_model, calibrate_incr, generate, price_coop, price_vcg, solve_exact
from evmarket.allocator import STATUS_TIME_LIMITED, SolveResult
from evmarket.experiments import DESK, DESK_CONTESTED
from evmarket.pricing import CounterfactualNotOptimal, NoBreakeven, _coop_price, default_solver

from conftest import bf_solver, flat_instance, make_ev, make_station, random_flat_instance


def test_coop_price_markup():
    # 4.00 of electricity at 5% markup -> 4.20
    assert _coop_price(4, 100, 25) == 410
    assert _coop_price(4, 100, 50) == 420


def test_coop_worked_example():
    inst = flat_instance(
        [make_station("L1", elec_cost=100, dem=(0, 0, 0, 0))],
        [make_ev("a1", demand=4, valuation=500)],
    )
    alloc = solve_exact(build_model(inst)).allocation
    out = price_coop(inst, alloc, 0.05)
    assert out.payments["a1"] == 420
    assert out.utilities["a1"] == 80


def test_coop_drop_rule():
    inst = flat_instance(
        [make_station("L1", elec_cost=100, dem=(1, 1, 1, 1))],
        [make_ev("a1", demand=4, valuation=410)],
        imbalance_unit_cost=10,
    )
    alloc = solve_exact(build_model(inst)).allocation
    assert alloc.assigned["a1"] == "L1"
    out = price_coop(inst, alloc, 0.05)  # price 4.20 > value 4.10
    assert out.charged == frozenset()
    assert out.utilities["a1"] == 0
    # dropped slots stay unallocated: imbalance is back to the empty profile
    assert out.total_imbalance_cost == 40


def test_coop_tiny1_zero_markup(tiny1):
    alloc = solve_exact(build_model(tiny1)).allocation
    out = price_coop(tiny1, alloc, 0.0)
    assert out.payments == {"a1": 200, "a2": 300}
    assert out.budget == 0


def test_vcg_tiny2(tiny2):
    alloc = solve_exact(build_model(tiny2)).allocation
    out = price_vcg(tiny2, alloc, solver=bf_solver)
    assert out.payments["a1"] == 400  # second price
    assert out.utilities["a1"] == 100
    assert out.budget == 400


def test_vcg_tiny1_no_competition(tiny1):
    alloc = solve_exact(build_model(tiny1)).allocation
    out = price_vcg(tiny1, alloc, solver=bf_solver)
    assert out.payments == {"a1": 200, "a2": 300}
    assert out.budget == 0


def test_vcg_single_agent_pays_electricity():
    inst = flat_instance(
        [make_station("L1", elec_cost=100, dem=(0, 0, 0, 0))],
        [make_ev("a1", demand=2, valuation=500)],
    )
    alloc = solve_exact(build_model(inst)).allocation
    out = price_vcg(inst, alloc, solver=bf_solver)
    assert out.payments["a1"] == 200


def test_vcg_negative_payment_possible():
    # the station contracted for load the market doesn't otherwise bring:
    # the agent is paid for absorbing imbalance
    inst = flat_instance(
        [make_station("L1", elec_cost=0, dem=(1, 1))],
        [make_ev("a1", demand=2, valuation=10, park=2)],
        imbalance_unit_cost=100,
        horizon=2,
    )
    alloc = solve_exact(build_model(inst)).allocation
    out = price_vcg(inst, alloc, solver=bf_solver)
    assert out.payments["a1"] == -200
    assert out.utilities["a1"] == 210


def test_vcg_requires_proven_counterfactuals(tiny2):
    alloc = solve_exact(build_model(tiny2)).allocation

    def flaky(instance, time_limit=None, incumbent=None):
        return SolveResult(allocation=alloc, status=STATUS_TIME_LIMITED)

    with pytest.raises(CounterfactualNotOptimal):
        price_vcg(tiny2, alloc, solver=flaky)


def test_budget_no_agents():
    inst = flat_instance([make_station("L1", dem=(2,))], [], imbalance_unit_cost=100, horizon=1)
    alloc = solve_exact(build_model(inst)).allocation
    out = price_coop(inst, alloc, 0.0)
    assert out.budget == -200


def test_calibrate_incr():
    inst = flat_instance(
        [make_station("L1", elec_cost=100, dem=(0, 0, 0, 0))],
        [make_ev("a1", demand=4, valuation=600)],
    )
    # 400*0.001 rounds to a whole-cent payment of 400: budget still 0,
    # so the walk stops one step later
    assert calibrate_incr([inst], solver=bf_solver) == pytest.approx(0.002)


def test_calibrate_incr_walks_past_imbalance():
    inst = flat_instance(
        [make_station("L1", elec_cost=100, dem=(0, 0, 0, 1))],
        [make_ev("a1", demand=2, valuation=600, park=2)],
        imbalance_unit_cost=6,
    )
    incr = calibrate_incr([inst], solver=bf_solver)
    # residual imbalance 18 cents; half-up rounding needs 200*incr >= 18.5
    assert incr == pytest.approx(0.093)


def test_calibrate_incr_no_breakeven():
    inst = flat_instance(
        [make_station("L1", elec_cost=0, dem=(2, 2))],
        [make_ev("a1", demand=1, valuation=100, park=2)],
        imbalance_unit_cost=100,
        horizon=2,
    )
    with pytest.raises(NoBreakeven):
        calibrate_incr([inst], solver=bf_solver)


def test_calibrate_incr_rejects_bad_step(tiny1):
    with pytest.raises(ValueError):
        calibrate_incr([tiny1], step=0)


def _rebuild_and_milp(instance, time_limit=None, incumbent=None):
    """Every counterfactual through branch-and-cut, as without the LP rungs."""
    return default_solver(instance)


def _ladder_matches_milp(instance):
    alloc = solve_exact(build_model(instance)).allocation
    return price_vcg(instance, alloc) == price_vcg(instance, alloc, solver=_rebuild_and_milp)


@pytest.mark.parametrize(
    "params, seed",
    [(DESK, 1000), (DESK, 1001), *((DESK_CONTESTED, s) for s in range(5)),
     (dataclasses.replace(DESK, n_evs=60), 2)],
    ids=["desk30-1000", "desk30-1001", *(f"contested-{s}" for s in range(5)), "desk60-2"],
)
def test_vcg_ladder_matches_milp(params, seed):
    assert _ladder_matches_milp(generate(params, seed))


def test_vcg_ladder_matches_milp_random_flat():
    assert [s for s in range(200) if not _ladder_matches_milp(random_flat_instance(s))] == []
