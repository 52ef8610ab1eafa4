import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from evmarket import (
    Allocation, build_model, calibrate_incr, generate, price, price_coop, price_vcg, solve_exact,
)
from evmarket.allocator import STATUS_OPTIMAL, STATUS_TIME_LIMITED, SolveResult, _Session, evaluate_objective
from evmarket.experiments import DESK, DESK_CONTESTED
from evmarket.pricing import CounterfactualNotOptimal, NoBreakeven, _coop_price, markup_grid

from conftest import (
    bf_solver, drop_agent, flat_instance, make_ev, make_station, milp_allocation,
    random_flat_instance, unproven_full_market_solver,
)


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


def test_coop_markup_no_run_can_honour_raises(tiny1):
    # a negative markup charges negative fees; NaN and infinity cannot be rounded
    alloc = solve_exact(build_model(tiny1)).allocation
    for bad in (-0.001, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="incr"):
            price_coop(tiny1, alloc, bad)


@pytest.mark.parametrize("incr", [0.0025, 0.0035, 0.0045, 0.0001])
def test_coop_markup_off_the_grid_is_refused(incr):
    # a markup between two thousandths was once rounded to one of them, half
    # to even: 0.0025 charged the fee of 0.002, 0.0035 and 0.0045 that of 0.004
    inst = flat_instance([make_station("L1", elec_cost=5000, dem=(0, 0, 0, 0))],
                         [make_ev("a1", demand=2, valuation=20000)])
    alloc = solve_exact(build_model(inst)).allocation
    with pytest.raises(ValueError, match=f"^incr must be a whole number of thousandths >= 0, got {incr}$"):
        price_coop(inst, alloc, incr)
    assert price_coop(inst, alloc, 0.002).payments["a1"] == 10020


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

    def flaky(instance, time_limit=None, incumbent=None, without=None):
        return SolveResult(allocation=alloc, status=STATUS_TIME_LIMITED)

    with pytest.raises(CounterfactualNotOptimal,
                       match="^counterfactual solve without a1 ended with status feasible_time_limited$"):
        price_vcg(tiny2, alloc, solver=flaky)


def test_pricing_prices_the_winners_its_caller_names(tiny2):
    # pricing reads no commitments: on a market whose second charger an
    # earlier clearing holds, it prices every winner unless the caller names
    # whom to price
    two_chargers = dataclasses.replace(tiny2.stations[0], slots=2)
    inst = dataclasses.replace(tiny2, stations=(two_chargers,),
                               committed=frozenset({("z1", "L1", 0), ("z1", "L1", 1)}))
    model = build_model(inst)
    result = solve_exact(model)
    everyone = price("vcg", model, result, 0.0)
    assert everyone.charged == frozenset({"a1"})
    assert (everyone.payments["a1"], everyone.utilities["a1"]) == (400, 100)  # a2's 400 displaced
    assert price("vcg", model, result, 0.0, agent_ids=[]).charged == frozenset()
    assert price("vcg", model, result, 0.0, agent_ids=["a2"]).charged == frozenset()  # a loser


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


def test_calibrate_incr_refuses_unproven_solve(tiny1):
    # the markup of a market whose allocation is not proven optimal would be
    # calibrated on whatever the solver had when it stopped
    one_agent = drop_agent(tiny1, "a2")
    with pytest.raises(CounterfactualNotOptimal,
                       match="^allocation solve of scenario 1 ended with status "
                             "feasible_time_limited"):
        calibrate_incr([one_agent, tiny1], solver=unproven_full_market_solver(2))


def test_calibrate_incr_refuses_an_empty_family():
    with pytest.raises(ValueError, match="^scenario_family must hold at least one instance$"):
        calibrate_incr([])


def test_calibrate_incr_rejects_bad_step(tiny1):
    with pytest.raises(ValueError):
        calibrate_incr([tiny1], step=0)


@pytest.mark.parametrize("step", [-0.001, 0.0001, 0.0015, 0.0025, math.inf, math.nan])
def test_calibrate_incr_refuses_a_step_off_the_grid(tiny1, step):
    # a step the thousandths grid cannot take exactly is refused, not snapped
    with pytest.raises(ValueError, match="step must be a whole number of thousandths"):
        calibrate_incr([tiny1], step=step)


@pytest.mark.parametrize("step, mils", [(0.001, 1), (0.002, 2), (0.007, 7), (0.025, 25), (2.0, 2000)])
def test_markup_grid_takes_whole_thousandths(step, mils):
    assert markup_grid(step) == range(1, 1001, mils)  # 0.007 * 1000 is 7.000000000000001


def _walked_incr(instance, step_mil):
    """The reference for calibrate_incr on one scenario: walk the markup up
    from 0.1% one step at a time to the first positive budget (None if none)."""
    allocation = solve_exact(build_model(instance)).allocation
    for incr_mil in range(1, 1001, step_mil):
        if price_coop(instance, allocation, incr_mil / 1000).budget > 0:
            return incr_mil / 1000
    return None


@pytest.mark.parametrize("step_mil", [1, 7])
@pytest.mark.parametrize("elec_cost, imbalance, seed", [
    (10, 1, 5), (10, 1, 6), (10, 2, 6), (10, 2, 7), (30, 1, 5), (30, 1, 7), (45, 1, 5), (45, 2, 8),
    (45, 2, 6), (30, 2, 9),
])
def test_calibrate_incr_matches_the_walk(elec_cost, imbalance, seed, step_mil):
    # the binary search inside each segment between fee/valuation crossings
    # stops where the walk does, also where agents decline before the stop
    # (seeds 6, 8 and 45/1/5) and where no markup breaks even (45/2/6)
    params = dataclasses.replace(DESK, n_evs=10, n_stations=3, horizon=12, elec_cost=elec_cost,
                                 imbalance_unit_cost=imbalance, max_demand=4)
    inst = generate(params, seed)
    walked = _walked_incr(inst, step_mil)
    if walked is None:
        with pytest.raises(NoBreakeven):
            calibrate_incr([inst], step=step_mil / 1000)
    else:
        assert calibrate_incr([inst], step=step_mil / 1000) == walked


def test_price_vcg_frees_its_model(tiny2, built_models):
    alloc = solve_exact(build_model(tiny2)).allocation
    assert price_vcg(tiny2, alloc).charged == {"a1"}
    assert len(built_models) == 1 and built_models[0]() is None


def _rebuild_and_milp(model, time_limit=None, incumbent=None, without=None):
    """Every counterfactual on its own model of the market without the
    agent, through scipy's milp alone: the reference for the session's rungs."""
    return SolveResult(milp_allocation(build_model(drop_agent(model.instance, without))), STATUS_OPTIMAL)


def _ladder_proofs(instance):
    """The proof of each VCG counterfactual of price_vcg, once its payments
    match those of _rebuild_and_milp, which proves every counterfactual by
    branch-and-cut alone, and the session holds its model's bounds again."""
    alloc = solve_exact(build_model(instance)).allocation
    proofs, models = [], []

    def recording(model, incumbent=None, without=None):
        result = solve_exact(model, incumbent=incumbent, without=without)
        proofs.append(result.proof)
        models.append(model)
        return result

    assert price_vcg(instance, alloc, solver=recording) == price_vcg(instance, alloc, solver=_rebuild_and_milp)
    if models:
        _assert_bounds_as_built(models[0], models[0].lb, models[0].ub)
    return proofs


LADDER_MARKETS = [*((DESK, s) for s in range(1000, 1010)), *((DESK_CONTESTED, s) for s in range(10)),
                  (dataclasses.replace(DESK, n_evs=60), 2)]


@pytest.mark.parametrize(
    "params, seed", LADDER_MARKETS,
    ids=[f"{'contested' if p is DESK_CONTESTED else f'desk{p.n_evs}'}-{s}" for p, s in LADDER_MARKETS],
)
def test_vcg_ladder_matches_milp(params, seed):
    # the market's bound certifies counterfactuals in every desk market, and
    # every contested market sends some down the ladder
    proofs = _ladder_proofs(generate(params, seed))
    if params is DESK_CONTESTED:
        assert set(proofs) - {"market-bound"}
    else:
        assert "market-bound" in proofs


def test_vcg_ladder_matches_milp_random_flat():
    proofs = Counter(p for s in range(200) for p in _ladder_proofs(random_flat_instance(s)))
    assert proofs["market-bound"] and sum(proofs.values()) > proofs["market-bound"]


def test_market_lp_stopped_by_the_time_limit_certifies_nothing():
    # the market LP runs in the first counterfactual and within its time
    # limit: at 0 s it stops, that counterfactual is not proven, and the
    # session never certifies by the market's bound; the payments stay the same
    inst = generate(DESK, 1000)
    model = build_model(inst)
    main = solve_exact(model)
    winner = min(aid for aid, sid in main.allocation.assigned.items() if sid)
    assigned = {**main.allocation.assigned, winner: None}
    schedule = frozenset(tr for tr in main.allocation.schedule if tr[0] != winner)
    stopped = solve_exact(model, time_limit=0.0, without=winner,
                          incumbent=Allocation(assigned, schedule, evaluate_objective(inst, assigned, schedule)))
    assert stopped.status == STATUS_TIME_LIMITED
    assert model._session.market_terms(model, 7.0) is None
    proofs = []

    def recording(model, incumbent=None, without=None):
        result = solve_exact(model, incumbent=incumbent, without=without)
        proofs.append(result.proof)
        return result

    assert price("vcg", model, main, 0.0, solver=recording) == price_vcg(inst, main.allocation)
    assert len(proofs) == 25 and "market-bound" not in proofs


def _assert_bounds_as_built(model, lb, ub):
    assert np.array_equal(model.lb, lb) and np.array_equal(model.ub, ub)
    session = model._session.highs.getLp()
    assert np.array_equal(session.col_lower_, lb) and np.array_equal(session.col_upper_, ub)


@pytest.mark.parametrize("params, seed", [(DESK, 1000), (DESK_CONTESTED, 0)],
                         ids=["desk30-1000", "contested-0"])
def test_counterfactual_order_leaves_no_state(params, seed):
    # the warm-started LP starts each counterfactual from the last one's
    # basis; payments must not depend on which ran before
    inst = generate(params, seed)
    alloc = solve_exact(build_model(inst)).allocation
    first = price_vcg(inst, alloc)
    assert price_vcg(inst, alloc) == first
    winners = sorted(first.charged)
    assert price_vcg(inst, alloc, agent_ids=winners[::-1]) == price_vcg(inst, alloc, agent_ids=winners)
    one_by_one = {aid: price_vcg(inst, alloc, agent_ids=[aid]).payments[aid]
                  for aid in winners[::-1]}
    assert one_by_one == {aid: first.payments[aid] for aid in winners}


@pytest.mark.parametrize("params, seed", [(DESK, 1001), (DESK_CONTESTED, 0), (DESK_CONTESTED, 3)],
                         ids=["desk30-1001", "contested-0", "contested-3"])
def test_model_after_pricing_is_the_parent(params, seed):
    # after the counterfactuals' LP and branch-and-cut runs, the main solve
    # lands on the same optimum among ties as on a fresh session
    inst = generate(params, seed)
    model = build_model(inst)
    main = solve_exact(model)
    lb, ub = model.lb.copy(), model.ub.copy()
    price("vcg", model, main, 0.0)
    assert solve_exact(model).allocation == main.allocation
    _assert_bounds_as_built(model, lb, ub)


@pytest.mark.parametrize("params, seed, failing, nth", [(DESK, 1000, True, 1), (DESK_CONTESTED, 0, False, 3)],
                         ids=["lp-run", "branch-and-cut-run"])
def test_raising_counterfactual_restores_bounds(params, seed, failing, nth, monkeypatch):
    # the market LP (desk-30, whose bound proves every counterfactual) or the
    # third branch-and-cut run (contested) raises
    inst = generate(params, seed)
    model = build_model(inst)
    main = solve_exact(model)
    lb, ub = model.lb.copy(), model.ub.copy()
    real_run, runs = _Session.run, []

    def fails_nth(self, time_limit, relaxation):
        runs.append(relaxation)
        if runs.count(failing) == nth:
            raise RuntimeError("HiGHS failed")
        return real_run(self, time_limit, relaxation)

    monkeypatch.setattr(_Session, "run", fails_nth)
    with pytest.raises(RuntimeError, match="HiGHS failed"):
        price("vcg", model, main, 0.0)
    assert runs[-1] == failing
    _assert_bounds_as_built(model, lb, ub)
