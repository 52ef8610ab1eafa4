import dataclasses

import pytest

import evmarket.allocator
from evmarket import Allocation, build_model, solve_bruteforce, solve_exact, validate_allocation
from evmarket.allocator import InfeasiblePin, evaluate_objective

from conftest import flat_instance, make_ev, make_station, random_flat_instance


def test_tiny1_objective(tiny1):
    result = solve_exact(build_model(tiny1))
    assert result.status == "optimal"
    # (5.00 - 2.00) + (4.00 - 3.00)
    assert result.allocation.objective == 400
    assert set(result.allocation.assigned.values()) == {"L1", "L2"}
    assert validate_allocation(tiny1, result.allocation) == []


def test_tiny2_objective(tiny2):
    result = solve_exact(build_model(tiny2))
    assert result.allocation.objective == 500
    assigned = {a: s for a, s in result.allocation.assigned.items() if s}
    assert assigned == {"a1": "L1"}


def test_empty_market_pure_imbalance():
    inst = flat_instance(
        [make_station("L1", dem=(2, 2))], [], imbalance_unit_cost=50, horizon=2
    )
    result = solve_exact(build_model(inst))
    assert result.allocation.objective == -200
    assert result.allocation.schedule == frozenset()


def test_model_shape():
    # 2 EVs x 2 stations x 4 time points with full windows:
    # 4 assignment vars, 16 charge vars, 8 imbalance vars
    inst = flat_instance(
        [make_station("L1"), make_station("L2")],
        [make_ev("a1", demand=1, valuation=100), make_ev("a2", demand=1, valuation=100)],
        horizon=4,
    )
    m = build_model(inst)
    assert len(m.phi_index) == 4
    assert len(m.charge_index) == 16
    assert len(m.m_index) == 8
    assert m.n_vars == 28
    # 2 single-station, 4 min-charge, 4 battery-capacity, 16 assignment-link,
    # 8 station-capacity and 8 + 8 imbalance rows
    assert m.A.shape == (50, 28)
    assert m.A.nnz == 136


def test_infeasible_pairs_pruned():
    # demand 3 never fits a 2-point window: no vars for that pair
    inst = flat_instance(
        [make_station("L1")],
        [make_ev("a1", demand=3, valuation=100, park=2)],
        horizon=2,
    )
    m = build_model(inst)
    assert len(m.phi_index) == 0


def test_determinism(tiny2):
    a = solve_exact(build_model(tiny2)).allocation
    b = solve_exact(build_model(tiny2)).allocation
    assert a == b


@pytest.mark.parametrize("seed", range(12))
def test_engines_agree(seed):
    # the HiGHS engine against the enumeration oracle
    inst = random_flat_instance(seed * 31 + 5)
    assert solve_exact(build_model(inst)).allocation.objective == solve_bruteforce(inst).objective


def test_objective_drift_raises(tiny1, monkeypatch):
    real_milp = evmarket.allocator.milp

    def off_by_one_cent(*args, **kwargs):
        res = real_milp(*args, **kwargs)
        res.fun += 1.0
        return res

    monkeypatch.setattr(evmarket.allocator, "milp", off_by_one_cent)
    with pytest.raises(RuntimeError, match="drifted"):
        solve_exact(build_model(tiny1))


def test_evaluate_objective_matches_solver(tiny1):
    r = solve_exact(build_model(tiny1))
    assert evaluate_objective(
        tiny1, r.allocation.assigned, r.allocation.schedule
    ) == r.allocation.objective


def test_validate_catches_min_charge(tiny1):
    # assigned but only one charging slot for a demand of 2
    alloc = Allocation(
        assigned={"a1": "L1", "a2": None},
        schedule=frozenset({("a1", "L1", 0)}),
        objective=0,
    )
    codes = {v.code for v in validate_allocation(tiny1, alloc)}
    assert "min-charge" in codes


def test_validate_catches_capacity_and_window():
    inst = flat_instance(
        [make_station("L1", slots=1)],
        [
            make_ev("a1", demand=1, valuation=100, park=2),
            make_ev("a2", demand=1, valuation=100, park=2),
        ],
        horizon=2,
    )
    both_at_t0 = Allocation(
        assigned={"a1": "L1", "a2": "L1"},
        schedule=frozenset({("a1", "L1", 0), ("a2", "L1", 0)}),
        objective=0,
    )
    codes = {v.code for v in validate_allocation(inst, both_at_t0)}
    assert "station-capacity" in codes

    outside = Allocation(
        assigned={"a1": "L1", "a2": None},
        schedule=frozenset({("a1", "L1", 5)}),
        objective=0,
    )
    codes = {v.code for v in validate_allocation(inst, outside)}
    assert "outside-window" in codes


def test_validate_charging_without_assignment(tiny2):
    alloc = Allocation(
        assigned={"a1": "L1", "a2": None},
        schedule=frozenset({("a1", "L1", 0), ("a1", "L1", 1), ("a2", "L1", 1)}),
        objective=0,
    )
    codes = {v.code for v in validate_allocation(tiny2, alloc)}
    assert "unassigned-charging" in codes


def test_pins_are_respected(tiny2):
    # force the slot to the lower-value agent: solver must keep it
    pinned = Allocation(
        assigned={"a2": "L1"},
        schedule=frozenset({("a2", "L1", 0), ("a2", "L1", 1)}),
        objective=0,
    )
    inst = dataclasses.replace(tiny2, pinned=pinned)
    result = solve_exact(build_model(inst))
    assert result.allocation.assigned["a2"] == "L1"
    assert result.allocation.assigned.get("a1") is None
    assert result.allocation.objective == 400


BAD_PINS = [  # (violation code, pinned assignment, pinned schedule)
    ("station-capacity", {"a1": "L1", "a2": "L1"},
     {("a1", "L1", 0), ("a1", "L1", 1), ("a2", "L1", 0), ("a2", "L1", 1)}),
    ("outside-window", {"a1": "L1"}, {("a1", "L1", 1), ("a1", "L1", 2)}),
    ("min-charge", {"a1": "L1"}, {("a1", "L1", 0)}),
    ("battery-capacity", {"a2": "L1"}, {("a2", "L1", 0), ("a2", "L1", 1), ("a2", "L1", 2)}),
    ("unassigned-charging", {"a1": None}, {("a1", "L1", 0)}),
    ("unknown-agent", {"zz": "L1"}, {("zz", "L1", 0)}),
    ("unknown-station", {"a1": "LX"}, {("a1", "LX", 0), ("a1", "LX", 1)}),
    # reachable, but the time cost eats the whole valuation
    ("infeasible-station", {"a3": "L1"}, {("a3", "L1", 0)}),
]


@pytest.mark.parametrize("code, assigned, schedule", BAD_PINS, ids=[c[0] for c in BAD_PINS])
def test_contradictory_pins_raise(code, assigned, schedule):
    inst = flat_instance(
        [make_station("L1")],
        [
            make_ev("a1", demand=2, valuation=500, park=2),  # window [0, 2)
            make_ev("a2", demand=2, valuation=400),  # window [0, 4)
            make_ev("a3", demand=1, valuation=100, time_cost=100),
        ],
    )
    pinned = Allocation(assigned=assigned, schedule=frozenset(schedule), objective=0)
    assert "L1" in inst.request("a3").per_station
    with pytest.raises(InfeasiblePin, match=code):
        build_model(dataclasses.replace(inst, pinned=pinned))


def test_validate_reports_unknown_station(tiny2):
    alloc = Allocation(
        assigned={"a1": "LX", "a2": None},
        schedule=frozenset({("a1", "LX", 0), ("a1", "LX", 1)}),
        objective=0,
    )
    codes = {v.code for v in validate_allocation(tiny2, alloc)}
    assert "unknown-station" in codes


def test_frozen_before_blocks_past_slots():
    inst = flat_instance(
        [make_station("L1", dem=(0, 0, 0, 0))],
        [make_ev("a1", demand=2, valuation=500, park=4)],
        horizon=4,
    )
    frozen = dataclasses.replace(inst, frozen_before=3)
    result = solve_exact(build_model(frozen))
    # only one schedulable point remains: demand can't fit, nothing allocated
    assert result.allocation.schedule == frozenset()

    frozen2 = dataclasses.replace(inst, frozen_before=2)
    result2 = solve_exact(build_model(frozen2))
    assert {t for _, _, t in result2.allocation.schedule} == {2, 3}
