import pytest

import evmarket.bruteforce
from evmarket import build_model, solve_bruteforce, solve_exact, validate_allocation
from evmarket.bruteforce import TooLarge

from conftest import flat_instance, make_ev, make_station, random_flat_instance


def test_tiny1(tiny1):
    assert solve_bruteforce(tiny1).objective == 400


def test_tiny2(tiny2):
    alloc = solve_bruteforce(tiny2)
    assert alloc.objective == 500
    assert alloc.assigned["a1"] == "L1"


def test_exact_fit_window_unique_schedule():
    inst = flat_instance(
        [make_station("L1")],
        [make_ev("a1", demand=2, valuation=300, park=2)],
        horizon=2,
    )
    alloc = solve_bruteforce(inst)
    assert alloc.schedule == frozenset({("a1", "L1", 0), ("a1", "L1", 1)})


def test_guard_rails():
    too_many_evs = flat_instance(
        [make_station("L1", slots=5)],
        [make_ev(f"a{k}", demand=1, valuation=100) for k in range(5)],
    )
    with pytest.raises(TooLarge):
        solve_bruteforce(too_many_evs)

    long_horizon = flat_instance(
        [make_station("L1", dem=[0] * 11)],
        [make_ev("a1", demand=1, valuation=100, park=11)],
        horizon=11,
    )
    with pytest.raises(TooLarge):
        solve_bruteforce(long_horizon)


def test_bookkeeping_check_raises(tiny1, monkeypatch):
    # a RuntimeError, not an assert, so the check also runs under python -O
    monkeypatch.setattr(evmarket.bruteforce, "evaluate_objective", lambda *args: -1)
    with pytest.raises(RuntimeError, match="bookkeeping"):
        solve_bruteforce(tiny1)


@pytest.mark.parametrize("seed", range(40))
def test_agrees_with_exact_solver(seed):
    inst = random_flat_instance(seed)
    bf = solve_bruteforce(inst)
    ex = solve_exact(build_model(inst))
    assert bf.objective == ex.allocation.objective, f"seed {seed}"
    assert validate_allocation(inst, bf) == []
