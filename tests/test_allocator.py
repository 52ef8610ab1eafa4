import dataclasses
import hashlib
from collections import Counter

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

import evmarket.allocator
from evmarket import (
    Allocation,
    build_model,
    generate,
    price,
    price_vcg,
    solve_bruteforce,
    solve_exact,
    validate_allocation,
)
from evmarket.allocator import (
    DUAL_GRID, Infeasible, IpModel, _bound_terms, _bound_without, _core, _dual_bound, _Session,
    evaluate_objective,
)
from evmarket.experiments import DESK, DESK_CONTESTED
from evmarket.transport import remaining_request

from conftest import (
    drop_agent, flat_instance, make_ev, make_station, milp_allocation, random_flat_instance,
)


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
    assert int((~m.is_binary).sum()) == 8  # one imbalance variable per cell
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
    real_run = _Session.run

    def off_by_one_cent(self, time_limit, relaxation):
        status, x, y, info = real_run(self, time_limit, relaxation)
        info.objective_function_value += 1.0
        return status, x, y, info

    monkeypatch.setattr(_Session, "run", off_by_one_cent)
    with pytest.raises(RuntimeError, match="drifted"):
        solve_exact(build_model(tiny1))


@pytest.mark.parametrize("status", ["kOptimal", "kTimeLimit"])
def test_branch_and_cut_point_that_breaks_a_rule_raises(tiny2, monkeypatch, status):
    # a rounded point that books both EVs onto tiny2's one charger, reported
    # at its own exact welfare so that only validate_allocation can catch it
    model = build_model(tiny2)
    real_run = _Session.run

    def double_booked(self, time_limit, relaxation):
        _, _, y, info = real_run(self, time_limit, relaxation)
        x = np.zeros(model.n_vars)
        x[list(model.phi_index.values()) + list(model.charge_index.values())] = 1.0
        info.objective_function_value = -900.0  # valuations 500 + 400, electricity free
        return getattr(_core.HighsModelStatus, status), x, y, info

    monkeypatch.setattr(_Session, "run", double_booked)
    with pytest.raises(RuntimeError, match=r"station-capacity: 2 EVs at \(L1,0\) with 1 chargers"):
        solve_exact(model)


def test_infeasible_model_raises(tiny1):
    model = build_model(tiny1)
    model.b[0] = -1.0  # a1's one-station row: its assignments sum to at most -1
    with pytest.raises(Infeasible):
        solve_exact(model)


def _proofs_and_payments(half_cent: bool):
    """tiny1 with an EV whose charge costs more than its value, so no optimum
    serves it: the proof of each VCG counterfactual, and the payments.  With
    half_cent, half a cent is added to a3's value at L1 on the model before
    its first solve."""
    inst = flat_instance(
        [make_station("L1"), make_station("L2")],
        [make_ev("a1", demand=2, valuation=500), make_ev("a2", demand=3, valuation=400),
         make_ev("a3", demand=2, valuation=150)],
    )
    model = build_model(inst)
    if half_cent:
        model.c[model.phi_index[("a3", "L1")]] += 0.5
    proofs = []

    def recording(model, incumbent=None, without=None):
        result = solve_exact(model, incumbent=incumbent, without=without)
        proofs.append(result.proof)
        return result

    outcome = price("vcg", model, solve_exact(model), 0.0, solver=recording)
    return proofs, outcome.payments


def test_fractional_objective_skips_the_dual_bound():
    # the exact dual bound needs integral c, b and A; a fractional c sends
    # every counterfactual past the market's bound and its own LP to
    # branch-and-cut, which prices the same
    proofs, payments = _proofs_and_payments(half_cent=False)
    assert proofs == ["market-bound", "market-bound"]
    assert _proofs_and_payments(half_cent=True) == (["milp", "milp"], payments)


REFERENCE_MARKETS = [
    *((DESK, s) for s in range(1000, 1020)),
    *((DESK_CONTESTED, s) for s in range(10)),
    (dataclasses.replace(DESK, n_evs=60), 2),
]


@pytest.mark.parametrize(
    "params, seed", REFERENCE_MARKETS,
    ids=[f"{'contested' if p is DESK_CONTESTED else f'desk{p.n_evs}'}-{s}" for p, s in REFERENCE_MARKETS],
)
def test_session_matches_scipy_milp(params, seed):
    # branch-and-cut on the model's session against scipy's milp on the same
    # arrays: on a fresh session, and again after every counterfactual of
    # price_vcg has run its LP and branch-and-cut runs on that session
    inst = generate(params, seed)
    model = build_model(inst)
    reference = milp_allocation(model)
    main = solve_exact(model)
    assert main.allocation == reference
    price("vcg", model, main, 0.0)
    assert solve_exact(model).allocation == reference


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
    # the lower-value a2 holds the one charger from an earlier clearing: a1,
    # the only agent left in the market, cannot take it
    committed = frozenset({("a2", "L1", 0), ("a2", "L1", 1)})
    inst = dataclasses.replace(drop_agent(tiny2, "a2"), committed=committed)
    result = solve_exact(build_model(inst))
    assert result.allocation == Allocation({"a1": None}, frozenset(), 0)
    assert solve_bruteforce(inst) == result.allocation


BAD_PINS = [  # (violation code, assignment, schedule): once refused as pins, now as allocations
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
    # each allocation breaks the named rule of the market that holds a1, a2 and a3
    inst = flat_instance(
        [make_station("L1")],
        [
            make_ev("a1", demand=2, valuation=500, park=2),  # window [0, 2)
            make_ev("a2", demand=2, valuation=400),  # window [0, 4)
            make_ev("a3", demand=1, valuation=100, time_cost=100),
        ],
    )
    allocation = Allocation(assigned=assigned, schedule=frozenset(schedule), objective=0)
    assert "L1" in inst.request("a3").per_station
    assert code in {v.code for v in validate_allocation(inst, allocation)}


def test_committed_load_fills_a_cell(tiny1):
    # a1 alone at L1 is valid, until a committed slot takes L1's one charger at t=0
    allocation = Allocation({"a1": "L1", "a2": None}, frozenset({("a1", "L1", 0), ("a1", "L1", 1)}), 0)
    assert validate_allocation(tiny1, allocation) == []
    loaded = dataclasses.replace(tiny1, committed=frozenset({("z1", "L1", 0)}))
    assert [v.detail for v in validate_allocation(loaded, allocation)] == ["2 EVs at (L1,0) with 1 chargers"]


def test_validate_reports_unknown_station(tiny2):
    alloc = Allocation(
        assigned={"a1": "LX", "a2": None},
        schedule=frozenset({("a1", "LX", 0), ("a1", "LX", 1)}),
        objective=0,
    )
    codes = {v.code for v in validate_allocation(tiny2, alloc)}
    assert "unknown-station" in codes


def _cut(inst, not_before, keep=()):
    """inst as a clearing at not_before sees it: every request but those of
    the agents in keep cut to start at not_before."""
    return dataclasses.replace(inst, requests=tuple(
        r if r.ev.id in keep else remaining_request(r, not_before) for r in inst.requests))


def test_cut_request_blocks_past_slots():
    inst = flat_instance(
        [make_station("L1", dem=(0, 0, 0, 0))],
        [make_ev("a1", demand=2, valuation=500, park=4)],
        horizon=4,
    )
    result = solve_exact(build_model(_cut(inst, 3)))
    # only one schedulable point remains: demand can't fit, nothing allocated
    assert result.allocation.schedule == frozenset()

    result2 = solve_exact(build_model(_cut(inst, 2)))
    assert {t for _, _, t in result2.allocation.schedule} == {2, 3}


def _model_digests(model):
    """sha256 of every array build_model emits and of both index key orders."""
    arrays = {
        "c": model.c, "b": model.b, "lb": model.lb, "ub": model.ub,
        "is_binary": model.is_binary, "indptr": model.A.indptr,
        "indices": model.A.indices, "data": model.A.data,
    }
    digests = {k: hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest()
               for k, v in arrays.items()}
    for name in ("phi_index", "charge_index"):
        keys = repr(list(getattr(model, name))).encode()
        digests[name] = hashlib.sha256(keys).hexdigest()
    return digests


# the slots of five winners of the desk-30 seed-1000 market, a1, a10, a11,
# a12 and a13, as an earlier clearing would commit them
DESK30_COMMITTED = frozenset({
    ("a1", "L2", 16), ("a1", "L2", 19), ("a1", "L2", 21), ("a10", "L1", 11),
    ("a10", "L1", 14), ("a11", "L1", 10), ("a12", "L4", 10), ("a12", "L4", 13),
    ("a13", "L1", 15),
})


def _desk30_clearing(committed=DESK30_COMMITTED):
    """The desk-30 seed-1000 market as a clearing at 6 after DESK30_COMMITTED
    sees it: the other agents, cut to start at 6, over the committed load."""
    inst = _cut(generate(DESK, 1000), 6)
    holders = {aid for aid, _, _ in DESK30_COMMITTED}
    inst = dataclasses.replace(inst, requests=tuple(r for r in inst.requests if r.ev.id not in holders))
    return dataclasses.replace(inst, committed=committed)


# Digests of the two models as HiGHS is given them: desk30 as it always has
# been, desk30-committed since commitments enter a clearing as station load.
# A change to variable order, row order or any coefficient changes at least one.
GOLDEN_MODELS = {
    "desk30": {
        "c": "f0fb42b8d3a0508affd1634d6750729d4575159a25d3f1f4e1dc6583e9173c4c",
        "b": "62571f23c60660b4061320f091526c812772386fce12a2c8f17e6022126884ab",
        "lb": "d7ceb32576430e2b660f2c271c3c988f6b6db1b9f375dbf681847ef0b0d55455",
        "ub": "bfb5b03d6adf9d14be2a1b62ea233d8e1411a11329d74cba1805bff3e5e4c1b7",
        "is_binary": "b155d274364e6d0cc74d6fed8f983022b4952a80af64d2fa8a1e6baf5cfae545",
        "indptr": "4fe30af049a17b9c3b924cc3c9ae87a487ba3871c2e4c90ffa898cad402c0e45",
        "indices": "631d47c4a399c56954dde957025a65ce06f3c2c8c34442b8cf68cd887c9c636f",
        "data": "0a89d163c16b6653eda645f058710d81538dfc00597c7e3b7de0c87bb0a4f281",
        "phi_index": "652902c43a2c1c2c7a1f5e441e65ffc997085aa68ece465e2f7e1a45f4f750ce",
        "charge_index": "84f8d3381394ad39bc278638fb40da48500afd5d05e303b1f8e6c1e3070c4413",
    },
    "desk30-committed": {
        "c": "009c81a7496e8ac018555ed371394ac6fd7bb9889c305b236f81cf89158fff66",
        "b": "32f79a3e90306d162b7089591f40572eb4da533a1aa93547cbcbbbf39b0ffb86",
        "lb": "fb1c8bbee2123010fec1ff436846cac2904920f360ecab8bcbe6aff3dd994f6b",
        "ub": "c65e2811ea76d31f3ff2446893bab1259fbc2ebdaff8e1a98cc1b51e6d052f0e",
        "is_binary": "9c4ff59a7a610164af4d1eff8299d61e751f2aac5560af36ac554afadae348c4",
        "indptr": "9b116813a7046410cb0092ada8970bc5aa1603d86526d5148ebafa0a7eba7b5d",
        "indices": "eff18a855be78c2cfe93ba4e90257f45140ce5819d4f89edef7051cedf6ca5cf",
        "data": "b15b727cda705deeb3868f87ad7bf708c53b7578fb146db799f6657095ea22d0",
        "phi_index": "4afdeaa01dca374a03d21509b7f0d487a2e91904a2909ffb86ee1c7034fcae8a",
        "charge_index": "119a928f2356a30b867b1d0ff646bd1d2e33895cafebe6d8fdd867630921cf9f",
    },
}


@pytest.mark.parametrize("case", ["desk30", "desk30-committed"])
def test_model_matches_golden_digests(case):
    # variable order, row order and the entries within each row are part of
    # the model HiGHS sees; any change to them must be deliberate
    inst = _desk30_clearing() if case == "desk30-committed" else generate(DESK, 1000)
    assert _model_digests(build_model(inst)) == GOLDEN_MODELS[case]


def test_committed_load_moves_only_the_loaded_cells_rows():
    # the committed slots add no column and change no coefficient: only the
    # right-hand sides of each loaded cell's capacity row (slots - load) and
    # imbalance rows (demand - load, and its negation) move, in that order
    free = build_model(_desk30_clearing(frozenset()))
    loaded = build_model(_desk30_clearing())
    for name in ("c", "lb", "ub", "is_binary"):
        assert np.array_equal(getattr(free, name), getattr(loaded, name)), name
    assert (free.A != loaded.A).nnz == 0
    assert (free.phi_index, free.charge_index) == (loaded.phi_index, loaded.charge_index)
    inst = loaded.instance
    cell_of = {i: (sid, t) for (_, sid, t), i in loaded.charge_index.items()}
    charged = set(cell_of.values())
    n_binary, horizon = int(loaded.is_binary.sum()), inst.time_grid.horizon_len
    for k, st in enumerate(inst.stations):  # one imbalance column per cell, station by station
        for t in range(horizon):
            cell_of[n_binary + k * horizon + t] = (st.id, t)
    shifts = {}
    for row in np.flatnonzero(free.b != loaded.b):
        cols = loaded.A.indices[loaded.A.indptr[row]:loaded.A.indptr[row + 1]]
        (cell,) = {cell_of[int(i)] for i in cols}  # every column of the row in one cell
        shifts.setdefault(cell, []).append(loaded.b[row] - free.b[row])
    cells = {(sid, t) for _, sid, t in DESK30_COMMITTED}
    assert shifts == {cell: [-inst.committed_load(*cell)] * (cell in charged)
                      + [-inst.committed_load(*cell), inst.committed_load(*cell)] for cell in cells}


def _fractional_market(not_before=0):
    """One charger over four points: a and b each need two of the first
    three, c one of them, d the last one alone.  The LP relaxation splits a
    and b, yet its value, 301, is the integer optimum (a or b, with c and d).
    Every window is cut to start at not_before."""
    inst = flat_instance(
        [make_station("L1", elec_cost=0, dem=(0, 0, 0, 0))],
        [make_ev("a", 2, 200, park=3), make_ev("b", 2, 200, park=3),
         make_ev("c", 1, 100, park=3), make_ev("d", 1, 1, start=3, park=1)],
        horizon=4,
    )
    return _cut(inst, not_before)


def _cold_lp(model, lb, ub):
    """A cold linprog on the model's relaxation within lb, ub."""
    res = linprog(-model.c, A_ub=model.A, b_ub=model.b,
                  bounds=np.column_stack([lb, ub]), method="highs")
    assert res.status == 0
    return res


def _lp_duals(model):
    return -_cold_lp(model, model.lb, model.ub).ineqlin.marginals


@pytest.mark.parametrize("case", ["tiny1", "tiny2", "fractional", "imbalance"])
def test_dual_bound_equals_integer_optimum(case, tiny1, tiny2):
    inst = {"tiny1": tiny1, "tiny2": tiny2, "fractional": _fractional_market(),
            "imbalance": random_flat_instance(8)}[case]
    model = build_model(inst)
    duals = _lp_duals(model)
    assert _dual_bound(model, duals, model.lb, model.ub) == solve_exact(model).allocation.objective


def test_dual_bound_refuses_unsound_multipliers():
    model = build_model(random_flat_instance(8))  # imbalance cost 10 per unit
    rows = model.A.shape[0]
    optimum = solve_exact(model).allocation.objective
    box = model.lb, model.ub
    assert _dual_bound(model, np.zeros(rows), *box) >= optimum  # any y >= 0 bounds the optimum
    # 1000 on both rows of an imbalance column outweighs its cost of 10, so
    # the unbounded column would raise the bound without limit
    assert _dual_bound(model, np.full(rows, 1000.0), *box) is None
    assert _dual_bound(model, np.full(rows, 1e30), *box) is None  # int64 would overflow


def _empty_column_model():
    """Two rows over five binaries, columns 1 and 4 in no row:
    x0 + x2 <= 1 and 2 x2 - x3 <= 1."""
    return IpModel(
        instance=None, phi_index={}, charge_index={}, columns={}, rows={},
        c=np.array([3.0, 5.0, 4.0, -2.0, 7.0]),
        indptr=np.array([0, 2, 4], dtype=np.int32), indices=np.array([0, 2, 2, 3], dtype=np.int32),
        data=np.array([1.0, 1.0, 2.0, -1.0]), b=np.array([1.0, 1.0]),
        lb=np.zeros(5), ub=np.ones(5), is_binary=np.ones(5, dtype=bool),
    )


MATRIX_CASES = ["desk30", "desk30-committed", "desk60-2", "flat-8", "flat-21", "empty-columns"]


def _matrix_case(case):
    if case == "empty-columns":
        return _empty_column_model()
    return build_model({
        "desk30": lambda: generate(DESK, 1000),
        "desk30-committed": _desk30_clearing,
        "desk60-2": lambda: generate(dataclasses.replace(DESK, n_evs=60), 2),
        "flat-8": lambda: random_flat_instance(8),
        "flat-21": lambda: random_flat_instance(21),
    }[case]())


def _scipy_csr(model):
    """scipy's CSR matrix of the model's (row, column, value) entries, handed
    over in a shuffled order, as the model was once assembled."""
    rows = np.repeat(np.arange(len(model.b)), np.diff(model.indptr))
    order = np.random.default_rng(0).permutation(len(rows))
    return sparse.csr_matrix((model.data[order], (rows[order], model.indices[order])),
                             shape=(len(model.b), model.n_vars))


@pytest.mark.parametrize("case", MATRIX_CASES[:-1])
def test_model_arrays_match_scipy(case):
    # the model's CSR arrays are scipy's, each row's columns sorted, and its
    # column-wise copy, which HiGHS is given, is scipy's tocsc()
    model = _matrix_case(case)
    ref = _scipy_csr(model)
    csc = ref.tocsc()
    pairs = [(model.indptr, ref.indptr), (model.indices, ref.indices), (model.data, ref.data),
             *zip(model.colwise, (csc.indptr, csc.indices, csc.data))]
    for mine, theirs in pairs:
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    # the scipy view IpModel.A holds the model's own arrays
    assert all(np.shares_memory(getattr(model.A, k), getattr(model, k)) for k in ("indptr", "indices", "data"))


def _scipy_dual_bound(model, y, lb, ub):
    """_dual_bound as computed on scipy.sparse transposes of A: the reference."""
    A = _scipy_csr(model)
    lo_open, hi_open = ~np.isfinite(lb), ~np.isfinite(ub)
    lo, hi = np.where(lo_open, 0.0, lb), np.where(hi_open, 0.0, ub)
    if not all(np.array_equal(v, np.trunc(v)) for v in (model.c, model.b, A.data, lo, hi)):
        return None
    yq = np.floor(np.maximum(y, 0.0) * DUAL_GRID)
    column = DUAL_GRID * np.abs(model.c) + abs(A).T @ yq
    magnitude = np.abs(model.b) @ yq + column @ np.maximum(np.maximum(-lo, hi), 1.0)
    if not magnitude < 2.0**62:
        return None
    yq = yq.astype(np.int64)
    reduced = DUAL_GRID * model.c.astype(np.int64) - A.T.astype(np.int64) @ yq
    if np.any((reduced > 0) & hi_open) or np.any((reduced < 0) & lo_open):
        return None
    best = np.where(reduced > 0, hi, lo).astype(np.int64)
    return (int(model.b.astype(np.int64) @ yq) + int(reduced @ best)) // DUAL_GRID


@pytest.mark.parametrize("case", MATRIX_CASES)
def test_dual_bound_matches_scipy_reference(case):
    model = _matrix_case(case)
    rows, rng = len(model.b), np.random.default_rng(1)
    ys = [_lp_duals(model), np.full(rows, 1000.0), np.full(rows, 1e30)]
    for scale in (1e-3, 0.1, 1.0, 1e3, 1e6, 1e9):
        y = rng.exponential(scale, rows)
        ys.append(np.where(rng.random(rows) < 0.5, 0.0, y))
    # a finite box too, so that large y reach the overflow guard
    boxes = [(model.lb, model.ub), (model.lb, np.minimum(model.ub, 50.0))]
    if model.columns:  # and the box of a counterfactual without the first agent
        lb, ub = model.lb.copy(), model.ub.copy()
        cols = next(iter(model.columns.values()))
        lb[cols] = ub[cols] = 0.0
        boxes.append((lb, ub))
    bounds = [_dual_bound(model, y, *box) for y in ys for box in boxes]
    assert bounds == [_scipy_dual_bound(model, y, *box) for y in ys for box in boxes]
    assert any(v is None for v in bounds) and any(v is not None for v in bounds)


@pytest.mark.parametrize("case", ["one-cent-below", "invalid", "frozen-slot"])
def test_unproven_incumbent_goes_to_milp(case):
    not_before = 1 if case == "frozen-slot" else 0
    inst = _fractional_market(not_before)
    model = build_model(inst)
    best = solve_exact(model).allocation
    winner, loser = ("a", "b") if best.assigned["a"] else ("b", "a")
    assigned, schedule = dict(best.assigned), best.schedule
    if case == "one-cent-below":  # valid, but d's one cent is left out
        assigned["d"] = None
        schedule = frozenset(tr for tr in schedule if tr[0] != "d")
    elif case == "invalid":  # same welfare, but the loser charges unassigned
        t = min(t for aid, _, t in schedule if aid == winner)
        schedule = schedule | {(loser, "L1", t)}
    else:  # the optimum's welfare, but the winner charges in the frozen slot 0
        schedule = frozenset({(winner, "L1", 0), (winner, "L1", 1), ("d", "L1", 3)})
    welfare = evaluate_objective(inst, assigned, schedule)
    assert welfare == best.objective - (case == "one-cent-below")
    violations = {v.code for v in validate_allocation(inst, Allocation(assigned, schedule, welfare))}
    assert (violations == set()) == (case == "one-cent-below")
    assert ("outside-window" in violations) == (case == "frozen-slot")  # the slot before the cut
    # on a fresh model: the relaxation of the unfrozen market has fractional
    # binaries, while after the main solve's branch-and-cut its LP run
    # warm-starts onto an integral vertex of the same value
    result = solve_exact(build_model(inst), incumbent=Allocation(assigned, schedule, welfare))
    # the frozen market's relaxation is integral, so its LP point is proven instead
    rung = "lp-integral" if case == "frozen-slot" else "milp"
    assert (result.status, result.proof, result.allocation.objective) == (
        "optimal", rung, best.objective)
    assert validate_allocation(inst, result.allocation) == []
    assert all(t >= not_before for _, _, t in result.allocation.schedule)


def test_proof_names_the_rung():
    inst = generate(DESK, 1000)
    main = solve_exact(build_model(inst))
    assert main.proof == "milp"
    rungs = []

    def recording(model, incumbent=None, without=None):
        result = solve_exact(model, incumbent=incumbent, without=without)
        rungs.append((result.proof, result.nodes))
        return result

    price_vcg(inst, main.allocation, solver=recording)
    # the bound of the market's LP, less each winner's own rows and columns,
    # proves all but one counterfactual; that one's own LP proves it
    assert Counter(rungs) == {("market-bound", 0): 24, ("lp-bound", 0): 1}


def _unservable_market():
    """tiny1 with a3 between a1 and a2: a3 values every station at 0, so it
    has no feasible station, no column and no row."""
    return flat_instance(
        [make_station("L1"), make_station("L2")],
        [make_ev("a1", demand=2, valuation=500), make_ev("a3", demand=1, valuation=0),
         make_ev("a2", demand=3, valuation=400)],
    )


@pytest.mark.parametrize("case", ["desk30", "desk30-committed", "contested-0", "unservable"])
def test_own_rows_are_the_rows_of_the_agents_columns_alone(case):
    # rows[aid] is exactly the set of rows whose every column is aid's, once
    # each cell's capacity row is set aside: where only aid may charge in a
    # cell, that row holds aid's column alone, yet it is the cell's row.  The
    # agents' rows come first, one contiguous block per request, in order.
    model = build_model({
        "desk30": lambda: generate(DESK, 1000),
        "desk30-committed": _desk30_clearing,
        "contested-0": lambda: generate(DESK_CONTESTED, 0),
        "unservable": _unservable_market,
    }[case]())
    owner = {i: aid for aid, cols in model.columns.items() for i in cols}
    cells = {}
    for (_, sid, t), i in model.charge_index.items():
        cells.setdefault((sid, t), set()).add(i)
    blocks = list(model.rows.values())
    assert list(model.rows) == [req.ev.id for req in model.instance.requests]
    assert blocks[0][0] == 0 and all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
    for r in range(len(model.b)):
        cols = {int(i) for i in model.indices[model.indptr[r]:model.indptr[r + 1]]}
        owners = {owner.get(i) for i in cols}
        mine = [aid for aid, (r0, r1) in model.rows.items() if r0 <= r < r1]
        if mine:
            assert cols and owners == set(mine), r
        elif len(owners) == 1 and None not in owners:
            assert cols in cells.values(), r
    if case == "unservable":
        assert model.columns["a3"] == [] and model.rows["a3"] == (model.rows["a1"][1],) * 2


@pytest.mark.parametrize("case", MATRIX_CASES[:-1])
def test_bound_without_an_agent_drops_its_rows_and_columns(case):
    # the market's terms less an agent's own row and column terms are the
    # bound that the same multipliers, zero on the agent's rows, give the
    # market without the agent; for LP duals and for random multipliers on
    # the agents' rows, whose column terms are far from 0
    model = _matrix_case(case)
    rng = np.random.default_rng(2)
    own = np.zeros(len(model.b), dtype=bool)
    for r0, r1 in model.rows.values():
        own[r0:r1] = True
    ys = [_lp_duals(model), *(np.where(own, rng.exponential(scale, len(own)), 0.0) for scale in (0.1, 1e3))]
    for y in ys:
        terms = _bound_terms(model, y, model.lb, model.ub)
        assert terms is not None
        assert _bound_without(model, terms, None) == _dual_bound(model, y, model.lb, model.ub)
        for aid, (r0, r1) in model.rows.items():
            lb, ub = model.lb.copy(), model.ub.copy()
            lb[model.columns[aid]] = ub[model.columns[aid]] = 0.0
            y_without = y.copy()
            y_without[r0:r1] = 0.0
            assert _bound_without(model, terms, aid) == _dual_bound(model, y_without, lb, ub), aid


def test_market_bound_below_the_incumbent_proves_nothing(monkeypatch):
    # the certificate is the equality of the incumbent's welfare and the
    # bound: a "bound" below a feasible point's welfare is no bound, and
    # every counterfactual goes on down the ladder, pricing the same
    proofs, payments = _proofs_and_payments(half_cent=False)
    real = evmarket.allocator._bound_without
    monkeypatch.setattr(evmarket.allocator, "_bound_without", lambda *args: real(*args) - 1)
    assert _proofs_and_payments(half_cent=False) == (["milp", "milp"], payments)


def test_market_bound_refuses_an_incumbent_that_breaks_a_rule(tiny2):
    # without a1 the market's bound is 400, a2 served; an incumbent worth
    # 400 that gives a2 one of its two slots is no point of the market
    model = build_model(tiny2)
    solve_exact(model)
    broken = Allocation({"a1": None, "a2": "L1"}, frozenset({("a2", "L1", 0)}), 400)
    assert evaluate_objective(tiny2, broken.assigned, broken.schedule) == 400
    assert [v.code for v in validate_allocation(tiny2, broken)] == ["min-charge"]
    result = solve_exact(model, incumbent=broken, without="a1")
    assert _bound_without(model, model._session.market_terms(model, 7.0), "a1") == 400
    assert result.proof != "market-bound" and result.allocation.objective == 400
    assert validate_allocation(tiny2, result.allocation) == []


def test_integral_lp_point_below_bound_goes_to_milp(monkeypatch):
    # an LP that returns an integral point one cent short of its own bound
    # (the fractional market's optimum without d) must not prove that point
    model = build_model(_fractional_market())
    best = solve_exact(model).allocation
    assigned = {**best.assigned, "d": None}
    schedule = frozenset(tr for tr in best.schedule if tr[0] != "d")
    real_run = _Session.run

    def short_point(self, time_limit, relaxation):
        status, x, y, info = real_run(self, time_limit, relaxation)
        if relaxation:
            x = np.zeros(model.n_vars)
            x[[i for (aid, sid), i in model.phi_index.items() if assigned[aid] == sid]] = 1.0
            x[[i for triple, i in model.charge_index.items() if triple in schedule]] = 1.0
        return status, x, y, info

    monkeypatch.setattr(_Session, "run", short_point)
    result = solve_exact(model, incumbent=Allocation(assigned, schedule, best.objective - 1))
    assert (result.proof, result.allocation.objective) == ("milp", best.objective)


def test_lp_relaxation_warm_runs_match_cold_linprog():
    # the session's LP runs against a cold linprog on the same bounded
    # arrays: the full market, then branch-and-cut and the LP with one
    # winner's columns zeroed, then the full market again
    inst = generate(DESK, 1000)
    model = build_model(inst)
    main = solve_exact(model).allocation
    winner = next(aid for aid, sid in main.assigned.items() if sid)
    cols = np.array(model.columns[winner], dtype=np.int32)
    lb, ub = model.lb.copy(), model.ub.copy()
    lb[cols] = ub[cols] = 0.0
    session = _Session(model)
    first = model.c @ session.run(7.0, relaxation=True)[1]
    assert first == pytest.approx(-_cold_lp(model, model.lb, model.ub).fun, abs=1e-6)
    session.set_bounds(cols, lb[cols], ub[cols])
    status, x, _, info = session.run(7.0, relaxation=False)
    assert status == evmarket.allocator._core.HighsModelStatus.kOptimal and np.all(x[cols] == 0.0)
    assert -info.objective_function_value < main.objective
    status, x, y, _ = session.run(7.0, relaxation=True)
    assert np.all(x[cols] == 0.0) and np.all(y >= 0.0)
    assert model.c @ x == pytest.approx(-_cold_lp(model, lb, ub).fun, abs=1e-6)
    assert model.c @ x < first - 1
    session.set_bounds(cols, model.lb[cols], model.ub[cols])
    assert model.c @ session.run(7.0, relaxation=True)[1] == pytest.approx(first, abs=1e-6)


def test_branch_and_cut_keeps_the_lp_basis():
    # branch-and-cut starts from a cleared solver, but the LP after it
    # starts from the basis the LP before it left: with unchanged bounds
    # it is optimal at once
    model = build_model(generate(DESK_CONTESTED, 0))
    session = _Session(model)
    first = session.run(7.0, relaxation=True)
    assert first[3].simplex_iteration_count > 0
    assert session.run(7.0, relaxation=False)[0] == evmarket.allocator._core.HighsModelStatus.kOptimal
    status, x, _, info = session.run(7.0, relaxation=True)
    assert status == evmarket.allocator._core.HighsModelStatus.kOptimal
    assert info.simplex_iteration_count == 0
    assert model.c @ x == pytest.approx(model.c @ first[1], abs=1e-6)


def test_solve_without_agent_matches_bruteforce(tiny1, tiny2):
    # one model per market serves every agent's removal, with and without
    # an incumbent (the empty allocation) to start the LP rungs from
    for inst in [tiny1, tiny2, *(random_flat_instance(s) for s in range(50))]:
        model = build_model(inst)
        for req in inst.requests:
            aid = req.ev.id
            optimum = solve_bruteforce(drop_agent(inst, aid)).objective
            empty = Allocation({}, frozenset(), evaluate_objective(inst, {}, frozenset()))
            for incumbent in (None, empty):
                result = solve_exact(model, incumbent=incumbent, without=aid)
                assert (result.status, result.allocation.objective) == ("optimal", optimum)
                assert result.allocation.assigned.get(aid) is None
                assert validate_allocation(inst, result.allocation) == []


def test_time_limited_solve_keeps_the_pins():
    # the fallback when the clock runs out serves nobody, which the committed
    # load always leaves room for
    inst = _desk30_clearing()
    result = solve_exact(build_model(inst), time_limit=0.0)
    assert result.status == "feasible_time_limited"
    assert result.allocation == Allocation(dict.fromkeys(result.allocation.assigned), frozenset(),
                                           evaluate_objective(inst, {}, frozenset()))
    assert validate_allocation(inst, result.allocation) == []


def test_time_limit_no_run_can_honour_raises(tiny1):
    # HiGHS refuses a negative time_limit and keeps its old value (here 7 s),
    # and it takes NaN; either would let a run go on without the limit asked for
    model = build_model(tiny1)
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="time_limit"):
            solve_exact(model, time_limit=bad)
    assert solve_exact(model, time_limit=7.0).status == "optimal"
    with pytest.raises(RuntimeError, match="time_limit=-1.0"):
        model._session.run(-1.0, relaxation=True)
    assert model._session.highs.getOptionValue("time_limit")[1] == 7.0
