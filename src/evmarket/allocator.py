"""0-1 integer program for EV-to-station allocation and an exact solver.

The model maximizes total valuation of assigned EVs minus electricity cost
minus the imbalance penalty, with one auxiliary nonnegative variable per
(station, time) cell linearizing the absolute imbalance term (two lower-bound
rows per cell).

Slots committed by earlier clearings (Instance.committed) add no
variables: they enter each (station, time) cell as a fixed load, which
lowers the cell's capacity row and shifts its imbalance rows.

The model holds its constraint matrix as plain CSR arrays, written row by
row, and derives one column-wise copy of them, which HiGHS is given and
from which the exact dual bound sums A^T y.  scipy.sparse is not imported:
IpModel.A builds a scipy view of the arrays only for callers that ask.

solve_exact runs each LP and each branch-and-cut on a HiGHS of its own,
freed when the run ends, and reports optima re-evaluated in exact integer
arithmetic (evaluate_objective, whose imbalance term is
model.imbalance_cost), bit-reproducible and comparable across
counterfactual solves.  The model keeps data alone: the market LP's bound
terms, whether its binaries were integral, and the last LP basis.  One
check, _certify, proves an allocation optimal: it is a point of the model
that passes validate_allocation, the rules that judge any allocation, and
its exact welfare equals an exact integer dual bound.  The bound's
multipliers come from the market's LP relaxation, run once per model, or
from the solve's own LP; a VCG counterfactual fixes one winner's columns to
0 and takes either bound less the winner's own rows (IpModel.rows) and
columns.  Branch-and-cut, with a zero MIP gap, runs only where no
certificate holds.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from types import ModuleType
from typing import Optional

import numpy as np
import scipy

from .model import Allocation, Instance, Money, imbalance_cost


def _load_highs() -> ModuleType:
    """scipy's private HiGHS bindings (tested on scipy 1.17), loaded from
    their own file so that scipy.optimize's package __init__ never runs.  The
    module is registered under its scipy name, so a later import of
    scipy.optimize finds this same module, and one imported earlier is reused."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_core" + suffix)
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    raise ImportError(f"scipy's HiGHS bindings (_core) are not in {folder}; evmarket needs scipy>=1.17")


_core = _load_highs()

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim  # glibc's; other C libraries have none
except (AttributeError, OSError, TypeError):
    _malloc_trim = None

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMITED = "feasible_time_limited"

DEFAULT_TIME_LIMIT = 300.0  # seconds per exact solve
DUAL_GRID = 2**20  # LP duals are rounded down to multiples of 1/DUAL_GRID


_UNRUN = object()  # a model whose market LP has not run yet


class Infeasible(Exception):
    """The model has no feasible point (never one build_model made: serving
    nobody always fits the committed load)."""


@dataclass
class IpModel:
    instance: Instance
    phi_index: dict[tuple[str, str], int]
    charge_index: dict[tuple[str, str, int], int]
    columns: dict[str, list[int]]  # each agent's assignment and charge variables
    # each agent's own rows r0 <= r < r1 (assignment, demand, battery, linking):
    # contiguous, and no other agent has a column in them
    rows: dict[str, tuple[int, int]]
    c: np.ndarray  # objective (maximize), integer-valued cents
    # A x <= b, A in CSR form: row r's columns, ascending, are
    # indices[indptr[r]:indptr[r + 1]] (int32) with coefficients data[...] (float64)
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    is_binary: np.ndarray
    # what solve_exact keeps of the market's LP relaxation, run once per
    # model: its _bound_terms at the model's own bounds (None when it is not
    # optimal or _bound_terms refuses), whether its binaries were integral,
    # and the basis the last LP run ended on, from which the next one starts
    _market: object = field(default=_UNRUN, init=False, repr=False, compare=False)
    _integral: bool = field(default=False, init=False, repr=False, compare=False)
    _basis: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    @cached_property
    def A(self) -> "scipy.sparse.csr_matrix":
        """A as a scipy.sparse.csr_matrix sharing indptr, indices and data, for
        callers that hand the model to scipy.  No library module reads it, so
        scipy.sparse is imported only here."""
        from scipy import sparse

        return sparse.csr_matrix((self.data, self.indices, self.indptr),
                                 shape=(len(self.b), self.n_vars), copy=False)

    @cached_property
    def colwise(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A column by column, as (start, row, value): column j's rows, ascending,
        are row[start[j]:start[j + 1]] with coefficients value[...].  These are
        the arrays A.tocsc() holds, dtypes included; HiGHS and _bound_terms read them."""
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(len(self.b), dtype=np.int32), np.diff(self.indptr))
        start = np.concatenate(([0], np.cumsum(np.bincount(self.indices, minlength=self.n_vars))))
        return start.astype(np.int32), rows[order], self.data[order]

    @cached_property
    def integral(self) -> bool:
        """c, b and A hold only integers, as _bound_terms' exact arithmetic needs."""
        return all(np.array_equal(v, np.trunc(v)) for v in (self.c, self.b, self.data))


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass
class SolveResult:
    allocation: Allocation
    status: str
    nodes: int = 0
    proof: str = "milp"  # the rung that ended the solve: "market-bound", "lp-bound", "lp-integral" or "milp"


def build_model(instance: Instance) -> IpModel:
    """Assemble objective, constraint rows, and variable bounds.

    Stations outside an EV's feasible set and time points outside its window
    contribute no variables at all.  A cell's committed load takes its
    chargers off the capacity row and its expected demand off the
    imbalance rows.
    """
    horizon = instance.time_grid.horizon_len

    phi_index: dict[tuple[str, str], int] = {}
    charge_index: dict[tuple[str, str, int], int] = {}
    columns: dict[str, list[int]] = {}
    c: list[float] = []
    lb: list[float] = []
    ub: list[float] = []

    def add_var(coef: Money, hi: float = 1.0) -> int:
        """New variable in [0, hi]."""
        c.append(float(coef))
        lb.append(0.0)
        ub.append(hi)
        return len(c) - 1

    # binaries first (assignment, then charge): is_binary marks the first n_binary.
    # pairs holds, per request, one (station, access, assignment var, charge
    # vars) entry for each station it may use.
    pairs: list[list[tuple]] = []
    for req in instance.requests:
        aid = req.ev.id
        own, columns[aid] = [], []
        for st in instance.stations:
            if st.id not in req.feasible_stations:
                continue
            acc = req.access(st.id)
            phi = add_var(acc.valuation)
            phi_index[(aid, st.id)] = phi
            columns[aid].append(phi)
            own.append((st, acc, phi, []))
        pairs.append(own)
    cells: dict[tuple[str, int], list[int]] = {}  # (station, t) -> charge vars
    for req, own in zip(instance.requests, pairs):
        aid = req.ev.id
        for st, acc, _, pair in own:
            for t in range(acc.arrival, acc.departure):
                i = add_var(-st.slot_elec_cost)
                charge_index[(aid, st.id, t)] = i
                columns[aid].append(i)
                pair.append(i)
                cells.setdefault((st.id, t), []).append(i)
    n_binary = len(c)

    indptr: list[int] = [0]
    indices: list[int] = []
    data: list[float] = []
    b: list[float] = []

    def add_row(coefs: dict[int, float], rhs: float) -> None:
        """Append the row coefs . x <= rhs, its columns in ascending order."""
        cols = sorted(coefs)
        indices.extend(cols)
        data.extend([coefs[i] for i in cols])
        indptr.append(len(indices))
        b.append(rhs)

    rows: dict[str, tuple[int, int]] = {}
    for req, own in zip(instance.requests, pairs):
        first = len(b)
        if own:
            add_row({phi: 1.0 for _, _, phi, _ in own}, 1.0)
        for st, acc, phi, pair in own:
            # charge at least the demand when assigned
            add_row({phi: float(acc.charge_slots_needed), **dict.fromkeys(pair, -1.0)}, 0.0)
            # never exceed the battery
            add_row(
                dict.fromkeys(pair, float(st.rate)),
                float(req.ev.battery_capacity - acc.battery_on_arrival),
            )
            # no charging at a station the EV is not assigned to
            for i in pair:
                add_row({i: 1.0, phi: -1.0}, 0.0)
        rows[req.ev.id] = (first, len(b))
    for st in instance.stations:
        for t in range(horizon):
            cell = cells.get((st.id, t), [])
            load = instance.committed_load(st.id, t)
            if cell:
                add_row(dict.fromkeys(cell, 1.0), float(st.slots - load))
            dem = st.demand_at(t) - load
            # |cell + load - demand| <= m, one continuous variable per cell
            m = add_var(-instance.imbalance_unit_cost, hi=np.inf)
            add_row({**dict.fromkeys(cell, 1.0), m: -1.0}, float(dem))
            add_row({**dict.fromkeys(cell, -1.0), m: -1.0}, float(-dem))

    n = len(c)
    is_binary = np.zeros(n, dtype=bool)
    is_binary[:n_binary] = True
    return IpModel(
        instance=instance,
        phi_index=phi_index,
        charge_index=charge_index,
        columns=columns,
        rows=rows,
        c=np.array(c),
        indptr=np.array(indptr, dtype=np.int32),
        indices=np.array(indices, dtype=np.int32),
        data=np.array(data),
        b=np.array(b),
        lb=np.array(lb),
        ub=np.array(ub),
        is_binary=is_binary,
    )


def evaluate_objective(
    instance: Instance,
    assigned: dict[str, Optional[str]],
    schedule: frozenset[tuple[str, str, int]],
) -> Money:
    """Exact integer objective: valuations minus electricity minus imbalance."""
    total = 0
    for req in instance.requests:
        sid = assigned.get(req.ev.id)
        if sid is not None:
            total += req.access(sid).valuation
    for _, sid, _ in schedule:
        total -= instance.station(sid).slot_elec_cost
    return total - imbalance_cost(instance, schedule)


def _allocation_from_x(model: IpModel, x: np.ndarray) -> Allocation:
    assigned: dict[str, Optional[str]] = {r.ev.id: None for r in model.instance.requests}
    for (aid, sid), i in model.phi_index.items():
        if x[i] > 0.5:
            assigned[aid] = sid
    schedule = frozenset(
        (aid, sid, t) for (aid, sid, t), i in model.charge_index.items() if x[i] > 0.5
    )
    obj = evaluate_objective(model.instance, assigned, schedule)
    return Allocation(assigned=assigned, schedule=schedule, objective=obj)


def _run(model: IpModel, lb: np.ndarray, ub: np.ndarray, time_limit: float, mip: bool,
         basis=None, jump: bool = True) -> tuple:
    """(model status, x, row multipliers y >= 0, info, basis) of one run on a
    HiGHS of its own (scipy's private bindings), freed on return: the LP
    relaxation within lb, ub, started from basis when one is given, or
    branch-and-cut with a zero MIP gap and feasibility jump on or off.  The
    basis returned is the LP's last one (None when HiGHS holds no valid
    one, and after branch-and-cut).  HiGHS keeps its old value of an
    option it refuses, so a refusal raises."""
    highs = _core._Highs()
    options = {"output_flag": False, "time_limit": float(time_limit)}
    if mip:
        options.update(mip_rel_gap=0.0, mip_heuristic_run_feasibility_jump=jump)
    for name, setting in options.items():
        if highs.setOptionValue(name, setting) != _core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS refused option {name}={setting!r}")
    start, row, value = model.colwise
    # HiGHS copies the arrays; integrality is 1 (kInteger) on the binaries
    # of a branch-and-cut run and 0 (kContinuous) elsewhere
    highs.passModel(model.n_vars, len(model.b), len(value), int(_core.MatrixFormat.kColwise),
                    int(_core.ObjSense.kMinimize), 0.0, -model.c, lb, ub, np.full(len(model.b), -np.inf),
                    model.b, start, row, value, (model.is_binary & mip).astype(np.int32))
    if basis is not None:
        highs.setBasis(basis)
    highs.run()
    solution, last = highs.getSolution(), highs.getBasis()
    return (highs.getModelStatus(), np.array(solution.col_value), -np.array(solution.row_dual),
            highs.getInfo(), last if last.valid and not mip else None)


def _column_sums(start: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Per column, the sum of its entries (given in colwise order); 0 for a
    column without entries, which np.add.reduceat would get wrong."""
    running = np.concatenate(([0], np.cumsum(entries)))
    return running[start[1:]] - running[start[:-1]]


def _bound_terms(model: IpModel, y: np.ndarray, lb: np.ndarray,
                 ub: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The exact int64 terms of an upper bound on the optimum within bounds
    lb, ub from row multipliers y, before the division by DUAL_GRID: per
    row b_r * floor(y_r * DUAL_GRID), and per column its scaled reduced
    cost times the end of its box that maximizes the product.

    For any y >= 0 and any feasible x, c.x <= b.y + (c - A^T y).x, and each
    term of the second product is at most its best value over the
    variable's box (Neumaier & Shcherbina, "Safe bounds in linear and
    mixed-integer linear programming", Math. Prog. 2004).  y is clipped at 0
    and rounded down onto a grid of 1/DUAL_GRID, so with integer c, A, b and
    bounds every term is an exact int64, and _bound_without floors their
    sum exactly.  None when c, A, b or a finite bound is fractional, when an
    unbounded variable has a reduced cost pointing at its open end, or when
    a partial sum could overflow int64.
    """
    lo_open, hi_open = ~np.isfinite(lb), ~np.isfinite(ub)
    lo, hi = np.where(lo_open, 0.0, lb), np.where(hi_open, 0.0, ub)
    if not model.integral or any(not np.array_equal(v, np.trunc(v)) for v in (lo, hi)):
        return None
    start, row, value = model.colwise
    yq = np.floor(np.maximum(y, 0.0) * DUAL_GRID)
    # every partial sum below, the running sums of _column_sums included, is
    # at most this sum of absolute values
    column = DUAL_GRID * np.abs(model.c) + _column_sums(start, np.abs(value) * yq[row])
    magnitude = np.abs(model.b) @ yq + column @ np.maximum(np.maximum(-lo, hi), 1.0)
    if not magnitude < 2.0**62:
        return None
    yq = yq.astype(np.int64)
    reduced = DUAL_GRID * model.c.astype(np.int64) - _column_sums(start, value.astype(np.int64) * yq[row])
    if np.any((reduced > 0) & hi_open) or np.any((reduced < 0) & lo_open):
        return None
    return model.b.astype(np.int64) * yq, reduced * np.where(reduced > 0, hi, lo).astype(np.int64)


def _bound_without(model: IpModel, terms: tuple[np.ndarray, np.ndarray], aid: Optional[str]) -> int:
    """The exact bound that _bound_terms' terms, taken at the model's own
    bounds, give the market without agent aid (the whole market for None).

    With aid's columns fixed to 0, dropping aid's own rows relaxes the
    market, and no other column has an entry in them, so every other
    column's reduced cost stays as it was.  The bound of that relaxation
    from the same y is therefore the market's sum less aid's row terms and
    less aid's column terms, which its box [0, 0] sets to 0."""
    row, col = terms
    total = int(row.sum()) + int(col.sum())
    if aid is not None:
        r0, r1 = model.rows[aid]
        total -= int(row[r0:r1].sum()) + int(col[model.columns[aid]].sum())
    return total // DUAL_GRID


def _is_model_point(model: IpModel, allocation: Allocation, lb: np.ndarray, ub: np.ndarray) -> bool:
    """allocation passes validate_allocation and sets only variables the
    model has, within lb and ub (so `without` holds)."""
    x = np.zeros(model.n_vars)
    try:
        for aid, sid in allocation.assigned.items():
            if sid is not None:
                x[model.phi_index[(aid, sid)]] = 1.0
        for triple in allocation.schedule:
            x[model.charge_index[triple]] = 1.0
    except KeyError:  # a pair or a slot the model has no variable for
        return False
    if not (np.all(lb <= x) and np.all(x <= ub)):
        return False
    return not validate_allocation(model.instance, allocation)


def _certify(model: IpModel, terms: Optional[tuple[np.ndarray, np.ndarray]], without: Optional[str],
             allocation: Allocation, lb: np.ndarray, ub: np.ndarray) -> Optional[Allocation]:
    """allocation with its exact welfare, once it is a point of the model
    within lb, ub and that welfare equals the exact bound that terms give
    the market without `without` (_bound_without): no point of that market
    is worth more, so allocation is optimal.  None otherwise, and for
    terms None."""
    if terms is None or not _is_model_point(model, allocation, lb, ub):
        return None
    welfare = evaluate_objective(model.instance, allocation.assigned, allocation.schedule)
    if welfare != _bound_without(model, terms, without):
        return None
    return Allocation(allocation.assigned, allocation.schedule, welfare)


def _integral_binaries(model: IpModel, x: np.ndarray) -> bool:
    """Every binary of x lies within 1e-6 of 0 or 1."""
    binary = x[model.is_binary]
    return bool(np.all(np.abs(binary - np.round(binary)) <= 1e-6))


def solve_exact(model: IpModel, time_limit: float = DEFAULT_TIME_LIMIT,
                incumbent: Optional[Allocation] = None, without: Optional[str] = None) -> SolveResult:
    """Solve the 0-1 program to proven optimality.

    without names an agent whose columns are fixed to 0 for this solve: a
    VCG counterfactual solves the market without its winner on this model,
    with the priced allocation less the winner as incumbent.  Every solve
    takes the same steps, each run on a HiGHS of its own (_run), and
    _certify makes every proof short of branch-and-cut:
    1. "market-bound": the incumbent against the terms of the market's LP
       relaxation, run in the model's first solve, which keeps its terms.
    2. With an incumbent, the LP relaxation within the solve's bounds runs,
       warm from the last LP's basis; the terms of its multipliers at the
       model's own bounds prove the incumbent ("lp-bound"), or else its
       point when the binaries are integral ("lp-integral").
    3. "milp": branch-and-cut with a zero MIP gap, feasibility jump off for
       the whole market after an integral market LP and on for any other
       search.  Its solution is re-evaluated exactly and, proven or not,
       must pass validate_allocation, else RuntimeError names the violations.
    Deterministic for a fixed input; reports feasible_time_limited when the
    clock runs out before the proof.  All runs of a solve share time_limit;
    one that is not a number >= 0 raises ValueError.
    """
    if not time_limit >= 0:  # NaN included, which HiGHS would take as a limit
        raise ValueError(f"time_limit must be a number of seconds >= 0, got {time_limit}")
    start = time.monotonic()

    def left() -> float:
        return max(0.0, time_limit - (time.monotonic() - start))

    lb, ub = model.lb.copy(), model.ub.copy()
    if without is not None:
        lb[model.columns[without]] = ub[model.columns[without]] = 0.0
    if model.n_vars == 0:
        return SolveResult(_allocation_from_x(model, lb), STATUS_OPTIMAL)
    if model._market is _UNRUN:
        status, x, y, _, model._basis = _run(model, model.lb, model.ub, time_limit, mip=False)
        optimal = status == _core.HighsModelStatus.kOptimal
        model._market = _bound_terms(model, y, model.lb, model.ub) if optimal else None
        model._integral = optimal and _integral_binaries(model, x)
        if _malloc_trim is not None:
            # glibc keeps the freed LP's pages mapped, and branch-and-cut's
            # own would stack on them: +12 MB peak on a 300 x 16 market
            _malloc_trim(0)
    if incumbent is not None:
        if (proven := _certify(model, model._market, without, incumbent, lb, ub)) is not None:
            return SolveResult(proven, STATUS_OPTIMAL, proof="market-bound")
        status, x, y, _, model._basis = _run(model, lb, ub, left(), mip=False, basis=model._basis)
        own = _bound_terms(model, y, model.lb, model.ub) if status == _core.HighsModelStatus.kOptimal else None
        if (proven := _certify(model, own, without, incumbent, lb, ub)) is not None:
            return SolveResult(proven, STATUS_OPTIMAL, proof="lp-bound")
        if own is not None and _integral_binaries(model, x):
            point = _allocation_from_x(model, np.round(x))
            if (proven := _certify(model, own, without, point, lb, ub)) is not None:
                return SolveResult(proven, STATUS_OPTIMAL, proof="lp-integral")
    # after an integral market LP the root proves the market alone, and
    # feasibility jump only delays it; every other search keeps it
    status, x, _, info, _ = _run(model, lb, ub, left(), mip=True, jump=not (without is None and model._integral))
    if status == _core.HighsModelStatus.kInfeasible:
        raise Infeasible("model infeasible")
    if status == _core.HighsModelStatus.kTimeLimit:
        allocation = _allocation_from_x(model, lb)  # every variable at its lower bound 0: nobody served
        if np.isfinite(info.objective_function_value):  # HiGHS holds a feasible point: the better one
            allocation = max(allocation, _allocation_from_x(model, np.round(x)), key=lambda a: a.objective)
    elif status == _core.HighsModelStatus.kOptimal:
        allocation = _allocation_from_x(model, np.round(x))
        if abs(-info.objective_function_value - allocation.objective) >= 0.5:
            raise RuntimeError(f"solver objective {-info.objective_function_value} drifted "
                               f"from exact evaluation {allocation.objective}")
    else:
        raise RuntimeError(f"MILP solve failed with status {status}")
    violations = validate_allocation(model.instance, allocation)
    if violations:
        raise RuntimeError("branch-and-cut point breaks the market's rules: "
                           + "; ".join(f"{v.code}: {v.detail}" for v in violations))
    solved = STATUS_OPTIMAL if status == _core.HighsModelStatus.kOptimal else STATUS_TIME_LIMITED
    return SolveResult(allocation, solved, info.mip_node_count)


def validate_allocation(instance: Instance, allocation: Allocation) -> list[Violation]:
    """Check every scheduling constraint; empty list means the allocation is valid."""
    violations: list[Violation] = []
    horizon = instance.time_grid.horizon_len
    station_ids = {st.id for st in instance.stations}

    stations_used: dict[str, set[str]] = {}
    slots: dict[str, list[int]] = {}  # each agent's slots at its assigned station
    loads: dict[tuple[str, int], int] = {}
    for aid, sid, t in allocation.schedule:
        stations_used.setdefault(aid, set()).add(sid)
        loads[(sid, t)] = loads.get((sid, t), 0) + 1
        if allocation.assigned.get(aid) == sid:
            slots.setdefault(aid, []).append(t)
        else:
            violations.append(
                Violation("unassigned-charging", f"{aid} charges at {sid} unassigned"))
    for aid, used in stations_used.items():
        if len(used) > 1:
            violations.append(Violation("single-station", f"{aid} charges at {sorted(used)}"))

    for aid, sid in allocation.assigned.items():
        if sid is None:
            continue
        try:
            req = instance.request(aid)
        except KeyError:
            violations.append(Violation("unknown-agent", f"{aid} not in instance"))
            continue
        if sid not in req.feasible_stations:
            violations.append(Violation("infeasible-station", f"{sid} not feasible for {aid}"))
            continue
        acc = req.access(sid)
        st = instance.station(sid)
        times = slots.get(aid, [])
        for t in times:
            if not (acc.arrival <= t < acc.departure) or not (0 <= t < horizon):
                violations.append(
                    Violation("outside-window", f"slot {t} outside {aid}'s window at {sid}"))
        if len(times) < acc.charge_slots_needed:
            violations.append(Violation(
                "min-charge", f"{aid} gets {len(times)} slots, needs {acc.charge_slots_needed}"))
        if len(times) * st.rate + acc.battery_on_arrival > req.ev.battery_capacity:
            violations.append(Violation("battery-capacity", f"{aid} overfills its battery"))

    named = {sid for sid in allocation.assigned.values() if sid is not None}
    named |= {sid for _, sid, _ in allocation.schedule}
    for sid in sorted(named - station_ids):
        violations.append(Violation("unknown-station", f"{sid} not in instance"))
    for (sid, t), load in loads.items():
        if sid in station_ids:
            load += instance.committed_load(sid, t)
            if load > instance.station(sid).slots:
                violations.append(Violation(
                    "station-capacity",
                    f"{load} EVs at ({sid},{t}) with {instance.station(sid).slots} chargers"))
    return violations
