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

solve_exact runs every solve on one HiGHS session per model, branch-and-cut
with a zero MIP gap.  The solution is re-evaluated in exact integer arithmetic
(evaluate_objective, whose imbalance term is model.imbalance_cost) so that
reported optima are bit-reproducible and comparable across counterfactual
solves, and checked with validate_allocation, the rules that judge any
allocation.  Given a known feasible allocation (the incumbent), solve_exact
first tries to prove it, or the LP relaxation's point, optimal with an
exact integer dual bound and runs branch-and-cut only when that fails.  A
VCG counterfactual fixes one agent's columns to 0 on the market's model.
Its first rung runs no solve: the session keeps the exact terms of the
bound from one LP of the whole market, and the market without agent i is
bounded by those terms less i's own rows (IpModel.rows) and columns.
"""

from __future__ import annotations

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

STATUS_OPTIMAL = "optimal"
STATUS_TIME_LIMITED = "feasible_time_limited"

DEFAULT_TIME_LIMIT = 300.0  # seconds per exact solve
DUAL_GRID = 2**20  # LP duals are rounded down to multiples of 1/DUAL_GRID


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
    _session: Optional["_Session"] = field(default=None, init=False, repr=False, compare=False)

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
        the arrays A.tocsc() holds, dtypes included; HiGHS and _dual_bound read them."""
        order = np.argsort(self.indices, kind="stable")
        rows = np.repeat(np.arange(len(self.b), dtype=np.int32), np.diff(self.indptr))
        start = np.concatenate(([0], np.cumsum(np.bincount(self.indices, minlength=self.n_vars))))
        return start.astype(np.int32), rows[order], self.data[order]

    @cached_property
    def integral(self) -> bool:
        """c, b and A hold only integers, as _dual_bound's exact arithmetic needs."""
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


_UNRUN = object()  # a session whose market LP has not run yet


class _Session:
    """The one HiGHS instance (scipy's private bindings) that runs every exact
    solve on a model, passed once with its binaries integral and a zero MIP gap.
    Changing column bounds keeps HiGHS's basis, so an LP run warm-starts from the last."""

    def __init__(self, model: IpModel):
        lp = _core.HighsLp()
        lp.num_row_, lp.num_col_ = len(model.b), model.n_vars  # passModel copies them into a_matrix_
        lp.a_matrix_.format_ = _core.MatrixFormat.kColwise
        lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = model.colwise
        lp.col_cost_, lp.col_lower_, lp.col_upper_ = -model.c, model.lb, model.ub
        lp.row_lower_, lp.row_upper_ = np.full(len(model.b), -np.inf), model.b
        lp.integrality_ = np.where(model.is_binary, _core.HighsVarType.kInteger, _core.HighsVarType.kContinuous)
        self.highs = _core._Highs()
        self._set_option("output_flag", False)
        self._set_option("mip_rel_gap", 0.0)
        self.highs.passModel(lp)  # a model that fails to load fails every run()
        self._market: object = _UNRUN

    def market_terms(self, model: IpModel, time_limit: float) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """_bound_terms of the LP relaxation at model's own bounds, which the
        session must hold.  The LP runs on the first call alone, under
        time_limit; its terms, or None when the LP is not optimal or
        _bound_terms refuses, serve every later call."""
        if self._market is _UNRUN:
            status, _, y, _ = self.run(time_limit, relaxation=True)
            self._market = (_bound_terms(model, y, model.lb, model.ub)
                            if status == _core.HighsModelStatus.kOptimal else None)
        return self._market

    def _set_option(self, name: str, value) -> None:
        """HiGHS keeps its old value of an option it refuses, so a refusal raises."""
        if self.highs.setOptionValue(name, value) != _core.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS refused option {name}={value!r}")

    def set_bounds(self, cols: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> None:
        self.highs.changeColsBounds(len(cols), cols, lb, ub)

    def run(self, time_limit: float, relaxation: bool) -> tuple:
        """(model status, x, row multipliers y >= 0, info) of the LP relaxation or of
        branch-and-cut, which starts from a cleared solver: it takes a fresh
        HiGHS's path and so lands on the same optimum among ties.  The LP basis
        held before branch-and-cut is put back after it, so the next LP run
        still warm-starts from the last LP."""
        self._set_option("time_limit", float(time_limit))
        self._set_option("solve_relaxation", relaxation)
        basis = None
        if not relaxation:
            basis = self.highs.getBasis()  # a copy, which clearSolver leaves alone
            self.highs.clearSolver()
        self.highs.run()
        solution = self.highs.getSolution()
        result = (self.highs.getModelStatus(), np.array(solution.col_value),
                  -np.array(solution.row_dual), self.highs.getInfo())
        if basis is not None and basis.valid:
            self.highs.setBasis(basis)
        return result


def _column_sums(start: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Per column, the sum of its entries (given in colwise order); 0 for a
    column without entries, which np.add.reduceat would get wrong."""
    running = np.concatenate(([0], np.cumsum(entries)))
    return running[start[1:]] - running[start[:-1]]


def _bound_terms(model: IpModel, y: np.ndarray, lb: np.ndarray,
                 ub: np.ndarray) -> Optional[tuple[np.ndarray, np.ndarray]]:
    """The exact int64 terms of _dual_bound's sum, before the division by
    DUAL_GRID: per row b_r * floor(y_r * DUAL_GRID), and per column its
    scaled reduced cost times the end of its box that maximizes the
    product.  None where _dual_bound refuses."""
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


def _dual_bound(model: IpModel, y: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> Optional[int]:
    """Exact integer upper bound on the optimum within bounds lb, ub from row multipliers y.

    For any y >= 0 and any feasible x, c.x <= b.y + (c - A^T y).x, and each
    term of the second product is at most its best value over the
    variable's box (Neumaier & Shcherbina, "Safe bounds in linear and
    mixed-integer linear programming", Math. Prog. 2004).  y is clipped at 0
    and rounded down onto a grid of 1/DUAL_GRID, so with integer c, A, b and
    bounds the bound is computed in int64 and floored exactly.  None when an
    unbounded variable has a reduced cost pointing at its open end, or when
    a partial sum could overflow int64.
    """
    terms = _bound_terms(model, y, lb, ub)
    return None if terms is None else _bound_without(model, terms, None)


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


def _prove_by_market_bound(model: IpModel, lb: np.ndarray, ub: np.ndarray, incumbent: Allocation,
                           without: Optional[str], time_limit: float) -> Optional[Allocation]:
    """The incumbent, once it is a point of the model within lb, ub and its
    exact welfare equals the market LP's exact bound less without's own rows
    and columns (_bound_without); None otherwise."""
    terms = model._session.market_terms(model, time_limit)
    if terms is None or not _is_model_point(model, incumbent, lb, ub):
        return None
    welfare = evaluate_objective(model.instance, incumbent.assigned, incumbent.schedule)
    if welfare != _bound_without(model, terms, without):
        return None
    return Allocation(incumbent.assigned, incumbent.schedule, welfare)


def _prove_by_lp(model: IpModel, lb: np.ndarray, ub: np.ndarray, incumbent: Allocation,
                 time_limit: float) -> Optional[tuple[Allocation, str]]:
    """The incumbent ("lp-bound") or the LP relaxation's point when its
    binaries are integral ("lp-integral"), once its exact welfare equals the
    exact dual bound of the relaxation within lb, ub, the bounds the
    model's session holds; None when neither is proven."""
    status, x, y, _ = model._session.run(time_limit, relaxation=True)
    if status != _core.HighsModelStatus.kOptimal or (bound := _dual_bound(model, y, lb, ub)) is None:
        return None
    if _is_model_point(model, incumbent, lb, ub):  # so evaluate_objective knows every id
        welfare = evaluate_objective(model.instance, incumbent.assigned, incumbent.schedule)
        if welfare == bound:
            return Allocation(incumbent.assigned, incumbent.schedule, welfare), "lp-bound"
    binary = x[model.is_binary]
    if np.all(np.abs(binary - np.round(binary)) <= 1e-6):
        point = _allocation_from_x(model, np.round(x))
        if point.objective == bound and _is_model_point(model, point, lb, ub):
            return point, "lp-integral"
    return None


def solve_exact(model: IpModel, time_limit: float = DEFAULT_TIME_LIMIT,
                incumbent: Optional[Allocation] = None, without: Optional[str] = None) -> SolveResult:
    """Solve the 0-1 program to proven optimality.

    Every run goes to the model's one HiGHS session.  Branch-and-cut runs
    with a zero MIP gap; its solution is re-evaluated in exact integer
    arithmetic and, proven or not, must pass validate_allocation, else
    RuntimeError names the violations.  Deterministic for a fixed input;
    reports feasible_time_limited when the clock runs out before the proof.

    without names an agent whose columns are fixed to 0 for this solve: a
    VCG counterfactual solves the market without its winner on this model,
    with the priced allocation less the winner as incumbent.  There,
    _prove_by_market_bound first tries the incumbent against the exact
    bound of the market's own LP relaxation, which runs once per session, in
    its first counterfactual.  Failing that, and for an incumbent without
    `without`, the LP relaxation within the solve's bounds runs, and
    branch-and-cut only when _prove_by_lp proves neither the incumbent nor
    the LP point; all of them share time_limit.  Without an incumbent, the
    solve is branch-and-cut alone.  A time_limit that is not a number >= 0
    raises ValueError.
    """
    if not time_limit >= 0:  # NaN included, which HiGHS would take as a limit
        raise ValueError(f"time_limit must be a number of seconds >= 0, got {time_limit}")
    start = time.monotonic()

    def left() -> float:
        return max(0.0, time_limit - (time.monotonic() - start))

    cols = np.array(model.columns[without] if without is not None else [], dtype=np.int32)
    lb, ub = model.lb.copy(), model.ub.copy()
    lb[cols] = ub[cols] = 0.0
    if model.n_vars == 0:
        return SolveResult(_allocation_from_x(model, lb), STATUS_OPTIMAL)
    model._session = model._session or _Session(model)
    if incumbent is not None and without is not None:
        proven = _prove_by_market_bound(model, lb, ub, incumbent, without, time_limit)
        if proven is not None:
            return SolveResult(proven, STATUS_OPTIMAL, proof="market-bound")
    model._session.set_bounds(cols, lb[cols], ub[cols])
    try:
        if incumbent is not None:
            proven = _prove_by_lp(model, lb, ub, incumbent, left())
            if proven is not None:
                return SolveResult(proven[0], STATUS_OPTIMAL, proof=proven[1])
        status, x, _, info = model._session.run(left() if incumbent is not None else time_limit,
                                                relaxation=False)
    finally:
        model._session.set_bounds(cols, model.lb[cols], model.ub[cols])
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
