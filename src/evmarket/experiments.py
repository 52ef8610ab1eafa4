"""Reproducible experiment reports, one CSV family per study.

Four studies are wired to the ``exp`` CLI subcommand:

  1. runtime scaling vs EV count, per mechanism and per offline/online mode
  2. serviced fraction and mean utility vs EV count
  3. mean payment and mechanism profit, plus a station-count revenue sweep
  4. liar vs truthful utility under both mechanisms, with t-test p-values

Every row carries the seed it was generated from.  Aggregate files hold
"mean±std" cells (sample standard deviation).  Wall-clock measurements are
written only to files with "timing" in their name; those are the only
outputs exempt from the byte-for-byte reproducibility guarantee.
"""

from __future__ import annotations

import csv
import os
import statistics
import time
from dataclasses import replace
from functools import partial
from typing import Optional

from .allocator import DEFAULT_TIME_LIMIT, build_model, solve_exact
from .model import Instance, Money
from .online import ClearingSchedule, OnlineResult, run_online
from .pricing import DEFAULT_INCR, MECHANISMS, Solver, price
from .scenario import GenParams, generate, perturb_reports

# Desk-scale profile: small enough that every exact solve (including VCG
# counterfactuals) finishes in well under a second on one core, congested
# enough that the mechanisms actually differ.  The electricity and imbalance
# costs are deliberately below the mean per-unit valuation (50 cents) so the
# fixed-price mechanism doesn't price everyone out of the market.
DESK = GenParams(
    n_evs=30,
    n_stations=4,
    horizon=24,
    slots=3,
    elec_cost=20,
    imbalance_unit_cost=5,
    max_demand=4,
)

# Variant for the misreporting study: arrivals packed into a narrow window
# and one charger per station, so capacity is genuinely rationed and the
# marginal winner is decided by competition rather than by the fixed price.
# Relaxed windows would let every high-value agent win truthfully, leaving
# nothing for a liar to displace.
DESK_CONTESTED = replace(
    DESK,
    slots=1,
    max_demand=2,
    max_park=2,
    arrival_frac=0.1,
    value_per_unit_max=200,
)

SCHEMA_VERSION = "1"

# Each study's fixed design.  The Coop markup of every study is the
# library default, pricing.DEFAULT_INCR.
EXP1_EV_COUNTS = (0, 5, 10, 15, 20, 25, 30)
EXP2_EV_COUNTS = (10, 20, 30)
CLEARINGS = 5  # online clearing points of exp 1 and exp 2
EXP3_STATION_COUNTS = (2, 4, 6, 8)
EXP4_LIAR_FRACTION = 0.10
EXP4_MULTIPLIER = 1.80


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _fmt_cell(values: list[float]) -> str:
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return f"{_mean(values):.4f}±{std:.4f}"


def _write_csv(out_dir: str, name: str, header: list[str], rows: list[list]) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"# schema={SCHEMA_VERSION}"])
        w.writerow(header)
        w.writerows(rows)
    return path


def _append(agg: dict, key, **cells: float) -> None:
    """Add one repetition's cells to the per-key columns of agg."""
    columns = agg.setdefault(key, {name: [] for name in cells})
    for name, value in cells.items():
        columns[name].append(value)


def _summary(agg: dict) -> list[list]:
    """One row per key, in key order: the key, then a mean±std cell per column."""
    return [[*key, *map(_fmt_cell, columns.values())] for key, columns in sorted(agg.items())]


def _seeds(reps: int, seed0: int) -> range:
    """A study's generator seeds, reps of them from seed0; reps below 1 raises ValueError."""
    if reps < 1:
        raise ValueError(f"reps must be at least 1, got {reps}")
    return range(seed0, seed0 + reps)


def _desk_markets(field: str, values: tuple[int, ...], reps: int, seed0: int):
    """A study's markets: (value, seed, params, instance) for each value of
    one DESK field and each of reps seeds from seed0."""
    for value in values:
        params = replace(DESK, **{field: value})
        for seed in _seeds(reps, seed0):
            yield value, seed, params, generate(params, seed)


def _clearing_schedule(params: GenParams) -> ClearingSchedule:
    # Spread the clearing points over the reporting window rather than the
    # whole horizon: the first point past the last possible arrival already
    # sees every report, and later points would only truncate the remaining
    # charging windows of short-stay agents.
    last = min(params.horizon, round(params.arrival_frac * params.horizon) + 1)
    return ClearingSchedule.evenly(last, CLEARINGS)


def _online(instance: Instance, params: GenParams, mechanism: str, solve: Solver,
            carryover: bool) -> OnlineResult:
    return run_online(instance, _clearing_schedule(params), mechanism=mechanism,
                      solver=solve, incr=DEFAULT_INCR, carryover=carryover)


# ---------------------------------------------------------------- EXP 1


def run_exp1(
    out_dir: str,
    reps: int = 5,
    seed0: int = 0,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> list[str]:
    """Wall-clock runtime vs EV count for each mechanism and mode.

    The shape of the curve is the deliverable; absolute seconds depend on
    the host.  Time-limited solves are flagged in the status column, never
    dropped.
    """
    solve = partial(solve_exact, time_limit=time_limit)
    rows = []
    for n, seed, params, instance in _desk_markets("n_evs", EXP1_EV_COUNTS, reps, seed0):
        for mechanism in MECHANISMS:
            # each mechanism's whole offline pipeline is timed, so each builds and solves
            t0 = time.perf_counter()
            model = build_model(instance)
            result = solve(model)
            outcome = price(mechanism, model, result, DEFAULT_INCR, solver=solve)
            dt = time.perf_counter() - t0
            rows.append([n, "offline", mechanism, seed, f"{dt:.4f}",
                         len(outcome.charged), result.status])
            t0 = time.perf_counter()
            online = _online(instance, params, mechanism, solve, carryover=False)
            dt = time.perf_counter() - t0
            rows.append([n, "online", mechanism, seed, f"{dt:.4f}",
                         len(online.outcome.charged), online.status])
    return [_write_csv(out_dir, "exp1_runtime_timing.csv",
                       ["n_evs", "mode", "mechanism", "seed", "runtime_s", "serviced", "status"],
                       rows)]


# ---------------------------------------------------------------- EXP 2


def run_exp2(
    out_dir: str,
    reps: int = 20,
    seed0: int = 0,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> list[str]:
    """Serviced fraction and mean agent utility per mechanism and mode."""
    solve = partial(solve_exact, time_limit=time_limit)
    per_rep = []
    agg: dict[tuple, dict[str, list[float]]] = {}
    for n, seed, params, instance in _desk_markets("n_evs", EXP2_EV_COUNTS, reps, seed0):
        model = build_model(instance)
        result = solve(model)
        for mechanism in MECHANISMS:
            off = price(mechanism, model, result, DEFAULT_INCR, solver=solve)
            online = _online(instance, params, mechanism, solve, carryover=True)
            for mode, outcome in (("offline", off), ("online", online.outcome)):
                serviced = len(outcome.charged)
                frac = serviced / n if n else 0.0
                mean_u = _mean(outcome.utilities.values())
                per_rep.append([n, mode, mechanism, seed, serviced,
                                f"{frac:.4f}", f"{mean_u:.2f}"])
                _append(agg, (n, mode, mechanism), serviced=serviced, frac=frac, util=mean_u)
    columns = ["serviced", "serviced_frac", "mean_utility_cents"]
    return [
        _write_csv(out_dir, "exp2_serviced_runs.csv",
                   ["n_evs", "mode", "mechanism", "seed", *columns], per_rep),
        _write_csv(out_dir, "exp2_serviced_summary.csv",
                   ["n_evs", "mode", "mechanism", *columns], _summary(agg)),
    ]


# ---------------------------------------------------------------- EXP 3


def run_exp3(
    out_dir: str,
    reps: int = 20,
    seed0: int = 0,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> list[str]:
    """Mean payment per charged agent and mechanism profit (budget), with a
    station-count sweep tracking where VCG revenue falls off."""
    solve = partial(solve_exact, time_limit=time_limit)
    per_rep = []
    agg: dict[tuple, dict[str, list[float]]] = {}
    for n_st, seed, _, instance in _desk_markets("n_stations", EXP3_STATION_COUNTS, reps, seed0):
        model = build_model(instance)
        result = solve(model)
        for mechanism in MECHANISMS:
            outcome = price(mechanism, model, result, DEFAULT_INCR, solver=solve)
            mean_pay = _mean([outcome.payments[a] for a in outcome.charged])
            revenue = sum(outcome.payments.values())
            per_rep.append([n_st, mechanism, seed, len(outcome.charged),
                            f"{mean_pay:.2f}", revenue, outcome.budget])
            _append(agg, (n_st, mechanism), pay=mean_pay, rev=float(revenue),
                    budget=float(outcome.budget))
    agg_rows = _summary(agg)
    for row in agg_rows:
        row.append(int(statistics.fmean(agg[row[0], row[1]]["budget"]) < 0))
    columns = ["mean_payment_cents", "revenue_cents", "budget_cents"]
    return [
        _write_csv(out_dir, "exp3_payments_runs.csv",
                   ["n_stations", "mechanism", "seed", "charged", *columns], per_rep),
        _write_csv(out_dir, "exp3_payments_summary.csv",
                   ["n_stations", "mechanism", *columns, "budget_negative"], agg_rows),
    ]


# ---------------------------------------------------------------- EXP 4


def _true_utility(truth_instance: Instance, aid: str, sid: Optional[str],
                  payment: Money, charged: bool) -> Money:
    """Utility evaluated at the agent's *true* valuation, regardless of what
    it reported.  A liar charged above its true value goes negative here."""
    if not charged or sid is None:
        return 0
    val = truth_instance.request(aid).access(sid).valuation
    return val - payment


def run_exp4(
    out_dir: str,
    reps: int = 20,
    seed0: int = 0,
    time_limit: float = DEFAULT_TIME_LIMIT,
) -> list[str]:
    """Liars (inflated valuation reports) vs the truthful baseline.

    For each repetition the same instance is solved twice — everyone
    truthful, then with the liars' reports inflated — and the liars'
    utilities are compared at their true valuations.  VCG pricing is scoped
    to the liars (other agents' payments don't enter the comparison), which
    keeps the counterfactual solve count proportional to the liar count.
    """
    solve = partial(solve_exact, time_limit=time_limit)
    per_rep = []
    deltas: dict[str, dict[str, list[float]]] = {}
    for seed in _seeds(reps, seed0):
        truth_inst = generate(DESK_CONTESTED, seed)
        lying_inst, truth_map = perturb_reports(
            truth_inst, liar_fraction=EXP4_LIAR_FRACTION,
            valuation_multiplier=EXP4_MULTIPLIER, seed=seed,
        )
        liars = sorted(truth_map)
        truth_model, lying_model = build_model(truth_inst), build_model(lying_inst)
        truth_result = solve(truth_model)
        lying_result = solve(lying_model)
        for mechanism in MECHANISMS:
            out_t = price(mechanism, truth_model, truth_result, DEFAULT_INCR,
                          solver=solve, agent_ids=liars)
            out_l = price(mechanism, lying_model, lying_result, DEFAULT_INCR,
                          solver=solve, agent_ids=liars)
            u_truth = [
                float(out_t.utilities[a]) for a in liars
            ]
            u_lying = [
                float(_true_utility(
                    truth_inst, a, lying_result.allocation.assigned.get(a),
                    out_l.payments[a], a in out_l.charged,
                ))
                for a in liars
            ]
            mt, ml = _mean(u_truth), _mean(u_lying)
            ct = sum(1 for a in liars if a in out_t.charged)
            cl = sum(1 for a in liars if a in out_l.charged)
            per_rep.append([mechanism, seed, len(liars), f"{mt:.2f}",
                            f"{ml:.2f}", f"{ml - mt:.2f}", ct, cl,
                            truth_result.status, lying_result.status])
            _append(deltas, mechanism, truthful=mt, lying=ml,
                    charged_t=float(ct), charged_l=float(cl))
    utility = ["liar_mean_utility_truthful", "liar_mean_utility_lying", "delta"]
    charged = ["liars_charged_truthful", "liars_charged_lying"]
    runs_path = _write_csv(out_dir, "exp4_liars_runs.csv",
                           ["mechanism", "seed", "n_liars", *utility, *charged,
                            "status_truthful", "status_lying"], per_rep)
    # imported here, not at module level, so that no other command loads scipy.stats
    from scipy import stats

    agg_rows = []
    for mech in MECHANISMS:
        d = deltas[mech]
        diff = [l - t for t, l in zip(d["truthful"], d["lying"])]
        # paired comparison: same seeds, same instances, only the reports differ
        tstat, pvalue = stats.ttest_rel(d["lying"], d["truthful"])
        base = statistics.fmean(d["truthful"])
        pct = (statistics.fmean(diff) / base * 100.0) if base else 0.0
        agg_rows.append([mech, _fmt_cell(d["truthful"]), _fmt_cell(d["lying"]),
                         _fmt_cell(diff), f"{pct:.2f}", f"{pvalue:.6f}",
                         _fmt_cell(d["charged_t"]), _fmt_cell(d["charged_l"])])
    return [runs_path, _write_csv(out_dir, "exp4_liars_summary.csv",
                                  ["mechanism", *utility, "delta_pct_of_truthful", "p_value",
                                   *charged], agg_rows)]


RUNNERS = {1: run_exp1, 2: run_exp2, 3: run_exp3, 4: run_exp4}
