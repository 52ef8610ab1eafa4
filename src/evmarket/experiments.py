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
from .online import ClearingSchedule, run_online
from .pricing import MECHANISMS, Solver, price
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
    rate=1,
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

DEFAULT_INCR = 0.025
SCHEMA_VERSION = "1"


def desk_params(**overrides) -> GenParams:
    return replace(DESK, **overrides)


def _fmt_cell(values: list[float]) -> str:
    mean = statistics.fmean(values) if values else 0.0
    std = statistics.stdev(values) if len(values) > 1 else 0.0
    return f"{mean:.4f}±{std:.4f}"


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([f"# schema={SCHEMA_VERSION}"])
        w.writerow(header)
        w.writerows(rows)


def _offline(instance: Instance, mechanism: str, incr: float, solve: Solver):
    model = build_model(instance)
    result = solve(model)
    return result, price(mechanism, model, result, incr, solver=solve)


def _clearing_schedule(params: GenParams, clearings: int) -> ClearingSchedule:
    # Spread the clearing points over the reporting window rather than the
    # whole horizon: the first point past the last possible arrival already
    # sees every report, and later points would only truncate the remaining
    # charging windows of short-stay agents.
    last = min(params.horizon, round(params.arrival_frac * params.horizon) + 1)
    return ClearingSchedule.evenly(last, clearings)


# ---------------------------------------------------------------- EXP 1


def run_exp1(
    out_dir: str,
    reps: int = 5,
    seed0: int = 0,
    ev_counts: tuple[int, ...] = (0, 5, 10, 15, 20, 25, 30),
    time_limit: float = DEFAULT_TIME_LIMIT,
    incr: float = DEFAULT_INCR,
    clearings: int = 5,
) -> list[str]:
    """Wall-clock runtime vs EV count for each mechanism and mode.

    The shape of the curve is the deliverable; absolute seconds depend on
    the host.  Time-limited solves are flagged in the status column, never
    dropped.
    """
    solve = partial(solve_exact, time_limit=time_limit)
    rows = []
    for n in ev_counts:
        for rep in range(reps):
            seed = seed0 + rep
            params = desk_params(n_evs=n)
            instance = generate(params, seed)
            for mechanism in MECHANISMS:
                t0 = time.perf_counter()
                result, outcome = _offline(instance, mechanism, incr, solve)
                dt = time.perf_counter() - t0
                rows.append([n, "offline", mechanism, seed, f"{dt:.4f}",
                             len(outcome.charged), result.status])
                t0 = time.perf_counter()
                online = run_online(
                    instance, _clearing_schedule(params, clearings),
                    mechanism=mechanism, solver=solve, incr=incr,
                )
                dt = time.perf_counter() - t0
                rows.append([n, "online", mechanism, seed, f"{dt:.4f}",
                             len(online.outcome.charged), online.status])
    path = os.path.join(out_dir, "exp1_runtime_timing.csv")
    _write_csv(path, ["n_evs", "mode", "mechanism", "seed", "runtime_s",
                      "serviced", "status"], rows)
    return [path]


# ---------------------------------------------------------------- EXP 2


def run_exp2(
    out_dir: str,
    reps: int = 20,
    seed0: int = 0,
    ev_counts: tuple[int, ...] = (10, 20, 30),
    time_limit: float = DEFAULT_TIME_LIMIT,
    incr: float = DEFAULT_INCR,
    clearings: int = 5,
) -> list[str]:
    """Serviced fraction and mean agent utility per mechanism and mode."""
    solve = partial(solve_exact, time_limit=time_limit)
    per_rep = []
    agg: dict[tuple, dict[str, list[float]]] = {}
    for n in ev_counts:
        for rep in range(reps):
            seed = seed0 + rep
            params = desk_params(n_evs=n)
            instance = generate(params, seed)
            for mechanism in MECHANISMS:
                _, off = _offline(instance, mechanism, incr, solve)
                online = run_online(
                    instance, _clearing_schedule(params, clearings),
                    mechanism=mechanism, solver=solve, incr=incr, carryover=True,
                )
                for mode, outcome in (("offline", off), ("online", online.outcome)):
                    serviced = len(outcome.charged)
                    frac = serviced / n if n else 0.0
                    mean_u = (
                        statistics.fmean(outcome.utilities.values())
                        if outcome.utilities else 0.0
                    )
                    per_rep.append([n, mode, mechanism, seed, serviced,
                                    f"{frac:.4f}", f"{mean_u:.2f}"])
                    bucket = agg.setdefault((n, mode, mechanism),
                                            {"serviced": [], "frac": [], "util": []})
                    bucket["serviced"].append(serviced)
                    bucket["frac"].append(frac)
                    bucket["util"].append(mean_u)
    runs_path = os.path.join(out_dir, "exp2_serviced_runs.csv")
    _write_csv(runs_path, ["n_evs", "mode", "mechanism", "seed", "serviced",
                           "serviced_frac", "mean_utility_cents"], per_rep)
    agg_rows = [
        [n, mode, mech, _fmt_cell(b["serviced"]), _fmt_cell(b["frac"]),
         _fmt_cell(b["util"])]
        for (n, mode, mech), b in sorted(agg.items())
    ]
    agg_path = os.path.join(out_dir, "exp2_serviced_summary.csv")
    _write_csv(agg_path, ["n_evs", "mode", "mechanism", "serviced",
                          "serviced_frac", "mean_utility_cents"], agg_rows)
    return [runs_path, agg_path]


# ---------------------------------------------------------------- EXP 3


def run_exp3(
    out_dir: str,
    reps: int = 20,
    seed0: int = 0,
    station_counts: tuple[int, ...] = (2, 4, 6, 8),
    time_limit: float = DEFAULT_TIME_LIMIT,
    incr: float = DEFAULT_INCR,
) -> list[str]:
    """Mean payment per charged agent and mechanism profit (budget), with a
    station-count sweep tracking where VCG revenue falls off."""
    solve = partial(solve_exact, time_limit=time_limit)
    per_rep = []
    agg: dict[tuple, dict[str, list[float]]] = {}
    for n_st in station_counts:
        for rep in range(reps):
            seed = seed0 + rep
            instance = generate(desk_params(n_stations=n_st), seed)
            for mechanism in MECHANISMS:
                _, outcome = _offline(instance, mechanism, incr, solve)
                charged = outcome.charged
                mean_pay = (
                    statistics.fmean(outcome.payments[a] for a in charged)
                    if charged else 0.0
                )
                revenue = sum(outcome.payments.values())
                per_rep.append([n_st, mechanism, seed, len(charged),
                                f"{mean_pay:.2f}", revenue, outcome.budget])
                bucket = agg.setdefault((n_st, mechanism),
                                        {"pay": [], "rev": [], "budget": []})
                bucket["pay"].append(mean_pay)
                bucket["rev"].append(float(revenue))
                bucket["budget"].append(float(outcome.budget))
    runs_path = os.path.join(out_dir, "exp3_payments_runs.csv")
    _write_csv(runs_path, ["n_stations", "mechanism", "seed", "charged",
                           "mean_payment_cents", "revenue_cents",
                           "budget_cents"], per_rep)
    agg_rows = []
    for (n_st, mech), b in sorted(agg.items()):
        mean_budget = statistics.fmean(b["budget"])
        agg_rows.append([n_st, mech, _fmt_cell(b["pay"]), _fmt_cell(b["rev"]),
                         _fmt_cell(b["budget"]),
                         int(mean_budget < 0)])
    agg_path = os.path.join(out_dir, "exp3_payments_summary.csv")
    _write_csv(agg_path, ["n_stations", "mechanism", "mean_payment_cents",
                          "revenue_cents", "budget_cents",
                          "budget_negative"], agg_rows)
    return [runs_path, agg_path]


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
    liar_fraction: float = 0.10,
    multiplier: float = 1.80,
    time_limit: float = DEFAULT_TIME_LIMIT,
    incr: float = DEFAULT_INCR,
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
    deltas: dict[str, dict[str, list[float]]] = {
        m: {"truthful": [], "lying": [], "charged_t": [], "charged_l": []}
        for m in MECHANISMS
    }
    for rep in range(reps):
        seed = seed0 + rep
        truth_inst = generate(DESK_CONTESTED, seed)
        lying_inst, truth_map = perturb_reports(
            truth_inst, liar_fraction=liar_fraction,
            valuation_multiplier=multiplier, seed=seed,
        )
        liars = sorted(truth_map)
        truth_model, lying_model = build_model(truth_inst), build_model(lying_inst)
        truth_result = solve(truth_model)
        lying_result = solve(lying_model)
        for mechanism in MECHANISMS:
            out_t = price(mechanism, truth_model, truth_result, incr,
                          solver=solve, agent_ids=liars)
            out_l = price(mechanism, lying_model, lying_result, incr,
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
            mt = statistics.fmean(u_truth) if u_truth else 0.0
            ml = statistics.fmean(u_lying) if u_lying else 0.0
            ct = sum(1 for a in liars if a in out_t.charged)
            cl = sum(1 for a in liars if a in out_l.charged)
            per_rep.append([mechanism, seed, len(liars), f"{mt:.2f}",
                            f"{ml:.2f}", f"{ml - mt:.2f}", ct, cl,
                            truth_result.status, lying_result.status])
            d = deltas[mechanism]
            d["truthful"].append(mt)
            d["lying"].append(ml)
            d["charged_t"].append(float(ct))
            d["charged_l"].append(float(cl))
    runs_path = os.path.join(out_dir, "exp4_liars_runs.csv")
    _write_csv(runs_path, ["mechanism", "seed", "n_liars",
                           "liar_mean_utility_truthful",
                           "liar_mean_utility_lying", "delta",
                           "liars_charged_truthful", "liars_charged_lying",
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
    agg_path = os.path.join(out_dir, "exp4_liars_summary.csv")
    _write_csv(agg_path, ["mechanism", "liar_mean_utility_truthful",
                          "liar_mean_utility_lying", "delta",
                          "delta_pct_of_truthful", "p_value",
                          "liars_charged_truthful", "liars_charged_lying"],
               agg_rows)
    return [runs_path, agg_path]


RUNNERS = {1: run_exp1, 2: run_exp2, 3: run_exp3, 4: run_exp4}
