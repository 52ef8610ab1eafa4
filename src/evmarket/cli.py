"""Command-line front end.

Subcommands: gen, solve, online, calibrate-incr, exp.  All deterministic
outputs (instance/allocation/summary JSON, pricing CSV, experiment CSVs) are
byte-identical for a fixed command line and seed; wall-clock measurements go
into separate files with "timing" in their name.

Exit codes: 0 = every solve proven optimal; 2 = a time-limited incumbent
(solve, online), or CounterfactualNotOptimal: VCG refused an unproven
allocation or counterfactual (solve then writes no pricing, exp no report),
or calibrate-incr an unproven allocation.  Every other error maps to its
stderr line and code in the ERRORS table read by main(): FormatError
("error: cannot parse instance: ..."), Infeasible ("error: infeasible:
..."), NoBreakeven, ResampleLimit and UsageError, a flag value no run can
honour ("error: --flag ..."), exit 1.  A usage error that argparse catches
(an unknown flag, a flag the subcommand does not take, or --clearings with
--clearing-points) exits 2 with argparse's message.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import __version__
from .allocator import DEFAULT_TIME_LIMIT, STATUS_OPTIMAL, Infeasible, build_model, solve_exact
from .model import MONEY_SCALE
from .online import ClearingSchedule, run_online
from .pricing import (
    DEFAULT_INCR,
    MECHANISMS,
    CounterfactualNotOptimal,
    NoBreakeven,
    calibrate_incr,
    markup_grid,
    price,
    thousandths,
)
from .scenario import GenParams, ResampleLimit, generate
from .serialize import (
    FORMAT_VERSION,
    FormatError,
    allocation_to_dict,
    dump_instance,
    load_instance,
    write_pricing_csv,
)
from . import experiments

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIME_LIMITED = 2


class UsageError(Exception):
    """A flag value that no run can honour; the message names the flag."""


def _time_limit(args) -> float:
    if not args.time_limit >= 0:  # NaN included
        raise UsageError(f"--time-limit must be a number of seconds >= 0, got {args.time_limit}")
    return args.time_limit


def _check_incr(args) -> None:
    try:
        thousandths("incr", args.incr, 0)  # the markups price_coop takes
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None


def _at_least_one(flag: str, value: int) -> int:
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    return value


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


# each integer generator flag: the GenParams field it sets, and its help
GEN_FLAGS = {
    "--n-evs": ("n_evs", None),
    "--n-stations": ("n_stations", None),
    "--horizon": ("horizon", None),
    "--slots": ("slots", None),
    "--elec-cost": ("elec_cost", "electricity cost, cents per energy unit"),
    "--imbalance-cost": ("imbalance_unit_cost", "imbalance penalty, cents per unit deviation"),
    "--max-demand": ("max_demand", None),
    "--max-park": ("max_park", None),
}


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    for flag, (field, text) in GEN_FLAGS.items():
        p.add_argument(flag, dest=field, type=int, default=getattr(GenParams, field), help=text)
    p.add_argument("--flat", action="store_true",
                   help="no road network; zero travel costs")


def _gen_params(args) -> GenParams:
    fields = {field: getattr(args, field) for field, _ in GEN_FLAGS.values()}
    try:
        return GenParams(flat=args.flat, **fields)
    except ValueError as exc:
        # GenParams words each refusal "<field> <rule>"; name the flag instead
        field, rule = str(exc).split(" ", 1)
        flag = next(flag for flag, (f, _) in GEN_FLAGS.items() if f == field)
        raise UsageError(f"{flag} {rule}") from None


def cmd_gen(args) -> int:
    instance = generate(_gen_params(args), args.seed)
    dump_instance(instance, args.out)
    return EXIT_OK


def _solve_outputs(args, allocation, status, outcome, extra, wall_s):
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "allocation.json"), allocation_to_dict(allocation))
    summary = {
        "format_version": FORMAT_VERSION,
        "tool_version": __version__,
        "scale": MONEY_SCALE,
        "mechanism": args.mechanism,
        "status": status,
        "objective": allocation.objective,
        "serviced": len(outcome.charged) if outcome else 0,
        "budget": outcome.budget if outcome else None,
        "total_imbalance_cost": outcome.total_imbalance_cost if outcome else None,
    }
    if args.mechanism == "coop":
        summary["incr"] = args.incr
    summary.update(extra)
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    if outcome is not None:
        with open(os.path.join(out_dir, "pricing.csv"), "w", newline="") as fh:
            write_pricing_csv(outcome, allocation, fh)
    # wall clock lives apart so everything above is reproducible byte-for-byte
    _write_json(os.path.join(out_dir, "timing.json"), {"wall_clock_s": round(wall_s, 4)})


def cmd_solve(args) -> int:
    solve = functools.partial(solve_exact, time_limit=_time_limit(args))
    _check_incr(args)
    instance = load_instance(args.instance)
    t0 = time.perf_counter()
    model = build_model(instance)
    result = solve(model)
    outcome = None
    note = {}
    code = EXIT_OK if result.status == STATUS_OPTIMAL else EXIT_TIME_LIMITED
    try:
        outcome = price(args.mechanism, model, result, args.incr, solver=solve)
    except CounterfactualNotOptimal as exc:
        note["pricing_error"] = str(exc)
        code = EXIT_TIME_LIMITED
    _solve_outputs(args, result.allocation, result.status, outcome, note,
                   time.perf_counter() - t0)
    return code


def cmd_online(args) -> int:
    solve = functools.partial(solve_exact, time_limit=_time_limit(args))
    _check_incr(args)
    instance = load_instance(args.instance)
    if args.clearing_points:
        try:
            schedule = ClearingSchedule(tuple(args.clearing_points))
            schedule.check_horizon(instance.time_grid.horizon_len)
        except ValueError as exc:
            raise UsageError(f"--clearing-points: {exc}, got {args.clearing_points}") from None
    else:
        try:
            schedule = ClearingSchedule.evenly(instance.time_grid.horizon_len, args.clearings)
        except ValueError as exc:
            raise UsageError(f"--clearings: {exc}") from None
    t0 = time.perf_counter()
    online = run_online(
        instance, schedule, mechanism=args.mechanism, solver=solve,
        incr=args.incr, carryover=args.carryover,
    )
    wall = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "events.jsonl"), "w") as fh:
        for c in online.clearings:
            fh.write(json.dumps({
                "time": c.time,
                "eligible": sorted(c.eligible),
                "committed": sorted(c.newly_committed),
                "status": c.status,
            }, sort_keys=True) + "\n")
    _solve_outputs(args, online.allocation, online.status, online.outcome,
                   {"mode": "online", "clearing_points": list(schedule.points)}, wall)
    return EXIT_OK if online.status == STATUS_OPTIMAL else EXIT_TIME_LIMITED


def cmd_calibrate(args) -> int:
    solver = functools.partial(solve_exact, time_limit=_time_limit(args))
    try:
        markup_grid(args.step)
    except ValueError as exc:
        raise UsageError(f"--{exc}") from None  # worded "step <rule>"
    family = [generate(_gen_params(args), args.seed + k)
              for k in range(_at_least_one("--n-instances", args.n_instances))]
    incr = calibrate_incr(family, step=args.step, solver=solver)
    doc = {"incr": round(incr, 6), "n_instances": args.n_instances, "seed": args.seed}
    if args.out:
        _write_json(args.out, doc)
    print(json.dumps(doc, sort_keys=True))
    return EXIT_OK


def cmd_exp(args) -> int:
    time_limit, reps = _time_limit(args), _at_least_one("--reps", args.reps)
    os.makedirs(args.out, exist_ok=True)
    paths = experiments.RUNNERS[args.number](args.out, reps=reps, seed0=args.seed,
                                             time_limit=time_limit)
    for p in paths:
        print(p)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evmarket",
        description="EV-to-charging-station market: exact allocation, pricing, "
                    "online clearing, and experiment reports.",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    time_limit = argparse.ArgumentParser(add_help=False)
    time_limit.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT,
                            help="per-solve time limit in seconds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[seed], help="generate a random instance file")
    _add_gen_flags(p)
    p.add_argument("--out", default="instance.json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", parents=[time_limit],
                       help="solve and price one instance offline")
    p.add_argument("instance")
    p.add_argument("--mechanism", choices=MECHANISMS, default="vcg")
    p.add_argument("--incr", type=float, default=DEFAULT_INCR,
                   help="coop markup fraction")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("online", parents=[time_limit], help="run periodic market clearing")
    p.add_argument("instance")
    p.add_argument("--mechanism", choices=MECHANISMS, default="vcg")
    p.add_argument("--incr", type=float, default=DEFAULT_INCR)
    points = p.add_mutually_exclusive_group()
    points.add_argument("--clearings", type=int, default=5,
                        help="number of evenly spaced clearing points")
    points.add_argument("--clearing-points", type=int, nargs="+", default=None,
                        help="explicit clearing times")
    p.add_argument("--carryover", action="store_true",
                   help="unassigned agents stay eligible at later clearings")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_online)

    p = sub.add_parser("calibrate-incr", parents=[seed, time_limit],
                       help="smallest coop markup with positive budget, "
                            "averaged over a scenario family")
    _add_gen_flags(p)
    p.add_argument("--n-instances", type=int, default=5)
    p.add_argument("--step", type=float, default=0.001)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("exp", parents=[seed, time_limit],
                       help="run one of the four experiment studies")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--out", default="exp_out")
    p.set_defaults(func=cmd_exp)
    return parser


# each library error: the prefix of its message on stderr, and the exit code
ERRORS = (
    (FormatError, "cannot parse instance: ", EXIT_ERROR),
    (Infeasible, "infeasible: ", EXIT_ERROR),
    (CounterfactualNotOptimal, "", EXIT_TIME_LIMITED),
    ((NoBreakeven, ResampleLimit, UsageError), "", EXIT_ERROR),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for kinds, prefix, code in ERRORS:
            if isinstance(exc, kinds):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
