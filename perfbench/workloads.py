"""The benchmark's workloads.  One operation clears and prices one market.

Every workload makes its markets from the run's seed in `setup`, clears one
market per call to `clear` through the library's public functions only, and
checks a cleared market in `check` with the independent checker.  Each call
into a library layer is wrapped in a span named after the layer.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass, field, replace

from evmarket import (
    STATUS_OPTIMAL,
    ClearingSchedule,
    build_model,
    generate,
    price_coop,
    price_vcg,
    run_online,
    solve_exact,
)
from evmarket.experiments import DESK
from evmarket.serialize import allocation_to_dict, dump_instance, load_instance, write_pricing_csv

import check

# Coop markup in steps of 0.1 %: 25 is the library's default incr of 0.025.
INCR_MIL = 25

# Routed, uncontested fleet: desk costs, no imbalance cost and a charger for
# every EV, so capacity never binds and the optimum has a closed form.
FLEET = replace(DESK, n_evs=300, n_stations=16, slots=300, imbalance_unit_cost=0)

# Five clearings spread over the desk profile's reporting window (arrivals on
# [0, 0.6 * 24], the last possible report before t = 15), as in study 2.
ONLINE_POINTS = ClearingSchedule((3, 6, 9, 12, 15))


class NotOptimal(Exception):
    """A solve ended with a status other than optimal."""


@dataclass
class Market:
    id: str
    n_evs: int
    instance: object = None  # evmarket.Instance; None when loaded from `path`
    path: str = ""
    cache: dict = field(default_factory=dict)  # untimed check results


def _feasible_pairs(instance) -> int:
    return sum(len(r.feasible_stations) for r in instance.requests)


def solve(instance, tracer) -> tuple:
    with tracer.span("allocator.build_model"):
        model = build_model(instance)
    with tracer.span("allocator.solve_exact"):
        result = solve_exact(model)
    if result.status != STATUS_OPTIMAL:
        raise NotOptimal(f"top-level solve ended {result.status}")
    counts = {
        "transport.feasible_pairs": _feasible_pairs(instance),
        "allocator.model_vars": model.n_vars,
        "allocator.model_rows": model.A.shape[0],
        "allocator.model_nnz": model.A.nnz,
        "allocator.nodes": result.nodes,
    }
    return result.allocation, counts


# Generator seeds 1000-1049 of the 30-EV desk market whose LP relaxation was
# integral when the benchmark was defined (`integrality.py --scan 1000-1049`;
# 1001, 1010, 1035, 1036 and 1043 are fractional).  A constant, so that a
# change to the library cannot change which markets a run clears.
DESK30_INTEGRAL = (
    1000, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009, 1011, 1012, 1013,
    1014, 1015, 1016, 1017, 1018, 1019, 1020, 1021, 1022, 1023, 1024, 1025,
    1026, 1027, 1028, 1029, 1030, 1031, 1032, 1033, 1034, 1037, 1038, 1039,
    1040, 1041, 1042, 1044, 1045, 1046, 1047, 1048, 1049,
)


class DeskVcg:
    """Offline VCG on the desk profile: five 30-EV markets drawn by the seed
    from DESK30_INTEGRAL, then the 60-EV market of generator seed 2, whose
    relaxation has 16 fractional binaries.

    Every round thus holds both outcomes an LP-first solve can meet, in a
    fixed mix.  About one desk-30 market in twelve is fractional and takes
    twice as long to price, so leaving the mix to the seed would move a
    run's throughput by about 15 % whenever one is drawn."""

    name = "desk-vcg"
    n30 = 5
    fractional_seed = 2

    def setup(self, seed: int, tracer, workdir: str) -> list[Market]:
        markets = []
        for s in random.Random(seed).sample(DESK30_INTEGRAL, self.n30):
            with tracer.span("scenario.generate"):
                inst = generate(replace(DESK, n_evs=30), s)
            markets.append(Market(f"desk30-s{s}", 30, inst))
        with tracer.span("scenario.generate"):
            inst = generate(replace(DESK, n_evs=60), self.fractional_seed)
        return markets + [Market(f"desk60-s{self.fractional_seed}", 60, inst)]

    def clear(self, m: Market, tracer, workdir: str) -> dict:
        allocation, counts = solve(m.instance, tracer)
        with tracer.span("pricing.price_vcg"):
            outcome = price_vcg(m.instance, allocation)
        counts["pricing.counterfactuals"] = len(outcome.charged)
        return {"instance": m.instance, "allocation": allocation, "outcome": outcome, "counts": counts}

    def check(self, m: Market, out: dict) -> list[str]:
        inst, alloc, outcome = out["instance"], out["allocation"], out["outcome"]
        return (
            check.allocation_ok(inst, alloc)
            + check.vcg(inst, alloc, outcome)
            + check.budget(inst, alloc, outcome)
        )


class FleetCoop:
    """The `solve --mechanism coop` path on three stored 300 EV x 16 station
    routed instances.

    Build time and peak memory vary by about 10 % between instances; one
    instance per run put all of that into the run-to-run spread."""

    name = "fleet-coop"
    markets = 3

    def setup(self, seed: int, tracer, workdir: str) -> list[Market]:
        markets = []
        for k in range(self.markets):
            s = seed * 100 + k
            path = os.path.join(workdir, f"instance-{s}.json")
            with tracer.span("scenario.generate"):
                inst = generate(FLEET, s)
            with tracer.span("serialize.dump_instance"):
                dump_instance(inst, path)
            markets.append(Market(f"fleet-s{s}", FLEET.n_evs, path=path))
        return markets

    def clear(self, m: Market, tracer, workdir: str) -> dict:
        with tracer.span("serialize.load_instance"):
            inst = load_instance(m.path)
        allocation, counts = solve(inst, tracer)
        with tracer.span("pricing.price_coop"):
            outcome = price_coop(inst, allocation, INCR_MIL / 1000)
        out_dir = os.path.join(workdir, m.id)
        with tracer.span("serialize.write_outputs"):
            os.makedirs(out_dir, exist_ok=True)
            with open(os.path.join(out_dir, "allocation.json"), "w") as fh:
                json.dump(allocation_to_dict(allocation), fh, indent=2, sort_keys=True)
                fh.write("\n")
            with open(os.path.join(out_dir, "pricing.csv"), "w", newline="") as fh:
                write_pricing_csv(outcome, allocation, fh)
        counts["serialize.output_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f)) for f in ("allocation.json", "pricing.csv")
        )
        return {"instance": inst, "allocation": allocation, "outcome": outcome,
                "out_dir": out_dir, "counts": counts}

    def check(self, m: Market, out: dict) -> list[str]:
        inst, alloc, outcome = out["instance"], out["allocation"], out["outcome"]
        problems = (
            check.allocation_ok(inst, alloc)
            + check.coop(inst, alloc, outcome, INCR_MIL)
            + check.budget(inst, alloc, outcome)
        )
        if inst.imbalance_unit_cost != 0 or any(st.slots < len(inst.requests) for st in inst.stations):
            problems.append("closed-form: instance is contested, the closed form does not apply")
        elif alloc.objective != (closed := check.uncontested_optimum(inst)):
            problems.append(f"closed-form: objective {alloc.objective} != {closed}")
        with open(os.path.join(out["out_dir"], "allocation.json")) as fh:
            doc = json.load(fh)
        if (doc["objective"], doc["assigned"]) != (alloc.objective, dict(alloc.assigned)) or {
            tuple(tr) for tr in doc["schedule"]
        } != set(alloc.schedule):
            problems.append("outputs: allocation.json does not match the allocation")
        with open(os.path.join(out["out_dir"], "pricing.csv"), newline="") as fh:
            paid = {row["agent_id"]: int(row["payment"]) for row in csv.DictReader(fh)}
        if paid != dict(outcome.payments):
            problems.append("outputs: pricing.csv payments do not match the outcome")
        return problems


class OnlineVcg:
    """`run_online` with VCG and carryover on 20 desk markets of 30 EVs.

    At 60 EVs a run holds only six markets, and one hard market (generator
    seed 402 takes 11.9 s against a median near 5 s and raises peak memory
    by 65 MB) moves a whole run's throughput and memory; at 30 EVs the
    same run time holds 20 markets."""

    name = "online-vcg"
    n_evs = 30
    markets = 20

    def setup(self, seed: int, tracer, workdir: str) -> list[Market]:
        markets = []
        for k in range(self.markets):
            s = seed * 100 + k
            with tracer.span("scenario.generate"):
                inst = generate(replace(DESK, n_evs=self.n_evs), s)
            markets.append(Market(f"online{self.n_evs}-s{s}", self.n_evs, inst))
        return markets

    def clear(self, m: Market, tracer, workdir: str) -> dict:
        with tracer.span("online.run_online"):
            result = run_online(m.instance, ONLINE_POINTS, mechanism="vcg", carryover=True)
        active = [c for c in result.clearings if c.status != "no-op"]
        bad = [c.status for c in active if c.status != STATUS_OPTIMAL]
        if bad:
            raise NotOptimal(f"clearings ended {bad}")
        counts = {
            "transport.feasible_pairs": _feasible_pairs(m.instance),
            "online.clearings": len(active),
            "online.counterfactuals": sum(len(c.outcome.charged) for c in active),
            "online.committed": len(result.outcome.charged),
        }
        return {"result": result, "counts": counts}

    def check(self, m: Market, out: dict) -> list[str]:
        if "offline" not in m.cache:  # the offline optimum, solved once and untimed
            offline = solve_exact(build_model(m.instance))
            if offline.status != STATUS_OPTIMAL:
                return [f"offline: solve ended {offline.status}"]
            m.cache["offline"] = offline.allocation
        return check.online(m.instance, out["result"], m.cache["offline"])


WORKLOADS = {w.name: w for w in (DeskVcg(), FleetCoop(), OnlineVcg())}
