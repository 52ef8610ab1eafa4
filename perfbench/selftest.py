"""Checker self-test: corrupted outputs must be rejected, by the right check.

    python3 perfbench/selftest.py

Clears three small desk markets (offline VCG, offline Coop, online VCG),
requires the checker to accept each as it is, then corrupts one field at a
time and requires a problem with the expected code.  Exits 1 if any
corruption passes, so that no check can pass vacuously.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from evmarket import generate, price_coop, run_online  # noqa: E402
from evmarket.experiments import DESK  # noqa: E402

import check  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import INCR_MIL, ONLINE_POINTS, DeskVcg, Market, solve  # noqa: E402


def over_capacity(inst, alloc):
    """Move one more EV than the station has chargers into a single cell."""
    st = inst.stations[0]
    movers = sorted(a for a, s in alloc.assigned.items() if s is not None)[: st.slots + 1]
    assigned = dict(alloc.assigned, **{a: st.id for a in movers})
    schedule = {tr for tr in alloc.schedule if tr[0] not in movers} | {(a, st.id, 5) for a in movers}
    return replace(alloc, assigned=assigned, schedule=frozenset(schedule))


def shifted_payment(outcome, agent, delta):
    return replace(
        outcome,
        payments=dict(outcome.payments, **{agent: outcome.payments[agent] + delta}),
        utilities=dict(outcome.utilities, **{agent: outcome.utilities[agent] - delta}),
    )


def early_commitment(result):
    """Move one committed slot to just before its clearing time."""
    clearings = list(result.clearings)
    k = next(i for i, c in enumerate(clearings) if c.commitments_added)
    c = clearings[k]
    a, s, t = min(c.commitments_added)
    moved = (c.commitments_added - {(a, s, t)}) | {(a, s, c.time - 1)}
    clearings[k] = replace(c, commitments_added=frozenset(moved))
    schedule = (result.allocation.schedule - {(a, s, t)}) | {(a, s, c.time - 1)}
    return replace(result, clearings=clearings, allocation=replace(result.allocation, schedule=schedule))


def main() -> int:
    off = Tracer(False)
    inst = generate(DESK, 0)
    vcg_out = DeskVcg().clear(Market("desk30-s0", 30, inst), off, "")
    alloc, outcome = vcg_out["allocation"], vcg_out["outcome"]
    winner = min(outcome.charged)
    coop_alloc, _ = solve(inst, off)
    coop_outcome = price_coop(inst, coop_alloc, INCR_MIL / 1000)
    online = run_online(inst, ONLINE_POINTS, mechanism="vcg", carryover=True)

    def vcg_checks(a, o):
        return check.allocation_ok(inst, a) + check.vcg(inst, a, o) + check.budget(inst, a, o)

    def coop_checks(a, o):
        return check.allocation_ok(inst, a) + check.coop(inst, a, o, INCR_MIL) + check.budget(inst, a, o)

    def online_checks(r):
        return check.online(inst, r, alloc)

    cases = [
        ("clean VCG market", None, vcg_checks(alloc, outcome)),
        ("clean Coop market", None, coop_checks(coop_alloc, coop_outcome)),
        ("clean online market", None, online_checks(online)),
        ("slot over capacity", "capacity", vcg_checks(over_capacity(inst, alloc), outcome)),
        ("objective off by one cent", "welfare",
         vcg_checks(replace(alloc, objective=alloc.objective + 1), outcome)),
        ("VCG payment above the valuation", "vcg-ir",
         vcg_checks(alloc, shifted_payment(outcome, winner, outcome.utilities[winner] + 1))),
        ("Coop price off by one cent", "coop-price",
         coop_checks(coop_alloc, shifted_payment(coop_outcome, min(coop_outcome.charged), 1))),
        ("commitment before its clearing", "online-time", online_checks(early_commitment(online))),
    ]
    failures = 0
    for label, code, problems in cases:
        hits = [p for p in problems if code and p.startswith(code + ":")]
        good = bool(hits) if code else not problems
        failures += not good
        shown = (hits or problems or ["accepted"])[0]
        print(f"{'ok  ' if good else 'FAIL'} {label}: {shown}")
    print(f"{len(cases) - failures}/{len(cases)} cases behave as required")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
