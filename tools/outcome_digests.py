"""One digest of allocation and payments per market, over a fixed set of
markets, so that two versions of evmarket can be shown to give the same
outputs.

    python3 tools/outcome_digests.py run --out parent.json
    python3 tools/outcome_digests.py compare parent.json change.json

`run` imports evmarket from the `src/` folder beside this script, solves
each market with `solve_exact` and prices it with VCG (`run_online` with
VCG and carryover for the online markets), and writes a JSON object of
market name -> SHA-256 of the allocation's assignment, schedule and
objective and of every payment.  Each market's progress line also counts
the proofs (`SolveResult.proof`) of its main solves and of its VCG
counterfactuals, recorded by a wrapper around `solve_exact` given to
pricing and `run_online` as their solver; the JSON holds digests alone.
It takes a few minutes on one core.
`compare` prints each market whose digest differs or that only one file
holds, and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from dataclasses import replace

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from evmarket import ClearingSchedule, build_model, generate, price, run_online, solve_exact  # noqa: E402
from evmarket.experiments import DESK, DESK_CONTESTED  # noqa: E402
from evmarket.scenario import GenParams  # noqa: E402

FLEET = replace(DESK, n_evs=300, n_stations=16, slots=300, imbalance_unit_cost=0)
OFFLINE = [
    *((f"desk30-{s}", DESK, s) for s in range(1000, 1050)),
    *((f"contested-{s}", DESK_CONTESTED, s) for s in range(10)),
    *((f"desk60-{s}", replace(DESK, n_evs=60), s) for s in (2, 1000, 1001, 1002)),
    *((f"fleet-{s}", FLEET, s) for s in (100, 101, 102)),
    *((f"gen30x4-{s}", GenParams(n_evs=30, n_stations=4, horizon=24), s) for s in range(400, 410)),
    *((f"gen30-{s}", GenParams(n_evs=30), s) for s in range(6)),
]
ONLINE = [(f"online-desk30-{s}", DESK, s) for s in range(100, 120)]
CLEARING_POINTS = (3, 6, 9, 12, 15)


def digest(allocation, payments) -> str:
    """SHA-256 of a canonical JSON of the allocation and the payments."""
    document = {
        "assigned": sorted(allocation.assigned.items()),
        "schedule": sorted(allocation.schedule),
        "objective": allocation.objective,
        "payments": sorted(payments.items()),
    }
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


def run(out: str) -> None:
    digests = {}
    proofs = Counter()  # (main or cf, proof) -> solves of the current market

    def solver(model, incumbent=None, without=None):
        result = solve_exact(model, incumbent=incumbent, without=without)
        proofs["main" if without is None else "cf", result.proof] += 1
        return result

    def report(name: str) -> None:
        counts = " ".join(f"{kind}:{proof}={n}" for (kind, proof), n in sorted(proofs.items()))
        print(name, digests[name][:12], counts, flush=True)
        proofs.clear()

    for name, params, seed in OFFLINE:
        model = build_model(generate(params, seed))
        result = solver(model)
        digests[name] = digest(result.allocation, price("vcg", model, result, 0.0, solver=solver).payments)
        report(name)
    for name, params, seed in ONLINE:
        online = run_online(generate(params, seed), ClearingSchedule(CLEARING_POINTS), "vcg",
                            solver=solver, carryover=True)
        digests[name] = digest(online.allocation, online.outcome.payments)
        report(name)
    with open(out, "w") as f:
        json.dump(digests, f, indent=1, sort_keys=True)


def compare(a: str, b: str) -> int:
    with open(a) as f:
        first = json.load(f)
    with open(b) as f:
        second = json.load(f)
    differ = sorted(name for name in first.keys() | second.keys() if first.get(name) != second.get(name))
    for name in differ:
        print(name, first.get(name, "-")[:12], second.get(name, "-")[:12])
    print(f"{len(differ)} of {len(first.keys() | second.keys())} markets differ")
    return 1 if differ else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("run").add_argument("--out", required=True)
    pair = commands.add_parser("compare")
    pair.add_argument("a")
    pair.add_argument("b")
    args = parser.parse_args()
    if args.command == "run":
        run(args.out)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
