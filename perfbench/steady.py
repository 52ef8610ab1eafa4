"""Steadiness of the end-to-end metrics across seeds, and two sets compared.

    python3 perfbench/steady.py run --workload online-vcg --seeds 1-10 --out a.json
    python3 perfbench/steady.py compare a.json b.json

`run` runs perfbench/run.py once per seed, one run at a time, and prints each
end-to-end metric's median, quartiles and spread, the distance between the
quartiles as a share of the median, against the metric's bound in
BENCHMARK.json.  `compare` checks a second set of runs against a first: every
spread within its bound, no median worse than the first set's by
more than its bound, and the same share of failed operations.  Every run
lasts `run_seconds` of BENCHMARK.json, the length the bounds speak of.  The
library is imported from src/, so no install is needed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summary(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med


def cmd_run(args) -> int:
    spec = load_spec()
    seconds = spec["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=os.path.dirname(HERE))
        if proc.returncode != 0:
            print(f"seed {seed}: exited {proc.returncode}", file=sys.stderr)
            return 1
        lines = proc.stdout.splitlines()
        print(lines[0])
        res = json.loads(lines[-1])
        res["seed"] = seed
        runs.append(res)
        vals = " ".join(f"{k}={v['value']:.4f}" for k, v in sorted(res["metrics"].items()))
        print(f"seed {seed}: correct={res['correct']} {res['failed']}/{res['attempted']} failed {vals}",
              flush=True)
    doc = {"workload": args.workload, "seconds": seconds, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    report(doc, spec)
    return 0


def report(doc: dict, spec: dict) -> bool:
    ok = True
    print(f"{doc['workload']}: {len(doc['runs'])} runs of {doc['seconds']} s")
    print(f"{'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in doc["runs"]]
        med, q1, q3, spread = summary(values)
        verdict = "steady" if spread < m["bound"] / 3 else "within" if spread <= m["bound"] else "WIDE"
        ok &= spread <= m["bound"]
        print(f"{m['name']:16s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} {m['bound']:6.2f} {verdict}")
    return ok


def failed_share(doc: dict) -> tuple[int, int]:
    return sum(r["failed"] for r in doc["runs"]), sum(r["attempted"] for r in doc["runs"])


def cmd_compare(args) -> int:
    spec = load_spec()
    with open(args.first) as fh:
        first = json.load(fh)
    with open(args.second) as fh:
        second = json.load(fh)
    ok = report(first, spec) & report(second, spec)
    for m in spec["end_to_end"]:
        a = statistics.median(r["metrics"][m["name"]]["value"] for r in first["runs"])
        b = statistics.median(r["metrics"][m["name"]]["value"] for r in second["runs"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        good = worse <= m["bound"]
        ok &= good
        print(f"{m['name']:16s} first {a:12.4f} second {b:12.4f} worse by {worse:+.3f} "
              f"(bound {m['bound']}) {'ok' if good else 'REGRESSED'}")
    (fa, na), (fb, nb) = failed_share(first), failed_share(second)
    same = fa * nb == fb * na
    ok &= same
    print(f"failed share {fa}/{na} vs {fb}/{nb} {'ok' if same else 'DIFFERS'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,4,7")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
