"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk-vcg --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py

Each workload runs in its own single-threaded process, imports the library
from ../src, makes its markets from --seed and clears them one at a time
(a closed loop, no concurrency) in whole rounds until --seconds have passed;
the first round always runs to its end.  Every cleared market is then
checked by the independent checker in check.py.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  With --trace 1 the run clears one round with spans on, writes
them to perfbench/out/trace-<workload>-<seed>.jsonl and prints each layer's
self time.  `--workload all`, the default, runs every workload in its own
child process and ends with one JSON object holding the summed `correct`,
`attempted` and `failed` and, under `workloads`, each workload's own result.
--seconds defaults to `run_seconds` in BENCHMARK.json.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(HERE, "out")
NAMES = ("desk-vcg", "fleet-coop", "online-vcg")

# Set-up is mostly the import of numpy, scipy and the library, and the
# host's speed drifts by as much as 1.7x over tens of seconds, far more than
# readings taken seconds apart differ.  So set-up is read twice,
# in this interpreter before the timed pass and in a fresh child that imports
# and sets up once (--setup-only) after it, and their median is reported.

PER_LAYER_TIMES = (
    "serialize.load_instance",
    "serialize.write_outputs",
    "allocator.build_model",
    "allocator.solve_exact",
    "pricing.price_vcg",
    "pricing.price_coop",
    "online.run_online",
)
SETUP_TIMES = ("scenario.generate", "serialize.dump_instance")
PER_LAYER_COUNTS = (
    "transport.feasible_pairs",
    "allocator.model_vars",
    "allocator.model_rows",
    "allocator.model_nnz",
    "allocator.nodes",
    "pricing.counterfactuals",
    "serialize.output_bytes",
    "online.clearings",
    "online.counterfactuals",
    "online.committed",
)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks how fast the host is right now."""
    t = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def clear_one(wl, market, tracer, workdir):
    """Clear one market; returns (seconds, outputs or the exception raised)."""
    t = time.perf_counter()
    try:
        with tracer.span("market", market=market.id):
            out = wl.clear(market, tracer, workdir)
    except Exception as exc:  # a failed operation is counted, the run goes on
        traceback.print_exc(file=sys.stderr)
        out = exc
    return time.perf_counter() - t, out


def setup(name: str, seed: int, tracer):
    """Import the library and make the workload's markets in a new work
    directory; returns the workload, the markets, the directory and the
    seconds since this interpreter started."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads: BLAS would start a thread pool
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        with tracer.span("setup"):
            markets = wl.setup(seed, tracer, workdir)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise
    return wl, markets, workdir, time.perf_counter() - _T0


def setup_in_child(name: str, seed: int) -> float:
    """Seconds of imports plus one set-up in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return float(out.split()[-1])


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    off = Tracer(False)
    tracer = Tracer(traced)
    wl, markets, workdir, setup_s = setup(name, seed, tracer)
    try:
        setups = [setup_s]
        calib = [calibrate()]

        records = []  # (market, seconds, outputs or exception)
        overhead = 0.0
        start = time.perf_counter()
        if traced:
            ref_s, _ = clear_one(wl, markets[0], off, workdir)
            for m in markets:
                records.append((m, *clear_one(wl, m, tracer, workdir)))
            overhead = records[0][1] - ref_s
        else:
            while True:
                round_start = time.perf_counter()
                for m in markets:
                    records.append((m, *clear_one(wl, m, off, workdir)))
                now = time.perf_counter()
                if (now - start) + (now - round_start) > seconds:
                    break
        pass_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed, correct, ok = 0, True, []
        for m, dt, out in records:
            if isinstance(out, Exception):
                problems = [f"raised {out!r}"]
            else:  # a rejected market is failed and makes the run incorrect
                problems = wl.check(m, out)
                correct = correct and not problems
            if problems:
                failed += 1
                print(f"FAILED {m.id}: " + "; ".join(problems[:5]), file=sys.stderr)
            else:
                ok.append((m, dt, out))
        calib.append(calibrate())
        if not traced:
            setups.append(setup_in_child(name, seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not traced:
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "market_p50_s": metric(statistics.median(dt for _, dt, _ in ok) if ok else 0.0, "s"),
            "evs_per_s": metric(sum(m.n_evs for m, _, _ in ok) / pass_s, "EV/s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }
        print(f"{name}: seed {seed}, {len(records)} markets in {pass_s:.2f} s, "
              f"host calibration {calib[0]:.4f} s at start, {calib[1]:.4f} s at end")
    else:
        path = os.path.join(OUT, f"trace-{name}-{seed}.jsonl")
        tracer.write_jsonl(path)
        metrics = per_layer(tracer, [out for _, _, out in ok], calib, overhead)
        print(f"{name}: seed {seed}, spans in {os.path.relpath(path)}")
        print(f"{'span':28s} {'count':>6s} {'total_s':>10s} {'self_s':>10s}")
        for span, (n, total, own) in sorted(tracer.self_times().items()):
            print(f"{span:28s} {n:6d} {total:10.4f} {own:10.4f}")
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:14.6f} {m['unit']}")
    return {"correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics}


def per_layer(tracer, outs, calib, overhead) -> dict:
    """Per-layer metrics of one traced round: layer times and counts are
    totals over the round's markets; set-up layers are those of the run's one
    set-up."""
    market_t = tracer.totals("market")
    setup_t = tracer.totals("setup")
    metrics = {f"{k}_s": metric(setup_t.get(k, 0.0), "s") for k in SETUP_TIMES}
    metrics.update({f"{k}_s": metric(market_t.get(k, 0.0), "s") for k in PER_LAYER_TIMES})
    for k in PER_LAYER_COUNTS:
        unit = "bytes" if k.endswith("_bytes") else "count"
        metrics[k] = metric(sum(o["counts"].get(k, 0) for o in outs), unit)
    cf = metrics["pricing.counterfactuals"]["value"]
    metrics["pricing.counterfactual_mean_s"] = metric(
        metrics["pricing.price_vcg_s"]["value"] / cf if cf else 0.0, "s")
    metrics["host.calibration_s"] = metric(statistics.fmean(calib), "s")
    metrics["trace.overhead_s"] = metric(overhead, "s")
    return metrics


def run_all(args) -> dict:
    """Every workload in its own child process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["workloads"][name] = res
    return merged


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print the seconds of imports plus one set-up, and stop")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evmarket", "__init__.py")):
        print(f"error: the library is not at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(SPEC) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    if args.setup_only:
        if args.workload == "all":
            p.error("--setup-only needs one workload")
        _, _, workdir, setup_s = setup(args.workload, args.seed, Tracer(False))
        shutil.rmtree(workdir, ignore_errors=True)
        print(setup_s)
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
