"""Share of a workload's markets whose LP relaxation is integral.

    python3 perfbench/integrality.py --workload desk-vcg --seeds 1-10
    python3 perfbench/integrality.py --scan 1000-1049

For every market a run with each seed clears, solves the LP relaxation of
the top-level model and counts the binaries that come out fractional.  An
LP-first solve is exercised on both of its outcomes only where both kinds
occur.  For online-vcg this is the offline model of each instance; the
clearing models are built inside run_online.  `--scan` does the same for
the 30-EV desk markets of a range of generator seeds; it is how the
constant pool of desk-vcg's integral markets was found.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from evmarket import build_model, generate  # noqa: E402
from evmarket.experiments import DESK  # noqa: E402
from evmarket.serialize import load_instance  # noqa: E402

from spans import Tracer  # noqa: E402
from steady import seeds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fractional_binaries(instance) -> int:
    """Binaries that come out fractional in the LP relaxation of the model."""
    model = build_model(instance)
    res = linprog(-model.c, A_ub=model.A, b_ub=model.b,
                  bounds=np.column_stack([model.lb, model.ub]), method="highs")
    return int(np.sum(model.is_binary & (np.minimum(res.x, 1.0 - res.x) > 1e-6)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", choices=sorted(WORKLOADS))
    what.add_argument("--scan", help="generator seeds of 30-EV desk markets, e.g. 1000-1049")
    p.add_argument("--seeds", default="1-10", help="run seeds, with --workload")
    args = p.parse_args(argv)
    integral, total = [], 0
    if args.scan:
        for s in seeds(args.scan):
            frac = fractional_binaries(generate(replace(DESK, n_evs=30), s))
            integral += [s] if frac == 0 else []
            total += 1
            print(f"desk30-s{s}: {frac} fractional binaries", flush=True)
        print(f"integral: {', '.join(map(str, integral))}")
        print(f"desk-30: LP relaxation integral on {len(integral)}/{total} markets")
        return 0
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    for seed in seeds(args.seeds):
        for m in wl.setup(seed, Tracer(False), workdir):
            frac = fractional_binaries(m.instance or load_instance(m.path))
            integral += [m.id] if frac == 0 else []
            total += 1
            print(f"{m.id}: {frac} fractional binaries", flush=True)
    print(f"{args.workload}: LP relaxation integral on {len(integral)}/{total} markets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
