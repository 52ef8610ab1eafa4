"""Every name a library module imports is used in it (no linter is installed),
the library holds no assert statement, only the clearing layers read
commitments,
and neither importing the library nor running its commands (exp 4 aside)
loads scipy.optimize, scipy.stats or scipy.sparse."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "evmarket"
# the package's modules, and the enumeration oracle, whose guards the tests
# also run under python -O
CHECKED = [*sorted(SRC.glob("*.py")), pathlib.Path(__file__).resolve().parent / "bruteforce.py"]


def _imported(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in _used(tree)
    )
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert, so a check that guards soundness must raise instead
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def _mentions_committed(tree: ast.Module) -> bool:
    """The module reads or sets commitments: an attribute, keyword, name or
    field called committed, or a read of committed_load."""
    return any(
        (isinstance(node, ast.Attribute) and node.attr in ("committed", "committed_load"))
        or (isinstance(node, ast.keyword) and node.arg == "committed")
        or (isinstance(node, ast.Name) and node.id == "committed")
        for node in ast.walk(tree)
    )


def test_only_the_clearing_layers_read_commitments():
    # commitments are the online run's earlier clearings: the model carries
    # them as station load, the model builder and validate_allocation honour
    # it, and pricing never needs them
    readers = {path.name for path in SRC.glob("*.py") if _mentions_committed(ast.parse(path.read_text()))}
    assert readers <= {"model.py", "allocator.py", "online.py"}
    assert "online.py" in readers and "pricing.py" not in readers


def _python(code: str) -> str:
    """Standard output of code run in a fresh interpreter that finds the library."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout.strip()


# exp 4 is left out: its paired t-test imports scipy.stats, which loads scipy.sparse
RUNS = [
    ["gen", "--seed", "3", "--n-evs", "8", "--n-stations", "2", "--horizon", "12", "--out", "{d}/m.json"],
    ["solve", "{d}/m.json", "--mechanism", "vcg", "--out", "{d}/solve"],
    ["online", "{d}/m.json", "--mechanism", "vcg", "--carryover", "--out", "{d}/online"],
    ["exp", "2", "--reps", "1", "--out", "{d}/exp"],
    ["calibrate-incr", "--n-evs", "4", "--n-stations", "2", "--horizon", "10", "--elec-cost", "20",
     "--imbalance-cost", "1", "--max-demand", "2", "--n-instances", "2", "--out", "{d}/incr.json"],
]


def test_library_leaves_scipy_optimize_stats_and_sparse_unloaded(tmp_path):
    # IpModel.A imports scipy.sparse for callers that hand the model to
    # scipy; no command reads it, so importing and running them loads none
    loaded = _python(
        "import contextlib, io, sys, evmarket, evmarket.cli\n"
        "unloaded = lambda: [m for m in ('scipy.optimize', 'scipy.stats', 'scipy.sparse') if m in sys.modules]\n"
        "print('import', unloaded())\n"
        f"for argv in {RUNS!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = evmarket.cli.main([a.format(d={str(tmp_path)!r}) for a in argv])\n"
        "    print(argv[0], code, unloaded())\n"
    )
    assert loaded.splitlines() == [
        "import []", "gen 0 []", "solve 0 []", "online 0 []", "exp 0 []", "calibrate-incr 0 []",
    ]


@pytest.mark.parametrize("first", ["scipy.optimize", "evmarket"])
def test_highs_bindings_are_shared_with_scipy_optimize(first):
    # whichever is imported first, the library and scipy.optimize hold one
    # module of HiGHS bindings, and scipy's own solvers still run on it
    second = "evmarket" if first == "scipy.optimize" else "scipy.optimize"
    out = _python(
        f"import {first}, {second}, evmarket.allocator\n"
        "from scipy.optimize import linprog\n"
        "from scipy.optimize._highspy import _core\n"
        "print(evmarket.allocator._core is _core, linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1]).fun)"
    )
    assert out == "True 1.0"


# the public surface: adding or removing a name from evmarket.__all__ is a
# deliberate change, made here too
PUBLIC = [
    "Allocation", "ClearingSchedule", "EvRequest", "EvType", "GenParams", "Instance", "IpModel",
    "MONEY_SCALE", "OnlineResult", "PricingOutcome", "RoadNetwork", "STATUS_OPTIMAL",
    "STATUS_TIME_LIMITED", "SolveResult", "Station", "StationAccess", "TimeGrid", "build_model",
    "build_requests", "calibrate_incr", "generate", "imbalance_cost", "perturb_reports", "price",
    "price_coop", "price_vcg", "run_online", "solve_exact",
    "validate_allocation",
]


def test_public_names_are_pinned():
    import evmarket

    assert PUBLIC == sorted(PUBLIC)
    assert evmarket.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(evmarket, name)] == []
