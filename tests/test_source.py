"""Static checks over the package source: nothing unreached, routes independent."""

import ast
import importlib
from pathlib import Path

import pytest

from mutants import MUTANTS
from test_cli import load_bench

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "splitmoments"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)

# definitions that nothing in src/ refers to and that stay, each with its reason
KEEP = {
    "exactpoly.PiecewisePoly.degree": "bench/trace_child.py reads each traced convolve "
                                      "result's degree with it",
    "errors.ToleranceError": "only tests/oracle_reference.py raises it; ROADMAP item 6 "
                             "has the oracle raise it when its error estimate fails",
}

# definitions that only the benchmark tracer reaches: the names of
# bench/trace_child.LAYERS that nothing in src/ calls, and what only they use
TRACER_ONLY = {
    "exactpoly.convolve", "exactpoly.cumulative", "exactpoly.from_terms",
    "exactpoly.PiecewisePoly.zero", "exactpoly.PiecewisePoly.is_zero",
    "testfn.phi_power_hat", "vanishing.vanishing_bound",
    "rmt.sample_haar_so", "rmt.eigenangles", "rmt.eigenangles_dense",
    "rmt.collect_angle_samples", "rmt.EigenangleSample",
    "rmt.EigenangleSample.check_odd_parity",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree: ast.Module):
    """(qualified name, node) of module-level functions and classes, and of
    the classes' non-dunder methods."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item) for item in node.body
                        if isinstance(item, FUNCTIONS) and not item.name.startswith("__"))


def _references(node: ast.AST, inside: frozenset = frozenset()):
    """(name, ids of the enclosing defs) of every Name, Attribute and import alias."""
    if isinstance(node, DEFINITIONS):
        inside = inside | {id(node)}
    if isinstance(node, ast.Name):
        yield node.id, inside
    elif isinstance(node, ast.Attribute):
        yield node.attr, inside
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1], inside
    for child in ast.iter_child_nodes(node):
        yield from _references(child, inside)


def _referrers() -> dict[str, tuple[ast.AST, list[frozenset]]]:
    """Each definition in src/, by qualified name: its node and the ids of the
    defs enclosing each reference to its name.

    A string (an ``__all__`` entry) is no reference.
    """
    trees = _trees()
    refs: dict[str, list[frozenset]] = {}
    for tree in trees.values():
        for name, inside in _references(tree):
            refs.setdefault(name, []).append(inside)
    return {f"{stem}.{qualname}": (node, refs.get(node.name, []))
            for stem, tree in trees.items() for qualname, node in _definitions(tree)}


def _referenced_only_from(node: ast.AST, refs: list[frozenset], ids: set[int]) -> bool:
    """Every reference lies in the definition itself (recursion) or in a def of ``ids``."""
    return all(id(node) in inside or inside & ids for inside in refs)


def unreferenced() -> set[str]:
    """Definitions in src/ that nothing else in src/ refers to by name."""
    return {name for name, (node, refs) in _referrers().items()
            if _referenced_only_from(node, refs, set())}


def traced() -> set[str]:
    return {f"{module.__name__.rsplit('.', 1)[1]}.{name}"
            for module, names in load_bench("trace_child").LAYERS.items() for name in names}


def test_every_definition_is_reached_traced_or_kept():
    """src/ holds what a command runs, what the benchmark tracer patches
    (bench/trace_child.LAYERS) and the KEEP list; nothing else."""
    unused = unreferenced() - traced()
    assert sorted(unused - set(KEEP)) == []
    assert sorted(set(KEEP) - unused) == []  # a referenced name needs no entry


def test_tracer_only_definitions_pinned():
    """The fixpoint of "referenced only from the traced names that nothing
    calls, or from each other" is TRACER_ONLY, so code that only the tracer
    reaches fails here instead of hiding behind LAYERS (ROADMAP item 1 moves
    these names out of src/)."""
    defs = _referrers()
    only = unreferenced() & traced()
    while True:
        ids = {id(defs[name][0]) for name in only}
        grown = only | {name for name, (node, refs) in defs.items()
                        if refs and _referenced_only_from(node, refs, ids)}
        if grown == only:
            break
        only = grown
    assert sorted(only) == sorted(TRACER_ONLY)


def test_every_traced_layer_resolves():
    """Each name the benchmark tracer patches is a callable of its module, so a
    change to src/ that would break ``bench/run.py --trace 1`` fails here."""
    assert [f"{module.__name__}.{name}"
            for module, names in load_bench("trace_child").LAYERS.items() for name in names
            if not callable(getattr(module, name, None))] == []


def test_every_export_resolves():
    modules = [importlib.import_module(f"splitmoments.{stem}") for stem in _trees()]
    assert [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", [])
            if not hasattr(m, name)] == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.checks}")
def test_every_mutant_applies_once(mutant):
    """Each mutant of ``tests/mutants.py`` edits exactly one place, so moving
    the code it mutates fails here until the mutant follows."""
    assert (PACKAGE / mutant.file).read_text().count(mutant.old) == 1


def test_float_oracle_shares_nothing_with_the_exact_route():
    """The oracle and its test references import nothing from ``moments``,
    name no term-list function and read phi(0) from ``phi_at``, not from the
    exact integral ``phi_zero``, so their agreement with R means something."""
    shared = []
    for path in (PACKAGE / "quadrature.py", ROOT / "tests" / "oracle_reference.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
                if (node.module or "").endswith("moments") or "moments" in names:
                    shared.append(f"{path.name}:{node.lineno}: from {node.module} import {names}")
            elif isinstance(node, ast.Import):
                shared += [f"{path.name}:{node.lineno}: import {alias.name}"
                           for alias in node.names if alias.name.endswith("moments")]
        shared += [f"{path.name}: {name}" for name, _ in _references(tree)
                   if name.startswith("term_")
                   or name in ("to_terms", "from_terms", "psi_terms", "gp_terms", "phi_zero")]
    assert shared == []


MONTE_CARLO = ("sample_verblunsky", "_block_traces", "z_values_for")


def test_monte_carlo_shares_nothing_with_the_exact_route():
    """The Monte Carlo path, and every ``rmt`` function it calls, names nothing
    that ``rmt`` imports from ``moments`` or ``exactpoly`` and imports neither,
    so its agreement with the exact moments means something.  It reads the
    Fourier weights as numbers: it names neither ``fhat_at`` nor ``TestFunction``."""
    tree = _trees()["rmt"]
    modules = ("moments", "exactpoly")
    exact = set(modules) | {"fhat_at", "TestFunction"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            whole = isinstance(node, ast.ImportFrom) and (node.module or "").endswith(modules)
            exact |= {alias.asname or alias.name for alias in node.names
                      if whole or alias.name.endswith(modules)}
    defs = {name: node for name, node in _definitions(tree)}
    todo, seen, shared = list(MONTE_CARLO), set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for ref, _ in _references(defs[name]):
            if ref in exact:
                shared.append(f"rmt.{name}: {ref}")
            elif ref in defs:
                todo.append(ref)
    assert {"mo"} <= exact  # the estimator's own import is seen
    assert shared == []
