"""Mutation checks of the gates: each mutant is one exact-text edit to a copy
of ``src/`` that the tests it names must catch.

Run it from anywhere, outside the tier-1 suite::

    python tests/mutants.py

Each mutant is applied to a fresh temporary copy of ``src/``, and its tests
run with ``pytest -x`` in a subprocess whose ``PYTHONPATH`` is that copy.  The
script prints one line per mutant and exits 1 if any mutant survives (its
tests pass) or errs (pytest exits with neither a pass nor a test failure).
``tests/test_source.py`` checks that each old text occurs exactly once in its
file, so a change that moves the mutated code must update its mutant too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class Mutant(NamedTuple):
    file: str  # relative to src/splitmoments
    old: str
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids, relative to the root
    checks: str


LEDGER = ("tests/test_ledger.py",)
REPORTS = ("tests/test_reports.py",)

MUTANTS = [
    Mutant("moments.py", 'gaussian + s if sign == "plus" else gaussian - s',
           'gaussian - s if sign == "plus" else gaussian + s', LEDGER,
           "the sign of S in the predicted moment"),
    Mutant("moments.py", "(-2) ** ell * comb(m, ell)", "(-2) ** ell * comb(m, ell + 1)",
           (*LEDGER, "tests/test_moments.py::TestQnCrossPath::test_equality_on_random_transforms"),
           "R(m, i)'s binomial C(m, l)"),
    # One step up instead is an equivalent mutant: the extra knots it builds
    # lie at or above the cut, where term_mass_below never reads.
    Mutant("exactpoly.py", "cut = -(-t.numerator // t.denominator)",
           "cut = -(-t.numerator // t.denominator) - 1", LEDGER,
           "term_convolve's cut, one lattice step down"),
    Mutant("exactpoly.py", "tp.scale * tq.scale * tp.unit", "tp.scale * tq.scale", LEDGER,
           "the unit h in term_convolve's scale (e_m * e_n = h e_{m+n+1})"),
    Mutant("exactpoly.py", "tuple((j + 1, c) for j, c in enumerate(v) if c)",
           "tuple((j + 1, c) for j, c in enumerate(v))",
           ("tests/test_testfn.py::TestPhiPowerHat::test_power_term_lists_pinned",),
           "term_convolve keeping only the nonzero terms of a knot"),
    # The ledger misses this one: gp is restricted to [0, sigma + 1), so the
    # wider window changes nothing there.
    Mutant("exactpoly.py", "PiecewisePoly((lo, hi), ((ONE,),))",
           "PiecewisePoly((lo, hi + 1), ((ONE,),))",
           ("tests/test_exactpoly.py::TestPointwiseAlgebra::test_restrict_creates_jump",),
           "restrict's indicator of [lo, hi)"),
    Mutant("exactpoly.py", 'if not lo < hi:\n        raise ValueError("restrict requires',
           'if lo > hi:\n        raise ValueError("restrict requires',
           ("tests/test_exactpoly.py::test_refuses_malformed_pieces_and_windows",),
           "restrict's refusal of an empty window"),
    Mutant("exactpoly.py", "piece = p.pieces[-1] if", "piece = () if",
           ("tests/test_exactpoly.py::TestEvaluate::test_right_endpoint_left_limit",),
           "evaluate's left limit at the far end"),
    Mutant("moments.py", "tf.fhat_at(0) + tf.phi_zero() / 2", "tf.fhat_at(0) + tf.phi_zero()",
           LEDGER, "the mean fhat(0) + phi(0)/2"),
    Mutant("sop.py", "2 * (-1) ** (len(lam) + 1)", "(-1) ** (len(lam) + 1)",
           ("tests/test_sop.py",), "sum_TA_all's doubling for the pair of masks eps, -eps"),
    Mutant("rmt.py", "if not (np.isfinite(empirical) and np.isfinite(stderr)):",
           "if not np.isfinite(empirical):",
           ("tests/test_rmt.py::TestMomentEstimation::test_overflowing_row_refused",
            "tests/test_cli.py::TestRmtCommand::test_overflowing_order_refused"),
           "the refusal of a moment row that overflows a float"),
    Mutant("rmt.py", "target, floor = predicted, 2.0 / M",
           "target, floor = predicted, 4.0 / M", REPORTS,
           "the rmt gate's finite-M floor 2/M"),
    Mutant("rmt.py", "gate = max(4 * stderr, floor)", "gate = max(5 * stderr, floor)",
           REPORTS, "the rmt gate's width of 4 standard errors"),
    Mutant("arith.py", "abs(total) > math.sqrt(q) + 1e-9",
           "abs(total) > 2 * math.sqrt(q) + 1e-9",
           ("tests/test_arith.py::TestGaussSums::test_primitive_bound_raises",),
           "the primitive Gauss sum bound sqrt(q)"),
]


def run(mutant: Mutant) -> int:
    """pytest's exit status on the mutant's tests, run against a mutated copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        path = copy / "splitmoments" / mutant.file
        path.write_text(path.read_text().replace(mutant.old, mutant.new, 1))
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode


def main() -> int:
    bad = 0
    for mutant in MUTANTS:
        t0 = time.perf_counter()
        status = run(mutant)
        verdict = {0: "SURVIVED", 1: "caught"}.get(status, f"ERROR (pytest exit {status})")
        bad += status != 1
        print(f"{verdict:8} {time.perf_counter() - t0:5.1f}s  {mutant.file}: {mutant.checks}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
