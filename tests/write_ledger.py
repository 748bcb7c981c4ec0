"""Compute the exact-value ledger and write it to ``tests/exact_ledger.json``.

Usage: ``PYTHONPATH=src python tests/write_ledger.py [--overwrite]``.  The
ledger holds, as exact "p/q" strings, the r = 19 (n = 20, sigma = 1/10,
minus) bound, threshold and moment; the predicted centered moment at every
sigma in ``SIGMAS``, n = 2..8, every valid a and both signs; sigma_phi^2 at
every sigma in ``SIGMAS`` and the mean where sigma <= 1; and the transform
of phi^m for m <= 5 at sigma = 1/2 and 1/3 (breakpoints, then pieces with
coefficients in x).  An existing ledger is the reference every change is
checked against (``tests/test_ledger.py``), so it is replaced only with
``--overwrite``.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

from splitmoments import moments as mo
from splitmoments import vanishing as vb
from splitmoments.testfn import fejer, phi_power_hat

LEDGER = Path(__file__).resolve().parent / "exact_ledger.json"
SIGMAS = [F(1, 2), F(1, 3), F(2, 7), F(2, 5), F(3, 5), F(1, 4), F(1, 10), F(2, 3), F(1),
          F(3, 2)]


def compute() -> dict:
    """Every ledger value, recomputed, in the form the file holds."""
    r19 = vb.vanishing_result(vb.VanishingQuery(r=19, n=20, sigma=F(1, 10), sign="minus"))
    tfs = {sigma: fejer(sigma) for sigma in SIGMAS}
    transforms = [(sigma, m, phi_power_hat(fejer(sigma), m)) for sigma in (F(1, 2), F(1, 3))
                  for m in range(1, 6)]
    return {
        "r19": {key: str(getattr(r19, key)) for key in ("bound", "threshold", "moment")},
        "predicted_centered_moment": [
            [str(sigma), n, a, sign,
             str(mo.predicted_centered_moment(tf, n, a, sign))]
            for sigma, tf in tfs.items() for n in range(2, 9)
            for a in mo.valid_a_range(tf, n) for sign in ("plus", "minus")],
        "sigma_phi_sq": {str(sigma): str(mo.sigma_phi_sq(tf)) for sigma, tf in tfs.items()},
        "mean_value": {str(sigma): str(mo.mean_value(tf)) for sigma, tf in tfs.items()
                       if sigma <= 1},
        "phi_power_hat": [{"sigma": str(sigma), "m": m,
                           "breakpoints": [str(b) for b in p.breakpoints],
                           "pieces": [[str(c) for c in piece] for piece in p.pieces]}
                          for sigma, m, p in transforms],
    }


def dumps(ledger: dict) -> str:
    """JSON with one list entry per line, so a changed value shows as one line."""
    def entry(value):
        if not isinstance(value, list):
            return json.dumps(value)
        return "[\n" + ",\n".join("  " + json.dumps(row) for row in value) + "\n ]"
    return "{\n" + ",\n".join(f" {json.dumps(k)}: {entry(v)}" for k, v in ledger.items()) + "\n}\n"


def main(argv: list[str]) -> int:
    if argv not in ([], ["--overwrite"]):
        print("usage: write_ledger.py [--overwrite]", file=sys.stderr)
        return 2
    if LEDGER.exists() and not argv:
        print(f"{LEDGER.name} exists; pass --overwrite to replace it", file=sys.stderr)
        return 1
    LEDGER.write_text(dumps(compute()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
