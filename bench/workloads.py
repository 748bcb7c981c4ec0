"""The benchmark's workloads: CLI ops and the exact values each op must report.

An op is the argument list of one ``splitmoments`` CLI call plus the checks
its JSON report must pass.  A check is ``(path, expected)``, where ``path``
walks the report through dict keys and list indices ("results.0.bound.exact").
"""

from __future__ import annotations

import json
from fractions import Fraction

R19_BOUND = (
    "12003733022065897858870674688360437874156544/"
    "4196099824773005945611228919456403693147495162444353859375"
)
RMT_MEAN = "13/6"
RMT_SECOND = {"even": "325/972", "odd": "323/972"}
RMT_SAMPLES = 2000
MOMENT_N4 = "31/105"
VANISH_R5 = "496/65625"


def _deep_bound(seed: int) -> list[dict]:
    argv = ["vanish", "--r", "19", "--n", "20", "--sigma", "1/10", "--sign", "minus"]
    return [{"argv": argv + ["--seed", str(seed)],
             "checks": [("passed", True), ("results.0.bound.exact", R19_BOUND)]}]


def _haar_mc(seed: int) -> list[dict]:
    ops = []
    for M, parity in ((100, "even"), (101, "odd")):
        argv = ["rmt", "--M", str(M), "--parity", parity, "--sigma", "3/5",
                "--nmax", "2", "--samples", str(RMT_SAMPLES), "--seed", str(seed)]
        ops.append({"argv": argv, "checks": [
            ("passed", True),
            ("results.0.predicted.exact", RMT_MEAN),
            ("results.0.samples", RMT_SAMPLES),
            ("results.1.predicted.exact", RMT_SECOND[parity]),
            ("results.1.samples", RMT_SAMPLES),
        ]})
    return ops


def _verify_grid(seed: int) -> list[dict]:
    ops = []
    for n in range(2, 7):
        for sigma in ("1/2", "1/3", "1/4"):
            if Fraction(sigma) <= Fraction(2, n):
                ops.append({"argv": ["crosscheck", "--sigma", sigma, "--n", str(n),
                                     "--seed", str(seed)],
                            "checks": [("passed", True)]})
    ops.append({"argv": ["moment", "--sigma", "1/2", "--n", "4", "--sign", "minus",
                         "--seed", str(seed)],
                "checks": [("passed", True), ("results.0.exact", MOMENT_N4)]})
    ops.append({"argv": ["verify", "all", "--quick", "--seed", str(seed)],
                "checks": [("passed", True), ("results.3.suite", "vanish"),
                           ("results.3.results.0.bound.exact", VANISH_R5)]})
    return ops


# The exact workloads take the seed only to pass it on; their reports do not
# depend on it.  haar-mc draws its Haar samples from it.
WORKLOADS = {
    "deep-bound": _deep_bound,
    "haar-mc": _haar_mc,
    "verify-grid": _verify_grid,
}


def _lookup(report, path: str):
    node = report
    for key in path.split("."):
        node = node[int(key)] if isinstance(node, list) else node[key]
    return node


def check(op: dict, returncode: int | None, stdout: str) -> str | None:
    """None when the op exited 0 and every check holds, else why it failed."""
    if returncode is None:
        return "timed out"
    if returncode != 0:
        return f"exit status {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    for path, expected in op["checks"]:
        try:
            got = _lookup(report, path)
        except (KeyError, IndexError, TypeError, ValueError):
            return f"{path} missing"
        if got != expected:
            return f"{path} = {got!r}, expected {expected!r}"
    return None
