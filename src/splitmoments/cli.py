"""Command-line driver and experiment configuration.

Subcommands:

    moment      exact predicted centered moment for one (sigma, n, sign)
    crosscheck  both exact routes plus the float oracle on one configuration
    vanish      order-of-vanishing bound
    rmt         SO(M) Monte Carlo moment report (optional per-sample CSV)
    verify      identity suites: combinat | arith | all

Every run emits a JSON report {command, params, results, assumptions, timing}
embedding the fully resolved configuration; exact rationals are serialized as
"p/q" strings next to a 15-significant-digit decimal.  Exit status: 0 all
checks passed, 1 a verification failed, 2 usage error.

Config files are line-oriented ``key = value`` with ``#`` comments; unknown
and duplicate keys are errors, and rational-valued keys reject float literals
("0.6" must be written "3/5").
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from typing import Any, Sequence

from . import arith, moments as mo, rmt, sop, vanishing as vb
from .errors import DomainError, UsageError
from .testfn import fejer

__all__ = ["main", "run", "RunConfig", "load_config", "parse_rational"]

COMMANDS = ("moment", "rmt", "verify-combinat", "verify-arith", "vanish", "crosscheck", "verify-all")


_FLOAT_LITERAL = re.compile(r"^[+-]?(\d+\.\d*|\.\d+|\d+(\.\d*)?[eE][+-]?\d+)$")


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'p/q' or integer literal; floats are rejected."""
    token = text.strip()
    if _FLOAT_LITERAL.match(token):
        raise UsageError(
            f"exactness required: write {token!r} as an integer or 'p/q' fraction"
        )
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"malformed rational {token!r}: {exc}") from exc


@dataclass
class RunConfig:
    command: str
    params: dict[str, Any] = field(default_factory=dict)
    seed: int = 42
    json_path: Path | None = None
    csv_path: Path | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")


_CONFIG_SCHEMA: dict[str, Any] = {
    "command": str,
    "sigma": parse_rational,
    "n": int,
    "a": int,
    "r": int,
    "sign": str,
    "parity": str,
    "M": int,
    "samples": int,
    "nmax": int,
    "seed": int,
    "qmax": int,
    "t_max": int,
    "shards": int,
    "quick": lambda s: s.lower() in ("1", "true", "yes"),
    "json": Path,
    "csv": Path,
}


def load_config(path: str | Path) -> RunConfig:
    """Parse a ``key = value`` config file into a RunConfig."""
    seen: dict[str, Any] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_SCHEMA:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            seen[key] = _CONFIG_SCHEMA[key](value)
        except UsageError:
            raise
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    command = seen.pop("command", None)
    if command is None:
        raise UsageError(f"{path}: missing 'command'")
    cfg = RunConfig(command=command)
    if "seed" in seen:
        cfg.seed = seen.pop("seed")
    cfg.json_path = seen.pop("json", None)
    cfg.csv_path = seen.pop("csv", None)
    cfg.params = seen
    return cfg


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _exact(x: Fraction) -> dict[str, str]:
    return {
        "exact": f"{x.numerator}/{x.denominator}",
        "approx": f"{float(x):.15g}",
    }


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return _exact(obj)
    if isinstance(obj, Path):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(report: dict, cfg: RunConfig) -> None:
    text = json.dumps(_jsonable(report), indent=2)
    if cfg.json_path:
        Path(cfg.json_path).write_text(text + "\n")
    print(text)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (report, all_passed)
# ---------------------------------------------------------------------------

def _cmd_moment(cfg: RunConfig):
    sigma = cfg.params["sigma"]
    n = cfg.params["n"]
    sign = cfg.params.get("sign", "minus")
    tf = fejer(sigma)
    a = cfg.params.get("a")
    spec = (
        mo.MomentSpec(tf=tf, n=n, a=a, sign=sign)
        if a is not None
        else mo.MomentSpec.with_minimal_a(tf, n, sign)
    )
    value = mo.predicted_centered_moment(spec)
    results = [
        {
            "quantity": "predicted_centered_moment",
            "n": n,
            "a": spec.a,
            "sign": sign,
            **_exact(value),
        },
        {"quantity": "mean_value", **_exact(mo.mean_value(tf))},
        {"quantity": "sigma_phi_sq", **_exact(mo.sigma_phi_sq(tf))},
    ]
    return results, [], True


def _cmd_crosscheck(cfg: RunConfig):
    from . import quadrature as qd

    sigma = cfg.params["sigma"]
    n = cfg.params["n"]
    tf = fejer(sigma)
    results = []
    ok = True
    for a in mo.valid_a_range(tf, n):
        if a < 1:
            continue
        r_val = mo.R_moment(tf, n, a)
        q_val = mo.Q_n_via_classes(tf, n, a)
        entry = {
            "n": n,
            "a": a,
            "R_moment": _exact(r_val),
            "Q_via_classes": _exact(q_val),
            "exact_paths_equal": r_val == q_val,
        }
        if n <= 4:
            oracle = qd.oracle_R_moment(tf, n, a)
            entry["oracle"] = f"{oracle:.12g}"
            entry["oracle_within_1e-7"] = abs(oracle - float(r_val)) <= 1e-7
            ok &= entry["oracle_within_1e-7"]
        ok &= entry["exact_paths_equal"]
        results.append(entry)
    if not results:
        raise UsageError(f"no valid a for sigma={sigma}, n={n}")
    return results, [], ok


def _cmd_vanish(cfg: RunConfig):
    q = vb.VanishingQuery(
        r=cfg.params["r"],
        n=cfg.params["n"],
        sigma=cfg.params["sigma"],
        sign=cfg.params.get("sign", "minus"),
    )
    res = vb.vanishing_result(q)
    results = [
        {
            "r": q.r,
            "n": q.n,
            "sigma": str(q.sigma),
            "sign": q.sign,
            "bound": _exact(res.bound),
            "threshold": _exact(res.threshold),
            "moment": _exact(res.moment),
            "prior_bounds": {k: _exact(v) for k, v in vb.PRIOR_BOUNDS.items()},
        }
    ]
    return results, vb.assumptions_for(q), True


def _cmd_rmt(cfg: RunConfig):
    sigma = cfg.params["sigma"]
    samples = cfg.params.get("samples", 1000)
    if samples < 2:
        raise UsageError("rmt requires samples >= 2 (the gates need a standard error)")
    spec = rmt.EnsembleSpec(
        M=cfg.params["M"],
        parity=cfg.params.get("parity", "even" if cfg.params["M"] % 2 == 0 else "odd"),
        samples=samples,
        seed=cfg.seed,
    )
    tf = fejer(sigma)
    n_max = cfg.params.get("nmax", 4)
    z_vals = rmt.z_values_for(tf, spec, rmt.sample_cosines(spec))
    if cfg.csv_path:
        with open(cfg.csv_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_index", "Z"])
            for i, z in enumerate(z_vals):
                writer.writerow([i, repr(float(z))])
    mean_rep = rmt.empirical_mean_check(tf, spec, z_vals=z_vals)
    finite_mean = rmt.finite_mean(tf, spec.M)
    reports = [mean_rep] + rmt.estimate_centered_moments(tf, spec, n_max, z_vals=z_vals)
    ok = True
    results = []
    for r in reports:
        gate = None
        passed = None
        z_score = None
        if r.predicted is not None:
            # the mean is gated against its exact finite-M value, the
            # centred moments against their M -> infinity limits
            centre = finite_mean if r.n == 1 else r.predicted
            floor = 0.05 if r.n == 1 else 2.0 / spec.M
            gate = max(4 * r.stderr, floor)
            passed = abs(r.empirical - float(centre)) <= gate
            z_score = (r.empirical - float(centre)) / r.stderr
            ok &= passed
        results.append(
            {
                "n": r.n,
                "empirical": r.empirical,
                "stderr": r.stderr,
                "predicted": _exact(r.predicted) if r.predicted is not None else None,
                "finite_M_mean": _exact(finite_mean) if r.n == 1 else None,
                "z_score": z_score,
                "samples": r.samples,
                "supported": r.supported,
                "gate": gate,
                "passed": passed,
                "note": r.note,
            }
        )
    assumptions = [
        "n = 1 gated against the exact finite-M mean; n >= 2 against the M -> infinity"
        " limits with finite-M allowance c/M, c = 2 (no finite-M rates are available)",
        "z_score is measured from the same centre as the gate",
        "cosines of the eigenangles from the Killip-Nenciu tridiagonal model",
        f"per-sample RNG: SeedSequence((seed={cfg.seed}, index))",
    ]
    return results, assumptions, ok


def _cmd_verify_combinat(cfg: RunConfig):
    n = cfg.params.get("n", 5)
    a = cfg.params.get("a", (n + 1) // 2)
    t_max = cfg.params.get("t_max", 3)
    shards = cfg.params.get("shards", 1)
    if shards > 1:
        table: dict = {}
        for k in range(shards):
            for key, val in sop.sum_TA_all(n, a, t_max=t_max, shard=(k, shards)).items():
                table[key] = table.get(key, Fraction(0)) + val
    else:
        table = sop.sum_TA_all(n, a, t_max=t_max)
    results = []
    ok = True
    counterexamples = []
    for f in range(1, a):
        got = table.get(sop.one_class(n, f).canonical, Fraction(0))
        want = Fraction(2 * (-1) ** (n + f + 1) * comb(n, f))
        good = got == want
        ok &= good
        if not good:
            counterexamples.append({"lemma": "one-class coefficient", "f": f, "got": str(got)})
        results.append(
            {"lemma": "one-class coefficient", "f": f, "value": _exact(got), "passed": good}
        )
    f0 = table.get(sop.one_class(n, 0).canonical, Fraction(0))
    results.append(
        {
            "lemma": "one-class f=0 (reported, not asserted)",
            "f": 0,
            "value": _exact(f0),
            "matches_extension": f0 == 2 * (-1) ** (n + 1),
        }
    )
    t_bad = []
    for key, val in table.items():
        if len(key) >= 2 and val != 0 and sop.tuple_feasible(key, n, a):
            t_bad.append({"class": [list(s) for s in key], "value": str(val)})
    ok &= not t_bad
    results.append(
        {
            "lemma": "valid multi-set classes vanish",
            "classes_checked": sum(1 for k in table if len(k) >= 2),
            "passed": not t_bad,
        }
    )
    counterexamples.extend(t_bad)
    sosh_ok = all(sop.soshnikov_coeff(k) == (1 if k == 1 else 0) for k in range(1, 13))
    exp_ok = all(
        sop.exp_neg_coeff(k) == Fraction((-1) ** k, factorial(k)) for k in range(13)
    )
    ok &= sosh_ok and exp_ok
    results.append({"lemma": "log-series coefficients", "passed": sosh_ok})
    results.append({"lemma": "exp-series coefficients", "passed": exp_ok})
    if counterexamples:
        results.append({"counterexamples": counterexamples})
    return results, [], ok


def _cmd_verify_arith(cfg: RunConfig):
    qmax = cfg.params.get("qmax", 200)
    results = []
    ok = True
    fails = 0
    for q in range(1, qmax + 1):
        for n in range(1, qmax + 1):
            try:
                arith.ramanujan(n, q)
            except Exception:
                fails += 1
    results.append({"identity": "ramanujan three-way", "range": qmax, "failures": fails})
    ok &= fails == 0

    gauss_checked = gauss_fails = 0
    for q in range(1, min(qmax, 50) + 1):
        for chi in arith.enumerate_characters(q):
            for n in range(0, 51):
                gauss_checked += 1
                try:
                    arith.gauss_sum(chi, n)
                except Exception:
                    gauss_fails += 1
    results.append(
        {"identity": "gauss bounds (primitive) + principal=Ramanujan",
         "checked": gauss_checked, "failures": gauss_fails}
    )
    ok &= gauss_fails == 0

    kl_checked = kl_fails = 0
    for q in range(1, min(qmax, 100) + 1):
        for m in range(0, 21):
            for n in range(0, 21):
                kl_checked += 1
                try:
                    arith.kloosterman(m, n, q)
                except Exception:
                    kl_fails += 1
    results.append(
        {"identity": "kloosterman Weil-type bound", "checked": kl_checked, "failures": kl_fails}
    )
    ok &= kl_fails == 0

    if cfg.params.get("kloosterman_sweep", True):
        sweep_checked = sweep_fails = 0
        for N in (3, 5, 7):
            for b in range(1, 21):
                if b % N == 0:
                    continue
                for Q in range(1, 31):
                    if Q % N == 0:
                        continue
                    for m in range(1, 6):
                        if m % N == 0:
                            continue
                        sweep_checked += 1
                        if not arith.verify_kloosterman_factorization(N, b, Q, m):
                            sweep_fails += 1
        results.append(
            {"identity": "prime-level Kloosterman factorization",
             "checked": sweep_checked, "failures": sweep_fails}
        )
        ok &= sweep_fails == 0
    return results, [], ok


def _cmd_verify_all(cfg: RunConfig):
    quick = cfg.params.get("quick", True)
    results = []
    assumptions = []
    ok = True

    sub = RunConfig(command="verify-combinat", seed=cfg.seed)
    sub.params = {"n": 5 if quick else 7, "a": 3 if quick else 4}
    r, _, good = _cmd_verify_combinat(sub)
    results.append({"suite": "combinat", "passed": good, "results": r})
    ok &= good

    sub = RunConfig(command="verify-arith", seed=cfg.seed)
    sub.params = {"qmax": 60 if quick else 200, "kloosterman_sweep": not quick}
    r, _, good = _cmd_verify_arith(sub)
    results.append({"suite": "arith", "passed": good, "results": r})
    ok &= good

    sub = RunConfig(command="crosscheck", seed=cfg.seed)
    sub.params = {"sigma": Fraction(1, 2), "n": 4}
    r, _, good = _cmd_crosscheck(sub)
    results.append({"suite": "crosscheck", "passed": good, "results": r})
    ok &= good

    sub = RunConfig(command="vanish", seed=cfg.seed)
    sub.params = {"r": 5, "n": 4, "sigma": Fraction(1, 2), "sign": "minus"}
    r, notes, good = _cmd_vanish(sub)
    passed = r[0]["bound"]["exact"] == "496/65625"
    results.append({"suite": "vanish", "passed": passed, "results": r})
    assumptions.extend(notes)
    ok &= passed
    return results, assumptions, ok


_RUNNERS = {
    "moment": _cmd_moment,
    "crosscheck": _cmd_crosscheck,
    "vanish": _cmd_vanish,
    "rmt": _cmd_rmt,
    "verify-combinat": _cmd_verify_combinat,
    "verify-arith": _cmd_verify_arith,
    "verify-all": _cmd_verify_all,
}


_REQUIRED = {
    "moment": ("sigma", "n"),
    "crosscheck": ("sigma", "n"),
    "vanish": ("r", "n", "sigma"),
    "rmt": ("M", "sigma"),
}


def run(cfg: RunConfig) -> int:
    """Execute a config; writes the JSON report; returns the exit status."""
    t0 = time.perf_counter()
    try:
        missing = [k for k in _REQUIRED.get(cfg.command, ()) if k not in cfg.params]
        if missing:
            raise UsageError(f"{cfg.command} requires {', '.join(missing)}")
        results, assumptions, ok = _RUNNERS[cfg.command](cfg)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": cfg.command,
        "params": {**cfg.params, "seed": cfg.seed},
        "results": results,
        "assumptions": assumptions,
        "timing": {"seconds": round(time.perf_counter() - t0, 3)},
        "passed": ok,
    }
    _emit(report, cfg)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="splitmoments",
        description="exact moments of low-lying-zero statistics, with verification suites",
    )
    p.add_argument("--config", type=Path, help="key = value configuration file")
    sub = p.add_subparsers(dest="command")

    def common(sp):
        sp.add_argument("--seed", type=int, help="default 42")
        sp.add_argument("--json", type=Path, dest="json_path")
        sp.add_argument("--csv", type=Path, dest="csv_path")

    def sigma_opt(sp):
        sp.add_argument("--sigma", help="exact rational like 1/2")

    sp = sub.add_parser("moment", help="exact predicted centered moment")
    sigma_opt(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--a", type=int)
    sp.add_argument("--sign", choices=("plus", "minus"), default="minus")
    common(sp)

    sp = sub.add_parser("crosscheck", help="R vs Q-via-classes vs float oracle")
    sigma_opt(sp)
    sp.add_argument("--n", type=int, required=True)
    common(sp)

    sp = sub.add_parser("vanish", help="order-of-vanishing bound")
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sigma_opt(sp)
    sp.add_argument("--sign", choices=("plus", "minus"), default="minus")
    common(sp)

    sp = sub.add_parser("rmt", help="Haar Monte Carlo moment report")
    sp.add_argument("--M", type=int, required=True)
    sp.add_argument("--parity", choices=("even", "odd"))
    sp.add_argument("--samples", type=int, default=1000)
    sigma_opt(sp)
    sp.add_argument("--nmax", type=int, default=4)
    common(sp)

    sp = sub.add_parser("verify", help="identity verification suites")
    vsub = sp.add_subparsers(dest="suite")
    spc = vsub.add_parser("combinat")
    spc.add_argument("--n", type=int, default=5)
    spc.add_argument("--a", type=int)
    spc.add_argument("--t-max", type=int, default=3, dest="t_max")
    spc.add_argument("--shards", type=int, default=1)
    common(spc)
    spa = vsub.add_parser("arith")
    spa.add_argument("--qmax", type=int, default=200)
    spa.add_argument("--kloosterman-sweep", action="store_true", dest="kloosterman_sweep")
    common(spa)
    spall = vsub.add_parser("all")
    spall.add_argument("--quick", action="store_true")
    common(spall)
    return p


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    command = args.command
    if command == "verify":
        suite = getattr(args, "suite", None)
        if suite is None:
            raise UsageError("verify requires a suite: combinat | arith | all")
        command = f"verify-{suite}"
    if command is None:
        raise UsageError("a command is required")
    cfg = RunConfig(command=command)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    cfg.json_path = getattr(args, "json_path", None)
    cfg.csv_path = getattr(args, "csv_path", None)
    for key in ("n", "a", "r", "M", "samples", "nmax", "qmax", "t_max", "shards",
                "sign", "parity", "quick", "kloosterman_sweep"):
        val = getattr(args, key, None)
        if val is not None:
            cfg.params[key] = val
    sigma = getattr(args, "sigma", None)
    if sigma is not None:
        cfg.params["sigma"] = parse_rational(sigma)
    return cfg


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            cfg = load_config(args.config)
            # flags override file values
            if args.command:
                over = _config_from_args(args)
                cfg.command = over.command
                cfg.params.update(over.params)
                if over.json_path:
                    cfg.json_path = over.json_path
                if over.csv_path:
                    cfg.csv_path = over.csv_path
                if getattr(args, "seed", None) is not None:
                    cfg.seed = over.seed
        else:
            cfg = _config_from_args(args)
    except (UsageError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
