"""Command-line driver and experiment configuration.

Subcommands:

    moment      exact predicted centered moment for one (sigma, n, sign)
    crosscheck  both exact routes plus the float oracle on one configuration
    vanish      order-of-vanishing bound
    rmt         SO(M) Monte Carlo moment report (optional per-sample CSV)
    verify      identity suites: combinat | arith | all

``PARAMS`` declares each command's keys once, each with its parser and its
default (or ``REQUIRED``); the key ``t_max`` is the flag ``--t-max``.  One
loop over the command line (``parse_argv``) reads ``--key value`` and
``--key=value`` flags from that table, so a negative rational can follow its
flag (``--sigma -1/2``); a switch takes no value, a repeated flag keeps its
last value, and an abbreviated flag is unknown.  ``-h`` prints help built
from the same table.  A run is given by flags, by a config file
(``--config``) or by both: the file is read first and a flag overrides only
the key it sets.  Defaults are the same for flags and files, a key the
command does not take and a required key left unset are usage errors, and
``verify all`` runs the full suite unless ``quick`` is set.

Every run emits a JSON report {command, params, results, assumptions, timing,
passed} embedding the fully resolved configuration; exact rationals are
serialized as "p/q" strings next to a 15-significant-digit decimal, and a
non-finite float is refused.  Exit status: 0 all checks passed, 1 a
verification failed, 2 usage error, 141 (128 + SIGPIPE) stdout closed before
the report was written.

Importing this module loads ``errors`` and the standard library only; each
command imports the package modules it runs when it runs, so a process pays
for compiling and loading only what its command uses.  The ``verify
combinat`` and ``verify arith`` runners are stubs: each suite, with its case
ranges and cap, is ``sop.lemma_rows`` or ``arith.identity_rows``.

Config files are line-oriented ``key = value`` with ``#`` comments and a
``command`` line (``verify-combinat`` for ``verify combinat``), which a
subcommand on the command line replaces.  Unknown and duplicate keys are
errors; switches take 1/true/yes or 0/false/no, and rational-valued keys
reject float literals ("0.6" must be written "3/5").
"""

from __future__ import annotations

import io
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, NamedTuple, Sequence

from .errors import DomainError, ResourceLimitError, UsageError

__all__ = [
    "main", "run", "RunConfig", "PARAMS", "REQUIRED", "resolve", "load_config",
    "parse_argv", "parse_rational",
]


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
    except ZeroDivisionError:
        raise UsageError(f"zero denominator in {token!r}") from None
    except ValueError:
        raise UsageError(
            f"malformed rational {token!r}: expected an integer or 'p/q' fraction") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _at_least(lo: int):
    """Parser of integers >= lo."""
    def parse(text: str) -> int:
        value = _integer(text)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        return value
    return parse


def _one_of(*options: str):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected {' | '.join(options)}")
        return text
    return parse


def _switch(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("expected 1/true/yes or 0/false/no")
    return word in ("1", "true", "yes")


def _positive_rational(text: str) -> Fraction:
    value = parse_rational(text)
    if value <= 0:
        raise ValueError("must be > 0")
    return value


REQUIRED = object()  # the default of a key that must be given

_SIGMA = (_positive_rational, REQUIRED)
_SIGN = (_one_of("plus", "minus"), "minus")
_COMMON = {"seed": (_at_least(0), 42), "json": (Path, None)}

# PARAMS[command][key] = (parser, default or REQUIRED).  A default of None
# means the command derives the value (moment's a: the minimal valid a;
# verify combinat's a: derived by ``sop.lemma_rows``).  The lower
# bounds refuse sigma <= 0, a moment order n < 1, an order threshold r < 1,
# SO(M) with M < 2 and verify suites that would check nothing, each as a bad
# value of its key.
PARAMS: dict[str, dict[str, tuple]] = {
    "moment": {"sigma": _SIGMA, "n": (_at_least(1), REQUIRED), "a": (_integer, None),
               "sign": _SIGN, **_COMMON},
    "crosscheck": {"sigma": _SIGMA, "n": (_at_least(1), REQUIRED), **_COMMON},
    "vanish": {"r": (_at_least(1), REQUIRED), "n": (_integer, REQUIRED), "sigma": _SIGMA,
               "sign": _SIGN, **_COMMON},
    "rmt": {"M": (_at_least(2), REQUIRED), "parity": (_one_of("even", "odd"), None),
            "samples": (_at_least(2), 1000), "sigma": _SIGMA, "nmax": (_at_least(1), 4),
            **_COMMON, "csv": (Path, None)},
    "verify-combinat": {"n": (_at_least(3), 5), "a": (_at_least(2), None),
                        "t_max": (_at_least(1), 3), **_COMMON},
    "verify-arith": {"qmax": (_at_least(1), 200), "kloosterman_sweep": (_switch, False),
                     **_COMMON},
    "verify-all": {"quick": (_switch, False), **_COMMON},
}


class RunConfig(NamedTuple):
    command: str
    params: dict[str, Any]


def resolve(command: str, given: dict[str, Any],
            where: dict[str, str] | None = None) -> RunConfig:
    """The complete configuration of ``command`` from the values ``given``.

    A string value is parsed by its key's parser and any other value is taken
    as it is, so resolving a resolved config changes nothing.  Keys not given
    take their defaults.  ``where`` maps a key to its source ("file:line"),
    which prefixes the error messages about it.
    """
    table = PARAMS.get(command)
    if table is None:
        raise UsageError(f"unknown command {command!r}")
    where = where or {}
    params = {}
    for key, value in given.items():
        at = f"{where[key]}: " if key in where else ""
        if key not in table:
            raise UsageError(f"{at}unknown key {key!r} for {command}")
        if isinstance(value, str):
            try:
                value = table[key][0](value)
            except ValueError as exc:  # UsageError included
                raise UsageError(f"{at}bad value for {key}: {exc}") from exc
        params[key] = value
    missing = [key for key, (_, default) in table.items()
               if default is REQUIRED and key not in params]
    if missing:
        raise UsageError(f"{command} requires {', '.join(missing)}")
    return RunConfig(command, {key: params.get(key, default)
                               for key, (_, default) in table.items()})


def load_config(path: str | Path, command: str | None = None,
                flags: dict[str, Any] | None = None) -> RunConfig:
    """Resolve a ``key = value`` config file.

    ``command`` replaces the file's ``command`` line, and ``flags`` override
    the file's values key by key.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    values: dict[str, str] = {}
    where: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise UsageError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
        where[key] = f"{path}:{lineno}"
    file_command = values.pop("command", None)
    command = command or file_command
    if command is None:
        raise UsageError(f"{path}: missing 'command'")
    flags = flags or {}
    return resolve(command, {**values, **flags},
                   {key: at for key, at in where.items() if key not in flags})


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _exact(x: Fraction) -> dict[str, str]:
    return {
        "exact": f"{x.numerator}/{x.denominator}",
        "approx": f"{float(x):.15g}",
    }


def _encode(obj):  # the report values that json does not know
    if isinstance(obj, Fraction):
        return _exact(obj)
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write(path: Path, text: str) -> None:
    """Write an output file; a path that cannot be written is a usage error."""
    try:
        path.write_text(text, newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _emit(report: dict, json_path: Path | None) -> None:
    text = json.dumps(report, indent=2, default=_encode, allow_nan=False)
    if json_path:
        _write(json_path, text + "\n")
    print(text, flush=True)


# ---------------------------------------------------------------------------
# subcommand implementations; each returns (report, all_passed)
# ---------------------------------------------------------------------------

def _cmd_moment(cfg: RunConfig):
    """exact predicted centered moment"""
    from . import moments as mo
    from .testfn import fejer

    sigma = cfg.params["sigma"]
    n = cfg.params["n"]
    sign = cfg.params["sign"]
    tf = fejer(sigma)
    a = cfg.params["a"]
    if a is None:
        a = mo.minimal_a(tf, n)
    value = mo.predicted_centered_moment(tf, n, a, sign)
    results = [
        {
            "quantity": "predicted_centered_moment",
            "n": n,
            "a": a,
            "sign": sign,
            **_exact(value),
        },
        {"quantity": "mean_value", **_exact(mo.mean_value(tf))},
        {"quantity": "sigma_phi_sq", **_exact(mo.sigma_phi_sq(tf))},
    ]
    return results, [], True


def _cmd_crosscheck(cfg: RunConfig):
    """R vs Q-via-classes vs float oracle"""
    from . import moments as mo
    from .testfn import fejer

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
            "R_moment": r_val,
            "Q_via_classes": q_val,
            "exact_paths_equal": r_val == q_val,
        }
        if n <= 4:
            from . import quadrature as qd

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
    """order-of-vanishing bound"""
    from . import vanishing as vb

    q = vb.VanishingQuery(
        r=cfg.params["r"],
        n=cfg.params["n"],
        sigma=cfg.params["sigma"],
        sign=cfg.params["sign"],
    )
    res = vb.vanishing_result(q)
    results = [
        {
            "r": q.r,
            "n": q.n,
            "sigma": str(q.sigma),
            "sign": q.sign,
            "bound": res.bound,
            "threshold": res.threshold,
            "moment": res.moment,
            "prior_bounds": vb.PRIOR_BOUNDS,
        }
    ]
    return results, vb.assumptions_for(q), True


def _cmd_rmt(cfg: RunConfig):
    """Haar Monte Carlo moment report"""
    from . import rmt
    from .testfn import fejer

    M = cfg.params["M"]
    spec = rmt.EnsembleSpec(M=M, samples=cfg.params["samples"], seed=cfg.params["seed"])
    parity = cfg.params["parity"]
    if parity not in (None, "even" if M % 2 == 0 else "odd"):
        raise DomainError(f"M={M} does not match parity {parity!r}")
    tf = fejer(cfg.params["sigma"])
    K = rmt.fourier_cutoff(tf, M)
    rmt.check_resources(spec, K)
    table = rmt.fourier_table(tf, M)  # refuses before any draw
    z_vals = rmt.z_values_for(table, spec, rmt.sample_verblunsky(spec, K))
    if cfg.params["csv"]:
        import csv

        rows = io.StringIO()
        writer = csv.writer(rows)
        writer.writerow(["sample_index", "Z"])
        for i, z in enumerate(z_vals):
            writer.writerow([i, repr(float(z))])
        _write(cfg.params["csv"], rows.getvalue())
    results = rmt.moment_rows(tf, M, table, z_vals, cfg.params["nmax"])
    assumptions = [
        "n = 1 gated against the exact finite-M mean; n >= 2 centred on that mean and gated"
        " against the M -> infinity limits with finite-M allowance c/M, c = 2 (no finite-M"
        " rates are available)",
        "z_score is measured from the same centre as the gate",
        "power traces Tr U^k from the Szego recursion of the Killip-Nenciu Verblunsky"
        " coefficients (no eigensolve)",
        f"RNG: one generator per run, default_rng(seed={spec.seed}), samples drawn in"
        " index order",
    ]
    return results, assumptions, all(row["passed"] is not False for row in results)


def _cmd_verify_combinat(cfg: RunConfig):
    """combinatorial lemmas on the class expansion"""
    from . import sop

    results, ok = sop.lemma_rows(cfg.params["n"], cfg.params["a"], cfg.params["t_max"])
    return results, [], ok


def _cmd_verify_arith(cfg: RunConfig):
    """Ramanujan, Gauss and Kloosterman sum identities"""
    from . import arith

    results, ok = arith.identity_rows(cfg.params["qmax"], cfg.params["kloosterman_sweep"])
    return results, [], ok


def _cmd_verify_all(cfg: RunConfig):
    """all suites: full unless quick"""
    quick = cfg.params["quick"]
    suites = (
        ("verify-combinat", {"n": 5, "a": 3} if quick else {"n": 7, "a": 4}),
        ("verify-arith", {"qmax": 60 if quick else 200, "kloosterman_sweep": not quick}),
        ("crosscheck", {"sigma": Fraction(1, 2), "n": 4}),
        ("vanish", {"r": 5, "n": 4, "sigma": Fraction(1, 2)}),
    )
    results = []
    assumptions = []
    ok = True
    for command, given in suites:
        r, notes, good = _RUNNERS[command](resolve(command, given))
        if command == "vanish":
            good = r[0]["bound"] == Fraction(496, 65625)
        results.append({"suite": command.removeprefix("verify-"), "passed": good, "results": r})
        assumptions.extend(notes)
        ok &= good
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


def run(cfg: RunConfig) -> int:
    """Execute a config; writes the JSON report; returns the exit status."""
    t0 = time.perf_counter()
    try:
        cfg = resolve(cfg.command, cfg.params)
        results, assumptions, ok = _RUNNERS[cfg.command](cfg)
        report = {
            "command": cfg.command,
            "params": cfg.params,
            "results": results,
            "assumptions": assumptions,
            "timing": {"seconds": round(time.perf_counter() - t0, 3)},
            "passed": ok,
        }
        _emit(report, cfg.params["json"])
    except (UsageError, DomainError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _usage(command: str) -> str:
    """The commands that ``command`` names, each with its runner's docstring
    and its flags; every command, without flags, if it names none."""
    named = [c for c in PARAMS if c == command or c.startswith(command + "-")]
    lines = ["usage: splitmoments [--config FILE] COMMAND [--key VALUE | --key=VALUE ...]"]
    for name in named or PARAMS:
        lines.append(f"  {name.replace('-', ' '):17}{_RUNNERS[name].__doc__}")
        for key, (parse, default) in PARAMS[name].items() if named else ():
            note = ("switch" if parse is _switch else "required" if default is REQUIRED
                    else "" if default is None else f"default {default}")
            lines.append(f"      --{key.replace('_', '-'):19}{note}".rstrip())
    return "\n".join(lines)


def parse_argv(argv: Sequence[str] | None = None) -> RunConfig:
    """The resolved configuration of a command line, ``--config`` file included.

    The line is ``[--config FILE] [COMMAND [SUITE]] [--key VALUE | --key=VALUE ...]``,
    the suite following ``verify``.  A key's flag is ``--`` and the key with
    ``-`` for ``_``; a switch takes no value, a repeated flag keeps its last
    value, and ``-h`` or ``--help`` prints the usage and raises SystemExit(0).
    """
    args = list(sys.argv[1:] if argv is None else argv)
    words, flags = [], {}
    table = {"config": (Path, None)}  # the one flag before the command
    while args:
        arg = args.pop(0)
        if arg in ("-h", "--help"):
            print(_usage("-".join(words)))
            raise SystemExit(0)
        if not arg.startswith("-"):
            words.append(arg)
            if "-" in arg or "-".join(words) not in PARAMS and words != ["verify"]:
                raise UsageError(f"unknown command {' '.join(words)!r}")
            table = PARAMS.get("-".join(words), {})
            continue
        flag, eq, value = arg.partition("=")
        key = flag[2:].replace("-", "_")
        if not flag.startswith("--") or key not in table:
            raise UsageError(f"unknown flag {flag}")
        if table[key][0] is _switch:
            if eq:
                raise UsageError(f"{flag} is a switch and takes no value")
            value = "1"
        elif not eq:
            if not args:
                raise UsageError(f"{flag} expects a value")
            value = args.pop(0)
        flags[key] = value
    command = "-".join(words) or None
    config = flags.pop("config", None)
    if command == "verify":
        raise UsageError("verify requires a suite: combinat | arith | all")
    if config is not None:
        return load_config(config, command, flags)
    if command is None:
        raise UsageError("a command is required")
    return resolve(command, flags)


_EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, the status a shell gives a reader-less writer


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = parse_argv(argv)
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except BrokenPipeError:
        # stdout is flushed again at exit; send what is left to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the report was written", file=sys.stderr)
        return _EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
