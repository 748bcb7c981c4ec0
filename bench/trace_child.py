"""Run CLI ops in one process, optionally with a span around each layer call.

Usage: ``python3 bench/trace_child.py <wrap>`` with ``src`` on PYTHONPATH and a
JSON list of CLI argument lists on stdin.  With ``wrap`` = 1 every function in
LAYERS is replaced, in each module that holds a reference to it, by a wrapper
that records (name, start, end, parent span, op index).  With ``wrap`` = 0 the
ops run bare, which gives the untraced time the overhead is measured against.

Prints one JSON object: the ops' exit codes, reports and wall times, the span
names and spans, the patched lookup sites, and for each ``convolve`` result its
degree, knot count and largest numerator/denominator bit length.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

import splitmoments.cli as cli
from splitmoments import (arith, exactpoly, linfeas, moments, quadrature, rmt,
                          sop, testfn, vanishing)

LAYERS = {
    exactpoly: ("convolve", "cumulative", "multiply", "definite_integral"),
    testfn: ("phi_power_hat", "fejer"),
    moments: ("predicted_centered_moment", "R_moment", "Q_n_via_classes", "S_correction"),
    vanishing: ("vanishing_bound",),
    quadrature: ("oracle_R_moment",),
    sop: ("sum_TA_all", "tuple_feasible"),
    linfeas: ("feasible",),
    arith: ("ramanujan", "gauss_sum", "kloosterman", "verify_kloosterman_factorization"),
    rmt: ("sample_haar_so", "eigenangles", "eigenangles_dense", "z_values_for",
          "collect_angle_samples"),
    cli: ("run",),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.convolved: list = []

    def wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        keep = self.convolved if name == "exactpoly.convolve" else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i] = (idx, start, clock(), parent, self.op)
                stack.pop()
            if keep is not None:
                keep.append(out)
            return out

        return traced

    def install(self) -> list[str]:
        """Patch every module-level name bound to a layer function; returns the sites."""
        modules = [m for name, m in sys.modules.items()
                   if name == "splitmoments" or name.startswith("splitmoments.")]
        sites = []
        for module, fns in LAYERS.items():
            short = module.__name__.rsplit(".", 1)[1]
            for fn in fns:
                original = getattr(module, fn)
                traced = self.wrap(f"{short}.{fn}", original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)
                            sites.append(f"{m.__name__}.{key}")
        return sites


def _size(p) -> list[int]:
    bits = max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for piece in p.pieces for c in piece), default=0)
    return [p.degree(), len(p.breakpoints), bits]


def main() -> int:
    wrap = sys.argv[1] == "1"
    ops = json.load(sys.stdin)
    tracer = Tracer()
    sites = tracer.install() if wrap else []
    results = []
    for k, argv in enumerate(ops):
        tracer.op = k
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is a failed op, as in a subprocess
            traceback.print_exc()
            rc = 1
        results.append({"rc": rc, "out": buf.getvalue(), "wall": time.perf_counter() - start})
    json.dump({"ops": results, "names": tracer.names, "spans": tracer.spans,
               "sites": sites, "convolve": [_size(p) for p in tracer.convolved]},
              sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
