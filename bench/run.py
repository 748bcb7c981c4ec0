"""Benchmark of the splitmoments CLI.

    python3 bench/run.py --workload <deep-bound|haar-mc|verify-grid> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Every op is a fresh
``python -m splitmoments.cli`` subprocess, run one at a time (a closed loop
with one client), with a pinned environment.  Each op's JSON report is checked
against the exact values in workloads.py; a nonzero exit, a timeout or a
mismatch counts as a failed op, and its time stays in the sample.

--trace 0 runs rounds of the workload's ops for about --seconds and reports
the end-to-end metrics.  --trace 1 makes one pass in a child process without
wrappers and one with them (trace_child.py) and reports the per-layer
metrics.  The metric names and units are those in BENCHMARK.json.  The last
line of stdout is the result object; the line before it holds the details
(environment, op count, failures).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

from workloads import WORKLOADS, check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP = BENCH / ".tmp"
START = time.perf_counter()
DEADLINE_S = 165.0  # every run must end within 180 s
OP_TIMEOUT_S = 150.0
SETUP_REPEATS = 7

# OpenBLAS's default of one thread per core measures the scheduler more than
# the program; SPLITMOMENTS_THREADS would switch the sampler to a thread pool.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0", "PYTHONPATH": str(ROOT / "src")}
ENV = {k: v for k, v in os.environ.items() if k != "SPLITMOMENTS_THREADS"} | PINNED


def remaining(limit: float = OP_TIMEOUT_S) -> float:
    return max(0.1, min(limit, DEADLINE_S - (time.perf_counter() - START)))


def timed_call(args: list[str], timeout: float) -> tuple[int | None, str, float, float]:
    """Run one subprocess; returns (exit code or None on timeout, stdout, wall s, peak RSS MB)."""
    with tempfile.TemporaryFile(dir=TMP) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, env=ENV, cwd=ROOT)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = select.select([pidfd], [], [], timeout)[0]
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode(errors="replace")
    return (proc.returncode if exited else None), text, wall, usage.ru_maxrss / 1024


def cli_args(op: dict) -> list[str]:
    return [sys.executable, "-m", "splitmoments.cli", *op["argv"]]


def import_times(module: str, repeats: int) -> list[float]:
    """Wall times of cold ``import module`` processes, after one discarded warm-up."""
    times = []
    for i in range(repeats + 1):
        rc, _, wall, _ = timed_call([sys.executable, "-c", f"import {module}"], remaining())
        if rc != 0:
            sys.exit(f"error: import {module} failed (exit {rc})")
        if i:
            times.append(wall)
    return times


def measure(ops: list[dict], seconds: float) -> tuple[list[dict], list[float]]:
    """Rounds of ops until another round would pass --seconds; returns (op records, round walls)."""
    begin = time.perf_counter()
    records, rounds = [], []
    while True:
        round_wall = 0.0
        for op in ops:
            rc, out, wall, rss = timed_call(cli_args(op), remaining())
            records.append({"argv": op["argv"], "wall": wall, "rss_mb": rss,
                            "error": check(op, rc, out)})
            round_wall += wall
        rounds.append(round_wall)
        now = time.perf_counter()
        if now - begin + round_wall > seconds or now - START + round_wall > DEADLINE_S:
            return records, rounds


def run_child(ops: list[dict], wrap: bool) -> dict:
    argv = [sys.executable, str(BENCH / "trace_child.py"), "1" if wrap else "0"]
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=ENV, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(json.dumps([op["argv"] for op in ops]),
                                  timeout=remaining(DEADLINE_S))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit("error: traced run timed out")
    if proc.returncode != 0:
        sys.exit(f"error: traced run exited {proc.returncode}")
    result = json.loads(out)
    for op, rec in zip(ops, result["ops"]):
        rec.update(argv=op["argv"], error=check(op, rec["rc"], rec["out"]))
    return result


def layer_metrics(traced: dict) -> dict[str, float]:
    """calls and self time per traced function, plus the convolve result sizes."""
    names, spans = traced["names"], traced["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for i, (n, start, end, _, _) in enumerate(spans):
        calls[names[n]] += 1
        self_s[names[n]] += end - start - covered[i]
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = self_s[name]
    convolve = names.index("exactpoly.convolve")
    with_convolve = {parent for n, *_, parent, _ in spans if n == convolve}
    phi = names.index("testfn.phi_power_hat")
    metrics["testfn.phi_power_hat.hits"] = sum(
        1 for i, (n, *_) in enumerate(spans) if n == phi and i not in with_convolve)
    sizes = traced["convolve"] or [[0, 0, 0]]
    for k, stat in enumerate(("out_degree_max", "out_knots_max", "coef_bits_max")):
        metrics[f"exactpoly.convolve.{stat}"] = max(s[k] for s in sizes)
    return metrics


def samples_per_s(records: list[dict]) -> float:
    """Haar samples per second of rmt-op wall time; 0 when the workload has no rmt op."""
    samples = wall = 0.0
    for r in records:
        if r["argv"][0] == "rmt":
            samples += int(r["argv"][r["argv"].index("--samples") + 1])
            wall += r["wall"]
    return samples / wall if wall else 0.0


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    probe = ("import json, numpy, scipy; "
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps([numpy.__version__, scipy.__version__, "
             "blas.get('name'), blas.get('version')]))")
    _, out, _, _ = timed_call([sys.executable, "-c", probe], remaining(30))
    try:
        numpy_v, scipy_v, blas, blas_v = json.loads(out)
    except ValueError:
        numpy_v = scipy_v = blas = blas_v = None
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": numpy_v,
            "scipy": scipy_v, "blas": f"{blas} {blas_v}", "git_sha": git_sha(),
            "pinned_env": PINNED, "unset_env": ["SPLITMOMENTS_THREADS"]}


def spec_metrics(kind: str, values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    names = {m["name"] for m in spec}
    if names != set(values):
        sys.exit(f"error: metrics differ from BENCHMARK.json {kind}: "
                 f"{sorted(names ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def end_to_end(ops: list[dict], seconds: float) -> tuple[dict, list[dict], dict]:
    setup = import_times("splitmoments.cli", SETUP_REPEATS)
    records, rounds = measure(ops, seconds)
    failed = sum(r["error"] is not None for r in records)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rounds),
        "op_s_p50": statistics.median(r["wall"] for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "pass_ratio": 1 - failed / len(records),
    }
    details = {"rounds": len(rounds), "ops": len(records), "fail_ratio": failed / len(records),
               "op_s_max": max(r["wall"] for r in records), "setup_runs": len(setup),
               "samples_per_s": samples_per_s(records)}
    return values, records, details


def traced(ops: list[dict]) -> tuple[dict, list[dict], dict]:
    values = {
        "setup.import_cli_s": statistics.median(import_times("splitmoments.cli", 3)),
        "setup.import_quadrature_s": statistics.median(
            import_times("splitmoments.quadrature", 3)),
    }
    plain = run_child(ops, wrap=False)
    spans = run_child(ops, wrap=True)
    values.update(layer_metrics(spans))
    plain_wall = sum(r["wall"] for r in plain["ops"])
    values["trace.overhead_s"] = sum(r["wall"] for r in spans["ops"]) - plain_wall
    values["rmt.samples_per_s"] = samples_per_s(plain["ops"])
    per_op = [Counter() for _ in ops]
    for n, *_, op in spans["spans"]:
        per_op[op][spans["names"][n]] += 1
    details = {"ops": len(ops), "untraced_wall_s": plain_wall, "patched_sites": spans["sites"],
               "spans": len(spans["spans"]),
               "predicted_centered_moment_spans_per_op":
                   [c["moments.predicted_centered_moment"] for c in per_op],
               "convolve_spans_per_op": [c["exactpoly.convolve"] for c in per_op]}
    return values, plain["ops"] + spans["ops"], details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "splitmoments" / "cli.py").is_file():
        print(f"error: no splitmoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    TMP.mkdir(exist_ok=True)
    ops = WORKLOADS[args.workload](args.seed)
    if args.trace:
        values, records, details = traced(ops)
    else:
        values, records, details = end_to_end(ops, args.seconds)
    failed = [r for r in records if r["error"] is not None]
    details.update(workload=args.workload, seed=args.seed, trace=args.trace,
                   failures=[f"{r['argv'][0]}: {r['error']}" for r in failed[:5]],
                   env=environment())
    metrics = spec_metrics("per_layer" if args.trace else "end_to_end", values)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
