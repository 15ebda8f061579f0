"""The sncresolve benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1 [--dump FILE]

Runs passes of the workload one after another, each in a fresh process
(``bench_pass.py``), until ``--seconds`` have passed and at least
``MIN_PASSES`` ran.  With ``--trace 0`` it reports the end-to-end metrics,
as medians over the passes.  With ``--trace 1`` it runs one untraced pass
and then traced passes, and reports the per-layer metrics: counts, which
must repeat exactly across passes, and median times.  The last line of
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when the program's
sources are missing, and 1 when a pass crashes or overruns its time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from bench_pass import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PASS_SCRIPT = os.path.join(HERE, "bench_pass.py")

WORKLOADS = ("resolve-large", "resolve-batch", "homology", "verify")
MIN_PASSES = 3
TIME_LIMIT_S = 170  # a whole run, passes included, ends within this

# (name, unit, better, bound): the bound is the share of the parent's
# median by which the metric may worsen before a change is a regression.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.2),
    ("op_p50_ms", "ms", "lower", 0.2),
    ("op_p95_ms", "ms", "lower", 0.2),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# (name, unit, better).  Counts and sizes must repeat exactly; times are
# self times (span minus child spans) unless the name says otherwise.
PER_LAYER = (
    ("engine.step.calls", "count", "lower"),
    ("engine.step.p50_ms", "ms", "lower"),
    ("engine.step.p95_ms", "ms", "lower"),
    ("engine.select_center.self_s", "s", "lower"),
    ("engine.validate_state.self_s", "s", "lower"),
    ("engine.dual_bytes.calls", "count", "lower"),
    ("engine.run.self_s", "s", "lower"),
    ("engine.registry_size_max", "count", "lower"),
    ("engine.active_charts_per_event", "count", "lower"),
    ("engine.trace_to_obj.self_s", "s", "lower"),
    ("engine.state_from_obj.self_s", "s", "lower"),
    ("engine.replay_trace.self_s", "s", "lower"),
    ("engine.busy_s", "s", "lower"),
    ("chart.mdeg.calls", "count", "lower"),
    ("chart.mdeg.self_s", "s", "lower"),
    ("chart.mdeg.calls_per_chart", "calls/chart", "lower"),
    ("chart.is_resolved.calls", "count", "lower"),
    ("chart.is_resolved.self_s", "s", "lower"),
    ("chart.children.self_s", "s", "lower"),
    ("chart.local_equation.self_s", "s", "lower"),
    ("chart.busy_s", "s", "lower"),
    ("dual.homology.calls", "count", "lower"),
    ("dual.homology.self_s", "s", "lower"),
    ("dual.smith_invariant_factors.self_s", "s", "lower"),
    ("dual.smith.entries", "count", "lower"),
    ("dual.smith.nonzeros", "count", "lower"),
    ("dual.boundary_matrix.self_s", "s", "lower"),
    ("dual.validate.self_s", "s", "lower"),
    ("dual.remove_open_star.self_s", "s", "lower"),
    ("dual.canonical_json.calls", "count", "lower"),
    ("dual.canonical_json.self_s", "s", "lower"),
    ("dual.busy_s", "s", "lower"),
    ("snc.dual_complex_of.self_s", "s", "lower"),
    ("snc.validate_snc.self_s", "s", "lower"),
    ("snc.blowup_center.self_s", "s", "lower"),
    ("snc.busy_s", "s", "lower"),
    ("poly.verify_rule.self_s", "s", "lower"),
    ("poly.strict_transform.calls", "count", "lower"),
    ("poly.strict_transform.self_s", "s", "lower"),
    ("poly.Substitution.apply.calls", "count", "lower"),
    ("poly.Polynomial.mul.calls", "count", "lower"),
    ("poly.Polynomial.init.calls", "count", "lower"),
    ("poly.Polynomial.substitute.self_s", "s", "lower"),
    ("poly.charts_checked", "count", "higher"),
    ("poly.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.trace_bytes", "bytes", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

TIME_UNITS = ("s", "ms")


class PassError(RuntimeError):
    """A pass crashed, printed no result, or overran the run's time limit."""


def run_pass(workload: str, seed: int, traced: bool, deadline: float,
             dump: str | None = None) -> dict:
    cmd = [sys.executable, PASS_SCRIPT, "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    if dump:
        cmd += ["--dump", dump]
    # Fixing the hash seed makes set and dict orders, and so a pass's work,
    # a function of the workload seed alone.
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as err:
        raise PassError(f"{workload} pass overran the {TIME_LIMIT_S} s limit") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - started
    return result


def run_passes(workload: str, seed: int, seconds: int, trace: bool,
               dump: str | None) -> tuple:
    """(untraced passes, traced passes) of one run."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    plain, traced = [], []

    def another(done: list, minimum: int) -> bool:
        elapsed = time.monotonic() - start
        if len(done) < minimum:
            return True
        # Start no pass that would probably end past the time limit.
        return (elapsed < seconds
                and elapsed + 2 * done[-1]["elapsed_s"] < TIME_LIMIT_S - 10)

    if trace:
        plain.append(run_pass(workload, seed, False, deadline))
        while another(traced, 1):
            traced.append(run_pass(workload, seed, True, deadline,
                                   None if traced else dump))
    else:
        while another(plain, MIN_PASSES):
            plain.append(run_pass(workload, seed, False, deadline))
    return plain, traced


def end_to_end(passes) -> dict:
    """Medians over the passes."""
    med = statistics.median
    values = {
        "setup_s": med(p["setup_s"] for p in passes),
        "wall_s": med(p["wall_s"] for p in passes),
        "op_p50_ms": med(percentile(p["op_ms"], 50) for p in passes),
        "op_p95_ms": med(percentile(p["op_ms"], 95) for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _, _ in END_TO_END}


def per_layer(plain, traced) -> tuple:
    """(metrics, names of counts that differed between traced passes)."""
    layers = [p["layers"] for p in traced]
    values, unsteady = {}, []
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        seen = [layer[name] for layer in layers]
        if unit in TIME_UNITS:
            values[name] = statistics.median(seen)
        else:
            values[name] = seen[0]
            if any(v != seen[0] for v in seen):
                unsteady.append(name)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in plain))
    return ({name: {"value": values[name], "unit": unit}
             for name, unit, _ in PER_LAYER}, unsteady)


def measure(workload: str, seed: int, seconds: int, trace: bool,
            dump: str | None = None) -> dict:
    """One run: prints a line per metric and per pass, returns the result."""
    plain, traced = run_passes(workload, seed, seconds, trace, dump)
    passes = plain + traced
    problems = [msg for p in passes for msg in p["problems"]]
    if trace:
        metrics, unsteady = per_layer(plain, traced)
        problems += [f"count {name} differs between traced passes" for name in unsteady]
    else:
        metrics = end_to_end(plain)
    for msg in problems:
        print(f"problem ({workload}):", msg, file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{workload:14} {name:36} {metric['value']:>16.6g} {metric['unit']}")
    for kind, done in (("untraced", plain), ("traced", traced)):
        for p in done:
            print(f"{workload:14} {kind} pass: setup {p['setup_s']:.4f} s "
                  f"({p['setup_raw_s']:.4f} raw), wall {p['wall_s']:.4f} s "
                  f"({p['wall_raw_s']:.4f} raw), {p['attempted']} ops, "
                  f"{p['failed']} failed")
    return {"correct": not problems,
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="measuring time of each workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", help="with --trace 1 and one workload: write "
                                       "the per-event records and spans of the "
                                       "first traced pass to this file, as JSON lines")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sncresolve", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             os.path.abspath(args.dump) if args.dump else None)
        else:
            results = {w: measure(w, args.seed, args.seconds, bool(args.trace))
                       for w in WORKLOADS}
            result = {"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": {f"{w}:{name}": metric for w, r in results.items()
                                  for name, metric in r["metrics"].items()}}
    except PassError as err:
        print(err, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
