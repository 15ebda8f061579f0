"""One pass of one workload, in a fresh process.

    python3 benchmarks/bench_pass.py --workload NAME --seed N --trace 0|1 [--dump FILE]

Imports the program from the checkout's ``src``, builds the workload's
inputs (set-up), then runs its operations one after another, timing each
and checking each output against a reference.  Prints one JSON object on
its last line of output: set-up time, the per-operation times, failures,
peak memory and, with ``--trace 1``, the per-layer metrics.  ``run.py``
starts one such process per pass, so passes never share heap state.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from typing import Callable, NamedTuple

import fixtures as fx
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MODULES = ("resolution_engine", "chart_calculus", "dual_complex", "snc_model",
           "poly_oracle", "cli")


def import_program() -> dict:
    """The program's modules, imported from this checkout and nowhere else."""
    sys.path.insert(0, SRC)
    package = importlib.import_module("sncresolve")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "sncresolve"):
        raise SystemExit(f"sncresolve was imported from {package.__file__}, "
                         f"not from {SRC}")
    return {name: importlib.import_module(f"sncresolve.{name}") for name in MODULES}


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Op(NamedTuple):
    """One timed operation: ``run`` is timed, ``check`` returns a problem or None."""

    label: str
    run: Callable
    check: Callable


def cli_call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


# --------------------------------------------------------------------------
# Workloads: each builds its inputs and returns its operations.
# --------------------------------------------------------------------------

def resolve_large(mods, frozen, seed, workdir, facts):
    """``sncresolve resolve --trace`` in-process on the germ and the double point."""
    cli = mods["cli"]
    names = ["germ", "double_point"]
    if seed % 2:
        names.reverse()
    events = {"germ": 257, "double_point": 420}
    docs = fx.large_seed_docs(mods["snc_model"])
    ops = []
    for name in names:
        src = os.path.join(workdir, f"{name}.json")
        trace = os.path.join(workdir, f"{name}.trace.json")
        with open(src, "w", encoding="utf-8") as handle:
            json.dump(docs[name], handle)

        def check(result, name=name, trace=trace):
            code, out, err = result
            if code != 0:
                return f"resolve {name} exited {code}: {err.strip()}"
            if f"events: {events[name]}\n" not in out:
                return f"resolve {name}: expected {events[name]} events"
            facts["trace_bytes"] += os.path.getsize(trace)
            if sha256_file(trace) != frozen["large_trace_sha256"][name]:
                return f"resolve {name}: trace bytes differ from the reference"
            return None

        ops.append(Op(name, lambda src=src, trace=trace: cli_call(
            cli, ["resolve", "--input", src, "--trace", trace]), check))
    return ops


def resolve_batch(mods, frozen, seed, workdir, facts):
    """The 200 fixed-seed random states under both policies: run, serialize, replay."""
    re_ = mods["resolution_engine"]
    states = {s: mods["cli"].random_state(random.Random(s))
              for s in range(fx.BATCH_SEEDS)}
    refs = frozen["batch_trace_sha256"]
    ops = []
    for state_seed, policy in fx.batch_order(seed):
        config = re_.RunConfig(exponent_policy=policy, event_ceiling=fx.BATCH_CEILING)

        def run(state=states[state_seed], config=config):
            final, events = re_.run(state, config)
            data = fx.trace_bytes(re_.trace_to_obj(state, events, final, config))
            return data, re_.replay_trace(json.loads(data))

        def check(result, key=f"{state_seed}:{policy}"):
            data, replay = result
            if not replay.ok:
                return f"batch {key}: replay failed: {replay.detail}"
            if hashlib.sha256(data).hexdigest() != refs[key]:
                return f"batch {key}: trace bytes differ from the reference"
            return None

        ops.append(Op(f"{state_seed}:{policy}", run, check))
    return ops


def _acyclic(report):
    return (report.betti[:1] == (1,) and not any(report.betti[1:])
            and not any(report.torsion))


def homology(mods, frozen, seed, workdir, facts):
    """Dual-complex homology: the CLI report, a sphere, a blow-up chain, torsion."""
    dc, sm, cli = mods["dual_complex"], mods["snc_model"], mods["cli"]
    n = fx.HOMOLOGY_GERM_N
    germ = sm.coordinate_germ(n)
    src = os.path.join(workdir, "germ.json")
    dot = os.path.join(workdir, "germ.dot")
    with open(src, "w", encoding="utf-8") as handle:
        json.dump(sm.to_json_obj(germ), handle)
    # Hand-derived: the dual complex of the germ is the (n-1)-simplex.
    from math import comb
    expected_report = (
        "cells: " + "/".join(str(comb(n, k + 1)) for k in range(n)) + "\n"
        + "betti: " + " ".join(["1"] + ["0"] * (n - 1)) + "\n"
        + "torsion: none\neuler: 1\nQ-acyclic: yes\n"
        + f"dot written: {dot}\n")
    simplex = sm.dual_complex_of(germ)
    (top,) = simplex.cells_of_dim(n - 1)
    torsion = fx.torsion_complex(dc)
    centers = fx.chain_centers(random.Random(seed))
    ops = []

    def check_report(result):
        code, out, err = result
        if code != 0:
            return f"dualcomplex exited {code}: {err.strip()}"
        if out != expected_report:
            return f"dualcomplex report differs: {out!r}"
        if sha256_file(dot) != frozen["dualcomplex_dot_sha256"]:
            return "dualcomplex: DOT bytes differ from the reference"
        return None

    ops.append(Op("dualcomplex", lambda: cli_call(
        cli, ["dualcomplex", "--input", src, "--dot", dot]), check_report))

    def sphere():
        return dc.homology(dc.remove_open_star(simplex, top.id))

    def check_sphere(report):
        # Removing the open star of the top cell leaves the boundary sphere.
        want = (1,) + (0,) * (n - 3) + (1,)
        if report.betti != want or any(report.torsion):
            return f"S^{n - 2}: got {report}"
        return None

    ops.append(Op("sphere", sphere, check_sphere))

    chain = {"snc": germ}
    for center in centers:
        def blowup(center=center):
            snc, complex = sm.blowup_center(
                chain["snc"], sm.CenterDescriptor("stratum", stratum_id=center))
            chain["snc"] = snc
            return dc.homology(complex)

        ops.append(Op(f"blowup {center}", blowup,
                      lambda r, c=center: None if _acyclic(r)
                      else f"blow-up at {c} is not contractible: {r}"))

    def check_torsion(report):
        if report.betti != (1, 0, 0) or report.torsion != ((), (6,), ()):
            return f"Moore wedge: got {report}"
        return None

    ops.append(Op("torsion", lambda: dc.homology(torsion), check_torsion))
    return ops


def verify(mods, frozen, seed, workdir, facts):
    """``verify_rule`` on the frozen engine shapes plus the CLI's default grids."""
    po, cc, cli = mods["poly_oracle"], mods["chart_calculus"], mods["cli"]
    ops = []
    for shape in frozen["verify_shapes"]:
        app, chart = fx.shape_instance(cc, shape)

        def check(report, shape=shape):
            # The 'paper' determinant coefficient m^2-2 contradicts the
            # measured m-2 by design; everything else must pass.
            det = shape["rule"] == "DET"
            fails = det and shape["policy"] == "paper"
            if report.passed == fails:
                return f"verify {shape}: passed={report.passed}"
            if det and report.measured_exponents != [shape["m"] - 2]:
                return f"verify {shape}: measured {report.measured_exponents}"
            return None

        ops.append(Op(f"shape {shape}", lambda app=app, chart=chart, p=shape["policy"]:
                      po.verify_rule(app, chart, policy=p), check))
    for policy in fx.VERIFY_POLICIES:
        for rule in fx.VERIFY_RULES:
            failing = 6 if (rule, policy) == ("det", "paper") else 0

            def check(result, rule=rule, policy=policy, failing=failing):
                code, out, err = result
                if code != (3 if failing else 0):
                    return f"verify --rule {rule} ({policy}) exited {code}"
                if f"charts checked, {failing} failing reports" not in out:
                    return f"verify --rule {rule} ({policy}): unexpected summary"
                return None

            ops.append(Op(f"cli {rule} {policy}", lambda r=rule, p=policy: cli_call(
                cli, ["verify", "--rule", r, "--exponent-policy", p]), check))
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "resolve-large": resolve_large,
    "resolve-batch": resolve_batch,
    "homology": homology,
    "verify": verify,
}


# --------------------------------------------------------------------------
# Per-layer metrics of a traced pass
# --------------------------------------------------------------------------

def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method); 0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class LayerProbe:
    """The tracer plus the hooks that derive per-layer counts from outputs."""

    def __init__(self, mods, clock=time.perf_counter_ns):
        self.tracer = tracer.Tracer(clock)
        self.events = []
        self.distinct_charts = 0
        self.smith_entries = 0
        self.smith_nonzeros = 0
        self.charts_checked = 0
        self._is_resolved = mods["chart_calculus"].is_resolved
        self._mods = mods

    def install(self):
        self.tracer.install(self._mods, after={
            "engine.step": self._on_step,
            "engine.run": self._on_run,
            "dual.smith_invariant_factors": self._on_smith,
            "poly.verify_rule": self._on_verify,
        })

    def restore(self):
        self.tracer.restore()

    def _on_step(self, args, result, duration_ns):
        state, event = result
        active = sum(1 for chart, _ in state.charts if not self._is_resolved(chart))
        self.events.append({
            "index": event.index, "phase": event.phase, "rule": event.rule.kind,
            "parents": len(event.parents), "children": len(event.children),
            "active": active, "resolved": len(state.charts) - active,
            "registry": len(state.registry), "step_ms": duration_ns / 1e6})

    def _on_run(self, args, result, duration_ns):
        charts = {chart for chart, _ in args[0].charts}
        for event in result[1]:
            charts.update(chart for chart, _ in event.children)
        self.distinct_charts += len(charts)

    def _on_smith(self, args, result, duration_ns):
        matrix = args[0]
        self.smith_entries += len(matrix) * (len(matrix[0]) if matrix else 0)
        self.smith_nonzeros += sum(1 for row in matrix for x in row if x)

    def _on_verify(self, args, result, duration_ns):
        self.charts_checked += len(result.checks)

    def metrics(self, facts, factor: float = 1.0) -> dict:
        """Per-layer metrics; times are multiplied by ``factor``."""
        t, events = self.tracer, self.events
        steps = [e["step_ms"] for e in events]
        out = {
            "engine.step.calls": t.calls("engine.step"),
            "engine.step.p50_ms": percentile(steps, 50),
            "engine.step.p95_ms": percentile(steps, 95),
            "engine.select_center.self_s": t.self_s("engine.select_center"),
            "engine.validate_state.self_s": t.self_s("engine.validate_state"),
            "engine.dual_bytes.calls": t.calls("engine.dual_bytes"),
            "engine.run.self_s": t.self_s("engine.run"),
            "engine.registry_size_max": max((e["registry"] for e in events), default=0),
            "engine.active_charts_per_event": (
                sum(e["active"] for e in events) / len(events) if events else 0.0),
            "engine.trace_to_obj.self_s": t.self_s("engine.trace_to_obj"),
            "engine.state_from_obj.self_s": t.self_s("engine.state_from_obj"),
            "engine.replay_trace.self_s": t.self_s("engine.replay_trace"),
            "chart.mdeg.calls": t.calls("chart.mdeg"),
            "chart.mdeg.self_s": t.self_s("chart.mdeg"),
            "chart.mdeg.calls_per_chart": (
                t.calls("chart.mdeg") / self.distinct_charts if self.distinct_charts else 0.0),
            "chart.is_resolved.calls": t.calls("chart.is_resolved"),
            "chart.is_resolved.self_s": t.self_s("chart.is_resolved"),
            "chart.children.self_s": t.self_s("chart.children"),
            "chart.local_equation.self_s": t.self_s("chart.local_equation"),
            "dual.homology.calls": t.calls("dual.homology"),
            "dual.homology.self_s": t.self_s("dual.homology"),
            "dual.smith_invariant_factors.self_s": t.self_s("dual.smith_invariant_factors"),
            "dual.smith.entries": self.smith_entries,
            "dual.smith.nonzeros": self.smith_nonzeros,
            "dual.boundary_matrix.self_s": t.self_s("dual.boundary_matrix"),
            "dual.validate.self_s": t.self_s("dual.validate"),
            "dual.remove_open_star.self_s": t.self_s("dual.remove_open_star"),
            "dual.canonical_json.calls": t.calls("dual.canonical_json"),
            "dual.canonical_json.self_s": t.self_s("dual.canonical_json"),
            "snc.dual_complex_of.self_s": t.self_s("snc.dual_complex_of"),
            "snc.validate_snc.self_s": t.self_s("snc.validate_snc"),
            "snc.blowup_center.self_s": t.self_s("snc.blowup_center"),
            "poly.verify_rule.self_s": t.self_s("poly.verify_rule"),
            "poly.strict_transform.calls": t.calls("poly.strict_transform"),
            "poly.strict_transform.self_s": t.self_s("poly.strict_transform"),
            "poly.Substitution.apply.calls": t.calls("poly.Substitution.apply"),
            "poly.Polynomial.mul.calls": t.calls("poly.Polynomial.mul"),
            "poly.Polynomial.init.calls": t.calls("poly.Polynomial.init"),
            "poly.Polynomial.substitute.self_s": t.self_s("poly.Polynomial.substitute"),
            "poly.charts_checked": self.charts_checked,
            "cli.main.self_s": t.self_s("cli.main"),
            "cli.trace_bytes": facts["trace_bytes"],
        }
        for layer in tracer.LAYERS:
            out[f"{layer}.busy_s"] = t.busy_s(layer)
        return {name: value * factor if name.endswith(("_s", "_ms")) else value
                for name, value in out.items()}

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.events:
                handle.write(json.dumps({"event": record}) + "\n")
            for name, start, end, parent in self.tracer.spans:
                handle.write(json.dumps({"span": {"name": name, "start_ns": start,
                                                  "end_ns": end, "parent": parent}}) + "\n")


# --------------------------------------------------------------------------
# One pass
# --------------------------------------------------------------------------

# On a shared host the speed of pure-Python code drifts by up to a factor
# of two within seconds, differently on each CPU.  So a pass samples the
# speed while it works: every SAMPLE_INTERVAL_S a timer signal runs a fixed
# calibration loop, whose time is recorded and left out of every measured
# time.  Operations are grouped into segments of at least SEGMENT_S, and
# each time is reported at reference speed: measured time times
# REFERENCE_CHUNK_S over the mean loop time sampled during its segment.
# Raw times are reported alongside.
CHUNK_ITERATIONS = 5_000
REFERENCE_CHUNK_S = 0.001  # the loop's time at reference speed
SAMPLE_INTERVAL_S = 0.02
SEGMENT_S = 0.2


def calibration_chunk():
    """A fixed pure-Python loop of dict, tuple and list work."""
    counts, recent = {}, []
    for i in range(CHUNK_ITERATIONS):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
        recent.append((i, i * i))
        if len(recent) > 500:
            recent = recent[250:]


class SpeedProbe:
    """Times ``calibration_chunk`` on a timer signal while active."""

    def __init__(self):
        self.samples = []   # chunk times, seconds
        self.spent = 0.0    # time spent in the signal handler
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        calibration_chunk()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def mark(self) -> tuple:
        """(now, handler time so far, samples so far)."""
        return time.perf_counter(), self.spent, len(self.samples)

    def work_ns(self) -> int:
        """A nanosecond clock that stands still while sampling."""
        return time.perf_counter_ns() - int(self.spent * 1e9)

    def work_since(self, mark: tuple) -> float:
        """Seconds since the mark, less the time spent sampling."""
        return time.perf_counter() - mark[0] - (self.spent - mark[1])

    def factor_since(self, mark: tuple) -> float:
        """Reference-speed factor of the samples taken since the mark."""
        if len(self.samples) == mark[2]:
            self._sample(None, None)
        taken = self.samples[mark[2]:]
        return REFERENCE_CHUNK_S * len(taken) / sum(taken)


def run_ops(ops, speed: SpeedProbe) -> tuple:
    """(reference-speed op seconds, raw op seconds, problems) of one pass."""
    times, raw, problems, segment = [], [], [], []
    start = speed.mark()
    for i, op in enumerate(ops):
        mark = speed.mark()
        try:
            result = op.run()
        except Exception as err:  # a failing op is counted, not fatal
            problems.append(f"{op.label}: {type(err).__name__}: {err}")
        else:
            segment.append(speed.work_since(mark))
            problem = op.check(result)
            if problem:
                problems.append(problem)
        if segment and (speed.work_since(start) >= SEGMENT_S or i == len(ops) - 1):
            factor = speed.factor_since(start)
            times += [t * factor for t in segment]
            raw += segment
            segment, start = [], speed.mark()
    return times, raw, problems


def run_pass(workload: str, seed: int, traced: bool, dump: str | None = None) -> dict:
    probe = None
    with SpeedProbe() as speed:
        mark = speed.mark()
        mods = import_program()
        frozen = fx.load_frozen()
        workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
        try:
            facts = {"trace_bytes": 0}
            ops = WORKLOADS[workload](mods, frozen, seed, workdir, facts)
            setup_raw = speed.work_since(mark)
            setup_s = setup_raw * speed.factor_since(mark)
            if traced:
                probe = LayerProbe(mods, speed.work_ns)
                probe.install()
            try:
                times, raw, problems = run_ops(ops, speed)
            finally:
                if probe:
                    probe.restore()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": sum(times),
        "wall_raw_s": sum(raw),
        "op_ms": [t * 1e3 for t in times],
        "attempted": len(ops),
        "failed": len(problems),
        "problems": problems[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if probe:
        # Span times are raw; bring them to reference speed with the pass's
        # overall factor.
        factor = out["wall_s"] / out["wall_raw_s"] if out["wall_raw_s"] else 1.0
        out["layers"] = probe.metrics(facts, factor)
        if dump:
            probe.dump(dump)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump", help="write the per-event records and spans "
                                       "of a traced pass here, as JSON lines")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.dump)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
