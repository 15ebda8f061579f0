"""Acceptance suite: every exit criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria 3, 4, 5 and 8 share one batch of 200 fixed-seed random runs
executed under both exceptional-exponent policies.
"""

import json
import random
import time
from contextlib import contextmanager

from sncresolve import chart_calculus as cc
from sncresolve import dual_complex as dc
from sncresolve import poly_oracle as po
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm
from sncresolve.cli import random_state
from sncresolve.resolution_engine import RunConfig

from oracles import (det_reduction_check, multiplicity_at_origin, random_delta_complex,
                     rational_betti, rp2_complex)


@contextmanager
def criterion(number, name, limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL "
              f"({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if limit is None or elapsed < limit else "FAIL"
    limit_note = "" if limit is None else f", limit {limit}s"
    print(f"ACCEPTANCE {number} ({name}): {verdict} ({elapsed:.2f}s{limit_note})")
    assert verdict == "PASS", f"runtime {elapsed:.2f}s exceeded the {limit}s limit"


# --------------------------------------------------------------------------
# shared batch of random runs (criteria 3, 4, 5, 8)
# --------------------------------------------------------------------------

N_RANDOM_SEEDS = 200
EVENT_CAP = 10_000

_batch = {}


def random_run_batch():
    """200 fixed-seed random states, resolved under both policies."""
    if _batch:
        return _batch
    start = time.perf_counter()
    runs = []
    for seed_value in range(N_RANDOM_SEEDS):
        state = random_state(random.Random(seed_value))
        for policy in ("oracle", "paper"):
            config = RunConfig(exponent_policy=policy, event_ceiling=EVENT_CAP)
            final, events = re_.run(state, config)
            runs.append({"seed": seed_value, "policy": policy, "state": state,
                         "config": config, "final": final, "events": events})
    _batch["runs"] = runs
    _batch["elapsed"] = time.perf_counter() - start
    return _batch


def test_criterion_1_triangle_suite():
    with criterion(1, "triangle suite", limit=1.0):
        germ = sm.coordinate_germ(3)
        assert len(germ.strata) == 7
        D = sm.dual_complex_of(germ)
        assert D.cell_counts() == [3, 3, 1]
        assert dc.validate(D) == []
        assert dc.homology(D).betti == (1, 0, 0)

        origin = next(s for s in germ.strata if len(s.indices) == 3)
        _, blown = sm.blowup_center(
            germ, sm.CenterDescriptor("stratum", stratum_id=origin.id))
        assert blown.cell_counts() == [3, 3]
        assert dc.homology(blown).betti == (1, 1)
        assert blown == dc.remove_open_star(D, origin.id)

        host = next(s for s in germ.strata if len(s.indices) == 1)
        snc2, thrifty = sm.blowup_center(germ, sm.CenterDescriptor(
            "nonstratum", host_stratum=host.id, codim_in_host=2,
            transversal=True))
        assert len(snc2.strata) == 7
        assert thrifty == D


def test_criterion_2_rule_verification_grid():
    with criterion(2, "rule verification grid", limit=60.0):
        reports = []

        def expect_pass(app, chart):
            report = po.verify_rule(app, chart)
            reports.append(report)
            assert report.passed, (app.kind, cc.chart_to_obj(chart), [
                (c.family, c.detail) for c in report.checks if not c.passed])
            assert all(c.remultiplication_ok for c in report.checks)

        for dx in (2, 3, 4):
            comps = [f"E{i}" for i in range(1, dx + 1)]
            pair = ("E1", "E2")
            for m in (2, 3):
                e = cc.exceptional_coefficient("DET", det_size=m)
                app = cc.RuleApplication("DET", pair, det_size=m,
                                         new_divisor=("w", e) if e else None)
                chart = cc.ChartState.of(comps, m, {})
                expect_pass(app, chart)
                # The measurement decides the exceptional exponent.
                assert reports[-1].measured_exponents == [m - 2]
                assert e == m - 2  # shipped default matches the measurement
            for a in (2, 3, 4):
                app = cc.RuleApplication(
                    "MON1", pair, divisors=("f1",),
                    new_divisor=("w", a - 2) if a > 2 else None)
                expect_pass(app, cc.ChartState.of(comps, 0, {"f1": a}))
            expect_pass(cc.RuleApplication("MON2", pair, divisors=("f1", "f2")),
                        cc.ChartState.of(comps, 0, {"f1": 1, "f2": 1}))
            expect_pass(cc.RuleApplication("MON3", pair, divisors=("f1",)),
                        cc.ChartState.of(comps, 1, {"f1": 1}))
            expect_pass(cc.RuleApplication("BIN", ("E1",)),
                        cc.ChartState.of(comps, 1, {}))
            expect_pass(cc.RuleApplication("BIN", ("E1",)),
                        cc.ChartState.of(comps, 0, {"f1": 1}))

        assert sum(len(r.checks) for r in reports) >= 100

        # Traces document the candidate discrepancy under the default config.
        snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
        seed = re_.seed_from_snc(snc, {"E1+E2": 1})
        config = RunConfig()
        final, events = re_.run(seed, config)
        doc = re_.trace_to_obj(seed, events, final, config)
        text = " ".join(doc["assumptions"])
        assert "m-2" in text and "m^2-2" in text


def test_criterion_3_termination_and_lex_decrease():
    with criterion(3, "termination and lex decrease", limit=30.0):
        batch = random_run_batch()
        assert len(batch["runs"]) == 2 * N_RANDOM_SEEDS
        for run in batch["runs"]:
            assert run["final"].is_finished()
            assert len(run["events"]) <= EVENT_CAP
            for event in run["events"]:
                for parent, child in event.lex:
                    assert tuple(child) < tuple(parent)
        assert batch["elapsed"] < 30.0, f"runs took {batch['elapsed']:.2f}s"


def test_criterion_4_dual_complex_invariance():
    with criterion(4, "dual complex invariance"):
        for run in random_run_batch()["runs"]:
            assert run["final"].dual_bytes() == run["state"].dual_bytes()


def test_criterion_5_final_state_smoothness():
    with criterion(5, "final state smoothness"):
        for run in random_run_batch()["runs"]:
            for chart, _ in run["final"].charts:
                deg = cc.mdeg(chart)
                assert deg.dx == 1 or (deg.dy, deg.dz) == (0, 0)
            for deg, (_, kind) in run["final"].census().items():
                if deg.dx == 1:
                    assert kind == "snc-certified"
        # The certificate is an exact polynomial identity.
        chart = cc.ChartState.of(["E1"], 2, {"f1": 2})
        _, reduced = cc.snc_certificate(chart)
        assert reduced == cc.local_equation(chart)


def test_criterion_6_homology_oracle_agreement():
    with criterion(6, "homology oracle agreement", limit=30.0):
        for seed_value in range(100):
            complex = random_delta_complex(random.Random(seed_value),
                                           max_cells=200)
            assert len(complex) <= 200
            report = dc.homology(complex)
            assert list(report.betti) == rational_betti(complex), seed_value
        rp2 = rp2_complex()
        report = dc.homology(rp2)
        assert report.betti == (1, 0, 0)
        assert report.torsion == ((), (2,), ())
        assert dc.is_q_acyclic(rp2)


def test_criterion_7_determinant_identities():
    with criterion(7, "determinant identities", limit=5.0):
        for m in (2, 3, 4):
            assert det_reduction_check(m)
        for m in (1, 2, 3, 4):
            assert multiplicity_at_origin(po.generic_det(m)) == m


def test_criterion_8_replay_determinism():
    with criterion(8, "replay determinism"):
        batch = random_run_batch()
        sample = [r for r in batch["runs"] if r["events"]][:60]
        assert sample, "no nontrivial runs to replay"
        for run in sample:
            doc = json.loads(json.dumps(re_.trace_to_obj(
                run["state"], run["events"], run["final"], run["config"])))
            result = re_.replay_trace(doc)
            assert result.ok, (run["seed"], run["policy"], result.detail)
        # The named examples replay bit-for-bit as well.
        germ = sm.coordinate_germ(3)
        coranks = {s.id: (2 if len(s.indices) == 3 else 1)
                   for s in germ.strata if len(s.indices) >= 2}
        seed = re_.seed_from_snc(germ, coranks)
        for policy in ("oracle", "paper"):
            config = RunConfig(exponent_policy=policy)
            final, events = re_.run(seed, config)
            doc = json.loads(json.dumps(
                re_.trace_to_obj(seed, events, final, config)))
            assert re_.replay_trace(doc).ok
