"""Tests of the benchmark's own code: tracing, fixtures, metric tables.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import random

import pytest

import bench_pass
import fixtures as fx
import run
import tracer

MODS = bench_pass.import_program()
dc = MODS["dual_complex"]
sm = MODS["snc_model"]
cc = MODS["chart_calculus"]
po = MODS["poly_oracle"]
re_ = MODS["resolution_engine"]


def originals():
    out = {}
    for module_name, path, name in tracer.TARGETS:
        owner, attr = tracer._owner(MODS[module_name], path)
        out[name] = (owner, attr, vars(owner)[attr])
    return out


def small_outputs():
    """Outputs of every traced layer on inputs small enough for a unit test."""
    germ = sm.coordinate_germ(4)
    coranks = {s.id: min(2, len(s.indices) - 1)
               for s in germ.strata if len(s.indices) >= 2}
    seed = re_.seed_from_snc(germ, coranks)
    config = re_.RunConfig()
    final, events = re_.run(seed, config)
    data = fx.trace_bytes(re_.trace_to_obj(seed, events, final, config))
    replay = re_.replay_trace(json.loads(data))
    shapes = fx.load_frozen()["verify_shapes"][::30]
    verdicts = [po.verify_rule(*fx.shape_instance(cc, shape), policy=shape["policy"]).to_json()
                for shape in shapes]
    snc, complex = sm.blowup_center(germ, sm.CenterDescriptor("stratum", stratum_id="E1+E2"))
    return (data, replay.ok, verdicts, dc.homology(complex),
            dc.homology(fx.torsion_complex(dc)),
            dc.homology(dc.remove_open_star(sm.dual_complex_of(germ), "E1+E2+E3+E4")))


def test_install_wraps_and_restore_puts_back_every_original():
    before = originals()
    probe = bench_pass.LayerProbe(MODS)
    probe.install()
    try:
        for name, (owner, attr, original) in before.items():
            assert vars(owner)[attr] is not original, name
            assert vars(owner)[attr].__wrapped__ is original, name
    finally:
        probe.restore()
    for name, (owner, attr, original) in before.items():
        assert vars(owner)[attr] is original, name


def test_tracing_changes_no_output():
    plain = small_outputs()
    probe = bench_pass.LayerProbe(MODS)
    probe.install()
    try:
        traced = small_outputs()
    finally:
        probe.restore()
    assert traced == plain
    metrics = probe.metrics({"trace_bytes": 0})
    assert metrics["engine.step.calls"] == len(probe.events) > 0
    assert metrics["poly.charts_checked"] > 0
    assert metrics["dual.smith.entries"] > 0


def test_dump_writes_one_record_per_event_and_the_spans(tmp_path):
    probe = bench_pass.LayerProbe(MODS)
    probe.install()
    try:
        germ = sm.coordinate_germ(3)
        coranks = {s.id: 1 for s in germ.strata if len(s.indices) >= 2}
        final, events = re_.run(re_.seed_from_snc(germ, coranks))
    finally:
        probe.restore()
    path = tmp_path / "dump.jsonl"
    probe.dump(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    records = [line["event"] for line in lines if "event" in line]
    assert [r["index"] for r in records] == [e.index for e in events]
    assert records[-1]["active"] == 0
    assert records[-1]["resolved"] == len(final.charts)
    spans = [line["span"] for line in lines if "span" in line]
    assert {s["name"] for s in spans} >= {"engine.run", "engine.step"}
    assert all(s["parent"] == "engine.run" for s in spans if s["name"] == "engine.step")


def traced_germ_run(after=None):
    t = tracer.Tracer()
    t.install(MODS, after=after)
    try:
        germ = sm.coordinate_germ(3)
        coranks = {s.id: 1 for s in germ.strata if len(s.indices) >= 2}
        re_.run(re_.seed_from_snc(germ, coranks))
    finally:
        t.restore()
    return t


def test_self_time_excludes_children_and_hooks_add_no_calls():
    plain = traced_germ_run()
    # A hook that calls a wrapped function: tracing is paused while it runs.
    hooked = traced_germ_run({"engine.step": lambda args, result, ns: [
        cc.mdeg(chart) for chart, _ in result[0].charts]})
    assert {n: s[0] for n, s in hooked.stats.items()} == \
        {n: s[0] for n, s in plain.stats.items()}
    for name, (calls, total, self_ns) in hooked.stats.items():
        assert 0 <= self_ns <= total, name
    assert hooked.calls("engine.run") == 1


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(fx.HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_a_traced_pass_yields_every_per_layer_metric():
    probe = bench_pass.LayerProbe(MODS)
    names = set(probe.metrics({"trace_bytes": 0})) | {"trace.overhead_s"}
    assert names == {name for name, _, _ in run.PER_LAYER}


def test_torsion_complex_is_valid_with_hand_derived_homology():
    complex = fx.torsion_complex(dc)
    assert dc.validate(complex) == []
    assert 300 <= len(complex) <= 500
    report = dc.homology(complex)
    assert report.betti == (1, 0, 0)
    assert report.torsion == ((), (6,), ())


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chain_centers_avoid_the_apex_and_keep_the_pattern(seed):
    rng = random.Random(seed)
    centers = fx.chain_centers(rng)
    sizes = [len(c.split("+")) for c in centers]
    assert sizes == [len(p) for p in fx.CHAIN_PATTERN]
    # One component (the apex) lies in no center.
    used = {i for c in centers for i in c.split("+")}
    assert len(used) == len({p for pattern in fx.CHAIN_PATTERN for p in pattern})


def test_frozen_verify_shapes_are_distinct_and_within_the_frozen_caps():
    shapes = fx.load_frozen()["verify_shapes"]
    assert len(shapes) == 210
    keys = {json.dumps(s, sort_keys=True) for s in shapes}
    assert len(keys) == len(shapes)
    for s in shapes:
        assert s["dx"] <= 4 and s["m"] <= 3
        assert all(a <= 4 for a in s["consumed"] + s["rest"])


def test_batch_order_is_a_rotation_of_the_fixed_runs():
    base = fx.batch_order(0)
    for seed in (1, 57, 399):
        order = fx.batch_order(seed)
        assert sorted(order) == sorted(base)
        assert len(order) == 2 * fx.BATCH_SEEDS
