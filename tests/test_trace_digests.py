"""Trace and verifier bytes are a contract: regenerate them and compare digests.

The reference sha256 digests of traces live in ``benchmarks/frozen.json``;
this file only reads it.  The batch traces are serialized with the
benchmark's own ``trace_bytes`` (the standard library's indented encoder),
and the program's ``write_trace``, which ``sncresolve resolve --trace``
runs, must give the same bytes.
"""

import hashlib
import importlib.util
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from sncresolve import chart_calculus as cc
from sncresolve import cli
from sncresolve import poly_oracle as po
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load_fixtures():
    spec = importlib.util.spec_from_file_location("bench_fixtures",
                                                  BENCHMARKS / "fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fx = _load_fixtures()
FROZEN = fx.load_frozen()


def test_batch_trace_digests_match_the_frozen_reference():
    want = FROZEN["batch_trace_sha256"]
    got = {}
    written_differs = []
    for state_seed in range(fx.BATCH_SEEDS):
        state = cli.random_state(random.Random(state_seed))
        for policy in fx.BATCH_POLICIES:
            config = re_.RunConfig(exponent_policy=policy, event_ceiling=fx.BATCH_CEILING)
            final, events = re_.run(state, config)
            data = fx.trace_bytes(re_.trace_to_obj(state, events, final, config))
            got[f"{state_seed}:{policy}"] = hashlib.sha256(data).hexdigest()
            parts = []
            re_.write_trace(state, events, final, config, parts.append)
            if ("".join(parts) + "\n").encode("utf-8") != data:
                written_differs.append(f"{state_seed}:{policy}")
    assert len(want) == 2 * fx.BATCH_SEEDS
    assert [key for key in want if got[key] != want[key]] == []
    assert written_differs == []


@pytest.mark.parametrize("name", ["germ", "double_point"])
def test_streaming_a_trace_never_holds_the_document(name):
    # ``resolve --trace`` writes the trace piece by piece; building the
    # document alone holds all of it.  Allocations are deterministic.
    doc = fx.large_seed_docs(sm)[name]
    seed = re_.seed_from_snc(sm.from_json_obj(doc["snc"]), doc["coranks"])
    config = re_.RunConfig()
    final, events = re_.run(seed, config)
    final.census()  # the CLI reads the final charts before it writes

    def peak(make) -> int:
        tracemalloc.start()
        try:
            make()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def discard(text):
        pass

    streamed = peak(lambda: re_.write_trace(seed, events, final, config, discard))
    materialized = peak(lambda: re_.trace_to_obj(seed, events, final, config))
    assert streamed * 4 <= materialized, (streamed, materialized)


def test_large_cli_trace_digests_match_the_frozen_reference(tmp_path, capsys):
    events = {"germ": 257, "double_point": 420}
    for name, doc in fx.large_seed_docs(sm).items():
        src, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.trace.json"
        src.write_text(json.dumps(doc))
        assert cli.main(["resolve", "--input", str(src), "--trace", str(trace)]) == 0
        assert f"events: {events[name]}\n" in capsys.readouterr().out
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == FROZEN["large_trace_sha256"][name], name


# sha256 of the verifier's output, derived at commit 2f5a86a, before the
# polynomial kernel worked on canonical terms.  Each digest covers the
# reports' ``to_json()`` (or the CLI runs' exit code and stdout), one per
# line, in the order built below.
VERIFY_GRID_SHA256 = "bde6da0cf9b63d026f0daf4efc9128f9bf38118a14e7022f5b56309ba69cd7de"
VERIFY_SHAPES_SHA256 = "004d5c669ff2c54068f5534216d5ee77a82249e0c76541fc3278454051a546cf"
VERIFY_CLI_SHA256 = "22f24bc587efd35647e2c3bc8ae4afc49a2084289bbb786a29958e213529b74a"

VERIFY_RULES = ("det", "mon1", "mon2", "mon3", "bin")
POLICIES = ("oracle", "paper")


def _lines_sha256(lines) -> str:
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def test_verify_reports_on_the_cli_default_grid_match_the_reference():
    # The CLI's defaults: m 2..3, d 2..4, a 2..4.
    reports = [po.verify_rule(app, chart, policy=policy).to_json()
               for policy in POLICIES for rule in VERIFY_RULES
               for app, chart in cli._verify_grid(rule, [2, 3], [2, 3, 4], [2, 3, 4], policy)]
    assert len(reports) == 54
    assert _lines_sha256(reports) == VERIFY_GRID_SHA256


def test_verify_reports_on_the_frozen_engine_shapes_match_the_reference():
    reports = []
    for shape in FROZEN["verify_shapes"]:
        app, chart = fx.shape_instance(cc, shape)
        reports.append(po.verify_rule(app, chart, policy=shape["policy"]).to_json())
    assert len(reports) == 210
    assert _lines_sha256(reports) == VERIFY_SHAPES_SHA256


def test_verify_cli_stdout_matches_the_reference(capsys, monkeypatch):
    for flag in ("M", "D", "A", "EXPONENT_POLICY", "JSON"):
        monkeypatch.delenv("SNCRESOLVE_" + flag, raising=False)
    runs = []
    for policy in POLICIES:
        for rule in VERIFY_RULES:
            code = cli.main(["verify", "--rule", rule, "--exponent-policy", policy])
            runs.append(f"{rule} {policy} {code}\n" + capsys.readouterr().out)
    assert _lines_sha256(runs) == VERIFY_CLI_SHA256
