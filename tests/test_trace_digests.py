"""Trace bytes are a contract: regenerate them and compare their digests.

The reference sha256 digests live in ``benchmarks/frozen.json``; this file
only reads it.  The batch traces are serialized with the benchmark's own
``trace_bytes``, which writes them exactly as ``sncresolve resolve
--trace`` does.
"""

import hashlib
import importlib.util
import json
import random
from pathlib import Path

from sncresolve import cli
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
    for state_seed in range(fx.BATCH_SEEDS):
        state = cli.random_state(random.Random(state_seed))
        for policy in fx.BATCH_POLICIES:
            config = re_.RunConfig(exponent_policy=policy, event_ceiling=fx.BATCH_CEILING)
            final, events = re_.run(state, config)
            data = fx.trace_bytes(re_.trace_to_obj(state, events, final, config))
            got[f"{state_seed}:{policy}"] = hashlib.sha256(data).hexdigest()
    assert len(want) == 2 * fx.BATCH_SEEDS
    assert [key for key in want if got[key] != want[key]] == []


def test_large_cli_trace_digests_match_the_frozen_reference(tmp_path, capsys):
    events = {"germ": 257, "double_point": 420}
    for name, doc in fx.large_seed_docs(sm).items():
        src, trace = tmp_path / f"{name}.json", tmp_path / f"{name}.trace.json"
        src.write_text(json.dumps(doc))
        assert cli.main(["resolve", "--input", str(src), "--trace", str(trace)]) == 0
        assert f"events: {events[name]}\n" in capsys.readouterr().out
        digest = hashlib.sha256(trace.read_bytes()).hexdigest()
        assert digest == FROZEN["large_trace_sha256"][name], name
