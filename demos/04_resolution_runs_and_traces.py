"""Full resolution runs: termination, invariance, and replayable traces.

Seed a state from a configuration plus determinant sizes, let the engine
rewrite until every chart is smooth, and inspect what it certifies along
the way: strictly decreasing invariants at every event, a byte-identical
dual complex, and a trace that replays to the same final state.
"""

import json
import random

from sncresolve.chart_calculus import mdeg
from sncresolve.generate import random_state
from sncresolve.resolution_engine import (RunConfig, replay_trace, run,
                                          seed_from_snc, trace_to_obj)
from sncresolve.snc_model import coordinate_germ, from_index_sets

# The ordinary double point x1*x2 = t*y: one event resolves it.
snc = from_index_sets(["E1", "E2"], [{"E1", "E2"}])
seed = seed_from_snc(snc, {"E1+E2": 1})
final, events = run(seed)
print("double point resolved in", len(events), "event(s)")
for chart, count in final.charts:
    print("  final chart", chart, "x", count)

# The triangle germ with a rank-2 determinant at the origin.
germ = coordinate_germ(3)
coranks = {s.id: (2 if len(s.indices) == 3 else 1)
           for s in germ.strata if len(s.indices) >= 2}
seed = seed_from_snc(germ, coranks)
final, events = run(seed)
print("\ntriangle seed:", [tuple(mdeg(c)) for c, n in seed.charts for _ in range(n)])
print("events:", len(events), "| phases:", [e.phase for e in events])
print("dual complex preserved:", final.dual_bytes() == seed.dual_bytes())
print("final census:")
for deg, (count, kind) in sorted(final.census().items()):
    print(f"  {tuple(deg)} x{count} {kind}")

# Every event certifies that each child's invariant dropped strictly.
print("\ncertificates of the first event:")
for parent, child in events[0].lex:
    print(f"  {tuple(parent)} -> {tuple(child)}")

# The alternate exceptional-coefficient policy produces a longer run
# that must still terminate with the same dual complex.
final_alt, events_alt = run(seed, RunConfig(exponent_policy="paper"))
print("\nalternate policy: events:", len(events_alt),
      "| phases:", [e.phase for e in events_alt])
print("dual still preserved:", final_alt.dual_bytes() == seed.dual_bytes())

# Traces serialize to JSON and replay bit-for-bit.
doc = trace_to_obj(seed, events, final, RunConfig())
doc = json.loads(json.dumps(doc))  # through the wire and back
result = replay_trace(doc)
print("\nreplay ok:", result.ok, "-", result.detail)

# Random instances: fixed seeds make them reproducible.  All of them
# terminate under both policies with the dual complex intact.
checked = 0
for seed_value in range(40):
    state = random_state(random.Random(seed_value))
    for policy in ("oracle", "paper"):
        f, ev = run(state, RunConfig(exponent_policy=policy))
        assert f.is_finished() and f.dual_bytes() == state.dual_bytes()
        checked += 1
print(f"\n{checked} random runs terminated with the dual complex unchanged")
