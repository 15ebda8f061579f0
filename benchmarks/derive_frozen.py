"""Derive ``frozen.json``: the verify shape list and the reference digests.

Run once from the root of a checkout, against the code whose outputs
become the references:

    python3 benchmarks/derive_frozen.py

The benchmark itself never runs this script; it only reads the frozen
file, so a later change to the program cannot move its own references.

Verify shapes: every distinct (policy, rule, dx, m, consumed exponents,
multiset of the other exponents) among the parent charts of the events
of the 200-seed random batch under both policies, kept when it fits the
verifier caps frozen below (deg_x <= 4, det size <= 3, exponents <= 4).
The caps are written here rather than read from the program, so raising
the program's caps leaves the list, and the workload, unchanged.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import fixtures as fx  # noqa: E402
from sncresolve import cli  # noqa: E402
from sncresolve import resolution_engine as re_  # noqa: E402
from sncresolve import snc_model as sm  # noqa: E402

SHAPE_MAX_DX = 4
SHAPE_MAX_DET = 3
SHAPE_MAX_EXPONENT = 4


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def derive(workdir: str) -> dict:
    shapes = set()
    batch = {}
    for seed in range(fx.BATCH_SEEDS):
        state = cli.random_state(random.Random(seed))
        for policy in fx.BATCH_POLICIES:
            config = re_.RunConfig(exponent_policy=policy,
                                   event_ceiling=fx.BATCH_CEILING)
            final, events = re_.run(state, config)
            doc = re_.trace_to_obj(state, events, final, config)
            batch[f"{seed}:{policy}"] = sha256(fx.trace_bytes(doc))
            for event in events:
                app = event.rule
                for chart, _ in event.parents:
                    exps = chart.exponent_map()
                    if (len(chart.x_indices) > SHAPE_MAX_DX
                            or chart.det_size > SHAPE_MAX_DET
                            or any(a > SHAPE_MAX_EXPONENT for a in exps.values())):
                        continue
                    consumed = tuple(exps[d] for d in app.divisors)
                    rest = tuple(sorted(a for d, a in exps.items()
                                        if d not in app.divisors))
                    shapes.add((policy, app.kind, len(chart.x_indices),
                                chart.det_size, consumed, rest))

    large = {}
    for name, doc in fx.large_seed_docs(sm).items():
        src = os.path.join(workdir, f"{name}.json")
        trace = os.path.join(workdir, f"{name}.trace.json")
        with open(src, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["resolve", "--input", src, "--trace", trace])
        if code != 0:
            raise SystemExit(f"resolve {name} exited {code}")
        with open(trace, "rb") as handle:
            large[name] = sha256(handle.read())

    src = os.path.join(workdir, "germ.json")
    dot = os.path.join(workdir, "germ.dot")
    with open(src, "w", encoding="utf-8") as handle:
        json.dump(sm.to_json_obj(sm.coordinate_germ(fx.HOMOLOGY_GERM_N)), handle)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["dualcomplex", "--input", src, "--dot", dot])
    if code != 0:
        raise SystemExit(f"dualcomplex exited {code}")
    with open(dot, "rb") as handle:
        dot_digest = sha256(handle.read())

    return {
        "verify_shapes": [
            {"policy": p, "rule": k, "dx": dx, "m": m,
             "consumed": list(c), "rest": list(r)}
            for p, k, dx, m, c, r in sorted(shapes)],
        "large_trace_sha256": large,
        "batch_trace_sha256": batch,
        "dualcomplex_dot_sha256": dot_digest,
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
        frozen = derive(workdir)
    with open(fx.FROZEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(frozen, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(frozen['verify_shapes'])} verify shapes, "
          f"{len(frozen['batch_trace_sha256'])} batch digests written to "
          f"{fx.FROZEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
