"""Command-line front end.

Subcommands: ``dualcomplex`` (homology report of a configuration or a raw
complex), ``resolve`` (run the rewriting engine and write a trace),
``verify`` (exact re-derivation of rule grids), ``gen`` (random seed
states for property testing).  Every flag can also be supplied through an
environment variable with the ``SNCRESOLVE_`` prefix; explicit flags win.

Exit codes: 0 success, 2 input error, 3 invariant breach or failed
verification, 4 scale or event ceiling.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import chart_calculus as cc
from . import dual_complex as dc
from . import poly_oracle as po
from . import resolution_engine as re_
from . import snc_model as sm

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BREACH = 3
EXIT_SCALE = 4

ENV_PREFIX = "SNCRESOLVE_"


def _env_name(flag: str) -> str:
    return ENV_PREFIX + flag.replace("-", "_").upper()


def _env_default(flag: str, fallback=None):
    return os.environ.get(_env_name(flag), fallback)


def _env_int(flag: str, fallback: int) -> int:
    """An integer flag default from the environment; ValueError names the variable."""
    value = _env_default(flag)
    if value is None:
        return fallback
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{_env_name(flag)}={value!r} is not an integer") from None


def _env_flag(flag: str) -> bool:
    """A switch's default from the environment: 1/true/yes or 0/false/no."""
    value = _env_default(flag)
    if value is None:
        return False
    text = value.strip().lower()
    if text in ("1", "true", "yes"):
        return True
    if text in ("0", "false", "no", ""):
        return False
    raise ValueError(f"{_env_name(flag)}={value!r} is not a switch value "
                     "(1/0, true/false, yes/no)")


def _parse_range(text: str) -> list:
    """'2..4' -> [2, 3, 4]; '3' -> [3]; an empty range raises ValueError."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
        if not values:
            raise ValueError(f"{text!r} is an empty range")
        return values
    return [int(text)]


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _print_err(*parts):
    print(*parts, file=sys.stderr)


def _print_json(obj):
    re_.write_json(obj, sys.stdout.write)
    sys.stdout.write("\n")


def _save_json(path: str, obj):
    with open(path, "w", encoding="utf-8") as handle:
        re_.write_json(obj, handle.write)
        handle.write("\n")


# --------------------------------------------------------------------------
# dualcomplex
# --------------------------------------------------------------------------

def cmd_dualcomplex(input_path: str, dot_path: str | None = None,
                    as_json: bool = False) -> int:
    try:
        doc = _load_json(input_path)
    except (OSError, json.JSONDecodeError) as err:
        _print_err(f"cannot read {input_path}: {err}")
        return EXIT_INPUT

    try:
        if isinstance(doc, dict) and "cells" in doc:
            complex = dc.from_json_obj(doc)
            violations = dc.validate(complex)
            if violations:
                for v in violations:
                    _print_err(str(v))
                return EXIT_INPUT
        elif isinstance(doc, dict) and "components" in doc:
            complex = sm.dual_complex_of(sm.from_json_obj(doc))
        else:
            _print_err("input must be a variety document ('components'/'strata') "
                       "or a complex document ('cells')")
            return EXIT_INPUT
    except (ValueError, KeyError) as err:
        _print_err(f"invalid input: {err}")
        return EXIT_INPUT

    report = dc.homology(complex)
    counts = complex.cell_counts()
    q_acyclic = all(b == 0 for b in report.betti[1:])
    if dot_path:
        with open(dot_path, "w", encoding="utf-8") as handle:
            handle.write(dc.to_dot(complex) + "\n")
    if as_json:
        _print_json({"cells": counts, **report.to_json_obj(),
                     "q_acyclic": q_acyclic, "dot": dot_path or None})
        return EXIT_OK

    print("cells:", "/".join(str(n) for n in counts) if counts else "0")
    print("betti:", " ".join(str(b) for b in report.betti) if report.betti else "-")
    torsion_bits = [f"dim {k}: {','.join(str(d) for d in t)}"
                    for k, t in enumerate(report.torsion) if t]
    print("torsion:", "; ".join(torsion_bits) if torsion_bits else "none")
    print("euler:", report.euler)
    print("Q-acyclic:", "yes" if q_acyclic else "no")
    if dot_path:
        print("dot written:", dot_path)
    return EXIT_OK


# --------------------------------------------------------------------------
# resolve
# --------------------------------------------------------------------------

def _seed_from_doc(doc) -> re_.ResolutionState:
    if isinstance(doc, dict) and "dual" in doc:
        return re_.state_from_obj(doc)
    if isinstance(doc, dict) and "snc" in doc:
        snc = sm.from_json_obj(doc["snc"])
        coranks = doc.get("coranks", {})
        if not isinstance(coranks, dict):
            raise ValueError("'coranks' must be an object")
        return re_.seed_from_snc(snc, {str(k): v for k, v in coranks.items()})
    raise ValueError("resolve input must be a state document ('dual'/'charts') "
                     "or {'snc': ..., 'coranks': ...}")


def cmd_resolve(input_path: str, config: re_.RunConfig,
                trace_path: str | None = None) -> int:
    try:
        doc = _load_json(input_path)
        seed = _seed_from_doc(doc)
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as err:
        _print_err(f"invalid input: {err}")
        return EXIT_INPUT

    try:
        final, events = re_.run(seed, config)
    except re_.CeilingExceeded as err:
        _print_err(f"event ceiling: {err}")
        return EXIT_SCALE
    except re_.InvariantBreach as err:
        _print_err(f"invariant breach: {err}")
        if err.certificate is not None:
            _print_err(f"offending certificate: {err.certificate}")
        return EXIT_BREACH

    print("events:", len(events))
    census = final.census()
    total = sum(n for n, _ in census.values())
    print(f"final charts: {total} (all resolved)")
    for deg in sorted(census):
        count, kind = census[deg]
        print(f"  ({deg.dx},{deg.dy},{deg.dz}) x{count} {kind}")
    preserved = final.dual_bytes() == seed.dual_bytes()
    print("dual complex preserved:", "yes" if preserved else "NO")
    if trace_path:
        _save_json(trace_path, re_.trace_to_obj(seed, events, final, config))
        print("trace written:", trace_path)
    if not preserved:
        return EXIT_BREACH
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def _verify_grid(rule: str, m_values, d_values, a_values, policy: str):
    """Build (application, chart) cells for one rule over the grid."""
    cells = []
    for d in d_values:
        comps = [f"E{i}" for i in range(1, d + 1)]
        pair = ("E1", "E2")
        if rule == "det":
            for m in m_values:
                e = cc.exceptional_coefficient("DET", det_size=m, policy=policy)
                app = cc.RuleApplication("DET", pair, det_size=m,
                                         new_divisor=("w", e) if e > 0 else None)
                cells.append((app, cc.ChartState.of(comps, m, {})))
        elif rule == "mon1":
            for a in a_values:
                app = cc.RuleApplication(
                    "MON1", pair, divisors=("f1",),
                    new_divisor=("w", a - 2) if a > 2 else None)
                cells.append((app, cc.ChartState.of(comps, 0, {"f1": a})))
        elif rule == "mon2":
            app = cc.RuleApplication("MON2", pair, divisors=("f1", "f2"))
            cells.append((app, cc.ChartState.of(comps, 0, {"f1": 1, "f2": 1})))
        elif rule == "mon3":
            app = cc.RuleApplication("MON3", pair, divisors=("f1",))
            cells.append((app, cc.ChartState.of(comps, 1, {"f1": 1})))
        elif rule == "bin":
            app = cc.RuleApplication("BIN", ("E1",))
            cells.append((app, cc.ChartState.of(comps, 1, {})))
            cells.append((app, cc.ChartState.of(comps, 0, {"f1": 1})))
        else:
            raise ValueError(f"unknown rule {rule!r}")
    return cells


def cmd_verify(rule: str, m_range: str, d_range: str, a_range: str,
               policy: str, as_json: bool = False) -> int:
    try:
        m_values = _parse_range(m_range)
        d_values = _parse_range(d_range)
        a_values = _parse_range(a_range)
    except ValueError as err:
        _print_err(f"bad range: {err}")
        return EXIT_INPUT
    if rule not in ("det", "mon1", "mon2", "mon3", "bin"):
        _print_err(f"unknown rule {rule!r}; pick det, mon1, mon2, mon3 or bin")
        return EXIT_INPUT
    if max(m_values) > po.VERIFY_MAX_DET:
        _print_err(f"det size capped at {po.VERIFY_MAX_DET} "
                   f"(requested {max(m_values)})")
        return EXIT_SCALE
    if max(d_values) > po.VERIFY_MAX_DX:
        _print_err(f"deg_x capped at {po.VERIFY_MAX_DX} (requested {max(d_values)})")
        return EXIT_SCALE
    if max(a_values) > po.VERIFY_MAX_EXPONENT:
        _print_err(f"divisor exponents capped at {po.VERIFY_MAX_EXPONENT} "
                   f"(requested {max(a_values)})")
        return EXIT_SCALE
    if min(m_values) < 2 and rule == "det":
        _print_err("det rule needs m >= 2")
        return EXIT_INPUT
    if min(a_values) < 2 and rule == "mon1":
        _print_err("mon1 rule needs a >= 2")
        return EXIT_INPUT
    if min(d_values) < 2:
        _print_err("rules need at least two x-factors")
        return EXIT_INPUT

    reports = [po.verify_rule(app, chart, policy=policy)
               for app, chart in _verify_grid(rule, m_values, d_values,
                                              a_values, policy)]
    if as_json:
        _print_json([rep.to_json_obj() for rep in reports])
    else:
        print(po.grid_table(reports))
        for rep in reports:
            for note in rep.notes:
                print("note:", note)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_BREACH


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

def random_state(rng: random.Random, max_components: int = 5,
                 max_corank: int = 3, max_total_exponent: int = 6
                 ) -> re_.ResolutionState:
    """A random seed state within the verifier's scale bounds.

    Components and strata form a random downward-closed intersection
    family; deep strata get random determinant sizes, and a few divisors
    with small coefficients are scattered over the charts.
    """
    n = rng.randint(1, max_components)
    comps = [f"E{i}" for i in range(1, n + 1)]
    import itertools as it
    present = {frozenset([c]) for c in comps}
    for size in range(2, n + 1):
        prob = {2: 0.7, 3: 0.6, 4: 0.5}.get(size, 0.4)
        for subset in it.combinations(comps, size):
            fs = frozenset(subset)
            if all(fs - {c} in present for c in fs) and rng.random() < prob:
                present.add(fs)
    snc = sm.from_index_sets(comps, present)
    coranks = {}
    for s in snc.strata:
        if len(s.indices) >= 2:
            coranks[s.id] = rng.randint(0, max_corank)
    state = re_.seed_from_snc(snc, coranks)

    n_div = rng.randint(0, 2)
    divisors = [(f"f{i}", rng.randint(1, 3)) for i in range(1, n_div + 1)]
    placements = {}
    budget = {pos: max_total_exponent for pos in range(len(state.charts))}
    for div, coeff in divisors:
        for pos in range(len(state.charts)):
            if rng.random() < 0.5 and budget[pos] >= coeff:
                placements.setdefault(pos, []).append(div)
                budget[pos] -= coeff
    if divisors:
        state = re_.with_initial_divisors(state, divisors, placements)
    return state


def cmd_gen(seed: int, out_path: str | None) -> int:
    state = random_state(random.Random(seed))
    doc = re_.state_to_obj(state)
    if out_path:
        _save_json(out_path, doc)
        print(f"seed state written: {out_path} "
              f"(components={len(state.dual.cells_of_dim(0))}, "
              f"charts={sum(n for _, n in state.charts)}, "
              f"divisors={len(state.registry)})")
    else:
        _print_json(doc)
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sncresolve",
        description="dual complexes, blow-up charts, and verified resolution traces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dual = sub.add_parser("dualcomplex", help="homology report of a configuration")
    p_dual.add_argument("--input", default=_env_default("input"), required=False)
    p_dual.add_argument("--dot", default=_env_default("dot"),
                        help="write the 1-skeleton as DOT")
    p_dual.add_argument("--json", action="store_true", default=_env_flag("json"),
                        help="print the report as one JSON object instead of text")

    p_res = sub.add_parser("resolve", help="run the rewriting engine")
    p_res.add_argument("--input", default=_env_default("input"), required=False)
    p_res.add_argument("--trace", default=_env_default("trace"),
                       help="write the full trace JSON here")
    p_res.add_argument("--ordering", default=_env_default("ordering"),
                       help="comma-separated id priority, e.g. E2,E1")
    p_res.add_argument("--exponent-policy",
                       default=_env_default("exponent-policy", "oracle"),
                       choices=("oracle", "paper"))
    p_res.add_argument("--ceiling", type=int, default=_env_int("ceiling", 10_000))

    p_ver = sub.add_parser("verify", help="re-derive rule grids exactly")
    p_ver.add_argument("--rule", default=_env_default("rule"), required=False)
    p_ver.add_argument("--m", default=_env_default("m", "2..3"),
                       help="det sizes, e.g. 2..3")
    p_ver.add_argument("--d", default=_env_default("d", "2..4"),
                       help="x-factor counts, e.g. 2..4")
    p_ver.add_argument("--a", default=_env_default("a", "2..4"),
                       help="divisor exponents, e.g. 2..4")
    p_ver.add_argument("--exponent-policy",
                       default=_env_default("exponent-policy", "oracle"),
                       choices=("oracle", "paper"))
    p_ver.add_argument("--json", action="store_true", default=_env_flag("json"),
                       help="print the reports as one JSON array instead of a table")

    p_gen = sub.add_parser("gen", help="generate a random seed state")
    p_gen.add_argument("--seed", type=int, default=_env_int("seed", 0))
    p_gen.add_argument("--out", default=_env_default("out"))

    return parser


def main(argv=None) -> int:
    try:
        parser = _build_parser()
    except ValueError as err:
        _print_err(f"bad environment value: {err}")
        return EXIT_INPUT
    args = parser.parse_args(argv)
    try:
        if args.command == "dualcomplex":
            if not args.input:
                _print_err("dualcomplex needs --input")
                return EXIT_INPUT
            return cmd_dualcomplex(args.input, args.dot, args.json)
        if args.command == "resolve":
            if not args.input:
                _print_err("resolve needs --input")
                return EXIT_INPUT
            ordering = tuple(args.ordering.split(",")) if args.ordering else None
            try:
                config = re_.RunConfig(ordering, args.exponent_policy, args.ceiling)
            except ValueError as err:
                _print_err(f"bad config: {err}")
                return EXIT_INPUT
            return cmd_resolve(args.input, config, args.trace)
        if args.command == "verify":
            if not args.rule:
                _print_err("verify needs --rule")
                return EXIT_INPUT
            return cmd_verify(args.rule.lower(), args.m, args.d, args.a,
                              args.exponent_policy, args.json)
        if args.command == "gen":
            return cmd_gen(args.seed, args.out)
    except po.ScaleError as err:
        _print_err(f"scale ceiling: {err}")
        return EXIT_SCALE
    _print_err(f"unknown command {args.command!r}")
    return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
