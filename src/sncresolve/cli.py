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
from .generate import random_state

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


def _writable(path: str) -> bool:
    """Whether an output file can be written, checked before the work (an
    existing file is left as it is); one stderr line if not."""
    try:
        with open(path, "a", encoding="utf-8"):
            return True
    except OSError as err:
        _print_err(f"cannot write {path}: {err}")
        return False


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

    if dot_path and not _writable(dot_path):
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
    if trace_path and not _writable(trace_path):
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
    # Every state of a run shares the seed's immutable dual complex.
    print("dual complex preserved: yes")
    if trace_path:
        _save_json(trace_path, re_.trace_to_obj(seed, events, final, config))
        print("trace written:", trace_path)
    return EXIT_OK


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

# The rule records by their CLI names: det, mon1, mon2, mon3, bin.
_RULES_BY_NAME = {rule.kind.lower(): rule for rule in cc.RULES.values()}


def _verify_grid(rule: str, m_values, d_values, a_values, policy: str):
    """Build (application, chart) cells for one rule over the grid: the
    application the engine picks for the chart, its new divisor named w."""
    param, _, grid_charts = _RULES_BY_NAME[rule].grid
    values = {"m": m_values, "a": a_values}.get(param, [None])
    key = re_.RunConfig().key
    cells = []
    for d in d_values:
        comps = [f"E{i}" for i in range(1, d + 1)]
        for value in values:
            for chart in grid_charts(comps, value):
                cells.append((cc.application(cc.propose(chart, key), chart, policy, "w"),
                              chart))
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
    spec = _RULES_BY_NAME.get(rule)
    if spec is None:
        *names, last = _RULES_BY_NAME
        _print_err(f"unknown rule {rule!r}; pick {', '.join(names)} or {last}")
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
    param, least, _ = spec.grid
    if param and min({"m": m_values, "a": a_values}[param]) < least:
        _print_err(f"{rule} rule needs {param} >= {least}")
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

def cmd_gen(seed: int, out_path: str | None) -> int:
    if out_path and not _writable(out_path):
        return EXIT_INPUT
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
