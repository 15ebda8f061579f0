"""Command-line front end.

Subcommands: ``dualcomplex`` (homology report of a configuration or a raw
complex), ``resolve`` (run the rewriting engine and write a trace),
``verify`` (exact re-derivation of rule grids), ``gen`` (random seed
states for property testing).  Each command's flags, their
``SNCRESOLVE_`` environment mirrors (explicit flags win), its required flag
and its output file are declared once, in ``_COMMANDS``.

``main`` reads the table and is the one failure boundary.  It reuses one
parser per environment, refuses a missing required flag, probes the output
file, reads the ``--input`` document for the handler, writes the handler's
standard output, removes the probed file if the command fails, and maps
every exception to an exit code: 2 for an input error (ValueError or
KeyError, one stderr line ``invalid input: ...``; also an input that cannot
be read, decoded or held in ``_INPUT_CAP`` characters, a repeated key, or an
output that cannot be written), 3 for an invariant breach, 4 for a scale or
event ceiling.  A handler raises and returns only its verdict: 0 success, 3
a failed verification, 2 once it has listed a complex's violations.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import random
import sys
from collections import Counter

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
_INPUT_CAP = 1 << 26  # the most --input characters: 4.6 x germ 15's indented variety document
_READ_CHUNK = 1 << 20  # --input is read in parts of at most this many characters


def _env_default(flag: str, default, kind):
    """A flag's default, from ``SNCRESOLVE_<FLAG>`` when that is set.

    argparse checks a flag's type and choices only on the command line, so
    the variable's value is checked here against the same ``kind``; the
    ValueError names the variable."""
    name = ENV_PREFIX + flag.replace("-", "_").upper()
    value = os.environ.get(name)
    if value is None:
        return default
    if kind is int:
        try:
            return int(value)
        except ValueError:
            raise ValueError(f"{name}={value!r} is not an integer") from None
    if kind is bool:
        text = value.strip().lower()
        if text in ("1", "true", "yes"):
            return True
        if text in ("0", "false", "no", ""):
            return False
        raise ValueError(f"{name}={value!r} is not a switch value "
                         "(1/0, true/false, yes/no)")
    if isinstance(kind, tuple) and value not in kind:
        raise ValueError(f"{name}={value!r} is not one of {', '.join(kind)}")
    return value


def _parse_range(flag: str, text: str) -> range:
    """'2..4' -> range(2, 5); '3' -> range(3, 4); a non-integer or empty
    range raises a ValueError that names ``--flag``.  Nothing is enumerated,
    so a huge range costs nothing until the caps have looked at its ends."""
    lo, dots, hi = text.partition("..")
    try:
        values = range(int(lo), int(hi if dots else lo) + 1)
    except ValueError:
        raise ValueError(f"--{flag}: {text!r} is not an integer range") from None
    if not values:
        raise ValueError(f"--{flag}: {text!r} is an empty range")
    return values


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; ValueError names a key that the object repeats,
    where ``json`` would keep only its last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        (key, _), = Counter(key for key, _ in pairs).most_common(1)
        raise ValueError(f"an object repeats the key {key!r}")
    return obj


def _print_err(*parts):
    print(*parts, file=sys.stderr)


def _print_json(obj):
    print(json.dumps(obj, indent=1, sort_keys=True))


# --------------------------------------------------------------------------
# dualcomplex
# --------------------------------------------------------------------------

def cmd_dualcomplex(args, doc) -> int:
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
        raise ValueError("the document must be a variety document ('components'/'strata') "
                         "or a complex document ('cells')")

    report = dc.homology(complex)
    counts = complex.cell_counts()
    q_acyclic = all(b == 0 for b in report.betti[1:])
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(dc.to_dot(complex) + "\n")
    if args.json:
        _print_json({"cells": counts, **report.to_json_obj(),
                     "q_acyclic": q_acyclic, "dot": args.dot or None})
        return EXIT_OK

    print("cells:", "/".join(str(n) for n in counts) if counts else "0")
    print("betti:", " ".join(str(b) for b in report.betti) if report.betti else "-")
    torsion_bits = [f"dim {k}: {','.join(str(d) for d in t)}"
                    for k, t in enumerate(report.torsion) if t]
    print("torsion:", "; ".join(torsion_bits) if torsion_bits else "none")
    print("euler:", report.euler)
    print("Q-acyclic:", "yes" if q_acyclic else "no")
    if args.dot:
        print("dot written:", args.dot)
    return EXIT_OK


# --------------------------------------------------------------------------
# resolve
# --------------------------------------------------------------------------

def _seed_from_doc(doc) -> re_.ResolutionState:
    if isinstance(doc, dict) and "dual" in doc:
        return re_.state_from_obj(doc)
    if isinstance(doc, dict) and "snc" in doc:
        extra = [k for k in doc if k not in ("snc", "coranks")]
        if extra:
            raise ValueError(f"key {extra[0]!r} is not part of an {{snc, coranks}} document")
        snc = sm.from_json_obj(doc["snc"])
        coranks = doc.get("coranks", {})
        if not isinstance(coranks, dict):
            raise ValueError("'coranks' must be an object")
        return re_.seed_from_snc(snc, coranks)
    raise ValueError("resolve input must be a state document ('dual'/'charts') "
                     "or {'snc': ..., 'coranks': ...}")


def cmd_resolve(args, doc) -> int:
    ordering = tuple(args.ordering.split(",")) if args.ordering else None
    config = re_.RunConfig(ordering, args.exponent_policy, args.ceiling)
    seed = _seed_from_doc(doc)

    final, events = re_.run(seed, config)
    print("events:", len(events))
    census = final.census()
    total = sum(n for n, _ in census.values())
    print(f"final charts: {total} (all resolved)")
    for deg in sorted(census):
        count, kind = census[deg]
        print(f"  ({deg.dx},{deg.dy},{deg.dz}) x{count} {kind}")
    # Every state of a run shares the seed's immutable dual complex.
    print("dual complex preserved: yes")
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as handle:
            re_.write_trace(seed, events, final, config, handle.write)
            handle.write("\n")
        print("trace written:", args.trace)
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


def cmd_verify(args, _doc) -> int:
    rule, policy = args.rule.lower(), args.exponent_policy
    m_values, d_values, a_values = map(_parse_range, "mda", (args.m, args.d, args.a))
    spec = _RULES_BY_NAME.get(rule)
    if spec is None:
        *names, last = _RULES_BY_NAME
        raise ValueError(f"unknown rule {rule!r}; pick {', '.join(names)} or {last}")
    # deg_x is in every grid; m and a only in the grid that names them.  The
    # ranges ascend, so [0] and [-1] are their least and greatest values.
    param, least, _ = spec.grid
    po.check_scale(d_values[-1], m_values[-1] if param == "m" else 0,
                   a_values[-1] if param == "a" else 0)
    if param and {"m": m_values, "a": a_values}[param][0] < least:
        raise ValueError(f"{rule} rule needs {param} >= {least}")
    if d_values[0] < 2:
        raise ValueError("rules need at least two x-factors")

    reports = [po.verify_rule(app, chart, policy=policy)
               for app, chart in _verify_grid(rule, m_values, d_values,
                                              a_values, policy)]
    if args.json:
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

def cmd_gen(args, _doc) -> int:
    state = random_state(random.Random(args.seed))
    doc = re_.state_to_obj(state)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"seed state written: {args.out} "
              f"(components={len(state.dual.cells_of_dim(0))}, "
              f"charts={sum(n for _, n in state.charts)}, "
              f"divisors={len(state.registry)})")
    else:
        _print_json(doc)
    return EXIT_OK


# --------------------------------------------------------------------------
# the command table
# --------------------------------------------------------------------------

# Each command: (handler, help, required flag, output flag, flags); ``main``
# calls the handler with the parsed ``--input`` document, or None.  A flag
# is (name, default, kind, help), ``kind`` being str, int, bool (a switch)
# or a tuple of choices; ``_env_default`` mirrors its default.
_COMMANDS = {
    "dualcomplex": (cmd_dualcomplex, "homology report of a configuration", "input", "dot", (
        ("input", None, str, None),
        ("dot", None, str, "write the 1-skeleton as DOT"),
        ("json", False, bool, "print the report as one JSON object instead of text"),
    )),
    "resolve": (cmd_resolve, "run the rewriting engine", "input", "trace", (
        ("input", None, str, None),
        ("trace", None, str, "write the full trace JSON here"),
        ("ordering", None, str, "comma-separated id priority, e.g. E2,E1"),
        ("exponent-policy", re_.DEFAULT_POLICY, cc.POLICIES, None),
        ("ceiling", re_.DEFAULT_CEILING, int, None),
    )),
    "verify": (cmd_verify, "re-derive rule grids exactly", "rule", None, (
        ("rule", None, str, None),
        ("m", "2..3", str, "det sizes, e.g. 2..3"),
        ("d", "2..4", str, "x-factor counts, e.g. 2..4"),
        ("a", "2..4", str, "divisor exponents, e.g. 2..4"),
        ("exponent-policy", re_.DEFAULT_POLICY, cc.POLICIES, None),
        ("json", False, bool, "print the reports as one JSON array instead of a table"),
    )),
    "gen": (cmd_gen, "generate a random seed state", None, "out", (
        ("seed", 0, int, None),
        ("out", None, str, None),
    )),
}


def _build_parser() -> argparse.ArgumentParser:
    """One parser per tuple of environment defaults, read and checked each call."""
    return _parser(tuple(_env_default(name, default, kind)
                         for *_, flags in _COMMANDS.values()
                         for name, default, kind, _ in flags))


@functools.lru_cache(maxsize=1)
def _parser(defaults: tuple) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sncresolve",
        description="dual complexes, blow-up charts, and verified resolution traces")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = iter(defaults)
    for command, (_, summary, _, _, flags) in _COMMANDS.items():
        p_cmd = sub.add_parser(command, help=summary)
        for name, _, kind, text in flags:
            check = ({"action": "store_true"} if kind is bool
                     else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
            p_cmd.add_argument(f"--{name}", default=next(defaults), help=text, **check)
    return parser


def main(argv=None) -> int:
    code, doc, out, target, fresh = EXIT_INPUT, None, None, None, False
    # A command's data are acyclic: the cycle collector would only walk them
    # again and again.  The caller's setting comes back on the way out.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        handler, _, required, output, _ = _COMMANDS[args.command]
        if required and not getattr(args, required):
            _print_err(f"{args.command} needs --{required}")
            return EXIT_INPUT
        out = target = getattr(args, output) if output else None
        fresh = bool(out) and not os.path.lexists(out)
        if out:  # an existing file is left as it is
            open(out, "a", encoding="utf-8").close()
        if required == "input":
            try:
                # One read of the whole cap would reserve all of it up front.
                parts, size = [], 0
                with open(args.input, "r", encoding="utf-8") as handle:
                    while size <= _INPUT_CAP and (part := handle.read(_READ_CHUNK)):
                        parts.append(part)
                        size += len(part)
                if size > _INPUT_CAP:
                    raise ValueError(f"the document is longer than {_INPUT_CAP} characters")
                doc = json.loads("".join(parts), object_pairs_hook=_unique_keys)
            except (OSError, ValueError, RecursionError) as err:
                _print_err(f"cannot read {args.input}: {err}")
                return EXIT_INPUT
        # Standard output is collected and written once the handler returns,
        # so a failed write to it is told apart from one to the output file.
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = handler(args, doc)
        target = None
        sys.stdout.write(text.getvalue())
        sys.stdout.flush()
    except (po.ScaleError, re_.CeilingExceeded) as err:
        kind = "scale" if isinstance(err, po.ScaleError) else "event"
        _print_err(f"{kind} ceiling: {err}")
        code = EXIT_SCALE
    except re_.InvariantBreach as err:
        _print_err(f"invariant breach: {err}")
        if err.certificate is not None:
            _print_err(f"offending certificate: {err.certificate}")
        code = EXIT_BREACH
    except (ValueError, KeyError) as err:  # ScaleError, a ValueError, is caught above
        _print_err(f"invalid input: {err}")
        code = EXIT_INPUT
    except OSError as err:
        _print_err(f"cannot write {target or 'standard output'}: {err}")
        code = EXIT_INPUT
        if target is None and sys.stdout is sys.__stdout__:
            # The interpreter flushes standard output again at exit; what
            # it still holds goes to the null device, not into a traceback.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    finally:
        if collecting:
            gc.enable()
        # A failing command removes an output file that the probe created.
        if fresh and code != EXIT_OK and os.path.lexists(out):
            os.remove(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
