"""The command-line contract, one row per run of a ``sncresolve`` process.

Each row of ``ROWS`` gives the argv of one run, its environment, the input
documents it reads, its exit code, its stderr and, where that is not all,
a check of its standard output or its files.  Stderr is empty when a row
gives none, the whole text when the row's ends in a newline, and otherwise
one line that starts with it; a run that exits 2 or 4 prints nothing on
standard output.

The runner follows the package this module imports.  When that is this
checkout's ``src/``, as in the tier-1 command, a run is
``python -S -m sncresolve`` with ``PYTHONPATH=src``.  Otherwise a run is the
``sncresolve`` console script on ``PATH``, so that, after ``pip install .``
and from a directory outside the checkout, the rows check the installed
entry point and every module it ships::

    cd "$(mktemp -d)" && python -m pytest -q /path/to/checkout/tests/test_installed_cli.py

Every run has a folder of its own, holding its input documents under the
names its argv uses.  The runs go two at a time, while the rows whose runs
have ended are checked; a check may compare its run with another row's.
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from random import Random
from typing import Callable, NamedTuple, Optional

import pytest

import sncresolve
from sncresolve import dual_complex as dc
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm
from sncresolve.generate import random_state

from test_snc_model import MALFORMED

CHECKOUT = Path(__file__).resolve().parents[1]
FROM_SOURCE = Path(sncresolve.__file__).resolve().parent == CHECKOUT / "src" / "sncresolve"
# From src/, a run sees the standard library and src/ only (-S: no
# site-packages), as the package declares no dependency.
INTERPRETER = (sys.executable, "-S") if FROM_SOURCE else (sys.executable,)


def _load_benchmark_fixtures():
    spec = importlib.util.spec_from_file_location("bench_fixtures",
                                                  CHECKOUT / "benchmarks" / "fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fx = _load_benchmark_fixtures()
# The benchmark's germ-7 seed ranks its components E1..E7; this reverses them.
REVERSED_ORDERING = ",".join(f"E{i}" for i in range(fx.GERM_N, 0, -1))

STARTUP_CHECK = ("import sncresolve.cli, sys; "
                 "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
FULL = "[Errno 28] No space left on device\n"


# --------------------------------------------------------------------------
# input documents: a name, as the argv gives it, and its builder
# --------------------------------------------------------------------------

def _germ():
    return sm.to_json_obj(sm.coordinate_germ(3))


def _complex():
    return dc.to_json_obj(sm.dual_complex_of(sm.coordinate_germ(3)))


def _changed(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _reversed_cells():
    doc = _complex()
    doc["cells"].reverse()
    return doc


def _double_point(corank):
    return {"snc": sm.to_json_obj(sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])),
            "coranks": {"E1+E2": corank}}


def _odd_ids():
    """Ids with a quote, a backslash and a non-ASCII letter, which the trace
    and the DOT file must escape."""
    ids = ['E"1', "E\\2", "Eé3"]
    return sm.from_index_sets(ids, [set(ids[:2]), set(ids[1:]), {ids[0], ids[2]}, set(ids)])


def _odd_seed():
    snc = _odd_ids()
    return {"snc": sm.to_json_obj(snc),
            "coranks": {s.id: len(s.indices) - 1 for s in snc.strata if len(s.indices) >= 2}}


def _state_text():
    """The seed state that ``gen --seed 3`` writes, byte for byte."""
    doc = re_.state_to_obj(random_state(Random(3)))
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()


# A builder returns the document's bytes, or an object written as JSON.
DOCUMENTS = {
    "germ.json": _germ,
    "complex.json": _complex,
    "reversed.json": _reversed_cells,
    "dangling.json": lambda: _changed(_complex(), ("cells", -1, "facets", 0), "ghost"),
    # The Z/6-torsion wedge of the benchmark leaves a core for the dense
    # Smith normal form after the unit sweep.
    "torsion.json": lambda: dc.to_json_obj(fx.torsion_complex(dc)),
    "state.json": _state_text,
    # The corank-40 double point: wide charts, each carrying up to 39
    # divisor exponents, laid out directly by the streaming writer.
    "wide.json": lambda: _double_point(40),
    # The benchmark's germ-7 seed: many charts, each laid out once.
    "germ7.json": lambda: fx.germ_seed_doc(sm),
    "odd.json": _odd_seed,
    "oddsnc.json": lambda: sm.to_json_obj(_odd_ids()),
    # A cell or stratum out of form: an int cell id, a nested label, an int index.
    "intid.json": lambda: _changed(_complex(), ("cells", 0, "id"), 7),
    "nestedlabel.json": lambda: _changed(_complex(), ("cells", 0, "label"), [["A"]]),
    "intindex.json": lambda: _changed(_germ(), ("strata", -1, "indices", 0), 1),
    # Two strata over one index set, from the model tests' families.  Where
    # two-step descents reach both, only the coherence check refuses the
    # variety; where they agree, the copies are parallel cells.
    "incoherent.json": lambda: sm.to_json_obj(sm.SncVariety.of(*MALFORMED["incoherent"])),
    "parallel.json": lambda: sm.to_json_obj(
        sm.SncVariety.of(*MALFORMED["duplicate deep strata"])),
    "boolcorank.json": lambda: _double_point(True),
    # An object that repeats a key, which json alone would read as its last
    # value, and a {snc, coranks} document with a stray key.
    "repeated.json": lambda: b'{"cells": [{"id": "v", "dim": 0, "id": "w"}]}',
    "stray.json": lambda: dict(fx.germ_seed_doc(sm), note=1),
    "nonutf8.json": lambda: b'{"cells": [\xff]}',
    "nested.json": lambda: b"[" * 100_000 + b"]" * 100_000,
}


@pytest.fixture(scope="module")
def documents():
    built = {name: build() for name, build in DOCUMENTS.items()}
    return {name: doc if isinstance(doc, bytes) else json.dumps(doc).encode()
            for name, doc in built.items()}


# --------------------------------------------------------------------------
# output checks: each takes the row's run, and the function that gives the
# run of a row by its name
# --------------------------------------------------------------------------

class Run(NamedTuple):
    code: int
    out: str
    err: str
    folder: Path


def _trace(name, ordering=None):
    """The trace is laid out as this interpreter's json module lays out the
    same document, and the package replays it."""
    def check(run, run_of):
        text = (run.folder / name).read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"
        doc = json.loads(text)
        if ordering is not None:
            assert doc["config"]["ordering"] == ordering.split(","), doc["config"]
        replay = re_.replay_trace(doc)
        assert replay.ok, replay.detail
    return check


def _dot_statements(name):
    """Outside its well-formed quoted strings, each DOT statement is a vertex
    or an edge."""
    def check(run, run_of):
        dot = (run.folder / name).read_text(encoding="utf-8")
        shape = re.sub(r'"(?:[^"\\]|\\.)*"', "Q", dot)
        assert re.fullmatch(r'graph skeleton \{(\n  Q(?: -- Q)? \[label=Q\];)+\n\}\n', shape), dot
    return check


def _triangle_dot(run, run_of):
    text = (run.folder / "germ.dot").read_text(encoding="utf-8")
    assert text.startswith("graph") and text.count("--") == 3


def _out_lines(*lines):
    def check(run, run_of):
        assert set(lines) <= set(run.out.splitlines()), run.out
    return check


def _prints(text):
    def check(run, run_of):
        assert run.out == text
    return check


def _fails(run, run_of):
    assert "FAIL" in run.out


def _same_as(row, dot):
    """The same standard output and DOT bytes as ``row``'s run."""
    def check(run, run_of):
        other = run_of(row)
        assert run.out == other.out
        assert (run.folder / dot).read_bytes() == (other.folder / dot).read_bytes()
    return check


def _absent(name):
    def check(run, run_of):
        assert not (run.folder / name).exists()
    return check


def _state_as_built(run, run_of):
    assert (run.folder / "state.json").read_bytes() == _state_text()


# --------------------------------------------------------------------------
# the rows
# --------------------------------------------------------------------------

class Row(NamedTuple):
    name: str
    argv: tuple
    code: int
    err: str = ""
    inputs: tuple = ()
    env: Optional[dict] = None
    check: Optional[Callable] = None
    stdout: str = "pipe"       # or a device path, or "closed-pipe"
    program: str = "sncresolve"  # or "python": the interpreter the package runs on


def _verify_rows():
    """Every rule's default grid passes under both policies, except DET under
    paper, whose coefficient the measurement contradicts."""
    for rule in ("det", "mon1", "mon2", "mon3", "bin"):
        for policy in ("oracle", "paper"):
            fails = (rule, policy) == ("det", "paper")
            yield Row(f"verify-{rule}-{policy}",
                      ("verify", "--rule", rule, "--exponent-policy", policy),
                      3 if fails else 0, check=_fails if fails else None)


def _undecodable_rows():
    """A non-UTF-8 byte, and 100 000 nested arrays."""
    for name in ("nonutf8", "nested"):
        for command in ("dualcomplex", "resolve"):
            yield Row(f"{command}-{name}", (command, "--input", f"{name}.json"), 2,
                      f"cannot read {name}.json: ", (f"{name}.json",))


def _standard_output_rows():
    """A failed write to standard output: buffered, at the final flush;
    unbuffered, in the handler."""
    for argv in (("gen", "--seed", "5"), ("verify", "--rule", "bin")):
        for sink in ("/dev/full", "closed-pipe"):
            for buffered in (True, False):
                name = f"{argv[0]}-stdout-{sink.rsplit('/', 1)[-1]}-" \
                       f"{'buffered' if buffered else 'unbuffered'}"
                yield Row(name, argv, 2, "cannot write standard output: ",
                          env={"PYTHONUNBUFFERED": "" if buffered else "1"}, stdout=sink)


ROWS = (
    # Start-up stays light: the package loads neither module.  pytest
    # itself imports both, so only a fresh interpreter can tell.
    Row("startup", ("-c", STARTUP_CHECK), 0, program="python", check=_prints("[]\n")),
    Row("gen-state", ("gen", "--seed", "3", "--out", "state.json"), 0,
        check=_state_as_built),
    Row("resolve-state", ("resolve", "--input", "state.json", "--trace", "trace.json"), 0,
        inputs=("state.json",), check=_trace("trace.json")),
    Row("resolve-wide", ("resolve", "--input", "wide.json", "--trace", "wide.trace.json"), 0,
        inputs=("wide.json",), check=_trace("wide.trace.json")),
    Row("resolve-germ7", ("resolve", "--input", "germ7.json", "--trace", "germ7.trace.json"),
        0, inputs=("germ7.json",), check=_trace("germ7.trace.json")),
    Row("resolve-germ7-reversed", ("resolve", "--input", "germ7.json", "--ordering",
                                   REVERSED_ORDERING, "--trace", "germ7r.trace.json"),
        0, inputs=("germ7.json",), check=_trace("germ7r.trace.json", REVERSED_ORDERING)),
    Row("resolve-odd-ids", ("resolve", "--input", "odd.json", "--trace", "odd.trace.json"), 0,
        inputs=("odd.json",), check=_trace("odd.trace.json")),
    Row("dualcomplex-odd-ids", ("dualcomplex", "--input", "oddsnc.json", "--dot", "odd.dot"),
        0, inputs=("oddsnc.json",), check=_dot_statements("odd.dot")),
    Row("dualcomplex-germ-dot", ("dualcomplex", "--input", "germ.json", "--dot", "germ.dot"),
        0, inputs=("germ.json",), check=_triangle_dot),
    Row("dualcomplex-complex", ("dualcomplex", "--input", "complex.json"), 0,
        inputs=("complex.json",), check=_out_lines("cells: 3/3/1", "betti: 1 0 0")),
    # A complex keeps its cells in (dimension, id) order whatever order the
    # document lists them in: reversed cells give the same bytes.
    Row("dualcomplex-ordered", ("dualcomplex", "--input", "complex.json", "--json",
                                "--dot", "skeleton.dot"), 0, inputs=("complex.json",)),
    Row("dualcomplex-reversed", ("dualcomplex", "--input", "reversed.json", "--json",
                                 "--dot", "skeleton.dot"), 0, inputs=("reversed.json",),
        check=_same_as("dualcomplex-ordered", "skeleton.dot")),
    Row("dualcomplex-torsion", ("dualcomplex", "--input", "torsion.json"), 0,
        inputs=("torsion.json",), check=_out_lines("torsion: dim 1: 6")),
    *_verify_rows(),
    # An output that cannot be created is refused before any work.
    Row("gen-missing-dir", ("gen", "--seed", "3", "--out", "missing/state.json"), 2,
        "cannot write missing/state.json: ", check=_absent("missing")),
    Row("resolve-missing-dir", ("resolve", "--input", "state.json",
                                "--trace", "missing/trace.json"), 2,
        "cannot write missing/trace.json: ", ("state.json",)),
    Row("dualcomplex-missing-dir", ("dualcomplex", "--input", "germ.json",
                                    "--dot", "missing/germ.dot"), 2,
        "cannot write missing/germ.dot: ", ("germ.json",)),
    # A complex document that fails validation lists its one violation.
    Row("dualcomplex-dangling", ("dualcomplex", "--input", "dangling.json"), 2,
        "dangling facet [E1+E2+E3]: facet 'ghost' does not exist\n", ("dangling.json",)),
    Row("dualcomplex-int-cell-id", ("dualcomplex", "--input", "intid.json"), 2,
        "invalid input: ", ("intid.json",)),
    Row("dualcomplex-nested-label", ("dualcomplex", "--input", "nestedlabel.json"), 2,
        "invalid input: ", ("nestedlabel.json",)),
    Row("dualcomplex-int-index", ("dualcomplex", "--input", "intindex.json"), 2,
        "invalid input: ", ("intindex.json",)),
    Row("dualcomplex-incoherent", ("dualcomplex", "--input", "incoherent.json"), 2,
        "invalid input: stratum 'ABC': incoherent parents, dropping 'A' then 'B' reaches "
        "'C#2' but 'B' then 'A' reaches 'C'\n", ("incoherent.json",)),
    Row("dualcomplex-parallel", ("dualcomplex", "--input", "parallel.json"), 0,
        inputs=("parallel.json",)),
    # A run stopped at its event ceiling leaves no trace file behind.
    Row("resolve-ceiling-1", ("resolve", "--input", "state.json", "--ceiling", "1",
                              "--trace", "ceiling.json"), 4,
        "event ceiling: ", ("state.json",), check=_absent("ceiling.json")),
    Row("verify-policy-env-bogus", ("verify", "--rule", "det"), 2,
        "invalid input: SNCRESOLVE_EXPONENT_POLICY='bogus' is not one of oracle, paper\n",
        env={"SNCRESOLVE_EXPONENT_POLICY": "bogus"}),
    Row("verify-policy-env-paper", ("verify", "--rule", "det"), 3,
        env={"SNCRESOLVE_EXPONENT_POLICY": "paper"}, check=_fails),
    # An input error is one stderr line `invalid input: ...`, and a verify
    # range past a cap one line `scale ceiling: ...`.
    Row("verify-huge-range", ("verify", "--rule", "det", "--m", "2..1000000000000"), 4,
        "scale ceiling: "),
    Row("verify-reversed-range", ("verify", "--rule", "det", "--m", "3..2"), 2,
        "invalid input: --m: '3..2' is an empty range\n"),
    Row("resolve-ceiling-0", ("resolve", "--input", "state.json", "--ceiling", "0"), 2,
        "invalid input: event ceiling must be an int >= 1, got 0\n", ("state.json",)),
    Row("resolve-ceiling-env", ("resolve", "--input", "state.json"), 2,
        "invalid input: SNCRESOLVE_CEILING='x' is not an integer\n", ("state.json",),
        env={"SNCRESOLVE_CEILING": "x"}),
    Row("resolve-without-input", ("resolve",), 2, "resolve needs --input\n"),
    Row("resolve-boolean-corank", ("resolve", "--input", "boolcorank.json"), 2,
        "invalid input: corank of stratum 'E1+E2' must be an integer >= 0, got True\n",
        ("boolcorank.json",)),
    Row("dualcomplex-repeated-key", ("dualcomplex", "--input", "repeated.json"), 2,
        "cannot read repeated.json: an object repeats the key 'id'\n", ("repeated.json",)),
    Row("resolve-stray-key", ("resolve", "--input", "stray.json"), 2,
        "invalid input: key 'note' is not part of an {snc, coranks} document\n",
        ("stray.json",)),
    *_undecodable_rows(),
    # A full device behind an output file or behind standard output.
    Row("gen-full-device", ("gen", "--out", "/dev/full"), 2, "cannot write /dev/full: " + FULL),
    Row("resolve-full-device", ("resolve", "--input", "state.json", "--trace", "/dev/full"), 2,
        "cannot write /dev/full: " + FULL, ("state.json",)),
    Row("dualcomplex-full-device", ("dualcomplex", "--input", "germ.json", "--dot",
                                    "/dev/full"), 2,
        "cannot write /dev/full: " + FULL, ("germ.json",)),
    *_standard_output_rows(),
    # An endless input is refused once it passes the input cap.
    Row("dualcomplex-endless-input", ("dualcomplex", "--input", "/dev/zero"), 2,
        "cannot read /dev/zero: the document is longer than 67108864 characters\n"),
)


# --------------------------------------------------------------------------
# the runner
# --------------------------------------------------------------------------

def _missing_device(row):
    return next((path for path in (*row.argv, row.stdout)
                 if path.startswith("/dev/") and not os.path.exists(path)), None)


def _runner(cache):
    """(the command's argv prefix, its environment) for this module's package.

    The runs share the bytecode that the first of them write under
    ``cache``: compiled afresh, the package would cost each run about 40 ms."""
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("SNCRESOLVE_") and name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(cache)
    if FROM_SOURCE:
        return [*INTERPRETER, "-m", "sncresolve"], dict(env, PYTHONPATH=str(CHECKOUT / "src"))
    script = shutil.which("sncresolve")
    if script is None:
        pytest.fail(f"sncresolve is imported from {sncresolve.__file__}, outside this "
                    "checkout, but no sncresolve script is on PATH")
    return [script], env


def _run(row, folder, command, env) -> Run:
    argv = [*INTERPRETER, *row.argv] if row.program == "python" else [*command, *row.argv]
    if row.stdout == "pipe":
        stdout = subprocess.PIPE
    elif row.stdout == "closed-pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)
    else:
        stdout = os.open(row.stdout, os.O_WRONLY)
    try:
        done = subprocess.run(argv, cwd=folder, env=dict(env, **(row.env or {})),
                              stdout=stdout, stderr=subprocess.PIPE, timeout=120)
    finally:
        if stdout != subprocess.PIPE:
            os.close(stdout)
    return Run(done.returncode, (done.stdout or b"").decode("utf-8"),
               done.stderr.decode("utf-8"), folder)


@pytest.fixture(scope="module")
def run_of(tmp_path_factory, documents):
    """The run of a row, by row name, once it has ended.  Every row is
    started at once, and two run at a time."""
    base = tmp_path_factory.mktemp("cli-rows")
    command, env = _runner(base / "bytecode")
    jobs = {}
    with ThreadPoolExecutor(max_workers=2) as pool:
        for row in ROWS:
            if _missing_device(row):
                continue
            folder = base / row.name
            folder.mkdir()
            for name in row.inputs:
                (folder / name).write_bytes(documents[name])
            jobs[row.name] = pool.submit(_run, row, folder, command, env)
        yield lambda name: jobs[name].result()


def test_row_names_are_unique_and_inputs_known():
    assert len({row.name for row in ROWS}) == len(ROWS)
    assert {name for row in ROWS for name in row.inputs} <= set(DOCUMENTS)


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_row(row, run_of):
    device = _missing_device(row)
    if device:
        pytest.skip(f"no {device} on this system")
    run = run_of(row.name)
    assert run.code == row.code, run.err
    if not row.err or row.err.endswith("\n"):
        assert run.err == row.err
    else:
        assert run.err.startswith(row.err) and run.err.count("\n") == 1, run.err
    if row.code in (2, 4):
        assert run.out == ""
    if row.check is not None:
        row.check(run, run_of)
