"""Command-line surface: outputs, exit codes, env overrides, round trips."""

import contextlib
import errno
import gc
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from sncresolve import chart_calculus as cc
from sncresolve import cli
from sncresolve import dual_complex as dc
from sncresolve import poly_oracle as po
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm

from oracles import canonical_dumps, moore_space_complex


@pytest.fixture()
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(sm.to_json_obj(sm.coordinate_germ(3))))
    return str(path)


@pytest.fixture()
def cycle_file(tmp_path):
    cyc = sm.from_index_sets(["E1", "E2", "E3"],
                             [{"E1", "E2"}, {"E2", "E3"}, {"E1", "E3"}])
    path = tmp_path / "cycle3.json"
    path.write_text(json.dumps(sm.to_json_obj(cyc)))
    return str(path)


@pytest.fixture()
def seed_file(tmp_path):
    germ = sm.coordinate_germ(3)
    coranks = {s.id: (2 if len(s.indices) == 3 else 1)
               for s in germ.strata if len(s.indices) >= 2}
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"snc": sm.to_json_obj(germ), "coranks": coranks}))
    return str(path)


# --------------------------------------------------------------------------
# dualcomplex
# --------------------------------------------------------------------------

def test_dualcomplex_triangle(triangle_file, capsys):
    assert cli.main(["dualcomplex", "--input", triangle_file]) == 0
    out = capsys.readouterr().out
    assert "cells: 3/3/1" in out
    assert "betti: 1 0 0" in out
    assert "Q-acyclic: yes" in out


def test_dualcomplex_cycle(cycle_file, capsys):
    assert cli.main(["dualcomplex", "--input", cycle_file]) == 0
    out = capsys.readouterr().out
    assert "betti: 1 1" in out
    assert "Q-acyclic: no" in out


def test_dualcomplex_dangling_facet_diagnostic(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"cells": [
        {"id": "v", "dim": 0, "facets": []},
        {"id": "e", "dim": 1, "facets": ["v", "ghost"]}]}))
    assert cli.main(["dualcomplex", "--input", str(bad)]) == cli.EXIT_INPUT
    err = capsys.readouterr().err
    assert "dangling facet" in err


def _count_complex_checks(monkeypatch):
    runs = []
    original = dc._find_violations
    monkeypatch.setattr(dc, "_find_violations",
                        lambda complex: runs.append(complex) or original(complex))
    return runs


def test_dualcomplex_checks_a_complex_document_once(tmp_path, capsys, monkeypatch):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(dc.to_json_obj(sm.dual_complex_of(sm.coordinate_germ(3)))))
    runs = _count_complex_checks(monkeypatch)
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_OK
    assert len(runs) == 1
    assert "betti: 1 0 0" in capsys.readouterr().out


def test_dualcomplex_never_checks_the_complex_of_a_variety(triangle_file, capsys,
                                                           monkeypatch):
    runs = _count_complex_checks(monkeypatch)
    assert cli.main(["dualcomplex", "--input", triangle_file]) == cli.EXIT_OK
    assert runs == []


def test_dualcomplex_prints_each_violation_of_a_complex_once(tmp_path, capsys,
                                                            monkeypatch):
    doc = {"cells": [{"id": "v", "dim": 0, "facets": []},
                     {"id": "e", "dim": 1, "facets": ["v", "ghost"]},
                     {"id": "f", "dim": 1, "facets": ["v"]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    runs = _count_complex_checks(monkeypatch)
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert len(runs) == 1
    want = [str(v) for v in dc.validate(dc.from_json_obj(doc))]
    assert len(want) == 2
    assert capsys.readouterr().err.splitlines() == want


def test_dualcomplex_unparseable_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["dualcomplex", "--input", str(bad)]) == cli.EXIT_INPUT


def test_dualcomplex_missing_input(capsys):
    assert cli.main(["dualcomplex"]) == cli.EXIT_INPUT


def test_dualcomplex_accepts_raw_complex_documents(tmp_path, capsys):
    doc = {"cells": [{"id": "v", "dim": 0, "facets": []}]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dualcomplex", "--input", str(path)]) == 0
    assert "betti: 1" in capsys.readouterr().out


# Complex documents whose ids are not all strings, once read by converting
# each id with str().
NON_STRING_COMPLEXES = [
    {"cells": [{"id": 7, "dim": 0}, {"id": [1], "dim": 0},
               {"id": "e", "dim": 1, "facets": [7, [1]]}]},
    {"cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1, "facets": ["v", 1]}]},
    {"cells": [{"id": "v", "dim": 0, "label": [["A"]]}]},
]


def _one_invalid_input_line(capsys):
    err = capsys.readouterr().err
    return err.startswith("invalid input: ") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"cells": 5},
    {"cells": [5]},
    {"cells": [["v", 0]]},
    {"cells": [{"id": "v", "dim": 0, "facets": 3}]},
    {"cells": [{"id": "v", "dim": 0, "label": "v"}]},
    {"cells": [{"id": "v", "dim": [0]}]},
    *NON_STRING_COMPLEXES,
    # A 1-cell listing three labels, two of them equal: read as a set, it
    # would pass the label-size check with two.
    {"cells": [{"id": "E1", "dim": 0, "label": ["E1"]}, {"id": "E2", "dim": 0, "label": ["E2"]},
               {"id": "E1+E2", "dim": 1, "facets": ["E1", "E2"], "label": ["E1", "E2", "E1"]}]},
])
def test_dualcomplex_malformed_cells_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert _one_invalid_input_line(capsys)


def test_dualcomplex_rejects_a_json_array(tmp_path, capsys):
    path = tmp_path / "array.json"
    path.write_text("[1, 2]")
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert "must be a variety document" in capsys.readouterr().err


def test_dualcomplex_duplicate_cell_id_exit_2(tmp_path, capsys):
    doc = dc.to_json_obj(sm.dual_complex_of(sm.coordinate_germ(2)))
    doc["cells"].append(dict(doc["cells"][0]))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "invalid input: duplicate cell id 'E1'\n"


def _variety_with(key, value):
    doc = sm.to_json_obj(sm.coordinate_germ(2))
    if key in ("indices", "parents"):
        doc["strata"][-1][key] = value
    else:
        doc[key] = value
    return doc


MALFORMED_VARIETIES = [
    {"components": ["E1"], "strata": ["x"]},
    _variety_with("indices", 5),
    _variety_with("components", 5),
    _variety_with("parents", [1]),
    # ids that are not strings, once converted with str()
    _variety_with("components", [1, "E2"]),
    {"components": [1, "E2"], "strata": [{"id": "1", "indices": ["1"]},
                                         {"id": "E2", "indices": ["E2"]}]},
    {"components": ["E1"], "strata": [{"id": 5, "indices": ["E1"]}]},
    _variety_with("indices", ["E1", 2]),
    _variety_with("parents", {"E1": 2, "E2": "E1"}),
    # an index listed twice, which a set of indices would hide
    _variety_with("indices", ["E2", "E2"]),
]


@pytest.mark.parametrize("doc", MALFORMED_VARIETIES)
def test_dualcomplex_malformed_variety_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert _one_invalid_input_line(capsys)


@pytest.mark.parametrize("doc", MALFORMED_VARIETIES)
def test_resolve_malformed_variety_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"snc": doc, "coranks": {}}))
    assert cli.main(["resolve", "--input", str(path)]) == cli.EXIT_INPUT
    assert _one_invalid_input_line(capsys)


def test_resolve_coranks_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"snc": sm.to_json_obj(sm.coordinate_germ(2)),
                                "coranks": 5}))
    assert cli.main(["resolve", "--input", str(path)]) == cli.EXIT_INPUT
    assert "invalid input" in capsys.readouterr().err


def test_resolve_an_snc_document_with_a_stray_key_exit_2(seed_file, capsys):
    with open(seed_file, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["note"] = 1
    with open(seed_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    assert cli.main(["resolve", "--input", seed_file]) == cli.EXIT_INPUT
    assert capsys.readouterr() == (
        "", "invalid input: key 'note' is not part of an {snc, coranks} document\n")


def test_dualcomplex_json_triangle(triangle_file, tmp_path, capsys):
    text_dot, json_dot = tmp_path / "text.dot", tmp_path / "json.dot"
    assert cli.main(["dualcomplex", "--input", triangle_file, "--dot", str(text_dot)]) == 0
    capsys.readouterr()
    assert cli.main(["dualcomplex", "--input", triangle_file, "--dot", str(json_dot),
                     "--json"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert json.loads(out) == {"cells": [3, 3, 1], "betti": [1, 0, 0],
                               "torsion": [[], [], []], "euler": 1,
                               "q_acyclic": True, "dot": str(json_dot)}
    assert out == json.dumps(json.loads(out), indent=1, sort_keys=True) + "\n"
    assert json_dot.read_bytes() == text_dot.read_bytes()


def test_dualcomplex_json_torsion(tmp_path, capsys, monkeypatch):
    path = tmp_path / "moore3.json"
    path.write_text(json.dumps(dc.to_json_obj(moore_space_complex(3))))
    monkeypatch.setenv("SNCRESOLVE_JSON", "yes")
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "cells": [2, 4, 3], "betti": [1, 0, 0], "torsion": [[], [3], []],
        "euler": 1, "q_acyclic": True, "dot": None}


def test_dualcomplex_json_bad_environment_value_exit_2(triangle_file, monkeypatch, capsys):
    monkeypatch.setenv("SNCRESOLVE_JSON", "maybe")
    assert cli.main(["dualcomplex", "--input", triangle_file]) == cli.EXIT_INPUT
    assert "SNCRESOLVE_JSON='maybe'" in capsys.readouterr().err


def test_dualcomplex_unwritable_dot_exit_2(triangle_file, tmp_path, capsys):
    # The --dot path is an existing directory.
    assert cli.main(["dualcomplex", "--input", triangle_file,
                     "--dot", str(tmp_path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write") and captured.err.count("\n") == 1


# --------------------------------------------------------------------------
# resolve
# --------------------------------------------------------------------------

def test_resolve_triangle(seed_file, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", seed_file, "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "dual complex preserved: yes" in out
    assert "all resolved" in out
    doc = json.loads(trace.read_text())
    assert re_.replay_trace(doc).ok


def test_resolve_streams_the_trace_without_building_the_document(seed_file, tmp_path,
                                                                 monkeypatch):
    trace_to_obj = re_.trace_to_obj

    def no_document(*args):
        raise AssertionError("resolve built the whole trace document")
    monkeypatch.setattr(re_, "trace_to_obj", no_document)
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", seed_file, "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    seed = re_.state_from_obj(doc["seed"])
    final, events = re_.run(seed, re_.RunConfig())
    assert doc == trace_to_obj(seed, events, final, re_.RunConfig())


def test_resolve_unwritable_trace_exit_2_before_the_run(seed_file, tmp_path, capsys,
                                                       monkeypatch):
    def no_run(*args):
        raise AssertionError("resolve ran with an unwritable trace path")
    monkeypatch.setattr(re_, "run", no_run)
    trace = tmp_path / "missing" / "trace.json"
    assert cli.main(["resolve", "--input", seed_file,
                     "--trace", str(trace)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write") and captured.err.count("\n") == 1


def test_resolve_double_point_event_count(tmp_path, capsys):
    snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
    path = tmp_path / "dp.json"
    path.write_text(json.dumps({"snc": sm.to_json_obj(snc),
                                "coranks": {"E1+E2": 1}}))
    assert cli.main(["resolve", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "events: 1" in out
    assert "final charts: 2" in out


def test_ceiling_can_stop_a_terminating_run(tmp_path, capsys):
    # A double point of corank c takes ceil(c(c+2)/4) events: 30 at c = 10.
    snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
    path = tmp_path / "dp10.json"
    path.write_text(json.dumps({"snc": sm.to_json_obj(snc),
                                "coranks": {"E1+E2": 10}}))
    assert cli.main(["resolve", "--input", str(path), "--ceiling", "30"]) == cli.EXIT_OK
    assert "events: 30" in capsys.readouterr().out
    assert cli.main(["resolve", "--input", str(path),
                     "--ceiling", "29"]) == cli.EXIT_SCALE
    assert "ceiling" in capsys.readouterr().err


def test_resolve_ceiling_exit_code(seed_file, capsys):
    assert cli.main(["resolve", "--input", seed_file,
                     "--ceiling", "1"]) == cli.EXIT_SCALE
    assert "ceiling" in capsys.readouterr().err


@pytest.mark.parametrize("existing", [None, "kept\n"])
def test_resolve_failure_leaves_no_trace_file_behind(seed_file, tmp_path, capsys, existing):
    # A fresh file that the probe created goes; one that was there stays as it was.
    trace = tmp_path / "trace.json"
    if existing is not None:
        trace.write_text(existing)
    assert cli.main(["resolve", "--input", seed_file, "--ceiling", "1",
                     "--trace", str(trace)]) == cli.EXIT_SCALE
    assert "ceiling" in capsys.readouterr().err
    if existing is None:
        assert not trace.exists()
    else:
        assert trace.read_text() == existing


def _scale_error(*args):
    raise po.ScaleError("capped")


def _crash(*args):
    raise RuntimeError("crash")


@pytest.mark.parametrize("existing", [None, "kept\n"])
@pytest.mark.parametrize("fail", [_scale_error, _crash])
@pytest.mark.parametrize("command", ["dualcomplex", "gen"])
def test_failing_command_leaves_no_output_file_behind(triangle_file, tmp_path, capsys,
                                                      monkeypatch, command, fail, existing):
    out = tmp_path / "out.txt"
    if existing is not None:
        out.write_text(existing)
    if command == "dualcomplex":
        monkeypatch.setattr(dc, "homology", fail)
    else:
        monkeypatch.setattr(re_, "state_to_obj", fail)
    argv = (["dualcomplex", "--input", triangle_file, "--dot", str(out)]
            if command == "dualcomplex" else ["gen", "--out", str(out)])
    if fail is _crash:
        with pytest.raises(RuntimeError):
            cli.main(argv)
    else:
        assert cli.main(argv) == cli.EXIT_SCALE
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text() == existing


def test_resolve_invariant_breach_exit_3_leaves_no_trace(seed_file, tmp_path, capsys,
                                                        monkeypatch):
    # A child whose mdeg does not drop breaks the event's lex certificate.
    monkeypatch.setattr(cc, "children",
                        lambda chart, app, policy: [cc.ChildChart(chart, 1, "x")])
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", seed_file,
                     "--trace", str(trace)]) == cli.EXIT_BREACH
    err = capsys.readouterr().err
    assert "lex certificate violated" in err
    assert "offending certificate: " in err
    assert not trace.exists()


def test_resolve_bad_config_exit_2(seed_file, capsys):
    assert cli.main(["resolve", "--input", seed_file,
                     "--ceiling", "0"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == "invalid input: event ceiling must be an int >= 1, got 0\n"


@pytest.mark.parametrize("argv, flag", [(["dualcomplex"], "--input"),
                                        (["verify"], "--rule")])
def test_missing_required_flag_exit_2(capsys, argv, flag):
    assert cli.main(argv) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"{argv[0]} needs {flag}\n"


def test_unwritable_output_is_reported_before_bad_input(tmp_path, capsys):
    # The output probe runs before the input is read, so with both wrong
    # the message names the output; the exit code is 2 either way.
    junk = tmp_path / "junk.json"
    junk.write_text("{")
    trace = tmp_path / "missing" / "trace.json"
    assert cli.main(["resolve", "--input", str(junk),
                     "--trace", str(trace)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.startswith("cannot write")


def test_resolve_names_the_first_divisor_past_the_registry(tmp_path):
    snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
    state = re_.with_initial_divisors(re_.seed_from_snc(snc, {"E1+E2": 3}),
                                      [("w1", 2)], {0: ["w1"]})
    path = tmp_path / "state.json"
    path.write_text(json.dumps(re_.state_to_obj(state)))
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", str(path), "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert doc["events"][0]["exceptional"] == "w2"
    assert re_.replay_trace(doc).ok


def test_resolve_bad_input_exit_code(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"surprise": True}))
    assert cli.main(["resolve", "--input", str(path)]) == cli.EXIT_INPUT


def _state_doc_with_divisor():
    snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
    state = re_.with_initial_divisors(re_.seed_from_snc(snc, {"E1+E2": 1}),
                                      [("f1", 2)], {0: ["f1"]})
    return re_.state_to_obj(state)


@pytest.mark.parametrize("path, value", [
    (("charts", 0, "count"), "3"),
    (("charts", 0, "chart", "m"), "1"),
    (("charts", 0, "chart", "x"), [1, 2]),
    (("charts", 0, "chart", "x"), "E1"),
    (("charts", 0, "chart", "a"), {"f1": "2"}),
    (("charts", 0, "chart", "a"), [["f1", 2]]),
    (("charts", 0), 5),
    (("charts",), {"E1": 1}),
    (("registry", 0, "coeff"), "2"),
    (("registry", 0, "id"), 7),
    (("registry", 0, "birth"), "seed"),
    (("registry", 0), ["f1", 2]),
    (("registry",), {"f1": 2}),
    (("dual",), {"cells": 5}),
    *((("dual",), doc) for doc in NON_STRING_COMPLEXES),
])
def test_resolve_malformed_state_document_exit_2(tmp_path, capsys, path, value):
    doc = _state_doc_with_divisor()
    assert re_.state_from_obj(json.loads(json.dumps(doc)))  # well-formed as built
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    file = tmp_path / "state.json"
    file.write_text(json.dumps(doc))
    assert cli.main(["resolve", "--input", str(file)]) == cli.EXIT_INPUT
    assert _one_invalid_input_line(capsys)


def test_resolve_a_state_document_with_a_stray_key_exit_2(tmp_path, capsys):
    doc = _state_doc_with_divisor()
    doc["extra"] = 1
    file = tmp_path / "state.json"
    file.write_text(json.dumps(doc))
    assert cli.main(["resolve", "--input", str(file)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err \
        == "invalid input: state key 'extra' is not part of a state document\n"


def _with(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _chart_doc_with_six_ids(m):
    chart = {"x": [f"E{i}" for i in range(1, 7)], "m": m, "a": {}}
    return _with(_state_doc_with_divisor(), ("charts", 0, "chart"), chart)


def _variety_doc_with_an_int_index():
    comps = ["E1", "E2", "E3"]
    family = [set(s) for k in (1, 2, 3) for s in itertools.combinations(comps, k)]
    doc = sm.to_json_obj(sm.from_index_sets(comps, family))
    top = max(doc["strata"], key=lambda e: len(e["indices"]))
    top["indices"][0] = 1
    return doc


@pytest.mark.parametrize("command, doc", [
    ("resolve", _chart_doc_with_six_ids(None)),
    ("resolve", _chart_doc_with_six_ids(True)),
    ("resolve", _chart_doc_with_six_ids("3")),
    ("dualcomplex", _variety_doc_with_an_int_index()),
    ("dualcomplex", {"cells": [{"id": "v", "dim": 0, "label": ["A", 1, "B", "C"]}]}),
], ids=["m-null", "m-true", "m-str", "int-index", "int-label"])
def test_a_record_out_of_form_prints_one_line_under_every_hash_seed(tmp_path, command, doc):
    # Each record holds a set of ids whose iteration order differs under
    # PYTHONHASHSEED 1 and 2; the message must not.
    file = tmp_path / "doc.json"
    file.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    errs = set()
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-m", "sncresolve", command, "--input", str(file)],
                              capture_output=True, env=env, timeout=120)
        err = done.stderr.decode()
        assert done.returncode == cli.EXIT_INPUT and done.stdout == b"", err
        assert err.startswith("invalid input: ") and err.count("\n") == 1, err
        errs.add(err)
    assert len(errs) == 1, errs


def test_resolve_accepts_generated_states(tmp_path, capsys):
    state = cli.random_state(random.Random(5))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(re_.state_to_obj(state)))
    assert cli.main(["resolve", "--input", str(path)]) == 0


def _gen_doc(seed):
    return re_.state_to_obj(cli.random_state(random.Random(seed)))


def _resolve_refuses(doc, tmp_path, capsys, message):
    path, trace = tmp_path / "state.json", tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["resolve", "--input", str(path), "--trace", str(trace)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {message}\n"
    assert not trace.exists()


def test_resolve_refuses_a_state_with_an_invalid_dual_complex(tmp_path, capsys):
    doc = _gen_doc(3)
    edge = next(c for c in doc["dual"]["cells"] if c["id"] == "E1+E2")
    edge["facets"][0] = "ghost"
    _resolve_refuses(doc, tmp_path, capsys,
                     "dangling facet [E1+E2]: facet 'ghost' does not exist")


def test_resolve_refuses_a_chart_repeating_an_x_index(tmp_path, capsys):
    doc = _gen_doc(3)
    doc["charts"][0]["chart"]["x"] = ["E1", "E1"]
    _resolve_refuses(doc, tmp_path, capsys, "chart 'x' repeats an id, got ['E1', 'E1']")


def test_resolve_refuses_a_chart_whose_x_indices_span_no_cell(tmp_path, capsys):
    doc = _gen_doc(3)
    doc["dual"]["cells"] = [c for c in doc["dual"]["cells"] if c["id"] != "E1+E2"]
    _resolve_refuses(doc, tmp_path, capsys,
                     "chart Chart[x:E1,E2|m:1|z:f1^3] uses x-indices ['E1', 'E2'] "
                     "that span no cell of the dual complex")


@pytest.mark.parametrize("second, extra", [
    (3, ""),
    (4, "; chart Chart[x:E1,E2|m:1|z:f1^3] carries 'f1'^3 but the registry "
        "coefficient is 4"),
])
def test_resolve_refuses_a_registry_listing_a_divisor_twice(tmp_path, capsys, second, extra):
    doc = _gen_doc(3)
    (entry,) = doc["registry"]
    doc["registry"].append(dict(entry, coeff=second))
    _resolve_refuses(doc, tmp_path, capsys, "divisor 'f1' is registered 2 times" + extra)


# One field of a state document: (part, position, key).  Positions wrap
# around the part's length; a cell's "facet" is one entry of its facets.
_STATE_FIELDS = st.one_of(*(
    st.tuples(st.just(part), st.integers(0, 30), st.sampled_from(keys))
    for part, keys in (("cells", ["facet", "dim"]),
                       ("registry", ["id", "coeff", "birth"]),
                       ("charts", ["x", "m", "a", "count"]))))
_FIELD_VALUES = st.one_of(st.integers(-2, 6), st.sampled_from([
    "E1", "E2", "E9", "f1", "f2", "w1", "ghost", "", None, True, 1.5,
    [], ["E1"], ["E1", "E2"], ["E2", "E9"], [1, 2],
    {}, {"f1": 2}, {"f1": "2"}, {"f1": 0}, {"ghost": 1}]))


def _change_field(doc, field, value) -> bool:
    """Set one field of a state document; False if it has no such field."""
    part, pos, key = field
    items = doc["dual"]["cells"] if part == "cells" else doc[part]
    if not items:
        return False
    item = items[pos % len(items)]
    if key == "facet":
        facets = item["facets"]
        if facets:
            facets[pos % len(facets)] = value
        else:
            facets.append(value)
    elif part == "charts" and key != "count":
        item["chart"][key] = value
    else:
        item[key] = value
    return True


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), _STATE_FIELDS, _FIELD_VALUES)
@example(3, ("cells", 2, "facet"), "ghost")    # a dangling facet
@example(14, ("registry", 1, "id"), "f1")      # 'f1' registered twice
def test_resolve_never_crashes_on_a_changed_state_document(tmp_path_factory, seed, field,
                                                           value):
    doc = _gen_doc(seed)
    assume(_change_field(doc, field, value))
    path = tmp_path_factory.mktemp("fuzz") / "state.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["resolve", "--input", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == cli.EXIT_OK:
        # What resolve accepts is consistent: a valid complex, distinct ids.
        assert not dc.validate(dc.from_json_obj(doc["dual"]))
        ids = [entry["id"] for entry in doc["registry"]]
        assert len(set(ids)) == len(ids)


def test_resolve_policy_flag_recorded_in_trace(seed_file, tmp_path):
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", seed_file, "--trace", str(trace),
                     "--exponent-policy", "paper"]) == 0
    doc = json.loads(trace.read_text())
    assert doc["config"]["exponent_policy"] == "paper"
    assert re_.replay_trace(doc).ok


def test_resolve_ordering_flag(seed_file, tmp_path):
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", seed_file, "--trace", str(trace),
                     "--ordering", "E3,E2,E1"]) == 0
    doc = json.loads(trace.read_text())
    assert doc["config"]["ordering"] == ["E3", "E2", "E1"]
    assert doc["events"][0]["rule"]["pair"] == ["E3", "E2"]


def test_env_override_supplies_policy(seed_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SNCRESOLVE_EXPONENT_POLICY", "paper")
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", seed_file, "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert doc["config"]["exponent_policy"] == "paper"


def test_explicit_flag_beats_env(seed_file, tmp_path, monkeypatch):
    monkeypatch.setenv("SNCRESOLVE_EXPONENT_POLICY", "paper")
    trace = tmp_path / "trace.json"
    assert cli.main(["resolve", "--input", seed_file, "--trace", str(trace),
                     "--exponent-policy", "oracle"]) == 0
    doc = json.loads(trace.read_text())
    assert doc["config"]["exponent_policy"] == "oracle"


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def test_verify_mon1_grid(capsys):
    assert cli.main(["verify", "--rule", "mon1", "--d", "2", "--a", "2..4"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out and "FAIL" not in out


def test_verify_det_prints_measured_exponents(capsys):
    assert cli.main(["verify", "--rule", "det", "--m", "2", "--d", "2..3"]) == 0
    out = capsys.readouterr().out
    assert "exc-exp" in out
    assert "m^2-2 = 2" in out  # the discrepancy note


def test_verify_rejects_out_of_scale(capsys):
    assert cli.main(["verify", "--rule", "det", "--m", "7"]) == cli.EXIT_SCALE
    assert "capped" in capsys.readouterr().err


def test_verify_caps_only_the_range_the_rule_uses(capsys):
    # BIN and MON2 grids ignore m and a, so those caps do not apply there.
    assert cli.main(["verify", "--rule", "bin", "--m", "2..4"]) == cli.EXIT_OK
    assert cli.main(["verify", "--rule", "mon2", "--a", "5"]) == cli.EXIT_OK
    capsys.readouterr()
    assert cli.main(["verify", "--rule", "det", "--m", "2..4"]) == cli.EXIT_SCALE
    assert "det size capped" in capsys.readouterr().err
    # An unused range is still parsed: reversed, it is bad input.
    assert cli.main(["verify", "--rule", "bin", "--m", "4..2"]) == cli.EXIT_INPUT


@pytest.mark.parametrize("argv, code", [
    (["--rule", "det", "--d", "1"], cli.EXIT_INPUT),
    (["--rule", "mon1", "--a", "1"], cli.EXIT_INPUT),
    (["--rule", "det", "--d", "5"], cli.EXIT_SCALE),
    (["--rule", "mon1", "--a", "5"], cli.EXIT_SCALE),
])
def test_verify_grid_bounds(capsys, argv, code):
    assert cli.main(["verify", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["--rule", "det", "--m", "2..1000000000000"], cli.EXIT_SCALE),
    (["--rule", "bin", "--m", "2..1000000000000"], cli.EXIT_OK),
    (["--rule", "det", "--d", "2..1000000000000"], cli.EXIT_SCALE),
    (["--rule", "det", "--m", "1000000000000..2"], cli.EXIT_INPUT),
])
def test_verify_huge_ranges_are_never_enumerated(capsys, argv, code):
    # Enumerating 10**12 values would exhaust memory long before a second.
    start = time.perf_counter()
    assert cli.main(["verify", *argv]) == code
    assert time.perf_counter() - start < 1.0


def test_verify_paper_policy_fails_loudly(capsys):
    code = cli.main(["verify", "--rule", "det", "--m", "2", "--d", "2",
                     "--exponent-policy", "paper"])
    assert code == cli.EXIT_BREACH
    assert "FAIL" in capsys.readouterr().out


def test_verify_catches_a_wrong_det_sign(monkeypatch, capsys):
    # A chart's only sign is its pivot's cofactor sign, so a local equation
    # with -det(y) at m = 2 fails the y-charts whose pivot has r + s even.
    det_factor = cc._det_factor
    monkeypatch.setattr(cc, "_det_factor",
                        lambda m: -det_factor(m) if m == 2 else det_factor(m))
    reports = [po.verify_rule(app, chart, policy="oracle")
               for app, chart in cli._verify_grid("det", [2], [2, 3, 4], [2], "oracle")]
    assert any(not c.child_matches for r in reports for c in r.checks)
    assert cli.main(["verify", "--rule", "det", "--m", "2"]) == cli.EXIT_BREACH


@pytest.mark.parametrize("flag", ["m", "d", "a"])
def test_verify_reversed_range_exit_2(capsys, flag):
    assert cli.main(["verify", "--rule", "det", f"--{flag}", "3..2"]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == f"invalid input: --{flag}: '3..2' is an empty range\n"


@pytest.mark.parametrize("flag", ["m", "d", "a"])
@pytest.mark.parametrize("text", ["x", "2..x", "2..", "1.5", ""])
def test_verify_non_integer_range_exit_2(capsys, flag, text):
    assert cli.main(["verify", "--rule", "det", f"--{flag}", text]) == cli.EXIT_INPUT
    assert (capsys.readouterr().err
            == f"invalid input: --{flag}: {text!r} is not an integer range\n")


def test_verify_unknown_rule(capsys):
    assert cli.main(["verify", "--rule", "frobnicate"]) == cli.EXIT_INPUT


def test_verify_json_passing_grid(capsys):
    assert cli.main(["verify", "--rule", "mon1", "--d", "2..3", "--a", "2..4",
                     "--json"]) == cli.EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 6
    assert all(r["rule"] == "MON1" and r["passed"] for r in reports)
    assert [r["chart"]["a"] for r in reports[:3]] == [{"f1": 2}, {"f1": 3}, {"f1": 4}]
    assert all(c["passed"] for r in reports for c in r["checks"])


def test_verify_json_det_paper_fails_with_six_reports(capsys):
    assert cli.main(["verify", "--rule", "det", "--exponent-policy", "paper",
                     "--json"]) == cli.EXIT_BREACH
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 6
    assert [r["passed"] for r in reports] == [False] * 6
    assert all(r["policy"] == "paper" and r["notes"] for r in reports)


def test_verify_json_environment_mirror(monkeypatch, capsys):
    monkeypatch.setenv("SNCRESOLVE_JSON", "1")
    assert cli.main(["verify", "--rule", "bin", "--d", "2"]) == cli.EXIT_OK
    assert [r["rule"] for r in json.loads(capsys.readouterr().out)] == ["BIN", "BIN"]
    monkeypatch.setenv("SNCRESOLVE_JSON", "0")
    assert cli.main(["verify", "--rule", "bin", "--d", "2"]) == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("rule ")


def test_verify_json_bad_environment_value_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("SNCRESOLVE_JSON", "maybe")
    assert cli.main(["verify", "--rule", "bin"]) == cli.EXIT_INPUT
    assert "SNCRESOLVE_JSON='maybe'" in capsys.readouterr().err


# --------------------------------------------------------------------------
# gen
# --------------------------------------------------------------------------

def test_gen_writes_a_runnable_state(tmp_path, capsys):
    out = tmp_path / "state.json"
    assert cli.main(["gen", "--seed", "11", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    state = re_.state_from_obj(doc)
    final, _ = re_.run(state)
    assert final.is_finished()


@pytest.mark.parametrize("name", ["SNCRESOLVE_CEILING", "SNCRESOLVE_SEED"])
def test_non_integer_environment_value_exit_2(monkeypatch, capsys, name):
    monkeypatch.setenv(name, "abc")
    assert cli.main(["gen"]) == cli.EXIT_INPUT
    assert f"{name}='abc'" in capsys.readouterr().err


def test_the_parser_follows_the_environment_from_call_to_call(monkeypatch, capsys):
    monkeypatch.setenv("SNCRESOLVE_EXPONENT_POLICY", "paper")
    assert cli.main(["verify", "--rule", "det"]) == cli.EXIT_BREACH
    monkeypatch.delenv("SNCRESOLVE_EXPONENT_POLICY")
    assert cli.main(["verify", "--rule", "det"]) == cli.EXIT_OK
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()
    # A bad value set after a good parser was cached still fails first.
    monkeypatch.setenv("SNCRESOLVE_EXPONENT_POLICY", "bogus")
    assert cli.main(["verify", "--rule", "det"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid input: SNCRESOLVE_EXPONENT_POLICY="
                            "'bogus' is not one of oracle, paper\n")


# sha256 of each --help text at 80 columns, recorded with Python 3.11 from
# the parser that was built afresh on every call.
HELP_SHA256 = {
    (): "2e270fa906513861495e509b8f9718e6b11ff10efa07ec37fc6459972e6c8226",
    ("dualcomplex",): "5109c49ac669348374306f9acb7b1422c990bbb85dfa78ec96b96cf9c1b2e3fc",
    ("resolve",): "4898b97a1be18dc2e72fac6c2b1b386930c22d8fd97858627e3b55640524d103",
    ("verify",): "36ce603c766c339cd40befce44eaff77fa409d8d6863efd5c0b9af5db31117b0",
    ("gen",): "c38bb4023bc9a80774873f65453afa447488263c38071e85346f147b96315a14",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_is_the_same_from_a_fresh_and_a_cached_parser(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "80")
    cli._parser.cache_clear()
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            cli.main([*command, "--help"])
        assert exit_.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    if sys.version_info[:2] == (3, 11):
        assert hashlib.sha256(texts[0].encode("utf-8")).hexdigest() == HELP_SHA256[command]


def test_unknown_environment_policy_exit_2(monkeypatch, capsys):
    # argparse checks ``choices`` only on the command line, not on defaults.
    monkeypatch.setenv("SNCRESOLVE_EXPONENT_POLICY", "bogus")
    assert cli.main(["resolve", "--input", "state.json"]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("invalid input: SNCRESOLVE_EXPONENT_POLICY="
                            "'bogus' is not one of oracle, paper\n")


def test_gen_unwritable_out_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "state.json"
    assert cli.main(["gen", "--seed", "11", "--out", str(out)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write") and captured.err.count("\n") == 1
    assert not out.parent.exists()


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    cli.main(["gen", "--seed", "7", "--out", str(a)])
    cli.main(["gen", "--seed", "7", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_gen_respects_bounds():
    for seed in range(40):
        state = cli.random_state(random.Random(seed))
        for chart, _ in state.charts:
            assert len(chart.x_indices) <= 5
            assert chart.det_size <= 3
            assert sum(a for _, a in chart.exponents) <= 6


def test_emitted_json_reparses_to_equal_value(seed_file, tmp_path):
    trace = tmp_path / "trace.json"
    cli.main(["resolve", "--input", seed_file, "--trace", str(trace)])
    doc = json.loads(trace.read_text())
    seed = re_.state_from_obj(doc["seed"])
    assert canonical_dumps(re_.state_to_obj(seed)) \
        == canonical_dumps(doc["seed"])


# --------------------------------------------------------------------------
# the failure boundary: reading the input, writing files and standard output
# --------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["dualcomplex", "resolve"])
def test_a_long_integer_input_exits_2_with_one_line(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_bytes(b'{"cells": [' + b"9" * 5000 + b"]}")
    assert cli.main([command, "--input", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read {path}: ")
    assert captured.err.count("\n") == 1


def test_an_endless_input_exits_2_with_one_line(capsys):
    if not os.path.exists("/dev/zero"):
        pytest.skip("no /dev/zero on this system")
    assert cli.main(["resolve", "--input", "/dev/zero"]) == cli.EXIT_INPUT
    assert capsys.readouterr() == ("", "cannot read /dev/zero: the document is longer "
                                       f"than {cli._INPUT_CAP} characters\n")


def test_a_small_input_is_read_without_reserving_the_cap(triangle_file, capsys):
    # One read of the whole cap would reserve 2**26 characters up front.
    cli.main(["dualcomplex", "--input", triangle_file])  # the parser and modules, warm
    tracemalloc.start()
    try:
        assert cli.main(["dualcomplex", "--input", triangle_file]) == cli.EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert "betti: 1 0 0" in capsys.readouterr().out


def test_an_input_at_the_cap_is_read(tmp_path, capsys, monkeypatch):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(sm.to_json_obj(sm.coordinate_germ(3))))
    monkeypatch.setattr(cli, "_INPUT_CAP", len(path.read_text()))
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_OK
    monkeypatch.setattr(cli, "_INPUT_CAP", cli._INPUT_CAP - 1)
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err == (f"cannot read {path}: the document is longer "
                                       f"than {cli._INPUT_CAP} characters\n")


def _state_text_repeating_an_id():
    """A state document whose chart's 'a' map lists divisor f1 twice; its
    last value is the registry's coefficient, so json alone reads a valid
    state."""
    text = json.dumps(_state_doc_with_divisor())
    assert text.count('"a": {"f1": 2}') == 1
    return text.replace('"a": {"f1": 2}', '"a": {"f1": 3, "f1": 2}')


def test_an_object_repeating_a_key_exits_2_with_one_line(tmp_path, capsys):
    # json alone would keep the last value and run on it.
    path = tmp_path / "input.json"
    path.write_text(_state_text_repeating_an_id())
    assert cli.main(["resolve", "--input", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr() == (
        "", f"cannot read {path}: an object repeats the key 'f1'\n")


class _FullFile(io.StringIO):
    """A file on a full device: every write fails."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


class _FullAfterOneWrite(io.StringIO):
    """A file on a device that fills up once one write has gone through."""

    def __init__(self):
        super().__init__()
        self.accepted = []

    def write(self, text):
        if self.accepted:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.accepted.append(text)
        return len(text)


@pytest.fixture()
def double_point_file(tmp_path):
    """The double point at corank 40, whose trace is streamed in many writes."""
    snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
    path = tmp_path / "double_point.json"
    path.write_text(json.dumps({"snc": sm.to_json_obj(snc), "coranks": {"E1+E2": 40}}))
    return str(path)


@pytest.mark.parametrize("existing", [None, "kept\n"])
@pytest.mark.parametrize("command", ["gen", "resolve", "dualcomplex", "resolve-streamed"])
def test_a_write_failing_after_the_probe_exits_2(seed_file, triangle_file, double_point_file,
                                                 tmp_path, capsys, monkeypatch, command,
                                                 existing):
    out = tmp_path / "out.txt"
    if existing is not None:
        out.write_text(existing)
    argv = {"gen": ["gen", "--out", str(out)],
            "resolve": ["resolve", "--input", seed_file, "--trace", str(out)],
            "dualcomplex": ["dualcomplex", "--input", triangle_file, "--dot", str(out)],
            "resolve-streamed": ["resolve", "--input", double_point_file, "--trace", str(out)]}
    # A streamed trace fails part way: its first write goes through.
    device = _FullAfterOneWrite if command == "resolve-streamed" else _FullFile
    opened = []
    real_open = open

    def full_device_open(path, mode="r", **kwargs):
        # The probe appends and the input is read as usual; only the write fails.
        if mode != "w":
            return real_open(path, mode, **kwargs)
        opened.append(device())
        return opened[-1]

    monkeypatch.setattr(cli, "open", full_device_open, raising=False)
    assert cli.main(argv[command]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.err == f"cannot write {out}: [Errno 28] No space left on device\n"
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_text() == existing
    if command == "resolve-streamed":
        (handle,) = opened
        assert handle.accepted[0].startswith('{\n "assumptions": [')


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))


def test_a_failed_write_to_a_replaced_standard_output_exits_2(capsys):
    with contextlib.redirect_stdout(_ClosedPipe()):
        code = cli.main(["gen", "--seed", "5"])
    assert code == cli.EXIT_INPUT
    assert capsys.readouterr().err == "cannot write standard output: [Errno 32] Broken pipe\n"


# --------------------------------------------------------------------------
# the cycle collector
# --------------------------------------------------------------------------

@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("case", ["exit 0", "exit 2", "exit 3", "exit 4", "help",
                                  "failing write", "escaping error"])
def test_main_leaves_the_collector_as_it_found_it(seed_file, triangle_file, capsys, monkeypatch,
                                                  collecting, case):
    argv, code = {
        "exit 0": (["dualcomplex", "--input", triangle_file], cli.EXIT_OK),
        "exit 2": (["dualcomplex", "--input", seed_file], cli.EXIT_INPUT),
        "exit 3": (["verify", "--rule", "det", "--exponent-policy", "paper"], cli.EXIT_BREACH),
        "exit 4": (["resolve", "--input", seed_file, "--ceiling", "1"], cli.EXIT_SCALE),
        "help": (["--help"], SystemExit),
        "failing write": (["gen", "--seed", "5"], cli.EXIT_INPUT),
        "escaping error": (["dualcomplex", "--input", triangle_file], RuntimeError),
    }[case]
    if case == "failing write":
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    if case == "escaping error":
        monkeypatch.setattr(dc, "homology", _crash)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        if isinstance(code, int):
            assert cli.main(argv) == code
        else:
            with pytest.raises(code):
                cli.main(argv)
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_main_holds_the_collector_off_while_a_command_runs(triangle_file, capsys, monkeypatch):
    seen, parse = [], sm.from_json_obj
    monkeypatch.setattr(sm, "from_json_obj", lambda doc: seen.append(gc.isenabled()) or parse(doc))
    collecting = gc.isenabled()
    assert cli.main(["dualcomplex", "--input", triangle_file]) == cli.EXIT_OK
    assert seen == [False] and gc.isenabled() is collecting


def _cyclic_garbage(argv, code) -> int:
    """The objects that ``gc.collect`` frees after one ``main`` call run
    with the collector off: what a held-off collector lets pile up."""
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == code
        return gc.collect()
    finally:
        (gc.enable if collecting else gc.disable)()


def test_holding_the_collector_off_leaves_garbage_that_does_not_grow_with_the_run(tmp_path,
                                                                                   capsys):
    germ = sm.coordinate_germ(5)
    coranks = {s.id: min(3, len(s.indices) - 1) for s in germ.strata if len(s.indices) >= 2}
    seed = tmp_path / "germ5.json"
    seed.write_text(json.dumps({"snc": sm.to_json_obj(germ), "coranks": coranks}))
    variety = tmp_path / "germ10.json"
    variety.write_text(json.dumps(sm.to_json_obj(sm.coordinate_germ(10))))
    stopped = ["resolve", "--input", str(seed), "--exponent-policy", "paper", "--ceiling"]
    _cyclic_garbage(stopped + ["100"], cli.EXIT_SCALE)  # the first call builds the parser
    assert (_cyclic_garbage(stopped + ["100"], cli.EXIT_SCALE)
            == _cyclic_garbage(stopped + ["300"], cli.EXIT_SCALE))
    assert _cyclic_garbage(["dualcomplex", "--input", str(variety)], cli.EXIT_OK) == 0
    # Writing a trace leaves a fixed few (the json module's encoder closures).
    traces = []
    for corank in (20, 40):  # 110 and 420 events
        snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
        path = tmp_path / f"dp{corank}.json"
        path.write_text(json.dumps({"snc": sm.to_json_obj(snc), "coranks": {"E1+E2": corank}}))
        argv = ["resolve", "--input", str(path), "--trace", str(tmp_path / "trace.json")]
        traces.append(_cyclic_garbage(argv, cli.EXIT_OK))
    assert traces[0] == traces[1]
    capsys.readouterr()


def _boundary_texts():
    """The documents whose text the read boundary is fuzzed with: ``gen``
    states, the germ-3 variety and its complex document."""
    germ = sm.coordinate_germ(3)
    docs = [re_.state_to_obj(cli.random_state(random.Random(seed))) for seed in (0, 5, 14)]
    docs += [sm.to_json_obj(germ), dc.to_json_obj(sm.dual_complex_of(germ))]
    return [json.dumps(doc).encode() for doc in docs]


# An integer literal: digits that do not continue an id or another number.
_INTEGER = re.compile(rb'(?<![\w"])\d+')


@st.composite
def _corrupted_texts(draw):
    """A document's text truncated, with a ``\\xff`` byte inserted, wrapped
    in k arrays, or with one integer made 5000 digits long: no corruption
    yields a number the decoder accepts, so no run grows."""
    text = draw(st.sampled_from(_boundary_texts()))
    kind = draw(st.sampled_from(["truncate", "xff", "wrap", "long-integer"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    if kind == "xff":
        at = draw(st.integers(0, len(text)))
        return text[:at] + b"\xff" + text[at:]
    if kind == "wrap":
        k = draw(st.integers(1, 3000))
        return b"[" * k + text + b"]" * k
    spans = [m.span() for m in _INTEGER.finditer(text)]
    assume(spans)
    lo, hi = draw(st.sampled_from(spans))
    return text[:lo] + b"9" * 5000 + text[hi:]


@settings(max_examples=80, deadline=None)
@given(_corrupted_texts(), st.sampled_from(["dualcomplex", "resolve"]))
@example(b"[" * 100_000 + b"]" * 100_000, "resolve")
def test_the_read_boundary_maps_every_corruption_to_an_exit_code(tmp_path_factory, text,
                                                                 command):
    path = tmp_path_factory.mktemp("boundary") / "input.json"
    path.write_bytes(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--input", str(path)])
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_BREACH, cli.EXIT_SCALE)
    assert (code == cli.EXIT_OK) == (err.getvalue() == "")
    try:
        json.loads(text.decode("utf-8"))
    except (ValueError, RecursionError):
        # main decodes deeper in the stack than this check, so it fails too.
        assert code == cli.EXIT_INPUT and out.getvalue() == ""
        assert err.getvalue().startswith(f"cannot read {path}: ")
        assert err.getvalue().count("\n") == 1


def _dualcomplex_docs() -> list:
    """The documents ``dualcomplex`` is fuzzed with: two varieties, the germ
    of three planes and a chain of three components, and their complexes."""
    varieties = [sm.coordinate_germ(3),
                 sm.from_index_sets(["E1", "E2", "E3"], [{"E1", "E2"}, {"E2", "E3"}])]
    return ([sm.to_json_obj(v) for v in varieties]
            + [dc.to_json_obj(sm.dual_complex_of(v)) for v in varieties])


# Mutations that change only the order of a document's records or keys:
# a complex keeps its cells, and a variety its strata and parent pairs, in
# one order whatever order they are read in.
_REORDERINGS = ("shuffle", "reverse", "reverse parents")
_WRONG_VALUES = [7, -1, "E1", "", None, True, 1.5, [], {}, ["E1"], [7], ["E1", "E1"],
                 {"E1": "E2"}, {"E1": 7}]


@st.composite
def _mutated_documents(draw):
    """(a ``_dualcomplex_docs`` document, a mutated copy, the mutation's
    name).  The copy has its records shuffled or reversed, a stratum's
    parent map reversed or inverted (a cell's facets reversed), a record's
    id or the record itself repeated, or one field dropped or given a value
    of another type."""
    pick = draw(st.integers(0, 3))
    original, doc = _dualcomplex_docs()[pick], _dualcomplex_docs()[pick]
    key = "cells" if "cells" in doc else "strata"
    records = doc[key]
    kind = draw(st.sampled_from(_REORDERINGS + (
        "invert parents", "repeat id", "repeat record", "drop", "retype")))
    at = draw(st.integers(0, len(records) - 1))
    record = records[at]
    if kind == "shuffle":
        draw(st.randoms(use_true_random=False)).shuffle(records)
    elif kind == "reverse":
        records.reverse()
    elif kind in ("reverse parents", "invert parents"):
        if key == "cells":  # a cell's facets stand in for a stratum's parents
            record["facets"].reverse()
            kind = "reverse facets"
        else:
            deep = [r for r in records if r["parents"]]
            record = deep[at % len(deep)]
            parents = record["parents"]
            record["parents"] = (dict(reversed(parents.items())) if kind == "reverse parents"
                                 else {pid: j for j, pid in parents.items()})
    elif kind == "repeat id":
        record["id"] = records[(at + 1) % len(records)]["id"]
    elif kind == "repeat record":
        records.append(dict(record))
    else:
        target = draw(st.sampled_from([doc, record]))
        field = draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[field]
        else:
            target[field] = draw(st.sampled_from(_WRONG_VALUES))
    return original, doc, kind


def _dualcomplex_run(tmp_path, doc, options) -> tuple:
    """(exit code, stdout, stderr, DOT text or None) of ``dualcomplex`` on ``doc``."""
    path, dot = tmp_path / "input.json", tmp_path / "skeleton.dot"
    path.write_text(json.dumps(doc))
    argv = ["dualcomplex", "--input", str(path)] + [str(dot) if o == "DOT" else o
                                                    for o in options]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = dot.read_text() if dot.exists() else None
    return code, out.getvalue().replace(str(dot), "DOT"), err.getvalue(), text


@settings(max_examples=120, deadline=None)
@given(_mutated_documents(), st.sampled_from([[], ["--json"], ["--dot", "DOT"]]))
def test_dualcomplex_never_crashes_on_a_mutated_document(tmp_path_factory, mutated, options):
    original, doc, kind = mutated
    code, out, err, dot = _dualcomplex_run(tmp_path_factory.mktemp("mutated"), doc, options)
    assert code in (cli.EXIT_OK, cli.EXIT_INPUT), err
    assert "Traceback" not in err
    assert (code == cli.EXIT_OK) == (err == "")
    if code == cli.EXIT_INPUT:
        assert out == "" and dot is None
        try:
            # A complex document that parses but fails validation gets one
            # line per violation; every other refusal is one line.
            lines = [str(v) for v in dc.validate(dc.from_json_obj(doc))]
        except ValueError:
            lines = [err.rstrip("\n")]
        assert err.splitlines() == lines and err.count("\n") == len(lines)
    if kind in _REORDERINGS:
        want = _dualcomplex_run(tmp_path_factory.mktemp("original"), original, options)
        assert (code, out, err, dot) == want


# --------------------------------------------------------------------------
# every command of the table under drawn flags and environment values
# --------------------------------------------------------------------------

_RANGES = ["2", "3", "2..3", "3..2", "1..2", "x", "2..1000000000000"]


def _flag_pools(tmp_path) -> dict:
    """The values each flag of ``cli._COMMANDS`` is drawn from, by name, or
    by kind for an int and for a switch's environment mirror.  The one
    runnable ``resolve`` input is the ``gen --seed 3`` state."""
    state, germ = tmp_path / "state.json", tmp_path / "germ.json"
    state.write_text(json.dumps(re_.state_to_obj(cli.random_state(random.Random(3)))))
    germ.write_text(json.dumps(sm.to_json_obj(sm.coordinate_germ(3))))
    missing = str(tmp_path / "missing" / "file")
    outputs = [str(tmp_path / "out.txt"), missing, str(tmp_path), os.devnull]
    outputs += ["/dev/full"] if os.path.exists("/dev/full") else []
    return {"input": [str(state), str(germ), missing, str(tmp_path), os.devnull],
            "dot": outputs, "trace": outputs, "out": outputs,
            "ordering": ["E1,E2", "E2,E1", "E3", ","],
            "rule": ["det", "DET", "mon1", "mon2", "mon3", "bin", "bogus"],
            "m": _RANGES, "d": _RANGES, "a": _RANGES,
            int: [1, 3, 10 ** 20, 0, -1, "x"], bool: ["1", "0", "yes", "maybe", ""]}


def _drawn_case(rng, pools, command, flags):
    """(argv, environment) of one ``command`` run: each flag absent, given on
    the command line, or given as its ``SNCRESOLVE_`` mirror."""
    argv, env = [command], {}
    for name, _, kind, _ in flags:
        how = rng.choice(["absent", "absent", "flag", "environment"])
        if how == "absent":
            continue
        pool = (list(kind) + ["bogus"] if isinstance(kind, tuple)
                else pools[kind] if kind in (int, bool) else pools[name])
        value = str(rng.choice(pool))
        if how == "environment":
            env[cli.ENV_PREFIX + name.replace("-", "_").upper()] = value
        else:
            argv += [f"--{name}"] if kind is bool else [f"--{name}", value]
    return argv, env


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_command_maps_drawn_flags_and_environment_to_an_exit_code(tmp_path, monkeypatch,
                                                                         command):
    pools, rng = _flag_pools(tmp_path), random.Random(command)
    for name in [name for name in os.environ if name.startswith(cli.ENV_PREFIX)]:
        monkeypatch.delenv(name)
    seen = set()
    for _ in range(400):
        argv, env = _drawn_case(rng, pools, command, cli._COMMANDS[command][-1])
        out, err = io.StringIO(), io.StringIO()
        with monkeypatch.context() as patch:
            for name, value in env.items():
                patch.setenv(name, value)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse refuses a flag value
                    assert exc.code == cli.EXIT_INPUT, (argv, env)
                    code = None
        text = err.getvalue()
        assert "Traceback" not in text, (argv, env, text)
        assert code in (None, cli.EXIT_OK, cli.EXIT_INPUT, cli.EXIT_BREACH, cli.EXIT_SCALE)
        if code in (cli.EXIT_INPUT, cli.EXIT_SCALE):
            assert text.count("\n") == 1 and text.endswith("\n"), (argv, env, text)
        seen.add(code)
    assert {cli.EXIT_OK, cli.EXIT_INPUT} <= seen  # the draws reach the handler
