"""Command-line surface: outputs, exit codes, env overrides, round trips."""

import json
import random

import pytest

from sncresolve import cli
from sncresolve import dual_complex as dc
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm

from oracles import moore_space_complex


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


@pytest.mark.parametrize("doc", [
    {"cells": 5},
    {"cells": [5]},
    {"cells": [["v", 0]]},
    {"cells": [{"id": "v", "dim": 0, "facets": 3}]},
    {"cells": [{"id": "v", "dim": 0, "label": "v"}]},
    {"cells": [{"id": "v", "dim": [0]}]},
])
def test_dualcomplex_malformed_cells_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert "invalid input" in capsys.readouterr().err


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
]


@pytest.mark.parametrize("doc", MALFORMED_VARIETIES)
def test_dualcomplex_malformed_variety_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    assert "invalid input" in capsys.readouterr().err


@pytest.mark.parametrize("doc", MALFORMED_VARIETIES)
def test_resolve_malformed_variety_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"snc": doc, "coranks": {}}))
    assert cli.main(["resolve", "--input", str(path)]) == cli.EXIT_INPUT
    assert "invalid input" in capsys.readouterr().err


def test_resolve_coranks_not_an_object_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"snc": sm.to_json_obj(sm.coordinate_germ(2)),
                                "coranks": 5}))
    assert cli.main(["resolve", "--input", str(path)]) == cli.EXIT_INPUT
    assert "invalid input" in capsys.readouterr().err


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


def test_dualcomplex_dot_export(triangle_file, tmp_path, capsys):
    dot = tmp_path / "skeleton.dot"
    assert cli.main(["dualcomplex", "--input", triangle_file,
                     "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("graph") and text.count("--") == 3


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


def test_resolve_ceiling_exit_code(seed_file, capsys):
    assert cli.main(["resolve", "--input", seed_file,
                     "--ceiling", "1"]) == cli.EXIT_SCALE
    assert "ceiling" in capsys.readouterr().err


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
    assert "invalid input" in capsys.readouterr().err


def test_resolve_accepts_generated_states(tmp_path, capsys):
    state = cli.random_state(random.Random(5))
    path = tmp_path / "state.json"
    path.write_text(json.dumps(re_.state_to_obj(state)))
    assert cli.main(["resolve", "--input", str(path)]) == 0


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


def test_verify_paper_policy_fails_loudly(capsys):
    code = cli.main(["verify", "--rule", "det", "--m", "2", "--d", "2",
                     "--exponent-policy", "paper"])
    assert code == cli.EXIT_BREACH
    assert "FAIL" in capsys.readouterr().out


def test_verify_reversed_range_exit_2(capsys):
    assert cli.main(["verify", "--rule", "det", "--m", "3..2"]) == cli.EXIT_INPUT
    assert "bad range" in capsys.readouterr().err


def test_verify_unknown_rule(capsys):
    assert cli.main(["verify", "--rule", "frobnicate"]) == cli.EXIT_INPUT


def test_verify_all_rules_pass_defaults(capsys):
    for rule in ("det", "mon1", "mon2", "mon3", "bin"):
        assert cli.main(["verify", "--rule", rule]) == 0, rule


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
    assert re_.canonical_dumps(re_.state_to_obj(seed)) \
        == re_.canonical_dumps(doc["seed"])
