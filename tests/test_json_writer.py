"""The trace writer and the CLI's documents against the standard library's
indented encoder."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from sncresolve import chart_calculus as cc
from sncresolve import cli
from sncresolve import dual_complex as dc
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm
from sncresolve.dual_complex import Cell, DualComplex

from oracles import ODD_IDS, odd_id_variety, random_delta_complex


def reference(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)


def assert_trace_bytes(seed, events, final, config=re_.RunConfig()) -> str:
    """``write_trace`` of a trace against ``json.dumps`` of ``trace_to_obj``."""
    parts = []
    re_.write_trace(seed, events, final, config, parts.append)
    want = reference(re_.trace_to_obj(seed, events, final, config))
    assert "".join(parts) == want
    return want


def test_gen_output_equals_the_standard_library(tmp_path, capsys):
    for seed in range(50):
        want = reference(re_.state_to_obj(cli.random_state(random.Random(seed)))) + "\n"
        assert cli.main(["gen", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == want, seed
        out = tmp_path / f"{seed}.json"
        assert cli.main(["gen", "--seed", str(seed), "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("utf-8"), seed
        assert capsys.readouterr().out.startswith(f"seed state written: {out} ")


def _blowup(index, parents, children):
    return re_.BlowupEvent(index, "C-bin", cc.RuleApplication("BIN", ("E1",)),
                           parents, children, None, None, ())


ONE_CHART = sm.dual_complex_of(sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}]))


def test_a_stream_of_events_is_written_as_it_is_consumed():
    n = 200
    chart = cc.ChartState.of(["E1"], 1, {"a": 2})
    state = re_.ResolutionState(ONE_CHART, (), ((chart, 1),))
    built, calls = [], []

    def events():
        for i in range(n):
            built.append(i)
            yield _blowup(i, ((chart, 1),), ((chart, 1),))

    def write(text):
        calls.append((len(built), text))

    config = re_.RunConfig()
    re_.write_trace(state, events(), state, config, write)
    # Each event reaches ``write`` before the next one is built.
    assert [k for k, text in calls if '"index": ' in text] == list(range(1, n + 1))
    assert "".join(text for _, text in calls) == reference(re_.trace_to_obj(
        state, [_blowup(i, ((chart, 1),), ((chart, 1),)) for i in range(n)], state, config))


# ``write_trace`` reuses the text of each live chart, laid out as an event
# embeds it and re-indented for a state.

def test_a_streamed_trace_with_escaped_ids_equals_the_standard_library():
    snc = odd_id_variety()
    seed = re_.seed_from_snc(snc, {s.id: len(s.indices) - 1
                                   for s in snc.strata if len(s.indices) >= 2})
    divisor = 'f\n"\\é'
    seed = re_.with_initial_divisors(seed, [(divisor, 2)], {0: [divisor]})
    config = re_.RunConfig()
    final, events = re_.run(seed, config)
    assert len(events) > 3
    want = assert_trace_bytes(seed, events, final, config)
    assert divisor in json.loads(want)["seed"]["charts"][0]["chart"]["a"]


def test_a_chart_consumed_and_produced_again_streams_the_same_bytes(monkeypatch):
    a, b, c, d = (cc.ChartState.of(["E1", "E2"], m, {}) for m in (4, 3, 2, 1))
    seed = re_.ResolutionState(ONE_CHART, (), ((a, 1),))
    events = [_blowup(0, ((a, 1),), ((b, 1), (c, 1))),
              _blowup(1, ((b, 1),), ((a, 2),)),         # a produced again
              _blowup(2, ((d, 1),), ((b, 1),))]         # d never written before
    final = re_.ResolutionState(ONE_CHART, (), ((a, 2), (b, 1), (c, 1)))

    laid_out = []
    chart_text = re_._chart_text

    def counted(chart, entries):
        laid_out.append(chart)
        return chart_text(chart, entries)

    monkeypatch.setattr(re_, "_chart_text", counted)
    assert_trace_bytes(seed, events, final)
    # Keys are written sorted: the events, then the final state, then the
    # seed.  Each chart is laid out once while it is live: a parent or a
    # final chart reuses the text kept when it was produced, and a seed
    # chart keeps its text until the seed is written.  A parent never
    # produced before is laid out where it is written, and a chart produced
    # again after it was consumed is laid out again.
    assert laid_out == [a, b, c,   # event 0: the seed chart a, then the children
                        d, b]      # event 2: d never written; b produced again
    # Event 1 reuses b and a, the final state a, b and c, the seed a.


def test_a_seed_chart_left_to_the_final_state_is_laid_out_once(monkeypatch):
    a, b, r = (cc.ChartState.of(["E1", "E2"], m, {}) for m in (3, 2, 1))
    seed = re_.ResolutionState(ONE_CHART, (), ((a, 1), (r, 1)))
    final = re_.ResolutionState(ONE_CHART, (), ((b, 1), (r, 1)))
    laid_out = []
    chart_text = re_._chart_text

    def counted(chart, entries):
        laid_out.append(chart)
        return chart_text(chart, entries)

    monkeypatch.setattr(re_, "_chart_text", counted)
    assert_trace_bytes(seed, [_blowup(0, ((a, 1),), ((b, 1),))], final)
    # r is never consumed: the final state lays it out and the seed reuses it.
    assert laid_out == [a, b, r]


# The event layout of ``write_trace`` against ``json.dumps`` of the dict
# that ``event_to_obj`` builds, on charts up to 48 exponents wide: the
# corank-40 double point's charts carry up to 39.

chart_ids = st.text(st.one_of(st.characters(), st.sampled_from('"\\\né😀')), max_size=6)
big_ints = st.integers(min_value=0, max_value=2 ** 200)
charts = st.builds(cc.ChartState.of, st.sets(chart_ids, min_size=1, max_size=4),
                   st.one_of(st.just(0), big_ints),
                   st.dictionaries(chart_ids, big_ints.map(lambda n: n + 1), max_size=48))
# Counts and lex values: the engine makes only ints.
values = st.integers(min_value=-2 ** 200, max_value=2 ** 200)
degrees = st.tuples(values, values, values)
chart_items = st.lists(st.tuples(charts, values), max_size=3).map(tuple)
maybe_divisor = st.one_of(st.none(), st.tuples(chart_ids, big_ints))
rules = st.builds(cc.RuleApplication, st.sampled_from(sorted(cc.RULES)),
                  st.lists(chart_ids, min_size=1, max_size=2).map(tuple),
                  st.lists(chart_ids, max_size=3).map(tuple),
                  st.one_of(st.none(), big_ints), maybe_divisor)
events = st.builds(re_.BlowupEvent, big_ints, chart_ids, rules, chart_items, chart_items,
                   maybe_divisor, st.one_of(st.none(), chart_ids),
                   st.lists(st.tuples(degrees, degrees).filter(lambda p: p[1] < p[0]),
                            max_size=3).map(tuple))


@settings(max_examples=300, deadline=None)
@given(st.lists(events, min_size=1, max_size=3))
def test_direct_layouts_equal_the_writer(event_list):
    state = re_.ResolutionState(ONE_CHART, (), ())
    assert_trace_bytes(state, event_list, state)


def _chart(m):
    return cc.ChartState.of(["E1", "E2"], m, {"a": 2})


def _det(index, parents, children, lex):
    """A DET event with its determinant size and a new divisor."""
    rule = cc.RuleApplication("DET", ("E1", "E2"), (), 3, ("w1", 1))
    return re_.BlowupEvent(index, "A-det", rule, parents, children, ("w1", 1), "w1", lex)


# Hand-built events at the edges of the layout.
EDGE_EVENTS = {
    "empty children and lex": _blowup(0, ((_chart(2), 1),), ()),
    "no divisor, a BIN pair of one": _blowup(0, ((_chart(2), 1),), ((_chart(1), 2),)),
    "DET with det_size": _det(0, ((_chart(3), 1),), ((_chart(2), 2),),
                              ((cc.MultiDegree(3, 1, 0), cc.MultiDegree(2, 1, 0)),)),
}


@pytest.mark.parametrize("name", sorted(EDGE_EVENTS))
def test_an_edge_event_streams_the_standard_library_bytes(name):
    event = EDGE_EVENTS[name]
    seed = re_.ResolutionState(ONE_CHART, (), event.parents)
    final = re_.ResolutionState(ONE_CHART, (), event.children)
    assert_trace_bytes(seed, [event], final)


# The dual cells and registry records of a state against ``json.dumps``.
# The registry holds a seed divisor (birth None) and one born at an event.

REGISTRY = (re_.DivisorRecord("w1", 2, None), re_.DivisorRecord('w"\\\né', 3, 7))


def assert_states_bytes(seed_dual: DualComplex, final_dual: DualComplex) -> str:
    chart = cc.ChartState.of(["E1"], 1, {"a": 2})
    seed = re_.ResolutionState(seed_dual, REGISTRY, ((chart, 1),))
    final = re_.ResolutionState(final_dual, REGISTRY[::-1], ((chart, 2),))
    return assert_trace_bytes(seed, [_blowup(0, ((chart, 1),), ((chart, 2),))], final)


EMPTY_LABEL = DualComplex([Cell.of("v", 0, (), ())])
ODD_COMPLEX = sm.dual_complex_of(odd_id_variety())
# (seed dual, final dual): one object where the two states share it.
DUALS = {
    "a vertex with an empty label": (EMPTY_LABEL, EMPTY_LABEL),
    "the empty complex": (DualComplex(), DualComplex()),
    "odd ids": (ODD_COMPLEX, ODD_COMPLEX),
    "an equal final dual, not shared": (ONE_CHART, sm.dual_complex_of(
        sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}]))),
    "a final dual of its own": (ONE_CHART, sm.dual_complex_of(sm.coordinate_germ(3))),
    "a final dual of one vertex": (ODD_COMPLEX, sm.dual_complex_of(
        sm.from_index_sets(["E1"], []))),
}


@pytest.mark.parametrize("name", sorted(DUALS))
def test_cells_and_records_are_written_as_the_standard_library_writes_them(name):
    seed_dual, final_dual = DUALS[name]
    assert dc.validate(seed_dual) == dc.validate(final_dual) == []
    want = json.loads(assert_states_bytes(seed_dual, final_dual))
    assert [r["birth"] for r in want["seed"]["registry"]] == [None, 7]
    if name == "a vertex with an empty label":
        assert want["seed"]["dual"]["cells"][0]["label"] == []
    if name == "odd ids":
        assert {x for c in want["seed"]["dual"]["cells"] for x in c["label"]} == set(ODD_IDS)


labels = st.one_of(st.none(), st.frozensets(chart_ids, max_size=3))


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.lists(labels, min_size=1, max_size=8),
       st.booleans())
def test_random_complexes_are_written_as_the_standard_library_writes_them(rng, drawn, shared):
    def labelled(complex):
        # Labels cycled over the cells: none, empty, or odd ids.
        return DualComplex(Cell(c.id, c.dim, c.facets, drawn[k % len(drawn)])
                           for k, c in enumerate(complex.cells.values()))

    seed_dual = labelled(random_delta_complex(rng, max_cells=60))
    final_dual = seed_dual if shared else labelled(random_delta_complex(rng, max_cells=30))
    assert_states_bytes(seed_dual, final_dual)


# The scalar text of the templates against ``json.dumps``, over the
# scalars the engine makes: strs, ints and None.

texts = st.text(st.one_of(st.characters(),
                          st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€😀')),
                max_size=8)
leaves = st.one_of(st.none(), texts, st.integers(),
                   st.integers(min_value=-2 ** 200, max_value=2 ** 200))


@settings(max_examples=400, deadline=None)
@given(leaves)
def test_a_leaf_equals_the_standard_library(value):
    assert re_._leaf(value) == json.dumps(value)


# Empty and edge traces.  Each case gives (seed, make_events, final, config);
# ``make_events()`` may return a one-shot iterable, so the writer and the
# reference each get their own.

def _item(m=1, count=1):
    return (cc.ChartState.of(["E1"], m, {"a": 2}), count)


def _plain(charts=(_item(),), registry=(), dual=ONE_CHART):
    return re_.ResolutionState(dual, registry, charts)


def _some_events():
    return (_blowup(i, (_item(i + 1),), (_item(i + 2),)) for i in range(3))


def _text_everywhere(s):
    """A trace with ``s`` in every string slot that the templates fill."""
    chart = cc.ChartState.of([s, s + "x"], 1, {s: 2})
    dual = DualComplex([Cell.of(s, 0, (), (s, "")), Cell.of(s + "y", 0, (), ())])
    registry = (re_.DivisorRecord(s, 1, None), re_.DivisorRecord(s + "z", 2, 0))
    rule = cc.RuleApplication("MON1", (s, s + "x"), (s,), None, (s + "z", 2))
    event = re_.BlowupEvent(0, s, rule, ((chart, 1),), ((chart, 2),), (s + "z", 2), s, ())
    return (_plain(((chart, 1),), registry[:1], dual), lambda: [event],
            _plain(((chart, 2),), registry, dual), re_.RunConfig(ordering=(s, "")))


EDGE_TEXTS = {"empty": "", "a NUL and a lone surrogate": "\x00\ud800",
              "a quote, a backslash and a slash": '"\\/',
              "control characters": "\n\r\t\b\f\x1f\x7f", "non-ASCII": " é€😀"}
EDGE_TRACES = {
    "no events, as a list": lambda: (_plain(), list, _plain(), re_.RunConfig()),
    "no events, as a one-shot iterator": lambda: (
        _plain(), lambda: iter(()), _plain(), re_.RunConfig()),
    "no events, from a generator": lambda: (
        _plain(), lambda: (e for e in ()), _plain(), re_.RunConfig()),
    "events as a tuple": lambda: (
        _plain(), lambda: tuple(_some_events()), _plain(), re_.RunConfig()),
    "events from a map": lambda: (
        _plain(), lambda: map(lambda e: e, _some_events()), _plain(), re_.RunConfig()),
    "states with no charts, records or cells": lambda: (
        _plain((), (), DualComplex()), list, _plain((), (), DualComplex()), re_.RunConfig()),
    "a final state with no charts": lambda: (
        _plain(), lambda: [_blowup(0, (_item(),), ())], _plain(()), re_.RunConfig()),
    "a chart with no exponents": lambda: (
        _plain(((cc.ChartState.of(["E1", "E2"], 0, {}), 1),)), list,
        _plain(((cc.ChartState.of(["E2"], 0, {}), 3),)), re_.RunConfig()),
    "an event with no parents or children": lambda: (
        _plain(), lambda: [_blowup(0, (), ())], _plain(), re_.RunConfig()),
    "an event index of 2**200": lambda: (
        _plain(), lambda: [_blowup(2 ** 200, (_item(),), (_item(2),))],
        _plain((_item(2),)), re_.RunConfig()),
    "counts of 2**200": lambda: (
        _plain((_item(1, 2 ** 200),)),
        lambda: [_blowup(0, (_item(1, 2 ** 200),), (_item(2, 2 ** 200 + 1),))],
        _plain((_item(2, 2 ** 200 + 1),)), re_.RunConfig()),
    "a coefficient of 2**200 and a birth of 0": lambda: (
        _plain(registry=(re_.DivisorRecord("w", 2 ** 200, 0),)), list,
        _plain(registry=(re_.DivisorRecord("w", 2 ** 200, 0),)), re_.RunConfig()),
    "a config with an ordering and a ceiling": lambda: (
        _plain(), _some_events, _plain(),
        re_.RunConfig(("E2", "E1"), "paper", 1)),
    **{f"{name} text in every slot": (lambda s=s: _text_everywhere(s))
       for name, s in EDGE_TEXTS.items()},
}


@pytest.mark.parametrize("name", sorted(EDGE_TRACES))
def test_an_empty_or_edge_trace_equals_the_standard_library(name):
    seed, make_events, final, config = EDGE_TRACES[name]()
    parts = []
    re_.write_trace(seed, make_events(), final, config, parts.append)
    want = reference(re_.trace_to_obj(seed, list(make_events()), final, config))
    assert "".join(parts) == want
