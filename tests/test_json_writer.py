"""The streaming JSON writer against the standard library's indented encoder."""

import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from sncresolve import chart_calculus as cc
from sncresolve import cli
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm


def written(obj) -> str:
    parts = []
    re_.write_json(obj, parts.append)
    return "".join(parts)


def reference(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True)


texts = st.text(st.one_of(st.characters(),
                          st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7f é€😀')),
                max_size=8)
leaves = st.one_of(
    st.none(), st.booleans(), texts,
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300]))
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40)


def one_shot(doc, pick=lambda: True):
    """``doc`` with each list or tuple that ``pick()`` chooses swapped for
    a one-shot iterator over the same (likewise swapped) items."""
    if isinstance(doc, dict):
        return {key: one_shot(value, pick) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        items = [one_shot(item, pick) for item in doc]
        return iter(items) if pick() else items
    return doc


@settings(max_examples=400, deadline=None)
@given(documents, st.randoms(use_true_random=False))
def test_writer_equals_the_standard_library(doc, rng):
    want = reference(doc)
    assert written(doc) == want
    assert written(one_shot(doc, lambda: rng.random() < 0.5)) == want
    assert written(one_shot(doc)) == want


@pytest.mark.parametrize("doc", [[], {}, (), [[]], {"a": {}}, [(), {}, [[]]],
                                 {"": [{"": None}]}, "\x00\ud800", 7, None])
def test_writer_on_empty_and_edge_documents(doc):
    assert written(doc) == reference(doc)
    assert written(one_shot(doc)) == reference(doc)


@pytest.mark.parametrize("make, want", [
    (lambda: iter([]), []),
    (lambda: (x for x in ()), []),
    (lambda: map(str, []), []),
    (lambda: {"a": iter([]), "b": [iter([])]}, {"a": [], "b": [[]]}),
    (lambda: iter([iter([]), iter([iter([]), 1]), {"k": iter([None])}]),
     [[], [[], 1], {"k": [None]}]),
])
def test_empty_and_nested_iterators(make, want):
    assert written(make()) == reference(want)


def test_gen_output_equals_the_standard_library(tmp_path, capsys):
    for seed in range(50):
        want = reference(re_.state_to_obj(cli.random_state(random.Random(seed)))) + "\n"
        assert cli.main(["gen", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == want, seed
        out = tmp_path / f"{seed}.json"
        assert cli.main(["gen", "--seed", str(seed), "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode("utf-8"), seed
        assert capsys.readouterr().out.startswith(f"seed state written: {out} ")


def _event(i):
    return {"index": i, "pair": ["E1", f"E{i}"], "new": None}


def test_a_large_document_reaches_write_in_several_calls():
    doc = {"events": [_event(i) for i in range(3 * re_._FLUSH_AT)]}
    calls = []
    re_.write_json(doc, calls.append)
    assert len(calls) > 1
    assert "".join(calls) == reference(doc)


def test_a_long_array_of_fragments_reaches_write_in_several_calls():
    # A streamed trace's chart arrays hold one fragment per chart item.
    items = [re_._Fragment('{\n "count": %d\n}' % i) for i in range(3 * re_._FLUSH_AT)]
    calls = []
    re_.write_json({"charts": items}, calls.append)
    text = "".join(calls)
    assert text == reference({"charts": [{"count": i} for i in range(len(items))]})
    # The array is handed on while it is written, not once it ends.
    assert max(map(len, calls)) < len(text) / 2


def test_a_stream_of_events_is_written_as_it_is_consumed():
    n = 3 * re_._FLUSH_AT + 1
    built = []
    calls = []

    def events():
        for i in range(n):
            built.append(i)
            yield _event(i)

    def write(text):
        calls.append((len(built), text))

    re_.write_json({"events": events(), "n": n}, write)
    assert len(calls) > 3
    # Text reaches ``write`` while most events are still to be built.
    assert calls[0][0] < n // 2
    assert "".join(text for _, text in calls) == reference(
        {"events": [_event(i) for i in range(n)], "n": n})


@pytest.mark.parametrize("doc", [{1: "a"}, {"a": [{"b": 1, None: 2}]}, {(1, 2): 3}])
def test_a_key_that_is_not_a_string_raises(doc):
    with pytest.raises(TypeError):
        written(doc)


# A trace streamed by ``trace_stream`` reuses the text of each live chart
# (a fragment laid out at depth 0 and indented where it is written).

ODD_IDS = ["E\n1", 'E"2', "E\\3é"]


def test_a_streamed_trace_with_escaped_ids_equals_the_standard_library():
    snc = sm.from_index_sets(ODD_IDS, [set(ODD_IDS[:2]), set(ODD_IDS[1:]),
                                       {ODD_IDS[0], ODD_IDS[2]}, set(ODD_IDS)])
    seed = re_.seed_from_snc(snc, {s.id: len(s.indices) - 1
                                   for s in snc.strata if len(s.indices) >= 2})
    divisor = 'f\n"\\é'
    seed = re_.with_initial_divisors(seed, [(divisor, 2)], {0: [divisor]})
    config = re_.RunConfig()
    final, events = re_.run(seed, config)
    assert len(events) > 3
    want = reference(re_.trace_to_obj(seed, events, final, config))
    assert divisor in json.loads(want)["seed"]["charts"][0]["chart"]["a"]
    assert written(re_.trace_stream(seed, events, final, config)) == want


def _blowup(index, parents, children):
    return re_.BlowupEvent(index, "C-bin", cc.RuleApplication("BIN", ("E1",)),
                           parents, children, None, None, ())


def test_a_chart_consumed_and_produced_again_streams_the_same_bytes(monkeypatch):
    a, b, c, d = (cc.ChartState.of(["E1", "E2"], m, {}) for m in (4, 3, 2, 1))
    dual = sm.dual_complex_of(sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}]))
    seed = re_.ResolutionState(dual, (), ((a, 1),))
    events = [_blowup(0, ((a, 1),), ((b, 1), (c, 1))),
              _blowup(1, ((b, 1),), ((a, 2),)),         # a produced again
              _blowup(2, ((d, 1),), ((b, 1),))]         # d never written before
    final = re_.ResolutionState(dual, (), ((a, 2), (b, 1), (c, 1)))
    config = re_.RunConfig()
    want = reference(re_.trace_to_obj(seed, events, final, config))

    laid_out = []
    chart_text = re_._chart_text

    def counted(chart, entries):
        laid_out.append(chart)
        return chart_text(chart, entries)

    monkeypatch.setattr(re_, "_chart_text", counted)
    assert written(re_.trace_stream(seed, events, final, config)) == want
    # Keys are written sorted: the events, then the final state, then the
    # seed.  Each chart is laid out once while it is live: a parent or a
    # final chart reuses the text kept when it was produced, and a seed
    # chart keeps its text until the seed is written.  A parent never
    # produced before is laid out where it is written, and a chart produced
    # again after it was consumed is laid out again.
    assert laid_out == [a, b, c,   # event 0: the seed chart a, then the children
                        d, b]      # event 2: d never written; b produced again
    # Event 1 reuses b and a, the final state a, b and c, the seed a.


# The event layout of ``trace_stream`` against ``write_json`` of the dict
# that ``event_to_obj`` builds.

chart_ids = st.text(st.one_of(st.characters(), st.sampled_from('"\\\né😀')), max_size=6)
big_ints = st.integers(min_value=0, max_value=2 ** 200)
charts = st.builds(cc.ChartState.of, st.sets(chart_ids, min_size=1, max_size=4),
                   st.one_of(st.just(0), big_ints),
                   st.dictionaries(chart_ids, big_ints.map(lambda n: n + 1), max_size=5))
# Counts and lex values as the writer takes them: a bool or a float is
# written as ``json.dumps`` writes it.
values = st.one_of(st.integers(min_value=-2 ** 200, max_value=2 ** 200),
                   st.booleans(), st.floats())
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
ONE_CHART = sm.dual_complex_of(sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}]))


def event_layout(event) -> str:
    """The one fragment ``trace_stream`` lays out for ``event``."""
    state = re_.ResolutionState(ONE_CHART, (), ())
    (text,) = re_.trace_stream(state, [event], state, re_.RunConfig())["events"]
    assert type(text) is re_._Fragment
    return text


@settings(max_examples=300, deadline=None)
@given(st.lists(events, min_size=1, max_size=3))
def test_direct_layouts_equal_the_writer(event_list):
    for event in event_list:
        assert written(event_layout(event)) == written(re_.event_to_obj(event))


def _chart(m):
    return cc.ChartState.of(["E1", "E2"], m, {"a": 2})


def _det(index, parents, children, lex):
    """A DET event with its determinant size and a new divisor."""
    rule = cc.RuleApplication("DET", ("E1", "E2"), (), 3, ("w1", 1))
    return re_.BlowupEvent(index, "A-det", rule, parents, children, ("w1", 1), "w1", lex)


# Hand-built events at the edges of the layout; a True count is an input of
# the bool count test below.
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
    config = re_.RunConfig()
    assert written(event_layout(event)) == written(re_.event_to_obj(event))
    want = reference(re_.trace_to_obj(seed, [event], final, config))
    assert written(re_.trace_stream(seed, [event], final, config)) == want


@pytest.mark.parametrize("where", ["seed", "parent", "child", "final"])
def test_a_streamed_trace_with_a_bool_count_equals_the_standard_library(where):
    chart = cc.ChartState.of(["E1"], 1, {"a": 2})
    count = {name: True if name == where else n
             for name, n in (("seed", 1), ("parent", 1), ("child", 2), ("final", 2))}
    seed = re_.ResolutionState(ONE_CHART, (), ((chart, count["seed"]),))
    events = [_blowup(0, ((chart, count["parent"]),), ((chart, count["child"]),))]
    final = re_.ResolutionState(ONE_CHART, (), ((chart, count["final"]),))
    config = re_.RunConfig()
    want = reference(re_.trace_to_obj(seed, events, final, config))
    assert '"count": true' in want
    assert written(re_.trace_stream(seed, events, final, config)) == want


@pytest.mark.parametrize("final_dual", [
    sm.dual_complex_of(sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])),  # equal, not shared
    sm.dual_complex_of(sm.coordinate_germ(3)),
    sm.dual_complex_of(sm.from_index_sets(["E1"], [])),
])
def test_a_final_state_with_its_own_dual_complex_streams_its_own_bytes(final_dual):
    # Only a dual complex that the seed and final state share is laid out once.
    chart = cc.ChartState.of(["E1"], 1, {"a": 2})
    seed = re_.ResolutionState(ONE_CHART, (), ((chart, 1),))
    events = [_blowup(0, ((chart, 1),), ((chart, 2),))]
    final = re_.ResolutionState(final_dual, (), ((chart, 2),))
    config = re_.RunConfig()
    want = reference(re_.trace_to_obj(seed, events, final, config))
    assert written(re_.trace_stream(seed, events, final, config)) == want
