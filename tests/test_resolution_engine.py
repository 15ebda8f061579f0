"""Seeding, center selection, stepping, full runs, traces, replay."""

import copy
import io
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sncresolve import chart_calculus as cc
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm
from sncresolve.chart_calculus import ChildChart, RuleApplication
from sncresolve.cli import random_state
from sncresolve.resolution_engine import RunConfig

from oracles import canonical_dumps, rule_matches, whole_state_select_center


def triangle_seed(deep_corank=2, pair_corank=1):
    germ = sm.coordinate_germ(3)
    coranks = {s.id: (deep_corank if len(s.indices) == 3 else pair_corank)
               for s in germ.strata if len(s.indices) >= 2}
    return re_.seed_from_snc(germ, coranks)


def double_point_seed():
    snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
    return re_.seed_from_snc(snc, {"E1+E2": 1})


# --------------------------------------------------------------------------
# seeding
# --------------------------------------------------------------------------

def test_seed_triangle_charts():
    state = triangle_seed()
    degs = sorted(cc.mdeg(c) for c, n in state.charts for _ in range(n))
    assert degs == [(2, 1, 0), (2, 1, 0), (2, 1, 0), (3, 2, 0)]
    assert state.registry == ()
    assert state.dual.cell_counts() == [3, 3, 1]


def test_seed_double_point():
    state = double_point_seed()
    assert [cc.mdeg(c) for c, _ in state.charts] == [(2, 1, 0)]


def test_seed_smooth_component_has_no_charts():
    snc = sm.from_index_sets(["A"], [])
    state = re_.seed_from_snc(snc, {})
    assert state.charts == ()
    assert state.is_finished()


def test_seed_requires_every_deep_corank():
    germ = sm.coordinate_germ(2)
    with pytest.raises(ValueError, match="missing corank"):
        re_.seed_from_snc(germ, {})
    with pytest.raises(ValueError, match="unknown stratum"):
        re_.seed_from_snc(germ, {"ghost": 1, "E1+E2": 1})
    with pytest.raises(ValueError, match=">= 0"):
        re_.seed_from_snc(germ, {"E1+E2": -1})
    with pytest.raises(ValueError, match="singleton"):
        re_.seed_from_snc(germ, {"E1+E2": 1, "E1": 0})


def test_seed_rejects_a_boolean_corank():
    # bool is an int subclass; True would seed a chart with m = True.
    with pytest.raises(ValueError, match="must be an integer >= 0, got True"):
        re_.seed_from_snc(sm.coordinate_germ(2), {"E1+E2": True})


# --------------------------------------------------------------------------
# selection
# --------------------------------------------------------------------------

def test_select_prefers_largest_determinant():
    state = triangle_seed(deep_corank=3, pair_corank=2)
    app = re_.select_center(state)
    assert app.kind == "DET" and app.det_size == 3


def test_select_mon1_targets_high_exponent_divisor():
    state = double_point_seed()
    state = re_.with_initial_divisors(state, [("f1", 4)], {0: ["f1"]})
    app = re_.select_center(state)
    assert app.kind == "MON1" and app.divisors == ("f1",)


@pytest.mark.parametrize("divisors", [[("f1", 2.5)], [("f1", True)], [(7, 2)]],
                         ids=["float-coefficient", "bool-coefficient", "int-id"])
def test_initial_divisors_are_not_coerced(divisors):
    div = divisors[0][0]
    with pytest.raises(ValueError, match="a divisor record needs a str id, an int coefficient"):
        re_.with_initial_divisors(double_point_seed(), divisors, {0: [div]})


@pytest.mark.parametrize("fields", [(3, True, None), ("f1", True, None), ("f1", 2.0, None),
                                    (7, 2, None), ("f1", 2, 1.0), ("f1", 2, True)])
def test_a_divisor_record_out_of_form_is_refused(fields):
    with pytest.raises(ValueError, match="a divisor record needs a str id"):
        re_.DivisorRecord(*fields)


def test_a_divisor_record_below_coefficient_one_keeps_its_message():
    with pytest.raises(ValueError, match="^divisor 'f1' registered with coefficient 0 < 1$"):
        re_.DivisorRecord("f1", 0, None)


def test_select_returns_none_when_resolved():
    state = double_point_seed()
    final, _ = re_.run(state)
    assert re_.select_center(final) is None


def test_select_is_config_sensitive():
    state = triangle_seed()
    default = re_.select_center(state)
    flipped = re_.select_center(state, RunConfig(ordering=("E3", "E2", "E1")))
    assert default.pair == ("E1", "E2")
    assert flipped.pair == ("E3", "E2")


# --------------------------------------------------------------------------
# stepping
# --------------------------------------------------------------------------

def test_step_det_on_deep_chart():
    germ = sm.coordinate_germ(2)
    seed = re_.seed_from_snc(germ, {"E1+E2": 2})
    state, event = re_.step(seed)
    assert event.phase == "A-det"
    assert event.new_divisor is None  # oracle policy: coefficient m-2 = 0
    counts = {cc.mdeg(c): n for c, n in state.charts}
    assert counts == {(1, 2, 0): 2, (2, 1, 0): 4}


def test_step_det_paper_policy_registers_divisor():
    germ = sm.coordinate_germ(2)
    seed = re_.seed_from_snc(germ, {"E1+E2": 2})
    state, event = re_.step(seed, RunConfig(exponent_policy="paper"))
    assert event.new_divisor == ("w1", 2)
    assert state.registry[0].id == "w1" and state.registry[0].coeff == 2
    counts = {cc.mdeg(c): n for c, n in state.charts}
    assert counts == {(1, 2, 2): 2, (2, 1, 2): 4}


def test_det_event_spares_smaller_determinants_at_the_same_pair():
    # Two charts over the same pair with different det sizes: the event
    # targets the maximal size; the other chart is an off-center survivor.
    germ = sm.coordinate_germ(2)
    seed = re_.seed_from_snc(germ, {"E1+E2": 3})
    small = cc.ChartState.of(["E1", "E2"], 2, {})
    seeded = re_.ResolutionState(seed.dual, seed.registry,
                                 seed.charts + ((small, 1),))
    state, event = re_.step(seeded)
    assert event.rule.det_size == 3
    assert all(c.det_size == 3 for c, _ in event.parents)
    assert (small, 1) in state.charts


def test_step_bin_on_double_point():
    state, event = re_.step(double_point_seed())
    assert event.phase == "C-bin"
    assert {cc.mdeg(c) for c, _ in state.charts} == {(1, 1, 0), (2, 0, 0)}
    assert state.is_finished()


def test_step_on_resolved_state_errors():
    final, _ = re_.run(double_point_seed())
    with pytest.raises(re_.NoApplicableRule):
        re_.step(final)


def test_lex_certificates_strictly_decrease():
    state = triangle_seed()
    while not state.is_finished():
        state, event = re_.step(state)
        for parent, child in event.lex:
            assert tuple(child) < tuple(parent)


def test_bin_event_rewrites_all_matching_charts_at_once():
    state = triangle_seed()
    final, events = re_.run(state)
    bins = [e for e in events if e.phase == "C-bin"]
    # Every parent of a BIN event contains the chosen component.
    for event in bins:
        for chart, _ in event.parents:
            assert event.rule.pair[0] in chart.x_indices


# --------------------------------------------------------------------------
# full runs
# --------------------------------------------------------------------------

def test_run_double_point_single_event():
    final, events = re_.run(double_point_seed())
    assert len(events) == 1
    assert final.is_finished()
    assert {cc.mdeg(c) for c, _ in final.charts} == {(1, 1, 0), (2, 0, 0)}


def test_run_triangle_resolves_and_preserves_dual():
    seed = triangle_seed()
    final, events = re_.run(seed)
    assert final.is_finished()
    assert final.dual_bytes() == seed.dual_bytes()
    assert len(events) > 0
    census = final.census()
    assert all(kind in ("smooth", "snc-certified") for _, kind in census.values())


def test_run_empty_seed_empty_trace():
    snc = sm.from_index_sets(["A"], [])
    state = re_.seed_from_snc(snc, {})
    final, events = re_.run(state)
    assert events == [] and final is state


def test_run_hits_the_ceiling():
    with pytest.raises(re_.CeilingExceeded):
        re_.run(triangle_seed(), RunConfig(event_ceiling=1))


def test_run_is_deterministic():
    config = RunConfig(ordering=("E2", "E1", "E3"))
    finals = []
    for _ in range(3):
        final, events = re_.run(triangle_seed(), config)
        doc = re_.trace_to_obj(triangle_seed(), events, final, config)
        finals.append(canonical_dumps(doc))
    assert len(set(finals)) == 1


def test_policies_give_different_traces():
    _, oracle_events = re_.run(triangle_seed(), RunConfig())
    _, paper_events = re_.run(triangle_seed(), RunConfig(exponent_policy="paper"))
    assert [e.phase for e in oracle_events] != [e.phase for e in paper_events]


def test_phase_order_is_monotone_along_every_trace():
    rank = {p: i for i, p in enumerate(["A-det", "B1", "B2", "B3", "C-bin"])}
    for seed_value in range(25):
        state = random_state(random.Random(seed_value))
        for config in (RunConfig(), RunConfig(exponent_policy="paper")):
            _, events = re_.run(state, config)
            phases = [rank[e.phase] for e in events]
            assert phases == sorted(phases), phases


def test_final_states_are_smooth_with_certificates():
    for seed_value in range(25):
        state = random_state(random.Random(seed_value))
        final, _ = re_.run(state)
        for chart, _ in final.charts:
            assert cc.is_resolved(chart)
            deg = cc.mdeg(chart)
            if deg.dx == 1:
                x_new, reduced = cc.snc_certificate(chart)
                assert reduced == cc.local_equation(chart)


def test_dual_complex_byte_identical_through_random_runs():
    for seed_value in range(25):
        state = random_state(random.Random(seed_value))
        final, _ = re_.run(state)
        assert final.dual_bytes() == state.dual_bytes()


# --------------------------------------------------------------------------
# state invariants
# --------------------------------------------------------------------------

def test_registry_backs_every_exponent():
    for seed_value in range(10):
        state = random_state(random.Random(seed_value))
        final, _ = re_.run(state)
        assert re_.validate_state(final) == []


def test_state_validation_catches_unknown_divisor():
    state = double_point_seed()
    bad = re_.ResolutionState(
        state.dual, state.registry,
        ((cc.ChartState.of(["E1", "E2"], 1, {"ghost": 1}), 1),))
    assert any("unregistered" in p for p in re_.validate_state(bad))


def test_state_validation_catches_alien_x_index():
    state = double_point_seed()
    bad = re_.ResolutionState(
        state.dual, state.registry,
        ((cc.ChartState.of(["E1", "E9"], 1, {}), 1),))
    assert any("absent from the dual" in p for p in re_.validate_state(bad))


def test_state_validation_catches_x_indices_spanning_no_cell():
    # E1 and E2 are vertices, but without the edge they do not meet.
    snc = sm.from_index_sets(["E1", "E2"], [])
    chart = cc.ChartState.of(["E1", "E2"], 1, {})
    bad = re_.ResolutionState(sm.dual_complex_of(snc), (), ((chart, 1),))
    assert re_.validate_state(bad) == [
        "chart Chart[x:E1,E2|m:1|z:] uses x-indices ['E1', 'E2'] that span "
        "no cell of the dual complex"]
    with pytest.raises(ValueError, match="span no cell"):
        re_.state_from_obj(re_.state_to_obj(bad))
    with pytest.raises(re_.InvariantBreach, match="span no cell"):
        re_.run(bad)


# E1-E2-E3 is a path: {E1, E3} and {E1, E2, E3} label no cell, E9 no vertex.
PATH_LABELS = re_._labels(sm.dual_complex_of(
    sm.from_index_sets(["E1", "E2", "E3"], [{"E1", "E2"}, {"E2", "E3"}])))
REGISTRY_COEFF = {"f1": 2, "f2": 1, "w3": 1}


@st.composite
def chart_item_and_fresh_pair(draw):
    xs = draw(st.sets(st.sampled_from(["E1", "E2", "E3", "E9"]), min_size=1))
    # "ghost" and "w9" are absent from the registry; "w9" is the fresh id.
    exps = draw(st.dictionaries(st.sampled_from(["f1", "f2", "w3", "ghost", "w9"]),
                                st.integers(min_value=1, max_value=3), max_size=4))
    count = draw(st.sampled_from([1, 1, 2, 7, 0, -1, True, 1.0]))
    fresh = draw(st.none() | st.tuples(st.just("w9"), st.integers(min_value=1, max_value=3)))
    return cc.ChartState.of(xs, draw(st.integers(min_value=0, max_value=2)), exps), count, fresh


@settings(max_examples=500, deadline=None)
@given(chart_item_and_fresh_pair())
@example((cc.ChartState.of(["E1", "E2"], 1, {"f1": 2, "w9": 1}), 1, ("w9", 1)))
@example((cc.ChartState.of(["E1", "E2"], 1, {"f1": 1}), 1, None))
def test_the_child_predicate_accepts_exactly_the_items_without_problems(case):
    chart, count, fresh = case
    pairs = set(REGISTRY_COEFF.items()) | ({fresh} if fresh else set())
    problems = re_._chart_problems(chart, count, PATH_LABELS, dict(pairs))
    misfits = re_._misfits([(chart, count)], PATH_LABELS, pairs)
    assert misfits == ([] if not problems else [(chart, count)])


def test_hand_built_states_are_checked_in_full_before_their_first_event():
    # The alien chart is resolved, so no event would ever touch it.
    state = double_point_seed()
    bad = re_.ResolutionState(state.dual, state.registry,
                              state.charts + ((cc.ChartState.of(["E9"], 0), 1),))
    for call in (re_.select_center, re_.step, re_.run):
        with pytest.raises(re_.InvariantBreach, match="absent from the dual"):
            call(bad)


def test_a_resolved_hand_built_state_is_checked_before_run_returns():
    state = double_point_seed()
    ghost = re_.ResolutionState(state.dual, state.registry,
                                ((cc.ChartState.of(["E1"], 0, {"ghost": 1}), 1),))
    assert ghost.is_finished()
    with pytest.raises(re_.InvariantBreach, match="unregistered divisor 'ghost'"):
        re_.run(ghost)


@pytest.mark.parametrize("count", [1.5, True])
def test_a_chart_count_that_is_not_an_int_is_refused(count):
    state = double_point_seed()
    bad = re_.ResolutionState(state.dual, state.registry,
                              ((cc.ChartState.of(["E1"], 0, {}), count),))
    assert re_.validate_state(bad) == [f"chart Chart[x:E1|m:0|z:] has count {count}"]
    with pytest.raises(re_.InvariantBreach, match="has count"):
        re_.run(bad)


def _corrupt_children(monkeypatch, corrupt):
    original = cc.children

    def children(chart, app, policy="oracle"):
        return [ChildChart(corrupt(child.state), child.multiplicity, child.family)
                for child in original(chart, app, policy)]

    monkeypatch.setattr(cc, "children", children)


def _with_ghost_divisor(chart):
    # One more divisor keeps every child's mdeg below its parent's on a DET
    # event, so only the registry check can object.
    return cc.ChartState.of(chart.x_indices, chart.det_size,
                            {**chart.exponent_map(), "ghost": 1})


def _with_alien_index(chart):
    return cc.ChartState.of({"E9" if i == "E3" else i for i in chart.x_indices},
                            chart.det_size, chart.exponents)


@pytest.mark.parametrize("corrupt, message", [
    (_with_ghost_divisor, "unregistered divisor 'ghost'"),
    (_with_alien_index, r"x-indices \['E9'\] absent from the dual"),
])
def test_a_corrupted_child_raises_from_step_and_run(monkeypatch, corrupt, message):
    config = RunConfig(exponent_policy="paper")
    seed = triangle_seed()
    clean_state, clean_event = re_.step(seed, config)
    seed = triangle_seed()
    assert re_.select_center(seed, config).kind == "DET"
    _corrupt_children(monkeypatch, corrupt)
    with pytest.raises(re_.InvariantBreach, match=message):
        re_.step(seed, config)
    with pytest.raises(re_.InvariantBreach, match=message):
        re_.run(seed, config)
    monkeypatch.undo()
    # The failed events left the seed as it was, registry included.
    state, event = re_.step(seed, config)
    assert event.new_divisor == ("w1", 2)
    assert re_.event_to_obj(event) == re_.event_to_obj(clean_event)
    assert state.charts == clean_state.charts


def test_a_failed_event_takes_its_new_divisor_out_of_the_registry_pairs(monkeypatch):
    # The children are checked against the registry pairs with the new
    # divisor added; a failing event must not leave it there.
    config = RunConfig(exponent_policy="paper")
    seed = triangle_seed()
    _corrupt_children(monkeypatch, _with_ghost_divisor)
    with pytest.raises(re_.InvariantBreach, match="unregistered divisor 'ghost'"):
        re_.step(seed, config)
    assert seed._book.coeff == {} and seed._book.pairs == set()


def test_older_states_keep_their_view_and_can_step_again():
    config = RunConfig(exponent_policy="paper")
    seed = triangle_seed()
    first, event = re_.step(seed, config)
    final, events = re_.run(first, config)
    assert len(final.trace) == 1 + len(events) and len(events) > 1
    # seed and first now lag behind the newest state of their line.
    fresh = triangle_seed()
    assert (seed.charts, seed.registry, seed.trace) == (fresh.charts, (), ())
    again, event_again = re_.step(seed, config)
    assert re_.event_to_obj(event_again) == re_.event_to_obj(event)
    assert (again.charts, again.registry) == (first.charts, first.registry)
    final_again, events_again = re_.run(first, config)
    assert canonical_dumps(re_.state_to_obj(final_again)) \
        == canonical_dumps(re_.state_to_obj(final))
    assert [re_.event_to_obj(e) for e in events_again] \
        == [re_.event_to_obj(e) for e in events]
    assert final_again.trace == final.trace


# --------------------------------------------------------------------------
# the indexed engine against its reference and its preconditions
# --------------------------------------------------------------------------

BATCH_SEEDS = 200


def batch_states():
    """Every state of the 200-seed batch under both policies, with its config."""
    for seed_value in range(BATCH_SEEDS):
        for policy in ("oracle", "paper"):
            config = RunConfig(exponent_policy=policy)
            state = random_state(random.Random(seed_value))
            yield state, config
            while not state.is_finished():
                state, _ = re_.step(state, config)
                yield state, config


def test_select_center_and_parents_equal_the_whole_state_reference():
    checked = 0
    expected_parents = None
    for state, config in batch_states():
        if state.trace:
            assert state.trace[-1].parents == expected_parents
        app = re_.select_center(state, config)
        assert app == whole_state_select_center(state, config)
        expected_parents = app and tuple(
            (chart, n) for chart, n in state.charts if rule_matches(chart, app))
        checked += 1
    assert checked > 2 * BATCH_SEEDS


def _orderings(state) -> list:
    """Id orderings of a state: its components in reverse, and a partial one
    that lists every other component from the last and two divisor ids."""
    ids = sorted({i for cell in state.dual.cells.values() if cell.dim == 0 for i in cell.label})
    return [tuple(reversed(ids)), tuple(ids[::-2]) + ("f2", "w2")]


def test_select_center_and_parents_equal_the_whole_state_reference_under_orderings():
    # Under each ordering alone, and with the two swapped every three events,
    # so the book files its active charts again on the state it has reached.
    checked = 0
    for seed_value in range(0, BATCH_SEEDS, 4):
        reverse, partial = _orderings(random_state(random.Random(seed_value)))
        policy = ("oracle", "paper")[seed_value % 8 // 4]
        for schedule in ((reverse,), (partial,), (reverse, partial)):
            state, n = random_state(random.Random(seed_value)), 0
            while True:
                config = RunConfig(schedule[n // 3 % len(schedule)], policy)
                app = re_.select_center(state, config)
                assert app == whole_state_select_center(state, config)
                if app is None:
                    break
                expected_parents = tuple((chart, k) for chart, k in state.charts
                                         if rule_matches(chart, app))
                state, event = re_.step(state, config)
                assert event.parents == expected_parents
                n, checked = n + 1, checked + 1
    assert checked > BATCH_SEEDS


def _applications_near(chart):
    """Rule applications over the chart's own ids, plus one alien x and divisor."""
    xs = sorted(chart.x_indices) + ["E99"]
    divs = [d for d, _ in chart.exponents] + ["ghost"]
    for i in xs:
        yield RuleApplication("BIN", (i,))
        for k in xs:
            if k == i:
                continue
            for m in range(2, 6):
                yield RuleApplication("DET", (i, k), det_size=m)
            for j in divs:
                yield RuleApplication("MON1", (i, k), divisors=(j,))
                yield RuleApplication("MON3", (i, k), divisors=(j,))
                for j2 in divs:
                    if j2 != j:
                        yield RuleApplication("MON2", (i, k), divisors=(j, j2))


def test_no_rule_matches_a_resolved_chart():
    resolved = set()
    for state, _ in batch_states():
        if not state.trace:
            resolved.update(c for c, _ in state.charts if cc.is_resolved(c))
        else:
            resolved.update(c for c, _ in state.trace[-1].children if cc.is_resolved(c))
    assert len(resolved) > 100
    for chart in resolved:
        for app in _applications_near(chart):
            assert not rule_matches(chart, app), (chart, app)


# --------------------------------------------------------------------------
# serialization and replay
# --------------------------------------------------------------------------

def test_state_json_round_trip():
    state = random_state(random.Random(3))
    doc = json.loads(json.dumps(re_.state_to_obj(state)))
    again = re_.state_from_obj(doc)
    assert canonical_dumps(re_.state_to_obj(again)) \
        == canonical_dumps(re_.state_to_obj(state))


@pytest.mark.parametrize("seed_value", [0, 4])
def test_a_pickled_or_copied_state_runs_to_the_same_trace(seed_value):
    # A copy is a state built by hand: it is checked on its first step.
    config = RunConfig(exponent_policy="paper")
    state = random_state(random.Random(seed_value))
    for _ in range(3):
        state, _ = re_.step(state, config)
    runs = []
    for start in (state, pickle.loads(pickle.dumps(state)), copy.deepcopy(state),
                  copy.copy(state)):
        final, events = re_.run(start, config)
        text = io.StringIO()
        re_.write_trace(start, events, final, config, text.write)
        runs.append(([re_.event_to_obj(e) for e in events], text.getvalue()))
    assert runs[0][0] and all(run == runs[0] for run in runs)


def test_state_document_sums_repeated_chart_entries():
    doc = re_.state_to_obj(double_point_seed())
    doc["charts"] = doc["charts"] * 2
    assert [n for _, n in re_.state_from_obj(doc).charts] == [2]


def test_state_document_with_an_invalid_dual_complex_is_refused():
    doc = re_.state_to_obj(random_state(random.Random(3)))
    edge = next(c for c in doc["dual"]["cells"] if c["id"] == "E1+E2")
    edge["facets"][0] = "ghost"
    with pytest.raises(ValueError) as err:
        re_.state_from_obj(doc)
    assert str(err.value) == "dangling facet [E1+E2]: facet 'ghost' does not exist"


@pytest.mark.parametrize("coeffs, extra", [
    ((3, 3), ""),
    ((3, 4), "; chart Chart[x:E1,E2|m:1|z:f1^3] carries 'f1'^3 but the registry "
             "coefficient is 4"),
])
def test_a_divisor_registered_twice_is_reported_first(coeffs, extra):
    state = random_state(random.Random(3))
    (record,) = state.registry
    assert record.coeff == coeffs[0]
    registry = tuple(re_.DivisorRecord(record.id, c, None) for c in coeffs)
    doubled = re_.ResolutionState(state.dual, registry, state.charts)
    problems = re_.validate_state(doubled)
    assert problems[0] == "divisor 'f1' is registered 2 times"
    assert "; ".join(problems) == "divisor 'f1' is registered 2 times" + extra
    doc = re_.state_to_obj(doubled)
    with pytest.raises(ValueError, match="^divisor 'f1' is registered 2 times"):
        re_.state_from_obj(doc)


def test_repeated_registry_ids_are_counted_and_sorted():
    state = random_state(random.Random(3))
    records = [re_.DivisorRecord(div, 1, None) for div in ("g", "f1", "g", "e", "g", "e")]
    bad = re_.ResolutionState(state.dual, state.registry + tuple(records), state.charts)
    assert re_.validate_state(bad)[:3] == ["divisor 'e' is registered 2 times",
                                           "divisor 'f1' is registered 2 times",
                                           "divisor 'g' is registered 3 times"]


@pytest.mark.parametrize("counts", [[0], [1, -1], [-1, 2]])
def test_state_document_rejects_chart_counts_below_one(counts):
    doc = re_.state_to_obj(double_point_seed())
    doc["charts"] = [dict(doc["charts"][0], count=n) for n in counts]
    with pytest.raises(ValueError, match="positive integer 'count'"):
        re_.state_from_obj(doc)


def test_trace_round_trip_and_replay():
    seed = triangle_seed()
    config = RunConfig()
    final, events = re_.run(seed, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(seed, events, final, config)))
    result = re_.replay_trace(doc)
    assert result.ok, result.detail


def test_replay_detects_tampering():
    seed = double_point_seed()
    config = RunConfig()
    final, events = re_.run(seed, config)
    doc = re_.trace_to_obj(seed, events, final, config)
    doc = json.loads(json.dumps(doc))
    doc["final"]["charts"][0]["count"] += 1
    result = re_.replay_trace(doc)
    assert not result.ok


@pytest.mark.parametrize("tamper, detail", [
    (lambda doc: doc["events"].pop(), "event count"),
    pytest.param(lambda doc: doc["events"][0].update(phase="tampered"),
                 "event 0 differs from the re-run", id="first-event"),
    # Each value below equals the recorded int under ``==``, but its JSON
    # text differs, so replay refuses it.
    pytest.param(lambda doc: doc["final"]["charts"][0].update(count=1.0),
                 "final differs from the re-run", id="final-count-float"),
    pytest.param(lambda doc: doc["events"][0]["parents"][0].update(count=True),
                 "event 0 differs from the re-run", id="parent-count-bool"),
    pytest.param(lambda doc: doc["events"][0].update(index=0.0),
                 "event 0 differs from the re-run", id="index-float"),
    pytest.param(lambda doc: doc["events"][2].update(phase="tampered"),
                 "event 2 differs from the re-run", id="later-event"),
])
def test_replay_names_what_differs_in_the_event_log(tamper, detail):
    seed = triangle_seed()
    config = RunConfig()
    final, events = re_.run(seed, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(seed, events, final, config)))
    before = canonical_dumps(doc)
    tamper(doc)
    assert canonical_dumps(doc) != before
    result = re_.replay_trace(doc)
    assert not result.ok
    assert detail in result.detail


@pytest.mark.parametrize("tamper, detail", [
    pytest.param(lambda doc: doc["assumptions"].append("an edited assumption"),
                 "assumptions differ", id="assumptions-edited"),
    pytest.param(lambda doc: doc.update(note="an extra key"),
                 "trace key 'note' is not part of a trace", id="extra-key"),
    # Read with the default ceiling, the run itself is the same.
    pytest.param(lambda doc: doc["config"].pop("event_ceiling"),
                 "config differs", id="config-ceiling-dropped"),
    # Both states are checked whole.  Each edit below leaves the run as it
    # was (a seed edit parses to the same state), but write_trace never
    # writes it.
    pytest.param(lambda doc: doc["seed"]["dual"]["cells"].reverse(),
                 "seed differs from the re-run", id="seed-dual-cells-reversed"),
    pytest.param(lambda doc: doc["seed"]["registry"][0].update(note=1),
                 "seed differs from the re-run", id="seed-registry-note"),
    pytest.param(lambda doc: doc["seed"]["dual"]["cells"][-1]["label"].reverse(),
                 "seed differs from the re-run", id="seed-label-unsorted"),
    pytest.param(lambda doc: doc["final"]["dual"]["cells"].reverse(),
                 "final differs from the re-run", id="final-dual-cells-reversed"),
    pytest.param(lambda doc: doc["final"]["registry"][0].update(note=1),
                 "final differs from the re-run", id="final-registry-note"),
])
def test_replay_names_what_differs_in_the_head(tamper, detail):
    state = random_state(random.Random(3))
    config = RunConfig()
    final, events = re_.run(state, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(state, events, final, config)))
    assert re_.replay_trace(doc).ok
    tamper(doc)
    result = re_.replay_trace(doc)
    assert not result.ok
    assert detail in result.detail


def test_replay_refuses_a_seed_with_a_key_outside_a_state():
    state = random_state(random.Random(0))
    config = RunConfig()
    final, events = re_.run(state, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(state, events, final, config)))
    assert re_.replay_trace(doc).ok
    doc["seed"]["extra"] = 1
    with pytest.raises(ValueError, match="state key 'extra' is not part of a state document"):
        re_.replay_trace(doc)


def _replayed_trace(state):
    """The JSON document of a run's trace from ``state``, which replays."""
    final, events = re_.run(state, RunConfig())
    doc = json.loads(json.dumps(re_.trace_to_obj(state, events, final, RunConfig())))
    assert re_.replay_trace(doc).ok
    return doc


def test_replay_refuses_a_seed_whose_chart_items_are_reversed():
    state = random_state(random.Random(0))
    doc = _replayed_trace(state)
    doc["seed"]["charts"].reverse()
    # A state document takes its chart items in any order.
    assert re_.state_from_obj(doc["seed"]).charts == state.charts
    result = re_.replay_trace(doc)
    assert not result.ok
    assert result.detail == "seed differs from the re-run"


def test_replay_refuses_a_seed_whose_chart_item_is_split():
    # Seed 0 has one item per chart, each of count 1: count its first chart
    # twice, then split that item into two of count 1, which sum back to it.
    state = random_state(random.Random(0))
    (chart, count), *rest = state.charts
    assert count == 1
    doc = _replayed_trace(re_.ResolutionState(state.dual, state.registry, ((chart, 2), *rest)))
    item = doc["seed"]["charts"][0]
    doc["seed"]["charts"][:1] = [dict(item, count=1), dict(item, count=1)]
    assert re_.state_from_obj(doc["seed"]).charts == ((chart, 2), *rest)
    result = re_.replay_trace(doc)
    assert not result.ok
    assert result.detail == "seed differs from the re-run"


def _int_places(value, path=()):
    """The paths to every int in a JSON value."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return [path] if type(value) is int else []
    return [place for key, item in items for place in _int_places(item, path + (key,))]


def test_replay_refuses_a_number_retyped_anywhere_in_the_record():
    # The in-memory document replays; each recorded int turned into the
    # equal float or bool changes the canonical text, and replay refuses it.
    rng = random.Random(5)
    for s in range(6):
        state = random_state(random.Random(s))
        final, events = re_.run(state, RunConfig())
        doc = re_.trace_to_obj(state, events, final, RunConfig())
        assert re_.replay_trace(doc).ok
        places = _int_places({"final": doc["final"], "events": doc["events"]})
        for path in rng.sample(places, min(8, len(places))):
            for retype in (float, bool):
                mutated = json.loads(json.dumps(doc))
                holder = mutated
                for key in path[:-1]:
                    holder = holder[key]
                if retype is bool and holder[path[-1]] not in (0, 1):
                    continue
                holder[path[-1]] = retype(holder[path[-1]])
                assert canonical_dumps(mutated) != canonical_dumps(doc)
                assert not re_.replay_trace(mutated).ok, path


@pytest.mark.parametrize("ceiling", [True, 2.5])
def test_run_config_refuses_a_ceiling_that_is_not_an_int(ceiling):
    with pytest.raises(ValueError, match="event ceiling must be an int"):
        RunConfig(event_ceiling=ceiling)


@pytest.mark.parametrize("ordering", ["E2E1", ["E2", "E1"], ("E2", 1)])
def test_run_config_refuses_an_ordering_that_is_not_a_tuple_of_ids(ordering):
    with pytest.raises(ValueError, match="ordering must be None or a tuple of ids"):
        RunConfig(ordering=ordering)


def test_run_config_key_ranks_a_repeated_id_at_its_first_place():
    config = RunConfig(ordering=("E2", "E1", "E2"))
    assert config.key("E2") == (0, 0, "E2")
    assert config.key("E1") == (0, 1, "E1")
    assert config.key("E") == (1, 0, "E")
    assert config.to_json_obj()["ordering"] == ["E2", "E1", "E2"]


def test_an_empty_ordering_runs_as_no_ordering():
    seed = triangle_seed()
    config = RunConfig(ordering=())
    assert config.key("E1") == (1, 0, "E1")
    assert config.to_json_obj() == RunConfig().to_json_obj()
    final, events = re_.run(seed, config)
    plain_final, plain_events = re_.run(seed, RunConfig())
    assert re_.trace_to_obj(seed, events, final, config) \
        == re_.trace_to_obj(seed, plain_events, plain_final, RunConfig())


@pytest.mark.parametrize("tamper, message", [
    (lambda doc: doc["config"].update(event_ceiling="9"), "event ceiling must be an int"),
    (lambda doc: doc.update(config=None), "run config must be an object"),
    (lambda doc: doc["config"].update(ordering="E1"), "'ordering' must be null or a list"),
    (lambda doc: doc["config"].update(ordering=["E1", 2]), "'ordering' must be null or a list"),
    (lambda doc: doc.update(events={}), "'events' must be an array"),
    (lambda doc: doc.pop("seed"), "trace must be an object with 'seed' and 'final'"),
    (lambda doc: doc.pop("final"), "trace must be an object with 'seed' and 'final'"),
    (lambda doc: doc.pop("assumptions"), "a trace must have 'assumptions'"),
    (lambda doc: doc.pop("config"), "a trace must have 'config'"),
    (lambda doc: doc.pop("events"), "a trace must have 'events'"),
], ids=["ceiling-string", "config-null", "ordering-string", "ordering-non-id", "events-object",
        "seed-missing", "final-missing", "assumptions-missing", "config-missing",
        "events-missing"])
def test_replay_refuses_an_ill_typed_trace_document(tamper, message):
    seed = double_point_seed()
    config = RunConfig()
    final, events = re_.run(seed, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(seed, events, final, config)))
    tamper(doc)
    with pytest.raises(ValueError, match=message):
        re_.replay_trace(doc)


@pytest.mark.parametrize("doc", [[], None, "trace", {"seed": {}}])
def test_replay_checks_the_trace_shape_before_running(monkeypatch, doc):
    def no_run(*args):
        raise AssertionError("replay ran the engine on an ill-shaped trace")
    monkeypatch.setattr(re_, "run", no_run)
    with pytest.raises(ValueError, match="trace must be an object with 'seed' and 'final'"):
        re_.replay_trace(doc)


def test_replay_keeps_a_recorded_ordering():
    seed = triangle_seed()
    config = RunConfig(ordering=("E3", "E1"))
    final, events = re_.run(seed, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(seed, events, final, config)))
    assert doc["config"]["ordering"] == ["E3", "E1"]
    assert re_.replay_trace(doc).ok


def test_replay_respects_recorded_policy():
    seed = triangle_seed()
    config = RunConfig(exponent_policy="paper")
    final, events = re_.run(seed, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(seed, events, final, config)))
    assert re_.replay_trace(doc).ok


def test_trace_header_documents_the_model_assumptions():
    seed = double_point_seed()
    config = RunConfig()
    final, events = re_.run(seed, config)
    doc = re_.trace_to_obj(seed, events, final, config)
    text = " ".join(doc["assumptions"])
    assert "m-2" in text and "m^2-2" in text
    assert "commute" in text
