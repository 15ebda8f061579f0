"""Seeding, center selection, stepping, full runs, traces, replay."""

import json
import random

import pytest

from sncresolve import chart_calculus as cc
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm
from sncresolve.chart_calculus import ChildChart, RuleApplication
from sncresolve.cli import random_state
from sncresolve.resolution_engine import RunConfig

from oracles import whole_state_select_center


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
        finals.append(re_.canonical_dumps(doc))
    assert len(set(finals)) == 1


def test_policies_give_different_traces():
    _, oracle_events = re_.run(triangle_seed(), RunConfig())
    _, paper_events = re_.run(triangle_seed(), RunConfig(exponent_policy="paper"))
    assert [e.phase for e in oracle_events] != [e.phase for e in paper_events]


def test_phase_order_is_monotone_along_every_trace():
    rank = {p: i for i, p in enumerate(re_.PHASE_ORDER)}
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


def test_hand_built_states_are_checked_in_full_before_their_first_event():
    # The alien chart is resolved, so no event would ever touch it.
    state = double_point_seed()
    bad = re_.ResolutionState(state.dual, state.registry,
                              state.charts + ((cc.ChartState.of(["E9"], 0), 1),))
    for call in (re_.select_center, re_.step, re_.run):
        with pytest.raises(re_.InvariantBreach, match="absent from the dual"):
            call(bad)


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
    assert re_.canonical_dumps(re_.state_to_obj(final_again)) \
        == re_.canonical_dumps(re_.state_to_obj(final))
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
            (chart, n) for chart, n in state.charts if cc.RULES[app.kind].matches(chart, app))
        checked += 1
    assert checked > 2 * BATCH_SEEDS


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
            assert not cc.RULES[app.kind].matches(chart, app), (chart, app)


# --------------------------------------------------------------------------
# serialization and replay
# --------------------------------------------------------------------------

def test_state_json_round_trip():
    state = random_state(random.Random(3))
    doc = json.loads(json.dumps(re_.state_to_obj(state)))
    again = re_.state_from_obj(doc)
    assert re_.canonical_dumps(re_.state_to_obj(again)) \
        == re_.canonical_dumps(re_.state_to_obj(state))


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


def test_replay_respects_recorded_policy():
    seed = triangle_seed()
    config = RunConfig(exponent_policy="paper")
    final, events = re_.run(seed, config)
    doc = json.loads(json.dumps(re_.trace_to_obj(seed, events, final, config)))
    assert re_.replay_trace(doc).ok


def test_event_serialization_round_trip():
    seed = triangle_seed()
    _, events = re_.run(seed)
    for event in events:
        again = re_.event_from_obj(json.loads(json.dumps(re_.event_to_obj(event))))
        assert re_.canonical_dumps(re_.event_to_obj(again)) \
            == re_.canonical_dumps(re_.event_to_obj(event))


def test_trace_header_documents_the_model_assumptions():
    seed = double_point_seed()
    config = RunConfig()
    final, events = re_.run(seed, config)
    doc = re_.trace_to_obj(seed, events, final, config)
    text = " ".join(doc["assumptions"])
    assert "m-2" in text and "m^2-2" in text
    assert "commute" in text
