"""Chart descriptors, the degree invariant, and the rewriting rules."""

import pytest
from hypothesis import example, given, settings, strategies as st

from sncresolve import chart_calculus as cc
from sncresolve import poly_oracle as po
from sncresolve import resolution_engine as re_
from sncresolve.chart_calculus import (ChartState, MultiDegree,
                                       RuleApplication, RulePreconditionError)
from sncresolve.resolution_engine import RunConfig

from oracles import (reference_application, reference_children, reference_local_equation,
                     reference_propose)


def chart(xs, m, a=None):
    return ChartState.of(xs, m, a or {})


# --------------------------------------------------------------------------
# mdeg / is_resolved
# --------------------------------------------------------------------------

def test_mdeg_examples():
    assert cc.mdeg(chart(["1", "2", "3"], 2)) == (3, 2, 0)
    assert cc.mdeg(chart(["1"], 0)) == (1, 0, 0)
    assert cc.mdeg(chart(["1", "2"], 0, {"j": 3})) == (2, 0, 3)


def test_mdeg_ordering_is_lexicographic():
    assert MultiDegree(2, 0, 5) < MultiDegree(3, 0, 0)
    assert MultiDegree(3, 1, 0) < MultiDegree(3, 2, 0)
    assert MultiDegree(3, 2, 1) > MultiDegree(3, 2, 0)


def test_is_resolved():
    assert cc.is_resolved(chart(["1"], 5, {"a": 3, "b": 4}))  # (1,5,7)
    assert cc.is_resolved(chart(["1", "2", "3", "4"], 0))     # (4,0,0)
    assert not cc.is_resolved(chart(["1", "2"], 1))           # (2,1,0)


def test_chart_invariants_enforced():
    with pytest.raises(ValueError):
        ChartState.of([], 0, {})
    with pytest.raises(ValueError):
        ChartState.of(["1"], 1, {"j": 0})
    with pytest.raises(ValueError):
        ChartState.of(["1"], -1, {})


@pytest.mark.parametrize("make", [
    lambda: ChartState(frozenset({"E1", "E2"}), 0, (("b", 2), ("a", 3))),
    # Summed, this would be dz 3, but its JSON {"a": 2} reads back as dz 2.
    lambda: ChartState.of(["E1", "E2"], 1, [("a", 1), ("a", 2)]),
    lambda: ChartState(frozenset({1, 2}), 1, (("a", 1),)),
    lambda: ChartState.of([1, 2], 1, {}),
    lambda: ChartState(frozenset({"E1"}), 1, (("a", True),)),
    lambda: ChartState(frozenset({"E1"}), True, ()),
    lambda: ChartState.of(["E1"], True, {}),
    lambda: ChartState(frozenset({"E1"}), 1, ((1, 2),)),
    lambda: ChartState(frozenset({"E1"}), 1, (("a", 1), (2, 1))),
    lambda: ChartState(frozenset({"E1"}), 1, [("a", 1)]),
    lambda: ChartState({"E1"}, 1, ()),
    lambda: ChartState(frozenset({"E1"}), 1, (("a", 1.0),)),
], ids=["unsorted", "repeated", "int-x", "int-x-of", "bool-exponent", "bool-det-size",
        "bool-det-size-of", "non-str-exponent-id", "non-str-second-id",
        "list-exponents", "set-x", "float-exponent"])
def test_a_chart_outside_the_stated_form_is_refused(make):
    with pytest.raises(ValueError):
        make()


def test_chart_of_refuses_exponents_it_would_have_to_coerce():
    # int() and str() would read these as a^2, a^1 and divisor "1"; ids of
    # mixed types do not even sort.
    for exponents in ({"a": 2.7}, {"a": True}, {1: 2}, {1: 2, "a": 1}):
        with pytest.raises(ValueError):
            ChartState.of(["E1", "E2"], 1, exponents)


def test_a_derived_child_refuses_a_new_divisor_id_that_is_not_a_str():
    c = chart(["E1", "E2"], 0, {"f1": 3})
    app = RuleApplication("MON1", ("E1", "E2"), ("f1",), new_divisor=(7, 1))
    with pytest.raises(ValueError, match="new divisor id must be a str"):
        cc.children(c, app)


def test_charts_are_equal_by_their_fields_not_their_hashes():
    a, b = chart(["E1", "E2"], 0, {"f1": 3}), chart(["E1", "E2"], 0, {"f1": 2})
    object.__setattr__(b, "_hash", a._hash)  # a hash collision
    assert a != b and a == chart(["E1", "E2"], 0, {"f1": 3})


# --------------------------------------------------------------------------
# children
# --------------------------------------------------------------------------

def det_app(pair, m, policy):
    e = cc.exceptional_coefficient("DET", det_size=m, policy=policy)
    return RuleApplication("DET", pair, det_size=m,
                           new_divisor=("w", e) if e > 0 else None)


def test_det_children_oracle_policy():
    kids = cc.children(chart(["1", "2", "3"], 2), det_app(("1", "2"), 2, "oracle"))
    by_family = {k.family: k for k in kids}
    assert cc.mdeg(by_family["x"].state) == (2, 2, 0)
    assert by_family["x"].multiplicity == 2
    assert cc.mdeg(by_family["y"].state) == (3, 1, 0)
    assert by_family["y"].multiplicity == 4


def test_det_children_paper_policy():
    kids = cc.children(chart(["1", "2", "3"], 2), det_app(("1", "2"), 2, "paper"),
                       policy="paper")
    by_family = {k.family: k for k in kids}
    assert cc.mdeg(by_family["x"].state) == (2, 2, 2)
    assert cc.mdeg(by_family["y"].state) == (3, 1, 2)


def test_det_m3_registers_coefficient_one_divisor():
    kids = cc.children(chart(["1", "2"], 3), det_app(("1", "2"), 3, "oracle"))
    by_family = {k.family: k for k in kids}
    assert by_family["x"].state.exponent_map() == {"w": 1}
    assert by_family["y"].multiplicity == 9


def test_mon1_children():
    app = RuleApplication("MON1", ("1", "2"), divisors=("j",), new_divisor=("w", 1))
    kids = cc.children(chart(["1", "2"], 0, {"j": 3}), app)
    degs = sorted(cc.mdeg(k.state) for k in kids)
    assert degs == [(1, 0, 4), (2, 0, 1)]
    x_child = next(k for k in kids if k.family == "x")
    assert x_child.state.exponent_map() == {"j": 3, "w": 1}
    z_child = next(k for k in kids if k.family == "z")
    assert z_child.state.exponent_map() == {"w": 1}


def test_mon1_exponent_two_drops_the_divisor():
    app = RuleApplication("MON1", ("1", "2"), divisors=("j",))
    kids = cc.children(chart(["1", "2"], 0, {"j": 2}), app)
    z_child = next(k for k in kids if k.family == "z")
    assert z_child.state.exponent_map() == {}
    assert cc.is_resolved(z_child.state)


def test_mon2_children():
    app = RuleApplication("MON2", ("1", "2"), divisors=("j1", "j2"))
    kids = cc.children(chart(["1", "2"], 0, {"j1": 1, "j2": 1}), app)
    degs = sorted(cc.mdeg(k.state) for k in kids)
    assert degs == [(1, 0, 2), (2, 0, 1)]
    assert all(k.multiplicity == 2 for k in kids)


def test_mon3_children():
    app = RuleApplication("MON3", ("1", "2"), divisors=("j",))
    kids = cc.children(chart(["1", "2", "3"], 1, {"j": 1}), app)
    by_family = {k.family: k for k in kids}
    assert cc.mdeg(by_family["x"].state) == (2, 1, 1)
    # Both surviving single-factor charts take the renamed y-form.
    assert cc.mdeg(by_family["yz"].state) == (3, 1, 0)
    assert by_family["yz"].multiplicity == 2


def test_bin_children_on_y_form():
    kids = cc.children(chart(["1", "2", "3"], 1), RuleApplication("BIN", ("1",)))
    degs = sorted(cc.mdeg(k.state) for k in kids)
    assert degs == [(2, 1, 0), (3, 0, 0)]


def test_bin_children_on_single_divisor_form():
    kids = cc.children(chart(["1", "2", "3"], 0, {"j": 1}),
                       RuleApplication("BIN", ("1",)))
    by_family = {k.family: k for k in kids}
    assert by_family["factor"].state.exponent_map() == {"j": 1}
    assert cc.mdeg(by_family["factor"].state) == (2, 0, 1)
    assert cc.mdeg(by_family["smooth"].state) == (3, 0, 0)


def test_bin_on_double_point():
    kids = cc.children(chart(["1", "2"], 1), RuleApplication("BIN", ("1",)))
    assert all(cc.is_resolved(k.state) for k in kids)


# --------------------------------------------------------------------------
# preconditions
# --------------------------------------------------------------------------

def test_precondition_errors_name_the_rule_and_condition():
    with pytest.raises(RulePreconditionError, match="DET.*det size"):
        cc.children(chart(["1", "2"], 1), RuleApplication("DET", ("1", "2"), det_size=1))
    with pytest.raises(RulePreconditionError, match="MON1.*exponent"):
        cc.children(chart(["1", "2"], 0, {"j": 1}),
                    RuleApplication("MON1", ("1", "2"), divisors=("j",)))
    with pytest.raises(RulePreconditionError, match="MON2"):
        cc.children(chart(["1", "2"], 0, {"j1": 2, "j2": 1}),
                    RuleApplication("MON2", ("1", "2"), divisors=("j1", "j2")))
    with pytest.raises(RulePreconditionError, match="MON3"):
        cc.children(chart(["1", "2"], 0, {"j": 1}),
                    RuleApplication("MON3", ("1", "2"), divisors=("j",)))
    with pytest.raises(RulePreconditionError, match="BIN"):
        cc.children(chart(["1"], 1), RuleApplication("BIN", ("1",)))
    with pytest.raises(RulePreconditionError, match="pair"):
        cc.children(chart(["1", "2"], 2),
                    RuleApplication("DET", ("1", "9"), det_size=2))


def test_no_rule_applies_to_resolved_charts():
    resolved = chart(["1"], 2, {"j": 1})
    for app in (det_app(("1", "2"), 2, "oracle"),
                RuleApplication("BIN", ("1",))):
        with pytest.raises(RulePreconditionError):
            cc.children(resolved, app)


# --------------------------------------------------------------------------
# lexicographic decrease (rule-by-rule property)
# --------------------------------------------------------------------------

def _applicable_apps(c: ChartState):
    deg = cc.mdeg(c)
    xs = sorted(c.x_indices)
    exps = c.exponent_map()
    if deg.dx >= 2:
        pair = (xs[0], xs[1])
        if c.det_size >= 2:
            yield det_app(pair, c.det_size, "oracle")
            yield det_app(pair, c.det_size, "paper")
        for j, a in exps.items():
            if a >= 2:
                yield RuleApplication("MON1", pair, divisors=(j,),
                                      new_divisor=("w", a - 2) if a > 2 else None)
        ones = [j for j, a in exps.items() if a == 1]
        if len(ones) >= 2:
            yield RuleApplication("MON2", pair, divisors=(ones[0], ones[1]))
        if deg.dy == 1 and deg.dz == 1:
            yield RuleApplication("MON3", pair, divisors=(ones[0],))
        if deg.dy + deg.dz == 1:
            yield RuleApplication("BIN", (xs[0],))


@st.composite
def random_chart(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=0, max_value=3))
    k = draw(st.integers(min_value=0, max_value=3))
    exps = {}
    budget = 6
    for i in range(k):
        a = draw(st.integers(min_value=1, max_value=3))
        if a <= budget:
            exps[f"f{i}"] = a
            budget -= a
    return chart([f"E{i}" for i in range(1, n + 1)], m, exps)


@settings(max_examples=150, deadline=None)
@given(random_chart())
def test_every_rule_strictly_decreases_mdeg(c):
    parent = cc.mdeg(c)
    for app in _applicable_apps(c):
        policy = "paper" if (app.kind == "DET" and app.new_divisor
                             and app.new_divisor[1] == c.det_size ** 2 - 2
                             and c.det_size ** 2 - 2 != c.det_size - 2) else "oracle"
        for kid in cc.children(c, app, policy=policy):
            child = cc.mdeg(kid.state)
            assert tuple(child) < tuple(parent)
            assert child.dx <= parent.dx
            assert child.dy <= parent.dy
            if child.dz > parent.dz:
                assert child.dx < parent.dx or child.dy < parent.dy


# --------------------------------------------------------------------------
# children against the re-sorting reference (tests/oracles.py)
# --------------------------------------------------------------------------

DIVISOR_POOL = ["f1", "f2", "f3", "w1", "w10", "w2", "a", "z"]


@st.composite
def chart_and_rule(draw):
    """A chart built by ``ChartState.of`` and a rule of any kind.

    The chart is mostly shaped to meet the rule's precondition, and the
    new divisor id often collides with one the chart already carries."""
    kind = draw(st.sampled_from(["DET", "MON1", "MON2", "MON3", "BIN"]))
    policy = draw(st.sampled_from(["oracle", "paper"]))
    xs = draw(st.lists(st.sampled_from(["E1", "E2", "E3", "E4"]), min_size=1,
                       max_size=4, unique=True))
    m = draw(st.integers(min_value=0, max_value=4))
    exps = draw(st.dictionaries(st.sampled_from(DIVISOR_POOL),
                                st.integers(min_value=1, max_value=4), max_size=6))
    ids = st.sampled_from(DIVISOR_POOL)
    if draw(st.integers(min_value=0, max_value=3)):
        if kind == "DET":
            m = max(m, 2)
        elif kind == "MON1":
            exps[draw(ids)] = draw(st.integers(min_value=2, max_value=4))
        elif kind == "MON2":
            exps.update(dict.fromkeys(draw(st.lists(ids, min_size=2, max_size=2,
                                                    unique=True)), 1))
        elif kind == "MON3":
            m, exps = 1, {draw(ids): 1}
        else:
            m, exps = draw(st.sampled_from([(1, {}), (0, {draw(ids): 1})]))
    c = chart(xs, m, exps)
    pairs = [(a, b) for a in xs for b in xs if a != b]
    pair = draw(st.sampled_from(pairs * 4 + [(xs[0], xs[0]), (xs[0], "E9")]))
    if kind == "BIN":
        return c, RuleApplication("BIN", pair[:1]), policy
    held = [j for j, a in sorted(exps.items()) if kind != "MON2" or a == 1]
    owned = st.sampled_from(held * 8 + DIVISOR_POOL)
    divisors = tuple(draw(st.lists(owned, min_size=2, max_size=2)))
    if kind == "DET":
        e = cc.exceptional_coefficient("DET", det_size=m, policy=policy)
        divisors = ()
    else:
        e = exps.get(divisors[0], 0) - 2
        divisors = divisors if kind == "MON2" else divisors[:1]
    new_divisor = None
    if e > 0 or draw(st.booleans()):
        new_divisor = (draw(owned), draw(st.sampled_from([e, e, e, 1, 2])))
    det_size = draw(st.sampled_from([None, m, m, m + 1]))
    return c, RuleApplication(kind, pair, divisors, det_size, new_divisor), policy


def _outcome(fn, c, app, policy):
    try:
        return fn(c, app, policy)
    except RulePreconditionError as err:
        return ("raised", str(err))


@settings(max_examples=400, deadline=None)
@given(chart_and_rule())
@example((chart(["E1", "E2"], 3, {"f1": 2, "w1": 3}),
          RuleApplication("DET", ("E1", "E2"), det_size=3, new_divisor=("w1", 1)), "oracle"))
@example((chart(["E1", "E2", "E3"], 1, {"f1": 4, "f2": 1, "w1": 2}),
          RuleApplication("MON1", ("E2", "E3"), ("f1",), new_divisor=("w1", 2)), "oracle"))
@example((chart(["E1", "E2"], 0, {"f1": 3, "f2": 1}),
          RuleApplication("MON1", ("E1", "E2"), ("f1",), new_divisor=("f1", 1)), "oracle"))
def test_children_equal_the_resorting_reference(case):
    c, app, policy = case
    want = _outcome(reference_children, c, app, policy)
    got = _outcome(cc.children, c, app, policy)
    assert got == want
    # A derived child carries its degree over; rebuilt in full it must agree.
    for child in (got if isinstance(got, list) else ()):
        s = child.state
        rebuilt = ChartState(s.x_indices, s.det_size, s.exponents)
        assert (s.deg, hash(s)) == (rebuilt.deg, hash(rebuilt))


# --------------------------------------------------------------------------
# ranks and applications against the re-sorting reference (tests/oracles.py)
# --------------------------------------------------------------------------

RANK_IDS = ["E1", "E2", "E3", "E4", "E5"]
RANK_DIVISORS = ["f1", "f2", "w1", "w2", "w10"]


@st.composite
def unresolved_chart_and_ordering(draw):
    xs = draw(st.lists(st.sampled_from(RANK_IDS), min_size=2, max_size=5, unique=True))
    m = draw(st.integers(min_value=0, max_value=4))
    # Few exponent values, so that divisors often tie at the top one.
    exps = draw(st.dictionaries(st.sampled_from(RANK_DIVISORS),
                                st.sampled_from([1, 2, 2, 3, 3]), max_size=5))
    if not (m or exps):
        exps = {"f1": 1}
    # Orderings repeat ids and name ids no chart carries.
    ordering = draw(st.none() | st.lists(st.sampled_from(RANK_IDS + RANK_DIVISORS + ["E9"]),
                                         max_size=10).map(tuple))
    return chart(xs, m, exps), ordering


@settings(max_examples=400, deadline=None)
@given(unresolved_chart_and_ordering(), st.sampled_from(cc.POLICIES))
@example((chart(["E1", "E2", "E3"], 0, {"f1": 3, "f2": 3, "w1": 3, "w2": 1}),
          ("w1", "E3", "f2", "w1")), "oracle")
@example((chart(["E1", "E2"], 1, {"w1": 2, "w10": 2}), ("w10", "w10", "E2")), "paper")
def test_propose_and_application_equal_the_reference(case, policy):
    c, ordering = case
    config = RunConfig(ordering)
    want = reference_propose(c, config.key)
    # The engine ranks through its book's memo of the key.
    for key in (config.key, re_._Keys(config.key).__getitem__):
        assert cc.propose(c, key) == want
    for new_id in ("w7", None):
        assert cc.application(want, c, policy, new_id) \
            == reference_application(want, c, policy, new_id)


# --------------------------------------------------------------------------
# local equations
# --------------------------------------------------------------------------

def test_local_equation_double_point():
    f = cc.local_equation(chart(["1", "2"], 1))
    V = po.Polynomial.variable
    assert f == V("x_1") * V("x_2") - V("t") * V("y")


def test_local_equation_triple_with_det2():
    f = cc.local_equation(chart(["1", "2", "3"], 2))
    V = po.Polynomial.variable
    det = V("y11") * V("y22") - V("y12") * V("y21")
    assert f == V("x_1") * V("x_2") * V("x_3") - V("t") * det


def test_local_equation_smooth_form():
    f = cc.local_equation(chart(["1"], 0))
    V = po.Polynomial.variable
    assert f == V("x_1") - V("t")


def test_local_equation_scale_cap():
    with pytest.raises(po.ScaleError):
        cc.local_equation(chart(["1", "2"], 4))
    with pytest.raises(po.ScaleError):
        cc.local_equation(chart([f"E{i}" for i in range(1, 21)], 0, {"j": 4}))


@st.composite
def equation_charts(draw, max_m=3, max_a=4):
    dx = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=max_m))
    exps = {f"f{j}": draw(st.integers(min_value=1, max_value=max_a))
            for j in range(draw(st.integers(min_value=0, max_value=3)))}
    return chart([f"E{i}" for i in range(1, dx + 1)], m, exps)


def _equation_or_cap(build, c):
    try:
        return build(c).terms
    except po.ScaleError:
        return po.ScaleError


@settings(max_examples=200, deadline=None)
@given(equation_charts())
def test_local_equation_equals_the_product_reference(c):
    assert cc.local_equation(c).terms == reference_local_equation(c).terms


@settings(max_examples=200, deadline=None)
@given(equation_charts(max_m=5, max_a=9))
@example(chart(["E1", "E2", "E3", "E4"], 3, {"f0": 8, "f1": 8}))  # degree 24: allowed
@example(chart(["E1", "E2", "E3", "E4"], 3, {"f0": 8, "f1": 9}))  # degree 25: capped
def test_local_equation_caps_where_the_product_reference_caps(c):
    assert _equation_or_cap(cc.local_equation, c) \
        == _equation_or_cap(reference_local_equation, c)


def test_snc_certificate_identity():
    # x' - t * prod z equals the local equation exactly.
    c = chart(["1"], 2, {"j": 2})
    x_new, reduced = cc.snc_certificate(c)
    assert reduced == cc.local_equation(c)
    with pytest.raises(ValueError):
        cc.snc_certificate(chart(["1", "2"], 1))


def test_chart_json_round_trip():
    c = chart(["E2", "E1"], 2, {"f1": 3})
    obj = cc.chart_to_obj(c)
    assert obj == {"x": ["E1", "E2"], "m": 2, "a": {"f1": 3}}
    assert cc.chart_from_obj(obj) == c


def test_chart_from_obj_refuses_a_repeated_x_index():
    # Read as a set, ["E1", "E1"] would be the resolved chart over E1 alone.
    with pytest.raises(ValueError, match="chart 'x' repeats an id"):
        cc.chart_from_obj({"x": ["E1", "E1"], "m": 1, "a": {"f1": 3}})
