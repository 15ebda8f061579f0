"""Polynomial arithmetic, strict transforms, and rule verification."""

import pytest
from hypothesis import given, settings, strategies as st

from sncresolve import chart_calculus as cc
from sncresolve import poly_oracle as po
from sncresolve.poly_oracle import Polynomial, ScaleError, Substitution

from oracles import ReferencePolynomial, reference_rename_variables

V = Polynomial.variable
C = Polynomial.constant


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------

def test_basic_arithmetic():
    f = (V("x") + V("y")) * (V("x") - V("y"))
    assert f == V("x") ** 2 - V("y") ** 2
    assert (f - f).is_zero()
    assert (V("x") + 1) ** 3 == V("x") ** 3 + 3 * V("x") ** 2 + 3 * V("x") + 1


def test_zero_coefficients_never_stored():
    f = V("x") - V("x")
    assert f.terms == {}
    assert (C(2) - C(2)).is_zero()


def test_power_rejects_negative():
    with pytest.raises(ValueError):
        V("x") ** -1


names = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def polynomials(draw, max_terms=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    total = Polynomial.zero()
    for _ in range(n):
        coeff = draw(st.integers(min_value=-5, max_value=5))
        term = C(coeff)
        for var in draw(st.lists(names, max_size=3)):
            term = term * V(var)
        total = total + term
    return total


@settings(max_examples=80, deadline=None)
@given(polynomials(), polynomials())
def test_substitution_is_a_ring_homomorphism(f, g):
    sub = {"x": V("a") + V("b"), "y": V("a") * V("b") - 1}
    assert (f + g).substitute(sub) == f.substitute(sub) + g.substitute(sub)
    assert (f * g).substitute(sub) == f.substitute(sub) * g.substitute(sub)


@settings(max_examples=80, deadline=None)
@given(polynomials(), polynomials())
def test_multiplicity_is_additive(f, g):
    if f.is_zero() or g.is_zero():
        return
    assert (po.multiplicity_at_origin(f * g)
            == po.multiplicity_at_origin(f) + po.multiplicity_at_origin(g))


def test_multiplicity_examples():
    assert po.multiplicity_at_origin(po.generic_det(2)) == 2
    assert po.multiplicity_at_origin(po.generic_det(3)) == 3
    assert po.multiplicity_at_origin(po.generic_det(4)) == 4
    assert po.multiplicity_at_origin(V("x") + V("y") * V("z")) == 1
    with pytest.raises(ValueError):
        po.multiplicity_at_origin(Polynomial.zero())


# --------------------------------------------------------------------------
# the kernel against the reference kernel (tests/oracles.py)
# --------------------------------------------------------------------------

POOL = ["t", "u", "x_E1", "x_E2", "y11", "z_f1"]


@st.composite
def raw_terms(draw, max_terms=5):
    """Arbitrary constructor input: unsorted monomials with distinct
    variables, zero exponents, zero and repeated coefficients."""
    terms = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        chosen = draw(st.lists(st.sampled_from(POOL), max_size=4, unique=True))
        mono = [(v, draw(st.integers(min_value=0, max_value=3))) for v in chosen]
        terms.append((tuple(mono), draw(st.integers(min_value=-4, max_value=4))))
    return terms


def both(raw):
    return Polynomial(raw), ReferencePolynomial(raw)


def assert_canonical(p):
    for mono, coeff in p.terms.items():
        assert isinstance(mono, tuple)
        assert all(a[0] < b[0] for a, b in zip(mono, mono[1:])), mono
        assert all(e > 0 for _, e in mono), mono
        assert coeff != 0


def assert_same(got, want):
    assert got.terms == want.terms
    assert_canonical(got)


@settings(max_examples=200, deadline=None)
@given(raw_terms())
def test_constructor_canonicalises_like_the_reference(raw):
    f, ref = both(raw)
    assert_same(f, ref)
    assert_same(Polynomial(dict(raw)), ReferencePolynomial(dict(raw)))


def test_constructor_canonicalises_unsorted_zero_exponent_and_zero_coefficient_input():
    f = Polynomial([((("y", 1), ("x", 2), ("w", 0)), 3), ((("x", 2), ("y", 1)), -1),
                    ((("z", 1),), 0), ((("v", 1),), 2), ((("v", 1),), -2)])
    assert f.terms == {(("x", 2), ("y", 1)): 2}


def test_constructor_merges_a_repeated_variable():
    assert Polynomial([((("x", 1), ("x", 2)), 1)]) == V("x") ** 3
    f = Polynomial([((("y", 1), ("x", 1), ("y", 2)), 2), ((("x", 1), ("y", 3)), -1)])
    assert f.terms == {(("x", 1), ("y", 3)): 1}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(st.tuples(st.sampled_from(POOL),
                                             st.integers(min_value=0, max_value=3)),
                                   max_size=6),
                          st.integers(min_value=-4, max_value=4)), max_size=4))
def test_constructor_on_repeated_variables_equals_the_product_of_powers(raw):
    want = Polynomial.zero()
    for mono, coeff in raw:
        term = C(coeff)
        for var, exp in mono:
            term = term * V(var) ** exp
        want = want + term
    got = Polynomial(raw)
    assert_same(got, want)


@settings(max_examples=200, deadline=None)
@given(raw_terms(), raw_terms(), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=4))
def test_arithmetic_equals_the_reference(raw_f, raw_g, c, n):
    (f, rf), (g, rg) = both(raw_f), both(raw_g)
    assert_same(f + g, rf + rg)
    assert_same(f - g, rf - rg)
    assert_same(f * g, rf * rg)
    assert_same(-f, -rf)
    assert_same(f ** n, rf ** n)
    assert_same(f + c, rf + c)
    assert_same(c + f, c + rf)
    assert_same(f - c, rf - c)
    assert_same(c - f, c - rf)
    assert_same(f * c, rf * c)
    assert_same(c * f, c * rf)


@st.composite
def images(draw):
    """A substitution image as (library value, reference value).

    Binomials and blow-up monomials like the verifier's charts, the
    constants 0 and c (the t = 0 fiber check sends t to 0), or any
    polynomial over the pool."""
    kind = draw(st.sampled_from(["binomial", "monomial", "zero", "constant", "any"]))
    if kind == "zero":
        value = draw(st.sampled_from([0, Polynomial.constant(0)]))
        return value, (value if isinstance(value, int) else ReferencePolynomial())
    if kind == "constant":
        c = draw(st.integers(min_value=-3, max_value=3))
        return c, c
    if kind == "binomial":
        a, b = draw(st.lists(st.sampled_from(POOL + ["v'"]), min_size=2, max_size=2))
        raw = [(((a + "'", 1), ("u", 1)), 1),
               (((b, draw(st.integers(min_value=1, max_value=2))),),
                draw(st.integers(min_value=-2, max_value=2)))]
    elif kind == "monomial":
        raw = [(((draw(st.sampled_from(POOL)) + "'", 1), ("u", 1)), 1)]
    else:
        raw = draw(raw_terms(max_terms=3))
    return Polynomial(raw), ReferencePolynomial(raw)


@settings(max_examples=200, deadline=None)
@given(raw_terms(), st.dictionaries(st.sampled_from(POOL), images(), max_size=4))
def test_substitute_equals_the_reference(raw, mapping):
    f, ref = both(raw)
    got = f.substitute({v: img for v, (img, _) in mapping.items()})
    want = ref.substitute({v: img for v, (_, img) in mapping.items()})
    assert_same(got, want)


@settings(max_examples=200, deadline=None)
@given(raw_terms(), st.sampled_from(POOL), st.integers(min_value=0, max_value=4))
def test_divide_out_equals_the_reference(raw, var, k):
    f, ref = both(raw)
    if any(Polynomial.exponent_of(m, var) < k for m in f.terms):
        with pytest.raises(ValueError):
            f.divide_out(var, k)
        with pytest.raises(ValueError):
            ref.divide_out(var, k)
    else:
        assert_same(f.divide_out(var, k), ref.divide_out(var, k))


@settings(max_examples=200, deadline=None)
@given(raw_terms(), st.permutations(POOL + ["a", "zz", "x_E1'"]))
def test_rename_variables_equals_the_reference(raw, targets):
    f, ref = both(raw)
    mapping = dict(zip(POOL, targets))
    assert_same(po.rename_variables(f, mapping), reference_rename_variables(ref, mapping))


def test_rename_variables_refuses_to_merge_two_variables():
    x, y = V("x"), V("y")
    with pytest.raises(ValueError):
        po.rename_variables(x + y, {"x": "y"})
    with pytest.raises(ValueError):
        po.rename_variables(x * y, {"x": "y"})
    assert po.rename_variables(x + 2 * y ** 2, {"x": "y", "y": "x"}) == y + 2 * x ** 2


# --------------------------------------------------------------------------
# substitutions and strict transforms
# --------------------------------------------------------------------------

def test_substitution_rejects_cycles():
    with pytest.raises(ValueError):
        Substitution({"x": V("y"), "y": V("x") + 1})


def test_identity_substitution_is_allowed():
    sub = Substitution({"x": V("x")})
    g, k = po.strict_transform(V("x"), sub, "u")
    assert g == V("x") and k == 0


def test_strict_transform_hand_example():
    # f = x1*x2 - t*z^2 under the z-leading chart of blowing up (x1=x2=z=0).
    f = V("x1") * V("x2") - V("t") * V("z") ** 2
    sub = Substitution({"x1": V("x1'") * V("u"), "x2": V("x2'") * V("u"),
                        "z": V("u")})
    g, k = po.strict_transform(f, sub, "u")
    assert k == 2
    assert g == V("x1'") * V("x2'") - V("t")
    assert g * V("u") ** 2 == sub.apply(f)


def test_strict_transform_det_chart_measures_m_minus_2():
    # The decisive computation: for m=2 the residual exceptional exponent
    # on the determinant side is 0, not 2.
    f = V("x1") * V("x2") - V("t") * po.generic_det(2)
    sub = Substitution({"x1": V("u"), "x2": V("x2'") * V("u"),
                        "y11": V("y11'") * V("u"), "y12": V("y12'") * V("u"),
                        "y21": V("y21'") * V("u"), "y22": V("y22'") * V("u")})
    g, k = po.strict_transform(f, sub, "u")
    assert k == 2
    residual = {Polynomial.exponent_of(m, "u") for m in g.terms
                if Polynomial.exponent_of(m, "t")}
    assert residual == {0}
    assert g * V("u") ** 2 == sub.apply(f)


def test_strict_transform_rejects_zero():
    with pytest.raises(ValueError):
        po.strict_transform(Polynomial.zero(), Substitution({}), "u")


@settings(max_examples=60, deadline=None)
@given(polynomials())
def test_remultiplication_identity(f):
    if f.is_zero():
        return
    sub = Substitution({"x": V("x'") * V("u"), "y": V("y'") * V("u"), "z": V("u")})
    g, k = po.strict_transform(f, sub, "u")
    assert g * V("u") ** k == sub.apply(f)
    assert g.min_exponent("u") == 0 or not any(
        "u" == v for m in g.terms for v, _ in m)


# --------------------------------------------------------------------------
# determinant identities
# --------------------------------------------------------------------------

def test_det_reduction_identity():
    assert po.det_reduction_check(2)
    assert po.det_reduction_check(3)
    assert po.det_reduction_check(4)
    with pytest.raises(ValueError):
        po.det_reduction_check(1)
    with pytest.raises(ScaleError):
        po.det_reduction_check(5)


def test_det_reduction_m2_by_hand():
    # det [[a, b], [c, 1]] = a - b*c.
    lhs = po.det_of([[V("a"), V("b")], [V("c"), C(1)]])
    assert lhs == V("a") - V("b") * V("c")


def test_generic_det_term_counts():
    assert len(po.generic_det(2).terms) == 2
    assert len(po.generic_det(3).terms) == 6
    assert len(po.generic_det(4).terms) == 24


# --------------------------------------------------------------------------
# verify_rule
# --------------------------------------------------------------------------

def det_app(m, policy="oracle"):
    e = cc.exceptional_coefficient("DET", det_size=m, policy=policy)
    return cc.RuleApplication("DET", ("E1", "E2"), det_size=m,
                              new_divisor=("w", e) if e > 0 else None)


def test_verify_det_x_chart_flags_the_alternate_value():
    chart = cc.ChartState.of(["E1", "E2"], 2, {})
    report = po.verify_rule(det_app(2), chart)
    assert report.passed
    assert report.measured_exponents == [0]
    assert any("m^2-2 = 2" in note for note in report.notes)


def test_verify_pulls_each_chart_back_once(monkeypatch):
    applied = []
    original = Substitution.apply
    monkeypatch.setattr(Substitution, "apply",
                        lambda self, f: applied.append(f) or original(self, f))
    report = po.verify_rule(det_app(2), cc.ChartState.of(["E1", "E2"], 2, {}))
    assert report.passed
    # One pull-back per chart, plus the pivot elimination on the 4 y-charts.
    assert len(report.checks) == 6
    assert len(applied) == 6 + 4


def test_verify_det_with_paper_policy_fails_the_match():
    chart = cc.ChartState.of(["E1", "E2"], 2, {})
    report = po.verify_rule(det_app(2, "paper"), chart, policy="paper")
    assert not report.passed
    assert any("disagrees with the measured exponent" in n for n in report.notes)


def test_verify_mon1_measures_the_degree_drop():
    chart = cc.ChartState.of(["E1", "E2"], 0, {"f1": 2})
    app = cc.RuleApplication("MON1", ("E1", "E2"), divisors=("f1",))
    report = po.verify_rule(app, chart)
    assert report.passed
    z_checks = [c for c in report.checks if c.family == "z"]
    assert z_checks[0].child_mdeg == (2, 0, 0)  # dz dropped by 2


def test_verify_bin_double_point():
    chart = cc.ChartState.of(["E1", "E2"], 1, {})
    report = po.verify_rule(cc.RuleApplication("BIN", ("E1",)), chart)
    assert report.passed
    assert [c.child_mdeg for c in report.checks] == [(1, 1, 0), (2, 0, 0)]
    assert all(c.divided_power == 1 for c in report.checks)


def test_verify_scale_caps():
    with pytest.raises(ScaleError):
        po.verify_rule(det_app(2), cc.ChartState.of(
            ["E1", "E2", "E3", "E4", "E5"], 2, {}))
    with pytest.raises(ScaleError):
        po.verify_rule(cc.RuleApplication("MON1", ("E1", "E2"), divisors=("f1",),
                                          new_divisor=("w", 3)),
                       cc.ChartState.of(["E1", "E2"], 0, {"f1": 5}))


def _rename_new_divisor(state):
    return cc.ChartState.of(state.x_indices, state.det_size,
                            {("v" if d == "w" else d): a for d, a in state.exponents})


def _keep_e1_drop_e3(state):
    if "E1" in state.x_indices:
        return state
    return cc.ChartState(state.x_indices - {"E3"} | {"E1"}, state.det_size, state.exponents)


@pytest.mark.parametrize("mutate", [_rename_new_divisor, _keep_e1_drop_e3])
@pytest.mark.parametrize("app", [
    det_app(3),
    cc.RuleApplication("MON1", ("E1", "E2"), divisors=("f1",), new_divisor=("w", 1)),
])
def test_verify_checks_the_children_the_engine_uses(monkeypatch, app, mutate):
    # Each mutation keeps every child's mdeg and every family size, so only
    # an exact comparison with the output of children() can catch it.
    chart = cc.ChartState.of(["E1", "E2", "E3"], app.det_size or 0,
                             {} if app.det_size else {"f1": 3})
    assert po.verify_rule(app, chart).passed
    original = cc.children
    monkeypatch.setattr(cc, "children", lambda *args, **kwargs: [
        kid._replace(state=mutate(kid.state)) for kid in original(*args, **kwargs)])
    report = po.verify_rule(app, chart)
    assert report.family_check_ok
    assert not report.passed
    assert not all(c.child_matches for c in report.checks)


def test_verify_checks_the_family_sizes_of_children(monkeypatch):
    original = cc.children
    monkeypatch.setattr(cc, "children", lambda *args, **kwargs: [
        kid._replace(multiplicity=kid.multiplicity + 1) for kid in original(*args, **kwargs)])
    report = po.verify_rule(det_app(2), cc.ChartState.of(["E1", "E2"], 2, {}))
    assert not report.family_check_ok and not report.passed
    assert any("family bookkeeping mismatch" in note for note in report.notes)


def test_verification_report_serializes():
    chart = cc.ChartState.of(["E1", "E2"], 1, {"f1": 1})
    app = cc.RuleApplication("MON3", ("E1", "E2"), divisors=("f1",))
    report = po.verify_rule(app, chart)
    obj = report.to_json_obj()
    assert obj["passed"] is True
    assert len(obj["checks"]) == 4
    assert po.grid_table([report]).count("pass") >= 1


# --------------------------------------------------------------------------
# full desk-scale grid (the heavy check lives in the acceptance suite; this
# is a quick sample per rule family)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (3, 2)])
def test_verify_det_grid_sample(m, d):
    chart = cc.ChartState.of([f"E{i}" for i in range(1, d + 1)], m, {})
    report = po.verify_rule(det_app(m), chart)
    assert report.passed
    assert report.measured_exponents == [m - 2]


@pytest.mark.parametrize("a", [2, 3, 4])
def test_verify_mon1_grid_sample(a):
    chart = cc.ChartState.of(["E1", "E2", "E3"], 0, {"f1": a})
    app = cc.RuleApplication("MON1", ("E1", "E2"), divisors=("f1",),
                             new_divisor=("w", a - 2) if a > 2 else None)
    assert po.verify_rule(app, chart).passed


def test_verify_bin_single_divisor_form():
    chart = cc.ChartState.of(["E1", "E2", "E3"], 0, {"f1": 1})
    report = po.verify_rule(cc.RuleApplication("BIN", ("E1",)), chart)
    assert report.passed
    assert [c.child_mdeg for c in report.checks] == [(2, 0, 1), (3, 0, 0)]
