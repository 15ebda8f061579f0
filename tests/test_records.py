"""The record contract: each of the package's records is built by keyword or
from its defaults, shows its fields in its repr, equals and hashes like a
twin by value, differs when one field does, copies and pickles, and refuses
writes, except the two verification reports, which may be filled in and are
unhashable.  A polynomial and a dual complex keep the same contract through
cases of their own.  Every immutable object refuses a write with one message."""

import copy
import pickle
from types import MappingProxyType

import pytest

from sncresolve import chart_calculus as cc
from sncresolve import dual_complex as dc
from sncresolve import poly_oracle as po
from sncresolve import resolution_engine as re_
from sncresolve import snc_model as sm

E1 = sm.Stratum("E1", frozenset({"E1"}))
BIN = cc.RuleApplication("BIN", ("E1",))
CHART = cc.ChartState(frozenset({"E1", "E2"}), 0, ())
STATE = re_.ResolutionState(dc.DualComplex(), (), ())

# class: ({field: (sample value, another value)} in the class's order, the
# fields whose sample value is their default, repr of the sample).  A
# HomologyReport's euler is fixed by its betti numbers, so it has no other
# value (``...``) on its own.
RECORDS = {
    dc.Cell: (
        {"id": ("a", "b"), "dim": (0, 1), "facets": ((), ("v",)),
         "label": (None, frozenset({"A"}))},
        ("facets", "label"),
        "Cell(id='a', dim=0, facets=(), label=None)"),
    dc.Violation: (
        {"rule": ("dimension", "facet count"), "cell": ("a", None),
         "detail": ("negative dimension -1", "a 1-cell needs 2 facets, found 0")},
        (),
        "Violation(rule='dimension', cell='a', detail='negative dimension -1')"),
    dc.HomologyReport: (
        {"betti": ((1,), (1, 0)), "torsion": (((),), ((), ())), "euler": (1, ...)},
        (),
        "HomologyReport(betti=(1,), torsion=((),), euler=1)"),
    sm.Stratum: (
        {"id": ("E1", "E2"), "indices": (frozenset({"E1"}), frozenset({"E2"})),
         "parents": ((), (("E1", "E1"),))},
        ("parents",),
        "Stratum(id='E1', indices=frozenset({'E1'}), parents=())"),
    sm.SncVariety: (
        {"components": (frozenset({"E1"}), frozenset({"E2"})), "strata": ((E1,), ())},
        (),
        "SncVariety(components=frozenset({'E1'}), "
        "strata=(Stratum(id='E1', indices=frozenset({'E1'}), parents=()),))"),
    sm.CenterDescriptor: (
        {"kind": ("stratum", "nonstratum"), "stratum_id": ("E1", "E3"),
         "host_stratum": ("E2", "E3"), "codim_in_host": (1, 2), "transversal": (False, True)},
        ("transversal",),
        "CenterDescriptor(kind='stratum', stratum_id='E1', host_stratum='E2', "
        "codim_in_host=1, transversal=False)"),
    sm.CenterCheck: (
        {"compatible": (True, False), "kind": ("stratum", "nonstratum"),
         "reasons": ((), ("not transversal",)), "assumptions": ((), ("reduced",))},
        ("reasons", "assumptions"),
        "CenterCheck(compatible=True, kind='stratum', reasons=(), assumptions=())"),
    cc.ChartState: (
        {"x_indices": (frozenset({"E1", "E2"}), frozenset({"E1", "E3"})),
         "det_size": (0, 1), "exponents": ((), (("f1", 2),))},
        (),
        "Chart[x:E1,E2|m:0|z:]"),
    cc.RuleApplication: (
        {"kind": ("BIN", "DET"), "pair": (("E1",), ("E2",)), "divisors": ((), ("f1",)),
         "det_size": (None, 2), "new_divisor": (None, ("f2", 1))},
        ("divisors", "det_size", "new_divisor"),
        "RuleApplication(kind='BIN', pair=('E1',), divisors=(), det_size=None, "
        "new_divisor=None)"),
    po.Substitution: (
        {"mapping": ({"x": po.Polynomial.variable("y")}, {"x": po.Polynomial.variable("z")})},
        (),
        "Substitution(mapping={'x': +y})"),
    po.ChartCheck: (
        {"family": ("x_E1", "x_E2"), "detail": ("ok", "mismatch"), "divided_power": (0, 1),
         "exc_exponent": (0, 2), "remultiplication_ok": (True, False),
         "preimage_ok": (True, False), "child_matches": (True, False),
         "child_mdeg": ((1, 0, 0), (2, 0, 0))},
        (),
        "ChartCheck(family='x_E1', detail='ok', divided_power=0, exc_exponent=0, "
        "remultiplication_ok=True, preimage_ok=True, child_matches=True, "
        "child_mdeg=(1, 0, 0))"),
    po.VerificationReport: (
        {"rule": ("DET", "BIN"), "chart": ({"x": ["E1", "E2"], "m": 2, "a": {}}, {}),
         "policy": ("oracle", "paper"), "checks": ([], [None]), "notes": ([], ["note"]),
         "family_check_ok": (True, False)},
        ("checks", "notes", "family_check_ok"),
        "VerificationReport(rule='DET', chart={'x': ['E1', 'E2'], 'm': 2, 'a': {}}, "
        "policy='oracle', checks=[], notes=[], family_check_ok=True)"),
    re_.RunConfig: (
        {"ordering": (None, ("E2", "E1")), "exponent_policy": ("oracle", "paper"),
         "event_ceiling": (10_000, 5)},
        ("ordering", "exponent_policy", "event_ceiling"),
        "RunConfig(ordering=None, exponent_policy='oracle', event_ceiling=10000)"),
    re_.DivisorRecord: (
        {"id": ("f1", "f2"), "coeff": (2, 3), "birth": (None, 0)},
        (),
        "DivisorRecord(id='f1', coeff=2, birth=None)"),
    re_.BlowupEvent: (
        {"index": (0, 1), "phase": ("det", "mon"),
         "rule": (BIN, cc.RuleApplication("BIN", ("E2",))),
         "parents": ((), ((CHART, 1),)), "children": ((), ((CHART, 2),)),
         "new_divisor": (None, ("f1", 1)), "exceptional": (None, "f1"),
         "lex": ((), (((2, 0, 0), (1, 0, 0)),))},
        (),
        "BlowupEvent(index=0, phase='det', rule=RuleApplication(kind='BIN', pair=('E1',), "
        "divisors=(), det_size=None, new_divisor=None), parents=(), children=(), "
        "new_divisor=None, exceptional=None, lex=())"),
    re_.ReplayResult: (
        {"ok": (True, False), "final": (None, STATE),
         "detail": ("replay reproduced the trace", "event 0 differs from the re-run")},
        (),
        "ReplayResult(ok=True, final=None, detail='replay reproduced the trace')"),
}

MUTABLE = {po.ChartCheck, po.VerificationReport}

# The values that are not built from their fields: a polynomial from a term
# map that it normalizes, a complex from its cells.  Each hashes through a
# frozenset of its field's items.  class: (sample, a twin built otherwise,
# another value, the field).
X, Y = po.Polynomial.variable("x"), po.Polynomial.variable("y")
GERM = sm.dual_complex_of(sm.coordinate_germ(3))
VALUES = {
    po.Polynomial: (
        (X + 1) ** 2,
        po.Polynomial([((), 1), ((("x", 1),), 3), ((("x", 1),), -1), ((("x", 1), ("x", 1)), 1)]),
        (X + 1) * (Y + 1), "terms"),
    dc.DualComplex: (
        GERM, dc.DualComplex(reversed(GERM.cells.values())),
        dc.DualComplex(c for c in GERM.cells.values() if c.dim < 2), "_cells"),
}


def copies(value) -> list:
    return [copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))]


def test_every_record_class_is_covered():
    records = {cls for module in (dc, sm, cc, po, re_) for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and not cls.__name__.startswith("_") and cls.__eq__ is not object.__eq__
               and not issubclass(cls, (BaseException, tuple))}
    assert records == set(RECORDS) | set(VALUES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_contract(cls):
    fields, defaulted, shown = RECORDS[cls]
    values = {name: sample for name, (sample, _) in fields.items()}
    others = {name: other for name, (_, other) in fields.items() if other is not ...}

    # By keyword, and with the defaults left out.
    sample = cls(**values)
    assert all(getattr(sample, name) == value for name, value in values.items())
    assert repr(sample) == shown
    given = {name: value for name, value in values.items() if name not in defaulted}
    bare = cls(**given)
    assert bare == sample

    # Equal to a twin by value, unequal once one field differs, and no
    # answer for another class.
    twin = cls(**values)
    assert twin == sample and not twin != sample
    assert sample.__eq__(tuple(values.values())) is NotImplemented
    for name, other in others.items():
        changed = cls(**{**values, name: other})
        assert changed != sample and not changed == sample, name

    for copied in copies(sample):
        assert type(copied) is cls and copied == sample and repr(copied) == shown

    if cls in MUTABLE:
        assert cls.__hash__ is None
        # Each record gets lists of its own.
        assert all(getattr(bare, name) is not getattr(cls(**given), name)
                   for name in defaulted if isinstance(values[name], list))
        for name, other in others.items():
            setattr(twin, name, other)
            assert getattr(twin, name) == other
        assert twin != sample
        return

    # A frozen record hashes as the tuple of its fields, where those hash.
    try:
        expected = hash(tuple(values.values()))
    except TypeError:
        with pytest.raises(TypeError):
            hash(sample)
    else:
        assert hash(sample) == hash(twin) == expected
    for name, other in others.items():
        with pytest.raises(AttributeError):
            setattr(sample, name, other)
        with pytest.raises(AttributeError):
            delattr(sample, name)
        assert getattr(sample, name) == values[name]


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_value_contract(cls):
    sample, twin, other, name = VALUES[cls]
    assert twin is not sample and twin == sample and not twin != sample
    assert hash(twin) == hash(sample) == hash(frozenset(getattr(sample, name).items()))
    assert other != sample and not other == sample
    assert sample.__eq__(getattr(sample, name)) is NotImplemented
    assert sample.__eq__(E1) is NotImplemented
    for copied in copies(sample):
        assert type(copied) is cls and copied == sample and hash(copied) == hash(sample)
        assert repr(copied) == repr(sample)
    with pytest.raises(AttributeError):
        setattr(sample, name, getattr(other, name))
    with pytest.raises(AttributeError):
        delattr(sample, name)
    assert sample == twin


def test_a_copied_complex_checks_its_cells_anew():
    assert dc.validate(GERM) == []
    for copied in copies(GERM):
        assert copied._violations is None and dc.validate(copied) == []


def test_a_read_only_chart_map_copies_and_pickles():
    sub = po._chart_map("x_E1", ("x_E2",))
    assert type(sub.mapping) is MappingProxyType
    f = X * X + Y
    for copied in copies(sub):
        assert copied == sub and copied.apply(f) == sub.apply(f)


@pytest.mark.parametrize("value, name", [
    (BIN, "kind"), (E1, "_cell"), (dc.DualComplex(), "_cells"),
    (po.Polynomial.variable("x"), "terms"), (STATE, "dual"),
], ids=["RuleApplication", "Stratum", "DualComplex", "Polynomial", "ResolutionState"])
def test_every_immutable_object_refuses_a_write_in_one_way(value, name):
    message = f"{type(value).__name__} is immutable; cannot change '{name}'"
    with pytest.raises(AttributeError) as refused:
        setattr(value, name, None)
    assert str(refused.value) == message
    with pytest.raises(AttributeError) as refused:
        delattr(value, name)
    assert str(refused.value) == message
