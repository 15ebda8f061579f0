"""Incidence model, dual complex construction, combinatorial blow-ups."""

import json
import os
from collections import OrderedDict
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sncresolve import cli
from sncresolve import dual_complex as dc
from sncresolve import snc_model as sm
from sncresolve.dual_complex import Cell, DualComplex
from sncresolve.snc_model import CenterDescriptor, SncVariety, Stratum

from oracles import (cell_of_dual_complex, closure_rule_blowup, per_map_homology,
                     per_pair_validate_snc, random_variety, rational_betti,
                     reference_variety_from_json_obj, shared_map_validate_snc)


def triangle():
    return sm.coordinate_germ(3)


def cycle3():
    return sm.from_index_sets(["E1", "E2", "E3"],
                              [{"E1", "E2"}, {"E2", "E3"}, {"E1", "E3"}])


# --------------------------------------------------------------------------
# dual_complex_of
# --------------------------------------------------------------------------

def test_triangle_germ_has_seven_strata_and_gives_the_2_simplex():
    germ = triangle()
    assert len(germ.strata) == 7
    D = sm.dual_complex_of(germ)
    assert D.cell_counts() == [3, 3, 1]
    assert dc.validate(D) == []
    assert dc.homology(D).betti == (1, 0, 0)


def test_two_disjoint_components_give_two_vertices():
    snc = sm.from_index_sets(["A", "B"], [])
    D = sm.dual_complex_of(snc)
    assert D.cell_counts() == [2]


def test_cycle_of_three_gives_boundary_of_simplex():
    D = sm.dual_complex_of(cycle3())
    assert D.cell_counts() == [3, 3]
    assert rational_betti(D) == [1, 1]
    assert dc.homology(D).betti == (1, 1)


def test_cells_carry_index_set_labels():
    D = sm.dual_complex_of(triangle())
    top = D.cells_of_dim(2)[0]
    assert top.label == frozenset({"E1", "E2", "E3"})


def test_dual_complex_output_always_validates():
    rng = random.Random(7)
    from sncresolve.cli import random_state  # the generator builds valid varieties
    for _ in range(20):
        state = random_state(rng)
        assert dc.validate(state.dual) == []


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def test_missing_singleton_stratum_is_reported():
    snc = SncVariety.of(["A", "B"], [Stratum.of("A", ["A"])])
    assert any("singleton" in v for v in sm.validate_snc(snc))


def test_missing_parent_is_reported():
    snc = SncVariety.of(["A", "B"], [
        Stratum.of("A", ["A"]), Stratum.of("B", ["B"]),
        Stratum.of("AB", ["A", "B"], {"A": "B"}),  # parent over B missing
    ])
    violations = sm.validate_snc(snc)
    assert any("parents must be designated" in v for v in violations)


def test_wrong_parent_index_set_is_reported():
    snc = SncVariety.of(["A", "B", "C"], [
        Stratum.of("A", ["A"]), Stratum.of("B", ["B"]), Stratum.of("C", ["C"]),
        Stratum.of("AB", ["A", "B"], {"A": "C", "B": "A"}),
    ])
    assert any("expected" in v for v in sm.validate_snc(snc))


def test_incoherent_parents_are_reported():
    # Two strata over {A,B} let the deep stratum's two-step descents disagree.
    snc = SncVariety.of(["A", "B", "C"], [
        Stratum.of("A", ["A"]), Stratum.of("B", ["B"]), Stratum.of("C", ["C"]),
        Stratum.of("AB#1", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AB#2", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"],
                   {"A": "BC", "B": "AC", "C": "AB#1"}),
    ])
    # Descending C then A must reach the same stratum as A then C; make the
    # AC parent map point somewhere inconsistent.
    violations = sm.validate_snc(snc)
    assert violations == []  # coherent as written

    bad = SncVariety.of(["A", "B", "C"], [
        Stratum.of("A", ["A"]), Stratum.of("B", ["B"]), Stratum.of("C", ["C"]),
        Stratum.of("AB#1", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AB#2", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"],
                   {"A": "BC", "B": "AC", "C": "AB#1"}),
        Stratum.of("ABC2", ["A", "B", "C"],
                   {"A": "BC", "B": "AC", "C": "AB#2"}),
    ])
    # Both deep strata are individually coherent; this family is fine too.
    assert sm.validate_snc(bad) == []


def _singletons(*comps):
    return [Stratum.of(c, [c]) for c in comps]


# Malformed and incoherent families: each entry is (components, strata).
MALFORMED = {
    "missing singleton": (["A", "B"], [Stratum.of("A", ["A"])]),
    "missing parent": (["A", "B"], _singletons("A", "B") + [
        Stratum.of("AB", ["A", "B"], {"A": "B"})]),
    # As many parents as indices, but one drops C, which AB does not hold.
    "parent over a foreign index": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("AB", ["A", "B"], {"A": "B", "C": "A"})]),
    "wrong parent index set": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("AB", ["A", "B"], {"A": "C", "B": "A"})]),
    # ABC's parent over A lies over {A, C} (B dropped instead), then over {C} (two dropped).
    "parent over another index": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("AB", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"], {"A": "AC", "B": "AC", "C": "AB"})]),
    "parent two indices down": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("AB", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"], {"A": "C", "B": "AC", "C": "AB"})]),
    "ghost parent": (["A", "B"], _singletons("A", "B") + [
        Stratum.of("AB", ["A", "B"], {"A": "ghost", "B": "A"})]),
    "duplicate deep strata": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("AB#1", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AB#2", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"], {"A": "BC", "B": "AC", "C": "AB#1"}),
        Stratum.of("ABC2", ["A", "B", "C"], {"A": "BC", "B": "AC", "C": "AB#2"})]),
    # Two strata over {C}: dropping A then B reaches C#2, B then A reaches C.
    "incoherent": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("C#2", ["C"]),
        Stratum.of("AB", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C#2", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"], {"A": "BC", "B": "AC", "C": "AB"})]),
    # A repeated id: the later record wins every parent lookup.
    "duplicate id": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("C#2", ["C"]),
        Stratum.of("AB", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C", "C": "B"}),
        Stratum.of("BC", ["B", "C"], {"B": "C#2", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"], {"A": "BC", "B": "AC", "C": "AB"})]),
    # AB's second pair drops C, which AB does not hold, for the stratum over
    # {A, B, C}: every mask of a pair is right, but the stratum is above.
    "parent over a foreign index, one level up": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("AB", ["A", "B"], {"A": "B", "C": "ABC"}),
        Stratum.of("AC", ["A", "C"], {"A": "C", "C": "A"}),
        Stratum.of("BC", ["B", "C"], {"B": "C", "C": "B"}),
        Stratum.of("ABC", ["A", "B", "C"], {"A": "BC", "B": "AC", "C": "AB"})]),
    # Two strata that no stratum lies in share an id, over different sets.
    "duplicate id of two top strata": (["A", "B", "C"], _singletons("A", "B", "C") + [
        Stratum.of("AB", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AB", ["A", "C"], {"A": "C", "C": "A"})]),
    "deep stratum with a ghost parent": (["A", "B", "C", "D"],
                                         _singletons("A", "B", "C", "D") + [
        Stratum.of("ABCD", ["A", "B", "C", "D"],
                   {"A": "ghost", "B": "ACD", "C": "ABD", "D": "ABC"})]),
    "unknown component and empty index set": (["A"], _singletons("A") + [
        Stratum.of("Z", ["Z"]), Stratum.of("none", [])]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_validate_snc_equals_the_per_pair_reference_on_malformed_families(name):
    components, strata = MALFORMED[name]
    snc = SncVariety.of(components, strata)
    violations = sm.validate_snc(snc)
    assert violations == per_pair_validate_snc(snc)
    # The duplicate deep strata are coherent: only the others are malformed.
    assert bool(violations) == (name != "duplicate deep strata")
    if name == "incoherent":
        assert any("incoherent parents" in v for v in violations)


def test_validate_snc_equals_the_per_pair_reference_on_germs(monkeypatch):
    for n in range(1, 9):
        germ = sm.coordinate_germ(n)
        assert sm.validate_snc(germ) == per_pair_validate_snc(germ) == []
    calls = []
    original = Stratum.parent_map
    monkeypatch.setattr(Stratum, "parent_map",
                        lambda self: calls.append(self.id) or original(self))
    germ = sm.coordinate_germ(10)
    assert sm.validate_snc(germ) == []
    assert len(calls) <= 3 * len(germ.strata)


def test_duplicate_deep_strata_give_parallel_cells():
    snc = SncVariety.of(["A", "B"], [
        Stratum.of("A", ["A"]), Stratum.of("B", ["B"]),
        Stratum.of("AB#1", ["A", "B"], {"A": "B", "B": "A"}),
        Stratum.of("AB#2", ["A", "B"], {"A": "B", "B": "A"}),
    ])
    D = sm.dual_complex_of(snc)
    assert D.cell_counts() == [2, 2]
    assert dc.homology(D).betti == (1, 1)  # a two-edge circle


def test_dual_complex_of_rejects_invalid_incidence():
    snc = SncVariety.of(["A", "B"], [
        Stratum.of("A", ["A"]), Stratum.of("B", ["B"]),
        Stratum.of("AB", ["A", "B"], {"A": "ghost", "B": "A"}),
    ])
    with pytest.raises(sm.IncidenceError) as err:
        sm.dual_complex_of(snc)
    assert "AB" in str(err.value)


def test_self_intersection_cannot_be_encoded():
    # Index sets are sets: a component cannot meet itself, so the structure
    # rejects self-intersections by construction.
    s = Stratum.of("AA", ["A", "A"])
    assert s.indices == frozenset({"A"})


# --------------------------------------------------------------------------
# check_center / blowup_center
# --------------------------------------------------------------------------

def test_origin_stratum_center_is_compatible():
    germ = triangle()
    origin = next(s for s in germ.strata if len(s.indices) == 3)
    verdict = sm.check_center(germ, CenterDescriptor("stratum", stratum_id=origin.id))
    assert verdict.compatible and verdict.kind == "stratum"


def test_nonstratum_center_records_assumptions():
    germ = triangle()
    host = next(s for s in germ.strata if len(s.indices) == 1)
    verdict = sm.check_center(germ, CenterDescriptor(
        "nonstratum", host_stratum=host.id, codim_in_host=2, transversal=True))
    assert verdict.compatible and verdict.kind == "nonstratum"
    assert len(verdict.assumptions) == 2


def test_diagonal_style_center_is_rejected_with_nonreduced_reason():
    germ = triangle()
    host = next(s for s in germ.strata if len(s.indices) == 1)
    verdict = sm.check_center(germ, CenterDescriptor(
        "nonstratum", host_stratum=host.id, codim_in_host=1, transversal=False))
    assert not verdict.compatible
    assert any("non-reduced" in r for r in verdict.reasons)


def test_unknown_host_stratum_errors():
    with pytest.raises(KeyError):
        sm.check_center(triangle(), CenterDescriptor(
            "nonstratum", host_stratum="ghost", codim_in_host=1, transversal=True))


def test_blowup_origin_gives_boundary_of_simplex():
    germ = triangle()
    origin = next(s for s in germ.strata if len(s.indices) == 3)
    snc2, D2 = sm.blowup_center(germ, CenterDescriptor("stratum", stratum_id=origin.id))
    assert D2.cell_counts() == [3, 3]
    assert dc.homology(D2).betti == (1, 1)
    assert len(snc2.strata) == 6


def test_blowup_non_origin_point_is_thrifty():
    germ = triangle()
    host = next(s for s in germ.strata if len(s.indices) == 1)
    center = CenterDescriptor("nonstratum", host_stratum=host.id,
                              codim_in_host=2, transversal=True)
    snc2, D2 = sm.blowup_center(germ, center)
    assert len(snc2.strata) == 7
    assert D2 == sm.dual_complex_of(germ)


def test_blowup_nonstratum_on_one_smooth_component():
    snc = sm.from_index_sets(["A"], [])
    center = CenterDescriptor("nonstratum", host_stratum="A",
                              codim_in_host=1, transversal=True)
    snc2, D2 = sm.blowup_center(snc, center)
    assert D2.cell_counts() == [1]


def test_blowup_incompatible_center_errors():
    germ = triangle()
    host = next(s for s in germ.strata if len(s.indices) == 1)
    with pytest.raises(ValueError):
        sm.blowup_center(germ, CenterDescriptor(
            "nonstratum", host_stratum=host.id, codim_in_host=1,
            transversal=False))


def test_stratum_blowup_matches_open_star_removal():
    germ = triangle()
    D = sm.dual_complex_of(germ)
    for stratum in germ.strata:
        _, blown = sm.blowup_center(
            germ, CenterDescriptor("stratum", stratum_id=stratum.id))
        assert blown == dc.remove_open_star(D, stratum.id)


def test_stratum_blowup_strictly_decreases_cells():
    germ = triangle()
    D = sm.dual_complex_of(germ)
    for stratum in germ.strata:
        _, blown = sm.blowup_center(
            germ, CenterDescriptor("stratum", stratum_id=stratum.id))
        assert len(blown) < len(D)


# --------------------------------------------------------------------------
# builders and serialization
# --------------------------------------------------------------------------

def test_from_index_sets_requires_downward_closure():
    with pytest.raises(sm.IncidenceError):
        sm.from_index_sets(["A", "B", "C"], [{"A", "B", "C"}])


_NOT_CLOSED = "index family not downward closed: ['a', 'b'] missing below ['a', 'b', 'c']"
_NOT_CLOSED_SCRIPT = """
from sncresolve import snc_model as sm
try:
    sm.from_index_sets(["a", "b", "c", "d"], [{"a", "b", "c"}, {"b", "c", "d"}])
except sm.IncidenceError as err:
    print(err)
"""


def test_a_family_not_downward_closed_names_its_least_missing_set():
    # Six sets are missing, below two sets; the least, as sorted lists, is
    # named under every hash seed.
    with pytest.raises(sm.IncidenceError) as err:
        sm.from_index_sets(["a", "b", "c", "d"], [{"a", "b", "c"}, {"b", "c", "d"}])
    assert str(err.value) == _NOT_CLOSED
    src = str(Path(__file__).resolve().parents[1] / "src")
    for hash_seed in "12345":
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", _NOT_CLOSED_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == _NOT_CLOSED + "\n"


_SHARED_ID = "index sets ['a', 'b'] and ['a+b'] share the stratum id 'a+b'"
_SHARED_ID_SCRIPT = """
from sncresolve import snc_model as sm
try:
    sm.from_index_sets(["a+b", "a", "b"], [{"a", "b"}])
except ValueError as err:
    print(err)
"""


def test_two_index_sets_with_one_id_are_refused_under_every_hash_seed():
    # {'a+b'} and {'a', 'b'} both get the id 'a+b'; built, the two strata
    # would come in an order that follows the hash seed.
    with pytest.raises(ValueError) as err:
        sm.from_index_sets(["a+b", "a", "b"], [{"a", "b"}])
    assert str(err.value) == _SHARED_ID
    src = str(Path(__file__).resolve().parents[1] / "src")
    for hash_seed in "12345":
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        done = subprocess.run([sys.executable, "-c", _SHARED_ID_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout == _SHARED_ID + "\n"


def test_from_index_sets_names_each_index_set_once(monkeypatch):
    names = []
    subset_id = sm.subset_id
    monkeypatch.setattr(sm, "subset_id", lambda indices: names.append(indices)
                        or subset_id(indices))
    germ = sm.coordinate_germ(5)
    assert len(names) == len(set(names)) == len(germ.strata) == 31


def test_json_round_trip():
    germ = triangle()
    doc = json.loads(json.dumps(sm.to_json_obj(germ)))
    again = sm.from_json_obj(doc)
    assert again == germ
    assert sm.to_json_obj(again) == sm.to_json_obj(germ)


def test_json_schema_keys():
    doc = sm.to_json_obj(cycle3())
    assert set(doc) == {"components", "strata"}
    assert all(set(s) == {"id", "indices", "parents"} for s in doc["strata"])


# --------------------------------------------------------------------------
# validity computed once and carried through constructors
# --------------------------------------------------------------------------

def _mutated(rng, snc):
    """The variety with one to three random edits: a stratum dropped, an id
    given to another stratum (or a ghost), a parent redirected or dropped,
    a stratum over an unknown component or over none, or a component with
    no stratum.  Some edits leave it valid."""
    components, strata = set(snc.components), list(snc.strata)
    ids = [s.id for s in strata] + ["ghost"]
    for _ in range(rng.randint(1, 3)):
        roll = rng.randrange(7)
        k = rng.randrange(len(strata)) if strata else None
        s = strata[k] if strata else None
        if roll == 0 and s:
            del strata[k]
        elif roll == 1 and s:
            strata[k] = Stratum.of(rng.choice(ids), s.indices, s.parents)
        elif roll == 2 and s and s.parents:
            parents = list(s.parents)
            p = rng.randrange(len(parents))
            parents[p] = (parents[p][0], rng.choice(ids))
            strata[k] = Stratum.of(s.id, s.indices, parents)
        elif roll == 3 and s and s.parents:
            strata[k] = Stratum.of(s.id, s.indices, s.parents[1:])
        elif roll == 4:
            strata.append(Stratum.of("Z", ["Z"]))
        elif roll == 5:
            strata.append(Stratum.of("none", []))
        else:
            components.add("F")
    return SncVariety.of(components, strata)


def _stratum(center):
    return CenterDescriptor("stratum", stratum_id=center)


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_validate_snc_equals_the_shared_map_reference_on_malformed_families(name):
    snc = SncVariety.of(*MALFORMED[name])
    assert sm.validate_snc(snc) == shared_map_validate_snc(snc)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_validate_snc_equals_both_references_on_mutated_varieties(seed):
    rng = random.Random(seed)
    snc = random_variety(rng)
    assert sm.validate_snc(snc) == shared_map_validate_snc(snc) == []
    bad = _mutated(rng, snc)
    assert sm.validate_snc(bad) == shared_map_validate_snc(bad) == per_pair_validate_snc(bad)


def test_mutated_varieties_cover_every_kind_of_violation():
    seen = set()
    for seed in range(300):
        rng = random.Random(seed)
        bad = _mutated(rng, random_variety(rng))
        for v in shared_map_validate_snc(bad):
            seen.update(kind for kind in (
                "duplicate stratum id", "empty index set", "unknown components",
                "no singleton", "designated", "does not exist", "expected",
                "incoherent") if kind in v)
    assert len(seen) == 8, seen


def test_the_validity_proof_passes_germs_and_fails_every_malformed_family():
    assert all(sm._proved_valid(sm.coordinate_germ(n)) for n in range(1, 9))
    assert sm._proved_valid(SncVariety.of([], []))
    # The duplicate deep strata are valid, but a repeated index set is left
    # to the checks behind the proof.
    assert not any(sm._proved_valid(SncVariety.of(*family)) for family in MALFORMED.values())


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_the_validity_proof_holds_exactly_on_valid_varieties(seed):
    # A proof that failed a valid variety would only cost time; one that
    # passed an invalid variety would let its violations go unnamed.
    rng = random.Random(seed)
    snc = random_variety(rng)
    assert sm._proved_valid(snc)
    bad = _mutated(rng, snc)
    want = per_pair_validate_snc(bad)
    assert sm._find_violations(bad) == want
    assert sm._proved_valid(bad) == (not want)
    parallel = _with_parallel_strata(rng, snc)
    assert sm._find_violations(parallel) == per_pair_validate_snc(parallel)
    assert not sm._proved_valid(parallel)


def test_a_variety_past_the_mask_width_gets_the_named_checks():
    comps = [f"E{i}" for i in range(sm._MASK_WIDTH + 1)]
    wide = sm.from_index_sets(comps, [comps[:2]])
    assert not sm._proved_valid(wide)
    assert sm.validate_snc(wide) == per_pair_validate_snc(wide) == []
    assert sm.dual_complex_of(wide).cell_counts() == [len(comps), 1]


def test_validate_snc_builds_each_parent_map_once(monkeypatch):
    # A valid germ is checked from the sorted parent pairs alone; only the
    # two-step coherence check builds maps, one per stratum.
    calls = []
    original = Stratum.parent_map
    monkeypatch.setattr(Stratum, "parent_map",
                        lambda self: calls.append(self.id) or original(self))
    germ = sm.coordinate_germ(10)
    assert sm.validate_snc(germ) == []
    assert calls == []
    for name in ("incoherent", "duplicate deep strata"):
        calls.clear()
        snc = SncVariety.of(*MALFORMED[name])
        violations = sm.validate_snc(snc)
        assert sorted(calls) == sorted(s.id for s in snc.strata), name
        assert sm.validate_snc(snc) == violations  # answered from the memo
        assert len(calls) == len(snc.strata), name


def test_dual_complex_of_builds_no_parent_map(monkeypatch):
    # The facets come from the sorted parent pairs themselves.
    germ = sm.coordinate_germ(10)
    assert sm.validate_snc(germ) == []
    calls = []
    original = Stratum.parent_map
    monkeypatch.setattr(Stratum, "parent_map",
                        lambda self: calls.append(self.id) or original(self))
    complex = sm.dual_complex_of(germ)
    assert calls == []
    assert list(complex.cells.values()) == list(cell_of_dual_complex(germ).cells.values())


def _with_parallel_strata(rng, snc):
    """The variety with a second stratum, under a fresh id and with the same
    parents, over one to three of its index sets.  Half the time one
    stratum's parent over an index is pointed at a copy of that parent:
    every stratum that descends to it through another index then reaches
    two strata over one index set, and is incoherent."""
    strata = list(snc.strata)
    copies = {}
    for s in rng.sample(strata, rng.randint(1, min(3, len(strata)))):
        copies[s.id] = Stratum.of(s.id + "#2", s.indices, s.parents)
    strata.extend(copies.values())
    deeper = [k for k, s in enumerate(strata) if any(pid in copies for _, pid in s.parents)]
    if deeper and rng.random() < 0.5:
        k = rng.choice(deeper)
        s = strata[k]
        j, pid = rng.choice([(j, pid) for j, pid in s.parents if pid in copies])
        strata[k] = Stratum.of(s.id, s.indices, {**dict(s.parents), j: copies[pid].id})
    return SncVariety.of(snc.components, strata)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_validate_snc_equals_both_references_on_parallel_strata(seed):
    # Repeated index sets are where the coherence loop can report something.
    rng = random.Random(seed)
    snc = _with_parallel_strata(rng, random_variety(rng))
    violations = sm.validate_snc(snc)
    assert violations == per_pair_validate_snc(snc) == shared_map_validate_snc(snc)
    if not violations:
        got, want = sm.dual_complex_of(snc), cell_of_dual_complex(snc)
        assert list(got.cells.values()) == list(want.cells.values())


def test_parallel_strata_give_valid_and_incoherent_varieties():
    seen = set()
    for seed in range(200):
        rng = random.Random(seed)
        violations = sm.validate_snc(_with_parallel_strata(rng, random_variety(rng)))
        assert all("incoherent parents" in v for v in violations)
        seen.add(bool(violations))
    assert seen == {False, True}


def _assert_valid_when_rebuilt(snc, complex):
    assert snc._violations == () and complex._violations == ()
    fresh = SncVariety.of(snc.components, snc.strata)
    fresh_complex = DualComplex(complex.cells.values())
    assert fresh._violations is None and fresh_complex._violations is None
    assert sm.validate_snc(fresh) == []
    assert dc.validate(fresh_complex) == []
    assert dc.homology(complex) == per_map_homology(fresh_complex)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_varieties_and_complexes_marked_valid_pass_the_full_checks(seed):
    rng = random.Random(seed)
    snc = random_variety(rng)
    complex = sm.dual_complex_of(snc)
    with mock.patch.object(sm, "_find_violations", wraps=sm._find_violations) as snc_runs, \
            mock.patch.object(dc, "_find_violations", wraps=dc._find_violations) as dc_runs:
        rebuilds = 0
        for _ in range(rng.randint(1, 4)):
            _assert_valid_when_rebuilt(snc, complex)
            rebuilds += 1
            if not snc.strata:
                break
            center = rng.choice(snc.strata).id
            before = snc_runs.call_count
            blown, complex = sm.blowup_center(snc, _stratum(center))
            assert snc_runs.call_count == before  # carried, not checked
            assert blown == closure_rule_blowup(snc, center)
            snc = blown
    # Only the fresh copies were checked.
    assert snc_runs.call_count == dc_runs.call_count == rebuilds


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mutated_varieties_are_never_carried_as_valid(seed):
    rng = random.Random(seed)
    snc = random_variety(rng)
    sm.dual_complex_of(snc)
    bad = _mutated(rng, snc)
    assert bad._violations is None
    want = per_pair_validate_snc(bad)
    if want:
        with pytest.raises(sm.IncidenceError) as err:
            sm.dual_complex_of(bad)
        assert str(err.value) == "; ".join(want)
    else:
        _assert_valid_when_rebuilt(bad, sm.dual_complex_of(bad))
    if not bad.strata:
        return
    center = rng.choice(bad.strata).id
    kept = closure_rule_blowup(bad, center)
    want = per_pair_validate_snc(kept)
    # bad's validity is known now; a fresh copy's is not.
    for variety in (bad, SncVariety.of(bad.components, bad.strata)):
        if want:
            with pytest.raises(sm.IncidenceError) as err:
                sm.blowup_center(variety, _stratum(center))
            assert str(err.value) == "; ".join(want)
        else:
            blown, complex = sm.blowup_center(variety, _stratum(center))
            assert blown == kept
            _assert_valid_when_rebuilt(blown, complex)


def test_non_str_ids_are_not_carried_as_valid():
    # Each record is built only in form, so int ids never reach validation,
    # a dual cell or a blow-up: the constructors and ``of`` refuse them.
    for build in (lambda: Stratum(2, frozenset({2})),
                  lambda: Stratum("99", frozenset({"2", "10"}), ((2, 10), (10, 2))),
                  lambda: Stratum.of(2, [2]),
                  lambda: Stratum.of("99", ["2", "10"], {2: 10, 10: 2})):
        with pytest.raises(ValueError, match="a stratum needs a str id"):
            build()
    for build in (lambda: SncVariety(frozenset({2, 10}), ()),
                  lambda: SncVariety.of([2, 10], [])):
        with pytest.raises(ValueError, match="a variety needs a frozenset of str"):
            build()
    # With str ids the variety is valid: "10" sorts before "2", so facet 0
    # of the edge drops "10", and a blow-up keeps both components.
    strs = SncVariety.of(["2", "10"], [
        Stratum.of("2", ["2"]), Stratum.of("10", ["10"]),
        Stratum.of("99", ["2", "10"], {"2": "10", "10": "2"})])
    assert sm.validate_snc(strs) == []
    assert sm.dual_complex_of(strs)["99"].facets == ("2", "10")
    blown, complex = sm.blowup_center(strs, _stratum("99"))
    assert blown.components == {"2", "10"} and len(complex) == 2


def test_mixed_type_indices_are_refused_at_construction():
    # A stratum mixing int and str indices is refused where it is built,
    # by the constructor and by ``of`` alike, so no validator meets it.
    for build in (lambda: Stratum("s", frozenset({1, "x", "y"})),
                  lambda: Stratum("u", frozenset({3, "y", "z"}),
                                  ((3, "yz"), ("y", "z"), ("z", "y"))),
                  lambda: Stratum.of("s", [1, "x", "y"]),
                  lambda: Stratum.of("u", [3, "y", "z"], {3: "yz", "y": "z", "z": "y"})):
        with pytest.raises(ValueError, match="a stratum needs"):
            build()
    # With str indices the same variety's messages list them in plain
    # sorted order.
    snc = SncVariety(frozenset({"y", "z"}), (
        Stratum("y", frozenset({"y"})), Stratum("z", frozenset({"z"})),
        Stratum("yz", frozenset({"y", "z"}), (("y", "z"), ("z", "y"))),
        Stratum("s", frozenset({"1", "x", "y"})),
        Stratum("u", frozenset({"3", "y", "z"}), (("3", "yz"), ("y", "z"), ("z", "y")))))
    want = [
        "stratum 's' mentions unknown components ['1', 'x']",
        "stratum 'u' mentions unknown components ['3']",
        "stratum 's': parents must be designated for exactly the indices ['1', 'x', 'y']",
        "stratum 'u': parent over 'y' has index set ['z'], expected ['3', 'z']",
        "stratum 'u': parent over 'z' has index set ['y'], expected ['3', 'y']",
        "stratum 'u': incoherent parents, dropping '3' then 'y' reaches 'z' but "
        "'y' then '3' reaches None",
        "stratum 'u': incoherent parents, dropping '3' then 'z' reaches 'y' but "
        "'z' then '3' reaches None",
    ]
    assert sm.validate_snc(snc) == want
    with pytest.raises(sm.IncidenceError) as err:
        sm.dual_complex_of(snc)
    assert str(err.value) == "; ".join(want)
    assert all(s._cell is None for s in snc.strata)


# Each record's constructor and ``of``, and fields in form for both.
_IN_FORM = {
    "Cell": (Cell, Cell.of, {"id": "e", "dim": 1, "facets": ("a", "b"),
                             "label": frozenset({"A", "B"})}),
    "Stratum": (Stratum, Stratum.of, {"id": "A+B", "indices": frozenset({"A", "B"}),
                                      "parents": (("A", "B"), ("B", "A"))}),
    "SncVariety": (SncVariety, SncVariety.of, {"components": frozenset({"A"}),
                                               "strata": (Stratum("A", frozenset({"A"})),)}),
}


def _with_first_entry(value, bad):
    """The container ``value`` as a list, its first entry (the parent id of
    its first pair, for parent pairs) replaced by ``bad``."""
    entries = list(value)
    first = entries[0]
    entries[0] = (first[0], bad) if type(first) is tuple else bad
    return entries


def _in_form(build, name, value, container) -> bool:
    """Whether ``value`` given whole for the field ``name`` is in form
    after all: None as a label or as ``Stratum.of``'s parents (no parents),
    or a list given to ``of`` for a container field."""
    return ((value is None and (name == "label" or build is Stratum.of and name == "parents"))
            or (type(value) is list and container and build.__name__ == "of"))


_BAD = {"int": 7, "bool": True, "None": None, "list": ["A"], "str": "AB"}


@pytest.mark.parametrize("record, name, bad", [
    pytest.param(record, name, bad, id=f"{record}-{name}-{kind}")
    for record, (_, _, fields) in _IN_FORM.items() for name in fields
    for kind, bad in _BAD.items() if (name, kind) not in {("dim", "int"), ("id", "str")}])
def test_a_field_out_of_form_raises_value_error_never_type_error(record, name, bad):
    # ``bad`` goes in the field itself and, in a container field, in place
    # of an entry; a constructor takes the entries in the field's own
    # container (a frozenset cannot hold a list), ``of`` takes a list.  A
    # str is one id: whole, it is no container of ids (``of`` would split
    # it into characters), and as an entry of a container of ids it is in
    # form.
    make, of, fields = _IN_FORM[record]
    assert make(**fields) == of(**fields)
    form = fields[name]
    container = isinstance(form, (tuple, frozenset))
    cases = [(build, bad) for build in (make, of)
             if not _in_form(build, name, bad, container)]
    if container and (type(bad) is not str or name == "strata"):
        entries = _with_first_entry(form, bad)
        cases.append((of, entries))
        if not (type(form) is frozenset and isinstance(bad, list)):
            cases.append((make, type(form)(entries)))
    assert cases
    for build, value in cases:
        with pytest.raises(ValueError):  # a TypeError would escape
            build(**{**fields, name: value})


@pytest.mark.parametrize("parents", [("AB", ("B", "A")), (("A", "B", "A+B"),),
                                     (["A", "B"], ("B", "A"))])
def test_a_parent_entry_that_is_not_a_pair_of_ids_is_refused(parents):
    # A str or list of two ids would pass a check of the ids alone.
    with pytest.raises(ValueError, match="a stratum needs a str id"):
        Stratum("A+B", frozenset({"A", "B"}), parents)


@pytest.mark.parametrize("parents", [(("B", "A"), ("A", "B")), (("A", "B"), ("A", "C")),
                                     (("A", "B"), ("A", "B"), ("B", "A"))])
def test_parent_pairs_out_of_order_or_over_one_index_twice_are_refused(parents):
    # ``dual_complex_of`` reads a cell's facets from the pairs in order, so
    # they are sorted by dropped index and drop each index once.  ``of``
    # sorts the pairs, so it refuses only an index dropped twice.
    with pytest.raises(ValueError, match="one per index, sorted"):
        Stratum("A+B", frozenset({"A", "B"}), parents)
    if len(parents) > 2 or parents[0][0] == parents[1][0]:
        with pytest.raises(ValueError, match="one per index, sorted"):
            Stratum.of("A+B", ["A", "B"], parents)
    else:
        assert Stratum.of("A+B", ["A", "B"], parents).parents == tuple(sorted(parents))


def test_the_validity_memo_is_invisible_on_varieties():
    checked, fresh = sm.coordinate_germ(4), sm.coordinate_germ(4)
    sm.dual_complex_of(checked)
    assert checked._violations == () and fresh._violations is None
    assert checked == fresh and hash(checked) == hash(fresh)
    assert repr(checked) == repr(fresh)
    assert json.dumps(sm.to_json_obj(checked)) == json.dumps(sm.to_json_obj(fresh))
    first = sm.validate_snc(checked)
    first.append("tampered")
    assert sm.validate_snc(checked) == [] and sm.validate_snc(checked) is not first

    bad = SncVariety.of(*MALFORMED["incoherent"])
    want = per_pair_validate_snc(bad)
    sm.validate_snc(bad).clear()
    assert sm.validate_snc(bad) == want != []


# --------------------------------------------------------------------------
# one cell per stratum, shared by blow-ups
# --------------------------------------------------------------------------

def _chain(rng, snc):
    """(variety, complex) pairs: the variety, then one to four stratum
    blow-ups in a row at random centers."""
    out = [(snc, sm.dual_complex_of(snc))]
    for _ in range(rng.randint(1, 4)):
        if not snc.strata:
            break
        snc, complex = sm.blowup_center(snc, _stratum(rng.choice(snc.strata).id))
        out.append((snc, complex))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_memoized_cells_give_the_complex_that_cell_of_builds(seed):
    rng = random.Random(seed)
    for snc, complex in _chain(rng, random_variety(rng)):
        want = cell_of_dual_complex(snc)
        for got in (complex, sm.dual_complex_of(snc)):
            assert got == want
            assert list(got.cells) == list(want.cells)
            assert dc.canonical_json(got) == dc.canonical_json(want)
            assert dc.to_dot(got) == dc.to_dot(want)
            assert dc.homology(got) == dc.homology(want)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_blowups_share_the_cells_of_the_parent_complex(seed):
    rng = random.Random(seed)
    chain = _chain(rng, random_variety(rng))
    for (_, parent), (_, blown) in zip(chain, chain[1:]):
        assert all(cell is parent[cid] for cid, cell in blown.cells.items())
    for snc, complex in chain:
        again = sm.dual_complex_of(snc)
        assert all(again[s.id] is complex[s.id] is s._cell for s in snc.strata)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_the_cell_memo_is_invisible_on_strata(seed):
    snc = random_variety(random.Random(seed))
    fresh = SncVariety.of(snc.components,
                          [Stratum(s.id, s.indices, s.parents) for s in snc.strata])
    sm.dual_complex_of(snc)
    assert all(s._cell is not None for s in snc.strata)
    assert all(s._cell is None for s in fresh.strata)
    for built, plain in zip(snc.strata, fresh.strata):
        assert built == plain and hash(built) == hash(plain)
        assert repr(built) == repr(plain)
    assert snc == fresh and hash(snc) == hash(fresh)
    assert json.dumps(sm.to_json_obj(snc)) == json.dumps(sm.to_json_obj(fresh))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_invalid_varieties_store_no_cells(seed):
    rng = random.Random(seed)
    bad = _mutated(rng, random_variety(rng))
    if not per_pair_validate_snc(bad):
        return
    with pytest.raises(sm.IncidenceError):
        sm.dual_complex_of(bad)
    assert all(s._cell is None for s in bad.strata)


# --------------------------------------------------------------------------
# strata and cells built without their checks
# --------------------------------------------------------------------------

def _same_record(got, want):
    """Equal field by field, each field of the same type, and in form: the
    checked constructor accepts ``got``'s fields."""
    assert type(got) is type(want)
    for name in want._fields:
        assert getattr(got, name) == getattr(want, name), name
        assert type(getattr(got, name)) is type(getattr(want, name)), name
    assert type(got)(*got._values(got)) == got


def _trusted_paths_agree(snc):
    """``from_json_obj``'s strata equal ``Stratum.of``'s, and
    ``dual_complex_of``'s cells equal ``Cell``'s."""
    doc = json.loads(json.dumps(sm.to_json_obj(snc)))
    parsed = sm.from_json_obj(doc)
    assert len(parsed.strata) == len(doc["strata"])
    for got, entry in zip(parsed.strata, doc["strata"]):
        _same_record(got, Stratum.of(entry["id"], entry["indices"], entry["parents"]))
    for variety in (snc, parsed):
        complex = sm.dual_complex_of(variety)
        for s in variety.strata:
            facets = tuple(pid for _, pid in s.parents)
            _same_record(complex[s.id], Cell(s.id, len(s.indices) - 1, facets, s.indices))


@pytest.mark.parametrize("n", range(1, 8))
def test_trusted_strata_and_cells_equal_the_checked_ones_on_germs(n):
    _trusted_paths_agree(sm.coordinate_germ(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_trusted_strata_and_cells_equal_the_checked_ones_along_blowups(seed):
    rng = random.Random(seed)
    for snc, _ in _chain(rng, random_variety(rng)):
        _trusted_paths_agree(snc)


_NEEDS_FORM = ("a stratum needs a str id, a frozenset of str indices and (str, str) "
               "parent pairs, one per index, sorted, got ")
_NEEDS_ITERABLES = "a stratum needs iterables of str indices and parent pairs, got "
_AB = {"id": "A+B", "indices": ["A", "B"]}

# Each stratum entry out of form and its message, as the checked
# constructors word it.  A Python dict with a non-str key reaches
# ``from_json_obj`` only from a caller, never from a JSON document.
MALFORMED_STRATA = {
    "int id": ({"id": 7, "indices": ["A"]}, _NEEDS_FORM + "7, {'A'}, ()"),
    "bool id": ({"id": True, "indices": ["A"]}, _NEEDS_FORM + "True, {'A'}, ()"),
    "None id": ({"id": None, "indices": ["A"]}, _NEEDS_FORM + "None, {'A'}, ()"),
    "list id": ({"id": ["A"], "indices": ["A"]}, _NEEDS_FORM + "['A'], {'A'}, ()"),
    "int index": ({"id": "A", "indices": [1]}, _NEEDS_FORM + "'A', {1}, ()"),
    "bool index": ({"id": "A", "indices": [True]}, _NEEDS_FORM + "'A', {True}, ()"),
    "None index": ({"id": "A", "indices": [None]}, _NEEDS_FORM + "'A', {None}, ()"),
    "list index": ({"id": "A", "indices": [["A"]]}, _NEEDS_ITERABLES + "'A', [['A']], {}"),
    "mixed indices": ({**_AB, "indices": ["A", 2], "parents": {"A": "B", 2: "A"}},
                      _NEEDS_ITERABLES + "'A+B', ['A', 2], {'A': 'B', 2: 'A'}"),
    "repeated index": ({"id": "A", "indices": ["A", "A"]},
                       "stratum 'A': 'indices' repeats an index, got ['A', 'A']"),
    "int parent key": ({**_AB, "parents": {1: "B", "B": "A"}},
                       _NEEDS_ITERABLES + "'A+B', ['A', 'B'], {1: 'B', 'B': 'A'}"),
    "bool parent key": ({**_AB, "parents": {True: "B"}},
                        _NEEDS_FORM + "'A+B', {'A', 'B'}, ((True, 'B'),)"),
    "None parent key": ({**_AB, "parents": {None: "B", "B": "A"}},
                        _NEEDS_ITERABLES + "'A+B', ['A', 'B'], {None: 'B', 'B': 'A'}"),
    "tuple parent key": ({**_AB, "parents": {("A",): "B"}},
                         _NEEDS_FORM + "'A+B', {'A', 'B'}, ((('A',), 'B'),)"),
    "int parent keys only": ({**_AB, "parents": {2: "B", 1: "A"}},
                             _NEEDS_FORM + "'A+B', {'A', 'B'}, ((1, 'A'), (2, 'B'))"),
    "int parent value": ({**_AB, "parents": {"A": 2, "B": "A"}},
                         _NEEDS_FORM + "'A+B', {'A', 'B'}, (('A', 2), ('B', 'A'))"),
    "None parent value": ({**_AB, "parents": {"A": None}},
                          _NEEDS_FORM + "'A+B', {'A', 'B'}, (('A', None),)"),
    "list parent value": ({**_AB, "parents": {"A": ["B"]}},
                          _NEEDS_FORM + "'A+B', {'A', 'B'}, (('A', ['B']),)"),
    "dict parent value": ({**_AB, "parents": {"A": {"B": "A"}}},
                          _NEEDS_FORM + "'A+B', {'A', 'B'}, (('A', {'B': 'A'}),)"),
    "str indices": ({"id": "A", "indices": "A"},
                    "stratum 'A': 'indices' must be an array and 'parents' an object"),
    "list parents": ({**_AB, "parents": [["A", "B"]]},
                     "stratum 'A+B': 'indices' must be an array and 'parents' an object"),
    "null parents": ({"id": "A", "indices": ["A"], "parents": None},
                     "stratum 'A': 'indices' must be an array and 'parents' an object"),
    "no indices": ({"id": "A"},
                   "a stratum must be an object with 'id' and 'indices', got {'id': 'A'}"),
    "no id": ({"indices": ["A"]},
              "a stratum must be an object with 'id' and 'indices', got {'indices': ['A']}"),
    "not an object": (["A"], "a stratum must be an object with 'id' and 'indices', got ['A']"),
}


@pytest.mark.parametrize("name", MALFORMED_STRATA)
def test_a_malformed_stratum_entry_keeps_its_message(name):
    entry, message = MALFORMED_STRATA[name]
    with pytest.raises(ValueError) as err:
        sm.from_json_obj({"components": ["A", "B"], "strata": [entry]})
    assert type(err.value) is ValueError
    assert str(err.value) == message


@pytest.mark.parametrize("name", MALFORMED_STRATA)
def test_a_malformed_stratum_entry_after_valid_ones_keeps_its_message(name):
    # The document is checked a part at a time; here the entry lies in the
    # second part.  The entry-by-entry reader then names it, not the valid
    # entries before or after it.
    entry, message = MALFORMED_STRATA[name]
    valid = [{"id": "A", "indices": ["A"]}, {"id": "B", "indices": ["B"]}, _AB]
    before = valid * (sm._PART // len(valid) + 1)
    with pytest.raises(ValueError) as err:
        sm.from_json_obj({"components": ["A", "B"], "strata": [*before, entry, *valid]})
    assert type(err.value) is ValueError
    assert str(err.value) == message


_REPEATED_COMPONENT = "'components' repeats a component, got ['E1', 'E2', 'E1']"


def test_a_repeated_component_is_refused(tmp_path, capsys):
    doc = sm.to_json_obj(sm.coordinate_germ(2))
    doc["components"].append("E1")
    # Parent maps that are not plain dicts take the entry-by-entry reader.
    by_entry = {**doc, "strata": [{**e, "parents": OrderedDict(e["parents"])}
                                  for e in doc["strata"]]}
    for parse, document in ((sm.from_json_obj, doc), (sm.from_json_obj, by_entry),
                            (reference_variety_from_json_obj, doc)):
        with pytest.raises(ValueError) as err:
            parse(document)
        assert type(err.value) is ValueError
        assert str(err.value) == _REPEATED_COMPONENT
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["dualcomplex", "--input", str(path)]) == cli.EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid input: {_REPEATED_COMPONENT}\n"


def test_a_document_of_several_parts_reads_as_the_reference_does():
    germ = sm.coordinate_germ(11)
    doc = sm.to_json_obj(germ)
    assert len(doc["strata"]) > sm._PART
    assert sm.from_json_obj(doc) == reference_variety_from_json_obj(doc) == germ


# Values that are not str, and keys that are not str but can key a dict.
_NOT_STR = [7, True, None, 2.5, ["E1"], {"E1": "E2"}]
_NOT_STR_KEYS = [7, True, None, 2.5, ("E1",)]
_DOC_CHANGES = ("id", "index", "parent key", "parent value", "entry as array",
                "indices as object", "parents as array", "no id", "no indices",
                "no parents", "repeated index", "repeated component")


@st.composite
def _changed_documents(draw):
    """A random variety's document with one drawn change.  Only "no parents"
    leaves a document that both readers parse (the variety may be invalid)."""
    doc = sm.to_json_obj(random_variety(random.Random(draw(st.integers(0, 10_000)))))
    entry = draw(st.sampled_from(doc["strata"]))
    indices, parents = entry["indices"], entry["parents"]
    change = draw(st.sampled_from(_DOC_CHANGES))
    if change == "id":
        entry["id"] = draw(st.sampled_from(_NOT_STR))
    elif change == "index":
        indices[draw(st.integers(0, len(indices) - 1))] = draw(st.sampled_from(_NOT_STR))
    elif change == "parent key":
        key = draw(st.sampled_from(sorted(parents) or [entry["id"]]))
        parents[draw(st.sampled_from(_NOT_STR_KEYS))] = parents.pop(key, key)
    elif change == "parent value":
        key = draw(st.sampled_from(sorted(parents) or indices))
        parents[key] = draw(st.sampled_from(_NOT_STR))
    elif change == "entry as array":
        doc["strata"][doc["strata"].index(entry)] = list(entry.values())
    elif change == "indices as object":
        entry["indices"] = dict.fromkeys(indices, entry["id"])
    elif change == "parents as array":
        entry["parents"] = [list(pair) for pair in parents.items()]
    elif change in ("no id", "no indices", "no parents"):
        del entry[change[3:]]
    elif change == "repeated index":
        indices.insert(draw(st.integers(0, len(indices))), draw(st.sampled_from(indices)))
    else:
        doc["components"].append(draw(st.sampled_from(doc["components"])))
    return doc


def _outcome(parse, doc):
    """The variety, or the type and text of the error."""
    try:
        return parse(doc)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=200, deadline=None)
@given(_changed_documents())
def test_the_document_reader_agrees_with_the_entry_by_entry_reference(doc):
    assert _outcome(sm.from_json_obj, doc) == _outcome(reference_variety_from_json_obj, doc)
