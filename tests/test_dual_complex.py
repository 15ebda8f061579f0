"""Validation, homology, open-star removal, serialization."""

import itertools
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from sncresolve import dual_complex as dc
from sncresolve import snc_model as sm
from sncresolve.dual_complex import Cell, DualComplex

from oracles import (boundary_complex, closure_rule_open_star,
                     klein_bottle_complex, moore_space_complex, odd_id_variety,
                     per_map_homology, random_delta_complex, random_variety,
                     rational_betti, reference_validate, rp2_complex,
                     simplex_complex)

ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------------
# validate
# --------------------------------------------------------------------------

def test_validate_accepts_canonical_simplex():
    assert dc.validate(simplex_complex(2)) == []


def test_validate_reports_dangling_facet():
    bad = DualComplex([Cell.of("v", 0), Cell.of("e", 1, ("v", "ghost"))])
    violations = dc.validate(bad)
    assert len(violations) == 1
    assert violations[0].rule == "dangling facet"
    assert violations[0].cell == "e"


def test_validate_reports_facet_count():
    bad = DualComplex([
        Cell.of("v0", 0), Cell.of("v1", 0), Cell.of("v2", 0),
        Cell.of("e01", 1, ("v0", "v1")), Cell.of("e02", 1, ("v0", "v2")),
        Cell.of("f", 2, ("e01", "e02")),  # a 2-cell needs 3 facets
    ])
    assert any(v.rule == "facet count" and v.cell == "f" for v in dc.validate(bad))


def test_validate_reports_wrong_facet_dimension():
    bad = DualComplex([Cell.of("v", 0), Cell.of("w", 0),
                       Cell.of("e", 1, ("v", "w")),
                       Cell.of("e2", 1, ("v", "e"))])
    assert any(v.rule == "facet dimension" for v in dc.validate(bad))


def test_validate_reports_incompatible_facets():
    # Two edges that do not share endpoints the way the 2-cell claims.
    bad = DualComplex([
        Cell.of("v0", 0), Cell.of("v1", 0), Cell.of("v2", 0), Cell.of("v3", 0),
        Cell.of("e12", 1, ("v1", "v2")),
        Cell.of("e02", 1, ("v0", "v2")),
        Cell.of("e13", 1, ("v1", "v3")),  # should be e01 to close a triangle
        Cell.of("f", 2, ("e12", "e02", "e13")),
    ])
    assert any(v.rule == "facet compatibility" for v in dc.validate(bad))


def test_validate_checks_label_drop_order():
    # Facet i drops the i-th smallest label: facet 0 of an {A,B} edge is
    # the B-vertex.
    good = DualComplex([
        Cell.of("a", 0, (), {"A"}), Cell.of("b", 0, (), {"B"}),
        Cell.of("ab", 1, ("b", "a"), {"A", "B"}),
    ])
    assert dc.validate(good) == []
    flipped = DualComplex([
        Cell.of("a", 0, (), {"A"}), Cell.of("b", 0, (), {"B"}),
        Cell.of("ab", 1, ("a", "b"), {"A", "B"}),
    ])
    assert any(v.rule == "label mismatch" for v in dc.validate(flipped))


def test_mixed_type_ids_and_labels_are_refused_at_construction():
    # A cell is built only in form: an int id or facet, a str dimension, or
    # a label mixing int and str raises ValueError where the cell is built,
    # from the constructor and from Cell.of alike, so no validator and no
    # sort ever meets one.
    for args in [(2, 0), ("e", 1, ("a", 2)), ("f", "1", ("a", "b")),
                 ("a", 0, (), frozenset({1})), ("m", 0, (), frozenset({2, "x"})),
                 ("ab", 1, ("a", "b"), frozenset({1, "x"}))]:
        with pytest.raises(ValueError, match="a cell needs a str id"):
            Cell(*args)
        with pytest.raises(ValueError, match="a cell needs a str id"):
            Cell.of(*args)
    # With str ids and labels the same complexes build; a label is then
    # ordered by plain ``sorted``.
    ids = DualComplex([Cell("a", 0), Cell("2", 0), Cell("b", 0),
                       Cell("e", 1, ("a", "2")), Cell("f", 1, ("a", "b"))])
    labels = DualComplex([
        Cell("a", 0, (), frozenset({"1"})), Cell("b", 0, (), frozenset({"x"})),
        Cell("m", 0, (), frozenset({"2", "x"})), Cell("n", 0, (), frozenset({"p"})),
        Cell("ab", 1, ("a", "b"), frozenset({"1", "x"})),
        Cell("ba", 1, ("b", "a"), frozenset({"1", "x"})),
        Cell("mn", 1, ("m", "n"), frozenset({"p", "q"}))])
    assert dc.validate(ids) == []
    want = ["label mismatch [ab]: facet 0 should drop '1', but carries label ['1']",
            "label mismatch [ab]: facet 1 should drop 'x', but carries label ['x']",
            "label mismatch [mn]: facet 0 should drop 'p', but carries "
            "label ['2', 'x']"]
    assert [str(v) for v in dc.validate(labels)] == want
    with pytest.raises(dc.InvalidComplexError) as err:
        dc.homology(labels)
    assert str(err.value) == "; ".join(want)


def _malformed(rng, complex):
    """The complex with some cells broken: a facet swapped for another id
    (or a missing one), facets shuffled or cut short, a negative
    dimension, and random labels that sometimes fit the dimension."""
    ids = sorted(complex.cells) + ["ghost"]
    cells = []
    for cell in complex.cells.values():
        facets, dim, label = list(cell.facets), cell.dim, None
        roll = rng.random()
        if roll < 0.1 and facets:
            facets[rng.randrange(len(facets))] = rng.choice(ids)
        elif roll < 0.2:
            rng.shuffle(facets)
        elif roll < 0.25:
            facets = facets[1:]
        elif roll < 0.28:
            dim = -1
        if rng.random() < 0.4:
            size = dim + 1 if rng.random() < 0.8 else rng.randint(0, 4)
            label = rng.sample("ABCDEFG", max(0, min(size, 7)))
        cells.append(Cell.of(cell.id, dim, facets, label))
    return DualComplex(cells)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_validate_equals_the_reference_on_malformed_complexes(seed):
    rng = random.Random(seed)
    complex = random_delta_complex(rng, max_cells=60)
    assert dc.validate(complex) == reference_validate(complex) == []
    bad = _malformed(rng, complex)
    assert dc.validate(bad) == reference_validate(bad)
    top = max((c.dim for c in bad.cells.values()), default=-1)
    assert bad.cell_counts() == [len(bad.cells_of_dim(k)) for k in range(top + 1)]


def _dim_id(cell):
    return cell.dim, cell.id


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_a_shuffled_cell_list_builds_the_same_complex(seed):
    # A complex keeps its cells in (dimension, id) order whatever order they
    # come in, so no reader depends on the order of the input.
    rng = random.Random(seed)
    complex = random_delta_complex(rng, max_cells=80)
    for original in (complex, _malformed(rng, complex)):
        cells = list(original.cells.values())
        rng.shuffle(cells)
        shuffled = DualComplex(cells)
        assert list(shuffled.cells.values()) == sorted(cells, key=_dim_id)
        assert list(shuffled.cells.values()) == list(original.cells.values())
        assert dc.validate(shuffled) == dc.validate(original) == reference_validate(shuffled)
        assert dc.to_json_obj(shuffled) == dc.to_json_obj(original)
        for k in range(-1, len(original.cell_counts()) + 1):
            assert shuffled.cells_of_dim(k) == original.cells_of_dim(k)
            assert shuffled.cells_of_dim(k) == sorted(
                (c for c in cells if c.dim == k), key=_dim_id)
    shuffled = DualComplex(rng.sample(list(complex.cells.values()), len(complex)))
    assert dc.homology(shuffled) == dc.homology(complex) == per_map_homology(complex)
    assert dc.to_dot(shuffled) == dc.to_dot(complex)


@pytest.mark.parametrize("cells, named", [
    ([Cell.of("b", 0), Cell.of("a", 0), Cell.of("b", 0), Cell.of("a", 0)], "b"),
    ([Cell.of("x", 1, ("v", "v")), Cell.of("v", 0), Cell.of("x", 0)], "x"),
    ([Cell.of("c", 0), Cell.of("a", 0), Cell.of("b", 0), Cell.of("a", 0), Cell.of("c", 0)], "a"),
    ([Cell.of("v", 0)] * 2, "v"),
], ids=["first of two repeats", "across dimensions", "a later repeat of a lesser id",
        "one cell twice"])
def test_a_repeated_cell_id_is_named_in_the_given_order(cells, named):
    # The first repeat given is named, whatever the sorted order would say.
    for given in (cells, iter(cells)):
        with pytest.raises(ValueError, match=f"^duplicate cell id '{named}'$"):
            DualComplex(given)


def test_reversed_or_shuffled_cells_keep_dimension_then_id_order():
    # Upper-case 2-cells and the germ's strata ids sort before cells of
    # lower dimension by id alone.
    rng = random.Random(5)
    for complex in (rp2_complex(), klein_bottle_complex(), _repeated_facet_complex(_NET_ONE),
                    sm.dual_complex_of(sm.coordinate_germ(5))):
        cells = list(complex.cells.values())
        assert cells == sorted(cells, key=_dim_id)
        assert [c.id for c in cells] != sorted(complex.cells)
        for given in (cells[::-1], rng.sample(cells, len(cells)), iter(cells[::-1])):
            again = DualComplex(given)
            assert list(again.cells.values()) == cells
            assert list(again.cells) == [c.id for c in cells]


# --------------------------------------------------------------------------
# homology
# --------------------------------------------------------------------------

def test_homology_point():
    report = dc.homology(DualComplex([Cell.of("v", 0)]))
    assert report.betti == (1,)
    assert report.euler == 1


def test_homology_boundary_of_2_simplex():
    # Expected values frozen from the rational-rank oracle.
    complex = boundary_complex(2)
    assert rational_betti(complex) == [1, 1]
    report = dc.homology(complex)
    assert report.betti == (1, 1)
    assert report.torsion == ((), ())
    assert report.euler == 0


def test_homology_projective_plane():
    # Hand-checkable matrices: d1 is 2x3 with columns (-1,1),(-1,1),(0,0);
    # d2 is 3x2 with invariant factors 1 and 2.
    report = dc.homology(rp2_complex())
    assert report.betti == (1, 0, 0)
    assert report.torsion == ((), (2,), ())
    assert report.euler == 1


def test_homology_klein_bottle():
    # Hand-derived in oracles.klein_bottle_complex: H_1 = Z + Z/2, H_2 = 0.
    complex = klein_bottle_complex()
    assert dc.validate(complex) == []
    report = dc.homology(complex)
    assert report.betti == (1, 1, 0)
    assert report.torsion == ((), (2,), ())
    assert report.euler == 0
    assert list(report.betti) == rational_betti(complex)


def test_homology_mod_3_moore_space():
    # Hand-derived in oracles.moore_space_complex: H_1 = Z/3, H_2 = 0.
    complex = moore_space_complex(3)
    assert dc.validate(complex) == []
    report = dc.homology(complex)
    assert report.betti == (1, 0, 0)
    assert report.torsion == ((), (3,), ())
    assert report.euler == 1


def test_homology_full_simplices_are_acyclic():
    for n in range(4):
        report = dc.homology(simplex_complex(n))
        assert report.betti == (1,) + (0,) * n
        assert all(not t for t in report.torsion)


def test_homology_rejects_invalid_complex():
    bad = DualComplex([Cell.of("e", 1, ("v", "v"))])
    with pytest.raises(dc.InvalidComplexError):
        dc.homology(bad)


def test_homology_empty_complex():
    report = dc.homology(DualComplex())
    assert report.betti == () and report.euler == 0


def test_homology_of_two_disjoint_triangle_boundaries():
    # Each component keeps its own base vertex: two Z in H_0, two loops.
    cells = [Cell.of(f"{side}{c.id}", c.dim, [f"{side}{f}" for f in c.facets])
             for side in "LR" for c in boundary_complex(2).cells.values()]
    report = dc.homology(DualComplex(cells))
    assert report.betti == (2, 2)
    assert report.torsion == ((), ())
    assert report.euler == 0


# A vertex, a loop ``m`` on it, and two 2-cells ``A`` and ``B`` that run
# round ``m`` three times, so each has boundary m; then one 3-cell on them.
# In (A, B, A, A) the facet A occurs three times, with net sign +1: the
# boundary is A - B.  In (A, A, B, B) the repeats cancel: the boundary is 0.
_NET_ONE, _NET_ZERO = ("A", "B", "A", "A"), ("A", "A", "B", "B")


def _repeated_facet_complex(top):
    return DualComplex([Cell.of("v", 0), Cell.of("m", 1, ("v", "v")),
                        Cell.of("A", 2, ("m", "m", "m")), Cell.of("B", 2, ("m", "m", "m")),
                        Cell.of("T", 3, top)])


@pytest.mark.parametrize("top, betti", [(_NET_ONE, (1, 0, 0, 0)), (_NET_ZERO, (1, 0, 1, 1))],
                         ids=["net one", "net zero"])
def test_homology_sums_the_signs_of_a_repeated_facet(top, betti):
    complex = _repeated_facet_complex(top)
    assert dc.validate(complex) == []
    report = dc.homology(complex)
    assert report == per_map_homology(complex)
    assert list(report.betti) == rational_betti(complex) == list(betti)
    assert report.torsion == ((),) * 4 and report.euler == 1


def test_only_a_cell_with_a_repeated_facet_sums_its_signs(monkeypatch):
    summed = []
    signed = dc._signed_facets
    monkeypatch.setattr(dc, "_signed_facets", lambda cell: summed.append(cell.id)
                        or signed(cell))
    dc.homology(sm.dual_complex_of(sm.coordinate_germ(6)))
    dc.homology(klein_bottle_complex())
    assert summed == ["a", "b", "c"]  # the Klein bottle's loops
    summed.clear()
    dc.homology(_repeated_facet_complex(_NET_ONE))
    assert summed == ["m", "A", "B", "T"]


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_homology_equals_the_per_map_reference(seed):
    complex = random_delta_complex(random.Random(seed), max_cells=80)
    assert dc.homology(complex) == per_map_homology(complex)


def test_random_complexes_cover_what_coreduction_must_not_pair():
    # Over these seeds the generator makes every feature the coreduction
    # has to handle, so the property above meets each of them.
    seen = set()
    for seed in range(200):
        complex = random_delta_complex(random.Random(seed), max_cells=80)
        seen.add(("components", per_map_homology(complex).betti[0] > 1))
        seen.update(cid for cid in ("iso0", "loop.l", "pinch", "cap") if cid in complex)
        if "pinch" in complex and "cap" in complex:
            seen.add(("torsion", 2 in dc.homology(complex).torsion[1]))
    assert seen >= {("components", True), "iso0", "loop.l", "pinch", "cap",
                    ("torsion", True)}


_CORE_SCRIPT = """
import importlib.util, json, sys
from sncresolve import dual_complex as dc
spec = importlib.util.spec_from_file_location("bench_fixtures", sys.argv[1])
fx = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fx)
cores = []
dense = dc.smith_invariant_factors
dc.smith_invariant_factors = lambda core: cores.append(core) or dense(core)
report = dc.homology(fx.torsion_complex(dc))
print(json.dumps([report.to_json_obj(), cores]))
"""


def test_torsion_wedge_core_repeats_under_any_hash_seed():
    # The surviving core, and with it what the dense step sees, must not
    # depend on string hashing.
    outputs = []
    for hash_seed in ("1", "4242"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", _CORE_SCRIPT, str(ROOT / "benchmarks" / "fixtures.py")],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        outputs.append(json.loads(done.stdout))
    report, cores = outputs[0]
    assert report["torsion"] == [[], [6], []]
    assert cores
    assert outputs[0] == outputs[1]


def test_is_q_acyclic():
    assert dc.is_q_acyclic(simplex_complex(2))
    assert not dc.is_q_acyclic(boundary_complex(2))
    assert dc.is_q_acyclic(rp2_complex())  # torsion is ignored


# --------------------------------------------------------------------------
# open-star removal
# --------------------------------------------------------------------------

def test_remove_top_cell_gives_boundary():
    full = simplex_complex(2)
    top = full.cells_of_dim(2)[0].id
    assert dc.remove_open_star(full, top) == boundary_complex(2)


def test_remove_edge_removes_the_triangle_too():
    # Derived by enumerating cells whose closure contains the edge.
    full = simplex_complex(2)
    edge = full.cells_of_dim(1)[0].id
    result = dc.remove_open_star(full, edge)
    assert result.cell_counts() == [3, 2]
    assert dc.validate(result) == []


def test_remove_vertex_from_point_complex():
    point = DualComplex([Cell.of("v", 0)])
    result = dc.remove_open_star(point, "v")
    assert len(result) == 0


def test_remove_unknown_cell_errors():
    with pytest.raises(KeyError):
        dc.remove_open_star(simplex_complex(1), "nope")


def test_removed_cell_cannot_be_removed_again():
    full = simplex_complex(2)
    top = full.cells_of_dim(2)[0].id
    once = dc.remove_open_star(full, top)
    assert dc.validate(once) == []
    with pytest.raises(KeyError):
        dc.remove_open_star(once, top)


# --------------------------------------------------------------------------
# properties
# --------------------------------------------------------------------------

def _matmul(a, b):
    if not a or not b or not b[0]:
        return []
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_boundary_squared_is_zero(seed):
    complex = random_delta_complex(random.Random(seed), max_cells=60)
    assert dc.validate(complex) == []
    for k in range(2, len(complex.cell_counts())):
        prod = _matmul(dc.boundary_matrix(complex, k - 1),
                       dc.boundary_matrix(complex, k))
        assert all(all(x == 0 for x in row) for row in prod)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_homology_agrees_with_rational_oracle(seed):
    complex = random_delta_complex(random.Random(seed), max_cells=80)
    report = dc.homology(complex)
    assert list(report.betti) == rational_betti(complex)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_euler_equals_both_alternating_sums(seed):
    complex = random_delta_complex(random.Random(seed), max_cells=60)
    report = dc.homology(complex)
    counts = complex.cell_counts()
    assert report.euler == sum((-1) ** k * n for k, n in enumerate(counts))
    assert report.euler == sum((-1) ** k * b for k, b in enumerate(report.betti))


def _sparse_rows(matrix):
    return [{j: x for j, x in enumerate(row) if x} for row in matrix]


def _sparse_factors_and_cores(matrix):
    """The sparse path's factors, and the cores it handed to the dense step."""
    cores = []
    dense = dc.smith_invariant_factors
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dc, "smith_invariant_factors",
                      lambda core: cores.append(core) or dense(core))
        return dc.sparse_invariant_factors(_sparse_rows(matrix)), cores


def _check_against_dense(matrix):
    factors, cores = _sparse_factors_and_cores(matrix)
    assert factors == dc.smith_invariant_factors(matrix)
    # Every unit pivot was eliminated before the dense step.
    assert all(x not in (1, -1) for core in cores for row in core for x in row)


# About half the entries are zero, so that elimination fills in entries.
_ENTRY = st.one_of(st.just(0), st.integers(min_value=-3, max_value=3))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=8).flatmap(
    lambda n: st.lists(st.lists(_ENTRY, min_size=n, max_size=n), max_size=8)))
# The first pivot fills in a unit whose row and column keep their sizes.
@example([[-1, 0, -1], [0, 0, 3], [-1, 2, 0]])
# Two successive pivots write fill-in into rows that hold no unit.
@example([[0, 0, 2], [3, 0, -1], [-1, -2, 0], [0, 0, 2], [-2, 0, 0]])
def test_sparse_invariant_factors_equal_dense_smith_on_small_matrices(matrix):
    _check_against_dense(matrix)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_sparse_invariant_factors_equal_dense_smith_on_boundary_maps(seed):
    complex = random_delta_complex(random.Random(seed), max_cells=80)
    for k in range(1, len(complex.cell_counts())):
        _check_against_dense(dc.boundary_matrix(complex, k))


def test_simplex_boundaries_leave_no_core_for_the_dense_smith(monkeypatch):
    # Unit elimination alone reduces the boundary maps of every simplex
    # and simplex boundary up to the 9-simplex; the dense step never runs.
    cores = []
    monkeypatch.setattr(dc, "smith_invariant_factors",
                        lambda matrix: cores.append(matrix) or [])
    for n in range(1, 11):
        simplex = sm.dual_complex_of(sm.coordinate_germ(n))
        (top,) = simplex.cells_of_dim(n - 1)
        dc.homology(simplex)
        dc.homology(dc.remove_open_star(simplex, top.id))
    assert cores == []


def test_torsion_reaches_the_dense_smith_as_a_core(monkeypatch):
    cores = []
    dense = dc.smith_invariant_factors
    monkeypatch.setattr(dc, "smith_invariant_factors",
                        lambda matrix: cores.append(matrix) or dense(matrix))
    assert dc.homology(moore_space_complex(3)).torsion == ((), (3,), ())
    assert cores


def _downward_closed_variety(rng, n, probs):
    """Components E0..E{n-1}; a set of size k + 2 whose every facet is
    present is kept with probability ``probs[k]``."""
    comps = [f"E{i}" for i in range(n)]
    family = {frozenset([c]) for c in comps}
    for size, p in enumerate(probs, start=2):
        for subset in itertools.combinations(comps, size):
            subset = frozenset(subset)
            if all(subset - {c} in family for c in subset) and rng.random() < p:
                family.add(subset)
    return sm.from_index_sets(comps, family)


def test_homology_with_a_large_coreduced_core(monkeypatch):
    # About 1500 cells whose top boundary map keeps several hundred rows
    # after coreduction, far more than any other complex in the suite.
    complex = sm.dual_complex_of(
        _downward_closed_variety(random.Random(0), 25, (0.9, 0.6, 0.3)))
    assert 1400 <= len(complex) <= 1600
    sizes = []
    sparse = dc.sparse_invariant_factors
    monkeypatch.setattr(dc, "sparse_invariant_factors",
                        lambda rows: sizes.append(len(rows)) or sparse(rows))
    report = dc.homology(complex)
    assert max(sizes) > 300
    assert report == per_map_homology(complex)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_remove_open_star_equals_the_closure_rule(seed):
    rng = random.Random(seed)
    complex = random_delta_complex(rng, max_cells=80)
    cell_id = rng.choice(sorted(complex.cells))
    assert dc.remove_open_star(complex, cell_id) == closure_rule_open_star(complex, cell_id)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_remove_open_star_always_validates(seed):
    rng = random.Random(seed)
    complex = random_delta_complex(rng, max_cells=50)
    cell_id = rng.choice(sorted(complex.cells))
    assert dc.validate(dc.remove_open_star(complex, cell_id)) == []


def test_complex_is_immutable():
    complex = rp2_complex()
    before = dc.canonical_json(complex)
    with pytest.raises(TypeError):
        complex.cells["x"] = Cell.of("x", 0)
    with pytest.raises(TypeError):
        del complex.cells["v"]
    with pytest.raises(AttributeError):
        complex._cells = {}
    with pytest.raises(AttributeError):
        complex.extra = 1
    assert dc.canonical_json(complex) == before


# --------------------------------------------------------------------------
# validity computed once and carried by remove_open_star
# --------------------------------------------------------------------------

def _require_valid_message(violations):
    return ("; ".join(str(v) for v in violations[:5])
            + ("" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_open_stars_of_complexes_marked_valid_pass_the_full_checks(seed):
    rng = random.Random(seed)
    # A dual complex is valid by construction; a random one once validated.
    complex = sm.dual_complex_of(random_variety(rng))
    if rng.random() < 0.5:
        complex = random_delta_complex(rng, max_cells=60)
        assert dc.validate(complex) == []
    for _ in range(rng.randint(1, 4)):
        assert complex._violations == ()
        fresh = DualComplex(complex.cells.values())
        assert fresh._violations is None
        assert dc.validate(fresh) == []
        assert dc.homology(complex) == per_map_homology(fresh)
        if not len(complex):
            break
        complex = dc.remove_open_star(complex, rng.choice(sorted(complex.cells)))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hand_built_and_malformed_complexes_are_never_carried_as_valid(seed):
    rng = random.Random(seed)
    good = random_delta_complex(rng, max_cells=60)
    bad = _malformed(rng, good)
    parsed = dc.from_json_obj(dc.to_json_obj(bad))
    cell_id = rng.choice(sorted(bad.cells))
    for complex in (good, bad, parsed):
        assert complex._violations is None
        assert dc.remove_open_star(complex, cell_id)._violations is None
    want = reference_validate(bad)
    for complex in (bad, parsed):
        if want:
            with pytest.raises(dc.InvalidComplexError) as err:
                dc.homology(complex)
            assert str(err.value) == _require_valid_message(want)
        assert dc.validate(complex) == want
        # Known now: an open star of an invalid complex is still unknown.
        star = dc.remove_open_star(complex, cell_id)
        assert star._violations == (None if want else ())
        assert dc.validate(star) == reference_validate(star)


def test_the_validity_memo_is_invisible_on_complexes():
    checked, fresh = rp2_complex(), rp2_complex()
    first = dc.validate(checked)
    assert checked._violations == () and fresh._violations is None
    assert checked == fresh and hash(checked) == hash(fresh)
    assert repr(checked) == repr(fresh)
    assert dc.to_json_obj(checked) == dc.to_json_obj(fresh)
    assert dc.canonical_json(checked) == dc.canonical_json(fresh)
    assert dc.to_dot(checked) == dc.to_dot(fresh)
    first.append("tampered")
    assert dc.validate(checked) == [] and dc.validate(checked) is not first

    bad = DualComplex([Cell.of("v", 0), Cell.of("e", 1, ("v", "ghost"))])
    want = reference_validate(bad)
    dc.validate(bad).clear()
    assert dc.validate(bad) == want != []


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def test_json_round_trip():
    complex = rp2_complex()
    doc = json.loads(json.dumps(dc.to_json_obj(complex)))
    assert dc.from_json_obj(doc) == complex
    assert dc.canonical_json(dc.from_json_obj(doc)) == dc.canonical_json(complex)


def test_labels_survive_round_trip():
    complex = DualComplex([Cell.of("a", 0, (), {"A"}), Cell.of("b", 0, (), {"B"}),
                           Cell.of("ab", 1, ("a", "b"), {"A", "B"})])
    again = dc.from_json_obj(dc.to_json_obj(complex))
    assert again["ab"].label == frozenset({"A", "B"})


def test_dot_export_lists_vertices_and_edges():
    dot = dc.to_dot(boundary_complex(2))
    assert dot.startswith("graph")
    assert dot.count("--") == 3
    assert '"s0"' in dot


QUOTED = r'"(?:[^"\\]|\\.)*"'


def test_dot_escapes_quotes_and_backslashes_in_ids_and_labels():
    complex = sm.dual_complex_of(odd_id_variety())
    dot = dc.to_dot(complex)
    # Outside its quoted strings, each statement is a vertex or an edge.
    assert re.fullmatch(r"graph skeleton \{(\n  Q(?: -- Q)? \[label=Q\];)+\n\}",
                        re.sub(QUOTED, "Q", dot))
    want = [text for cell in complex.cells_of_dim(0) for text in (cell.id, *cell.label)]
    want += [text for cell in complex.cells_of_dim(1) for text in (*cell.facets, cell.id)]
    assert [re.sub(r"\\(.)", r"\1", text[1:-1]) for text in re.findall(QUOTED, dot)] == want
    assert any('"' in text for text in want) and any("\\" in text for text in want)


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_every_complex_that_validates_serializes(rng, keep_order):
    # The first ``cut`` component names become the str names "8", "9",
    # "10", ..., taken in the order of the sorted names (``keep_order``) or
    # shuffled.  "10" sorts before "8", so even in order a relabelling may
    # change a label's order; facet i drops the i-th smallest label, so the
    # relabelled complex validates exactly when each label keeps its order.
    # An int label is refused when the cell is built (see the test below).
    complex = sm.dual_complex_of(random_variety(rng))
    names = sorted({x for cell in complex.cells_of_dim(0) for x in cell.label})
    if not keep_order:
        rng.shuffle(names)
    cut = rng.randint(0, len(names))
    relabel = {x: str(8 + k) if k < cut else x for k, x in enumerate(names)}
    same = DualComplex(Cell(c.id, c.dim, c.facets, frozenset(map(relabel.get, c.label)))
                       for c in complex.cells.values())
    keeps_order = all(sorted(map(relabel.get, c.label)) == [relabel[x] for x in sorted(c.label)]
                      for c in complex.cells.values())
    assert (dc.validate(same) == []) == keeps_order
    if cut == 0:
        assert keeps_order and same == complex
    obj = dc.to_json_obj(same)
    assert dc.canonical_json(same) == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    dot = dc.to_dot(same)
    for cell in same.cells_of_dim(0):
        (x,) = cell.label
        assert f'  "{cell.id}" [label="{x}"];' in dot
    # The cell and facet order are those of the original complex.
    want = dc.to_json_obj(complex)
    for entry in want["cells"]:
        entry["label"] = sorted(relabel[x] for x in entry["label"])
    assert obj == want


def test_mixed_int_and_str_labels_are_refused_at_construction():
    with pytest.raises(ValueError, match="a cell needs a str id"):
        Cell("a", 0, (), frozenset({1}))
    with pytest.raises(ValueError, match="a cell needs a str id"):
        Cell("ab", 1, ("b", "a"), frozenset({1, "x"}))
    # The same complex with the str label "1" serializes, "1" before "x".
    complex = DualComplex([
        Cell("a", 0, (), frozenset({"1"})), Cell("b", 0, (), frozenset({"x"})),
        Cell("ab", 1, ("b", "a"), frozenset({"1", "x"}))])
    assert dc.validate(complex) == []
    assert dc.to_json_obj(complex)["cells"][-1]["label"] == ["1", "x"]
    assert '"ab"' in dc.canonical_json(complex)
    assert dc.to_dot(complex).splitlines()[1:3] == ['  "a" [label="1"];',
                                                   '  "b" [label="x"];']

