"""Independent cross-check oracles and fixture complexes for the tests.

Everything here recomputes from first principles (rational Gaussian
elimination, direct enumeration) without touching the library's Smith
normal form path, so agreement is meaningful.  The one exception is
``per_map_homology``, the reference for coreduction: it reduces every
whole boundary map with the library's ``sparse_invariant_factors``,
which the tests check against the dense Smith normal form on its own.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from sncresolve import chart_calculus as cc
from sncresolve.chart_calculus import (ChartState, ChildChart, RuleApplication,
                                       RulePreconditionError, _require,
                                       exceptional_coefficient, mdeg)
from sncresolve import dual_complex as dc
from sncresolve.dual_complex import _STR, Cell, DualComplex, HomologyReport, Violation
from sncresolve import poly_oracle as po
from sncresolve.poly_oracle import Polynomial, ScaleError, generic_det
from sncresolve.snc_model import SncVariety, Stratum, from_index_sets


def rational_rank(matrix) -> int:
    """Rank over the rationals by fraction-exact Gaussian elimination."""
    if not matrix or not matrix[0]:
        return 0
    rows = [[Fraction(x) for x in row] for row in matrix]
    ncols = len(rows[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def independent_boundary_matrix(complex: DualComplex, k: int):
    """Boundary matrix built directly from cells, bypassing the library's."""
    rows = sorted((c for c in complex.cells.values() if c.dim == k - 1),
                  key=lambda c: c.id)
    cols = sorted((c for c in complex.cells.values() if c.dim == k),
                  key=lambda c: c.id)
    index = {c.id: i for i, c in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, cell in enumerate(cols):
        for pos, fid in enumerate(cell.facets):
            mat[index[fid]][j] += (-1) ** pos
    return mat


def rational_betti(complex: DualComplex) -> list:
    """Betti numbers from rational ranks of independently built matrices."""
    top = max((c.dim for c in complex.cells.values()), default=-1)
    if top < 0:
        return []
    counts = [sum(1 for c in complex.cells.values() if c.dim == k)
              for k in range(top + 1)]
    ranks = {k: rational_rank(independent_boundary_matrix(complex, k))
             for k in range(1, top + 1)}
    return [counts[k] - ranks.get(k, 0) - ranks.get(k + 1, 0)
            for k in range(top + 1)]


def per_map_homology(complex: DualComplex) -> HomologyReport:
    """Homology from every whole boundary map, without coreduction.

    Each map is built by ``independent_boundary_matrix`` and reduced by
    ``sparse_invariant_factors``; Betti_k is the k-cells minus the ranks
    of the maps into and out of them.  Reference for
    ``dual_complex.homology``, which shrinks the complex first.
    """
    top = max((c.dim for c in complex.cells.values()), default=-1)
    counts = [sum(1 for c in complex.cells.values() if c.dim == k)
              for k in range(top + 1)]
    factors = {k: dc.sparse_invariant_factors(
        [{j: x for j, x in enumerate(row) if x}
         for row in independent_boundary_matrix(complex, k)])
        for k in range(1, top + 1)}
    betti = [counts[k] - len(factors.get(k, [])) - len(factors.get(k + 1, []))
             for k in range(top + 1)]
    torsion = [tuple(d for d in factors.get(k + 1, []) if d > 1)
               for k in range(top + 1)]
    euler = sum((-1) ** k * n for k, n in enumerate(counts))
    return HomologyReport(tuple(betti), tuple(torsion), euler)


def reference_validate(complex: DualComplex) -> list:
    """Reference for ``dual_complex.validate``: the same checks, looking
    each facet up in ``cells`` again inside every loop.  The violations
    and their order must agree.

    Checks facet counts, dangling or wrong-dimension facets, the
    facets-of-facets compatibility that makes boundary-squared vanish, and
    (when labels are present) that facet i drops the i-th smallest label.
    """
    out = []
    cells = complex.cells
    for cell in sorted(cells.values(), key=lambda c: (c.dim, c.id)):
        if cell.dim < 0:
            out.append(Violation("dimension", cell.id, f"negative dimension {cell.dim}"))
            continue
        expected = 0 if cell.dim == 0 else cell.dim + 1
        if len(cell.facets) != expected:
            out.append(Violation(
                "facet count", cell.id,
                f"a {cell.dim}-cell needs {expected} facets, found {len(cell.facets)}"))
            continue
        dangling = False
        for fid in cell.facets:
            if fid not in cells:
                out.append(Violation("dangling facet", cell.id,
                                     f"facet {fid!r} does not exist"))
                dangling = True
            elif cells[fid].dim != cell.dim - 1:
                out.append(Violation(
                    "facet dimension", cell.id,
                    f"facet {fid!r} has dimension {cells[fid].dim}, expected {cell.dim - 1}"))
                dangling = True
        if dangling:
            continue
        # Compatibility: dropping face j then face i (i < j) must agree
        # with dropping face i then face j-1.
        if cell.dim >= 2:
            for j in range(cell.dim + 1):
                for i in range(j):
                    fj = cells[cell.facets[j]]
                    fi = cells[cell.facets[i]]
                    if len(fj.facets) > i and len(fi.facets) > j - 1:
                        if fj.facets[i] != fi.facets[j - 1]:
                            out.append(Violation(
                                "facet compatibility", cell.id,
                                f"facets {j} then {i} reach {fj.facets[i]!r} but "
                                f"facets {i} then {j - 1} reach {fi.facets[j - 1]!r}"))
        if cell.label is not None and cell.dim >= 1:
            if len(cell.label) == cell.dim + 1:
                ordered = sorted(cell.label)
                for i, fid in enumerate(cell.facets):
                    flabel = cells[fid].label
                    want = frozenset(ordered[:i] + ordered[i + 1:])
                    if flabel is not None and flabel != want:
                        out.append(Violation(
                            "label mismatch", cell.id,
                            f"facet {i} should drop {ordered[i]!r}, but carries "
                            f"label {sorted(flabel)}"))
            else:
                out.append(Violation(
                    "label size", cell.id,
                    f"label has {len(cell.label)} entries on a {cell.dim}-cell"))
    return out


# --------------------------------------------------------------------------
# Fixture complexes
# --------------------------------------------------------------------------

def simplex_complex(n: int) -> DualComplex:
    """The full n-simplex as a Delta-complex, ids by vertex subsets."""
    verts = list(range(n + 1))
    cells = []
    for size in range(1, n + 2):
        for subset in itertools.combinations(verts, size):
            cid = "s" + "".join(str(v) for v in subset)
            if size == 1:
                cells.append(Cell.of(cid, 0))
            else:
                facets = ["s" + "".join(str(v) for v in subset if v != drop)
                          for drop in subset]
                cells.append(Cell.of(cid, size - 1, facets))
    return DualComplex(cells)


def boundary_complex(n: int) -> DualComplex:
    """The boundary of the n-simplex (drop the single top cell)."""
    full = simplex_complex(n)
    top = full.cells_of_dim(n)[0]
    return DualComplex([c for c in full.cells.values() if c.id != top.id])


def rp2_complex() -> DualComplex:
    """The two-triangle Delta-complex of the projective plane."""
    return DualComplex([
        Cell.of("v", 0), Cell.of("w", 0),
        Cell.of("a", 1, ("w", "v")),
        Cell.of("b", 1, ("w", "v")),
        Cell.of("c", 1, ("w", "w")),
        Cell.of("U", 2, ("c", "a", "b")),
        Cell.of("L", 2, ("c", "b", "a")),
    ])


def klein_bottle_complex() -> DualComplex:
    """The Klein bottle: a square, cut along a diagonal, one vertex.

    The square's bottom and top edges are both ``a`` (same direction),
    its left and right edges both ``b`` (opposite directions) and ``c``
    is the diagonal.  Then d2(U) = a - c + b and d2(L) = b - a + c, so
    U + L = 2b: H_1 = Z + Z/2 and H_2 = 0.
    """
    return DualComplex([
        Cell.of("v", 0),
        Cell.of("a", 1, ("v", "v")),
        Cell.of("b", 1, ("v", "v")),
        Cell.of("c", 1, ("v", "v")),
        Cell.of("U", 2, ("a", "c", "b")),
        Cell.of("L", 2, ("b", "a", "c")),
    ])


def moore_space_complex(q: int) -> DualComplex:
    """The mod-q Moore space: a disk whose boundary wraps q times round a loop.

    The disk is a fan of q triangles T_i around a centre ``w``, with
    spokes s_i from the rim vertex ``v`` to ``w`` and rim edge ``a``:
    d2(T_i) = s_(i+1) - s_i + a, so the T_i sum to q*a.  Hence H_1 = Z/q
    and H_2 = 0 (needs q >= 2).
    """
    cells = [Cell.of("v", 0), Cell.of("w", 0), Cell.of("a", 1, ("v", "v"))]
    cells += [Cell.of(f"s{i}", 1, ("w", "v")) for i in range(q)]
    cells += [Cell.of(f"T{i}", 2, (f"s{(i + 1) % q}", f"s{i}", "a"))
              for i in range(q)]
    return DualComplex(cells)


def closure_rule_open_star(complex: DualComplex, cell_id: str) -> DualComplex:
    """Open-star removal by the definition: drop every cell whose closure
    (the cell and its iterated facets) contains ``cell_id``.

    Reference for ``dual_complex.remove_open_star``, which searches
    upward from the target instead.
    """
    def closure(cid):
        seen, stack = set(), [cid]
        while stack:
            top = stack.pop()
            if top not in seen:
                seen.add(top)
                stack.extend(complex[top].facets)
        return seen

    return DualComplex(c for c in complex.cells.values()
                       if cell_id not in closure(c.id))


def random_delta_complex(rng, max_cells: int = 200) -> DualComplex:
    """A random valid Delta-complex with at most max_cells cells.

    A disjoint union of one to three parts, each a random downward-closed
    simplicial family (facet order by sorted vertices, so the
    compatibility identities hold) with a few maximal cells duplicated to
    leave simplicial-complex territory.  Then, each at random: isolated
    vertices, two loop edges ``l`` and ``m`` at one vertex, a 2-cell
    ``(l, m, l)`` with boundary 2l - m, and a 2-cell ``(m, m, m)`` with
    boundary m.  The last two glue a projective plane on: once ``m`` is
    paired off, the coefficient 2 is left and H_1 gains Z/2.  Cells come
    after their facets, so cutting the list at max_cells keeps it valid.
    """
    parts = rng.randint(1, 3)
    cells = []
    for part in range(parts):
        cells += _random_simplicial_part(rng, f"p{part}:", max_cells // parts)
    cells += [Cell.of(f"iso{k}", 0) for k in range(rng.randint(0, 2))]
    if rng.random() < 0.5:
        base = rng.choice([c.id for c in cells if c.dim == 0])
        cells += [Cell.of("loop.l", 1, (base, base)), Cell.of("loop.m", 1, (base, base))]
        if rng.random() < 0.7:
            cells.append(Cell.of("pinch", 2, ("loop.l", "loop.m", "loop.l")))
        if rng.random() < 0.5:
            cells.append(Cell.of("cap", 2, ("loop.m", "loop.m", "loop.m")))
    return DualComplex(cells[:max_cells])


def _random_simplicial_part(rng, prefix: str, max_cells: int) -> list:
    """One part of ``random_delta_complex``: its cells, facets first."""
    n0 = rng.randint(1, 14)
    verts = list(range(n0))
    present = {(v,) for v in verts}
    for size in range(2, 6):
        prob = {2: 0.75, 3: 0.6, 4: 0.45, 5: 0.35}[size]
        for subset in itertools.combinations(verts, size):
            if len(present) >= max_cells:
                break
            if all(tuple(v for v in subset if v != d) in present for d in subset):
                if rng.random() < prob:
                    present.add(subset)

    def cid(subset, copy=0):
        base = prefix + "c" + "_".join(str(v) for v in subset)
        return base if copy == 0 else f"{base}@{copy}"

    cells = []
    for subset in sorted(present, key=lambda s: (len(s), s)):
        if len(subset) == 1:
            cells.append(Cell.of(cid(subset), 0))
        else:
            facets = [cid(tuple(v for v in subset if v != d)) for d in subset]
            cells.append(Cell.of(cid(subset), len(subset) - 1, facets))

    # Duplicate some non-vertex cells that nothing sits on (maximal ones),
    # giving parallel cells over the same facets.
    maximal = [s for s in present if len(s) >= 2 and not any(
        len(t) == len(s) + 1 and set(s) <= set(t) for t in present)]
    rng.shuffle(maximal)
    for subset in maximal[:6]:
        facets = [cid(tuple(v for v in subset if v != d)) for d in subset]
        cells.append(Cell.of(cid(subset, copy=1), len(subset) - 1, facets))
    return cells


# --------------------------------------------------------------------------
# Canonical JSON text
# --------------------------------------------------------------------------

def canonical_dumps(obj) -> str:
    """One line of JSON with sorted keys: equal text means equal documents,
    a JSON number's type included (``1``, ``1.0`` and ``true`` differ)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# Whole-state center selection
# --------------------------------------------------------------------------

def _pairs_of(chart, config):
    ordered = sorted(chart.x_indices, key=config.key)
    return [(a, b) for i, a in enumerate(ordered) for b in ordered[i + 1:]]


def whole_state_select_center(state, config):
    """The engine's center selection as a scan of every chart and pair.

    Reference for ``resolution_engine.select_center``, which reads an
    index of the unresolved charts instead; both must agree on every
    valid state.
    """
    def pair_key(pair):
        return tuple(config.key(i) for i in pair)

    unresolved = [(chart, n) for chart, n in state.charts if not cc.is_resolved(chart)]
    if not unresolved:
        return None

    # Phase A: largest determinant first.
    m_star = max((c.det_size for c, _ in unresolved), default=0)
    if m_star >= 2:
        pairs = set()
        for chart, _ in unresolved:
            if chart.det_size == m_star:
                pairs.update(_pairs_of(chart, config))
        pair = min(pairs, key=pair_key)
        return RuleApplication("DET", pair, det_size=m_star)

    # Phase B1: some divisor exponent >= 2; largest exponent first.
    eligible = {}  # divisor -> [exponent, candidate pairs]
    for chart, _ in unresolved:
        if len(chart.x_indices) < 2:
            continue
        for div, a in chart.exponents:
            if a >= 2:
                entry = eligible.setdefault(div, [a, set()])
                entry[1].update(_pairs_of(chart, config))
    if eligible:
        div = min(eligible, key=lambda j: (-eligible[j][0], config.key(j)))
        pair = min(eligible[div][1], key=pair_key)
        return RuleApplication("MON1", pair, divisors=(div,))

    # Phase B2: two divisors of exponent 1 in one chart.
    best = None
    for chart, _ in unresolved:
        if len(chart.x_indices) < 2:
            continue
        ones = sorted((d for d, a in chart.exponents if a == 1), key=config.key)
        for i, j1 in enumerate(ones):
            for j2 in ones[i + 1:]:
                for pair in _pairs_of(chart, config):
                    cand = ((config.key(j1), config.key(j2)), pair_key(pair),
                            (j1, j2), pair)
                    if best is None or cand[:2] < best[:2]:
                        best = cand
    if best:
        return RuleApplication("MON2", best[3], divisors=best[2])

    # Phase B3: a single y-factor and a single exponent-1 divisor.
    best = None
    for chart, _ in unresolved:
        deg = cc.mdeg(chart)
        if deg.dx >= 2 and deg.dy == 1 and deg.dz == 1:
            (j,) = [d for d, _ in chart.exponents]
            for pair in _pairs_of(chart, config):
                cand = (config.key(j), pair_key(pair), j, pair)
                if best is None or cand[:2] < best[:2]:
                    best = cand
    if best:
        return RuleApplication("MON3", best[3], divisors=(best[2],))

    # Phase C: one degree-one factor left (y, or a single exponent-1 divisor).
    components = set()
    for chart, _ in unresolved:
        deg = cc.mdeg(chart)
        if deg.dx >= 2 and deg.dy + deg.dz == 1:
            components.update(chart.x_indices)
    if components:
        return RuleApplication("BIN", (min(components, key=config.key),))

    raise AssertionError("unresolved charts remain but no phase applies")


def rule_matches(chart, app) -> bool:
    """Whether ``app`` rewrites ``chart``: the chart carries the rule's pair
    (and divisors, det size or degrees).  Reference for the charts the
    engine files under a rule as the parents of its event."""
    deg = chart.deg
    exps = chart.exponent_map()
    pair_in = set(app.pair) <= chart.x_indices
    if app.kind == "DET":
        return pair_in and chart.det_size == app.det_size
    if app.kind == "MON1":
        return pair_in and app.divisors[0] in exps
    if app.kind == "MON2":
        return pair_in and all(j in exps for j in app.divisors)
    if app.kind == "MON3":
        return pair_in and deg.dy == 1 and list(exps) == [app.divisors[0]] and deg.dz == 1
    if app.kind == "BIN":
        return (app.pair[0] in chart.x_indices and deg.dx >= 2 and deg.dy + deg.dz == 1
                and not cc.is_resolved(chart))
    raise KeyError(app.kind)


# --------------------------------------------------------------------------
# Per-pair incidence check
# --------------------------------------------------------------------------

def per_pair_validate_snc(snc):
    """``snc_model.validate_snc`` with its coherence loop as one lookup per pair.

    Reference for the library, which builds each parent map once; both
    must return the same violations in the same order.
    """
    out = []
    by_id = {}
    for s in snc.strata:
        if s.id in by_id:
            out.append(f"duplicate stratum id {s.id!r}")
        by_id[s.id] = s
        if not s.indices:
            out.append(f"stratum {s.id!r} has an empty index set")
        unknown = s.indices - snc.components
        if unknown:
            out.append(f"stratum {s.id!r} mentions unknown components {sorted(unknown)}")

    singletons = {}
    for s in snc.strata:
        if len(s.indices) == 1:
            singletons.setdefault(next(iter(s.indices)), []).append(s.id)
    for comp in sorted(snc.components):
        if comp not in singletons:
            out.append(f"component {comp!r} has no singleton stratum")

    for s in snc.strata:
        if len(s.indices) < 2:
            if s.parents:
                out.append(f"stratum {s.id!r}: a singleton stratum has no parents")
            continue
        parents = s.parent_map()
        if set(parents) != set(s.indices):
            out.append(f"stratum {s.id!r}: parents must be designated for "
                       f"exactly the indices {sorted(s.indices)}")
            continue
        for j, pid in parents.items():
            parent = by_id.get(pid)
            if parent is None:
                out.append(f"stratum {s.id!r}: parent {pid!r} does not exist")
            elif parent.indices != s.indices - {j}:
                out.append(f"stratum {s.id!r}: parent over {j!r} has index set "
                           f"{sorted(parent.indices)}, expected "
                           f"{sorted(s.indices - {j})}")

    for s in snc.strata:
        if len(s.indices) < 3:
            continue
        parents = s.parent_map()
        for i in sorted(s.indices):
            for j in sorted(s.indices):
                if i >= j:
                    continue
                pi = by_id.get(parents.get(i, ""))
                pj = by_id.get(parents.get(j, ""))
                if pi is None or pj is None:
                    continue
                via_i = pi.parent_map().get(j)
                via_j = pj.parent_map().get(i)
                if via_i != via_j:
                    out.append(
                        f"stratum {s.id!r}: incoherent parents, dropping "
                        f"{i!r} then {j!r} reaches {via_i!r} but {j!r} then "
                        f"{i!r} reaches {via_j!r}")
    return out


def shared_map_validate_snc(snc):
    """``snc_model.validate_snc`` as it was before each stratum's own parent
    map was built once: its third and fourth loops call ``parent_map``
    again, and the coherence loop shares one map per id (the last record
    of a repeated id).  Reference for the library; both must return the
    same violations in the same order.
    """
    out = []
    by_id = {}
    for s in snc.strata:
        if s.id in by_id:
            out.append(f"duplicate stratum id {s.id!r}")
        by_id[s.id] = s
        if not s.indices:
            out.append(f"stratum {s.id!r} has an empty index set")
        unknown = s.indices - snc.components
        if unknown:
            out.append(f"stratum {s.id!r} mentions unknown components {sorted(unknown)}")

    singletons = {}
    for s in snc.strata:
        if len(s.indices) == 1:
            singletons.setdefault(next(iter(s.indices)), []).append(s.id)
    for comp in sorted(snc.components):
        if comp not in singletons:
            out.append(f"component {comp!r} has no singleton stratum")

    for s in snc.strata:
        if len(s.indices) < 2:
            if s.parents:
                out.append(f"stratum {s.id!r}: a singleton stratum has no parents")
            continue
        parents = s.parent_map()
        if set(parents) != set(s.indices):
            out.append(f"stratum {s.id!r}: parents must be designated for "
                       f"exactly the indices {sorted(s.indices)}")
            continue
        for j, pid in parents.items():
            parent = by_id.get(pid)
            if parent is None:
                out.append(f"stratum {s.id!r}: parent {pid!r} does not exist")
            elif parent.indices != s.indices - {j}:
                out.append(f"stratum {s.id!r}: parent over {j!r} has index set "
                           f"{sorted(parent.indices)}, expected "
                           f"{sorted(s.indices - {j})}")

    parent_maps = {sid: s.parent_map() for sid, s in by_id.items()}
    for s in snc.strata:
        if len(s.indices) < 3:
            continue
        parents = s.parent_map()
        ordered = sorted(s.indices)
        for pos, i in enumerate(ordered):
            pi = parent_maps.get(parents.get(i, ""))
            if pi is None:
                continue
            for j in ordered[pos + 1:]:
                pj = parent_maps.get(parents.get(j, ""))
                if pj is None:
                    continue
                via_i = pi.get(j)
                via_j = pj.get(i)
                if via_i != via_j:
                    out.append(
                        f"stratum {s.id!r}: incoherent parents, dropping "
                        f"{i!r} then {j!r} reaches {via_i!r} but {j!r} then "
                        f"{i!r} reaches {via_j!r}")
    return out


def reference_variety_from_json_obj(obj: dict) -> SncVariety:
    """``snc_model.from_json_obj`` as it was before the whole document was
    checked at once: one stratum entry at a time, each all-str entry built
    without its constructor's checks and any other sent to ``Stratum.of``.
    A repeated component is refused after the strata, as the library does.

    Reference for the library; both must return equal varieties, or raise
    the same error with the same text.
    """
    if not isinstance(obj, dict) or "components" not in obj or "strata" not in obj:
        raise ValueError("variety document needs 'components' and 'strata'")
    if not isinstance(obj["components"], list) or not isinstance(obj["strata"], list):
        raise ValueError("'components' and 'strata' must be arrays")
    strata = []
    for e in obj["strata"]:
        if not isinstance(e, dict) or "id" not in e or "indices" not in e:
            raise ValueError(f"a stratum must be an object with 'id' and 'indices', got {e!r}")
        sid, indices, parents = e["id"], e["indices"], e.get("parents", {})
        if not isinstance(indices, list) or not isinstance(parents, dict):
            raise ValueError(f"stratum {sid!r}: 'indices' must be an array "
                             "and 'parents' an object")
        if (type(sid) is str and _STR.issuperset(map(type, indices))
                and _STR.issuperset(map(type, parents))
                and _STR.issuperset(map(type, parents.values()))):
            stratum = object.__new__(Stratum)._fill(sid, frozenset(indices),
                                                     tuple(sorted(parents.items())))
        else:
            stratum = Stratum.of(sid, indices, parents)
        strata.append(stratum)
        if len(stratum.indices) != len(indices):
            raise ValueError(f"stratum {sid!r}: 'indices' repeats an index, got {indices!r}")
    snc = SncVariety.of(obj["components"], strata)
    if len(snc.components) != len(obj["components"]):
        raise ValueError(f"'components' repeats a component, got {obj['components']!r}")
    return snc


# --------------------------------------------------------------------------
# Random varieties and blow-ups by the definition
# --------------------------------------------------------------------------

def random_variety(rng) -> SncVariety:
    """A random valid variety: one to six components and the downward
    closure of a few random index sets, built by ``from_index_sets``."""
    comps = [f"E{i}" for i in range(1, rng.randint(1, 6) + 1)]
    family = set()
    for _ in range(rng.randint(0, 4)):
        top = rng.sample(comps, rng.randint(1, len(comps)))
        for size in range(1, len(top) + 1):
            family.update(frozenset(s) for s in itertools.combinations(top, size))
    return from_index_sets(comps, family)


# Component ids that JSON and DOT text must escape: a newline, a quote, a
# backslash and a non-ASCII letter.
ODD_IDS = ["E\n1", 'E"2', "E\\3é"]


def odd_id_variety() -> SncVariety:
    """The three ``ODD_IDS`` components, meeting pairwise and all at once."""
    return from_index_sets(ODD_IDS, [set(ODD_IDS[:2]), set(ODD_IDS[1:]),
                                     {ODD_IDS[0], ODD_IDS[2]}, set(ODD_IDS)])


def closure_rule_blowup(snc: SncVariety, center_id: str) -> SncVariety:
    """The variety left by a stratum blow-up, by the definition: drop every
    stratum id from which iterated parents reach the center, and keep the
    components that still have a singleton stratum.

    Reference for the variety ``snc_model.blowup_center`` builds, which
    searches down through children from the center instead.
    """
    parents = {}
    for s in snc.strata:
        parents.setdefault(s.id, set()).update(pid for _, pid in s.parents)

    def reaches_center(sid):
        seen, stack = set(), [sid]
        while stack:
            top = stack.pop()
            if top == center_id:
                return True
            if top not in seen:
                seen.add(top)
                stack.extend(parents.get(top, ()))
        return False

    kept = [s for s in snc.strata if not reaches_center(s.id)]
    return SncVariety.of({next(iter(s.indices)) for s in kept if len(s.indices) == 1},
                         kept)


def cell_of_dual_complex(snc: SncVariety) -> DualComplex:
    """``snc_model.dual_complex_of`` as it was before each stratum kept its
    cell: one ``Cell.of`` per stratum, on every call, unchecked.

    Reference for the library's memoized cells; the two complexes must be
    equal cell for cell and in the same order.
    """
    cells = []
    for s in snc.strata:
        ordered = sorted(s.indices)
        if len(ordered) == 1:
            cells.append(Cell.of(s.id, 0, (), s.indices))
        else:
            parents = s.parent_map()
            cells.append(Cell.of(s.id, len(ordered) - 1,
                                 tuple(parents[j] for j in ordered), s.indices))
    return DualComplex(cells)


# --------------------------------------------------------------------------
# Reference polynomial kernel
# --------------------------------------------------------------------------

def reference_mono_mul(a, b):
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for var, exp in b:
        merged[var] = merged.get(var, 0) + exp
    return tuple(sorted(merged.items()))


class ReferencePolynomial:
    """The polynomial kernel that normalises every result from scratch.

    Reference for ``poly_oracle.Polynomial``, whose arithmetic builds
    canonical terms directly: every operation must give the same
    ``terms``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if coeff:
                    mono = tuple(sorted((v, e) for v, e in mono if e))
                    c = clean.get(mono, 0) + coeff
                    if c:
                        clean[mono] = c
                    elif mono in clean:
                        del clean[mono]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ReferencePolynomial is immutable")

    @staticmethod
    def constant(c):
        return ReferencePolynomial({(): c})

    def divide_out(self, var, k):
        if k == 0:
            return self
        out = {}
        for mono, coeff in self.terms.items():
            d = dict(mono)
            if d.get(var, 0) < k:
                raise ValueError(f"{var}**{k} does not divide every term")
            d[var] -= k
            out[tuple(sorted((v, e) for v, e in d.items() if e))] = coeff
        return ReferencePolynomial(out)

    def substitute(self, mapping):
        images = {v: (p if isinstance(p, ReferencePolynomial)
                      else ReferencePolynomial.constant(p))
                  for v, p in mapping.items()}
        total = ReferencePolynomial()
        for mono, coeff in self.terms.items():
            term = ReferencePolynomial.constant(coeff)
            for var, exp in mono:
                base = images.get(var)
                if base is None:
                    term = term * ReferencePolynomial({((var, exp),): 1})
                else:
                    term = term * base ** exp
            total = total + term
        return total

    def __add__(self, other):
        other = (other if isinstance(other, ReferencePolynomial)
                 else ReferencePolynomial.constant(other))
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, 0) + coeff
            if c:
                out[mono] = c
            elif mono in out:
                del out[mono]
        return ReferencePolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return ReferencePolynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = (other if isinstance(other, ReferencePolynomial)
                 else ReferencePolynomial.constant(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = (other if isinstance(other, ReferencePolynomial)
                 else ReferencePolynomial.constant(other))
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = reference_mono_mul(ma, mb)
                c = out.get(mono, 0) + ca * cb
                if c:
                    out[mono] = c
                elif mono in out:
                    del out[mono]
        return ReferencePolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = ReferencePolynomial.constant(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def reference_rename_variables(f, mapping):
    """Injective variable renaming, normalised through the reference constructor."""
    out = {}
    for mono, coeff in f.terms.items():
        renamed = tuple(sorted((mapping.get(v, v), e) for v, e in mono))
        if len({v for v, _ in renamed}) != len(renamed):
            raise ValueError("renaming is not injective on this polynomial")
        out[renamed] = coeff
    return ReferencePolynomial(out)


def reference_local_equation(chart):
    """``chart_calculus.local_equation`` as it multiplied out both sides.

    Reference for the library, which builds prod x_i and t * prod z_j^{a_j}
    as one monomial each; both must give the same polynomial and raise
    ``ScaleError`` at the same charts.
    """
    if chart.det_size > po.VERIFY_MAX_DET:
        raise ScaleError("det size cap")
    d = mdeg(chart)
    if d.dx + d.dy + d.dz + 1 > cc.EQUATION_MAX_TOTAL_DEGREE:
        raise ScaleError("total-degree cap")
    lhs = Polynomial.constant(1)
    for i in sorted(chart.x_indices):
        lhs = lhs * Polynomial.variable(cc.x_var(i))
    m = chart.det_size
    rhs = Polynomial.variable("t") * generic_det(m, name=lambda r, s: cc.y_var(r, s, m))
    for div, a in chart.exponents:
        rhs = rhs * Polynomial.variable(cc.z_var(div)) ** a
    return lhs - rhs


# --------------------------------------------------------------------------
# Determinants by products of polynomial entries
# --------------------------------------------------------------------------

def det_of(entries) -> Polynomial:
    """Determinant of a square matrix of polynomials (Leibniz expansion).

    Reference for ``poly_oracle.generic_det``, which writes each signed
    monomial directly: on named entries both give the same terms in the
    same order, and both refuse a matrix larger than 5 x 5.
    """
    m = len(entries)
    if m > 5:
        raise ScaleError("determinant expansion capped at 5x5")
    total = Polynomial()
    for perm in itertools.permutations(range(m)):
        sign = 1
        for i in range(m):
            for j in range(i + 1, m):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Polynomial.constant(sign)
        for r in range(m):
            entry = entries[r][perm[r]]
            entry = entry if isinstance(entry, Polynomial) else Polynomial.constant(entry)
            term = term * entry
        total = total + term
    return total


def det_reduction_check(m: int) -> bool:
    """Check the pivot-elimination identity used after a determinant blow-up.

    For the generic m x m matrix with the (m, m) entry set to 1, the
    determinant equals the determinant of the (m-1) x (m-1) matrix with
    entries y_rs - y_rm * y_ms.
    """
    if m < 2:
        raise ValueError("identity needs m >= 2")
    if m > 4:
        raise ScaleError("det_reduction_check capped at m = 4")
    var = lambda r, s: Polynomial.variable(f"y{r}{s}")
    full = [[var(r, s) if (r, s) != (m, m) else Polynomial.constant(1)
             for s in range(1, m + 1)] for r in range(1, m + 1)]
    reduced = [[var(r, s) - var(r, m) * var(m, s)
                for s in range(1, m)] for r in range(1, m)]
    return det_of(full) == det_of(reduced)


def multiplicity_at_origin(f: Polynomial) -> int:
    """Minimum total degree over the terms of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("multiplicity of the zero polynomial")
    return min(sum(e for _, e in mono) for mono in f.terms)


# --------------------------------------------------------------------------
# Rule ranks by re-sorting and whole-map lookups
# --------------------------------------------------------------------------

def reference_propose(chart, key) -> tuple:
    """``chart_calculus.propose`` as it sorted the x-indices on every call
    and ranked MON1 by calling ``key`` on every divisor of exponent >= 2.

    Reference for the library, which sorts the chart's stored x-tuple and
    calls ``key`` only on the divisors tied at the top exponent; both must
    give the same rank for every unresolved chart and id ordering.
    """
    _, dy, dz = chart.deg
    xs = sorted(chart.x_indices, key=key)
    pair, pk = (xs[0], xs[1]), (key(xs[0]), key(xs[1]))
    if dy >= 2:
        return (0, -chart.det_size, pk, "DET", pair, (), chart.det_size)
    if dz > len(chart.exponents):
        neg_a, kd, d = min((-a, key(d), d) for d, a in chart.exponents if a >= 2)
        return (1, neg_a, kd, pk, "MON1", pair, (d,), None)
    if dz >= 2:
        j1, j2 = sorted((d for d, _ in chart.exponents), key=key)[:2]
        return (2, key(j1), key(j2), pk, "MON2", pair, (j1, j2), None)
    if dy + dz == 2:
        ((j, _),) = chart.exponents
        return (3, key(j), pk, "MON3", pair, (j,), None)
    return (4, key(xs[0]), "BIN", (xs[0],), (), None)


def reference_application(rank, chart, policy, new_id) -> RuleApplication:
    """``chart_calculus.application`` as it read the exponent from a whole
    exponent map and built the application again to set its new divisor."""
    app = RuleApplication(*rank[-4:])
    a = chart.exponent_map().get(app.divisors[0]) if app.divisors else None
    e = exceptional_coefficient(app.kind, det_size=chart.det_size,
                                divisor_exponent=a, policy=policy)
    return RuleApplication(*rank[-4:], new_divisor=(new_id, e)) if e > 0 else app


# --------------------------------------------------------------------------
# Child charts by re-sorting
# --------------------------------------------------------------------------

def reference_children(chart, app, policy="oracle"):
    """``chart_calculus.children`` as it re-sorted every child's exponents.

    Reference for the library, which derives each child's exponent tuple
    from the parent's sorted one; both must give the same ``ChildChart``s
    and raise the same precondition errors.
    """
    exps = chart.exponent_map()
    d = mdeg(chart)

    if app.kind == "DET":
        m = chart.det_size
        _require(m >= 2, "DET", f"needs det size >= 2, chart has {m}")
        if app.det_size is not None:
            _require(app.det_size == m, "DET",
                     f"targets det size {app.det_size}, chart has {m}")
        i1, i2 = app.pair
        _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
                 "DET", f"pair ({i1},{i2}) must be two distinct x-indices of the chart")
        e = exceptional_coefficient("DET", det_size=m, policy=policy)
        extra = {}
        if e > 0:
            _require(app.new_divisor is not None, "DET",
                     "a new divisor id is required when the exceptional coefficient is positive")
            _require(app.new_divisor[1] == e, "DET",
                     f"new divisor coefficient {app.new_divisor[1]} != policy value {e}")
            extra = {app.new_divisor[0]: e}
        x_child = ChartState.of(chart.x_indices - {min(i1, i2)}, m, {**exps, **extra})
        y_child = ChartState.of(chart.x_indices, m - 1, {**exps, **extra})
        return [ChildChart(x_child, 2, "x"), ChildChart(y_child, m * m, "y")]

    if app.kind == "MON1":
        i1, i2 = app.pair
        (j1,) = app.divisors
        _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
                 "MON1", f"pair ({i1},{i2}) must be two distinct x-indices of the chart")
        _require(j1 in exps, "MON1", f"divisor {j1!r} absent from the chart")
        a = exps[j1]
        _require(a >= 2, "MON1", f"divisor {j1!r} has exponent {a} < 2")
        e = a - 2
        extra = {}
        if e > 0:
            _require(app.new_divisor is not None and app.new_divisor[1] == e, "MON1",
                     f"new divisor with coefficient {e} required")
            extra = {app.new_divisor[0]: e}
        rest = {k: v for k, v in exps.items() if k != j1}
        x_child = ChartState.of(chart.x_indices - {min(i1, i2)},
                                chart.det_size, {**exps, **extra})
        z_child = ChartState.of(chart.x_indices, chart.det_size, {**rest, **extra})
        return [ChildChart(x_child, 2, "x"), ChildChart(z_child, 1, "z")]

    if app.kind == "MON2":
        i1, i2 = app.pair
        j1, j2 = app.divisors
        _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
                 "MON2", f"pair ({i1},{i2}) must be two distinct x-indices of the chart")
        _require(j1 != j2 and exps.get(j1) == 1 and exps.get(j2) == 1, "MON2",
                 f"divisors ({j1!r},{j2!r}) must both carry exponent 1")
        drop = min(j1, j2)
        x_child = ChartState.of(chart.x_indices - {min(i1, i2)}, chart.det_size, exps)
        z_child = ChartState.of(chart.x_indices, chart.det_size,
                                {k: v for k, v in exps.items() if k != drop})
        return [ChildChart(x_child, 2, "x"), ChildChart(z_child, 2, "z")]

    if app.kind == "MON3":
        i1, i2 = app.pair
        _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
                 "MON3", f"pair ({i1},{i2}) must be two distinct x-indices of the chart")
        _require(d.dy == 1 and d.dz == 1, "MON3",
                 f"needs (deg_y, deg_z) = (1, 1), chart has ({d.dy},{d.dz})")
        x_child = ChartState.of(chart.x_indices - {min(i1, i2)}, 1, exps)
        # Both single-factor children take the same form once the leftover
        # divisor coordinate is renamed into the y-slot.
        yz_child = ChartState.of(chart.x_indices, 1, {})
        return [ChildChart(x_child, 2, "x"), ChildChart(yz_child, 2, "yz")]

    if app.kind == "BIN":
        (i1,) = app.pair
        _require(i1 in chart.x_indices, "BIN", f"{i1!r} is not an x-index of the chart")
        _require(d.dx >= 2, "BIN", "needs at least two x-factors")
        _require(d.dy + d.dz == 1, "BIN",
                 f"needs a single degree-one factor, chart has (dy,dz)=({d.dy},{d.dz})")
        factor_child = ChartState.of(chart.x_indices - {i1}, chart.det_size, exps)
        smooth_child = ChartState.of(chart.x_indices, 0, {})
        return [ChildChart(factor_child, 1, "factor"),
                ChildChart(smooth_child, 1, "smooth")]

    raise RulePreconditionError(f"unknown rule kind {app.kind!r}")


# --------------------------------------------------------------------------
# Rule verification by whole-equation pull-backs
# --------------------------------------------------------------------------

def reference_check_one_chart(f, vc, expected, child_mdeg):
    """``poly_oracle._check_one_chart`` as it pulled the whole local equation
    ``f`` back through each chart and read the t = 0 fiber by substitution.

    Reference for the library, which folds the equation's two monomials per
    chart and pulls det(y) back once per key; both must give the same check.
    """
    var = Polynomial.variable
    sub = {p: var(po.prime(p)) * var(po.EXC) for p in vc.scaled}
    sub[vc.lead] = var(po.EXC)
    g, k = po.strict_transform(f, po.Substitution(sub), po.EXC)
    if vc.post is not None:
        g = g.substitute(vc.post)
    fiber = g.substitute({"t": Polynomial.constant(0)})
    preimage_ok = False
    if len(fiber.terms) == 1:
        (mono, coeff), = fiber.terms.items()
        preimage_ok = (abs(coeff) == 1 and all(e == 1 for _, e in mono)
                       and all(v != po.EXC for v, _ in mono) and len(mono) == child_mdeg[0])
    return po.ChartCheck(vc.family, vc.detail, k, po._measure_t_side(g, po.EXC), True,
                         preimage_ok, g == expected, tuple(child_mdeg))


def reference_verify_rule(app, chart, policy="oracle"):
    """``poly_oracle.verify_rule`` with the whole-equation chart check above,
    for charts within the verifier's caps."""
    f = cc.local_equation(chart)
    report = po.VerificationReport(rule=app.kind, chart=cc.chart_to_obj(chart), policy=policy)
    kids = cc.children(chart, app, policy=policy)
    rule = cc.RULES[app.kind]
    charts = rule.charts(chart, app)
    predicted = {k.family: k.multiplicity for k in kids}
    verified = {}
    for vc in charts:
        verified[vc.family] = verified.get(vc.family, 0) + 1
    if predicted != verified:
        report.family_check_ok = False
        report.notes.append(
            f"family bookkeeping mismatch: rules record {predicted}, "
            f"the verifier derived {verified}")
        return report
    equations = {k.family: (cc.local_equation(k.state), k.state.deg) for k in kids}
    new_var = cc.z_var(app.new_divisor[0]) if app.new_divisor else None
    for vc in charts:
        child_eq, child_mdeg = equations[vc.family]
        report.checks.append(reference_check_one_chart(
            f, vc, po._expected(child_eq, child_eq.variables(), vc, new_var), child_mdeg))
    report.notes.extend(rule.notes(chart, policy, report.measured_exponents))
    return report
