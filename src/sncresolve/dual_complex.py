"""Unordered Delta-complexes with exact integer homology.

Cells carry ordered facet lists; the position of a facet fixes its sign in
the boundary operator, so any complex accepted by ``validate`` has
well-defined chain groups with boundary-squared zero.  Homology is
computed from Smith normal forms over arbitrary-precision integers, so
Betti numbers and torsion coefficients are exact.

``homology`` first shrinks the whole complex without building a matrix.
It removes one base vertex per connected component, then runs
coreductions (Mrozek and Batko, 2009) to exhaustion: a cell whose
remaining boundary is a single face with coefficient +-1 leaves together
with that face, which keeps the homology.  Each cell's boundary is built
in C from its facets' indices and alternating signs; only a cell that
repeats a facet sums its signs in Python.  Only the surviving cells reach
the boundary maps.  Each map is eliminated sparsely: its unit pivots
(entries +-1) go first, row by row, each giving an invariant factor 1,
and only the core left without a unit entry is handed to the dense
Smith normal form, which then sees little more than the torsion.

``validate`` checks a complex once and keeps the answer on it.  The
output of ``snc_model.dual_complex_of``, and of ``remove_open_star`` on a
complex known to be valid, is valid by construction and never checked;
``dual_complex_of`` builds its cells in form without ``Cell``'s checks.
A complex puts its cells in (dimension, id) order by two stable sorts on
C keys, by id and then by dimension, so no key tuple is built or compared.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from operator import attrgetter
from types import MappingProxyType


class InvalidComplexError(ValueError):
    """Operation requires a complex that passes validation."""


# ``_STR.issuperset(map(type, items))``: every entry of ``items`` is a str.
_STR = frozenset((str,))
_set = object.__setattr__


def _refuse(self, name, value=None):
    """The ``__setattr__`` and ``__delattr__`` of every immutable object."""
    raise AttributeError(f"{type(self).__name__} is immutable; cannot change {name!r}")


class _Record:
    """A record compared, hashed, shown, copied and pickled by the fields
    that ``_fields`` names.  Its ``__init__`` sets its slots with ``_set``;
    a write after that is refused, unless the class allows it and drops
    its hash, as the two verification reports do."""

    __slots__ = ()
    __setattr__ = __delattr__ = _refuse

    def __init_subclass__(cls):
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


def _out_of_form(record: str, form: str, *fields) -> ValueError:
    """The error for a record built out of form.  A set shows its entries
    in the order of their reprs: the message never depends on hashing."""
    shown = ("{" + ", ".join(sorted(map(repr, f))) + "}" if isinstance(f, (set, frozenset))
             else repr(f) for f in fields)
    return ValueError(f"a {record} needs {form}, got {', '.join(shown)}")


class Cell(_Record):
    """A single cell: k+1 ordered facets for a k-cell, none for a vertex.
    Built only in form (ValueError otherwise): a str id, an int dim, a
    tuple of str facet ids, and a frozenset of str labels or None."""

    __slots__ = _fields = ("id", "dim", "facets", "label")

    def __init__(self, id: str, dim: int, facets: tuple = (), label: frozenset | None = None):
        if not (type(id) is str and type(dim) is int and type(facets) is tuple
                and _STR.issuperset(map(type, facets)) and (label is None or (
                    type(label) is frozenset and _STR.issuperset(map(type, label))))):
            raise _out_of_form("cell", "a str id, an int dim, a tuple of str facets and "
                               "a frozenset of str labels or None", id, dim, facets, label)
        self._fill(id, dim, facets, label)

    def _fill(self, id, dim, facets, label) -> "Cell":
        """Set the fields; ``object.__new__(Cell)._fill`` skips the checks."""
        _set(self, "id", id)
        _set(self, "dim", dim)
        _set(self, "facets", facets)
        _set(self, "label", label)
        return self

    @staticmethod
    def of(id, dim, facets=(), label=None) -> "Cell":
        """A cell from any iterables (a str is one id) of facets and labels; coerces nothing."""
        try:
            if str in (type(facets), type(label)):
                raise TypeError
            return Cell(id, dim, tuple(facets), None if label is None else frozenset(label))
        except TypeError:
            raise _out_of_form("cell", "iterables of str facets and labels",
                               id, facets, label) from None


class Violation(_Record):
    __slots__ = _fields = ("rule", "cell", "detail")

    def __init__(self, rule: str, cell: str | None, detail: str):
        _set(self, "rule", rule)
        _set(self, "cell", cell)
        _set(self, "detail", detail)

    def __str__(self):
        where = f" [{self.cell}]" if self.cell else ""
        return f"{self.rule}{where}: {self.detail}"


_id, _dim = attrgetter("id"), attrgetter("dim")


class DualComplex(_Record):
    """A finite unordered Delta-complex, indexed by cell id.

    Immutable: ``cells`` is a read-only mapping and no attribute can be
    set after construction, so a complex shared by many states cannot
    drift.  ``cells`` is in (dimension, id) order, whatever order the cells
    come in.  ``_violations`` keeps ``validate``'s answer (None: unknown).
    """

    _fields = ("_cells",)
    __slots__ = _fields + ("_violations",)

    def __init__(self, cells=()):
        cells = tuple(cells)
        ordered = sorted(sorted(cells, key=_id), key=_dim)
        by_id = dict(zip(map(_id, ordered), ordered))
        if len(by_id) < len(cells):  # name the first repeat given
            seen = set()
            cid = next(cid for cid in map(_id, cells) if cid in seen or seen.add(cid))
            raise ValueError(f"duplicate cell id {cid!r}")
        _set(self, "_cells", MappingProxyType(by_id))
        _set(self, "_violations", None)

    @property
    def cells(self) -> MappingProxyType:
        return self._cells

    def __contains__(self, cell_id) -> bool:
        return cell_id in self._cells

    def __getitem__(self, cell_id) -> Cell:
        return self._cells[cell_id]

    def __len__(self) -> int:
        return len(self._cells)

    def __hash__(self):
        return hash(frozenset(self._cells.items()))

    def __reduce__(self):  # a copy checks its cells anew
        return DualComplex, (tuple(self._cells.values()),)

    def cells_of_dim(self, k: int) -> list:
        return [c for c in self._cells.values() if c.dim == k]

    def cell_counts(self) -> list:
        by_dim = Counter(c.dim for c in self._cells.values())
        return [by_dim[k] for k in range(max(by_dim, default=-1) + 1)]

    def __repr__(self):
        return f"DualComplex({'/'.join(str(n) for n in self.cell_counts()) or 'empty'})"


def validate(complex: DualComplex) -> list:
    """All structural violations of the complex; empty means valid.

    Checks facet counts, dangling or wrong-dimension facets, the
    facets-of-facets compatibility that makes boundary-squared vanish, and
    (when labels are present) that facet i drops the i-th smallest label.
    The checks run once per complex; every call returns a new list.
    """
    if complex._violations is None:
        _set(complex, "_violations", tuple(_find_violations(complex)))
    return list(complex._violations)


def _known_valid(value):
    """Mark a complex or variety valid, for constructors that keep validity."""
    _set(value, "_violations", ())
    return value


def _find_violations(complex: DualComplex) -> list:
    out = []
    cells = complex.cells
    for cell in cells.values():
        if cell.dim < 0:
            out.append(Violation("dimension", cell.id, f"negative dimension {cell.dim}"))
            continue
        expected = 0 if cell.dim == 0 else cell.dim + 1
        if len(cell.facets) != expected:
            out.append(Violation(
                "facet count", cell.id,
                f"a {cell.dim}-cell needs {expected} facets, found {len(cell.facets)}"))
            continue
        facets = [cells.get(fid) for fid in cell.facets]
        dangling = False
        for fid, facet in zip(cell.facets, facets):
            if facet is None:
                out.append(Violation("dangling facet", cell.id,
                                     f"facet {fid!r} does not exist"))
                dangling = True
            elif facet.dim != cell.dim - 1:
                out.append(Violation(
                    "facet dimension", cell.id,
                    f"facet {fid!r} has dimension {facet.dim}, expected {cell.dim - 1}"))
                dangling = True
        if dangling:
            continue
        # Compatibility: dropping face j then face i (i < j) must agree
        # with dropping face i then face j-1.
        if cell.dim >= 2:
            faces = [facet.facets for facet in facets]
            for j, fj in enumerate(faces):
                for i, fi in enumerate(faces[:j]):
                    if len(fj) > i and len(fi) > j - 1 and fj[i] != fi[j - 1]:
                        out.append(Violation(
                            "facet compatibility", cell.id,
                            f"facets {j} then {i} reach {fj[i]!r} but "
                            f"facets {i} then {j - 1} reach {fi[j - 1]!r}"))
        if cell.label is not None and cell.dim >= 1:
            if len(cell.label) == cell.dim + 1:
                ordered = sorted(cell.label)
                for i, facet in enumerate(facets):
                    flabel = facet.label
                    # flabel == label - {ordered[i]}, without building it.
                    if flabel is not None and (
                            ordered[i] in flabel or len(flabel) != cell.dim
                            or not flabel < cell.label):
                        out.append(Violation(
                            "label mismatch", cell.id,
                            f"facet {i} should drop {ordered[i]!r}, but carries "
                            f"label {sorted(flabel)}"))
            else:
                out.append(Violation(
                    "label size", cell.id,
                    f"label has {len(cell.label)} entries on a {cell.dim}-cell"))
    return out


def _require_valid(complex: DualComplex):
    violations = validate(complex)
    if violations:
        raise InvalidComplexError(
            "; ".join(str(v) for v in violations[:5])
            + ("" if len(violations) <= 5 else f" (+{len(violations) - 5} more)"))


def _signed_facets(cell: Cell) -> dict:
    """The cell's boundary as ``{facet id: coefficient}``.

    Facet i has sign (-1)**i; repeated facets accumulate, and entries
    that cancel are dropped.
    """
    out = {}
    sign = 1
    for fid in cell.facets:
        value = out.get(fid, 0) + sign
        if value:
            out[fid] = value
        else:
            del out[fid]
        sign = -sign
    return out


def boundary_matrix(complex: DualComplex, k: int) -> list:
    """Integer matrix of the k-th boundary map, rows (k-1)-cells, cols k-cells.

    Both are sorted by id; entries come from ``_signed_facets``.
    """
    index = {c.id: i for i, c in enumerate(complex.cells_of_dim(k - 1))}
    cols = complex.cells_of_dim(k)
    matrix = [[0] * len(cols) for _ in index]
    for j, cell in enumerate(cols):
        for fid, value in _signed_facets(cell).items():
            matrix[index[fid]][j] = value
    return matrix


def sparse_invariant_factors(rows: list) -> list:
    """Nonzero Smith invariant factors of a sparse integer matrix.

    ``rows`` lists the rows as ``{column index: value}``.  Unit pivots
    (entries +-1) are eliminated first, each contributing a factor 1:
    rows are taken in index order from a work list, a row's first unit
    entry clears its column, and every row that changed goes back on the
    list.  The core left without a unit entry goes densely to
    ``smith_invariant_factors``.  The result equals
    ``smith_invariant_factors`` of the dense matrix, since invariant
    factors do not depend on the order of the pivots.
    """
    rows = dict(enumerate({j: x for j, x in row.items() if x} for row in rows))
    cols = {}  # column -> set of rows with a nonzero entry there
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    units = 0
    work = deque(rows)
    while work:
        p = work.popleft()
        pivot_row = rows.get(p, {})
        q = next((j for j, x in pivot_row.items() if x in (1, -1)), None)
        if q is None:
            continue
        units += 1
        del rows[p]
        for j in pivot_row:
            cols[j].discard(p)
        unit = pivot_row.pop(q)
        # Subtract the pivot row to clear column q; the pivot row and
        # column then split off as a 1 x 1 block [unit].
        for i in cols.pop(q):
            row = rows[i]
            factor = row.pop(q) * unit
            for j, x in pivot_row.items():
                new = row.get(j, 0) - factor * x
                if new:
                    row[j] = new
                    cols[j].add(i)
                else:
                    del row[j]
                    cols[j].discard(i)
            work.append(i)

    core_rows = sorted(i for i, row in rows.items() if row)
    core_cols = sorted(j for j, col in cols.items() if col)
    if not core_rows:
        return [1] * units
    core = [[rows[i].get(j, 0) for j in core_cols] for i in core_rows]
    return [1] * units + smith_invariant_factors(core)


def smith_invariant_factors(matrix: list) -> list:
    """Nonzero diagonal of the Smith normal form, in divisibility order.

    Pure integer row/column reduction with a divisibility fix-up; exact
    over arbitrary-precision integers.
    """
    a = [row[:] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    factors = []
    t = 0
    while t < min(m, n):
        # Find the smallest nonzero entry in the remaining block.
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        a[t], a[pi] = a[pi], a[t]
        for row in a:
            row[t], row[pj] = row[pj], row[t]

        dirty = False
        for i in range(t + 1, m):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # Pivot must divide the rest of the block for correct invariant factors.
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        factors.append(abs(a[t][t]))
        t += 1
    return factors


class HomologyReport(_Record):
    """Betti numbers, torsion coefficients per dimension, Euler characteristic."""

    __slots__ = _fields = ("betti", "torsion", "euler")

    def __init__(self, betti: tuple, torsion: tuple, euler: int):
        alt = sum((-1) ** k * b for k, b in enumerate(betti))
        if alt != euler:
            raise ValueError(f"euler {euler} != alternating betti sum {alt}")
        _set(self, "betti", betti)
        _set(self, "torsion", torsion)  # per dimension, tuple of invariant factors > 1
        _set(self, "euler", euler)

    def to_json_obj(self) -> dict:
        return dict(zip(self._fields, self._values(self)))


def _coreduce(boundary: list, nverts: int) -> int:
    """Shrink the complex in place; return its number of components.

    ``boundary[i]`` is cell i's boundary as ``{cell index: coefficient}``,
    cells in (dimension, id) order, so the first ``nverts`` are the
    vertices.  The least vertex of each component of the 1-skeleton is
    removed first (each is one Z in H_0), then every coreduction pair: a
    cell whose remaining boundary is one face with coefficient +-1 leaves
    together with that face.  Neither step changes the homology of what
    remains, whose boundaries are left in ``boundary``; removed cells get
    ``None``.  No base vertex is chosen after coreducing, as a second one
    in a component would add a false H_1 class.
    """
    cofaces = [[] for _ in boundary]
    for i, faces in enumerate(boundary):
        for f in faces:
            cofaces[f].append(i)
    reached = [False] * nverts
    bases = []
    for v in range(nverts):
        if not reached[v]:
            bases.append(v)
            reached[v] = True
            stack = [v]
            while stack:
                for edge in cofaces[stack.pop()]:
                    for w in boundary[edge]:
                        if not reached[w]:
                            reached[w] = True
                            stack.append(w)

    # The queue is a list read in order while removals append to it.
    queue = []
    for v in bases:  # their cofaces are edges, none removed yet
        boundary[v] = None
        for c in cofaces[v]:
            del boundary[c][v]
            queue.append(c)
    queue += range(nverts, len(boundary))
    for i in queue:
        faces = boundary[i]
        if faces is not None and len(faces) == 1:
            (face, value), = faces.items()
            if value in (1, -1):
                for dead in (i, face):
                    boundary[dead] = None
                    for c in cofaces[dead]:
                        faces = boundary[c]
                        if faces is not None:
                            del faces[dead]
                            queue.append(c)
    return len(bases)


def homology(complex: DualComplex) -> HomologyReport:
    """Integral homology of the coreduced complex, by Smith normal forms.

    Betti_k is the survivors of dimension k minus the ranks of the
    boundary maps into and out of them, plus the number of components
    for k = 0; the Euler characteristic comes from the full cell counts.
    """
    _require_valid(complex)
    counts = complex.cell_counts()
    top = len(counts) - 1
    if top < 0:
        return HomologyReport((), (), 0)
    cells = complex.cells.values()
    index = dict(zip(complex.cells, range(len(cells))))
    get, signs = index.__getitem__, (1, -1) * (top // 2 + 1)
    boundary = []
    for c in cells:
        faces = dict(zip(map(get, c.facets), signs))
        if len(faces) < len(c.facets):  # a repeated facet: sum its signs
            faces = {get(f): x for f, x in _signed_facets(c).items()}
        boundary.append(faces)
    components = _coreduce(boundary, counts[0])
    survivors = [[] for _ in counts]
    for i, cell in enumerate(cells):
        if boundary[i] is not None:
            survivors[cell.dim].append(i)
    factors = [[]] * (top + 2)
    for k in range(1, top + 1):
        row_of = {i: r for r, i in enumerate(survivors[k - 1])}
        rows = [{} for _ in row_of]
        for j, i in enumerate(survivors[k]):
            for f, value in boundary[i].items():
                rows[row_of[f]][j] = value
        factors[k] = sparse_invariant_factors(rows)
    betti = [len(survivors[k]) - len(factors[k]) - len(factors[k + 1])
             for k in range(top + 1)]
    betti[0] += components
    torsion = [tuple(d for d in factors[k + 1] if d > 1) for k in range(top + 1)]
    euler = sum((-1) ** k * n for k, n in enumerate(counts))
    return HomologyReport(tuple(betti), tuple(torsion), euler)


def is_q_acyclic(complex: DualComplex) -> bool:
    """True iff every rational Betti number above degree zero vanishes."""
    report = homology(complex)
    return all(b == 0 for b in report.betti[1:])


def remove_open_star(complex: DualComplex, cell_id: str) -> DualComplex:
    """Drop the named cell and every cell whose closure contains it.

    A cell's closure contains the target exactly when the cell is reached
    from the target by going up through cofacets, so one upward search
    finds them all.  Valid input gives valid output: what is kept is closed
    under facets.
    """
    if cell_id not in complex:
        raise KeyError(f"unknown cell id {cell_id!r}")
    cofacets = {}
    for cell in complex.cells.values():
        for fid in cell.facets:
            cofacets.setdefault(fid, []).append(cell.id)
    removed = {cell_id}
    stack = [cell_id]
    while stack:
        for cid in cofacets.get(stack.pop(), ()):
            if cid not in removed:
                removed.add(cid)
                stack.append(cid)
    rest = DualComplex(c for c in complex.cells.values() if c.id not in removed)
    return _known_valid(rest) if complex._violations == () else rest


# --------------------------------------------------------------------------
# Serialization
# --------------------------------------------------------------------------

def to_json_obj(complex: DualComplex) -> dict:
    cells = []
    for cell in complex.cells.values():
        entry = {"id": cell.id, "dim": cell.dim, "facets": list(cell.facets)}
        if cell.label is not None:
            entry["label"] = sorted(cell.label)
        cells.append(entry)
    return {"cells": cells}


def from_json_obj(obj: dict) -> DualComplex:
    """Parse a complex document; an ill-shaped one, or a cell out of form, raises ValueError."""
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise ValueError("complex document needs a 'cells' array")
    cells = []
    for entry in obj["cells"]:
        if not isinstance(entry, dict) or "id" not in entry or "dim" not in entry:
            raise ValueError(f"a cell must be an object with 'id' and 'dim', got {entry!r}")
        cid, facets, label = entry["id"], entry.get("facets", ()), entry.get("label")
        if not isinstance(facets, (list, tuple)) or not isinstance(label, (list, type(None))):
            raise ValueError(f"cell {cid!r}: 'facets' and 'label' must be arrays")
        cells.append(cell := Cell.of(cid, entry["dim"], facets, label))
        if label is not None and len(cell.label) != len(label):
            raise ValueError(f"cell {cid!r}: 'label' repeats a label, got {label!r}")
    return DualComplex(cells)


def canonical_json(complex: DualComplex) -> str:
    return json.dumps(to_json_obj(complex), sort_keys=True, separators=(",", ":"))


def to_dot(complex: DualComplex) -> str:
    """DOT rendering of the 1-skeleton (vertices and edges only); each id
    and label is a quoted string with its ``\\`` and ``"`` escaped."""
    lines = ["graph skeleton {"]
    for cell in complex.cells_of_dim(0):
        label = ",".join(sorted(cell.label)) if cell.label else cell.id
        lines.append(f"  {_dot_str(cell.id)} [label={_dot_str(label)}];")
    for cell in complex.cells_of_dim(1):
        a, b = cell.facets
        lines.append(f"  {_dot_str(a)} -- {_dot_str(b)} [label={_dot_str(cell.id)}];")
    lines.append("}")
    return "\n".join(lines)


def _dot_str(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
