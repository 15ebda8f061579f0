"""Incidence models of simple normal crossing varieties.

A variety is recorded purely combinatorially: a set of component ids and a
family of strata, each an irreducible piece of an intersection of
components.  A stratum over index set J designates, for every j in J, the
unique stratum over J minus {j} containing it; that designation is exactly
the attaching data of the dual complex.

``validate_snc`` checks a variety once and keeps the answer on it.  A
one-pass proof comes first (index sets read as bit masks over the
components); only a variety that it cannot prove valid runs the checks
that name each violation, in their fixed order.  The complex
``dual_complex_of`` builds, and the stratum ``blowup_center`` of a variety
known to be valid, are valid by construction and never checked.
A dual cell depends only on its stratum, so each stratum builds its cell
once, in the first ``dual_complex_of`` of a valid variety holding it, and
keeps it (a private field that takes no part in equality, hashing or
``repr``).  A stratum blow-up keeps the other strata as they are, so its
complex shares their cells instead of building them again.

Records known to be in form skip their constructor's checks (``_fill``):
the cells of ``dual_complex_of``, the strata of ``from_index_sets``, and
those of ``from_json_obj`` once C-level passes over the document, a part at
a time, found every id, index and parent key and value a str and no index
repeated.
Otherwise each entry goes through ``Stratum.of`` in turn, so the error
names the first entry out of form.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import attrgetter, itemgetter

from .dual_complex import Cell, DualComplex, _Record, _STR, _id, _known_valid, _out_of_form, _set


class IncidenceError(ValueError):
    """The stratum family violates the incidence axioms."""


class Stratum(_Record):
    """Built only in form (ValueError otherwise): a str id, a frozenset of str
    indices and a tuple of (str, str) parent pairs, one per index, sorted."""

    _fields = ("id", "indices", "parents")
    __slots__ = _fields + ("_cell",)

    def __init__(self, id: str, indices: frozenset, parents: tuple = ()):
        if not (type(id) is str and type(indices) is frozenset
                and _STR.issuperset(map(type, indices)) and type(parents) is tuple
                and all(type(p) is tuple and len(p) == 2 and type(p[0]) is str
                        and type(p[1]) is str for p in parents)
                and all(p[0] < q[0] for p, q in zip(parents, parents[1:]))):
            raise _out_of_form("stratum", "a str id, a frozenset of str indices and (str, str) "
                               "parent pairs, one per index, sorted", id, indices, parents)
        self._fill(id, indices, parents)

    def _fill(self, id, indices, parents) -> "Stratum":
        """Set the fields; ``object.__new__(Stratum)._fill`` skips the checks."""
        _set(self, "id", id)
        _set(self, "indices", indices)
        _set(self, "parents", parents)  # (dropped component id, stratum id) pairs
        _set(self, "_cell", None)  # the dual cell, built once
        return self

    @staticmethod
    def of(id, indices, parents=None) -> "Stratum":
        """From iterables of indices and parent pairs (or a map); a str is one id."""
        try:
            if str in (type(indices), type(parents)):
                raise TypeError
            pairs = parents.items() if isinstance(parents, dict) else map(tuple, parents or ())
            return Stratum(id, frozenset(indices), tuple(sorted(pairs)))
        except TypeError:
            raise _out_of_form("stratum", "iterables of str indices and parent pairs",
                               id, indices, parents) from None

    def parent_map(self) -> dict:
        return dict(self.parents)


class SncVariety(_Record):
    """Built only in form (ValueError otherwise): a frozenset of str
    components and a tuple of ``Stratum`` records."""

    _fields = ("components", "strata")
    __slots__ = _fields + ("_violations",)

    def __init__(self, components: frozenset, strata: tuple):
        if not (type(components) is frozenset and _STR.issuperset(map(type, components))
                and type(strata) is tuple and {Stratum}.issuperset(map(type, strata))):
            # The strata are not shown: a variety may hold thousands.
            raise _out_of_form("variety", "a frozenset of str components and a tuple of strata",
                               components)
        _set(self, "components", components)
        _set(self, "strata", strata)  # ``of`` sorts them by id, the constructor does not
        _set(self, "_violations", None)  # ``validate_snc``'s answer, once known

    @staticmethod
    def of(components, strata) -> "SncVariety":
        """From any iterables of components and strata, sorted by id; coerces nothing."""
        try:
            if type(components) is str:
                raise TypeError
            return SncVariety(frozenset(components), tuple(sorted(strata, key=_id)))
        except (TypeError, AttributeError):
            raise _out_of_form("variety", "iterables of str components and of strata",
                               components) from None

    def stratum(self, stratum_id: str) -> Stratum:
        for s in self.strata:
            if s.id == stratum_id:
                return s
        raise KeyError(f"unknown stratum {stratum_id!r}")


def validate_snc(snc: SncVariety) -> list:
    """Human-readable violations of the incidence axioms; empty means valid.

    The checks run once per variety; every call returns a new list.
    """
    if snc._violations is None:
        _set(snc, "_violations", tuple(_find_violations(snc)))
    return list(snc._violations)


_MASK_WIDTH = 1024  # past this many components a mask could outweigh a stratum's frozenset


def _proved_valid(snc: SncVariety) -> bool:
    """True only if ``snc`` has no violation; False leaves it to the checks.

    Index sets are read as bit masks over the components.  Ids and masks are
    unique, none is 0 and each component has its singleton.  Each pair
    (j, pid) must give pid the stratum's mask less j's bit; no singleton can
    have such a pair and dropped ids are distinct, so the count makes them
    one per index of each deeper stratum.  Both descents of {i, j} then
    reach the one stratum over J - {i, j}: the parents are coherent.
    """
    strata, components = snc.strata, snc.components
    index_sets = list(map(attrgetter("indices"), strata))
    if len(components) > _MASK_WIDTH or not components.issuperset(
            chain.from_iterable(index_sets)):
        return False
    bit = {c: 1 << k for k, c in enumerate(components)}
    masks = [sum(map(bit.__getitem__, indices)) for indices in index_sets]
    mask_of, distinct = dict(zip(map(_id, strata), masks)), set(masks)
    parents = list(map(attrgetter("parents"), strata))
    if not (len(mask_of) == len(distinct) == len(strata) and 0 not in distinct
            and distinct.issuperset(bit.values())
            and sum(map(len, parents)) == sum(map(len, index_sets)) - len(components)):
        return False
    get, bit_of = mask_of.get, bit.get
    for mask, pairs in zip(masks, parents):
        for j, pid in pairs:
            if not get(pid) == mask ^ bit_of(j, 0) < mask:  # j's bit is set in mask
                return False
    return True


def _find_violations(snc: SncVariety) -> list:
    if _proved_valid(snc):
        return []
    out = []
    by_id = {}
    for s in snc.strata:
        if s.id in by_id:
            out.append(f"duplicate stratum id {s.id!r}")
        by_id[s.id] = s
        if not s.indices:
            out.append(f"stratum {s.id!r} has an empty index set")
        if not s.indices <= snc.components:
            unknown = s.indices - snc.components
            out.append(f"stratum {s.id!r} mentions unknown components {sorted(unknown)}")

    singletons = {next(iter(s.indices)) for s in snc.strata if len(s.indices) == 1}
    for comp in sorted(snc.components - singletons):
        out.append(f"component {comp!r} has no singleton stratum")

    for s in snc.strata:
        if len(s.indices) < 2:
            if s.parents:
                out.append(f"stratum {s.id!r}: a singleton stratum has no parents")
            continue
        if {j for j, _ in s.parents} != s.indices:  # the dropped ids are distinct
            out.append(f"stratum {s.id!r}: parents must be designated for "
                       f"exactly the indices {sorted(s.indices)}")
            continue
        for j, pid in s.parents:
            parent = by_id.get(pid)
            if parent is None:
                out.append(f"stratum {s.id!r}: parent {pid!r} does not exist")
            # j is in s.indices, so these three say parent.indices == s.indices - {j}.
            elif not (len(parent.indices) == len(s.indices) - 1
                      and j not in parent.indices and parent.indices < s.indices):
                out.append(f"stratum {s.id!r}: parent over {j!r} has index set "
                           f"{sorted(parent.indices)}, expected {sorted(s.indices - {j})}")

    # Two-step coherence: dropping j then i must reach the same stratum as
    # dropping i then j.  This is what makes the dual complex attach
    # consistently.  Each stratum reads its own parent map, but a repeated
    # id's parent lookups see its last record.
    maps = [s.parent_map() for s in snc.strata]
    parent_maps = {s.id: m for s, m in zip(snc.strata, maps)}
    for s, parents in zip(snc.strata, maps):
        if len(s.indices) < 3:
            continue
        ordered = sorted(s.indices)
        for pos, i in enumerate(ordered):
            pi = parent_maps.get(parents.get(i, ""))
            if pi is None:
                continue
            for j in ordered[pos + 1:]:
                pj = parent_maps.get(parents.get(j, ""))
                if pj is None:
                    continue
                via_i, via_j = pi.get(j), pj.get(i)
                if via_i != via_j:
                    out.append(
                        f"stratum {s.id!r}: incoherent parents, dropping "
                        f"{i!r} then {j!r} reaches {via_i!r} but {j!r} then "
                        f"{i!r} reaches {via_j!r}")
    return out


def dual_complex_of(snc: SncVariety) -> DualComplex:
    """One (|J|-1)-cell per stratum; facet i drops the i-th smallest index.

    The facets are the ids of the sorted parent pairs, whose dropped indices
    validation proved are exactly the stratum's.  Valid by construction:
    incidence validity gives every Delta-complex check.  Each stratum builds
    its cell on the first call and keeps it, so a later call, or the complex
    of a blow-up, reuses it.  An invalid variety raises before any cell is built.
    """
    violations = validate_snc(snc)
    if violations:
        raise IncidenceError("; ".join(violations))
    cells = []
    for s in snc.strata:
        if s._cell is None:
            facets = tuple([pid for _, pid in s.parents])
            cell = object.__new__(Cell)._fill(s.id, len(s.indices) - 1, facets, s.indices)
            _set(s, "_cell", cell)
        cells.append(s._cell)
    return _known_valid(DualComplex(cells))


# --------------------------------------------------------------------------
# Blow-up centers
# --------------------------------------------------------------------------

class CenterDescriptor(_Record):
    """A blow-up center: either a stratum, or a subvariety of one.

    Non-stratum centers carry a caller-asserted ``transversal`` flag; the
    incidence model has no geometry with which to check transversality
    itself, so the flag is an input assertion that ``check_center``
    records as an assumption.
    """

    __slots__ = _fields = ("kind", "stratum_id", "host_stratum", "codim_in_host", "transversal")

    def __init__(self, kind: str, stratum_id: str | None = None, host_stratum: str | None = None,
                 codim_in_host: int | None = None, transversal: bool = False):
        if kind not in ("stratum", "nonstratum"):
            raise ValueError(f"unknown center kind {kind!r}")
        if kind == "stratum" and not stratum_id:
            raise ValueError("stratum center needs a stratum id")
        if kind == "nonstratum":
            if not host_stratum:
                raise ValueError("nonstratum center needs a host stratum")
            if codim_in_host is None or codim_in_host < 1:
                raise ValueError("nonstratum center needs codimension >= 1 in its host")
        _set(self, "kind", kind)  # "stratum" | "nonstratum"
        _set(self, "stratum_id", stratum_id)  # for kind == "stratum"
        _set(self, "host_stratum", host_stratum)  # for kind == "nonstratum"
        _set(self, "codim_in_host", codim_in_host)
        _set(self, "transversal", transversal)


class CenterCheck(_Record):
    __slots__ = _fields = ("compatible", "kind", "reasons", "assumptions")

    def __init__(self, compatible: bool, kind: str, reasons: tuple = (), assumptions: tuple = ()):
        _set(self, "compatible", compatible)
        _set(self, "kind", kind)
        _set(self, "reasons", reasons)
        _set(self, "assumptions", assumptions)

    def __bool__(self):
        return self.compatible


def check_center(snc: SncVariety, center: CenterDescriptor) -> CenterCheck:
    """Decide whether a center is declared compatible with the configuration.

    Stratum centers are always compatible.  Non-stratum centers rely on
    the caller's transversality flag; when granted, the two geometric
    conditions that justify leaving the dual complex untouched are
    recorded as assumptions rather than verified.
    """
    if center.kind == "stratum":
        snc.stratum(center.stratum_id)  # raises KeyError when unknown
        return CenterCheck(True, "stratum")
    snc.stratum(center.host_stratum)
    if not center.transversal:
        return CenterCheck(
            False, "nonstratum",
            reasons=(
                "center not asserted transversal: its scheme-theoretic "
                "intersection with the configuration may be non-reduced "
                "(a diagonal line through three coordinate planes meets "
                "them in a non-reduced point)",
            ))
    return CenterCheck(
        True, "nonstratum",
        assumptions=(
            "scheme-theoretic intersection of the center with every "
            "stratum is smooth (asserted by caller, not computed)",
            "multiplicity of the configuration along the intersection "
            "equals the ambient multiplicity along the center "
            "(asserted by caller, not computed)",
        ))


def blowup_center(snc: SncVariety, center: CenterDescriptor):
    """Blow up a compatible center; returns (new variety, new dual complex).

    A stratum center deletes the stratum and everything it sits inside
    (open-star removal on the dual complex).  A compatible non-stratum
    center is a thrifty modification: both the variety's incidence data
    and its dual complex come back unchanged.  A stratum blow-up of a
    valid variety is valid: kept strata are closed under parents, so each
    kept index keeps its singleton stratum.
    """
    verdict = check_center(snc, center)
    if not verdict:
        raise ValueError("incompatible center: " + "; ".join(verdict.reasons))
    if center.kind == "nonstratum":
        return snc, dual_complex_of(snc)

    # A stratum sits inside the center exactly when it is reached from the
    # center by going down through children (the inverse of parents).
    children = {}
    for s in snc.strata:
        for _, pid in s.parents:
            children.setdefault(pid, []).append(s.id)
    removed = {center.stratum_id}
    stack = [center.stratum_id]
    while stack:
        for sid in children.get(stack.pop(), ()):
            if sid not in removed:
                removed.add(sid)
                stack.append(sid)
    kept = [s for s in snc.strata if s.id not in removed]
    kept_components = {next(iter(s.indices)) for s in kept if len(s.indices) == 1}
    new_snc = SncVariety.of(kept_components, kept)
    if snc._violations == ():
        _known_valid(new_snc)
    return new_snc, dual_complex_of(new_snc)


# --------------------------------------------------------------------------
# Builders and serialization
# --------------------------------------------------------------------------

def subset_id(indices) -> str:
    return "+".join(sorted(str(i) for i in indices))


def from_index_sets(components, index_sets) -> SncVariety:
    """Build a variety with one stratum per given index set.

    The family must be downward closed (every one-smaller subset of a
    given set must also be present); parents are then canonical.  If it is
    not, IncidenceError names the least missing set, as a sorted list.
    Two sets that ``subset_id`` names alike (a component id holding "+")
    raise a ValueError that names the least such id and its sets.
    """
    sets = {frozenset(str(i) for i in s) for s in index_sets}
    sets.update(frozenset([str(c)]) for c in components)
    ids = {indices: subset_id(indices) for indices in sets}
    if len(set(ids.values())) < len(ids):  # in a fixed order, whatever the order of the set
        named = {}
        for indices, sid in ids.items():
            named.setdefault(sid, []).append(sorted(indices))
        sid = min(sid for sid, shared in named.items() if len(shared) > 1)
        raise ValueError(f"index sets {' and '.join(map(str, sorted(named[sid])))} "
                         f"share the stratum id {sid!r}")
    strata = []
    try:
        for indices, sid in ids.items():
            parents = () if len(indices) < 2 else sorted(
                (j, ids[indices - {j}]) for j in indices)
            strata.append(object.__new__(Stratum)._fill(sid, indices, tuple(parents)))
    except KeyError:  # in a fixed order, whatever the order of the set
        smaller, indices = min((sorted(s - {j}), sorted(s)) for s in sets for j in s
                               if len(s) > 1 and s - {j} not in sets)
        raise IncidenceError(f"index family not downward closed: {smaller} "
                             f"missing below {indices}") from None
    return SncVariety.of({str(c) for c in components}, strata)


def coordinate_germ(n: int) -> SncVariety:
    """The germ of n coordinate hyperplanes E1..En: every subset is a stratum."""
    components = [f"E{i}" for i in range(1, n + 1)]
    subsets = []
    for mask in range(1, 1 << n):
        subsets.append({components[i] for i in range(n) if mask >> i & 1})
    return from_index_sets(components, subsets)


def to_json_obj(snc: SncVariety) -> dict:
    return {
        "components": sorted(snc.components),
        "strata": [
            {"id": s.id, "indices": sorted(s.indices),
             "parents": {j: p for j, p in s.parents}}
            for s in snc.strata
        ],
    }


_DICT, _LIST = frozenset((dict,)), frozenset((list,))
_PART = 1024  # entries per round of passes: a part's objects stay in the cache


def _strata_in_form(entries: list):
    """The strata of ``entries`` if each is an object with a str id, str indices
    that do not repeat, and str parent keys and values; else None.  Each check
    is one C-level pass over a part of the document.  An object may be a dict
    subclass, as ``from_json_obj``'s own loop allows."""
    strata = []
    for start in range(0, len(entries), _PART):
        part = entries[start:start + _PART]
        try:  # an entry that is not an object, or lacks "id" or "indices", raises
            ids = list(map(itemgetter("id"), part))
            index_lists = list(map(itemgetter("indices"), part))
            parent_maps = list(map(dict.get, part, repeat("parents"), repeat({})))
        except (KeyError, TypeError):
            return None
        strs = chain(ids, chain.from_iterable(index_lists), chain.from_iterable(parent_maps),
                     chain.from_iterable(map(dict.values, parent_maps)))
        if not (_LIST.issuperset(map(type, index_lists))
                and _DICT.issuperset(map(type, parent_maps)) and _STR.issuperset(map(type, strs))):
            return None
        index_sets = list(map(frozenset, index_lists))
        if sum(map(len, index_sets)) != sum(map(len, index_lists)):  # an index repeats
            return None
        strata += [object.__new__(Stratum)._fill(sid, indices, tuple(sorted(parents.items())))
                   for sid, indices, parents in zip(ids, index_sets, parent_maps)]
    return strata


def from_json_obj(obj: dict) -> SncVariety:
    """Parse a variety document; an ill-shaped one, or a record out of form, raises ValueError."""
    if not isinstance(obj, dict) or "components" not in obj or "strata" not in obj:
        raise ValueError("variety document needs 'components' and 'strata'")
    if not isinstance(obj["components"], list) or not isinstance(obj["strata"], list):
        raise ValueError("'components' and 'strata' must be arrays")
    strata = _strata_in_form(obj["strata"])
    if strata is None:  # some entry is out of form: name the first one
        strata = []
        for e in obj["strata"]:
            if not isinstance(e, dict) or "id" not in e or "indices" not in e:
                raise ValueError(f"a stratum must be an object with 'id' and 'indices', got {e!r}")
            sid, indices, parents = e["id"], e["indices"], e.get("parents", {})
            if not isinstance(indices, list) or not isinstance(parents, dict):
                raise ValueError(f"stratum {sid!r}: 'indices' must be an array "
                                 "and 'parents' an object")
            stratum = Stratum.of(sid, indices, parents)
            if len(stratum.indices) != len(indices):
                raise ValueError(f"stratum {sid!r}: 'indices' repeats an index, got {indices!r}")
            strata.append(stratum)
    snc = SncVariety.of(obj["components"], strata)
    if len(snc.components) != len(obj["components"]):
        raise ValueError(f"'components' repeats a component, got {obj['components']!r}")
    return snc
