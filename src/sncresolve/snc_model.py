"""Incidence models of simple normal crossing varieties.

A variety is recorded purely combinatorially: a set of component ids and a
family of strata, each an irreducible piece of an intersection of
components.  A stratum over index set J designates, for every j in J, the
unique stratum over J minus {j} containing it; that designation is exactly
the attaching data of the dual complex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dual_complex import Cell, DualComplex


class IncidenceError(ValueError):
    """The stratum family violates the incidence axioms."""


@dataclass(frozen=True)
class Stratum:
    id: str
    indices: frozenset
    parents: tuple = ()  # sorted tuple of (dropped component id, stratum id)

    @staticmethod
    def of(id, indices, parents=None) -> "Stratum":
        items = parents.items() if isinstance(parents, dict) else (parents or ())
        return Stratum(str(id), frozenset(str(i) for i in indices),
                       tuple(sorted((str(j), str(s)) for j, s in items)))

    def parent_map(self) -> dict:
        return dict(self.parents)


@dataclass(frozen=True)
class SncVariety:
    components: frozenset
    strata: tuple  # Stratum records, sorted by id

    @staticmethod
    def of(components, strata) -> "SncVariety":
        return SncVariety(frozenset(str(c) for c in components),
                          tuple(sorted(strata, key=lambda s: s.id)))

    def stratum(self, stratum_id: str) -> Stratum:
        for s in self.strata:
            if s.id == stratum_id:
                return s
        raise KeyError(f"unknown stratum {stratum_id!r}")


def validate_snc(snc: SncVariety) -> list:
    """Human-readable violations of the incidence axioms; empty means valid."""
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

    # Two-step coherence: dropping j then i must reach the same stratum as
    # dropping i then j.  This is what makes the dual complex attach
    # consistently.  Parent maps are built once and shared by all pairs.
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


def dual_complex_of(snc: SncVariety) -> DualComplex:
    """One (|J|-1)-cell per stratum; facet i drops the i-th smallest index."""
    violations = validate_snc(snc)
    if violations:
        raise IncidenceError("; ".join(violations))
    cells = []
    for s in snc.strata:
        ordered = sorted(s.indices)
        if len(ordered) == 1:
            cells.append(Cell.of(s.id, 0, (), s.indices))
        else:
            parents = s.parent_map()
            facets = tuple(parents[j] for j in ordered)
            cells.append(Cell.of(s.id, len(ordered) - 1, facets, s.indices))
    return DualComplex(cells)


# --------------------------------------------------------------------------
# Blow-up centers
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CenterDescriptor:
    """A blow-up center: either a stratum, or a subvariety of one.

    Non-stratum centers carry a caller-asserted ``transversal`` flag; the
    incidence model has no geometry with which to check transversality
    itself, so the flag is an input assertion that ``check_center``
    records as an assumption.
    """

    kind: str                       # "stratum" | "nonstratum"
    stratum_id: str | None = None   # for kind == "stratum"
    host_stratum: str | None = None  # for kind == "nonstratum"
    codim_in_host: int | None = None
    transversal: bool = False

    def __post_init__(self):
        if self.kind not in ("stratum", "nonstratum"):
            raise ValueError(f"unknown center kind {self.kind!r}")
        if self.kind == "stratum" and not self.stratum_id:
            raise ValueError("stratum center needs a stratum id")
        if self.kind == "nonstratum":
            if not self.host_stratum:
                raise ValueError("nonstratum center needs a host stratum")
            if self.codim_in_host is None or self.codim_in_host < 1:
                raise ValueError("nonstratum center needs codimension >= 1 in its host")


@dataclass(frozen=True)
class CenterCheck:
    compatible: bool
    kind: str
    reasons: tuple = ()
    assumptions: tuple = ()

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
    and its dual complex come back unchanged.
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
    return new_snc, dual_complex_of(new_snc)


# --------------------------------------------------------------------------
# Builders and serialization
# --------------------------------------------------------------------------

def subset_id(indices) -> str:
    return "+".join(sorted(str(i) for i in indices))


def from_index_sets(components, index_sets) -> SncVariety:
    """Build a variety with one stratum per given index set.

    The family must be downward closed (every one-smaller subset of a
    given set must also be present); parents are then canonical.
    """
    sets = {frozenset(str(i) for i in s) for s in index_sets}
    sets.update(frozenset([str(c)]) for c in components)
    strata = []
    for indices in sets:
        if len(indices) == 1:
            strata.append(Stratum.of(subset_id(indices), indices))
            continue
        parents = {}
        for j in indices:
            smaller = indices - {j}
            if smaller not in sets:
                raise IncidenceError(
                    f"index family not downward closed: {sorted(smaller)} "
                    f"missing below {sorted(indices)}")
            parents[j] = subset_id(smaller)
        strata.append(Stratum.of(subset_id(indices), indices, parents))
    return SncVariety.of({str(c) for c in components}, strata)


def coordinate_germ(n: int, prefix: str = "E") -> SncVariety:
    """The germ of n coordinate hyperplanes: every subset is a stratum."""
    components = [f"{prefix}{i}" for i in range(1, n + 1)]
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


def from_json_obj(obj: dict) -> SncVariety:
    """Parse a variety document; an ill-shaped one raises ValueError."""
    if not isinstance(obj, dict) or "components" not in obj or "strata" not in obj:
        raise ValueError("variety document needs 'components' and 'strata'")
    if not isinstance(obj["components"], list) or not isinstance(obj["strata"], list):
        raise ValueError("'components' and 'strata' must be arrays")
    strata = []
    for e in obj["strata"]:
        if not isinstance(e, dict) or "id" not in e or "indices" not in e:
            raise ValueError(f"a stratum must be an object with 'id' and 'indices', got {e!r}")
        parents = e.get("parents", {})
        if not isinstance(e["indices"], list) or not isinstance(parents, dict):
            raise ValueError(f"stratum {e['id']!r}: 'indices' must be an array "
                             "and 'parents' an object")
        strata.append(Stratum.of(e["id"], e["indices"], parents))
    return SncVariety.of(obj["components"], strata)
