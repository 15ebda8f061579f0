"""Inputs of the benchmark workloads, built from the program's public API.

Everything here is deterministic: the only randomness is a ``random.Random``
seeded by the caller, and it only permutes or relabels inputs, so every
seed gives the same amount of work.
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
FROZEN_PATH = os.path.join(HERE, "frozen.json")

# resolve-large: the two named engine seeds.
GERM_N = 7
DOUBLE_POINT_CORANK = 40

# resolve-batch: the acceptance suite's fixed-seed random states.
BATCH_SEEDS = 200
BATCH_POLICIES = ("oracle", "paper")
BATCH_CEILING = 10_000

# homology: germ size, blow-up chain pattern and the torsion complex.
HOMOLOGY_GERM_N = 10
# Strata removed one after another, as positions into a seeded permutation
# of the components other than the apex.  None of them contains the apex,
# so every complex in the chain stays a cone on the apex: contractible.
CHAIN_PATTERN = ((0, 1, 2, 3, 4), (3, 4, 5, 6), (1, 7))
MOORE_CIRCLE = 4   # vertices on the circle a disk boundary wraps around
MOORE_RINGS = 3    # concentric vertex rings inside each disk

VERIFY_POLICIES = ("oracle", "paper")
VERIFY_RULES = ("det", "mon1", "mon2", "mon3", "bin")


def load_frozen() -> dict:
    with open(FROZEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


# --------------------------------------------------------------------------
# resolve-large
# --------------------------------------------------------------------------

def germ_seed_doc(sm, n: int = GERM_N) -> dict:
    """``coordinate_germ(n)`` with corank min(3, |J|-1) on every deep stratum."""
    germ = sm.coordinate_germ(n)
    coranks = {s.id: min(3, len(s.indices) - 1)
               for s in germ.strata if len(s.indices) >= 2}
    return {"snc": sm.to_json_obj(germ), "coranks": coranks}


def double_point_doc(sm, corank: int = DOUBLE_POINT_CORANK) -> dict:
    """Two components meeting in one stratum of the given corank."""
    snc = sm.from_index_sets(["E1", "E2"], [{"E1", "E2"}])
    return {"snc": sm.to_json_obj(snc), "coranks": {"E1+E2": corank}}


def large_seed_docs(sm) -> dict:
    return {"germ": germ_seed_doc(sm), "double_point": double_point_doc(sm)}


# --------------------------------------------------------------------------
# resolve-batch
# --------------------------------------------------------------------------

def batch_order(seed: int) -> list:
    """The fixed (state seed, policy) runs, rotated by the workload seed."""
    offset = seed % BATCH_SEEDS
    seeds = list(range(offset, BATCH_SEEDS)) + list(range(offset))
    return [(s, p) for s in seeds for p in BATCH_POLICIES]


def trace_bytes(trace_doc: dict) -> bytes:
    """Trace serialization exactly as ``sncresolve resolve --trace`` writes it."""
    return (json.dumps(trace_doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


# --------------------------------------------------------------------------
# homology
# --------------------------------------------------------------------------

def chain_centers(rng, n: int = HOMOLOGY_GERM_N) -> list:
    """Stratum ids of the blow-up chain on ``coordinate_germ(n)``.

    The seed permutes the components, so every seed yields an isomorphic
    chain (the same work) under different labels and cell orderings.
    """
    comps = [f"E{i}" for i in range(1, n + 1)]
    rng.shuffle(comps)
    others = comps[1:]  # comps[0] is the apex
    return ["+".join(sorted(others[p] for p in pattern)) for pattern in CHAIN_PATTERN]


def moore_simplices(degree: int, circle: int, rings: int, prefix: str) -> set:
    """Vertex tuples of a simplicial Moore space M(Z/degree, 1).

    A triangulated disk (``rings`` concentric rings of ``degree * circle``
    vertices around the centre ``o``) whose boundary ring is glued onto a
    circle of ``circle`` vertices, wrapping ``degree`` times.  Hand-derived
    homology: H_0 = Z, H_1 = Z/degree, H_2 = 0.  Every vertex except the
    centre carries ``prefix``.
    """
    if circle < 3:
        raise ValueError("the circle needs at least 3 vertices to stay simplicial")
    width = degree * circle
    ring = [[f"{prefix}c{i % circle:03d}" for i in range(width)]]
    ring += [[f"{prefix}r{level}.{i:03d}" for i in range(width)]
             for level in range(1, rings + 1)]
    triangles = []
    for level in range(rings):
        outer, inner = ring[level], ring[level + 1]
        for i in range(width):
            j = (i + 1) % width
            triangles.append((outer[i], outer[j], inner[i]))
            triangles.append((outer[j], inner[i], inner[j]))
    triangles += [(ring[-1][i], ring[-1][(i + 1) % width], "o") for i in range(width)]
    simplices = set()
    for tri in triangles:
        tri = tuple(sorted(tri))
        simplices.add(tri)
        for drop in range(3):
            edge = tri[:drop] + tri[drop + 1:]
            simplices.add(edge)
            simplices.update((v,) for v in edge)
    return simplices


def torsion_complex(dc):
    """The wedge M(Z/2, 1) v M(Z/3, 1), joined at the shared centre ``o``.

    Hand-derived homology: Betti (1, 0, 0) and H_1 = Z/2 + Z/3 = Z/6, so
    the torsion is ((), (6,), ()).  The two coprime orders make the Smith
    normal form combine invariant factors 2 and 3, which needs its
    divisibility fix-up.  Facet i of a simplex drops its i-th vertex in
    sorted order, so boundary signs are the standard ones.
    """
    simplices = (moore_simplices(2, MOORE_CIRCLE, MOORE_RINGS, "a")
                 | moore_simplices(3, MOORE_CIRCLE, MOORE_RINGS, "b"))
    cells = []
    for simplex in sorted(simplices, key=lambda s: (len(s), s)):
        facets = ["|".join(simplex[:i] + simplex[i + 1:])
                  for i in range(len(simplex))] if len(simplex) > 1 else []
        cells.append(dc.Cell.of("|".join(simplex), len(simplex) - 1, facets))
    return dc.DualComplex(cells)


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def shape_instance(cc, shape: dict):
    """The (RuleApplication, ChartState) of one frozen verify shape.

    Canonical names: x-indices E1..E<dx>, the pair (E1, E2), consumed
    divisors f1, f2, the remaining divisors g1, g2, ..., and the new
    exceptional divisor w, as in the CLI's verify grids.
    """
    kind, policy, m = shape["rule"], shape["policy"], shape["m"]
    xs = [f"E{i}" for i in range(1, shape["dx"] + 1)]
    consumed = {f"f{i}": a for i, a in enumerate(shape["consumed"], start=1)}
    rest = {f"g{i}": a for i, a in enumerate(shape["rest"], start=1)}
    chart = cc.ChartState.of(xs, m, {**consumed, **rest})
    if kind == "BIN":
        return cc.RuleApplication("BIN", ("E1",)), chart
    e = 0
    if kind == "DET":
        e = cc.exceptional_coefficient("DET", det_size=m, policy=policy)
    elif kind == "MON1":
        e = cc.exceptional_coefficient("MON1", divisor_exponent=shape["consumed"][0],
                                       policy=policy)
    app = cc.RuleApplication(kind, ("E1", "E2"), divisors=tuple(consumed),
                             det_size=m if kind == "DET" else None,
                             new_divisor=("w", e) if e > 0 else None)
    return app, chart
