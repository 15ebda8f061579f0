"""Local chart descriptors and the blow-up rewriting rules.

A chart descriptor records one local normal form

    prod_{i in I} x_i  =  t * det(y_rs : m x m) * prod_j z_j^{a_j}

by its x-index set I, its determinant size m, and its divisor exponent map
{j: a_j}.  ``m = 1`` stands for a single degree-one factor y, ``m = 0``
for no factor at all.  The rewriting rules replace a descriptor by the
descriptors of the charts covering one blow-up; each rule strictly lowers
the invariant ``mdeg = (|I|, m, sum a_j)`` in lexicographic order, which
is what terminates the whole rewriting process.  ``RULES`` holds one
record per rule with everything the engine, the exact verifier and the
command line need to know about it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import NamedTuple

from .poly_oracle import Polynomial, ScaleError, generic_det, prime

# Caps for building exact local equations.
EQUATION_MAX_DET = 3
EQUATION_MAX_TOTAL_DEGREE = 24


class RulePreconditionError(ValueError):
    """A rewriting rule was applied to a chart outside its precondition."""


class MultiDegree(NamedTuple):
    """The chart invariant (deg_x, deg_y, deg_z); compares lexicographically."""

    dx: int
    dy: int
    dz: int


_DIVISOR_ID = itemgetter(0)


@dataclass(frozen=True)
class ChartState:
    """One local normal form, up to permutation of coordinates within a group.

    ``deg`` is the invariant ``mdeg`` and ``_hash`` the hash, both computed
    once when the chart is built: charts carrying hundreds of divisors sit
    in many sets and dicts.
    """

    x_indices: frozenset
    det_size: int
    exponents: tuple  # sorted tuple of (divisor id, exponent >= 1)
    deg: MultiDegree = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.x_indices:
            raise ValueError("a chart needs at least one x-factor")
        if self.det_size < 0:
            raise ValueError("determinant size must be >= 0")
        dz = 0
        for div, a in self.exponents:
            if a < 1:
                raise ValueError(f"divisor {div!r} carries exponent {a} < 1")
            dz += a
        object.__setattr__(self, "deg", MultiDegree(len(self.x_indices), self.det_size, dz))
        object.__setattr__(self, "_hash", hash((self.x_indices, self.det_size,
                                                self.exponents)))

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(x_indices, det_size, exponents=None) -> "ChartState":
        items = exponents.items() if isinstance(exponents, dict) else (exponents or ())
        return ChartState(frozenset(x_indices), det_size,
                          tuple(sorted((str(d), int(a)) for d, a in items)))

    def _derive(self, x_indices, det_size, drop=None, add=None) -> "ChartState":
        """A chart with this one's exponents, minus divisor ``drop`` and
        with ``add = (id, exponent)`` inserted in order (replacing the
        exponent of an id already present).

        The exponent tuple is already sorted, so this costs two slices
        rather than a sort; the constructor's checks still run.
        """
        exps = self.exponents
        if drop is not None:
            pos = bisect_left(exps, drop, key=_DIVISOR_ID)
            if pos < len(exps) and exps[pos][0] == drop:
                exps = exps[:pos] + exps[pos + 1:]
        if add is not None:
            pos = bisect_left(exps, add[0], key=_DIVISOR_ID)
            end = pos + 1 if pos < len(exps) and exps[pos][0] == add[0] else pos
            exps = exps[:pos] + (add,) + exps[end:]
        return ChartState(x_indices, det_size, exps)

    def exponent_map(self) -> dict:
        return dict(self.exponents)

    def sort_key(self):
        return (tuple(sorted(self.x_indices)), self.det_size, self.exponents)

    def __repr__(self):
        xs = ",".join(sorted(self.x_indices))
        zs = ",".join(f"{d}^{a}" for d, a in self.exponents)
        return f"Chart[x:{xs}|m:{self.det_size}|z:{zs}]"


@dataclass(frozen=True)
class RuleApplication:
    """A rewriting rule with its index data.

    kind is one of DET, MON1, MON2, MON3, BIN.  ``pair`` holds the two
    x-indices being separated (a single index for BIN), ``divisors`` the
    divisor ids consumed by the monomial rules, ``det_size`` the
    determinant size targeted by DET, and ``new_divisor`` the id and
    coefficient of the freshly created divisor when one is registered.
    """

    kind: str
    pair: tuple
    divisors: tuple = ()
    det_size: int | None = None
    new_divisor: tuple | None = None


class ChildChart(NamedTuple):
    """A representative child descriptor plus its chart-family size."""

    state: ChartState
    multiplicity: int
    family: str


def chart_to_obj(chart: ChartState) -> dict:
    return {"x": sorted(chart.x_indices), "m": chart.det_size,
            "a": {d: a for d, a in chart.exponents}}


def chart_from_obj(obj: dict) -> ChartState:
    """Parse a chart document; an ill-typed field raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"a chart must be an object, got {obj!r}")
    xs, m, exps = obj.get("x"), obj.get("m"), obj.get("a", {})
    if not isinstance(xs, list) or not all(isinstance(i, str) for i in xs):
        raise ValueError(f"chart 'x' must be a list of ids, got {xs!r}")
    if type(m) is not int:
        raise ValueError(f"chart 'm' must be an integer, got {m!r}")
    if not isinstance(exps, dict) or any(type(a) is not int for a in exps.values()):
        raise ValueError(f"chart 'a' must map divisor ids to integers, got {exps!r}")
    return ChartState.of(xs, m, exps)


def mdeg(chart: ChartState) -> MultiDegree:
    """The termination invariant (|I|, m, sum of divisor exponents)."""
    return chart.deg


def is_resolved(chart: ChartState) -> bool:
    """Smooth iff only one x-factor, or no factor at all on the right."""
    d = chart.deg
    return d.dx == 1 or (d.dy == 0 and d.dz == 0)


# Variable naming for exact local equations.

def x_var(index) -> str:
    return f"x_{index}"


def y_var(r: int, s: int, m: int) -> str:
    return "y" if m == 1 else f"y{r}{s}"


def z_var(divisor) -> str:
    return f"z_{divisor}"


# Generic determinants by size, built once: Polynomial is immutable, and
# EQUATION_MAX_DET keeps this to the sizes 2 and 3.
_GENERIC_DETS = {}


def _generic_det(m: int) -> Polynomial:
    det = _GENERIC_DETS.get(m)
    if det is None:
        det = _GENERIC_DETS[m] = generic_det(m, name=lambda r, s: y_var(r, s, m))
    return det


def local_equation(chart: ChartState) -> Polynomial:
    """The exact polynomial  prod x_i - t * det(y) * prod z_j^{a_j}."""
    if chart.det_size > EQUATION_MAX_DET:
        raise ScaleError(
            f"local equations cap det size at {EQUATION_MAX_DET} (got {chart.det_size})")
    d = mdeg(chart)
    if d.dx + d.dy + d.dz + 1 > EQUATION_MAX_TOTAL_DEGREE:
        raise ScaleError("local equation exceeds the total-degree cap")
    lhs = Polynomial.constant(1)
    for i in sorted(chart.x_indices):
        lhs = lhs * Polynomial.variable(x_var(i))
    rhs = Polynomial.variable("t")
    if chart.det_size == 1:
        rhs = rhs * Polynomial.variable("y")
    elif chart.det_size >= 2:
        rhs = rhs * _generic_det(chart.det_size)
    for div, a in chart.exponents:
        rhs = rhs * Polynomial.variable(z_var(div)) ** a
    return lhs - rhs


def snc_certificate(chart: ChartState) -> tuple[Polynomial, Polynomial]:
    """Witness that a single-x-factor chart is a normal crossing form.

    Returns (x', reduced) where x' = x_1 + t*(1 - det(y))*prod z^a is a
    coordinate rewrite and reduced = x' - t*prod z^a.  The chart's local
    equation equals ``reduced`` exactly, exhibiting the total space as
    smooth with normal crossing divisors x', z_j, t.
    """
    if len(chart.x_indices) != 1:
        raise ValueError("snc certificate applies to single-x-factor charts only")
    (i,) = chart.x_indices
    m = chart.det_size
    det = Polynomial.constant(1)
    if m == 1:
        det = Polynomial.variable("y")
    elif m >= 2:
        det = generic_det(m, name=lambda r, s: y_var(r, s, m))
    zmono = Polynomial.constant(1)
    for div, a in chart.exponents:
        zmono = zmono * Polynomial.variable(z_var(div)) ** a
    t = Polynomial.variable("t")
    x_new = Polynomial.variable(x_var(i)) + t * (Polynomial.constant(1) - det) * zmono
    return x_new, x_new - t * zmono


# The rule table: the engine, the exact verifier and the command line read
# every rule fact here, so adding a rule touches only this part of the module.

class VerifyChart(NamedTuple):
    """One blow-up chart of the ``children`` family ``family``: ``lead``
    becomes the exceptional coordinate and every ``scaled`` one its primed
    self times it.  The optional unit coordinate change ``post`` follows
    the strict transform; its images name the child's new coordinates."""

    lead: str
    scaled: tuple
    family: str
    detail: str
    post: dict | None = None


class Rule:
    """Everything known about one rewriting rule; ``kind`` and ``phase``
    name it in traces.  ``propose(chart, xs, pk, key)`` ranks it on a chart
    (``xs`` the x-indices in key order, ``pk`` the first two keys) and
    ``matches`` is its match test.  ``children`` raises RulePreconditionError
    outside the precondition; ``coefficient`` is that of the divisor it
    creates (0: none) and ``exceptional`` says whether an event names it.
    ``charts`` and ``notes`` serve the exact verifier; ``grid`` is (range
    "m", "a" or None, least value, charts(component ids, value)) for verify.
    """

    exceptional = True

    def coefficient(self, det_size, divisor_exponent, policy) -> int:
        return 0

    def notes(self, chart, policy, measured) -> list:
        return []


def _require(cond: bool, rule: str, message: str):
    if not cond:
        raise RulePreconditionError(f"{rule}: {message}")


def _pair(chart: ChartState, app: RuleApplication, kind: str):
    i1, i2 = app.pair
    _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
             kind, f"pair ({i1},{i2}) must be two distinct x-indices of the chart")


def _blowup(*center) -> list:
    """The charts of a blow-up whose center is given by its coordinates,
    as (coordinate, family, detail[, post]): each coordinate leads once and
    the others are scaled."""
    coords = [entry[0] for entry in center]
    return [VerifyChart(lead, tuple(c for c in coords if c != lead), family, detail, *post)
            for lead, family, detail, *post in center]


def _pair_center(app: RuleApplication) -> list:
    return [(x_var(i), "x", f"lead={i}") for i in app.pair]


def _pivot_elimination(m: int, r0: int, s0: int) -> dict:
    """After the y-chart with pivot (r0, s0) the pivot entry is the unit 1;
    y'_rs = y_ab + y'_r,s0 * y'_r0,s, with y_ab the entry of the child's
    matrix, shrinks the determinant by one."""
    var = Polynomial.variable
    rows = [r for r in range(1, m + 1) if r != r0]
    cols = [s for s in range(1, m + 1) if s != s0]
    return {prime(y_var(r, s, m)): var(y_var(a, b, m - 1))
            + var(prime(y_var(r, s0, m))) * var(prime(y_var(r0, s, m)))
            for a, r in enumerate(rows, start=1) for b, s in enumerate(cols, start=1)}


class _Det(Rule):
    """Shrink the determinant (phase A)."""

    kind, phase = "DET", "A-det"
    grid = ("m", 2, lambda comps, m: [ChartState.of(comps, m, {})])

    def propose(self, chart, xs, pk, key):
        return (0, -chart.det_size, pk, "DET", (xs[0], xs[1]), (), chart.det_size)

    def matches(self, chart, app):
        return set(app.pair) <= chart.x_indices and chart.det_size == app.det_size

    def children(self, chart, app, policy):
        m = chart.det_size
        _require(m >= 2, "DET", f"needs det size >= 2, chart has {m}")
        if app.det_size is not None:
            _require(app.det_size == m, "DET",
                     f"targets det size {app.det_size}, chart has {m}")
        _pair(chart, app, "DET")
        e = exceptional_coefficient("DET", det_size=m, policy=policy)
        extra = None
        if e > 0:
            _require(app.new_divisor is not None, "DET",
                     "a new divisor id is required when the exceptional coefficient is positive")
            _require(app.new_divisor[1] == e, "DET",
                     f"new divisor coefficient {app.new_divisor[1]} != policy value {e}")
            extra = (app.new_divisor[0], e)
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, m, add=extra)
        y_child = chart._derive(chart.x_indices, m - 1, add=extra)
        return [ChildChart(x_child, 2, "x"), ChildChart(y_child, m * m, "y")]

    def coefficient(self, det_size, divisor_exponent, policy):
        m = det_size
        return (m - 2) if policy == "oracle" else (m * m - 2)

    def charts(self, chart, app):
        m = chart.det_size
        return _blowup(*_pair_center(app), *(
            (y_var(r, s, m), "y", f"pivot=({r},{s})", _pivot_elimination(m, r, s))
            for r in range(1, m + 1) for s in range(1, m + 1)))

    def notes(self, chart, policy, measured):
        m = chart.det_size
        e = self.coefficient(m, None, policy)
        notes = [f"measured exceptional exponent {measured} for m={m}; policy "
                 f"'{policy}' assigns {e} (candidates: m-2 = {m - 2}, "
                 f"m^2-2 = {m * m - 2})"]
        if measured != [e]:
            notes.append(f"policy value {e} disagrees with the measured exponent {measured}")
        return notes


class _Mon1(Rule):
    """Lower a divisor exponent >= 2 (phase B1)."""

    kind, phase = "MON1", "B1"
    grid = ("a", 2, lambda comps, a: [ChartState.of(comps, 0, {"f1": a})])

    def propose(self, chart, xs, pk, key):
        neg_a, kd, d = min((-a, key(d), d) for d, a in chart.exponents if a >= 2)
        return (1, neg_a, kd, pk, "MON1", (xs[0], xs[1]), (d,), None)

    def matches(self, chart, app):
        return set(app.pair) <= chart.x_indices and app.divisors[0] in chart.exponent_map()

    def children(self, chart, app, policy):
        (j1,) = app.divisors
        _pair(chart, app, "MON1")
        exps = chart.exponent_map()
        _require(j1 in exps, "MON1", f"divisor {j1!r} absent from the chart")
        a = exps[j1]
        _require(a >= 2, "MON1", f"divisor {j1!r} has exponent {a} < 2")
        e = a - 2
        extra = None
        if e > 0:
            _require(app.new_divisor is not None and app.new_divisor[1] == e, "MON1",
                     f"new divisor with coefficient {e} required")
            extra = (app.new_divisor[0], e)
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, chart.det_size, add=extra)
        z_child = chart._derive(chart.x_indices, chart.det_size, drop=j1, add=extra)
        return [ChildChart(x_child, 2, "x"), ChildChart(z_child, 1, "z")]

    def coefficient(self, det_size, divisor_exponent, policy):
        return divisor_exponent - 2

    def charts(self, chart, app):
        return _blowup(*_pair_center(app),
                       *((z_var(j), "z", f"lead={j}") for j in app.divisors))


class _Mon2(Rule):
    """Separate two exponent-1 divisors (phase B2)."""

    kind, phase = "MON2", "B2"
    grid = (None, 0, lambda comps, _: [ChartState.of(comps, 0, {"f1": 1, "f2": 1})])
    charts = _Mon1.charts

    def propose(self, chart, xs, pk, key):
        # Every exponent is 1 here.
        j1, j2 = sorted((d for d, _ in chart.exponents), key=key)[:2]
        return (2, key(j1), key(j2), pk, "MON2", (xs[0], xs[1]), (j1, j2), None)

    def matches(self, chart, app):
        return (set(app.pair) <= chart.x_indices
                and all(j in chart.exponent_map() for j in app.divisors))

    def children(self, chart, app, policy):
        j1, j2 = app.divisors
        _pair(chart, app, "MON2")
        exps = chart.exponent_map()
        _require(j1 != j2 and exps.get(j1) == 1 and exps.get(j2) == 1, "MON2",
                 f"divisors ({j1!r},{j2!r}) must both carry exponent 1")
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, chart.det_size)
        z_child = chart._derive(chart.x_indices, chart.det_size, drop=min(j1, j2))
        return [ChildChart(x_child, 2, "x"), ChildChart(z_child, 2, "z")]


class _Mon3(Rule):
    """Separate the y-factor from a single exponent-1 divisor (phase B3)."""

    kind, phase = "MON3", "B3"
    grid = (None, 0, lambda comps, _: [ChartState.of(comps, 1, {"f1": 1})])

    def propose(self, chart, xs, pk, key):
        ((j, _),) = chart.exponents
        return (3, key(j), pk, "MON3", (xs[0], xs[1]), (j,), None)

    def matches(self, chart, app):
        return (set(app.pair) <= chart.x_indices and chart.deg.dy == 1
                and list(chart.exponent_map()) == [app.divisors[0]] and chart.deg.dz == 1)

    def children(self, chart, app, policy):
        d = chart.deg
        _pair(chart, app, "MON3")
        _require(d.dy == 1 and d.dz == 1, "MON3",
                 f"needs (deg_y, deg_z) = (1, 1), chart has ({d.dy},{d.dz})")
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, 1)
        # Both single-factor children take the same form once the leftover
        # divisor coordinate is renamed into the y-slot.
        yz_child = ChartState(chart.x_indices, 1, ())
        return [ChildChart(x_child, 2, "x"), ChildChart(yz_child, 2, "yz")]

    def charts(self, chart, app):
        ((j1, _),) = chart.exponents
        return _blowup(*_pair_center(app), ("y", "yz", "lead=y"),
                       (z_var(j1), "yz", f"lead={j1}"))


class _Bin(Rule):
    """Split off the last degree-one factor (phase C)."""

    kind, phase = "BIN", "C-bin"
    grid = (None, 0, lambda comps, _: [ChartState.of(comps, 1, {}),
                                       ChartState.of(comps, 0, {"f1": 1})])
    exceptional = False

    def propose(self, chart, xs, pk, key):
        return (4, key(xs[0]), "BIN", (xs[0],), (), None)

    def matches(self, chart, app):
        d = chart.deg
        return (app.pair[0] in chart.x_indices and d.dx >= 2 and d.dy + d.dz == 1
                and not is_resolved(chart))

    def children(self, chart, app, policy):
        d = chart.deg
        (i1,) = app.pair
        _require(i1 in chart.x_indices, "BIN", f"{i1!r} is not an x-index of the chart")
        _require(d.dx >= 2, "BIN", "needs at least two x-factors")
        _require(d.dy + d.dz == 1, "BIN",
                 f"needs a single degree-one factor, chart has (dy,dz)=({d.dy},{d.dz})")
        factor_child = chart._derive(chart.x_indices - {i1}, chart.det_size)
        smooth_child = ChartState(chart.x_indices, 0, ())
        return [ChildChart(factor_child, 1, "factor"),
                ChildChart(smooth_child, 1, "smooth")]

    def charts(self, chart, app):
        (i1,) = app.pair
        single = "y" if chart.det_size == 1 else z_var(chart.exponents[0][0])
        return _blowup((x_var(i1), "factor", f"lead={i1}"),
                       (single, "smooth", f"lead={single}"))


RULES = {rule.kind: rule for rule in (_Det(), _Mon1(), _Mon2(), _Mon3(), _Bin())}


def propose(chart: ChartState, key) -> tuple:
    """The rank of the rule application that rewrites an unresolved chart:
    of the first rule in phase order whose precondition the chart meets.

    Ranks sort as the engine's center selection prefers: by phase, then by
    the phase's tie-break under the id ordering ``key``; each ends with the
    rule's (kind, pair, divisors, det_size).  The pair is the chart's first
    two x-indices in key order, since the least pair of a union of charts
    is the least of theirs; in B1 the divisor is the chart's best one and
    in B2 the divisors are its first two, for the same reason.
    """
    _, dy, dz = chart.deg
    if dy >= 2:
        kind = "DET"
    elif dz > len(chart.exponents):  # some exponent is >= 2
        kind = "MON1"
    elif dz >= 2:
        kind = "MON2"
    elif dy + dz == 2:
        kind = "MON3"
    else:
        kind = "BIN"
    xs = sorted(chart.x_indices, key=key)
    return RULES[kind].propose(chart, xs, (key(xs[0]), key(xs[1])), key)


def exceptional_coefficient(kind: str, *, det_size: int | None = None,
                            divisor_exponent: int | None = None,
                            policy: str = "oracle") -> int:
    """Coefficient of the new divisor created by one rule application.

    For DET the two candidate values differ: direct strict-transform
    division yields m - 2, while the alternate 'paper' policy uses
    m**2 - 2.  The monomial rule MON1 always yields a - 2; the remaining
    rules create no divisor with positive coefficient.
    """
    if policy not in ("oracle", "paper"):
        raise ValueError(f"unknown exponent policy {policy!r}")
    return RULES[kind].coefficient(det_size, divisor_exponent, policy)


def application(rank: tuple, chart: ChartState, policy: str,
                new_id: str | None) -> RuleApplication:
    """The application a rank from ``propose`` names, registering divisor
    ``new_id`` when its coefficient on ``chart``, a chart it rewrites, is
    positive."""
    app = RuleApplication(*rank[-4:])
    a = chart.exponent_map().get(app.divisors[0]) if app.divisors else None
    e = exceptional_coefficient(app.kind, det_size=chart.det_size,
                                divisor_exponent=a, policy=policy)
    return replace(app, new_divisor=(new_id, e)) if e > 0 else app


def children(chart: ChartState, app: RuleApplication,
             policy: str = "oracle") -> list[ChildChart]:
    """Representative child descriptors of one rule application.

    Chart families related by permuting the pair, the matrix entries, or
    the two consumed divisors are collapsed to a single representative
    whose family size is recorded as the multiplicity.  Each child's
    exponents are derived from the parent's sorted tuple, not re-sorted.
    """
    if app.kind not in RULES:
        raise RulePreconditionError(f"unknown rule kind {app.kind!r}")
    return RULES[app.kind].children(chart, app, policy)
