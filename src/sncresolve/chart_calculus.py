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

import functools
from bisect import bisect_left
from operator import itemgetter
from types import MappingProxyType
from typing import NamedTuple

from . import poly_oracle as po
from .dual_complex import _Record, _out_of_form, _set
from .poly_oracle import Polynomial, ScaleError, generic_det, prime

# Local equations cap the total degree here and det size at the verifier's cap.
EQUATION_MAX_TOTAL_DEGREE = 24

# The exceptional-coefficient policies, which differ on the DET rule only.
POLICIES = ("oracle", "paper")


def check_policy(policy: str) -> str:
    """``policy`` itself; ValueError unless it is one of ``POLICIES``."""
    if policy not in POLICIES:
        raise ValueError(f"unknown exponent policy {policy!r}")
    return policy


class RulePreconditionError(ValueError):
    """A rewriting rule was applied to a chart outside its precondition."""


class MultiDegree(NamedTuple):
    """The chart invariant (deg_x, deg_y, deg_z); compares lexicographically."""

    dx: int
    dy: int
    dz: int


# A MultiDegree from a tuple in one C call: the generated __new__ of a
# NamedTuple is Python, and every chart makes one.
_degree = functools.partial(tuple.__new__, MultiDegree)


class ChartState(_Record):
    """One local normal form, up to permutation of coordinates within a group.

    Built only in form (ValueError otherwise): a non-empty frozenset of str
    x-indices, an int det size >= 0, and a tuple of (str id, int exponent
    >= 1) pairs with strictly increasing ids.  ``deg`` (the invariant
    ``mdeg``), ``xs`` (the sorted x-indices) and the hash are computed
    once, and equality compares the hashes before the fields: wide charts
    sit in many sets and dicts and are sorted and written often.
    """

    _fields = ("x_indices", "det_size", "exponents")
    __slots__ = _fields + ("deg", "xs", "_hash")

    def __init__(self, x_indices: frozenset, det_size: int, exponents: tuple):
        xs, m, exps = x_indices, det_size, exponents
        if not xs:
            raise ValueError("a chart needs at least one x-factor")
        if type(m) is int and m < 0:
            raise ValueError("determinant size must be >= 0")
        if not (type(xs) is frozenset and all(type(i) is str for i in xs)
                and type(m) is int and type(exps) is tuple):
            raise _out_of_form("chart", "a frozenset of str x-indices, an int det size "
                               "and a tuple of exponent pairs", xs, m, exps)
        dz = 0
        for i, pair in enumerate(exps):
            if not (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is str
                    and type(pair[1]) is int and (i == 0 or exps[i - 1][0] < pair[0])):
                raise ValueError(f"exponents are not (str, int) pairs with rising ids: {exps!r}")
            if pair[1] < 1:
                raise ValueError(f"divisor {pair[0]!r} carries exponent {pair[1]} < 1")
            dz += pair[1]
        self._fill(xs, m, exps, dz, tuple(sorted(xs)))

    def _fill(self, x_indices, det_size, exponents, dz: int, xs: tuple) -> "ChartState":
        """Set the fields of a chart in form: exponents sum to ``dz``, x-indices
        sort to ``xs``."""
        _set(self, "x_indices", x_indices)
        _set(self, "det_size", det_size)
        _set(self, "exponents", exponents)
        _set(self, "deg", _degree((len(x_indices), det_size, dz)))
        _set(self, "xs", xs)
        _set(self, "_hash", hash((x_indices, det_size, exponents)))
        return self

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not ChartState:
            return NotImplemented
        return (self._hash == other._hash and self.x_indices == other.x_indices
                and self.det_size == other.det_size and self.exponents == other.exponents)

    def __hash__(self):
        return self._hash

    @staticmethod
    def of(x_indices, det_size, exponents=None) -> "ChartState":
        """A chart from any iterable of x-indices and a map (or pairs) of
        divisor exponents, sorted here; nothing is coerced, so a field out
        of form raises ValueError as the constructor does."""
        items = exponents.items() if isinstance(exponents, dict) else (exponents or ())
        try:
            exps = tuple(sorted(items))
        except TypeError:
            raise ValueError(f"exponents are not (str, int) pairs: {exponents!r}") from None
        return ChartState(frozenset(x_indices), det_size, exps)

    def _derive(self, x_indices, det_size, drop=None, add=None) -> "ChartState":
        """A chart with this one's exponents, minus divisor ``drop`` (which it
        carries) and with ``add = (id, exponent)`` put in order (replacing the
        exponent of an id present).  This chart is in form, so two slices
        keep the order and the exponent sum carries over.  Only the added id
        is checked (ValueError unless a ``str``): the rules pass a non-empty
        subset of the x-indices, a det size >= 0 and an exponent >= 1.
        """
        exps, dz = self.exponents, self.deg.dz
        if drop is not None:
            pos = bisect_left(exps, (drop,))  # (id,) sorts just before (id, exponent)
            exps, dz = exps[:pos] + exps[pos + 1:], dz - exps[pos][1]
        if add is not None:
            if type(add[0]) is not str:
                raise ValueError(f"a new divisor id must be a str, got {add[0]!r}")
            pos = end = bisect_left(exps, add[:1])
            if pos < len(exps) and exps[pos][0] == add[0]:
                dz, end = dz - exps[pos][1], pos + 1
            exps, dz = exps[:pos] + (add,) + exps[end:], dz + add[1]
        xs = self.xs if x_indices is self.x_indices else tuple(sorted(x_indices))
        return object.__new__(ChartState)._fill(x_indices, det_size, exps, dz, xs)

    def _bare(self, det_size: int) -> "ChartState":
        """A chart on this one's x-indices with ``det_size`` (>= 0) and no divisor."""
        return object.__new__(ChartState)._fill(self.x_indices, det_size, (), 0, self.xs)

    def exponent_map(self) -> dict:
        return dict(self.exponents)

    def exponent(self, ident: str) -> int | None:
        """The exponent of divisor ``ident`` on this chart, None if it has none."""
        exps = self.exponents
        pos = bisect_left(exps, (ident,))
        return exps[pos][1] if pos < len(exps) and exps[pos][0] == ident else None

    def sort_key(self):
        return (self.xs, self.det_size, self.exponents)

    def __repr__(self):
        xs = ",".join(self.xs)
        zs = ",".join(f"{d}^{a}" for d, a in self.exponents)
        return f"Chart[x:{xs}|m:{self.det_size}|z:{zs}]"


class RuleApplication(_Record):
    """A rewriting rule with its index data.

    kind is one of DET, MON1, MON2, MON3, BIN.  ``pair`` holds the two
    x-indices being separated (a single index for BIN), ``divisors`` the
    divisor ids consumed by the monomial rules, ``det_size`` the
    determinant size targeted by DET, and ``new_divisor`` the id and
    coefficient of the freshly created divisor when one is registered.
    """

    __slots__ = _fields = ("kind", "pair", "divisors", "det_size", "new_divisor")

    def __init__(self, kind: str, pair: tuple, divisors: tuple = (), det_size: int | None = None,
                 new_divisor: tuple | None = None):
        _set(self, "kind", kind)
        _set(self, "pair", pair)
        _set(self, "divisors", divisors)
        _set(self, "det_size", det_size)
        _set(self, "new_divisor", new_divisor)


class ChildChart(NamedTuple):
    """A representative child descriptor plus its chart-family size."""

    state: ChartState
    multiplicity: int
    family: str


# A ChildChart in one C call, as ``_degree`` makes a MultiDegree.
_child = functools.partial(tuple.__new__, ChildChart)


def chart_to_obj(chart: ChartState) -> dict:
    return {"x": list(chart.xs), "m": chart.det_size,
            "a": {d: a for d, a in chart.exponents}}


def chart_from_obj(obj: dict) -> ChartState:
    """Parse a chart document; an ill-typed field raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"a chart must be an object, got {obj!r}")
    xs, exps = obj.get("x"), obj.get("a", {})
    if not isinstance(xs, list) or not all(isinstance(i, str) for i in xs):
        raise ValueError(f"chart 'x' must be a list of ids, got {xs!r}")
    if len(set(xs)) != len(xs):
        raise ValueError(f"chart 'x' repeats an id, got {xs!r}")
    if not isinstance(exps, dict):
        raise ValueError(f"chart 'a' must be an object, got {exps!r}")
    return ChartState.of(xs, obj.get("m"), exps)


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


@functools.cache
def _det_factor(m: int) -> Polynomial:
    """det(y) of an m x m block, built once (Polynomial is immutable): 1
    for m = 0, the variable y for m = 1."""
    return generic_det(m, name=lambda r, s: y_var(r, s, m))


def equation_parts(chart: ChartState) -> tuple[Polynomial, Polynomial, Polynomial]:
    """The parts (prod x_i, t * prod z_j^{a_j}, det(y)) of the chart's local
    equation  lhs - rhs * det:  two monomials, each built as one term, and
    the determinant factor.  ScaleError beyond the equation caps."""
    if chart.det_size > po.VERIFY_MAX_DET:
        raise ScaleError(
            f"local equations cap det size at {po.VERIFY_MAX_DET} (got {chart.det_size})")
    d = mdeg(chart)
    if d.dx + d.dy + d.dz + 1 > EQUATION_MAX_TOTAL_DEGREE:
        raise ScaleError("local equation exceeds the total-degree cap")
    lhs = Polynomial({tuple((x_var(i), 1) for i in chart.x_indices): 1})
    rhs = Polynomial({(("t", 1),) + tuple((z_var(d), a) for d, a in chart.exponents): 1})
    return lhs, rhs, _det_factor(chart.det_size)


def local_equation(chart: ChartState) -> Polynomial:
    """The exact polynomial  prod x_i - t * det(y) * prod z_j^{a_j}."""
    lhs, rhs, det = equation_parts(chart)
    return lhs - rhs * det


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
    det = _det_factor(chart.det_size)
    zmono = Polynomial({tuple((z_var(d), a) for d, a in chart.exponents): 1})
    t = Polynomial.variable("t")
    x_new = Polynomial.variable(x_var(i)) + t * (Polynomial.constant(1) - det) * zmono
    return x_new, x_new - t * zmono


# The rule table: the engine, the exact verifier and the command line read
# every rule fact here, so adding a rule touches only this part of the module.

class VerifyChart(NamedTuple):
    """One blow-up chart of the ``children`` family ``family``: ``lead``
    becomes the exceptional coordinate and every ``scaled`` one its primed
    self times it.  The optional unit coordinate change ``post`` follows
    the strict transform and carries the chart's one sign (a DET pivot's
    cofactor sign, as t -> -t); its images name the child's new
    coordinates, which ``kept`` holds."""

    lead: str
    scaled: tuple
    family: str
    detail: str
    post: MappingProxyType | None = None
    kept: frozenset = frozenset()


class Rule:
    """Everything known about one rewriting rule; ``kind`` and ``phase``
    name it in traces.  ``propose(chart, xs, pk, key)`` ranks it on a chart
    (``xs`` the x-indices in key order, ``pk`` the first two keys).
    ``children`` raises RulePreconditionError outside the precondition;
    ``coefficient`` is that of the divisor it creates (0: none) and
    ``exceptional`` says whether an event names it.
    ``charts`` and ``notes`` serve the exact verifier; ``grid`` is (range
    "m", "a" or None, least value, charts(component ids, value)) for verify.
    """

    exceptional = True

    def coefficient(self, det_size, divisor_exponent, policy) -> int:
        return 0

    def notes(self, chart, policy, measured) -> list:
        return []


def _require(cond: bool, rule: str, message: str, *args):
    """RulePreconditionError unless ``cond``; only then is ``message`` formatted with ``args``."""
    if not cond:
        raise RulePreconditionError(f"{rule}: " + (message.format(*args) if args else message))


def _pair(chart: ChartState, app: RuleApplication, kind: str):
    i1, i2 = app.pair
    _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
             kind, "pair ({},{}) must be two distinct x-indices of the chart", i1, i2)


def _blowup(*center) -> list:
    """The charts of a blow-up whose center is given by its coordinates,
    as (coordinate, family, detail[, post]): each coordinate leads once and
    the others are scaled."""
    coords = [entry[0] for entry in center]
    return [VerifyChart(lead, tuple(c for c in coords if c != lead), family, detail, *post)
            for lead, family, detail, *post in center]


def _pair_center(app: RuleApplication) -> list:
    return [(x_var(i), "x", f"lead={i}") for i in app.pair]


@functools.cache
def _pivot_elimination(m: int, r0: int, s0: int) -> tuple:
    """(post, kept), shared read-only: after the y-chart with pivot (r0, s0)
    the pivot entry is the unit 1; post, y'_rs = y_ab + y'_r,s0 * y'_r0,s
    with y_ab the entry of the child's matrix, shrinks the determinant by
    one, and kept holds the names its images introduce.  Moving the pivot
    to the corner multiplies det(y) by its cofactor sign (-1)^(r0+s0),
    which t -> -t absorbs when it is -1."""
    var = Polynomial.variable
    rows = [r for r in range(1, m + 1) if r != r0]
    cols = [s for s in range(1, m + 1) if s != s0]
    images = {
        prime(y_var(r, s, m)): var(y_var(a, b, m - 1))
            + var(prime(y_var(r, s0, m))) * var(prime(y_var(r0, s, m)))
        for a, r in enumerate(rows, start=1) for b, s in enumerate(cols, start=1)}
    if (r0 + s0) % 2:
        images["t"] = -var("t")
    return (MappingProxyType(images),
            frozenset().union(*(p.variables() for p in images.values())))


class _Det(Rule):
    """Shrink the determinant (phase A)."""

    kind, phase = "DET", "A-det"
    grid = ("m", 2, lambda comps, m: [ChartState.of(comps, m, {})])

    def propose(self, chart, xs, pk, key):
        return (0, -chart.det_size, pk, "DET", (xs[0], xs[1]), (), chart.det_size)

    def children(self, chart, app, policy):
        m = chart.det_size
        _require(m >= 2, "DET", "needs det size >= 2, chart has {}", m)
        if app.det_size is not None:
            _require(app.det_size == m, "DET", "targets det size {}, chart has {}",
                     app.det_size, m)
        _pair(chart, app, "DET")
        e = self.coefficient(m, None, policy)
        extra = None
        if e > 0:
            _require(app.new_divisor is not None, "DET",
                     "a new divisor id is required when the exceptional coefficient is positive")
            _require(app.new_divisor[1] == e, "DET",
                     "new divisor coefficient {} != policy value {}", app.new_divisor[1], e)
            extra = (app.new_divisor[0], e)
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, m, add=extra)
        y_child = chart._derive(chart.x_indices, m - 1, add=extra)
        return [_child((x_child, 2, "x")), _child((y_child, m * m, "y"))]

    def coefficient(self, det_size, divisor_exponent, policy):
        m = det_size
        return (m - 2) if policy == "oracle" else (m * m - 2)

    def charts(self, chart, app):
        m = chart.det_size
        return _blowup(*_pair_center(app), *(
            (y_var(r, s, m), "y", f"pivot=({r},{s})", *_pivot_elimination(m, r, s))
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
        exps = chart.exponents
        top = max(exps, key=itemgetter(1))[1]  # >= 2 when MON1 is proposed
        kd, d = min((key(d), d) for d, a in exps if a == top)
        return (1, -top, kd, pk, "MON1", (xs[0], xs[1]), (d,), None)

    def children(self, chart, app, policy):
        (j1,) = app.divisors
        _pair(chart, app, "MON1")
        a = chart.exponent(j1)
        _require(a is not None, "MON1", "divisor {!r} absent from the chart", j1)
        _require(a >= 2, "MON1", "divisor {!r} has exponent {} < 2", j1, a)
        e = self.coefficient(None, a, policy)
        extra = None
        if e > 0:
            _require(app.new_divisor is not None and app.new_divisor[1] == e, "MON1",
                     "new divisor with coefficient {} required", e)
            extra = (app.new_divisor[0], e)
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, chart.det_size, add=extra)
        z_child = chart._derive(chart.x_indices, chart.det_size, drop=j1, add=extra)
        return [_child((x_child, 2, "x")), _child((z_child, 1, "z"))]

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

    def children(self, chart, app, policy):
        j1, j2 = app.divisors
        _pair(chart, app, "MON2")
        _require(j1 != j2 and chart.exponent(j1) == 1 and chart.exponent(j2) == 1, "MON2",
                 "divisors ({!r},{!r}) must both carry exponent 1", j1, j2)
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, chart.det_size)
        z_child = chart._derive(chart.x_indices, chart.det_size, drop=min(j1, j2))
        return [_child((x_child, 2, "x")), _child((z_child, 2, "z"))]


class _Mon3(Rule):
    """Separate the y-factor from a single exponent-1 divisor (phase B3)."""

    kind, phase = "MON3", "B3"
    grid = (None, 0, lambda comps, _: [ChartState.of(comps, 1, {"f1": 1})])

    def propose(self, chart, xs, pk, key):
        ((j, _),) = chart.exponents
        return (3, key(j), pk, "MON3", (xs[0], xs[1]), (j,), None)

    def children(self, chart, app, policy):
        d = chart.deg
        _pair(chart, app, "MON3")
        _require(d.dy == 1 and d.dz == 1, "MON3",
                 "needs (deg_y, deg_z) = (1, 1), chart has ({},{})", d.dy, d.dz)
        x_child = chart._derive(chart.x_indices - {min(app.pair)}, 1)
        # Both single-factor children take the same form once the leftover
        # divisor coordinate is renamed into the y-slot.
        yz_child = chart._bare(1)
        return [_child((x_child, 2, "x")), _child((yz_child, 2, "yz"))]

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

    def children(self, chart, app, policy):
        d = chart.deg
        (i1,) = app.pair
        _require(i1 in chart.x_indices, "BIN", "{!r} is not an x-index of the chart", i1)
        _require(d.dx >= 2, "BIN", "needs at least two x-factors")
        _require(d.dy + d.dz == 1, "BIN",
                 "needs a single degree-one factor, chart has (dy,dz)=({},{})", d.dy, d.dz)
        factor_child = chart._derive(chart.x_indices - {i1}, chart.det_size)
        smooth_child = chart._bare(0)
        return [_child((factor_child, 1, "factor")), _child((smooth_child, 1, "smooth"))]

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
    xs = sorted(chart.xs, key=key)
    return RULES[kind].propose(chart, xs, (key(xs[0]), key(xs[1])), key)


def exceptional_coefficient(kind: str, *, det_size: int | None = None,
                            divisor_exponent: int | None = None,
                            policy: str = "oracle") -> int:
    """Coefficient of the new divisor created by one rule application under
    ``policy``, as the rule's record states it (0: no new divisor)."""
    return RULES[kind].coefficient(det_size, divisor_exponent, check_policy(policy))


def application(rank: tuple, chart: ChartState, policy: str,
                new_id: str | None) -> RuleApplication:
    """The application a rank from ``propose`` names, registering divisor
    ``new_id`` when its coefficient on ``chart``, a chart it rewrites, is
    positive."""
    kind, pair, divisors, det_size = rank[-4:]
    a = chart.exponent(divisors[0]) if divisors else None
    e = exceptional_coefficient(kind, det_size=chart.det_size,
                                divisor_exponent=a, policy=policy)
    return RuleApplication(kind, pair, divisors, det_size, (new_id, e) if e > 0 else None)


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
    return RULES[app.kind].children(chart, app, check_policy(policy))
