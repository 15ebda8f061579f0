"""Local chart descriptors and the blow-up rewriting rules.

A chart descriptor records one local normal form

    prod_{i in I} x_i  =  t * det(y_rs : m x m) * prod_j z_j^{a_j}

by its x-index set I, its determinant size m, and its divisor exponent map
{j: a_j}.  ``m = 1`` stands for a single degree-one factor y, ``m = 0``
for no factor at all.  The rewriting rules replace a descriptor by the
descriptors of the charts covering one blow-up; each rule strictly lowers
the invariant ``mdeg = (|I|, m, sum a_j)`` in lexicographic order, which
is what terminates the whole rewriting process.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from .poly_oracle import Polynomial, ScaleError, generic_det

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
    if kind == "DET":
        m = det_size
        return (m - 2) if policy == "oracle" else (m * m - 2)
    if kind == "MON1":
        return divisor_exponent - 2
    return 0


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


def _require(cond: bool, rule: str, message: str):
    if not cond:
        raise RulePreconditionError(f"{rule}: {message}")


def children(chart: ChartState, app: RuleApplication,
             policy: str = "oracle") -> list[ChildChart]:
    """Representative child descriptors of one rule application.

    Chart families related by permuting the pair, the matrix entries, or
    the two consumed divisors are collapsed to a single representative
    whose family size is recorded as the multiplicity.  Each child's
    exponents are derived from the parent's sorted tuple, not re-sorted.
    """
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
        extra = None
        if e > 0:
            _require(app.new_divisor is not None, "DET",
                     "a new divisor id is required when the exceptional coefficient is positive")
            _require(app.new_divisor[1] == e, "DET",
                     f"new divisor coefficient {app.new_divisor[1]} != policy value {e}")
            extra = (app.new_divisor[0], e)
        x_child = chart._derive(chart.x_indices - {min(i1, i2)}, m, add=extra)
        y_child = chart._derive(chart.x_indices, m - 1, add=extra)
        return [ChildChart(x_child, 2, "x"), ChildChart(y_child, m * m, "y")]

    if app.kind == "MON1":
        i1, i2 = app.pair
        (j1,) = app.divisors
        _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
                 "MON1", f"pair ({i1},{i2}) must be two distinct x-indices of the chart")
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
        x_child = chart._derive(chart.x_indices - {min(i1, i2)}, chart.det_size, add=extra)
        z_child = chart._derive(chart.x_indices, chart.det_size, drop=j1, add=extra)
        return [ChildChart(x_child, 2, "x"), ChildChart(z_child, 1, "z")]

    if app.kind == "MON2":
        i1, i2 = app.pair
        j1, j2 = app.divisors
        _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
                 "MON2", f"pair ({i1},{i2}) must be two distinct x-indices of the chart")
        exps = chart.exponent_map()
        _require(j1 != j2 and exps.get(j1) == 1 and exps.get(j2) == 1, "MON2",
                 f"divisors ({j1!r},{j2!r}) must both carry exponent 1")
        x_child = chart._derive(chart.x_indices - {min(i1, i2)}, chart.det_size)
        z_child = chart._derive(chart.x_indices, chart.det_size, drop=min(j1, j2))
        return [ChildChart(x_child, 2, "x"), ChildChart(z_child, 2, "z")]

    if app.kind == "MON3":
        i1, i2 = app.pair
        _require(i1 in chart.x_indices and i2 in chart.x_indices and i1 != i2,
                 "MON3", f"pair ({i1},{i2}) must be two distinct x-indices of the chart")
        _require(d.dy == 1 and d.dz == 1, "MON3",
                 f"needs (deg_y, deg_z) = (1, 1), chart has ({d.dy},{d.dz})")
        x_child = chart._derive(chart.x_indices - {min(i1, i2)}, 1)
        # Both single-factor children take the same form once the leftover
        # divisor coordinate is renamed into the y-slot.
        yz_child = ChartState(chart.x_indices, 1, ())
        return [ChildChart(x_child, 2, "x"), ChildChart(yz_child, 2, "yz")]

    if app.kind == "BIN":
        (i1,) = app.pair
        _require(i1 in chart.x_indices, "BIN", f"{i1!r} is not an x-index of the chart")
        _require(d.dx >= 2, "BIN", "needs at least two x-factors")
        _require(d.dy + d.dz == 1, "BIN",
                 f"needs a single degree-one factor, chart has (dy,dz)=({d.dy},{d.dz})")
        factor_child = chart._derive(chart.x_indices - {i1}, chart.det_size)
        smooth_child = ChartState(chart.x_indices, 0, ())
        return [ChildChart(factor_child, 1, "factor"),
                ChildChart(smooth_child, 1, "smooth")]

    raise RulePreconditionError(f"unknown rule kind {app.kind!r}")
