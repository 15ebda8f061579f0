"""Exact multivariate polynomial arithmetic and the chart-rule verifier.

Polynomials are sparse maps from monomials to arbitrary-precision integer
coefficients, over string-named variables.  This module is deliberately
small: it is a verifier for blow-up chart computations at desk scale, not
a general computer-algebra system.  Hard scale caps are enforced by
``ScaleError``.

Cost: the public constructor normalises arbitrary input once (sorting
each monomial and summing the exponents of a repeated variable); every
arithmetic result is built in canonical form (sorted monomials merged in
one pass, zero coefficients dropped as they arise) and wrapped without a
second normalisation.  ``substitute`` accumulates into one term map and
raises each image to a given power once per call.  The verifier pulls
each chart back once and takes both the remultiplication check and the
strict transform from that one pull-back.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field

# Monomials are tuples of (variable, exponent) pairs, sorted by variable
# name, with all exponents > 0.  The empty tuple is the constant monomial.
Monomial = tuple


class ScaleError(ValueError):
    """Requested computation exceeds the verifier's desk-scale caps."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Product of two canonical monomials, merged in one linear pass."""
    if not a:
        return b
    if not b:
        return a
    if a[-1][0] < b[0][0]:
        return a + b
    if b[-1][0] < a[0][0]:
        return b + a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        va, ea = a[i]
        vb, eb = b[j]
        if va < vb:
            out.append(a[i])
            i += 1
        elif vb < va:
            out.append(b[j])
            j += 1
        else:
            out.append((va, ea + eb))
            i += 1
            j += 1
    return tuple(out) + a[i:] + b[j:]


def _mul_terms(a: dict, b: dict) -> dict:
    """Canonical terms of the product of two canonical term maps."""
    out = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = _mono_mul(ma, mb)
            c = get(mono, 0) + ca * cb
            if c:
                out[mono] = c
            elif mono in out:
                del out[mono]
    return out


def _pow_terms(terms: dict, n: int) -> dict:
    """Canonical terms of a power, by repeated squaring (n >= 0)."""
    result = {(): 1}
    while n:
        if n & 1:
            result = _mul_terms(result, terms)
        n >>= 1
        if n:
            terms = _mul_terms(terms, terms)
    return result


def _canon(terms: dict) -> "Polynomial":
    """Wrap a term map that is already canonical, without checking it.

    Every monomial must be sorted by variable with all exponents > 0, and
    every coefficient nonzero.  The arithmetic below only ever produces
    such maps, so it skips the public constructor's normalisation.
    """
    poly = object.__new__(Polynomial)
    object.__setattr__(poly, "terms", terms)
    return poly


class Polynomial:
    """Immutable sparse polynomial with integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mono, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if coeff:
                    powers = {}
                    for v, e in mono:
                        powers[v] = powers.get(v, 0) + e
                    mono = tuple(sorted((v, e) for v, e in powers.items() if e))
                    c = clean.get(mono, 0) + coeff
                    if c:
                        clean[mono] = c
                    elif mono in clean:
                        del clean[mono]
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def zero() -> "Polynomial":
        return _canon({})

    @staticmethod
    def constant(c: int) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    def variable(name: str) -> "Polynomial":
        return _canon({((name, 1),): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            out.update(v for v, _ in mono)
        return out

    @staticmethod
    def exponent_of(mono: Monomial, var: str) -> int:
        for v, e in mono:
            if v == var:
                return e
        return 0

    def min_exponent(self, var: str) -> int:
        """Largest k with var**k dividing every term (0 for the zero poly)."""
        if not self.terms:
            return 0
        return min(self.exponent_of(m, var) for m in self.terms)

    def divide_out(self, var: str, k: int) -> "Polynomial":
        """Exact division by var**k; requires var**k to divide every term."""
        if k == 0:
            return self
        if k < 0:
            raise ValueError(f"cannot divide by {var}**{k}")
        out = {}
        for mono, coeff in self.terms.items():
            for pos, (v, e) in enumerate(mono):
                if v == var:
                    break
            else:
                e = 0
            if e < k:
                raise ValueError(f"{var}**{k} does not divide every term")
            if e == k:
                out[mono[:pos] + mono[pos + 1:]] = coeff
            else:
                out[mono[:pos] + ((var, e - k),) + mono[pos + 1:]] = coeff
        return _canon(out)

    def substitute(self, mapping: dict) -> "Polynomial":
        """Simultaneous substitution of variables by polynomials.

        Terms accumulate in one map; each power of an image is computed
        once per call.  Unsubstituted variables of a term stay as one
        monomial factor.
        """
        images = {v: (p if isinstance(p, Polynomial) else Polynomial.constant(p)).terms
                  for v, p in mapping.items()}
        powers = {}
        out = {}
        get = out.get
        for mono, coeff in self.terms.items():
            term = {(): coeff}
            kept = []
            for var, exp in mono:
                base = images.get(var)
                if base is None:
                    kept.append((var, exp))
                    continue
                power = powers.get((var, exp))
                if power is None:
                    power = powers[var, exp] = _pow_terms(base, exp)
                term = _mul_terms(term, power)
                if not term:
                    break
            if kept and term:
                term = _mul_terms(term, {tuple(kept): 1})
            for m, c in term.items():
                c += get(m, 0)
                if c:
                    out[m] = c
                else:
                    del out[m]
        return _canon(out)

    def __add__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial.constant(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            c = out.get(mono, 0) + coeff
            if c:
                out[mono] = c
            elif mono in out:
                del out[mono]
        return _canon(out)

    __radd__ = __add__

    def __neg__(self):
        return _canon({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = other if isinstance(other, Polynomial) else Polynomial.constant(other)
        return _canon(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        return _canon(_pow_terms(self.terms, n))

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for mono, coeff in sorted(self.terms.items()):
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            if not factors:
                bits.append(f"{coeff:+d}")
            elif coeff == 1:
                bits.append(f"+{factors}")
            elif coeff == -1:
                bits.append(f"-{factors}")
            else:
                bits.append(f"{coeff:+d}*{factors}")
        return " ".join(bits)


@dataclass(frozen=True)
class Substitution:
    """A simultaneous coordinate change, variable -> polynomial.

    Images may mention a substituted variable only as its own (identity)
    image; proper cycles such as x -> y, y -> x + 1 are rejected.  Blow-up
    charts always map old coordinates to products of fresh primed ones, so
    this restriction costs nothing.
    """

    mapping: dict

    def __post_init__(self):
        for var, image in self.mapping.items():
            image = image if isinstance(image, Polynomial) else Polynomial.constant(image)
            for other in image.variables():
                if other == var:
                    continue
                rival = self.mapping.get(other)
                if rival is not None and rival != Polynomial.variable(other):
                    raise ValueError(
                        f"cyclic substitution: image of {var!r} mentions substituted {other!r}")

    def apply(self, f: Polynomial) -> Polynomial:
        return f.substitute(self.mapping)


def _pull_back(f: Polynomial, sub: Substitution, exceptional: str):
    """(f o sub, g, k) with g * exceptional**k == f o sub and k maximal."""
    if f.is_zero():
        raise ValueError("strict transform of the zero polynomial")
    pulled = sub.apply(f)
    if pulled.is_zero():
        raise ValueError("substitution annihilated the polynomial")
    k = pulled.min_exponent(exceptional)
    return pulled, pulled.divide_out(exceptional, k), k


def strict_transform(f: Polynomial, sub: Substitution, exceptional: str):
    """Pull back f and factor out the maximal exceptional power.

    Returns (g, k) with g * exceptional**k == f o sub and k maximal.  When
    sub is a standard blow-up chart, k is the multiplicity of f along the
    blow-up center.
    """
    _, g, k = _pull_back(f, sub, exceptional)
    return g, k


def multiplicity_at_origin(f: Polynomial) -> int:
    """Minimum total degree over the terms of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("multiplicity of the zero polynomial")
    return min(sum(e for _, e in mono) for mono in f.terms)


def det_of(entries) -> Polynomial:
    """Determinant of a square matrix of polynomials (Leibniz expansion)."""
    m = len(entries)
    if m > 5:
        raise ScaleError("determinant expansion capped at 5x5")
    total = Polynomial.zero()
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


def generic_det(m: int, name=lambda r, s: f"y{r}{s}") -> Polynomial:
    """Determinant of the generic m x m matrix of named variables."""
    if m == 0:
        return Polynomial.constant(1)
    rows = [[Polynomial.variable(name(r, s)) for s in range(1, m + 1)]
            for r in range(1, m + 1)]
    return det_of(rows)


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


def rename_variables(f: Polynomial, mapping: dict) -> Polynomial:
    """Injective variable renaming (plain name-for-name).

    Raises ValueError unless the renaming is injective on the variables of
    ``f``: two variables sent to one name would merge distinct terms.
    """
    names = f.variables()
    if len({mapping.get(v, v) for v in names}) != len(names):
        raise ValueError("renaming is not injective on this polynomial")
    return _canon({tuple(sorted((mapping.get(v, v), e) for v, e in mono)): coeff
                   for mono, coeff in f.terms.items()})


def flip_terms_containing(f: Polynomial, var: str) -> Polynomial:
    """Negate every term divisible by var (a unit rescale of one coordinate)."""
    return _canon({m: (-c if Polynomial.exponent_of(m, var) else c)
                   for m, c in f.terms.items()})


def equal_up_to_unit(f: Polynomial, g: Polynomial, tvar: str = "t") -> bool:
    """Equality up to overall sign or a sign absorbed into the t-factor side."""
    return f == g or f == -g or f == flip_terms_containing(g, tvar) \
        or f == -flip_terms_containing(g, tvar)


# ---------------------------------------------------------------------------
# Rule verification: recompute every blow-up chart of a rewriting rule by
# direct substitution and compare with the predicted child chart.
# ---------------------------------------------------------------------------

# Caps for verify_rule inputs.
VERIFY_MAX_DX = 4
VERIFY_MAX_DET = 3
VERIFY_MAX_EXPONENT = 4

EXC = "u"  # name of the exceptional coordinate in verification charts


def prime(name: str) -> str:
    """The name of a coordinate after a blow-up chart rescales it."""
    return name + "'"


@dataclass
class ChartCheck:
    """Outcome of checking one blow-up chart against its predicted child."""

    family: str
    detail: str
    divided_power: int
    exc_exponent: int            # exceptional exponent left on the t-side
    remultiplication_ok: bool
    preimage_ok: bool            # t=0 fiber is the child's x-monomial
    child_matches: bool
    child_mdeg: tuple

    @property
    def passed(self) -> bool:
        return self.remultiplication_ok and self.preimage_ok and self.child_matches


@dataclass
class VerificationReport:
    rule: str
    chart: dict
    policy: str
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    family_check_ok: bool = True

    @property
    def passed(self) -> bool:
        return (bool(self.checks) and all(c.passed for c in self.checks)
                and self.family_check_ok)

    @property
    def measured_exponents(self) -> list:
        return sorted({c.exc_exponent for c in self.checks})

    def to_json_obj(self) -> dict:
        return {
            "rule": self.rule,
            "chart": self.chart,
            "policy": self.policy,
            "passed": self.passed,
            "family_check_ok": self.family_check_ok,
            "notes": list(self.notes),
            "checks": [
                {
                    "family": c.family,
                    "detail": c.detail,
                    "divided_power": c.divided_power,
                    "exc_exponent": c.exc_exponent,
                    "remultiplication_ok": c.remultiplication_ok,
                    "preimage_ok": c.preimage_ok,
                    "child_matches": c.child_matches,
                    "child_mdeg": list(c.child_mdeg),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _measure_t_side(g: Polynomial, exceptional: str) -> int:
    """Exceptional exponent on the t-side of a chart equation (-1 if mixed)."""
    exps = {Polynomial.exponent_of(m, exceptional)
            for m in g.terms if Polynomial.exponent_of(m, "t")}
    return exps.pop() if len(exps) == 1 else -1


def _fiber_is_x_monomial(g: Polynomial, dx: int, exceptional: str) -> bool:
    """True if g at t=0 is one squarefree monomial in dx non-exceptional variables."""
    fiber = g.substitute({"t": Polynomial.constant(0)})
    if len(fiber.terms) != 1:
        return False
    (mono, coeff), = fiber.terms.items()
    return (abs(coeff) == 1
            and all(e == 1 for _, e in mono)
            and all(v != exceptional for v, _ in mono)
            and len(mono) == dx)


def _check_one_chart(f, vc, expected, child_mdeg) -> ChartCheck:
    """Strict-transform one blow-up chart and compare with the expected child."""
    exc = Polynomial.variable(EXC)
    sub = {vc.lead: exc}
    for p in vc.scaled:
        sub[p] = Polynomial.variable(prime(p)) * exc
    pulled, g, k = _pull_back(f, Substitution(sub), EXC)
    remult = (g * exc ** k) == pulled
    if vc.post is not None:
        g = Substitution(vc.post).apply(g)
    return ChartCheck(
        vc.family, vc.detail, k,
        _measure_t_side(g, EXC),
        remult,
        _fiber_is_x_monomial(g, child_mdeg[0], EXC),
        equal_up_to_unit(g, expected),
        tuple(child_mdeg),
    )


def _expected(child_eq: Polynomial, vc, new_var) -> Polynomial:
    """A representative child's equation renamed into one chart's coordinates:
    the new divisor becomes the exceptional coordinate, scaled ones are
    primed, and those the post-substitution introduces keep their names.  A
    representative that still has this chart's lead stands for the sibling
    chart that led with the one scaled coordinate the representative lacks.
    """
    names = child_eq.variables()
    kept = set().union(*(p.variables() for p in vc.post.values())) if vc.post else set()
    missing = [p for p in vc.scaled if p not in names]
    rename = {}
    for v in names - kept:
        if v == new_var:
            rename[v] = EXC
        elif v in vc.scaled:
            rename[v] = prime(v)
        elif v == vc.lead and len(missing) == 1:
            rename[v] = prime(missing[0])
    return rename_variables(child_eq, rename)


def verify_rule(app, chart, policy: str = "oracle") -> VerificationReport:
    """Re-derive every blow-up chart of a rule application exactly.

    Builds the chart's local equation, applies each of the rule record's
    verification charts, strict-transforms, and compares with the child
    that ``chart_calculus.children`` itself gives for the chart's family
    (renamed into the chart's coordinates, up to a unit sign), whose
    recorded family sizes must match.  Also measures the exceptional
    exponent left on the monomial side, which settles the determinant-rule
    coefficient question, and checks that the t = 0 fiber is the expected
    normal crossing monomial.
    """
    from . import chart_calculus as cc

    dx = len(chart.x_indices)
    if dx > VERIFY_MAX_DX:
        raise ScaleError(f"verify_rule caps deg_x at {VERIFY_MAX_DX} (got {dx})")
    if chart.det_size > VERIFY_MAX_DET:
        raise ScaleError(
            f"verify_rule caps det size at {VERIFY_MAX_DET} (got {chart.det_size})")
    for div, a in chart.exponent_map().items():
        if a > VERIFY_MAX_EXPONENT:
            raise ScaleError(
                f"verify_rule caps divisor exponents at {VERIFY_MAX_EXPONENT} "
                f"(got {a} on {div})")

    f = cc.local_equation(chart)
    report = VerificationReport(rule=app.kind, chart=cc.chart_to_obj(chart),
                                policy=policy)
    kids = cc.children(chart, app, policy=policy)
    rule = cc.RULES[app.kind]
    charts = rule.charts(chart, app)
    predicted = {k.family: k.multiplicity for k in kids}
    verified = dict(Counter(vc.family for vc in charts))
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
        report.checks.append(_check_one_chart(
            f, vc, _expected(child_eq, vc, new_var), child_mdeg))
    report.notes.extend(rule.notes(chart, policy, report.measured_exponents))
    return report


def grid_table(reports) -> str:
    """Plain-text summary table: rule, parameters, chart count, exponent, status."""
    header = f"{'rule':6} {'chart':40} {'charts':>6} {'exc-exp':>8} {'status':>7}"
    lines = [header, "-" * len(header)]
    for rep in reports:
        params = json.dumps(rep.chart, sort_keys=True)
        exps = ",".join(str(e) for e in rep.measured_exponents)
        lines.append(f"{rep.rule:6} {params:40} {len(rep.checks):>6} "
                     f"{exps:>8} {'pass' if rep.passed else 'FAIL':>7}")
    lines.append(f"{sum(len(r.checks) for r in reports)} charts checked, "
                 f"{sum(0 if r.passed else 1 for r in reports)} failing reports")
    return "\n".join(lines)
