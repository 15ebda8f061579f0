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
second normalisation.  Blow-up charts are monomial maps, so ``substitute``
folds a one-term image into each term and multiplies out only images of
several terms.  A local equation is  prod x - t * prod z^a * det(y), and a
chart map sends each monomial to a monomial, so the verifier pulls back the
two monomials once per chart and det(y) once per key.  Three read-only memos
serve it: pivot maps, one per (m, r0, s0) with m <= ``VERIFY_MAX_DET``; det
images, keyed by no x- or divisor name, so at most m^2 + 2 per m; and chart
maps, checked for cycles once per (lead, scaled), whose keys hold names, so
an LRU cache keeps 256.  The exceptional power is read from the two parts,
which cannot cancel; ``divide_out`` is exact division (it raises
unless the power divides every term), so nothing is multiplied back and
``remultiplication_ok`` holds by construction.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from types import MappingProxyType

from .dual_complex import _Record, _set

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
    _set(poly, "terms", terms)
    return poly


class Polynomial(_Record):
    """Immutable sparse polynomial with integer coefficients."""

    _fields = ("terms",)
    __slots__ = _fields + ("_hash",)

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
        _set(self, "terms", clean)

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

        Terms accumulate in one map.  A one-term image, and an unsubstituted
        variable (its own image), folds its exponents times ``exp`` and its
        coefficient to the power ``exp`` into the term; only images of
        several terms are multiplied out, each power once per call.
        """
        images = {v: (p if isinstance(p, Polynomial) else Polynomial.constant(p)).terms
                  for v, p in mapping.items()}
        powers = {}
        out = {}
        get = out.get
        for mono, coeff in self.terms.items():
            exps = {}
            factors = []
            for var, exp in mono:
                base = images.get(var)
                if base is None:
                    exps[var] = exps.get(var, 0) + exp
                elif len(base) == 1:
                    (m, c), = base.items()
                    coeff *= c ** exp
                    for v, e in m:
                        exps[v] = exps.get(v, 0) + e * exp
                elif not base:
                    break
                else:
                    power = powers.get((var, exp))
                    if power is None:
                        power = powers[var, exp] = _pow_terms(base, exp)
                    factors.append(power)
            else:
                term = {tuple(sorted(exps.items())): coeff}
                for power in factors:
                    term = _mul_terms(term, power)
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

    def __hash__(self):
        if not hasattr(self, "_hash"):  # unset until the first call
            _set(self, "_hash", hash(frozenset(self.terms.items())))
        return self._hash

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


class Substitution(_Record):
    """A simultaneous coordinate change, variable -> polynomial.

    Images may mention a substituted variable only as its own (identity)
    image; proper cycles such as x -> y, y -> x + 1 are rejected.  Blow-up
    charts always map old coordinates to products of fresh primed ones, so
    this restriction costs nothing.
    """

    __slots__ = _fields = ("mapping",)

    def __init__(self, mapping: dict):
        for var, image in mapping.items():
            image = image if isinstance(image, Polynomial) else Polynomial.constant(image)
            for other in image.variables():
                if other == var:
                    continue
                rival = mapping.get(other)
                if rival is not None and rival != Polynomial.variable(other):
                    raise ValueError(
                        f"cyclic substitution: image of {var!r} mentions substituted {other!r}")
        _set(self, "mapping", mapping)

    def __reduce__(self):  # a read-only mapping does not pickle
        return Substitution, (dict(self.mapping),)

    def apply(self, f: Polynomial) -> Polynomial:
        return f.substitute(self.mapping)


def strict_transform(f: Polynomial, sub: Substitution, exceptional: str):
    """Pull back f and factor out the maximal exceptional power.

    Returns (g, k) with g * exceptional**k == f o sub and k maximal.  When
    sub is a standard blow-up chart, k is the multiplicity of f along the
    blow-up center.
    """
    if f.is_zero():
        raise ValueError("strict transform of the zero polynomial")
    pulled = sub.apply(f)
    if pulled.is_zero():
        raise ValueError("substitution annihilated the polynomial")
    k = pulled.min_exponent(exceptional)
    return pulled.divide_out(exceptional, k), k


def generic_det(m: int, name=lambda r, s: f"y{r}{s}") -> Polynomial:
    """Determinant of the generic m x m matrix of m^2 distinct named
    variables: one Leibniz monomial per permutation, signed by parity."""
    if m > 5:
        raise ScaleError("determinant expansion capped at 5x5")
    terms = {}
    for perm in itertools.permutations(range(1, m + 1)):
        inversions = sum(p > q for p, q in itertools.combinations(perm, 2))
        mono = tuple(sorted((name(r, s), 1) for r, s in enumerate(perm, 1)))
        terms[mono] = -1 if inversions & 1 else 1
    return _canon(terms)


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


# ---------------------------------------------------------------------------
# Rule verification: recompute every blow-up chart of a rewriting rule by
# direct substitution and compare with the predicted child chart.
# ---------------------------------------------------------------------------

# Caps for verify_rule inputs.
VERIFY_MAX_DX = 4
VERIFY_MAX_DET = 3
VERIFY_MAX_EXPONENT = 4


def check_scale(dx: int, det_size: int, exponent: int) -> None:
    """ScaleError unless deg_x, the det size and the largest divisor
    exponent are all within the ``verify_rule`` caps."""
    for name, cap, value in (("det size", VERIFY_MAX_DET, det_size),
                             ("deg_x", VERIFY_MAX_DX, dx),
                             ("divisor exponents", VERIFY_MAX_EXPONENT, exponent)):
        if value > cap:
            raise ScaleError(f"{name} capped at {cap} (got {value})")


EXC = "u"  # name of the exceptional coordinate in verification charts


def prime(name: str) -> str:
    """The name of a coordinate after a blow-up chart rescales it."""
    return name + "'"


class ChartCheck(_Record):
    """Outcome of checking one blow-up chart against its predicted child."""

    __slots__ = _fields = ("family", "detail", "divided_power", "exc_exponent",
                           "remultiplication_ok", "preimage_ok", "child_matches", "child_mdeg")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, family: str, detail: str, divided_power: int, exc_exponent: int,
                 remultiplication_ok: bool, preimage_ok: bool, child_matches: bool,
                 child_mdeg: tuple):
        self.family = family
        self.detail = detail
        self.divided_power = divided_power
        self.exc_exponent = exc_exponent  # exceptional exponent left on the t-side
        self.remultiplication_ok = remultiplication_ok  # g * u**k is the pull-back, exactly
        self.preimage_ok = preimage_ok  # t=0 fiber is the child's x-monomial
        self.child_matches = child_matches
        self.child_mdeg = child_mdeg

    @property
    def passed(self) -> bool:
        return self.remultiplication_ok and self.preimage_ok and self.child_matches


class VerificationReport(_Record):
    __slots__ = _fields = ("rule", "chart", "policy", "checks", "notes", "family_check_ok")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, rule: str, chart: dict, policy: str, checks: list | None = None,
                 notes: list | None = None, family_check_ok: bool = True):
        self.rule = rule
        self.chart = chart
        self.policy = policy
        self.checks = [] if checks is None else checks
        self.notes = [] if notes is None else notes
        self.family_check_ok = family_check_ok

    @property
    def passed(self) -> bool:
        return (bool(self.checks) and all(c.passed for c in self.checks)
                and self.family_check_ok)

    @property
    def measured_exponents(self) -> list:
        return sorted({c.exc_exponent for c in self.checks})

    def to_json_obj(self) -> dict:
        """The report's fields, with ``passed`` on it and on each check."""
        obj = dict(zip(self._fields, self._values(self)))
        obj["checks"] = [dict(zip(c._fields, c._values(c)), passed=c.passed) for c in self.checks]
        obj["passed"] = self.passed
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def _measure_t_side(g: Polynomial, exceptional: str) -> int:
    """Exceptional exponent on the t-side of a chart equation (-1 if mixed)."""
    exps = {Polynomial.exponent_of(m, exceptional)
            for m in g.terms if Polynomial.exponent_of(m, "t")}
    return exps.pop() if len(exps) == 1 else -1


def _fiber_is_x_monomial(g: Polynomial, dx: int, exceptional: str) -> bool:
    """True if g at t=0, its t-free terms, is one squarefree monomial in dx
    non-exceptional variables."""
    fiber = [(mono, coeff) for mono, coeff in g.terms.items()
             if not Polynomial.exponent_of(mono, "t")]
    if len(fiber) != 1:
        return False
    (mono, coeff), = fiber
    return (abs(coeff) == 1
            and all(e == 1 for _, e in mono)
            and all(v != exceptional for v, _ in mono)
            and len(mono) == dx)


@functools.lru_cache(maxsize=256)
def _chart_map(lead: str, scaled: tuple) -> Substitution:
    """The chart map lead -> u, p -> p'·u for each scaled p, read-only and
    checked for cycles once per key.  The check fails, uncached, when say
    components E1 and E1' make the lead x_E1' a factor of x_E1's image."""
    images = {p: _canon({tuple(sorted([(prime(p), 1), (EXC, 1)])): 1}) for p in scaled}
    images[lead] = Polynomial.variable(EXC)
    return Substitution(MappingProxyType(images))


# (image, exceptional power) of each pulled-back det(y) by the value key of
# ``_det_image``, shared read-only (the CLI's default grids fill 18 keys).
_DET_IMAGES = {}


def _det_image(det: Polynomial, names: set, vc, sub: Substitution) -> tuple:
    """det(y), whose variables are ``names``, pulled back through the chart
    map ``sub`` and then ``post``, with its exceptional power.  Keyed by all
    the image depends on: det(y) and ``post`` by value (so a swapped one
    gets a key of its own) and which of det's coordinates lead or are scaled.
    """
    lead = vc.lead if vc.lead in names else None
    scaled = tuple(p for p in vc.scaled if p in names)
    key = (det, lead, scaled, None if vc.post is None else frozenset(vc.post.items()))
    hit = _DET_IMAGES.get(key)
    if hit is None:
        image = sub.apply(det)
        if vc.post is not None:
            image = image.substitute(vc.post)
        hit = _DET_IMAGES[key] = (image, image.min_exponent(EXC))
    return hit


def _check_one_chart(monos, det, names, vc, expected, child_mdeg) -> ChartCheck:
    """Strict-transform one blow-up chart and compare with the expected child.

    The chart's equation is ``monos = prod x - t * prod z^a`` with det(y),
    whose variables are ``names``, multiplied into its t-carrying term.  The
    chart map sends each monomial to a monomial, so ``monos`` is
    strict-transformed once per chart; det(y) is pulled back once per key
    (``_det_image``) and multiplied by the t-side monomial.  The t-free and
    the t-carrying terms cannot cancel, so the rest of the exceptional power
    is read from the parts, then divided out exactly.
    """
    sub = _chart_map(vc.lead, vc.scaled)
    monos, k = strict_transform(monos, sub, EXC)
    if vc.post is not None:
        # Pivot maps are memoized and acyclic (a test runs Substitution's
        # check on each), so they skip that check here.
        monos = monos.substitute(vc.post)
    image, k_det = _det_image(det, names, vc, sub)
    (t_free, c_free), (t_side, c_side) = monos.terms.items()
    if Polynomial.exponent_of(t_free, "t"):
        (t_free, c_free), (t_side, c_side) = (t_side, c_side), (t_free, c_free)
    rest = min(Polynomial.exponent_of(t_free, EXC),
               Polynomial.exponent_of(t_side, EXC) + k_det)
    terms = _mul_terms({t_side: c_side}, image.terms)
    terms[t_free] = c_free
    g = _canon(terms).divide_out(EXC, rest)
    return ChartCheck(
        vc.family, vc.detail, k + rest,
        _measure_t_side(g, EXC),
        True,
        _fiber_is_x_monomial(g, child_mdeg[0], EXC),
        g == expected,
        tuple(child_mdeg),
    )


def _expected(child_eq: Polynomial, names: set, vc, new_var) -> Polynomial:
    """A representative child's equation, whose variables are ``names``,
    renamed into one chart's coordinates: the new divisor becomes the
    exceptional coordinate, scaled ones are primed, and those the
    post-substitution introduces (``vc.kept``) keep their names.  A
    representative that still has this chart's lead stands for the sibling
    chart that led with the one scaled coordinate the representative lacks.
    """
    missing = [p for p in vc.scaled if p not in names]
    rename = {}
    for v in names - vc.kept:
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
    (renamed into the chart's coordinates), whose recorded family sizes
    must match.  The comparison is exact: the one sign a chart may carry,
    a DET pivot's cofactor sign, is part of its unit coordinate change
    ``post`` as t -> -t.  Also measures the exceptional
    exponent left on the monomial side, which settles the determinant-rule
    coefficient question, and checks that the t = 0 fiber is the expected
    normal crossing monomial.
    """
    from . import chart_calculus as cc

    check_scale(len(chart.x_indices), chart.det_size,
                max((a for _, a in chart.exponents), default=0))

    lhs, rhs, det = cc.equation_parts(chart)
    monos, names = lhs - rhs, det.variables()
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

    equations = {k.family: (eq := cc.local_equation(k.state), eq.variables(), k.state.deg)
                 for k in kids}
    new_var = cc.z_var(app.new_divisor[0]) if app.new_divisor else None
    for vc in charts:
        child_eq, child_names, child_mdeg = equations[vc.family]
        report.checks.append(_check_one_chart(
            monos, det, names, vc, _expected(child_eq, child_names, vc, new_var), child_mdeg))
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
