"""The three-phase rewriting engine over a global configuration state.

A state holds the frozen dual complex of the boundary configuration, a
registry of exceptional divisors with their coefficients, and a multiset
of chart descriptors.  Each event picks one globally defined center,
rewrites every chart meeting it into its children, optionally registers
one new divisor shared by all children, and records a certificate that
every parent-to-child step strictly lowered the lexicographic invariant.
The multiset of invariants therefore decreases in the Dershowitz-Manna
order at every event, which forces termination.  The event ceiling bounds
a run's work, so it can stop a terminating input too: a double point of
corank c takes ceil(c(c+2)/4) events, over the default 10 000 from c = 200.

Phases: A-det shrinks determinants, B1/B2/B3 shrink the divisor monomial,
C-bin splits the final degree-one factor; ``chart_calculus.RULES`` holds
each rule's facts.  The dual complex is immutable and shared by every
state of a run, so no event can change it.

The engine is incremental.  The states of a run share one book: the
events so far and the live views of the newest state.  In it, resolved
charts sit in an inert sink that no rule matches; each unresolved chart
is filed under the one rule that would rewrite it, ranked by phase and
tie-break.  An event takes the least-ranked rule and the charts filed
under it as its parents, checks only the children it produces, and
updates the newest state in place, so its cost follows the charts it
touches rather than the whole state.

A trace is the plain object of ``trace_to_obj`` or the text that
``write_trace`` lays out from what ``run`` makes (ints, strs and None);
both give the bytes of ``json.dumps(doc, indent=1, sort_keys=True)``.
``replay_trace`` passes a trace iff it is ``trace_to_obj`` of its re-run.
"""

from __future__ import annotations

import json
from collections import Counter
from heapq import heappop, heappush
from itertools import starmap
from json.encoder import encode_basestring_ascii as _encode_str

from . import chart_calculus as cc
from . import dual_complex as dc
from . import snc_model as sm
from .chart_calculus import ChartState, RuleApplication
from .dual_complex import _Record, _refuse, _set


class InvariantBreach(RuntimeError):
    """An internal invariant failed; the offending certificate is attached."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CeilingExceeded(RuntimeError):
    """The configured event ceiling was hit before reaching a fixed point."""


class NoApplicableRule(RuntimeError):
    """step() was called on a fully resolved state."""


MODEL_ASSUMPTIONS = (
    "descriptor-level bookkeeping: one descriptor stands for every point "
    "of a (stratum, det-size) class, so blow-up centers over distinct "
    "index pairs commute by construction",
    "det-rule exceptional coefficient: policy 'oracle' assigns m-2, the "
    "value measured by strict-transform division; policy 'paper' assigns "
    "the alternate value m^2-2, which the measurement contradicts for "
    "every m >= 2 (at m=2: 2 versus measured 0)",
)


DEFAULT_POLICY = "oracle"
DEFAULT_CEILING = 10_000


class RunConfig(_Record):
    """Ordering, exceptional-exponent policy, and the event ceiling."""

    _fields = ("ordering", "exponent_policy", "event_ceiling")
    __slots__ = _fields + ("_position",)

    def __init__(self, ordering: tuple | None = None, exponent_policy: str = DEFAULT_POLICY,
                 event_ceiling: int = DEFAULT_CEILING):
        cc.check_policy(exponent_policy)
        if type(event_ceiling) is not int or event_ceiling < 1:
            raise ValueError(f"event ceiling must be an int >= 1, got {event_ceiling!r}")
        if not (ordering is None or isinstance(ordering, tuple)
                and all(isinstance(i, str) for i in ordering)):
            raise ValueError(f"ordering must be None or a tuple of ids, got {ordering!r}")
        _set(self, "ordering", ordering)
        _set(self, "exponent_policy", exponent_policy)
        _set(self, "event_ceiling", event_ceiling)
        # Read backwards, so a repeated id keeps its first place, as with tuple.index.
        position = {ident: i for i, ident in reversed(list(enumerate(ordering or ())))}
        _set(self, "_position", position)

    def key(self, ident: str):
        """Total order on ids: explicit ordering first, then lexicographic."""
        i = self._position.get(ident)
        return (1, 0, ident) if i is None else (0, i, ident)

    def to_json_obj(self) -> dict:
        return {"ordering": list(self.ordering) if self.ordering else None,
                "exponent_policy": self.exponent_policy,
                "event_ceiling": self.event_ceiling}

    @staticmethod
    def from_json_obj(obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ValueError(f"a run config must be an object, got {obj!r}")
        ordering = obj.get("ordering")
        if not (ordering is None or isinstance(ordering, list)
                and all(isinstance(i, str) for i in ordering)):
            raise ValueError(f"'ordering' must be null or a list of ids, got {ordering!r}")
        return RunConfig(tuple(ordering) if ordering else None,
                         obj.get("exponent_policy", DEFAULT_POLICY),
                         obj.get("event_ceiling", DEFAULT_CEILING))


class DivisorRecord(_Record):
    """A registered divisor, built only in form (ValueError otherwise): a
    str id, an int coefficient >= 1 and an int or None birth."""

    __slots__ = _fields = ("id", "coeff", "birth")

    def __init__(self, id: str, coeff: int, birth: int | None):
        if not (type(id) is str and type(coeff) is int and (birth is None or type(birth) is int)):
            raise ValueError("a divisor record needs a str id, an int coefficient and "
                             f"an int or None birth, got {id!r}, {coeff!r}, {birth!r}")
        if coeff < 1:
            raise ValueError(f"divisor {id!r} registered with coefficient {coeff} < 1")
        _set(self, "id", id)
        _set(self, "coeff", coeff)
        _set(self, "birth", birth)  # event index, None for divisors present at seed time


class BlowupEvent(_Record):
    __slots__ = _fields = ("index", "phase", "rule", "parents", "children", "new_divisor",
                           "exceptional", "lex")

    def __init__(self, index: int, phase: str, rule: RuleApplication, parents: tuple,
                 children: tuple, new_divisor: tuple | None, exceptional: str | None,
                 lex: tuple):
        for parent_deg, child_deg in lex:
            if not tuple(child_deg) < tuple(parent_deg):
                raise InvariantBreach(
                    f"lex certificate violated at event {index}: "
                    f"{tuple(parent_deg)} -> {tuple(child_deg)}",
                    certificate=(parent_deg, child_deg))
        _set(self, "index", index)
        _set(self, "phase", phase)
        _set(self, "rule", rule)
        _set(self, "parents", parents)  # ((ChartState, count), ...)
        _set(self, "children", children)  # ((ChartState, count), ...)
        _set(self, "new_divisor", new_divisor)
        _set(self, "exceptional", exceptional)
        _set(self, "lex", lex)  # ((parent mdeg, child mdeg), ...), all strictly decreasing


class ResolutionState:
    """A configuration state: dual complex, divisor registry, chart multiset.

    Immutable.  ``registry`` is the tuple of DivisorRecords in birth order,
    ``charts`` the canonically sorted tuple of (ChartState, count) pairs
    and ``trace`` the events that led here; each is built on first access.
    A state built by hand keeps the ``charts`` it was given, and its
    validity is unknown until ``step`` or ``select_center`` checks it.

    The states that ``step`` produces from one another share one
    ``_Book`` and differ only in how many of its events they see.  A
    state built by hand gets its book when first stepped, and lets go of
    it once stepped, so a kept seed does not hold on to its run.
    """

    __slots__ = ("dual", "_book", "_n", "_valid", "_registry", "_charts", "_trace")

    def __init__(self, dual: dc.DualComplex, registry, charts, trace=()):
        trace = tuple(trace)
        self._fill(dual, None, len(trace), False, tuple(registry), tuple(charts), trace)

    @classmethod
    def _at(cls, book: "_Book", n: int) -> "ResolutionState":
        """The state that has seen the first ``n`` events of ``book``."""
        state = object.__new__(cls)
        state._fill(book.dual, book, n, True, None, None, None)
        return state

    def _fill(self, dual, book, n, valid, registry, charts, trace):
        _set(self, "dual", dual)
        _set(self, "_book", book)
        _set(self, "_n", n)
        _set(self, "_valid", valid)
        _set(self, "_registry", registry)
        _set(self, "_charts", charts)
        _set(self, "_trace", trace)

    __setattr__ = __delattr__ = _refuse

    def __reduce__(self):  # a copy is a state built by hand
        return ResolutionState, (self.dual, self.registry, self.charts, self.trace)

    @property
    def registry(self) -> tuple:
        if self._registry is None:
            book = self._book
            _set(self, "_registry", book.registry + tuple(
                DivisorRecord(e.new_divisor[0], e.new_divisor[1], e.index)
                for e in book.events[book.start:self._n] if e.new_divisor))
        return self._registry

    @property
    def charts(self) -> tuple:
        if self._charts is None:
            book = self._book
            if self._n == len(book.events):
                items = {**book.active, **book.resolved}
            else:
                items = _multiset(book.charts)
                for event in book.events[book.start:self._n]:
                    for chart, _ in event.parents:
                        del items[chart]
                    for chart, count in event.children:
                        items[chart] = items.get(chart, 0) + count
            _set(self, "_charts", _sorted_chart_items(items))
        return self._charts

    @property
    def trace(self) -> tuple:
        if self._trace is None:
            _set(self, "_trace", tuple(self._book.events[:self._n]))
        return self._trace

    def _own(self) -> "_Book":
        """A book whose newest state is this one; an older state starts a new one."""
        book = self._book
        if book is None or self._n != len(book.events):
            book = _Book(self.dual, self.registry, self.charts, self.trace)
            _set(self, "_book", book)
        return book

    def is_finished(self) -> bool:
        return not self._own().active

    def dual_bytes(self) -> str:
        return dc.canonical_json(self.dual)

    def census(self) -> dict:
        """Final chart census: mdeg -> (count, classification)."""
        out = {}
        for chart, n in self.charts:
            deg = cc.mdeg(chart)
            if deg.dx == 1:
                kind = "snc-certified"
            elif (deg.dy, deg.dz) == (0, 0):
                kind = "smooth"
            else:
                kind = "unresolved"
            count, _ = out.get(deg, (0, kind))
            out[deg] = (count + n, kind)
        return out


class _Book:
    """What a line of states produced by ``step`` from one another shares.

    ``events`` only grows, and each state of the line sees a prefix of it.
    The first state of the line sits at position ``start`` with the given
    ``registry`` and ``charts``.  The live views describe only the newest
    state, which ``step`` advances in place: ``active`` and ``resolved``
    split its chart multiset (no rule matches a resolved chart, so that
    part is an inert sink), ``coeff`` maps its registered divisors to
    their coefficients, ``pairs`` holds the same (id, coefficient) pairs
    as a set, and ``labels`` holds the vertex and cell labels.  Once
    ``rank_by`` has named an id ordering, ``key`` reads its ``RunConfig.key``
    through a memo of this book, ``groups`` maps each ``cc.propose``
    rank of an active chart to the charts that propose it, and ``heap``
    holds those ranks, pushed as a group opens and popped by ``drop``.

    The least rank is the center ``select_center`` picks, and its charts
    are exactly those the rule matches: a chart that contains the selected
    pair (and divisors) cannot propose anything smaller, so it proposes
    that very rule; in B1 this holds because a divisor carries its
    registry coefficient in every chart of a valid state.
    """

    def __init__(self, dual, registry, charts, trace):
        self.dual = dual
        self.start = len(trace)
        self.events = list(trace)
        self.registry = registry
        self.charts = charts
        self.coeff = {r.id: r.coeff for r in registry}
        self.pairs = set(self.coeff.items())
        self.labels = _labels(dual)
        self.key = self.ordering = None
        self.active, self.resolved, self.groups, self.heap = {}, {}, {}, []
        for chart, count in charts:
            self.add(chart, count)

    def rank_by(self, config: RunConfig) -> None:
        """File the active charts under their ranks for ``config``'s ordering."""
        if self.key is None or self.ordering != config.ordering:
            self.ordering, self.key = config.ordering, _Keys(config.key).__getitem__
            self.groups, self.heap = {}, []
            for chart in self.active:
                self._file(chart)

    def _file(self, chart: ChartState):
        rank = cc.propose(chart, self.key)
        group = self.groups.setdefault(rank, set())
        if not group:
            heappush(self.heap, rank)
        group.add(chart)

    def add(self, chart: ChartState, count: int):
        """Add ``count`` copies of a chart, filing it if it is new and active."""
        if cc.is_resolved(chart):
            self.resolved[chart] = self.resolved.get(chart, 0) + count
        elif chart in self.active:
            self.active[chart] += count
        else:
            self.active[chart] = count
            if self.key is not None:
                self._file(chart)

    def drop(self):
        """Drop the active charts filed under the least rank, all their copies."""
        for chart in self.groups.pop(heappop(self.heap)):
            del self.active[chart]


class _Keys(dict):
    """The values of the id ordering ``key``, each computed once."""

    def __init__(self, key):
        self.key = key

    def __missing__(self, ident):
        value = self[ident] = self.key(ident)
        return value


def _multiset(items) -> dict:
    out = {}
    for chart, count in items:
        out[chart] = out.get(chart, 0) + count
    return out


def _sorted_chart_items(multiset: dict) -> tuple:
    charts = sorted(multiset, key=ChartState.sort_key)
    return tuple(zip(charts, map(multiset.__getitem__, charts)))


def _labels(dual: dc.DualComplex) -> tuple:
    """(the ids in the labels of the vertices, the labels of all cells)."""
    vertices, spans = set(), set()
    for cell in dual.cells.values():
        if cell.label:
            spans.add(cell.label)
            if cell.dim == 0:
                vertices.update(cell.label)
    return vertices, spans


def _misfits(items, labels: tuple, pairs: set) -> list:
    """The (chart, count) items in which ``_chart_problems`` finds something
    wrong, each tested in C-level passes; ``pairs`` holds the registered
    (id, coefficient) pairs."""
    vertices, spans = labels
    return [(chart, count) for chart, count in items
            if not (type(count) is int and count >= 1 and chart.x_indices <= vertices
                    and chart.x_indices in spans and pairs.issuperset(chart.exponents))]


def _chart_problems(chart: ChartState, count, labels: tuple, coeff: dict) -> list:
    """What is wrong with one (chart, count) item.

    ``labels`` is ``_labels`` of the dual complex; ``coeff`` maps each
    registered divisor id to its coefficient.
    """
    out = []
    if type(count) is not int or count < 1:
        out.append(f"chart {chart!r} has count {count}")
    vertices, spans = labels
    missing = chart.x_indices - vertices
    if missing:
        out.append(f"chart {chart!r} uses x-indices {sorted(missing)} "
                   f"absent from the dual complex vertices")
    elif chart.x_indices not in spans:
        out.append(f"chart {chart!r} uses x-indices {sorted(chart.x_indices)} "
                   f"that span no cell of the dual complex")
    for div, a in chart.exponents:
        c = coeff.get(div)
        if c is None:
            out.append(f"chart {chart!r} references unregistered divisor {div!r}")
        elif c != a:
            out.append(f"chart {chart!r} carries {div!r}^{a} but the "
                       f"registry coefficient is {c}")
    return out


def validate_state(state: ResolutionState) -> list:
    """Internal consistency: each divisor registered once, registry-backed
    exponents, x-indices that label a cell."""
    counts = Counter(r.id for r in state.registry)
    out = [f"divisor {div!r} is registered {counts[div]} times"
           for div in sorted(counts) if counts[div] > 1]
    labels = _labels(state.dual)
    coeff = {r.id: r.coeff for r in state.registry}
    return out + [problem for chart, count in _misfits(state.charts, labels, set(coeff.items()))
                  for problem in _chart_problems(chart, count, labels, coeff)]


def _breach(problems) -> InvariantBreach:
    """The error for a state, or an event's children, that ``problems`` find inconsistent."""
    return InvariantBreach("state invariants broken: " + "; ".join(problems))


def _validated(state: ResolutionState, breach=False) -> ResolutionState:
    """Check a state in full; ValueError, or with ``breach`` InvariantBreach,
    if it is inconsistent."""
    problems = validate_state(state)
    if problems:
        raise _breach(problems) if breach else ValueError("; ".join(problems))
    _set(state, "_valid", True)
    return state


def seed_from_snc(snc: sm.SncVariety, coranks: dict) -> ResolutionState:
    """One chart per deep stratum, with the assigned determinant size.

    Every stratum lying in at least two components needs an entry in
    ``coranks`` (m >= 0); singleton strata are smooth points of the
    configuration and get no chart.
    """
    dual = sm.dual_complex_of(snc)
    by_id = {s.id: s for s in snc.strata}
    for sid, m in coranks.items():
        if sid not in by_id:
            raise ValueError(f"corank assigned to unknown stratum {sid!r}")
        if len(by_id[sid].indices) < 2:
            raise ValueError(f"corank assigned to singleton stratum {sid!r}")
        if type(m) is not int or m < 0:
            raise ValueError(f"corank of stratum {sid!r} must be an integer >= 0, "
                             f"got {m!r}")
    charts = []
    for s in snc.strata:
        if len(s.indices) < 2:
            continue
        if s.id not in coranks:
            raise ValueError(f"missing corank for stratum {s.id!r}")
        charts.append((ChartState.of(s.indices, coranks[s.id], {}), 1))
    return _validated(ResolutionState(dual, (), _sorted_chart_items(_multiset(charts))))


def with_initial_divisors(state: ResolutionState, divisors, placements) -> ResolutionState:
    """Attach pre-existing divisors to a freshly seeded state.

    ``divisors`` is a list of (id, coefficient); ``placements`` maps chart
    positions (index into state.charts) to lists of divisor ids carried by
    that chart.  Used by the random instance generator.  Nothing is
    coerced: an id that is not a ``str`` or a coefficient that is not an
    ``int`` raises ValueError, as ``DivisorRecord`` does.
    """
    registry = list(state.registry)
    coeff = {}
    for div, a in divisors:
        registry.append(DivisorRecord(div, a, None))
        coeff[div] = a
    charts = []
    for pos, (chart, n) in enumerate(state.charts):
        extra = {d: coeff[d] for d in placements.get(pos, ())}
        charts.append((ChartState.of(chart.x_indices, chart.det_size,
                                     {**chart.exponent_map(), **extra}), n))
    return _validated(ResolutionState(state.dual, tuple(registry),
                                      _sorted_chart_items(_multiset(charts)), state.trace))


# --------------------------------------------------------------------------
# Center selection
# --------------------------------------------------------------------------

def select_center(state: ResolutionState,
                  config: RunConfig = RunConfig()) -> RuleApplication | None:
    """The lowest-phase applicable rule, tie-broken by the id ordering.

    None iff every chart is resolved.  Phase A targets the largest
    determinant size present at an unresolved point; the monomial phases
    pick the smallest eligible divisor (largest exponent first in B1);
    phase C picks the smallest component index carrying a degree-one
    factor.  Pairs are compared by the ``config.key`` of each member in turn.

    The answer is the least rank the unresolved charts propose (see
    ``chart_calculus.propose``), read from the state's book; a state of
    unknown validity is checked in full first (InvariantBreach if it fails).
    """
    rank = _center(state, config)[1]
    return None if rank is None else RuleApplication(*rank[-4:])


def _center(state: ResolutionState, config: RunConfig) -> tuple:
    """(book, least rank) of a state; the rank is None once resolved."""
    if not state._valid:
        _validated(state, breach=True)
    book = state._own()
    book.rank_by(config)
    return book, book.heap[0] if book.heap else None


def step(state: ResolutionState,
         config: RunConfig = RunConfig()) -> tuple:
    """Apply the selected rule to every chart meeting its center.

    Returns (new state, event).  At most one divisor is registered per
    event and is shared by all children; certificates of strict
    lexicographic decrease are recorded, and ``BlowupEvent`` enforces them.

    Only the produced children and the new divisor are checked: the
    surviving charts were valid, registry records never change, and the
    dual complex is immutable.  Every check runs before the shared book
    is updated, so a failing event leaves ``state`` intact.
    """
    book, rank = _center(state, config)
    if rank is None:
        raise NoApplicableRule("every chart is resolved")
    rule = cc.RULES[rank[-4]]
    # Every chart filed under the least rank proposes exactly this rule.
    active = book.active
    matched = [(c, active[c]) for c in sorted(book.groups[rank], key=ChartState.sort_key)]

    index = len(book.events)
    exc_name = None
    if rule.exceptional:
        serial = index + 1
        while f"w{serial}" in book.coeff:
            serial += 1
        exc_name = f"w{serial}"
    app = cc.application(rank, matched[0][0], config.exponent_policy, exc_name)
    new_divisor = app.new_divisor

    certificates = set()
    produced = {}
    children, policy = cc.children, config.exponent_policy
    for chart, count in matched:
        parent_deg = chart.deg
        for child, multiplicity, _ in children(chart, app, policy):
            certificates.add((parent_deg, child.deg))
            produced[child] = produced.get(child, 0) + count * multiplicity

    event = BlowupEvent(
        index=index,
        phase=rule.phase,
        rule=app,
        parents=tuple(matched),
        children=_sorted_chart_items(produced),
        new_divisor=new_divisor,
        exceptional=exc_name,
        lex=tuple(sorted(certificates)),
    )

    # The new divisor counts as registered while the children are checked;
    # the book keeps it only if they pass.
    labels, pairs = book.labels, book.pairs
    if new_divisor:
        pairs.add(new_divisor)
    failed = _misfits(produced.items(), labels, pairs)
    if failed:
        coeff = dict(pairs)  # the registry with the new divisor: its ids are distinct
        pairs.discard(new_divisor)
        raise _breach(problem for chart, count in failed
                      for problem in _chart_problems(chart, count, labels, coeff))

    book.drop()
    for chart, count in produced.items():
        book.add(chart, count)
    if new_divisor:
        book.coeff[exc_name] = new_divisor[1]
    book.events.append(event)
    if state._n == book.start:  # the first state of a line has its fields built
        _set(state, "_book", None)
    return ResolutionState._at(book, index + 1), event


def run(state: ResolutionState,
        config: RunConfig = RunConfig()) -> tuple:
    """Iterate to the fixed point; returns (final state, list of events).

    The final state is fully resolved and shares the seed's dual complex;
    the event ceiling aborts runaway loops.  A state of unknown validity,
    even a resolved one, is checked in full first, as ``step`` checks it.
    """
    start = state._n
    _center(state, config)
    while not state.is_finished():
        if state._n - start >= config.event_ceiling:
            raise CeilingExceeded(
                f"{config.event_ceiling} events without reaching a fixed point")
        state, _ = step(state, config)
    return state, state._book.events[start:state._n]


# --------------------------------------------------------------------------
# Serialization and replay
# --------------------------------------------------------------------------

_PLAIN = frozenset((str, int, type(None)))  # the scalar types the program writes


def _leaf(value) -> str:
    """The JSON text of a str, an int or None, as ``json.dumps`` writes it."""
    if isinstance(value, str):
        return _encode_str(value)
    return "null" if value is None else int.__repr__(value)


def rule_to_obj(app: RuleApplication) -> dict:
    return {"kind": app.kind, "pair": list(app.pair),
            "divisors": list(app.divisors),
            "det_size": app.det_size,
            "new_divisor": list(app.new_divisor) if app.new_divisor else None}


def _item_obj(chart: ChartState, count) -> dict:
    return {"chart": cc.chart_to_obj(chart), "count": count}


def _chart_items_from_obj(entries) -> tuple:
    if not isinstance(entries, list):
        raise ValueError(f"chart items must be an array, got {entries!r}")
    items = []
    for e in entries:
        # A count below 1 is refused here: summed with other entries of
        # its chart it would pass the state check's count test.
        if not isinstance(e, dict) or type(e.get("count")) is not int or e["count"] < 1:
            raise ValueError(f"a chart item needs a positive integer 'count', got {e!r}")
        items.append((cc.chart_from_obj(e.get("chart")), e["count"]))
    return tuple(items)


def _record_from_obj(obj) -> DivisorRecord:
    if not isinstance(obj, dict):
        raise ValueError(f"a registry entry must be an object, got {obj!r}")
    return DivisorRecord(obj.get("id"), obj.get("coeff"), obj.get("birth"))


def event_to_obj(event: BlowupEvent) -> dict:
    return {
        "index": event.index,
        "phase": event.phase,
        "rule": rule_to_obj(event.rule),
        "parents": list(starmap(_item_obj, event.parents)),
        "children": list(starmap(_item_obj, event.children)),
        "new_divisor": list(event.new_divisor) if event.new_divisor else None,
        "exceptional": event.exceptional,
        "lex": [[list(parent), list(child)] for parent, child in event.lex],
    }


def state_to_obj(state: ResolutionState) -> dict:
    return {
        "dual": dc.to_json_obj(state.dual),
        "registry": [{"id": r.id, "coeff": r.coeff, "birth": r.birth}
                     for r in state.registry],
        "charts": list(starmap(_item_obj, state.charts)),
    }


def state_from_obj(obj: dict) -> ResolutionState:
    """Parse a state document; ValueError if it is malformed (a key other
    than 'dual', 'registry' and 'charts' included), its dual complex is
    invalid or the state is inconsistent."""
    if not isinstance(obj, dict) or "dual" not in obj or "charts" not in obj:
        raise ValueError("state document needs 'dual' and 'charts'")
    extra = [k for k in obj if k not in ("dual", "registry", "charts")]
    if extra:
        raise ValueError(f"state key {extra[0]!r} is not part of a state document")
    registry = obj.get("registry", [])
    if not isinstance(registry, list):
        raise ValueError(f"state 'registry' must be an array, got {registry!r}")
    dual = dc.from_json_obj(obj["dual"])
    violations = dc.validate(dual)
    if violations:
        raise ValueError("; ".join(map(str, violations)))
    return _validated(ResolutionState(
        dual, tuple(_record_from_obj(r) for r in registry),
        _sorted_chart_items(_multiset(_chart_items_from_obj(obj["charts"])))))


def trace_to_obj(seed: ResolutionState, events, final: ResolutionState,
                 config: RunConfig) -> dict:
    return {
        "config": config.to_json_obj(),
        "assumptions": list(MODEL_ASSUMPTIONS),
        "seed": state_to_obj(seed),
        "events": [event_to_obj(e) for e in events],
        "final": state_to_obj(final),
    }


def write_trace(seed: ResolutionState, events, final: ResolutionState,
                config: RunConfig, write) -> None:
    """Write ``json.dumps(trace_to_obj(seed, events, final, config),
    indent=1, sort_keys=True)`` through ``write`` piece by piece, so
    writing never holds the whole document; ``events`` may be a one-shot
    iterator, each event handed to ``write`` as soon as it is laid out.
    The input is what ``run`` makes, ints, strs and None: an int fills its
    template slot as it is, a str goes through the string encoder.

    The keys go in sorted order: ``assumptions`` and ``config``, laid out
    by ``json.dumps``, then the events, ``final`` and ``seed``.  Each event, chart
    item, dual cell and registry record is laid out from a template at its
    final depth; the string encoder escapes every control character, so
    the only newlines in a text are layout ones and re-indenting is exact.
    A chart is laid out once while it is live, in the form an event embeds
    it: a child's text is kept, reused by the final state and dropped when
    an event consumes the child, and a seed chart's text is kept for the
    seed, written last.  So writing holds the text of the live and seed
    charts and of one event, not of the trace; the bytes never depend on
    the memo.  A dual complex that both states share is laid out once.
    """
    texts, entries = {}, _Entries()
    get, keep, pop = texts.get, texts.setdefault, texts.pop
    in_seed = {chart for chart, _ in seed.charts}

    def event_text(e) -> str:
        # Parents first: an event consumes its parents, then produces its
        # children.  A consumed chart's text is dropped unless it is a seed chart.
        parents = [_ITEM % (get(c) or keep(c, _chart_text(c, entries)) if c in in_seed
                            else pop(c, None) or _chart_text(c, entries), n)
                   for c, n in e.parents]
        children = [_ITEM % (get(c) or keep(c, _chart_text(c, entries)), n) for c, n in e.children]
        rule = e.rule
        return _EVENT % (
            _array(children, "   "), _leaf(e.exceptional), e.index,
            _array([_LEX % (*p, *c) for p, c in e.lex], "   "),
            _scalars(e.new_divisor, "   "), _array(parents, "   "), _encode_str(e.phase),
            _leaf(rule.det_size), _array(list(map(_encode_str, rule.divisors)), "    "),
            _encode_str(rule.kind), _scalars(rule.new_divisor, "    "),
            _array(list(map(_encode_str, rule.pair)), "    "))

    def write_state(state, dual: str) -> None:
        write('{\n  "charts": ')
        # A state's chart sits one level shallower than an event's.
        _write_array(write, (_STATE_ITEM % ((get(c) or keep(c, _chart_text(c, entries)))
                                            .replace("\n ", "\n"), n)
                             for c, n in state.charts), "  ")
        records = [_RECORD % (_leaf(r.birth), r.coeff, _encode_str(r.id))
                   for r in state.registry]
        write(',\n  "dual": ' + dual + ',\n  "registry": ' + _array(records, "  ") + "\n }")

    dual = _dual_text(seed.dual)
    head = {"assumptions": list(MODEL_ASSUMPTIONS), "config": config.to_json_obj()}
    # The head's text without its closing "\n}", which the trace writes last.
    write(json.dumps(head, indent=1, sort_keys=True)[:-2] + ',\n "events": ')
    _write_array(write, map(event_text, events), " ")
    write(',\n "final": ')
    write_state(final, dual if final.dual is seed.dual else _dual_text(final.dual))
    write(',\n "seed": ')
    write_state(seed, dual)
    write("\n}")


# The templates of an event at depth 2 (keys sorted), of a chart item and a
# lex pair in it, of a chart in a chart item, and of a state's chart item,
# dual cell and registry record; a chart slot takes ``_chart_text``.
_EVENT = ('{\n   "children": %s,\n   "exceptional": %s,\n   "index": %s,\n   "lex": %s,\n'
          '   "new_divisor": %s,\n   "parents": %s,\n   "phase": %s,\n   "rule": {\n'
          '    "det_size": %s,\n    "divisors": %s,\n    "kind": %s,\n'
          '    "new_divisor": %s,\n    "pair": %s\n   }\n  }')
_ITEM = '{\n     "chart": %s,\n     "count": %s\n    }'
_LEX = ("[\n     [\n      %s,\n      %s,\n      %s\n     ],\n"
        "     [\n      %s,\n      %s,\n      %s\n     ]\n    ]")
_CHART = '{\n      "a": %s,\n      "m": %d,\n      "x": [\n       %s\n      ]\n     }'
_STATE_ITEM = '{\n    "chart": %s,\n    "count": %s\n   }'
_CELL = '{\n     "dim": %d,\n     "facets": %s,\n     "id": %s%s\n    }'
_RECORD = '{\n    "birth": %s,\n    "coeff": %s,\n    "id": %s\n   }'


def _dual_text(dual: dc.DualComplex) -> str:
    """The text of ``dc.to_json_obj(dual)`` as a state embeds it, at depth 2."""
    pad = "     "
    cells = [_CELL % (c.dim, _scalars(c.facets, pad, "[]"), _encode_str(c.id),
                      "" if c.label is None
                      else ',\n     "label": ' + _scalars(sorted(c.label), pad, "[]"))
             for c in dual.cells.values()]
    return '{\n   "cells": ' + _array(cells, "   ") + "\n  }"


def _write_array(write, texts, pad: str) -> None:
    """Write ``_array`` of ``texts``, each text as soon as it is made."""
    lead = "[\n " + pad
    for text in texts:
        write(lead + text)
        lead = ",\n " + pad
    write("[]" if lead[0] == "[" else "\n" + pad + "]")


def _array(texts: list, pad: str) -> str:
    """The array of the laid-out ``texts`` whose closing bracket is
    indented by ``pad``."""
    if not texts:
        return "[]"
    inner = "\n " + pad
    return "[" + inner + ("," + inner).join(texts) + "\n" + pad + "]"


def _scalars(values, pad: str, empty: str = "null") -> str:
    """``_array`` of scalars, or ``empty`` for an empty or None ``values``."""
    return _array(list(map(_leaf, values)), pad) if values else empty


class _Entries(dict):
    """The text ``"id": exponent`` of each (id, exponent) pair, made once."""

    def __missing__(self, pair):
        text = self[pair] = _encode_str(pair[0]) + ": " + int.__repr__(pair[1])
        return text


def _chart_text(chart: ChartState, entries: _Entries) -> str:
    """The text of ``cc.chart_to_obj(chart)`` as ``_ITEM`` embeds it, at depth 5."""
    exps = ",\n       ".join(map(entries.__getitem__, chart.exponents))
    return _CHART % ("{\n       %s\n      }" % exps if exps else "{}", chart.det_size,
                     ",\n       ".join(map(_encode_str, chart.xs)))


class ReplayResult(_Record):
    __slots__ = _fields = ("ok", "final", "detail")

    def __init__(self, ok: bool, final: ResolutionState, detail: str):
        _set(self, "ok", ok)
        _set(self, "final", final)
        _set(self, "detail", detail)


def replay_trace(doc: dict) -> ReplayResult:
    """Re-run a trace from its recorded seed and config; it replays iff it
    is ``trace_to_obj`` of the re-run, compared type-strictly, which is the
    verdict of a byte comparison of their canonical JSON text.  The first
    part that differs, in key order and event by event, is named.  A
    document that is not an object with all five keys raises ValueError
    before anything runs."""
    if not (isinstance(doc, dict) and "seed" in doc and "final" in doc):
        raise ValueError("a trace must be an object with 'seed' and 'final'")
    for key in ("assumptions", "config", "events"):
        if key not in doc:
            raise ValueError(f"a trace must have {key!r}")
    seed = state_from_obj(doc["seed"])
    config = RunConfig.from_json_obj(doc["config"])
    recorded = doc["events"]
    if not isinstance(recorded, list):
        raise ValueError(f"trace 'events' must be an array, got {recorded!r}")
    final, events = run(seed, config)
    made = trace_to_obj(seed, events, final, config)
    extra = [k for k in doc if k not in made]
    if extra:
        return ReplayResult(False, final, f"trace key {extra[0]!r} is not part of a trace")
    if len(events) != len(recorded):
        return ReplayResult(False, final, f"event count {len(events)} != recorded {len(recorded)}")
    for key in sorted(made):
        parts = (zip(made[key], recorded, (f"event {e.index}" for e in events))
                 if key == "events" else [(made[key], doc[key], key)])
        for part, want, name in parts:
            if part != want or not _strict(want):
                return ReplayResult(False, final, f"{name} differs from the re-run")
    return ReplayResult(True, final, "replay reproduced the trace")


def _strict(value) -> bool:
    """No bool and no float in ``value``: ``==`` equates them with ints."""
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, list):
        return not isinstance(value, (bool, float))
    for item in value:
        if type(item) not in _PLAIN and not _strict(item):
            return False
    return True
