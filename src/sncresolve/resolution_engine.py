"""The three-phase rewriting engine over a global configuration state.

A state holds the frozen dual complex of the boundary configuration, a
registry of exceptional divisors with their coefficients, and a multiset
of chart descriptors.  Each event picks one globally defined center,
rewrites every chart meeting it into its children, optionally registers
one new divisor shared by all children, and records a certificate that
every parent-to-child step strictly lowered the lexicographic invariant.
The multiset of invariants therefore decreases in the Dershowitz-Manna
order at every event, which forces termination; an explicit event ceiling
guards the implementation rather than the mathematics.

Phases: A-det shrinks determinants, B1/B2/B3 shrink the divisor monomial,
C-bin splits the final degree-one factor; ``chart_calculus.RULES`` holds
each rule's facts.  The dual complex is immutable and shared by every
state of a run, so no event can change it.

The engine is incremental.  Resolved charts sit in an inert sink that no
rule matches; each unresolved chart is filed under the one rule that
would rewrite it, ranked by phase and tie-break.  An event takes the
least-ranked rule and the charts filed under it as its parents, checks
only the children it produces, and updates the newest state in place,
so its cost follows the charts it touches rather than the whole state
(apart from one minimum over the distinct proposed rules).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _encode_str

from . import chart_calculus as cc
from . import dual_complex as dc
from . import snc_model as sm
from .chart_calculus import ChartState, MultiDegree, RuleApplication


class InvariantBreach(RuntimeError):
    """An internal invariant failed; the offending certificate is attached."""

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CeilingExceeded(RuntimeError):
    """The configured event ceiling was hit before reaching a fixed point."""


class NoApplicableRule(RuntimeError):
    """step() was called on a fully resolved state."""


PHASE_ORDER = [rule.phase for rule in cc.RULES.values()]

MODEL_ASSUMPTIONS = (
    "descriptor-level bookkeeping: one descriptor stands for every point "
    "of a (stratum, det-size) class, so blow-up centers over distinct "
    "index pairs commute by construction",
    "det-rule exceptional coefficient: policy 'oracle' assigns m-2, the "
    "value measured by strict-transform division; policy 'paper' assigns "
    "the alternate value m^2-2, which the measurement contradicts for "
    "every m >= 2 (at m=2: 2 versus measured 0)",
)


@dataclass(frozen=True)
class RunConfig:
    """Ordering, exceptional-exponent policy, and the event ceiling."""

    ordering: tuple | None = None
    exponent_policy: str = "oracle"
    event_ceiling: int = 10_000

    def __post_init__(self):
        if self.exponent_policy not in ("oracle", "paper"):
            raise ValueError(f"unknown exponent policy {self.exponent_policy!r}")
        if self.event_ceiling < 1:
            raise ValueError("event ceiling must be >= 1")

    def key(self, ident: str):
        """Total order on ids: explicit ordering first, then lexicographic."""
        if self.ordering and ident in self.ordering:
            return (0, self.ordering.index(ident), ident)
        return (1, 0, ident)

    def pair_key(self, pair):
        return tuple(self.key(i) for i in pair)

    def to_json_obj(self) -> dict:
        return {"ordering": list(self.ordering) if self.ordering else None,
                "exponent_policy": self.exponent_policy,
                "event_ceiling": self.event_ceiling}

    @staticmethod
    def from_json_obj(obj: dict) -> "RunConfig":
        ordering = obj.get("ordering")
        return RunConfig(tuple(ordering) if ordering else None,
                         obj.get("exponent_policy", "oracle"),
                         obj.get("event_ceiling", 10_000))


@dataclass(frozen=True)
class DivisorRecord:
    id: str
    coeff: int
    birth: int | None  # event index, None for divisors present at seed time

    def __post_init__(self):
        if self.coeff < 1:
            raise ValueError(f"divisor {self.id!r} registered with coefficient "
                             f"{self.coeff} < 1")


@dataclass(frozen=True)
class BlowupEvent:
    index: int
    phase: str
    rule: RuleApplication
    parents: tuple   # ((ChartState, count), ...)
    children: tuple  # ((ChartState, count), ...)
    new_divisor: tuple | None
    exceptional: str | None
    lex: tuple       # ((parent mdeg, child mdeg), ...), all strictly decreasing

    def __post_init__(self):
        for parent_deg, child_deg in self.lex:
            if not tuple(child_deg) < tuple(parent_deg):
                raise InvariantBreach(
                    f"lex certificate violated at event {self.index}: "
                    f"{tuple(parent_deg)} -> {tuple(child_deg)}",
                    certificate=(parent_deg, child_deg))


_set = object.__setattr__


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

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ResolutionState is immutable; cannot set {name!r}")

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

    def unresolved(self) -> list:
        return [(chart, n) for chart, n in self.charts if not cc.is_resolved(chart)]

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
    their coefficients, and ``index`` groups the active charts for one
    id ordering.
    """

    def __init__(self, dual, registry, charts, trace):
        self.dual = dual
        self.start = len(trace)
        self.events = list(trace)
        self.registry = registry
        self.charts = charts
        self.coeff = {r.id: r.coeff for r in registry}
        self.active, self.resolved = {}, {}
        for chart, count in _multiset(charts).items():
            (self.resolved if cc.is_resolved(chart) else self.active)[chart] = count
        self.index = None
        self.labels = None

    def index_for(self, config: RunConfig) -> "_Index":
        if self.index is None or self.index.ordering != config.ordering:
            self.index = _Index(config, self.active)
        return self.index

    def vertex_labels(self) -> set:
        if self.labels is None:
            self.labels = _vertex_labels(self.dual)
        return self.labels


class _Index:
    """The head's unresolved charts, filed under the rule each proposes.

    ``groups`` maps each rank from ``cc.propose`` to the charts proposing
    it.  The least rank is the center ``select_center`` picks, and its
    charts are exactly those the rule matches.  A chart that contains the
    selected pair (and divisors) cannot propose anything smaller, so it
    proposes that very rule; in B1 this holds because a divisor carries
    its registry coefficient in every chart of a valid state.
    """

    def __init__(self, config: RunConfig, charts):
        self.ordering = config.ordering
        self.key = config.key
        self.rank = {}    # chart -> its proposal
        self.groups = {}  # rank -> charts proposing it
        for chart in charts:
            self.add(chart)

    def add(self, chart: ChartState):
        rank = self.rank[chart] = cc.propose(chart, self.key)
        group = self.groups.get(rank)
        if group is None:
            group = self.groups[rank] = set()
        group.add(chart)

    def remove(self, chart: ChartState):
        rank = self.rank.pop(chart)
        group = self.groups[rank]
        group.remove(chart)
        if not group:
            del self.groups[rank]

    def least(self):
        return min(self.groups, default=None)


def _multiset(items) -> dict:
    out = {}
    for chart, count in items:
        out[chart] = out.get(chart, 0) + count
    return out


def _sorted_chart_items(multiset: dict) -> tuple:
    return tuple(sorted(((c, n) for c, n in multiset.items() if n),
                        key=lambda item: item[0].sort_key()))


def _vertex_labels(dual: dc.DualComplex) -> set:
    labels = set()
    for cell in dual.cells_of_dim(0):
        if cell.label:
            labels.update(cell.label)
    return labels


def _chart_problems(chart: ChartState, count, vertex_labels: set, coeff) -> list:
    """What is wrong with one (chart, count) item.

    ``coeff(div)`` is the registry coefficient of a divisor id, None if
    it is unregistered.
    """
    out = []
    if count < 1:
        out.append(f"chart {chart!r} has count {count}")
    missing = chart.x_indices - vertex_labels
    if missing:
        out.append(f"chart {chart!r} uses x-indices {sorted(missing)} "
                   f"absent from the dual complex vertices")
    for div, a in chart.exponents:
        c = coeff(div)
        if c is None:
            out.append(f"chart {chart!r} references unregistered divisor {div!r}")
        elif c != a:
            out.append(f"chart {chart!r} carries {div!r}^{a} but the "
                       f"registry coefficient is {c}")
    return out


def validate_state(state: ResolutionState) -> list:
    """Internal consistency: registry-backed exponents, known vertex labels."""
    labels = _vertex_labels(state.dual)
    coeff = {r.id: r.coeff for r in state.registry}.get
    return [problem for chart, count in state.charts
            for problem in _chart_problems(chart, count, labels, coeff)]


def _validated(state: ResolutionState) -> ResolutionState:
    """Check a state in full; ValueError if it is inconsistent."""
    problems = validate_state(state)
    if problems:
        raise ValueError("; ".join(problems))
    _set(state, "_valid", True)
    return state


def _checked_book(state: ResolutionState) -> _Book:
    """The state's own book, after a full check if its validity is unknown.

    States that ``step`` produces are valid by construction.
    """
    if not state._valid:
        problems = validate_state(state)
        if problems:
            raise InvariantBreach("state invariants broken: " + "; ".join(problems))
        _set(state, "_valid", True)
    return state._own()


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
        if not isinstance(m, int) or m < 0:
            raise ValueError(f"corank of stratum {sid!r} must be an integer >= 0, "
                             f"got {m!r}")
    charts = {}
    for s in snc.strata:
        if len(s.indices) < 2:
            continue
        if s.id not in coranks:
            raise ValueError(f"missing corank for stratum {s.id!r}")
        chart = ChartState.of(s.indices, coranks[s.id], {})
        charts[chart] = charts.get(chart, 0) + 1
    return _validated(ResolutionState(dual, (), _sorted_chart_items(charts)))


def with_initial_divisors(state: ResolutionState, divisors, placements) -> ResolutionState:
    """Attach pre-existing divisors to a freshly seeded state.

    ``divisors`` is a list of (id, coefficient); ``placements`` maps chart
    positions (index into state.charts) to lists of divisor ids carried by
    that chart.  Used by the random instance generator.
    """
    registry = list(state.registry)
    coeff = {}
    for div, a in divisors:
        registry.append(DivisorRecord(str(div), int(a), None))
        coeff[str(div)] = int(a)
    charts = {}
    for pos, (chart, n) in enumerate(state.charts):
        extra = {d: coeff[d] for d in placements.get(pos, ())}
        new_chart = ChartState.of(chart.x_indices, chart.det_size,
                                  {**chart.exponent_map(), **extra})
        charts[new_chart] = charts.get(new_chart, 0) + n
    return _validated(ResolutionState(state.dual, tuple(registry),
                                      _sorted_chart_items(charts), state.trace))


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
    factor.  Pairs are compared by ``config.pair_key``.

    The answer is the least rank the unresolved charts propose (see
    ``chart_calculus.propose``), read from the index.  B1 ranks a
    divisor by the exponent its charts carry, which is the registry
    coefficient only in a valid state, so a state of unknown validity is
    checked in full first (InvariantBreach if it fails).
    """
    rank = _center(state, config)[2]
    return None if rank is None else RuleApplication(*rank[-4:])


def _center(state: ResolutionState, config: RunConfig) -> tuple:
    """(book, index, least rank) of a state; the rank is None once resolved."""
    book = _checked_book(state)
    idx = book.index_for(config)
    return book, idx, idx.least()


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
    book, idx, rank = _center(state, config)
    if rank is None:
        raise NoApplicableRule("every chart is resolved")
    rule = cc.RULES[rank[-4]]
    # Every chart filed under the least rank proposes exactly this rule.
    matched = sorted(((c, book.active[c]) for c in idx.groups[rank]),
                     key=lambda item: item[0].sort_key())

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
    for chart, count in matched:
        parent_deg = chart.deg
        for child in cc.children(chart, app, policy=config.exponent_policy):
            certificates.add((parent_deg, child.state.deg))
            total = count * child.multiplicity
            produced[child.state] = produced.get(child.state, 0) + total

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

    if new_divisor:
        book.coeff[exc_name] = new_divisor[1]
    labels = book.vertex_labels()
    problems = [problem for chart, count in produced.items()
                for problem in _chart_problems(chart, count, labels, book.coeff.get)]
    if problems:
        if new_divisor:
            del book.coeff[exc_name]
        raise InvariantBreach("state invariants broken: " + "; ".join(problems))

    for chart, _ in matched:
        del book.active[chart]
        idx.remove(chart)
    for chart, count in produced.items():
        if cc.is_resolved(chart):
            book.resolved[chart] = book.resolved.get(chart, 0) + count
        elif chart in book.active:
            book.active[chart] += count
        else:
            book.active[chart] = count
            idx.add(chart)
    book.events.append(event)
    if state._n == book.start:  # the first state of a line has its fields built
        _set(state, "_book", None)
    return ResolutionState._at(book, index + 1), event


def run(state: ResolutionState,
        config: RunConfig = RunConfig()) -> tuple:
    """Iterate to the fixed point; returns (final state, list of events).

    The final state is fully resolved and shares the seed's dual complex;
    the event ceiling aborts runaway loops.
    """
    start = state._n
    while not state.is_finished():
        if state._n - start >= config.event_ceiling:
            raise CeilingExceeded(
                f"{config.event_ceiling} events without reaching a fixed point")
        state, _ = step(state, config)
    return state, state._book.events[start:state._n]


# --------------------------------------------------------------------------
# Serialization and replay
# --------------------------------------------------------------------------

def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# Pieces that write_json collects before handing them to ``write`` at once.
_FLUSH_AT = 4096


def write_json(obj, write) -> None:
    """Write ``obj`` as ``json.dump(obj, fp, indent=1, sort_keys=True)`` does.

    The program's one indented JSON format: traces, generated states and
    machine-readable reports.  With ``indent`` set, the standard library
    leaves its C encoder and yields through one generator per nesting
    level; here a plain recursion appends whole lines to one list and
    passes it to ``write`` every few thousand pieces, so memory stays flat
    however large the document.  Strings go through the C string encoder,
    which also raises ``TypeError`` for a dict key that is not a ``str``;
    tuples are written as lists.
    """
    text = _leaf(obj)
    if text is not None:
        write(text)
        return
    chunks = []
    _write_container(obj, "", "\n", chunks, write)
    write("".join(chunks))


def _leaf(value) -> str | None:
    """The JSON text of a scalar, or None for a list, tuple or dict."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, (list, tuple, dict)):
        return None
    return json.dumps(value)


def _write_container(value, lead: str, newline: str, chunks: list, write) -> None:
    """Append ``lead`` and the JSON text of a list, tuple or dict whose
    closing bracket goes after ``newline`` (a newline and its indentation)."""
    if not value:
        chunks.append(lead + ("{}" if isinstance(value, dict) else "[]"))
        return
    inner = newline + " "
    comma = "," + inner
    sep = inner
    if isinstance(value, dict):
        chunks.append(lead + "{")
        for key in sorted(value):
            item = value[key]
            text = _leaf(item)
            if text is None:
                _write_container(item, sep + _encode_str(key) + ": ", inner, chunks, write)
            else:
                chunks.append(sep + _encode_str(key) + ": " + text)
            sep = comma
        chunks.append(newline + "}")
    else:
        chunks.append(lead + "[")
        for item in value:
            text = _leaf(item)
            if text is None:
                _write_container(item, sep, inner, chunks, write)
            else:
                chunks.append(sep + text)
            sep = comma
        chunks.append(newline + "]")
    if len(chunks) > _FLUSH_AT:
        write("".join(chunks))
        chunks.clear()


def mdeg_obj(deg) -> list:
    return [deg[0], deg[1], deg[2]]


def rule_to_obj(app: RuleApplication) -> dict:
    return {"kind": app.kind, "pair": list(app.pair),
            "divisors": list(app.divisors),
            "det_size": app.det_size,
            "new_divisor": list(app.new_divisor) if app.new_divisor else None}


def rule_from_obj(obj: dict) -> RuleApplication:
    nd = obj.get("new_divisor")
    return RuleApplication(obj["kind"], tuple(obj["pair"]),
                           tuple(obj.get("divisors", ())),
                           obj.get("det_size"),
                           (nd[0], nd[1]) if nd else None)


def _chart_items_obj(items) -> list:
    return [{"chart": cc.chart_to_obj(c), "count": n} for c, n in items]


def _chart_items_from_obj(entries) -> tuple:
    if not isinstance(entries, list):
        raise ValueError(f"chart items must be an array, got {entries!r}")
    items = []
    for e in entries:
        if not isinstance(e, dict) or type(e.get("count")) is not int:
            raise ValueError(f"a chart item needs an integer 'count', got {e!r}")
        items.append((cc.chart_from_obj(e.get("chart")), e["count"]))
    return tuple(items)


def _record_from_obj(obj) -> DivisorRecord:
    if not (isinstance(obj, dict) and isinstance(obj.get("id"), str)
            and type(obj.get("coeff")) is int
            and (obj.get("birth") is None or type(obj["birth"]) is int)):
        raise ValueError("a registry entry needs a string 'id', an integer "
                         f"'coeff' and an integer or null 'birth', got {obj!r}")
    return DivisorRecord(obj["id"], obj["coeff"], obj.get("birth"))


def event_to_obj(event: BlowupEvent) -> dict:
    return {
        "index": event.index,
        "phase": event.phase,
        "rule": rule_to_obj(event.rule),
        "parents": _chart_items_obj(event.parents),
        "children": _chart_items_obj(event.children),
        "new_divisor": list(event.new_divisor) if event.new_divisor else None,
        "exceptional": event.exceptional,
        "lex": [[mdeg_obj(p), mdeg_obj(ch)] for p, ch in event.lex],
    }


def event_from_obj(obj: dict) -> BlowupEvent:
    nd = obj.get("new_divisor")
    return BlowupEvent(
        obj["index"], obj["phase"], rule_from_obj(obj["rule"]),
        _chart_items_from_obj(obj["parents"]),
        _chart_items_from_obj(obj["children"]),
        (nd[0], nd[1]) if nd else None,
        obj.get("exceptional"),
        tuple((MultiDegree(*p), MultiDegree(*c)) for p, c in obj["lex"]),
    )


def state_to_obj(state: ResolutionState) -> dict:
    return {
        "dual": dc.to_json_obj(state.dual),
        "registry": [{"id": r.id, "coeff": r.coeff, "birth": r.birth}
                     for r in state.registry],
        "charts": _chart_items_obj(state.charts),
    }


def state_from_obj(obj: dict) -> ResolutionState:
    if not isinstance(obj, dict) or "dual" not in obj or "charts" not in obj:
        raise ValueError("state document needs 'dual' and 'charts'")
    registry = obj.get("registry", [])
    if not isinstance(registry, list):
        raise ValueError(f"state 'registry' must be an array, got {registry!r}")
    return _validated(ResolutionState(
        dc.from_json_obj(obj["dual"]), tuple(_record_from_obj(r) for r in registry),
        _sorted_chart_items(dict(_chart_items_from_obj(obj["charts"])))))


def trace_to_obj(seed: ResolutionState, events, final: ResolutionState,
                 config: RunConfig) -> dict:
    return {
        "config": config.to_json_obj(),
        "assumptions": list(MODEL_ASSUMPTIONS),
        "seed": state_to_obj(seed),
        "events": [event_to_obj(e) for e in events],
        "final": state_to_obj(final),
    }


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    final: ResolutionState
    detail: str


def replay_trace(doc: dict) -> ReplayResult:
    """Re-run a trace from its recorded seed and compare bit-for-bit."""
    seed = state_from_obj(doc["seed"])
    config = RunConfig.from_json_obj(doc.get("config", {}))
    final, events = run(seed, config)
    want_final = canonical_dumps(doc["final"])
    got_final = canonical_dumps(state_to_obj(final))
    if len(events) != len(doc.get("events", ())):
        return ReplayResult(False, final,
                            f"event count {len(events)} != recorded "
                            f"{len(doc.get('events', ()))}")
    if got_final != want_final:
        return ReplayResult(False, final, "final state differs from the record")
    got_events = canonical_dumps([event_to_obj(e) for e in events])
    want_events = canonical_dumps(doc.get("events", ()))
    if got_events != want_events:
        return ReplayResult(False, final, "event log differs from the record")
    return ReplayResult(True, final, "replay reproduced the trace")
