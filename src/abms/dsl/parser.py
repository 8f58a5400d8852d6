"""Recursive-descent parser with panic-mode recovery.

The parser never raises on bad input: syntax problems are collected as
:class:`ParseError` values.  Every block body (model, agent, entity, disease,
machine, plan, output) is parsed by one loop, :meth:`_Parser.block`, with one
recovery rule: when an item fails, its error is recorded, the parser moves at
least one token forward and then skips to the next of the block's item
keywords at the block's own nesting level, or to the block's closing brace.
So one pass can report several independent mistakes.  Duplicate names are
reported here, by :meth:`_Parser.unique`, rather than deferred to validation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from .. import disease as dz
from .. import expr as ex
from .. import metamodel as mm
from .. import statemachine as sm
from .. import traffic as tf
from ..errors import AbmsError
from ..source import SourceSpan
from .lexer import Token, tokenize

_AGENT_BODY = frozenset(["create", "capability", "attr"])
_DISEASE_BODY = frozenset(
    ["transmission", "duration", "passive", "immunity", "mortality", "states", "initial", "transition"]
)
_MACHINE_BODY = frozenset(["initial", "state", "transition"])
_LITERAL_KINDS = {"int": ex.INTEGER, "real": ex.REAL, "string": ex.TEXT}

# The deepest expression the parser accepts, in levels: each operator, prefix,
# pair of parentheses and aggregate is one level around its operands, so a flat
# sum of n terms is n - 1 levels deep.  Every later walk over a tree (typing,
# formatting, emitting, compiling, evaluating) recurses at least once per level,
# and the parser's own descent recurses once per level of prefixes, right
# operands, parentheses and aggregates; the bound keeps all of them well inside
# Python's default recursion limit of 1000 frames.
MAX_EXPR_DEPTH = 200
_TOO_DEEP = f"expression nested more than {MAX_EXPR_DEPTH} levels deep"


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    expected: tuple[str, ...]
    found: str
    message: str

    def __str__(self) -> str:
        return f"{self.span.label()}: {self.message}"


@dataclass
class ParseResult:
    model: mm.Model | None
    errors: list[ParseError] = field(default_factory=list)

    def ok(self) -> bool:
        return self.model is not None and not self.errors


class ParseFailure(AbmsError):
    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors) or "parse failed")
        self.errors = errors


class _Syntax(Exception):
    """Internal: unwound to the nearest recovery point."""

    def __init__(self, error: ParseError):
        self.error = error


class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.file = filename
        self.errors: list[ParseError] = []
        self.depth = 0  # consumed-brace nesting, used by panic recovery

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> Token:
        # The token list ends in eof and next() never moves past it.
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
            if tok.type == "punct":
                if tok.value == "{":
                    self.depth += 1
                elif tok.value == "}":
                    self.depth = max(0, self.depth - 1)
        return tok

    def at(self, type_: str, value: object = None) -> bool:
        tok = self.tokens[self.pos]
        return tok.type == type_ and (value is None or tok.value == value)

    def at_kw(self, *names: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.type == "kw" and tok.value in names

    def accept(self, type_: str, value: object = None) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.type != type_ or (value is not None and tok.value != value):
            return None
        return self.next()

    def choose(self, *keywords: str) -> str:
        """Consume and return whichever of ``keywords`` comes next, or fail
        expecting them in the order given."""
        tok = self.peek()
        if tok.type == "kw" and tok.value in keywords:
            self.next()
            return str(tok.value)
        raise self.fail(*(f"'{k}'" for k in keywords))

    def fail(self, *expected: str, message: str | None = None) -> _Syntax:
        tok = self.peek()
        if message is None:
            message = f"expected {_join(expected)}, found {tok.describe()}"
        return _Syntax(ParseError(tok.span(self.file), tuple(expected), tok.describe(), message))

    def expect(self, type_: str, value: object = None, label: str | None = None) -> Token:
        tok = self.accept(type_, value)
        if tok is None:
            raise self.fail(label or (f"'{value}'" if value is not None else type_))
        return tok

    def expect_kw(self, name: str) -> Token:
        return self.expect("kw", name)

    def expect_ident(self, label: str = "identifier") -> Token:
        return self.expect("ident", label=label)

    def expect_int(self, label: str = "integer") -> int:
        return int(self.expect("int", label=label).value)  # type: ignore[arg-type]

    def expect_number(self, label: str = "number") -> float:
        sign = -1.0 if self.accept("punct", "-") else 1.0
        tok = self.accept("int") or self.accept("real")
        if tok is None:
            raise self.fail(label)
        return sign * float(tok.value)  # type: ignore[arg-type]

    def expect_string(self, label: str = "string") -> str:
        return str(self.expect("string", label=label).value)

    def span_from(self, start: Token) -> SourceSpan:
        prev = self.tokens[max(self.pos - 1, 0)]
        end = prev if prev.type != "eof" else start
        return SourceSpan(self.file, start.line, start.col, end.end_line, end.end_col)

    def record(self, err: _Syntax) -> None:
        self.errors.append(err.error)

    def error_at(self, tok: Token, message: str) -> None:
        self.errors.append(ParseError(tok.span(self.file), (), tok.describe(), message))

    def unique(self, seen: set[str], tok: Token, what: str) -> bool:
        """Add ``tok``'s name to ``seen`` and return True, or, when the name is
        already there, record ``duplicate <what> '<name>'`` and return False."""
        name = str(tok.value)
        if name in seen:
            self.error_at(tok, f"duplicate {what} '{name}'")
            return False
        seen.add(name)
        return True

    def block(self, recover: frozenset, item: Callable[[], None]) -> None:
        """Parse ``item`` repeatedly up to the block's closing brace (left for
        the caller).  A syntax error in an item is recorded, and parsing resumes
        at the next of the ``recover`` keywords in this block."""
        body_depth = self.depth
        while not self.at("eof") and not self.at("punct", "}"):
            before = self.pos
            try:
                item()
            except _Syntax as err:
                self.record(err)
                if self.pos == before:
                    self.next()
                self.sync(recover, body_depth)

    def sync(self, stop_keywords: frozenset, body_depth: int) -> None:
        """Skip ahead to a declaration boundary at ``body_depth`` (or leave the
        block entirely); never consumes the block's closing brace."""
        while not self.at("eof"):
            if self.depth < body_depth:
                return
            tok = self.peek()
            at_body = self.depth == body_depth
            if at_body and tok.type == "punct" and tok.value == "}":
                return
            if at_body and tok.type == "kw" and tok.value in stop_keywords:
                return
            self.next()

    # -- model -------------------------------------------------------------

    def parse_model(self) -> mm.Model | None:
        start = self.peek()
        try:
            self.expect_kw("model")
            name = self.expect_ident("model name").value
        except _Syntax as err:
            self.record(err)
            return None
        model = mm.Model(name=str(name))
        self._names: defaultdict[str, set[str]] = defaultdict(set)
        try:
            self.expect("punct", "{")
        except _Syntax as err:
            self.record(err)
            return None
        self.block(_ITEM_KEYWORDS, lambda: self.parse_item(model))
        try:
            self.expect("punct", "}")
        except _Syntax as err:
            self.record(err)
        trailing = self.peek()
        if trailing.type != "eof":
            found = trailing.describe() if trailing.type == "error" else f"unexpected {trailing.describe()}"
            self.error_at(trailing, f"{found} after the model block")
        if model.environment is None:
            self.errors.append(
                ParseError(self.span_from(start), ("'environment'",), "end of model", "model declares no environment")
            )
        return model

    def parse_item(self, model: mm.Model) -> None:
        if self.at_kw("environment"):
            start = self.peek()
            env = self.parse_environment()
            if model.environment is not None:
                self.errors.append(ParseError(self.span_from(start), (), "environment", "duplicate environment declaration"))
            else:
                model.environment = env
        elif self.at_kw("introduce"):
            model.introductions.append(self.parse_introduce())
        elif self.at_kw(*_DECLARATIONS):
            parse, group, what, into = _DECLARATIONS[str(self.peek().value)]
            spec, name_tok = parse(self)
            if self.unique(self._names[group], name_tok, what):
                getattr(model, into).append(spec)
        else:
            raise self.fail(*(f"'{k}'" for k in sorted(_ITEM_KEYWORDS)))

    # -- environment -------------------------------------------------------

    def parse_environment(self) -> mm.EnvironmentSpec:
        self.expect_kw("environment")
        kind = self.choose("grid", "cartesian", "graph")
        if kind == "grid":
            self.expect_kw("width")
            width = self.expect_int("grid width")
            self.expect_kw("height")
            height = self.expect_int("grid height")
            wrap = self.accept("kw", "wrap") is not None
            topo: object = mm.GridTopology(width, height, wrap)
        elif kind == "cartesian":
            x_min, x_max = self.parse_range()
            y_min, y_max = self.parse_range()
            topo = mm.CartesianTopology(x_min, x_max, y_min, y_max)
        else:
            self.expect_kw("from")
            source = self.parse_strategy()
            topo = mm.GraphTopology(source)
        return mm.EnvironmentSpec(topology=topo)  # type: ignore[arg-type]

    def parse_range(self) -> tuple[float, float]:
        low = self.expect_number("range bound")
        self.expect("punct", "..")
        high = self.expect_number("range bound")
        return low, high

    # -- creational strategies ----------------------------------------------

    def parse_strategy(self) -> mm.CreationalStrategy:
        kind = self.choose("fixed", "gis", "osm", "edges")
        if kind == "gis":
            return mm.GisPointsStrategy(self.expect_string("point file path"))
        if kind == "osm":
            return mm.OsmGraphStrategy(self.expect_string("OSM file path"))
        if kind == "edges":
            return self.parse_inline_edges()
        count = self.expect_int("count")
        if self.accept("kw", "random"):
            return mm.FixedCountStrategy(count, None)
        self.expect_kw("at")
        positions: list[tuple[ex.Expr, ex.Expr]] = []
        while self.at("punct", "("):
            self.next()
            x = self.parse_expr()
            self.expect("punct", ",")
            y = self.parse_expr()
            self.expect("punct", ")")
            positions.append((x, y))
        if not positions:
            raise self.fail("'('", message="expected at least one (x, y) position")
        return mm.FixedCountStrategy(count, positions)

    def parse_inline_edges(self) -> mm.InlineEdgeListStrategy:
        self.expect("punct", "{")
        nodes: list[mm.InlineNode] = []
        edges: list[mm.InlineEdge] = []
        while not self.at("punct", "}") and not self.at("eof"):
            if self.accept("kw", "node"):
                name = str(self.expect_ident("node name").value)
                x = self.expect_number("x coordinate")
                y = self.expect_number("y coordinate")
                nodes.append(mm.InlineNode(name, x, y))
            elif self.accept("kw", "edge"):
                a = str(self.expect_ident("node name").value)
                b = str(self.expect_ident("node name").value)
                length = self.expect_number("edge length")
                edges.append(mm.InlineEdge(a, b, length))
            else:
                raise self.fail("'node'", "'edge'", "'}'")
        self.expect("punct", "}")
        return mm.InlineEdgeListStrategy(nodes, edges)

    # -- agents and entities -------------------------------------------------

    def parse_type(self) -> tuple[mm.AgentTypeSpec | mm.EntityTypeSpec, Token]:
        """An agent or an entity type, whichever keyword :meth:`parse_item` saw.
        Only an agent takes capabilities."""
        start = self.next()
        agent = start.value == "agent"
        name_tok = self.expect_ident(f"{start.value} name")
        spec = (mm.AgentTypeSpec if agent else mm.EntityTypeSpec)(
            name=str(name_tok.value), creation=mm.FixedCountStrategy(0)
        )
        self.expect("punct", "{")
        self.expect_kw("create")
        spec.creation = self.parse_strategy()
        attr_names: set[str] = set()

        def item() -> None:
            if agent and self.at_kw("capability"):
                spec.capabilities.append(self.parse_capability())  # type: ignore[union-attr]
            elif self.at_kw("attr"):
                self.parse_attr(spec.attributes, attr_names)
            elif agent:
                raise self.fail("'capability'", "'attr'", "'}'")
            else:
                raise self.fail("'attr'", "'}'")

        self.block(_AGENT_BODY if agent else frozenset(["attr"]), item)
        self.expect("punct", "}")
        spec.span = self.span_from(start)
        return spec, name_tok

    def parse_attr(self, into: list[mm.AttributeSpec], seen: set[str]) -> None:
        self.expect_kw("attr")
        name_tok = self.expect_ident("attribute name")
        kind = self.choose("integer", "real", "boolean", "identifier", "text")
        default = None
        if self.accept("punct", "="):
            default = self.parse_expr()
        if not self.unique(seen, name_tok, "attribute name"):
            return
        into.append(mm.AttributeSpec(str(name_tok.value), kind, default))

    def parse_capability(self) -> mm.CapabilityRef:
        self.expect_kw("capability")
        if self.accept("kw", "adaptation"):
            # Reserved vocabulary: parsed so validation can reject it clearly,
            # but never offered as an expected keyword.
            return mm.CapabilityRef("adaptation")
        kind = self.choose("mobility", "disease", "state_machine", "flow_control", "qlearning", "external")
        if kind == "mobility":
            self.expect_kw("random_walk")
            self.expect_kw("step")
            return mm.CapabilityRef("mobility", step=self.parse_expr())
        if kind in ("disease", "state_machine"):
            target = self.expect_ident("disease name" if kind == "disease" else "machine or plan name")
            return mm.CapabilityRef(kind, target=str(target.value))
        if kind == "flow_control":
            return self.parse_flow_control()
        if kind == "qlearning":
            return self.parse_qlearning()
        library = self.expect_string("library path")
        entry = str(self.expect_ident("entry point").value)
        return mm.CapabilityRef("external", target=entry, library=library)

    def parse_flow_control(self) -> mm.CapabilityRef:
        if self.accept("kw", "streams"):
            self.expect_kw("auto")
            return mm.CapabilityRef("flow_control", streams=None)
        streams: list[tf.StreamSpec] = []
        while self.accept("kw", "stream"):
            sid = str(self.expect_ident("stream id").value)
            self.expect_kw("edge")
            a = str(self.expect_ident("node name").value)
            b = str(self.expect_ident("node name").value)
            capacity = None
            if self.accept("kw", "capacity"):
                capacity = self.expect_int("capacity")
            streams.append(tf.StreamSpec(sid, (a, b), capacity))
        if not streams:
            raise self.fail("'streams'", "'stream'")
        return mm.CapabilityRef("flow_control", streams=streams)

    def parse_qlearning(self) -> mm.CapabilityRef:
        """Options in any order; a repeated one is reported and parsed on."""
        given: dict = {"bins": []}
        seen: set[str] = set()
        while self.at_kw("alpha", "gamma", "epsilon", "plans", "bins", "reward"):
            tok = self.next()
            self.unique(seen, tok, "qlearning option")
            key = str(tok.value)
            if key == "plans":
                given[key] = self.parse_ident_list("plan name")
            elif key == "bins":
                given[key] = []
                while self.at("int"):
                    given[key].append(self.expect_int())
            elif key == "reward":
                given[key] = self.parse_expr()
            else:
                given[key] = self.expect_number(key)
        missing = tuple(key for key in ("alpha", "gamma", "epsilon", "plans") if key not in given)
        if missing:
            raise self.fail(*(f"'{m}'" for m in missing), message=f"qlearning is missing {_join(missing)}")
        return mm.CapabilityRef("reinforcement_learning", qlearning=tf.QLearningSpec(**given))

    def parse_ident_list(self, label: str) -> list[str]:
        names = [str(self.expect_ident(label).value)]
        while self.at("ident"):
            names.append(str(self.next().value))
        return names

    # -- diseases ------------------------------------------------------------

    def parse_disease(self) -> tuple[dz.DiseaseModelSpec, Token]:
        self.expect_kw("disease")
        name_tok = self.expect_ident("disease name")
        self.expect_kw("model")
        if self.at("ident") and self.peek().value in (dz.SIR, dz.SEIR, dz.PSIR):
            kind = str(self.next().value)
        elif self.accept("kw", "custom"):
            kind = dz.CUSTOM
        else:
            raise self.fail("'SIR'", "'SEIR'", "'PSIR'", "'custom'")
        spec = dz.DiseaseModelSpec(name=str(name_tok.value), kind=kind, transmission=None)
        self.expect("punct", "{")
        duration_seen: set[str] = set()
        self.block(_DISEASE_BODY, lambda: self.parse_disease_clause(spec, duration_seen))
        self.expect("punct", "}")
        return spec, name_tok

    def parse_disease_clause(self, spec: dz.DiseaseModelSpec, duration_seen: set[str]) -> None:
        if self.at_kw("transmission"):
            tstart = self.next()
            if spec.transmission is not None:
                self.error_at(tstart, "duplicate transmission clause")
            spec.transmission = self.parse_transmission()
        elif self.accept("kw", "duration"):
            comp_tok = self.expect_ident("compartment")
            trigger = self.parse_trigger()
            if not self.unique(duration_seen, comp_tok, "duration for compartment"):
                return
            spec.progressions.append(dz.ProgressionSpec(str(comp_tok.value), trigger))
        elif self.at_kw("passive"):
            pstart = self.next()
            self.expect_kw("duration")
            if spec.passive_immunity is not None:
                self.error_at(pstart, "duplicate passive immunity duration")
            spec.passive_immunity = self.parse_trigger()
        elif self.at_kw("immunity"):
            istart = self.next()
            self.expect_kw("duration")
            if spec.recovered_immunity is not None:
                self.error_at(istart, "duplicate immunity duration")
            spec.recovered_immunity = self.parse_trigger()
        elif self.accept("kw", "mortality"):
            comp = str(self.expect_ident("compartment").value)
            self.expect_kw("rate")
            rate = self.parse_expr()
            rule = dz.MortalitySpec(comp, rate, self.choose(*dz.MORTALITY_EVALUATIONS))
            if rule.evaluation == dz.SPECIFIC_TIMEUNIT:
                rule.at_tick = self.expect_int("tick")
            elif rule.evaluation == dz.WHEN_CONDITION:
                rule.condition = self.parse_expr()
            spec.mortality.append(rule)
        elif self.accept("kw", "states"):
            spec.custom_states = self.parse_ident_list("compartment")
        elif self.accept("kw", "initial"):
            spec.custom_initial = str(self.expect_ident("compartment").value)
        elif self.accept("kw", "transition"):
            a = str(self.expect_ident("compartment").value)
            b = str(self.expect_ident("compartment").value)
            trigger = self.parse_trigger()
            spec.custom_transitions.append(dz.CustomTransitionSpec(a, b, trigger))
        else:
            raise self.fail(*(f"'{k}'" for k in sorted(_DISEASE_BODY)), "'}'")

    def parse_transmission(self) -> dz.TransmissionSpec:
        """Options in any order; a repeated one is reported and parsed on."""
        interaction = self.choose(dz.PROXIMITY, dz.CONTACT)
        distance = self.parse_expr() if interaction == dz.PROXIMITY else None
        self.expect_kw("probability")
        probability = self.parse_expr()
        spec = dz.TransmissionSpec(interaction, distance, probability)
        seen: set[str] = set()
        while self.at_kw("to", "infectious", "condition", "sources"):
            tok = self.next()
            self.unique(seen, tok, "transmission option")
            key = str(tok.value)
            if key == "to":
                spec.target = str(self.expect_ident("compartment").value)
            elif key == "infectious":
                spec.infectious = self.parse_ident_list("compartment")
            elif key == "condition":
                spec.condition = self.parse_expr()
            else:
                spec.sources = self.parse_ident_list("entity type")
        return spec

    # -- triggers ------------------------------------------------------------

    def parse_trigger(self) -> sm.Trigger:
        kind = self.choose("probabilistic", "deterministic", "conditional", "custom")
        if kind == "probabilistic":
            self.expect_kw("rate")
            return sm.ProbabilisticTrigger(self.parse_expr())
        if kind == "deterministic":
            return sm.DeterministicTrigger(self.parse_expr())
        if kind == "conditional":
            return sm.ConditionalTrigger(self.parse_expr())
        mode = self.choose("all_of", "any_of")
        self.expect("punct", "(")
        parts = [self.parse_trigger()]
        while self.accept("punct", ","):
            parts.append(self.parse_trigger())
        self.expect("punct", ")")
        return sm.CompositeTrigger(mode, parts)

    # -- machines and plans ----------------------------------------------------

    def parse_machine(self) -> tuple[sm.StateMachineSpec, Token]:
        self.expect_kw("machine")
        name_tok = self.expect_ident("machine name")
        self.expect("punct", "{")
        self.expect_kw("initial")
        initial = str(self.expect_ident("state name").value)
        states: list[str] = []
        state_names: set[str] = set()
        transitions: list[sm.Transition] = []

        def item() -> None:
            if self.accept("kw", "state"):
                state_tok = self.expect_ident("state name")
                if self.unique(state_names, state_tok, "state name"):
                    states.append(str(state_tok.value))
            elif self.accept("kw", "transition"):
                a = str(self.expect_ident("state name").value)
                b = str(self.expect_ident("state name").value)
                trigger = self.parse_trigger()
                guard = None
                abortion = None
                if self.accept("kw", "guard"):
                    guard = self.parse_expr()
                if self.accept("kw", "abort"):
                    prob = self.parse_expr()
                    self.expect_kw("to")
                    abort_to = str(self.expect_ident("state name").value)
                    abortion = sm.Abortion(prob, abort_to)
                transitions.append(sm.Transition(a, b, trigger, guard, abortion))
            else:
                raise self.fail("'state'", "'transition'", "'}'")

        self.block(_MACHINE_BODY, item)
        self.expect("punct", "}")
        return sm.StateMachineSpec(str(name_tok.value), states, initial, transitions), name_tok

    def parse_plan(self) -> tuple[tf.PlanSpec, Token]:
        self.expect_kw("plan")
        name_tok = self.expect_ident("plan name")
        self.expect("punct", "{")
        phases: list[tf.PhaseSpec] = []
        phase_names: set[str] = set()

        def item() -> None:
            self.expect_kw("phase")
            phase_tok = self.expect_ident("phase name")
            self.expect_kw("green")
            green = self.parse_ident_list("stream id")
            self.expect_kw("duration")
            duration = self.expect_int("duration")
            if self.unique(phase_names, phase_tok, "phase name"):
                phases.append(tf.PhaseSpec(str(phase_tok.value), green, duration))

        self.block(frozenset(["phase"]), item)
        self.expect("punct", "}")
        return tf.PlanSpec(str(name_tok.value), phases), name_tok

    # -- introductions, outputs, concerns ---------------------------------------

    def parse_introduce(self) -> dz.DiseaseIntroductionSpec:
        self.expect_kw("introduce")
        disease = str(self.expect_ident("disease name").value)
        spec = dz.DiseaseIntroductionSpec(disease, quantity_kind=self.choose("deterministic", "probabilistic"))
        if spec.quantity_kind == "deterministic":
            spec.count = self.expect_int("count")
        else:
            spec.probability = self.expect_number("probability")
        spec.selection = self.choose("arbitrary", "eligible")
        if spec.selection == "eligible":
            spec.eligibility = self.parse_expr()
        spec.periodicity = self.choose("aperiodic", "periodic")
        if spec.periodicity == "periodic":
            spec.interval = self.expect_int("interval")
        return spec

    def parse_output(self) -> tuple[mm.OutputDatasetSpec, Token]:
        self.expect_kw("output")
        name_tok = self.expect_ident("output name")
        self.expect_kw("every")
        interval = self.expect_int("interval")
        self.expect_kw("to")
        path = self.expect_string("output path")
        self.expect("punct", "{")
        series: list[mm.SeriesSpec] = []
        labels: set[str] = set()

        def item() -> None:
            self.expect_kw("series")
            label_tok = self.expect_ident("series label")
            value = self.parse_expr()
            if self.unique(labels, label_tok, "series label"):
                series.append(mm.SeriesSpec(str(label_tok.value), value))

        self.block(frozenset(["series"]), item)
        self.expect("punct", "}")
        return mm.OutputDatasetSpec(str(name_tok.value), interval, path, series), name_tok

    def parse_concern(self) -> tuple[mm.ConcernSpec, Token]:
        self.expect_kw("concern")
        name_tok = self.expect_ident("concern name")
        self.expect("punct", "{")
        members: list[str] = []
        if self.accept("kw", "members"):
            members = self.parse_ident_list("member name")
        self.expect("punct", "}")
        return mm.ConcernSpec(str(name_tok.value), members), name_tok

    # -- expressions -------------------------------------------------------------

    def parse_expr(self) -> ex.Expr:
        return self._expr(ex.PREC_OR, 0)[0]

    def _expr(self, min_prec: int, outer: int) -> tuple[ex.Expr, int]:
        """Precedence climbing over :data:`expr.PRECEDENCE`: an expression whose
        operators all bind at least as tightly as ``min_prec``, with its depth in
        levels, inside ``outer`` levels (see :data:`MAX_EXPR_DEPTH`).  Binary
        operators are left-associative, and after a comparison or ``is`` only a
        looser operator (``and``, ``or``) may follow.  After each operator only
        one at its level or looser may follow (only a looser one after a
        comparison, ``is`` or a prefix), so what an operand refused stays refused.

        Operators, literals and names are never braces or eof, so they are
        consumed by moving ``pos`` past them rather than through :meth:`next`.
        An expression too deep is reported from its first token to its last."""
        if outer > MAX_EXPR_DEPTH:
            raise self.fail(message=_TOO_DEEP)
        tokens, first = self.tokens, self.pos
        tok = tokens[first]
        prefix = ex.PREC_NEG if tok.text == "-" else ex.PREC_NOT if tok.text == "not" else None
        if prefix is not None and min_prec <= prefix:
            self.pos += 1
            operand, depth = self._expr(prefix, outer + 1)
            left: ex.Expr = ex.Unary(tok.text, operand)
            depth += 1
            limit = prefix
        else:
            left, depth = self._primary(outer)
            limit = ex.PREC_ATOM
        while True:
            tok = tokens[self.pos]
            # Only keyword and punctuation tokens spell an operator: the text of a
            # string keeps its quotes and a keyword is never an identifier.
            prec = ex.PRECEDENCE.get(tok.text, 0)
            if not min_prec <= prec < limit:
                if depth > MAX_EXPR_DEPTH:
                    raise _Syntax(ParseError(self.span_from(tokens[first]), (), "expression", _TOO_DEEP))
                return left, depth
            self.pos += 1
            limit = prec if prec == ex.PREC_CMP else prec + 1
            if tok.text == "is":
                state = str(self.expect_ident("state name").value)
                if not (isinstance(left, ex.AttrRef) and left.owner is None):
                    message = "the left side of 'is' must name a disease or state machine"
                    raise _Syntax(ParseError(tok.span(self.file), (), tok.describe(), message))
                left = ex.StateTest(left.name, state)
                depth += 1
            else:
                right, right_depth = self._expr(prec + 1, outer + 1)
                left = ex.Binary(tok.text, left, right)
                depth = (depth if depth > right_depth else right_depth) + 1

    def _primary(self, outer: int) -> tuple[ex.Expr, int]:
        """A name, literal, parenthesized expression or aggregate, with its depth;
        identifiers, the commonest, are tested first."""
        tok = self.tokens[self.pos]
        kind = tok.type
        if kind == "ident":
            self.pos += 1
            if self.tokens[self.pos].text == ".":
                self.pos += 1
                attr = self.expect_ident("attribute name")
                return ex.AttrRef(tok.value, attr.value), 0  # type: ignore[arg-type]
            return ex.AttrRef(None, tok.value), 0  # type: ignore[arg-type]
        if kind in _LITERAL_KINDS:  # the lexer has parsed the literal's value
            self.pos += 1
            return ex.Literal(tok.value, _LITERAL_KINDS[kind]), 0
        if kind == "kw":
            if tok.value == "true" or tok.value == "false":
                self.pos += 1
                return ex.Literal(tok.value == "true", ex.BOOLEAN), 0
            if tok.value == "count" or tok.value == "sum":
                return self._aggregate(outer)
        elif tok.text == "(":
            self.pos += 1
            inner, depth = self._expr(ex.PREC_OR, outer + 1)
            self.expect("punct", ")")
            return inner, depth + 1
        raise self.fail("expression")

    def _aggregate(self, outer: int) -> tuple[ex.Expr, int]:
        func = str(self.next().value)  # count | sum
        self.expect("punct", "(")
        population = str(self.expect_ident("population type").value)
        predicate = value = None
        depth = 0
        if self.accept("kw", "where"):
            predicate, depth = self._expr(ex.PREC_OR, outer + 1)
        if func == "sum":
            self.expect("punct", ",")
            value, value_depth = self._expr(ex.PREC_OR, outer + 1)
            depth = max(depth, value_depth)
        self.expect("punct", ")")
        return ex.Aggregate(func, population, predicate, value), depth + 1


# The model items parsed by :meth:`_Parser.parse_item` through one branch: the
# keyword, its parser (returning the spec and its name token), the group whose
# names must be unique, what a duplicate is called, and the Model list.  The
# groups are those of ``metamodel._check_names``: diseases, machines and plans
# share one, as ``X is s`` names any of them.
_DECLARATIONS: dict[str, tuple[Callable, str, str, str]] = {
    "agent": (_Parser.parse_type, "types", "type name", "agent_types"),
    "entity": (_Parser.parse_type, "types", "type name", "entity_types"),
    "disease": (_Parser.parse_disease, "machines", "disease name", "diseases"),
    "machine": (_Parser.parse_machine, "machines", "machine name", "machines"),
    "plan": (_Parser.parse_plan, "machines", "plan name", "plans"),
    "output": (_Parser.parse_output, "outputs", "output name", "outputs"),
    "concern": (_Parser.parse_concern, "concerns", "concern name", "concerns"),
}
_ITEM_KEYWORDS = frozenset(["environment", "introduce", *_DECLARATIONS])


def _join(expected: tuple[str, ...]) -> str:
    if not expected:
        return "something else"
    if len(expected) == 1:
        return expected[0]
    return ", ".join(expected[:-1]) + " or " + expected[-1]


def parse(text: str, filename: str = "<input>") -> ParseResult:
    """Parse source text.  ``model`` is set only when there were no errors."""
    parser = _Parser(text, filename)
    model = parser.parse_model()
    if parser.errors:
        return ParseResult(None, parser.errors)
    return ParseResult(model, [])


def parse_model(text: str, filename: str = "<input>") -> mm.Model:
    """Parse and return the model, raising :class:`ParseFailure` on any error."""
    result = parse(text, filename)
    if result.model is None:
        raise ParseFailure(result.errors)
    return result.model
