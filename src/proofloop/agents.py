"""Single-objective agent invocations and the two interchangeable backends.

Three agent types exist, each with a fixed authority boundary: planning agents
return plan diffs, lean agents return source text for one statement, check
agents return one pass/fail bit.  Every invocation carries exactly one
objective and the minimum local context it needs; no conversation state is
carried between invocations.

:class:`ScriptedBackend` replays entries from a fixture file keyed by (task
kind, check kind, node, occurrence), which makes whole runs deterministic.
:class:`LiveBackend` talks to a single HTTPS endpoint with bounded retries and
parses the delimited payload out of the model text.  A backend answers with
the payload alone (and its token usage); :func:`invoke` checks the payload's
type against the task kind.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import chain, count
from operator import attrgetter
from pathlib import Path
from string import Template

import requests

from .plan import (DiffCause, LineReader, PlanDiff, PlanError, ProofPlan, diff_from_text,
                   diff_to_text)

logger = logging.getLogger(__name__)


class AgentError(Exception):
    pass


class BackendUnavailable(AgentError):
    """Transport-level failure that survived every attempt."""


class MalformedResponse(AgentError):
    """The response carried no parseable payload; the loop decides on retries."""


class AuthError(AgentError):
    pass


class FixtureMiss(MalformedResponse):
    """No scripted entry for this task key and occurrence."""


class FixtureParse(AgentError):
    pass


class UnknownNode(AgentError):
    pass


class TaskKind(str, Enum):
    PLAN_INITIAL = "plan-initial"
    PLAN_REVISE = "plan-revise"
    LEAN_WORK = "lean"
    CHECK = "check"


class CheckKind(str, Enum):
    MATH = "math"
    DECOMPOSITION = "decomposition"
    FAITHFULNESS = "faithfulness"


@dataclass(frozen=True)
class LocalContext:
    """The minimum context one invocation sees; never a full plan dump."""

    node_id: str | None = None
    statement: str = ""
    sketch: str = ""
    dep_statements: tuple[tuple[str, str], ...] = ()
    anchor_signature: str | None = None
    lean_source: str | None = None
    build_errors: str | None = None


@dataclass(frozen=True)
class AgentTask:
    kind: TaskKind
    subject: LocalContext
    check_kind: CheckKind | None = None
    cause: DiffCause | None = None

    def __post_init__(self) -> None:
        if (self.kind is TaskKind.CHECK) != (self.check_kind is not None):
            raise AgentError("check tasks carry exactly one check kind; others carry none")


@dataclass(frozen=True)
class TokenUsage:
    """Token counts; the fields are the token classes, in every format's order."""

    prompt: int = 0
    completion: int = 0
    cache_read: int = 0
    cache_write: int = 0

    def __post_init__(self) -> None:
        for name in TOKEN_CLASSES:
            # bool is an int subclass, so ``true`` needs the exact type test.
            if type(count := getattr(self, name)) is not int or count < 0:
                raise AgentError(f"token count for {name} is not a non-negative integer: {count!r}")

    def as_dict(self) -> dict[str, int]:
        return dict(zip(TOKEN_CLASSES, token_counts(self)))


TOKEN_CLASSES = tuple(f.name for f in fields(TokenUsage))
token_counts = attrgetter(*TOKEN_CLASSES)  # a TokenUsage's counts, in class order


@dataclass(frozen=True)
class CheckVerdict:
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class LeanOutcome:
    source: str


Payload = PlanDiff | LeanOutcome | CheckVerdict  # what an agent answers with

# The payload type each task kind answers with.
PAYLOAD_TYPES = {
    TaskKind.PLAN_INITIAL: PlanDiff,
    TaskKind.PLAN_REVISE: PlanDiff,
    TaskKind.LEAN_WORK: LeanOutcome,
    TaskKind.CHECK: CheckVerdict,
}


def assemble_context(
    plan: ProofPlan,
    node_id: str,
    *,
    lean_source: str | None = None,
    build_errors: str | None = None,
    check_kind: CheckKind | None = None,
) -> LocalContext:
    """Build the local view one invocation is allowed to see.

    Lean and planning tasks get the node's statement and sketch, the statements
    (never the sources) of its direct deps, and the anchor signature iff the
    node is the target.  Check tasks are isolated further: statement and lean
    source only, with build errors included for math/decomposition checks and
    excluded from faithfulness.
    """
    node = plan.nodes.get(node_id)
    if node is None:
        raise UnknownNode(f"node {node_id} not in plan")
    if check_kind is not None:
        return LocalContext(
            node_id=node_id,
            statement=node.informal,
            lean_source=lean_source,
            build_errors=None if check_kind is CheckKind.FAITHFULNESS else build_errors,
        )
    return LocalContext(
        node_id=node_id,
        statement=node.informal,
        sketch=node.sketch,
        dep_statements=tuple((dep, plan.nodes[dep].informal) for dep in node.deps),
        anchor_signature=node.anchor.signature_text if node.anchor else None,
        lean_source=lean_source,
        build_errors=build_errors,
    )


def invoke(backend, task: AgentTask) -> tuple[Payload, TokenUsage, float]:
    """One fresh, stateless invocation: ``(payload, usage, elapsed seconds)``, the
    payload's type always matching the task kind."""
    start = time.monotonic()
    payload, usage = backend.invoke(task)
    elapsed = time.monotonic() - start
    if not isinstance(payload, PAYLOAD_TYPES[task.kind]):
        raise MalformedResponse(f"backend answered a {task.kind.value} task with {type(payload).__name__}")
    return payload, usage, elapsed


# ---------------------------------------------------------------------------
# Scripted backend: fixture-file replay.

@dataclass(frozen=True)
class FixtureKey:
    kind: TaskKind
    check_kind: CheckKind | None = None
    node_id: str | None = None

    def label(self) -> str:
        parts = [self.kind.value]
        if self.check_kind:
            parts.append(self.check_kind.value)
        if self.node_id:
            parts.append(self.node_id)
        return "/".join(parts)


@dataclass(frozen=True)
class FixtureEntry:
    key: FixtureKey
    occurrence: int
    payload: Payload
    usage: TokenUsage = TokenUsage()


@dataclass
class Fixture:
    entries: dict[tuple[FixtureKey, int], FixtureEntry] = field(default_factory=dict)

    def add(self, entry: FixtureEntry) -> None:
        slot = (entry.key, entry.occurrence)
        label = f"{entry.key.label()}#{entry.occurrence}"
        if slot in self.entries:
            raise FixtureParse(f"duplicate fixture entry {label}")
        if not isinstance(entry.payload, PAYLOAD_TYPES[entry.key.kind]):
            raise FixtureParse(f"{label}: payload {type(entry.payload).__name__} does not match"
                               f" {entry.key.kind.value} task")
        self.entries[slot] = entry


class ScriptedBackend:
    """Replays fixture entries in per-key occurrence order."""

    def __init__(self, fixture: Fixture):
        self.fixture = fixture
        self._cursor: dict[FixtureKey, int] = {}

    def invoke(self, task: AgentTask) -> tuple[Payload, TokenUsage]:
        key = FixtureKey(task.kind, task.check_kind, task.subject.node_id)
        occurrence = self._cursor.get(key, 0) + 1
        entry = self.fixture.entries.get((key, occurrence))
        if entry is None:
            raise FixtureMiss(f"no fixture entry for {key.label()}#{occurrence}")
        self._cursor[key] = occurrence
        return entry.payload, entry.usage


def parse_fixture(text: str) -> Fixture:
    """Parse the fixture-file format described in docs/formats.md."""
    reader = LineReader(text, "fixture", FixtureParse)
    reader.header("fixture")
    fixture = Fixture()
    while reader.peek() is not None:
        kind_word, *fields = reader.expect("entry").split() or [""]
        kind = reader.member(TaskKind, kind_word, "task kind")
        check_kind = None
        if kind is TaskKind.CHECK:
            check_kind = reader.member(CheckKind, fields.pop(0) if fields else "", "check kind")
        # Two fields are the node and the occurrence; one is the occurrence if all digits.
        node_id = fields.pop(0) if len(fields) > 1 or fields and not fields[0].isdigit() else None
        occurrence = reader.ints(" ".join(fields), 1)[0] if fields else 1

        usage = TokenUsage()
        payload: Payload | None = None
        while (line := reader.take()) != "end":
            word, _, rest = line.partition(" ")
            if word == "usage":
                if len(rest.split()) != len(TOKEN_CLASSES):
                    reader.fail("usage needs four counts")
                usage = TokenUsage(*reader.ints(rest))
            elif word == "verdict":
                verdict, _, note = rest.strip().partition(" ")
                if verdict not in ("pass", "fail"):
                    reader.fail("verdict must be pass or fail")
                note = note.strip()
                if note.startswith('"'):
                    try:
                        note = json.loads(note)
                    except ValueError:
                        reader.fail("bad verdict note")
                payload = CheckVerdict(verdict == "pass", note)
            elif word == "payload":
                parts = rest.split()
                if len(parts) != 2 or not parts[1].startswith("<<"):
                    reader.fail("bad payload header")
                body = reader.raw_until(parts[1][2:])
                if parts[0] == "diff":
                    try:
                        payload = diff_from_text(body)
                    except PlanError as exc:
                        reader.fail(f"bad diff payload: {exc}")
                elif parts[0] == "source":
                    payload = LeanOutcome(source=body)
                else:
                    reader.fail(f"unknown payload type {parts[0]!r}")
            else:
                reader.fail(f"unexpected line {line!r}")
        if payload is None:
            reader.fail("entry has no payload or verdict")
        try:
            fixture.add(FixtureEntry(FixtureKey(kind, check_kind, node_id), occurrence, payload, usage))
        except FixtureParse as exc:
            reader.fail(str(exc))
    return fixture


def load_fixture(path: Path) -> Fixture:
    return parse_fixture(path.read_text(encoding="utf-8"))


def fixture_to_text(fixture: Fixture) -> str:
    """Serialize a fixture; inverse of :func:`parse_fixture`."""
    out: list[str] = ["fixture v1"]
    for (key, occurrence), entry in fixture.entries.items():
        header = ["entry", key.kind.value]
        if key.check_kind:
            header.append(key.check_kind.value)
        if key.node_id:
            header.append(key.node_id)
        header.append(str(occurrence))
        out.append("")
        out.append(" ".join(header))
        if entry.usage != TokenUsage():
            out.append(" ".join(["usage", *map(str, token_counts(entry.usage))]))
        payload = entry.payload
        if isinstance(payload, CheckVerdict):
            word = "pass" if payload.passed else "fail"
            note = f" {json.dumps(payload.note, ensure_ascii=False)}" if payload.note else ""
            out.append(f"verdict {word}{note}")
        elif isinstance(payload, LeanOutcome):
            # The first of LEAN-EOF, LEAN-EOF-1, ... that is not a line of the source.
            lines = set(payload.source.split("\n"))
            markers = chain(["LEAN-EOF"], (f"LEAN-EOF-{i}" for i in count(1)))
            marker = next(m for m in markers if m not in lines)
            out.append(f"payload source <<{marker}")
            if payload.source:  # the heredoc keeps every line, blank ones at the end too
                out.append(payload.source.removesuffix("\n"))
            out.append(marker)
        else:
            out.append("payload diff <<DIFF-EOF")
            out.append(diff_to_text(payload).rstrip("\n"))
            out.append("DIFF-EOF")
        out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Live backend: one HTTPS endpoint, bounded retries, delimited payloads.

PAYLOAD_MARKERS = {
    TaskKind.PLAN_INITIAL: ("BEGIN-PLAN-DIFF", "END-PLAN-DIFF"),
    TaskKind.PLAN_REVISE: ("BEGIN-PLAN-DIFF", "END-PLAN-DIFF"),
    TaskKind.LEAN_WORK: ("BEGIN-LEAN-SOURCE", "END-LEAN-SOURCE"),
    TaskKind.CHECK: ("BEGIN-VERDICT", "END-VERDICT"),
}

_PROMPT_FILES = {
    (TaskKind.PLAN_INITIAL, None): "plan_initial.txt",
    (TaskKind.PLAN_REVISE, None): "plan_revise.txt",
    (TaskKind.LEAN_WORK, None): "lean_work.txt",
    (TaskKind.CHECK, CheckKind.MATH): "check_math.txt",
    (TaskKind.CHECK, CheckKind.DECOMPOSITION): "check_decomposition.txt",
    (TaskKind.CHECK, CheckKind.FAITHFULNESS): "check_faithfulness.txt",
}

PROMPT_DIR = Path(__file__).parent / "prompts"
TOKEN_ENV = "PROOFLOOP_API_TOKEN"
RETRY_WAITS = (2.0, 4.0)  # seconds before the second and the third (last) attempt
REQUEST_TIMEOUT = 120.0  # seconds


def extract_payload(text: str, kind: TaskKind) -> str:
    begin, end = PAYLOAD_MARKERS[kind]
    start = text.find(begin)
    if start < 0:
        raise MalformedResponse(f"response has no {begin} marker")
    start += len(begin)
    stop = text.find(end, start)
    if stop < 0:
        raise MalformedResponse(f"response has no {end} marker")
    return text[start:stop].strip("\n")


def parse_verdict_payload(body: str) -> CheckVerdict:
    stripped = body.strip()
    if not stripped:
        raise MalformedResponse("empty verdict payload")
    word, _, note = stripped.partition("\n")
    word = word.strip().lower()
    if word not in ("pass", "fail"):
        raise MalformedResponse(f"verdict must start with pass or fail, got {word!r}")
    return CheckVerdict(word == "pass", note.strip())


class LiveBackend:
    """Single-endpoint HTTP client; each invoke is one independent request."""

    def __init__(self, endpoint: str, model: str, sleep=time.sleep):
        self.endpoint = endpoint
        self.model = model
        self.session = requests.Session()
        self._sleep = sleep
        self._prompts: dict[tuple[TaskKind, CheckKind | None], Template] = {}

    def token(self) -> str:
        """The auth token from the environment; raises :class:`AuthError` if unset."""
        token = os.environ.get(TOKEN_ENV, "")
        if not token:
            raise AuthError(f"auth token not set in ${TOKEN_ENV}")
        return token

    def _template(self, kind: TaskKind, check_kind: CheckKind | None) -> Template:
        slot = (kind, check_kind)
        if slot not in self._prompts:
            name = _PROMPT_FILES[slot]
            self._prompts[slot] = Template((PROMPT_DIR / name).read_text(encoding="utf-8"))
        return self._prompts[slot]

    def _render_prompt(self, task: AgentTask) -> str:
        ctx = task.subject
        deps = "\n".join(f"- {dep_id}: {text}" for dep_id, text in ctx.dep_statements)
        return self._template(task.kind, task.check_kind).safe_substitute(
            statement=ctx.statement,
            sketch=ctx.sketch,
            deps=deps,
            anchor_signature=ctx.anchor_signature or "",
            lean_source=ctx.lean_source or "",
            build_errors=ctx.build_errors or "",
            cause=task.cause.value if task.cause else "",
        )

    def _post(self, body: dict) -> dict:
        token = self.token()
        last_error: Exception | None = None
        for attempt, wait in enumerate((0.0, *RETRY_WAITS), start=1):
            if wait:
                self._sleep(wait)
            try:
                response = self.session.post(
                    self.endpoint,
                    json=body,
                    headers={"Authorization": f"Bearer {token}"},
                    timeout=REQUEST_TIMEOUT,
                )
            except requests.RequestException as exc:
                last_error = exc
                logger.warning("transport failure on attempt %d: %s", attempt, exc)
                continue
            if response.status_code in (401, 403):
                raise AuthError(f"endpoint rejected credentials ({response.status_code})")
            if response.status_code >= 500 or response.status_code == 429:
                last_error = BackendUnavailable(f"status {response.status_code}")
                logger.warning("retryable status %d on attempt %d", response.status_code, attempt)
                continue
            if response.status_code != 200:
                raise BackendUnavailable(f"unexpected status {response.status_code}")
            try:
                return response.json()
            except ValueError as exc:
                raise MalformedResponse(f"response body is not JSON: {exc}") from exc
        raise BackendUnavailable(f"transport failed after {attempt} attempts: {last_error}")

    def invoke(self, task: AgentTask) -> tuple[Payload, TokenUsage]:
        data = self._post({
            "model": self.model,
            "prompt": self._render_prompt(task),
            "metadata": {
                "kind": task.kind.value,
                "check": task.check_kind.value if task.check_kind else None,
                "node": task.subject.node_id,
            },
        })
        if not isinstance(data, dict) or not isinstance(data.get("text"), str):
            raise MalformedResponse("response JSON is not an object with a 'text' field")
        raw_usage = {} if data.get("usage") is None else data["usage"]
        try:  # AttributeError: usage is not an object
            usage = TokenUsage(*(raw_usage.get(f"{name}_tokens", 0) for name in TOKEN_CLASSES))
        except (AttributeError, AgentError) as exc:
            raise MalformedResponse(
                f"usage counts are not non-negative integers: {raw_usage!r}") from exc
        body = extract_payload(data["text"], task.kind)
        payload: Payload
        if task.kind is TaskKind.CHECK:
            payload = parse_verdict_payload(body)
        elif task.kind is TaskKind.LEAN_WORK:
            payload = LeanOutcome(source=body + "\n")
        else:
            try:
                payload = diff_from_text(body + "\n")
            except PlanError as exc:
                raise MalformedResponse(f"diff payload does not parse: {exc}") from exc
        return payload, usage
