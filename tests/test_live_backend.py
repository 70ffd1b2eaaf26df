"""Transport behavior of the live backend against a local stub server."""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from proofloop.agents import (
    AgentTask,
    AuthError,
    BackendUnavailable,
    CheckKind,
    CheckVerdict,
    LeanOutcome,
    LiveBackend,
    LocalContext,
    MalformedResponse,
    TaskKind,
    TokenUsage,
)

TOKEN_ENV = "PROOFLOOP_API_TOKEN"


class StubServer:
    """Serves a scripted list of (status, body) responses and logs requests.

    A dict body is sent as JSON, a bytes body as it is."""

    def __init__(self):
        self.responses: list[tuple[int, dict | bytes]] = []
        self.requests: list[dict] = []
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                stub.requests.append({
                    "body": body,
                    "auth": self.headers.get("Authorization", ""),
                })
                status, payload = (stub.responses.pop(0) if stub.responses
                                   else (500, {"error": "script exhausted"}))
                data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_port}/v1/complete"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def stub():
    server = StubServer()
    yield server
    server.close()


@pytest.fixture(autouse=True)
def _token(monkeypatch):
    monkeypatch.setenv(TOKEN_ENV, "test-token-123")


def backend_for(stub: StubServer, slept: list[float] | None = None) -> LiveBackend:
    """A backend on the stub that appends each wait between attempts to ``slept``."""
    return LiveBackend(stub.url, "test-model", sleep=(slept if slept is not None else []).append)


def refused_backend(slept: list[float], posts: list[dict]) -> LiveBackend:
    """A backend on a closed local port that logs each POST's keyword arguments to ``posts``."""
    backend = LiveBackend("http://127.0.0.1:9/v1/complete", "m", sleep=slept.append)
    post = backend.session.post
    backend.session.post = lambda url, **kwargs: posts.append(kwargs) or post(url, **kwargs)
    return backend


def check_task(node: str = "n1") -> AgentTask:
    return AgentTask(TaskKind.CHECK, LocalContext(node_id=node, statement="s"),
                     check_kind=CheckKind.MATH)


def ok_body(text: str, usage: dict | None = None) -> dict:
    return {"text": text, "usage": usage or {}}


def test_canned_verdict_round_trips(stub):
    stub.responses.append((200, ok_body(
        "thinking...\nBEGIN-VERDICT\npass\nlooks sound\nEND-VERDICT\ndone",
        {"prompt_tokens": 120, "completion_tokens": 30,
         "cache_read_tokens": 400, "cache_write_tokens": 7})))
    payload, usage = backend_for(stub).invoke(check_task())
    assert payload == CheckVerdict(True, "looks sound")
    assert usage == TokenUsage(120, 30, 400, 7)
    assert stub.requests[0]["auth"] == "Bearer test-token-123"
    assert stub.requests[0]["body"]["model"] == "test-model"
    assert stub.requests[0]["body"]["metadata"]["check"] == "math"


def test_prose_without_delimiters_is_malformed(stub):
    stub.responses.append((200, ok_body("I think the statement is fine, pass!")))
    with pytest.raises(MalformedResponse):
        backend_for(stub).invoke(check_task())
    assert len(stub.requests) == 1  # malformed payloads are not retried here


def test_transport_failing_twice_then_succeeding_uses_three_attempts(stub):
    stub.responses.extend([
        (503, {"error": "warming up"}),
        (503, {"error": "warming up"}),
        (200, ok_body("BEGIN-VERDICT\nfail\nEND-VERDICT")),
    ])
    slept: list[float] = []
    payload, _ = backend_for(stub, slept).invoke(check_task())
    assert not payload.passed
    assert len(stub.requests) == 3
    assert slept == [2.0, 4.0]


def test_retry_limit_exhaustion_raises_backend_unavailable(stub):
    stub.responses.extend([(500, {})] * 3)
    slept: list[float] = []
    with pytest.raises(BackendUnavailable, match="after 3 attempts"):
        backend_for(stub, slept).invoke(check_task())
    assert len(stub.requests) == 3  # the stub would answer a fourth with 500 too
    assert slept == [2.0, 4.0]


def test_connection_refused_raises_backend_unavailable():
    slept: list[float] = []
    posts: list[dict] = []
    with pytest.raises(BackendUnavailable, match="after 3 attempts"):
        refused_backend(slept, posts).invoke(check_task())
    assert [kwargs["timeout"] for kwargs in posts] == [120.0] * 3
    assert slept == [2.0, 4.0]


def test_missing_token_is_an_auth_error_before_any_request(stub, monkeypatch):
    monkeypatch.delenv(TOKEN_ENV)
    with pytest.raises(AuthError):
        backend_for(stub).invoke(check_task())
    assert stub.requests == []


def test_rejected_credentials_are_not_retried(stub):
    stub.responses.append((401, {"error": "bad token"}))
    with pytest.raises(AuthError):
        backend_for(stub).invoke(check_task())
    assert len(stub.requests) == 1


def test_lean_source_payload(stub):
    stub.responses.append((200, ok_body(
        "BEGIN-LEAN-SOURCE\ntheorem t : True := trivial\nEND-LEAN-SOURCE")))
    task = AgentTask(TaskKind.LEAN_WORK, LocalContext(node_id="t", statement="s"))
    payload, _ = backend_for(stub).invoke(task)
    assert payload == LeanOutcome("theorem t : True := trivial\n")


def test_diff_payload_parses_into_a_plan_diff(stub):
    diff_text = (
        "plandiff v1\ncause decomposition-split\n"
        'add H\ninformal "helper"\nsketch ""\ndeps\nstatus open\nend'
    )
    stub.responses.append((200, ok_body(f"BEGIN-PLAN-DIFF\n{diff_text}\nEND-PLAN-DIFF")))
    task = AgentTask(TaskKind.PLAN_REVISE, LocalContext(node_id="n", statement="s"))
    payload, _ = backend_for(stub).invoke(task)
    assert payload.adds[0].node_id == "H"


def test_unparseable_diff_payload_is_malformed(stub):
    stub.responses.append((200, ok_body("BEGIN-PLAN-DIFF\ngarbage\nEND-PLAN-DIFF")))
    task = AgentTask(TaskKind.PLAN_REVISE, LocalContext(node_id="n", statement="s"))
    with pytest.raises(MalformedResponse):
        backend_for(stub).invoke(task)


def test_non_json_body_is_malformed(stub):
    stub.responses.append((200, b"<html>gateway page</html>"))
    with pytest.raises(MalformedResponse, match="not JSON"):
        backend_for(stub).invoke(check_task())
    assert len(stub.requests) == 1


def test_verdict_word_other_than_pass_or_fail_is_malformed(stub):
    stub.responses.append((200, ok_body("BEGIN-VERDICT\nmaybe\nEND-VERDICT")))
    with pytest.raises(MalformedResponse, match="pass or fail"):
        backend_for(stub).invoke(check_task())


def test_prompt_templates_receive_context_fields(stub):
    stub.responses.append((200, ok_body("BEGIN-VERDICT\npass\nEND-VERDICT")))
    task = AgentTask(TaskKind.CHECK,
                     LocalContext(node_id="n1", statement="THE-STATEMENT",
                                  lean_source="THE-SOURCE"),
                     check_kind=CheckKind.FAITHFULNESS)
    backend_for(stub).invoke(task)
    prompt = stub.requests[0]["body"]["prompt"]
    assert "THE-STATEMENT" in prompt
    assert "THE-SOURCE" in prompt


@pytest.mark.parametrize("body", [
    b"[1, 2]",
    b"-3",
    b"1.7",
    json.dumps({"text": "BEGIN-VERDICT\npass\nEND-VERDICT", "usage": [1]}).encode(),
    json.dumps({"text": "BEGIN-VERDICT\npass\nEND-VERDICT",
                "usage": {"prompt_tokens": "lots"}}).encode(),
    json.dumps({"text": "BEGIN-VERDICT\npass\nEND-VERDICT",
                "usage": {"completion_tokens": -1}}).encode(),
    json.dumps({"text": "BEGIN-VERDICT\npass\nEND-VERDICT",
                "usage": {"cache_read_tokens": 1.7}}).encode(),
    json.dumps({"text": "BEGIN-VERDICT\npass\nEND-VERDICT",
                "usage": {"cache_write_tokens": True}}).encode(),
], ids=["list", "negative-number", "fraction", "usage-a-list", "count-a-string",
        "count-negative", "count-a-fraction", "count-true"])
def test_a_json_body_off_the_contract_is_malformed(stub, body):
    stub.responses.append((200, body))
    with pytest.raises(MalformedResponse):
        backend_for(stub).invoke(check_task())
    assert len(stub.requests) == 1


def test_a_missing_usage_count_reads_zero(stub):
    stub.responses.append((200, {"text": "BEGIN-VERDICT\npass\nEND-VERDICT",
                                 "usage": {"prompt_tokens": 5}}))
    _, usage = backend_for(stub).invoke(check_task())
    assert usage == TokenUsage(5, 0, 0, 0)
