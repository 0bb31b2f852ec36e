"""The HTTP parser refuses what it cannot serve and never crashes.

Both constructions of the one :class:`~repro.serve.http.HttpServer` are
driven over real sockets: ``repro serve``'s (a scheduler holding one
terminal run) and ``repro dash``'s (no scheduler, metrics re-folded from
the same data dir).  Any bytes a client sends get a 4xx, a route's
normal answer or a prompt close — never a 500 and never a hang.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.serve import ServiceConfig, ServiceStorage, SweepService
from repro.serve.http import HttpServer, _DataDirFold

from test_records import JSON

SPEC = {
    "name": "parser",
    "app": "image_pipeline",
    "axes": {"rate_hz": [50.0]},
    "fixed": {"width": 16, "height": 12},
    "frames": 2,
}

#: Seconds a reply may take before the exchange counts as a hang.
PROMPT_S = 5.0


class _Servers:
    """Both constructions on one event loop in a background thread."""

    def __init__(self, root) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.addresses = self._call(self._start(root))

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(60)

    async def _start(self, root):
        # Never started: no worker claims a job, so the one run is
        # cancelled while queued and its event stream ends at once.
        self.service = SweepService(ServiceStorage(root / "data"),
                                    ServiceConfig(workers=1))
        handle = await self.service.submit(SPEC)
        self.run_id = handle.info()["run"]
        self.service.cancel(self.run_id)
        self.servers = {
            "serve": HttpServer(self.service),
            "dash": HttpServer(None,
                               metrics=_DataDirFold(str(root / "data"))),
        }
        return {name: await server.start()
                for name, server in self.servers.items()}

    async def _stop(self):
        for server in self.servers.values():
            await server.close()
        await self.service.stop()

    def close(self) -> None:
        self._call(self._stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        self.loop.close()


@pytest.fixture(scope="module")
def servers(tmp_path_factory):
    running = _Servers(tmp_path_factory.mktemp("http"))
    yield running
    running.close()


def exchange(address, request: bytes) -> bytes:
    """Send ``request``, half-close, and read until the server closes."""
    reply = b""
    with socket.create_connection(address, timeout=PROMPT_S) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass  # a close, if an abrupt one
    return reply


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


@pytest.mark.parametrize("construction", ["serve", "dash"])
@pytest.mark.parametrize("target", ["http://[", "//[/healthz"])
def test_a_malformed_target_is_a_400_naming_it(servers, construction,
                                               target):
    reply = exchange(servers.addresses[construction],
                     f"GET {target} HTTP/1.1\r\n\r\n".encode("latin-1"))
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert json.loads(body) == {
        "error": f"malformed request target {target!r}"}


def test_an_overlong_content_length_is_a_413(servers):
    reply = exchange(servers.addresses["serve"],
                     b"POST /v1/runs HTTP/1.1\r\nContent-Length: "
                     + b"9" * 5000 + b"\r\n\r\n{}")
    assert status_of(reply) == 413


LATIN = st.text(st.characters(max_codepoint=255), max_size=12)
#: Latin-1 text that stays inside one request-line field.
FIELD = st.text(st.characters(max_codepoint=255, blacklist_characters="\r\n "),
                max_size=12)
ROUTES = ["/healthz", "/v1/runs", "/v1/runs/{run}", "/v1/runs/{run}/events",
          "/v1/runs/{run}/cancel", "/v1/runs/nope/events", "/v1/metrics",
          "/v1/dashboard", "/", "/v1/shutdown", "http://[", "//[/healthz",
          "http://host/healthz", "*"]
SPEC_BODY = st.builds(lambda spec: {"spec": spec}, JSON)
HEADER_NAMES = ["Content-Length", "Last-Event-ID", "Accept", "X-Tenant",
                "Host"]


@st.composite
def requests(draw):
    """Raw request bytes: mostly well-framed, with every part fuzzed."""
    target = draw(st.sampled_from(ROUTES) | FIELD)
    if draw(st.booleans()):
        since = draw(st.integers().map(str) | FIELD)
        target += f"?since={since}"
    framed = st.builds("{} {} {}".format,
                       st.sampled_from(["GET", "GET", "POST"]) | FIELD,
                       st.just(target), st.just("HTTP/1.1") | LATIN)
    line = draw(LATIN if draw(st.integers(0, 3)) == 3 else framed)
    headers = draw(st.lists(st.tuples(
        st.sampled_from(HEADER_NAMES) | LATIN,
        st.integers(-2, 10**9).map(str) | st.just("text/event-stream")
        | LATIN,
    ), max_size=4))
    body = draw(st.sampled_from([None, None, JSON, SPEC_BODY]))
    body = body if body is None else draw(body)
    payload = b"" if body is None else json.dumps(body).encode()
    # Declare the true length, more (the body comes up short and the
    # client half-closes), or leave it to the fuzzed headers.
    declared = draw(st.sampled_from(["true", "more", "fuzzed"]))
    if declared != "fuzzed":
        extra = draw(st.integers(1, 64)) if declared == "more" else 0
        headers.append(("Content-Length", str(len(payload) + extra)))
    head = "\r\n".join([line, *(f"{k}: {v}" for k, v in headers)])
    return head.encode("latin-1") + b"\r\n\r\n" + payload


@pytest.mark.parametrize("construction", ["serve", "dash"])
@settings(max_examples=250, derandomize=True, deadline=None)
@given(request=requests())
def test_any_request_is_answered_or_closed_never_a_500(servers,
                                                       construction,
                                                       request):
    request = request.replace(b"{run}", servers.run_id.encode())
    reply = exchange(servers.addresses[construction], request)
    if not reply:
        event("closed")
        return
    assert reply.startswith(b"HTTP/1.1 "), reply[:80]
    event(f"HTTP {status_of(reply)}")
    assert status_of(reply) < 500, reply[:300]
