"""Loopback stand-in for an OpenAI-compatible judge endpoint.

One server thread on 127.0.0.1 answers every well-formed chat-completion
POST with the same verdict, so `uag eval --judge` runs its full client
path without anything leaving the machine.  The server counts the POSTs
it receives and the ones it had to refuse.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

VERDICT_SCORE = 0.5


class MockJudge:
    """Single-threaded loopback judge; use as a context manager."""

    def __init__(self):
        self.attempts = 0
        self.failed = 0
        self._lock = threading.Lock()
        judge = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                try:
                    body = json.loads(self.rfile.read(length))
                    ok = bool(body["messages"]) and self.path.endswith(
                        "/chat/completions")
                except (ValueError, KeyError, TypeError):
                    ok = False
                with judge._lock:
                    judge.attempts += 1
                    judge.failed += not ok
                if ok:
                    content = json.dumps({"score": VERDICT_SCORE,
                                          "reason": "fixed verdict"})
                    status, payload = 200, json.dumps({"choices": [{
                        "message": {"role": "assistant", "content": content}}]})
                else:
                    status, payload = 400, '{"error": "bad request"}'
                data = payload.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._httpd = HTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="mock-judge")
        self._thread.start()

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address
        return f"http://{host}:{port}/v1"

    def counts(self) -> tuple[int, int]:
        """(POSTs received, POSTs refused) so far."""
        with self._lock:
            return self.attempts, self.failed

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=10)

    def __enter__(self) -> "MockJudge":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
