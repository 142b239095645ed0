#!/usr/bin/env python3
"""tools/ringclu_client.py keeps connections alive and retries safely.

Runs the client's request() and wait_for_job() against an in-process
HTTP/1.1 server that counts the connections it accepts and records every
request it reads, and checks the connection model DESIGN.md §13
describes: one kept-alive connection per thread and server, an idle
connection the server closed is replaced before use, a failed reused
connection is retried once only for a GET or a request that never left
in full, and `Connection: close` is honoured.

usage: check_client.py <ringclu_client.py>
"""

import http.client
import http.server
import importlib.util
import json
import socket
import sys
import threading
import time
import unittest

client = None  # the module under test, loaded in main()


class Handler(http.server.BaseHTTPRequestHandler):
    """Routes on the path; the server object holds the knobs and tallies."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def log_message(self, *args):
        pass

    def reply(self, status, doc, close=False):
        body = json.dumps(doc).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()

    def handle_any(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length) if length else b""
        server = self.server
        with server.lock:
            server.requests.append((self.command, self.path, body))
            drop = server.drop_next
            server.drop_next = False
        if drop:
            # Read the request, then close without a reply.
            self.close_connection = True
            return
        path, _, query = self.path.partition("?")
        if path == "/v1/jobs/j1":
            self.job_status(query)
        elif path == "/idle-close":
            # Keep-alive reply, then the server closes the idle connection.
            self.reply(200, {"ok": True})
            self.close_connection = True
        elif path == "/close":
            self.reply(200, {"ok": True}, close=True)
        elif path == "/conflict":
            self.reply(409, {"error": "job not finished"})
        else:
            self.reply(200, {"path": self.path})

    do_GET = handle_any
    do_POST = handle_any

    def job_status(self, query):
        """A job that turns terminal at server.done_at; honours wait_ms."""
        wait_ms = 0
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "wait_ms":
                wait_ms = int(value)
        until = min(self.server.done_at, time.monotonic() + wait_ms / 1000)
        while time.monotonic() < until:
            time.sleep(0.005)
        done = time.monotonic() >= self.server.done_at
        self.reply(200, {"id": "j1",
                         "state": "completed" if done else "running"})


class CountingServer(http.server.ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), Handler)
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = []
        self.drop_next = False
        self.done_at = 0.0


class ClientTest(unittest.TestCase):
    def setUp(self):
        self.server = CountingServer()
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       args=(0.01,))
        self.thread.start()
        self.url = f"http://127.0.0.1:{self.server.server_address[1]}"

    def tearDown(self):
        client.close_connections()
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()

    def get(self, path, **kwargs):
        return client.request(self.url, "GET", path, **kwargs)

    def bodies(self, path):
        with self.server.lock:
            return [body for _, seen, body in self.server.requests
                    if seen == path]

    def test_one_connection_per_thread(self):
        for i in range(20):
            self.assertEqual(self.get(f"/n{i}"), {"path": f"/n{i}"})
        self.assertEqual(self.server.connections, 1)

        def calls():
            for i in range(5):
                self.get(f"/t{i}")
            client.close_connections()

        threads = [threading.Thread(target=calls) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.assertEqual(self.server.connections, 3)

    def test_idle_close_is_detected_before_reuse(self):
        self.get("/idle-close")
        time.sleep(0.1)  # the server's FIN arrives
        seen = []
        dropped = client._dropped
        client._dropped = lambda conn: seen.append(dropped(conn)) or seen[-1]
        try:
            client.request(self.url, "POST", "/submit", {"n": 1})
        finally:
            client._dropped = dropped
        self.assertEqual(seen, [True])
        self.assertEqual(self.bodies("/submit"), [b'{"n": 1}'])
        self.assertEqual(self.server.connections, 2)

    def test_get_on_dropped_reused_connection_is_retried_once(self):
        self.get("/warm")
        self.server.drop_next = True
        self.assertEqual(self.get("/again"), {"path": "/again"})
        self.assertEqual(len(self.bodies("/again")), 2)
        self.assertEqual(self.server.connections, 2)

    def test_sent_post_on_dropped_reused_connection_is_not_resent(self):
        self.get("/warm")
        self.server.drop_next = True
        with self.assertRaises((OSError, http.client.HTTPException)):
            client.request(self.url, "POST", "/submit", {"n": 2})
        self.assertEqual(self.bodies("/submit"), [b'{"n": 2}'])
        self.assertEqual(self.server.connections, 1)

    def test_connection_close_is_honoured(self):
        self.get("/close")
        self.assertEqual(client._pool(), {})
        self.get("/after")
        self.assertEqual(self.server.connections, 2)

    def test_error_status_raises_api_error(self):
        with self.assertRaises(client.ApiError) as caught:
            self.get("/conflict")
        self.assertEqual(caught.exception.status, 409)
        self.assertIn("job not finished", str(caught.exception))
        # The connection stays usable after an error reply.
        self.get("/after")
        self.assertEqual(self.server.connections, 1)

    def test_refused_port_raises_at_once(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        start = time.monotonic()
        with self.assertRaises(OSError):
            client.request(f"http://127.0.0.1:{port}", "GET", "/x")
        self.assertLess(time.monotonic() - start, 1.0)

    def test_path_prefix_is_kept(self):
        self.assertEqual(
            client.request(self.url + "/base/", "GET", "/v1/x"),
            {"path": "/base/v1/x"})

    def test_wait_for_job_long_polls(self):
        self.server.done_at = time.monotonic() + 0.3
        status = client.wait_for_job(self.url, "j1", timeout=10)
        self.assertEqual(status["state"], "completed")
        with self.server.lock:
            polls = [path for _, path, _ in self.server.requests
                     if path.startswith("/v1/jobs/j1?wait_ms=")]
        self.assertLessEqual(len(polls), 2)


def main():
    global client
    spec = importlib.util.spec_from_file_location("ringclu_client",
                                                  sys.argv[1])
    client = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(client)
    program = unittest.main(argv=sys.argv[:1], exit=False, verbosity=2)
    return 0 if program.result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
