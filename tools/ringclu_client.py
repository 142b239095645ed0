#!/usr/bin/env python3
"""Command-line client and load generator for the ringclu_simd daemon.

Standard library only, so CI and users can drive a daemon without any
package installs.  Subcommands mirror the HTTP API (DESIGN.md §13):

  submit          POST /v1/jobs (single run or a sweep file), print the id
  status          GET  /v1/jobs/{id}
  wait            long-poll status until the job reaches a terminal state
  result          GET  /v1/jobs/{id}/result (optionally one task)
  metrics         GET  /v1/jobs/{id}/metrics, stream JSONL to stdout
  server-metrics  GET  /v1/server/metrics
  shutdown        POST /v1/shutdown
  load            multi-client load generator (--clients N --jobs M)

Every subcommand takes --server URL (default http://127.0.0.1:8117 or
$RINGCLU_SERVE_URL).  Exit codes: 0 success, 1 job failed or server
error, 2 usage error.
"""

import argparse
import http.client
import json
import os
import select
import sys
import threading
import time

DEFAULT_SERVER = os.environ.get("RINGCLU_SERVE_URL", "http://127.0.0.1:8117")
TERMINAL_STATES = ("completed", "failed")
# Longest status long-poll wait_for_job asks for; the daemon allows 30 s.
LONG_POLL_MS = 20000


class ApiError(RuntimeError):
    """An HTTP error with the server's {"error": ...} body attached."""

    def __init__(self, status, message):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


def api_error(status, raw):
    """The ApiError for a non-2xx reply with the body bytes raw."""
    text = raw.decode("utf-8", errors="replace")
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    message = doc.get("error", text) if isinstance(doc, dict) else text
    return ApiError(status, message)


def split_server(server):
    """(scheme, host[:port], path prefix) of a base URL."""
    scheme, sep, rest = server.partition("://")
    if not sep or scheme not in ("http", "https"):
        raise ValueError(f"unsupported server URL {server!r}")
    netloc, slash, prefix = rest.partition("/")
    return scheme, netloc, (slash + prefix).rstrip("/")


def connect(scheme, netloc, timeout):
    """A new, not yet opened connection to netloc."""
    if scheme == "https":
        return http.client.HTTPSConnection(netloc, timeout=timeout)
    return http.client.HTTPConnection(netloc, timeout=timeout)


# Kept-alive connections of the current thread, by (scheme, host[:port]).
_local = threading.local()


def _pool():
    if not hasattr(_local, "pool"):
        _local.pool = {}
    return _local.pool


def _dropped(conn):
    """True when an idle connection's socket is readable: the server
    closed it (EOF) or sent bytes nobody asked for.  Either way it must
    not carry another request."""
    if conn.sock is None:
        return True
    readable, _, _ = select.select([conn.sock], [], [], 0)
    return bool(readable)


def close_connections():
    """Closes the current thread's kept-alive connections."""
    pool = _pool()
    for conn in pool.values():
        conn.close()
    pool.clear()


def request(server, method, path, body=None, timeout=60):
    """One API call; returns the decoded JSON document.

    Each thread keeps one connection per server alive between calls
    (RFC 9112 §9.3).  A connection the server has closed while idle is
    replaced before use.  When a reused connection fails, the call is
    sent once more on a new connection only if the request never left
    in full or is a GET: a POST the server may have received is never
    sent twice (RFC 9112 §9.3.1)."""
    scheme, netloc, prefix = split_server(server)
    data = None
    headers = {}
    if body is not None:
        data = json.dumps(body).encode("utf-8")
        headers["Content-Type"] = "application/json"
    pool = _pool()
    key = (scheme, netloc)
    conn = pool.pop(key, None)
    if conn is not None and _dropped(conn):
        conn.close()
        conn = None
    reused = conn is not None
    if conn is None:
        conn = connect(scheme, netloc, timeout)
    while True:
        sent = False
        try:
            conn.timeout = timeout
            if conn.sock is not None:
                conn.sock.settimeout(timeout)
            conn.request(method, prefix + path, body=data, headers=headers)
            sent = True
            response = conn.getresponse()
            raw = response.read()
        except (OSError, http.client.HTTPException):
            conn.close()
            if not reused or (sent and method != "GET"):
                raise
            conn, reused = connect(scheme, netloc, timeout), False
            continue
        break
    if response.will_close:
        conn.close()
    else:
        pool[key] = conn
    if not 200 <= response.status < 300:
        raise api_error(response.status, raw)
    return json.loads(raw.decode("utf-8"))


def build_job_body(args):
    """The POST /v1/jobs body for a submit-style argparse namespace."""
    body = {}
    if args.sweep:
        with open(args.sweep, encoding="utf-8") as handle:
            body["sweep"] = json.load(handle)
    else:
        if not args.config or not args.benchmark:
            sys.exit("ringclu_client: submit needs --sweep FILE or "
                     "--config and --benchmark")
        body["config"] = args.config
        body["benchmark"] = args.benchmark
        run = {}
        if args.instrs is not None:
            run["instrs"] = args.instrs
        if args.warmup is not None:
            run["warmup"] = args.warmup
        if args.seed is not None:
            run["seed"] = args.seed
        if run:
            body["run"] = run
        if args.interval:
            body["interval"] = args.interval
    if args.client:
        body["client"] = args.client
    if args.priority:
        body["priority"] = args.priority
    return body


def wait_for_job(server, job_id, timeout=None):
    """Long-polls the job's status until it is terminal; returns the
    final status doc."""
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        wait_ms = LONG_POLL_MS
        if deadline is not None:
            left_ms = int((deadline - time.monotonic()) * 1000)
            wait_ms = max(0, min(wait_ms, left_ms))
        status = request(server, "GET",
                         f"/v1/jobs/{job_id}?wait_ms={wait_ms}",
                         timeout=wait_ms / 1000 + 30)
        if status.get("state") in TERMINAL_STATES:
            return status
        if deadline is not None and time.monotonic() >= deadline:
            raise ApiError(408, f"timed out waiting for {job_id}")


def emit(doc, out_path):
    text = json.dumps(doc, indent=2, sort_keys=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def cmd_submit(args):
    doc = request(args.server, "POST", "/v1/jobs", build_job_body(args))
    job_id = doc["id"]
    print(job_id)
    if not args.wait:
        return 0
    status = wait_for_job(args.server, job_id, timeout=args.timeout)
    if status.get("state") != "completed":
        print(f"ringclu_client: {job_id} {status.get('state')}",
              file=sys.stderr)
        return 1
    emit(request(args.server, "GET", f"/v1/jobs/{job_id}/result"), args.out)
    return 0


def cmd_status(args):
    emit(request(args.server, "GET", f"/v1/jobs/{args.id}"), None)
    return 0


def cmd_wait(args):
    status = wait_for_job(args.server, args.id, timeout=args.timeout)
    emit(status, None)
    return 0 if status.get("state") == "completed" else 1


def cmd_result(args):
    path = f"/v1/jobs/{args.id}/result"
    if args.task is not None:
        path += f"?task={args.task}"
    emit(request(args.server, "GET", path), args.out)
    return 0


def cmd_metrics(args):
    """Streams the chunked JSONL metric feed line-by-line to stdout."""
    scheme, netloc, prefix = split_server(args.server)
    conn = connect(scheme, netloc, args.timeout)
    try:
        conn.request("GET", prefix + f"/v1/jobs/{args.id}/metrics")
        response = conn.getresponse()
        if not 200 <= response.status < 300:
            raise api_error(response.status, response.read())
        for line in iter(response.readline, b""):
            sys.stdout.write(line.decode("utf-8"))
            sys.stdout.flush()
    finally:
        conn.close()
    return 0


def cmd_server_metrics(args):
    emit(request(args.server, "GET", "/v1/server/metrics"), None)
    return 0


def cmd_shutdown(args):
    emit(request(args.server, "POST", "/v1/shutdown"), None)
    return 0


def cmd_load(args):
    """Load generator: N client identities submitting M jobs each.

    Exercises coalescing (identical submissions), the fair-share
    scheduler (distinct client names, mixed priorities) and the status
    path under concurrency.  Prints a one-line summary and exits 1 if
    any job failed.
    """
    priorities = ("high", "normal", "low")
    failures = []
    lock = threading.Lock()

    def one_client(index):
        client = f"load{index}"
        ids = []
        for job in range(args.jobs):
            body = {
                "config": args.config,
                "benchmark": args.benchmark,
                "run": {"instrs": args.instrs, "seed": args.seed},
                "client": client,
                "priority": priorities[(index + job) % len(priorities)],
            }
            try:
                ids.append(request(args.server, "POST", "/v1/jobs",
                                   body)["id"])
            except ApiError as error:
                with lock:
                    failures.append(f"{client} submit: {error}")
                return
        for job_id in ids:
            try:
                status = wait_for_job(args.server, job_id,
                                      timeout=args.timeout)
                if status.get("state") != "completed":
                    with lock:
                        failures.append(f"{job_id}: {status.get('state')}")
            except ApiError as error:
                with lock:
                    failures.append(f"{job_id}: {error}")

    def client_thread(index):
        try:
            one_client(index)
        finally:
            close_connections()

    threads = [threading.Thread(target=client_thread, args=(index,))
               for index in range(args.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    gauges = request(args.server, "GET", "/v1/server/metrics")["gauges"]
    total = args.clients * args.jobs
    print(f"ringclu_client: load done: {total - len(failures)}/{total} "
          f"completed, sims={gauges['simulations_run']:.0f} "
          f"store_hits={gauges['store_hits']:.0f} "
          f"coalesced={gauges['coalesced_submissions']:.0f}")
    for failure in failures:
        print(f"ringclu_client: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ringclu_client",
        description="client for the ringclu_simd HTTP API")
    parser.add_argument("--server", default=DEFAULT_SERVER,
                        help=f"base URL (default {DEFAULT_SERVER})")
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="submit a run or sweep")
    submit.add_argument("--config", help="preset name for a single run")
    submit.add_argument("--benchmark", help="benchmark for a single run")
    submit.add_argument("--sweep", help="ExperimentSpec JSON file")
    submit.add_argument("--instrs", type=int)
    submit.add_argument("--warmup", type=int)
    submit.add_argument("--seed", type=int)
    submit.add_argument("--interval", type=int, default=0,
                        help="stream interval metrics every N instrs")
    submit.add_argument("--client", help="client identity for fair share")
    submit.add_argument("--priority", choices=("high", "normal", "low"))
    submit.add_argument("--wait", action="store_true",
                        help="block until done, then print the result")
    submit.add_argument("--timeout", type=float, default=None)
    submit.add_argument("--out", help="write the result JSON here")
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser("status", help="job status")
    status.add_argument("id")
    status.set_defaults(func=cmd_status)

    wait = sub.add_parser("wait", help="block until the job is terminal")
    wait.add_argument("id")
    wait.add_argument("--timeout", type=float, default=None)
    wait.set_defaults(func=cmd_wait)

    result = sub.add_parser("result", help="fetch finished results")
    result.add_argument("id")
    result.add_argument("--task", type=int, default=None)
    result.add_argument("--out")
    result.set_defaults(func=cmd_result)

    metrics = sub.add_parser("metrics", help="stream interval metrics")
    metrics.add_argument("id")
    metrics.add_argument("--timeout", type=float, default=300)
    metrics.set_defaults(func=cmd_metrics)

    server_metrics = sub.add_parser("server-metrics",
                                    help="live server gauges")
    server_metrics.set_defaults(func=cmd_server_metrics)

    shutdown = sub.add_parser("shutdown", help="graceful drain")
    shutdown.set_defaults(func=cmd_shutdown)

    load = sub.add_parser("load", help="multi-client load generator")
    load.add_argument("--clients", type=int, default=4)
    load.add_argument("--jobs", type=int, default=8)
    load.add_argument("--config", default="Ring_4clus_1bus_2IW")
    load.add_argument("--benchmark", default="gzip")
    load.add_argument("--instrs", type=int, default=20000)
    load.add_argument("--seed", type=int, default=42)
    load.add_argument("--timeout", type=float, default=300)
    load.set_defaults(func=cmd_load)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ApiError as error:
        print(f"ringclu_client: {error}", file=sys.stderr)
        return 1
    except (OSError, http.client.HTTPException) as error:
        print(f"ringclu_client: {args.server}: {error}", file=sys.stderr)
        return 1
    finally:
        close_connections()


if __name__ == "__main__":
    sys.exit(main())
