"""The HTTP front end: ``POST /sweep`` streaming NDJSON, ``GET /metrics``.

Stdlib only (``http.server``): one ``ThreadingHTTPServer`` whose
handler threads share a single
:class:`~repro.experiments.parallel.CellExecutor` (process pool +
in-flight registry) and one on-disk
:class:`~repro.experiments.parallel.CellCache`.  Responses to
``POST /sweep`` are newline-delimited JSON written as each cell lands
(completion order, indices map lines back to the requested grid), with
``Connection: close`` framing so any HTTP client can consume the
stream incrementally.  The handler writes through a buffered stream and
flushes once per wake-up: the headers and every cell resolved up front
leave in one socket write, and each later wake-up sends every cell that
landed since in one more.

Endpoints::

    POST /sweep     sweep spec JSON in, NDJSON cell stream out
    GET  /metrics   executor/cache/queue counters as JSON
    GET  /healthz   liveness probe
    POST /shutdown  finish open streams, stop accepting, exit cleanly

Run with ``repro-serve``, ``python -m repro.service`` or ``repro
serve``; see ``docs/SERVICE.md`` for the request schema and a worked
curl example.

Unit and index conventions: ``uptime_s`` in ``GET /metrics`` is host
seconds and a streamed cell's ``time`` simulated seconds.  A line's
``index`` is its position in the requested grid, not a rank or a node
index; cells are sized by node count and ranks per node (``ppn``).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, wait
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional

from repro.experiments.parallel import CellCache
from repro.service.jobs import CellExecutor, CellJob
from repro.service.spec import SpecError, SweepSpec

#: default TCP port (fits "repro" on a phone keypad, more or less)
DEFAULT_PORT = 8752


class SweepServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that owns the executor and request stats."""

    daemon_threads = True  # a stuck client must not block shutdown

    def __init__(self, address, executor: CellExecutor, quiet: bool = False):
        super().__init__(address, SweepHandler)
        self.executor = executor
        self.quiet = quiet
        self.started = time.monotonic()
        self._stats_lock = threading.Lock()
        self.n_requests = 0
        self.n_sweeps = 0
        self.n_bad_requests = 0

    def count(self, stat: str) -> None:
        """Thread-safe increment of a request counter."""
        with self._stats_lock:
            setattr(self, stat, getattr(self, stat) + 1)

    def metrics(self) -> Dict[str, Any]:
        """The ``GET /metrics`` document."""
        with self._stats_lock:
            requests = {
                "total": self.n_requests,
                "sweeps": self.n_sweeps,
                "bad": self.n_bad_requests,
            }
        payload = self.executor.metrics()
        payload["requests"] = requests
        payload["uptime_s"] = time.monotonic() - self.started
        return payload

    def stop(self) -> None:
        """Stop the accept loop from any thread (idempotent)."""
        threading.Thread(target=self.shutdown, daemon=True).start()


class SweepHandler(BaseHTTPRequestHandler):
    """Routes the four endpoints; one instance per connection."""

    server_version = "repro-serve/1.0"
    # HTTP/1.0 close-delimited framing: the NDJSON stream needs neither
    # a Content-Length up front nor chunked encoding — clients read
    # until the server closes the connection.
    protocol_version = "HTTP/1.0"
    # Buffered replies, flushed once per wake-up: a JSON reply, or each
    # batch of landed cells, leaves in one socket write.
    wbufsize = -1

    server: SweepServer  # narrowed for type checkers

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Log one request line to stderr, unless the server is quiet."""
        if not self.server.quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.wfile.flush()  # /shutdown's reply must leave before the server stops

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        """Serve ``/healthz`` and ``/metrics``; 404 for any other path."""
        self.server.count("n_requests")
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"})
        elif self.path == "/metrics":
            self._send_json(200, self.server.metrics())
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        """Serve ``/sweep`` and ``/shutdown``; 404 for any other path."""
        self.server.count("n_requests")
        if self.path == "/shutdown":
            self._send_json(200, {"status": "shutting down"})
            self.server.stop()
        elif self.path == "/sweep":
            self._handle_sweep()
        else:
            self._send_json(404, {"error": f"no such endpoint {self.path!r}"})

    # ------------------------------------------------------------------
    def _read_body(self) -> Any:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise SpecError("request body required (Content-Length missing or 0)")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise SpecError(f"request body is not valid JSON: {error}") from error

    def _handle_sweep(self) -> None:
        try:
            spec = SweepSpec.from_json(self._read_body())
            jobs = [
                CellJob(key, spec, approach, inter, intra, nodes)
                for key, (approach, inter, intra, nodes) in zip(
                    spec.cell_keys(), spec.grid()
                )
            ]
        except SpecError as error:
            self.server.count("n_bad_requests")
            self._send_json(400, {"error": str(error)})
            return
        self.server.count("n_sweeps")

        # Resolve every cell up front: duplicates (within this request
        # or across concurrent ones) attach to one future, cache hits
        # come back pre-completed.
        resolved = [self.server.executor.resolve(job) for job in jobs]
        by_future: Dict[Any, List[int]] = {}
        for index, (future, _source) in enumerate(resolved):
            by_future.setdefault(future, []).append(index)

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()

        sources = {"cache": 0, "inflight": 0, "simulated": 0}
        for _future, source in resolved:
            sources[source] += 1
        n_errors = 0
        pending = set(by_future)
        landed = {future for future in pending if future.done()}
        try:
            while True:
                pending -= landed
                for future in sorted(landed, key=lambda f: by_future[f][0]):
                    for index in by_future[future]:
                        n_errors += self._write_line(future, index, jobs[index],
                                                     resolved[index][1])
                if not pending:
                    break
                self.wfile.flush()  # one socket write per wake-up
                landed = wait(pending, return_when=FIRST_COMPLETED).done
            trailer = {
                "done": True,
                "cells": len(jobs),
                "sources": sources,
                "errors": n_errors,
            }
            self.wfile.write((json.dumps(trailer, sort_keys=True) + "\n").encode("utf-8"))
            self.wfile.flush()
        except ConnectionError:
            # The client went away; its simulations still finish for the
            # cache.  Drop what the buffer holds: a closed raw stream
            # keeps the buffered writer from flushing into the dead
            # socket again, and the stdlib's closing flushes hit a sink.
            self.wfile.raw.close()
            self.wfile = io.BytesIO()

    def _write_line(self, future, index: int, job: CellJob, source: str) -> int:
        """Buffer one landed cell's NDJSON line; 1 if it carries an error."""
        line: Dict[str, Any] = {
            "index": index,
            "approach": job.approach,
            "inter": job.inter,
            "intra": job.intra,
            "nodes": job.nodes,
            "key": job.key,
            "source": source,
        }
        failed = 0
        try:
            line["cell"] = future.result().to_dict()
        except Exception as error:  # simulation failed in the worker
            line["error"] = f"{type(error).__name__}: {error}"
            failed = 1
        self.wfile.write((json.dumps(line, sort_keys=True) + "\n").encode("utf-8"))
        return failed


def create_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    jobs: int = 2,
    cache_dir: Optional[str] = None,
    quiet: bool = False,
) -> SweepServer:
    """Build a ready-to-serve :class:`SweepServer` (``port=0`` = ephemeral)."""
    cache = CellCache(cache_dir) if cache_dir else None
    executor = CellExecutor(cache, jobs=jobs)
    return SweepServer((host, port), executor, quiet=quiet)


def main(argv: Optional[List[str]] = None) -> int:
    """``repro-serve`` — run the sweep server until SIGINT or /shutdown."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="serve sweep requests over the shared cell cache "
                    "(POST /sweep, GET /metrics — see docs/SERVICE.md)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"TCP port (default {DEFAULT_PORT}; 0 = ephemeral)")
    parser.add_argument("--jobs", type=int, default=2,
                        help="simulation worker processes (default 2)")
    parser.add_argument("--cache-dir", default=None,
                        help="shared content-addressed cell cache directory "
                             "(omit to serve without an on-disk cache)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-request access logging")
    args = parser.parse_args(argv)

    server = create_server(
        args.host, args.port, jobs=args.jobs, cache_dir=args.cache_dir,
        quiet=args.quiet,
    )
    host, port = server.server_address[:2]
    print(
        f"repro-serve listening on http://{host}:{port} "
        f"(jobs={args.jobs}, cache={args.cache_dir or 'none'})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        server.executor.shutdown()
    print("repro-serve: clean shutdown", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
