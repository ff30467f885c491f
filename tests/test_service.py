"""Tests for the sweep job server and the concurrent cache semantics.

The guarantees under test:

* a ``POST /sweep`` response contains exactly the cells a local
  :class:`~repro.experiments.harness.GridRunner` would produce for the
  same grid (``wall_seconds`` excepted), and the two share cache
  entries (identical ``cell_key`` digests);
* duplicate concurrent requests yield **exactly-once simulation**: the
  in-flight registry attaches late requests to the running future, and
  the cache-put-before-registry-release ordering leaves no window in
  which a duplicate would re-simulate;
* the :class:`~repro.experiments.parallel.CellCache` survives threads
  and processes hammering one directory with overlapping keys — no
  corrupt reads, no lost puts, no lost statistics — and init-time
  temp reaping removes only *stale* orphans, never in-flight writers.
"""

import json
import os
import threading
import time
import urllib.error
import urllib.request
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments.harness import Cell, GridRunner
from repro.experiments.parallel import CellCache, cell_key, workload_fingerprint
from repro.experiments.workloads import figure_workload
from repro.service import CellExecutor, CellJob, SpecError, SweepSpec, create_server


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def make_cell(intra="STATIC", nodes=2, t=1.0):
    return Cell(
        approach="mpi+mpi", inter="GSS", intra=intra, nodes=nodes,
        time=t, overhead_fraction=0.1, idle_fraction=0.05, cov=0.3,
        n_events=100, wall_seconds=0.0,
    )


TINY_SWEEP = {
    "workload": {"app": "mandelbrot", "scale": "tiny"},
    "cluster": {"ppn": 4},
    "inter": "GSS",
    "intras": ["STATIC", "SS"],
    "approaches": ["mpi+mpi"],
    "node_counts": [2],
    "seed": 0,
}


@pytest.fixture()
def server(tmp_path):
    srv = create_server(port=0, jobs=2, cache_dir=str(tmp_path / "cache"), quiet=True)
    thread = threading.Thread(
        target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()
    srv.executor.shutdown()
    thread.join(timeout=10)


def post_sweep(srv, payload):
    """POST a sweep and return the parsed NDJSON lines."""
    host, port = srv.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/sweep",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        assert response.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in response]


def get_json(srv, path):
    host, port = srv.server_address[:2]
    with urllib.request.urlopen(f"http://{host}:{port}{path}") as response:
        return json.loads(response.read())


# ---------------------------------------------------------------------------
# sweep spec surface
# ---------------------------------------------------------------------------
def test_spec_round_trip():
    spec = SweepSpec.from_json(TINY_SWEEP)
    assert spec.app == "mandelbrot" and spec.scale == "tiny"
    assert spec.intras == ("STATIC", "SS") and spec.ppn == 4


def test_spec_singular_aliases():
    spec = SweepSpec.from_json(
        {"inter": "GSS", "intra": "SS", "approach": "dcc", "nodes": 2,
         "app": "psia", "scale": "tiny", "ppn": 8}
    )
    assert spec.intras == ("SS",)
    assert spec.approaches == ("dcc",)
    assert spec.node_counts == (2,)
    assert spec.app == "psia" and spec.ppn == 8


def test_spec_grid_expansion():
    spec = SweepSpec.from_json(dict(TINY_SWEEP, intras=["SS", "GSS"],
                                    node_counts=[2, 4]))
    assert spec.grid() == [
        ("mpi+mpi", "GSS", "SS", 2), ("mpi+mpi", "GSS", "SS", 4),
        ("mpi+mpi", "GSS", "GSS", 2), ("mpi+mpi", "GSS", "GSS", 4),
    ]
    assert len(set(spec.cell_keys())) == 4


@pytest.mark.parametrize("mutation", [
    {"inter": None},                      # missing technique stack
    {"intras": []},                       # empty grid axis
    {"workload": {"app": "fft"}},         # unknown workload
    {"workload": {"scale": "galactic"}},  # unknown scale
    {"approaches": ["simd"]},             # unknown execution model
    {"node_counts": [0]},                 # non-positive nodes
    {"costs": "free"},                    # unknown preset
    {"placement": "anywhere"},            # unknown policy
    {"faults": "explode:1@now"},          # unparsable fault spec
    {"surprise": 1},                      # unknown field
    {"dcc": "yes"},                       # no dcc field: use approach "dcc"
])
def test_spec_rejects_bad_requests(mutation):
    payload = dict(TINY_SWEEP)
    payload.update(mutation)
    if payload.get("inter") is None:
        payload.pop("inter", None)
    with pytest.raises(SpecError):
        SweepSpec.from_json(payload)


def test_spec_keys_match_gridrunner_keys(tmp_path):
    """A service cell and a GridRunner cell with the same inputs must
    share one cache entry — the dedup story across entry points."""
    workload = figure_workload("mandelbrot", "tiny")
    runner = GridRunner(workload=workload, ppn=4, node_counts=(2,),
                        cache_dir=str(tmp_path))
    runner.sweep("GSS", ("STATIC", "SS"), [("mpi+mpi", lambda intra: True)])

    spec = SweepSpec.from_json(TINY_SWEEP)
    cache = CellCache(str(tmp_path))
    for key in spec.cell_keys():
        assert cache.get(key) is not None, "service key missed GridRunner's entry"


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------
def test_sweep_matches_grid_runner(server):
    lines = post_sweep(server, TINY_SWEEP)
    trailer = lines[-1]
    assert trailer["done"] and trailer["cells"] == 2 and trailer["errors"] == 0
    cells = {line["intra"]: Cell.from_dict(line["cell"]) for line in lines[:-1]}

    workload = figure_workload("mandelbrot", "tiny")
    runner = GridRunner(workload=workload, ppn=4, node_counts=(2,))
    expected = runner.sweep("GSS", ("STATIC", "SS"),
                            [("mpi+mpi", lambda intra: True)])
    for cell in expected:
        assert cells[cell.intra].same_result(cell)


def test_second_sweep_served_from_cache(server):
    first = post_sweep(server, TINY_SWEEP)
    assert first[-1]["sources"]["simulated"] == 2
    second = post_sweep(server, TINY_SWEEP)
    assert second[-1]["sources"] == {"cache": 2, "inflight": 0, "simulated": 0}
    by_key = {line["key"]: line for line in first[:-1]}
    for line in second[:-1]:
        assert Cell.from_dict(line["cell"]).same_result(
            Cell.from_dict(by_key[line["key"]]["cell"])
        )


def test_concurrent_duplicate_requests_simulated_exactly_once(server):
    """The acceptance criterion: >= 4 concurrent clients posting the
    same grid produce exactly one simulation per unique cell."""
    n_clients, barrier = 5, threading.Barrier(5)
    results, errors = [None] * n_clients, []

    def client(i):
        try:
            barrier.wait(timeout=10)
            results[i] = post_sweep(server, TINY_SWEEP)
        except Exception as error:  # pragma: no cover — diagnostic path
            errors.append(error)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors

    metrics = get_json(server, "/metrics")
    assert metrics["simulated"] == 2, "duplicate cells must simulate exactly once"
    total = {"cache": 0, "inflight": 0, "simulated": 0}
    reference = results[0][:-1]
    for lines in results:
        trailer = lines[-1]
        assert trailer["cells"] == 2 and trailer["errors"] == 0
        for source, count in trailer["sources"].items():
            total[source] += count
        by_key = {line["key"]: line for line in lines[:-1]}
        for ref in reference:
            assert Cell.from_dict(by_key[ref["key"]]["cell"]).same_result(
                Cell.from_dict(ref["cell"])
            )
    assert total["simulated"] == 2
    assert sum(total.values()) == n_clients * 2
    assert metrics["dedup_hits"] + metrics["cache_hits"] == n_clients * 2 - 2


def test_metrics_and_healthz(server):
    assert get_json(server, "/healthz") == {"status": "ok"}
    post_sweep(server, TINY_SWEEP)
    metrics = get_json(server, "/metrics")
    for field in ("in_flight", "queue_depth", "max_workers", "simulated",
                  "completed", "dedup_hits", "cache_hits", "errors",
                  "cells_per_s", "uptime_s", "requests", "cache"):
        assert field in metrics, f"metrics missing {field!r}"
    assert metrics["cache"]["hits"] >= 0
    assert metrics["requests"]["sweeps"] == 1
    assert metrics["completed"] == metrics["simulated"] == 2
    assert metrics["in_flight"] == 0


def test_failed_cache_put_still_streams_and_is_counted(server, monkeypatch):
    """A full cache disk loses the publish, not the result: the cell
    streams, ``/metrics`` counts the failed put and no temp file stays."""
    import errno

    from repro.experiments import parallel

    def no_space(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(parallel.os, "replace", no_space)
    payload = {**TINY_SWEEP, "intras": ["STATIC"]}
    lines = post_sweep(server, payload)
    trailer = lines[-1]
    assert trailer["done"] and trailer["cells"] == 1 and trailer["errors"] == 0
    assert "cell" in lines[0]
    metrics = get_json(server, "/metrics")
    assert metrics["cache_put_errors"] == 1
    assert metrics["completed"] == metrics["simulated"] == 1
    cache_dir = server.executor.cache.root
    assert not [name for name in os.listdir(cache_dir) if name.endswith(".tmp")]
    assert not [name for name in os.listdir(cache_dir) if name.endswith(".json")]


def test_bad_sweep_requests_get_400(server):
    host, port = server.server_address[:2]

    def post_raw(body):
        request = urllib.request.Request(
            f"http://{host}:{port}/sweep", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400
        return json.loads(excinfo.value.read())

    assert "error" in post_raw(b"{not json")
    assert "error" in post_raw(json.dumps({"intras": ["SS"]}).encode())
    assert "error" in post_raw(json.dumps(dict(TINY_SWEEP, surprise=1)).encode())
    assert get_json(server, "/metrics")["requests"]["bad"] == 3


def test_sweep_with_dcc_flag_gets_400_naming_it(server):
    """dCC is an approach (``"approaches": ["dcc"]``), not a flag: a
    body still sending the old boolean is refused."""
    host, port = server.server_address[:2]
    payload = dict(TINY_SWEEP)
    payload["dcc"] = True
    request = urllib.request.Request(
        f"http://{host}:{port}/sweep", data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    assert excinfo.value.code == 400
    error = json.loads(excinfo.value.read())["error"]
    assert "unknown field(s)" in error and "'dcc'" in error


def test_unknown_endpoint_404(server):
    host, port = server.server_address[:2]
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(f"http://{host}:{port}/nope")
    assert excinfo.value.code == 404


def test_simulation_error_streams_as_error_line(server):
    # an unknown technique fails inside the pool worker — it must
    # stream back as an error line, not kill the server or the stream
    lines = post_sweep(server, dict(TINY_SWEEP, intras=["NOSUCH"]))
    assert lines[-1]["errors"] == 1
    (error_line,) = [line for line in lines[:-1] if "error" in line]
    assert error_line["intra"] == "NOSUCH" and "cell" not in error_line
    # the server is still healthy and a good sweep still works
    assert get_json(server, "/healthz") == {"status": "ok"}
    good = post_sweep(server, TINY_SWEEP)
    assert good[-1]["errors"] == 0 and good[-1]["cells"] == 2


# ---------------------------------------------------------------------------
# worker crashes and dropped clients
# ---------------------------------------------------------------------------
CRASH_SWEEP = dict(TINY_SWEEP, node_counts=[2, 4])  # four cells


def test_worker_that_dies_once_is_replaced(server, monkeypatch, tmp_path):
    """A pool worker that dies (``os._exit``) costs a pool, not the
    request: every cell streams, and the server keeps serving."""
    from repro.experiments import harness

    real, parent, marker = harness.simulate_cell, os.getpid(), str(tmp_path / "died")

    def die_once(*args, **kwargs):
        if os.getpid() != parent:
            try:  # the first worker to get here dies, nobody after it
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                os._exit(1)
            except FileExistsError:
                pass
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "simulate_cell", die_once)
    lines = post_sweep(server, CRASH_SWEEP)
    assert os.path.exists(marker), "no worker died"
    trailer = lines[-1]
    assert trailer["done"] and trailer["cells"] == 4 and trailer["errors"] == 0
    assert sorted(line["index"] for line in lines[:-1]) == [0, 1, 2, 3]
    assert all("cell" in line for line in lines[:-1])
    metrics = get_json(server, "/metrics")
    assert metrics["pool_restarts"] == 1 and metrics["errors"] == 0
    assert metrics["simulated"] == metrics["completed"] == 4  # cells, not attempts
    again = post_sweep(server, dict(TINY_SWEEP, seed=1))
    assert again[-1]["errors"] == 0 and again[-1]["cells"] == 2


def test_poison_cell_streams_one_error_line(server, monkeypatch):
    """A cell that kills every worker it reaches is tried on two pools
    and streams as exactly one error line; the next request is served."""
    from repro.experiments import harness

    real, parent, cache_dir = harness.simulate_cell, os.getpid(), server.executor.cache.root

    def kill_worker(workload, cluster, approach, inter, intra, nodes, *args, **kwargs):
        if (intra, nodes) != ("SS", 4):
            return real(workload, cluster, approach, inter, intra, nodes, *args, **kwargs)
        if os.getpid() == parent:
            raise RuntimeError("the poison cell ran in the server process")
        # die once the other three cells are published, so that no
        # healthy cell is unfinished when a pool breaks
        deadline = time.monotonic() + 60
        while len(CellCache(cache_dir)) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        os._exit(1)

    monkeypatch.setattr(harness, "simulate_cell", kill_worker)
    lines = post_sweep(server, CRASH_SWEEP)
    trailer = lines[-1]
    assert trailer["done"] and trailer["cells"] == 4 and trailer["errors"] == 1
    (error_line,) = [line for line in lines[:-1] if "error" in line]
    assert (error_line["intra"], error_line["nodes"]) == ("SS", 4)
    assert error_line["error"].startswith("BrokenProcessPool")
    assert sum("cell" in line for line in lines[:-1]) == 3
    good = post_sweep(server, dict(TINY_SWEEP, seed=1))
    assert good[-1]["errors"] == 0 and good[-1]["cells"] == 2
    metrics = get_json(server, "/metrics")
    assert metrics["pool_restarts"] == 2 and metrics["errors"] == 1
    assert metrics["in_flight"] == 0


def test_client_that_disconnects_mid_stream_leaves_cells_cached(server):
    """A client that hangs up after the first NDJSON line leaves no
    registry entry behind, and every cell it asked for is cached."""
    import socket

    payload = dict(CRASH_SWEEP, intras=["STATIC", "SS", "GSS", "FAC2"])  # eight cells
    body = json.dumps(payload).encode("utf-8")
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(
            b"POST /sweep HTTP/1.0\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        with sock.makefile("rb") as reader:
            while reader.readline() not in (b"\r\n", b""):
                pass  # status line and headers
            assert "index" in json.loads(reader.readline())
    deadline = time.monotonic() + 60
    metrics = get_json(server, "/metrics")
    while metrics["completed"] < 8 and time.monotonic() < deadline:
        time.sleep(0.02)
        metrics = get_json(server, "/metrics")
    assert metrics["in_flight"] == 0
    assert metrics["simulated"] == metrics["completed"] == 8
    assert len(server.executor.cache) == 8


# ---------------------------------------------------------------------------
# the flush rule: one socket write per wake-up
# ---------------------------------------------------------------------------
HELD_SWEEP = dict(TINY_SWEEP, intras=["STATIC", "SS"])  # SS is held


def hold_ss_cells(monkeypatch, marker):
    """Make pool workers wait for ``marker`` before simulating SS cells.

    Patched before the pool's first fork, so every worker inherits it."""
    from repro.experiments import harness

    real, parent = harness.simulate_cell, os.getpid()

    def held(workload, cluster, approach, inter, intra, nodes, *args, **kwargs):
        if intra == "SS":
            if os.getpid() == parent:
                raise RuntimeError("the held cell ran in the server process")
            deadline = time.monotonic() + 60
            while not os.path.exists(marker) and time.monotonic() < deadline:
                time.sleep(0.01)
        return real(workload, cluster, approach, inter, intra, nodes, *args, **kwargs)

    monkeypatch.setattr(harness, "simulate_cell", held)


def count_server_writes(monkeypatch, srv):
    """Record every ``send``/``sendall`` on the server's accepted sockets,
    as a list of flags that are True where the write failed."""
    import socket

    port = srv.server_address[1]
    writes = []

    def counted(real):
        def call(sock, data, *args):
            if sock.getsockname()[1] != port:
                return real(sock, data, *args)
            # recorded before the bytes leave: the client can read the
            # reply and check the count before this thread runs again
            index = len(writes)
            writes.append(False)
            try:
                return real(sock, data, *args)
            except OSError:
                writes[index] = True
                raise
        return call

    monkeypatch.setattr(socket.socket, "send", counted(socket.socket.send))
    monkeypatch.setattr(socket.socket, "sendall", counted(socket.socket.sendall))
    return writes


def test_cached_lines_stream_before_a_held_cell(server, monkeypatch, tmp_path):
    """Buffering never holds back a cell that has landed: the cached
    line arrives while the other cell is still simulating."""
    marker = str(tmp_path / "release")
    hold_ss_cells(monkeypatch, marker)
    post_sweep(server, dict(TINY_SWEEP, intras=["STATIC"]))  # cache STATIC
    host, port = server.server_address[:2]
    request = urllib.request.Request(
        f"http://{host}:{port}/sweep", data=json.dumps(HELD_SWEEP).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        first = json.loads(response.readline())
        assert (first["intra"], first["source"]) == ("STATIC", "cache")
        assert not os.path.exists(marker)
        open(marker, "w").close()
        held, trailer = [json.loads(line) for line in response]
    assert (held["intra"], held["source"]) == ("SS", "simulated") and "cell" in held
    assert trailer["done"] and trailer["cells"] == 2 and trailer["errors"] == 0


def test_warm_sweep_leaves_in_one_socket_write(server, monkeypatch):
    """A fully cached 8-cell sweep is one socket write (headers, eight
    lines and the trailer), and so is a JSON reply."""
    payload = dict(CRASH_SWEEP, intras=["STATIC", "SS", "GSS", "FAC2"])  # eight cells
    post_sweep(server, payload)
    writes = count_server_writes(monkeypatch, server)
    lines = post_sweep(server, payload)
    assert lines[-1]["sources"] == {"cache": 8, "inflight": 0, "simulated": 0}
    assert writes == [False]
    writes.clear()
    assert get_json(server, "/healthz") == {"status": "ok"}
    assert writes == [False]


def test_client_hang_up_costs_one_failed_write(server, monkeypatch, tmp_path):
    """A client that resets the connection mid-stream costs exactly one
    failed write: the buffer it leaves is dropped, not flushed again,
    and the server reports no error."""
    import socket
    import struct

    marker = str(tmp_path / "release")
    hold_ss_cells(monkeypatch, marker)
    post_sweep(server, dict(TINY_SWEEP, intras=["STATIC"]))  # cache STATIC
    errors, closed = [], threading.Event()
    real_shutdown_request = server.shutdown_request

    def shutdown_request(request):
        real_shutdown_request(request)
        closed.set()

    monkeypatch.setattr(server, "handle_error",
                        lambda request, address: errors.append(address))
    monkeypatch.setattr(server, "shutdown_request", shutdown_request)
    writes = count_server_writes(monkeypatch, server)
    body = json.dumps(HELD_SWEEP).encode("utf-8")
    host, port = server.server_address[:2]
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(
            b"POST /sweep HTTP/1.0\r\nContent-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body
        )
        with sock.makefile("rb") as reader:
            while reader.readline() not in (b"\r\n", b""):
                pass  # status line and headers
            assert json.loads(reader.readline())["intra"] == "STATIC"
        # close with a reset, so the server's next write fails at once
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    open(marker, "w").close()
    assert closed.wait(60), "the handler never finished"
    assert errors == []
    assert writes.count(True) == 1, writes
    assert writes[-1], "a write followed the failed one"


def test_main_entry_point_serves_until_shutdown():
    """``repro-serve`` end to end: main() binds, serves, exits cleanly
    on POST /shutdown (the CI quickstart's lifecycle, in process)."""
    import socket

    from repro.service.server import main

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    exit_codes = []
    thread = threading.Thread(
        target=lambda: exit_codes.append(
            main(["--port", str(port), "--jobs", "1", "--quiet"])
        ),
        daemon=True,
    )
    thread.start()
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz"
            ) as response:
                assert json.loads(response.read()) == {"status": "ok"}
            break
        except OSError:
            time.sleep(0.05)
    else:  # pragma: no cover — diagnostic path
        pytest.fail("server never came up")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/shutdown", data=b"", method="POST"
    )
    with urllib.request.urlopen(request) as response:
        assert json.loads(response.read())["status"] == "shutting down"
    thread.join(timeout=30)
    assert exit_codes == [0]


def test_cli_serve_subcommand_registered():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--jobs", "3", "--cache-dir", "x", "--quiet"]
    )
    assert args.port == 0 and args.jobs == 3
    assert args.cache_dir == "x" and args.quiet


# ---------------------------------------------------------------------------
# executor-level exactly-once
# ---------------------------------------------------------------------------
def test_executor_dedups_racing_resolves(tmp_path):
    executor = CellExecutor(CellCache(str(tmp_path)), jobs=2)
    try:
        spec = SweepSpec.from_json(TINY_SWEEP)
        key = spec.cell_keys()[0]
        job = CellJob(key, spec, "mpi+mpi", "GSS", "STATIC", 2)
        n_threads, barrier = 8, threading.Barrier(8)
        outcomes = [None] * n_threads

        def race(i):
            barrier.wait(timeout=10)
            future, source = executor.resolve(job)
            outcomes[i] = (future.result(timeout=60), source)

        threads = [threading.Thread(target=race, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert executor.simulated == 1, "racing duplicates must submit once"
        cells = [cell for cell, _source in outcomes]
        assert all(cell.same_result(cells[0]) for cell in cells)
        sources = [source for _cell, source in outcomes]
        assert sources.count("simulated") == 1
        assert set(sources) <= {"simulated", "inflight", "cache"}
    finally:
        executor.shutdown()


def test_executor_failed_simulation_not_cached(tmp_path):
    executor = CellExecutor(CellCache(str(tmp_path)), jobs=1)
    try:
        spec = SweepSpec.from_json(dict(TINY_SWEEP, intras=["NOSUCH"]))
        job = CellJob(spec.cell_keys()[0], spec, "mpi+mpi", "GSS", "NOSUCH", 2)
        future, source = executor.resolve(job)
        assert source == "simulated"
        with pytest.raises(Exception):
            future.result(timeout=60)
        deadline = time.time() + 10
        while executor.metrics()["in_flight"] and time.time() < deadline:
            time.sleep(0.01)
        assert executor.metrics()["errors"] == 1
        assert len(CellCache(str(tmp_path))) == 0, "failures must not be cached"
        # the key was released: a retry submits again instead of attaching
        _future, source = executor.resolve(job)
        assert source == "simulated"
    finally:
        executor.shutdown()


# ---------------------------------------------------------------------------
# concurrent cache semantics (threads)
# ---------------------------------------------------------------------------
def test_cache_counters_survive_thread_hammering(tmp_path):
    cache = CellCache(str(tmp_path))
    keys = [f"{i:064d}" for i in range(8)]
    for i, key in enumerate(keys[:4]):  # half present, half missing
        cache.put(key, make_cell(nodes=2, t=float(i)))
    n_threads, per_thread = 8, 50
    barrier = threading.Barrier(n_threads)

    def hammer(tid):
        barrier.wait(timeout=10)
        for i in range(per_thread):
            cache.get(keys[(tid + i) % len(keys)])

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    stats = cache.stats()
    # no increment may be lost: every get is exactly one hit or miss
    assert stats["hits"] + stats["misses"] == n_threads * per_thread
    assert stats["hits"] > 0 and stats["misses"] > 0


def test_cache_concurrent_writers_and_readers_no_corruption(tmp_path):
    """Writers re-put overlapping keys while readers poll: every read
    is either a miss or a complete, valid Cell (atomic publish)."""
    cache = CellCache(str(tmp_path))
    keys = [f"{i:064x}" for i in range(4)]
    stop = threading.Event()
    bad_reads = []

    def writer(tid):
        for i in range(30):
            for key in keys:
                cache.put(key, make_cell(nodes=2, t=float(tid * 1000 + i)))

    def reader():
        while not stop.is_set():
            for key in keys:
                cell = cache.get(key)
                if cell is not None and cell.inter != "GSS":
                    bad_reads.append(cell)

    readers = [threading.Thread(target=reader) for _ in range(3)]
    writers = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
    for t in readers + writers:
        t.start()
    for t in writers:
        t.join(timeout=60)
    stop.set()
    for t in readers:
        t.join(timeout=60)
    assert not bad_reads
    assert cache.stats()["quarantined"] == 0, "a read saw a partial write"
    for key in keys:  # no lost puts: every key readable afterwards
        assert cache.get(key) is not None


# ---------------------------------------------------------------------------
# concurrent cache semantics (processes)
# ---------------------------------------------------------------------------
def _process_putter(args):
    """Module-level so the pool can pickle it: put ``rounds`` cells."""
    root, tid, keys, rounds = args
    cache = CellCache(root)
    for i in range(rounds):
        for key in keys:
            cache.put(key, make_cell(nodes=2, t=float(tid * 1000 + i)))
    return len(keys) * rounds


def test_cache_multiprocess_writers_no_lost_puts(tmp_path):
    keys = [f"{i:064x}" for i in range(6)]
    with ProcessPoolExecutor(max_workers=4) as pool:
        totals = list(pool.map(
            _process_putter,
            [(str(tmp_path), tid, keys, 10) for tid in range(4)],
        ))
    assert all(total == 60 for total in totals)
    cache = CellCache(str(tmp_path))
    assert len(cache) == len(keys)
    for key in keys:
        assert cache.get(key) is not None, "a put was lost"
    assert not list(tmp_path.glob("*.tmp")), "writers leaked temp files"
    assert not list(tmp_path.glob("*.corrupt"))


# ---------------------------------------------------------------------------
# temp-file reaping
# ---------------------------------------------------------------------------
def test_stale_tmp_files_reaped_fresh_kept(tmp_path):
    stale = tmp_path / "tmpdead01.tmp"
    stale.write_text("{half a payl")
    two_hours_ago = time.time() - 7200
    os.utime(stale, (two_hours_ago, two_hours_ago))
    fresh = tmp_path / "tmplive01.tmp"
    fresh.write_text("{in-flight ")

    cache = CellCache(str(tmp_path))
    assert cache.reaped == 1
    assert cache.stats()["reaped"] == 1
    assert not stale.exists(), "stale orphan must be reaped"
    assert fresh.exists(), "a racing writer's fresh temp file must survive"


def test_reap_ignores_non_tmp_files(tmp_path):
    cache0 = CellCache(str(tmp_path))
    key = "f" * 64
    cache0.put(key, make_cell())
    old = time.time() - 7200
    os.utime(tmp_path / f"{key}.json", (old, old))
    cache = CellCache(str(tmp_path))
    assert cache.reaped == 0
    assert cache.get(key) is not None, "reaping must never touch entries"
