"""The serving workload: a closed loop of clients against ``repro serve``.

The server runs as a user would start it (``repro serve --workers 2
--store DIR``, default subprocess worker mode).  Set-up prewarms the store
with ``repro cache prewarm`` and one pass over the distinct requests, so
the timed passes read the store.  Each timed pass sends a fixed sequence of
requests, shuffled by the seed, through two clients that each wait for a
reply before sending the next.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import signal
import subprocess
import threading
import time
from pathlib import Path

import numpy as np

from perfbench.harness import (
    ROOT,
    BenchError,
    Tally,
    canonical_record,
    geomean,
    median,
    peak_child_rss_mb,
    percentile,
    permutation_problems,
    program_env,
    record_problems,
    repro_command,
    run_program,
)
from perfbench.layers import layer_metrics, read_dumps

#: Eight small paper problems served from the registry.
PROBLEMS = ("BCSSTK13", "CAN1072", "POW9", "SSTMODEL", "BARTH4", "SHUTTLE",
            "SKIRT", "BCSSTK33")
SCALE = 0.1
ALGORITHMS = ("rcm", "gps", "gk", "sloan", "spectral")
#: Inline uploads: perturbed grids of GRID_SIDE^2 vertices.
INLINE_PATTERNS = 2
GRID_SIDE = 50
#: Copies of each distinct request in one pass: 40 registry keys x 3 and
#: 10 inline keys x 4, so a pass is 160 requests, a quarter of them uploads.
REGISTRY_REPEATS = 3
INLINE_REPEATS = 4

CLIENTS = 2
WORKERS = 2
SETUP_REPEATS = 3
#: Wall time of one pass on a 2-core x86-64 host (Python 3.11), used to
#: turn ``--seconds`` into a pass count; two passes leave 16 latencies
#: above the p95.
NOMINAL_PASS_S = 7.0
OVERRUN = 1.5
BOOT_TIMEOUT_S = 60.0
_BOOT_LINE = re.compile(r"listening on http://([\d.]+):(\d+)")


class Request:
    """One distinct request: its encoded body and what its answer must be."""

    def __init__(self, payload: dict, pattern, label: str):
        self.body = json.dumps(payload).encode()
        self.pattern = pattern
        self.label = label


def inline_pattern(k: int):
    """Upload ``k``: a grid with extra diagonals, the same for every seed.

    The seed orders the requests and sets their ``base_seed``; keeping the
    uploaded structures fixed keeps ordering quality comparable across
    seeds.
    """
    from repro.sparse.pattern import SymmetricPattern

    idx = np.arange(GRID_SIDE * GRID_SIDE).reshape(GRID_SIDE, GRID_SIDE)
    diagonal = np.random.default_rng(k).random((GRID_SIDE - 1, GRID_SIDE - 1)) < 0.3
    rows = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel(),
                           idx[:-1, :-1][diagonal]])
    cols = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel(),
                           idx[1:, 1:][diagonal]])
    return SymmetricPattern.from_edge_arrays(GRID_SIDE * GRID_SIDE, rows, cols)


def distinct_requests(seed: int) -> list[Request]:
    from repro.collections.registry import load_problem

    requests = []
    for problem in PROBLEMS:
        pattern, _spec = load_problem(problem, scale=SCALE)
        for algorithm in ALGORITHMS:
            requests.append(Request(
                {"problem": problem, "scale": SCALE, "algorithm": algorithm,
                 "base_seed": seed, "include_permutation": True},
                pattern, f"{problem}/{algorithm}"))
    for k in range(INLINE_PATTERNS):
        pattern = inline_pattern(k)
        csr = {"n": pattern.n, "indptr": pattern.indptr.tolist(),
               "indices": pattern.indices.tolist()}
        for algorithm in ALGORITHMS:
            requests.append(Request(
                {"csr": csr, "algorithm": algorithm, "base_seed": seed,
                 "include_permutation": True},
                pattern, f"inline{k}/{algorithm}"))
    return requests


def pass_sequence(requests: list[Request], seed: int) -> list[Request]:
    sequence = []
    for request in requests:
        repeats = INLINE_REPEATS if request.label.startswith("inline") else REGISTRY_REPEATS
        sequence += [request] * repeats
    random.Random(seed).shuffle(sequence)
    return sequence


class Server:
    """A ``repro serve`` process on an ephemeral port."""

    def __init__(self, wd: Path, store: Path, traced_out: Path | None = None):
        self.log_path = wd / f"serve-{store.name}-{'traced' if traced_out else 'plain'}.log"
        self.log = open(self.log_path, "w")
        command = repro_command("serve", "--port", "0", "--workers", str(WORKERS),
                                "--store", str(store), "--no-debug-delay",
                                traced_out=traced_out)
        self.proc = subprocess.Popen(command, cwd=ROOT, env=program_env(),
                                     stdout=self.log, stderr=subprocess.STDOUT)
        try:
            self.port = self._await_boot()
            self._await_health()
        except BaseException:
            self.stop()
            raise

    def _await_boot(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _BOOT_LINE.search(self.log_path.read_text())
            if match:
                return int(match.group(2))
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during boot: "
                                 f"{self.log_path.read_text()[-800:]}")
            time.sleep(0.005)
        raise BenchError("server did not boot in time")

    def _await_health(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            status, body = request(self.port, "GET", "/healthz")
            if status == 200 and json.loads(body).get("status") == "ok":
                return
            time.sleep(0.005)
        raise BenchError("server never reported healthy")

    def stats(self) -> dict:
        status, body = request(self.port, "GET", "/statsz")
        if status != 200:
            raise BenchError(f"/statsz answered {status}")
        return json.loads(body)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def request(port: int, method: str, path: str, body: bytes | None = None):
    """One HTTP exchange; ``(status, body)``, status 0 on a transport failure."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        return 0, str(exc).encode()
    finally:
        connection.close()


def closed_loop(port: int, sequence: list[Request]):
    """Send ``sequence`` through :data:`CLIENTS` waiting clients.

    Returns ``(wall_s, results)`` with one ``(request, latency_s, status,
    body)`` per element of ``sequence``, in sequence order.
    """
    results = [None] * len(sequence)
    cursor = iter(range(len(sequence)))
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            item = sequence[index]
            sent = time.perf_counter()
            status, body = request(port, "POST", "/v1/order", item.body)
            results[index] = (item, time.perf_counter() - sent, status, body)

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, results


def check_results(results, tally: Tally, canonical: dict) -> list[dict]:
    """Check every response; returns the ``ok`` records.

    ``canonical`` maps each request label to its record's canonical form;
    every answer to the same request must be byte-identical to it.
    """
    from repro.envelope.metrics import envelope_statistics

    ok = []
    for item, _latency, status, body in results:
        if status != 200:
            tally.check([f"{item.label}: HTTP {status}: {body[:200]!r}"])
            continue
        payload = json.loads(body)
        record = payload["record"]
        perm = payload.get("permutation")
        problems = record_problems(record)
        problems += permutation_problems(perm, item.pattern.n)
        if not problems:
            recomputed = envelope_statistics(item.pattern, np.asarray(perm)).as_dict()
            if recomputed != record["metrics"]:
                problems.append(f"{item.label}: metrics differ from the "
                                f"permutation's recomputed envelope statistics")
        form = canonical_record(record)
        if canonical.setdefault(item.label, form) != form:
            problems.append(f"{item.label}: answers to one request differ")
        if tally.check(problems):
            ok.append(record)
    return ok


def setup(wd: Path, index: int, requests, tally: Tally, canonical: dict):
    """Prewarm a fresh store, boot a server on it and send each distinct
    request once; ``(server, store, seconds)``."""
    store = wd / f"store-{index}"
    start = time.perf_counter()
    run_program(repro_command("cache", "prewarm", *PROBLEMS, "--scale", repr(SCALE),
                              "--store", str(store)))
    server = Server(wd, store)
    try:
        _wall, results = closed_loop(server.port, requests)
        elapsed = time.perf_counter() - start
        check_results(results, tally, canonical)
    except BaseException:
        server.stop()
        raise
    return server, store, elapsed


def check_against_suite(seed: int, wd: Path, canonical: dict, tally: Tally) -> None:
    """One served cell must equal the ``repro suite`` record byte for byte."""
    problem = PROBLEMS[seed % len(PROBLEMS)]
    algorithm = ALGORITHMS[seed % len(ALGORITHMS)]
    output = wd / "suite-cell.json"
    run_program(repro_command("suite", problem, "--algorithms", algorithm,
                              "--scale", repr(SCALE), "--seed", str(seed),
                              "--jobs", "1", "--no-progress", "--output", str(output)))
    record = json.loads(output.read_text())["records"][0]
    served = canonical.get(f"{problem}/{algorithm}")
    tally.check([] if served == canonical_record(record) else
                [f"served {problem}/{algorithm} differs from the suite record"])


def timed_passes(seconds: float) -> int:
    """Passes filling about ``seconds`` at the nominal pass time.

    The count depends on ``seconds``, not on how fast passes run, because
    the server's job registry grows with the requests it has answered: a
    count that followed the speed would move peak memory.  Only a host so
    slow that the passes overrun :data:`OVERRUN` times ``seconds`` stops
    early, after two passes.
    """
    return max(2, round(seconds / NOMINAL_PASS_S))


def run(workload: str, seed: int, seconds: float, wd: Path, tally: Tally, info: dict) -> dict:
    """The end-to-end metrics of one untraced run."""
    requests = distinct_requests(seed)
    sequence = pass_sequence(requests, seed)
    canonical: dict = {}
    setups, server = [], None
    try:
        for index in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            server, _store, elapsed = setup(wd, index, requests, tally, canonical)
            setups.append(elapsed)

        walls, latencies_ms, esizes = [], [], []
        ok_requests = 0
        start = time.perf_counter()
        for index in range(timed_passes(seconds)):
            if index >= 2 and time.perf_counter() - start > OVERRUN * seconds:
                break  # a host far slower than nominal
            wall, results = closed_loop(server.port, sequence)
            walls.append(wall)
            latencies_ms += [latency * 1e3 for _item, latency, _s, _b in results]
            ok = check_results(results, tally, canonical)
            ok_requests += len(ok)
            esizes += [r["metrics"]["envelope_size"] for r in ok]
        stats = server.stats()
    finally:
        if server is not None:
            server.stop()
    check_against_suite(seed, wd, canonical, tally)
    tally.check([] if stats["requests"]["shed"] == 0 else
                [f"{stats['requests']['shed']} requests shed"])
    info.update(passes=len(walls), requests=len(latencies_ms),
                pass_walls_s=[round(w, 4) for w in walls],
                setups_s=[round(s, 4) for s in setups])
    return {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p95_ms": percentile(latencies_ms, 95),
        "requests_per_s": ok_requests / sum(walls),
        "success_ratio": tally.success_ratio,
        "esize_geomean": geomean(esizes),
        "peak_rss_mb": peak_child_rss_mb(),
    }


def run_traced(workload: str, seed: int, seconds: float, wd: Path, tally: Tally,
               info: dict) -> dict:
    """The per-layer metrics: one untraced pass, then the same pass traced.

    Both passes read a store prewarmed by an untraced server; the traced
    server is booted on that store afterwards.
    """
    requests = distinct_requests(seed)
    sequence = pass_sequence(requests, seed)
    canonical: dict = {}
    server, store, _elapsed = setup(wd, 0, requests, tally, canonical)
    try:
        untraced_s, plain = closed_loop(server.port, sequence)
    finally:
        server.stop()
    check_results(plain, tally, canonical)

    trace_dir = wd / "trace"
    traced_server = Server(wd, store, traced_out=trace_dir)
    try:
        traced_s, traced = closed_loop(traced_server.port, sequence)
        stats = traced_server.stats()
    finally:
        traced_server.stop()
    check_results(traced, tally, canonical)

    compute_ms, overhead_ms = [], []
    for _item, latency, status, body in plain:
        if status == 200:
            record_ms = json.loads(body)["record"]["time_s"] * 1e3
            compute_ms.append(record_ms)
            overhead_ms.append(latency * 1e3 - record_ms)
    info.update(untraced_pass_s=round(untraced_s, 4), traced_pass_s=round(traced_s, 4))
    serve = {
        "serve.compute_ms.p50": median(compute_ms),
        "serve.overhead_ms.p50": median(overhead_ms),
        "serve.computations": stats["coalescing"]["computations"],
        "serve.coalesced": stats["coalescing"]["coalesced"],
        "serve.shed": stats["requests"]["shed"],
        "serve.worker_crashed": stats["pool"]["completed"]["crashed"],
    }
    # Each request waits on its own worker, so the end-to-end time the
    # workers' spans are set against is the sum of the request latencies.
    return layer_metrics(read_dumps(trace_dir), blocking_role="child",
                         traced_s=sum(latency for _item, latency, _s, _b in traced),
                         overhead_s=traced_s - untraced_s, serve=serve)
