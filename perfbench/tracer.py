"""Per-layer tracing of a ``repro`` process, from outside the program.

``python -m perfbench.tracer --out DIR -- <repro CLI arguments>`` runs the
``repro`` command line in this process after wrapping each layer function
named in :data:`LAYERS`.  A wrapper records one span per call: its name,
its duration, and the part of the duration not covered by nested spans (its
self time).  Spans are aggregated in memory per process and written to
``DIR`` as one JSON file when the process ends.

Worker processes forked from the traced process (the per-cell workers of
``repro suite --timeout`` and ``repro serve``) inherit the wrappers; each
one resets its copy of the aggregates when it starts and writes its own
file when it exits, so the parent never counts a child's work twice.

The program's files are never modified: the wrappers are rebound module
attributes, class attributes and module-level dict entries, and
:meth:`Installation.restore` puts every original back.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import importlib
import inspect
import json
import multiprocessing.process
import multiprocessing.util
import os
import pkgutil
import sys
import threading
import time
from pathlib import Path

#: ``(span name, module, attribute)`` of every traced layer.  The attribute
#: is a function of the module, ``Class.method``, or — for the eigen
#: modules' scipy calls — a function of ``scipy.sparse.linalg``, which
#: those modules call as ``spla.<name>``.
LAYERS = (
    ("collections.load_problem", "repro.collections.registry", "load_problem"),
    ("graph.traversal.breadth_first_levels", "repro.graph.traversal",
     "breadth_first_levels"),
    ("graph.traversal.bfs_order", "repro.graph.traversal", "bfs_order"),
    ("graph.peripheral.pseudo_peripheral_node", "repro.graph.peripheral",
     "pseudo_peripheral_node"),
    ("graph.peripheral.pseudo_diameter", "repro.graph.peripheral",
     "pseudo_diameter"),
    ("graph.components.connected_components", "repro.graph.components",
     "connected_components"),
    ("orderings.gps.number_by_levels", "repro.orderings.gps", "number_by_levels"),
    ("orderings.rcm", "repro.orderings.cuthill_mckee", "rcm_ordering"),
    ("orderings.gps", "repro.orderings.gps", "gps_ordering"),
    ("orderings.gk", "repro.orderings.gibbs_king", "gibbs_king_ordering"),
    ("orderings.sloan", "repro.orderings.sloan", "sloan_ordering"),
    ("orderings.spectral", "repro.orderings.spectral", "spectral_ordering"),
    ("orderings.hybrid", "repro.orderings.hybrid", "hybrid_spectral_ordering"),
    ("eigen.fiedler_vector", "repro.eigen.fiedler", "fiedler_vector"),
    ("eigen.multilevel_fiedler", "repro.eigen.multilevel", "multilevel_fiedler"),
    ("eigen.lanczos_smallest_nontrivial", "repro.eigen.lanczos",
     "lanczos_smallest_nontrivial"),
    ("eigen.rayleigh_quotient_iteration", "repro.eigen.rqi",
     "rayleigh_quotient_iteration"),
    ("eigen.minres", "scipy.sparse.linalg", "minres"),
    ("eigen.lobpcg", "scipy.sparse.linalg", "lobpcg"),
    ("graph.coarsen.coarsening_hierarchy", "repro.graph.coarsen",
     "coarsening_hierarchy"),
    ("graph.laplacian.laplacian_matrix", "repro.graph.laplacian",
     "laplacian_matrix"),
    ("batch.execute_task", "repro.batch.engine", "execute_task"),
    ("batch.iter_suite", "repro.batch.engine", "iter_suite"),
    ("envelope.envelope_statistics", "repro.envelope.metrics",
     "envelope_statistics"),
    ("batch.results.to_json", "repro.batch.results", "SuiteResult.to_json"),
    ("store.save", "repro.store.core", "ArtifactStore.save"),
    ("store.load", "repro.store.core", "ArtifactStore.load"),
)

class Recorder:
    """Span aggregates of one process: ``name -> [calls, s, self_s]``."""

    def __init__(self, out_dir=None):
        self.out_dir = None if out_dir is None else Path(out_dir)
        self.role = "main"
        self._stack = contextvars.ContextVar("perfbench_span", default=None)
        self._reset()
        multiprocessing.util.register_after_fork(self, Recorder._child_start)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self.samples: dict[str, list] = {}
        self.top_s = 0.0
        self._timers: dict[tuple, float] = {}

    def _child_start(self) -> None:
        # Runs first thing in a multiprocessing child: drop the parent's
        # aggregates (and a lock another parent thread may have held at the
        # fork), then write this child's spans when it exits.
        self._reset()
        self.role = "child"
        self._stack.set(None)
        multiprocessing.util.Finalize(self, self.dump, exitpriority=10)

    # ------------------------------------------------------------------ #
    def enter(self, count: bool = True):
        frame = [time.perf_counter(), 0.0, self._stack.get(), count]
        return frame, self._stack.set(frame)

    def exit(self, name: str, handle) -> None:
        frame, token = handle
        duration = time.perf_counter() - frame[0]
        self._stack.reset(token)
        parent = frame[2]
        if parent is not None:
            parent[1] += duration
        with self._lock:
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1 if frame[3] else 0
            entry[1] += duration
            entry[2] += duration - frame[1]
            if parent is None:
                self.top_s += duration

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def start_timer(self, key) -> None:
        with self._lock:
            self._timers[key] = time.perf_counter()

    def stop_timer(self, key) -> float | None:
        """Seconds since :meth:`start_timer` of ``key``, or ``None``."""
        with self._lock:
            started = self._timers.pop(key, None)
        return None if started is None else time.perf_counter() - started

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "role": self.role,
                "top_s": self.top_s,
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counters": dict(self.counters),
                "samples": {k: list(v) for k, v in self.samples.items()},
            }

    def dump(self) -> None:
        if self.out_dir is None:
            return
        snapshot = self.snapshot()
        path = self.out_dir / (f"{snapshot['role']}-{snapshot['pid']}-"
                               f"{os.urandom(4).hex()}.json")
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(snapshot))
        os.replace(tmp, path)


# ---------------------------------------------------------------------- #
# wrappers
# ---------------------------------------------------------------------- #
def _span_wrapper(recorder: Recorder, name: str, fn, after=None):
    """A wrapper recording one ``name`` span per call of ``fn``.

    Generator functions get one span per resumption (the call is counted
    once), so a generator's span covers the work done while producing each
    item — for ``iter_suite`` that includes waiting on worker processes.
    ``after(result, args)`` is called with each return value.
    """
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def generator_wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            first = True
            try:
                while True:
                    handle = recorder.enter(count=first)
                    first = False
                    try:
                        item = next(generator)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        recorder.exit(name, handle)
                    yield item
            finally:
                generator.close()

        return generator_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        handle = recorder.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.exit(name, handle)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _probes(recorder: Recorder) -> dict:
    """Per-layer counters taken from return values, keyed by span name."""

    def store_saved(path, _args):
        try:
            recorder.count("store.save.bytes", Path(path).stat().st_size)
        except OSError:
            pass

    def fiedler_done(result, _args):
        if getattr(result, "converged", True) is False:
            recorder.count("eigen.unconverged")

    return {"store.save": store_saved, "eigen.fiedler_vector": fiedler_done}


def _store_load_wrapper(recorder: Recorder, fn):
    """``ArtifactStore.load`` span plus hit and corrupt-eviction counts."""
    spanned = _span_wrapper(recorder, "store.load", fn)

    @functools.wraps(fn)
    def load(self, *args, **kwargs):
        corrupt_before = self.stats.get("corrupt", 0)
        result = spanned(self, *args, **kwargs)
        recorder.count("store.load.hits", result is not None)
        recorder.count("store.corrupt", self.stats.get("corrupt", 0) - corrupt_before)
        return result

    return load


def _pool_wrappers(recorder: Recorder, run, run_blocking):
    """Serve pool probes: the time a cell waits for a free worker slot.

    ``WorkerPool.run`` admits a cell and waits for a slot;
    ``WorkerPool._run_blocking`` starts once the slot is granted.
    """

    @functools.wraps(run)
    async def pool_run(self, task, *args, **kwargs):
        recorder.start_timer(("queued", id(task)))
        return await run(self, task, *args, **kwargs)

    @functools.wraps(run_blocking)
    def pool_run_blocking(self, task, *args, **kwargs):
        waited = recorder.stop_timer(("queued", id(task)))
        if waited is not None:
            recorder.sample("serve.pool.queue_wait_ms", waited * 1e3)
        return run_blocking(self, task, *args, **kwargs)

    return pool_run, pool_run_blocking


def _process_wrappers(recorder: Recorder, start, join):
    """Worker-process lifetimes, from the parent's ``start`` to its ``join``."""

    @functools.wraps(start)
    def process_start(self, *args, **kwargs):
        recorder.start_timer(("process", id(self)))
        return start(self, *args, **kwargs)

    @functools.wraps(join)
    def process_join(self, *args, **kwargs):
        result = join(self, *args, **kwargs)
        if self.exitcode is not None:
            lifetime = recorder.stop_timer(("process", id(self)))
            if lifetime is not None:
                recorder.count("batch.runner.worker_s", lifetime)
        return result

    return process_start, process_join


class Installation:
    """The set of bindings :func:`install` replaced, for :meth:`restore`."""

    def __init__(self):
        self.bindings: list[tuple[object, str, object, object, bool]] = []

    def rebind(self, container, key, original, wrapper, is_item=False) -> None:
        self.bindings.append((container, key, original, wrapper, is_item))
        if is_item:
            container[key] = wrapper
        else:
            setattr(container, key, wrapper)

    def restore(self) -> None:
        for container, key, original, _wrapper, is_item in reversed(self.bindings):
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)
        self.bindings.clear()


def import_program_modules() -> list:
    """Import every ``repro`` module, so each binding of a layer is seen."""
    import repro

    modules = [repro]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        try:
            modules.append(importlib.import_module(info.name))
        except ImportError:
            continue  # optional tiers (e.g. numba) stay absent
    return modules


def install(recorder: Recorder) -> Installation:
    """Wrap every layer in :data:`LAYERS` in every module that binds it."""
    modules = import_program_modules()
    installation = Installation()
    probes = _probes(recorder)
    for name, module_name, attribute in LAYERS:
        owner = importlib.import_module(module_name)
        if "." in attribute:
            class_name, method = attribute.split(".")
            cls = getattr(owner, class_name)
            original = cls.__dict__[method]
            if name == "store.load":
                wrapper = _store_load_wrapper(recorder, original)
            else:
                wrapper = _span_wrapper(recorder, name, original, probes.get(name))
            installation.rebind(cls, method, original, wrapper)
            continue
        original = getattr(owner, attribute)
        wrapper = _span_wrapper(recorder, name, original, probes.get(name))
        installation.rebind(owner, attribute, original, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original and module is not owner:
                    installation.rebind(module, key, original, wrapper)
                elif isinstance(value, dict):
                    # registries such as ORDERING_ALGORITHMS hold the
                    # function object itself
                    for item_key, item in list(value.items()):
                        if item is original:
                            installation.rebind(value, item_key, original,
                                                wrapper, is_item=True)
    pool = importlib.import_module("repro.serve.pool").WorkerPool
    run, run_blocking = pool.__dict__["run"], pool.__dict__["_run_blocking"]
    pool_run, pool_run_blocking = _pool_wrappers(recorder, run, run_blocking)
    installation.rebind(pool, "run", run, pool_run)
    installation.rebind(pool, "_run_blocking", run_blocking, pool_run_blocking)
    process = multiprocessing.process.BaseProcess
    start, join = process.__dict__["start"], process.__dict__["join"]
    process_start, process_join = _process_wrappers(recorder, start, join)
    installation.rebind(process, "start", start, process_start)
    installation.rebind(process, "join", join, process_join)
    return installation


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench.tracer",
        description="run a repro command with every layer traced")
    parser.add_argument("--out", required=True,
                        help="directory receiving one JSON span file per process")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the repro command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    Path(args.out).mkdir(parents=True, exist_ok=True)
    recorder = Recorder(args.out)
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
