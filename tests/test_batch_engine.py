"""Tests for the parallel batch-experiment engine (repro.batch.engine)."""

import numpy as np
import pytest

from repro.batch.engine import execute_task, iter_suite, run_suite
from repro.batch.tasks import BatchTask, build_tasks, derive_seed
from repro.orderings.registry import ORDERING_ALGORITHMS, PAPER_ALGORITHMS

SCALE = 0.02


class TestBuildTasks:
    def test_cross_product_order_and_indices(self):
        tasks = build_tasks(["POW9", "CAN1072"], ("rcm", "gps"), scale=SCALE)
        assert [(t.problem, t.algorithm) for t in tasks] == [
            ("POW9", "rcm"), ("POW9", "gps"), ("CAN1072", "rcm"), ("CAN1072", "gps"),
        ]
        assert [t.index for t in tasks] == [0, 1, 2, 3]

    def test_case_insensitive_problem_names(self):
        tasks = build_tasks(["pow9"], ("rcm",))
        assert tasks[0].problem == "POW9"

    def test_unknown_problem_raises(self):
        with pytest.raises(ValueError, match="unknown problem"):
            build_tasks(["NOSUCH"], ("rcm",))

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            build_tasks(["POW9"], ("rcm", "amd"))

    def test_seeds_independent_of_task_order(self):
        forward = build_tasks(["POW9", "CAN1072"], ("rcm", "gps"))
        backward = build_tasks(["CAN1072", "POW9"], ("gps", "rcm"))
        seeds_forward = {(t.problem, t.algorithm): t.seed for t in forward}
        seeds_backward = {(t.problem, t.algorithm): t.seed for t in backward}
        assert seeds_forward == seeds_backward

    def test_base_seed_changes_seeds(self):
        assert derive_seed(0, "POW9", "rcm") != derive_seed(1, "POW9", "rcm")


class TestExecuteTask:
    def test_ok_record_has_metrics_and_ordering(self):
        task = BatchTask(problem="POW9", algorithm="rcm", scale=SCALE,
                         seed=derive_seed(0, "POW9", "rcm"))
        record = execute_task(task)
        assert record.ok and record.error is None
        assert record.n > 0 and record.nnz > 0
        assert record.metrics["envelope_size"] > 0
        assert sorted(record.ordering.perm.tolist()) == list(range(record.n))
        assert record.time_s >= 0

    def test_exception_becomes_failure_record(self, monkeypatch):
        def boom(pattern, **kwargs):
            raise RuntimeError("kaboom mid-suite")

        monkeypatch.setitem(ORDERING_ALGORITHMS, "boom", boom)
        record = execute_task(BatchTask(problem="POW9", algorithm="boom", scale=SCALE))
        assert not record.ok
        assert record.error["type"] == "RuntimeError"
        assert "kaboom" in record.error["message"]
        assert "Traceback" in record.error["traceback"]
        assert record.ordering is None

    def test_capture_errors_false_propagates(self, monkeypatch):
        def boom(pattern, **kwargs):
            raise RuntimeError("kaboom")

        monkeypatch.setitem(ORDERING_ALGORITHMS, "boom", boom)
        with pytest.raises(RuntimeError, match="kaboom"):
            execute_task(BatchTask(problem="POW9", algorithm="boom", scale=SCALE),
                         capture_errors=False)

    def test_rng_injected_deterministically(self):
        task = BatchTask(problem="POW9", algorithm="random", scale=SCALE, seed=123)
        a = execute_task(task)
        b = execute_task(task)
        assert np.array_equal(a.ordering.perm, b.ordering.perm)
        other = execute_task(
            BatchTask(problem="POW9", algorithm="random", scale=SCALE, seed=124)
        )
        assert not np.array_equal(a.ordering.perm, other.ordering.perm)


class TestRunSuite:
    def test_one_failure_does_not_kill_the_suite(self, monkeypatch):
        def boom(pattern, **kwargs):
            raise RuntimeError("kaboom mid-suite")

        monkeypatch.setitem(ORDERING_ALGORITHMS, "boom", boom)
        suite = run_suite(["POW9", "CAN1072"], ("rcm", "boom"), scale=SCALE)
        assert len(suite.records) == 4
        assert len(suite.failures) == 2
        assert {r.algorithm for r in suite.failures} == {"boom"}
        assert {r.algorithm for r in suite.ok_records} == {"rcm"}
        # the suite still renders and serializes
        assert "FAILED POW9/boom" in suite.to_text()
        reloaded = type(suite).from_json(suite.to_json())
        assert reloaded.failures[0].error["type"] == "RuntimeError"

    def test_empty_problem_list(self):
        suite = run_suite([], ("rcm",), scale=SCALE)
        assert suite.records == [] and suite.failures == []
        assert suite.winners() == {}
        roundtrip = type(suite).from_json(suite.to_json())
        assert roundtrip.to_dict() == suite.to_dict()

    def test_unknown_algorithm_raises_upfront(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_suite(["POW9"], ("rcm", "amd"), scale=SCALE)

    def test_unknown_problem_raises_upfront(self):
        with pytest.raises(ValueError, match="unknown problem"):
            run_suite(["NOSUCH"], ("rcm",), scale=SCALE)

    def test_invalid_n_jobs_raises(self):
        with pytest.raises(ValueError, match="n_jobs"):
            run_suite(["POW9"], ("rcm",), scale=SCALE, n_jobs=0)

    def test_json_round_trip_equality(self):
        suite = run_suite(["POW9"], ("rcm", "gps"), scale=SCALE)
        roundtrip = type(suite).from_json(suite.to_json())
        assert roundtrip.to_dict() == suite.to_dict()
        assert roundtrip.to_json() == suite.to_json()

    def test_parallel_matches_serial(self):
        serial = run_suite(["POW9", "CAN1072"], ("rcm", "gps"), scale=SCALE, n_jobs=1)
        parallel = run_suite(["POW9", "CAN1072"], ("rcm", "gps"), scale=SCALE, n_jobs=2)
        assert serial.diff(parallel) == []
        assert serial.to_json(include_timing=False) == parallel.to_json(include_timing=False)

    def test_parallel_returns_orderings(self):
        suite = run_suite(["POW9"], ("rcm",), scale=SCALE, n_jobs=2)
        # single task short-circuits to serial; force two tasks
        suite = run_suite(["POW9"], ("rcm", "gps"), scale=SCALE, n_jobs=2)
        for record in suite.records:
            assert sorted(record.ordering.perm.tolist()) == list(range(record.n))

    def test_keep_orderings_false_drops_permutations(self):
        suite = run_suite(["POW9"], ("rcm",), scale=SCALE, keep_orderings=False)
        assert all(record.ordering is None for record in suite.records)

    def test_parallel_shard_matches_serial_shard(self):
        serial = run_suite(["POW9", "CAN1072"], ("rcm", "gps"), scale=SCALE,
                           n_jobs=1, shard=(1, 2))
        parallel = run_suite(["POW9", "CAN1072"], ("rcm", "gps"), scale=SCALE,
                             n_jobs=2, shard=(1, 2))
        assert serial.to_json(include_timing=False) == parallel.to_json(include_timing=False)

    def test_records_in_task_order_regardless_of_completion_order(self):
        suite = run_suite(["POW9", "CAN1072"], ("rcm", "gps"), scale=SCALE, n_jobs=4)
        assert [(r.problem, r.algorithm) for r in suite.records] == [
            ("POW9", "rcm"), ("POW9", "gps"), ("CAN1072", "rcm"), ("CAN1072", "gps"),
        ]

    @pytest.mark.slow
    def test_parallel_four_jobs_matches_serial_on_paper_algorithms(self):
        problems = ["POW9", "CAN1072", "DWT2680"]
        serial = run_suite(problems, PAPER_ALGORITHMS, scale=0.03, n_jobs=1)
        parallel = run_suite(problems, PAPER_ALGORITHMS, scale=0.03, n_jobs=4)
        assert serial.diff(parallel) == []
        assert serial.to_json(include_timing=False) == parallel.to_json(include_timing=False)


class TestWorkerStoreTraffic:
    def test_concurrent_deltas_are_all_counted(self, tmp_path):
        """Serve finishes cells on several threads; no delta may be lost."""
        import sys
        import threading

        from repro.batch.engine import _absorb_store_delta
        from repro.store import ArtifactStore, reset_default_store, set_default_store

        store = ArtifactStore(tmp_path)
        set_default_store(store)

        def absorb():
            for _ in range(5000):
                _absorb_store_delta({"hits": 1, "writes": 2})

        threads = [threading.Thread(target=absorb) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            reset_default_store()
        assert not any(thread.is_alive() for thread in threads)
        assert (store.stats["hits"], store.stats["writes"]) == (40000, 80000)


class TestPerTaskTimeouts:
    """Callable (per-cell) timeouts — the --timeout auto machinery."""

    def test_nonpositive_limit_leaves_no_worker(self, monkeypatch):
        """The policy is checked before a worker is spawned for the cell."""
        import multiprocessing
        import time

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(30))
        before = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="must be positive"):
            run_suite(["POW9"], ("sleepy",), scale=0.02,
                      timeout=lambda task: 0.0)
        assert not set(multiprocessing.active_children()) - before

    def test_closing_the_stream_early_kills_live_workers(self, monkeypatch):
        import multiprocessing
        import time

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(30))
        before = set(multiprocessing.active_children())
        tasks = build_tasks(["POW9"], ("rcm", "sleepy"), scale=0.02)
        stream = iter_suite(tasks, n_jobs=2, timeout=60)
        _task, record = next(stream)
        assert (record.algorithm, record.status) == ("rcm", "ok")
        stream.close()
        deadline = time.monotonic() + 5
        while (set(multiprocessing.active_children()) - before
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert not set(multiprocessing.active_children()) - before

    def test_callable_timeout_limits_only_selected_cells(self, monkeypatch):
        import time

        from repro.orderings.registry import ORDERING_ALGORITHMS

        monkeypatch.setitem(ORDERING_ALGORITHMS, "sleepy",
                            lambda p: time.sleep(30))
        policy = lambda task: 0.5 if task.algorithm == "sleepy" else None
        suite = run_suite(["POW9"], ("rcm", "sleepy"), scale=0.02,
                          timeout=policy)
        by_algorithm = {r.algorithm: r for r in suite.records}
        assert by_algorithm["rcm"].status == "ok"
        assert by_algorithm["sleepy"].status == "timeout"
        assert by_algorithm["sleepy"].time_s == 0.5

    def test_auto_timeout_policy_from_cost_model(self):
        from repro.batch import CostModel, auto_timeout
        from repro.batch.sched import AUTO_TIMEOUT_FLOOR_S, AUTO_TIMEOUT_SAFETY
        from repro.batch.tasks import BatchTask

        model = CostModel()
        model.observe("POW9", "rcm", 0.02, time_s=0.5)
        policy = auto_timeout(model)
        seen = BatchTask(problem="POW9", algorithm="rcm", scale=0.02)
        unseen = BatchTask(problem="POW9", algorithm="gps", scale=0.02)
        assert policy(seen) == max(AUTO_TIMEOUT_FLOOR_S,
                                   0.5 * AUTO_TIMEOUT_SAFETY)
        assert policy(unseen) is None
        assert model.observed_cell("POW9", "rcm", 0.02)
        assert not model.observed_cell("POW9", "rcm", 0.05)  # other scale

    def test_callable_timeout_escalation_grows_per_cell(self, monkeypatch):
        """Retried cells multiply their own base limit by the growth factor;
        the second attempt's larger window lets the task finish."""
        import time

        from repro.orderings.registry import ORDERING_ALGORITHMS

        monkeypatch.setitem(
            ORDERING_ALGORITHMS, "sleepy",
            lambda p: time.sleep(1.2) or ORDERING_ALGORITHMS["rcm"](p))
        policy = lambda task: 0.4 if task.algorithm == "sleepy" else None
        suite = run_suite(["POW9"], ("rcm", "sleepy"), scale=0.02,
                          timeout=policy, retry_timeouts=2, timeout_growth=3.0)
        by_algorithm = {r.algorithm: r for r in suite.records}
        assert by_algorithm["sleepy"].status == "ok"
        assert by_algorithm["rcm"].status == "ok"
