"""The persistent artifact store (repro.store) and the atomic-write helper.

Covers the tentpole contracts of the store:

* content addressing — an entry is only ever served for its exact
  (kind, builder version, pattern digest, params) address;
* crash safety — killed/truncated/corrupted entries read back as a clean
  miss (and are evicted), never a traceback;
* warm-from-disk == cold **byte-identity** across every registered
  spectral/hybrid algorithm, including disconnected patterns, with the rng
  stream preserved across Fiedler cache hits.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.batch import BatchTask, derive_seed
from repro.batch.engine import clear_problem_cache, execute_task
from repro.collections.generators import random_geometric_pattern
from repro.collections.meshes import grid2d_pattern
from repro.eigen.fiedler import fiedler_vector
from repro.eigen.multilevel import multilevel_fiedler
from repro.eigen.workspace import spectral_workspace
from repro.graph.laplacian import laplacian_matrix
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.sparse.pattern import SymmetricPattern
from repro.store import (
    ArtifactStore,
    get_default_store,
    pattern_digest,
    reset_default_store,
    set_default_store,
)
from repro.store import spectral as codecs
from repro.utils.atomic import atomic_output_file, atomic_write_text


@pytest.fixture(autouse=True)
def _isolated_store(monkeypatch):
    """No ambient store unless a test installs one; always reset after."""
    monkeypatch.delenv("REPRO_STORE", raising=False)
    reset_default_store()
    yield
    reset_default_store()
    clear_problem_cache()


def _patterns():
    disconnected = SymmetricPattern.from_edges(
        19,
        [(i, i + 1) for i in range(8)]
        + [(10 + i, 10 + (i + 1) % 5) for i in range(5)]
        # vertices 15..18 isolated
    )
    return [
        grid2d_pattern(9, 8),
        random_geometric_pattern(70, seed=3),
        disconnected,
        random_geometric_pattern(300, seed=5),
    ]


# --------------------------------------------------------------------------- #
# atomic writes
# --------------------------------------------------------------------------- #
class TestAtomicWrite:
    def test_write_and_overwrite(self, tmp_path):
        target = tmp_path / "deep" / "a.json"
        atomic_write_text(target, "one")
        assert target.read_text() == "one"
        atomic_write_text(target, "two")
        assert target.read_text() == "two"

    def test_exception_leaves_target_and_no_droppings(self, tmp_path):
        target = tmp_path / "a.json"
        atomic_write_text(target, "original")
        with pytest.raises(RuntimeError):
            with atomic_output_file(target) as tmp:
                tmp.write_text("partial")
                raise RuntimeError("killed mid-write")
        assert target.read_text() == "original"
        assert list(tmp_path.iterdir()) == [target]

    def test_crash_between_write_and_replace_is_invisible(self, tmp_path, monkeypatch):
        """A kill right before os.replace leaves the old file complete."""
        target = tmp_path / "a.json"
        atomic_write_text(target, "old")
        real_replace = os.replace

        def exploding_replace(src, dst):
            raise KeyboardInterrupt  # the SIGINT flavour of a kill

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(KeyboardInterrupt):
            atomic_write_text(target, "new")
        monkeypatch.setattr(os, "replace", real_replace)
        assert target.read_text() == "old"


# --------------------------------------------------------------------------- #
# addressing and the corrupt-is-a-miss contract
# --------------------------------------------------------------------------- #
class TestArtifactStore:
    def test_roundtrip_and_stats(self, tmp_path):
        store = ArtifactStore(tmp_path)
        arrays = {"x": np.arange(5, dtype=np.int64), "y": np.ones(3)}
        store.save("laplacian", 1, "d" * 64, arrays)
        assert store.stats["writes"] == 1
        loaded = store.load("laplacian", 1, "d" * 64)
        assert store.stats["hits"] == 1
        np.testing.assert_array_equal(loaded["x"], arrays["x"])
        assert loaded["x"].dtype == np.int64

    def test_absent_entry_is_a_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load("laplacian", 1, "0" * 64) is None
        assert store.stats["misses"] == 1

    @pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
    def test_damaged_entry_is_a_miss_and_evicted(self, tmp_path, damage):
        store = ArtifactStore(tmp_path)
        path = store.save("laplacian", 1, "d" * 64, {"x": np.arange(4)})
        payload = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(payload[: len(payload) // 2])
        elif damage == "garbage":
            path.write_bytes(b"not a zip file at all")
        else:
            path.write_bytes(b"")
        assert store.load("laplacian", 1, "d" * 64) is None
        assert store.stats["corrupt"] == 1
        assert not path.exists()  # evicted so it stops costing reads

    def test_kind_version_digest_params_all_address(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("laplacian", 1, "d" * 64, {"x": np.arange(4)}, params={"a": 1})
        assert store.load("components", 1, "d" * 64, params={"a": 1}) is None
        assert store.load("laplacian", 2, "d" * 64, params={"a": 1}) is None
        assert store.load("laplacian", 1, "e" * 64, params={"a": 1}) is None
        assert store.load("laplacian", 1, "d" * 64, params={"a": 2}) is None
        assert store.load("laplacian", 1, "d" * 64, params={"a": 1}) is not None

    def test_swapped_entry_fails_meta_check(self, tmp_path):
        """An entry renamed onto another address reads as a miss (stale)."""
        store = ArtifactStore(tmp_path)
        src = store.save("laplacian", 1, "d" * 64, {"x": np.arange(4)})
        dst = store.path_for(store.key("laplacian", 2, "d" * 64))
        dst.parent.mkdir(parents=True, exist_ok=True)
        os.replace(src, dst)
        assert store.load("laplacian", 2, "d" * 64) is None
        assert store.stats["corrupt"] == 1

    def test_entries_clear_info(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save("laplacian", 1, "d" * 64, {"x": np.arange(4)})
        store.save("fiedler", 1, "e" * 64, {"v": np.ones(3)})
        rows = store.entries()
        assert sorted(row["kind"] for row in rows) == ["fiedler", "laplacian"]
        info = store.info()
        assert info["entries"] == 2
        assert set(info["kinds"]) == {"fiedler", "laplacian"}
        assert store.clear() == 2
        assert store.entries() == []
        assert store.clear() == 0

    def test_default_store_resolution(self, tmp_path, monkeypatch):
        assert get_default_store() is None
        monkeypatch.setenv("REPRO_STORE", str(tmp_path))
        via_env = get_default_store()
        assert isinstance(via_env, ArtifactStore)
        assert get_default_store() is via_env  # memoized per root
        override = ArtifactStore(tmp_path / "other")
        set_default_store(override)
        assert get_default_store() is override
        set_default_store(None)  # explicit disable beats the env var
        assert get_default_store() is None


# --------------------------------------------------------------------------- #
# codec roundtrips
# --------------------------------------------------------------------------- #
class TestCodecs:
    def test_pattern_digest_separates_structures(self):
        a, b = grid2d_pattern(4, 4), grid2d_pattern(4, 5)
        assert pattern_digest(a) == pattern_digest(a.copy())
        assert pattern_digest(a) != pattern_digest(b)

    def test_laplacian_rebuilt_never_stored(self, tmp_path):
        store = ArtifactStore(tmp_path)
        set_default_store(store)
        for seed, pattern in enumerate(_patterns()):
            ORDERING_ALGORITHMS["spectral"](pattern, rng=np.random.default_rng(seed))
            lap = spectral_workspace(pattern).laplacian()
            fresh = laplacian_matrix(pattern)
            np.testing.assert_array_equal(lap.indptr, fresh.indptr)
            np.testing.assert_array_equal(lap.indices, fresh.indices)
            np.testing.assert_array_equal(lap.data, fresh.data)
        kinds = {row["kind"] for row in store.entries()}
        assert {"components", "split", "fiedler"} <= kinds
        assert "laplacian" not in kinds

    def test_components_and_split_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pattern = _patterns()[2]  # disconnected, with singleton components
        ws = spectral_workspace(pattern)
        digest = pattern_digest(pattern)
        num, labels = ws.components()
        codecs.save_components(store, digest, num, labels)
        loaded_num, loaded_labels = codecs.load_components(store, digest)
        assert loaded_num == num
        np.testing.assert_array_equal(loaded_labels, labels)
        split = ws.component_split()
        codecs.save_split(store, digest, split)
        loaded = codecs.load_split(store, digest)
        assert len(loaded) == len(split)
        for (v, sub), (lv, lsub) in zip(split, loaded):
            np.testing.assert_array_equal(lv, v)
            assert (sub is None) == (lsub is None)
            if sub is not None:
                assert lsub == sub

    def test_hierarchy_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pattern = random_geometric_pattern(300, seed=5)
        ws = spectral_workspace(pattern)
        digest = pattern_digest(pattern)
        levels, laps = ws.hierarchy(40, 50, "degree", np.random.default_rng(0))
        codecs.save_hierarchy(store, digest, 40, 50, "degree", levels)
        loaded = codecs.load_hierarchy(store, digest, 40, 50, "degree")
        assert len(loaded) == len(levels)
        for built, read in zip(levels, loaded):
            assert read.fine_n == built.fine_n
            assert read.coarse_pattern == built.coarse_pattern
            np.testing.assert_array_equal(read.coarse_vertices, built.coarse_vertices)
            np.testing.assert_array_equal(read.domain_of, built.domain_of)
        # a different hierarchy key is a different (absent) entry
        assert codecs.load_hierarchy(store, digest, 60, 50, "degree") is None


# --------------------------------------------------------------------------- #
# warm-from-disk == cold (the tentpole property)
# --------------------------------------------------------------------------- #
SPECTRAL_ALGORITHMS = ("spectral", "hybrid")


class TestWarmFromDiskIdentity:
    @pytest.mark.parametrize("algorithm", SPECTRAL_ALGORITHMS)
    def test_orderings_bit_identical_and_store_hit(self, tmp_path, algorithm):
        func = ORDERING_ALGORITHMS[algorithm]
        store = ArtifactStore(tmp_path)
        for seed, pattern in enumerate(_patterns()):
            cold = func(pattern.copy(), rng=np.random.default_rng(seed))
            set_default_store(store)
            populate = func(pattern.copy(), rng=np.random.default_rng(seed))
            hits_before = store.stats["hits"]
            # a FRESH pattern object: only the disk can warm it
            warm = func(pattern.copy(), rng=np.random.default_rng(seed))
            set_default_store(None)
            assert np.array_equal(populate.perm, cold.perm)
            assert np.array_equal(warm.perm, cold.perm), (
                f"{algorithm} warm-from-disk diverged from cold on pattern #{seed}"
            )
            assert store.stats["hits"] > hits_before

    def test_rng_stream_preserved_across_fiedler_hit(self, tmp_path):
        """After a cached eigensolve, the caller's rng continues identically."""
        pattern = random_geometric_pattern(200, seed=7)
        rng_cold = np.random.default_rng(3)
        cold = fiedler_vector(pattern.copy(), method="lanczos", rng=rng_cold)
        cold_next = rng_cold.standard_normal(4)

        set_default_store(ArtifactStore(tmp_path))
        rng_populate = np.random.default_rng(3)
        fiedler_vector(pattern.copy(), method="lanczos", rng=rng_populate)
        rng_warm = np.random.default_rng(3)
        warm = fiedler_vector(pattern.copy(), method="lanczos", rng=rng_warm)
        warm_next = rng_warm.standard_normal(4)

        assert warm.eigenvalue == cold.eigenvalue
        np.testing.assert_array_equal(warm.eigenvector, cold.eigenvector)
        assert warm.method == cold.method
        np.testing.assert_array_equal(warm_next, cold_next)

    def test_multilevel_warm_identity(self, tmp_path):
        pattern = random_geometric_pattern(300, seed=5)
        cold = multilevel_fiedler(pattern.copy(), coarsest_size=40, rng=9)
        set_default_store(ArtifactStore(tmp_path))
        multilevel_fiedler(pattern.copy(), coarsest_size=40, rng=9)
        warm = multilevel_fiedler(pattern.copy(), coarsest_size=40, rng=9)
        assert warm.eigenvalue == cold.eigenvalue
        np.testing.assert_array_equal(warm.eigenvector, cold.eigenvector)

    def test_second_process_rebuilds_laplacian_identically(self, tmp_path):
        """A fresh interpreter on a warm store reads the hierarchy, builds the
        Laplacians itself and returns the cold run's exact Fiedler vector."""
        pattern = random_geometric_pattern(300, seed=5)
        cold = multilevel_fiedler(pattern.copy(), coarsest_size=40, rng=9)
        store = ArtifactStore(tmp_path / "store")
        set_default_store(store)
        multilevel_fiedler(pattern.copy(), coarsest_size=40, rng=9)
        set_default_store(None)
        kinds = {row["kind"] for row in store.entries()}
        assert "hierarchy" in kinds and "laplacian" not in kinds

        child = (
            "import json, sys\n"
            "import numpy as np\n"
            "from repro.collections.generators import random_geometric_pattern\n"
            "from repro.eigen.multilevel import multilevel_fiedler\n"
            "from repro.eigen.workspace import spectral_workspace\n"
            "from repro.store import get_default_store\n"
            "pattern = random_geometric_pattern(300, seed=5)\n"
            "result = multilevel_fiedler(pattern, coarsest_size=40, rng=9)\n"
            "np.save(sys.argv[1], result.eigenvector)\n"
            "print(json.dumps({'eigenvalue': repr(result.eigenvalue),\n"
            "                  'info': spectral_workspace(pattern).info,\n"
            "                  'hits': get_default_store().stats['hits']}))\n"
        )
        env = dict(os.environ, REPRO_STORE=str(store.root))
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(__file__).resolve().parent.parent / "src"),
             *filter(None, [env.get("PYTHONPATH")])])
        vector_path = tmp_path / "vector.npy"
        proc = subprocess.run([sys.executable, "-c", child, str(vector_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["hits"] > 0
        assert report["info"]["store_loads"] >= 1
        assert report["info"]["laplacian_builds"] == 1
        assert report["eigenvalue"] == repr(cold.eigenvalue)
        assert np.load(vector_path).tobytes() == cold.eigenvector.tobytes()
        assert "laplacian" not in {row["kind"] for row in store.entries()}

    def test_task_records_identical_with_store(self, tmp_path):
        """The batch engine's canonical record is store-invariant."""
        pattern = random_geometric_pattern(80, seed=11)
        task = BatchTask(problem="X", algorithm="spectral", scale=None,
                         seed=derive_seed(0, "X", "spectral"))
        cold = execute_task(task, pattern=pattern.copy())
        set_default_store(ArtifactStore(tmp_path))
        execute_task(task, pattern=pattern.copy())
        warm = execute_task(task, pattern=pattern.copy())
        assert cold.status == warm.status == "ok"
        assert warm.to_dict(include_timing=False) == cold.to_dict(include_timing=False)

    def test_corrupted_store_entries_fall_back_to_building(self, tmp_path):
        """Truncating every entry mid-byte never crashes a warm run."""
        store = ArtifactStore(tmp_path)
        set_default_store(store)
        pattern = _patterns()[1]
        cold = ORDERING_ALGORITHMS["spectral"](
            pattern.copy(), rng=np.random.default_rng(1)
        )
        for row in store.entries():
            payload = row["path"].read_bytes()
            row["path"].write_bytes(payload[: max(1, len(payload) // 3)])
        rebuilt = ORDERING_ALGORITHMS["spectral"](
            pattern.copy(), rng=np.random.default_rng(1)
        )
        assert np.array_equal(rebuilt.perm, cold.perm)
        assert store.stats["corrupt"] > 0

    def test_random_mis_strategy_never_cached(self, tmp_path):
        store = ArtifactStore(tmp_path)
        set_default_store(store)
        pattern = random_geometric_pattern(300, seed=5)
        multilevel_fiedler(pattern, coarsest_size=40, mis_strategy="random", rng=9)
        kinds = {row["kind"] for row in store.entries()}
        assert "hierarchy" not in kinds


# --------------------------------------------------------------------------- #
# derived patterns never share cached state (satellite audit)
# --------------------------------------------------------------------------- #
class TestDerivedPatternFreshness:
    def test_subpattern_builds_its_own_workspace(self):
        pattern = grid2d_pattern(6, 5)
        ws = spectral_workspace(pattern)
        ws.laplacian()
        sub = pattern.subpattern(np.arange(12))
        assert sub._workspace is None
        assert spectral_workspace(sub) is not ws

    def test_pickle_drops_workspace_and_degree_caches(self):
        pattern = grid2d_pattern(6, 5)
        spectral_workspace(pattern).laplacian()
        pattern.degree()
        assert pattern._workspace is not None and pattern._degrees is not None
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone == pattern
        assert clone._workspace is None
        assert clone._degrees is None
        # and the clone still works end to end
        assert spectral_workspace(clone).laplacian().shape == (30, 30)

    def test_workspace_digest_matches_codec_digest(self):
        pattern = grid2d_pattern(5, 5)
        assert spectral_workspace(pattern).digest() == pattern_digest(pattern)
