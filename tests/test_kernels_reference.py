"""Equivalence of the vectorized hot-path kernels with their naive references.

The vectorized kernels (whole-frontier BFS, round-based MIS, slab-reduced
level numbering, batched Sloan updates, ...) promise **bit-identical** output
to the vertex-at-a-time implementations retained in :mod:`repro.reference`.
These property tests enforce the promise two ways:

* kernel by kernel, on a corpus of random graphs (connected, disconnected,
  edgeless, path/star shapes) plus 2-D meshes, a pendant-heavy chain and a
  disconnected graph with isolated vertices;
* end to end: every registered ordering algorithm is run once normally and
  once with the reference kernels monkeypatched in, and the permutations must
  match exactly — including on disconnected patterns.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graph.components
import repro.graph.coarsen
import repro.graph.peripheral
import repro.graph.traversal
import repro.orderings.base
import repro.orderings.cuthill_mckee
import repro.orderings.gibbs_king
import repro.orderings.gps
import repro.orderings.king
import repro.orderings.sloan
from repro import reference
from repro.collections.meshes import grid2d_pattern
from repro.graph.coarsen import _grow_domains, maximal_independent_set
from repro.graph.components import connected_components
from repro.graph.traversal import bfs_order, breadth_first_levels
from repro.orderings.gps import number_by_levels
from repro.orderings.registry import ORDERING_ALGORITHMS
from repro.orderings.sloan import _sloan_component
from repro.sparse.pattern import SymmetricPattern


def random_pattern(rng: np.random.Generator, n: int, density: float) -> SymmetricPattern:
    m = int(density * n)
    if m == 0:
        return SymmetricPattern.empty(n)
    edges = rng.integers(0, n, size=(m, 2))
    return SymmetricPattern.from_edge_arrays(n, edges[:, 0], edges[:, 1])


def corpus() -> list[SymmetricPattern]:
    """A deterministic mix of shapes: sparse/dense random graphs (many of
    them disconnected), an edgeless pattern, a path, a star, two meshes
    (wide, many-tied level sets), a pendant-heavy chain and a disconnected
    graph with isolated vertices."""
    rng = np.random.default_rng(20260729)
    patterns = [
        random_pattern(rng, int(rng.integers(2, 60)), float(rng.uniform(0.0, 3.5)))
        for _ in range(24)
    ]
    patterns.append(SymmetricPattern.empty(7))
    n = 31
    patterns.append(SymmetricPattern.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    patterns.append(SymmetricPattern.from_edges(n, [(0, i) for i in range(1, n)]))
    patterns += [grid2d_pattern(9, 7), grid2d_pattern(4, 25)]
    # pendant-heavy: a 10-vertex chain with 14 leaves hung off random links
    edges = [(i, i + 1) for i in range(9)]
    edges += [(int(rng.integers(0, 10)), v) for v in range(10, 24)]
    patterns.append(SymmetricPattern.from_edges(24, edges))
    # edges among the first 12 of 20 vertices; the rest stay isolated
    pairs = rng.integers(0, 12, size=(14, 2))
    patterns.append(
        SymmetricPattern.from_edges(20, [(int(a), int(b)) for a, b in pairs if a != b])
    )
    return patterns


CORPUS = corpus()
CONNECTED = [p for p in CORPUS if p.n and connected_components(p)[0] == 1]


def assert_structure_equal(a, b):
    assert np.array_equal(a.level_of, b.level_of)
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert np.array_equal(np.asarray(la), np.asarray(lb))


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
def test_bfs_kernels_match_reference(index):
    pattern = CORPUS[index]
    rng = np.random.default_rng(index)
    root = int(rng.integers(0, pattern.n))
    assert_structure_equal(
        breadth_first_levels(pattern, root),
        reference.breadth_first_levels_reference(pattern, root),
    )
    # multi-rooted + restricted variant (the GPS combined-structure shape)
    roots = rng.integers(0, pattern.n, size=2)
    mask = rng.random(pattern.n) < 0.8
    assert_structure_equal(
        breadth_first_levels(pattern, roots, restrict_to=mask),
        reference.breadth_first_levels_reference(pattern, roots, restrict_to=mask),
    )
    for sort_by_degree in (False, True):
        assert np.array_equal(
            bfs_order(pattern, root, sort_by_degree=sort_by_degree),
            reference.bfs_order_reference(pattern, root, sort_by_degree=sort_by_degree),
        )


@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
def test_components_and_subpattern_match_reference(index):
    pattern = CORPUS[index]
    count, labels = connected_components(pattern)
    ref_count, ref_labels = reference.connected_components_reference(pattern)
    assert count == ref_count
    assert np.array_equal(labels, ref_labels)

    rng = np.random.default_rng(1000 + index)
    subset = rng.permutation(pattern.n)[: int(rng.integers(0, pattern.n + 1))]
    assert pattern.subpattern(subset) == reference.subpattern_reference(pattern, subset)


@pytest.mark.parametrize("strategy", ["degree", "natural", "random"])
@pytest.mark.parametrize("index", range(len(CORPUS)), ids=lambda i: f"graph{i}")
def test_mis_and_domain_growth_match_reference(index, strategy):
    pattern = CORPUS[index]
    mis = maximal_independent_set(
        pattern, rng=np.random.default_rng(index), strategy=strategy
    )
    ref = reference.maximal_independent_set_reference(
        pattern, rng=np.random.default_rng(index), strategy=strategy
    )
    assert np.array_equal(mis, ref)

    domain_of = np.full(pattern.n, -1, dtype=np.intp)
    domain_of[mis] = np.arange(mis.size, dtype=np.intp)
    _grow_domains(pattern, mis, domain_of)
    assert np.array_equal(domain_of, reference.grow_domains_reference(pattern, mis))


def test_mis_greedy_tail_matches_reference_on_adversarial_rank():
    # A long path scanned along its length decides O(1) vertices per round,
    # forcing the sequential-tail fallback of the round-based MIS.
    n = 400
    pattern = SymmetricPattern.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    mis = maximal_independent_set(pattern, strategy="natural")
    ref = reference.maximal_independent_set_reference(pattern, strategy="natural")
    assert np.array_equal(mis, ref)
    assert np.array_equal(mis, np.arange(0, n, 2))


@pytest.mark.parametrize("tie_break", ["degree", "king"])
@pytest.mark.parametrize("index", range(len(CONNECTED)), ids=lambda i: f"conn{i}")
def test_number_by_levels_matches_reference(index, tie_break):
    pattern = CONNECTED[index]
    rng = np.random.default_rng(2000 + index)
    root = int(rng.integers(0, pattern.n))
    levels = breadth_first_levels(pattern, root).level_of.copy()
    levels[levels < 0] = int(levels.max(initial=0)) + 1
    assert np.array_equal(
        number_by_levels(pattern, levels, root, tie_break=tie_break),
        reference.number_by_levels_reference(pattern, levels, root, tie_break=tie_break),
    )


@pytest.mark.parametrize("weights", [(2, 1), (1, 2), (0, 1), (16, 1), (1, 0)])
@pytest.mark.parametrize("index", range(len(CONNECTED)), ids=lambda i: f"conn{i}")
def test_sloan_component_matches_reference(index, weights):
    pattern = CONNECTED[index]
    if pattern.n < 2:
        pytest.skip("component kernels need n >= 2")
    w1, w2 = weights
    assert np.array_equal(
        _sloan_component(pattern, w1, w2),
        reference.sloan_component_reference(pattern, w1, w2),
    )


# --------------------------------------------------------------------- #
# end-to-end: all registered algorithms with the reference kernels
# patched in must reproduce the production orderings exactly
# --------------------------------------------------------------------- #
def _patch_reference_kernels(monkeypatch) -> None:
    def grow_domains_inplace(pattern, mis, domain_of):
        domain_of[:] = reference.grow_domains_reference(pattern, mis)

    monkeypatch.setattr(repro.graph.traversal, "breadth_first_levels",
                        reference.breadth_first_levels_reference)
    monkeypatch.setattr(repro.graph.peripheral, "breadth_first_levels",
                        reference.breadth_first_levels_reference)
    monkeypatch.setattr(repro.orderings.cuthill_mckee, "bfs_order",
                        reference.bfs_order_reference)
    for module in (repro.orderings.gps, repro.orderings.king, repro.orderings.gibbs_king):
        monkeypatch.setattr(module, "number_by_levels",
                            reference.number_by_levels_reference)
    monkeypatch.setattr(repro.orderings.sloan, "_sloan_component",
                        reference.sloan_component_reference)
    monkeypatch.setattr(repro.graph.coarsen, "maximal_independent_set",
                        reference.maximal_independent_set_reference)
    monkeypatch.setattr(repro.graph.coarsen, "_grow_domains", grow_domains_inplace)
    # order_by_components now routes through the spectral workspace, whose
    # lazy import reads repro.graph.components at call time — patching the
    # source module covers it.
    for module in (repro.graph.components, repro.orderings.gps):
        monkeypatch.setattr(module, "connected_components",
                            reference.connected_components_reference)
    monkeypatch.setattr(SymmetricPattern, "subpattern", reference.subpattern_reference)


@pytest.mark.parametrize("algorithm", sorted(ORDERING_ALGORITHMS))
def test_registered_algorithms_unchanged_by_kernel_vectorization(algorithm):
    """Every registered ordering — on connected *and* disconnected patterns —
    is bit-identical whether built on the vectorized or the naive kernels."""
    func = ORDERING_ALGORITHMS[algorithm]
    rng = np.random.default_rng(99)
    patterns = [
        random_pattern(rng, 30, 1.2),   # disconnected with high probability
        random_pattern(rng, 24, 2.5),
        SymmetricPattern.from_edges(
            17, [(i, i + 1) for i in range(7)] + [(9 + i, 9 + (i + 1) % 5) for i in range(5)]
        ),                              # two components + isolated vertices
    ]
    for seed, pattern in enumerate(patterns):
        kwargs = {"rng": np.random.default_rng(seed)} if algorithm == "random" else {}
        fast = func(pattern, **kwargs)
        with pytest.MonkeyPatch.context() as context:
            _patch_reference_kernels(context)
            kwargs = {"rng": np.random.default_rng(seed)} if algorithm == "random" else {}
            # A fresh copy so the naive run cannot reuse the fast run's
            # memoized workspace (component split, Laplacian, hierarchy) —
            # the reference kernels must actually execute.
            naive = func(pattern.copy(), **kwargs)
        assert np.array_equal(fast.perm, naive.perm), (
            f"{algorithm} diverged from the reference kernels on pattern #{seed}"
        )
