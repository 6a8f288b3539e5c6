"""The surrogate builders' output is pinned, structure for structure.

``tests/golden/pattern_digests.json`` holds
:func:`repro.store.spectral.pattern_digest` of every paper surrogate at four
scales and of every ``RANDOM/*`` family at one small scale.  The digests are
the store's pattern addresses, so a builder that changes any structure
would silently retire every stored entry and every golden record built on
it; ``PATTERN_VERSION`` must be bumped for that instead.

The mesh builders are also checked against explicit set-based constructions
on small inputs, including degenerate shapes the registry never uses.

Regenerate the digest file only on a deliberate structural change::

    PYTHONPATH=src python -c "
    import json
    from repro.collections.registry import load_problem
    from repro.store.spectral import pattern_digest
    path = 'tests/golden/pattern_digests.json'
    payload = json.load(open(path))
    for e in payload['entries']:
        e['digest'] = pattern_digest(load_problem(e['problem'], e['scale'])[0])
    open(path, 'w').write(json.dumps(payload, indent=1) + '\\n')"
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from repro.collections.meshes import (
    grid2d_pattern,
    grid3d_pattern,
    multi_dof_pattern,
    path_pattern,
)
from repro.collections.registry import load_problem
from repro.sparse.pattern import SymmetricPattern
from repro.store.spectral import PATTERN_VERSION, pattern_digest

GOLDEN_PATH = Path(__file__).parent / "golden" / "pattern_digests.json"
ENTRIES = json.loads(GOLDEN_PATH.read_text())["entries"]


def test_golden_covers_the_paper_and_random_problems():
    assert len(ENTRIES) == 77
    assert PATTERN_VERSION == 1


@pytest.mark.parametrize(
    "entry", ENTRIES, ids=[f"{e['problem']}@{e['scale']}" for e in ENTRIES]
)
def test_surrogate_matches_pinned_digest(entry):
    pattern, _spec = load_problem(entry["problem"], entry["scale"])
    assert pattern_digest(pattern) == entry["digest"]


# --------------------------------------------------------------------------- #
# brute-force references
# --------------------------------------------------------------------------- #
def _edge_set(pattern: SymmetricPattern) -> set:
    return {(i, int(j)) for i in range(pattern.n) for j in pattern.neighbors(i)}


def _reference_multi_dof(pattern: SymmetricPattern, d: int) -> set:
    """Every ordered pair of coupled unknowns, spelled out."""
    edges = set()
    for i in range(pattern.n):
        coupled = [i] + [int(j) for j in pattern.neighbors(i)]
        for j in coupled:
            for a, b in itertools.product(range(d), repeat=2):
                if (i, a) != (j, b):
                    edges.add((i * d + a, j * d + b))
    return edges


def _reference_grid(shape, stencil_offsets) -> set:
    """Ordered neighbour pairs of a box grid under the given offsets."""
    cells = list(itertools.product(*(range(size) for size in shape)))
    index = {cell: k for k, cell in enumerate(cells)}
    edges = set()
    for cell in cells:
        for offset in stencil_offsets:
            other = tuple(c + o for c, o in zip(cell, offset))
            if other in index:
                edges.add((index[cell], index[other]))
                edges.add((index[other], index[cell]))
    return edges


MULTI_DOF_BASES = {
    "grid2d": grid2d_pattern(4, 3),
    "grid2d-9pt": grid2d_pattern(3, 3, stencil=9),
    "grid3d-27pt": grid3d_pattern(3, 2, 2, stencil=27),
    "path": path_pattern(6),
    "isolated": SymmetricPattern.from_edges(9, [(0, 1), (1, 2), (5, 6), (6, 8)]),
    "empty": SymmetricPattern.empty(3),
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("base", sorted(MULTI_DOF_BASES))
def test_multi_dof_matches_set_expansion(base, d):
    pattern = MULTI_DOF_BASES[base]
    expanded = multi_dof_pattern(pattern, d)
    expanded.validate()
    assert expanded.n == pattern.n * d
    assert _edge_set(expanded) == _reference_multi_dof(pattern, d)


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (5, 1), (2, 2), (4, 3)])
@pytest.mark.parametrize("stencil", [5, 9])
def test_grid2d_matches_reference(shape, stencil):
    offsets = [(1, 0), (0, 1)] + ([(1, 1), (1, -1)] if stencil == 9 else [])
    assert _edge_set(grid2d_pattern(*shape, stencil=stencil)) == _reference_grid(shape, offsets)


@pytest.mark.parametrize("shape", [(1, 1, 1), (1, 1, 4), (2, 1, 3), (3, 3, 2)])
@pytest.mark.parametrize("stencil", [7, 27])
def test_grid3d_matches_reference(shape, stencil):
    if stencil == 7:
        offsets = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        offsets = [o for o in itertools.product((-1, 0, 1), repeat=3) if o != (0, 0, 0)]
    assert _edge_set(grid3d_pattern(*shape, stencil=stencil)) == _reference_grid(shape, offsets)
