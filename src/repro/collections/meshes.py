"""Structured meshes and elementary graphs.

These are the deterministic building blocks of the synthetic test collection:
regular 2-D/3-D grids with selectable stencils (the classic finite-difference
and finite-element discretizations), block expansion to several degrees of
freedom per node (which reproduces the row densities of structural-analysis
matrices), and the elementary graphs (paths, cycles, stars, complete graphs,
binary trees) the unit and property tests reason about analytically.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.pattern import SymmetricPattern
from repro.utils.validation import require_positive_int

__all__ = [
    "grid2d_pattern",
    "grid3d_pattern",
    "multi_dof_pattern",
    "path_pattern",
    "cycle_pattern",
    "star_pattern",
    "complete_pattern",
    "binary_tree_pattern",
]


def path_pattern(n: int) -> SymmetricPattern:
    """Path graph ``P_n`` (tridiagonal matrix).

    The minimum-envelope ordering of a path is the natural one with
    ``Esize = n - 1`` and bandwidth 1 — used as an analytic oracle in tests.
    """
    n = require_positive_int(n, "n")
    edges = [(i, i + 1) for i in range(n - 1)]
    return SymmetricPattern.from_edges(n, edges)


def cycle_pattern(n: int) -> SymmetricPattern:
    """Cycle graph ``C_n`` (periodic tridiagonal matrix)."""
    n = require_positive_int(n, "n", minimum=3)
    edges = [(i, (i + 1) % n) for i in range(n)]
    return SymmetricPattern.from_edges(n, edges)


def star_pattern(n: int) -> SymmetricPattern:
    """Star graph ``S_n``: vertex 0 adjacent to all others (arrowhead matrix)."""
    n = require_positive_int(n, "n", minimum=2)
    edges = [(0, i) for i in range(1, n)]
    return SymmetricPattern.from_edges(n, edges)


def complete_pattern(n: int) -> SymmetricPattern:
    """Complete graph ``K_n`` (dense matrix); every ordering has the same envelope."""
    n = require_positive_int(n, "n", minimum=1)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return SymmetricPattern.from_edges(n, edges)


def binary_tree_pattern(depth: int) -> SymmetricPattern:
    """Complete binary tree of the given depth (``2^(depth+1) - 1`` vertices)."""
    depth = require_positive_int(depth, "depth", minimum=0) if depth != 0 else 0
    n = 2 ** (depth + 1) - 1
    edges = []
    for child in range(1, n):
        parent = (child - 1) // 2
        edges.append((parent, child))
    return SymmetricPattern.from_edges(n, edges)


def _grid_edges(index: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays joining each cell of a grid to its neighbour at every offset.

    *index* maps grid cells to vertex numbers, with ``-1`` marking a removed
    cell; *offsets* are integer shift vectors of the grid's dimension.  Pairs
    that leave the grid or touch a removed cell are dropped.
    """
    rows, cols = [], []
    for offset in offsets:
        src, dst = [], []
        for shift, size in zip(offset, index.shape):
            length = max(0, size - abs(shift))
            src.append(slice(max(0, -shift), max(0, -shift) + length))
            dst.append(slice(max(0, shift), max(0, shift) + length))
        u, v = index[tuple(src)].ravel(), index[tuple(dst)].ravel()
        kept = (u >= 0) & (v >= 0)
        rows.append(u[kept])
        cols.append(v[kept])
    return np.concatenate(rows), np.concatenate(cols)


def grid2d_pattern(nx: int, ny: int, stencil: int = 5) -> SymmetricPattern:
    """Regular ``nx x ny`` grid.

    Parameters
    ----------
    nx, ny:
        Grid dimensions; vertex ``(i, j)`` has index ``i * ny + j``.
    stencil:
        ``5`` — 5-point stencil (bilinear FD Laplacian);
        ``9`` — 9-point stencil (bilinear quadrilateral finite elements,
        includes the diagonals of each cell).

    The natural (row-by-row) ordering of the 5-point grid has bandwidth
    ``ny`` and envelope size close to ``nx * ny * ny`` — the classic example
    where ordering matters.
    """
    nx = require_positive_int(nx, "nx")
    ny = require_positive_int(ny, "ny")
    if stencil not in (5, 9):
        raise ValueError(f"stencil must be 5 or 9, got {stencil}")
    offsets = [(1, 0), (0, 1)] + ([(1, 1), (1, -1)] if stencil == 9 else [])
    index = np.arange(nx * ny, dtype=np.intp).reshape(nx, ny)
    return SymmetricPattern.from_edge_arrays(nx * ny, *_grid_edges(index, offsets))


def _grid3d_edges(nx: int, ny: int, nz: int, stencil: int = 7) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays of :func:`grid3d_pattern`'s edges (each pair once)."""
    if stencil not in (7, 27):
        raise ValueError(f"stencil must be 7 or 27, got {stencil}")
    if stencil == 7:
        offsets = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    else:
        offsets = [
            (di, dj, dk)
            for di in (-1, 0, 1)
            for dj in (-1, 0, 1)
            for dk in (-1, 0, 1)
            if (di, dj, dk) > (0, 0, 0)
        ]
    index = np.arange(nx * ny * nz, dtype=np.intp).reshape(nx, ny, nz)
    return _grid_edges(index, offsets)


def grid3d_pattern(nx: int, ny: int, nz: int, stencil: int = 7) -> SymmetricPattern:
    """Regular ``nx x ny x nz`` brick grid.

    Parameters
    ----------
    nx, ny, nz:
        Grid dimensions; vertex ``(i, j, k)`` has index ``(i*ny + j)*nz + k``.
    stencil:
        ``7`` — face neighbours only (FD Laplacian);
        ``27`` — all neighbours of the surrounding cube (trilinear hexahedral
        finite elements), which matches the row densities of 3-D structural
        models.
    """
    nx = require_positive_int(nx, "nx")
    ny = require_positive_int(ny, "ny")
    nz = require_positive_int(nz, "nz")
    rows, cols = _grid3d_edges(nx, ny, nz, stencil)
    return SymmetricPattern.from_edge_arrays(nx * ny * nz, rows, cols)


def multi_dof_pattern(pattern: SymmetricPattern, dofs_per_node: int) -> SymmetricPattern:
    """Expand every graph vertex into ``dofs_per_node`` fully coupled unknowns.

    This is how structural-analysis matrices arise from meshes: each mesh node
    carries several displacement/rotation degrees of freedom, and two nodes
    connected by an element couple all their degrees of freedom.  Expanding a
    mesh with ``d`` degrees of freedom per node multiplies the matrix order by
    ``d`` and the typical row density by roughly ``d`` as well, which matches
    the nonzeros-per-row of the BCSSTK matrices (20-35).
    """
    d = require_positive_int(dofs_per_node, "dofs_per_node")
    if d == 1:
        return pattern.copy()
    n = pattern.n
    # Each edge i < j of the upper triangle becomes a full d x d block.
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(pattern.indptr))
    upper = rows < pattern.indices
    a, b = np.divmod(np.arange(d * d, dtype=np.intp), d)
    block_rows = rows[upper, None] * d + a
    block_cols = pattern.indices[upper, None] * d + b
    # The d unknowns of one node are coupled with each other.
    a, b = np.triu_indices(d, 1)
    nodes = np.arange(n, dtype=np.intp)[:, None] * d
    return SymmetricPattern.from_edge_arrays(
        n * d,
        np.concatenate([block_rows.ravel(), (nodes + a).ravel()]),
        np.concatenate([block_cols.ravel(), (nodes + b).ravel()]),
    )
