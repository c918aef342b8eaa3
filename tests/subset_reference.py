"""A least-squares bound of subset strata that evaluates every cell.

It bounds the same strata as solver._SubsetBound and returns the same rows
and residual^2 values, one block at a time and in lexicographic order, but
it reads a whole N x N Gram matrix, takes every Cholesky step for every
block, and runs the closed-form pair formula on every cell of a block's
grid, with no screen. The Gram matrix comes from the same aligned panels
and column norms the solver reads, and a forced vector's row, pivot and
correlation from the same products, so the two must agree bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from mcpursuit import solver
from mcpursuit.solver import (
    _SUBSET_GUARD,
    _GramPanels,
    _ls2_residual_sq,
)


def panel_gram(cols: np.ndarray) -> np.ndarray:
    """cols.T @ cols, with every entry i < j from the panel
    cols[:, p:p + R].T @ cols[:, p:] that holds row i, the entries below
    the diagonal mirrored from above it, and the diagonal the squared
    column norms the solver reads (_GramPanels.diag). R is
    solver._PANEL_ROWS when called, so a test that shrinks the panels
    gets their bits."""
    n, rows = cols.shape[1], solver._PANEL_ROWS
    gram = np.zeros((n, n))
    for p in range(0, n, rows):
        gram[p : p + rows, p:] = cols[:, p : p + rows].T @ cols[:, p:]
    upper = np.triu(gram, 1)
    gram = upper + upper.T
    np.fill_diagonal(gram, _GramPanels(cols).diag)
    return gram


def reference_inputs(cols, y, t=None):
    """(gram, corr, forced) of reference_bound for the columns cols and,
    if given, the forced vector t: panel_gram(cols) and cols.T @ y, with t
    laid after the columns as index N = forced[0], its row t @ cols, pivot
    t @ t and correlation t @ y, the products _SubsetBound.base takes t's
    step from."""
    gram, corr = panel_gram(cols), cols.T @ y
    if t is None:
        return gram, corr, ()
    n = cols.shape[1]
    gram = np.pad(gram, ((0, 1), (0, 1)))
    gram[n, :n] = gram[:n, n] = t @ cols
    gram[n, n] = t @ t
    return gram, np.append(corr, t @ y), (n,)


def reference_bound(gram, corr, yy, block, limit, forced=()):
    """The strata of one block whose least-squares residual is within
    limit, as (rows, residual^2). A stratum is the columns forced + its
    index tuple; no forced column is in the block."""
    prefix, firsts, ends = block
    # the block's grid: its axes (none for size 0, the first indices, or
    # the first indices by the second indices after firsts[0]) and which
    # of its cells are tuples: firsts[t] < seconds[s] < ends[t]
    if firsts is None:
        axes, tuples = [], np.ones(1, dtype=bool)
    elif ends is None:
        axes, tuples = [firsts], np.ones(len(firsts), dtype=bool)
    else:
        seconds = np.arange(firsts[0] + 1, ends[0])
        axes = [firsts, seconds]
        tuples = (firsts[:, None] < seconds) & (seconds < ends[:, None])

    def rows_of(keep):
        """The rows of the cells keep marks: the prefix, then the cell's
        index on each axis."""
        picked = np.nonzero(keep)
        count = len(picked[0])
        head = np.broadcast_to(np.asarray(prefix, dtype=np.int64), (count, len(prefix)))
        return np.column_stack([head, *(axis[at] for axis, at in zip(axes, picked))]), picked

    diag = np.diagonal(gram)
    g, b, rest, w = diag, corr, yy, []
    fixed = [*forced, *prefix]
    for f in fixed:
        pivot = g[f]
        if not pivot > _SUBSET_GUARD * diag[f]:
            rows, _ = rows_of(tuples)  # the whole block keeps bound 0
            return rows, np.zeros(len(rows))
        root = math.sqrt(pivot)
        wf = (gram[f] - sum(v[f] * v for v in w)) / root
        cf = b[f] / root
        g = g - wf * wf
        b = b - cf * wf
        rest -= cf * cf
        w.append(wf)
    if w:
        bad = ~(g > _SUBSET_GUARD * diag)
        bad[fixed] = False
    if firsts is None:
        res = np.full(1, max(rest, 0.0))
    elif ends is None:
        gi, bi = g[firsts], b[firsts]
        res = rest - np.divide(bi**2, gi, out=np.zeros(len(gi)), where=gi > 1e-300)
        if w:
            res[bad[firsts]] = 0.0
        np.maximum(res, 0.0, out=res)
    else:
        i = slice(firsts[0], firsts[-1] + 1)
        j = slice(firsts[0] + 1, ends[0])
        g01 = gram[i, j]
        if w:
            g01 = g01 - sum(v[i, None] * v[None, j] for v in w)
        res = _ls2_residual_sq(g[i, None], g[None, j], g01, b[i, None], b[None, j], rest)
        if w:
            res[bad[i, None] | bad[None, j]] = 0.0
    rows, picked = rows_of((np.sqrt(res) <= limit) & tuples)
    return rows, res[picked]
