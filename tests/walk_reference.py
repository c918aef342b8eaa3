"""A sphere walk that visits one leaf at a time.

It walks the same points in the same order as solver._sphere_walk and
takes the same arguments, but it has no batches: every level loops over
its values in Python, each value of a free level (one whose pivot is
negligible) is charged as its own walk step, each point as its own point,
and every leaf whose score is at most the current cut reaches accept at
once. The batched walk must make the same accept calls, charge the same
counters and run out of a node budget exactly when this walk does.
"""

from __future__ import annotations

import math

import numpy as np


def zigzag(center: float, lo: int, hi: int) -> list[int]:
    """The integers of [lo, hi]: the one nearest to center first, then
    one above and one below at each further distance."""
    start = min(max(int(round(center)), lo), hi)
    order = [start]
    for step in range(1, hi - lo + 1):
        if start + step <= hi:
            order.append(start + step)
        if start - step >= lo:
            order.append(start - step)
    return order


def reference_walk(r_mat, qty, radius_sq, cut, lo, hi, budget, score, accept,
                   blocks=None, block_cap=None) -> None:
    dims = r_mat.shape[0]
    u = np.zeros(dims, dtype=np.int64)
    free = ~(np.abs(np.diag(r_mat)) > 1e-12 * (1.0 + np.abs(r_mat).max()))
    block_of = {}
    for s, e in blocks or ():
        for level in range(s, e):
            block_of[level] = slice(s, e)

    def descend(level: int, partial: float, radius_sq: float) -> float:
        nonlocal cut
        inner = float(r_mat[level, level + 1 :] @ u[level + 1 :]) - qty[level]
        pivot = r_mat[level, level]
        avail = radius_sq - partial
        if avail <= 0:
            return radius_sq
        if free[level]:
            lo_l, hi_l, center = lo, hi, 0.5 * (lo + hi)
        else:
            half = math.sqrt(avail)
            lo_f, hi_f = sorted(((-half - inner) / pivot, (half - inner) / pivot))
            lo_l = max(lo, math.ceil(lo_f - 1e-12))
            hi_l = min(hi, math.floor(hi_f + 1e-12))
            center = -inner / pivot
        if level in block_of:
            hi_l = min(hi_l, block_cap - 1 - int(u[block_of[level]].sum()))
        if lo_l > hi_l:
            return radius_sq
        for val in zigzag(center, lo_l, hi_l):
            if free[level]:
                budget.add_steps(1)
            contrib = pivot * val + inner
            new_partial = partial + contrib * contrib
            if new_partial >= radius_sq:
                continue
            u[level] = val
            if level:
                radius_sq = descend(level - 1, new_partial, radius_sq)
                continue
            budget.add_points(1)
            if score(u[None].copy(), np.array([new_partial]))[0] <= cut:
                radius_bound, cut_bound = accept(u.copy(), float(new_partial))
                radius_sq = min(radius_sq, radius_bound)
                cut = min(cut, cut_bound)
        u[level] = 0
        return radius_sq

    descend(dims - 1, 0.0, radius_sq)
