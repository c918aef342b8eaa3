"""Description-length minimization under a measurement constraint.

The program solved here is: among all codewords of the structured codecs
(sparse, piecewise-polynomial, optionally literal), find one whose decoded
vector x satisfies |Ax - y| <= eta, minimizing code length; ties broken by
smaller residual, then deterministically (bitstream order across strata;
within one stratum the walk keeps the first point it reaches at the
minimal residual).

Code length is constant on a stratum (a support set, or a breakpoint and
degree pattern), because value payloads are fixed width. The search walks
strata in ascending length with three exact prunes: strata whose length
already exceeds the incumbent are never generated; a continuous
least-squares bound discards strata whose subspace cannot reach the
constraint set; and an integer sphere walk with a shrinking radius finds
the exact minimum-residual grid point inside each surviving stratum. The
result equals brute-force enumeration of the same codebook, which the
tests check directly at toy sizes. Only the strata that are walked have
their columns built, apart from degree >= 1 breakpoint patterns.

One method, _Search.walk_stratum, walks every stratum that survives the
prunes: a QR of its columns, a sphere walk over the integer points of its
value box, and one leaf handler that tests the residual, offers the point
and tightens the radius. Sparse supports, breakpoint patterns and the
literal block pass only what differs: columns, value box, piece blocks,
the map to sample numerators and the encoder. Degree >= 1 pieces floor
their samples, so their radius carries a slack and their residual is
recomputed from the samples.

The walk's two innermost levels are one numpy batch per visit of level 1:
every (level-1 value, level-0 value) leaf in walk order, laid out from
the zig-zag order of each level, and in slices of at most _LEAF_SLICE
leaves their walk distances, decoded samples and residuals. Only the
leaves that can change the search reach the leaf handler, which decides
on the exact residual: every feasible leaf while a probe is attached;
otherwise every feasible leaf up to the stratum's first one, which
tightens the radius, and then only leaves that can beat or tie the
incumbent's residual. After each of them the rest of the batch is
filtered against the tightened radius: a level-1 value that no longer
fits is skipped, and later level-0 ranges shrink. Points, and walk steps
at pivot-free levels, are charged in bulk: up to each leaf the handler
gets, and at an outer level per run of values that does not descend. So
the counters a solve reports, and the node at which the node cap fires,
are those of a walk that handles one leaf at a time.

Strata come level by level (a support size, or a degree and break
count) from _budgeted_blocks, which generates the ascending index tuples
within a length budget in lexicographic order: sparse supports (index p
costs uint_code_len(p + 1)) and breakpoint patterns (break b costs
uint_code_len(b)). Both costs never decrease with the index, so each
index range is one searchsorted cut on running cost sums, and only
(size - 2)-index prefixes are walked in Python. The generator writes no
rows: a block is one prefix with up to _BLOCK_ROWS first indices inside
one Gram panel (below), each with its range of last indices; a level of
single indices is one block.

The least-squares bound of a sparse support or a degree-0 breakpoint
pattern is one class, _SubsetBound, of a (d, N) column matrix and its
correlations with y: A itself for supports; for patterns, the rows T[e]
of the degree-0 prefix table as columns, because a pattern with breaks
b_1 .. b_q spans the same space as T[b_1], .., T[b_q] and T[n]. Cholesky
steps project out the forced column T[n], once per solve, and each
block's prefix, once per prefix, and the closed-form one- or two-column
formula runs on the projected entries over the block's first indices or
its grid of first and last indices: the shared prefix work of Furnival &
Wilson's leaps and bounds (1974). On a pair grid a cheap screen (about
eight array passes) first drops the cells whose residual provably
exceeds the limit by far more than rounding, and the closed form runs on
the rest, so the kept strata and their bounds are bit for bit those of
the whole grid (safe screening, El Ghaoui, Viallon & Rabbani 2012).
Gram entries come from aligned panels cols[:, p:p+64].T @ cols[:, p:],
built when first needed, which at one BLAS thread match the full product
cols.T @ cols bit for bit (a slice that starts off a panel boundary can
differ in the last bit): the diagonal from their 64 x 64 diagonal blocks,
a prefix's row, and a block's pair grid, from the panel that holds it,
T[n]'s from the last column of each. No N x N array is built: scratch
memory is at most _PANEL_CACHE panels of 64 x N floats plus a few grids
of _BLOCK_ROWS x N, not proportional to the number of strata.
Degree >= 1 patterns build their columns, at most _PP_CHUNK patterns at
a time, and take the residual from one batched Householder QR, as the
walk does for one stratum (Businger & Golub 1965): |y|^2 - |Q^T y|^2.
Q spans at least the columns, so dependent columns need no guard and
only lower the bound.

One method, _Search.run_level, serves every level: it charges each block
to the node cap before bounding it, keeps the strata that pass, and
prices (sums the code lengths of) and sorts only those, once for the
whole level, by length, then bound, then generation order. That order
depends on neither the block size nor the chunk size, and it fixes the
counters a solve reports. It is also the only test of whether a level
fits: each family of strata (sparse supports, each degree's breakpoint
patterns) ends at its first level with no stratum in budget, since
lengths only grow with the size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .codecs import (
    CODEC_HEADER_BITS,
    PAIR_OVERHEAD_BITS,
    coeff_resolution,
    encode_literal,
    encode_sparse,
    uint_code_len,
    _encode_pp_numerators,
)
from .measure import MeasurementEnsemble
from .quantize import QuantizedVector, quantization_gap_bound

__all__ = [
    "SolverConfig",
    "SolverResourceError",
    "RecoveryResult",
    "ProbeStats",
    "mcp_exact",
    "mcp_tolerant",
    "predicted_error_bound",
    "corollary_error_bound",
    "corollary_failure_prob",
    "dl_budget_bits",
]

_LS_MARGIN = 1e-9  # float slack on the continuous feasibility prune
_SUBSET_GUARD = 1e-10  # projected/unprojected diagonal not above this: bound 0
_BLOCK_ROWS = 64  # first indices per block of _budgeted_blocks
_PANEL_ROWS = 64  # columns whose Gram rows one panel holds
_PANEL_CACHE = 8  # Gram panels a bound keeps, least recently used dropped first
# The pair screen drops a cell only when e^2 < c_i (h - _SCREEN_TAU g_j), so
# the cell's exact residual^2, r_i - e^2 / h, exceeds limit^2 by at least
# c_i _SCREEN_TAU g_j / h; and it screens a row only when c_i > _SCREEN_TAU
# rest. Rounding moves either formula by about eps g_j / h times rest, so the
# drop has _SCREEN_TAU^2 / eps > 4000 times that to spare, and cells with
# h < _SCREEN_TAU g_j (nearly dependent pairs) are never dropped.
_SCREEN_TAU = 1e-6
_PP_CHUNK = 2048  # degree >= 1 breakpoint patterns whose columns are built at once
_LEAF_SLICE = 256  # leaves of the two innermost walk levels decoded and scored per batch


class SolverResourceError(RuntimeError):
    """Search exceeded the configured node budget."""


@dataclass(frozen=True)
class SolverConfig:
    """Declared codebook scope and resource limits for one solve.

    max_sparse_k of None means supports up to n. The literal stratum is
    excluded by default: it only matters at toy sizes where n*m is small
    enough to enumerate, and every experiment here operates far below the
    literal code length.
    """

    max_sparse_k: int | None = None
    include_pp: bool = True
    pp_max_degree: int = 3
    pp_max_breaks: int = 3
    include_literal: bool = False
    node_cap: int = 1 << 24


@dataclass(frozen=True)
class ProbeStats:
    """Injectivity record for the differences between tested candidates
    and a reference vector (the quantized truth in experiments)."""

    min_gain: float | None  # min |Az| / |z| over tested candidates, z != 0
    candidates: int  # feasible value-level candidates inspected
    zero_diffs: int  # candidates equal to the reference


@dataclass(frozen=True)
class RecoveryResult:
    status: str  # "ok" or "infeasible"
    x_hat: QuantizedVector | None
    dl_bits: int
    codec_id: str
    stream: str
    residual: float
    eta: float
    strata_examined: int
    points_tested: int
    probe: ProbeStats | None


# ---------------------------------------------------------------------------
# error bounds


def predicted_error_bound(
    n: int, d: int, m: int, tau: float, t: float
) -> float:
    """Recovery error guarantee under the injectivity and spectral events:
    ((sqrt(n/d) + 1 + t) / tau + 1) * sqrt(n * 2^(1-2m))."""
    if not 0 < tau <= 1:
        raise ValueError("need 0 < tau <= 1")
    return ((math.sqrt(n / d) + 1.0 + t) / tau + 1.0) * quantization_gap_bound(n, m)


def corollary_error_bound(n: int, alpha: float, kappa: float) -> float:
    """Error guarantee 10 * n^(1/2 - alpha) / (sqrt(kappa) * log2 n) for
    d = ceil(2 alpha kappa log2 n) measurements."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 10.0 * n ** (0.5 - alpha) / (math.sqrt(kappa) * math.log2(n))


def corollary_failure_prob(n: int, alpha: float, kappa: float) -> float:
    return float(n ** (-alpha * kappa))


def dl_budget_bits(kappa: float, delta: float, m: int) -> int:
    """Code-length budget 2(kappa + delta)m plus the measured pair
    overhead; differences of two in-class codewords stay below it."""
    return math.ceil(2.0 * (kappa + delta) * m) + PAIR_OVERHEAD_BITS


# ---------------------------------------------------------------------------
# search bookkeeping


class _Budget:
    __slots__ = ("cap", "strata", "points", "steps")

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.strata = 0
        self.points = 0
        self.steps = 0  # interior walk iterations at pivot-free levels

    def _check(self) -> None:
        if self.strata + self.points + self.steps > self.cap:
            raise SolverResourceError(
                f"node budget {self.cap} exhausted "
                f"({self.strata} strata, {self.points} points, "
                f"{self.steps} walk steps)"
            )

    def add_strata(self, count: int) -> None:
        self.strata += count
        self._check()

    def add_points(self, count: int) -> None:
        self.points += count
        self._check()

    def add_steps(self, count: int = 1) -> None:
        self.steps += count
        self._check()


@dataclass
class _Incumbent:
    dl: float = math.inf
    residual: float = math.inf
    stream: str = ""
    vector: QuantizedVector | None = None
    codec_id: str = ""

    def offer(
        self, dl: int, residual: float, code_fn, vector: QuantizedVector
    ) -> None:
        """Take the vector if it is shorter, or as short and closer to y,
        or a tie whose codeword comes first. code_fn() builds the codeword
        only when the stream has to be compared or kept."""
        if dl > self.dl:
            return
        if dl == self.dl and residual > self.residual:
            return
        coded = code_fn()
        if dl == self.dl and residual == self.residual and coded.payload >= self.stream:
            return
        self.dl = dl
        self.residual = residual
        self.stream = coded.payload
        self.vector = vector
        self.codec_id = coded.codec_id


class _Probe:
    """Accumulates |Az| / |z| for z = candidate - reference."""

    def __init__(self, a: np.ndarray, reference: QuantizedVector) -> None:
        self.a = a
        self.ref = np.array(reference.to_floats())
        self.min_gain: float | None = None
        self.candidates = 0
        self.zero_diffs = 0

    def observe(self, x: np.ndarray) -> None:
        self.candidates += 1
        z = x - self.ref
        nz = float(np.linalg.norm(z))
        if nz == 0.0:
            self.zero_diffs += 1
            return
        gain = float(np.linalg.norm(self.a @ z)) / nz
        if self.min_gain is None or gain < self.min_gain:
            self.min_gain = gain

    def stats(self) -> ProbeStats:
        return ProbeStats(self.min_gain, self.candidates, self.zero_diffs)


# ---------------------------------------------------------------------------
# integer sphere walk


def _zigzag(start: int, lo: int, hi: int) -> list[int]:
    """The integers of [lo, hi] in zig-zag order around start (lo <= start
    <= hi): start, start + 1, start - 1, start + 2, ..., then the rest of
    the longer side once the shorter one runs out."""
    above, below = range(start + 1, hi + 1), range(start - 1, lo - 1, -1)
    side = min(len(above), len(below))
    return [start, *chain.from_iterable(zip(above, below)), *above[side:], *below[side:]]


def _zigzag_at(start, lo, hi, j):
    """Element j of _zigzag(start, lo, hi), for arrays that broadcast
    against each other: the order of many level-0 rows at once. The outer
    levels keep the list form, which is several times cheaper for one
    row."""
    side = np.minimum(hi - start, start - lo)
    paired = j <= 2 * side
    step = np.where(paired, (j + 1) // 2, j - side)
    up = np.where(paired, j % 2 == 1, hi - start > start - lo)
    return np.where(up, start + step, start - step)


def _sphere_walk(
    r_mat: np.ndarray,
    qty: np.ndarray,
    radius_sq: float,
    cut: float,
    lo: int,
    hi: int,
    budget: _Budget,
    score,
    accept,
    blocks: list[tuple[int, int]] | None = None,
    block_cap: int | None = None,
):
    """Depth-first walk over integer points u in [lo, hi]^D with
    ||r_mat u - qty||^2 < radius_sq, zig-zag ordered per level so good
    points come first. Levels with a negligible pivot (free levels) fall
    back to box bounds and their values are charged to the budget as walk
    steps, because the radius cannot prune there.

    The two innermost levels are one batch per visit of level 1: every
    (level-1 value, level-0 value) leaf in walk order, in slices of at
    most _LEAF_SLICE leaves. score(us, dist_sq) estimates the residual of
    each live leaf of a slice (one row of us per leaf), and accept(u,
    dist_sq) gets, in walk order, each live leaf whose estimate is at
    most cut. accept returns upper bounds on radius_sq and cut; they apply
    strictly from the next leaf on, so later points must beat a tightened
    radius, not merely tie it. After each accept the rest of the batch is
    filtered again: level-1 values whose own distance no longer fits are
    skipped, and later level-0 ranges shrink to the tightened radius.
    Points, and walk steps at free levels, are charged in bulk up to and
    including each leaf handed to accept, and at a free outer level per
    run of values that does not descend, so the counters, and the leaf at
    which the budget runs out, are those of a walk that visits the leaves
    one at a time.

    blocks: optional (start, end) slices over which sum(u) must stay
    strictly below block_cap.
    """
    dims = r_mat.shape[0]
    u = np.zeros(dims, dtype=np.int64)
    diag = np.abs(np.diag(r_mat))
    diag_ok = diag > 1e-12 * (1.0 + np.abs(r_mat).max())
    block_at = [None] * dims  # per level, the coordinates of its block
    for s, e in blocks or ():
        block_at[s:e] = [slice(s, e)] * (e - s)

    def plane(us, partials, radius_sq, free1):
        """Walk level 0 under each row of us, in order: a level-1 value
        with the levels above it, at walk distance partials[i]. free1
        charges one walk step per row."""
        nonlocal cut
        rows = len(us)
        inner = (us[:, None, 1:] @ r_mat[0, 1:, None])[:, 0, 0] - qty[0]
        used = us[:, block_at[0]].sum(axis=1) if block_at[0] is not None else None
        pivot, free0 = r_mat[0, 0], not diag_ok[0]
        first, last, start, counts = np.zeros((4, rows), dtype=np.int64)

        def enter(top, radius_sq):
            """Enter rows top.. at radius_sq: per row, the first and last
            value of level 0 to walk and the zig-zag start, as descend
            finds them for one row; no values where the row's own
            distance leaves no room."""
            last[top:] = first[top:] - 1
            at = top + np.flatnonzero(partials[top:] < radius_sq)
            if at.size:
                if diag_ok[0]:
                    half, neg = np.sqrt(radius_sq - partials[at]), -inner[at]
                    a, b = (neg - half) / pivot, (neg + half) / pivot
                    lo_f, hi_f = (a, b) if pivot > 0 else (b, a)
                    first[at] = np.minimum(np.maximum(np.ceil(lo_f - 1e-12), lo), hi + 1)
                    last[at] = np.maximum(np.minimum(np.floor(hi_f + 1e-12), hi), lo - 1)
                    center = np.rint(neg / pivot)
                else:
                    first[at], last[at], center = lo, hi, round(0.5 * (lo + hi))
                if used is not None:
                    last[at] = np.minimum(last[at], block_cap - 1 - used[at])
                start[at] = np.minimum(np.maximum(center, first[at]), last[at])
            counts[top:] = np.maximum(last[top:] - first[top:] + 1, 0)

        # each row enters at the radius of its turn: the rows after an
        # accepted leaf enter again at the tightened radius
        enter(0, radius_sq)
        charged = top = 0  # rows that paid their walk step; rows walked
        while top < rows:
            # whole rows up to _LEAF_SLICE leaves, or one longer row in slices
            ends = np.cumsum(counts[top:])
            begins = ends - counts[top:]
            group = max(int(np.searchsorted(ends, _LEAF_SLICE, side="right")), 1)
            for s in range(0, int(ends[group - 1]), _LEAF_SLICE):
                f = np.arange(s, min(s + _LEAF_SLICE, int(ends[group - 1])))
                rel = np.searchsorted(ends, f, side="right")
                row = top + rel
                vals = _zigzag_at(start[row], first[row], last[row], f - begins[rel])
                contrib = pivot * vals + inner[row]
                dist = partials[row] + contrib * contrib
                alive = np.ones(len(f), dtype=bool)
                res = np.full(len(f), np.inf)
                live = np.flatnonzero(dist < radius_sq)
                if live.size:
                    leaf_us = us[row[live]]
                    leaf_us[:, 0] = vals[live]
                    res[live] = score(leaf_us, dist[live])
                pos = 0  # next leaf to charge
                while True:
                    inside = alive & (dist < radius_sq)
                    hits = np.flatnonzero(inside[pos:] & (res[pos:] <= cut))
                    end = pos + int(hits[0]) + 1 if hits.size else len(f)
                    if free0:
                        budget.add_steps(int(np.count_nonzero(alive[pos:end])))
                    budget.add_points(int(np.count_nonzero(inside[pos:end])))
                    if not hits.size:
                        break
                    hit, pos = end - 1, end
                    h = int(row[hit])
                    if free1:
                        budget.add_steps(h + 1 - charged)
                        charged = h + 1
                    leaf = us[h].copy()
                    leaf[0] = vals[hit]
                    radius_bound, cut_bound = accept(leaf, float(dist[hit]))
                    radius_sq = min(radius_sq, radius_bound)
                    cut = min(cut, cut_bound)
                    if h + 1 < rows:
                        # ranges only shrink, keeping their order: drop the
                        # laid-out leaves of later rows that left them
                        enter(h + 1, radius_sq)
                        rest = row[end:]
                        alive[end:] &= (rest <= h) | (
                            (first[rest] <= vals[end:]) & (vals[end:] <= last[rest])
                        )
            top += group
            if free1:
                budget.add_steps(top - charged)
                charged = top
        return radius_sq

    def descend(level: int, partial: float, radius_sq: float) -> float:
        inner = float(r_mat[level, level + 1 :] @ u[level + 1 :]) - qty[level]
        avail = radius_sq - partial
        if avail <= 0:
            return radius_sq
        pivot = float(r_mat[level, level])
        if diag_ok[level]:
            half = math.sqrt(avail)
            a, b = (-half - inner) / pivot, (half - inner) / pivot
            first = max(lo, math.ceil(min(a, b) - 1e-12))
            last = min(hi, math.floor(max(a, b) + 1e-12))
            center = -inner / pivot
        else:
            first, last, center = lo, hi, 0.5 * (lo + hi)
        block = block_at[level]
        if block is not None:
            last = min(last, block_cap - 1 - int(u[block].sum()))
        if first > last:
            return radius_sq
        # nearest integer to the unconstrained optimum first
        start = min(max(round(center), first), last)
        vals = np.array(_zigzag(start, first, last))
        contrib = pivot * vals + inner
        new_partials = partial + contrib * contrib
        free = not diag_ok[level]
        inside = np.flatnonzero(new_partials < radius_sq)
        if level == 1 and inside.size:
            us = np.repeat(u[None], len(vals), axis=0)
            us[:, 1] = vals
            return plane(us, new_partials, radius_sq, free)
        # only values inside the radius descend; a free level charges one
        # walk step per value, in bulk up to each value that descends
        charged = 0
        if level > 1:
            vals, new_partials = vals.tolist(), new_partials.tolist()
            for i in inside.tolist():
                if new_partials[i] >= radius_sq:
                    continue
                if free:
                    budget.add_steps(i + 1 - charged)
                    charged = i + 1
                u[level] = vals[i]
                radius_sq = descend(level - 1, new_partials[i], radius_sq)
            u[level] = 0
        if free and charged < len(vals):
            budget.add_steps(len(vals) - charged)
        return radius_sq

    try:
        if dims == 1:
            plane(u[None], np.zeros(1), radius_sq, False)
        else:
            descend(dims - 1, 0.0, radius_sq)
    finally:
        # descend refers to itself through its closure cell; emptying the
        # cell frees score and accept, and the search they hold, without
        # the cyclic GC
        del descend


def _coeff_rows(u: np.ndarray, width: int) -> tuple[tuple[int, ...], ...]:
    """Per-piece coefficient numerators of a piecewise stratum's point."""
    return tuple(
        tuple(int(v) for v in u[s : s + width]) for s in range(0, len(u), width)
    )


def _qr_rows(a_cols: np.ndarray, y: np.ndarray):
    """QR pieces for |a_cols u - y|^2 = |R u - qty|^2 + base_sq.

    When the stratum has more coordinates than rows, R is padded square
    with zero rows; those levels walk the whole box (zero pivot path).
    Pivots may have either sign: negating a row of R and its entry of qty
    (exact in IEEE arithmetic) swaps the ends of that level's interval,
    which the walk orders itself, and leaves its zig-zag centre and the
    squared contributions as they were."""
    q, r = np.linalg.qr(a_cols)
    qty = q.T @ y
    base_sq = max(float(y @ y - qty @ qty), 0.0)
    d, dims = r.shape
    if d < dims:
        r = np.vstack((r, np.zeros((dims - d, dims))))
        qty = np.concatenate((qty, np.zeros(dims - d)))
    return r, qty, base_sq


# ---------------------------------------------------------------------------
# stratum generation


def _position_costs(n: int) -> np.ndarray:
    """uint_code_len(p + 1) for p in 0 .. n - 1. The frexp exponent of an
    integer below 2^53 is its exact bit length."""
    exp = np.frexp(np.arange(1, n + 1, dtype=np.float64))[1].astype(np.int64) - 1
    return exp + 2 * (np.frexp(exp + 1.0)[1] - 1) + 1


def _budgeted_blocks(costs: np.ndarray, size: int, budget: int):
    """Ascending index tuples of `size` indices whose costs sum to at most
    budget, in lexicographic order, as prefix blocks (prefix, firsts,
    ends).

    A block stands for the tuples prefix + (firsts[t], j) with
    firsts[t] < j < ends[t]: firsts is a run of at most _BLOCK_ROWS
    consecutive indices that stops before the next multiple of
    _PANEL_ROWS, so the block's pair grid lies in one Gram panel, and
    ends never increases along it, so every second index of the block
    lies below ends[0]. Size 1 gives the one block ((), firsts, None) of
    all tuples (i,) that fit, and size 0 the one block ((), None, None)
    of the empty tuple; either only when the budget allows a tuple.

    Costs must not decrease with the index. Then the cheapest way to pick
    r more indices from i on is the window costs[i:i+r], whose sum does
    not decrease with i, so each index range is one searchsorted cut on
    the window sums and the scan stops at the first index that cannot
    fit. Prefixes of size - 2 indices are walked one at a time."""
    costs = np.asarray(costs, dtype=np.int64)
    if np.any(np.diff(costs) < 0):
        raise ValueError("costs must not decrease with the index")
    n = len(costs)
    if size == 0:
        if budget >= 0:
            yield (), None, None
        return
    if size == 1:
        stop = np.searchsorted(costs, budget, side="right")
        if stop:
            yield (), np.arange(stop, dtype=np.int64), None
        return
    if size > n:
        return
    cum = np.concatenate(([0], np.cumsum(costs)))
    # windows[r][i]: cost of indices i..i+r-1, for i in 0..n-r
    windows = {r: cum[r:] - cum[: n - r + 1] for r in range(2, size + 1)}

    def prefixes(picked: list[int], start: int, left: int):
        """Prefixes of size - 2 indices, with the budget left after them."""
        if len(picked) == size - 2:
            yield picked, left
            return
        stop = np.searchsorted(windows[size - len(picked)], left, side="right")
        for i in range(start, stop):
            yield from prefixes(picked + [i], i + 1, left - int(costs[i]))

    for picked, left in prefixes([], 0, budget):
        lo = picked[-1] + 1 if picked else 0
        stop = np.searchsorted(windows[2], left, side="right")
        while lo < stop:
            hi = min(lo + _BLOCK_ROWS, lo - lo % _PANEL_ROWS + _PANEL_ROWS, stop)
            firsts = np.arange(lo, hi, dtype=np.int64)
            ends = np.searchsorted(costs, left - costs[firsts], side="right")
            yield tuple(picked), firsts, ends
            lo = hi


def _block_size(block) -> int:
    """Number of index tuples a block stands for."""
    _, firsts, ends = block
    if firsts is None:
        return 1
    if ends is None:
        return len(firsts)
    return int((ends - firsts - 1).sum())


def _block_rows(block, picked=None) -> np.ndarray:
    """The index tuples of a block as rows of an int64 array, in
    lexicographic order. picked, if given, selects some of them: the
    np.nonzero of a mask over the one tuple of size 0, over firsts for
    size 1, and otherwise (t, s) arrays of cells of the block's grid that
    are tuples, in row-major order: first index firsts[t] and second index
    firsts[0] + 1 + s."""
    prefix, firsts, ends = block
    if firsts is None:
        rows = np.zeros((1, 0), dtype=np.int64)
        return rows if picked is None else rows[picked]
    if ends is None:
        return (firsts if picked is None else firsts[picked])[:, None]
    if picked is None:
        # firsts are consecutive, so row t's tuples are s = t .. ends[t] - firsts[0] - 2
        counts = ends - firsts - 1
        at = np.repeat(np.arange(len(firsts)), counts)
        sec = at + np.arange(len(at)) - np.repeat(np.cumsum(counts) - counts, counts)
    else:
        at, sec = picked
    rows = np.empty((len(at), len(prefix) + 2), dtype=np.int64)
    rows[:, :-2] = prefix
    rows[:, -2] = firsts[at]
    rows[:, -1] = firsts[0] + 1 + sec
    return rows


def _ls2_residual_sq(g00, g11, g01, b0, b1, yy: float) -> np.ndarray:
    """Closed-form least-squares residual^2 of two columns with Gram
    entries g00, g11, g01 and correlations b0, b1 with y. Arguments
    broadcast against each other. Singular pairs get bound 0."""
    det = g00 * g11 - g01**2
    good = det > 1e-12 * (g00 * g11 + 1e-300)
    quad = b0 * (g11 * b0 - g01 * b1) + b1 * (g00 * b1 - g01 * b0)
    np.divide(quad, det, out=quad, where=good)
    out = np.zeros(quad.shape)
    np.subtract(yy, quad, out=out, where=good)
    return np.maximum(out, 0.0, out=out)


class _GramPanels:
    """Gram entries G[i, j] = cols[:, i] . cols[:, j] of a (d, N) column
    matrix, without an N x N array.

    Entries with i <= j are read from aligned panels cols[:, p:p + R].T @
    cols[:, p:], with R = _PANEL_ROWS and p a multiple of R, and an entry
    with i > j is G[j, i]. At one BLAS thread these give the bits of the
    full product cols.T @ cols; a slice that starts off a panel boundary
    can differ from it in the last bit. A block's pair grid is one slice of
    one panel, since _budgeted_blocks keeps a block's first indices inside
    one. Panels are built when first needed, and at most _PANEL_CACHE of
    them are kept."""

    def __init__(self, cols: np.ndarray) -> None:
        self.cols = cols
        self.size = cols.shape[1]
        self.panels = {}  # start -> panel, least recently used first

    def panel(self, p: int) -> np.ndarray:
        """The panel of rows p .. p + R - 1, kept or built."""
        got = self.panels.pop(p, None)
        if got is None:
            if len(self.panels) >= _PANEL_CACHE:
                del self.panels[next(iter(self.panels))]
            got = self.cols[:, p : p + _PANEL_ROWS].T @ self.cols[:, p:]
        self.panels[p] = got
        return got

    @cached_property
    def diag(self) -> np.ndarray:
        """G[i, i] for every i, from the R x R diagonal blocks alone."""
        starts = range(0, self.size, _PANEL_ROWS)
        blocks = (self.cols[:, p : p + _PANEL_ROWS] for p in starts)
        return np.concatenate([np.diagonal(x.T @ x) for x in blocks])

    def row(self, i: int, idx: np.ndarray) -> np.ndarray:
        """G[i, idx] for indices idx >= i: from the panel that holds i."""
        p = i - i % _PANEL_ROWS
        return self.panel(p)[i - p, idx - p]

    def last_column(self) -> np.ndarray:
        """G[:, N - 1]: the last column of every panel."""
        return np.concatenate(
            [self.panel(p)[:, -1] for p in range(0, self.size, _PANEL_ROWS)]
        )

    def grid(self, lo: int, hi: int, j_lo: int, j_hi: int) -> np.ndarray:
        """G[i, j] for lo <= i < hi and j_lo <= j < j_hi, where the rows lo ..
        hi - 1 lie in one panel and lo < j_lo: a slice of that panel."""
        p = lo - lo % _PANEL_ROWS
        return self.panel(p)[lo - p : hi - p, j_lo - p : j_hi - p]


class _SubsetBound:
    """The least-squares prune of one family of strata, for run_level: a
    block of _budgeted_blocks to the strata whose least-squares residual is
    within limit, as (rows, residual^2), an exact lower bound on any point
    of each stratum. A stratum is the columns of cols (d, N) at its index
    tuple, plus the last column if last_forced; the block never holds that
    one. corr = cols.T @ y and yy = |y|^2.

    F is the forced column plus the block's prefix. One Cholesky step per
    column f of F (W's row w_f is f's projected Gram row over the root of
    its pivot, c_f its projected correlation over the same) leaves the
    last one or two indices with the Gram matrix G - W^T W, the
    correlations corr - W^T c and |y|^2 - |c|^2. The forced column's step
    is taken once for the family and each prefix's once for its blocks.
    The one-column formula or _ls2_residual_sq then runs on the projected
    entries of the block's firsts, or of the cells of its grid of firsts x
    seconds that pass a cheap screen (pairs). With no forced column and no
    prefix the arithmetic is that of the two formulas alone.

    Strata with (nearly) dependent columns get bound 0, so they are never
    pruned: when a projected diagonal entry, a pivot of F included, is
    not above _SUBSET_GUARD times its unprojected value. A column in the
    span of F projects to rounding noise, so projected entries alone
    cannot tell."""

    def __init__(self, cols, corr, yy: float, limit: float, last_forced=False) -> None:
        self.gram = _GramPanels(cols)
        self.corr = corr
        self.yy = yy
        self.limit = limit
        self.last_forced = last_forced
        self.last_prefix = None  # (prefix, its state) of the last block

    @cached_property
    def base(self):
        """(g, b, rest, w) over every index after the forced column's
        Cholesky step, if any; None if its pivot is singular."""
        diag = self.gram.diag
        if not self.last_forced:
            return diag, self.corr, self.yy, []
        f = len(diag) - 1
        if not diag[f] > _SUBSET_GUARD * diag[f]:
            return None
        root = math.sqrt(diag[f])
        wf = self.gram.last_column() / root
        cf = self.corr[f] / root
        return diag - wf * wf, self.corr - cf * wf, self.yy - cf * cf, [wf]

    def state(self, prefix):
        """project(prefix), kept for the blocks that share the prefix."""
        if self.last_prefix is None or self.last_prefix[0] != prefix:
            self.last_prefix = prefix, self.project(prefix)
        return self.last_prefix[1]

    def project(self, prefix):
        """(start, g, b, rest, w, bad) over the indices start .. N - 1 after
        the steps of F; bad marks the guarded ones (None with F empty).
        None if a pivot of F is singular."""
        if self.base is None:
            return None
        g, b, rest, w = self.base
        start = prefix[-1] + 1 if prefix else 0
        if prefix:
            idx = np.concatenate((prefix, np.arange(start, len(g))))
            g, b, w = g[idx], b[idx], [v[idx] for v in w]
        for f in prefix:
            # position 0 holds f; the positions before it are dropped
            if not g[0] > _SUBSET_GUARD * self.gram.diag[f]:
                return None
            root = math.sqrt(g[0])
            wf = (self.gram.row(f, idx) - sum(v[0] * v for v in w)) / root
            cf = b[0] / root
            g, b = (g - wf * wf)[1:], (b - cf * wf)[1:]
            rest -= cf * cf
            w = [v[1:] for v in w] + [wf[1:]]
            idx = idx[1:]
        bad = ~(g > _SUBSET_GUARD * self.gram.diag[start:]) if w else None
        return start, g, b, rest, w, bad

    def __call__(self, block):
        prefix, firsts, ends = block
        state = self.state(prefix)
        if state is None:
            rows = _block_rows(block)  # the whole block keeps bound 0
            return rows, np.zeros(len(rows))
        start, g, b, rest, w, bad = state
        if firsts is None:
            res = np.full(1, max(rest, 0.0))
        elif ends is None:
            gi, bi = g[firsts - start], b[firsts - start]
            res = rest - np.divide(bi**2, gi, out=np.zeros(len(gi)), where=gi > 1e-300)
            if bad is not None:
                res[bad[firsts - start]] = 0.0
            np.maximum(res, 0.0, out=res)
        else:
            return self.pairs(block, state)
        picked = np.nonzero(np.sqrt(res) <= self.limit)
        return _block_rows(block, picked), res[picked]

    def pairs(self, block, state):
        """The pair grid of a block of size >= 2. With i the first and j the
        second index, the exact residual^2 is r_i - e^2 / h, where r_i =
        rest - b_i^2 / g_i, e = b_j - g01 b_i / g_i and h = g_j - g01^2 / g_i.
        A cell with e^2 < c_i (h - _SCREEN_TAU g_j), c_i = r_i - limit^2, is
        dropped without it; every cell of a row with c_i <= _SCREEN_TAU rest
        and of a guarded row or column is kept. _ls2_residual_sq then runs on
        the kept cells that are tuples of the block, so its bits are those of
        the whole grid's."""
        _, firsts, ends = block
        start, g, b, rest, w, bad = state
        lo, hi = firsts[0] - start, firsts[-1] + 1 - start
        i, j = slice(lo, hi), slice(lo + 1, ends[0] - start)
        g01 = self.gram.grid(firsts[0], firsts[-1] + 1, firsts[0] + 1, ends[0])
        if w:
            g01 = g01 - sum(v[i, None] * v[None, j] for v in w)
        gi, bi, gj, bj = g[i], b[i], g[j], b[j]

        screen = gi > 0
        inv = np.divide(1.0, gi, out=np.zeros(len(gi)), where=screen)
        ratio = bi * inv
        c = rest - bi * ratio - self.limit * self.limit
        screen &= c > _SCREEN_TAU * rest
        h_room = gj - _SCREEN_TAU * gj
        if bad is not None:
            screen &= ~bad[i]
            h_room[bad[j]] = 0.0
        c[~screen] = inv[~screen] = ratio[~screen] = 0.0
        e_sq = g01 * ratio[:, None]
        np.subtract(bj, e_sq, out=e_sq)
        e_sq *= e_sq
        room = g01 * g01
        room *= inv[:, None]
        np.subtract(h_room, room, out=room)
        room *= c[:, None]
        t, s = np.divmod(np.flatnonzero(~(e_sq < room)), room.shape[1])

        # cells of the grid that are tuples: firsts[t] < seconds[s], which
        # is s >= t, and seconds[s] < ends[t]
        cell = s >= t
        if ends[-1] < ends[0]:
            cell &= s < (ends - firsts[0] - 1)[t]
        t, s = t[cell], s[cell]
        res = _ls2_residual_sq(gi[t], gj[s], g01[t, s], bi[t], bj[s], rest)
        if bad is not None:
            res[bad[i][t] | bad[j][s]] = 0.0
        keep = np.sqrt(res) <= self.limit
        return _block_rows(block, (t[keep], s[keep])), res[keep]


# ---------------------------------------------------------------------------
# the search itself


class _Search:
    def __init__(
        self,
        ens: MeasurementEnsemble,
        y: np.ndarray,
        m: int,
        eta: float,
        config: SolverConfig,
        probe_ref: QuantizedVector | None,
    ) -> None:
        self.a = np.asarray(ens.matrix, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.n = ens.n
        self.d = ens.d
        self.m = m
        self.eta = eta
        self.config = config
        self.prefix_tables = {}  # filled lazily by prefix_table
        self.yy = float(self.y @ self.y)
        self.budget = _Budget(config.node_cap)
        self.incumbent = _Incumbent()
        self.probe = _Probe(self.a, probe_ref) if probe_ref is not None else None
        self.pos_costs = _position_costs(self.n)
        self.len_n = uint_code_len(self.n)
        self.ens = ens

    @cached_property
    def support_bound(self) -> _SubsetBound:
        """The least-squares prune of sparse supports, for every size."""
        return _SubsetBound(self.a, self.a.T @ self.y, self.yy, self.eta + _LS_MARGIN)

    @cached_property
    def pp_slack(self) -> float:
        """Floored samples sit within 2^-m below the continuous polynomial,
        so continuous-space prunes of degree >= 1 strata get this much
        extra room. Computed on first use: sigma_max is a Gram
        eigendecomposition that sparse-only solves never need."""
        return self.ens.sigma_max * math.sqrt(self.n) * 2.0 ** (-self.m)

    @cached_property
    def res_margin(self) -> float:
        """Two float evaluations of |Ax - y| at one x in [0, 1]^n, summed
        in different orders, differ by less than this."""
        scale = np.linalg.norm(self.a) * math.sqrt(self.n) + math.sqrt(self.yy)
        return 4 * (self.n + self.d) * np.finfo(np.float64).eps * scale

    # -- one stratum walker -----------------------------------------------

    def walk_stratum(
        self, cols, dl, lo, bits, samples, code, floored=False, blocks=None
    ) -> None:
        """Offer the grid points of one stratum that satisfy the constraint
        and can still beat or tie the incumbent.

        The points are coordinate vectors u in [lo, 2^bits - 1]^D, and
        cols holds the stratum's columns scaled to that grid. samples(us)
        maps an (L, D) batch of points to the (L, n) int64 sample
        numerators of their vectors, and code(u, vec) gives one point's
        codeword, built only if the offer gets that far. blocks are the
        (start, end) coordinate slices of a piecewise stratum's pieces,
        whose coefficient numerators sum to less than 2^bits.

        Unless floored, the samples are the coordinates themselves and the
        walk distance gives the exact residual. Floored samples (piecewise
        degree >= 1) can be pp_slack further from y than the walk distance
        says, so the radius is widened by that much and the residual is
        recomputed from the samples.

        The walk scores its two innermost levels in batches and hands
        accept only the leaves that can change the search: while a probe is
        attached, every feasible leaf; otherwise every feasible leaf up
        to this stratum's first one, which tightens the radius against
        this stratum's base_sq even when it loses to the incumbent, and
        after it only leaves that can beat or tie the incumbent residual.
        Batch residuals can differ from accept's in the last bits, so they
        are compared with res_margin to spare, and accept decides on the
        exact residual. A stratum with no columns has the one point u = (),
        which accept gets without a walk; like any stratum, it was charged
        to the node cap by its level, and the point is not charged."""
        r_mat, qty, base_sq = _qr_rows(cols, self.y)
        slack = self.pp_slack if floored else 0.0
        radius_sq = (self.eta + slack) ** 2 + _LS_MARGIN - base_sq
        if radius_sq < 0:
            return
        margin = self.res_margin

        def score(us, dist_sq):
            if not floored:
                return np.sqrt(base_sq + dist_sq)
            x = np.ldexp(samples(us).astype(np.float64), -self.m)
            return np.linalg.norm(x @ self.a.T - self.y, axis=1)

        def accept(u, dist_sq):
            nums = samples(u[None])[0]
            if floored:
                x = np.ldexp(nums.astype(np.float64), -self.m)
                res = float(np.linalg.norm(self.a @ x - self.y))
            else:
                res = math.sqrt(base_sq + dist_sq)
            if res > self.eta:
                return math.inf, math.inf
            vec = QuantizedVector(tuple(nums.tolist()), self.m)
            if self.probe is not None:
                self.probe.observe(vec.to_floats())
            self.incumbent.offer(dl, res, lambda: code(u, vec), vec)
            # this stratum now holds the incumbent length, so only points
            # that can still beat or tie its residual matter
            radius_bound = max((self.incumbent.residual + slack) ** 2 - base_sq, 0.0)
            if self.probe is not None:
                return radius_bound, math.inf
            return radius_bound, self.incumbent.residual + margin

        if not cols.shape[1]:
            accept(np.zeros(0, dtype=np.int64), 0.0)
            return
        top = (1 << bits) - 1
        _sphere_walk(
            r_mat, qty, radius_sq, self.eta + margin, lo, top, self.budget,
            score, accept, blocks, top + 1,
        )

    # -- one level of strata ---------------------------------------------

    def run_level(self, costs, size, base, bound, offer) -> bool:
        """Offer the strata of one level: the ascending tuples of `size`
        indices, whose code length is base plus their costs, in order of
        length, then least-squares bound, then generation order, up to the
        first one longer than the incumbent. Returns whether any stratum
        was within the incumbent's length: when none is, no larger size of
        the same family can be either.

        Only tuples within the incumbent's length are generated, as blocks
        of _budgeted_blocks. Each block is charged to the node cap before
        bound(block) returns the rows that pass the least-squares prune,
        with their residual^2. Only those are priced and sorted, once for
        the whole level, so memory is a few blocks plus the survivors, and
        offer(row, dl) gets them in that order."""
        budget_left = int(min(self.incumbent.dl - base, costs.sum(initial=0)))
        rows, res_sq = [], []
        for block in _budgeted_blocks(costs, size, budget_left):
            self.budget.add_strata(_block_size(block))
            passed, passed_res = bound(block)
            rows.append(passed)
            res_sq.append(passed_res)
        if not rows:
            return False
        rows = np.concatenate(rows)
        res_sq = np.concatenate(res_sq)
        dls = base + costs[rows].sum(axis=1)
        order = np.lexsort((res_sq, dls))
        for i, dl in zip(order.tolist(), dls[order].tolist()):
            # the incumbent only shrinks, so every later stratum is too long
            if dl > self.incumbent.dl:
                break
            offer(rows[i], dl)
        return True

    # -- sparse strata --------------------------------------------------

    def sparse_dl(self, k: int, cost_sum: int) -> int:
        header = CODEC_HEADER_BITS + self.len_n + uint_code_len(k + 1)
        return header + cost_sum + k * self.m

    def run_sparse(self, k_lo: int = 0, k_hi: int | None = None) -> None:
        max_k = self.config.max_sparse_k
        max_k = self.n if max_k is None else min(max_k, self.n)
        if k_hi is not None:
            max_k = min(max_k, k_hi)
        for k in range(k_lo, max_k + 1):
            if not self.run_level(
                self.pos_costs, k, self.sparse_dl(k, 0),
                self.support_bound, self.offer_sparse,
            ):
                break

    def offer_sparse(self, support: np.ndarray, dl: int) -> None:
        """Walk one support: values 1 .. 2^m - 1 at its positions."""

        def samples(us):
            nums = np.zeros((len(us), self.n), dtype=np.int64)
            nums[:, support] = us
            return nums

        cols = self.a[:, support] * 2.0 ** (-self.m)
        self.walk_stratum(
            cols, dl, 1, self.m, samples, lambda u, vec: encode_sparse(vec)
        )

    # -- piecewise-polynomial strata -------------------------------------

    def prefix_table(self, j: int) -> np.ndarray:
        """(n + 1, d) table whose row e holds sum_{i < e} a_i t_i^j, with
        t_i = i / n: a piece's degree-j column is the difference of the
        rows at its two edges. Built on first use."""
        if j not in self.prefix_tables:
            t = np.arange(self.n) / self.n
            weighted = self.a.T * t[:, None] ** j
            self.prefix_tables[j] = np.concatenate(
                (np.zeros((1, self.d)), np.cumsum(weighted, axis=0))
            )
        return self.prefix_tables[j]

    @cached_property
    def pattern_bound(self) -> _SubsetBound:
        """The least-squares prune of degree-0 breakpoint patterns, for
        every break count: columns T[1] .. T[n] of T = prefix_table(0), so
        that break b and the edge n are indices b - 1 and n - 1. A pattern
        with breaks b_1 .. b_q spans the same space as T[b_1], .., T[b_q]
        and T[n], so this bounds it without building its columns."""
        tab = self.prefix_table(0)[1:]
        return _SubsetBound(tab.T, tab @ self.y, self.yy, self.eta + _LS_MARGIN, True)

    def run_pp(self) -> None:
        if not self.config.include_pp or self.n < 1:
            return
        max_deg = min(self.config.pp_max_degree, self.n - 1)
        max_q = min(self.config.pp_max_breaks, self.n - 1)
        # break b sits at index b - 1
        break_costs = self.pos_costs[:-1]
        for n_deg in range(max_deg + 1):
            m_prime = coeff_resolution(n_deg, self.m)
            base = CODEC_HEADER_BITS + self.len_n + uint_code_len(n_deg + 1)
            for q_breaks in range(max_q + 1):
                fixed = (
                    base
                    + uint_code_len(q_breaks + 1)
                    + (q_breaks + 1) * (n_deg + 1) * m_prime
                )
                if not self.run_level(
                    break_costs, q_breaks, fixed, self.pp_bound(n_deg, m_prime),
                    lambda row, dl: self.offer_pp(n_deg, row + 1, dl, m_prime),
                ):
                    break

    def pp_bound(self, n_deg, m_prime):
        """The least-squares prune of one degree's breakpoint patterns, for
        run_level: a block of break indices (break b is index b - 1) to the
        patterns that pass and their residual^2. Degree 0 takes the bound
        from pattern_bound, with T[n] forced in. Higher degrees build the
        columns of at most _PP_CHUNK patterns at a time and take
        |y|^2 - |Q^T y|^2 from one stacked QR of them, the residual that
        walk_stratum skips a stratum on; their samples are floored, so the
        prune carries pp_slack."""
        if n_deg == 0:
            # built when a block is first bounded, not for a degree whose
            # levels are all out of budget
            return lambda block: self.pattern_bound(block)

        def bound(block):
            rows = _block_rows(block)
            res_sq = np.empty(len(rows))
            for lo in range(0, len(rows), _PP_CHUNK):
                cols = self.pp_columns(n_deg, rows[lo : lo + _PP_CHUNK] + 1, m_prime)
                qty = self.y @ np.linalg.qr(cols)[0]
                res_sq[lo : lo + _PP_CHUNK] = self.yy - np.einsum("bi,bi->b", qty, qty)
            np.maximum(res_sq, 0.0, out=res_sq)
            keep = np.sqrt(res_sq) <= self.eta + self.pp_slack + _LS_MARGIN
            return rows[keep], res_sq[keep]

        return bound

    def pp_columns(self, n_deg, breaks, m_prime) -> np.ndarray:
        """(batch, d, dims) columns of a batch of breakpoint patterns (rows
        of breaks) of one degree, scaled to the coefficient grid."""
        batch, q_breaks = breaks.shape
        dims = (q_breaks + 1) * (n_deg + 1)
        scale = 2.0 ** (-m_prime)
        edges = np.zeros((batch, q_breaks + 2), dtype=np.int64)
        edges[:, 1:-1] = breaks
        edges[:, -1] = self.n
        cols = np.empty((batch, self.d, dims))
        for piece in range(q_breaks + 1):
            lo_e, hi_e = edges[:, piece], edges[:, piece + 1]
            for j in range(n_deg + 1):
                tab = self.prefix_table(j)
                cols[:, :, piece * (n_deg + 1) + j] = (tab[hi_e] - tab[lo_e]) * scale
        return cols

    def offer_pp(self, n_deg, breaks, dl, m_prime):
        """Walk one breakpoint pattern: n_deg + 1 coefficient numerators
        per piece, each piece's summing to less than 2^m_prime."""
        width = n_deg + 1
        cols = self.pp_columns(n_deg, breaks[None], m_prime)[0]
        breaks = tuple(breaks.tolist())

        def code(u, vec):
            rows = _coeff_rows(u, width)
            return _encode_pp_numerators(breaks, rows, n_deg, self.n, self.m)

        blocks = [(s, s + width) for s in range(0, cols.shape[1], width)]
        decode = self.pp_decoder(breaks, n_deg, m_prime)
        self.walk_stratum(
            cols, dl, 0, m_prime, decode, code, floored=n_deg > 0, blocks=blocks
        )

    def pp_decoder(self, breaks, n_deg, m_prime):
        """Sample-numerator evaluator for one stratum: an (L, D) batch of
        coefficient points to their (L, n) int64 sample numerators. Exact
        integer arithmetic, in int64 when the intermediate products
        provably fit and in Python integers otherwise. At degree 0 the
        samples are the piece constants themselves."""
        n, m = self.n, self.m
        width = n_deg + 1
        bit_bound = (
            m_prime + n_deg * max(n - 1, 1).bit_length() + width.bit_length() + m
        )
        dtype = np.int64 if bit_bound <= 62 else object
        # row p * width + j holds i^j n^(n_deg - j) on piece p's samples i
        i = np.arange(n).astype(dtype)
        edges = (0,) + tuple(breaks) + (n,)
        basis = np.zeros((width * (len(edges) - 1), n), dtype=dtype)
        for p in range(len(edges) - 1):
            lo, hi = edges[p], edges[p + 1]
            for j in range(width):
                basis[p * width + j, lo:hi] = i[lo:hi] ** j * n ** (n_deg - j)
        denom = (1 << m_prime) * n**n_deg

        def decode(us):
            nums = (us.astype(dtype, copy=False) @ basis << m) // denom
            return nums.astype(np.int64, copy=False)

        return decode

    # -- literal stratum -------------------------------------------------

    def run_literal(self) -> None:
        if not self.config.include_literal:
            return
        dl = CODEC_HEADER_BITS + self.n * self.m
        if dl > self.incumbent.dl:
            return
        self.budget.add_strata(1)
        cols = self.a * 2.0 ** (-self.m)
        self.walk_stratum(
            cols, dl, 0, self.m, lambda us: us, lambda u, vec: encode_literal(vec)
        )

    # -- putting it together ----------------------------------------------

    def run(self) -> RecoveryResult:
        # shallow sparse first, then piecewise strata, then deep sparse:
        # structured dense signals set an incumbent before the k-combo
        # space grows combinatorial. Order never changes the winner; any
        # stratum skipped has length strictly above the final incumbent.
        self.run_sparse(0, 2)
        self.run_pp()
        self.run_sparse(3, None)
        self.run_literal()
        inc = self.incumbent
        found = inc.vector is not None
        return RecoveryResult(
            status="ok" if found else "infeasible",
            x_hat=inc.vector,
            dl_bits=int(inc.dl) if found else 0,
            codec_id=inc.codec_id,
            stream=inc.stream,
            residual=inc.residual,
            eta=self.eta,
            strata_examined=self.budget.strata,
            points_tested=self.budget.points,
            probe=self.probe.stats() if self.probe is not None else None,
        )


def mcp_exact(
    ens: MeasurementEnsemble,
    y: np.ndarray,
    m: int,
    eta: float | None = None,
    config: SolverConfig = SolverConfig(),
    probe_ref: QuantizedVector | None = None,
) -> RecoveryResult:
    """Minimize code length subject to |Ax - y| <= eta.

    The default eta is sigma_max * sqrt(n * 2^(1-2m)), large enough that
    the m-bit truncation of any signal in [0,1]^n consistent with y stays
    feasible, so the program always has the truncated truth to fall back
    on when y = A x_o exactly.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (ens.d,):
        raise ValueError(f"y must have shape ({ens.d},)")
    if eta is None:
        eta = ens.sigma_max * quantization_gap_bound(ens.n, m)
    if eta < 0:
        raise ValueError("eta must be >= 0")
    return _Search(ens, y, m, float(eta), config, probe_ref).run()


def mcp_tolerant(
    ens: MeasurementEnsemble,
    y: np.ndarray,
    m: int,
    eps_n: float,
    config: SolverConfig = SolverConfig(),
    probe_ref: QuantizedVector | None = None,
) -> RecoveryResult:
    """Variant for signals that are only eps_n-close to the coded class:
    the constraint loosens to sigma_max * (eps_n + sqrt(n * 2^(1-2m)))."""
    if eps_n < 0:
        raise ValueError("need eps_n >= 0")
    eta = ens.sigma_max * (eps_n + quantization_gap_bound(ens.n, m))
    return mcp_exact(ens, y, m, eta, config, probe_ref)
