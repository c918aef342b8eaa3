"""Description-length minimization under a measurement constraint.

The program solved here is: among all codewords of the structured codecs
(sparse, piecewise-polynomial, optionally literal), find one whose decoded
vector x satisfies |Ax - y| <= eta, minimizing code length; ties broken by
smaller residual, then by bitstream order. The residual of a point is one
float, np.linalg.norm(A @ x - y) on its decoded samples, so ties and
feasibility are decided on the values a brute-force enumeration computes.

Code length is constant on a stratum (a support set, or a breakpoint and
degree pattern), because value payloads are fixed width. The search walks
strata in ascending length with three exact prunes: strata whose length
already exceeds the incumbent are never generated; a continuous
least-squares bound discards strata whose subspace cannot reach the
constraint set, and a positivity cut sparse supports whose value box
cannot; and an integer sphere walk with a shrinking radius finds
the exact minimum-residual grid point inside each surviving stratum. The
result equals brute-force enumeration of the same codebook, which the
tests check directly at toy sizes. Only the strata that are walked have
their columns built, apart from degree >= 1 breakpoint patterns.

One method, _Search.walk_stratum, walks every stratum that survives the
prunes: a QR of its columns, a sphere walk over the integer points of its
value box, and one leaf handler that tests the residual, offers the point
and tightens the radius. Sparse supports, breakpoint patterns and the
literal block pass only what differs: columns, value box, piece blocks,
the map to sample numerators and the encoder. A breakpoint pattern's map
is the codec's own sampler, codecs.pp_sampler, which decode_any calls
too, so the walk decodes each point exactly as its stream decodes.
Degree >= 1 pieces floor their samples, so their radius carries a
slack. The walk radius, every tightening of it and the three prunes
allow one squared residual, _allowed_sq: (r + slack)^2 + _LS_MARGIN for
a residual r, with r = eta for feasibility and r = the incumbent's
residual once a point is taken, so a point that ties the incumbent stays
inside the radius and the stream order decides the tie.

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
fits is skipped, and later level-0 ranges shrink. The visit's first leaf
is tried on its own first, when neither level is pivot-free: once the
handler takes it, its row and the later ones enter again at the
tightened radius, and if that leaves its row no other value and the
later rows none, as in a walk that ends at its first leaf, the visit
lays out no batch. Points, and walk steps at pivot-free levels, are
charged in bulk: up to each leaf the handler gets, and at an outer level
per run of values that does not descend. So the counters a solve
reports, and the node at which the node cap fires, are those of a walk
that handles one leaf at a time.

Strata come level by level (a support size, or a degree and break
count) from _budgeted_blocks, which generates the ascending index tuples
within a length budget in lexicographic order: sparse supports (index p
costs uint_code_len(p + 1)) and breakpoint patterns (break b costs
uint_code_len(b)). Both costs never decrease with the index, so each
index range is one searchsorted cut on running cost sums, and only
(size - 2)-index prefixes are walked in Python. The generator writes no
rows: a block is one prefix with the run of its first indices inside one
window of _PANEL_ROWS * _PANEL_CACHE consecutive indices, aligned to
multiples of that size, each with its range of last indices; a level of
single indices is one block.

The least-squares bound of a sparse support or a degree-0 breakpoint
pattern is one class, _SubsetBound, of a (d, N) column matrix, y and a
vector that every stratum holds, if any: for supports the columns are A
itself and nothing is forced; for patterns they are the rows T[1] ..
T[n - 1] of the degree-0 prefix table, with T[n] forced, because a
pattern with breaks b_1 .. b_q spans the same space as T[b_1], ..,
T[b_q] and T[n]. Cholesky steps project out the forced vector, once per
solve, from its products with the columns, itself and y, and each
block's prefix, once per block, and the closed-form one- or two-column
formula runs on the projected entries over the block's first indices or
its grid of first and last indices: the shared prefix work of Furnival &
Wilson's leaps and bounds (1974). It is shared across prefixes too: the
bound takes a batch of up to _PANEL_CACHE consecutive blocks whose
prefixes share all but their last index (_batches), projects the shared
part once and the last indices in one batched step, as the rows of
(P, N) arrays. A projected state keeps every index, so a stratum's
entries are read at its own indices. A stratum is one row of its
absolute indices (_rows) wherever the bound keeps it: the positivity cut
returns rows, and the screen and the one method that bounds cut rows and
single indices (listed) read and emit them. The bound returns the rows
of the batch's strata that pass in no particular order.

Sparse supports first pass a positivity cut, which reads no Gram entry.
Their values lie in [lo, hi] = [2^-m, 1 - 2^-m], so with w = y / |y| a
support can hold a feasible point only if the sum of its scores s_j =
max(lo c_j, hi c_j), c_j = w . A_j, reaches |y| - limit - delta, where
delta bounds the rounding of the scores, |y| and the sum, from d, the
column norms, |y| and the support size (a Farkas-type certificate;
Slawski & Hein 2013 on nonnegative sparse recovery). The scores cost one
pass over n. Each block is cut on its own, with one need per block, to
the rows of its tuples that pass. A cell of a pair grid that passes holds
a hub, an index h with 2 s_h >= need: doubling is exact and rounding to
nearest is monotone, so the float sum s_i + s_j is at most 2 max(s_i,
s_j). So the cut lists the grid's cells from its hubs, a boolean pass
over the grid's indices per hub as first index and per hub as second,
and applies the float test s_i + s_j >= need to those alone: it keeps
bit for bit the cells that the test on every cell keeps. A kept cell
takes its Gram entry from a product of its hub's column (its index with
the higher score) with the run of columns the hub pairs with. At the
shape of corollary_n1024 at most 1,056 of 523,776 pairs survive
(0.02-0.20%, 8 instances), a whole row and column of the answer's first
index among them, a few hubs hold them all, and no panel is built.
Breakpoint patterns keep the screen
instead: their cut is a sum of positive parts over the pieces, which
kept every one- and two-break pattern of the eight pp_const_n128
instances at the bench seed. On their pair grids a cheap screen (about
eight array passes) first drops the cells whose residual provably
exceeds the limit by far more than rounding, and the closed form runs on
the rest, so the kept strata and their bounds are bit for bit those of
the whole grid (safe screening, El Ghaoui, Viallon & Rabbani 2012). The
screen runs once per Gram panel for a whole batch: it cuts each block's
first indices at panel edges, the one place that maps rows to panels,
and takes one (P, I, J) broadcast over the batch's P prefixes, the
panel's I rows and the J second indices after them, whose elements take
the operations of one block's grid in the same order, so batching moves
no bit either.
Gram entries come from aligned panels cols[:, p:p+64].T @ cols[:, p:],
built when first needed, which at one BLAS thread match the full product
cols.T @ cols bit for bit when they hold at least two rows (a one-row
panel, the last one when N = 64q + 1, and a slice that starts off a
panel boundary can differ in the last bit): the prefixes' rows, and a
batch's pair grids, from the panel that holds them. The diagonal is the
squared column norms, from one einsum over cols, and T[n]'s row is one
product T[n] @ cols. No N x N array is built. A batch holds at most
_PANEL_CACHE blocks, so at most _PANEL_CACHE prefixes, each with at most
_PANEL_ROWS first indices in one panel, and one panel's broadcast has at
most _PANEL_CACHE x _PANEL_ROWS x N cells, as many floats as the panel
cache.
Scratch memory is the cache plus three float arrays and a boolean one of
one broadcast, not proportional to the number of strata: a whole
three-break level peaks at about 3.4 times the cache at N = 127 and
3.8 times at N = 511.
Degree >= 1 patterns build their columns, at most _PP_CHUNK patterns at
a time, and take base_sq of _qr_rows on the stack, |y|^2 - |Q^T y|^2 from
a Householder QR (Businger & Golub 1965): the residual walk_stratum skips
a stratum on, bit for bit, so a pattern passes the prune exactly when
the walk would walk it. Q spans at least the columns, so dependent
columns need no guard and only lower the bound.

One method, _Search.run_level, serves every level: it charges each block
to the node cap as it is generated, bounds the blocks a batch at a time,
keeps the strata that pass, and prices (sums the code lengths of) and
sorts only those, once for the whole level, by length, then index tuple
(one lexsort), which is generation order. It is the only code that
orders strata: no bound need return them in any order. Charging stays
per block and in generation order, so the node at which the cap fires
does not depend on the batches. The offer order is one of integers: it
depends on neither the block size, the batches, the chunk size, the
order in which a bound returns its strata nor the float bits of a bound,
which move it only where they keep other strata, and it fixes the
counters a solve reports. It is also the only test of whether a level
fits. The search is one table of families of strata, _Search.families,
in this order: supports of up to two indices, each in-scope degree's
breakpoint patterns, supports of three or more indices, and the literal
block, a family of one level of size 0 whose one stratum run_level
charges, prices and offers like any other. Each family ends at its first
level with no stratum in budget, since lengths only grow with the size.
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
    pp_sampler,
    uint_code_len,
    _encode_pp_numerators,
)
from .measure import MeasurementEnsemble, sigma_max_expectation_bound
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

_LS_MARGIN = 1e-9  # float room on squared residuals, walk and prunes alike (_allowed_sq)
_SUBSET_GUARD = 1e-10  # projected/unprojected diagonal not above this: bound 0
_PANEL_ROWS = 64  # columns whose Gram rows one panel holds
# Gram panels a bound keeps, least recently used dropped first, and blocks a
# batch holds; a block's first indices lie in one window of _PANEL_ROWS *
# _PANEL_CACHE indices
_PANEL_CACHE = 8
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

    def __post_init__(self) -> None:
        if self.node_cap < 1:
            raise ValueError(f"node_cap must be at least 1, got {self.node_cap}")


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
    if d < 1 or not 0 < tau <= 1:
        raise ValueError("need d >= 1 and 0 < tau <= 1")
    return ((sigma_max_expectation_bound(n, d) + t) / tau + 1.0) * quantization_gap_bound(n, m)


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


def _pp_degrees(config: SolverConfig, n: int) -> range:
    """The piecewise-polynomial degrees in scope of a solve at n samples:
    up to pp_max_degree and n - 1, none without include_pp."""
    return range(min(config.pp_max_degree, n - 1) + 1 if config.include_pp else 0)


def _allowed_sq(r: float, slack: float = 0.0) -> float:
    """(r + slack)^2 + _LS_MARGIN: the squared distance from y, in a
    stratum's continuous span, that a point of residual at most r can
    have, with slack for floored samples. The walk radius, its tightenings
    and the prunes all read it. A product, not a power, so a finite r past
    1e154 gives inf rather than OverflowError."""
    return (r + slack) * (r + slack) + _LS_MARGIN


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
    above, below = hi - start, start - lo
    side = np.minimum(above, below)
    paired = j <= 2 * side
    step = np.where(paired, (j + 1) // 2, j - side)
    up = np.where(paired, j % 2 == 1, above > below)
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
    most cut. accept returns upper bounds on radius_sq and cut, which apply
    from the next leaf on. A leaf must lie strictly inside the radius, so a
    caller that keeps leaves that tie the one it took returns a radius with
    room above theirs, as walk_stratum's _allowed_sq does. After each
    accept the rest of the batch is filtered again: level-1 values whose
    own distance no longer fits are skipped, and later level-0 ranges
    shrink to the tightened radius. When neither level is free, the first
    leaf is tried alone before the batch is laid out; accepting it enters
    its row and the later ones again, and a visit left with nothing else
    inside the radius ends there. Points, and walk steps at free levels,
    are charged in bulk up to and including each leaf handed to accept,
    and at a free outer level per run of values that does not descend, so
    the counters, and the leaf at which the budget runs out, are those of
    a walk that visits the leaves one at a time.

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
        # the first leaf on its own, when neither level is free. Its row
        # enters again too: the range only shrinks around the same start,
        # so while any value is left the leaf is still its first one, which
        # the batch skips. A visit left with no other value inside the
        # tightened radius lays out no batch
        peeled = False
        if not (free0 or free1) and counts.any():
            h = int(np.flatnonzero(counts)[0])
            leaf = us[h].copy()
            leaf[0] = start[h]
            contrib = pivot * leaf[0] + inner[h]
            dist = partials[h] + contrib * contrib
            if dist < radius_sq and score(leaf[None], np.array([dist]))[0] <= cut:
                budget.add_points(1)
                radius_bound, cut_bound = accept(leaf, float(dist))
                radius_sq = min(radius_sq, radius_bound)
                cut = min(cut, cut_bound)
                enter(h, radius_sq)
                if counts[h] <= 1 and not counts[h + 1 :].any():
                    return radius_sq
                peeled = counts[h] > 0
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
                if peeled:
                    alive[0] = peeled = False  # the first leaf, taken above
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


def _qr_rows(a_cols: np.ndarray, y: np.ndarray):
    """QR pieces (R, qty, base_sq) for |a_cols u - y|^2 = |R u - qty|^2 +
    base_sq, of one (d, D) column matrix or of each of a stack (..., d,
    D): R has min(d, D) rows, qty = Q^T y and base_sq = |y|^2 - |qty|^2,
    at least 0. A matrix gives the bits of its own row of a stack.

    Pivots may have either sign: negating a row of R and its entry of qty
    (exact in IEEE arithmetic) swaps the ends of that level's interval,
    which the walk orders itself, and leaves its zig-zag centre and the
    squared contributions as they were."""
    q, r = np.linalg.qr(a_cols)
    qty = y @ q
    return r, qty, np.maximum(y @ y - np.vecdot(qty, qty), 0.0)


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
    firsts[t] < j < ends[t]: firsts is a run of consecutive indices
    inside one window of _PANEL_ROWS * _PANEL_CACHE indices, aligned to
    multiples of that size, so a prefix comes as one block per window its
    first indices touch, and ends never increases along it, so every
    second index of the block lies below ends[0]. Size 1 gives the one
    block ((), firsts, None) of all tuples (i,) that fit, and size 0 the
    one block ((), None, None) of the empty tuple; either only when the
    budget allows a tuple.

    Costs must not decrease with the index. Then the cheapest way to pick
    r more indices from i on is the run costs[i:i+r], whose sum does not
    decrease with i, so each index range is one searchsorted cut on the
    run sums and the scan stops at the first index that cannot fit.
    Prefixes of size - 2 indices are walked one at a time."""
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
    # runs[r][i]: cost of indices i..i+r-1, for i in 0..n-r
    runs = {r: cum[r:] - cum[: n - r + 1] for r in range(2, size + 1)}
    window = _PANEL_ROWS * _PANEL_CACHE

    def prefixes(picked: list[int], start: int, left: int):
        """Prefixes of size - 2 indices, with the budget left after them."""
        if len(picked) == size - 2:
            yield picked, left
            return
        stop = np.searchsorted(runs[size - len(picked)], left, side="right")
        for i in range(start, stop):
            yield from prefixes(picked + [i], i + 1, left - int(costs[i]))

    for picked, left in prefixes([], 0, budget):
        lo = picked[-1] + 1 if picked else 0
        stop = np.searchsorted(runs[2], left, side="right")
        while lo < stop:
            hi = min(lo - lo % window + window, stop)
            firsts = np.arange(lo, hi, dtype=np.int64)
            ends = np.searchsorted(costs, left - costs[firsts], side="right")
            yield tuple(picked), firsts, ends
            lo = hi


def _batches(blocks):
    """Runs of at most _PANEL_CACHE consecutive blocks, as lists, whose
    prefixes share all but their last index."""
    batch = []
    for block in blocks:
        if batch and (len(batch) == _PANEL_CACHE or block[0][:-1] != batch[0][0][:-1]):
            yield batch
            batch = []
        batch.append(block)
    if batch:
        yield batch


def _block_size(block) -> int:
    """Number of index tuples a block stands for."""
    _, firsts, ends = block
    if firsts is None:
        return 1
    if ends is None:
        return len(firsts)
    return int((ends - firsts - 1).sum())


def _rows(prefix, *cells) -> np.ndarray:
    """Index tuples as the rows of an int64 array: the indices of prefix,
    then one column per index array of cells. prefix is one tuple for
    every row, or an array of one prefix row per cell; with no cells,
    the one row prefix."""
    width = np.shape(prefix)[-1]
    rows = np.empty((len(cells[0]) if cells else 1, width + len(cells)), dtype=np.int64)
    rows[:, :width] = prefix
    for c, idx in enumerate(cells, width):
        rows[:, c] = idx
    return rows


def _block_rows(block) -> np.ndarray:
    """Every index tuple of a block, as the rows of an int64 array in
    lexicographic order."""
    prefix, firsts, ends = block
    if firsts is None:
        return _rows(prefix)
    if ends is None:
        return _rows(prefix, firsts)
    # first index i pairs with the run i + 1 .. its end - 1
    counts = ends - firsts - 1
    i = np.repeat(firsts, counts)
    at = np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts, counts)
    return _rows(prefix, i, i + 1 + at)


def _unbounded(rows):
    """(rows, res_sq) of strata whose prefix has a singular pivot: they
    keep bound 0."""
    return rows, np.zeros(len(rows))


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
    with i > j is G[j, i]. At one BLAS thread a panel of at least two rows
    gives the bits of the full product cols.T @ cols. A one-row panel, the
    last one when N = 64q + 1, can differ from it in the last bit (numpy
    may take a matrix-vector path for it), and so can a slice that starts
    off a panel boundary. The screen reads the pair grid rows of a batch
    that one panel holds as one slice of it, having cut each block's
    first indices at panel edges. Panels are built when first needed, by
    a prefix's step (rows) or the screen alone, and at most _PANEL_CACHE
    of them are kept; a level with neither builds none. The diagonal the
    bounds read is diag, the squared column norms, which can differ from a
    panel's diagonal in the last bit."""

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
        """G[i, i] for every i: the squared column norms, from one pass
        over cols."""
        return np.einsum("ij,ij->j", self.cols, self.cols)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        """G[i] for each i of the ascending idx, as the rows of a
        (len(idx), N) array: from the panel that holds i, which has the
        entries j >= i, and 0 left of that panel's first row."""
        out = np.zeros((len(idx), self.size))
        first, last = int(idx[0]), int(idx[-1])
        for p in range(first - first % _PANEL_ROWS, last + 1, _PANEL_ROWS):
            t0, t1 = np.searchsorted(idx, (p, p + _PANEL_ROWS)).tolist()
            if t0 < t1:
                out[t0:t1, p:] = self.panel(p)[idx[t0:t1] - p]
        return out

    def entries(self, hubs: np.ndarray, others: np.ndarray) -> np.ndarray:
        """G[h, o] for each pair of hubs and others, from one product of
        the columns of the distinct hubs with the run of columns from the
        least other to the greatest, a view of cols; no panel."""
        if not len(hubs):
            return np.zeros(0)
        hs = np.unique(hubs)
        lo, hi = int(others.min()), int(others.max()) + 1
        return (self.cols[:, hs].T @ self.cols[:, lo:hi])[np.searchsorted(hs, hubs), others - lo]


class _SubsetBound:
    """The prune of one family of strata, for run_level: a batch of blocks
    of _budgeted_blocks (_batches) to the rows of the strata that pass, in
    no particular order. A stratum is the columns of cols (d, N) at its index
    tuple, plus the vector forced (d,) if given. corr = cols.T @ y and yy =
    |y|^2.

    The least-squares bound keeps a stratum when its least-squares residual,
    an exact lower bound on that of any point of it, is within limit. F is
    the forced vector plus the block's prefix. One Cholesky step per column
    f of F (W's row w_f is f's projected Gram row over the root of its
    pivot, c_f its projected correlation over the same) leaves the last one
    or two indices with the Gram matrix G - W^T W, the correlations corr -
    W^T c and |y|^2 - |c|^2. The forced vector t's step is taken once for
    the family, from the products t @ cols, t @ t and t @ y (base), and
    each prefix's steps once per block, which holds all of the
    prefix's first indices in one window: in a batch of pair grids, once
    for the part all its prefixes share, and one batched step (step) for
    their last indices. A projected state keeps all N indices; only those
    after the prefix mean something, and a stratum reads them at its own
    indices. A stratum is one row of its absolute indices (_rows), from
    the cut, the screen and _block_rows alike. The one-column formula or
    _ls2_residual_sq then runs on the projected entries at each row's last
    one or two indices: of the rows that pass the cut (below), or with no
    cut of every tuple of a block of size <= 1, one block at a time
    (listed); pair grids with no cut take a cheap screen instead, a whole
    batch at once (screened). With no forced vector and no prefix the
    arithmetic is that of the two formulas alone. The screen and blocks
    of size <= 1 take the same operations per entry, in the same order,
    however the blocks are batched, and the cut and its Gram products see
    one block, so no bound depends on the batches. The order of the rows
    does, and run_level sorts them.

    Strata with (nearly) dependent columns get bound 0, so the least-squares
    bound never prunes them: when a projected diagonal entry, a pivot of F
    included, is not above _SUBSET_GUARD times its unprojected value. A
    column in the span of F projects to rounding noise, so projected entries
    alone cannot tell.

    box = (lo, hi), given for sparse supports, adds the positivity cut:
    every value of a point lies in [lo, hi], so with w = y / |y| a support
    S holds a point within limit of y only if sum_{j in S} s_j >= |y| -
    limit, where s_j = max(lo c_j, hi c_j) and c_j = corr_j / |y| = w .
    cols_j (w . A x >= |y| - |A x - y|; a Farkas-type certificate, as in
    safe screening, El Ghaoui, Viallon & Rabbani 2012, for nonnegative
    recovery, Slawski & Hein 2013). It reads no Gram entry, so it runs
    first, and the least-squares bound sees only the rows it keeps: a
    block whose rows all fail reads nothing. Every cell it keeps on a
    pair grid holds a hub h, 2 s_h >= need, so it lists the cells from the
    hubs and tests those alone (cut), and a kept cell takes its Gram entry
    from a product of its hub's column with the columns the hub pairs
    with, not from a panel (listed). The threshold is lowered by delta
    (need), once per block, a bound on the rounding of the scores, |y|
    and any float evaluation of the sum. With y = 0 nothing is cut.
    Breakpoint patterns keep the screen alone: a pattern's cut is a sum of
    positive parts over its pieces, which kept every one- and two-break
    pattern of the instances it was measured on."""

    def __init__(self, cols, y, limit: float, forced=None, box=None):
        self.gram = _GramPanels(cols)
        self.y = y
        self.corr = cols.T @ y
        self.yy = float(y @ y)
        self.limit = limit
        self.forced = forced
        self.scores = None
        if box is not None and self.yy > 0:
            c = self.corr / math.sqrt(self.yy)
            self.scores = np.maximum(box[0] * c, box[1] * c)

    @cached_property
    def base(self):
        """(g, b, rest, w) over every index after the forced vector's
        Cholesky step, if any; None if its pivot t @ t is singular."""
        diag, t = self.gram.diag, self.forced
        if t is None:
            return diag, self.corr, self.yy, []
        pivot = float(t @ t)
        if not pivot > _SUBSET_GUARD * pivot:
            return None
        root = math.sqrt(pivot)
        wf = (t @ self.gram.cols) / root
        cf = float(t @ self.y) / root
        return diag - wf * wf, self.corr - cf * wf, self.yy - cf * cf, [wf]

    def step(self, g, b, rest, w, fs):
        """One Cholesky step for each index f of the ascending fs, each on
        its own, from the state (g, b, rest, w) over every index: per f
        (leading axis), the projected g, b and rest, f's row wf of W, and
        whether f's pivot is above the guard. f's Gram row is read from
        the panel that holds it. Entries at f and the indices below it,
        and every entry of a guarded f, mean nothing."""
        pivot = g[fs]
        ok = pivot > _SUBSET_GUARD * self.gram.diag[fs]
        root = np.sqrt(np.where(ok, pivot, 1.0))
        wf = (self.gram.rows(fs) - sum(v[fs, None] * v for v in w)) / root[:, None]
        cf = b[fs] / root
        return g - wf * wf, b - cf[:, None] * wf, rest - cf * cf, wf, ok

    def project(self, prefix):
        """(g, b, rest, w, bad) over every index after the steps of F, of
        which only the entries after the prefix mean something; bad marks
        the guarded ones (None with F empty). None if a pivot of F is
        singular."""
        if self.base is None:
            return None
        g, b, rest, w = self.base
        for f in prefix:
            g, b, rest, wf, ok = self.step(g, b, rest, w, np.array([f]))
            if not ok[0]:
                return None
            g, b, rest, w = g[0], b[0], rest[0], w + [wf[0]]
        bad = ~(g > _SUBSET_GUARD * self.gram.diag) if w else None
        return g, b, rest, w, bad

    def __call__(self, blocks) -> np.ndarray:
        """The rows of the strata of a batch of blocks that pass, in no
        order."""
        rows, res_sq = self.bounded(blocks)
        return rows[np.sqrt(res_sq) <= self.limit]

    def bounded(self, blocks):
        """(rows, res_sq) of a batch: the strata that reach the
        least-squares bound, as rows of index tuples in no order, and their
        least-squares residual^2 (0 where guarded). Pair grids without the
        cut go to the screen, the whole batch at once (screened); every
        other block goes to listed, one block at a time."""
        if blocks[0][2] is not None and self.scores is None:
            return self.screened(blocks)
        rows, res = zip(*map(self.listed, blocks))
        return np.concatenate(rows), np.concatenate(res)

    def listed(self, block):
        """(rows, res_sq) of one block's strata that bounded lists: the
        rows that pass the cut, or with no cut every tuple of a block of
        size <= 1. The prefix is projected once if a row is left, and the
        one-column formula runs on each row's last index, or the
        two-column one on its last two. A pair's higher score is a hub's
        (cut), so its Gram entry is read from a product of hub columns and
        the columns they pair with: one for the pairs whose hub is the
        first index, one for those whose hub is the second."""
        prefix, firsts, ends = block
        rows = _block_rows(block) if self.scores is None else self.cut(block)
        state = self.project(prefix) if len(rows) else None
        if state is None:
            return _unbounded(rows)
        g, b, rest, w, bad = state
        if firsts is None:
            return rows, np.full(1, max(rest, 0.0))
        i, j = rows[:, len(prefix)], rows[:, -1]
        if ends is None:
            res = rest - np.divide(b[i]**2, g[i], out=np.zeros(len(i)), where=g[i] > 1e-300)
            np.maximum(res, 0.0, out=res)
        else:
            at_first = self.scores[i] >= self.scores[j]
            g01 = np.empty(len(rows))
            g01[at_first] = self.gram.entries(i[at_first], j[at_first])
            g01[~at_first] = self.gram.entries(j[~at_first], i[~at_first])
            if w:
                g01 -= sum(v[i] * v[j] for v in w)
            res = _ls2_residual_sq(g[i], g[j], g01, b[i], b[j], rest)
        if bad is not None:
            res[bad[i] | bad[j]] = 0.0
        return rows, res

    def need(self, prefix, size: int) -> float:
        """The least sum of scores that the indices after prefix of a
        support of `size` indices must reach: |y| - limit - delta minus the
        prefix's scores. Each score is within (1.5 d + 4) u |cols_j| of its
        exact value (u = eps / 2: a length-d dot product, |y| and the
        quotient), |y| within (d / 2 + 2) u |y|, and each evaluation of the
        sum against the threshold takes at most size + 3 roundings of terms
        no larger than |y| + limit + size max_j |cols_j|; delta is twice
        their first-order sum, rounded up."""
        d = self.gram.cols.shape[0]
        norm_y, top = math.sqrt(self.yy), math.sqrt(self.gram.diag.max(initial=0.0))
        eps = np.finfo(np.float64).eps
        delta = (2 * d + size + 8) * eps * (size * top + norm_y + self.limit)
        return norm_y - self.limit - delta - float(self.scores[list(prefix)].sum())

    def cut(self, block):
        """The rows of a block's tuples whose scores after the prefix reach
        need: the empty tuple if need <= 0, the single indices i with s_i
        >= need, and on a pair grid the cells (i, j) with s_i + s_j >= need
        in float arithmetic.

        Such a cell holds a hub, an index h with 2 s_h >= need: doubling
        is exact, and rounding to nearest is monotone, so the float sum is
        at most 2 max(s_i, s_j). The grid's cells are listed from its hubs,
        with one boolean pass per hub: each hub that is a first index over
        its seconds, then each hub over the first indices before it that
        are not hubs. The same float test decides each listed cell, so the
        kept cells are exactly those of the test on every cell, each listed
        once."""
        prefix, firsts, ends = block
        size = len(prefix) + (0 if firsts is None else 1 if ends is None else 2)
        need = self.need(prefix, size)
        if firsts is None:
            return _rows(prefix)[: int(need <= 0.0)]
        if ends is None:
            return _rows(prefix, firsts[self.scores[firsts] >= need])
        # index lo + u has score sc[u] and, for u < f, end lo + stop[u]
        lo, f = int(firsts[0]), len(firsts)
        sc = self.scores[lo : ends[0]]
        stop = ends - lo
        u = np.arange(len(sc))
        hub = 2 * sc >= need
        hubs = np.flatnonzero(hub)
        # hubs that are first indices, with their seconds
        tops = hubs[hubs < f]
        ok = sc[tops, None] + sc >= need
        ok &= u > tops[:, None]
        ok &= u < stop[tops, None]
        at_top, v = np.nonzero(ok)
        # hubs as second indices, with the first indices before them that
        # are not hubs
        ok = sc[:f] + sc[hubs, None] >= need
        ok &= ~hub[:f]
        ok &= u[:f] < hubs[:, None]
        ok &= stop > hubs[:, None]
        at_hub, t = np.nonzero(ok)
        return _rows(prefix, lo + np.concatenate((tops[at_top], t)),
                     lo + np.concatenate((v, hubs[at_hub])))

    def screened(self, blocks):
        """(rows, res_sq) of a batch of pair grids whose prefixes share all
        but their last index: the strata that pass a cheap screen, in no
        order, and their least-squares residual^2.

        The shared part of the prefixes is projected once (project), and
        their last indices take one batched step, as the rows of (P, N)
        arrays. Each block's first indices are cut at panel edges, and the
        batch's grids are then screened a Gram panel at a time, for every
        prefix at once: one (P, I, J) broadcast over the panel's rows i
        that are first indices of the batch and the second indices j after
        them, in which prefix p keeps the cells of its own blocks, at most
        one span of rows per prefix, as its blocks lie in distinct windows.
        With r_i = rest - b_i^2 / g_i, e = b_j - g01 b_i / g_i and h = g_j -
        g01^2 / g_i, the exact residual^2 is r_i - e^2 / h. A cell with
        e^2 < c_i (h - _SCREEN_TAU g_j), c_i = r_i - limit^2, is dropped
        without it; every cell of a row with c_i <= _SCREEN_TAU rest and of
        a guarded row or column is kept. Each element takes the operations,
        in the order, of one block's grid on its own, and the Gram entries
        come from the panel that holds the row, so the exact formula gives
        the bits of the whole grid's. A kept cell's row is its prefix,
        first and second index."""
        state = self.project(blocks[0][0][:-1])
        if state is None:
            return _unbounded(np.concatenate([_block_rows(blk) for blk in blocks]))
        g, b, rest, shared, bad = state
        # the batch's prefixes in order, and each block's among them
        index = {}
        which = [index.setdefault(blk[0], len(index)) for blk in blocks]
        prefixes = np.array(list(index), dtype=np.int64)
        width = prefixes.shape[1] + 2
        own = []
        if width > 2:
            g, b, rest, wf, ok = self.step(g, b, rest, shared, prefixes[:, -1])
            own = [wf]
            bad = ~(g > _SUBSET_GUARD * self.gram.diag)
        else:
            g, b, rest, ok = g[None], b[None], np.array([rest]), [True]
            bad = None if bad is None else bad[None]
        parts = [_unbounded(_block_rows(blk)) for x, blk in zip(which, blocks) if not ok[x]]
        parts.append((np.zeros((0, width), dtype=np.int64), np.zeros(0)))
        # per panel, a span (prefix, lo, hi, ends) for each block's first
        # indices lo .. hi - 1 that it holds, with their ends
        panels = {}
        for x, (_, f, e) in zip(which, blocks):
            f0, stop = int(f[0]), int(f[-1]) + 1
            for p in range(f0 - f0 % _PANEL_ROWS, stop, _PANEL_ROWS):
                lo, hi = max(p, f0), min(p + _PANEL_ROWS, stop)
                panels.setdefault(p, []).append((x, lo, hi, e[lo - f0 : hi - f0]))

        for p, spans in panels.items():
            # prefixes a .. z - 1 have rows in this panel, each its own
            # span's rows of i_lo .. i_hi - 1
            xs, los, his, es = zip(*spans)
            a, z, i_lo, i_hi = xs[0], xs[-1] + 1, min(los), max(his)
            j_lo, j_hi = i_lo + 1, max(int(e[0]) for e in es)
            # per prefix and row, the end of its second indices; 0 on the
            # rows of the broadcast that are not a live prefix's own, which
            # mean nothing
            ends = np.zeros((z - a, i_hi - i_lo), dtype=np.int64)
            for x, lo, hi, e in spans:
                if ok[x]:
                    ends[x - a, lo - i_lo : hi - i_lo] = e
            mine = ends > 0

            at, i, j = slice(a, z), slice(i_lo, i_hi), slice(j_lo, j_hi)
            gram = self.gram.panel(p)[i_lo - p : i_hi - p, j_lo - p : j_hi - p]
            # the projected entries G - W^T W, with the terms of W summed in
            # its order (shared rows, then the prefix's own), in one buffer
            if own:
                g01 = own[0][at, i, None] * own[0][at, None, j]
                np.add(sum(v[i, None] * v[None, j] for v in shared), g01, out=g01)
                np.subtract(gram, g01, out=g01)
            else:
                g01 = (gram - sum(v[i, None] * v[None, j] for v in shared))[None]

            gi, bi, ri = g[at, i], b[at, i], rest[at, None]
            gj, bj = g[at, None, j], b[at, None, j]

            screen = (gi > 0) & mine
            inv = np.divide(1.0, gi, out=np.zeros(gi.shape), where=screen)
            ratio = bi * inv
            c = ri - bi * ratio - self.limit * self.limit
            screen &= c > _SCREEN_TAU * ri
            h_room = gj - _SCREEN_TAU * gj
            if bad is not None:
                screen &= ~bad[at, i]
                h_room[bad[at, None, j]] = 0.0
            off = ~screen
            c[off] = inv[off] = ratio[off] = 0.0
            e_sq = g01 * ratio[:, :, None]
            np.subtract(bj, e_sq, out=e_sq)
            e_sq *= e_sq
            room = g01 * g01
            room *= inv[:, :, None]
            np.subtract(h_room, room, out=room)
            room *= c[:, :, None]
            keep = np.less(e_sq, room)
            np.logical_not(keep, out=keep)
            keep &= mine[:, :, None]
            r, s = np.divmod(np.flatnonzero(keep), j_hi - j_lo)
            x, r = np.divmod(r, i_hi - i_lo)

            # cells that are tuples: first < second (s >= r, as j_lo = i_lo
            # + 1) < end
            cell = (s >= r) & (j_lo + s < ends[x, r])
            x, r, s = x[cell], r[cell], s[cell]
            g01 = g01[x, r, s]
            del e_sq, room, keep  # before the next panel's are made
            if not len(g01):
                continue
            res = _ls2_residual_sq(gi[x, r], gj[x, 0, s], g01, bi[x, r], bj[x, 0, s], ri[x, 0])
            x, r, s = a + x, i_lo + r, j_lo + s
            if bad is not None:
                res[bad[x, r] | bad[x, s]] = 0.0
            parts.append((_rows(prefixes[x], r, s), res))
        rows, res = zip(*parts)
        return np.concatenate(rows), np.concatenate(res)

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
        self.ens = ens

    @cached_property
    def support_bound(self) -> _SubsetBound:
        """The prune of sparse supports, for every size: the least-squares
        bound and the positivity cut, since values lie in [2^-m, 1 - 2^-m]."""
        box = 2.0 ** -self.m, 1.0 - 2.0 ** -self.m
        return _SubsetBound(self.a, self.y, math.sqrt(_allowed_sq(self.eta)), box=box)

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
        self, cols, dl, lo, bits, samples, code, slack=0.0, blocks=None
    ) -> None:
        """Offer the grid points of one stratum that satisfy the constraint
        and can still beat or tie the incumbent.

        The points are coordinate vectors u in [lo, 2^bits - 1]^D, and
        cols holds the stratum's columns scaled to that grid. samples(us)
        maps an (L, D) batch of points to the (L, n) integer sample
        numerators of their vectors (codecs.pp_sampler's for breakpoint
        patterns), and code(u, vec) gives one point's
        codeword, built only if the offer gets that far. blocks are the
        (start, end) coordinate slices of a piecewise stratum's pieces,
        whose coefficient numerators sum to less than 2^bits.

        A point's residual is |A x - y| of its decoded samples x, for
        every stratum. The walk distance, plus this stratum's base_sq, is
        the squared distance of cols u from y; floored samples (piecewise
        degree >= 1, slack = pp_slack) can be up to slack further from y
        than that. So the walk radius is _allowed_sq(eta, slack) - base_sq,
        and once a point is offered _allowed_sq(r, slack) - base_sq for the
        incumbent's residual r: a point that ties the incumbent stays
        inside it, and offer decides the tie by stream.

        The walk scores its two innermost levels in batches and hands
        accept only the leaves that can change the search: while a probe is
        attached, every feasible leaf; otherwise every feasible leaf up
        to this stratum's first one, which tightens the radius even when it
        loses to the incumbent, and after it only leaves that can beat or
        tie the incumbent residual. Batch residuals can differ from
        accept's in the last bits, so they are compared with res_margin to
        spare, and accept decides on its own residual, the one a
        brute-force enumeration computes. A stratum with no columns has
        the one point u = (), which accept gets without a walk; like any
        stratum, it was charged to the node cap by its level, and the
        point is not charged."""
        r_mat, qty, base_sq = _qr_rows(cols, self.y)
        base_sq = float(base_sq)
        radius_sq = _allowed_sq(self.eta, slack) - base_sq
        if radius_sq < 0:
            return
        margin = self.res_margin
        # more coordinates than rows: R is padded square with zero rows,
        # whose levels walk the whole box (zero pivot path)
        pad = cols.shape[1] - len(r_mat)
        if pad > 0:
            r_mat = np.vstack((r_mat, np.zeros((pad, cols.shape[1]))))
            qty = np.concatenate((qty, np.zeros(pad)))

        def score(us, dist_sq):
            x = np.ldexp(samples(us).astype(np.float64), -self.m)
            return np.linalg.norm(x @ self.a.T - self.y, axis=1)

        def accept(u, dist_sq):
            nums = samples(u[None])[0]
            x = np.ldexp(nums.astype(np.float64), -self.m)
            res = float(np.linalg.norm(self.a @ x - self.y))
            if res > self.eta:
                return math.inf, math.inf
            vec = QuantizedVector(tuple(nums.tolist()), self.m)
            if self.probe is not None:
                self.probe.observe(vec.to_floats())
            self.incumbent.offer(dl, res, lambda: code(u, vec), vec)
            # this stratum now holds the incumbent length, so only points
            # that can still beat or tie its residual matter
            radius_bound = _allowed_sq(self.incumbent.residual, slack) - base_sq
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
        length, then of the tuples (generation order), up to the first one
        longer than the incumbent. Returns whether any stratum was within
        the incumbent's length: when none is, no larger size of the same
        family can be either.

        Only tuples within the incumbent's length are generated, as blocks
        of _budgeted_blocks, each one prefix's first indices in one window.
        Each block is charged to the node cap as it is generated, in
        generation order, and bound(batch) returns the rows that pass its
        prunes of a batch of consecutive blocks (_batches), in any order,
        after all of them are charged; the whole level is charged before
        any stratum is offered. Only those rows are priced and sorted, once
        for the whole level, by one lexsort of (length, tuple), so memory
        is a batch plus the survivors, and offer(row, dl) gets them in that
        order. The order is one of integers: a bound whose arithmetic
        changes moves it only where it keeps other strata."""
        budget_left = int(min(self.incumbent.dl - base, costs.sum(initial=0)))

        def charged():
            for block in _budgeted_blocks(costs, size, budget_left):
                self.budget.add_strata(_block_size(block))
                yield block

        rows = [bound(batch) for batch in _batches(charged())]
        if not rows:
            return False
        rows = np.concatenate(rows)
        dls = base + costs[rows].sum(axis=1)
        order = np.lexsort((*rows.T[::-1], dls))
        for i, dl in zip(order.tolist(), dls[order].tolist()):
            # the incumbent only shrinks, so every later stratum is too long
            if dl > self.incumbent.dl:
                break
            offer(rows[i], dl)
        return True

    # -- the search table ------------------------------------------------

    def families(self):
        """The families of strata, in search order, each as (costs, dl,
        sizes, bound, offer): its level of `size` indices, for each size
        in order, is run_level(costs, size, dl(size), bound, offer), and
        the family ends at its first level with no stratum in budget,
        since lengths only grow with the size.

        Supports of up to two indices come first, then each in-scope
        degree's breakpoint patterns, then supports of three or more
        indices, then the literal block: structured dense signals set an
        incumbent before the k-combo space grows combinatorial. Order
        never changes the winner; any stratum skipped has length strictly
        above the final incumbent. The literal block is a family with no
        indices: one level of size 0, whose one row the bound keeps.

        A row is made when the search reaches it, and no bound reads
        sigma_max before it runs, so a sparse-only solve never computes
        it."""
        max_k = self.config.max_sparse_k
        max_k = self.n if max_k is None else min(max_k, self.n)
        sparse = self.pos_costs, self.sparse_dl
        yield *sparse, range(min(max_k, 2) + 1), self.support_bound, self.offer_sparse
        for n_deg in _pp_degrees(self.config, self.n):
            yield self.pp_family(n_deg)
        yield *sparse, range(3, max_k + 1), self.support_bound, self.offer_sparse
        if self.config.include_literal:
            literal_dl = CODEC_HEADER_BITS + self.n * self.m
            yield (np.zeros(0, dtype=np.int64), lambda size: literal_dl, range(1),
                   lambda batch: _rows(()), self.offer_literal)

    # -- sparse strata --------------------------------------------------

    def sparse_dl(self, k: int) -> int:
        """Code length of a k-sparse codeword without its position costs."""
        return CODEC_HEADER_BITS + uint_code_len(self.n) + uint_code_len(k + 1) + k * self.m

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
        every break count: columns T[1] .. T[n - 1] of T = prefix_table(0),
        so that break b is index b - 1, and the edge T[n] forced. A pattern
        with breaks b_1 .. b_q spans the same space as T[b_1], .., T[b_q]
        and T[n], so this bounds it without building its columns."""
        tab = self.prefix_table(0)
        limit = math.sqrt(_allowed_sq(self.eta))
        return _SubsetBound(tab[1:-1].T, self.y, limit, tab[-1])

    def pp_family(self, n_deg):
        """The search table's row of one degree's breakpoint patterns:
        break b is index b - 1 and costs uint_code_len(b), and a pattern of
        q breaks has q + 1 pieces of n_deg + 1 coefficients of m' bits."""
        m_prime = coeff_resolution(n_deg, self.m)
        head = CODEC_HEADER_BITS + uint_code_len(self.n) + uint_code_len(n_deg + 1)

        def dl(q):
            return head + uint_code_len(q + 1) + (q + 1) * (n_deg + 1) * m_prime

        def offer(row, bits):
            self.offer_pp(n_deg, row + 1, bits, m_prime)

        breaks = range(min(self.config.pp_max_breaks, self.n - 1) + 1)
        return self.pos_costs[:-1], dl, breaks, self.pp_bound(n_deg, m_prime), offer

    def pp_bound(self, n_deg, m_prime):
        """The least-squares prune of one degree's breakpoint patterns, for
        run_level: a batch of blocks of break indices (break b is index
        b - 1) to the patterns that pass. Degree 0 is pattern_bound, with
        T[n] forced. Higher degrees take pp_residual_sq, the base_sq that
        walk_stratum skips a stratum on, and keep a pattern exactly when
        walk_stratum's radius _allowed_sq(eta, pp_slack) - base_sq is at
        least 0: their samples are floored, so the prune carries
        pp_slack."""
        if n_deg == 0:
            return self.pattern_bound

        def bound(blocks):
            rows = np.concatenate([_block_rows(block) for block in blocks])
            res_sq = self.pp_residual_sq(n_deg, rows, m_prime)
            return rows[res_sq <= _allowed_sq(self.eta, self.pp_slack)]

        return bound

    def pp_residual_sq(self, n_deg, rows, m_prime) -> np.ndarray:
        """base_sq of _qr_rows for each breakpoint pattern of one degree >=
        1 (rows of break indices), on the stacked columns of at most
        _PP_CHUNK patterns at a time: the bits walk_stratum reads from the
        pattern's own columns."""
        res_sq = np.empty(len(rows))
        for lo in range(0, len(rows), _PP_CHUNK):
            cols = self.pp_columns(n_deg, rows[lo : lo + _PP_CHUNK] + 1, m_prime)
            res_sq[lo : lo + _PP_CHUNK] = _qr_rows(cols, self.y)[2]
        return res_sq

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
            rows = u.reshape(-1, width).tolist()
            return _encode_pp_numerators(breaks, rows, n_deg, self.n, self.m)

        # a one-coefficient piece's sum is its value, which the box keeps
        # below 2^m_prime already
        blocks = [(s, s + width) for s in range(0, cols.shape[1], width)] if n_deg else None
        samples = pp_sampler(breaks, n_deg, self.n, self.m)
        slack = self.pp_slack if n_deg else 0.0
        self.walk_stratum(cols, dl, 0, m_prime, samples, code, slack, blocks)

    # -- literal stratum -------------------------------------------------

    def offer_literal(self, row, dl) -> None:
        """Walk the literal block: every sample's numerator in 0 .. 2^m - 1."""
        cols = self.a * 2.0 ** (-self.m)
        self.walk_stratum(
            cols, dl, 0, self.m, lambda us: us, lambda u, vec: encode_literal(vec)
        )

    # -- putting it together ----------------------------------------------

    def run(self) -> RecoveryResult:
        for costs, dl, sizes, bound, offer in self.families():
            for size in sizes:
                if not self.run_level(costs, size, dl(size), bound, offer):
                    break
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

    y must be finite and eta a number >= 0. The default eta is sigma_max
    * sqrt(n * 2^(1-2m)), large enough that the m-bit truncation of any
    signal in [0,1]^n consistent with y stays feasible, so the program
    always has the truncated truth to fall back on when y = A x_o exactly.

    Every grid the search may walk must fit the walk's int64 arithmetic:
    a grid of `bits` bits (m for sparse and literal strata, m' =
    coeff_resolution(N, m) for the breakpoint patterns of each degree N in
    scope) has values u <= 2^bits - 1, a level's range ends first <=
    2^bits and last, a piece's coefficient cap 2^bits with the room
    block_cap - 1 - used below it, and sample numerators below 2^m. So
    2^bits must be at most 2^63 - 1: bits <= 62. m' grows with N, so the
    highest degree in scope, or m without breakpoint patterns, decides.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    deg = max(_pp_degrees(config, ens.n), default=0)
    if 1 << coeff_resolution(deg, m) > np.iinfo(np.int64).max:
        raise ValueError(f"m = {m} gives grids past the 62 bits the walk holds in int64")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (ens.d,):
        raise ValueError(f"y must have shape ({ens.d},)")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if eta is None:
        eta = ens.sigma_max * quantization_gap_bound(ens.n, m)
    if not eta >= 0:
        raise ValueError("eta must be a number >= 0")
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
