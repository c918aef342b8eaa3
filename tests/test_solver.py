"""Search correctness against brute-force enumeration, plus the error
bound helpers and the resource/infeasible contract."""

import decimal
import gc
import itertools
import math
import time
import tracemalloc
import weakref
from dataclasses import replace
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcpursuit.codecs import (
    CODEC_HEADER_BITS,
    CodedSignal,
    coeff_resolution,
    decode_any,
    encode_sparse,
    pp_sample_numerators,
    uint_code_len,
)
from mcpursuit.measure import MeasurementEnsemble, sample_ensemble
from mcpursuit.quantize import quantization_gap_bound, quantize_vector
from mcpursuit.rng import derive_seed, make_generator
from mcpursuit.signals import gen_sparse
from mcpursuit import solver
from mcpursuit.solver import (
    ProbeStats,
    SolverConfig,
    SolverResourceError,
    _batches,
    _block_rows,
    _block_size,
    _budgeted_blocks,
    _ls2_residual_sq,
    _qr_rows,
    _Search,
    _SubsetBound,
    _allowed_sq,
    corollary_error_bound,
    corollary_failure_prob,
    dl_budget_bits,
    mcp_exact,
    mcp_tolerant,
    predicted_error_bound,
)

from oracle_enum import assert_matches_oracle, brute_force_argmin
from subset_reference import panel_gram, reference_bound, reference_inputs
from walk_reference import reference_walk, zigzag


# ---------------------------------------------------------------------------
# brute-force agreement


def _draw_y(kind, ens, m, rng):
    """One measurement vector plus the eta that makes the case interesting."""
    n, d = ens.n, ens.d
    a = np.asarray(ens.matrix)
    if kind == "sparse-exact":
        xq = quantize_vector(gen_sparse(n, min(2, n), rng), m)
        return a @ np.array(xq.to_floats()), 1e-6
    if kind == "piecewise":
        x = np.where(np.arange(n) < n // 2, 0.25, 0.75)
        return a @ x, 1e-6
    if kind == "noisy":
        xq = quantize_vector(gen_sparse(n, min(2, n), rng), m)
        y = a @ np.array(xq.to_floats()) + 0.05 * rng.normal(size=d)
        return y, 0.4 * float(np.linalg.norm(y))
    if kind == "random":
        y = rng.normal(size=d)
        return y, 0.6 * float(np.linalg.norm(y))
    if kind == "barely":
        y = rng.normal(size=d)
        return y, 0.25 * float(np.linalg.norm(y))
    if kind == "loose":
        # the empty support is feasible, and no other codeword is as short
        y = rng.normal(size=d)
        return y, 1.01 * float(np.linalg.norm(y))
    raise AssertionError(kind)


SPARSE_SCOPE = SolverConfig(max_sparse_k=3, pp_max_degree=0, pp_max_breaks=2)
PP_SCOPE = SolverConfig(max_sparse_k=2, pp_max_degree=1, pp_max_breaks=1)
KINDS = ("sparse-exact", "piecewise", "noisy", "random", "barely")


@pytest.mark.parametrize("idx,n,m", [
    (0, 6, 2), (1, 6, 3), (2, 8, 2), (3, 8, 3),
    (4, 10, 2), (5, 12, 2), (6, 12, 3), (7, 5, 2),
])
def test_matches_brute_force_sparse_scope(idx, n, m):
    d = max(3, n // 2)
    ens = sample_ensemble(n, d, derive_seed(900, "bf", idx))
    rng = make_generator(900, "bf-draw", idx)
    for kind in KINDS:
        y, eta = _draw_y(kind, ens, m, rng)
        got = mcp_exact(ens, y, m, eta, SPARSE_SCOPE)
        want = brute_force_argmin(ens, y, m, eta, SPARSE_SCOPE)
        assert_matches_oracle(got, want)


@pytest.mark.parametrize("idx,n", [(0, 6), (1, 8), (2, 10)])
def test_matches_brute_force_pp_scope(idx, n):
    m, d = 2, max(3, n // 2)
    ens = sample_ensemble(n, d, derive_seed(901, "bf-pp", idx))
    rng = make_generator(901, "bf-pp-draw", idx)
    for kind in KINDS:
        y, eta = _draw_y(kind, ens, m, rng)
        got = mcp_exact(ens, y, m, eta, PP_SCOPE)
        want = brute_force_argmin(ens, y, m, eta, PP_SCOPE)
        assert_matches_oracle(got, want)


def _three_break_signal(n, m, rng):
    """A piecewise-constant grid vector with three breaks, nonzero pieces
    and distinct neighbouring pieces: no sparse codeword of size <= 2 and
    no pattern of fewer breaks can hold it."""
    breaks = np.sort(rng.choice(np.arange(1, n), size=3, replace=False))
    top = (1 << m) - 1
    vals = [int(rng.integers(1, top + 1))]
    for _ in range(3):
        vals.append(int(rng.choice([v for v in range(1, top + 1) if v != vals[-1]])))
    return np.repeat(np.array(vals) / (1 << m), np.diff([0, *breaks, n]))


def _draw_structured(signal, ens, m, rng, kind):
    """y = A x for a grid signal x, exact or with noise, plus its eta."""
    a = np.asarray(ens.matrix)
    x = signal(ens.n, m, rng)
    if kind == "exact":
        return a @ x, 1e-6, x
    noise = 0.05 * rng.normal(size=ens.d)
    return a @ x + noise, 1.5 * float(np.linalg.norm(noise)), x


def _sparse_four_signal(n, m, rng):
    return np.array(quantize_vector(gen_sparse(n, 4, rng), m).to_floats())


PP3_SCOPE = SolverConfig(max_sparse_k=2, pp_max_degree=0, pp_max_breaks=3)
SPARSE4_SCOPE = SolverConfig(max_sparse_k=4, include_pp=False)


@pytest.mark.parametrize("scope,signal,n", [
    (PP3_SCOPE, _three_break_signal, 8),
    (PP3_SCOPE, _three_break_signal, 10),
    (SPARSE4_SCOPE, _sparse_four_signal, 10),
], ids=["pp3-8", "pp3-10", "sparse4-10"])
def test_matches_brute_force_projected_bound(scope, signal, n):
    # Three-break patterns and four-column supports are the strata whose
    # least-squares bound projects out a shared prefix (and, for patterns,
    # the forced edge row n). The exact draws only have a codeword of
    # that size, so a bound that prunes them wrongly misses the answer.
    m, d = 2, 6
    ens = sample_ensemble(n, d, derive_seed(921, "bf-proj", signal.__name__, n))
    rng = make_generator(921, "bf-proj-draw", signal.__name__, n)
    for kind in ("exact", "noisy"):
        y, eta, x = _draw_structured(signal, ens, m, rng, kind)
        got = mcp_exact(ens, y, m, eta, scope)
        want = brute_force_argmin(ens, y, m, eta, scope)
        if kind == "exact":
            np.testing.assert_array_equal(want.vector.to_floats(), x)
        assert_matches_oracle(got, want)


def test_matches_brute_force_with_literal():
    n, m, d = 4, 2, 3
    cfg = SolverConfig(max_sparse_k=4, include_pp=False, include_literal=True)
    ens = sample_ensemble(n, d, derive_seed(902, "bf-lit"))
    rng = make_generator(902, "bf-lit-draw")
    for kind in ("random", "barely", "sparse-exact"):
        y, eta = _draw_y(kind, ens, m, rng)
        got = mcp_exact(ens, y, m, eta, cfg)
        want = brute_force_argmin(ens, y, m, eta, cfg)
        assert_matches_oracle(got, want)


def test_matches_brute_force_degenerate_sizes():
    for idx, (n, m) in enumerate([(1, 1), (2, 1), (3, 1), (2, 2)]):
        d = 2
        ens = sample_ensemble(n, d, derive_seed(903, "bf-tiny", idx))
        rng = make_generator(903, "bf-tiny-draw", idx)
        cfg = SolverConfig(max_sparse_k=None, pp_max_degree=1, pp_max_breaks=1)
        for kind in ("random", "barely", "loose"):
            y, eta = _draw_y(kind, ens, m, rng)
            got = mcp_exact(ens, y, m, eta, cfg)
            want = brute_force_argmin(ens, y, m, eta, cfg)
            assert_matches_oracle(got, want)


# ---------------------------------------------------------------------------
# budgeted stratum generator


@st.composite
def _budgeted_cases(draw):
    costs = sorted(draw(st.lists(st.integers(0, 12), max_size=8)))
    total = sum(costs)
    budget = draw(st.sampled_from([-1, 0, total + 1]) | st.integers(0, total))
    panels = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    return costs, draw(st.integers(0, 4)), budget, panels


@given(case=_budgeted_cases())
@settings(max_examples=300, deadline=None)
def test_budgeted_tuples_match_filtered_combinations(case):
    costs, size, budget, (panel_rows, cache) = case
    want = [
        t for t in itertools.combinations(range(len(costs)), size)
        if sum(costs[i] for i in t) <= budget
    ]
    with mock.patch.object(solver, "_PANEL_ROWS", panel_rows), \
            mock.patch.object(solver, "_PANEL_CACHE", cache):
        blocks = list(_budgeted_blocks(np.array(costs, dtype=np.int64), size, budget))
    rows = [_block_rows(b) for b in blocks]
    window = panel_rows * cache
    if size < 2:
        # the empty tuple, or every single index that fits, is one block
        assert len(blocks) <= 1
    for (prefix, firsts, _), r in zip(blocks, rows):
        assert len(prefix) == max(size - 2, 0)
        assert firsts is None or 0 < len(firsts)
        # a block's first indices lie in one window of panel_rows * cache
        assert size < 2 or firsts[0] // window == firsts[-1] // window
        assert r.dtype == np.int64 and r.shape[1] == size
        assert 0 < len(r) == _block_size((prefix, firsts, _))
    # and a prefix's next block starts at the next window: one block per
    # window its first indices touch
    for (prefix, firsts, _), (after, nxt, _) in zip(blocks, blocks[1:]):
        if prefix == after:
            assert nxt[0] == firsts[-1] + 1 and nxt[0] % window == 0
    assert [tuple(row) for r in rows for row in r.tolist()] == want


def test_budgeted_tuples_reject_decreasing_costs():
    with pytest.raises(ValueError):
        next(_budgeted_blocks(np.array([1, 3, 2]), 2, 10))


def test_budgeted_tuples_stop_at_first_unaffordable_index():
    # only the first 16 of 2^20 positions fit: the scan must not visit
    # the rest once per prefix
    costs = np.repeat(np.array([1, 100], dtype=np.int64), [16, (1 << 20) - 16])
    start = time.perf_counter()
    rows = np.concatenate([_block_rows(b) for b in _budgeted_blocks(costs, 3, 3)])
    elapsed = time.perf_counter() - start
    assert len(rows) == math.comb(16, 3) == 560
    assert rows.max() == 15
    assert elapsed < 5.0


def _three_break_instance():
    # The samples at 2, 15 and 31 sit halfway between their neighbours'
    # piece values, so several three-break patterns near (2, 15, 31) pass
    # the bound: (0, 3, 15, 31) at 64 bits, and longer ones that come
    # first in generation order. The 16,215 three-break strata are sorted
    # by length once for the whole level, so the shortest is walked first
    # and its one point leaves the rest too long; an order not led by
    # length, or one sorted in separate parts of the level, walks them too
    # and changes points_tested.
    n, m, d = 48, 6, 16
    v = np.array([8, 56, 16, 48]) / 64
    x = np.repeat(v, [2, 14, 16, 16])
    x[2], x[15], x[31] = (v[:-1] + v[1:]) / 2
    ens = sample_ensemble(n, d, derive_seed(919, "pinned", d, 0))
    cfg = SolverConfig(max_sparse_k=2, pp_max_degree=0, pp_max_breaks=3)
    return ens, x, m, 0.5, cfg


def _ramp_instance():
    # A one-piece line: the winner is degree 1, whose samples are floored,
    # so the walk radius and every tightening carry the slack. Its walk
    # tests 241 points; tightening without the slack tests 5, widening by
    # twice the slack 257.
    n, m, d = 16, 4, 8
    x = 0.2 + 0.5 * np.arange(n) / n
    ens = sample_ensemble(n, d, derive_seed(904, "ramp", d, 0))
    return ens, x, m, 0.1, PP_SCOPE


def _literal_instance():
    # A dense grid vector with the literal block in scope: the literal
    # walk tests 18 points, and 4,719 without tightening.
    n, m, d = 8, 3, 6
    ens = sample_ensemble(n, d, derive_seed(930, "lit", d, 0))
    xq = quantize_vector(make_generator(930, "lit-draw").uniform(0, 1, size=n), m)
    cfg = SolverConfig(max_sparse_k=2, pp_max_degree=0, pp_max_breaks=1,
                       include_literal=True)
    return ens, np.array(xq.to_floats()), m, 0.2, cfg


def _one_sample_piece_instance():
    # A line after a one-sample first piece. The winner breaks at 1, where
    # that piece's slope column is a_0 * 0 / n = 0: the walk level of the
    # slope has no pivot, walks its whole box and is charged as walk
    # steps (1,984 of them).
    n, m, d = 8, 3, 6
    x = 0.2 + 0.5 * np.arange(n) / n
    x[0] = 0.9
    ens = sample_ensemble(n, d, derive_seed(931, "free-level", d, 0))
    return ens, x, m, 0.2, PP_SCOPE


def _unmeasured_first_instance():
    # A dense grid vector whose first coordinate A does not see. The
    # literal walk's innermost level then has no pivot and walks its whole
    # box, as do the two levels past d.
    n, m, d = 6, 2, 4
    base = sample_ensemble(n, d, derive_seed(932, "zero-column", d, 0))
    a = base.matrix.copy()
    a[:, 0] = 0.0
    xq = quantize_vector(make_generator(932, "zero-column-draw").uniform(0, 1, size=n), m)
    cfg = SolverConfig(max_sparse_k=0, include_pp=False, include_literal=True)
    return MeasurementEnsemble(a, base.key), np.array(xq.to_floats()), m, 0.2, cfg


def test_free_innermost_walk_matches_brute_force():
    # |A x - y| is blind to the first coordinate, so four literal points,
    # one per first value, tie at residual 0.0: the earliest stream wins,
    # as in the oracle.
    ens, x, m, eta, cfg = _unmeasured_first_instance()
    y = np.asarray(ens.matrix) @ x
    got = mcp_exact(ens, y, m, eta, cfg)
    assert got.residual == 0.0
    assert_matches_oracle(got, brute_force_argmin(ens, y, m, eta, cfg))


def _solve(instance, probe=False, **config):
    """Solve instance() = (ens, x, m, eta, cfg) at y = A x, with the given
    config fields replaced; probe attaches the m-bit truncation of x as
    the probe reference."""
    ens, x, m, eta, cfg = instance()
    ref = quantize_vector(x, m) if probe else None
    return mcp_exact(ens, np.asarray(ens.matrix) @ x, m, eta, replace(cfg, **config), ref)


def _assert_pinned(instance, pinned, probe=False):
    # The oracle tests compare answers only; these counters also move when
    # the offer order, the walk radius or its tightening changes.
    res = _solve(instance, probe)
    assert (res.dl_bits, res.stream, res.strata_examined, res.points_tested) == pinned
    return res


def test_three_break_offer_order_is_pinned():
    # Values recorded before the generator was vectorized, apart from the
    # points: 1 since strata are sorted once per level, 4 when they were
    # sorted per chunk of 2048 patterns.
    _assert_pinned(_three_break_instance, (
        64, "0010011010000101100010100100111001011111001011110110001111101100",
        18521, 1))


@pytest.mark.parametrize("instance,pinned", [
    (_ramp_instance, (27, "001001010000010010011110000", 154, 241)),
    (_literal_instance, (27, "010101111101110111000000000", 46, 18)),
], ids=["degree1", "literal"])
def test_offer_order_is_pinned(instance, pinned):
    # Values recorded before the stratum walkers were merged.
    _assert_pinned(instance, pinned)


def _loose_sparse_instance():
    # Supports up to k=3 at an eta loose enough that 55 three-column
    # supports pass the least-squares bound up to the winner's length, up
    # to 16 of them at one length; the positivity cut leaves three at the
    # winner's length and one past it.
    n, m, d = 12, 2, 4
    ens = sample_ensemble(n, d, derive_seed(933, "loose", d, 1))
    x = make_generator(933, "loose-draw", 1).uniform(0, 1, size=n)
    eta = 0.3 * float(np.linalg.norm(np.asarray(ens.matrix) @ x))
    return ens, x, m, eta, SolverConfig(max_sparse_k=3, include_pp=False)


def _offer_sequence(instance, monkeypatch):
    """Solve instance and return every (stratum, dl) that reaches
    offer_pp ((degree, *breaks)) or offer_sparse (the support)."""
    offers, offer_pp, offer_sparse = [], _Search.offer_pp, _Search.offer_sparse

    def record_pp(self, n_deg, breaks, dl, m_prime):
        offers.append(((n_deg, *breaks.tolist()), dl))
        return offer_pp(self, n_deg, breaks, dl, m_prime)

    def record_sparse(self, support, dl):
        offers.append((tuple(support.tolist()), dl))
        return offer_sparse(self, support, dl)

    monkeypatch.setattr(_Search, "offer_pp", record_pp)
    monkeypatch.setattr(_Search, "offer_sparse", record_sparse)
    return _solve(instance), offers


@pytest.mark.parametrize("instance,pinned", [
    (_three_break_instance, [((0, 3, 15, 31), 64)]),
    (_ramp_instance, [((1,), 27)]),
    (_loose_sparse_instance, [
        ((1, 3, 7), 39), ((1, 4, 7), 39), ((2, 6, 7), 39), ((3, 4, 7), 40),
    ]),
], ids=["three-break", "degree1", "loose-sparse"])
def test_offer_sequence_is_pinned(instance, pinned, monkeypatch):
    # Values recorded before only the strata that pass the bound were
    # priced and sorted; the three-break one since strata are sorted once
    # per level; the loose-sparse one since supports pass the positivity
    # cut too (the least-squares bound alone offered 58). Strata of one
    # length are offered in lexicographic order of their index tuples.
    res, offers = _offer_sequence(instance, monkeypatch)
    assert res.status == "ok"
    assert offers == pinned


def _tied_pairs_instance():
    # Columns 9 and 12 of A are equal and positions 9 and 12 share a
    # code length, so the pairs (9, 30) and (12, 30) tie exactly in length
    # and bound, and both reach the same residual; blocks of 1 or 5 first
    # indices put them in different blocks. (9, 12) itself is singular.
    n, m, d = 40, 4, 12
    base = sample_ensemble(n, d, derive_seed(915, "pairs"))
    a = base.matrix.copy()
    a[:, 12] = a[:, 9]
    x = np.zeros(n)
    x[9], x[30] = 0.5, 0.25
    return MeasurementEnsemble(a, base.key), x, m, 1e-6, PAIR_SCOPE


@pytest.mark.parametrize("instance", [
    _three_break_instance, _loose_sparse_instance, _ramp_instance, _tied_pairs_instance,
], ids=["three-break", "loose-sparse", "degree1", "tied-pairs"])
def test_offer_order_does_not_depend_on_block_or_chunk_size(instance, monkeypatch):
    # Strata are sorted once per level, so neither the rows per Gram panel
    # and the first indices per block (a window of panels), nor the degree
    # >= 1 patterns whose columns are built at once, nor the Gram panels
    # kept may change what is offered, in what order, or the counters.
    def run(patch):
        res, offers = _offer_sequence(instance, patch)
        return (res.dl_bits, res.stream, res.strata_examined, res.points_tested), offers

    with monkeypatch.context() as patch:
        want = run(patch)
    for panel_rows, pp_chunk in itertools.product((1, 5, 64), (1, 7, 2048)):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_PANEL_ROWS", panel_rows)
            patch.setattr(solver, "_PP_CHUNK", pp_chunk)
            patch.setattr(solver, "_PANEL_CACHE", 1 + panel_rows % 2)
            assert run(patch) == want


@pytest.mark.parametrize("shuffle", [False, True], ids=["reversed", "shuffled"])
def test_offer_order_does_not_depend_on_the_bound_order(shuffle, monkeypatch):
    # A bound returns the strata that pass in no order; run_level alone
    # orders a level, by length and then index tuple. So the bound's rows
    # reversed, or shuffled, change neither the offers nor the counters,
    # though each of these solves offers strata that tie in length.
    bound, rng = _SubsetBound.__call__, np.random.default_rng(918)

    def permuted(self, blocks):
        rows = bound(self, blocks)[::-1]
        return rows[rng.permutation(len(rows))] if shuffle else rows

    for instance in (_three_break_instance, _loose_sparse_instance, _tied_pairs_instance):
        got = []
        for patched in (False, True):
            with monkeypatch.context() as patch:
                if patched:
                    patch.setattr(_SubsetBound, "__call__", permuted)
                res, offers = _offer_sequence(instance, patch)
            got.append(((res.dl_bits, res.stream, res.strata_examined, res.points_tested),
                        offers))
        assert got[1] == got[0]


def test_pp_columns_are_built_at_most_one_chunk_at_a_time(monkeypatch):
    # The one-break degree-1 level of this solve is one block of 7
    # patterns; with 3-pattern chunks its columns are built in three parts.
    sizes, pp_columns = [], _Search.pp_columns

    def counting(self, n_deg, breaks, m_prime):
        sizes.append(len(breaks))
        return pp_columns(self, n_deg, breaks, m_prime)

    monkeypatch.setattr(_Search, "pp_columns", counting)
    monkeypatch.setattr(solver, "_PP_CHUNK", 3)
    res = _solve(_one_sample_piece_instance)
    assert (res.dl_bits, res.strata_examined, res.points_tested) == (36, 53, 6380)
    assert max(sizes) == 3


def test_only_strata_that_pass_the_bound_are_sorted(monkeypatch):
    # Of the 18,521 strata of the three-break solve, a handful pass the
    # bound; no sort may see the rest.
    passed, sorted_rows = [], []
    subset_bound, lexsort = _SubsetBound.__call__, np.lexsort

    def counting_bound(self, blocks):
        rows = subset_bound(self, blocks)
        passed.append(len(rows))
        return rows

    def counting_lexsort(keys, *args, **kwargs):
        sorted_rows.append(len(keys[-1]))
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(_SubsetBound, "__call__", counting_bound)
    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    res = _solve(_three_break_instance)
    assert res.strata_examined == 18521
    assert 0 < sum(sorted_rows) <= sum(passed) < 100


@pytest.mark.parametrize("instance,pinned,probe", [
    (_ramp_instance, (27, "001001010000010010011110000", 154, 241),
     ProbeStats(0.7605676561072746, 6, 0)),
    (_one_sample_piece_instance, (36, "001001000000100010011110000001001000", 53, 6380),
     ProbeStats(0.24611966080244427, 197, 9)),
], ids=["degree1", "free-level"])
def test_floored_walk_with_probe_is_pinned(instance, pinned, probe):
    # Values recorded before the innermost walk level was batched. With a
    # probe attached, every feasible leaf reaches the leaf handler, not
    # only those that can beat or tie the incumbent, and the probe counts
    # each one.
    res = _assert_pinned(instance, pinned, probe=True)
    assert (res.probe.candidates, res.probe.zero_diffs) == (probe.candidates, probe.zero_diffs)
    assert res.probe.min_gain == pytest.approx(probe.min_gain, rel=1e-12)


@pytest.mark.parametrize("instance,nodes", [
    (_ramp_instance, 395),
    (_literal_instance, 136),
    (_one_sample_piece_instance, 8417),
    (_unmeasured_first_instance, 314),
    (_three_break_instance, 18522),
], ids=["degree1", "literal", "free-level", "free-innermost", "three-break"])
@pytest.mark.parametrize("leaf_slice", [2, solver._LEAF_SLICE])
def test_node_cap_fires_at_the_same_node(instance, nodes, leaf_slice, monkeypatch):
    # Values recorded before the innermost walk level was batched: the
    # strata, points and walk steps each solve charges (ramp 154 + 241 + 0,
    # literal 46 + 18 + 72, one-sample piece 53 + 6,380 + 1,984; three-break,
    # recorded once strata were sorted per level, 18,521 + 1 + 0; unmeasured
    # first coordinate 2 + 24 + 288, recorded once the tightened radius
    # kept room for the points that tie the incumbent, which charged 12
    # points more). The solve completes under exactly that cap and runs
    # out one node below it, so a walk that charges a batch of leaves or
    # walk steps differently, or a level that charges strata it does not
    # generate, fails here. 2-value slices split the innermost visits of
    # these walks.
    monkeypatch.setattr(solver, "_LEAF_SLICE", leaf_slice)
    assert _solve(instance, node_cap=nodes).status == "ok"
    with pytest.raises(SolverResourceError):
        _solve(instance, node_cap=nodes - 1)


@pytest.mark.parametrize("instance", [_literal_instance, _one_sample_piece_instance],
                         ids=["literal", "free-level"])
@pytest.mark.parametrize("leaf_slice", [2, solver._LEAF_SLICE])
def test_walk_scores_at_most_one_slice(instance, leaf_slice, monkeypatch):
    # Walk memory is bounded by the slice: no score call gets more rows,
    # however many leaves one visit of level 1 lays out (up to 64 on the
    # literal walk, 136 on the free-level one, whose two innermost levels
    # share a piece).
    walk, rows = solver._sphere_walk, []

    def counting_walk(r_mat, qty, radius_sq, cut, lo, hi, budget, score, *rest):
        def counted(us, dist_sq):
            rows.append(len(us))
            return score(us, dist_sq)
        return walk(r_mat, qty, radius_sq, cut, lo, hi, budget, counted, *rest)

    monkeypatch.setattr(solver, "_sphere_walk", counting_walk)
    monkeypatch.setattr(solver, "_LEAF_SLICE", leaf_slice)
    assert _solve(instance).status == "ok"
    assert 0 < max(rows) <= leaf_slice


def test_zigzag_rows_match_one_row():
    # The batched walk lays out level 0 with _zigzag_at, the outer levels
    # with _zigzag; both must give the reference walk's order.
    for lo, hi in itertools.combinations_with_replacement(range(-2, 6), 2):
        for start in range(lo, hi + 1):
            want = zigzag(start, lo, hi)
            assert solver._zigzag(start, lo, hi) == want
            j = np.arange(len(want))
            assert solver._zigzag_at(start, lo, hi, j).tolist() == want


@st.composite
def _walk_cases(draw):
    """A small walk: an upper-triangular R, some of whose pivots (or whole
    rows) are zero, qty near a point of the box, optional piece blocks
    with a block cap, and the leaf handler's eta, slack and cut mode."""
    dims = draw(st.integers(1, 4))
    free = np.array(draw(st.lists(st.booleans(), min_size=dims, max_size=dims)))
    lo = draw(st.integers(0, 1))
    hi = lo + draw(st.integers(0, 5 if dims < 4 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r_mat = np.triu(rng.normal(size=(dims, dims)))
    r_mat[np.diag_indices(dims)] += np.sign(np.diag(r_mat)) * 0.2
    if draw(st.booleans()):
        r_mat[free] = 0.0  # rows past the measurement count
    r_mat[free, free] = 0.0
    qty = r_mat @ rng.integers(lo, hi + 1, size=dims) + 0.5 * rng.normal(size=dims)
    width = draw(st.sampled_from([None, 1, 2, 3]))
    blocks = block_cap = None
    if width is not None:
        blocks = [(s, min(s + width, dims)) for s in range(0, dims, width)]
        block_cap = draw(st.integers(1, width * hi + 1))
    eta = draw(st.floats(0.1, 3.0))
    slack = draw(st.sampled_from([0.0, 0.3, 1.0]))
    probe = draw(st.booleans())
    return r_mat, qty, lo, hi, blocks, block_cap, eta, slack, probe


def _walk_record(walk, case, node_cap):
    """Walk case with a leaf handler like _Search.walk_stratum's: the
    accept calls in order, the points and walk steps charged (None once
    the node cap fires), and whether it fired."""
    r_mat, qty, lo, hi, blocks, block_cap, eta, slack, probe = case
    margin = 1e-3
    weights = np.arange(1, r_mat.shape[0] + 1)

    def residual(us, dist_sq):
        # a stand-in for floored samples: up to slack above the walk distance
        return np.sqrt(dist_sq) + slack * ((us @ weights) % 5) / 4

    calls, best = [], [math.inf]

    def accept(u, dist_sq):
        calls.append((tuple(u.tolist()), dist_sq))
        res = float(residual(u[None], np.array([dist_sq]))[0])
        if res > eta:
            return math.inf, math.inf
        best[0] = min(best[0], res)
        return _allowed_sq(best[0], slack), math.inf if probe else best[0] + margin

    budget = solver._Budget(node_cap)
    try:
        walk(r_mat, qty, _allowed_sq(eta, slack), eta + margin, lo, hi, budget,
             residual, accept, blocks, block_cap)
    except SolverResourceError:
        return calls, None, True
    return calls, (budget.points, budget.steps), False


@settings(max_examples=500, deadline=None)
@given(case=_walk_cases(), leaf_slice=st.sampled_from([1, 2, 3, solver._LEAF_SLICE]),
       cap_share=st.floats(0.0, 1.0), flips=st.integers(0, 15))
# a free level 0 under two level-1 rows laid out in one slice: the leaf
# accepted in the first row leaves no room for the second, whose leaves
# must then be neither walked nor charged as walk steps
@example(case=(np.array([[0.0, -0.13210486], [0.0, 0.30490012]]),
               np.array([0.04869266, 0.95690014]), 0, 1, None, None, 1.0, 0.0, False),
         leaf_slice=solver._LEAF_SLICE, cap_share=0.0, flips=0)
def test_batched_walk_matches_one_leaf_at_a_time(case, leaf_slice, cap_share, flips):
    want = _walk_record(reference_walk, case, 1 << 40)
    total = sum(want[1])
    # negating rows of (R, qty), as a QR with pivots of either sign does,
    # changes no accept call and no counter
    r_mat, qty = case[0], case[1]
    sign = np.where((flips >> np.arange(len(qty))) & 1, -1.0, 1.0)
    flipped = (sign[:, None] * r_mat, sign * qty, *case[2:])
    with mock.patch.object(solver, "_LEAF_SLICE", leaf_slice):
        assert _walk_record(solver._sphere_walk, case, 1 << 40) == want
        assert _walk_record(solver._sphere_walk, flipped, 1 << 40) == want
        for cap in (int(cap_share * total), total - 1):
            assert (_walk_record(solver._sphere_walk, case, cap)
                    == _walk_record(reference_walk, case, cap))


@pytest.mark.parametrize("n_deg", [1, 2, 3])
@pytest.mark.parametrize("m", [6, 28], ids=["int64", "exact"])
def test_batched_pp_decoder_is_exact(n_deg, m):
    # At n = 24 the decoder's bit bound m' + 5 n_deg + bitlen(n_deg + 1) + m
    # is at most 32 for m = 6 (int64 arithmetic) and at least 64 for m = 28
    # (exact integers).
    n = 24
    ens = sample_ensemble(n, 2, derive_seed(933, "decoder"))
    search = _Search(ens, np.zeros(2), m, 1.0, SolverConfig(), None)
    m_prime = coeff_resolution(n_deg, m)
    rng = make_generator(933, "decoder-draw", n_deg, m)
    width = n_deg + 1
    for breaks in [(), (1,), (n // 3, n - 1), (1, 2, n // 2)]:
        dims = (len(breaks) + 1) * width
        us = rng.integers(0, 1 << m_prime, size=(40, dims), dtype=np.int64)
        got = search.pp_decoder(breaks, n_deg, m_prime)(us)
        assert got.dtype == np.int64 and got.shape == (len(us), n)
        for u, row in zip(us.tolist(), got.tolist()):
            coeffs = tuple(tuple(u[s : s + width]) for s in range(0, dims, width))
            assert tuple(row) == pp_sample_numerators(breaks, coeffs, n_deg, n, m)


# ---------------------------------------------------------------------------
# k=2 pair scan


PAIR_SCOPE = SolverConfig(max_sparse_k=2, include_pp=False)


def _gathered_pairs(gram, aty, yy):
    """Reference for the pair scan: every pair i < j in row-major order,
    with its 2x2 Gram gathered."""
    pairs = np.array(list(itertools.combinations(range(len(aty)), 2)))
    sub = gram[pairs[:, :, None], pairs[:, None, :]]
    b = aty[pairs]
    return pairs, _ls2_residual_sq(
        sub[:, 0, 0], sub[:, 1, 1], sub[:, 0, 1], b[:, 0], b[:, 1], yy
    )


def _record_offers(monkeypatch):
    """Replace offer_sparse by a recorder that walks nothing: every
    (support, dl) the level offers, in order."""
    offers = []
    monkeypatch.setattr(
        _Search, "offer_sparse",
        lambda self, support, dl: offers.append((tuple(support.tolist()), dl)),
    )
    return offers


def _lex_order(rows):
    """The permutation that puts rows of index tuples in lexicographic
    order."""
    return np.lexsort(rows.T[::-1]) if rows.shape[1] else np.arange(len(rows))


def _checked_batch(bound, batch, ref, cut=False):
    """The strata of a batch within the bound's limit, as rows in
    lexicographic order, and their residual^2. bounded(batch) returns them
    in no order, and the bound itself must keep the same rows. Without the
    cut they must be the concatenated reference_bound rows of the batch's
    blocks on ref = (gram, corr, forced) of reference_inputs, residual^2
    bit for bit; the cut keeps some of those rows."""
    rows, res = bound.bounded(batch)
    keep = np.sqrt(res) <= bound.limit
    rows, res = rows[keep], res[keep]
    np.testing.assert_array_equal(bound(batch), rows)
    order = _lex_order(rows)
    rows, res = rows[order], res[order]
    gram, corr, fixed = ref
    want = [reference_bound(gram, corr, bound.yy, block, bound.limit, fixed)
            for block in batch]
    want_rows = np.concatenate([r for r, _ in want])
    if cut:
        assert {tuple(r) for r in rows.tolist()} <= {tuple(r) for r in want_rows.tolist()}
    else:
        np.testing.assert_array_equal(rows, want_rows)
        assert res.tobytes() == np.concatenate([x for _, x in want]).tobytes()
    return rows, res


def _bound_level(b, y, costs, k, limit, forced=False, box=None):
    """Every k-tuple of indices into costs within their total cost, bounded
    batch by batch, as run_level does, over the columns b (all but the
    last, which is the forced vector, if forced), with the positivity cut
    if box is given: the rows that pass limit, in lexicographic order, and
    their least-squares residual^2, each batch checked by _checked_batch."""
    cols, t = (b[:, :-1], b[:, -1]) if forced else (b, None)
    bound = _SubsetBound(cols, y, limit, t, box)
    ref = reference_inputs(cols, y, t)
    got = [_checked_batch(bound, batch, ref, box is not None)
           for batch in _batches(_budgeted_blocks(costs, k, int(np.sum(costs))))]
    return tuple(np.concatenate(x) for x in zip(*got))


def _search_on(b, y, m, eta, config):
    """A search whose measurement matrix is b."""
    return _Search(MeasurementEnsemble(b, 0), y, m, eta, config, None)


def _run_sparse(search, k_lo, k_hi):
    """Run the sparse support levels k_lo .. k_hi of search through
    run_level, as its family table does: up to the first level with no
    stratum in budget."""
    for k in range(k_lo, k_hi + 1):
        if not search.run_level(search.pos_costs, k, search.sparse_dl(k),
                                search.support_bound, search.offer_sparse):
            break


def _box(m):
    """The value range of sparse codewords at m bits."""
    return 2.0**-m, 1.0 - 2.0**-m


def _cut_sums(b, y, m, rows):
    """Each row's sum of scores max(lo c_j, hi c_j), c_j = b_j . y / |y|."""
    c = b.T @ y / np.linalg.norm(y)
    lo, hi = _box(m)
    return np.maximum(lo * c, hi * c)[rows].sum(axis=1)


@pytest.mark.parametrize("rows", [5, solver._PANEL_ROWS])
def test_pair_scan_matches_gathered_reference(rows, monkeypatch):
    # 5-row panels in windows of two put the tied pairs below in
    # different blocks
    monkeypatch.setattr(solver, "_PANEL_ROWS", rows)
    monkeypatch.setattr(solver, "_PANEL_CACHE", 2)
    n, d, m = 40, 12, 4
    rng = make_generator(915, "pairs-draw")
    b = rng.normal(size=(d, n))
    y = 0.5 * b[:, 9] + 0.3 * b[:, 30] + 0.01 * rng.normal(size=d)
    # 9 and 12 share a position cost, so (9, j) and (12, j) tie exactly
    # in length and residual; (20, 25) is a second singular pair
    b[:, 12], b[:, 25] = b[:, 9], b[:, 20]
    yy = float(y @ y)
    all_pairs, all_res = _gathered_pairs(panel_gram(b), b.T @ y, yy)
    offers = _record_offers(monkeypatch)
    for eta in (0.0, math.sqrt(np.quantile(all_res, 0.3))):
        limit = math.sqrt(_allowed_sq(eta))
        keep = np.sqrt(all_res) <= limit
        search = _search_on(b, y, m, eta, PAIR_SCOPE)
        # without the positivity cut the bound keeps the bits of the whole
        # grid, and singular pairs have bound 0 and survive any eta
        pairs, res_sq = _bound_level(b, y, search.pos_costs, 2, limit)
        np.testing.assert_array_equal(pairs, all_pairs[keep])
        np.testing.assert_array_equal(res_sq, all_res[keep])
        listed = [tuple(p) for p in pairs.tolist()]
        assert (9, 12) in listed and (20, 25) in listed
        # the cut keeps the pairs whose scores reach |y| - limit, up to
        # rounding
        cut, _ = _bound_level(b, y, search.pos_costs, 2, limit, box=_box(m))
        kept = {tuple(p) for p in cut.tolist()}
        assert kept <= set(listed)
        sums = _cut_sums(b, y, m, pairs)
        gap = sums - (math.sqrt(yy) - limit)
        assert np.all(np.array([p in kept for p in listed]) == (gap >= 0) | (abs(gap) < 1e-9))
        assert 0 < len(kept) < len(listed)

        # the search offers them by length, then in lexicographic order
        offers.clear()
        _run_sparse(search, 2, 2)
        assert search.budget.strata == n * (n - 1) // 2
        dls = search.sparse_dl(2) + search.pos_costs[cut].sum(axis=1)
        order = np.argsort(dls, kind="stable")
        assert offers == [
            (tuple(p), dl) for p, dl in zip(cut[order].tolist(), dls[order].tolist())
        ]
    # the tie is feasible at the larger eta, and stays in lexicographic
    # order
    offered = [p for p, _ in offers]
    assert offered.index((9, 30)) < offered.index((12, 30))


def test_pair_scan_memory_is_a_few_row_blocks():
    # The whole k=2 level, Gram entries included, inside the window: an
    # n x n Gram matrix would be 4096^2 * 8 = 134 MB.
    n, d = 4096, 8
    ens = sample_ensemble(n, d, derive_seed(916, "pair-mem"))
    y = make_generator(916, "pair-mem-draw").normal(size=d)
    search = _Search(ens, y, 4, 1e-6, PAIR_SCOPE, None)
    panel_bytes = solver._PANEL_ROWS * n * 8
    tracemalloc.start()
    try:
        _run_sparse(search, 2, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every pair is charged, none passes, so none is walked
    assert search.budget.strata == n * (n - 1) // 2
    assert search.budget.points == 0
    # the positivity cut leaves a few pairs, whose Gram entries come from
    # products of hub columns, so the level builds no 64 x n panel; the
    # cut's passes and the level's bookkeeping peak at about a tenth of one
    assert peak <= 2 * panel_bytes, peak / panel_bytes


def test_position_costs_match_uint_code_len():
    want = [uint_code_len(p + 1) for p in range(5000)]
    for n in (0, 1, 2, 3, 7, 8, 255, 256, 1024, 5000):
        costs = solver._position_costs(n)
        assert costs.dtype == np.int64
        assert costs.tolist() == want[:n]


# ---------------------------------------------------------------------------
# subset least-squares bound


def _lexicographic_rows(indices, k):
    combos = list(itertools.combinations(indices, k))
    return np.array(combos, dtype=np.int64).reshape(len(combos), k)


def _lstsq_residual_sq(b, y, cols):
    """Independent reference: residual^2 of y on the columns b[:, cols]."""
    if not cols:
        return float(y @ y)
    coef = np.linalg.lstsq(b[:, cols], y, rcond=None)[0]
    r = b[:, cols] @ coef - y
    return float(r @ r)


def _column_problem(rng, d, n, copies=(), near=()):
    """Columns b with b[:, q] = b[:, p] for each (p, q) in copies and
    b[:, q] within 1e-7 of b[:, p] for each (p, q) in near, and y near the
    span of three columns."""
    b = rng.normal(size=(d, n))
    for p, q in copies:
        b[:, q] = b[:, p]
    for p, q in near:
        b[:, q] = b[:, p] + 1e-7 * rng.normal(size=d)
    y = b[:, [1, 3, 5]] @ rng.normal(size=3) + 0.2 * rng.normal(size=d)
    return b, y


@pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
def test_subset_bound_matches_lstsq(forced, monkeypatch):
    # The forced column is the last one, as T[n] is for breakpoint patterns.
    b, y = _column_problem(make_generator(920, "subset", int(forced)), 14, 10)
    yy = float(y @ y)
    fixed = [9] if forced else []
    costs = np.zeros(10 - forced, dtype=np.int64)
    for k in range(5):
        rows, got = _bound_level(b, y, costs, k, math.inf, forced)
        np.testing.assert_array_equal(rows, _lexicographic_rows(range(len(costs)), k))
        want = [_lstsq_residual_sq(b, y, [*fixed, *r]) for r in rows.tolist()]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12 * yy)
        # a limit keeps exactly the strata within it
        limit = float(np.sqrt(np.median(got)))
        kept = np.sqrt(got) <= limit
        passed = _bound_level(b, y, costs, k, limit, forced)
        np.testing.assert_array_equal(passed[0], rows[kept])
        np.testing.assert_array_equal(passed[1], got[kept])
        # blocks cut every two first indices give the same bits: each
        # stratum depends only on its own prefix, and two-row panels hold
        # the bits of the whole product (a one-row panel's product can
        # round differently)
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_PANEL_ROWS", 2)
            one = _bound_level(b, y, costs, k, math.inf, forced)
        np.testing.assert_array_equal(one[0], rows)
        np.testing.assert_array_equal(one[1], got)


def test_subset_bound_is_zero_on_dependent_columns(monkeypatch):
    # 4 copies the forced column 9, 6 copies 2 and 8 copies 7, so a copy
    # sits next to its original in the forced set, in the projected prefix
    # and within the final pair; 5 is 3 up to 1e-7. Projected onto its
    # original, a copy is rounding noise, and a near copy leaves a 1e-14
    # pivot that amplifies it. The bound must be 0 there, not whatever the
    # noise gives.
    copies, near = ((9, 4), (2, 6), (7, 8)), ((3, 5),)
    n, d = 10, 12
    b, y = _column_problem(make_generator(920, "subset-dup"), d, n, copies, near)
    yy = float(y @ y)

    def dependent(cols):
        return any({p, q} <= set(cols) for p, q in copies + near)

    for forced in (False, True):
        costs = np.zeros(n - forced, dtype=np.int64)
        for k in range(1, 5):
            rows, got = _bound_level(b, y, costs, k, math.inf, forced)
            cols = [[9] * forced + r for r in rows.tolist()]
            dep = np.array([dependent(c) for c in cols])
            assert dep.any() == (k > 1 or forced)
            assert np.all(got[dep] == 0.0)
            want = [_lstsq_residual_sq(b, y, c) for c in cols]
            np.testing.assert_allclose(
                got[~dep], np.array(want)[~dep], rtol=1e-9, atol=1e-12 * yy
            )
    # and the least-squares bound keeps every dependent support even at
    # eta = 0; the sparse scan offers those that also pass the positivity
    # cut
    costs = np.zeros(n, dtype=np.int64)
    limit = math.sqrt(_allowed_sq(0.0))
    rows, _ = _bound_level(b, y, costs, 3, limit)
    kept = {tuple(r) for r in rows.tolist()}
    dep = [tuple(r) for r in _lexicographic_rows(range(n), 3).tolist() if dependent(r)]
    assert set(dep) <= kept
    search = _search_on(b, y, 3, 0.0, SolverConfig(max_sparse_k=3, include_pp=False))
    offers = _record_offers(monkeypatch)
    _run_sparse(search, 3, 3)
    offered = {support for support, _ in offers}
    cut, _ = _bound_level(b, y, costs, 3, limit, box=_box(3))
    assert offered == {tuple(r) for r in cut.tolist()} <= kept


@st.composite
def _screen_cases(draw):
    """Columns, y, a limit and a level of blocks for the pair screen: exact
    and 1e-7 near copies, y on or near one column (whose row then fits on
    its own), a forced last column, prefixes, and blocks that straddle
    panels."""
    n = draw(st.integers(3, 90))
    d = draw(st.integers(2, 16))
    k = draw(st.integers(0, 4 if n <= 24 else 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(d, n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for p, q in draw(st.lists(pairs, max_size=3)):
        b[:, q] = b[:, p]
    for p, q in draw(st.lists(pairs, max_size=2)):
        b[:, q] = b[:, p] + 1e-7 * rng.normal(size=d)
    target = draw(st.sampled_from(["two", "one", "noise"]))
    if target == "noise":
        y = rng.normal(size=d)
    else:
        picked = rng.choice(n, size=1 if target == "one" else 2, replace=False)
        y = b[:, picked] @ rng.normal(size=len(picked)) + 1e-9 * rng.normal(size=d)
    forced = draw(st.booleans())
    panel_rows = draw(st.sampled_from([1, 5, 64]))
    cache = draw(st.sampled_from([1, 2, 8]))
    slack = draw(st.integers(0, 6))
    scale = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.05, 0.3, 1.0]))
    return b, y, forced, k, slack, scale * float(np.linalg.norm(y)), panel_rows, cache


def _spanning_case():
    # Three columns span R^2, so each pair plus the forced column fits y:
    # residual^2 is rounding noise around 0, and so is each row's c_i at
    # limit 0. Only the rule that keeps rows with c_i <= tau * rest keeps
    # the noise the exact formula rounds to 0.
    rng = np.random.default_rng(0)
    return rng.normal(size=(2, 3)), rng.normal(size=2), True, 2, 0, 0.0, 1, 1


def _straddling_case(n, k, forced):
    # Every tuple is in budget, so a batch of prefixes (i,) with i < 63
    # screens rows in both Gram panels, and the columns are the prefix
    # table's rows, as for breakpoint patterns.
    rng = np.random.default_rng(n + k)
    b = np.cumsum(rng.normal(size=(n, 6)), axis=0).T
    y = b[:, [n // 3, n - 1]] @ [1.0, -0.5] + 0.02 * rng.normal(size=6)
    return b, y, forced, k, 10**4, 0.3 * float(np.linalg.norm(y)), 64, 8


def _guarded_prefix_case(k):
    # Column 5 is the forced last column and column 9 is column 3, so the
    # batched step guards prefix (5,) next to live ones, and prefix (3, 9)
    # after the shared step of (3,); prefixes (5, j) share a guarded part.
    rng = np.random.default_rng(k)
    n = 70
    b = rng.normal(size=(8, n))
    b[:, 5], b[:, 9] = b[:, n - 1], b[:, 3]
    y = rng.normal(size=8)
    return b, y, True, k, 10**4, 0.8 * float(np.linalg.norm(y)), 64, 8


def _windowed_case(forced):
    # 5-row panels in windows of two: prefix (i,) of k = 3 comes as one
    # block per window its first indices touch, so a batch of two holds
    # two blocks of one prefix, or the last block of one and the first of
    # the next, and every block spans two panels.
    rng = np.random.default_rng(31)
    n = 31
    b = rng.normal(size=(6, n))
    y = b[:, [4, 17]] @ [1.0, -0.5] + 0.05 * rng.normal(size=6)
    return b, y, forced, 3, 10**4, 0.3 * float(np.linalg.norm(y)), 5, 2


@given(_screen_cases())
@example(_windowed_case(False))
@example(_windowed_case(True))
@example(_spanning_case())
@example(_straddling_case(90, 3, False))
@example(_straddling_case(90, 3, True))
@example(_straddling_case(70, 4, True))
@example(_guarded_prefix_case(3))
@example(_guarded_prefix_case(4))
@settings(max_examples=60, deadline=None)
def test_screened_bound_matches_full_grid(case):
    # The blocks are bounded in batches, as run_level hands them to the
    # bound: prefixes that share all but their last index, one batched
    # Cholesky step for their last ones, and one screen per Gram panel for
    # all of them. The batch's rows, in lexicographic order, and their
    # residual^2 must still be those of the full-grid reference, which
    # projects each block's own prefix, bit for bit: the screen may only
    # drop cells that the exact formula also puts above the limit, and a
    # guarded pivot keeps its blocks' cells at bound 0.
    b, y, forced, k, slack, limit, panel_rows, cache = case
    n = b.shape[1]
    costs = solver._position_costs(n - forced)
    budget = int(costs[:k].sum()) + slack
    with mock.patch.object(solver, "_PANEL_ROWS", panel_rows), \
            mock.patch.object(solver, "_PANEL_CACHE", cache):
        cols, t = (b[:, :-1], b[:, -1]) if forced else (b, None)
        bound = _SubsetBound(cols, y, limit, t)
        ref = reference_inputs(cols, y, t)
        for batch in _batches(_budgeted_blocks(costs, k, budget)):
            assert len({blk[0][:-1] for blk in batch}) == 1
            assert len(batch) <= cache
            _checked_batch(bound, batch, ref)


@pytest.mark.parametrize("n", [128, 512])
def test_three_break_level_memory_is_a_few_batches(n):
    # The whole three-break level of degree-0 patterns, C(n - 1, 3)
    # strata (22 million at n = 512), none of which passes. A batch holds
    # at most _PANEL_CACHE blocks, so at most _PANEL_CACHE prefixes with at
    # most _PANEL_ROWS rows each in a panel, and one panel's broadcast has
    # at most _PANEL_CACHE x _PANEL_ROWS x n cells, as many floats as the
    # panel cache; scratch memory is the kept panels plus three float
    # arrays and a boolean one of one broadcast, not proportional to the
    # strata. A window of 512 first indices holds a whole prefix's here, so
    # a batch is eight prefixes and its broadcasts are about full: it peaks
    # at 3.4 times the cache at n = 128 and 3.8 times at n = 512.
    # Unbatched prefixes (all of a level's in one broadcast per panel)
    # would take about 7.5 times the cache for each array at n = 128.
    d, m = 30, 8
    ens = sample_ensemble(n, d, derive_seed(917, "pattern-mem", n))
    y = make_generator(917, "pattern-mem-draw", n).normal(size=d)
    search = _Search(ens, y, m, 1e-6, SolverConfig(node_cap=1 << 26), None)
    search.prefix_table(0)
    bound = search.pp_bound(0, coeff_resolution(0, m))
    offers = []
    cache_bytes = solver._PANEL_CACHE * solver._PANEL_ROWS * n * 8
    tracemalloc.start()
    try:
        search.run_level(search.pos_costs[:-1], 3, 0, bound,
                         lambda row, dl: offers.append(row))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert search.budget.strata == math.comb(n - 1, 3)
    assert offers == []
    assert peak <= (1 + 3 + 1 / 8) * cache_bytes, peak / cache_bytes


def test_pattern_levels_build_each_panel_once(monkeypatch):
    # T[n] is a forced vector whose row is one product T[n] @ cols, so the
    # 0- and 1-break levels of degree-0 patterns, which take no prefix
    # step and no screen, build no Gram panel. The two-break level at
    # n = 1024 (522,753 strata, none of which passes) screens its one batch
    # a panel at a time, so each of its 16 panels is built once, though
    # the cache keeps 8. Each level runs on a fresh search, so the bound's
    # forced step is taken within it.
    n, d, m = 1024, 30, 8
    ens = sample_ensemble(n, d, derive_seed(944, "pattern-panels"))
    y = make_generator(944, "pattern-panels-draw").normal(size=d)
    built, panel = [], solver._GramPanels.panel

    def counting(self, p):
        if p not in self.panels:
            built.append(p)
        return panel(self, p)

    monkeypatch.setattr(solver._GramPanels, "panel", counting)
    offers = []
    for q, want in ((0, []), (1, []), (2, list(range(0, n - 1, solver._PANEL_ROWS)))):
        built.clear()
        search = _Search(ens, y, m, 1e-6, SolverConfig(), None)
        search.run_level(search.pos_costs[:-1], q, 0, search.pp_bound(0, coeff_resolution(0, m)),
                         lambda row, dl: offers.append(row))
        assert search.budget.strata == math.comb(n - 1, q)
        assert built == want, q
    assert offers == []


# ---------------------------------------------------------------------------
# positivity cut of sparse supports


CUT_SCOPE = SolverConfig(max_sparse_k=3, include_pp=False)


def _best_residual(a, y, m, support):
    """The least |A x - y| over the grid points of a support, by
    enumeration: every value 1 .. 2^m - 1 at each of its positions."""
    vals = np.arange(1, 1 << m) / (1 << m)
    pts = np.array(list(itertools.product(vals, repeat=len(support))))
    pts = pts.reshape(len(vals) ** len(support), len(support))
    return float(np.linalg.norm(pts @ a[:, list(support)].T - y, axis=1).min())


def _cut_only(a, y, m, limit, k):
    """The supports of k indices that the least-squares bound keeps at
    limit and the positivity cut drops."""
    costs = np.zeros(a.shape[1], dtype=np.int64)
    ls, _ = _bound_level(a, y, costs, k, limit)
    cut, _ = _bound_level(a, y, costs, k, limit, box=_box(m))
    return {tuple(r) for r in ls.tolist()} - {tuple(r) for r in cut.tolist()}


def _cut_instance(kind, ens, m, rng):
    """(ens, y, eta) of one kind. "top": a 2-sparse grid x at the top value,
    y = A x moved out along itself by e and eta = 2 e, so the answer's
    scores fall e short of |y|. "anti": column j is mostly -column i, x_i
    is the top value and x_j the lowest, y = A x, so c_j < 0 and only
    lo c_j, not hi c_j, lets the answer reach |y|."""
    a = np.asarray(ens.matrix).copy()
    n, d = ens.n, ens.d
    lo, hi = _box(m)
    i, j = rng.choice(n, size=2, replace=False)
    x = np.zeros(n)
    if kind == "top":
        x[[i, j]] = hi
        y = a @ x
        e = 1e-3 * float(np.linalg.norm(y))
        return ens, y + e * y / np.linalg.norm(y), 2 * e
    if kind == "anti":
        a[:, j] = -0.6 * a[:, i] + 0.3 * rng.normal(size=d)
        x[i], x[j] = hi, lo
        return MeasurementEnsemble(a, ens.key), a @ x, 1e-6
    y, eta = _draw_y(kind, ens, m, rng)
    return ens, y, eta


@pytest.mark.parametrize("idx,n", [(0, 8), (1, 10), (2, 12)])
def test_matches_brute_force_where_only_the_cut_prunes(idx, n):
    # With d = 3 most pairs, and every triple, fit y in the least-squares
    # sense; many do so only with a coefficient outside [2^-m, 1 - 2^-m],
    # and the cut alone drops those. Each support it drops has no grid
    # point within eta, and the answer is the oracle's.
    m, d = 2, 3
    base = sample_ensemble(n, d, derive_seed(940, "cut", idx))
    rng = make_generator(940, "cut-draw", idx)
    dropped = 0
    for kind in ("top", "anti", "sparse-exact", "barely"):
        ens, y, eta = _cut_instance(kind, base, m, rng)
        a = np.asarray(ens.matrix)
        got = mcp_exact(ens, y, m, eta, CUT_SCOPE)
        want = brute_force_argmin(ens, y, m, eta, CUT_SCOPE)
        assert got.status == "ok" or kind == "barely"
        assert_matches_oracle(got, want)
        for k in range(4):
            for support in _cut_only(a, y, m, math.sqrt(_allowed_sq(eta)), k):
                assert _best_residual(a, y, m, support) > eta
                dropped += 1
    assert dropped > 0


def _cut_kept(bound, costs, k, budget):
    """The supports of k indices within budget that the cut keeps, as
    bounded cuts them: one block at a time."""
    return {tuple(r) for block in _budgeted_blocks(costs, k, budget)
            for r in bound.cut(block).tolist()}


@st.composite
def _cut_cases(draw):
    """Columns, y, m and eta for the cut alone: y on the span of a grid
    point, near it, random or zero; columns at one of three scales, with
    exact copies; eta from 0 up to past |y|."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=(d, n)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for p, q in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2)):
        a[:, q] = a[:, p]
    target = draw(st.sampled_from(["grid", "near", "noise", "zero"]))
    if target in ("grid", "near"):
        support = rng.choice(n, size=rng.integers(1, min(n, 3) + 1), replace=False)
        x = np.zeros(n)
        x[support] = rng.integers(1, 1 << m, size=len(support)) / (1 << m)
        y = a @ x
        if target == "near":
            y = y + 0.01 * np.linalg.norm(y) * rng.normal(size=d)
    else:
        y = rng.normal(size=d) * (target == "noise")
    frac = draw(st.sampled_from([0.0, 1e-9, 1e-3, 0.05, 0.3, 1.0, 1.5]))
    return a, y, m, frac * float(np.linalg.norm(y)), draw(st.integers(0, min(n, 3)))


@given(_cut_cases())
@settings(max_examples=200, deadline=None)
def test_cut_drops_only_supports_without_a_feasible_point(case):
    # The cut alone, with no least-squares bound after it: every support it
    # drops has no grid point within limit of y. With y = 0 it cuts nothing.
    a, y, m, limit, k = case
    bound = _SubsetBound(a, y, limit, box=_box(m))
    assert (bound.scores is None) == (not y.any())
    costs = np.zeros(a.shape[1], dtype=np.int64)
    scale = float(np.linalg.norm(y)) + float(np.abs(a).sum())
    if bound.scores is None:
        return
    kept = _cut_kept(bound, costs, k, 0)
    for block in _budgeted_blocks(costs, k, 0):
        for support in _block_rows(block).tolist():
            if tuple(support) not in kept:
                assert _best_residual(a, y, m, support) > limit - 1e-13 * scale


def test_cut_keeps_supports_on_its_exact_boundary():
    # y sits 1e-7 |y| off the top corner hi (b_i + b_j) of a pair's box, so
    # the pair's exact scores fall a hair short of |y|, and its limit is the
    # least float at which they reach |y| - limit (in 60-digit decimals).
    # That limit is far below |y|, so the rounding of the scores, about eps
    # |y| each, decides the float comparison, and delta must keep the pair.
    # A limit 1e-11 |y| lower drops it: delta is a rounding bound, not
    # slack.
    m = 3
    lo, hi = _box(m)
    rng = make_generator(941, "cut-boundary")
    costs = np.zeros(8, dtype=np.int64)
    on_edge = 0
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for _ in range(4):
            b = rng.normal(size=(6, 8)) * 10.0 ** rng.integers(-3, 4)
            for i, j in itertools.combinations(range(8), 2):
                y = hi * (b[:, i] + b[:, j])
                y += 1e-7 * np.linalg.norm(y) * rng.normal(size=6)
                dy = [Decimal(v) for v in y]
                norm_y = sum(v * v for v in dy).sqrt()
                short = norm_y
                for col in (b[:, i], b[:, j]):
                    c = sum(Decimal(u) * v for u, v in zip(col, dy)) / norm_y
                    short -= max(Decimal(lo) * c, Decimal(hi) * c)
                if short <= 0:
                    continue
                limit = float(short)
                if Decimal(limit) < short:
                    limit = float(np.nextafter(limit, np.inf))
                tighter = limit - 1e-11 * float(norm_y)
                for lim, want in ((limit, True), (tighter, False)):
                    if lim < 0:
                        continue
                    bound = _SubsetBound(b, y, lim, box=(lo, hi))
                    assert ((i, j) in _cut_kept(bound, costs, 2, 0)) == want
                on_edge += 1
    assert on_edge > 40


@st.composite
def _hub_cases(draw):
    """A bound with the cut, k = 0 to 3, a budget and panel sizes: scores
    of real columns, with exact copies and negative scores, or scores on a
    dyadic grid with need on it too, so that many sit exactly at need / 2;
    need from the bound itself, from the grid (0 and below included) or
    exactly one cell's float sum: 0.0 for k = 0, one score for k = 1 and
    two for k >= 2."""
    n = draw(st.integers(2, 24))
    k = draw(st.sampled_from([0, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    a = rng.normal(size=(d, n)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    for p, q in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        a[:, q] = a[:, p]
    y = rng.normal(size=d)
    limit = draw(st.sampled_from([0.0, 0.3, 0.9, 1.0, 1.5])) * float(np.linalg.norm(y))
    bound = _SubsetBound(a, y, limit, box=_box(draw(st.integers(1, 3))))
    if draw(st.booleans()):
        bound.scores = rng.integers(-8, 9, size=n) / 8.0
    kind = draw(st.sampled_from(["own", "grid", "cell"]))
    if kind != "own":
        s = bound.scores
        if kind == "grid":
            base = draw(st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5]))
        else:
            base = float(s[rng.choice(n, size=min(k, 2), replace=False)].sum())
        bound.need = lambda prefix, size: base - float(s[list(prefix)].sum())
    costs = solver._position_costs(n)
    budget = int(costs[:k].sum()) + draw(st.integers(0, 12))
    rows = draw(st.sampled_from([2, 3, 5, 64]))
    return bound, k, costs, budget, rows, draw(st.sampled_from([1, 2, 8]))


def _windowed_hub_case():
    # 5-row panels in windows of two: prefix () of k = 2 comes as blocks
    # of first indices 0..9, 10..19 and 20..28, and each later block's
    # seconds start past its window's edge. Half the scores are hubs.
    n = 30
    rng = np.random.default_rng(30)
    a = rng.normal(size=(3, n))
    y = rng.normal(size=3)
    bound = _SubsetBound(a, y, 0.9 * float(np.linalg.norm(y)), box=_box(2))
    bound.scores = rng.integers(-8, 9, size=n) / 8.0
    bound.need = lambda prefix, size: 0.25 - float(bound.scores[list(prefix)].sum())
    costs = solver._position_costs(n)
    return bound, 2, costs, int(costs[:2].sum()) + 100, 5, 2


def _tied_hub_case(k):
    # need exactly at a tuple's float score sum on dyadic scores: 0.0 for
    # the empty tuple (k = 0), index 0's score for k = 1
    n = 6
    rng = np.random.default_rng(31)
    a = rng.normal(size=(3, n))
    y = rng.normal(size=3)
    bound = _SubsetBound(a, y, 0.0, box=_box(2))
    bound.scores = rng.integers(-8, 9, size=n) / 8.0
    base = float(bound.scores[:k].sum())
    bound.need = lambda prefix, size: base - float(bound.scores[list(prefix)].sum())
    costs = solver._position_costs(n)
    return bound, k, costs, int(costs[:k].sum()) + 12, 64, 8


@given(_hub_cases())
@example(_windowed_hub_case())
@example(_tied_hub_case(0))
@example(_tied_hub_case(1))
@settings(max_examples=300, deadline=None)
def test_hub_cut_keeps_exactly_the_cells_whose_float_sum_reaches_need(case):
    # The cut keeps exactly the tuples whose float score sum after the
    # prefix reaches need, each once: the empty tuple when need <= 0, the
    # indices i with s_i >= need, and on a pair grid, which it lists from
    # its hubs (2 s_h >= need) and tests only those, the cells (i, j) with
    # fl(s_i + s_j) >= need, in every block of every block layout: no kept
    # cell lacks a hub.
    bound, k, costs, budget, rows, cache = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_PANEL_ROWS", rows)
        mp.setattr(solver, "_PANEL_CACHE", cache)
        for block in _budgeted_blocks(costs, k, budget):
            got = [tuple(r) for r in bound.cut(block).tolist()]
            cells = _block_rows(block)
            s = bound.scores[cells[:, len(block[0]):]].sum(axis=1)
            want = set(map(tuple, cells[s >= bound.need(block[0], k)].tolist()))
            assert len(got) == len(set(got))
            assert set(got) == want


def test_hub_cut_memory_is_the_cache_plus_survivors():
    # About a quarter of the indices are hubs (unit y, eta = |y| / 2), so
    # a third of a million of the first block's two million pairs pass the
    # cut. A block holds the first indices of one window, as many as the
    # panel cache has rows, so its passes and Gram products are (hubs
    # among the firsts) x n and (hubs) x (firsts), at most a panel cache
    # each, and the bound's scratch beyond that scales with its survivors:
    # it peaks at about 1.85 times the cache, survivors 0.48 of it. Each
    # hub's whole Gram row, about 930 x 4096 floats, would take it to
    # about 4 times.
    n, d, m = 4096, 8, 4
    a = np.asarray(sample_ensemble(n, d, derive_seed(943, "hub-mem")).matrix)
    y = make_generator(943, "hub-mem-draw").normal(size=d)
    y /= np.linalg.norm(y)
    bound = _SubsetBound(a, y, math.sqrt(_allowed_sq(0.5)), box=_box(m))
    costs = np.zeros(n, dtype=np.int64)
    block = next(_budgeted_blocks(costs, 2, 0))
    assert len(block[1]) == solver._PANEL_CACHE * solver._PANEL_ROWS
    assert 0.2 < np.mean(2 * bound.scores >= bound.need((), 2)) < 0.3
    tracemalloc.start()
    try:
        rows, res = bound.bounded([block])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) > 300_000
    cache_bytes = solver._PANEL_CACHE * solver._PANEL_ROWS * n * 8
    survivors = rows.nbytes + res.nbytes
    assert peak <= cache_bytes + 3 * survivors, (peak / cache_bytes, survivors / cache_bytes)


def test_sparse_pair_level_builds_no_gram_panel(monkeypatch):
    # At the shape of corollary_n1024 the cut leaves a handful of the
    # 523,776 pairs, whose Gram entries come from products of their hubs'
    # columns with the columns they pair with, so the k=2 level builds none
    # of the 64 x 1024 panels that the pair screen reads.
    n, d, m = 1024, 182, 10
    ens = sample_ensemble(n, d, derive_seed(942, "no-panel"))
    rng = make_generator(942, "no-panel-draw")
    nums = np.zeros(n, dtype=np.int64)
    nums[rng.choice(n, size=2, replace=False)] = rng.integers(1, 1 << m, size=2)
    y = np.asarray(ens.matrix) @ (nums / (1 << m))
    built, panel = [], solver._GramPanels.panel

    def counting(self, p):
        built.append(p)
        return panel(self, p)

    monkeypatch.setattr(solver._GramPanels, "panel", counting)
    search = _Search(ens, y, m, 1e-6, PAIR_SCOPE, None)
    _run_sparse(search, 0, 1)
    assert search.incumbent.vector is None
    _run_sparse(search, 2, 2)
    assert built == []
    assert search.budget.strata == 1 + n + n * (n - 1) // 2
    assert search.incumbent.vector.numerators == tuple(nums.tolist())


# ---------------------------------------------------------------------------
# breakpoint-pattern least-squares bound


def _pp_lstsq_residual_sq(a, y, n_deg, breaks):
    """Independent reference: residual^2 of y on the columns sum_i a_i
    (i / n)^j over each piece, j <= n_deg."""
    n = a.shape[1]
    t = np.arange(n) / n
    edges = (0, *breaks, n)
    cols = [a[:, lo:hi] @ t[lo:hi] ** j
            for lo, hi in zip(edges, edges[1:]) for j in range(n_deg + 1)]
    return _lstsq_residual_sq(np.stack(cols, axis=1), y, list(range(len(cols))))


def test_pp_bound_matches_lstsq():
    # the shape of the pp_linear_n24 workload; eta = inf keeps every pattern
    n, d, m = 24, 16, 6
    ens = sample_ensemble(n, d, derive_seed(921, "pp-bound"))
    y = make_generator(921, "pp-bound-draw").normal(size=d)
    yy = float(y @ y)
    search = _Search(ens, y, m, math.inf, PP_SCOPE, None)
    costs = np.zeros(n - 1, dtype=np.int64)
    for n_deg in (1, 2, 3):
        m_prime = coeff_resolution(n_deg, m)
        bound = search.pp_bound(n_deg, m_prime)
        for q in range(3):
            rows = np.concatenate([bound(b) for b in _batches(_budgeted_blocks(costs, q, 0))])
            np.testing.assert_array_equal(rows, _lexicographic_rows(range(n - 1), q))
            got = search.pp_residual_sq(n_deg, rows, m_prime)
            breaks = (rows + 1).tolist()
            want = np.array([_pp_lstsq_residual_sq(ens.matrix, y, n_deg, b) for b in breaks])
            # a piece of at most n_deg samples makes the columns dependent:
            # the bound may then fall below the residual, never above it
            full = np.array([min(np.diff((0, *b, n))) > n_deg for b in breaks])
            assert full.any()
            np.testing.assert_allclose(got[full], want[full], rtol=0, atol=1e-9 * yy)
            assert np.all(got[~full] <= want[~full] + 1e-9 * yy)


def test_pp_bound_keeps_floored_grid_signal():
    # The samples of a degree-2 grid polynomial are floored, so y = A x is
    # off the span of its pattern's continuous columns by more than eta;
    # only pp_slack keeps the pattern.
    n, d, m, n_deg, brk = 24, 16, 6, 2, 9
    m_prime = coeff_resolution(n_deg, m)
    ens = sample_ensemble(n, d, derive_seed(922, "pp-floor"))
    coeffs = ((41, 97, 113), (120, 19, 100))
    nums = pp_sample_numerators((brk,), coeffs, n_deg, n, m)
    y = np.asarray(ens.matrix) @ (np.array(nums) * 2.0 ** -m)
    eta = 1e-6
    search = _Search(ens, y, m, eta, PP_SCOPE, None)
    rows = search.pp_bound(n_deg, m_prime)([((), np.array([brk - 1]), None)])
    assert rows.tolist() == [[brk - 1]]
    res_sq = search.pp_residual_sq(n_deg, rows, m_prime)
    assert res_sq[0] > _allowed_sq(eta)
    assert res_sq[0] <= _allowed_sq(eta, search.pp_slack)


@pytest.mark.parametrize("n", [12, 24])
def test_pp_prune_is_the_walk_skip_test(n):
    # The prune of degree >= 1 patterns takes base_sq of _qr_rows on the
    # stacked columns of many patterns, and walk_stratum on one pattern's
    # own columns, skipping it when its radius _allowed_sq(eta, pp_slack)
    # - base_sq is below 0. The two must agree bit for bit, so a pattern
    # passes the prune exactly when the walk would walk it, at any eta:
    # here the etas that put the allowed residual^2 at quantiles of
    # base_sq, where rounding decides.
    d, m = 16, 6
    ens = sample_ensemble(n, d, derive_seed(945, "pp-skip", n))
    y = make_generator(945, "pp-skip-draw", n).normal(size=d)
    costs = np.zeros(n - 1, dtype=np.int64)
    for n_deg in (1, 2, 3):
        m_prime = coeff_resolution(n_deg, m)
        for q in (1, 2):
            blocks = list(_budgeted_blocks(costs, q, 0))
            rows = np.concatenate([_block_rows(b) for b in blocks])
            search = _Search(ens, y, m, 0.0, PP_SCOPE, None)
            res_sq = search.pp_residual_sq(n_deg, rows, m_prime)
            walk = np.array([
                _qr_rows(search.pp_columns(n_deg, r[None] + 1, m_prime)[0], y)[2]
                for r in rows
            ])
            assert res_sq.tobytes() == walk.tobytes(), (n_deg, q)
            slack = search.pp_slack
            for at in np.quantile(walk, [0.1, 0.5, 0.9], method="nearest"):
                eta = max(math.sqrt(max(at - solver._LS_MARGIN, 0.0)) - slack, 0.0)
                search = _Search(ens, y, m, eta, PP_SCOPE, None)
                bound = search.pp_bound(n_deg, m_prime)
                kept = np.concatenate([bound(batch) for batch in _batches(blocks)])
                walked = rows[_allowed_sq(eta, slack) - walk >= 0]
                np.testing.assert_array_equal(kept[_lex_order(kept)], walked)
                assert 0 < len(walked) < len(rows)


# ---------------------------------------------------------------------------
# resource lifetime


def test_finished_search_is_freed_without_cyclic_gc():
    n, m, d = 12, 3, 6
    ens = sample_ensemble(n, d, derive_seed(917, "free"))
    rng = make_generator(917, "free-draw")
    xq = quantize_vector(gen_sparse(n, 2, rng), m)
    y = np.asarray(ens.matrix) @ np.array(xq.to_floats())
    gc.disable()
    try:
        search = _Search(ens, y, m, 1e-6, PP_SCOPE, None)
        ref = weakref.ref(search)
        res = search.run()
        del search
        freed = ref() is None
    finally:
        gc.enable()
    assert res.points_tested > 0
    assert freed


def test_sparse_only_solve_skips_sigma_max():
    ens = sample_ensemble(16, 8, derive_seed(918, "lazy"))
    rng = make_generator(918, "lazy-draw")
    xq = quantize_vector(gen_sparse(16, 2, rng), 3)
    y = np.asarray(ens.matrix) @ np.array(xq.to_floats())
    res = mcp_exact(ens, y, 3, 1e-6, PAIR_SCOPE)
    assert res.x_hat == xq
    assert "sigma_max" not in ens.__dict__


# ---------------------------------------------------------------------------
# result contract


def _noisy_sparse_instance():
    ens = sample_ensemble(16, 8, derive_seed(904, "dec"))
    rng = make_generator(904, "dec-draw")
    xq = quantize_vector(gen_sparse(16, 2, rng), 3)
    y = np.asarray(ens.matrix) @ np.array(xq.to_floats())
    y = y + 0.02 * rng.normal(size=8)
    cfg = SolverConfig(max_sparse_k=3, pp_max_degree=0)
    return ens, y, 3, 0.4 * float(np.linalg.norm(y)), cfg


def _assert_stream_decodes(ens, m, res, codec_id):
    assert res.status == "ok"
    assert res.codec_id == codec_id
    back = decode_any(CodedSignal(res.codec_id, res.stream), ens.n, m)
    assert back == res.x_hat
    assert res.dl_bits == len(res.stream)


def test_returned_stream_decodes_to_returned_vector():
    ens, y, m, eta, cfg = _noisy_sparse_instance()
    _assert_stream_decodes(ens, m, mcp_exact(ens, y, m, eta, cfg), "sparse")


@pytest.mark.parametrize("instance,codec_id", [
    (_ramp_instance, "piecewise_poly"),
    (_literal_instance, "literal"),
], ids=["degree1", "literal"])
def test_returned_stream_decodes_per_codec(instance, codec_id):
    ens, _, m, _, _ = instance()
    _assert_stream_decodes(ens, m, _solve(instance), codec_id)


def test_exact_sparse_recovery_and_probe():
    n, m, d = 64, 6, 30
    ens = sample_ensemble(n, d, derive_seed(905, "rec"))
    rng = make_generator(905, "rec-draw")
    xq = quantize_vector(gen_sparse(n, 2, rng), m)
    y = np.asarray(ens.matrix) @ np.array(xq.to_floats())
    res = mcp_exact(ens, y, m, 1e-6, probe_ref=xq)
    assert res.status == "ok"
    assert res.codec_id == "sparse"
    assert res.x_hat == xq
    assert res.residual <= 1e-6
    # the reference itself is the only accepted candidate here
    assert res.probe is not None
    assert res.probe.zero_diffs >= 1
    if res.probe.min_gain is not None:
        assert res.probe.min_gain > 0


def test_exact_sparse_recovery_at_eta_zero():
    # y = A x for a 2-sparse grid x: x's residual is the float |A x - y|,
    # 0.0 exactly, so it is feasible at eta = 0, whatever rounding a
    # stratum's QR carries.
    n, m, d = 64, 6, 30
    ens = sample_ensemble(n, d, derive_seed(905, "eta-zero"))
    xq = quantize_vector(gen_sparse(n, 2, make_generator(905, "eta-zero-draw")), m)
    y = np.asarray(ens.matrix) @ np.array(xq.to_floats())
    res = mcp_exact(ens, y, m, 0.0, PAIR_SCOPE)
    assert (res.status, res.x_hat, res.residual) == ("ok", xq, 0.0)


def test_piecewise_constant_recovery():
    n, m, d = 64, 6, 30
    ens = sample_ensemble(n, d, derive_seed(906, "pc"))
    x = np.where(np.arange(n) < 32, 0.25, 0.625)
    res = mcp_exact(ens, np.asarray(ens.matrix) @ x, m, 1e-6)
    assert res.status == "ok"
    assert res.codec_id == "piecewise_poly"
    assert np.allclose(res.x_hat.to_floats(), x)


def test_zero_signal_codes_as_empty_sparse():
    ens = sample_ensemble(32, 12, derive_seed(907, "zero"))
    res = mcp_exact(ens, np.zeros(12), 5, 1e-9)
    assert res.status == "ok"
    assert res.x_hat.support() == ()
    assert res.codec_id == "sparse"
    assert res.points_tested == 0
    # a nonzero y within eta of 0: the empty support is the one stratum
    # in budget, and its one point is accepted without being charged
    y = make_generator(907, "zero-draw").normal(size=12)
    yy = float(y @ y)
    ref = quantize_vector(np.full(32, 0.5), 5)
    for probe_ref in (None, ref):
        res = mcp_exact(ens, y, 5, 1.01 * math.sqrt(yy), probe_ref=probe_ref)
        assert res.x_hat.support() == ()
        assert res.codec_id == "sparse"
        assert res.strata_examined == 1
        assert res.points_tested == 0
        assert res.residual == math.sqrt(yy)
        if probe_ref is not None:
            assert res.probe.candidates == 1


def test_infeasible_reported():
    ens = sample_ensemble(16, 8, derive_seed(908, "inf"))
    y = np.full(8, 50.0)
    res = mcp_exact(ens, y, 3, 1e-9,
                    config=SolverConfig(max_sparse_k=2, pp_max_breaks=1))
    assert res.status == "infeasible"
    assert res.x_hat is None
    assert math.isinf(res.residual)


def test_node_cap_raises():
    ens = sample_ensemble(128, 12, derive_seed(909, "cap"))
    rng = make_generator(909, "cap-draw")
    y = 50.0 * rng.normal(size=12)
    with pytest.raises(SolverResourceError):
        mcp_exact(ens, y, 8, 1e-9,
                  config=SolverConfig(node_cap=50_000, include_pp=False))


def test_deterministic_reruns():
    ens = sample_ensemble(24, 10, derive_seed(910, "det"))
    rng = make_generator(910, "det-draw")
    y = rng.normal(size=10)
    cfg = SolverConfig(pp_max_degree=0)
    a = mcp_exact(ens, y, 3, 0.5 * float(np.linalg.norm(y)), cfg)
    b = mcp_exact(ens, y, 3, 0.5 * float(np.linalg.norm(y)), cfg)
    assert (a.dl_bits, a.stream, a.x_hat) == (b.dl_bits, b.stream, b.x_hat)


def test_default_eta_keeps_truncated_truth_feasible():
    # with the literal codec in scope the truncated truth is always a
    # codeword, so the default eta makes the program feasible for any
    # dense x in [0,1]^n measured exactly
    n, m, d = 12, 3, 8
    ens = sample_ensemble(n, d, derive_seed(911, "defeta"))
    rng = make_generator(911, "defeta-draw")
    x = rng.uniform(0.0, 1.0, size=n)
    y = np.asarray(ens.matrix) @ x
    cfg = SolverConfig(max_sparse_k=2, include_pp=False, include_literal=True)
    res = mcp_exact(ens, y, m, config=cfg)
    assert res.status == "ok"
    xq = quantize_vector(x, m)
    gap = np.linalg.norm(np.asarray(ens.matrix) @ (x - np.array(xq.to_floats())))
    assert gap <= res.eta + 1e-12
    # never worse than the literal fallback
    assert res.dl_bits <= CODEC_HEADER_BITS + n * m


def test_tolerant_widens_eta():
    ens = sample_ensemble(16, 8, derive_seed(912, "tol"))
    rng = make_generator(912, "tol-draw")
    y = rng.normal(size=8)
    eps = 0.3
    want_eta = ens.sigma_max * (eps + quantization_gap_bound(16, 3))
    res = mcp_tolerant(ens, y, 3, eps, config=SolverConfig(max_sparse_k=2))
    assert res.eta == pytest.approx(want_eta)


def test_input_validation():
    ens = sample_ensemble(8, 4, derive_seed(913, "val"))
    with pytest.raises(ValueError):
        mcp_exact(ens, np.zeros(5), 3)
    with pytest.raises(ValueError):
        mcp_exact(ens, np.zeros(4), 0)
    with pytest.raises(ValueError):
        mcp_exact(ens, np.zeros(4), 3, eta=-1.0)
    with pytest.raises(ValueError):
        mcp_tolerant(ens, np.zeros(4), 3, -0.1)
    # a NaN tolerance, or a non-finite measurement, is not a problem the
    # search can answer: without the check the solve reports infeasible
    for y in ([0.0, math.nan, 0.0, 0.0], [0.0, 0.0, math.inf, 0.0], [-math.inf] * 4):
        with pytest.raises(ValueError):
            mcp_exact(ens, np.array(y), 3)
    with pytest.raises(ValueError):
        mcp_exact(ens, np.zeros(4), 3, eta=math.nan)
    with pytest.raises(ValueError):
        mcp_tolerant(ens, np.zeros(4), 3, math.nan)


@pytest.mark.parametrize("scope,top", [
    (SolverConfig(include_pp=False), 62),
    (SolverConfig(pp_max_degree=1, pp_max_breaks=1), 61),
    (SolverConfig(pp_max_degree=3, include_literal=True), 60),
], ids=["sparse", "degree1", "degree3"])
def test_grids_past_int64_are_refused(scope, top):
    # The walk holds a grid's values, its range ends up to 2^bits and a
    # piece's cap 2^bits in int64, so m bits (sparse, literal) and m' =
    # coeff_resolution(N, m) bits (degree N patterns) may reach 62. At y = 0
    # the empty codeword is the answer and nothing else is walked, so the
    # largest m that fits solves at once.
    ens = sample_ensemble(8, 4, derive_seed(913, "int64"))
    res = mcp_exact(ens, np.zeros(4), top, config=scope)
    assert res.status == "ok" and res.x_hat.numerators == (0,) * 8
    with pytest.raises(ValueError, match="int64"):
        mcp_exact(ens, np.zeros(4), top + 1, config=scope)


def test_huge_finite_eta_answers_as_infinite():
    # The walk radius and the prunes square eta: a finite eta past 1e154
    # squares to inf, as eta = inf does, and must not overflow.
    ens = sample_ensemble(8, 4, derive_seed(913, "val"))
    y, cfg = np.ones(4), SolverConfig(max_sparse_k=2)

    def answer(eta):
        res = mcp_exact(ens, y, 3, eta, cfg)
        return res.status, res.dl_bits, res.stream, res.residual, res.points_tested

    want = answer(math.inf)
    assert want[0] == "ok"
    for eta in (1e160, 1e300, 1.7e308):
        assert answer(eta) == want


# ---------------------------------------------------------------------------
# error bound helpers


def test_predicted_error_bound_value():
    got = predicted_error_bound(256, 40, 8, 0.04, 1.0)
    assert got == pytest.approx(10.097975673813716, rel=1e-12)
    # building blocks
    ratio = (math.sqrt(256 / 40) + 1 + 1) / 0.04 + 1
    assert got == pytest.approx(ratio * quantization_gap_bound(256, 8), rel=1e-12)
    # no measurements give no bound, not a division by zero
    with pytest.raises(ValueError):
        predicted_error_bound(256, 0, 8, 0.04, 1.0)


def test_corollary_bound_values():
    assert corollary_error_bound(1024, 1.0, 9.1) == pytest.approx(
        0.010359274127059311, rel=1e-12
    )
    assert corollary_error_bound(1024, 1.0, 9.1) == pytest.approx(
        10.0 * 1024 ** (-0.5) / (math.sqrt(9.1) * 10.0), rel=1e-12
    )
    assert corollary_failure_prob(1024, 1.0, 9.1) == pytest.approx(
        2.0 ** (-91), rel=1e-12
    )


def test_dl_budget_bits():
    assert dl_budget_bits(9.1, 1.0, 10) == 202
    assert dl_budget_bits(2.0, 1.0, 4) == 24
    # never below the two-codeword payload floor
    assert dl_budget_bits(1.0, 0.0, 7) >= 14


def test_budget_covers_difference_of_small_codewords():
    # the pinned pair overhead must keep differences of two in-scope
    # codewords within the budget used by the analysis
    n, m = 256, 8
    rng = make_generator(914, "pair")
    for _ in range(20):
        nums_a, nums_b = [0] * n, [0] * n
        for nums in (nums_a, nums_b):
            for pos in rng.choice(n, size=2, replace=False):
                nums[pos] = int(rng.integers(1, 1 << m))
        from mcpursuit.quantize import QuantizedVector

        dl_a = encode_sparse(QuantizedVector(tuple(nums_a), m)).dl_bits
        dl_b = encode_sparse(QuantizedVector(tuple(nums_b), m)).dl_bits
        kappa = max(dl_a, dl_b) / (2 * m)
        assert dl_a + dl_b <= dl_budget_bits(kappa, kappa, m)
