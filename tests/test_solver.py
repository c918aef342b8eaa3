"""Search correctness against brute-force enumeration, plus the error
bound helpers and the resource/infeasible contract."""

import gc
import itertools
import math
import time
import tracemalloc
import weakref
from dataclasses import replace
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
    _LS_MARGIN,
    ProbeStats,
    SolverConfig,
    SolverResourceError,
    _block_rows,
    _block_size,
    _budgeted_blocks,
    _ls2_residual_sq,
    _Search,
    _SubsetBound,
    corollary_error_bound,
    corollary_failure_prob,
    dl_budget_bits,
    mcp_exact,
    mcp_tolerant,
    predicted_error_bound,
)

from oracle_enum import assert_matches_oracle, brute_force_argmin
from subset_reference import panel_gram, reference_bound
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
        assert_matches_oracle(got, want, ens, y, eta)


@pytest.mark.parametrize("idx,n", [(0, 6), (1, 8), (2, 10)])
def test_matches_brute_force_pp_scope(idx, n):
    m, d = 2, max(3, n // 2)
    ens = sample_ensemble(n, d, derive_seed(901, "bf-pp", idx))
    rng = make_generator(901, "bf-pp-draw", idx)
    for kind in KINDS:
        y, eta = _draw_y(kind, ens, m, rng)
        got = mcp_exact(ens, y, m, eta, PP_SCOPE)
        want = brute_force_argmin(ens, y, m, eta, PP_SCOPE)
        assert_matches_oracle(got, want, ens, y, eta)


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
        assert_matches_oracle(got, want, ens, y, eta)


def test_matches_brute_force_with_literal():
    n, m, d = 4, 2, 3
    cfg = SolverConfig(max_sparse_k=4, include_pp=False, include_literal=True)
    ens = sample_ensemble(n, d, derive_seed(902, "bf-lit"))
    rng = make_generator(902, "bf-lit-draw")
    for kind in ("random", "barely", "sparse-exact"):
        y, eta = _draw_y(kind, ens, m, rng)
        got = mcp_exact(ens, y, m, eta, cfg)
        want = brute_force_argmin(ens, y, m, eta, cfg)
        assert_matches_oracle(got, want, ens, y, eta)


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
            assert_matches_oracle(got, want, ens, y, eta)


# ---------------------------------------------------------------------------
# budgeted stratum generator


@st.composite
def _budgeted_cases(draw):
    costs = sorted(draw(st.lists(st.integers(0, 12), max_size=8)))
    total = sum(costs)
    budget = draw(st.sampled_from([-1, 0, total + 1]) | st.integers(0, total))
    size, block_rows = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    return costs, size, budget, block_rows, draw(st.integers(1, 3))


@given(case=_budgeted_cases())
@settings(max_examples=300, deadline=None)
def test_budgeted_tuples_match_filtered_combinations(case):
    costs, size, budget, block_rows, panel_rows = case
    want = [
        t for t in itertools.combinations(range(len(costs)), size)
        if sum(costs[i] for i in t) <= budget
    ]
    with mock.patch.object(solver, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(solver, "_PANEL_ROWS", panel_rows):
        blocks = list(_budgeted_blocks(np.array(costs, dtype=np.int64), size, budget))
    rows = [_block_rows(b) for b in blocks]
    if size < 2:
        # the empty tuple, or every single index that fits, is one block
        assert len(blocks) <= 1
    for (prefix, firsts, _), r in zip(blocks, rows):
        assert len(prefix) == max(size - 2, 0)
        assert firsts is None or 0 < len(firsts)
        assert size < 2 or len(firsts) <= block_rows
        # a block's pair grid is read from the one Gram panel of its firsts
        assert size < 2 or firsts[0] // panel_rows == firsts[-1] // panel_rows
        assert r.dtype == np.int64 and r.shape[1] == size
        assert 0 < len(r) == _block_size((prefix, firsts, _))
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
    # supports pass the bound and are offered up to the winner's length,
    # up to 16 of them at one length.
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
        ((0, 1), 24), ((7, 8), 35), ((7, 10), 35),
        ((0, 1, 2), 31), ((0, 1, 4), 32), ((0, 1, 5), 32), ((0, 2, 3), 32),
        ((0, 1, 3), 32), ((0, 1, 6), 32), ((0, 2, 5), 32), ((0, 2, 4), 32),
        ((0, 4, 5), 33), ((0, 3, 6), 33), ((0, 3, 5), 33), ((0, 1, 11), 35),
        ((0, 1, 7), 35), ((0, 1, 8), 35), ((0, 1, 10), 35), ((0, 1, 9), 35),
        ((1, 2, 3), 35), ((0, 4, 7), 36), ((0, 5, 7), 36), ((0, 5, 8), 36),
        ((0, 5, 11), 36), ((0, 4, 11), 36), ((0, 4, 8), 36), ((1, 3, 5), 36),
        ((0, 5, 10), 36), ((1, 3, 4), 36), ((0, 3, 9), 36), ((2, 4, 6), 36),
        ((1, 3, 6), 36), ((0, 3, 11), 36), ((0, 3, 10), 36), ((0, 3, 7), 36),
        ((3, 4, 5), 37), ((1, 4, 7), 39), ((2, 6, 8), 39), ((2, 6, 10), 39),
        ((1, 5, 7), 39), ((0, 7, 8), 39), ((1, 3, 10), 39), ((2, 6, 7), 39),
        ((1, 3, 7), 39), ((1, 3, 9), 39), ((1, 3, 8), 39), ((0, 8, 11), 39),
        ((0, 7, 10), 39), ((2, 6, 9), 39), ((2, 6, 11), 39), ((1, 3, 11), 39),
        ((0, 10, 11), 39), ((4, 5, 7), 40), ((3, 4, 8), 40), ((3, 5, 10), 40),
        ((3, 4, 7), 40), ((3, 5, 7), 40), ((3, 5, 8), 40),
    ]),
], ids=["three-break", "degree1", "loose-sparse"])
def test_offer_sequence_is_pinned(instance, pinned, monkeypatch):
    # Values recorded before only the strata that pass the bound were
    # priced and sorted; the three-break one since strata are sorted once
    # per level. Strata of one length are offered by ascending bound, and
    # equal bounds in generation order, so a sort by length alone, or one
    # that is not stable, changes these sequences.
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
    # Strata are sorted once per level, so neither the first indices per
    # block, nor the degree >= 1 patterns whose columns are built at once,
    # nor the Gram panels kept may change what is offered, in what order,
    # or the counters.
    def run(patch):
        res, offers = _offer_sequence(instance, patch)
        return (res.dl_bits, res.stream, res.strata_examined, res.points_tested), offers

    with monkeypatch.context() as patch:
        want = run(patch)
    for block_rows, pp_chunk in itertools.product((1, 5, 64), (1, 7, 2048)):
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_BLOCK_ROWS", block_rows)
            patch.setattr(solver, "_PP_CHUNK", pp_chunk)
            patch.setattr(solver, "_PANEL_CACHE", 1 + block_rows % 2)
            assert run(patch) == want


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

    def counting_bound(self, block):
        rows, res_sq = subset_bound(self, block)
        passed.append(len(rows))
        return rows, res_sq

    def counting_lexsort(keys, *args, **kwargs):
        sorted_rows.append(len(keys[0]))
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
    (_unmeasured_first_instance, 302),
    (_three_break_instance, 18522),
], ids=["degree1", "literal", "free-level", "free-innermost", "three-break"])
@pytest.mark.parametrize("leaf_slice", [2, solver._LEAF_SLICE])
def test_node_cap_fires_at_the_same_node(instance, nodes, leaf_slice, monkeypatch):
    # Values recorded before the innermost walk level was batched: the
    # strata, points and walk steps each solve charges (ramp 154 + 241 + 0,
    # literal 46 + 18 + 72, one-sample piece 53 + 6,380 + 1,984, unmeasured
    # first coordinate 2 + 12 + 288; three-break, recorded once strata were
    # sorted per level, 18,521 + 1 + 0). The solve completes under exactly
    # that cap and runs out one node below it, so a walk that charges a
    # batch of leaves or walk steps differently, or a level that charges
    # strata it does not generate, fails here. 2-value slices split the
    # innermost visits of these walks.
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
        return (best[0] + slack) ** 2, math.inf if probe else best[0] + margin

    budget = solver._Budget(node_cap)
    try:
        walk(r_mat, qty, (eta + slack) ** 2, eta + margin, lo, hi, budget,
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


def _bound_level(b, y, costs, k, limit, forced=False):
    """Every k-tuple of indices into costs within their total cost, bounded
    block by block over the columns b (plus the last one if forced): the
    rows that pass limit and their residual^2."""
    bound = _SubsetBound(b, b.T @ y, float(y @ y), limit, forced)
    out = [bound(block) for block in _budgeted_blocks(costs, k, int(np.sum(costs)))]
    return np.concatenate([r for r, _ in out]), np.concatenate([v for _, v in out])


def _search_on(b, y, m, eta, config):
    """A search whose measurement matrix is b."""
    return _Search(MeasurementEnsemble(b, 0), y, m, eta, config, None)


@pytest.mark.parametrize("rows", [5, solver._BLOCK_ROWS])
def test_pair_scan_matches_gathered_reference(rows, monkeypatch):
    # 5-row blocks put the tied pairs below in different blocks
    monkeypatch.setattr(solver, "_BLOCK_ROWS", rows)
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
        keep = np.sqrt(all_res) <= eta + _LS_MARGIN
        search = _search_on(b, y, m, eta, PAIR_SCOPE)
        pairs, res_sq = _bound_level(b, y, search.pos_costs, 2, eta + _LS_MARGIN)
        np.testing.assert_array_equal(pairs, all_pairs[keep])
        np.testing.assert_array_equal(res_sq, all_res[keep])
        # singular pairs have bound 0 and survive any eta
        listed = [tuple(p) for p in pairs.tolist()]
        assert (9, 12) in listed and (20, 25) in listed

        offers.clear()
        search.run_sparse(2, 2)
        assert search.budget.strata == n * (n - 1) // 2
        dls = search.sparse_dl(2, 0) + search.pos_costs[pairs].sum(axis=1)
        order = np.lexsort((res_sq, dls))
        assert offers == [
            (tuple(p), dl) for p, dl in zip(pairs[order].tolist(), dls[order].tolist())
        ]
    # the tie is feasible at the larger eta, and stays in generation order
    offered = [p for p, _ in offers]
    at = offered.index((9, 30))
    assert offered[at + 1] == (12, 30)


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
        search.run_sparse(2, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # every pair is charged, none passes, so none is walked
    assert search.budget.strata == n * (n - 1) // 2
    assert search.budget.points == 0
    # the kept panels, one grid's screen and a little more
    assert peak <= (solver._PANEL_CACHE + 4) * panel_bytes


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
        # a limit keeps exactly the strata within it, in generation order
        limit = float(np.sqrt(np.median(got)))
        kept = np.sqrt(got) <= limit
        passed = _bound_level(b, y, costs, k, limit, forced)
        np.testing.assert_array_equal(passed[0], rows[kept])
        np.testing.assert_array_equal(passed[1], got[kept])
        # blocks cut anywhere give the same bits: each stratum depends only
        # on its own prefix
        with monkeypatch.context() as patch:
            patch.setattr(solver, "_BLOCK_ROWS", 1)
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
    # and the sparse scan offers every dependent support even at eta = 0
    search = _search_on(b, y, 3, 0.0, SolverConfig(max_sparse_k=3, include_pp=False))
    offers = _record_offers(monkeypatch)
    search.run_sparse(3, 3)
    offered = {support for support, _ in offers}
    for support in _lexicographic_rows(range(n), 3).tolist():
        if dependent(support):
            assert tuple(support) in offered


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
    block_rows = draw(st.sampled_from([1, 5, 64]))
    cache = draw(st.sampled_from([1, 2, 8]))
    slack = draw(st.integers(0, 6))
    scale = draw(st.sampled_from([0.0, 1e-8, 1e-3, 0.05, 0.3, 1.0]))
    return b, y, forced, k, slack, scale * float(np.linalg.norm(y)), block_rows, cache


def _spanning_case():
    # Three columns span R^2, so each pair plus the forced column fits y:
    # residual^2 is rounding noise around 0, and so is each row's c_i at
    # limit 0. Only the rule that keeps rows with c_i <= tau * rest keeps
    # the noise the exact formula rounds to 0.
    rng = np.random.default_rng(0)
    return rng.normal(size=(2, 3)), rng.normal(size=2), True, 2, 0, 0.0, 1, 1


@given(_screen_cases())
@example(_spanning_case())
@settings(max_examples=60, deadline=None)
def test_screened_bound_matches_full_grid(case):
    # Every block's rows and residual^2 must be those of the full-grid
    # reference, bit for bit: the screen may only drop cells that the
    # exact formula also puts above the limit.
    b, y, forced, k, slack, limit, block_rows, cache = case
    n = b.shape[1]
    yy = float(y @ y)
    corr = b.T @ y
    gram = panel_gram(b)
    costs = solver._position_costs(n - forced)
    budget = int(costs[:k].sum()) + slack
    with mock.patch.object(solver, "_BLOCK_ROWS", block_rows), \
            mock.patch.object(solver, "_PANEL_CACHE", cache):
        bound = _SubsetBound(b, corr, yy, limit, forced)
        for block in _budgeted_blocks(costs, k, budget):
            rows, res = bound(block)
            want_rows, want_res = reference_bound(
                gram, corr, yy, block, limit, (n - 1,) if forced else ())
            np.testing.assert_array_equal(rows, want_rows)
            assert res.tobytes() == want_res.tobytes()


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
        bound = search.pp_bound(n_deg, coeff_resolution(n_deg, m))
        for q in range(3):
            out = [bound(block) for block in _budgeted_blocks(costs, q, 0)]
            rows = np.concatenate([r for r, _ in out])
            got = np.concatenate([v for _, v in out])
            np.testing.assert_array_equal(rows, _lexicographic_rows(range(n - 1), q))
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
    rows, res_sq = search.pp_bound(n_deg, m_prime)(((), np.array([brk - 1]), None))
    assert rows.tolist() == [[brk - 1]]
    assert math.sqrt(res_sq[0]) > eta + _LS_MARGIN
    assert math.sqrt(res_sq[0]) <= eta + search.pp_slack + _LS_MARGIN


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


# ---------------------------------------------------------------------------
# error bound helpers


def test_predicted_error_bound_value():
    got = predicted_error_bound(256, 40, 8, 0.04, 1.0)
    assert got == pytest.approx(10.097975673813716, rel=1e-12)
    # building blocks
    ratio = (math.sqrt(256 / 40) + 1 + 1) / 0.04 + 1
    assert got == pytest.approx(ratio * quantization_gap_bound(256, 8), rel=1e-12)


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
