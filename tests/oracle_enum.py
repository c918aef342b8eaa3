"""Brute-force reference for the constrained minimum-length search, and
the one enumerator of the codebooks.

iter_config_codebook yields every codeword admitted by a solver
configuration. brute_force_argmin decodes each one, scores it directly
against the measurements, and returns the feasible codeword minimizing
(length, residual, stream). No pruning, no shared search machinery: a
disagreement with the solver points at the search. The samples of a
piecewise codeword come from the codec's one sampler, codecs.pp_sampler,
which decode_any calls too: one sampler per breakpoint pattern decodes
all of that pattern's coefficient points in one call.

The codec soundness tests pass a length budget instead. A codeword's
length is fixed by its stratum (a sparse support, a piecewise degree and
breakpoint pattern, or the literal block), so the cut encodes one
representative per stratum (ones on the support, zero coefficient rows,
the zero vector) and skips the stratum when that codeword is longer than
the budget. It does no length arithmetic of its own.

Only usable at toy sizes; the callers keep n, m and the structure knobs
small enough that full enumeration stays in the low hundreds of thousands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from mcpursuit.codecs import (
    CodedSignal,
    _encode_pp_numerators,
    coeff_resolution,
    encode_literal,
    encode_sparse,
    pp_sampler,
)
from mcpursuit.quantize import QuantizedVector
from mcpursuit.solver import SolverConfig


def _sparse_vector(n: int, m: int, support, values) -> QuantizedVector:
    nums = [0] * n
    for pos, v in zip(support, values):
        nums[pos] = v
    return QuantizedVector(tuple(nums), m)


def iter_config_codebook(
    n: int, m: int, config: SolverConfig, budget: int | None = None
):
    """Yield (coded, vector) for every codeword within config's scope whose
    length is at most budget (every codeword when budget is None)."""

    def fits(coded: CodedSignal) -> bool:
        return budget is None or coded.dl_bits <= budget

    max_k = config.max_sparse_k
    max_k = n if max_k is None else min(max_k, n)
    for k in range(max_k + 1):
        for support in itertools.combinations(range(n), k):
            if not fits(encode_sparse(_sparse_vector(n, m, support, (1,) * k))):
                continue
            for values in itertools.product(range(1, 1 << m), repeat=k):
                q = _sparse_vector(n, m, support, values)
                yield encode_sparse(q), q
    if config.include_pp and n >= 1:
        for n_deg in range(min(config.pp_max_degree, n - 1) + 1):
            m_prime = coeff_resolution(n_deg, m)
            zero_row = (0,) * (n_deg + 1)
            rows = None
            for q_breaks in range(min(config.pp_max_breaks, n - 1) + 1):
                for breaks in itertools.combinations(range(1, n), q_breaks):
                    zeros = (zero_row,) * (q_breaks + 1)
                    if not fits(_encode_pp_numerators(breaks, zeros, n_deg, n, m)):
                        continue
                    if rows is None:
                        rows = [
                            row
                            for row in itertools.product(
                                range(1 << m_prime), repeat=n_deg + 1
                            )
                            if sum(row) < 1 << m_prime
                        ]
                    points = list(itertools.product(rows, repeat=q_breaks + 1))
                    flat = [list(itertools.chain.from_iterable(p)) for p in points]
                    samples = pp_sampler(breaks, n_deg, n, m)(flat).tolist()
                    for blocks, nums in zip(points, samples):
                        coded = _encode_pp_numerators(breaks, blocks, n_deg, n, m)
                        yield coded, QuantizedVector(tuple(nums), m)
    if config.include_literal and fits(encode_literal(QuantizedVector((0,) * n, m))):
        for nums in itertools.product(range(1 << m), repeat=n):
            q = QuantizedVector(nums, m)
            yield encode_literal(q), q


@dataclass(frozen=True)
class OracleAnswer:
    dl_bits: int
    residual: float
    stream: str
    vector: QuantizedVector


def brute_force_argmin(
    ens, y: np.ndarray, m: int, eta: float, config: SolverConfig
) -> OracleAnswer | None:
    """Best feasible codeword under (dl, residual, stream), or None."""
    a = np.asarray(ens.matrix, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    best = None
    for coded, q in iter_config_codebook(ens.n, m, config):
        res = float(np.linalg.norm(a @ np.array(q.to_floats()) - y))
        if res > eta:
            continue
        key = (coded.dl_bits, res, coded.payload)
        if best is None or key < best[0]:
            best = key, q
    if best is None:
        return None
    (dl, res, payload), q = best
    return OracleAnswer(dl, res, payload, q)


def assert_matches_oracle(result, oracle: OracleAnswer | None):
    """The solver result is the oracle's answer: the same status, length,
    stream, vector and residual, the last compared as floats with ==. Both
    score a vector by np.linalg.norm(A @ x - y), so a tie between two
    codewords of one length and residual goes to the earlier stream on
    both sides."""
    if oracle is None:
        assert result.status == "infeasible", (
            f"solver accepted a vector the oracle finds infeasible: {result}"
        )
        return
    got = (result.status, result.dl_bits, result.stream, result.x_hat, result.residual)
    want = ("ok", oracle.dl_bits, oracle.stream, oracle.vector, oracle.residual)
    assert got == want, f"solver {got} != oracle {want}"
