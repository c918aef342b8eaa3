"""Output checks made apart from the solver.

Each function returns the list of ways its input fails; an empty list
passes. They recompute what they compare against with numpy, scipy and
a stream-header reader of their own, never with the solver.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import binom, chi2, norm

# Room for float rounding between the solver's QR-based residual and the
# plain norm recomputed here.
RESIDUAL_REL_TOL = 1e-9
SIGMA_REL_TOL = 1e-5
# The chi-square cells of one run together reject a correct program with
# at most the probability of a 4-sigma normal deviation, split evenly over
# the cells and the two tails of each cell's exact binomial count.
CHI_FALSE_ALARM = 2.0 * norm.sf(4.0)

_TAGS = {"000": "sparse", "001": "piecewise_poly", "010": "literal",
         "011": "compressor_proxy"}


def _read_uint(bits: str, pos: int) -> tuple[int, int]:
    """Elias-delta style universal integer, as the codecs lay it out."""
    zeros = 0
    while bits[pos] == "0":
        zeros += 1
        pos += 1
    gamma = int(bits[pos:pos + zeros + 1], 2)
    pos += zeros + 1
    exp = gamma - 1
    low = int(bits[pos:pos + exp], 2) if exp else 0
    return (1 << exp) | low, pos + exp


def stream_shape(stream: str) -> tuple[str, dict]:
    """Codec and shape fields from a codeword's header."""
    codec = _TAGS.get(stream[:3], "unknown")
    pos = 3
    if codec == "sparse":
        n, pos = _read_uint(stream, pos)
        k1, pos = _read_uint(stream, pos)
        return codec, {"n": n, "k": k1 - 1}
    if codec == "piecewise_poly":
        n, pos = _read_uint(stream, pos)
        deg1, pos = _read_uint(stream, pos)
        q1, pos = _read_uint(stream, pos)
        return codec, {"n": n, "degree": deg1 - 1, "breaks": q1 - 1}
    return codec, {}


def scope_problems(stream: str, codec_id: str, n: int, config) -> list[str]:
    try:
        codec, shape = stream_shape(stream)
    except (IndexError, ValueError):
        return ["stream header does not parse"]
    out = []
    if codec != codec_id:
        out.append(f"stream tag says {codec}, result says {codec_id}")
    if shape.get("n", n) != n:
        out.append(f"stream is for n={shape['n']}, not {n}")
    if codec == "sparse":
        k_max = n if config.max_sparse_k is None else config.max_sparse_k
        if shape["k"] > k_max:
            out.append(f"sparse support {shape['k']} exceeds scope {k_max}")
    elif codec == "piecewise_poly":
        if not config.include_pp:
            out.append("piecewise codeword outside a sparse-only scope")
        if shape["degree"] > config.pp_max_degree:
            out.append(f"degree {shape['degree']} exceeds scope")
        if shape["breaks"] > config.pp_max_breaks:
            out.append(f"{shape['breaks']} breaks exceed scope")
    elif codec != "literal" or not config.include_literal:
        out.append(f"codec {codec} is outside the declared scope")
    return out


def residual(a: np.ndarray, y: np.ndarray, nums, m: int) -> float:
    x = np.ldexp(np.asarray(nums, dtype=np.float64), -m)
    return float(np.linalg.norm(a @ x - y))


def within_eta(res: float, eta: float) -> bool:
    return res <= eta * (1.0 + RESIDUAL_REL_TOL) + 1e-12


def answer_problems(a, y, m, eta, config, result, decoded) -> list[str]:
    """Residual, decode round trip, length and scope of one answer.

    decoded is decode_any applied to the answer's stream (or None when
    the stream did not decode)."""
    nums = result.x_hat.numerators
    out = []
    res = residual(a, y, nums, m)
    if not within_eta(res, eta):
        out.append(f"residual {res!r} exceeds eta {eta!r}")
    if decoded is None:
        out.append("stream does not decode")
    elif tuple(decoded.numerators) != tuple(nums):
        out.append("stream decodes to another vector")
    if len(result.stream) != result.dl_bits:
        out.append(f"stream has {len(result.stream)} bits, dl_bits says "
                   f"{result.dl_bits}")
    out += scope_problems(result.stream, result.codec_id, len(nums), config)
    return out


def minimality_problems(result, truth_bits: int, truth_feasible: bool) -> list[str]:
    """No feasible in-scope codeword may be shorter than the answer."""
    if not truth_feasible:
        return []
    if result.status != "ok":
        return ["no answer although the truth's codeword is feasible"]
    if result.dl_bits > truth_bits:
        return [f"dl_bits {result.dl_bits} longer than the truth's feasible "
                f"codeword ({truth_bits})"]
    return []


def sigma_problems(sigma: float, ref: float) -> list[str]:
    """ref is the largest singular value from an SVD."""
    if abs(sigma - ref) > SIGMA_REL_TOL * ref:
        return [f"sigma_max {sigma!r} differs from the SVD's {ref!r}"]
    return []


def eta_problems(eta: float, sigma_ref: float, n: int, m: int) -> list[str]:
    """The default tolerance is sigma_max * sqrt(n * 2^(1-2m))."""
    want = sigma_ref * math.sqrt(n * 2.0 ** (1 - 2 * m))
    if abs(eta - want) > SIGMA_REL_TOL * want:
        return [f"eta {eta!r} is not sigma_max * gap ({want!r})"]
    return []


def chi_bound(d: int, tau: float) -> float:
    return math.exp(0.5 * d * (tau + math.log1p(-tau)))


def sigma_bound(d: int, t: float) -> float:
    return math.exp(-0.5 * d * t * t)


def _binomial_sd(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)


def bound_problems(rate: float, bound: float, trials: int) -> list[str]:
    if rate > bound + 3.0 * _binomial_sd(bound, trials):
        return [f"rate {rate!r} above bound {bound!r} + 3 sigma"]
    return []


def chi_cell_problems(d: int, tau: float, trials: int, rate: float,
                      cells: int) -> list[str]:
    """Rate of |Az|^2 <= 1 - tau against the exact chi-square CDF, and
    against the closed-form bound. `cells` is the number of chi-square
    cells checked in one run.

    The hit count is held to exact binomial tails, not to a normal
    approximation: the rarest cells expect less than one hit, and there a
    few hits are far more likely than their distance in sigma suggests."""
    exact = float(chi2.cdf(d * (1.0 - tau), d))
    tail = CHI_FALSE_ALARM / (2 * cells)
    lo = binom.ppf(tail, trials, exact)
    hi = binom.isf(tail, trials, exact)
    hits = round(rate * trials)
    out = []
    if not lo <= hits <= hi:
        out.append(f"rate {rate!r} ({hits} hits) is outside the binomial "
                   f"range [{lo:g}, {hi:g}] hits around the exact {exact!r}")
    return out + bound_problems(rate, chi_bound(d, tau), trials)
