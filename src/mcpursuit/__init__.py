"""Minimum-complexity pursuit: recovering structured signals from
underdetermined Gaussian measurements by minimizing a computable
description-length surrogate."""

__version__ = "0.1.0"

from .quantize import (
    DyadicValue,
    QuantizedVector,
    quantization_gap_bound,
    quantize_vector,
    subtract_mod,
    truncate_bits,
)
from .codecs import (
    CodedSignal,
    decode_any,
    dl_surrogate,
    encode_sparse,
    log_star,
    pp_dl_bound,
    sparse_dl_bound,
)

__all__ = [
    "DyadicValue",
    "QuantizedVector",
    "quantization_gap_bound",
    "quantize_vector",
    "subtract_mod",
    "truncate_bits",
    "CodedSignal",
    "decode_any",
    "dl_surrogate",
    "encode_sparse",
    "log_star",
    "pp_dl_bound",
    "sparse_dl_bound",
]
