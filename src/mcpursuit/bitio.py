"""Bitstring utilities shared by the prefix-free codecs.

Streams are '0'/'1' strings (MSB first) while in memory; on disk they are
packed into bytes followed by a single trailer byte holding the number of
padding bits added to reach a byte boundary.
"""

from __future__ import annotations

__all__ = ["BitWriter", "BitReader", "DecodeError", "bits_to_bytes", "bytes_to_bits"]


class DecodeError(ValueError):
    """Raised when a bitstream is truncated or malformed."""


class BitWriter:
    def __init__(self) -> None:
        self._parts: list[str] = []

    def write_bits(self, bits: str) -> None:
        self._parts.append(bits)

    def write_fixed(self, value: int, width: int) -> None:
        """Write value as exactly width bits, MSB first."""
        if width < 0 or value < 0 or value >= (1 << width):
            raise ValueError("value does not fit in width bits")
        if width:
            self._parts.append(format(value, f"0{width}b"))

    def getvalue(self) -> str:
        return "".join(self._parts)


class BitReader:
    def __init__(self, bits: str) -> None:
        self._bits = bits
        self._pos = 0

    def read_bit(self) -> int:
        if self._pos >= len(self._bits):
            raise DecodeError("bitstream exhausted")
        b = self._bits[self._pos]
        self._pos += 1
        return 1 if b == "1" else 0

    def read_fixed(self, width: int) -> int:
        if self._pos + width > len(self._bits):
            raise DecodeError("bitstream exhausted")
        chunk = self._bits[self._pos : self._pos + width]
        self._pos += width
        return int(chunk, 2) if width else 0

    def expect_end(self) -> None:
        if self._pos != len(self._bits):
            raise DecodeError("trailing bits after codeword")


def bits_to_bytes(bits: str) -> bytes:
    """Pack a bitstring into bytes with an 8-bit pad-length trailer."""
    pad = (-len(bits)) % 8
    padded = bits + "0" * pad
    out = bytearray()
    for i in range(0, len(padded), 8):
        out.append(int(padded[i : i + 8], 2))
    out.append(pad)
    return bytes(out)


def bytes_to_bits(data: bytes) -> str:
    if len(data) < 1:
        raise DecodeError("missing pad trailer")
    pad = data[-1]
    if pad > 7:
        raise DecodeError(f"invalid pad length {pad}")
    body = data[:-1]
    if pad and not body:
        raise DecodeError("pad exceeds stream length")
    bits = "".join(format(b, "08b") for b in body)
    if pad:
        if any(c == "1" for c in bits[len(bits) - pad :]):
            raise DecodeError("nonzero padding bits")
        bits = bits[: len(bits) - pad]
    return bits
