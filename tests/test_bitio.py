import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcpursuit.bitio import (
    BitReader,
    BitWriter,
    DecodeError,
    bits_to_bytes,
    bytes_to_bits,
)

bit_strings = st.text(alphabet="01", min_size=0, max_size=300)


def test_writer_fixed_width():
    w = BitWriter()
    w.write_fixed(5, 3)
    w.write_fixed(0, 2)
    w.write_fixed(0, 0)  # width 0 writes nothing
    w.write_bits("1")
    assert w.getvalue() == "101001"
    assert len(w.getvalue()) == 6


def test_writer_rejects_overflow():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write_fixed(8, 3)
    with pytest.raises(ValueError):
        w.write_fixed(-1, 3)


def test_reader_sequences():
    r = BitReader("101001")
    assert r.read_bit() == 1
    assert r.read_fixed(3) == 0b010
    assert r.read_fixed(2) == 0b01
    r.expect_end()


def test_reader_exhaustion_raises():
    r = BitReader("1")
    r.read_bit()
    with pytest.raises(DecodeError):
        r.read_bit()
    with pytest.raises(DecodeError):
        BitReader("10").read_fixed(3)


def test_expect_end_rejects_leftover():
    r = BitReader("10")
    r.read_bit()
    with pytest.raises(DecodeError):
        r.expect_end()


@given(bits=bit_strings)
def test_byte_framing_roundtrip(bits):
    assert bytes_to_bits(bits_to_bytes(bits)) == bits


def test_byte_framing_trailer():
    data = bits_to_bytes("10110")
    assert data[-1] == 3  # five bits leave three pad bits
    assert bytes_to_bits(data) == "10110"
    assert bits_to_bytes("")[-1] == 0


def test_byte_framing_rejects_corruption():
    with pytest.raises(DecodeError):
        bytes_to_bits(b"")  # no trailer byte at all
    with pytest.raises(DecodeError):
        bytes_to_bits(bytes([0b10110000, 9]))  # pad count over 7
    with pytest.raises(DecodeError):
        bytes_to_bits(bytes([0b10110001, 3]))  # nonzero bit inside the pad
