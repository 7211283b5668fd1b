"""Fixed-width bit packing helpers.

Bit strings are kept left-aligned: the first field occupies the most
significant bits, and byte serialization pads with zero bits at the end.
"""

from __future__ import annotations


def pack_fields(values, width: int) -> tuple[int, int]:
    """Pack equal-width fields into one int; returns (value, total_bits)."""
    acc = 0
    n = 0
    top = 1 << width
    for v in values:
        if not 0 <= v < top:
            raise ValueError(f"field {v} does not fit in {width} bits")
        acc = (acc << width) | v
        n += width
    return acc, n


def unpack_fields(value: int, total_bits: int, width: int) -> list[int]:
    if width <= 0 or total_bits % width:
        raise ValueError("bit length not a multiple of field width")
    out = []
    for shift in range(total_bits - width, -1, -width):
        out.append((value >> shift) & ((1 << width) - 1))
    return out


def bits_to_bytes(value: int, n_bits: int) -> bytes:
    """Left-aligned: value's top bit lands in the top bit of the first byte."""
    if value >> n_bits:
        raise ValueError("value wider than stated bit length")
    n_bytes = (n_bits + 7) // 8
    return (value << (8 * n_bytes - n_bits)).to_bytes(n_bytes, "big")


def bytes_to_bits(data: bytes, n_bits: int) -> int:
    """Inverse of bits_to_bytes; rejects nonzero padding bits."""
    n_bytes = (n_bits + 7) // 8
    if len(data) != n_bytes:
        raise ValueError("wrong byte length for bit string")
    acc = int.from_bytes(data, "big")
    pad = 8 * n_bytes - n_bits
    if acc & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits")
    return acc >> pad


def word_to_bytes(word: int, n_bits: int) -> bytes:
    """Serialize an n-bit word (bit i = position i) MSB-first per byte, so
    word bit i is wire bit i: the word's bit string reversed, left-aligned."""
    if word >> n_bits:
        raise ValueError("word wider than stated bit length")
    return bits_to_bytes(int(format(word, f"0{n_bits}b")[::-1], 2), n_bits)


def word_from_bytes(data: bytes, n_bits: int) -> int:
    """Inverse of word_to_bytes; rejects nonzero padding bits."""
    return int(format(bytes_to_bits(data, n_bits), f"0{n_bits}b")[::-1], 2)
