"""Fixed-width bit packing helpers.

Bit strings are kept left-aligned: the first field occupies the most
significant bits, and byte serialization pads with zero bits at the end.
"""

from __future__ import annotations


# Fields go in runs of this many.  A run spans 64*width bits, a whole
# number of bytes, so runs join and split as bytes and the cost stays
# linear in the field count.
_RUN = 64


def _pack_run(values, width: int) -> int:
    acc = 0
    top = 1 << width
    for v in values:
        if not 0 <= v < top:
            raise ValueError(f"field {v} does not fit in {width} bits")
        acc = (acc << width) | v
    return acc


def pack_fields(values, width: int) -> tuple[int, int]:
    """Pack a list or tuple of equal-width fields into one int; returns
    (value, total_bits)."""
    n_bits = len(values) * width
    if len(values) <= _RUN:
        return _pack_run(values, width), n_bits
    cut = (len(values) - 1) // _RUN * _RUN  # the fields before the last run
    head = b"".join(
        _pack_run(values[i : i + _RUN], width).to_bytes(8 * width, "big")
        for i in range(0, cut, _RUN)
    )
    tail = _pack_run(values[cut:], width)
    return int.from_bytes(head, "big") << n_bits - 8 * len(head) | tail, n_bits


def _unpack_run(value: int, n_bits: int, width: int, out: list[int]) -> list[int]:
    mask = (1 << width) - 1
    for shift in range(n_bits - width, -1, -width):
        out.append((value >> shift) & mask)
    return out


def unpack_fields(value: int, total_bits: int, width: int) -> list[int]:
    if width <= 0 or total_bits % width:
        raise ValueError("bit length not a multiple of field width")
    if total_bits <= _RUN * width:
        return _unpack_run(value, total_bits, width, [])
    tail_bits = (total_bits // width - 1) % _RUN * width + width  # the last run
    n_head = (total_bits - tail_bits) // 8
    head = (value >> tail_bits & (1 << 8 * n_head) - 1).to_bytes(n_head, "big")
    out: list[int] = []
    for i in range(0, n_head, 8 * width):
        _unpack_run(int.from_bytes(head[i : i + 8 * width], "big"), _RUN * width, width, out)
    return _unpack_run(value & (1 << tail_bits) - 1, tail_bits, width, out)


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
