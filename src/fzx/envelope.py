"""Bit-exact framing for sketches, and one-message set reconciliation.

Wire layout, big-endian throughout:

    magic "FZX1" | scheme u8 | m u8 | t u16 | aux | payload

`_WIRE` holds one record per scheme id: its CLI name, the byte widths of
its aux fields (none for the Hamming schemes and PinSketch; ijs u16 s;
origjs u16 s, u16 r; edit u32 n, u16 c, u16 t_edit) and its parser, which
makes the sketching side's own shape check before it reads the payload.
Every serializer is one `_frame` call.  Payloads are bit-packed,
left-aligned, and zero-padded to a byte; the pad bits must be zero.  An
edit payload ends with the recovery indices, each minus one, in
(n-c).bit_length() bits; an index above the n-c+1 shingles is rejected.
"""

import struct
from dataclasses import dataclass
from typing import Callable

from .bitpack import bits_to_bytes, bytes_to_bits, pack_fields, unpack_fields, word_from_bytes, word_to_bytes
from .edit import EditSketch, RecoveryInfo, edit_capacity
from .gf2m import field_of
from .hamming import CodeOffsetSketch, HammingParams, PermutedSketch, SyndromeSketch, bch_params
from .setdiff import ElementSet, IjsSketchData, OrigJsSketchData, PinSketchData, pinsketch_code, pinsketch_rec

__all__ = [
    "MAGIC", "SCHEME_NAMES", "SCHEME_HAMMING_SYN", "SCHEME_HAMMING_OFFSET", "SCHEME_PINSKETCH",
    "SCHEME_IJS", "SCHEME_EDIT", "SCHEME_HAMMING_PERM", "SCHEME_ORIGJS",
    "MalformedEnvelope", "Envelope", "ReconcileReport",
    "serialize_hamming_syn", "serialize_hamming_offset", "serialize_hamming_perm",
    "serialize_pinsketch", "serialize_ijs", "serialize_origjs", "serialize_edit",
    "deserialize", "reconcile_respond",
]

MAGIC = b"FZX1"

SCHEME_HAMMING_SYN = 0x01
SCHEME_HAMMING_OFFSET = 0x02
SCHEME_PINSKETCH = 0x03
SCHEME_IJS = 0x04
SCHEME_EDIT = 0x05
SCHEME_HAMMING_PERM = 0x06
SCHEME_ORIGJS = 0x07


class MalformedEnvelope(ValueError):
    """Rejected wire data; `code` names the specific defect."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(f"{code}: {message}")


@dataclass(frozen=True)
class Envelope:
    """A parsed sketch envelope; `sketch` is the scheme's native type."""

    scheme: int
    m: int
    t: int
    sketch: object
    params: HammingParams | None = None
    c: int | None = None
    t_edit: int | None = None


# ---------------------------------------------------------------------------
# Writing


def _frame(scheme: int, m: int, t: int, aux: tuple[int, ...], *segments: bytes) -> bytes:
    """The envelope: header, aux fields at the widths of the scheme's
    record, then the payload segments as given."""
    if not 1 <= m <= 0xFF:
        raise ValueError("m out of envelope range")
    if not 0 <= t <= 0xFFFF:
        raise ValueError("t out of envelope range")
    parts = [MAGIC, bytes((scheme, m)), t.to_bytes(2, "big")]
    for value, width in zip(aux, _WIRE[scheme].aux, strict=True):
        if not 0 <= value < 1 << 8 * width:
            raise ValueError(f"aux field {value} out of envelope range")
        parts.append(value.to_bytes(width, "big"))
    return b"".join(parts + list(segments))


def _byte_width(m: int) -> int:
    # an edit syndrome travels as whole bytes per field element
    return 8 * ((m + 7) // 8)


def _edit_shape(m: int, n: int, c: int, t_edit: int, t: int) -> None:
    """ValueError unless an edit sketch of an n-character string over
    GF(2^m) with shingle length c has the capacity t that `edit_ss` gives
    it, (2c-1) * t_edit, for a 1- or 8-bit alphabet."""
    if c < 1 or (m - 1) % c or (m - 1) // c not in (1, 8):
        raise ValueError("m does not match a supported alphabet")
    if edit_capacity(n, c, t_edit, (m - 1) // c) != t:
        raise ValueError("t must equal (2c-1) * t_edit")


def serialize_hamming_syn(params: HammingParams, sk: SyndromeSketch) -> bytes:
    if sk.n_bits != params.syndrome_bits:
        raise ValueError("sketch width does not match parameters")
    syn = bits_to_bytes(sk.syn_bits, sk.n_bits)
    return _frame(SCHEME_HAMMING_SYN, params.code.field.m, params.t, (), syn)


def serialize_hamming_offset(params: HammingParams, sk: CodeOffsetSketch) -> bytes:
    if sk.n_bits != params.n:
        raise ValueError("sketch width does not match parameters")
    shift = word_to_bytes(sk.shift, sk.n_bits)
    return _frame(SCHEME_HAMMING_OFFSET, params.code.field.m, params.t, (), shift)


def serialize_hamming_perm(params: HammingParams, sk: PermutedSketch) -> bytes:
    if len(sk.perm) != params.n or sk.syn.n_bits != params.syndrome_bits:
        raise ValueError("sketch shape does not match parameters")
    perm = struct.pack(f">{params.n}I", *sk.perm)
    syn = bits_to_bytes(sk.syn.syn_bits, sk.syn.n_bits)
    return _frame(SCHEME_HAMMING_PERM, params.code.field.m, params.t, (), perm, syn)


def serialize_pinsketch(sk: PinSketchData) -> bytes:
    pinsketch_code(sk.field, sk.t)  # the capacity check deserialize makes
    sums = bits_to_bytes(*pack_fields(sk.odd_sums, sk.field.m))
    return _frame(SCHEME_PINSKETCH, sk.field.m, sk.t, (), sums)


def serialize_ijs(sk: IjsSketchData) -> bytes:
    coeffs = bits_to_bytes(*pack_fields(sk.top_coeffs, sk.field.m))
    return _frame(SCHEME_IJS, sk.field.m, sk.t, (sk.s,), coeffs)


def serialize_origjs(sk: OrigJsSketchData) -> bytes:
    pairs = bits_to_bytes(*pack_fields([v for pair in sk.pairs for v in pair], sk.field.m))
    return _frame(SCHEME_ORIGJS, sk.field.m, sk.t, (sk.s, sk.r), pairs)


def serialize_edit(sk: EditSketch, c: int, t_edit: int) -> bytes:
    m, n = sk.s1.field.m, sk.s2.n
    _edit_shape(m, n, c, t_edit, sk.s1.t)
    # 1-based indices of at most n-c+1 shingles travel 0-based
    indices = bits_to_bytes(*pack_fields([i - 1 for i in sk.s2.indices], (n - c).bit_length()))
    syn = bits_to_bytes(*pack_fields(sk.s1.odd_sums, _byte_width(m)))
    return _frame(SCHEME_EDIT, m, sk.s1.t, (n, c, t_edit), syn, indices)


# ---------------------------------------------------------------------------
# Reading


class _Reader:
    """An envelope read front to back; a shortfall or a bad payload
    raises MalformedEnvelope."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise MalformedEnvelope("truncated", f"need {n} bytes at offset {self.pos}")
        self.pos += n
        return self.data[self.pos - n : self.pos]

    def rest(self, n_bits: int, decode=None) -> int:
        """All remaining bytes as one n_bits-bit string, through
        `bytes_to_bits` or the given decoder."""
        tail = self.data[self.pos :]
        n_bytes = (n_bits + 7) // 8
        if len(tail) != n_bytes:
            msg = f"payload is {len(tail)} bytes, header implies {n_bytes}"
            raise MalformedEnvelope("length-mismatch", msg)
        try:
            return (decode or bytes_to_bits)(tail, n_bits)
        except ValueError as exc:
            raise MalformedEnvelope("padding", str(exc)) from exc

    def fields(self, count: int, width: int) -> list[int]:
        """All remaining bytes as count fields of width bits each."""
        return unpack_fields(self.rest(count * width), count * width, width)


def _hamming_syn(scheme, m, t, rd):
    p = bch_params(m, t)
    return Envelope(scheme, m, t, SyndromeSketch(rd.rest(t * m), t * m), params=p)


def _hamming_offset(scheme, m, t, rd):
    p = bch_params(m, t)
    shift = rd.rest(p.n, word_from_bytes)
    return Envelope(scheme, m, t, CodeOffsetSketch(shift, p.n), params=p)


def _hamming_perm(scheme, m, t, rd):
    p = bch_params(m, t)
    perm = struct.unpack(f">{p.n}I", rd.take(4 * p.n))
    sk = PermutedSketch(perm, SyndromeSketch(rd.rest(t * m), t * m))
    return Envelope(scheme, m, t, sk, params=p)


def _pinsketch(scheme, m, t, rd):
    field = field_of(m)
    pinsketch_code(field, t)
    return Envelope(scheme, m, t, PinSketchData(field, t, tuple(rd.fields(t, m))))


def _ijs(scheme, m, t, rd, s):
    field = field_of(m)
    return Envelope(scheme, m, t, IjsSketchData(field, s, t, tuple(rd.fields(t, m))))


def _origjs(scheme, m, t, rd, s, r):
    field = field_of(m)
    flat = rd.fields(2 * r, m)
    pairs = tuple(zip(flat[0::2], flat[1::2]))
    return Envelope(scheme, m, t, OrigJsSketchData(field, s, r, t, pairs))


def _edit(scheme, m, t, rd, n, c, t_edit):
    try:
        _edit_shape(m, n, c, t_edit, t)
    except ValueError as exc:
        raise MalformedEnvelope("bad-header", str(exc)) from exc
    field = field_of(m)
    width = _byte_width(m)
    sums = unpack_fields(int.from_bytes(rd.take(t * width // 8), "big"), t * width, width)
    s1 = PinSketchData(field, t, tuple(sums))
    indices = tuple(i + 1 for i in rd.fields(-(-n // c), (n - c).bit_length()))
    if max(indices) > n - c + 1:
        raise MalformedEnvelope("bad-index", f"recovery index above {n - c + 1} shingles")
    return Envelope(scheme, m, t, EditSketch(s1, RecoveryInfo(n, indices)), c=c, t_edit=t_edit)


@dataclass(frozen=True)
class _Wire:
    """One scheme on the wire.  parse(scheme, m, t, reader, *aux) reads
    the payload and returns the Envelope."""

    name: str  # the CLI's --scheme value
    aux: tuple[int, ...]  # byte widths of the aux fields
    parse: Callable


_WIRE = {
    SCHEME_HAMMING_SYN: _Wire("hamming-syn", (), _hamming_syn),
    SCHEME_HAMMING_OFFSET: _Wire("hamming-offset", (), _hamming_offset),
    SCHEME_HAMMING_PERM: _Wire("hamming-perm", (), _hamming_perm),
    SCHEME_PINSKETCH: _Wire("pinsketch", (), _pinsketch),
    SCHEME_IJS: _Wire("ijs", (2,), _ijs),
    SCHEME_ORIGJS: _Wire("origjs", (2, 2), _origjs),
    SCHEME_EDIT: _Wire("edit", (4, 2, 2), _edit),
}

# wire id -> CLI name, for every scheme with a wire format
SCHEME_NAMES = {scheme: wire.name for scheme, wire in _WIRE.items()}


def deserialize(data: bytes) -> Envelope:
    rd = _Reader(data)
    head = rd.take(8)
    if head[:4] != MAGIC:
        raise MalformedEnvelope("bad-magic", f"expected {MAGIC!r}")
    scheme, m, t = head[4], head[5], int.from_bytes(head[6:8], "big")
    wire = _WIRE.get(scheme)
    if wire is None:
        raise MalformedEnvelope("bad-scheme", f"unknown scheme 0x{scheme:02x}")
    if m < 1:
        raise MalformedEnvelope("bad-header", "m must be >= 1")
    aux = [int.from_bytes(rd.take(width), "big") for width in wire.aux]
    try:
        return wire.parse(scheme, m, t, rd, *aux)
    except MalformedEnvelope:
        raise
    except ValueError as exc:
        raise MalformedEnvelope("inconsistent", str(exc)) from exc


# ---------------------------------------------------------------------------
# One-message set reconciliation


@dataclass(frozen=True)
class ReconcileReport:
    """The two one-sided differences between a local and a remote set."""

    local_only: ElementSet
    remote_only: ElementSet

    def __post_init__(self):
        if set(self.local_only.elems) & set(self.remote_only.elems):
            raise ValueError("one-sided differences must be disjoint")


def reconcile_respond(local: ElementSet, env: Envelope) -> ReconcileReport:
    """Recover the remote set from its PinSketch and split the difference."""
    if env.scheme != SCHEME_PINSKETCH:
        raise ValueError("reconciliation needs a PinSketch envelope")
    remote = pinsketch_rec(local, env.sketch)
    ours, theirs = set(local.elems), set(remote.elems)
    field = local.field
    return ReconcileReport(
        ElementSet.of(field, ours - theirs),
        ElementSet.of(field, theirs - ours),
    )
