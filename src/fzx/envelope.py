"""Bit-exact framing for sketches, and one-message set reconciliation.

Wire layout, big-endian throughout:

    magic "FZX1" | scheme u8 | m u8 | t u16 | aux | payload

aux is scheme-specific: ijs carries u16 s; origjs u16 s, u16 r; edit
u32 n, u16 c, u16 t_edit.  Payloads are bit-packed, left-aligned, and
zero-padded to a byte; the pad bits must be zero.  An edit payload ends
with the recovery indices, each minus one, in (n-c).bit_length() bits;
an index above the n-c+1 shingles of the string is rejected.
"""

from dataclasses import dataclass

from .bitpack import bits_to_bytes, bytes_to_bits, pack_fields, unpack_fields, word_from_bytes, word_to_bytes
from .codec import BchCode
from .edit import EditSketch, RecoveryInfo
from .gf2m import field_of
from .hamming import (
    CodeOffsetSketch,
    HammingParams,
    PermutedSketch,
    SyndromeSketch,
    bch_params,
)
from .setdiff import (
    ElementSet,
    IjsSketchData,
    OrigJsSketchData,
    PinSketchData,
    pinsketch_rec,
)

__all__ = [
    "MAGIC",
    "SCHEME_HAMMING_SYN",
    "SCHEME_HAMMING_OFFSET",
    "SCHEME_PINSKETCH",
    "SCHEME_IJS",
    "SCHEME_EDIT",
    "SCHEME_HAMMING_PERM",
    "SCHEME_ORIGJS",
    "SCHEME_NAMES",
    "MalformedEnvelope",
    "Envelope",
    "ReconcileReport",
    "serialize_hamming_syn",
    "serialize_hamming_offset",
    "serialize_hamming_perm",
    "serialize_pinsketch",
    "serialize_ijs",
    "serialize_origjs",
    "serialize_edit",
    "deserialize",
    "reconcile_respond",
]

MAGIC = b"FZX1"

SCHEME_HAMMING_SYN = 0x01
SCHEME_HAMMING_OFFSET = 0x02
SCHEME_PINSKETCH = 0x03
SCHEME_IJS = 0x04
SCHEME_EDIT = 0x05
SCHEME_HAMMING_PERM = 0x06
SCHEME_ORIGJS = 0x07

# wire id -> CLI name, for every scheme with a wire format
SCHEME_NAMES = {
    SCHEME_HAMMING_SYN: "hamming-syn",
    SCHEME_HAMMING_OFFSET: "hamming-offset",
    SCHEME_HAMMING_PERM: "hamming-perm",
    SCHEME_PINSKETCH: "pinsketch",
    SCHEME_IJS: "ijs",
    SCHEME_ORIGJS: "origjs",
    SCHEME_EDIT: "edit",
}


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


def _header(scheme: int, m: int, t: int) -> bytes:
    if not 1 <= m <= 0xFF:
        raise ValueError("m out of envelope range")
    if not 0 <= t <= 0xFFFF:
        raise ValueError("t out of envelope range")
    return MAGIC + bytes([scheme, m]) + t.to_bytes(2, "big")


# ---------------------------------------------------------------------------
# Serializers


def _byte_width(m: int) -> int:
    # an edit syndrome travels as whole bytes per field element
    return 8 * ((m + 7) // 8)


def serialize_hamming_syn(params: HammingParams, sk: SyndromeSketch) -> bytes:
    code = params.code
    if sk.n_bits != params.syndrome_bits:
        raise ValueError("sketch width does not match parameters")
    return _header(SCHEME_HAMMING_SYN, code.field.m, code.t) + bits_to_bytes(
        sk.syn_bits, sk.n_bits
    )


def serialize_hamming_offset(params: HammingParams, sk: CodeOffsetSketch) -> bytes:
    code = params.code
    if sk.n_bits != params.n:
        raise ValueError("sketch width does not match parameters")
    return _header(SCHEME_HAMMING_OFFSET, code.field.m, code.t) + word_to_bytes(
        sk.shift, sk.n_bits
    )


def serialize_hamming_perm(params: HammingParams, sk: PermutedSketch) -> bytes:
    code = params.code
    if len(sk.perm) != params.n or sk.syn.n_bits != params.syndrome_bits:
        raise ValueError("sketch shape does not match parameters")
    body = b"".join(i.to_bytes(4, "big") for i in sk.perm)
    return (
        _header(SCHEME_HAMMING_PERM, code.field.m, code.t)
        + body
        + bits_to_bytes(sk.syn.syn_bits, sk.syn.n_bits)
    )


def serialize_pinsketch(sk: PinSketchData) -> bytes:
    value, nb = pack_fields(sk.odd_sums, sk.field.m)
    return _header(SCHEME_PINSKETCH, sk.field.m, sk.t) + bits_to_bytes(value, nb)


def serialize_ijs(sk: IjsSketchData) -> bytes:
    if sk.s > 0xFFFF:
        raise ValueError("set size too large for envelope")
    value, nb = pack_fields(sk.top_coeffs, sk.field.m)
    return (
        _header(SCHEME_IJS, sk.field.m, sk.t)
        + sk.s.to_bytes(2, "big")
        + bits_to_bytes(value, nb)
    )


def serialize_origjs(sk: OrigJsSketchData) -> bytes:
    if sk.s > 0xFFFF or sk.r > 0xFFFF:
        raise ValueError("set size too large for envelope")
    flat = [v for pair in sk.pairs for v in pair]
    value, nb = pack_fields(flat, sk.field.m)
    return (
        _header(SCHEME_ORIGJS, sk.field.m, sk.t)
        + sk.s.to_bytes(2, "big")
        + sk.r.to_bytes(2, "big")
        + bits_to_bytes(value, nb)
    )


def serialize_edit(sk: EditSketch, c: int, t_edit: int) -> bytes:
    field = sk.s1.field
    n = sk.s2.n
    if c < 1 or t_edit < 1 or sk.s1.t != (2 * c - 1) * t_edit:
        raise ValueError("sketch capacity does not match c and t_edit")
    if (field.m - 1) % c or (field.m - 1) // c not in (1, 8):
        raise ValueError("sketch universe does not match a supported alphabet")
    if n > 0xFFFFFFFF or c > 0xFFFF:
        raise ValueError("string length too large for envelope")
    # 1-based indices of at most n-c+1 shingles travel 0-based
    width = (n - c).bit_length()
    if any((i - 1) >> width for i in sk.s2.indices):
        raise ValueError("recovery index does not fit the pinned field width")
    value, nb = pack_fields([i - 1 for i in sk.s2.indices], width)
    BchCode(field, 2 * sk.s1.t + 1)  # the capacity check deserialize makes
    return (
        _header(SCHEME_EDIT, field.m, sk.s1.t)
        + n.to_bytes(4, "big")
        + c.to_bytes(2, "big")
        + t_edit.to_bytes(2, "big")
        + bits_to_bytes(*pack_fields(sk.s1.odd_sums, _byte_width(field.m)))
        + bits_to_bytes(value, nb)
    )


# ---------------------------------------------------------------------------
# Deserialization


def _take(data: bytes, pos: int, n: int) -> tuple[bytes, int]:
    if pos + n > len(data):
        raise MalformedEnvelope("truncated", f"need {n} bytes at offset {pos}")
    return data[pos : pos + n], pos + n


def _exact_payload(data: bytes, pos: int, n_bits: int) -> int:
    n_bytes = (n_bits + 7) // 8
    if len(data) - pos != n_bytes:
        raise MalformedEnvelope(
            "length-mismatch",
            f"payload is {len(data) - pos} bytes, header implies {n_bytes}",
        )
    try:
        return bytes_to_bits(data[pos:], n_bits)
    except ValueError as exc:
        raise MalformedEnvelope("padding", str(exc)) from exc


def deserialize(data: bytes) -> Envelope:
    head, pos = _take(data, 0, 8)
    if head[:4] != MAGIC:
        raise MalformedEnvelope("bad-magic", f"expected {MAGIC!r}")
    scheme, m = head[4], head[5]
    t = int.from_bytes(head[6:8], "big")
    if scheme not in SCHEME_NAMES:
        raise MalformedEnvelope("bad-scheme", f"unknown scheme 0x{scheme:02x}")
    if m < 1:
        raise MalformedEnvelope("bad-header", "m must be >= 1")
    try:
        if scheme == SCHEME_HAMMING_SYN:
            params = bch_params(m, t)
            value = _exact_payload(data, pos, t * m)
            return Envelope(scheme, m, t, SyndromeSketch(value, t * m), params=params)
        if scheme == SCHEME_HAMMING_OFFSET:
            params = bch_params(m, t)
            n_bytes = (params.n + 7) // 8
            if len(data) - pos != n_bytes:
                raise MalformedEnvelope(
                    "length-mismatch",
                    f"payload is {len(data) - pos} bytes, header implies {n_bytes}",
                )
            shift = word_from_bytes(data[pos:], params.n)
            return Envelope(scheme, m, t, CodeOffsetSketch(shift, params.n), params=params)
        if scheme == SCHEME_HAMMING_PERM:
            params = bch_params(m, t)
            body, pos = _take(data, pos, 4 * params.n)
            perm = tuple(
                int.from_bytes(body[4 * i : 4 * i + 4], "big") for i in range(params.n)
            )
            value = _exact_payload(data, pos, t * m)
            sk = PermutedSketch(perm, SyndromeSketch(value, t * m))
            return Envelope(scheme, m, t, sk, params=params)
        if scheme == SCHEME_PINSKETCH:
            field = field_of(m)
            value = _exact_payload(data, pos, t * m)
            sums = unpack_fields(value, t * m, m)
            return Envelope(scheme, m, t, PinSketchData(field, t, tuple(sums)))
        if scheme == SCHEME_IJS:
            aux, pos = _take(data, pos, 2)
            s = int.from_bytes(aux, "big")
            field = field_of(m)
            value = _exact_payload(data, pos, t * m)
            coeffs = unpack_fields(value, t * m, m)
            return Envelope(scheme, m, t, IjsSketchData(field, s, t, tuple(coeffs)))
        if scheme == SCHEME_ORIGJS:
            aux, pos = _take(data, pos, 4)
            s = int.from_bytes(aux[:2], "big")
            r = int.from_bytes(aux[2:], "big")
            field = field_of(m)
            value = _exact_payload(data, pos, 2 * r * m)
            flat = unpack_fields(value, 2 * r * m, m)
            pairs = tuple(zip(flat[0::2], flat[1::2]))
            return Envelope(scheme, m, t, OrigJsSketchData(field, s, r, t, pairs))
        # edit
        aux, pos = _take(data, pos, 8)
        n = int.from_bytes(aux[:4], "big")
        c = int.from_bytes(aux[4:6], "big")
        t_edit = int.from_bytes(aux[6:8], "big")
        if c < 1 or t_edit < 1 or t != (2 * c - 1) * t_edit:
            raise MalformedEnvelope("bad-header", "t must equal (2c-1) * t_edit")
        if (m - 1) % c or (m - 1) // c not in (1, 8):
            raise MalformedEnvelope("bad-header", "m does not match a supported alphabet")
        if n <= c:
            # n == c has a zero-width index field; nothing to sketch
            raise MalformedEnvelope("bad-header", "string no longer than shingle length")
        field = field_of(m)
        BchCode(field, 2 * t + 1)  # capacity within the shingle universe
        syn_width = _byte_width(m)
        body, pos = _take(data, pos, t * syn_width // 8)
        sums = unpack_fields(int.from_bytes(body, "big"), t * syn_width, syn_width)
        for s in sums:
            field.check(s)
        k = -(-n // c)
        width = (n - c).bit_length()
        value = _exact_payload(data, pos, k * width)
        indices = tuple(i + 1 for i in unpack_fields(value, k * width, width))
        if max(indices) > n - c + 1:
            raise MalformedEnvelope("bad-index", f"recovery index above {n - c + 1} shingles")
        sk = EditSketch(PinSketchData(field, t, tuple(sums)), RecoveryInfo(n, indices))
        return Envelope(scheme, m, t, sk, c=c, t_edit=t_edit)
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
