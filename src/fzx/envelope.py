"""Bit-exact framing for sketches, the scheme table, and one-message set
reconciliation.

Wire layout, big-endian throughout:

    magic "FZX1" | scheme u8 | m u8 | t u16 | aux | payload

`_WIRE` holds one record per scheme id: its CLI name, the byte widths of
its aux fields (none for the Hamming schemes and PinSketch; ijs u16 s;
origjs u16 s, u16 r; edit u32 n, u16 c, u16 t_edit), its parser, its
shape rule, the one its sketch's constructor runs, and the header,
sketch, recovery, hash encoding and loss the CLI runs.  `_Wire.check`
runs the widths and the rule on every header, before anything is built,
so a parser only reads the payload.  Every serializer is one `_frame`
call, and the set and edit ones take the sketch alone.  Payloads are
bit-packed, left-aligned, and zero-padded to a byte; the pad bits must be
zero.  An edit payload ends with the recovery indices, each minus one, in
(n-c).bit_length() bits; an index above the n-c+1 shingles is rejected.
"""

import math
import struct
from collections import namedtuple

from .bitpack import bits_to_bytes, bytes_to_bits, pack_fields, unpack_fields, word_from_bytes, word_to_bytes
from .codec import BchCode, _check_capacity
from .edit import (
    EditSketch,
    RecoveryInfo,
    _alphabet_bits,
    _check_shape,
    approx_edit_entropy_loss,
    edit_entropy_loss,
    edit_rec,
    edit_ss,
    optimal_shingle_len,
    shingle_encoding,
)
from .gf2m import field_of
from .hamming import (
    CodeOffsetSketch,
    PermutedSketch,
    SyndromeSketch,
    _check_word_shape,
    bch_params,
    hamming_entropy_loss,
    rec_code_offset,
    rec_permuted,
    rec_syndrome,
    ss_code_offset,
    ss_permuted,
    ss_syndrome,
)
from .setdiff import (
    ElementSet,
    IjsSketchData,
    OrigJsSketchData,
    PinSketchData,
    _check_ijs_shape,
    _check_origjs_shape,
    _even_capacity,
    ijs_rec,
    ijs_ss,
    origjs_rec,
    origjs_ss,
    pinsketch_rec,
    pinsketch_ss,
    setdiff_entropy_loss,
)

__all__ = [
    "MAGIC", "SCHEME_NAMES", "SCHEME_HAMMING_SYN", "SCHEME_HAMMING_OFFSET", "SCHEME_PINSKETCH",
    "SCHEME_IJS", "SCHEME_EDIT", "SCHEME_HAMMING_PERM", "SCHEME_ORIGJS",
    "MalformedEnvelope", "Envelope", "ReconcileReport",
    "serialize_hamming_syn", "serialize_hamming_offset", "serialize_hamming_perm",
    "serialize_pinsketch", "serialize_ijs", "serialize_origjs", "serialize_edit",
    "deserialize", "residual", "reconcile_respond",
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


class Envelope(namedtuple("Envelope", "scheme m t sketch aux", defaults=((),))):
    """A parsed envelope: its header (scheme, m, t), its native sketch and
    its aux fields, a tuple of ints."""

    __slots__ = ()

    @property
    def params(self) -> BchCode:
        """The BCH code of a Hamming envelope."""
        return bch_params(self.m, self.t)


# ---------------------------------------------------------------------------
# Writing


def _frame(scheme: int, m: int, t: int, aux: tuple[int, ...], *segments: bytes) -> bytes:
    """The envelope: header, aux fields at the widths of the scheme's
    record, then the payload segments as given."""
    _WIRE[scheme].check(m, t, *aux)
    parts = [MAGIC, bytes((scheme, m)), t.to_bytes(2, "big")]
    for value, width in zip(aux, _WIRE[scheme].aux, strict=True):
        parts.append(value.to_bytes(width, "big"))
    return b"".join(parts + list(segments))


def _byte_width(m: int) -> int:
    # an edit syndrome travels as whole bytes per field element
    return 8 * ((m + 7) // 8)


def serialize_hamming_syn(params: BchCode, sk: SyndromeSketch) -> bytes:
    if sk.n_bits != params.syndrome_bits:
        raise ValueError("sketch width does not match parameters")
    syn = bits_to_bytes(sk.syn_bits, sk.n_bits)
    return _frame(SCHEME_HAMMING_SYN, params.field.m, params.t, (), syn)


def serialize_hamming_offset(params: BchCode, sk: CodeOffsetSketch) -> bytes:
    if sk.n_bits != params.n:
        raise ValueError("sketch width does not match parameters")
    shift = word_to_bytes(sk.shift, sk.n_bits)
    return _frame(SCHEME_HAMMING_OFFSET, params.field.m, params.t, (), shift)


def serialize_hamming_perm(params: BchCode, sk: PermutedSketch) -> bytes:
    if len(sk.perm) != params.n or sk.syn.n_bits != params.syndrome_bits:
        raise ValueError("sketch shape does not match parameters")
    perm = struct.pack(f">{params.n}I", *sk.perm)
    syn = bits_to_bytes(sk.syn.syn_bits, sk.syn.n_bits)
    return _frame(SCHEME_HAMMING_PERM, params.field.m, params.t, (), perm, syn)


def serialize_pinsketch(sk: PinSketchData) -> bytes:
    sums = bits_to_bytes(*pack_fields(sk.odd_sums, sk.field.m))
    return _frame(SCHEME_PINSKETCH, sk.field.m, sk.t, (), sums)


def serialize_ijs(sk: IjsSketchData) -> bytes:
    coeffs = bits_to_bytes(*pack_fields(sk.top_coeffs, sk.field.m))
    return _frame(SCHEME_IJS, sk.field.m, sk.t, (sk.s,), coeffs)


def serialize_origjs(sk: OrigJsSketchData) -> bytes:
    pairs = bits_to_bytes(*pack_fields([v for pair in sk.pairs for v in pair], sk.field.m))
    return _frame(SCHEME_ORIGJS, sk.field.m, sk.t, (sk.s, sk.r), pairs)


def serialize_edit(sk: EditSketch) -> bytes:
    m, n, c = sk.s1.field.m, sk.s2.n, sk.c
    # 1-based indices of at most n-c+1 shingles travel 0-based
    indices = bits_to_bytes(*pack_fields([i - 1 for i in sk.s2.indices], (n - c).bit_length()))
    syn = bits_to_bytes(*pack_fields(sk.s1.odd_sums, _byte_width(m)))
    return _frame(SCHEME_EDIT, m, sk.s1.t, (n, c, sk.t_edit), syn, indices)


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


def _hamming_syn(m, t, rd):
    return SyndromeSketch(rd.rest(t * m), t * m)


def _hamming_offset(m, t, rd):
    n = (1 << m) - 1
    return CodeOffsetSketch(rd.rest(n, word_from_bytes), n)


def _hamming_perm(m, t, rd):
    n = (1 << m) - 1
    perm = struct.unpack(f">{n}I", rd.take(4 * n))
    return PermutedSketch(perm, SyndromeSketch(rd.rest(t * m), t * m))


def _pinsketch(m, t, rd):
    sums = tuple(rd.fields(t, m))
    return PinSketchData(field_of(m), t, sums)


def _ijs(m, t, rd, s):
    coeffs = tuple(rd.fields(t, m))
    return IjsSketchData(field_of(m), s, t, coeffs)


def _origjs(m, t, rd, s, r):
    flat = rd.fields(2 * r, m)
    return OrigJsSketchData(field_of(m), s, r, t, tuple(zip(flat[0::2], flat[1::2])))


def _edit(m, t, rd, n, c, t_edit):
    width = _byte_width(m)
    sums = unpack_fields(int.from_bytes(rd.take(t * width // 8), "big"), t * width, width)
    indices = tuple(i + 1 for i in rd.fields(-(-n // c), (n - c).bit_length()))
    if max(indices) > n - c + 1:
        raise MalformedEnvelope("bad-index", f"recovery index above {n - c + 1} shingles")
    s1 = PinSketchData(field_of(m), t, tuple(sums))
    return EditSketch(s1, RecoveryInfo(n, indices), c, t_edit)


# ---------------------------------------------------------------------------
# The scheme table
#
# A record's `header` assembles the (m, t, *aux) of an envelope from a
# shape (the CLI passes its flags: m, t, c, s, r, n) and, when sketching,
# from w, whose size stands in for s or n; `check` then checks it.
# `loss` is a formula over a checked header, from a shape or off the wire.


def _mt_header(shape, w=None) -> tuple:
    return shape.m, shape.t


def _ijs_header(shape, es=None) -> tuple:
    """t rounded down to even, as ijs_ss rounds it and with its warning
    when es is sketched; `fzx params` takes no --s, so it stops at t."""
    t = _even_capacity(shape.t, warn=es is not None)
    return (shape.m, t) if es is None else (shape.m, t, len(es))


def _origjs_header(shape, es=None) -> tuple:
    return shape.m, shape.t, shape.s if es is None else len(es), shape.r


def _edit_header(shape, w=None) -> tuple:
    """The header of the sketch of w, over its alphabet, or of a binary string
    of shape.n characters, with shape.c or, left out, the loss-minimizing
    shingle length."""
    n, bits = (shape.n, 1) if w is None else (len(w), _alphabet_bits(w))
    c = shape.c if shape.c is not None else optimal_shingle_len(n, shape.t, 1 << bits)
    return c * bits + 1, (2 * c - 1) * shape.t, n, c, shape.t


def _bch_loss(m, t) -> dict:
    p = bch_params(m, t)
    loss = hamming_entropy_loss(p.n, p.k)
    return {"n": p.n, "k": p.k, "sketch_bits": p.syndrome_bits, "loss_bits": loss}


def _edit_loss(m, t, n, c, t_edit) -> dict:
    F = 1 << ((m - 1) // c)  # the alphabet size
    loss, approx = edit_entropy_loss(n, c, t_edit, F), approx_edit_entropy_loss(n, t_edit, F)
    return {"c": c, "loss_bits": loss, "approx_loss_bits": approx}


class _Wire(namedtuple("_Wire", "id name parse rule header sketch recover kind aux fields encode loss")):
    """One scheme: its wire format and its whole path from w to a key.

    id: the scheme byte of the header; name: the CLI's --scheme value;
    parse(m, t, reader, *aux) -> the sketch of a checked header;
    rule(m, t, *aux): ValueError on a header no sketch of the scheme has;
    header(shape, w=None) -> (m, t, *aux), unchecked;
    sketch(w, rng, m, t, *aux) -> envelope bytes;
    recover(env, w') -> w, or DecodeFailure;
    kind: w is a "word" of 2^m - 1 bits, a "set" in GF(2^m)* or a binary "string";
    aux: the byte widths of the aux fields;
    fields: the shape fields header reads (c may be None);
    encode(env, w) -> the injective (value, n_bits) hash input;
    loss(m, t, *aux) -> the accounting `fzx params` prints, loss_bits among it.
    """

    __slots__ = ()

    def check(self, m: int, t: int, *aux: int) -> tuple:
        """(m, t, *aux), or ValueError unless m is a u8 >= 1, t a u16, the
        aux fields given fit their widths and the rule holds.  The one
        header check, of `fzx sketch`, `gen` and `params`, `_frame` and
        `deserialize`; it builds nothing."""
        if not 1 <= m <= 0xFF:
            raise ValueError("m out of envelope range")
        if not 0 <= t <= 0xFFFF:
            raise ValueError("t out of envelope range")
        for value, width in zip(aux, self.aux):
            if not 0 <= value < 1 << 8 * width:
                raise ValueError(f"aux field {value} out of envelope range")
        self.rule(m, t, *aux)
        return (m, t, *aux)


# what the three Hamming schemes share, and what the three set schemes share
_WORDS = dict(
    rule=_check_word_shape,
    header=_mt_header,
    kind="word",
    aux=(),
    fields=("m", "t"),
    encode=lambda env, w: (w, env.params.n),
    loss=_bch_loss,
)
_SETS = dict(kind="set", encode=lambda env, es: pack_fields(es.elems, env.m))

_WIRE = {
    wire.id: wire
    for wire in (
        _Wire(
            SCHEME_HAMMING_SYN, "hamming-syn", _hamming_syn,
            sketch=lambda w, rng, m, t: serialize_hamming_syn(
                bch_params(m, t), ss_syndrome(bch_params(m, t), w)
            ),
            recover=lambda env, w: rec_syndrome(env.params, w, env.sketch),
            **_WORDS,
        ),
        _Wire(
            SCHEME_HAMMING_OFFSET, "hamming-offset", _hamming_offset,
            sketch=lambda w, rng, m, t: serialize_hamming_offset(
                bch_params(m, t), ss_code_offset(bch_params(m, t), w, rng)
            ),
            recover=lambda env, w: rec_code_offset(env.params, w, env.sketch),
            **_WORDS,
        ),
        _Wire(
            SCHEME_HAMMING_PERM, "hamming-perm", _hamming_perm,
            sketch=lambda w, rng, m, t: serialize_hamming_perm(
                bch_params(m, t), ss_permuted(bch_params(m, t), w, rng)
            ),
            recover=lambda env, w: rec_permuted(env.params, w, env.sketch),
            **_WORDS,
        ),
        _Wire(
            SCHEME_PINSKETCH, "pinsketch", _pinsketch, _check_capacity, _mt_header,
            lambda es, rng, m, t: serialize_pinsketch(pinsketch_ss(es, t)),
            lambda env, es: pinsketch_rec(es, env.sketch),
            aux=(), fields=("m", "t"),
            loss=lambda m, t: {
                "sketch_bits": t * m, "loss_bits": setdiff_entropy_loss("pinsketch", m=m, t=t)
            },
            **_SETS,
        ),
        _Wire(
            SCHEME_IJS, "ijs", _ijs, _check_ijs_shape, _ijs_header,
            lambda es, rng, m, t, s: serialize_ijs(ijs_ss(es, t)),
            lambda env, es: ijs_rec(es, env.sketch),
            aux=(2,), fields=("m", "t"),
            # ijs_ss writes only an even t; an odd t comes only from a
            # foreign sketch, and counts as the t above it
            loss=lambda m, t, *s: {
                "sketch_bits": t * m, "loss_bits": setdiff_entropy_loss("ijs", m=m, t=t + t % 2)
            },
            **_SETS,
        ),
        _Wire(
            SCHEME_ORIGJS, "origjs", _origjs, _check_origjs_shape, _origjs_header,
            lambda es, rng, m, t, s, r: serialize_origjs(origjs_ss(es, r, t, rng)),
            lambda env, es: origjs_rec(es, env.sketch),
            aux=(2, 2), fields=("m", "t", "s", "r"),
            loss=lambda m, t, s, r: {
                "sketch_bits": 2 * r * m,
                "loss_bits": setdiff_entropy_loss("origjs", m=m, t=t, s=s, r=r),
            },
            **_SETS,
        ),
        _Wire(
            SCHEME_EDIT, "edit", _edit, _check_shape, _edit_header,
            lambda w, rng, m, t, n, c, t_edit: serialize_edit(edit_ss(w, c, t_edit)),
            lambda env, w: edit_rec(w, env.sketch),
            kind="string", aux=(4, 2, 2), fields=("n", "t", "c"),
            encode=lambda env, w: shingle_encoding(w, env.sketch.c),
            loss=_edit_loss,
        ),
    )
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
    aux = tuple([int.from_bytes(rd.take(width), "big") for width in wire.aux])
    try:
        wire.check(m, t, *aux)
    except ValueError as exc:
        raise MalformedEnvelope("bad-header", str(exc)) from exc
    try:
        return Envelope(scheme, m, t, wire.parse(m, t, rd, *aux), aux)
    except MalformedEnvelope:
        raise
    except ValueError as exc:
        raise MalformedEnvelope("inconsistent", str(exc)) from exc


def residual(env: Envelope, w) -> float:
    """The min-entropy left in w, uniform over its kind, once the sketch in
    env is public: what w holds less the loss of env's header."""
    wire = _WIRE[env.scheme]
    if wire.kind == "word":
        held = (1 << env.m) - 1
    elif wire.kind == "set":
        held = math.log2(math.comb((1 << env.m) - 1, len(w)))
    else:
        held = env.sketch.bits * len(w)  # bits per character, times n
    return held - wire.loss(env.m, env.t, *env.aux)["loss_bits"]


# ---------------------------------------------------------------------------
# One-message set reconciliation


class ReconcileReport(namedtuple("ReconcileReport", "local_only remote_only")):
    """The two one-sided differences between a local and a remote set,
    each an `ElementSet`."""

    __slots__ = ()

    def __new__(cls, local_only: ElementSet, remote_only: ElementSet):
        if set(local_only.elems) & set(remote_only.elems):
            raise ValueError("one-sided differences must be disjoint")
        return super().__new__(cls, local_only, remote_only)


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
