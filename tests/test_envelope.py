"""Wire-format tests: golden vectors, rejection paths, reconciliation."""

import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fzx.envelope as envelope
from fzx.bitpack import pack_fields, unpack_fields, word_from_bytes, word_to_bytes
from fzx.codec import DecodeFailure
from fzx.edit import (
    approx_edit_entropy_loss,
    edit_entropy_loss,
    edit_rec,
    edit_ss,
    shingle_encoding,
)
from fzx.envelope import (
    SCHEME_EDIT,
    SCHEME_HAMMING_OFFSET,
    SCHEME_HAMMING_PERM,
    SCHEME_HAMMING_SYN,
    SCHEME_IJS,
    SCHEME_NAMES,
    SCHEME_ORIGJS,
    SCHEME_PINSKETCH,
    _WIRE,
    Envelope,
    MalformedEnvelope,
    ReconcileReport,
    deserialize,
    reconcile_respond,
    residual,
    serialize_edit,
    serialize_hamming_offset,
    serialize_hamming_perm,
    serialize_hamming_syn,
    serialize_ijs,
    serialize_origjs,
    serialize_pinsketch,
)
from fzx.gf2m import GF2m, field_of
from fzx.hamming import bch_params, ss_code_offset, ss_permuted, ss_syndrome
from fzx.setdiff import ElementSet, IjsSketchData, PinSketchData, ijs_ss, origjs_ss, pinsketch_ss
from oracles import (
    JointDistribution,
    avg_min_entropy,
    char_poly_top,
    pack_fields_loop,
    unpack_fields_loop,
)

# Golden vectors: small sketches with hand-checkable packing.  The inputs
# are pinned (word 0b111 over the m=4 t=2 BCH code; sets over GF(8)/GF(16);
# rng seed 7 where randomness is involved).
GOLDEN = {
    "hamming-syn": "465a58310104000206",
    "hamming-offset": "465a583102040002e6d4",
    "hamming-perm": (
        "465a583106040002000000030000000c0000000e000000070000000b00000004"
        "0000000d000000090000000800000001000000000000000a0000000600000002"
        "00000005fb"
    ),
    "pinsketch": "465a58310303000270",
    "ijs": "465a5831040300020003f4",
    "origjs": "465a583107040002000400061e2249718ce3",
    "edit": "465a58310504000500000010000300010706000707212025",
}


def _golden_sketches():
    p = bch_params(4, 2)
    w = 0b000000000000111
    f8 = GF2m(3)
    f16 = GF2m(4)
    return {
        "hamming-syn": serialize_hamming_syn(p, ss_syndrome(p, w)),
        "hamming-offset": serialize_hamming_offset(p, ss_code_offset(p, w, random.Random(7))),
        "hamming-perm": serialize_hamming_perm(p, ss_permuted(p, w, random.Random(7))),
        "pinsketch": serialize_pinsketch(pinsketch_ss(ElementSet.of(f8, [3]), 2)),
        "ijs": serialize_ijs(ijs_ss(ElementSet.of(f8, [1, 2, 4]), 2)),
        "origjs": serialize_origjs(
            origjs_ss(ElementSet.of(f16, [1, 2, 4, 8]), 6, 2, random.Random(7))
        ),
        "edit": serialize_edit(edit_ss("0110100110010110", 3, 1)),
    }


_RESERIALIZE = {
    SCHEME_HAMMING_SYN: lambda env: serialize_hamming_syn(env.params, env.sketch),
    SCHEME_HAMMING_OFFSET: lambda env: serialize_hamming_offset(env.params, env.sketch),
    SCHEME_HAMMING_PERM: lambda env: serialize_hamming_perm(env.params, env.sketch),
    SCHEME_PINSKETCH: lambda env: serialize_pinsketch(env.sketch),
    SCHEME_IJS: lambda env: serialize_ijs(env.sketch),
    SCHEME_ORIGJS: lambda env: serialize_origjs(env.sketch),
    SCHEME_EDIT: lambda env: serialize_edit(env.sketch),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vectors_byte_exact(name):
    assert _golden_sketches()[name].hex() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_vectors_reparse_identically(name):
    data = bytes.fromhex(GOLDEN[name])
    env = deserialize(data)
    resparsed = deserialize(data)
    assert env == resparsed
    assert SCHEME_NAMES[env.scheme] == name
    # serializing the parsed sketch reproduces the very same bytes
    assert _RESERIALIZE[env.scheme](env) == data


SCHEME_IDS = {
    "hamming-syn": SCHEME_HAMMING_SYN,
    "hamming-offset": SCHEME_HAMMING_OFFSET,
    "hamming-perm": SCHEME_HAMMING_PERM,
    "pinsketch": SCHEME_PINSKETCH,
    "ijs": SCHEME_IJS,
    "origjs": SCHEME_ORIGJS,
    "edit": SCHEME_EDIT,
}


@pytest.mark.parametrize("name", list(SCHEME_IDS))
def test_scheme_record_sketches_recovers_and_encodes(name):
    """Each record, at the shapes of the golden CLI tests, runs sketch ->
    deserialize -> recover -> encode, the envelope carries the header of
    the shape and w, and the residual is what w holds less its loss."""
    wire = _WIRE[SCHEME_IDS[name]]
    assert (wire.id, wire.name, SCHEME_NAMES[wire.id]) == (SCHEME_IDS[name], name, name)
    rng = random.Random(101)
    shape = SimpleNamespace(m=8, t=8, c=None, s=14, r=64, n=40, eps=None)
    if wire.kind == "word":
        w = rng.getrandbits(255)
        w_prime = w ^ sum(1 << i for i in rng.sample(range(255), 3))
        value, w_bits = (w, 255), 255
    elif wire.kind == "set":
        shape.m, shape.t = 16, 4
        pool = rng.sample(range(1, 1 << 16), 15)
        w, w_prime = ElementSet.of(field_of(16), pool[:14]), ElementSet.of(field_of(16), pool[1:])
        value, w_bits = pack_fields(w.elems, 16), math.log2(math.comb((1 << 16) - 1, 14))
    else:
        shape.t = 1
        w = "".join(rng.choice("01") for _ in range(40))
        w_prime, value, w_bits = w[:10] + w[11:], None, 40
    head = wire.header(shape, w)
    env = deserialize(wire.sketch(w, random.Random(5), *head))
    assert env.scheme == wire.id and (env.m, env.t, *env.aux) == head
    got = wire.recover(env, w_prime)
    assert got == w
    assert wire.encode(env, got) == (value or shingle_encoding(w, env.sketch.c))
    # `fzx params` runs the header on the flags alone: s and n as above
    loss = wire.loss(*wire.header(shape))["loss_bits"]
    assert residual(env, got) == pytest.approx(w_bits - loss)


# largest t_edit whose set capacity (2c-1) * t_edit fits GF(2^(c+1))*, by c
_EDIT_T_MAX = {2: 1, 3: 1, 4: 2, 5: 3}


@settings(max_examples=350, derandomize=True, database=None, deadline=2000)
@given(name=st.sampled_from(sorted(SCHEME_IDS)), data=st.data())
def test_record_recovers_within_capacity_and_fails_loud_beyond(name, data):
    """Each record at small shapes, through header -> sketch -> deserialize
    -> recover: noise within capacity gives w back exactly; beyond it,
    recovery raises DecodeFailure or returns a fixed point of recovery, a
    value that recovers to itself.  No other exception escapes."""
    wire = _WIRE[SCHEME_IDS[name]]
    draw = data.draw
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    m = draw(st.integers(3, 5), label="m")
    order = (1 << m) - 1
    if wire.kind == "word":
        t = draw(st.integers(1, min(6, order // 2)), label="t")
        shape = SimpleNamespace(m=m, t=t)
        w = rng.getrandbits(order)
        k = min(order, draw(st.integers(0, 2 * t + 2), label="flips"))
        w_prime = w ^ sum(1 << i for i in rng.sample(range(order), k))
        within = k <= t
    elif wire.kind == "set":
        s = draw(st.integers(0 if name == "pinsketch" else 1, min(8, order - 1)), label="s")
        pool = rng.sample(range(1, order + 1), order)
        w = ElementSet.of(field_of(m), pool[:s])
        if name == "pinsketch":
            t = draw(st.integers(1, min(5, order // 2)), label="t")
            k = min(order, draw(st.integers(0, 2 * t + 2), label="flips"))
            w_prime = ElementSet.of(w.field, set(w.elems) ^ set(rng.sample(pool, k)))
            within = k <= t
        else:
            t = 2 * draw(st.integers(0, s // 2), label="t/2")
            e = draw(st.integers(0, min(s, order - s)), label="swaps")
            w_prime = ElementSet.of(w.field, pool[e : s + e])
            within = 2 * e <= t
        r = draw(st.integers(s + 1, min(order, s + 12)), label="r")
        shape = SimpleNamespace(m=m, t=t, r=r)
    else:
        c = draw(st.integers(2, 5), label="c")
        t_edit = draw(st.integers(1, _EDIT_T_MAX[c]), label="t_edit")
        k = draw(st.integers(0, 2 * c * t_edit + 2), label="edits")
        # deletions may take w' below c, down to the empty word
        n = draw(st.integers(c + 1, c + k + 20), label="n")
        w = "".join(rng.choice("01") for _ in range(n))
        w_prime = w
        for _ in range(k):  # a deletion or an insertion at a random place, an insertion into ""
            if w_prime and rng.random() < 0.5:
                i = rng.randrange(len(w_prime))
                w_prime = w_prime[:i] + w_prime[i + 1 :]
            else:
                i = rng.randrange(len(w_prime) + 1)
                w_prime = w_prime[:i] + rng.choice("01") + w_prime[i:]
        shape = SimpleNamespace(n=len(w), t=t_edit, c=c)
        within = k <= t_edit
    env = deserialize(wire.sketch(w, rng, *wire.header(shape, w)))
    try:
        got = wire.recover(env, w_prime)
    except DecodeFailure:
        assert not within
        return
    if within:
        assert got == w
    else:
        assert wire.recover(env, got) == got


def test_ijs_residual_counts_every_coefficient_of_an_odd_t_sketch():
    # ijs_ss writes only an even t, but a foreign sketch of 5 coefficients
    # reveals 5 * m bits, so at least that much is lost
    f = field_of(16)
    es = ElementSet.of(f, random.Random(3).sample(range(1, f.order + 1), 14))
    odd = deserialize(serialize_ijs(IjsSketchData(f, 14, 5, char_poly_top(f, es.elems, 5))))
    even = deserialize(serialize_ijs(ijs_ss(es, 4)))
    wire = _WIRE[SCHEME_IJS]
    assert wire.recover(odd, es) == es
    full = math.log2(math.comb(f.order, 14))
    assert residual(odd, es) <= full - 5 * 16
    assert residual(even, es) == pytest.approx(full - 4 * 16)


def test_edit_header_loss_and_residual_read_a_byte_alphabet():
    # 20 bytes hold 160 bits; 2-byte shingles embed in GF(2^(2 * 8 + 1))
    w = bytes(range(20))
    wire = _WIRE[SCHEME_EDIT]
    head = wire.header(SimpleNamespace(t=1, c=2), w)
    env = deserialize(wire.sketch(w, random.Random(1), *head))
    assert head == (17, 3, 20, 2, 1) and env.m == 17
    loss = wire.loss(*head)
    assert loss["loss_bits"] == edit_entropy_loss(20, 2, 1, 256)
    assert loss["approx_loss_bits"] == approx_edit_entropy_loss(20, 1, 256)
    assert residual(env, w) == pytest.approx(66.52, abs=0.005)
    assert residual(env, w) == 8 * 20 - loss["loss_bits"]
    # a binary string keeps one bit per character
    bits = "01101001100101101100"
    head = wire.header(SimpleNamespace(t=1, c=2), bits)
    env = deserialize(wire.sketch(bits, random.Random(1), *head))
    assert head == (3, 3, 20, 2, 1)
    assert residual(env, bits) == 20 - edit_entropy_loss(20, 2, 1, 2)


class _Replay(random.Random):
    """An rng whose getrandbits returns the given values in turn, so that
    every draw of a sketch's randomness can be enumerated."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def getrandbits(self, k):
        return next(self.values)


def _words(m):
    return [(w, w.to_bytes(2, "big")) for w in range(1 << (1 << m) - 1)]


def _sets(m, s):
    f = field_of(m)
    return [(ElementSet(f, es), bytes(es)) for es in itertools.combinations(range(1, 1 << m), s)]


def _strings(n):
    return [("".join(bits), "".join(bits).encode()) for bits in itertools.product("01", repeat=n)]


# Toy shapes at which W, uniform over its kind, and the sketch's randomness
# can be enumerated whole: (shape, the values of W with their byte form,
# every sequence of getrandbits values the sketch draws, all equally likely,
# and whether the paper's loss is tight there).  The code offset draws one
# n-bit word; the shuffle of the permuted sketch draws j < 3, then j < 2.
_LOSS_SHAPES = {
    "hamming-syn": [(dict(m=3, t=1), _words(3), [()], True)],
    "hamming-offset": [(dict(m=3, t=1), _words(3), [(v,) for v in range(128)], True)],
    "hamming-perm": [(dict(m=2, t=1), _words(2), list(itertools.product(range(3), range(2))),
                      False)],
    "pinsketch": [(dict(m=4, t=2), _sets(4, 3), [()], False),
                  (dict(m=4, t=4), _sets(4, 5), [()], False)],
    "ijs": [(dict(m=4, t=2), _sets(4, 3), [()], False),
            (dict(m=4, t=4), _sets(4, 5), [()], False)],
    "edit": [(dict(t=1, c=3), _strings(8), [()], False),
             (dict(t=1, c=2), _strings(10), [()], False)],
}


@pytest.mark.parametrize("name", sorted(_LOSS_SHAPES))
def test_record_loss_bounds_the_measured_entropy_loss(name):
    """The loss of a record's header is at least H(W) - H~(W | envelope),
    measured over the joint distribution of (w, envelope bytes) that the
    record's own header and sketch make, and equal to it where the paper's
    bound is tight; the residual of an envelope is at most H~(W | envelope)."""
    wire = _WIRE[SCHEME_IDS[name]]
    for flags, ws, draws, tight in _LOSS_SHAPES[name]:
        shape = SimpleNamespace(**flags)
        probs = {}
        for w, key in ws:
            head = wire.header(shape, w)
            for values in draws:
                rng = _Replay(values)
                data = wire.sketch(w, rng, *head)
                assert next(rng.values, None) is None  # every value drawn
                probs[key, data] = probs.get((key, data), 0.0) + 1 / (len(ws) * len(draws))
        h_avg = avg_min_entropy(JointDistribution(probs))
        measured = math.log2(len(ws)) - h_avg
        loss = wire.loss(*head)["loss_bits"]
        assert loss >= measured - 1e-9
        if tight:
            assert loss == pytest.approx(measured)
        assert residual(deserialize(data), w) <= h_avg + 1e-9


def test_origjs_loss_covers_the_chain_rule_bound():
    """The chaff of origjs is too large to enumerate, so this takes the
    chain-rule bound the paper's loss rests on: H~(W | SS(W)) >= H(W, SS(W))
    - log2 |support of SS(W)|.  W and its sketch fix the randomness drawn
    (the s - t coefficients of the hidden polynomial, the r - s chaff
    abscissas off w and their ordinates off the polynomial), so H(W, SS(W))
    is H(W) plus the min-entropy of that randomness, and a sketch is r
    points with distinct nonzero abscissas.  With r = 2^m - 1 the chaff
    fills the field, and the bound is within 2 bits of the paper's loss."""
    wire = _WIRE[SCHEME_ORIGJS]
    m, t, s, r = 4, 1, 2, 15
    n, q = (1 << m) - 1, 1 << m  # GF(2^m)* and GF(2^m)
    h_w = math.log2(math.comb(n, s))
    h_joint = h_w + (s - t) * m + math.log2(math.comb(n - s, r - s)) + (r - s) * math.log2(q - 1)
    h_avg_bound = h_joint - (math.log2(math.comb(n, r)) + r * m)
    es = ElementSet.of(field_of(m), [3, 9])
    head = wire.header(SimpleNamespace(m=m, t=t, r=r), es)
    assert head == (m, t, s, r)
    assert wire.loss(*head)["loss_bits"] >= h_w - h_avg_bound
    env = deserialize(wire.sketch(es, random.Random(1), *head))
    assert residual(env, es) <= h_avg_bound


def test_pinsketch_payload_size():
    # m=10, t=5: 50 bits of payload in 7 bytes after the 8-byte header
    f = GF2m(10)
    data = serialize_pinsketch(pinsketch_ss(ElementSet.of(f, [5, 17, 900]), 5))
    assert len(data) == 8 + 7


def test_reject_bad_magic():
    data = bytearray(bytes.fromhex(GOLDEN["pinsketch"]))
    data[0] ^= 0x01
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes(data))
    assert err.value.code == "bad-magic"


def test_reject_bad_scheme():
    data = bytearray(bytes.fromhex(GOLDEN["pinsketch"]))
    data[4] = 0x7F
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes(data))
    assert err.value.code == "bad-scheme"


def test_reject_truncation():
    for name in GOLDEN:
        data = bytes.fromhex(GOLDEN[name])
        for cut in (1, 7, len(data) - 1):
            with pytest.raises(MalformedEnvelope) as err:
                deserialize(data[:cut])
            assert err.value.code in ("truncated", "length-mismatch")
        with pytest.raises(MalformedEnvelope):
            deserialize(data + b"\x00")


def _mutants(data: bytes):
    """Every proper prefix of data, then data with each single bit flipped."""
    for cut in range(len(data)):
        yield data[:cut]
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        yield bytes(flipped)


def _parses_back_or_is_rejected(data: bytes) -> None:
    """deserialize raises only MalformedEnvelope, and what it accepts
    serializes back to the very same bytes."""
    try:
        env = deserialize(data)
    except MalformedEnvelope:
        return
    except Exception as exc:
        pytest.fail(f"{data.hex()}: {exc!r}")
    assert _RESERIALIZE[env.scheme](env) == data, data.hex()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_bit_flip_and_truncation_parses_or_is_rejected(name):
    # a flipped header byte may name another degree, so this also builds
    # fields of new degrees from hostile input
    for data in _mutants(bytes.fromhex(GOLDEN[name])):
        _parses_back_or_is_rejected(data)


_AUX_WIDTHS = {SCHEME_IJS: (2,), SCHEME_ORIGJS: (2, 2), SCHEME_EDIT: (4, 2, 2)}


def _payload_bits(scheme, m, t, aux):
    """Payload width the header implies, after any permutation bytes."""
    if scheme == SCHEME_HAMMING_OFFSET:
        return (1 << m) - 1
    if scheme == SCHEME_ORIGJS:
        return 2 * aux[1] * m
    if scheme == SCHEME_EDIT:
        n, c, _ = aux
        indices = -(-n // c) * (n - c).bit_length() if n > c >= 1 else 0
        return 8 * -(-m // 8) * t + indices
    return t * m


@st.composite
def _wire_inputs(draw):
    """Envelopes of every scheme id with m <= 17, t <= 12, aux values near
    those a sketch would carry, and payloads up to 4 KiB: half of them as
    long as the header implies and zero-padded, half arbitrary bytes."""
    scheme = draw(st.sampled_from(sorted(SCHEME_NAMES)), label="scheme")
    m = draw(st.integers(1, 17), label="m")
    t = draw(st.integers(0, 12), label="t")
    aux = ()
    if scheme == SCHEME_IJS:
        aux = (draw(st.integers(0, 24)),)
    elif scheme == SCHEME_ORIGJS:
        aux = (draw(st.integers(0, 24)), draw(st.integers(0, 48)))
    elif scheme == SCHEME_EDIT:
        c, t_edit = draw(st.integers(0, 6)), draw(st.integers(0, 3))
        aux = (draw(st.integers(1, 80)), c, t_edit)
        if draw(st.booleans()):  # a shape edit_ss can produce, with t_edit = 1
            c = draw(st.integers(1, 6))
            bits = draw(st.sampled_from([1, 8] if c <= 2 else [1]))
            m, t = c * bits + 1, 2 * c - 1
            aux = (draw(st.integers(c + 1, 80)), c, 1)
    head = b"FZX1" + bytes([scheme, m]) + t.to_bytes(2, "big")
    head += b"".join(v.to_bytes(w, "big") for v, w in zip(aux, _AUX_WIDTHS.get(scheme, ())))
    n_bits = _payload_bits(scheme, m, t, aux)
    n_bytes = (n_bits + 7) // 8
    if scheme == SCHEME_HAMMING_PERM and m <= 9:
        perm = draw(st.permutations(range((1 << m) - 1)))
        head += b"".join(i.to_bytes(4, "big") for i in perm)
    if n_bytes <= 4096 and draw(st.booleans()):
        value = draw(st.integers(0, (1 << n_bits) - 1))
        if scheme == SCHEME_ORIGJS and aux[1] < 1 << m:  # sorted distinct abscissas
            r = aux[1]
            xs = sorted(draw(st.sets(st.integers(1, (1 << m) - 1), min_size=r, max_size=r)))
            ys = [value >> m * j & ((1 << m) - 1) for j in range(r)]
            value = 0
            for x, y in zip(xs, ys):
                value = value << 2 * m | x << m | y
        return head + (value << (8 * n_bytes - n_bits)).to_bytes(n_bytes, "big")
    return head + draw(st.binary(max_size=draw(st.sampled_from([16, 4096]))))


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(data=_wire_inputs())
def test_wire_input_parses_back_or_is_rejected(data):
    _parses_back_or_is_rejected(data)


@pytest.mark.parametrize("hexdata", [
    "465a58310302000270",  # m=2, t=2: distance 5 > 3 positions
    "465a583103040008" + "00" * 4,  # m=4, t=8: distance 17 > 15 positions
])
def test_reject_pinsketch_beyond_code_capacity(hexdata):
    # pinsketch_ss refuses such a t, so no honest sketch has it
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes.fromhex(hexdata))
    assert err.value.code == "bad-header"
    with pytest.raises(ValueError):
        serialize_pinsketch(PinSketchData(GF2m(2), 2, (1, 3)))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 15, 255])
def test_word_bytes_put_word_bit_i_at_wire_bit_i(n):
    rng = random.Random(n)
    for word in (0, (1 << n) - 1, 1, 1 << (n - 1), rng.getrandbits(n), rng.getrandbits(n)):
        data = word_to_bytes(word, n)
        wire = int.from_bytes(data, "big")
        assert len(data) == (n + 7) // 8
        assert all((word >> i & 1) == (wire >> (8 * len(data) - 1 - i) & 1) for i in range(n))
        assert word_from_bytes(data, n) == word
    with pytest.raises(ValueError):
        word_to_bytes(1 << n, n)
    if n % 8:
        with pytest.raises(ValueError):
            word_from_bytes(b"\x00" * (n // 8) + b"\x01", n)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    width=st.integers(1, 64),
    count=st.sampled_from([63, 64, 65, 128, 129]) | st.integers(0, 200),
    data=st.data(),
)
def test_bit_packing_matches_the_field_loops(width, count, data):
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=count, max_size=count))
    value, n_bits = pack_fields(values, width)
    assert (value, n_bits) == pack_fields_loop(values, width) == pack_fields(tuple(values), width)
    high = data.draw(st.integers(0, 1 << 70)) << n_bits  # bits above total_bits are ignored
    assert unpack_fields(value | high, n_bits, width) == values
    assert unpack_fields_loop(value | high, n_bits, width) == values
    at = data.draw(st.integers(0, count))
    bad = values[:at] + [data.draw(st.sampled_from([-1, 1 << width]))] + values[at:]
    with pytest.raises(ValueError) as ours:
        pack_fields(bad, width)
    with pytest.raises(ValueError) as loop:
        pack_fields_loop(bad, width)
    assert str(ours.value) == str(loop.value)


def test_reject_nonzero_padding():
    data = bytearray(bytes.fromhex(GOLDEN["pinsketch"]))
    data[-1] |= 0x03  # the pad bits of the 6-bit payload
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes(data))
    assert err.value.code == "padding"


def test_reject_inconsistent_contents():
    # permutation with a repeated entry
    data = bytearray(bytes.fromhex(GOLDEN["hamming-perm"]))
    data[8:12] = data[12:16]
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes(data))
    assert err.value.code == "inconsistent"
    # edit header where t != (2c-1) * t_edit
    data = bytearray(bytes.fromhex(GOLDEN["edit"]))
    data[15] = 0x09
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes(data))
    assert err.value.code == "bad-header"


def test_reject_edit_index_beyond_shingle_count():
    data = bytearray(serialize_edit(edit_ss("001101", 2, 1)))
    # three 3-bit indices close the payload: set all nine to 1, i.e. index 8
    # where the 6-bit string has at most 5 shingles
    data[-2:] = b"\xff\x80"
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes(data))
    assert err.value.code == "bad-index"


def test_reject_hamming_degree_without_pinned_polynomial():
    # m=33 has no pinned primitive polynomial; no modulus search may start
    data = b"FZX1" + bytes([0x01, 33]) + (1).to_bytes(2, "big") + bytes(5)
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(data)
    assert err.value.code == "bad-header"


def _no_build(*args):
    # an AssertionError, not a ValueError, which deserialize would turn into
    # `inconsistent` and so hide the build
    raise AssertionError(f"built for a rejected envelope: {args}")


@pytest.mark.parametrize("hexdata, code", [
    ("465a583103104000ff", "length-mismatch"),  # pinsketch m=16 t=16384, one payload byte
    ("465a5831010f0005", "length-mismatch"),  # hamming-syn m=15 t=5, no payload
    ("465a583101109c40", "bad-header"),  # hamming-syn m=16 t=40000: 2t+1 > 2^16 - 1
    ("465a583103107000", "length-mismatch"),  # pinsketch m=16 t=28672, legal, no payload
    *[(GOLDEN[name][:-2], "length-mismatch") for name in sorted(GOLDEN)],  # one byte short
])
def test_a_rejected_envelope_builds_nothing(monkeypatch, hexdata, code):
    monkeypatch.setattr(envelope, "field_of", _no_build)
    monkeypatch.setattr(envelope, "bch_params", _no_build)
    with pytest.raises(MalformedEnvelope) as err:
        deserialize(bytes.fromhex(hexdata))
    assert err.value.code == code


def test_round_trips_randomized():
    rng = random.Random(600)
    f = GF2m(10)
    univ = list(range(1, f.order + 1))
    p = bch_params(10, 5)
    for _ in range(25):
        w = rng.getrandbits(p.n)
        env = deserialize(serialize_hamming_syn(p, ss_syndrome(p, w)))
        assert env.params == p and env.sketch == ss_syndrome(p, w)
        off = ss_code_offset(p, w, random.Random(rng.randrange(1 << 30)))
        assert deserialize(serialize_hamming_offset(p, off)).sketch == off
        pm = ss_permuted(p, w, random.Random(rng.randrange(1 << 30)))
        assert deserialize(serialize_hamming_perm(p, pm)).sketch == pm
        elems = ElementSet.of(f, rng.sample(univ, 20))
        pin = pinsketch_ss(elems, 5)
        assert deserialize(serialize_pinsketch(pin)).sketch == pin
        ij = ijs_ss(elems, 4)
        assert deserialize(serialize_ijs(ij)).sketch == ij
        oj = origjs_ss(elems, 60, 4, rng)
        assert deserialize(serialize_origjs(oj)).sketch == oj
        wstr = "".join(rng.choice("01") for _ in range(64))
        ed = edit_ss(wstr, 4, 2)
        env = deserialize(serialize_edit(ed))
        assert env.sketch == ed and env.aux == (64, 4, 2)



@pytest.mark.parametrize(
    "w, c",
    [
        ("00110", 2),  # n-c+1 = 4 shingles, the largest of them in the partition
        ("0000111101100101000", 4),  # all 16 4-bit windows; "1111" is a block
    ],
)
def test_edit_round_trip_when_index_count_is_a_power_of_two(w, c):
    sk = edit_ss(w, c, 1)
    assert max(sk.s2.indices) == len(w) - c + 1
    data = serialize_edit(sk)
    env = deserialize(data)
    assert env.sketch == sk
    assert serialize_edit(env.sketch) == data
    assert edit_rec(w[1:], env.sketch) == w

def test_edit_sketch_bit_budget():
    # envelope payload stays within the recovery-info + syndrome budget
    w = "".join(random.Random(601).choice("01") for _ in range(64))
    n, c, t_edit = 64, 4, 2
    sk = edit_ss(w, c, t_edit)
    data = serialize_edit(sk)
    payload_bits = (len(data) - 16) * 8  # header 8 + aux 8 bytes
    t_set = (2 * c - 1) * t_edit
    m_u = c + 1
    budget = -(-n // c) * (n - c).bit_length() + t_set * m_u
    # syndrome elements are stored byte-aligned; allow only that rounding
    slack = t_set * (8 * ((m_u + 7) // 8) - m_u) + 7
    assert payload_bits <= budget + slack


# ---------------------------------------------------------------------------
# Reconciliation


def _pin_env(f, elems, t):
    return deserialize(serialize_pinsketch(pinsketch_ss(ElementSet.of(f, elems), t)))


def test_reconcile_identical_sets():
    f = GF2m(10)
    elems = [5, 17, 900, 23]
    report = reconcile_respond(ElementSet.of(f, elems), _pin_env(f, elems, 4))
    assert report.local_only.elems == ()
    assert report.remote_only.elems == ()


def test_reconcile_one_sided():
    f = GF2m(10)
    remote = [5, 17, 900, 23]
    local = [5, 17, 900]
    report = reconcile_respond(ElementSet.of(f, local), _pin_env(f, remote, 4))
    assert report.local_only.elems == ()
    assert report.remote_only.elems == (23,)


def test_reconcile_randomized_and_mirrored():
    f = GF2m(12)
    t = 6
    rng = random.Random(602)
    univ = list(range(1, f.order + 1))
    for _ in range(200):
        a = set(rng.sample(univ, rng.randrange(5, 40)))
        moves = rng.randrange(0, t + 1)
        drop = set(rng.sample(sorted(a), min(moves // 2, len(a))))
        add = set(rng.sample(sorted(set(univ) - a), moves - len(drop)))
        b = a - drop | add
        ra = reconcile_respond(ElementSet.of(f, a), _pin_env(f, b, t))
        assert set(ra.local_only.elems) == a - b
        assert set(ra.remote_only.elems) == b - a
        rb = reconcile_respond(ElementSet.of(f, b), _pin_env(f, a, t))
        assert rb.local_only.elems == ra.remote_only.elems
        assert rb.remote_only.elems == ra.local_only.elems


def test_reconcile_over_capacity_fails_loud():
    f = GF2m(10)
    rng = random.Random(603)
    univ = list(range(1, f.order + 1))
    t = 5
    a = set(rng.sample(univ, 20))
    extra = set(rng.sample(sorted(set(univ) - a), t + 3))
    with pytest.raises(DecodeFailure):
        reconcile_respond(ElementSet.of(f, a | extra), _pin_env(f, a, t))


def test_reconcile_wrong_scheme_rejected():
    f = GF2m(10)
    env = deserialize(serialize_ijs(ijs_ss(ElementSet.of(f, [1, 2, 3, 4]), 2)))
    with pytest.raises(ValueError):
        reconcile_respond(ElementSet.of(f, [1, 2, 3, 4]), env)


def test_report_requires_disjoint_sides():
    f = GF2m(10)
    with pytest.raises(ValueError):
        ReconcileReport(ElementSet.of(f, [1, 2]), ElementSet.of(f, [2, 3]))


def test_envelope_is_plain_data():
    env = deserialize(bytes.fromhex(GOLDEN["pinsketch"]))
    assert isinstance(env, Envelope)
    assert env.scheme == SCHEME_PINSKETCH
    assert env.m == 3 and env.t == 2