"""The benchmark's in-process workloads and the loop that measures them.

Each workload makes a fixed block of operations from the seed alone, as
plain Python data, before fzx is imported, so input generation stays out
of every timing.  An operation is one enrolment (sketch or Gen, plus
serialize) followed by one verification (deserialize, then Rec, Rep or
reconcile) through the public fzx API.  A run replays its block whole,
so the input-only counts of two runs with one seed agree exactly.

Every block holds at least 100 ops, so ten ops lie beyond its p90.  A
run replays the block until its time is up and times each op by the mean
over its replays.  The speed of a small shared host drifts by up to 1.6x
over tens of seconds; a mean over a whole run follows that drift least
(a minimum jumps with whether the host had a fast moment at all, a
median with which side of half the run it spent fast).

The oracle judges every outcome after the clock has stopped:

* genuine ops must return exactly the enrolled value (for reconcile,
  both one-sided differences; for Rep, Gen's key);
* overflow and impostor ops must raise DecodeFailure, or return a value
  that the sketch accepts;
* tampered Reps may raise DecodeFailure, MalformedEnvelope,
  MalformedPayload or ValueError, or return some key.

Anything else, a wrong value or any other exception type, is a failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from functools import partial
from statistics import fmean

from tracer import TRACED

# fzx modules, bound by load_fzx().  Workload code looks functions up on
# these modules at call time, so the tracer's wrappers see every call.
codec = edit = entropy = envelope = gf2m = hamming = setdiff = None

# a run never measures longer than this, whatever its sample target
MAX_MEASURE_S = 120.0


def load_fzx() -> None:
    global codec, edit, entropy, envelope, gf2m, hamming, setdiff
    from fzx import codec, edit, entropy, envelope, gf2m, hamming, setdiff


@dataclass(frozen=True)
class Op:
    """One enrol+verify pair, as plain data."""

    scheme: str
    kind: str  # genuine, overflow, impostor or tamper
    w: object  # the enrolled value
    w_prime: object  # the value presented at verification
    seed: int = 0  # seeds the enrolment's randomness
    flip: float = 0.0  # tamper: flipped helper bit, as a share of its length


class Deck:
    """Draws `values` without replacement and reshuffles when empty, so
    every value turns up equally often (stratified uniform sampling)."""

    def __init__(self, rng: random.Random, values):
        self._rng = rng
        self._values = list(values)
        self._left: list = []

    def draw(self):
        if not self._left:
            self._left = list(self._values)
            self._rng.shuffle(self._left)
        return self._left.pop()


def flip_bits(rng: random.Random, w: int, n: int, k: int) -> int:
    for pos in rng.sample(range(n), k):
        w ^= 1 << pos
    return w


def near_set(rng, universe: int, size: int, d: int) -> tuple[tuple, tuple]:
    """A size-element set and a set at symmetric difference exactly d."""
    pool = rng.sample(range(1, universe), size + d)
    w = pool[:size]
    dropped = set(rng.sample(w, rng.randint(0, d)))
    added = pool[size : size + d - len(dropped)]
    return tuple(w), tuple([x for x in w if x not in dropped] + added)


def _swapped_set(rng, universe: int, size: int, k: int) -> tuple[tuple, tuple]:
    """A size-element set and a same-size set with k elements swapped out."""
    pool = rng.sample(range(1, universe), size + k)
    w = pool[:size]
    out = set(rng.sample(w, k))
    return tuple(w), tuple([x for x in w if x not in out] + pool[size:])


def _edited(rng, w: str, k: int) -> str:
    s = list(w)
    for _ in range(k):
        if rng.random() < 0.5:
            del s[rng.randrange(len(s))]
        else:
            s.insert(rng.randrange(len(s) + 1), rng.choice("01"))
    return "".join(s)


def _scheme_id(scheme: str) -> int:
    return getattr(envelope, "SCHEME_" + scheme.upper().replace("-", "_"))


def _expect(env, scheme: str):
    # the application knows which scheme it enrolled with
    if env.scheme != _scheme_id(scheme):
        raise ValueError(f"envelope holds scheme {env.scheme}, not {scheme}")
    return env


# ---------------------------------------------------------------------------
# Hamming sketches, shared by biometric-hamming and fuzzy-extract


def hamming_sketch(p, scheme: str, w: int, rng: random.Random) -> bytes:
    if scheme == "hamming-syn":
        return envelope.serialize_hamming_syn(p, hamming.ss_syndrome(p, w))
    if scheme == "hamming-offset":
        return envelope.serialize_hamming_offset(p, hamming.ss_code_offset(p, w, rng))
    return envelope.serialize_hamming_perm(p, hamming.ss_permuted(p, w, rng))


def hamming_recover(scheme: str, w_prime: int, data: bytes) -> int:
    env = _expect(envelope.deserialize(data), scheme)
    if scheme == "hamming-syn":
        return hamming.rec_syndrome(env.params, w_prime, env.sketch)
    if scheme == "hamming-offset":
        return hamming.rec_code_offset(env.params, w_prime, env.sketch)
    return hamming.rec_permuted(env.params, w_prime, env.sketch)


def hamming_accepts(p, scheme: str, data: bytes, word) -> bool:
    """True when the sketch in `data` is consistent with `word`."""
    sk = envelope.deserialize(data).sketch
    try:
        if scheme == "hamming-syn":
            return hamming.ss_syndrome(p, word) == sk
        if scheme == "hamming-offset":
            return hamming.ss_syndrome(p, word ^ sk.shift).syn_bits == 0
        return hamming.ss_syndrome(p, hamming.permute_word(word, sk.perm)) == sk.syn
    except (TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """One workload: a seeded block of ops and the calls each op makes."""

    name = ""
    block = 0  # ops per block; a run replays whole blocks
    # spans the traced run must see in the measured phase and in set-up,
    # so that a binding the tracer missed cannot silently read 0
    traced: tuple = ()
    traced_setup: tuple = ("gf2m.GF2m",)

    def generate(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def setup(self, ops: list[Op]) -> None:
        """Import fzx, fix parameters, and warm every parameter tuple."""
        raise NotImplementedError

    def prepare(self, op: Op):
        """Library inputs for an op, built once and reused by replays."""
        return None

    def enrol(self, op: Op, prep, rng: random.Random):
        raise NotImplementedError

    def deliver(self, op: Op, product):
        """What the verifier receives: the wire bytes, maybe tampered."""
        return product

    def verify(self, op: Op, prep, sent):
        raise NotImplementedError

    def wire(self, product) -> bytes:
        return product

    def check(self, op: Op, prep, product, outcome) -> bool:
        raise NotImplementedError

    def warm_up(self, ops: list[Op]) -> None:
        """One enrol+verify for each scheme (parameter tuple) in the block.
        The verifier presents the enrolled value itself, so the cost of
        set-up does not depend on which op the seed happens to put first."""
        seen = set()
        for op in ops:
            if op.kind != "genuine" or op.scheme in seen:
                continue
            seen.add(op.scheme)
            op = replace(op, w_prime=op.w)
            prep = self.prepare(op)
            product = self.enrol(op, prep, random.Random(op.seed))
            self.verify(op, prep, self.deliver(op, product))


class SetReconcile(Workload):
    """One-message PinSketch reconciliation of 256-element sets in GF(2^32)."""

    name = "set-reconcile"
    M, T, SIZE = 32, 16, 256
    block = 113  # 102 genuine ops, six of each d in 0..16, and 11 overflows
    traced = (
        "setdiff.pinsketch_ss", "setdiff.pinsketch_rec", "codec.syndrome_from_support",
        "codec.support_from_syndrome", "gf2m.poly_roots", "envelope.serialize_pinsketch",
        "envelope.deserialize", "envelope.reconcile_respond", "bitpack.pack_fields",
        "bitpack.bits_to_bytes", "bitpack.bytes_to_bits", "bitpack.unpack_fields",
    )

    def generate(self, seed):
        rng = random.Random(seed)
        near = Deck(rng, range(self.T + 1))
        far = Deck(rng, range(self.T + 1, 2 * self.T + 1))
        ops = []
        for i in range(self.block):
            overflow = i % 10 == 9
            d = (far if overflow else near).draw()
            remote, local = near_set(rng, 1 << self.M, self.SIZE, d)
            ops.append(Op("pinsketch", "overflow" if overflow else "genuine", remote, local))
        return ops

    def setup(self, ops):
        load_fzx()
        self.field = gf2m.GF2m(self.M)
        self.warm_up(ops)

    def prepare(self, op):
        return (
            setdiff.ElementSet.of(self.field, op.w),
            setdiff.ElementSet.of(self.field, op.w_prime),
        )

    def enrol(self, op, prep, rng):
        return envelope.serialize_pinsketch(setdiff.pinsketch_ss(prep[0], self.T))

    def verify(self, op, prep, data):
        return envelope.reconcile_respond(prep[1], envelope.deserialize(data))

    def check(self, op, prep, data, outcome):
        remote, local = set(op.w), set(op.w_prime)
        if isinstance(outcome, envelope.ReconcileReport):
            got_local = set(outcome.local_only.elems)
            got_remote = set(outcome.remote_only.elems)
            if op.kind == "genuine":
                return got_local == local - remote and got_remote == remote - local
            implied = (local - got_local) | got_remote
            try:
                es = setdiff.ElementSet.of(self.field, implied)
            except ValueError:
                return False
            return setdiff.pinsketch_ss(es, self.T) == envelope.deserialize(data).sketch
        return op.kind == "overflow" and isinstance(outcome, codec.DecodeFailure)


class BiometricHamming(Workload):
    """8191-bit templates (m=13, t=16), round-robin over the three Hamming
    sketches; one verification in five is an impostor."""

    name = "biometric-hamming"
    M, T = 13, 16
    N = (1 << M) - 1
    SCHEMES = ("hamming-syn", "hamming-offset", "hamming-perm")
    block = 255  # 204 genuine ops, twelve of each flip count in 0..16
    traced = (
        "hamming.ss_syndrome", "hamming.ss_code_offset", "hamming.ss_permuted",
        "hamming.random_codeword", "hamming.permute_word", "hamming.rec_syndrome",
        "hamming.rec_code_offset", "hamming.rec_permuted", "codec.support_from_syndrome",
        "gf2m.poly_roots", "envelope.serialize_hamming_syn", "envelope.serialize_hamming_offset",
        "envelope.serialize_hamming_perm", "envelope.deserialize", "bitpack.bits_to_bytes",
        "bitpack.bytes_to_bits", "bitpack.word_to_bytes", "bitpack.word_from_bytes",
    )

    def generate(self, seed):
        rng = random.Random(seed)
        flips = Deck(rng, range(self.T + 1))
        ops = []
        for i in range(self.block):
            w = rng.getrandbits(self.N)
            if i % 5 == 4:
                kind, wp = "impostor", rng.getrandbits(self.N)
            else:
                kind, wp = "genuine", flip_bits(rng, w, self.N, flips.draw())
            ops.append(Op(self.SCHEMES[i % 3], kind, w, wp, rng.getrandbits(64)))
        return ops

    def setup(self, ops):
        load_fzx()
        self.params = hamming.bch_params(self.M, self.T)
        self.warm_up(ops)

    def enrol(self, op, prep, rng):
        return hamming_sketch(self.params, op.scheme, op.w, rng)

    def verify(self, op, prep, data):
        return hamming_recover(op.scheme, op.w_prime, data)

    def check(self, op, prep, data, outcome):
        if op.kind == "genuine":
            return type(outcome) is int and outcome == op.w
        if isinstance(outcome, codec.DecodeFailure):
            return True
        return type(outcome) is int and hamming_accepts(self.params, op.scheme, data, outcome)


class _Sketcher:
    """The object compose_gen and compose_rep call: sketch() returns the
    serialized envelope, recover() parses one and decodes it."""

    def __init__(self, sketch, recover):
        self.sketch = sketch
        self.recover = recover


class FuzzyExtract(Workload):
    """Gen->Rep pairs with 32-bit keys over all seven schemes at small
    sizes; one Rep in eight gets a helper with one bit flipped."""

    name = "fuzzy-extract"
    SCHEMES = ("hamming-syn", "hamming-offset", "hamming-perm", "pinsketch", "ijs", "origjs", "edit")
    KEY_BITS = 32
    HAM_M, HAM_T = 8, 8
    SET_M, SET_S, SET_T, SET_R = 16, 16, 4, 64
    EDIT_N, EDIT_T = 64, 2
    block = 504  # nine rounds of 7 schemes x 8 ops
    traced = tuple(
        f"{layer}.{fn}"
        for layer in ("hamming", "setdiff", "codec", "edit", "entropy", "envelope", "bitpack")
        for fn in TRACED[layer]
        if fn != "reconcile_respond"
    ) + ("gf2m.poly_roots",)
    traced_setup = ("gf2m.GF2m", "gf2m.irreducible_modulus")

    def generate(self, seed):
        rng = random.Random(seed)
        n = (1 << self.HAM_M) - 1
        flips = Deck(rng, range(self.HAM_T + 1))
        diffs = Deck(rng, range(self.SET_T + 1))
        swaps = Deck(rng, range(self.SET_T // 2 + 1))
        edits = Deck(rng, range(self.EDIT_T + 1))
        ops = []
        for i in range(self.block):
            scheme = self.SCHEMES[i % len(self.SCHEMES)]
            if scheme.startswith("hamming"):
                w = rng.getrandbits(n)
                wp = flip_bits(rng, w, n, flips.draw())
            elif scheme == "pinsketch":
                w, wp = near_set(rng, 1 << self.SET_M, self.SET_S, diffs.draw())
            elif scheme in ("ijs", "origjs"):
                w, wp = _swapped_set(rng, 1 << self.SET_M, self.SET_S, swaps.draw())
            else:
                w = "".join(rng.choice("01") for _ in range(self.EDIT_N))
                wp = _edited(rng, w, edits.draw())
            tamper = i % 8 == 7
            ops.append(
                Op(
                    scheme,
                    "tamper" if tamper else "genuine",
                    w,
                    wp,
                    rng.getrandbits(64),
                    rng.random() if tamper else 0.0,
                )
            )
        return ops

    def setup(self, ops):
        load_fzx()
        self.hparams = hamming.bch_params(self.HAM_M, self.HAM_T)
        self.field = gf2m.GF2m(self.SET_M)
        self.c = edit.optimal_shingle_len(self.EDIT_N, self.EDIT_T, 2)
        self.u_word = entropy.UHashParams(self.hparams.n, self.KEY_BITS)
        self.u_set = entropy.UHashParams(self.SET_M * self.SET_S, self.KEY_BITS)
        self.sketchers = {
            s: _Sketcher(partial(hamming_sketch, self.hparams, s), partial(hamming_recover, s))
            for s in self.SCHEMES[:3]
        }
        self.sketchers.update(
            (s, _Sketcher(partial(self._set_sketch, s), partial(self._set_recover, s)))
            for s in self.SCHEMES[3:6]
        )
        self.warm_up(ops)
        # edit keys hash the shingle set, whose width varies with the input
        for width in sorted(self._edit_widths(ops)):
            entropy.uhash(entropy.UHashParams(width, self.KEY_BITS), 0, 0)

    def _edit_widths(self, ops) -> set[int]:
        return {
            (self.c + 1) * len(edit.shingle(op.w, self.c))
            for op in ops
            if op.scheme == "edit"
        }

    def _set_sketch(self, scheme, es, rng) -> bytes:
        if scheme == "pinsketch":
            return envelope.serialize_pinsketch(setdiff.pinsketch_ss(es, self.SET_T))
        if scheme == "ijs":
            return envelope.serialize_ijs(setdiff.ijs_ss(es, self.SET_T))
        return envelope.serialize_origjs(setdiff.origjs_ss(es, self.SET_R, self.SET_T, rng))

    def _set_recover(self, scheme, es, data):
        env = _expect(envelope.deserialize(data), scheme)
        if scheme == "pinsketch":
            return setdiff.pinsketch_rec(es, env.sketch)
        if scheme == "ijs":
            return setdiff.ijs_rec(es, env.sketch)
        return setdiff.origjs_rec(es, env.sketch)

    def _encode_set(self, es):
        value = 0
        for x in es.elems:
            value = (value << self.SET_M) | x
        return value, self.SET_M * len(es.elems)

    def _encode_word(self, w):
        return w, self.hparams.n

    def prepare(self, op):
        if op.scheme in ("pinsketch", "ijs", "origjs"):
            return (
                setdiff.ElementSet.of(self.field, op.w),
                setdiff.ElementSet.of(self.field, op.w_prime),
            )
        return None

    def enrol(self, op, prep, rng):
        if op.scheme == "edit":
            return edit.edit_gen(op.w, self.c, self.EDIT_T, self.KEY_BITS, rng)
        sketcher = self.sketchers[op.scheme]
        if prep is None:
            return entropy.compose_gen(sketcher, op.w, self._encode_word, self.u_word, rng)
        return entropy.compose_gen(sketcher, prep[0], self._encode_set, self.u_set, rng)

    def deliver(self, op, key):
        if op.kind != "tamper":
            return key.p
        bit = int(op.flip * 8 * len(key.p))
        helper = bytearray(key.p)
        helper[bit // 8] ^= 0x80 >> (bit % 8)
        return bytes(helper)

    def verify(self, op, prep, helper):
        if op.scheme == "edit":
            return edit.edit_rep(op.w_prime, helper, self.KEY_BITS)
        sketcher = self.sketchers[op.scheme]
        if prep is None:
            return entropy.compose_rep(sketcher, op.w_prime, helper, self._encode_word, self.u_word)
        return entropy.compose_rep(sketcher, prep[1], helper, self._encode_set, self.u_set)

    def wire(self, key):
        return key.p

    def check(self, op, prep, key, outcome):
        if op.kind == "tamper":
            return isinstance(outcome, (bytes, codec.DecodeFailure, ValueError))
        return type(outcome) is bytes and outcome == key.r


IN_PROCESS = {wl.name: wl for wl in (SetReconcile, BiometricHamming, FuzzyExtract)}


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class Block:
    """Timings of one pass over the block of ops."""

    enrol_s: list  # per op, in block order
    verify_s: list  # per op; None where the enrolment raised
    wall_s: float  # measured wall time; preparation and oracle excluded
    attempted: int


@dataclass
class Measurement:
    blocks: list
    failures: dict  # (scheme, kind) -> outcomes the oracle rejected
    wire: list  # size of every enrolment's wire bytes

    @property
    def attempted(self) -> int:
        return sum(b.attempted for b in self.blocks)

    @property
    def wall_s(self) -> float:
        return sum(b.wall_s for b in self.blocks)

    def op_means(self) -> list[tuple]:
        """(enrol, verify) seconds of each op, averaged over the replays;
        verify is None for an op whose enrolment raised."""
        enrol = zip(*(b.enrol_s for b in self.blocks))
        verify = zip(*(b.verify_s for b in self.blocks))
        return [(fmean(e), None if None in v else fmean(v)) for e, v in zip(enrol, verify)]


def measure(wl, ops, preps, seconds, min_blocks=1, enrol=None, verify=None) -> Measurement:
    """Replay the block of ops, at least `min_blocks` times, until `seconds`
    of measured wall time have passed.  The oracle judges each
    block after its clock stops.  `enrol` and `verify` default to the
    workload's own; the traced run passes wrapped ones."""
    enrol = enrol or wl.enrol
    verify = verify or wl.verify
    deliver = wl.deliver
    clock = time.perf_counter
    m = Measurement([], {}, [])
    while len(m.blocks) < min_blocks or m.wall_s < min(seconds, MAX_MEASURE_S):
        rngs = [random.Random(op.seed) for op in ops]
        block = Block([], [], 0.0, len(ops))
        records = []
        start = clock()
        for op, prep, rng in zip(ops, preps, rngs):
            t0 = clock()
            try:
                product = enrol(op, prep, rng)
            except Exception as exc:  # an op failure; the oracle counts it
                block.enrol_s.append(clock() - t0)
                block.verify_s.append(None)
                records.append((op, prep, None, exc))
                continue
            block.enrol_s.append(clock() - t0)
            sent = deliver(op, product)
            t0 = clock()
            try:
                outcome = verify(op, prep, sent)
            except Exception as exc:  # judged by the oracle
                outcome = exc
            block.verify_s.append(clock() - t0)
            records.append((op, prep, product, outcome))
        block.wall_s = clock() - start
        m.blocks.append(block)
        for op, prep, product, outcome in records:
            if product is None or not wl.check(op, prep, product, outcome):
                m.failures.setdefault((op.scheme, op.kind), []).append(outcome)
            else:
                m.wire.append(len(wl.wire(product)))
    return m
