"""Command-line front end: sketch/recover, gen/rep, reconcile, params.

File conventions: Hamming and edit inputs are text files of '0'/'1'
characters (first character = first wire bit); set inputs are files of
one hex element per line; sketches and helper strings are raw bytes.
Keys print as lowercase hex on stdout.

Exit codes: 0 success, 2 decode failure, 3 malformed input, 4 bad
parameters.
"""

import argparse
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .bitpack import pack_fields
from .codec import DecodeFailure
from .edit import (
    approx_edit_entropy_loss,
    edit_capacity,
    edit_entropy_loss,
    edit_rec,
    edit_ss,
    optimal_shingle_len,
    shingle_encoding,
)
from .entropy import (
    MalformedPayload,
    UHashParams,
    extract,
    max_extractable_bits,
    parse_helper,
    reproduce,
)
from .envelope import (
    SCHEME_NAMES,
    SCHEME_PINSKETCH,
    MalformedEnvelope,
    deserialize,
    reconcile_respond,
    serialize_edit,
    serialize_hamming_offset,
    serialize_hamming_perm,
    serialize_hamming_syn,
    serialize_ijs,
    serialize_origjs,
    serialize_pinsketch,
)
from .gf2m import field_of
from .hamming import (
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
    ijs_rec,
    ijs_ss,
    origjs_rec,
    origjs_ss,
    pinsketch_code,
    pinsketch_rec,
    pinsketch_ss,
    setdiff_entropy_loss,
)


class InputError(ValueError):
    """A readable-but-invalid input file."""


# ---------------------------------------------------------------------------
# File I/O


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_text(path: str) -> str:
    try:
        return _read_bytes(path).decode()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}") from exc


def _read_word_text(path: str) -> str:
    text = "".join(_read_text(path).split())
    if not text or set(text) - {"0", "1"}:
        raise InputError(f"{path}: expected a nonempty string of 0/1 characters")
    return text


def _word_int(text: str) -> int:
    # first character is wire bit 0 (the high bit of the first byte)
    return int(text[::-1], 2)


def _word_text(word: int, n: int) -> str:
    return format(word, f"0{n}b")[::-1]


def _read_set(path: str, field) -> ElementSet:
    lines = _read_text(path).split()
    try:
        elems = [int(line, 16) for line in lines]
        return ElementSet.of(field, elems)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _set_text(es: ElementSet) -> str:
    return "".join(f"{x:x}\n" for x in es.elems)


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


# ---------------------------------------------------------------------------
# Input kinds and the scheme table


@dataclass(frozen=True)
class _Kind:
    """How a family of schemes reads, prints and hashes its values.

    read(path, m, t) takes m and t from the flags (sketch, gen) or from
    the envelope (recover, rep); show(env, w) is what recover prints;
    encode(env, w) is the injective (value, n_bits) hash input;
    residual(env, w) is the min-entropy in bits left in w, uniform over its
    type, once the sketch in env is public.
    """

    read: Callable
    show: Callable
    encode: Callable
    residual: Callable


def _read_word(path: str, m: int, t: int) -> int:
    n = bch_params(m, t).n
    text = _read_word_text(path)
    if len(text) != n:
        raise InputError(f"expected {n} bits, got {len(text)}")
    return _word_int(text)


def _sized(env, es: ElementSet) -> ElementSet:
    """w' for a Juels-Sudan envelope, whose s fixes the size of the set."""
    if len(es) != env.sketch.s:
        raise InputError(f"expected {env.sketch.s} elements, got {len(es)}")
    return es


def _set_residual(env, es: ElementSet) -> float:
    s = len(es.elems)
    # of the set schemes only origjs sketches carry r
    r = getattr(env.sketch, "r", None)
    loss = setdiff_entropy_loss(SCHEME_NAMES[env.scheme], m=env.m, t=env.sketch.t, s=s, r=r)
    return math.log2(math.comb((1 << env.m) - 1, s)) - loss


def _edit_residual(env, w: str) -> float:
    n, bits = env.sketch.s2.n, (env.m - 1) // env.c
    return n * bits - edit_entropy_loss(n, env.c, env.t_edit, 1 << bits)


# Hamming words of n = 2^m - 1 bits; n bits less the n - k the sketch reveals
_WORDS = _Kind(
    read=_read_word,
    show=lambda env, w: _word_text(w, env.params.n) + "\n",
    encode=lambda env, w: (w, env.params.n),
    residual=lambda env, w: env.params.k,
)
# sets of nonzero elements of GF(2^m)
_SETS = _Kind(
    read=lambda path, m, t: _read_set(path, field_of(m)),
    show=lambda env, es: _set_text(es),
    encode=lambda env, es: pack_fields(es.elems, env.m),
    residual=_set_residual,
)
# strings of '0'/'1' characters
_STRINGS = _Kind(
    read=lambda path, m, t: _read_word_text(path),
    show=lambda env, w: w + "\n",
    encode=lambda env, w: shingle_encoding(w, env.c),
    residual=_edit_residual,
)


@dataclass(frozen=True)
class _Scheme:
    """Everything sketch, recover, gen and rep know about one scheme."""

    kind: _Kind
    flags: tuple[str, ...]  # required by sketch and gen
    sketch: Callable  # (args, w, rng) -> envelope bytes
    recover: Callable  # (env, w') -> w


def _bch(args):
    return bch_params(args.m, args.t)


def _shingle_len(args, n: int) -> int:
    """--c, or the loss-minimizing shingle length for n binary characters."""
    return args.c if args.c is not None else optimal_shingle_len(n, args.t, 2)


def _sketch_edit(args, w: str, rng) -> bytes:
    c = _shingle_len(args, len(w))
    return serialize_edit(edit_ss(w, c, args.t), c, args.t)


_SCHEMES = {
    "hamming-syn": _Scheme(
        _WORDS,
        ("m", "t"),
        lambda a, w, rng: serialize_hamming_syn(_bch(a), ss_syndrome(_bch(a), w)),
        lambda env, w: rec_syndrome(env.params, w, env.sketch),
    ),
    "hamming-offset": _Scheme(
        _WORDS,
        ("m", "t"),
        lambda a, w, rng: serialize_hamming_offset(_bch(a), ss_code_offset(_bch(a), w, rng)),
        lambda env, w: rec_code_offset(env.params, w, env.sketch),
    ),
    "hamming-perm": _Scheme(
        _WORDS,
        ("m", "t"),
        lambda a, w, rng: serialize_hamming_perm(_bch(a), ss_permuted(_bch(a), w, rng)),
        lambda env, w: rec_permuted(env.params, w, env.sketch),
    ),
    "pinsketch": _Scheme(
        _SETS,
        ("m", "t"),
        lambda a, es, rng: serialize_pinsketch(pinsketch_ss(es, a.t)),
        lambda env, es: pinsketch_rec(es, env.sketch),
    ),
    "ijs": _Scheme(
        _SETS,
        ("m", "t"),
        lambda a, es, rng: serialize_ijs(ijs_ss(es, a.t)),
        lambda env, es: ijs_rec(_sized(env, es), env.sketch),
    ),
    "origjs": _Scheme(
        _SETS,
        ("m", "t", "r"),
        lambda a, es, rng: serialize_origjs(origjs_ss(es, a.r, a.t, rng)),
        lambda env, es: origjs_rec(_sized(env, es), env.sketch),
    ),
    "edit": _Scheme(
        _STRINGS,
        ("t",),
        _sketch_edit,
        lambda env, w: edit_rec(w, env.sketch),
    ),
}


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for {args.scheme}")


def _sketch(args, rng):
    """Read the input file and sketch it: (scheme, w, envelope bytes)."""
    scheme = _SCHEMES[args.scheme]
    _require(args, *scheme.flags)
    w = scheme.kind.read(args.input, args.m, args.t)
    return scheme, w, scheme.sketch(args, w, rng)


def _open(args, env_bytes: bytes, what: str):
    """Parse an envelope, cross-check --scheme, read the input file and
    recover from it: (scheme, env, w)."""
    env = deserialize(env_bytes)
    name = SCHEME_NAMES[env.scheme]
    if args.scheme is not None and args.scheme != name:
        raise ValueError(f"{what} holds {name}, not {args.scheme}")
    scheme = _SCHEMES[name]
    w_prime = scheme.kind.read(args.input, env.m, env.t)
    return scheme, env, scheme.recover(env, w_prime)


def _key_bits(args, kind, env, w) -> int:
    """The key length: --out-bits, or what --eps leaves of the residual
    entropy of w given the sketch in env; gen and rep read the same
    envelope, so they agree."""
    if args.out_bits is not None:
        return args.out_bits
    if args.eps is None:
        raise ValueError("need --out-bits or --eps")
    l = max_extractable_bits(kind.residual(env, w), args.eps)
    if l < 1:
        raise ValueError("no extractable bits at this eps; residual entropy too low")
    return l


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_sketch(args) -> int:
    _, _, data = _sketch(args, random.Random(args.seed))
    Path(args.output).write_bytes(data)
    return 0


def _cmd_recover(args) -> int:
    scheme, env, w = _open(args, _read_bytes(args.sketch), "sketch")
    _write_out(args.output, scheme.kind.show(env, w))
    return 0


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    scheme, w, data = _sketch(args, rng)
    env = deserialize(data)
    value, n_bits = scheme.kind.encode(env, w)
    key = extract(data, value, UHashParams(n_bits, _key_bits(args, scheme.kind, env, w)), rng)
    Path(args.output).write_bytes(key.p)
    print(key.r.hex())
    return 0


def _cmd_rep(args) -> int:
    sketch, seed = parse_helper(_read_bytes(args.sketch))
    scheme, env, w = _open(args, sketch, "helper")
    l_bits = _key_bits(args, scheme.kind, env, w)
    print(reproduce(seed, *scheme.kind.encode(env, w), l_bits).hex())
    return 0


def _cmd_reconcile(args) -> int:
    env = deserialize(_read_bytes(args.sketch))
    if env.scheme != SCHEME_PINSKETCH:  # before the local set is read in its field
        raise ValueError("reconciliation needs a PinSketch envelope")
    local = _read_set(args.local, env.sketch.field)
    report = reconcile_respond(local, env)
    out = []
    for x in report.local_only.elems:
        out.append(f"- {x:x}")
    for x in report.remote_only.elems:
        out.append(f"+ {x:x}")
    print("\n".join(out) if out else "in sync")
    return 0


def _cmd_params(args) -> int:
    scheme = args.scheme
    lines = [f"scheme: {scheme}"]
    if scheme.startswith("hamming"):
        _require(args, "m", "t")
        params = bch_params(args.m, args.t)
        lines += [
            f"n: {params.n}",
            f"k: {params.k}",
            f"sketch_bits: {params.syndrome_bits}",
            f"loss_bits: {hamming_entropy_loss(params.n, params.k)}",
        ]
    elif scheme in ("pinsketch", "ijs"):
        _require(args, "m", "t")
        field = field_of(args.m)  # rejects the degrees sketch rejects
        t = args.t - args.t % 2 if scheme == "ijs" else args.t  # as ijs_ss rounds
        if scheme == "pinsketch":
            pinsketch_code(field, t)
        loss = setdiff_entropy_loss(scheme, m=args.m, t=t)
        lines += [f"sketch_bits: {t * args.m}", f"loss_bits: {loss}"]
    elif scheme == "origjs":
        _require(args, "m", "t", "s", "r")
        if not 0 <= args.t <= args.s < args.r <= field_of(args.m).order:
            raise ValueError("need 0 <= t <= s < r <= 2^m - 1")
        loss = setdiff_entropy_loss("origjs", m=args.m, t=args.t, s=args.s, r=args.r)
        lines += [f"sketch_bits: {2 * args.r * args.m}", f"loss_bits: {loss}"]
    else:
        _require(args, "n", "t")
        c = _shingle_len(args, args.n)
        edit_capacity(args.n, c, args.t, 1)  # the checks of edit_ss
        loss = edit_entropy_loss(args.n, c, args.t, 2, eps=args.eps)
        lines += [
            f"c: {c}",
            f"loss_bits: {loss}",
            f"approx_loss_bits: {approx_edit_entropy_loss(args.n, args.t, 2)}",
        ]
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(sub, *, scheme_required=True, io_input=True, output_required=False):
    sub.add_argument("--scheme", choices=list(SCHEME_NAMES.values()), required=scheme_required)
    sub.add_argument("--m", type=int)
    sub.add_argument("--t", type=int)
    sub.add_argument("--c", type=int)
    sub.add_argument("--s", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--n", type=int)
    sub.add_argument("--seed", type=int)
    if io_input:
        sub.add_argument("-i", "--input", required=True)
    sub.add_argument("-o", "--output", required=output_required)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fzx", description="Secure sketches and fuzzy extractors."
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sk = subs.add_parser("sketch", help="write a sketch envelope for the input")
    _add_common(sk, output_required=True)

    rc = subs.add_parser("recover", help="recover the original input from a close one")
    _add_common(rc, scheme_required=False)
    rc.add_argument("--sketch", required=True)

    gen = subs.add_parser("gen", help="extract a key and write the public helper")
    _add_common(gen, output_required=True)
    gen.add_argument("--out-bits", type=int)
    gen.add_argument("--eps", type=float)

    rep = subs.add_parser("rep", help="reproduce the key from the helper")
    _add_common(rep, scheme_required=False)
    rep.add_argument("--sketch", required=True)
    rep.add_argument("--out-bits", type=int)
    rep.add_argument("--eps", type=float)

    rec = subs.add_parser("reconcile", help="report the set difference to a peer sketch")
    rec.add_argument("--local", required=True)
    rec.add_argument("--sketch", required=True)

    pa = subs.add_parser("params", help="print the entropy-loss accounting")
    _add_common(pa, io_input=False)
    pa.add_argument("--eps", type=float)

    return parser


_COMMANDS = {
    "sketch": _cmd_sketch,
    "recover": _cmd_recover,
    "gen": _cmd_gen,
    "rep": _cmd_rep,
    "reconcile": _cmd_reconcile,
    "params": _cmd_params,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; --help exits 0
        return 0 if exc.code == 0 else 4
    try:
        return _COMMANDS[args.command](args)
    except DecodeFailure as exc:
        print(f"decode failure: {exc}", file=sys.stderr)
        return 2
    except (MalformedEnvelope, MalformedPayload, InputError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bad parameters: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
