"""Command-line front end: sketch/recover, gen/rep, reconcile, params.

Each scheme's header, sketch, recovery, encoding and loss live in its record
in `envelope._WIRE`; this module does file I/O per kind of input, flags
(each subcommand takes only those it reads) and reconciliation.

File conventions: Hamming and edit inputs are text files of '0'/'1'
characters (first character = first wire bit); set inputs are files of
one hex element per line; sketches and helper strings are raw bytes.
Keys print as lowercase hex on stdout.

Exit codes: 0 success, 2 decode failure, 3 malformed input, 4 bad
parameters.
"""

import argparse
import random
import sys
from pathlib import Path

from .codec import DecodeFailure
from .entropy import (
    MalformedPayload,
    UHashParams,
    extract,
    extractor_loss,
    max_extractable_bits,
    parse_helper,
    reproduce,
)
from .envelope import (
    _WIRE,
    SCHEME_NAMES,
    SCHEME_PINSKETCH,
    MalformedEnvelope,
    deserialize,
    reconcile_respond,
    residual,
)
from .gf2m import field_of
from .hamming import bch_params
from .setdiff import ElementSet


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


def _read_word(path: str, src) -> int:
    n = bch_params(src.m, src.t).n
    text = _read_word_text(path)
    if len(text) != n:
        raise InputError(f"expected {n} bits, got {len(text)}")
    return _word_int(text)


# How each kind of w is read from a file, and printed by recover.  read(path,
# src) takes m and t from the flags (sketch, gen) or the envelope (recover, rep).
_READ = {
    "word": _read_word,
    "set": lambda path, src: _read_set(path, field_of(src.m)),
    "string": lambda path, src: _read_word_text(path),
}
_SHOW = {
    "word": lambda env, w: _word_text(w, env.params.n) + "\n",
    "set": lambda env, es: _set_text(es),
    "string": lambda env, w: w + "\n",
}


# ---------------------------------------------------------------------------
# Schemes


# the shape flags; a scheme reads those in its record's `fields`
_SHAPE = ("m", "t", "c", "s", "r", "n")


def _scheme(args):
    """The record of --scheme, once every flag its shape needs is given and
    none it does not read is.  sketch and gen take no --s or --n, as they
    read the size of w off w; edit's --c may be left out."""
    wire = next(wire for wire in _WIRE.values() if wire.name == args.scheme)
    given = vars(args)
    for name in _SHAPE:
        if given.get(name) is not None and name not in wire.fields:
            raise ValueError(f"{args.scheme} takes no --{name}")
    for name in wire.fields:
        if name != "c" and given.get(name, 0) is None:
            raise ValueError(f"--{name} is required for {args.scheme}")
    return wire


def _rng(args):
    """os.urandom's coins, or with --seed (test vectors only) MT19937's."""
    return random.SystemRandom() if args.seed is None else random.Random(args.seed)


def _sketch(args, rng):
    """Read the input file and sketch it at the checked header of the
    flags and the size of w: (scheme, w, envelope bytes)."""
    wire = _scheme(args)
    w = _READ[wire.kind](args.input, args)
    return wire, w, wire.sketch(w, rng, *wire.check(*wire.header(args, w)))


def _open(args, env_bytes: bytes, what: str):
    """Parse an envelope, cross-check --scheme, read the input file and
    recover from it: (scheme, env, w)."""
    env = deserialize(env_bytes)
    wire = _WIRE[env.scheme]
    if args.scheme is not None and args.scheme != wire.name:
        raise ValueError(f"{what} holds {wire.name}, not {args.scheme}")
    w_prime = _READ[wire.kind](args.input, env)
    size = getattr(env.sketch, "s", None)  # a Juels-Sudan sketch fixes |w|
    if size is not None and len(w_prime) != size:
        raise InputError(f"expected {size} elements, got {len(w_prime)}")
    return wire, env, wire.recover(env, w_prime)


def _key_bits(args, env, w) -> int:
    """The key length: --out-bits, or what --eps leaves of the residual
    entropy of w given the sketch in env; gen and rep read the same
    envelope, so they agree."""
    if args.out_bits is not None:
        return args.out_bits
    if args.eps is None:
        raise ValueError("need --out-bits or --eps")
    l = max_extractable_bits(residual(env, w), args.eps)
    if l < 1:
        raise ValueError("no extractable bits at this eps; residual entropy too low")
    return l


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_sketch(args) -> int:
    _, _, data = _sketch(args, _rng(args))
    Path(args.output).write_bytes(data)
    return 0


def _cmd_recover(args) -> int:
    wire, env, w = _open(args, _read_bytes(args.sketch), "sketch")
    text = _SHOW[wire.kind](env, w)
    if args.output is None:
        sys.stdout.write(text)
    else:
        Path(args.output).write_text(text)
    return 0


def _cmd_gen(args) -> int:
    rng = _rng(args)
    wire, w, data = _sketch(args, rng)
    env = deserialize(data)
    value, n_bits = wire.encode(env, w)
    key = extract(data, value, UHashParams(n_bits, _key_bits(args, env, w)), rng)
    Path(args.output).write_bytes(key.p)
    print(key.r.hex())
    return 0


def _cmd_rep(args) -> int:
    sketch, seed = parse_helper(_read_bytes(args.sketch))
    wire, env, w = _open(args, sketch, "helper")
    l_bits = _key_bits(args, env, w)
    print(reproduce(seed, *wire.encode(env, w), l_bits).hex())
    return 0


def _cmd_reconcile(args) -> int:
    env = deserialize(_read_bytes(args.sketch))
    if env.scheme != SCHEME_PINSKETCH:  # before the local set is read in its field
        raise ValueError("reconciliation needs a PinSketch envelope")
    local = _read_set(args.local, env.sketch.field)
    report = reconcile_respond(local, env)
    out = [f"- {x:x}" for x in report.local_only.elems]
    out += [f"+ {x:x}" for x in report.remote_only.elems]
    print("\n".join(out) if out else "in sync")
    return 0


def _cmd_params(args) -> int:
    wire = _scheme(args)
    info = wire.loss(*wire.check(*wire.header(args)))
    if args.eps is not None:
        info["loss_bits"] += extractor_loss(args.eps)
    lines = [f"scheme: {args.scheme}"]
    lines += [f"{name}: {value}" for name, value in info.items()]
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _int_flags(sub, *names):
    for name in names:
        sub.add_argument(f"--{name}", type=int)


def build_parser() -> argparse.ArgumentParser:
    # a flag must be spelled out: a prefix such as --o is no flag
    parser = argparse.ArgumentParser(
        prog="fzx", description="Secure sketches and fuzzy extractors.", allow_abbrev=False
    )
    subs = parser.add_subparsers(dest="command", required=True)
    schemes = list(SCHEME_NAMES.values())

    def command(name, help):
        return subs.add_parser(name, help=help, allow_abbrev=False)

    sk = command("sketch", "write a sketch envelope for the input")
    rc = command("recover", "recover the original input from a close one")
    gen = command("gen", "extract a key and write the public helper")
    rep = command("rep", "reproduce the key from the helper")
    rec = command("reconcile", "report the set difference to a peer sketch")
    pa = command("params", "print the entropy-loss accounting")

    # sketch and gen take the shape from the flags and the size of w from w
    for sub in (sk, gen):
        sub.add_argument("--scheme", choices=schemes, required=True)
        _int_flags(sub, "m", "t", "c", "r", "seed")
        sub.add_argument("-i", "--input", required=True)
        sub.add_argument("-o", "--output", required=True)
    # recover and rep take everything from the envelope
    for sub in (rc, rep):
        sub.add_argument("--scheme", choices=schemes)
        sub.add_argument("-i", "--input", required=True)
        sub.add_argument("--sketch", required=True)
    rc.add_argument("-o", "--output")
    for sub in (gen, rep):
        sub.add_argument("--out-bits", type=int)
    for sub in (gen, rep, pa):
        sub.add_argument("--eps", type=float)

    rec.add_argument("--local", required=True)
    rec.add_argument("--sketch", required=True)

    pa.add_argument("--scheme", choices=schemes, required=True)
    _int_flags(pa, "m", "t", "c", "s", "r", "n")

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
