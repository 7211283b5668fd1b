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
from pathlib import Path

from .codec import DecodeFailure
from .edit import (
    approx_edit_entropy_loss,
    edit_entropy_loss,
    edit_gen,
    edit_rec,
    edit_rep,
    edit_ss,
    optimal_shingle_len,
)
from .entropy import (
    MalformedPayload,
    UHashParams,
    compose_gen,
    compose_rep,
    max_extractable_bits,
    parse_helper,
)
from .envelope import (
    SCHEME_EDIT,
    SCHEME_HAMMING_OFFSET,
    SCHEME_HAMMING_PERM,
    SCHEME_HAMMING_SYN,
    SCHEME_IJS,
    SCHEME_ORIGJS,
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
    pinsketch_rec,
    pinsketch_ss,
    setdiff_entropy_loss,
)

_SCHEMES = (
    "hamming-syn",
    "hamming-offset",
    "hamming-perm",
    "pinsketch",
    "ijs",
    "origjs",
    "edit",
)

_SCHEME_IDS = {
    "hamming-syn": SCHEME_HAMMING_SYN,
    "hamming-offset": SCHEME_HAMMING_OFFSET,
    "hamming-perm": SCHEME_HAMMING_PERM,
    "pinsketch": SCHEME_PINSKETCH,
    "ijs": SCHEME_IJS,
    "origjs": SCHEME_ORIGJS,
    "edit": SCHEME_EDIT,
}
_SCHEME_NAMES = {v: k for k, v in _SCHEME_IDS.items()}


class InputError(ValueError):
    """A readable-but-invalid input file."""


# ---------------------------------------------------------------------------
# File I/O


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_word_text(path: str) -> str:
    try:
        text = "".join(Path(path).read_text().split())
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    if not text or set(text) - {"0", "1"}:
        raise InputError(f"{path}: expected a nonempty string of 0/1 characters")
    return text


def _word_int(text: str) -> int:
    # first character is wire bit 0 (the high bit of the first byte)
    value = 0
    for j, ch in enumerate(text):
        if ch == "1":
            value |= 1 << j
    return value


def _word_text(word: int, n: int) -> str:
    return "".join("1" if (word >> j) & 1 else "0" for j in range(n))


def _read_set(path: str, field) -> ElementSet:
    try:
        lines = Path(path).read_text().split()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
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
# Scheme plumbing shared by sketch/recover/gen/rep


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required for {args.scheme}")


def _hamming_word(args, path: str):
    params = bch_params(args.m, args.t)
    text = _read_word_text(path)
    if len(text) != params.n:
        raise InputError(f"expected {params.n} bits, got {len(text)}")
    return params, _word_int(text)


def _make_sketch(args, rng) -> bytes:
    scheme = args.scheme
    if scheme in ("hamming-syn", "hamming-offset", "hamming-perm"):
        _require(args, "m", "t")
        params, w = _hamming_word(args, args.input)
        if scheme == "hamming-syn":
            return serialize_hamming_syn(params, ss_syndrome(params, w))
        if scheme == "hamming-offset":
            return serialize_hamming_offset(params, ss_code_offset(params, w, rng))
        return serialize_hamming_perm(params, ss_permuted(params, w, rng))
    if scheme in ("pinsketch", "ijs", "origjs"):
        _require(args, "m", "t")
        es = _read_set(args.input, field_of(args.m))
        if scheme == "pinsketch":
            return serialize_pinsketch(pinsketch_ss(es, args.t))
        if scheme == "ijs":
            return serialize_ijs(ijs_ss(es, args.t))
        _require(args, "r")
        return serialize_origjs(origjs_ss(es, args.r, args.t, rng))
    # edit
    _require(args, "t")
    text = _read_word_text(args.input)
    c = args.c if args.c is not None else optimal_shingle_len(len(text), args.t, 2)
    return serialize_edit(edit_ss(text, c, args.t), c, args.t)


def _recover_word(env, w: int) -> int:
    if env.scheme == SCHEME_HAMMING_SYN:
        return rec_syndrome(env.params, w, env.sketch)
    if env.scheme == SCHEME_HAMMING_OFFSET:
        return rec_code_offset(env.params, w, env.sketch)
    return rec_permuted(env.params, w, env.sketch)


def _recover_set(env, es: ElementSet) -> ElementSet:
    if env.scheme == SCHEME_PINSKETCH:
        return pinsketch_rec(es, env.sketch)
    if env.scheme == SCHEME_IJS:
        return ijs_rec(es, env.sketch)
    return origjs_rec(es, env.sketch)


def _encode_word(n: int):
    return lambda w: (w, n)


def _encode_set(field):
    def encode(es: ElementSet):
        value = 0
        for x in es.elems:
            value = (value << field.m) | x
        return value, field.m * len(es.elems)

    return encode


class _FixedSketcher:
    """compose_gen/compose_rep adapter around precomputed pieces."""

    def __init__(self, sketch_bytes: bytes = b"", recovered=None):
        self._sketch = sketch_bytes
        self._recovered = recovered

    def sketch(self, w, rng):
        return self._sketch

    def recover(self, w_prime, sketch):
        return self._recovered


def _subset_entropy(m: int, s: int) -> float:
    """Min-entropy of a uniform s-element subset of GF(2^m)*."""
    return math.log2(math.comb((1 << m) - 1, s))


def _key_bits_or_raise(out_bits, eps, residual: float) -> int:
    if out_bits is not None:
        return out_bits
    if eps is None:
        raise ValueError("need --out-bits or --eps")
    l = max_extractable_bits(residual, eps)
    if l < 1:
        raise ValueError("no extractable bits at this eps; residual entropy too low")
    return l


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_sketch(args) -> int:
    rng = random.Random(args.seed)
    data = _make_sketch(args, rng)
    Path(args.output).write_bytes(data)
    return 0


def _cmd_recover(args) -> int:
    env = deserialize(_read_bytes(args.sketch))
    if args.scheme is not None and _SCHEME_IDS[args.scheme] != env.scheme:
        raise ValueError(
            f"sketch holds {_SCHEME_NAMES[env.scheme]}, not {args.scheme}"
        )
    if env.scheme in (SCHEME_HAMMING_SYN, SCHEME_HAMMING_OFFSET, SCHEME_HAMMING_PERM):
        text = _read_word_text(args.input)
        if len(text) != env.params.n:
            raise InputError(f"expected {env.params.n} bits, got {len(text)}")
        out = _word_text(_recover_word(env, _word_int(text)), env.params.n) + "\n"
    elif env.scheme in (SCHEME_PINSKETCH, SCHEME_IJS, SCHEME_ORIGJS):
        out = _set_text(_recover_set(env, _read_set(args.input, env.sketch.field)))
    else:
        out = edit_rec(_read_word_text(args.input), env.sketch) + "\n"
    _write_out(args.output, out)
    return 0


def _cmd_gen(args) -> int:
    rng = random.Random(args.seed)
    scheme = args.scheme
    if scheme == "edit":
        _require(args, "t")
        text = _read_word_text(args.input)
        c = args.c if args.c is not None else optimal_shingle_len(len(text), args.t, 2)
        residual = len(text) - edit_entropy_loss(len(text), c, args.t, 2)
        l = _key_bits_or_raise(args.out_bits, args.eps, residual)
        key = edit_gen(text, c, args.t, l, rng)
    else:
        sketch_bytes = _make_sketch(args, rng)
        if scheme.startswith("hamming"):
            params, w = _hamming_word(args, args.input)
            encode, n_bits = _encode_word(params.n), params.n
            residual = params.n - params.syndrome_bits
        else:
            field = field_of(args.m)
            w = _read_set(args.input, field)
            encode, n_bits = _encode_set(field), field.m * len(w.elems)
            loss = setdiff_entropy_loss(
                scheme, m=args.m, t=args.t, s=len(w.elems), r=args.r
            )
            residual = _subset_entropy(args.m, len(w.elems)) - loss
        l = _key_bits_or_raise(args.out_bits, args.eps, residual)
        u = UHashParams(n_bits, l)
        key = compose_gen(_FixedSketcher(sketch_bytes=sketch_bytes), w, encode, u, rng)
    Path(args.output).write_bytes(key.p)
    print(key.r.hex())
    return 0


def _cmd_rep(args) -> int:
    p = _read_bytes(args.sketch)
    env_bytes, _ = parse_helper(p)
    env = deserialize(env_bytes)
    scheme = _SCHEME_NAMES[env.scheme]
    if args.scheme is not None and args.scheme != scheme:
        raise ValueError(f"helper holds {scheme}, not {args.scheme}")
    if env.scheme == SCHEME_EDIT:
        n = env.sketch.s2.n
        bits = (env.m - 1) // env.c
        residual = n * bits - edit_entropy_loss(n, env.c, env.t_edit, 1 << bits)
        l = _key_bits_or_raise(args.out_bits, args.eps, residual)
        key = edit_rep(_read_word_text(args.input), p, l)
    elif env.scheme in (SCHEME_HAMMING_SYN, SCHEME_HAMMING_OFFSET, SCHEME_HAMMING_PERM):
        text = _read_word_text(args.input)
        if len(text) != env.params.n:
            raise InputError(f"expected {env.params.n} bits, got {len(text)}")
        got = _recover_word(env, _word_int(text))
        residual = env.params.n - env.params.syndrome_bits
        l = _key_bits_or_raise(args.out_bits, args.eps, residual)
        u = UHashParams(env.params.n, l)
        key = compose_rep(
            _FixedSketcher(recovered=got),
            _word_int(text),
            p,
            _encode_word(env.params.n),
            u,
        )
    else:
        field = env.sketch.field
        wp = _read_set(args.input, field)
        got = _recover_set(env, wp)
        s = len(got.elems)
        if env.scheme == SCHEME_ORIGJS:
            loss = setdiff_entropy_loss(
                "origjs", m=field.m, t=env.sketch.t, s=env.sketch.s, r=env.sketch.r
            )
        else:
            loss = setdiff_entropy_loss(scheme, m=field.m, t=env.sketch.t)
        residual = _subset_entropy(field.m, s) - loss
        l = _key_bits_or_raise(args.out_bits, args.eps, residual)
        u = UHashParams(field.m * s, l)
        key = compose_rep(_FixedSketcher(recovered=got), wp, p, _encode_set(field), u)
    print(key.hex())
    return 0


def _cmd_reconcile(args) -> int:
    env = deserialize(_read_bytes(args.sketch))
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
        k = params.n - args.t * args.m
        lines += [
            f"n: {params.n}",
            f"k: {k}",
            f"sketch_bits: {params.syndrome_bits}",
            f"loss_bits: {hamming_entropy_loss(params.n, k)}",
        ]
    elif scheme in ("pinsketch", "ijs"):
        _require(args, "m", "t")
        loss = setdiff_entropy_loss(scheme, m=args.m, t=args.t)
        lines += [f"sketch_bits: {args.t * args.m}", f"loss_bits: {loss}"]
    elif scheme == "origjs":
        _require(args, "m", "t", "s", "r")
        loss = setdiff_entropy_loss("origjs", m=args.m, t=args.t, s=args.s, r=args.r)
        lines += [f"sketch_bits: {2 * args.r * args.m}", f"loss_bits: {loss}"]
    else:
        _require(args, "n", "t")
        c = args.c if args.c is not None else optimal_shingle_len(args.n, args.t, 2)
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
    sub.add_argument("--scheme", choices=_SCHEMES, required=scheme_required)
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
