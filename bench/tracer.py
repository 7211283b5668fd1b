"""Per-layer tracing of fzx from outside the package.

`Tracer.install()` replaces each traced function wherever a module of the
fzx package binds it, so a caller's own lookup (for example
`fzx.codec.poly_roots` and `fzx.setdiff.poly_roots`) goes through one
wrapper, and wraps `GF2m.__init__` on the class to count field builds.
A wrapper records a span (name, start, end, parent, op, phase, detail)
and a few counters, and passes arguments, results and exceptions through
unchanged.  `uninstall()` puts every original back.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans; spans nest properly
because fzx is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import random
import sys
import time

LAYERS = ("gf2m", "codec", "hamming", "setdiff", "edit", "entropy", "envelope", "bitpack")

TRACED = {
    "gf2m": ("poly_roots", "irreducible_modulus"),
    "codec": ("syndrome_from_support", "support_from_syndrome", "rs_decode"),
    "hamming": (
        "ss_syndrome",
        "ss_code_offset",
        "ss_permuted",
        "random_codeword",
        "permute_word",
        "rec_syndrome",
        "rec_code_offset",
        "rec_permuted",
    ),
    "setdiff": ("pinsketch_ss", "pinsketch_rec", "ijs_ss", "ijs_rec", "origjs_ss", "origjs_rec"),
    "edit": ("edit_ss", "edit_rec", "edit_gen", "edit_rep"),
    "entropy": ("compose_gen", "compose_rep", "uhash", "parse_helper"),
    "envelope": (
        "serialize_hamming_syn",
        "serialize_hamming_offset",
        "serialize_hamming_perm",
        "serialize_pinsketch",
        "serialize_ijs",
        "serialize_origjs",
        "serialize_edit",
        "deserialize",
        "reconcile_respond",
    ),
    "bitpack": (
        "pack_fields",
        "unpack_fields",
        "bits_to_bytes",
        "bytes_to_bits",
        "word_to_bytes",
        "word_from_bytes",
    ),
}

FIELD_BUILD = "gf2m.GF2m"
ROOTS = ("op.enrol", "op.verify")


def _arg(i: int, name: str):
    def get(args, kwargs):
        return args[i] if len(args) > i else kwargs[name]

    return get


# counter name and how to read it off the call's arguments
SIZES = {
    "gf2m.poly_roots": ("deg_sum", lambda a, kw: len(_arg(1, "f")(a, kw)) - 1),
    "codec.syndrome_from_support": ("elems", lambda a, kw: len(_arg(1, "support")(a, kw))),
    "codec.rs_decode": ("points", lambda a, kw: len(_arg(1, "points")(a, kw))),
    "envelope.deserialize": ("bytes", lambda a, kw: len(_arg(0, "data")(a, kw))),
}
# counter name and the exception type it counts, by module and class name
FAILURES = {
    "codec.support_from_syndrome": ("failures", ("codec", "DecodeFailure")),
    "envelope.deserialize": ("rejects", ("envelope", "MalformedEnvelope")),
}
# the argument kept as a span's detail
DETAILS = {
    FIELD_BUILD: _arg(1, "m"),
    "gf2m.irreducible_modulus": _arg(0, "m"),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.phase = "setup"
        self.op = -1
        self._stack: list[int] = []
        self._patched: list = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        size = SIZES.get(name)
        failure = FAILURES.get(name)
        if failure:
            mod, cls = failure[1]
            failure = (failure[0], getattr(sys.modules["fzx." + mod], cls))
        detail = DETAILS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            phase = tracer.phase
            if size:
                key = (phase, name, size[0])
                counts[key] = counts.get(key, 0) + size[1](args, kwargs)
            note = detail(args, kwargs) if detail else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if failure and isinstance(exc, failure[1]):
                    key = (phase, name, failure[0])
                    counts[key] = counts.get(key, 0) + 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op, phase, note)

        return traced

    def root(self, name: str, fn, phase_of):
        """Wrap a benchmark-side enrol or verify call as an op's root span.
        `phase_of(op)` names the phase its spans count in."""
        wrapped = self.wrap(name, fn)
        new_op = name == ROOTS[0]
        tracer = self

        def call(op, prep, arg):
            if new_op:
                tracer.op += 1
            saved, tracer.phase = tracer.phase, phase_of(op)
            try:
                return wrapped(op, prep, arg)
            finally:
                tracer.phase = saved

        return call

    def install(self) -> None:
        import fzx

        modules = [fzx] + [importlib.import_module("fzx." + m) for m in LAYERS]
        modules += [sys.modules["fzx.cli"]] if "fzx.cli" in sys.modules else []
        for layer, names in TRACED.items():
            home = sys.modules["fzx." + layer]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
        cls = sys.modules["fzx.gf2m"].GF2m
        orig_init = vars(cls)["__init__"]
        self._patched.append((cls, "__init__", orig_init))
        cls.__init__ = self.wrap(FIELD_BUILD, orig_init)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Self time in ns of every span, by span index."""
        covered = [0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, covered)]

    def fired(self, phases) -> set[str]:
        return {s[0] for s in self.spans if s[5] in phases}


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-layer rows of the measured phase, per measured op, plus the
    set-up rows (field builds, first sketches, modulus searches)."""
    measured = ("measured", "tamper")
    selfs = tracer.self_times()
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    first: dict[str, int] = {}
    roots_ns = layers_ns = 0
    builds = {"setup": 0, "measured": 0, "tamper": 0}
    build_setup_ns = irreducible_ns = 0
    for (name, start, end, parent, op, phase, note), own in zip(tracer.spans, selfs):
        if name == FIELD_BUILD:
            builds[phase] = builds.get(phase, 0) + 1
            if phase == "setup":
                build_setup_ns += end - start
        if name == "gf2m.irreducible_modulus":
            irreducible_ns += end - start
        if phase == "setup":
            first.setdefault(name, end - start)
            continue
        if phase not in measured:
            continue
        self_ns[name] = self_ns.get(name, 0) + own
        calls[name] = calls.get(name, 0) + 1
        if name in ROOTS:
            roots_ns += end - start
        else:
            layers_ns += own

    def count(name, counter):
        return sum(tracer.counts.get((p, name, counter), 0) for p in measured) / n_ops

    def per_op_ms(*names):
        return _ms(sum(self_ns.get(n, 0) for n in names)) / n_ops

    rows = {
        "gf2m.poly_roots.self_ms": per_op_ms("gf2m.poly_roots"),
        "gf2m.poly_roots.calls": calls.get("gf2m.poly_roots", 0) / n_ops,
        "gf2m.poly_roots.deg_sum": count("gf2m.poly_roots", "deg_sum"),
        "gf2m.field_builds.setup": builds["setup"],
        "gf2m.field_builds.measured": builds["measured"],
        "gf2m.field_builds.tamper": builds["tamper"],
        "gf2m.field_build_ms.setup": _ms(build_setup_ns),
        "gf2m.irreducible_modulus.ms": _ms(irreducible_ns),
    }
    for fn in ("syndrome_from_support", "support_from_syndrome", "rs_decode"):
        name = "codec." + fn
        rows[name + ".self_ms"] = per_op_ms(name)
        rows[name + ".calls"] = calls.get(name, 0) / n_ops
    rows["codec.syndrome_from_support.elems"] = count("codec.syndrome_from_support", "elems")
    rows["codec.support_from_syndrome.failures"] = count("codec.support_from_syndrome", "failures")
    rows["codec.rs_decode.points"] = count("codec.rs_decode", "points")
    for layer in ("hamming", "setdiff", "edit"):
        for fn in TRACED[layer]:
            rows[f"{layer}.{fn}.self_ms"] = per_op_ms(f"{layer}.{fn}")
    for variant, fn in (("syn", "ss_syndrome"), ("offset", "ss_code_offset"), ("perm", "ss_permuted")):
        rows["hamming.first_sketch_ms." + variant] = _ms(first.get("hamming." + fn, 0))
    for fn in ("compose_gen", "compose_rep", "uhash", "parse_helper"):
        rows[f"entropy.{fn}.self_ms"] = per_op_ms("entropy." + fn)
    rows["entropy.uhash.calls"] = calls.get("entropy.uhash", 0) / n_ops
    serializers = [f"envelope.{fn}" for fn in TRACED["envelope"] if fn.startswith("serialize_")]
    rows["envelope.serialize.self_ms"] = per_op_ms(*serializers)
    rows["envelope.deserialize.self_ms"] = per_op_ms("envelope.deserialize")
    rows["envelope.deserialize.calls"] = calls.get("envelope.deserialize", 0) / n_ops
    rows["envelope.deserialize.bytes"] = count("envelope.deserialize", "bytes")
    rows["envelope.deserialize.rejects"] = count("envelope.deserialize", "rejects")
    rows["envelope.reconcile_respond.self_ms"] = per_op_ms("envelope.reconcile_respond")
    packers = [f"bitpack.{fn}" for fn in TRACED["bitpack"]]
    rows["bitpack.self_ms"] = per_op_ms(*packers)
    rows["bitpack.calls"] = sum(calls.get(n, 0) for n in packers) / n_ops
    rows["trace.coverage"] = layers_ns / roots_ns if roots_ns else 0.0
    return rows


def setup_details(tracer: Tracer) -> dict[str, list]:
    """Cost of each field build and modulus search, with its degree."""
    out: dict[str, list] = {"field_builds": [], "irreducible_modulus": []}
    for name, start, end, parent, op, phase, note in tracer.spans:
        if name == FIELD_BUILD:
            out["field_builds"].append({"m": note, "phase": phase, "ms": _ms(end - start)})
        elif name == "gf2m.irreducible_modulus":
            out["irreducible_modulus"].append({"m": note, "phase": phase, "ms": _ms(end - start)})
    return out


KERNELS = (("mul", (8, 13, 16, 32)), ("sqr", (16, 32)), ("inv", (16, 32)))


def kernel_rows(seed: int, n: int = 2000, reps: int = 5) -> dict[str, float]:
    """ns per call of the public GF2m mul/sqr/inv on seeded nonzero
    operands; each field is built before its timer starts."""
    import statistics

    from fzx.gf2m import GF2m

    clock = time.perf_counter_ns
    rows = {}
    for kind, degrees in KERNELS:
        for m in degrees:
            field = GF2m(m)
            rng = random.Random(f"{seed}:{kind}:{m}")
            xs = [rng.randrange(1, 1 << m) for _ in range(n)]
            ys = [rng.randrange(1, 1 << m) for _ in range(n)]
            fn = getattr(field, kind)
            samples = []
            for _ in range(reps):
                if kind == "mul":
                    start = clock()
                    for a, b in zip(xs, ys):
                        fn(a, b)
                else:
                    start = clock()
                    for a in xs:
                        fn(a)
                samples.append((clock() - start) / n)
            rows[f"gf2m.{kind}_ns.m{m}"] = statistics.median(samples)
    return rows
