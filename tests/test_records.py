"""The contract every public fzx record keeps: value equality and hash,
no assignment to a field, a `Name(field=value, ...)` repr, a pickle round
trip, and the constructor's ValueError on a malformed field."""

import pickle

import pytest

from fzx import (
    BchCode,
    CodeOffsetSketch,
    EditSketch,
    ElementSet,
    Envelope,
    ExtractedKey,
    GF2m,
    IjsSketchData,
    OrigJsSketchData,
    PermutedSketch,
    PinSketchData,
    ReconcileReport,
    RecoveryInfo,
    ShingleSet,
    SyndromeSketch,
    UHashParams,
    pinsketch_ss,
)
from fzx.gf2m import field_of

F = GF2m(4)
PIN = PinSketchData(F, 2, (3, 7))
INFO = RecoveryInfo(5, (1, 2, 3))

# (record, field names, valid arguments, malformed arguments)
RECORDS = [
    (GF2m, "m", (16,), [(0,), (257,)]),
    (BchCode, "field t", (F, 2), [(F, 0), (F, 8), (GF2m(3), 4)]),
    (SyndromeSketch, "syn_bits n_bits", (5, 8), [(256, 8), (-1, 8), (0, -1)]),
    (CodeOffsetSketch, "shift n_bits", (3, 4), [(16, 4), (-1, 4), (0, -1)]),
    (
        PermutedSketch,
        "perm syn",
        ((2, 0, 1), SyndromeSketch(1, 4)),
        [((0, 0, 1), SyndromeSketch(1, 4)), ((1, 2, 3), SyndromeSketch(1, 4))],
    ),
    (
        ElementSet,
        "field elems",
        (F, (1, 5, 9)),
        [(F, (0,)), (F, (16,)), (F, (5, 3)), (F, (3, 3)), (F, ("a",))],
    ),
    (
        PinSketchData,
        "field t odd_sums",
        (F, 2, (3, 7)),
        [(F, 0, ()), (F, 2, (3,)), (F, 1, (16,)), (GF2m(4), 8, (0,) * 8)],  # 17 > 15
    ),
    (
        IjsSketchData,
        "field s t top_coeffs",
        (F, 4, 2, (1, 2)),
        [(F, 1, 2, (1, 2)), (F, 4, -1, ()), (F, 4, 2, (1,)), (F, 4, 1, (99,))],
    ),
    (
        OrigJsSketchData,
        "field s r t pairs",
        (F, 2, 3, 1, ((1, 4), (2, 5), (7, 0))),
        [
            (F, 2, 3, 3, ((1, 4), (2, 5), (7, 0))),  # t > s
            (F, 3, 3, 1, ((1, 4), (2, 5), (7, 0))),  # r <= s
            (F, 2, 16, 1, ()),  # r above the universe size
            (F, 2, 3, 1, ((1, 4), (2, 5))),  # fewer than r pairs
            (F, 2, 3, 1, ((0, 4), (2, 5), (7, 0))),  # abscissa 0
            (F, 2, 3, 1, ((2, 4), (1, 5), (7, 0))),  # unsorted
            (F, 2, 3, 1, ((1, 4), (2, 16), (7, 0))),  # ordinate outside the field
        ],
    ),
    (
        ShingleSet,
        "c shingles",
        (2, frozenset({"01", "10"})),
        [(0, frozenset({"0"})), (2, frozenset()), (2, frozenset({"011"}))],
    ),
    (RecoveryInfo, "n indices", (5, (1, 2, 3)), [(0, (1,)), (5, ()), (5, (0, 1))]),
    (EditSketch, "s1 s2", (PIN, INFO), []),
    (UHashParams, "n_bits l_bits", (16, 8), [(8, 16), (300, 8), (8, 0)]),
    (ExtractedKey, "r p", (b"key", b"helper"), []),
    (Envelope, "scheme m t sketch aux", (3, 4, 2, PIN, ()), []),
    (
        ReconcileReport,
        "local_only remote_only",
        (ElementSet(F, (1, 2)), ElementSet(F, (3,))),
        [(ElementSet(F, (1, 2)), ElementSet(F, (2, 3)))],
    ),
]


@pytest.mark.parametrize(
    "cls, names, args, bad", RECORDS, ids=[record[0].__name__ for record in RECORDS]
)
def test_record_contract(cls, names, args, bad):
    a, b = cls(*args), cls(*args)
    assert a == b and hash(a) == hash(b) and a is not b
    for name, value in zip(names.split(), args):
        assert getattr(a, name) is value
        with pytest.raises(AttributeError):
            setattr(a, name, value)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names.split(), args))
    assert repr(a) == f"{cls.__name__}({fields})"
    assert pickle.loads(pickle.dumps(a)) == a
    for fields in bad:
        with pytest.raises(ValueError):
            cls(*fields)


def test_envelope_aux_defaults_to_empty():
    assert Envelope(3, 4, 2, PIN).aux == ()


def test_shared_field_cannot_be_reassigned():
    # field_of(16) serves every sketch over GF(2^16) in the process, so a
    # write to it would change all of them
    f = field_of(16)
    mul = f.mul
    before = pinsketch_ss(ElementSet.of(f, [1, 2, 3]), 2)
    try:
        with pytest.raises(AttributeError):
            f.mul = lambda a, b: 0
        with pytest.raises(AttributeError):
            del f.mul
    finally:
        if f.mul is not mul:
            object.__setattr__(f, "mul", mul)
    assert f.mul is mul
    assert pinsketch_ss(ElementSet.of(f, [1, 2, 3]), 2) == before
