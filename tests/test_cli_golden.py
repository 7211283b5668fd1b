"""Golden CLI outputs for every scheme: sketch bytes, helper bytes, keys and
`params` text are pinned to the outputs of the CLI before it moved onto one
scheme table, so a refactor that changes any byte fails here."""

import hashlib
import random

import pytest

from fzx.cli import main

HAMMING = ("hamming-syn", "hamming-offset", "hamming-perm")
SETS = ("pinsketch", "ijs", "origjs")
# each scheme gets only the shape flags its record reads
FLAGS = {
    **{s: ["--m", "8", "--t", "8"] for s in HAMMING},
    **{s: ["--m", "16", "--t", "4"] for s in ("pinsketch", "ijs")},
    "origjs": ["--m", "16", "--t", "4", "--r", "64"],
    "edit": ["--t", "1"],
}
PARAMS = {
    **{s: FLAGS[s] for s in FLAGS},
    "origjs": FLAGS["origjs"] + ["--s", "14"],
    "edit": ["--n", "40", "--t", "1"],
}
EPS = "0.01"


def _inputs(scheme):
    """(w, w') as file text: a 255-bit word with 3 flips, a 14-element set
    in GF(2^16) with one element swapped, or 40 bits with one deletion."""
    rng = random.Random(101)
    if scheme in HAMMING:
        w = [rng.choice("01") for _ in range(255)]
        wp = list(w)
        for i in rng.sample(range(255), 3):
            wp[i] = "1" if wp[i] == "0" else "0"
        return "".join(w) + "\n", "".join(wp) + "\n"
    if scheme in SETS:
        pool = rng.sample(range(1, 1 << 16), 15)
        a, b = pool[:14], pool[:13] + pool[14:]
        return "".join(f"{x:x}\n" for x in a), "".join(f"{x:x}\n" for x in b)
    w = "".join(rng.choice("01") for _ in range(40))
    return w + "\n", w[:10] + w[11:] + "\n"


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _run(tmp_path, capsys, scheme):
    """Every pinned output of one scheme; asserts the round trips."""
    w, wp = _inputs(scheme)
    wi, wpi = tmp_path / "w.txt", tmp_path / "wp.txt"
    wi.write_text(w)
    wpi.write_text(wp)
    sk, rec = tmp_path / "sk.bin", tmp_path / "rec.txt"
    flags = FLAGS[scheme]
    assert main(["sketch", "--scheme", scheme, *flags, "--seed", "5",
                 "-i", str(wi), "-o", str(sk)]) == 0
    assert main(["recover", "-i", str(wpi), "--sketch", str(sk), "-o", str(rec)]) == 0
    assert sorted(rec.read_text().split()) == sorted(w.split())
    out = {"sketch": _sha(sk)}
    assert main(["params", "--scheme", scheme, *PARAMS[scheme]]) == 0
    out["params"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    for label, length in (("bits32", ["--out-bits", "32"]), ("eps", ["--eps", EPS])):
        helper = tmp_path / f"{label}.bin"
        rc = main(["gen", "--scheme", scheme, *flags, "--seed", "7", *length,
                   "-i", str(wi), "-o", str(helper)])
        key = capsys.readouterr().out.strip()
        if rc:
            out[label] = rc
            continue
        assert main(["rep", "-i", str(wpi), "--sketch", str(helper), *length]) == 0
        assert capsys.readouterr().out.strip() == key
        out[label] = (_sha(helper), key)
    return out


# sketch: SHA-256 prefix of the sketch; params: of the `params` text;
# bits32 / eps: (SHA-256 prefix of the helper, key), or the exit code when
# gen refuses (origjs and edit keep no entropy at these sizes)
GOLDEN = {
    "hamming-syn": {
        "sketch": "495a5d9f4e2d93cf", "params": "e6248ea7abb21689",
        "bits32": ("a6cf6d11202f1322", "b1a220f0"),
        "eps": ("a6cf6d11202f1322", "05f72b6f8ba166f09a6850b688b53f51f16dd5b1a220f0"),
    },
    "hamming-offset": {
        "sketch": "4c7754b138f73697", "params": "59ed0972f11b1c8d",
        "bits32": ("7335a01820eb1436", "ad47e991"),
        "eps": ("7335a01820eb1436", "07699e1a3ab63d496b7e667dbd35f96864b00bad47e991"),
    },
    "hamming-perm": {
        "sketch": "577542db65fc0e81", "params": "2aadd9ce1684ee38",
        "bits32": ("49c885a380ec2ad9", "b284d552"),
        "eps": ("49c885a380ec2ad9", "0310ff96c0da89d36b27319d27d35fc7c85c4ab284d552"),
    },
    "pinsketch": {
        "sketch": "88a90a733aed577c", "params": "8d7447ca8af39fe6",
        "bits32": ("94287b56d1ecfb71", "ba422292"),
        "eps": ("94287b56d1ecfb71", "5796905307dff826e825ba422292"),
    },
    "ijs": {
        "sketch": "9f1d929bb9b3af74", "params": "bb825fb8bb168198",
        "bits32": ("addec755e2a0f4af", "ba422292"),
        "eps": ("addec755e2a0f4af", "5796905307dff826e825ba422292"),
    },
    "origjs": {
        "sketch": "6604ade8922d1e7c", "params": "b1756264de3677a1",
        "bits32": ("9d698c015b15d72f", "182cd83f"),
        "eps": 4,
    },
    "edit": {
        "sketch": "d2c21d9cbae651f6", "params": "4a34edad2ecba7ed",
        "bits32": ("362d72f7b86f621c", "550162be"),
        "eps": 4,
    },
}


@pytest.mark.parametrize("scheme", list(FLAGS))
def test_cli_outputs_match_golden(tmp_path, capsys, scheme):
    assert _run(tmp_path, capsys, scheme) == GOLDEN[scheme]


def test_ijs_odd_t_eps_key_length_agrees(tmp_path, capsys):
    # ijs rounds t=5 down to 4: gen and rep must both count the sketch's t
    w, wp = _inputs("ijs")
    wi, wpi = tmp_path / "w.txt", tmp_path / "wp.txt"
    wi.write_text(w)
    wpi.write_text(wp)
    helper = tmp_path / "h.bin"
    with pytest.warns(UserWarning):
        assert main(["gen", "--scheme", "ijs", "--m", "16", "--t", "5", "--eps", "0.001",
                     "-i", str(wi), "-o", str(helper)]) == 0
    key = capsys.readouterr().out.strip()
    assert main(["rep", "-i", str(wpi), "--sketch", str(helper), "--eps", "0.001"]) == 0
    assert capsys.readouterr().out.strip() == key
    assert len(key) == 2 * 14  # floor(123.65 - 2 log2(1000) + 2) = 105 bits


# bytes of the hamming-perm helper that hold its 255 u32 permutation
# entries, after the 2-byte length field and the 8-byte envelope header
PERM_BODY = range(10, 10 + 4 * 255)


@pytest.mark.parametrize(
    "scheme, n_bytes",
    [("pinsketch", None), ("ijs", None), ("origjs", 14), ("hamming-syn", None),
     ("hamming-offset", None), ("hamming-perm", None), ("edit", None)],
)
def test_golden_helper_bit_flips_exit_0_2_or_3(tmp_path, capsys, scheme, n_bytes):
    """Every one-bit flip of a golden --out-bits 32 helper (for origjs, of
    its length field, header and aux; for hamming-perm, outside its
    permutation body) makes rep decode, fail to decode or call the helper
    malformed: never exit 4, which is for bad parameters, and never raise.
    A seed or syndrome flip can still give a different key with exit 0,
    which only a helper tag can catch."""
    w, wp = _inputs(scheme)
    wi, wpi = tmp_path / "w.txt", tmp_path / "wp.txt"
    wi.write_text(w)
    wpi.write_text(wp)
    helper, flipped = tmp_path / "h.bin", tmp_path / "flipped.bin"
    assert main(["gen", "--scheme", scheme, *FLAGS[scheme], "--seed", "7", "--out-bits", "32",
                 "-i", str(wi), "-o", str(helper)]) == 0
    data = helper.read_bytes()
    codes = {}
    for bit in range(8 * len(data[:n_bytes])):
        if scheme == "hamming-perm" and bit // 8 in PERM_BODY:
            continue
        tampered = bytearray(data)
        tampered[bit // 8] ^= 0x80 >> (bit % 8)
        flipped.write_bytes(tampered)
        rc = main(["rep", "-i", str(wpi), "--sketch", str(flipped), "--out-bits", "32"])
        codes.setdefault(rc, bit)
    capsys.readouterr()
    assert set(codes) <= {0, 2, 3}, codes
