"""End-to-end CLI tests: every subcommand through main(argv), plus the
exit-code contract (0 ok, 2 decode failure, 3 malformed input, 4 bad
parameters)."""

import math
import random
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fzx import cli
from fzx.cli import main
from fzx.edit import edit_ss
from fzx.envelope import _WIRE, SCHEME_NAMES, MalformedEnvelope, deserialize, serialize_edit


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _write_set(tmp_path, name, elems):
    return _write(tmp_path, name, "".join(f"{x:x}\n" for x in elems))


def _read_set(path):
    with open(path) as fh:
        return sorted(int(line, 16) for line in fh.read().split())


def _flip(word, positions):
    chars = list(word)
    for i in positions:
        chars[i] = "1" if chars[i] == "0" else "0"
    return "".join(chars)


# ---------------------------------------------------------------------------
# sketch / recover round trips


@pytest.mark.parametrize("scheme", ["hamming-syn", "hamming-offset", "hamming-perm"])
def test_hamming_sketch_recover(tmp_path, scheme):
    rng = random.Random(17)
    w = "".join(rng.choice("01") for _ in range(15))
    wi = _write(tmp_path, "w.txt", w + "\n")
    wpi = _write(tmp_path, "wp.txt", _flip(w, [3, 9]))
    out = tmp_path / "sk.bin"
    rec = tmp_path / "rec.txt"
    argv = ["sketch", "--scheme", scheme, "--m", "4", "--t", "2",
            "--seed", "5", "-i", wi, "-o", str(out)]
    assert main(argv) == 0
    assert main(["recover", "-i", wpi, "--sketch", str(out), "-o", str(rec)]) == 0
    assert rec.read_text().strip() == w


def test_pinsketch_sketch_recover(tmp_path):
    rng = random.Random(3)
    a = rng.sample(range(1, 1024), 30)
    b = a[5:] + [x for x in range(1, 1024) if x not in a][:3]
    ai = _write_set(tmp_path, "a.set", a)
    bi = _write_set(tmp_path, "b.set", b)
    out = tmp_path / "ps.bin"
    rec = tmp_path / "rec.set"
    assert main(["sketch", "--scheme", "pinsketch", "--m", "10", "--t", "8",
                 "-i", ai, "-o", str(out)]) == 0
    assert main(["recover", "-i", bi, "--sketch", str(out), "-o", str(rec)]) == 0
    assert _read_set(str(rec)) == sorted(a)


def test_ijs_sketch_recover(tmp_path):
    rng = random.Random(4)
    pool = rng.sample(range(1, 1024), 24)
    a, b = pool[:20], pool[:18] + pool[20:22]
    ai = _write_set(tmp_path, "a.set", a)
    bi = _write_set(tmp_path, "b.set", b)
    out = tmp_path / "ijs.bin"
    rec = tmp_path / "rec.set"
    assert main(["sketch", "--scheme", "ijs", "--m", "10", "--t", "4",
                 "-i", ai, "-o", str(out)]) == 0
    assert main(["recover", "-i", bi, "--sketch", str(out), "-o", str(rec)]) == 0
    assert _read_set(str(rec)) == sorted(a)


def test_origjs_sketch_recover(tmp_path):
    rng = random.Random(6)
    pool = rng.sample(range(1, 64), 8)
    a, b = pool[:6], pool[:5] + pool[6:7]
    ai = _write_set(tmp_path, "a.set", a)
    bi = _write_set(tmp_path, "b.set", b)
    out = tmp_path / "oj.bin"
    rec = tmp_path / "rec.set"
    assert main(["sketch", "--scheme", "origjs", "--m", "6", "--t", "2",
                 "--r", "20", "--seed", "3", "-i", ai, "-o", str(out)]) == 0
    assert main(["recover", "-i", bi, "--sketch", str(out), "-o", str(rec)]) == 0
    assert _read_set(str(rec)) == sorted(a)


def test_edit_sketch_recover_default_c(tmp_path):
    rng = random.Random(1)
    w = "".join(rng.choice("01") for _ in range(64))
    wp = w[:20] + w[21:] + "1"  # one deletion, one insertion
    wi = _write(tmp_path, "w.txt", w)
    wpi = _write(tmp_path, "wp.txt", wp)
    out = tmp_path / "e.bin"
    rec = tmp_path / "rec.txt"
    assert main(["sketch", "--scheme", "edit", "--t", "2",
                 "-i", wi, "-o", str(out)]) == 0
    assert main(["recover", "-i", wpi, "--sketch", str(out), "-o", str(rec)]) == 0
    assert rec.read_text().strip() == w



def test_edit_sketch_recover_full_index_width(tmp_path):
    # n-c+1 = 4 and the largest shingle "11" is a partition block
    wi = _write(tmp_path, "w.txt", "00110")
    wpi = _write(tmp_path, "wp.txt", "0110")
    out = tmp_path / "e.bin"
    rec = tmp_path / "rec.txt"
    assert main(["sketch", "--scheme", "edit", "--t", "1", "--c", "2",
                 "-i", wi, "-o", str(out)]) == 0
    assert main(["recover", "-i", wpi, "--sketch", str(out), "-o", str(rec)]) == 0
    assert rec.read_text().strip() == "00110"


def test_edit_recover_from_a_word_shorter_than_c(tmp_path, capsys):
    # "101" is two deletions from "10110" and has no 4-shingle at all
    wi = _write(tmp_path, "w.txt", "10110")
    wpi = _write(tmp_path, "wp.txt", "101")
    out = tmp_path / "e.bin"
    assert main(["sketch", "--scheme", "edit", "--c", "4", "--t", "2",
                 "-i", wi, "-o", str(out)]) == 0
    capsys.readouterr()
    assert main(["recover", "-i", wpi, "--sketch", str(out)]) == 0
    assert capsys.readouterr().out == "10110\n"


def test_hamming_offset_rank_deficient_round_trip(tmp_path):
    # m=4 t=3: the 12 parity rows have rank 10
    w = "".join(random.Random(12).choice("01") for _ in range(15))
    wi = _write(tmp_path, "w.txt", w)
    wpi = _write(tmp_path, "wp.txt", _flip(w, [1, 6, 13]))
    out = tmp_path / "sk.bin"
    rec = tmp_path / "rec.txt"
    assert main(["sketch", "--scheme", "hamming-offset", "--m", "4", "--t", "3",
                 "--seed", "5", "-i", wi, "-o", str(out)]) == 0
    assert main(["recover", "-i", wpi, "--sketch", str(out), "-o", str(rec)]) == 0
    assert rec.read_text().strip() == w


def test_recover_to_stdout(tmp_path, capsys):
    w = "101100101010110"
    wi = _write(tmp_path, "w.txt", w)
    out = tmp_path / "sk.bin"
    main(["sketch", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
          "-i", wi, "-o", str(out)])
    assert main(["recover", "-i", wi, "--sketch", str(out)]) == 0
    assert capsys.readouterr().out.strip() == w


def test_sketch_seed_determinism(tmp_path):
    w = "".join(random.Random(8).choice("01") for _ in range(15))
    wi = _write(tmp_path, "w.txt", w)
    o1, o2 = tmp_path / "s1.bin", tmp_path / "s2.bin"
    argv = ["sketch", "--scheme", "hamming-offset", "--m", "4", "--t", "2",
            "--seed", "9", "-i", wi]
    assert main(argv + ["-o", str(o1)]) == 0
    assert main(argv + ["-o", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


# ---------------------------------------------------------------------------
# gen / rep


def test_gen_rep_hamming_key_match(tmp_path, capsys):
    rng = random.Random(21)
    w = "".join(rng.choice("01") for _ in range(15))
    wi = _write(tmp_path, "w.txt", w)
    wpi = _write(tmp_path, "wp.txt", _flip(w, [0, 14]))
    helper = tmp_path / "h.bin"
    assert main(["gen", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
                 "--seed", "7", "--out-bits", "8", "-i", wi, "-o", str(helper)]) == 0
    key_gen = capsys.readouterr().out.strip()
    assert main(["rep", "-i", wpi, "--sketch", str(helper), "--out-bits", "8"]) == 0
    key_rep = capsys.readouterr().out.strip()
    assert key_gen == key_rep
    assert len(key_gen) == 2 and int(key_gen, 16) >= 0


def test_gen_rep_pinsketch_key_match(tmp_path, capsys):
    rng = random.Random(22)
    a = rng.sample(range(1, 1024), 20)
    b = a[2:] + [x for x in range(1, 1024) if x not in a][:2]
    ai = _write_set(tmp_path, "a.set", a)
    bi = _write_set(tmp_path, "b.set", b)
    helper = tmp_path / "h.bin"
    assert main(["gen", "--scheme", "pinsketch", "--m", "10", "--t", "5",
                 "--seed", "7", "--out-bits", "16", "-i", ai, "-o", str(helper)]) == 0
    key_gen = capsys.readouterr().out.strip()
    assert main(["rep", "-i", bi, "--sketch", str(helper), "--out-bits", "16"]) == 0
    assert capsys.readouterr().out.strip() == key_gen


def test_gen_rep_edit_key_match(tmp_path, capsys):
    rng = random.Random(1)
    w = "".join(rng.choice("01") for _ in range(64))
    wi = _write(tmp_path, "w.txt", w)
    wpi = _write(tmp_path, "wp.txt", w[:20] + w[21:] + "1")
    helper = tmp_path / "h.bin"
    assert main(["gen", "--scheme", "edit", "--t", "2", "--c", "4",
                 "--seed", "7", "--out-bits", "16", "-i", wi, "-o", str(helper)]) == 0
    key_gen = capsys.readouterr().out.strip()
    assert main(["rep", "-i", wpi, "--sketch", str(helper), "--out-bits", "16"]) == 0
    assert capsys.readouterr().out.strip() == key_gen


def test_gen_rep_eps_chooses_length(tmp_path, capsys):
    # n=255, loss 80, residual 175; eps=2^-40 gives l = 175 - 80 + 2 = 97
    rng = random.Random(11)
    w = "".join(rng.choice("01") for _ in range(255))
    wi = _write(tmp_path, "w.txt", w)
    helper = tmp_path / "h.bin"
    eps = str(2.0 ** -40)
    assert main(["gen", "--scheme", "hamming-syn", "--m", "8", "--t", "10",
                 "--seed", "2", "--eps", eps, "-i", wi, "-o", str(helper)]) == 0
    key_gen = capsys.readouterr().out.strip()
    assert len(key_gen) == 2 * ((97 + 7) // 8)
    assert main(["rep", "-i", wi, "--sketch", str(helper), "--eps", eps]) == 0
    assert capsys.readouterr().out.strip() == key_gen


def test_gen_key_depends_on_seed(tmp_path, capsys):
    w = "101100101010110"
    wi = _write(tmp_path, "w.txt", w)
    keys = []
    for seed in ("7", "8"):
        helper = tmp_path / f"h{seed}.bin"
        main(["gen", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
              "--seed", seed, "--out-bits", "12", "-i", wi, "-o", str(helper)])
        keys.append(capsys.readouterr().out.strip())
    assert keys[0] != keys[1]


@pytest.mark.parametrize(
    "flags, w, width",
    [
        # 12 elements of 24 bits: the README's set at --m 24
        (["--scheme", "origjs", "--m", "24", "--t", "4", "--r", "40"],
         "".join(f"{x:x}\n" for x in (0x3A, 0x7F, 0x101, 0x1C4, 0x2B, 0x99, 0x3FF, 0x200,
                                     0x12, 0x77, 0x1E0, 0x155)), 288),
        (["--scheme", "hamming-syn", "--m", "9", "--t", "2"], "01" * 255 + "1\n", 511),
    ],
    ids=["origjs-m24-s12", "hamming-syn-m9"],
)
def test_gen_names_the_hash_width_it_rejects(tmp_path, capsys, flags, w, width):
    # the extractor hashes at most 256 bits; the sketch itself is fine
    wi = _write(tmp_path, "w.txt", w)
    helper = str(tmp_path / "h.bin")
    assert main(["sketch", *flags, "-i", wi, "-o", helper]) == 0
    assert main(["gen", *flags, "--out-bits", "32", "--seed", "7", "-i", wi, "-o", helper]) == 4
    err = capsys.readouterr().err
    assert f"{width} bits" in err and "256" in err


# ---------------------------------------------------------------------------
# reconcile


def test_reconcile_reports_difference(tmp_path, capsys):
    rng = random.Random(30)
    a = rng.sample(range(1, 4096), 40)
    b = a[3:] + [x for x in range(1, 4096) if x not in a][:2]
    ai = _write_set(tmp_path, "a.set", a)
    bi = _write_set(tmp_path, "b.set", b)
    sk = tmp_path / "ps.bin"
    main(["sketch", "--scheme", "pinsketch", "--m", "12", "--t", "6",
          "-i", ai, "-o", str(sk)])
    assert main(["reconcile", "--local", bi, "--sketch", str(sk)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    minus = sorted(int(l[2:], 16) for l in lines if l.startswith("- "))
    plus = sorted(int(l[2:], 16) for l in lines if l.startswith("+ "))
    assert minus == sorted(set(b) - set(a))
    assert plus == sorted(a[:3])


def test_reconcile_in_sync(tmp_path, capsys):
    a = [1, 2, 3, 500]
    ai = _write_set(tmp_path, "a.set", a)
    sk = tmp_path / "ps.bin"
    main(["sketch", "--scheme", "pinsketch", "--m", "10", "--t", "4",
          "-i", ai, "-o", str(sk)])
    assert main(["reconcile", "--local", ai, "--sketch", str(sk)]) == 0
    assert capsys.readouterr().out.strip() == "in sync"


def test_reconcile_rejects_a_non_pinsketch_envelope(tmp_path, capsys):
    # the scheme is checked before the local set is read in the sketch's field
    word = tmp_path / "w.txt"
    word.write_text("101100101010110\n")
    sk = tmp_path / "syn.bin"
    assert main(["sketch", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
                 "-i", str(word), "-o", str(sk)]) == 0
    local = _write_set(tmp_path, "s.txt", [1, 2, 3])
    capsys.readouterr()
    assert main(["reconcile", "--local", local, "--sketch", str(sk)]) == 4
    assert "reconciliation needs a PinSketch envelope" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# params


def test_params_pinsketch(capsys):
    assert main(["params", "--scheme", "pinsketch", "--m", "10", "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert "loss_bits: 50.0" in out


def test_params_ijs_odd_t_counts_rounded_t(capsys):
    # ijs_ss rounds t=5 down to 4 coefficients: 64 bits at m=16
    assert main(["params", "--scheme", "ijs", "--m", "16", "--t", "5"]) == 0
    out = capsys.readouterr().out
    assert "sketch_bits: 64" in out and "loss_bits: 64.0" in out


def test_params_hamming(capsys):
    assert main(["params", "--scheme", "hamming-syn", "--m", "4", "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert "n: 15" in out and "k: 7" in out and "loss_bits: 8.0" in out


def test_params_hamming_rank_deficient(capsys):
    assert main(["params", "--scheme", "hamming-offset", "--m", "4", "--t", "3"]) == 0
    out = capsys.readouterr().out
    assert "k: 5" in out and "sketch_bits: 12" in out and "loss_bits: 10.0" in out


def test_params_edit_picks_c(capsys):
    assert main(["params", "--scheme", "edit", "--n", "64", "--t", "2"]) == 0
    out = capsys.readouterr().out
    assert "c: 4" in out and "loss_bits:" in out and "approx_loss_bits:" in out


def test_params_origjs(capsys):
    assert main(["params", "--scheme", "origjs", "--m", "4", "--t", "2",
                 "--s", "4", "--r", "8"]) == 0
    assert "loss_bits: 14.70" in capsys.readouterr().out


@pytest.mark.parametrize("scheme, shape", [
    *[(s, ["--m", "8", "--t", "4"]) for s in ("hamming-syn", "hamming-offset", "hamming-perm")],
    ("pinsketch", ["--m", "10", "--t", "5"]),
    ("ijs", ["--m", "10", "--t", "4"]),
    ("origjs", ["--m", "4", "--t", "2", "--s", "4", "--r", "8"]),
    ("edit", ["--n", "64", "--t", "2"]),
])
def test_params_eps_adds_the_extractor_loss(capsys, scheme, shape):
    def loss_bits(*eps):
        assert main(["params", "--scheme", scheme, *shape, *eps]) == 0
        out = capsys.readouterr().out.splitlines()
        return float(next(line for line in out if line.startswith("loss_bits: ")).split()[1])

    assert loss_bits("--eps", "0.01") == pytest.approx(loss_bits() + 2 * math.log2(100) - 2)
    assert main(["params", "--scheme", scheme, *shape, "--eps", "0"]) == 4


# ---------------------------------------------------------------------------
# exit codes


def test_exit_2_on_over_capacity(tmp_path):
    rng = random.Random(40)
    a = rng.sample(range(1, 1024), 30)
    far = a[8:] + [x for x in range(1, 1024) if x not in a][:8]
    ai = _write_set(tmp_path, "a.set", a)
    fi = _write_set(tmp_path, "far.set", far)
    sk = tmp_path / "ps.bin"
    main(["sketch", "--scheme", "pinsketch", "--m", "10", "--t", "5",
          "-i", ai, "-o", str(sk)])
    rec = tmp_path / "rec.set"
    assert main(["recover", "-i", fi, "--sketch", str(sk), "-o", str(rec)]) == 2


def test_exit_3_on_truncated_envelope(tmp_path):
    a = [1, 2, 3]
    ai = _write_set(tmp_path, "a.set", a)
    sk = tmp_path / "ps.bin"
    main(["sketch", "--scheme", "pinsketch", "--m", "10", "--t", "4",
          "-i", ai, "-o", str(sk)])
    bad = tmp_path / "bad.bin"
    bad.write_bytes(sk.read_bytes()[:5])
    assert main(["recover", "-i", ai, "--sketch", str(bad)]) == 3


def test_exit_3_on_pinsketch_beyond_code_capacity(tmp_path, capsys):
    # m=4, t=8: designed distance 17 exceeds the 15 positions of the code
    sk = tmp_path / "cap.bin"
    sk.write_bytes(b"FZX1\x03\x04\x00\x08" + bytes(4))
    ai = _write_set(tmp_path, "a.set", [1, 2, 3])
    assert main(["recover", "-i", ai, "--sketch", str(sk)]) == 3
    assert "malformed input: bad-header" in capsys.readouterr().err


def test_exit_3_on_bad_word_chars(tmp_path):
    wi = _write(tmp_path, "w.txt", "01x01" + "0" * 10)
    sk = tmp_path / "sk.bin"
    assert main(["sketch", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
                 "-i", wi, "-o", str(sk)]) == 3


def test_exit_3_on_wrong_word_length(tmp_path):
    wi = _write(tmp_path, "w.txt", "0" * 14)
    sk = tmp_path / "sk.bin"
    assert main(["sketch", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
                 "-i", wi, "-o", str(sk)]) == 3


def test_exit_3_on_missing_file(tmp_path):
    sk = tmp_path / "sk.bin"
    assert main(["sketch", "--scheme", "edit", "--t", "2",
                 "-i", str(tmp_path / "nope.txt"), "-o", str(sk)]) == 3


@pytest.mark.parametrize("command", ["sketch-word", "sketch-set", "sketch-edit", "recover",
                                     "rep", "reconcile"])
def test_exit_3_on_an_input_that_is_not_utf8(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3a\n\xff\xfe\n")
    ai = _write_set(tmp_path, "a.set", range(1, 13))
    sk, helper = tmp_path / "ps.bin", tmp_path / "h.bin"
    assert main(["gen", "--scheme", "pinsketch", "--m", "10", "--t", "2", "--out-bits", "32",
                 "-i", ai, "-o", str(helper)]) == 0
    assert main(["sketch", "--scheme", "pinsketch", "--m", "10", "--t", "2",
                 "-i", ai, "-o", str(sk)]) == 0
    capsys.readouterr()
    argv = {
        "sketch-word": ["sketch", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
                        "-i", str(bad), "-o", str(tmp_path / "out.bin")],
        "sketch-set": ["sketch", "--scheme", "pinsketch", "--m", "10", "--t", "2",
                       "-i", str(bad), "-o", str(tmp_path / "out.bin")],
        "sketch-edit": ["sketch", "--scheme", "edit", "--t", "1",
                        "-i", str(bad), "-o", str(tmp_path / "out.bin")],
        "recover": ["recover", "-i", str(bad), "--sketch", str(sk)],
        "rep": ["rep", "-i", str(bad), "--sketch", str(helper), "--out-bits", "32"],
        "reconcile": ["reconcile", "--local", str(bad), "--sketch", str(sk)],
    }[command]
    assert main(argv) == 3
    assert "not UTF-8" in capsys.readouterr().err


def test_exit_4_on_missing_scheme_param(tmp_path):
    ai = _write_set(tmp_path, "a.set", [1, 2, 3])
    sk = tmp_path / "sk.bin"
    assert main(["sketch", "--scheme", "pinsketch", "--t", "5",
                 "-i", ai, "-o", str(sk)]) == 4


@pytest.mark.parametrize("flags", [
    ["--scheme", "pinsketch", "--m", "16", "--t", "0"],  # designed distance 1
    ["--scheme", "pinsketch", "--m", "3", "--t", "4"],  # distance 9 > 2^3 - 1
    ["--scheme", "ijs", "--m", "600", "--t", "2"],  # no field of degree 600
    ["--scheme", "origjs", "--m", "3", "--t", "1", "--r", "8"],  # r > 2^3 - 1
    # shapes whose envelope header cannot carry them: m u8, t u16, aux u16
    ["--scheme", "pinsketch", "--m", "256", "--t", "4"],
    ["--scheme", "ijs", "--m", "256", "--t", "2"],
    ["--scheme", "ijs", "--m", "300", "--t", "2"],
    ["--scheme", "pinsketch", "--m", "20", "--t", "70000"],
    ["--scheme", "origjs", "--m", "17", "--t", "2", "--r", "70000"],
])
def test_params_rejects_what_sketch_rejects(tmp_path, capsys, flags):
    ai = _write_set(tmp_path, "a.set", [1, 2, 3])
    sk = str(tmp_path / "sk.bin")
    assert main(["sketch", *flags, "-i", ai, "-o", sk]) == 4
    sized = ["--s", "3"] if "origjs" in flags else []  # only origjs reads |w| = s
    assert main(["params", *flags, *sized]) == 4
    assert "bad parameters" in capsys.readouterr().err


@pytest.mark.parametrize("t, c", [
    ("20", "2"),  # capacity 60 exceeds the 7 elements of GF(8)*
    ("1", "16"),  # c = n leaves no recovery index
])
def test_edit_params_rejects_what_sketch_rejects(tmp_path, capsys, t, c):
    wi = _write(tmp_path, "w.txt", "0110100110010110")
    sk = str(tmp_path / "e.bin")
    assert main(["sketch", "--scheme", "edit", "--t", t, "--c", c, "-i", wi, "-o", sk]) == 4
    assert main(["params", "--scheme", "edit", "--n", "16", "--t", t, "--c", c]) == 4
    assert "bad parameters" in capsys.readouterr().err


# t and r: small, or past what a field, a u8 m or a u16 header field holds;
# not 0xFFFF itself, which fits at m >= 17, where the sketch takes seconds
_T = st.integers(0, 40) | st.sampled_from([255, 256, 0x10000, 70000])
_SET_M = st.integers(1, 16) | st.sampled_from([255, 256, 300])


@st.composite
def _shape(draw, scheme):
    """The shape flags of `scheme` for `fzx sketch`, the flags only
    `fzx params` reads, and the text of an input file whose size matches
    --s or --n."""
    if scheme.startswith("hamming"):
        m = draw(st.integers(1, 9))
        w = "".join(draw(st.lists(st.sampled_from("01"), min_size=2**m - 1, max_size=2**m - 1)))
        return ["--m", str(m), "--t", str(draw(_T))], [], w
    if scheme == "edit":
        n = draw(st.integers(1, 30))
        flags = ["--t", str(draw(st.integers(0, 4) | st.just(70000)))]
        c = draw(st.none() | st.integers(0, n + 1))
        flags += [] if c is None else ["--c", str(c)]
        w = "".join(draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n)))
        return flags, ["--n", str(n)], w
    m = draw(_SET_M)
    cap = min(20, 2 ** min(m, 16) - 1)  # |w| <= 20, in GF(2^m)*
    if scheme == "ijs":
        # params reads no --s, so |w| covers the rounded t wherever it can,
        # and is drawn often at that edge
        t = draw(st.integers(0, cap) | st.sampled_from([0x10000, 70000]))
        s = draw(st.integers(min(t - t % 2, cap), cap) | st.just(min(t - t % 2, cap)))
    else:
        t, s = draw(_T), draw(st.integers(0, cap))
    elems = draw(st.lists(st.integers(1, 2 ** min(m, 16) - 1), min_size=s, max_size=s, unique=True))
    flags = ["--m", str(m), "--t", str(t)]
    if scheme != "origjs":
        return flags, [], "".join(f"{x:x}\n" for x in elems)
    flags += ["--r", str(draw(_T))]
    return flags, ["--s", str(s)], "".join(f"{x:x}\n" for x in elems)


@pytest.mark.parametrize("scheme", ["hamming-syn", "hamming-offset", "hamming-perm",
                                    "pinsketch", "ijs", "origjs", "edit"])
@settings(max_examples=60, derandomize=True, database=None, deadline=2000,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_params_rejects_exactly_what_sketch_rejects(tmp_path, scheme, data):
    """`fzx params` runs the header of a scheme on the flags, `fzx sketch`
    on the flags and the size of w: the two agree on every shape."""
    flags, sized, text = data.draw(_shape(scheme))
    wi = _write(tmp_path, "w.txt", text)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ijs rounds an odd t down
        rc_sketch = main(["sketch", "--scheme", scheme, *flags, "-i", wi,
                          "-o", str(tmp_path / "sk.bin")])
    rc_params = main(["params", "--scheme", scheme, *flags, *sized])
    assert rc_sketch == rc_params and rc_params in (0, 4)


def _near(draw, edge):
    # within 2 of edge, and a u16
    return min(max(edge + draw(st.integers(-2, 2)), 0), 0xFFFF)


@st.composite
def _header(draw, scheme):
    """A header (m, t, *aux) of `scheme` around the edges of its shape rule
    and of the u8 m and u16 t: t near the BCH capacity (2^m - 2)/2, s and r
    near each other and r near 2^m - 1.  r stays at most 2^min(m, 10), so
    the binomials of `fzx params` stay cheap."""
    m = draw(st.integers(1, 33))
    if scheme == "edit":
        c, t_edit = draw(st.integers(0, 5)), draw(st.integers(0, 3))
        bits = draw(st.sampled_from([1, 8]))
        m = min(max(c * bits + 1 + draw(st.sampled_from([0, 0, -1, 1])), 0), 0xFF)
        t = min(max((2 * c - 1) * t_edit + draw(st.sampled_from([0, 0, -1, 1])), 0), 0xFFFF)
        return m, t, _near(draw, c + 1), c, t_edit
    if scheme in ("ijs", "origjs"):
        r = _near(draw, draw(st.sampled_from([(1 << min(m, 10)) - 1, 3])))
        s = _near(draw, r - 1)
        t = _near(draw, s)
        return (m, t, s) if scheme == "ijs" else (m, t, s, r)
    cap = ((1 << m) - 2) // 2  # the largest t with 2t + 1 <= 2^m - 1
    # a Hamming code's dimension takes seconds at m > 17, t near 2^16
    if scheme == "pinsketch" or m <= 17:
        return m, draw(st.integers(0, 3) | st.just(_near(draw, cap)))
    return m, draw(st.integers(0, 3))


@pytest.mark.parametrize("scheme", sorted(SCHEME_NAMES.values()))
@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flags_and_wire_accept_the_same_headers(capsys, scheme, data):
    """`deserialize` of a header with no payload reads `bad-header` exactly
    when `fzx params` on the same header exits 4: its flags are the header
    for the Hamming schemes, PinSketch and origjs.  ijs params reads no
    --s and edit params derives m and t, so for those two the header check
    of the record stands in for the flags."""
    wire = next(wire for wire in _WIRE.values() if wire.name == scheme)
    m, t, *aux = head = data.draw(_header(scheme), label="header")
    data_bytes = b"FZX1" + bytes([wire.id, m]) + t.to_bytes(2, "big")
    data_bytes += b"".join(v.to_bytes(w, "big") for v, w in zip(aux, wire.aux))
    try:
        deserialize(data_bytes)
        wire_ok = True
    except MalformedEnvelope as exc:
        wire_ok = exc.code != "bad-header"
    if scheme in ("ijs", "edit"):
        try:
            wire.check(*head)
            flags_ok = True
        except ValueError:
            flags_ok = False
    else:
        flags = ["--m", str(m), "--t", str(t)]
        flags += ["--s", str(aux[0]), "--r", str(aux[1])] if aux else []
        rc = main(["params", "--scheme", scheme, *flags])
        capsys.readouterr()
        assert rc in (0, 4)
        flags_ok = rc == 0
    assert wire_ok == flags_ok, head


@pytest.mark.parametrize("t, size", [(5, 12), (7, 6)])
def test_ijs_odd_t_warns_once_when_sketching_and_params_stays_silent(tmp_path, recwarn, t, size):
    ai = _write_set(tmp_path, "a.set", range(1, size + 1))
    sk = tmp_path / "sk.bin"
    flags = ["--scheme", "ijs", "--m", "12", "--t", str(t)]
    assert main(["params", *flags]) == 0
    assert not recwarn
    assert main(["sketch", *flags, "-i", ai, "-o", str(sk)]) == 0
    assert [str(w.message) for w in recwarn] == ["improved JS capacity must be even; rounding t down"]
    assert deserialize(sk.read_bytes()).t == t - 1


def test_edit_shape_beyond_envelope_header_exits_4(tmp_path, capsys):
    # (2*17 - 1) * 2000 = 66000 does not fit the u16 capacity of the header
    wi = _write(tmp_path, "w.txt", "01101001100101101001")
    sk = tmp_path / "e.bin"
    flags = ["--scheme", "edit", "--t", "2000", "--c", "17"]
    assert main(["params", *flags, "--n", "20"]) == 4
    assert main(["sketch", *flags, "-i", wi, "-o", str(sk)]) == 4
    assert "out of envelope range" in capsys.readouterr().err
    assert not sk.exists()


def test_hamming_shape_beyond_envelope_header_exits_4(tmp_path, capsys):
    # t = 70000 does not fit the u16 t of the header, and is rejected before
    # the code's t*m = 1.26M parity rows of 262,143 bits are built
    wi = _write(tmp_path, "w.txt", "0" * 262143)
    sk = tmp_path / "h.bin"
    flags = ["--scheme", "hamming-syn", "--m", "18", "--t", "70000"]
    assert main(["params", *flags]) == 4
    assert main(["sketch", *flags, "-i", wi, "-o", str(sk)]) == 4
    assert "t out of envelope range" in capsys.readouterr().err
    assert not sk.exists()


def test_exit_4_on_unknown_scheme(tmp_path, capsys):
    ai = _write_set(tmp_path, "a.set", [1, 2, 3])
    rc = main(["sketch", "--scheme", "nope", "--m", "4", "--t", "2",
               "-i", ai, "-o", str(tmp_path / "x.bin")])
    capsys.readouterr()
    assert rc == 4


def test_exit_4_on_scheme_mismatch(tmp_path):
    ai = _write_set(tmp_path, "a.set", [1, 2, 3])
    sk = tmp_path / "ps.bin"
    main(["sketch", "--scheme", "pinsketch", "--m", "10", "--t", "4",
          "-i", ai, "-o", str(sk)])
    assert main(["recover", "--scheme", "ijs", "-i", ai, "--sketch", str(sk)]) == 4


def test_exit_4_on_an_edit_sketch_over_bytes_recovered_from_bits(tmp_path, capsys):
    sk = tmp_path / "e.bin"
    sk.write_bytes(serialize_edit(edit_ss(bytes(range(20)), 2, 1)))
    wpi = _write(tmp_path, "wp.txt", "01" * 10)
    assert main(["recover", "-i", wpi, "--sketch", str(sk)]) == 4
    assert "sketch universe does not match the input alphabet" in capsys.readouterr().err


def test_exit_4_on_rep_without_length(tmp_path, capsys):
    w = "101100101010110"
    wi = _write(tmp_path, "w.txt", w)
    helper = tmp_path / "h.bin"
    main(["gen", "--scheme", "hamming-syn", "--m", "4", "--t", "2",
          "--out-bits", "8", "-i", wi, "-o", str(helper)])
    capsys.readouterr()
    assert main(["rep", "-i", wi, "--sketch", str(helper)]) == 4


@pytest.mark.parametrize("scheme, extra", [("ijs", []), ("origjs", ["--r", "40"])])
def test_exit_3_on_a_set_of_another_size_than_the_sketch(tmp_path, capsys, scheme, extra):
    # Juels-Sudan envelopes fix |w| = s; another size is a malformed input
    ai = _write_set(tmp_path, "a.set", range(1, 13))
    bi = _write_set(tmp_path, "b.set", range(1, 14))
    sk, helper = tmp_path / "sk.bin", tmp_path / "h.bin"
    assert main(["sketch", "--scheme", scheme, "--m", "10", "--t", "4", *extra,
                 "-i", ai, "-o", str(sk)]) == 0
    assert main(["recover", "-i", bi, "--sketch", str(sk)]) == 3
    assert main(["gen", "--scheme", scheme, "--m", "10", "--t", "4", *extra,
                 "--out-bits", "32", "-i", ai, "-o", str(helper)]) == 0
    assert main(["rep", "-i", bi, "--sketch", str(helper), "--out-bits", "32"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("scheme, flags, w, wp", [
    ("hamming-syn", ["--m", "4", "--t", "2"], "101100101010110", "101100101000110"),
    ("pinsketch", ["--m", "10", "--t", "2"], "3a\n7f\n101\n", "3a\n7f\n102\n"),
    ("edit", ["--t", "1"], "0110100110010110", "011010011001011"),
], ids=["hamming-syn", "pinsketch", "edit"])
def test_rep_parses_the_helper_once(tmp_path, capsys, monkeypatch, scheme, flags, w, wp):
    import fzx.cli
    import fzx.entropy

    wi, wpi = _write(tmp_path, "w.txt", w), _write(tmp_path, "wp.txt", wp)
    helper = tmp_path / "h.bin"
    assert main(["gen", "--scheme", scheme, *flags, "--out-bits", "8",
                 "-i", wi, "-o", str(helper)]) == 0
    key = capsys.readouterr().out
    calls = []
    parse = fzx.entropy.parse_helper

    def counted(p):
        calls.append(p)
        return parse(p)

    for module in (fzx.cli, fzx.entropy):
        monkeypatch.setattr(module, "parse_helper", counted)
    assert main(["rep", "-i", wpi, "--sketch", str(helper), "--out-bits", "8"]) == 0
    assert capsys.readouterr().out == key
    assert calls == [helper.read_bytes()]


@pytest.mark.parametrize("command, flag", [
    *(("recover", f) for f in (["--m", "8"], ["--t", "2"], ["--c", "2"], ["--s", "3"],
                                ["--r", "20"], ["--n", "15"], ["--seed", "1"])),
    *(("rep", f) for f in (["--m", "8"], ["--t", "2"], ["--c", "2"], ["--s", "3"],
                            ["--r", "20"], ["--n", "15"], ["--seed", "1"], ["-o", "k.txt"])),
    ("params", ["--seed", "1"]), ("params", ["-o", "p.txt"]),
    ("sketch", ["--s", "3"]), ("sketch", ["--n", "15"]),
    ("gen", ["--s", "3"]), ("gen", ["--n", "15"]),
])
def test_a_flag_the_subcommand_does_not_read_exits_4(tmp_path, capsys, command, flag):
    wi = _write(tmp_path, "w.txt", "101100101010110")
    sk, helper = str(tmp_path / "sk.bin"), str(tmp_path / "h.bin")
    scheme = ["--scheme", "hamming-syn", "--m", "4", "--t", "2"]
    assert main(["sketch", *scheme, "-i", wi, "-o", sk]) == 0
    assert main(["gen", *scheme, "--out-bits", "8", "-i", wi, "-o", helper]) == 0
    argv = {
        "recover": ["recover", "-i", wi, "--sketch", sk],
        "rep": ["rep", "-i", wi, "--sketch", helper, "--out-bits", "8"],
        "params": ["params", *scheme],
        "sketch": ["sketch", *scheme, "-i", wi, "-o", sk],
        "gen": ["gen", *scheme, "--out-bits", "8", "-i", wi, "-o", helper],
    }[command]
    capsys.readouterr()
    assert main(argv) == 0
    assert main(argv + flag) == 4
    # --s too, though it is a prefix of flags the subcommand does take
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, prefix", [
    ("sketch", "--seed", "--se"),
    ("recover", "--output", "--out"),
    ("gen", "--out-bits", "--out-b"),
    ("rep", "--out-bits", "--o"),
    ("params", "--eps", "--ep"),
    ("reconcile", "--local", "--loc"),
])
def test_a_prefix_of_a_flag_exits_4(tmp_path, capsys, command, flag, prefix):
    wi = _write(tmp_path, "w.txt", "101100101010110")
    ai = _write_set(tmp_path, "a.set", [1, 2, 3])
    sk, ps, helper = (str(tmp_path / name) for name in ("sk.bin", "ps.bin", "h.bin"))
    scheme = ["--scheme", "hamming-syn", "--m", "4", "--t", "2"]
    assert main(["sketch", *scheme, "-i", wi, "-o", sk]) == 0
    assert main(["sketch", "--scheme", "pinsketch", "--m", "4", "--t", "2",
                 "-i", ai, "-o", ps]) == 0
    assert main(["gen", *scheme, "--out-bits", "8", "-i", wi, "-o", helper]) == 0
    argv = {
        "sketch": ["sketch", *scheme, "--seed", "1", "-i", wi, "-o", sk],
        "recover": ["recover", "-i", wi, "--sketch", sk, "--output", str(tmp_path / "r.txt")],
        "gen": ["gen", *scheme, "--out-bits", "8", "-i", wi, "-o", helper],
        "rep": ["rep", "-i", wi, "--sketch", helper, "--out-bits", "8"],
        "params": ["params", "--scheme", "edit", "--n", "64", "--t", "2", "--eps", "0.01"],
        "reconcile": ["reconcile", "--local", ai, "--sketch", ps],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    argv[argv.index(flag)] = prefix
    assert main(argv) == 4
    capsys.readouterr()


_SET12 = "".join(f"{x:x}\n" for x in (0x3A, 0x7F, 0x101, 0x1C4, 0x2B, 0x99, 0x3FF, 0x200,
                                       0x12, 0x77, 0x1E0, 0x155))
# a shape each scheme reads, an input to sketch at it, and the flags that
# params also needs: the size of w, which sketch and gen read off w
_SHAPES = {
    "hamming-offset": (["--m", "4", "--t", "2"], "101100101010110", []),
    "pinsketch": (["--m", "10", "--t", "4"], _SET12, []),
    "ijs": (["--m", "10", "--t", "4"], _SET12, []),
    "origjs": (["--m", "10", "--t", "4", "--r", "40"], _SET12, ["--s", "12"]),
    "edit": (["--t", "1"], "0110100110010110", ["--n", "16"]),
}


@pytest.mark.parametrize("scheme", sorted(SCHEME_NAMES.values()))
def test_unseeded_sketch_and_gen_build_no_seeded_generator(tmp_path, capsys, monkeypatch, scheme):
    # without --seed the coins come from os.urandom: no random.Random is
    # built, and the sketch's coins and gen's hash seed are SystemRandom draws
    def refuse(*args):
        raise AssertionError("random.Random built without --seed")

    draws = []

    class CountingSystemRandom(random.SystemRandom):
        def random(self):
            draws.append(1)
            return super().random()

        def getrandbits(self, k):
            draws.append(1)
            return super().getrandbits(k)

    monkeypatch.setattr(cli.random, "Random", refuse)
    monkeypatch.setattr(cli.random, "SystemRandom", CountingSystemRandom)
    shape, w, _ = _SHAPES.get(scheme, _SHAPES["hamming-offset"])
    wi = _write(tmp_path, "w.txt", w)
    sk, helper = str(tmp_path / "sk.bin"), str(tmp_path / "h.bin")
    assert main(["sketch", "--scheme", scheme, *shape, "-i", wi, "-o", sk]) == 0
    if scheme in ("hamming-offset", "hamming-perm", "origjs"):
        assert draws
    draws.clear()
    assert main(["gen", "--scheme", scheme, *shape, "--out-bits", "8",
                 "-i", wi, "-o", helper]) == 0
    assert draws
    key = capsys.readouterr().out
    assert main(["rep", "-i", wi, "--sketch", helper, "--out-bits", "8"]) == 0
    assert capsys.readouterr().out == key
    assert main(["recover", "-i", wi, "--sketch", sk]) == 0
    assert set(capsys.readouterr().out.split()) == set(w.split())


@pytest.mark.parametrize("command, scheme, flag, value", [
    ("params", "edit", "--m", "99"),
    ("params", "pinsketch", "--s", "12"),
    ("params", "ijs", "--r", "64"),
    ("params", "hamming-offset", "--c", "2"),
    ("params", "origjs", "--n", "40"),
    ("sketch", "pinsketch", "--r", "64"),
    ("sketch", "hamming-offset", "--c", "2"),
    ("gen", "ijs", "--r", "64"),
    ("gen", "edit", "--m", "9"),
])
def test_a_shape_flag_the_scheme_does_not_read_exits_4(
    tmp_path, capsys, command, scheme, flag, value
):
    shape, w, sized = _SHAPES[scheme]
    wi = _write(tmp_path, "w.txt", w)
    argv = {
        "params": ["params", "--scheme", scheme, *shape, *sized],
        "sketch": ["sketch", "--scheme", scheme, *shape, "-i", wi, "-o", str(tmp_path / "sk.bin")],
        "gen": ["gen", "--scheme", scheme, *shape, "--out-bits", "8",
                "-i", wi, "-o", str(tmp_path / "h.bin")],
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(argv + [flag, value]) == 4
    assert f"{scheme} takes no {flag}" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_import_cli_loads_no_dataclasses_typing_or_inspect():
    # every CLI process pays its imports; a module the site already loaded
    # costs nothing more, so only the modules fzx.cli adds count
    code = (
        "import sys; bare = set(sys.modules); import fzx.cli; "
        "print(*sorted(set(sys.modules) - bare))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    added = set(run.stdout.split())
    assert run.returncode == 0 and "fzx.cli" in added, run.stderr
    assert not {"dataclasses", "typing", "inspect"} & added
