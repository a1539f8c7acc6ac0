import contextlib
import importlib.util
import io
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalogs
from lazbrace import cli, formats, lazcorr, liering, modarith, skewbrace
from lazbrace.cli import main
from lazbrace.common import IdealLevel, ParseError
from lazbrace.liering import FinGroup
from lazbrace.modarith import ModArithError, PShape
from lazbrace.skewbrace import SkewBrace, l_series_brace

LAZBENCH = Path(__file__).resolve().parents[1] / "lazbench"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_heisenberg(capsys, data_dir):
    code, out, _ = run(capsys, "check", str(data_dir / "heisenberg_p5.lie"))
    assert code == 0
    assert out.splitlines()[0] == "Lie ring, class 2, Lazard (p=5)"


def test_check_radical_brace(capsys, data_dir):
    code, out, _ = run(capsys, "check", str(data_dir / "radical_25.skb"))
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("skew brace (brace), L-class 2")
    assert "soc: {0,5,10,15,20}" in out


def test_check_all_shipped_files(capsys, data_dir):
    for path in sorted(data_dir.iterdir()):
        code, _, _ = run(capsys, "check", str(path))
        assert code == 0, path


def test_check_malformed_file(capsys, tmp_path):
    bad = tmp_path / "bad.lie"
    bad.write_text("format 1\nlie 4 1 1\n")  # 4 is not prime
    code, _, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "parse error" in err


def test_convert_round_trip_bytes(capsys, tmp_path, data_dir):
    src = data_dir / "prelie25_selfsquare.plie"
    mid = tmp_path / "image.skb"
    back = tmp_path / "back.plie"
    assert run(capsys, "convert", str(src), "--to", "brace", "-o", str(mid))[0] == 0
    assert run(capsys, "convert", str(mid), "--to", "postlie", "-o", str(back))[0] == 0
    assert back.read_text() == src.read_text()


def test_convert_refuses_non_lazard(capsys, tmp_path):
    # radical line of length 3 at p = 3: L-class 3 = p
    P = catalogs.prelie_radical(3, 3)
    path = tmp_path / "long.plie"
    path.write_text(formats.write_text(P))
    code, _, err = run(capsys, "convert", str(path), "--to", "brace")
    assert code == 3
    assert "refused" in err


def test_a_lie_file_of_class_p_is_not_lazard(capsys, tmp_path):
    path = tmp_path / "filiform.lie"
    path.write_text(formats.write_text(catalogs.filiform(5, 6, 5)))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and out.splitlines()[0] == "Lie ring, class 5, not Lazard (p=5)"


def test_a_post_lie_file_of_l_class_p_is_refused_before_any_table(capsys, monkeypatch, tmp_path):
    # the Lazard gate refuses before any n x n table is filled
    def no_fill(*args):
        raise AssertionError("a table was filled before the refusal")

    for module in (modarith, liering):
        monkeypatch.setattr(module, "_fill", no_fill)
    path = tmp_path / "filiform.plie"
    path.write_text(formats.write_text(catalogs.zero_triangle(catalogs.filiform(5, 6, 5))))
    code, out, err = run(capsys, "convert", str(path), "--to", "brace")
    assert (code, out, err) == (3, "", "refused: post-Lie ring is not Lazard: L-class 5 >= p = 5\n")


@pytest.mark.parametrize("name, value, failure", [
    # Z/9 with a stated identity 3
    ("z9.grp", lambda: FinGroup(catalogs.shape_group(PShape(3, (2,))).table, 3), "the identity is 0, not the stated 3"),
    # a circ table whose identity is 1: the parser states the dot identity 0 for it
    ("circ1.skb", lambda: SkewBrace(catalogs.shape_group(PShape(3, (2,))),
                                    FinGroup((np.arange(9)[:, None] + np.arange(9) - 1) % 9, 1)),
     "circ: the identity is 1, not the stated 0"),
])
def test_a_wrong_stated_identity_fails_verification(capsys, tmp_path, name, value, failure):
    path = tmp_path / name
    path.write_text(formats.write_text(value()))
    assert run(capsys, "check", str(path)) == (1, f"verify: FAIL\n  {failure}\n", "")


def test_roundtrip_command(capsys, data_dir):
    code, out, _ = run(capsys, "roundtrip", str(data_dir / "radical_25.skb"))
    assert code == 0 and "exact" in out


def test_bch_words_output(capsys, tmp_path):
    out_path = tmp_path / "tables.txt"
    code, _, err = run(capsys, "bch-words", "4", "-o", str(out_path), "--recheck")
    assert code == 0
    text = out_path.read_text()
    assert "2\t[g,h]\t-1/2" in text
    assert "1\tg\t1/1" in text and "1\th\t1/1" in text
    assert "self-inversion at class 4: pass" in err
    code, _, _ = run(capsys, "bch-words", "7")
    assert code == 3


def test_enumerate_order_nine(capsys):
    code, out, _ = run(capsys, "enumerate", "3:1,1", "--iso-dedup")
    assert code == 0
    assert "braces by lambda search: 9" in out
    assert "braces by Hol^+ chain union: 9" in out
    assert "left-nilpotent pre-Lie by triangle search: 9" in out
    assert "brace isomorphism classes: 2" in out
    assert "pairing: bijective" in out


def test_enumerate_refuses_k_ge_p(capsys):
    code, _, err = run(capsys, "enumerate", "3:1,1,1")
    assert code == 3
    assert "k < p" in err


def test_enumerate_cap(capsys):
    code, _, err = run(capsys, "enumerate", "5:2")
    assert code == 3 and err == "refused: order 25 above --max-order 9 (use --force)\n"
    code, out, _ = run(capsys, "enumerate", "5:2", "--force", "--max-order", "25")
    assert code == 0 and "pairing: bijective" in out


@pytest.mark.parametrize("spec, order", [
    ("18446744073709551557:1", "18446744073709551557^1"),  # a 20-digit prime
    ("2:99999999999999999999", "2^99999999999999999999"),  # p ** k is never formed
    ("5:3,4", "5^7"),
])
def test_enumerate_refuses_a_shape_above_the_soft_cap_before_testing_p(capsys, monkeypatch, spec, order):
    def no_primality_test(n):
        raise AssertionError(f"primality test of {n} before the cap")

    monkeypatch.setattr(modarith, "is_prime", no_primality_test)
    start = time.perf_counter()
    code, out, err = run(capsys, "enumerate", spec, "--force")
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err == f"refused: order {order} exceeds the soft cap {5 ** 6}\n"


def test_root_diff_command(capsys, tmp_path, data_dir):
    out_path = tmp_path / "triangle.plie"
    code, out, _ = run(capsys, "root-diff", str(data_dir / "radical_25.skb"), "-o", str(out_path))
    assert code == 0 and "exact" in out
    kind, P = formats.parse_text(out_path.read_text())
    assert kind == "postlie"
    assert P.tri[0, 0, 0] == 5  # the ring product reappears


def test_formats_parse_write_identity(data_dir):
    for path in sorted(data_dir.iterdir()):
        kind, value = formats.parse_file(path)
        assert formats.write_text(value) == path.read_text()


def test_formats_reject_garbage():
    with pytest.raises(ParseError):
        formats.parse_text("hello\n")
    with pytest.raises(ParseError):
        formats.parse_text("format 1\nlie 5\n")
    with pytest.raises(ParseError):
        formats.parse_text("format 1\ngroup 2 identity 0\n0 1\n1 2\n")


def test_table_rows_off_the_plain_path():
    # rows that are not plain decimal tokens keep the per-token messages
    head = "format 1\nskewbrace 2\ndot:\n0 1\n1 0\ncirc:\n0 1\n"
    cases = {
        "1 0 1": "line 8: expected 2 entries in circ table row",
        "1 O": "line 8: bad integer in circ table",
        "1 " + "9" * 20: "circ table entries out of range 0..1",
        "1 " + "9" * 19: "circ table entries out of range 0..1",
    }
    for row, message in cases.items():
        with pytest.raises(ParseError) as info:
            formats.parse_text(head + row + "\n")
        assert str(info.value) == message, row
    # and still accept what int() accepts
    text = formats.write_text(catalogs.shape_group(PShape(5, (1,))))
    assert text.endswith("\n4 0 1 2 3\n")
    for row in ("4 0 1 2 +3", "4 0 1 2 0_3", "4\t0 1  2 3"):
        _, G = formats.parse_text(text.replace("\n4 0 1 2 3\n", f"\n{row}\n"))
        assert formats.write_text(G) == text, row


def test_group_file_round_trip(tmp_path):
    G = catalogs.shape_group(PShape(3, (1, 1)))
    text = formats.write_text(G)
    kind, G2 = formats.parse_text(text)
    assert kind == "group" and G2 == G


_MALFORMED = {
    "letter.grp": b"format 1\ngroup x identity 0\n0\n",
    "identity.grp": b"format 1\ngroup 2 identity 5\n0 1\n1 0\n",
    "empty.skb": b"format 1\nskewbrace 0\ndot:\ncirc:\n",
    "accent.lie": "format 1\nlie 5 1 1\n# caf\u00e9\n".encode("utf-8"),
    "missing.lie": None,
    "twice.lie": b"format 1\nlie 5 1 1 1\nbracket 1 2 : 0 0 1\nbracket 1 2 : 0 0 2\n",
    "twice.plie": b"format 1\npostlie 5 1 1\ntriangle 1 1 : 0 1\ntriangle 1 1 : 0 2\n",
    "illdefined.plie": b"format 1\npostlie 5 2 1\ntriangle 1 2 : 1 0\n",
    "extratoken.grp": b"format 1\ngroup 2 identity 0\n0 1\n1 0 1\n",
    "badlastrow.skb": b"format 1\nskewbrace 2\ndot:\n0 1\n1 0\ncirc:\n0 1\n1 O\n",
    "twentydigits.grp": b"format 1\ngroup 2 identity 0\n0 1\n1 " + b"9" * 20 + b"\n",
}


@pytest.mark.parametrize("name", list(_MALFORMED))
def test_malformed_input_exits_2(capsys, tmp_path, name):
    path = tmp_path / name
    if _MALFORMED[name] is not None:
        path.write_bytes(_MALFORMED[name])
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err.startswith("parse error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text, code", [
    ("lie 18446744073709551619 2", 3),  # refused before p is tested for primality
    ("lie 5 65536 1", 3),  # 5^65536 fits no int64 modulus
    ("lie 5 7", 3),  # 5^7 is above the soft cap
    ("lie 5 1 1 1\nbracket 1 2 : 0 0 18446744073709551617", 0),  # 2^64 + 1 = 2 mod 5
])
def test_shapes_and_coordinates_beyond_int64(capsys, tmp_path, text, code):
    path = tmp_path / "big.lie"
    path.write_text(f"format 1\n{text}\n")
    got, out, err = run(capsys, "check", str(path))
    assert got == code
    if code:
        assert err.startswith("refused: line 2: order ") and err.count("\n") == 1
    else:
        assert out.startswith("Lie ring, class 2, Lazard (p=5)")


_REFUSED_FILES = {
    "reversed.lie": (b"format 1\nlie 5 1 1\nbracket 2 1 : 0 0\n", "line 3: bracket lines need i < j"),
    "triangle.lie": (b"format 1\nlie 5 1 1\ntriangle 1 1 : 0 1\n", "triangle lines in a lie file"),
    "header.grp": (b"format 1\ngroup 2 id 0\n0 1\n1 0\n", "line 2: need 'group <n> identity <idx>'"),
    "header.skb": (b"format 1\nskewbrace 2 3\ndot:\n0 1\n1 0\ncirc:\n0 1\n1 0\n", "line 2: need 'skewbrace <n>'"),
    "noidentity.skb": (b"format 1\nskewbrace 2\ndot:\n0 0\n0 0\ncirc:\n0 1\n1 0\n",
                       "dot table has no unique identity"),
}


@pytest.mark.parametrize("name", list(_REFUSED_FILES))
def test_each_file_refusal_is_one_parse_error_line(capsys, tmp_path, name):
    text, message = _REFUSED_FILES[name]
    path = tmp_path / name
    path.write_bytes(text)
    assert run(capsys, "check", str(path)) == (2, "", f"parse error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("convert", "heisenberg_p5.lie", "--to", "brace"), "convert --to brace needs a postlie file, got lie"),
    (("convert", "prelie25_selfsquare.plie", "--to", "postlie"),
     "convert --to postlie needs a skewbrace file, got postlie"),
    (("root-diff", "heisenberg_p5.lie"), "root-diff needs a skewbrace file, got lie"),
    (("enumerate", "5-1"), "bad shape spec '5-1'; use 'p:e1,e2,...'"),
])
def test_each_command_refusal_is_one_parse_error_line(capsys, data_dir, argv, message):
    argv = [str(data_dir / a) if "." in a else a for a in argv]
    assert run(capsys, *argv) == (2, "", f"parse error: {message}\n")


def test_a_failed_self_check_exits_1_with_one_line(capsys, monkeypatch, data_dir):
    # a classifier that ranks Fix (the first row) below a left ideal: the
    # self-check in substructures_brace fails, and check reports it
    monkeypatch.setattr(skewbrace, "_classify_bits_brace", lambda B, masks: np.array(
        [IdealLevel.SUB] + [IdealLevel.IDEAL] * (len(masks) - 1)))
    assert run(capsys, "check", str(data_dir / "radical_25.skb")) == (
        1, "", "internal consistency failure: fix is not a left ideal\n")


def test_non_post_lie_input_exits_1(capsys, tmp_path):
    # L-nilpotent, but the associator axiom fails
    path = tmp_path / "bad.plie"
    path.write_text("format 1\npostlie 5 1 1\ntriangle 1 1 : 0 1\ntriangle 2 1 : 0 1\n")
    for argv in (("convert", str(path), "--to", "brace"), ("roundtrip", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert "not a post-Lie ring" in err and err.count("\n") == 1


@pytest.mark.parametrize("name, text, to, what", [
    ("loop.skb", lambda: formats.write_text(SkewBrace(*[FinGroup(catalogs.nonassociative_loop(5), 0)] * 2)),
     "postlie", "not a skew brace"),
    ("twisted.skb", lambda: formats.write_text(catalogs.twisted_sum(5)), "postlie", "not a skew brace"),
    ("assoc.plie", lambda: "format 1\npostlie 5 1 1\ntriangle 1 2 : 1 0\ntriangle 2 1 : 0 1\n", "brace",
     "not a post-Lie ring"),
])
def test_inputs_that_break_their_axioms_exit_1_before_any_lazard_refusal(capsys, tmp_path, name, text, to, what):
    # the axioms are checked before any Lazard refusal: the loop and the
    # post-Lie file are not L-nilpotent either, and the twisted sum's lambda
    # is not additive, which the log would blame on the library
    path = tmp_path / name
    path.write_text(text())
    for argv in (("convert", str(path), "--to", to), ("roundtrip", str(path))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"verification failure: {what}: ") and err.count("\n") == 1, argv


def test_unwritable_output_exits_2(capsys, tmp_path, data_dir):
    target = str(tmp_path / "missing" / "x.out")
    for argv in (
        ("convert", str(data_dir / "prelie25_selfsquare.plie"), "--to", "brace"),
        ("bch-words", "2"),
        ("root-diff", str(data_dir / "radical_25.skb")),
    ):
        code, _, err = run(capsys, *argv, "-o", target)
        assert code == 2, argv
        assert err.startswith(f"cannot write {target}: ") and err.count("\n") == 1


def test_successive_calls_behave_as_fresh_invocations(capsys, tmp_path, data_dir):
    # main reuses one parser per process: nothing may carry over between calls
    src = str(data_dir / "prelie25_selfsquare.plie")
    image = tmp_path / "image.skb"
    assert run(capsys, "convert", src, "--to", "brace", "-o", str(image)) == (0, "", "")
    assert run(capsys, "roundtrip", str(image)) == (0, "roundtrip: exact\n", "")
    code, out, err = run(capsys, "convert", src, "--to", "brace")  # no -o: stdout
    assert (code, out, err) == (0, image.read_text(), "")
    with pytest.raises(SystemExit) as info:  # an argument error: --to is missing
        main(["convert", src])
    assert info.value.code == 2 and "--to" in capsys.readouterr().err
    bad = tmp_path / "bad.lie"
    bad.write_text("format 1\nlie 4 1 1\n")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2 and out == "" and err.startswith("parse error: ")
    assert run(capsys, "roundtrip", str(image)) == (0, "roundtrip: exact\n", "")
    code, out, _ = run(capsys, "check", str(data_dir / "radical_25.skb"))
    assert code == 0 and out.startswith("skew brace (brace), L-class 2")


_DATA = Path(__file__).parent.parent / "data"
# out of range for every table (at and beyond uint16 and uint32, beyond
# int64), signs, other notations, and non-ASCII digits and letters
_BAD_TOKENS = ["-1", "-0", "+3", "25", "65536", "65539", str(2 ** 32 + 3), str(2 ** 63), str(2 ** 64 + 3),
               "9" * 20, "0x1", "1e3", "3.0", "", ":", "\u0663", "caf\u00e9"]


@st.composite
def _mutated_data_file(draw):
    """A data/ file with one to three edits: a line truncated, the file cut
    after a line, two lines swapped, a line repeated, or a token replaced by
    a bad token or by a small number (which keeps a table in range)."""
    name = draw(st.sampled_from(sorted(p.name for p in _DATA.iterdir())))
    lines = (_DATA / name).read_text().split("\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(("truncate", "cut", "swap", "repeat", "token")))
        if edit == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif edit == "cut":
            lines = lines[:i + 1]
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(
                st.one_of(st.sampled_from(_BAD_TOKENS), st.integers(0, 30).map(str)))
            lines[i] = " ".join(tokens)
    return name, "\n".join(lines).encode("utf-8")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_mutated_data_file(), st.sampled_from(("check", "roundtrip")))
def test_mutated_data_files_end_with_an_exit_code(mutated, command):
    # parse -> range check -> cast: every run ends with a documented exit
    # code, and a parse error or a refusal with exactly one stderr line
    name, text = mutated
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path)])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3)
    assert len(lines) == (code in (2, 3)) or (code == 1 and len(lines) <= 1), (code, lines)


def test_a_series_that_does_not_descend_is_refused(capsys, tmp_path, data_dir):
    # radical_25.skb with three rows moved in a 3-cycle (two circ rows, one
    # dot row): not a brace, which the CLI says before any series, and its
    # L-series terms stop nesting; without the nesting check the series
    # would run forever
    lines = (data_dir / "radical_25.skb").read_text().split("\n")
    lines[18], lines[33], lines[53] = lines[33], lines[53], lines[18]
    path = tmp_path / "cycled.skb"
    path.write_text("\n".join(lines))
    code, out, err = run(capsys, "roundtrip", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("verification failure: not a skew brace: ") and err.count("\n") == 1
    _, B = formats.parse_file(path)
    with pytest.raises(ModArithError, match=r"^series term 3 holds element 1 outside term 2$"):
        l_series_brace(B)


@pytest.mark.parametrize("spec, err", [
    ("5:1,1", "refused: pre-Lie search space 390625 exceeds the desk-scale cap\n"),
    ("7:3", "refused: |A| = 343 exceeds the soft cap 125\n"),
])
def test_enumerate_compares_every_cap_before_any_enumeration(capsys, monkeypatch, spec, err):
    # --force lifts --max-order only; the other caps refuse before any work
    for name in ("enumerate_braces", "enumerate_braces_via_chains", "enumerate_prelie_ops",
                 "enumerate_prelie_ops_aff"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name: pytest.fail(f"{_name} ran before the caps"))
    assert run(capsys, "enumerate", spec, "--force") == (3, "", err)


def test_running_out_of_memory_is_one_refusal_line(capsys, monkeypatch, data_dir):
    def exhausted(table):
        raise MemoryError()

    monkeypatch.setattr(formats, "_table_lines", exhausted)
    code, out, err = run(capsys, "convert", str(data_dir / "prelie25_selfsquare.plie"), "--to", "brace")
    assert (code, out, err) == (3, "", "refused: out of memory in convert\n")


def test_a_refused_write_leaves_no_partial_file(capsys, monkeypatch, tmp_path, data_dir):
    # convert -o writes the text a block at a time; a refusal after the
    # first block removes what it wrote
    def exhausted(table):
        yield "0\n"
        raise MemoryError()

    monkeypatch.setattr(formats, "_table_lines", exhausted)
    out = tmp_path / "image.skb"
    code, _, err = run(capsys, "convert", str(data_dir / "prelie25_selfsquare.plie"), "--to", "brace", "-o", str(out))
    assert (code, err) == (3, "refused: out of memory in convert\n") and not out.exists()


def _lazbench_generate(monkeypatch):
    """lazbench/generate.py, loaded without writing a bytecode cache there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("lazbench_generate", LAZBENCH / "generate.py")
    generate = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, generate)  # its dataclasses look their module up
    spec.loader.exec_module(generate)
    return generate


def _order_625_files(monkeypatch, tmp_path):
    """lazbench's order-625 radical brace and graded post-Lie files."""
    generate = _lazbench_generate(monkeypatch)
    skb, plie = tmp_path / "radical.skb", tmp_path / "graded.plie"
    skb.write_text(formats.write_text(generate.radical_brace_instance("radical", 3, 5, 4).build()))
    plie.write_text(formats.write_text(generate.triangle_instance("graded", 3, 5, (1, 1, 1, 1), "zero", 2).build()))
    return skb, plie


def test_no_command_converts_coordinates_on_all_pairs(capsys, monkeypatch, tmp_path):
    # every n x n table is filled along a Schreier tree from n k generator
    # images, so no PShape.index_batch call converts more than 8 n rows
    skb, plie = _order_625_files(monkeypatch, tmp_path)
    largest = []
    index_batch = PShape.index_batch

    def recording(self, coords):
        largest.append(int(np.prod(np.shape(coords)[:-1])))
        return index_batch(self, coords)

    monkeypatch.setattr(PShape, "index_batch", recording)
    out = str(tmp_path / "out")
    for argv in (("roundtrip", skb), ("roundtrip", plie), ("convert", plie, "--to", "brace", "-o", out),
                 ("root-diff", skb, "-o", out)):
        assert run(capsys, *map(str, argv))[0] == 0, argv
    assert 0 < max(largest) <= 8 * 625


def test_a_roundtrip_builds_one_lazard_table(capsys, monkeypatch, tmp_path):
    # the isomorphism checks read BCH rows of generators, so laz(P.base) in
    # post_lie_to_brace is the one Lazard table a roundtrip builds
    calls = []
    laz = liering.laz

    def counting(*args, **kwargs):
        calls.append(args[0])
        return laz(*args, **kwargs)

    for module in (liering, lazcorr):
        monkeypatch.setattr(module, "laz", counting)
    for path in _order_625_files(monkeypatch, tmp_path):
        calls.clear()
        assert run(capsys, "roundtrip", str(path)) == (0, "roundtrip: exact\n", ""), path
        assert len(calls) == 1, path


def test_a_plie_roundtrip_verifies_its_flow_brace_once(capsys, monkeypatch, tmp_path):
    # brace_to_post_lie reads the verdict post_lie_to_brace cached on the
    # flow brace; a .skb roundtrip verifies its input and the flow brace of
    # the logged ring, two braces
    calls = []
    verify = skewbrace.verify_skew_brace

    def counting(B):
        calls.append(id(B))
        return verify(B)

    monkeypatch.setattr(skewbrace, "verify_skew_brace", counting)
    skb, plie = _order_625_files(monkeypatch, tmp_path)
    for path, braces in ((plie, 1), (skb, 2)):
        calls.clear()
        assert run(capsys, "roundtrip", str(path)) == (0, "roundtrip: exact\n", ""), path
        assert len(calls) == len(set(calls)) == braces, path


def test_an_output_file_is_written_a_block_at_a_time(monkeypatch, tmp_path):
    # the 3 MB text of an order-625 brace is never held whole
    skb, _ = _order_625_files(monkeypatch, tmp_path)
    _, B = formats.parse_file(skb)
    out = tmp_path / "copy.skb"
    tracemalloc.start()
    try:
        assert cli._write_output(formats.text_blocks(B), str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.read_bytes() == skb.read_bytes()
    assert peak < out.stat().st_size / 2
