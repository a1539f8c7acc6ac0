"""The block-wise table codec of `formats` against the row-wise parser and
writer it replaced, kept here as oracles."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazbrace import formats, modarith
from lazbrace.common import ParseError
from lazbrace.modarith import index_dtype


def oracle_parse_table(lines, start, n, what):
    """The n x n table on lines[start:start + n] in int64: converted in one
    pass when every row is n plain decimal tokens, else row by row, naming
    the bad line."""
    rows = lines[start:start + n]
    token = "[0-9]{1,18}"  # at most 18 digits, so below 2**63
    plain = re.compile(rf"{token}(?:[ \t]+{token}){{{n - 1}}}")
    if all(plain.fullmatch(ln) for _, ln in rows):
        table = np.fromstring(" ".join(ln for _, ln in rows), dtype=np.int64, sep=" ").reshape(n, n)
    else:
        vals = []
        for ln_no, ln in rows:
            row = formats._intline(ln.split(), what, ln_no)
            if len(row) != n:
                raise ParseError(f"line {ln_no}: expected {n} entries in {what} row")
            vals.append([v if 0 <= v < n else -1 for v in row])  # -1 fails the range check below
        table = np.asarray(vals, dtype=np.int64)
    if table.min() < 0 or table.max() >= n:
        raise ParseError(f"{what} entries out of range 0..{n - 1}")
    return table


def oracle_table_lines(table) -> list[str]:
    return [" ".join(map(str, row)) for row in np.asarray(table).tolist()]


def oracle_plain(rows, n):
    """The oracle's one-pass verdict, narrowed to tokens of at most as many
    digits as n - 1 has."""
    token = f"[0-9]{{1,{len(str(n - 1))}}}"
    plain = re.compile(rf"{token}(?:[ \t]+{token}){{{n - 1}}}")
    return all(plain.fullmatch(ln) for _, ln in rows)


_EDGES = [1, 2, 9, 10, 11, 99, 100, 101, 255, 256, 257]  # where the digit width or the dtype changes
_EDITS = ["zeros", "tab", "blanks", "plus", "underscore", "pad19", "digits19", "digits20", "missing", "extra",
          "shift", "arabic", "range", "letter", "comment", "blank"]


def _edit(rows, kind, r, pos, n):
    """Apply one edit to row r (a list of tokens joined by blanks), insert a
    comment or blank line after it, or move its last token to the next row
    (so a block keeps its token count)."""
    if kind in ("comment", "blank"):
        rows.insert(r + 1, "# a note" if kind == "comment" else "")
        return
    if kind == "shift" and r + 1 < len(rows):
        head, _, last = rows[r].rpartition(" ")
        rows[r], rows[r + 1] = head, f"{last} {rows[r + 1]}"
        return
    toks = rows[r].split(" ")
    k = pos % len(toks)
    tok = toks[k]
    if kind == "zeros":
        toks[k] = "0" * (1 + pos % 3) + tok
    elif kind == "tab":
        toks[k] = "\t" + tok
    elif kind == "blanks":
        toks[k] = " \t " + tok
    elif kind == "plus":
        toks[k] = "+" + tok
    elif kind == "underscore":
        toks[k] = "0_" + tok
    elif kind == "pad19":
        toks[k] = tok.rjust(19, "0")
    elif kind == "digits19":
        toks[k] = "9" * 19
    elif kind == "digits20":
        toks[k] = "9" * 20
    elif kind == "missing":
        del toks[k]
    elif kind == "extra":
        toks.insert(k, tok)
    elif kind == "arabic":
        toks[k] = "٣"  # int() reads 3
    elif kind == "range":
        toks[k] = str(n + pos % (10 ** len(str(n)) - n))  # as many digits as n, so plain when n - 1 has as many
    else:
        toks[k] = "x"
    rows[r] = " ".join(toks)


@st.composite
def _table_file(draw):
    """A group file of a random n x n table on an edge n, with up to three
    edits, and maybe a range error followed later by a format error."""
    n = draw(st.sampled_from(_EDGES))
    table = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(0, n, (n, n))
    rows = oracle_table_lines(table)
    k = draw(st.sampled_from([0, 1, 1, 1, 2, 3]))  # mostly one edit, so a block is often plain but for it
    edits = draw(st.lists(st.tuples(st.sampled_from(_EDITS), st.integers(0, n - 1), st.integers(0, 10 ** 6)),
                          min_size=k, max_size=k))
    if n > 1 and draw(st.sampled_from([False, False, True])):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        edits += [("range", i, 0), ("letter", j, 0)]
    for kind, r, pos in sorted(edits, key=lambda e: -e[1]):  # from the bottom, so row numbers stay
        _edit(rows, kind, r, pos, n)
    return n, table, "format 1\ngroup {} identity 0\n{}\n".format(n, "\n".join(rows))


def _parsed(text):
    """The table parse_text reads from a group file, or its ParseError text."""
    try:
        return formats.parse_text(text)[1].table
    except ParseError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_table_file(), st.sampled_from([None, 1, 300, 5000]))
def test_the_block_codec_matches_the_row_oracles(case, chunk):
    n, table, text = case
    with mock.patch.object(modarith, "_CHUNK", chunk or modarith._CHUNK):  # blocks of a few rows, or one
        got = _parsed(text)
        with mock.patch.object(formats, "_parse_table", oracle_parse_table):
            want = _parsed(text)
        # the fast path's verdict and values on the table rows as one block
        lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)
                 if ln.strip() and not ln.strip().startswith("#")][2:]
        values = formats._plain_values(lines, n, len(str(n - 1))) if len(lines) == n else None
        # writes are byte-identical in every dtype that holds the table
        text = "".join(ln + "\n" for ln in oracle_table_lines(table))
        for dtype in (np.uint8, np.uint16, np.int64):
            if n <= np.iinfo(dtype).max + 1:
                assert "".join(formats._table_lines(table.astype(dtype))) == text, dtype
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and got.dtype == index_dtype(n) and np.array_equal(got, want)
    if len(lines) == n:
        assert (values is not None) == oracle_plain(lines, n)
    if values is not None:
        want_values = np.fromstring(" ".join(ln for _, ln in lines), dtype=np.int64, sep=" ").reshape(n, n)
        assert np.array_equal(values, want_values)


def test_plain_blocks_at_their_edges():
    # a token as wide as the width is plain, one digit more is not; a block
    # with n tokens a row on average but not on every row is not plain
    assert np.array_equal(formats._plain_values([(1, "10 9"), (2, "0\t 1")], 2, 2), [[10, 9], [0, 1]])
    assert formats._plain_values([(1, "10 010"), (2, "0 1")], 2, 2) is None
    assert formats._plain_values([(1, "0 1 2"), (2, "1 2"), (3, "0 2 0 1")], 3, 1) is None
    with pytest.raises(ParseError, match=r"^line 4: expected 3 entries in group table row$"):
        formats.parse_text("format 1\ngroup 3 identity 0\n0 1 2\n1 2\n0 2 0 1\n")
