"""Line-oriented structure files: Lie rings, post-Lie rings, groups, braces.

Every file starts with `format 1` and a kind header.  All integers are
decimal, parsing is locale-free, and writing is deterministic, so write
-> parse -> write is byte-identical.
"""

from __future__ import annotations

import re

import numpy as np

from .common import ParseError
from .liering import _check_shape_cap, FinGroup, LieRingSC
from .modarith import ModArithError, PShape
from .postlie import PostLieRing
from .skewbrace import SkewBrace

__all__ = ["parse_file", "parse_text", "write_text", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def _intline(tokens, what, line_no):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"line {line_no}: bad integer in {what}") from None


def _parse_table(lines, start, n, what):
    """The n x n table on lines[start:start + n]: converted in one pass when
    every row is n plain decimal tokens, else row by row, naming the bad line."""
    rows = lines[start:start + n]
    token = "[0-9]{1,18}"  # at most 18 digits, so below 2**63
    plain = re.compile(rf"{token}(?:[ \t]+{token}){{{n - 1}}}")
    if all(plain.fullmatch(ln) for _, ln in rows):
        table = np.fromstring(" ".join(ln for _, ln in rows), dtype=np.int64, sep=" ").reshape(n, n)
    else:
        vals = []
        for ln_no, ln in rows:
            row = _intline(ln.split(), what, ln_no)
            if len(row) != n:
                raise ParseError(f"line {ln_no}: expected {n} entries in {what} row")
            vals.append([v if 0 <= v < n else -1 for v in row])  # -1 fails the range check below
        table = np.asarray(vals, dtype=np.int64)
    if table.min() < 0 or table.max() >= n:
        raise ParseError(f"{what} entries out of range 0..{n - 1}")
    return table


def parse_text(text: str):
    """Parse a structure file; returns (kind, value)."""
    lines = [
        (no, ln.strip())
        for no, ln in enumerate(text.splitlines(), start=1)
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty file")
    no, first = lines[0]
    if first != f"format {FORMAT_VERSION}":
        raise ParseError(f"line {no}: expected 'format {FORMAT_VERSION}'")
    if len(lines) < 2:
        raise ParseError("missing kind header")
    no, header = lines[1]
    toks = header.split()
    kind = toks[0]
    body = lines[2:]
    if kind in ("lie", "postlie"):
        if len(toks) < 3:
            raise ParseError(f"line {no}: need '{kind} <p> <e1> [e2 ...]'")
        p, *exps = _intline(toks[1:], "shape", no)
        _check_shape_cap(p, exps, f"line {no}: ")
        try:
            shape = PShape(p, tuple(exps))
        except ValueError as exc:
            raise ParseError(f"line {no}: {exc}") from None
        brackets = {}
        triangles = {}
        for ln_no, ln in body:
            toks = ln.split()
            if len(toks) < 4 or toks[3] != ":":
                raise ParseError(f"line {ln_no}: expected '<op> <i> <j> : <coords>'")
            op = toks[0]
            i, j = _intline(toks[1:3], "generator pair", ln_no)
            coords = _intline(toks[4:], "coordinates", ln_no)
            if len(coords) != shape.rank:
                raise ParseError(f"line {ln_no}: expected {shape.rank} coordinates")
            if not (1 <= i <= shape.rank and 1 <= j <= shape.rank):
                raise ParseError(f"line {ln_no}: generator index out of range")
            if op == "bracket":
                if i >= j:
                    raise ParseError(f"line {ln_no}: bracket lines need i < j")
                target = brackets
            elif op == "triangle":
                target = triangles
            else:
                raise ParseError(f"line {ln_no}: unknown op {op!r}")
            if (i - 1, j - 1) in target:
                raise ParseError(f"line {ln_no}: repeated {op} {i} {j}")
            target[(i - 1, j - 1)] = [c % m for c, m in zip(coords, shape.moduli)]  # reduced before numpy
        base = LieRingSC.from_brackets(shape, brackets)
        if kind == "lie":
            if triangles:
                raise ParseError("triangle lines in a lie file")
            return "lie", base
        try:
            return "postlie", PostLieRing.from_products(base, triangles)
        except ModArithError as exc:
            raise ParseError(str(exc)) from None
    if kind == "group":
        if len(toks) != 4 or toks[2] != "identity":
            raise ParseError(f"line {no}: need 'group <n> identity <idx>'")
        n, e = _intline([toks[1], toks[3]], "group header", no)
        if not 0 <= e < n:
            raise ParseError(f"line {no}: identity {e} out of range 0..{n - 1}")
        if len(body) != n:
            raise ParseError(f"group table needs exactly {n} rows, found {len(body)}")
        table = _parse_table(body, 0, n, "group table")
        return "group", FinGroup(table, e)
    if kind == "skewbrace":
        if len(toks) != 2:
            raise ParseError(f"line {no}: need 'skewbrace <n>'")
        (n,) = _intline(toks[1:], "skewbrace header", no)
        if n < 1:
            raise ParseError(f"line {no}: skewbrace needs at least one element")
        if len(body) != 2 * n + 2 or body[0][1] != "dot:" or body[n + 1][1] != "circ:":
            raise ParseError("skewbrace file needs 'dot:' and 'circ:' sections")
        dot = _parse_table(body, 1, n, "dot table")
        circ = _parse_table(body, n + 2, n, "circ table")
        hits = np.nonzero((dot == np.arange(n)).all(axis=1))[0]
        if hits.size != 1:
            raise ParseError("dot table has no unique identity")
        e = int(hits[0])
        return "skewbrace", SkewBrace(FinGroup(dot, e), FinGroup(circ, e))
    raise ParseError(f"line {no}: unknown kind {kind!r}")


def parse_file(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not ASCII") from None
    return parse_text(text)


def _table_lines(table) -> list[str]:
    return [" ".join(map(str, row)) for row in np.asarray(table).tolist()]


def write_text(value) -> str:
    lines = [f"format {FORMAT_VERSION}"]
    if isinstance(value, (PostLieRing, LieRingSC)):
        post = isinstance(value, PostLieRing)
        base = value.base if post else value
        s = base.shape
        lines.append(("postlie " if post else "lie ") + str(s.p) + " " + " ".join(str(e) for e in s.exps))
        products = [("bracket", i, j, base.sc) for i in range(s.rank) for j in range(i + 1, s.rank)]
        if post:
            products += [("triangle", i, j, value.tri) for i in range(s.rank) for j in range(s.rank)]
        for op, i, j, consts in products:
            if consts[i, j].any():
                coords = " ".join(str(int(v)) for v in consts[i, j])
                lines.append(f"{op} {i + 1} {j + 1} : {coords}")
    elif isinstance(value, SkewBrace):
        lines.append(f"skewbrace {value.order}")
        lines.append("dot:")
        lines.extend(_table_lines(value.dot.table))
        lines.append("circ:")
        lines.extend(_table_lines(value.circ.table))
    elif isinstance(value, FinGroup):
        lines.append(f"group {value.order} identity {value.identity}")
        lines.extend(_table_lines(value.table))
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")
    return "\n".join(lines) + "\n"
