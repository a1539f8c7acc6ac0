"""Line-oriented structure files: Lie rings, post-Lie rings, groups, braces.

Every file starts with `format 1` and a kind header.  All integers are
decimal, parsing is locale-free, and writing is deterministic, so write
-> parse -> write is byte-identical.
"""

from __future__ import annotations

import numpy as np

from .common import ParseError
from .liering import _check_shape_cap, FinGroup, LieRingSC
from .modarith import ModArithError, PShape, _left_identities, _walk, index_dtype
from .postlie import PostLieRing
from .skewbrace import SkewBrace

__all__ = ["parse_file", "parse_text", "write_text", "text_blocks", "FORMAT_VERSION"]

FORMAT_VERSION = 1


def _intline(tokens, what, line_no):
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise ParseError(f"line {line_no}: bad integer in {what}") from None


def _parse_table(lines, start, n, what):
    """The n x n table on lines[start:start + n], in index_dtype(n).

    Rows are converted a _walk block at a time.  A block of plain rows (see
    _plain_values) is decoded from its bytes; any other block goes row by
    row through int(), which names its first bad line.  The range error is
    raised only after every block has passed its format check, so a format
    error anywhere in the table wins over it.
    """
    rows = lines[start:start + n]
    width = len(str(n - 1))
    table = np.empty((n, n), dtype=index_dtype(n))
    in_range = True
    for blk in _walk(n, n * (width + 1)):
        values = _plain_values(rows[blk], n, width)
        if values is None:
            values = []
            for ln_no, ln in rows[blk]:
                row = _intline(ln.split(), what, ln_no)
                if len(row) != n:
                    raise ParseError(f"line {ln_no}: expected {n} entries in {what} row")
                values.append(row if min(row) >= 0 and max(row) < n else [n] * n)  # n fails the range check
        ok = np.max(values) < n
        if ok:
            table[blk] = values
        in_range &= ok
    if not in_range:
        raise ParseError(f"{what} entries out of range 0..{n - 1}")
    return table


def _plain_values(rows, n, width):
    """The (len(rows), n) array of values of `rows` (line number, stripped
    line) when every row is plain: only ASCII digits, blanks and tabs, n
    tokens, and no token longer than `width` digits.  None otherwise.

    The rows are joined into one byte array, each after a newline.  A token
    is a run of digits, and token k * n must follow the newline of row k.
    A value is summed from one take per digit place, counted back from the
    token's last digit, in the smallest dtype that holds 10**width - 1.
    """
    text = ("\n" + "\n".join(ln for _, ln in rows) + "\n").encode("ascii", "replace")
    if text.translate(None, b"0123456789 \t\n"):
        return None
    buf = np.frombuffer(text, dtype=np.uint8)
    digit = buf >= ord("0")
    edges = np.flatnonzero(digit[1:] != digit[:-1])  # the text starts and ends off a token
    before, ends = edges[0::2], edges[1::2]  # the byte before each token, and its last digit
    newlines = np.cumsum([0] + [len(ln) + 1 for _, ln in rows[:-1]])
    if len(before) != len(rows) * n or not np.array_equal(before[::n], newlines):
        return None
    lengths = ends - before
    if lengths.max() > width:
        return None
    lengths = lengths.astype(np.uint8)
    digits = buf - np.uint8(ord("0"))
    acc = np.min_scalar_type(10 ** width - 1)
    values = digits.take(ends).astype(acc)
    for place in range(1, width):
        ends -= 1
        d = digits.take(ends)
        d *= lengths > place
        values += np.multiply(d, 10 ** place, dtype=acc)
    return values.reshape(len(rows), n)


def parse_text(text: str):
    """Parse a structure file; returns (kind, value)."""
    lines = [
        (no, ln)
        for no, raw in enumerate(text.splitlines(), start=1)
        if (ln := raw.strip()) and not ln.startswith("#")
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
        hits = _left_identities(dot)  # compares only the rows with e . 0 = 0
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


def _table_lines(table):
    """The text of an n x n element table in _walk blocks of whole
    lines: each row its entries in decimal, one blank apart, then "\n".

    Each value's cell is its digits and a blank, padded with zero bytes to
    the width of the longest, and held as one void item.  A block is one
    take of its entries' cells, with the blank of each row's last cell
    turned into a newline and the zero bytes dropped.
    """
    n = len(table)
    width = len(str(n - 1)) + 1
    cells = "".join(f"{v} ".ljust(width, "\0") for v in range(n)).encode("ascii")
    cells = np.frombuffer(cells, dtype=f"V{width}")
    for blk in _walk(n, n * width):
        text = cells.take(table[blk]).view(np.uint8).reshape(-1, n, width)
        last = text[:, -1]
        last[last == ord(" ")] = ord("\n")
        text = text.ravel()
        yield text[text != 0].tobytes().decode("ascii")


def text_blocks(value):
    """The file text of `value` in pieces whose join is write_text(value);
    a table comes a block of rows at a time."""
    yield f"format {FORMAT_VERSION}\n"
    if isinstance(value, (PostLieRing, LieRingSC)):
        post = isinstance(value, PostLieRing)
        base = value.base if post else value
        s = base.shape
        lines = [("postlie " if post else "lie ") + str(s.p) + " " + " ".join(str(e) for e in s.exps)]
        sc = base.sc.tolist()
        products = [("bracket", i, j, sc) for i in range(s.rank) for j in range(i + 1, s.rank)]
        if post:
            tri = value.tri.tolist()
            products += [("triangle", i, j, tri) for i in range(s.rank) for j in range(s.rank)]
        for op, i, j, consts in products:
            if any(consts[i][j]):
                lines.append(f"{op} {i + 1} {j + 1} : " + " ".join(map(str, consts[i][j])))
        yield "".join(ln + "\n" for ln in lines)
    elif isinstance(value, SkewBrace):
        yield f"skewbrace {value.order}\ndot:\n"
        yield from _table_lines(value.dot.table)
        yield "circ:\n"
        yield from _table_lines(value.circ.table)
    elif isinstance(value, FinGroup):
        yield f"group {value.order} identity {value.identity}\n"
        yield from _table_lines(value.table)
    else:
        raise TypeError(f"cannot serialize {type(value)!r}")


def write_text(value) -> str:
    return "".join(text_blocks(value))
