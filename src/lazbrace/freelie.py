"""Free nilpotent Lie algebra on two generators over Q.

Provides the Lyndon-word basis with exact structure constants, group
arithmetic in the truncated free associative envelope, and two things
computed there: the Baker-Campbell-Hausdorff series log(exp x . exp y)
and the two inverse group words P, Q that recover x+y and [x,y] from the
BCH product.  exp, the group inverse and log are one truncated power
series with different coefficients.

Bracket trees are nested tuples whose leaves are 0 (first letter) and
1 (second letter).  Group-commutator words use the convention
[u, v] = u^-1 v^-1 u v; the derived exponents of P and Q are stated in
this convention and in the Lyndon orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .common import FailedTheoremError

__all__ = [
    "LyndonBasis",
    "get_basis",
    "FreeLieElem",
    "GroupWord",
    "bch_series",
    "bch_basis_terms",
    "bch_terms",
    "eval_tree",
    "fold_terms",
    "derive_inverse_words",
    "evaluate_group_word",
    "tree_word",
    "tree_degree",
    "render_tree",
    "parse_tree",
    "dump_tables",
    "load_tables",
    "MAX_BCH_CLASS",
    "MAX_WORD_CLASS",
]

MAX_BCH_CLASS = 8
MAX_WORD_CLASS = 6

Tree = object  # int leaf (0 or 1) or pair (left, right)


def tree_word(tree) -> tuple[int, ...]:
    if isinstance(tree, int):
        return (tree,)
    left, right = tree
    return tree_word(left) + tree_word(right)


def tree_degree(tree) -> int:
    return len(tree_word(tree))


def render_tree(tree, letters=("x", "y")) -> str:
    if isinstance(tree, int):
        return letters[tree]
    left, right = tree
    return f"[{render_tree(left, letters)},{render_tree(right, letters)}]"


def _expect(text: str, pos: int, ch: str) -> int:
    if not text.startswith(ch, pos):
        raise ValueError(f"expected {ch!r} at position {pos} of {text!r}")
    return pos + 1


def _parse_at(text: str, pos: int, letters) -> tuple:
    """The bracket word starting at text[pos], and the position after it."""
    if text.startswith("[", pos):
        left, pos = _parse_at(text, pos + 1, letters)
        right, pos = _parse_at(text, _expect(text, pos, ","), letters)
        return (left, right), _expect(text, pos, "]")
    for i, ch in enumerate(letters):
        if text.startswith(ch, pos):
            return i, pos + len(ch)
    raise ValueError(f"cannot parse bracket word at {text[pos:]!r}")


def parse_tree(text: str, letters=("x", "y")):
    out, pos = _parse_at(text, 0, letters)
    if pos != len(text):
        raise ValueError(f"trailing input in bracket word: {text[pos:]!r}")
    return out


def _lyndon_words(maxlen: int) -> list[tuple[int, ...]]:
    """All Lyndon words over {0,1} of length <= maxlen (Duval), sorted by (len, lex)."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < maxlen:
            w.append(w[len(w) - m])
        while w and w[-1] == 1:
            w.pop()
    return sorted(out, key=lambda u: (len(u), u))


class LyndonBasis:
    """Lyndon basis of the free Lie algebra on x < y, truncated at a class bound.

    Standard bracketing of a Lyndon word w = uv takes v as the longest
    proper Lyndon suffix.  Structure constants are computed through the
    free associative algebra and cached.
    """

    def __init__(self, class_bound: int):
        if not 1 <= class_bound <= MAX_BCH_CLASS:
            raise ValueError(f"class bound must be in 1..{MAX_BCH_CLASS}")
        self.c = class_bound
        self.words = [w for w in _lyndon_words(class_bound)]
        self.word_set = set(self.words)
        self.by_degree: dict[int, list[tuple[int, ...]]] = {}
        for w in self.words:
            self.by_degree.setdefault(len(w), []).append(w)
        self.tree = {w: self._bracketing(w) for w in self.words}
        self._expansion_cache: dict = {}
        self._sc_cache: dict = {}

    def dim(self, degree: int) -> int:
        return len(self.by_degree.get(degree, ()))

    def _bracketing(self, w: tuple[int, ...]):
        """The standard bracketing [u, v] of a Lyndon word w = uv, v its
        longest proper Lyndon suffix: every Lyndon word up to the class
        bound is in word_set, and the last letter of w is a Lyndon word, so
        the search finds v by i = len(w) - 1."""
        if len(w) == 1:
            return w[0]
        i = next(i for i in range(1, len(w)) if w[i:] in self.word_set)
        return (self._bracketing(w[:i]), self._bracketing(w[i:]))

    def expansion(self, tree) -> dict[tuple[int, ...], int]:
        """Expand a bracket tree into the free associative algebra (integer coeffs)."""
        if tree in self._expansion_cache:
            return self._expansion_cache[tree]
        if isinstance(tree, int):
            out = {(tree,): 1}
        else:
            left = self.expansion(tree[0])
            right = self.expansion(tree[1])
            out: dict[tuple[int, ...], int] = {}
            for w1, c1 in left.items():
                for w2, c2 in right.items():
                    out[w1 + w2] = out.get(w1 + w2, 0) + c1 * c2
                    out[w2 + w1] = out.get(w2 + w1, 0) - c1 * c2
            out = {w: c for w, c in out.items() if c}
        self._expansion_cache[tree] = out
        return out

    def project(self, poly: dict[tuple[int, ...], Fraction]) -> dict[tuple[int, ...], Fraction]:
        """Write an associative Lie polynomial in the Lyndon basis.

        Uses the triangularity of standard bracketings: the expansion of
        [w] is w plus lexicographically larger words of the same degree.
        Raises if the polynomial is not a Lie element.
        """
        out: dict[tuple[int, ...], Fraction] = {}
        by_deg: dict[int, dict] = {}
        for w, c in poly.items():
            if c:
                by_deg.setdefault(len(w), {})[w] = Fraction(c)
        for d, work in sorted(by_deg.items()):
            if d > self.c:
                continue
            while work:
                w = min(work)
                c = work[w]
                if w not in self.word_set:
                    raise ValueError(f"not a Lie element: leading word {w} is not Lyndon")
                out[w] = out.get(w, Fraction(0)) + c
                for u, cu in self.expansion(self.tree[w]).items():
                    nv = work.get(u, Fraction(0)) - c * cu
                    if nv:
                        work[u] = nv
                    else:
                        work.pop(u, None)
        return {w: c for w, c in out.items() if c}

    def sc(self, w1: tuple[int, ...], w2: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        """Bracket of two basis elements as a basis combination (integer in fact)."""
        if len(w1) + len(w2) > self.c:
            return {}
        if w1 == w2:
            return {}
        if w1 > w2:
            return {w: -c for w, c in self.sc(w2, w1).items()}
        key = (w1, w2)
        if key not in self._sc_cache:
            self._sc_cache[key] = self.project(self.expansion((self.tree[w1], self.tree[w2])))
        return self._sc_cache[key]

    def gen(self, letter: int) -> "FreeLieElem":
        return FreeLieElem(self, {(letter,): Fraction(1)})

    def elem_of_tree(self, tree) -> "FreeLieElem":
        """Evaluate an arbitrary bracket tree as a basis combination."""
        return FreeLieElem(self, self.project(
            {w: Fraction(c) for w, c in self.expansion(tree).items()}))

    def zero(self) -> "FreeLieElem":
        return FreeLieElem(self, {})


@lru_cache(maxsize=None)
def get_basis(class_bound: int) -> LyndonBasis:
    return LyndonBasis(class_bound)


class FreeLieElem:
    """Exact-rational element of the truncated free Lie algebra."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: LyndonBasis, coeffs: dict):
        self.basis = basis
        self.coeffs = {w: Fraction(c) for w, c in coeffs.items() if c}

    def __add__(self, other: "FreeLieElem") -> "FreeLieElem":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return FreeLieElem(self.basis, out)

    def __sub__(self, other: "FreeLieElem") -> "FreeLieElem":
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, Fraction(0)) - c
        return FreeLieElem(self.basis, out)

    def __neg__(self) -> "FreeLieElem":
        return FreeLieElem(self.basis, {w: -c for w, c in self.coeffs.items()})

    def scale(self, q) -> "FreeLieElem":
        q = Fraction(q)
        return FreeLieElem(self.basis, {w: q * c for w, c in self.coeffs.items()})

    def bracket(self, other: "FreeLieElem") -> "FreeLieElem":
        out: dict[tuple[int, ...], Fraction] = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                if len(w1) + len(w2) > self.basis.c:
                    continue
                for w, c in self.basis.sc(w1, w2).items():
                    out[w] = out.get(w, Fraction(0)) + c1 * c2 * c
        return FreeLieElem(self.basis, out)

    def degree_part(self, d: int) -> dict:
        return {w: c for w, c in self.coeffs.items() if len(w) == d}

    def coefficient(self, word: tuple[int, ...]) -> Fraction:
        return self.coeffs.get(tuple(word), Fraction(0))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeLieElem) and self.coeffs == other.coeffs


# ---------------------------------------------------------------------------
# The BCH series, log(exp x . exp y) in the free envelope below.


@lru_cache(maxsize=None)
def bch_series(class_bound: int) -> FreeLieElem:
    """BCH(x, y) = log(exp x . exp y), truncated at the class bound."""
    basis = get_basis(class_bound)
    return GroupSeries.exp(basis.gen(0)).mul(GroupSeries.exp(basis.gen(1))).log()


@lru_cache(maxsize=None)
def bch_basis_terms(class_bound: int) -> tuple:
    """BCH series as (degree, word, standard bracketing, coefficient), degree-sorted."""
    basis = get_basis(class_bound)
    series = bch_series(class_bound)
    out = []
    for w in sorted(series.coeffs, key=lambda u: (len(u), u)):
        out.append((len(w), w, basis.tree[w], series.coeffs[w]))
    return tuple(out)


# ---------------------------------------------------------------------------
# One evaluator of bracket trees and of (tree, coefficient) sums, for every
# structure the trees act in: a Lie ring, a group table, the semidirect sum
# L (+) End(L), and the free envelope below.


def eval_tree(tree, memo: dict, node):
    """Value of a bracket tree with leaves memo[0], memo[1], each inner node
    combined by node(left, right).

    Pass memo = {0: x, 1: y}; every subtree value is kept in it, so terms
    that share subtrees evaluate each of them once.
    """
    if tree not in memo:
        memo[tree] = node(eval_tree(tree[0], memo, node), eval_tree(tree[1], memo, node))
    return memo[tree]


def fold_terms(terms, x, y, node, step, acc):
    """Fold acc = step(acc, value, coeff) over (tree, coeff) terms, each tree
    evaluated at leaves x, y by eval_tree with the given node."""
    memo = {0: x, 1: y}
    for tree, coeff in terms:
        acc = step(acc, eval_tree(tree, memo, node), coeff)
    return acc


@lru_cache(maxsize=None)
def bch_terms(k: int) -> tuple:
    """(standard bracketing, coefficient) of the BCH series in degrees 1..k."""
    return tuple((tree, coeff) for deg, _word, tree, coeff in bch_basis_terms(max(k, 1)) if deg <= k)


# ---------------------------------------------------------------------------
# Group arithmetic in the truncated free associative envelope.


def _poly_mul(a: dict, b: dict, c: int) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) > c:
                continue
            w = w1 + w2
            out[w] = out.get(w, Fraction(0)) + c1 * c2
    return {w: v for w, v in out.items() if v}


def _power_series(z: dict, c: int, coeff) -> dict:
    """sum_k coeff(k) u^k, truncated above degree c, where u is z without
    its constant term.

    With coeff(k) = 1/k!, (-1)^k or (-1)^(k+1)/k (k > 0) this is exp(u),
    (1 + u)^-1 or log(1 + u).  u^k starts in degree k, so the sum stops
    after at most c powers.
    """
    z = {w: v for w, v in z.items() if w}
    out: dict[tuple[int, ...], Fraction] = {}
    power = {(): Fraction(1)}
    k = 0
    while power:
        a = coeff(k)
        for w, v in power.items():
            out[w] = out.get(w, Fraction(0)) + a * v
        k += 1
        power = _poly_mul(power, z, c)
    return {w: v for w, v in out.items() if v}


def _lie_to_poly(elem: FreeLieElem) -> dict:
    out: dict[tuple[int, ...], Fraction] = {}
    for w, c in elem.coeffs.items():
        for u, cu in elem.basis.expansion(elem.basis.tree[w]).items():
            out[u] = out.get(u, Fraction(0)) + c * cu
    return {w: v for w, v in out.items() if v}


class GroupSeries:
    """Group element 1 + (higher terms) of the truncated associative algebra."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: LyndonBasis, terms: dict):
        self.basis = basis
        self.terms = {w: Fraction(c) for w, c in terms.items() if c}
        if self.terms.get((), Fraction(0)) != 1:
            raise ValueError("group series must start at 1")

    @classmethod
    def exp(cls, elem: FreeLieElem) -> "GroupSeries":
        return cls(elem.basis, _power_series(_lie_to_poly(elem), elem.basis.c,
                                             lambda k: Fraction(1, math.factorial(k))))

    def mul(self, other: "GroupSeries") -> "GroupSeries":
        return GroupSeries(self.basis, _poly_mul(self.terms, other.terms, self.basis.c))

    def inv(self) -> "GroupSeries":
        return GroupSeries(self.basis, _power_series(self.terms, self.basis.c, lambda k: (-1) ** k))

    def log(self) -> FreeLieElem:
        return FreeLieElem(self.basis, self.basis.project(_power_series(
            self.terms, self.basis.c, lambda k: Fraction((-1) ** (k + 1), k) if k else 0)))

    def pow_rational(self, q) -> "GroupSeries":
        return GroupSeries.exp(self.log().scale(Fraction(q)))

    def commutator(self, other: "GroupSeries") -> "GroupSeries":
        # [u, v] = u^-1 v^-1 u v
        return self.inv().mul(other.inv()).mul(self).mul(other)


@dataclass(frozen=True)
class GroupWord:
    """Ordered product of (bracket word, rational exponent) group factors."""

    factors: tuple

    def __post_init__(self):
        degs = [tree_degree(t) for t, _ in self.factors]
        if degs != sorted(degs):
            raise ValueError("factors must come in non-decreasing degree")
        for (t, q), d in zip(self.factors, degs):
            if q == 0:
                raise ValueError("factor exponents must be nonzero")
            for prime in _prime_factors(Fraction(q).denominator):
                if prime > d:
                    raise ValueError("denominator prime exceeds factor degree")

    def truncated(self, degree: int) -> "GroupWord":
        return GroupWord(tuple((t, q) for t, q in self.factors if tree_degree(t) <= degree))


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def evaluate_group_word(word: GroupWord, class_bound: int,
                        first: FreeLieElem | None = None,
                        second: FreeLieElem | None = None) -> FreeLieElem:
    """BCH-log of the word evaluated at two Lie elements (defaults: x and y).

    Each bracket word becomes an iterated group commutator under the BCH
    product; rational exponents are BCH powers.
    """
    basis = get_basis(class_bound)
    g = GroupSeries.exp(first if first is not None else basis.gen(0))
    h = GroupSeries.exp(second if second is not None else basis.gen(1))
    acc = fold_terms(word.factors, g, h, GroupSeries.commutator,
                     lambda acc, base, q: acc.mul(base if q == 1 else base.pow_rational(q)),
                     GroupSeries(basis, {(): Fraction(1)}))
    return acc.log()


@lru_cache(maxsize=None)
def derive_inverse_words(class_bound: int) -> tuple[GroupWord, GroupWord]:
    """Derive the inverse words (P, Q) with BCH-logs x+y and [x,y] mod degree > c.

    Iterative peeling: at the lowest degree where the log of the product
    built so far differs from the target, append basis-bracket factors
    whose exponents are the discrepancy coefficients.
    """
    if not 1 <= class_bound <= MAX_WORD_CLASS:
        raise ValueError(f"class bound must be in 1..{MAX_WORD_CLASS}")
    basis = get_basis(class_bound)
    g = GroupSeries.exp(basis.gen(0))
    h = GroupSeries.exp(basis.gen(1))
    memo: dict = {0: g, 1: h}

    def peel(cur: GroupSeries, target: FreeLieElem, factors: list) -> GroupWord:
        for m in range(2, class_bound + 1):
            diff = (target - cur.log()).degree_part(m)
            for w in basis.by_degree[m]:
                q = diff.get(w)
                if q:
                    base = eval_tree(basis.tree[w], memo, GroupSeries.commutator)
                    cur = cur.mul(base.pow_rational(q))
                    factors.append((basis.tree[w], q))
        if cur.log() != target:
            raise FailedTheoremError("self-inversion failed")
        return GroupWord(tuple(factors))

    p_word = peel(g.mul(h), basis.gen(0) + basis.gen(1), [(0, Fraction(1)), (1, Fraction(1))])
    if class_bound >= 2:
        xy_tree = basis.tree[(0, 1)]
        q_word = peel(eval_tree(xy_tree, memo, GroupSeries.commutator),
                      basis.gen(0).bracket(basis.gen(1)),
                      [(xy_tree, Fraction(1))])
    else:
        q_word = GroupWord(())
    return p_word, q_word


# ---------------------------------------------------------------------------
# Versioned text tables for the BCH series and the inverse words.

_HEADER = "# lazbrace inverse-bch tables, format 1"


def dump_tables(class_bound: int) -> str:
    """Serialize BCH, P and Q at the given class bound, bit-exact text."""
    bch = bch_series(class_bound)
    p_word, q_word = derive_inverse_words(min(class_bound, MAX_WORD_CLASS))
    lines = [
        _HEADER,
        f"# class-bound {class_bound}",
        "# basis lyndon x<y standard-bracketing, commutator u^-1 v^-1 u v",
        "table BCH",
    ]
    basis = get_basis(class_bound)
    for w in sorted(bch.coeffs, key=lambda u: (len(u), u)):
        c = bch.coeffs[w]
        lines.append(f"{len(w)}\t{render_tree(basis.tree[w])}\t{c.numerator}/{c.denominator}")
    for name, word, letters in (("P", p_word, ("g", "h")), ("Q", q_word, ("g", "h"))):
        lines.append(f"table {name}")
        for t, q in word.factors:
            q = Fraction(q)
            lines.append(f"{tree_degree(t)}\t{render_tree(t, letters)}\t{q.numerator}/{q.denominator}")
    return "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _packaged_words() -> tuple[tuple[GroupWord, GroupWord], ...]:
    """(P, Q) truncated at each class bound 1, 2, ... that the packaged
    table reaches, up to MAX_WORD_CLASS: the table is read and parsed once
    per process.  A damaged table raises ValueError, and nothing is cached."""
    text = (resources.files("lazbrace") / "tables" / "inverse_words_c6.txt").read_text()
    c, _bch, p_word, q_word = load_tables(text)
    return tuple((p_word.truncated(k), q_word.truncated(k)) for k in range(1, min(c, MAX_WORD_CLASS) + 1))


def inverse_words(class_bound: int) -> tuple[GroupWord, GroupWord]:
    """P and Q truncated at the class bound, from the packaged table (so hot
    paths never re-derive); a damaged table raises ValueError."""
    if not 1 <= class_bound <= MAX_WORD_CLASS:
        raise ValueError(f"class bound must be in 1..{MAX_WORD_CLASS}")
    words = _packaged_words()
    if len(words) < class_bound:
        raise ValueError(f"packaged table stops at class {len(words)} < {class_bound}")
    return words[class_bound - 1]


inverse_words.cache_clear = _packaged_words.cache_clear  # its one cache, cleared by its public name


def load_tables(text: str) -> tuple[int, FreeLieElem, GroupWord, GroupWord]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValueError("missing or wrong table header")
    class_bound = None
    for ln in lines:
        if ln.startswith("# class-bound "):
            class_bound = int(ln.split()[-1])
    if class_bound is None:
        raise ValueError("missing class-bound line")
    basis = get_basis(class_bound)
    section = None
    bch_coeffs: dict = {}
    words: dict[str, list] = {"P": [], "Q": []}
    for ln in lines:
        if ln.startswith("#"):
            continue
        if ln.startswith("table "):
            section = ln.split()[1]
            continue
        deg_s, word_s, q_s = ln.split("\t")
        num, den = q_s.split("/")
        q = Fraction(int(num), int(den))
        if section == "BCH":
            tree = parse_tree(word_s, ("x", "y"))
            w = tree_word(tree)
            if len(w) != int(deg_s):
                raise ValueError(f"degree {deg_s} does not match the word in {ln!r}")
            bch_coeffs[w] = q
        elif section in ("P", "Q"):
            tree = parse_tree(word_s, ("g", "h"))
            if tree_degree(tree) != int(deg_s):
                raise ValueError(f"degree {deg_s} does not match the word in {ln!r}")
            words[section].append((tree, q))
        else:
            raise ValueError(f"line outside any table: {ln!r}")
    return (class_bound, FreeLieElem(basis, bch_coeffs),
            GroupWord(tuple(words["P"])), GroupWord(tuple(words["Q"])))
