"""Instance builders and desk-scale catalogs shared across the test suite.

The randomized Lie rings use an index-graded support rule (brackets of
g_i, g_j land in the span of strictly later generators, with nothing
mapping onto the last two slots' pairs) which makes the Jacobi identity
hold identically; verify_lie is still asserted on every instance.
"""

from __future__ import annotations

import random

import numpy as np

from lazbrace.common import FailedTheoremError
from lazbrace.liering import (CheckReport, Filtration, FinGroup, LieRingSC, LieRingTable, SeriesResult, left_mats,
                              table_to_sc, verify_group_table, verify_lie)
from lazbrace.modarith import Endo, ModArithError, PShape, PVec
from lazbrace.postlie import PostLieRing, verify_post_lie
from lazbrace.skewbrace import SkewBrace, _brace_from_lambda, _lambda_backtrack, aut_plus, enumerate_braces


def shape_group(shape: PShape) -> FinGroup:
    co = shape.all_coords()
    return FinGroup(shape.index_batch(co[:, None, :] + co[None, :, :]), 0)


def abelian(p, exps) -> LieRingSC:
    return LieRingSC.from_brackets(PShape(p, tuple(exps)), {})


def heisenberg(p, exps=(1, 1, 1)) -> LieRingSC:
    shape = PShape(p, tuple(exps))
    r = shape.rank
    last = [0] * r
    last[-1] = 1
    return LieRingSC.from_brackets(shape, {(0, 1): tuple(last)})


def class2_r4(p) -> LieRingSC:
    s = PShape(p, (1, 1, 1, 1))
    return LieRingSC.from_brackets(s, {(0, 1): (0, 0, 0, 1)})


def class3_chain(p) -> LieRingSC:
    # [g1,g2] = g3, [g1,g3] = g4: class 3, needs p >= 5
    s = PShape(p, (1, 1, 1, 1))
    return LieRingSC.from_brackets(s, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})


def filiform(p, e, top) -> LieRingSC:
    # [g1, gi] = g(i+1) for 2 <= i <= top on (p; 1^e): class top
    return LieRingSC.from_brackets(PShape(p, (1,) * e), {(0, i): tuple(int(j == i + 1) for j in range(e))
                                                         for i in range(1, top)})


def _graded_coords(shape: PShape, i, j, support, rng) -> tuple[int, ...]:
    # random element of <g_k : k in support>, killed by p^min(e_i, e_j)
    out = [0] * shape.rank
    kill = min(shape.exps[i], shape.exps[j])
    for k in support:
        gap = max(0, shape.exps[k] - kill)
        step = shape.p ** gap
        out[k] = step * rng.randrange(0, shape.p ** (shape.exps[k] - gap))
    return tuple(out)


def random_graded(p, exps, seed, class_cap: int | None = None) -> LieRingSC:
    """Random nilpotent Lie ring: [g_i, g_j] supported on strictly later
    generators, which makes Jacobi hold identically for rank <= 4.

    With class_cap = 2 the support shrinks to the last generator alone,
    forcing class <= 2 (needed at p = 3 where class 3 is not Lazard).
    """
    shape = PShape(p, tuple(exps))
    rng = random.Random(seed)
    r = shape.rank
    assert r <= 4
    brackets = {}
    for i in range(r):
        for j in range(i + 1, r):
            if class_cap == 2:
                support = [r - 1] if j < r - 1 else []
            else:
                support = list(range(max(i, j) + 1, r))
            if support:
                brackets[(i, j)] = _graded_coords(shape, i, j, support, rng)
    L = LieRingSC.from_brackets(shape, brackets)
    assert verify_lie(L).ok
    return L


def lie_catalog() -> list[tuple[str, LieRingSC]]:
    out: list[tuple[str, LieRingSC]] = []
    abelian_shapes = [(1,), (2,), (1, 1), (2, 1), (3,), (1, 1, 1), (2, 2), (4,), (2, 1, 1), (1, 1, 1, 1)]
    for p in (3, 5, 7):
        for exps in abelian_shapes:
            out.append((f"abelian_p{p}_{exps}", abelian(p, exps)))
        out.append((f"heis_p{p}", heisenberg(p)))
        out.append((f"heis_mixed_p{p}", heisenberg(p, (2, 1, 1))))
        out.append((f"class2r4_p{p}", class2_r4(p)))
        if p >= 5:
            out.append((f"class3_p{p}", class3_chain(p)))
        cap = 2 if p == 3 else None
        for seed in (11, 12):
            out.append((f"rnd3_p{p}_s{seed}", random_graded(p, (1, 1, 1), seed, cap)))
        if p <= 5:
            out.append((f"rnd3m_p{p}", random_graded(p, (2, 1, 1), 21, cap)))
            out.append((f"rnd4_p{p}", random_graded(p, (1, 1, 1, 1), 31, cap)))
    assert len(out) >= 50
    return out


def prelie_radical(p, e) -> PostLieRing:
    """The ideal pZ/p^(e+1)Z as a pre-Lie ring under the ring product;
    carrier coordinate u stands for the ring element p*u."""
    shape = PShape(p, (e,))
    base = LieRingSC.from_brackets(shape, {})
    return PostLieRing.from_products(base, {(0, 0): (p,)})


def prelie_selfsquare(p) -> PostLieRing:
    # g1 > g1 = g2 on the abelian (p;[1,1])
    base = abelian(p, (1, 1))
    return PostLieRing.from_products(base, {(0, 0): (0, 1)})


def prelie_antisym(p) -> PostLieRing:
    # square-free: a > b = (a1 b2 - a2 b1) g3 on the abelian (p;[1,1,1])
    base = abelian(p, (1, 1, 1))
    return PostLieRing.from_products(base, {(0, 1): (0, 0, 1), (1, 0): (0, 0, -1)})


def postlie_heis_form(p) -> PostLieRing:
    # Heisenberg base, a > b = a1 b1 g3
    return PostLieRing.from_products(heisenberg(p), {(0, 0): (0, 0, 1)})


def postlie_heis_negbracket(p) -> PostLieRing:
    H = heisenberg(p)
    return PostLieRing(H, (-H.sc) % p)


def prelie_product_radical(p) -> PostLieRing:
    # direct sum of two radical lines on (p;[2,2])
    base = abelian(p, (2, 2))
    return PostLieRing.from_products(base, {(0, 0): (p, 0), (1, 1): (0, p)})


def zero_triangle(L: LieRingSC) -> PostLieRing:
    r = L.shape.rank
    return PostLieRing(L, np.zeros((r, r, r), dtype=np.int64))


def postlie_catalog(max_order: int = 700) -> list[tuple[str, PostLieRing]]:
    """Lazard post-Lie instances, both directions of the correspondence
    affordable at every order (hence the size cap)."""
    out: list[tuple[str, PostLieRing]] = []
    for p in (3, 5, 7):
        cap = 2 if p == 3 else None
        for exps in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (2, 2), (3,)]:
            out.append((f"zero_ab_p{p}_{exps}", zero_triangle(abelian(p, exps))))
        out.append((f"zero_heis_p{p}", zero_triangle(heisenberg(p))))
        out.append((f"zero_c2r4_p{p}", zero_triangle(class2_r4(p))))
        out.append((f"selfsq_p{p}", prelie_selfsquare(p)))
        out.append((f"antisym_p{p}", prelie_antisym(p)))
        out.append((f"heisform_p{p}", postlie_heis_form(p)))
        out.append((f"heisneg_p{p}", postlie_heis_negbracket(p)))
        out.append((f"prodrad_p{p}", prelie_product_radical(p)))
        out.append((f"radical_p{p}e2", prelie_radical(p, 2)))
        for seed in (41, 42):
            out.append((f"zero_rnd3_p{p}_s{seed}",
                        zero_triangle(random_graded(p, (1, 1, 1), seed, cap))))
        if p >= 5:
            out.append((f"radical_p{p}e3", prelie_radical(p, 3)))
        if p == 5:
            out.append((f"zero_class3_p{p}", zero_triangle(class3_chain(p))))
    out = [(name, P) for name, P in out if P.shape.order <= max_order]
    for name, P in out:
        assert verify_post_lie(P).ok, name
    assert len(out) >= 50
    return out


def order9_braces() -> list[tuple[str, SkewBrace]]:
    out = []
    for exps in ((2,), (1, 1)):
        A = shape_group(PShape(3, exps))
        for i, B in enumerate(enumerate_braces(A)):
            out.append((f"b9_{exps}_{i}", B))
    return out


def modular16() -> FinGroup:
    """The modular group M16 = Z/8 x| Z/2 with b a b^-1 = a^5, the element
    a^i b^j at index i + 8 j: a^i b^j a^k b^l = a^(i + 5^j k) b^(j + l).
    Its skew braces need the conjugation steps of the brace series."""
    i, j = np.arange(16) % 8, np.arange(16) // 8
    table = (i[:, None] + 5 ** j[:, None] * i[None, :]) % 8 + 8 * ((j[:, None] + j[None, :]) % 2)
    return FinGroup(table, 0)


def radical_brace(p, e) -> SkewBrace:
    """a o b = a + ab + b on the ideal pZ/p^(e+1)Z, built straight from the
    ring arithmetic (independently of the flow construction)."""
    n = p ** e
    u = np.arange(n)
    dot = FinGroup(np.add.outer(u, u) % n, 0)
    circ = FinGroup((u[:, None] + u[None, :] + p * u[:, None] * u[None, :]) % n, 0)
    return SkewBrace(dot, circ)


def nonassociative_loop(p) -> np.ndarray:
    """x y = x + y + (0, x0 y0^2) on (Z/p)^2, x = x0 + p x1: a Latin square
    with identity 0, not associative for p > 2, generated by x = 1 alone."""
    u = np.arange(p * p)
    x0, x1 = u % p, u // p
    return (x0[:, None] + x0) % p + p * ((x1[:, None] + x1 + x0[:, None] * x0 ** 2) % p)


def twisted_sum(p) -> SkewBrace:
    """(Z/p)^2 with a o b = a + b + (0, g(a_x + b_x) - g(a_x) - g(b_x)) for
    g(x) = x^3: a group and L-nilpotent of class 2, but lambda_a(b) =
    b + (0, 3 a_x b_x (a_x + b_x)) is not additive in b, so not a brace."""
    u = np.arange(p * p)
    x, y = u % p, u // p
    f = ((x[:, None] + x[None, :]) ** 3 - x[:, None] ** 3 - x[None, :] ** 3) % p
    xs = (x[:, None] + x[None, :]) % p
    dot = xs + p * ((y[:, None] + y[None, :]) % p)
    circ = xs + p * ((y[:, None] + y[None, :] + f) % p)
    return SkewBrace(FinGroup(dot, 0), FinGroup(circ, 0))


# ---------------------------------------------------------------------------
# Helpers that only the tests use: a table-form Lie ring check, the adjoint
# map, the trivial brace, |Hol(A)^+|, and the lambda-search enumeration.


def verify_lie_table(T: LieRingTable) -> CheckReport:
    """Abelian p-group addition, antisymmetric biadditive bracket, Jacobi."""
    failures = []
    add_rep = verify_group_table(T.add)
    if not add_rep.ok:
        return CheckReport(False, tuple("addition: " + f for f in add_rep.failures))
    if not np.array_equal(T.add, T.add.T):
        failures.append("addition is not abelian")
    G = T.add_group()
    neg = G.inv
    if not np.array_equal(T.bracket.T, neg[T.bracket]):
        failures.append("bracket is not antisymmetric")
    if failures:
        return CheckReport(False, tuple(failures))
    try:
        L, basis = table_to_sc(T)
    except (ModArithError, FailedTheoremError) as exc:
        return CheckReport(False, (str(exc),))
    rep = verify_lie(L)
    if not rep.ok:
        failures.extend(rep.failures)
    return CheckReport(not failures, tuple(failures))


def ad_endo(L: LieRingSC, a: PVec) -> Endo:
    """The adjoint map b -> [a, b] as an additive endomorphism."""
    return Endo(L.shape, left_mats(L.shape, L.sc, a.np()))


def trivial_brace(G: FinGroup) -> SkewBrace:
    return SkewBrace(G, G)


def holomorph_plus_order(A: FinGroup, F: Filtration) -> int:
    """|Hol(A)^+| = |A| * |Aut(A)_1| for the given filtration."""
    return A.order * len(aut_plus(A, F))


def regular_lambda_search(A: FinGroup, F: Filtration) -> list[SkewBrace]:
    """Braces filtered by F, by direct search over lambda: A -> Aut(A)_1."""
    auts = aut_plus(A, F)
    out = []
    seen = set()
    for rows in _lambda_backtrack(A, auts):
        key = rows.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(_brace_from_lambda(A, rows))
    return out


# ---------------------------------------------------------------------------
# Whole-table forms for oracles, independent of the library's block walk
# (modarith._walk), so that a fault in the walk cannot hide in an oracle.


def row_blocks(m: int, n: int, chunk: int = 1 << 18):
    """Slices covering range(m), each a block of rows of an (m, n) table
    of about `chunk` entries."""
    step = max(1, chunk // max(1, n))
    return (slice(start, min(m, start + step)) for start in range(0, m, step))


def require_none(bad: np.ndarray, what: str, exc=FailedTheoremError, rows=None, cols=None) -> None:
    """Raise exc(what) naming the first (a, b) where the whole mask bad
    holds; a is the row, or rows[row] when the rows stand for the elements
    `rows`, and b likewise the column or cols[column]."""
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise exc(f"{what} at (a,b)=({int(x if rows is None else rows[x])},{int(y if cols is None else cols[y])})")


# ---------------------------------------------------------------------------
# Whole-set product oracles: every product over A x B as a Python set, as
# the series and filtration builders once took them.


def _index_set(op, A, B) -> set[int]:
    """{op(a, b) : a in A, b in B} for an elementwise op on index arrays:
    one scatter (bincount) per block of rows, one set at the end."""
    ai = np.fromiter(A, dtype=np.int64)
    bi = np.fromiter(B, dtype=np.int64)
    hits = np.zeros(0, dtype=np.int64)
    for rows in row_blocks(len(ai), len(bi)):
        block = np.bincount(op(ai[rows, None], bi[None, :]).ravel(), minlength=hits.size)
        block[:hits.size] += hits
        hits = block
    return set(np.flatnonzero(hits).tolist())


def _on_indices(shape: PShape, op):
    """A biadditive op on coordinate arrays, as an op on element indices."""
    return lambda x, y: shape.index_batch(op(shape.coords_batch(x), shape.coords_batch(y)))


def _bracket_set(L: LieRingSC, A, B) -> set[int]:
    """{index([a,b]) : a in A, b in B}."""
    return _index_set(_on_indices(L.shape, L.bracket_batch), A, B)


def _tri_set(P: PostLieRing, A, B) -> set[int]:
    """{index(a > b) : a in A, b in B}."""
    return _index_set(_on_indices(P.shape, P.tri_batch), A, B)


def lam_table(B: SkewBrace) -> np.ndarray:
    """The n x n lambda table lam[a, b] = lambda_a(b) = a^-1 . (a o b), by
    its definition, in the dtype of the tables: the library holds lambda
    only as rows, built where they are read."""
    return B.dot.table[B.dot.inv[:, None], B.circ.table]


def _star_set(B: SkewBrace, A, C) -> set[int]:
    """{a*c : a in A, c in C}, a*c = lambda_a(c) c^-1 by its definition."""
    lam = lam_table(B)
    return _index_set(lambda x, y: B.dot.table[lam[x, y], B.dot.inv[y]], A, C)


def _comm_set(G: FinGroup, A, B) -> set[int]:
    """{[a, b] : a in A, b in B}, dot commutators."""
    return _index_set(G.comm_batch, A, B)


# ---------------------------------------------------------------------------
# Subsets as sets and as the boolean masks the library works on, and the
# series loop on sets that the library once ran.


def mask(n: int, members) -> np.ndarray:
    """The boolean mask over 0..n-1 of a set of element indices."""
    inside = np.zeros(n, dtype=bool)
    inside[list(members)] = True
    return inside


def sets(masks) -> list[frozenset]:
    """The member sets of the rows of a stack of boolean masks."""
    return [frozenset(np.flatnonzero(m).tolist()) for m in masks]


def descending_series(full: frozenset, next_term) -> SeriesResult:
    """X_1 = full, X_(i+1) = next_term(X_i), until a trivial or a repeated term."""
    terms = [full]
    while len(terms[-1]) > 1:
        new = next_term(terms[-1])
        if new == terms[-1]:
            return SeriesResult(tuple(terms), None)
        terms.append(new)
    return SeriesResult(tuple(terms), len(terms) - 1)
