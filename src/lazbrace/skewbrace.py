"""Skew braces on finite p-groups.

Two compatible Cayley tables on one carrier, the lambda and star maps,
L-series and nilpotency predicates, fix/socle/annihilator, ideal
classification, power-set ideals, the filtered holomorph, and brace
enumeration: one lambda backtrack (a lambda map is a regular subgroup of
the holomorph) over two sets of automorphisms, all of Aut(A), and Aut(A)_1
for each descending chain (the regular subgroups of Hol^+).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .common import CapExceededError, FailedTheoremError, IdealLevel
from .liering import (
    CheckReport,
    Filtration,
    FinGroup,
    SeriesResult,
    canonical_group_filtration,
    descending_series,
    group_closure,
    validate_group_filtration,
    verify_group_table,
    _conjugations,
    _group_gens,
    _hom_failure,
    _indices,
    _invariant_closure,
    _lazard_filtration,
    _levels,
    _nilpotent,
    _row_masks,
    _schreier,
    _substructure_sets,
)
from .modarith import _CHUNK, ModArithError, _mask, _walk, prime_power

__all__ = [
    "SkewBrace",
    "verify_skew_brace",
    "lambda_and_star",
    "l_series_brace",
    "left_series_brace",
    "right_series_brace",
    "nilpotency_decomposition_brace",
    "circ_nilpotency_bound",
    "substructures_brace",
    "ideal_type_brace",
    "classify_subset_brace",
    "power_set_ideals",
    "strong_series_brace",
    "minimal_generators",
    "automorphisms",
    "aut_plus",
    "holomorph_plus",
    "adjoint_group_filtration",
    "regular_subgroups",
    "all_group_chains",
    "enumerate_braces",
    "enumerate_braces_via_chains",
    "isomorphism_classes",
]

_SOFT_CAP = 125  # |A| cap for enumeration, per the desk-scale contract


def _check_soft_cap(order: int) -> None:
    if order > _SOFT_CAP:
        raise CapExceededError(f"|A| = {order} exceeds the soft cap {_SOFT_CAP}")


@dataclass(frozen=True)
class SkewBrace:
    """Two group tables on the same carrier satisfying the brace compatibility."""

    dot: FinGroup
    circ: FinGroup

    def __post_init__(self):
        if self.dot.order != self.circ.order:
            raise ModArithError("dot and circ must share the carrier")

    @property
    def order(self) -> int:
        return self.dot.order

    @property
    def p(self) -> int:
        return prime_power(self.order)[0]

    def _lam_rows(self, A, cols=None) -> np.ndarray:
        """The rows lambda_a(b) = a^-1 . (a o b), dot[a^-1][circ[a]], for an
        index array or a slice A (or their columns cols), built per call."""
        circ = self.circ.table[A] if cols is None else self.circ.table[A][:, cols]  # a slice copies no rows
        return self.dot.table[self.dot.inv[A][:, None], circ]

    @cached_property
    def _circ_lam(self) -> np.ndarray:
        """The rows lambda_g for the circ generators g (circ.gens)."""
        return self._lam_rows(list(self.circ.gens))

    @cached_property
    def _invariance_maps(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the maps a substructure level asks a subset to be
        invariant under, stacked level by level, and where each level's
        rows start and end: lambda_g for the circ generators g, and
        conjugation by the dot and by the circ generators."""
        maps = (self._circ_lam, _conjugations(self.dot, self.dot.gens), _conjugations(self.circ, self.circ.gens))
        return np.concatenate(maps), np.cumsum([0] + [len(f) for f in maps])

    @cached_property
    def verdict(self) -> CheckReport:
        """verify_skew_brace(self), computed once per brace and cached.

        Exact: the FinGroup tables are read-only, so the verdict on a brace
        cannot change once computed."""
        return verify_skew_brace(self)

    @cached_property
    def l_series(self) -> SeriesResult:
        """l_series_brace(self), computed once per brace and cached.

        L^(i+1) is the normal closure in (A, .) of g*h for circ generators
        g and [g', h] for dot generators g', with h over generators of L^i;
        g*h = lambda_g(h) h^-1 is read from the rows _circ_lam.
        This is exact: L^(i+1) lies in L^i and holds [A, L^i], so it is
        normal; the rest is the proof of left_series_brace, with N normal,
        and for the commutators as for groups (Robinson, 5.1.7).
        """
        dot = self.dot
        dg = np.asarray(dot.gens, dtype=np.int64)
        lam = self._circ_lam
        maps = _conjugations(dot, dg)

        def next_term(cur: np.ndarray) -> np.ndarray:
            h = np.asarray(_group_gens(dot, cur), dtype=np.int64)
            return _invariant_closure(dot, np.concatenate(
                [dot.table[lam[:, h], dot.inv[h]].ravel(), dot.comm_batch(dg[:, None], h).ravel()]), maps)

        return descending_series(self.order, next_term)

    @property
    def is_brace(self) -> bool:
        """Whether dot equals its transpose, by mirrored blocks (_walk)."""
        dot = self.dot.table
        return _walk(self.order, self.order, lambda I, J: dot[I, J] != dot[J, I].T, mirror=True)[0] is None

    def __eq__(self, other):
        return (
            isinstance(other, SkewBrace)
            and self.dot == other.dot
            and self.circ == other.circ
        )


def _compatibility_failure(B: SkewBrace) -> tuple[int, int, int] | None:
    """The first (a, b, c) with lambda_a(b c) != lambda_a(b) lambda_a(c),
    for circ generators a and dot generators b, from the rows lambda_a =
    dot[a^-1][circ[a]] (_hom_failure); None when there is none.

    Exact once both tables are groups with one identity, so that each
    lambda_a fixes it.  Compatibility at a says that lambda_a is in End(A, .),
    and dot generators b prove that for each a (_hom_failure).  The a with
    lambda_a in End(A, .) form a submonoid of (A, o): compatibility at a
    with b = a' and c = a'^-1 gives a o a'^-1 = a (a o a')^-1 a, and so, for
    a and a' in it, (a o a') o (b c) = a o ((a' o b) a'^-1 (a' o c)) =
    ((a o a') o b) (a o a')^-1 ((a o a') o c).  So circ generators a suffice.
    """
    dot, cg, dg = B.dot.table, list(B.circ.gens), list(B.dot.gens)
    lam = B._circ_lam
    bad = _hom_failure(lam, dot[dg], dot[lam[:, dg]])
    return None if bad is None else (cg[bad[0]], dg[bad[1]], bad[2])


def verify_skew_brace(B: SkewBrace) -> CheckReport:
    """Group checks plus a o (b . c) = (a o b) . a^-1 . (a o c), all exact:
    the compatibility on circ generators a and dot generators b
    (_compatibility_failure), once both tables are groups with one
    identity."""
    failures = []
    for name, G in (("dot", B.dot), ("circ", B.circ)):
        rep = verify_group_table(G)
        if not rep.ok:
            failures.extend(f"{name}: {f}" for f in rep.failures)
    if B.dot.identity != B.circ.identity:
        failures.append("identities differ")
    if failures:
        return CheckReport(False, tuple(failures))
    bad = _compatibility_failure(B)
    if bad is not None:
        failures.append("compatibility fails at (a,b,c)=({},{},{})".format(*bad))
    return CheckReport(not failures, tuple(failures))


def lambda_and_star(B: SkewBrace) -> tuple[np.ndarray, np.ndarray]:
    """The lambda and star tables, built per call by _walk blocks (star from
    lambda), with compatibility checked on generators (_compatibility_failure),
    which is exact once both group tables are (verify_skew_brace).  B is then
    a skew brace, so each lambda_a is an automorphism of dot and lambda:
    (A, o) -> Aut(A, .) is a homomorphism (Guarnieri & Vendramin, 2017)."""
    bad = _compatibility_failure(B)
    if bad is not None:
        raise FailedTheoremError(f"lambda_{bad[0]} is not an automorphism of dot")
    lam, star = np.empty_like(B.circ.table), np.empty_like(B.circ.table)
    for blk in _walk(B.order, B.order):
        lam[blk] = B._lam_rows(blk)
        star[blk] = B.dot.table[lam[blk], B.dot.inv]
    return lam, star


def _star(B: SkewBrace, A, H) -> np.ndarray:
    """a*h = lambda_a(h) h^-1 = a^-1 (a o h) h^-1 on broadcast index arrays A and H."""
    return B.dot.table[B.dot.table[B.dot.inv[A], B.circ.table[A, H]], B.dot.inv[H]]


def l_series_brace(B: SkewBrace) -> SeriesResult:
    """L^1 = A, L^(i+1) = <a*b and dot-commutators [a,b] : a in A, b in L^i>,
    built as an invariant closure of generator seeds (SkewBrace.l_series)."""
    return B.l_series


def left_series_brace(B: SkewBrace) -> SeriesResult:
    """A^1 = A, A^(i+1) = <a*b : a in A, b in A^i>: the closure of g*h, for
    circ generators g of A and dot generators h of A^i, under conjugation
    by the h.  Exact by b (a*c) b^-1 = (a*b)^-1 (a*(bc)): conjugation by A^i
    keeps A^(i+1), which so holds the closure N, and the x in A^i with g*x
    in N form a subgroup, so all of A^i; and by
    (a o a')*x = (a*(a'*x)) (a'*x) (a*x): the a with a*A^i inside N form a
    submonoid of (A, o) holding the circ generators, so all of A.
    """
    dot = B.dot
    cg = np.asarray(B.circ.gens, dtype=np.int64)

    def next_term(cur: np.ndarray) -> np.ndarray:
        h = np.asarray(_group_gens(dot, cur), dtype=np.int64)
        return _invariant_closure(dot, _star(B, cg[:, None], h), _conjugations(dot, h))

    return descending_series(B.order, next_term)


def right_series_brace(B: SkewBrace) -> SeriesResult:
    """A_1 = A, A_(i+1) = <a*b : a in A_i, b in A>: the normal closure in
    (A, .) of a*g, for the members a of A_i and the dot generators g of A.
    Exact by b (a*c) b^-1 = (a*b)^-1 (a*(bc)): A_(i+1) is normal, so it
    holds the closure N, and the x with a*x in N form a subgroup, so all of A.
    """
    dot = B.dot
    dg = np.asarray(dot.gens, dtype=np.int64)
    conj = _conjugations(dot, dg)
    return descending_series(B.order, lambda cur: _invariant_closure(
        dot, _star(B, np.flatnonzero(cur)[:, None], dg), conj))


def nilpotency_decomposition_brace(B: SkewBrace) -> tuple[bool, bool, bool]:
    left = left_series_brace(B).is_nilpotent
    dotnil = canonical_group_filtration(B.dot).is_nilpotent
    lnil = l_series_brace(B).is_nilpotent
    if lnil != (left and dotnil):
        raise FailedTheoremError("brace L-nilpotency equivalence violated")
    return left, dotnil, lnil


def circ_nilpotency_bound(B: SkewBrace) -> tuple[int, int]:
    """Returns (L-class k, class of (A, o)); asserts class <= k and
    gamma^k(A, o) contained in Ann(A)."""
    k = _nilpotent(l_series_brace(B), "skew brace", l_series=True).nilpotency_class
    circ_ser = canonical_group_filtration(B.circ)
    if not circ_ser.is_nilpotent or circ_ser.nilpotency_class > k:
        raise FailedTheoremError("circ group class exceeds the L-class bound")
    if k >= 1:
        _fix, _soc, ann = substructures_brace(B)
        if not circ_ser.filtration.term(k) <= ann:
            raise FailedTheoremError("gamma^k of the circ group escapes the annihilator")
    return k, circ_ser.nilpotency_class


def substructures_brace(B: SkewBrace) -> tuple[frozenset, frozenset, frozenset]:
    """(Fix, Soc, Ann); verifies Fix is a left ideal and Soc, Ann are ideals,
    in one batch of three rows (_classify_bits_brace).  Each mask is reduced
    a _walk block, or mirrored pair, at a time."""
    dot, circ, n = B.dot.table, B.circ.table, B.order
    fix_mask, soc_mask, ann_mask = np.ones(n, dtype=bool), np.empty(n, dtype=bool), np.ones(n, dtype=bool)
    for blk in _walk(n, n):
        same = circ[blk] == dot[blk]
        fix_mask &= same.all(axis=0)
        soc_mask[blk] = same.all(axis=1)

    def symmetric_rows(I, J):  # rows I see the block, rows J its mirror
        for table, mask in ((dot, soc_mask), (circ, ann_mask)):
            same = table[I, J] == table[J, I].T
            mask[I] &= same.all(axis=1)
            mask[J] &= same.all(axis=0)

    _walk(n, n, symmetric_rows, mirror=True)
    ann_mask &= soc_mask & fix_mask
    masks = np.stack([fix_mask, soc_mask, ann_mask])
    return _substructure_sets(masks, _classify_bits_brace(B, masks))


def classify_subset_brace(B: SkewBrace, members: frozenset) -> IdealLevel:
    """Strongest substructure level of an explicit subset (no closure taken):
    the one-row case of _classify_bits_brace."""
    return IdealLevel(int(_classify_bits_brace(B, _row_masks(B.order, _indices(members)[None, :]))[0]))


def _bit_rows(masks: np.ndarray) -> np.ndarray:
    """The (n, w) bit rows of k subsets given as (k, n) masks, w = ceil(k / 64)
    uint64 words: bit j % 8 of byte j // 8 of row x is set when x is in
    subset j.  Only bitwise operations read the words, so the machine's
    byte order does not matter."""
    packed = np.zeros((masks.shape[1], -(-len(masks) // 64) * 8), dtype=np.uint8)
    packed[:, :-(-len(masks) // 8)] = np.packbits(masks, axis=0, bitorder="little").T
    return packed.view(np.uint64)


def _all_rows(x: np.ndarray) -> np.ndarray:
    """The AND of the rows x[j] of a word array with at least one row, folded
    in place by halves, which are disjoint ranges: a few passes over x,
    where a ufunc reduce with a short inner axis is much slower."""
    m = len(x)
    while m > 1:
        h = m // 2
        x[:h] &= x[m - h:m]
        m -= h
    return x[0]


def _classify_bits_brace(B: SkewBrace, masks: np.ndarray) -> np.ndarray:
    """IdealLevel values of k subsets of any sizes, given as (k, n) masks.

    The subsets are bit rows (_bit_rows), so each test is one AND over the
    members x of the union U of the subsets, for all k at once (bits(x) = 0
    off U).  A subset is closed under a product when ~bits(a) | AND_b
    (bits(a b) | ~bits(b)) is set over the pairs a, b of U, read a _walk
    block of rows a at a time with one gather of all words, and invariant
    under a map f when AND_x bits(f(x)) | ~bits(x) is: the complements of
    bits(a) & OR_b bits(b) & ~bits(a b) and OR_x bits(x) & ~bits(f(x)).

    Closure under dot and circ is so checked on all pairs of members.  The
    other levels are invariance under lambda_g and under conjugation by the
    dot and by the circ generators g (SkewBrace._invariance_maps), which is
    exact because each test asks that a subgroup of A fix H: lambda is a
    homomorphism (A, o) -> Aut(A, .), so the a with lambda_a(H) = H form a
    subgroup of (A, o), and circ generators suffice; the normaliser of H in
    (A, .) or in (A, o) is a subgroup, so dot or circ generators suffice.
    """
    k = len(masks)
    bits = _bit_rows(masks)
    U = np.flatnonzero(masks.any(axis=0))
    if not len(U):  # only empty subsets, which miss the identity
        return np.zeros(k, dtype=np.int64)
    outside, w = ~bits[U], bits.shape[1]

    def into(images):  # AND over x in U of bits(images[:, x]) | ~bits(x): the S with images[i](S) in S
        found = np.take(bits, images.T, axis=0)  # (|U|, len(images), w)
        found |= outside[:, None]
        return _all_rows(found)

    # a block holds at most 64 KiB of words, and so reuses the heap rather
    # than raising the peak RSS, or 8 rows where a row holds more
    width = min(32 * len(U) * w, _CHUNK // 8)
    closed = bits[B.dot.identity].copy()
    for blk in _walk(len(U), width):
        for table in (B.dot.table, B.circ.table):
            closed &= np.bitwise_and.reduce(into(table[U[blk]][:, U]) | outside[blk], axis=0)
    maps, cuts = B._invariance_maps
    fixed = np.empty((len(maps), w), dtype=bits.dtype)  # the subsets each map keeps
    for blk in _walk(len(maps), width):
        fixed[blk] = into(maps[blk][:, U])
    tests = [closed] + [np.bitwise_and.reduce(fixed[a:b], axis=0) for a, b in zip(cuts, cuts[1:])]
    return _levels(np.unpackbits(np.stack(tests).view(np.uint8), axis=1, bitorder="little")[:, :k].astype(bool))


def ideal_type_brace(B: SkewBrace, gens) -> IdealLevel:
    return classify_subset_brace(B, group_closure(B.dot, gens))


def power_set_ideals(B: SkewBrace, n: int) -> dict:
    """Power images {a^n}, {a^(o n)} and torsion sets; asserts the theorem-level
    equalities and that each is an ideal.  Requires a Lazard brace."""
    _lazard_filtration(lambda: l_series_brace(B), B.order, "skew brace", l_series=True)
    allidx = np.arange(B.order, dtype=np.int64)
    # rows: the dot and the circ side
    pows = np.stack([B.dot.power_batch(allidx, n), B.circ.power_batch(allidx, n)])
    powers = _row_masks(B.order, pows)
    torsion = pows == np.array([[B.dot.identity], [B.circ.identity]])
    if not np.array_equal(*powers):
        raise FailedTheoremError(f"power images differ for n={n}")
    if not np.array_equal(*torsion):
        raise FailedTheoremError(f"torsion sets differ for n={n}")
    masks = np.stack([powers[0], torsion[0]])
    for name, level in zip(("powers", "torsion"), _classify_bits_brace(B, masks)):
        if level < IdealLevel.IDEAL:
            raise FailedTheoremError(f"{name} set is not an ideal for n={n}")
    return {name: frozenset(np.flatnonzero(mask).tolist()) for name, mask in zip(("powers", "torsion"), masks)}


def strong_series_brace(B: SkewBrace, cap: int | None = None) -> SeriesResult:
    """Doubly-indexed strong series: A^{1} = A, A^{k+1} generated by a*b and
    dot-commutators [a, b] over a in A^{i}, b in A^{k+1-i}: the normal
    closure in (A, .) of a*h and [a, h], for the members a of A^{i} and the
    dot generators h of A^{k+1-i}.  Exact: A^{k+1} lies in A^{k} and holds
    [A^{k}, A], so it is normal and holds the closure N; and the x with a*x
    in N, or with [a, x] in N, form a subgroup, by
    b (a*c) b^-1 = (a*b)^-1 (a*(bc)) or [a, xy] = [a, y] y^-1 [a, x] y.
    """
    dot = B.dot
    conj = _conjugations(dot, dot.gens)
    members, gens = [], []  # of the terms A^{1}, ..., A^{k} so far

    def next_term(cur: np.ndarray) -> np.ndarray:
        members.append(np.flatnonzero(cur)[:, None])
        gens.append(np.asarray(_group_gens(dot, cur), dtype=np.int64))
        seeds = []
        for a, h in zip(members, reversed(gens)):  # A^{i} against A^{k+1-i}
            seeds += [_star(B, a, h).ravel(), dot.comm_batch(a, h).ravel()]
        return _invariant_closure(dot, np.concatenate(seeds), conj)

    return descending_series(B.order, next_term, cap or (B.order.bit_length() * 4))


# ---------------------------------------------------------------------------
# Automorphisms, the filtered holomorph, and brace enumeration.


def minimal_generators(G: FinGroup) -> list[int]:
    """Greedy generators, each the highest-order (then lowest-index)
    element not generated by those before it."""
    orders = G.element_orders
    walk = sorted(range(G.order), key=lambda t: (-orders[t], t))
    return _group_gens(G, order=walk)


def _automorphisms_into(G: FinGroup, gens: list[int], cands: list[list[int]]) -> list[np.ndarray]:
    """The automorphisms of G sending each gens[k] into cands[k].

    Each choice of images is extended along one Schreier tree of the rows
    x -> g x, as phi(g z) = phi(g) phi(z) on each edge, after phi(g^p) =
    phi(g)^p for each power generator g^p of the tree that is not in gens,
    and kept when it is a bijection and a homomorphism on the generators
    (_hom_failure, which proves it one on G).  An automorphism satisfies
    every edge and every power, those of the generators the tree adds
    itself included, so none is missed.
    """
    tree = _schreier(G.order, G.identity, lambda g: G.table[g], gens)
    pending = [k for k, power in enumerate(tree.powers) if power and tree.gens[k] not in gens]
    steps = []  # runs (ys, zs, g, 0), and (g^p, g, None, p) before the first run of g or a later generator
    for ys, zs, i in (run for level in tree.levels for run in level):
        while pending and pending[0] <= i + 1:
            k = pending.pop(0)
            steps.append((tree.gens[k], tree.gens[k - 1], None, tree.powers[k]))
        steps.append((ys, zs, tree.gens[i], 0))
    rows = G.table[gens]
    out = []
    for combo in product(*cands):
        phi = np.full(G.order, G.identity, dtype=np.int64)
        phi[gens] = combo
        for ys, zs, g, power in steps:
            phi[ys] = G.power(phi[zs], power) if power else G.table[phi[g]][phi[zs]]
        if _mask(G.order, phi).all() and _hom_failure(phi, rows, G.table[phi[gens]][None]) is None:
            out.append(phi)
    return out


def automorphisms(G: FinGroup) -> list[np.ndarray]:
    """Full automorphism group as permutation arrays (desk scale)."""
    gens = minimal_generators(G)
    orders = G.element_orders
    cands = [np.flatnonzero(orders == orders[g]).tolist() for g in gens]
    total = math.prod(len(c) for c in cands)
    if total > 2_000_000:
        raise CapExceededError(f"automorphism search space {total} too large")
    return _automorphisms_into(G, gens, cands)


def aut_plus(A: FinGroup, F: Filtration) -> list[np.ndarray]:
    """Automorphisms with f(g) g^-1 in F_(j+1) for g in F_j (all j >= 0)."""
    validate_group_filtration(A, F)
    gens = minimal_generators(A)
    # g goes to some g t with t in X_(level[g] + 1)
    cands = [A.table[g, np.flatnonzero(F.level >= min(F.level[g] + 1, F.depth))].tolist()
             for g in gens]
    return [phi for phi in _automorphisms_into(A, gens, cands)
            if F.margin(A.table[phi, A.inv]) >= 1]  # f(x) x^-1


def _composition_table(auts: list[np.ndarray]) -> tuple[np.ndarray, int]:
    """comp[i, j] = index of auts[i] o auts[j] in the list, and the index of
    the identity; the list must be closed under composition."""
    key_of = {f.tobytes(): i for i, f in enumerate(auts)}
    m = len(auts)
    comp = np.empty((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            comp[i, j] = key_of[auts[i][auts[j]].tobytes()]
    return comp, key_of[np.arange(auts[0].size, dtype=np.int64).tobytes()]


def holomorph_plus(A: FinGroup, F: Filtration) -> tuple[FinGroup, list]:
    """Materialize Hol(A)^+ = A x| Aut(A)_1 as a Cayley table.

    Elements are (carrier, automorphism) pairs listed in index order
    carrier * |Aut_1| + aut; the pair list is returned alongside.
    """
    auts = aut_plus(A, F)
    m = len(auts)
    n = A.order
    if n * m > 20_000:
        raise CapExceededError(f"|Hol^+| = {n * m} too large to materialize")
    comp, id_idx = _composition_table(auts)
    # (a, i)(b, j) = (a . auts[i](b), comp[i, j]), as the [a, i, b, j] entry
    carriers = A.table[np.arange(n)[:, None, None], np.stack(auts)[None, :, :]].astype(np.int64)
    table = (carriers[..., None] * m + comp[None, :, None, :]).reshape(n * m, n * m)
    hol = FinGroup(table, A.identity * m + id_idx)
    pairs = [(a, i) for a in range(n) for i in range(m)]
    return hol, pairs


def adjoint_group_filtration(B: SkewBrace, F: Filtration | None = None) -> Filtration:
    """Filtration of the circle group: (A, o)_i = A_i meet {a : lambda_a in Aut(A)_i}.

    F defaults to the canonical L-series, and the margin of a*g is taken
    a _walk block of rows a at a time.  The result is validated as a group
    filtration of (A, o)."""
    if F is None:
        F = _nilpotent(l_series_brace(B), "skew brace", l_series=True).filtration
    else:
        validate_group_filtration(B.dot, F)
    # a is in (A, o)_i when a*g = lambda_a(g) g^-1 lies in X_(level[g] + i)
    # for all g; the identity alone stays in the last term
    idx = np.arange(B.order)
    margin = np.concatenate([F.margin(_star(B, idx[blk, None], idx)) for blk in _walk(B.order, B.order)])
    out = Filtration._of(np.maximum(np.minimum(F.level, margin), 0), F.depth)
    # must be a filtration of the circle group
    validate_group_filtration(B.circ, out)
    return out


def _brace_from_lambda(A: FinGroup, lam_rows: np.ndarray) -> SkewBrace:
    circ = A.table[np.arange(A.order)[:, None], lam_rows]
    return SkewBrace(A, FinGroup(circ, A.identity))


def _lambda_backtrack(A: FinGroup, auts: list[np.ndarray]) -> list[np.ndarray]:
    """All maps lambda: A -> auts with lambda_(a o b) = lambda_a lambda_b,
    where a o b = a . lambda_a(b), as completed lambda row tables.

    Such a map is a regular subgroup {(a, lambda_a)} of A x| auts under
    (a, f)(b, g) = (a . f(b), f g) (Guarnieri & Vendramin, 2017): each
    partial map is closed under that product, and a leaf is a closed map
    defined on all of A.  No leaf repeats when auts has no repeated map, as
    automorphisms and aut_plus return: two leaves differ at the element
    where their paths branch, which the search assigns two different maps.
    """
    n = A.order
    m = len(auts)
    comp, id_idx = _composition_table(auts)
    results: list[np.ndarray] = []

    def propagate(assign: dict[int, int]) -> dict[int, int] | None:
        """The closure of assign under the product, or None on a conflict."""
        work = dict(assign)
        while True:
            items = list(work.items())
            for (a, ia), (b, ib) in product(items, items):
                ic = int(comp[ia, ib])
                if work.setdefault(int(A.table[a, auts[ia][b]]), ic) != ic:
                    return None
            if len(work) == len(items):
                return work

    # depth first with an explicit stack, children pushed in reverse so the
    # first choice is explored first
    stack = [propagate({A.identity: id_idx})]
    while stack:
        assign = stack.pop()
        if assign is None:
            continue
        if len(assign) == n:
            results.append(np.stack([auts[assign[a]] for a in range(n)]))
            continue
        a0 = min(x for x in range(n) if x not in assign)
        stack.extend(propagate({**assign, a0: i}) for i in reversed(range(m)))
    return results


def regular_subgroups(A: FinGroup, F: Filtration) -> list[SkewBrace]:
    """Regular subgroups of Hol(A)^+ = A x| Aut(A)_1, as skew braces: the
    lambda maps into Aut(A)_1 (_lambda_backtrack), each converted through
    a o b = a . lambda_a(b) and verified."""
    _check_soft_cap(A.order)
    out = [_brace_from_lambda(A, rows) for rows in _lambda_backtrack(A, aut_plus(A, F))]
    for B in out:
        rep = verify_skew_brace(B)
        if not rep.ok:
            raise FailedTheoremError(f"regular subgroup produced a non-brace: {rep.failures}")
    return out


def _all_subgroups_group(G: FinGroup) -> np.ndarray:
    """The (k, n) masks of every subgroup, the trivial one first, in the
    order a depth-first search by closures of H and one element finds them."""
    trivial = np.arange(G.order) == G.identity
    seen = {trivial.tobytes()}
    queue = [trivial]
    out = [trivial]
    while queue:
        H = queue.pop()
        for x in np.flatnonzero(~H):
            H2 = _invariant_closure(G, np.append(np.flatnonzero(H), x))
            if H2.tobytes() not in seen:
                seen.add(H2.tobytes())
                out.append(H2)
                queue.append(H2)
    return np.array(out)


def all_group_chains(A: FinGroup, max_len: int) -> list[Filtration]:
    """All descending subgroup chains A > ... > 1 of length <= max_len that
    satisfy the commutator filtration law."""
    subs = _all_subgroups_group(A)[::-1]
    sizes = subs.sum(axis=1)
    chains: list[Filtration] = []
    stack = [[np.ones(A.order, dtype=bool)]]  # depth first, first subgroup on top
    while stack:
        chain = stack.pop()
        last = chain[-1]
        if last.sum() == 1:
            if len(chain) - 1 <= max_len:
                F = Filtration._of(np.sum(chain, axis=0), len(chain))
                try:
                    validate_group_filtration(A, F)
                except ModArithError:
                    continue
                chains.append(F)
        elif len(chain) - 1 < max_len:
            below = (sizes < last.sum()) & ~(subs & ~last).any(axis=1)
            stack.extend(chain + [H] for H in subs[below])
    return chains


def enumerate_braces(A: FinGroup) -> list[SkewBrace]:
    """All skew braces with dot group A, by lambda backtracking over the
    full automorphism group (_lambda_backtrack, which repeats no brace)."""
    return [_brace_from_lambda(A, rows) for rows in _lambda_backtrack(A, automorphisms(A))]


def enumerate_braces_via_chains(A: FinGroup) -> list[SkewBrace]:
    """All skew braces with dot group A, as the union over descending
    chains of the regular subgroups of the corresponding Hol^+, in order of
    first appearance.

    The same lambda search as enumerate_braces, over Aut(A)_1 of each chain
    instead of Aut(A): every brace of L-class < p is filtered by its own
    L-series chain, so the union is complete, and a brace filtered by
    several chains is kept once.
    """
    p = prime_power(A.order)[0]
    seen: dict[bytes, SkewBrace] = {}
    for F in all_group_chains(A, p - 1):
        for B in regular_subgroups(A, F):
            seen.setdefault(B.circ.table.tobytes(), B)
    return list(seen.values())


def isomorphism_classes(braces: list[SkewBrace]) -> list[list[SkewBrace]]:
    """Group braces by isomorphism (brute-force over dot automorphisms).

    Braces on distinct dot tables are compared only when the dot groups
    are isomorphic as permutation-relabelings; here all inputs share one
    dot table, the usual enumeration setting.
    """
    if not braces:
        return []
    dot = braces[0].dot
    if any(B.dot != dot for B in braces):
        raise ModArithError("isomorphism grouping expects a shared dot group")
    # phi relabels a circ table c as phi[c[phi^-1 x, phi^-1 y]]; the
    # identity is among the phi, so a repeated table finds its own class.
    # phi is cast to the tables' dtype, so both byte keys share it
    relabels = [(phi.astype(dot.table.dtype), np.argsort(phi)) for phi in automorphisms(dot)]
    classes: list[list[SkewBrace]] = []
    seen: dict[bytes, int] = {}  # circ table -> class
    for B in braces:
        c = B.circ.table
        keys = (phi[c[inv[:, None], inv[None, :]]].tobytes() for phi, inv in relabels)
        found = next((seen[k] for k in keys if k in seen), len(classes))
        if found == len(classes):
            classes.append([])
        classes[found].append(B)
        seen[c.tobytes()] = found
    return classes
