"""Finite Lie rings on mixed-modulus p-groups and the exact Lazard correspondence.

Structure-constant Lie rings, verification, lower central series, the
Lazard criterion (finite filtration shorter than p), the BCH product
(giving the group Laz(a)) and its inverse through the group words P and Q
(giving Laz^-1 of a finite p-group).  Cayley tables are numpy integer
arrays; bulk operations are vectorized over element-index arrays.
"""

from __future__ import annotations

from collections.abc import Set
from itertools import combinations
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import freelie
from .common import CapExceededError, FailedTheoremError, NotLazardError
from .modarith import (AbelianBasis, ModArithError, PShape, PVec, abelian_decompose, index_dtype, prime_power,
                       _fill, _fill_group, _index_table, _left_identities, _mask, _raise_at, _schreier,
                       _table_orders, _table_times, _walk)

__all__ = [
    "LieRingSC",
    "LieRingTable",
    "FinGroup",
    "Filtration",
    "SeriesResult",
    "descending_series",
    "CheckReport",
    "verify_lie",
    "lower_central_series",
    "canonical_filtration",
    "is_lazard",
    "bch_eval",
    "laz",
    "group_root",
    "laz_inv",
    "laz_of_table",
    "canonical_group_filtration",
    "validate_filtration",
    "validate_group_filtration",
    "add_closure",
    "group_closure",
    "all_add_subgroups",
    "verify_group_table",
    "table_to_sc",
    "left_mats",
    "bilinear_batch",
]

_SOFT_ORDER_CAP = 5 ** 6  # table constructions refuse beyond this unless forced


def _check_order_cap(n: int, force: bool) -> None:
    if n > _SOFT_ORDER_CAP and not force:
        raise CapExceededError(
            f"order {n} exceeds the soft cap {_SOFT_ORDER_CAP}; pass force=True"
        )


def _check_shape_cap(p: int, exps, where: str = "") -> None:
    """Refuse a shape p^k above the soft cap from p and k alone: before
    PShape tests p for primality, and without computing p ** k for a huge k."""
    k = sum(exps)
    if max(p, k) > _SOFT_ORDER_CAP or (p > 1 and k > 0 and p ** k > _SOFT_ORDER_CAP):
        raise CapExceededError(f"{where}order {p}^{k} exceeds the soft cap {_SOFT_ORDER_CAP}")


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failures: tuple[str, ...] = ()

    def __bool__(self):
        return self.ok


class Filtration:
    """Descending chain X_1 >= X_2 >= ... over the carrier 0..n-1, ending at
    the trivial subgroup in a filtration, stored as its level function
    level[x] = max{i : x in X_i} (Lazard's weight; 0 off X_1) and its number
    of terms, depth: X_i is the mask level >= i, and X_0 = X_1.  length is
    the index of the last (potentially) nonzero term, so a nilpotent
    structure of class k has length k.  Filtration(terms) takes the terms
    as sets, starting at 0..n-1 and nested; `terms` derives them again.
    """

    def __init__(self, terms):
        if not terms:
            raise ModArithError("filtration needs at least the trivial term")
        n = len(terms[0])
        masks = np.zeros((len(terms), n + 1), dtype=bool)  # column n: members outside 0..n-1
        for mask, term in zip(masks, terms):
            x = np.fromiter(term, dtype=np.int64, count=len(term))
            mask[np.where((x >= 0) & (x < n), x, n)] = True
        if masks[0, n]:
            raise ModArithError("filtration must start at the whole carrier")
        if (masks[1:] > masks[:-1]).any():
            raise ModArithError("filtration is not descending")
        self.level, self.depth = masks[:, :n].sum(axis=0), len(terms)
        self.level.setflags(write=False)

    @classmethod
    def _of(cls, level: np.ndarray, depth: int) -> "Filtration":
        """The chain with the given int64 level function and depth."""
        F = cls.__new__(cls)
        F.level, F.depth = level, depth
        level.setflags(write=False)
        return F

    @cached_property
    def terms(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(np.flatnonzero(self.level >= i).tolist())
                     for i in range(1, self.depth + 1))

    @property
    def length(self) -> int:
        return self.depth - 1

    def term(self, i: int) -> frozenset:
        """X_i with X_0 = X_1 and X_i trivial beyond the chain."""
        return self.terms[min(max(i, 1), self.depth) - 1]

    def margin(self, images) -> np.ndarray:
        """With images[..., y] = f(y) over the last axis: the largest i <= depth
        with f(X_j) inside X_(j + i) for all j, below 1 when f does not raise
        F.  That is the least level[f(y)] - level[y] over the y with f(y)
        outside the last term."""
        hit = self.level[np.asarray(images)]
        return np.where(hit >= self.depth, self.depth, hit - self.level).min(axis=-1)

    def __eq__(self, other):
        return (isinstance(other, Filtration) and self.depth == other.depth
                and np.array_equal(self.level, other.level))


@dataclass(frozen=True)
class SeriesResult:
    """Descending series with its stabilization verdict.

    terms[0] is the whole structure; nilpotency_class is None when the
    series stabilizes at a nontrivial term.  The filtration may be given
    as its terms.
    """

    filtration: Filtration
    nilpotency_class: int | None

    def __post_init__(self):
        if not isinstance(self.filtration, Filtration):
            object.__setattr__(self, "filtration", Filtration(self.filtration))

    @property
    def terms(self) -> tuple[frozenset, ...]:
        return self.filtration.terms

    @property
    def is_nilpotent(self) -> bool:
        return self.nilpotency_class is not None


def descending_series(n: int, next_term, cap: int | None = None) -> SeriesResult:
    """X_1 = 0..n-1, X_(i+1) = next_term(X_i) on boolean masks, until a
    trivial or a repeated term, or (with a cap) a (cap + 1)-th term.  The
    level is the sum of the masks, as the terms nest: every next_term here
    closes products with X_i, so it is monotone, and X_2 lies in X_1.  Only
    an input that breaks its structure's axioms gives a term outside the one
    before; that raises ModArithError naming an element, so the series ends
    within n terms on every input."""
    level = np.ones(n, dtype=np.int64)
    cur = np.ones(n, dtype=bool)
    depth = 1
    while cur.sum() > 1 and (cap is None or depth <= cap):
        new = next_term(cur)
        if np.array_equal(new, cur):
            break
        outside = new & ~cur
        if outside.any():
            raise ModArithError(f"series term {depth + 1} holds element {int(np.argmax(outside))}"
                                f" outside term {depth}")
        level += new
        cur = new
        depth += 1
    return SeriesResult(Filtration._of(level, depth), depth - 1 if cur.sum() <= 1 else None)


# ---------------------------------------------------------------------------
# Bilinear products by structure constants, and structure-constant Lie rings.


def left_mats(shape: PShape, consts: np.ndarray, U) -> np.ndarray:
    """(..., r, r) matrices of v -> u.v for the rows u of U (..., r), where
    consts[i, j] holds the coordinates of g_i.g_j; row j is the image of g_j."""
    U = np.asarray(U, dtype=np.int64)
    r = shape.rank
    return shape.reduce((U @ consts.reshape(r, r * r)).reshape(U.shape[:-1] + (r, r)))


def bilinear_batch(shape: PShape, consts: np.ndarray, U, V) -> np.ndarray:
    """u.v for broadcast rows of U and V: V @ left_mats(U), row by row.  The
    matrices are reduced before the product to cap magnitudes."""
    V = np.asarray(V, dtype=np.int64)
    return shape.reduce(np.matmul(V[..., None, :], left_mats(shape, consts, U))[..., 0, :])


def _nested_products(shape: PShape, outer: np.ndarray, inner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g_i * (g_j . g_k), (g_i . g_j) * g_k) for every generator triple, as
    two (r, r, r, r) arrays indexed [i, j, k], where the constants `outer`
    give * and `inner` give .: each is one contraction of the constant
    tensors, reduced after the inner sum, where bilinear_batch reduces."""
    return (shape.reduce(np.einsum("jkl,ilm->ijkm", inner, outer)),
            shape.reduce(np.einsum("ijl,lkm->ijkm", inner, outer)))


def _ill_defined_pairs(shape: PShape, consts: np.ndarray) -> list[tuple[int, int]]:
    """The (i, j) with p^min(e_i, e_j) * consts[i, j] != 0, in row-major order:
    no biadditive product can take those values on the generators."""
    mods = shape.np_moduli()
    killers = np.minimum.outer(mods, mods)[:, :, None]
    return [(int(i), int(j)) for i, j in np.argwhere(shape.reduce(killers * consts).any(axis=-1))]


@dataclass(frozen=True)
class LieRingSC:
    """Finite Lie ring by bracket structure constants over a PShape.

    sc[i, j] holds the coordinates of [g_i, g_j]; the array is
    antisymmetric in (i, j) with zero diagonal by construction.
    """

    shape: PShape
    sc: np.ndarray

    def __post_init__(self):
        r = self.shape.rank
        arr = self.shape.reduce(np.asarray(self.sc, dtype=np.int64))
        if arr.shape != (r, r, r):
            raise ModArithError("structure constants must be (r, r, r)")
        arr.setflags(write=False)
        object.__setattr__(self, "sc", arr)

    @classmethod
    def from_brackets(cls, shape: PShape, brackets: dict | None = None) -> "LieRingSC":
        """Build from {(i, j): coords} for i < j; omitted pairs are zero."""
        r = shape.rank
        sc = np.zeros((r, r, r), dtype=np.int64)
        for (i, j), coords in (brackets or {}).items():
            if not 0 <= i < j < r:
                raise ModArithError("bracket pairs must have i < j")
            v = shape.reduce(np.asarray(coords, dtype=np.int64))
            sc[i, j] = v
            sc[j, i] = shape.reduce(-v)
        return cls(shape, sc)

    @property
    def order(self) -> int:
        return self.shape.order

    def bracket_batch(self, U, V) -> np.ndarray:
        return bilinear_batch(self.shape, self.sc, U, V)

    def bracket(self, u: PVec, v: PVec) -> PVec:
        return self.shape.vec(self.bracket_batch(u.np(), v.np()))

    def is_abelian(self) -> bool:
        return not self.sc.any()


def verify_lie(L: LieRingSC) -> CheckReport:
    """Check well-definedness and the Jacobi identity on generators.

    Bilinearity extends both to the whole ring; antisymmetry holds by
    construction of the structure-constant array.
    """
    s = L.shape
    failures = []
    ill_defined = _ill_defined_pairs(s, L.sc)
    for i in range(s.rank):
        if L.sc[i, i].any():
            failures.append(f"[g{i},g{i}] != 0")
        failures += [f"bracket [g{i},g{j}] not killed by p^min(e{i},e{j})"
                     for row, j in ill_defined if row == i]
    for i, j in combinations(range(s.rank), 2):
        if s.reduce(L.sc[i, j] + L.sc[j, i]).any():
            failures.append(f"antisymmetry fails on (g{i},g{j})")
    nested = _nested_products(s, L.sc, L.sc)[0]  # [g_i, [g_j, g_k]]
    jacobi = nested + nested.transpose(2, 0, 1, 3) + nested.transpose(1, 2, 0, 3)
    idx = np.indices((s.rank,) * 3)
    failures += [f"Jacobi fails on (g{i},g{j},g{k})"
                 for i, j, k in np.argwhere(s.reduce(jacobi).any(axis=-1) & (idx[0] < idx[1]) & (idx[1] < idx[2]))]
    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# Additive subgroups of a shape module.


def _extend(shape: PShape, members: np.ndarray, gens, q: int) -> np.ndarray:
    """{h + t g : h in members, 0 <= t < q} by one broadcast add, as a row
    for each g of `gens` (one g or an array).  A row has no repeats when q
    is the order of g modulo the subgroup `members`: the cosets members + t g
    are then disjoint."""
    steps = np.arange(q, dtype=np.int64)[:, None, None] * shape.coords_batch(gens)[..., None, None, :]
    sums = shape.index_batch(steps + shape.coords_batch(members))
    return sums.reshape(sums.shape[:-2] + (-1,))


def _span_fold(shape: PShape, order) -> tuple[np.ndarray, list[int]]:
    """Fold H <- H + <g> from H = 0 over the elements g of `order` not yet in
    H: the one-row case of _span_rows.  Returns the mask of H and the g kept."""
    span, kept = _span_rows(shape, np.asarray(order, dtype=np.int64)[None, :])
    return span[0], kept[0].tolist()


def _indices(gen_indices) -> np.ndarray:
    """Element indices, given as a set or as an array-like, as one flat array."""
    if isinstance(gen_indices, Set):
        return np.fromiter(gen_indices, dtype=np.int64, count=len(gen_indices))
    return np.asarray(gen_indices, dtype=np.int64).ravel()


def add_closure(shape: PShape, gen_indices) -> frozenset:
    """Subgroup of (shape, +) generated by the given element indices."""
    return frozenset(np.flatnonzero(_span_fold(shape, _indices(gen_indices))[0]).tolist())


def _subgroup_gens(shape: PShape, inside: np.ndarray) -> list[int]:
    """Small generating set of the additive subgroup with mask `inside` (the
    greedy walk over its members in order, deterministic); the unit vectors
    for the whole carrier."""
    if inside.all():
        return [u.index for u in shape.units()]
    return _span_fold(shape, np.flatnonzero(inside))[1]


def _span_rows(shape: PShape, walk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold H <- H + <g> from H = 0 over the elements g of a row of `walk`
    not yet in H, for all k rows at once; returns the (k, n) masks of the H
    and the (k, c) g kept, padded with 0 where a row kept fewer.

    The fold of a row stops once the row lies in H, so it stops at the row
    exactly when the row is an additive subgroup.  H + <g> is the union of
    the cosets H + t g for t below the order q of g modulo H, the least p^j
    with p^j g in H; each member of H is moved by the t g of its row.
    """
    rows = np.arange(len(walk))[:, None]
    coords = shape.all_coords()
    powers = shape.p ** np.arange(shape.exps[0] + 1)
    span = np.zeros((len(walk), shape.order), dtype=bool)
    span[:, 0] = True
    kept = []
    while True:
        out = ~span[rows, walk]
        active = out.any(axis=1)
        if not active.any():
            break
        kept.append(np.where(active, walk[rows[:, 0], out.argmax(axis=1)], 0))
        g = coords[kept[-1]]
        q = powers[span[rows, shape.index_batch(powers[:, None] * g[:, None, :])].argmax(axis=1).max()]
        row, x = np.nonzero(span)
        span[row, shape.index_batch(np.arange(1, q)[:, None, None] * g[row] + coords[x])] = True
    return span, np.stack(kept, axis=1) if kept else np.zeros((len(walk), 0), dtype=np.int64)


def _row_masks(n: int, members: np.ndarray) -> np.ndarray:
    """The (k, n) masks of the subsets of 0..n-1 with members the rows of members."""
    inside = np.zeros((len(members), n), dtype=bool)
    inside[np.arange(len(members))[:, None], members] = True
    return inside


def _levels(tests) -> np.ndarray:
    """IdealLevel values from four boolean tests per row, in the order of
    the levels (closure, then the three ideal tests): the number of leading
    tests a row passes."""
    return np.logical_and.accumulate(np.stack(tests), axis=0).sum(axis=0)


def all_add_subgroups(shape: PShape) -> list[frozenset]:
    """Every additive subgroup, each built once, sorted by (size, members)."""
    return [frozenset(H.tolist()) for run in _add_subgroup_runs(shape) for H in run]


def _add_subgroup_runs(shape: PShape) -> list[np.ndarray]:
    """Every additive subgroup, each built once, as one (k, m) array of
    sorted members per order m, rows in lexicographic order, by increasing m.

    Built one cyclic factor at a time: a subgroup H of A' (+) Z/p^e is
    K + <(y, p^c)> for exactly one triple of K = H meet A', 0 <= c <= e and
    y the least element of its coset y + K with p^(e-c) y in K (Goursat's
    lemma for a cyclic factor).  Factor i enters with stride |A'|, so A'
    is the index range below that stride, and no closure is taken.
    """
    p = shape.p
    subs = [np.zeros(1, dtype=np.int64)]
    for e, stride in zip(shape.exps, shape.strides()):
        prefix = np.arange(stride, dtype=np.int64)
        pc = shape.coords_batch(prefix)
        out = []
        for K in subs:
            in_k = np.zeros(stride, dtype=bool)
            in_k[K] = True
            least = shape.index_batch(pc[:, None, :] + shape.coords_batch(K)).min(axis=1) == prefix
            out.append(K)  # c = e
            for c in range(e):
                q = p ** (e - c)
                ys = prefix[least & in_k[shape.index_batch(q * pc)]]
                out.extend(_extend(shape, K, ys + stride * p ** c, q))
        subs = out
    runs = []
    for m in sorted({H.size for H in subs}):
        run = np.sort([H for H in subs if H.size == m], axis=1)
        runs.append(run[np.lexsort(run.T[::-1])])
    return runs


def _product_series(shape: PShape, consts: np.ndarray, right: bool = False) -> SeriesResult:
    """X_1 = a, X_(i+1) = <x.y : x in a, y in X_i> (with right, <y.x>) for
    the biadditive products whose constants consts[..., i, j] (stacked on
    the leading axes) hold the coordinates of g_i.g_j.

    Each term is the additive closure of the products u.g of the unit
    vectors u with the generators g of the term before.  This is exact by
    biadditivity: x.y is a sum of multiples of the u.g.
    """
    consts = consts.reshape((-1,) + consts.shape[-3:])
    if right:
        consts = consts.swapaxes(1, 2)

    def next_term(cur: np.ndarray) -> np.ndarray:
        gens = shape.coords_batch(_subgroup_gens(shape, cur))
        return _span_fold(shape, shape.index_batch(np.einsum("bj,oijl->oibl", gens, consts)).ravel())[0]

    return descending_series(shape.order, next_term)


def lower_central_series(L: LieRingSC) -> SeriesResult:
    """gamma^1 = a, gamma^(i+1) = [a, gamma^i], until stabilization."""
    return _product_series(L.shape, L.sc)


def canonical_filtration(L: LieRingSC) -> Filtration:
    series = lower_central_series(L)
    if not series.is_nilpotent:
        raise NotLazardError("Lie ring is not nilpotent; no canonical Lazard filtration")
    return series.filtration


def validate_filtration(F: Filtration, n: int, identity: int, closure, gens, op) -> None:
    """Check that F runs from the whole carrier 0..n-1 down to {identity}
    through closed terms with op(X_i, X_j) inside X_(i+j), testing op on
    generators only.  The terms nest by construction of F.

    closure(g) is the mask of the substructure generated by g, gens(mask) a
    greedy generating set of a term, op(x, y) the product (the bracket, or
    the group commutator) on broadcast index arrays.  Raises ModArithError.
    """
    if F.level.size != n or F.level.min() < 1:
        raise ModArithError("filtration must start at the whole structure")
    depth = F.depth
    if F.level[identity] != depth or np.count_nonzero(F.level == depth) != 1:
        raise ModArithError("filtration must terminate at the trivial term")
    term_gens = []
    for i in range(1, depth + 1):
        term_gens.append(np.asarray(gens(F.level >= i), dtype=np.int64))
        if not np.array_equal(closure(term_gens[-1]), F.level >= i):
            raise ModArithError(f"filtration term {i} is not closed")
    # A bracket is biadditive, so generators suffice.  A commutator check on
    # generators is exact only when the target X_(i+j) is normal: row i = 1,
    # taken from the bottom term up, proves [G, X_j] in X_(j+1) with X_(j+1)
    # already normal, which makes X_j normal; the other pairs follow.
    pairs = [(1, j) for j in range(depth, 0, -1)]
    pairs += [(i, j) for i in range(2, depth + 1) for j in range(i, depth + 1)]
    for i, j in pairs:
        if not (F.level[op(term_gens[i - 1][:, None], term_gens[j - 1])] >= min(i + j, depth)).all():
            raise ModArithError(f"[term {i}, term {j}] escapes term {i + j}")


def _validate_lie_filtration(L: LieRingSC, F: Filtration) -> None:
    shape = L.shape
    validate_filtration(F, shape.order, 0, lambda gens: _span_fold(shape, gens)[0],
                        lambda term: _subgroup_gens(shape, term),
                        lambda x, y: shape.index_batch(
                            L.bracket_batch(shape.coords_batch(x), shape.coords_batch(y))))


def _lazard_filtration(series, n: int, what: str, F: Filtration | None = None, validate=None,
                       l_series: bool = False) -> Filtration:
    """The Lazard gate: the filtration of the structure `what` of order n
    that a Lazard construction runs on.  With no F it is series(), the lower
    central series (or the L-series), a filtration by construction and so
    not validated again; a caller's F is checked by validate(F) (ModArithError).
    NotLazardError refuses a series that stops, naming the order of its last
    term, and then a length >= p, with p taken from n only now (S_3 is
    refused as not nilpotent); a trivial structure is Lazard."""
    prefix, name = ("L-", "L-series") if l_series else ("", "lower central series")
    if F is None:
        ser = series()
        if not ser.is_nilpotent:
            raise NotLazardError(f"{what} is not {prefix}nilpotent: the {name} stops at a term"
                                 f" of order {len(ser.terms[-1])}")
        F, length = ser.filtration, f"{prefix}class"
    else:
        validate(F)
        length = "filtration length"
    if n > 1 and F.length >= (p := prime_power(n)[0]):
        raise NotLazardError(f"{what} is not Lazard: {length} {F.length} >= p = {p}")
    return F


def is_lazard(L: LieRingSC, F: Filtration | None = None) -> bool:
    """True iff the Lazard gate passes F, by default the lower central series
    (length < p forces P_i-divisibility); a caller's F is validated."""
    try:
        _lazard_degree(L, F)
    except NotLazardError:
        return False
    return True


# ---------------------------------------------------------------------------
# BCH evaluation and the group Laz(a).


def _bch_batch(L: LieRingSC, degree: int, A, B) -> np.ndarray:
    """BCH(a, b) truncated at `degree` on coordinate arrays (m, r)."""
    s = L.shape
    return freelie.fold_terms(freelie.bch_terms(degree), A, B, L.bracket_batch,
                              lambda acc, v, c: s.reduce(acc + s.scale_batch(v, c)),
                              np.zeros_like(np.asarray(A, dtype=np.int64)))


def bch_eval(L: LieRingSC, F: Filtration | None, a: PVec, b: PVec) -> PVec:
    """Exact truncated BCH product of two elements, at the degree of the
    filtration the Lazard gate passes (F None: the lower central series)."""
    out = _bch_batch(L, _lazard_degree(L, F), a.np()[None, :], b.np()[None, :])
    return L.shape.vec(out[0])


@dataclass(frozen=True)
class FinGroup:
    """Finite group as a Cayley table on 0..n-1, stored read-only in
    index_dtype(n); an entry outside 0..n-1 raises ModArithError."""

    table: np.ndarray
    identity: int

    def __post_init__(self):
        object.__setattr__(self, "table", _index_table(self.table))

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @cached_property
    def inv(self) -> np.ndarray:
        """inv[a]: the first b with a b = identity, or 0 in a row without one;
        found a _walk block of rows at a time, so the n x n mask of identity
        entries is never held whole."""
        n = self.order
        inv = np.empty(n, dtype=np.intp)
        for blk in _walk(n, n):
            inv[blk] = (self.table[blk] == self.identity).argmax(axis=1)
        return inv

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def power_batch(self, X, m: int) -> np.ndarray:
        X = np.asarray(X, dtype=np.int64)
        if m < 0:
            X = self.inv[X]
            m = -m
        return _table_times(self.table, X, m, self.identity)

    def power(self, g: int, m: int) -> int:
        return int(self.power_batch(np.asarray([g]), m)[0])

    def comm_batch(self, X, Y) -> np.ndarray:
        """Group commutator x^-1 y^-1 x y, elementwise."""
        X = np.asarray(X, dtype=np.int64)
        Y = np.asarray(Y, dtype=np.int64)
        return self.table[self.table[self.table[self.inv[X], self.inv[Y]], X], Y]

    @cached_property
    def gens(self) -> tuple[int, ...]:
        """Greedy generators of the whole group (`_group_gens`), walked once."""
        return tuple(_group_gens(self, order=np.arange(self.order)))

    @cached_property
    def element_orders(self) -> np.ndarray:
        """Orders of all elements; requires a p-group."""
        p = prime_power(self.order)[0] if self.order > 1 else 2
        return _table_orders(self.table, self.identity, p)

    @cached_property
    def exponent(self) -> int:
        return int(self.element_orders.max()) if self.order > 1 else 1

    def __eq__(self, other):
        return (isinstance(other, FinGroup) and self.identity == other.identity and self.order == other.order
                and _walk(self.order, self.order, lambda blk: self.table[blk] != other.table[blk])[0] is None)


def verify_group_table(table) -> CheckReport:
    """Identity, associativity and inverse checks, all exact, with the
    Latin-square checks run only to name what failed.

    Associativity is Light's test on a generating set, in row form: the g
    with (g x) y = g (x y) for all x, y form a submagma holding the
    identity, since ((g h) x) y = (g (h x)) y = g ((h x) y) = g (h (x y)) =
    (g h) (x y), so it is enough that they include generators of the table
    as a magma; each g costs two row gathers, t[t[g]] and t[g][t].

    A table with a two-sided identity e that passes is a monoid, and a
    finite monoid in which every a has a right inverse (its row holds e)
    is a group: from a b = e and b c = e, a = a (b c) = (a b) c = c, so
    b a = e as well.  A group table is a Latin square, so the two n x n
    permutation scatters are skipped when all three checks pass; when one
    fails they run, and the failures are listed in their fixed order.  A
    FinGroup may stand for its table: its cached generators and inverses
    are used when its identity is the one found, else that is a failure.
    """
    group = table if isinstance(table, FinGroup) else None
    table = np.asarray(table if group is None else group.table)  # ranges checked before any cast
    n = table.shape[0]
    if table.ndim != 2 or table.shape[1] != n:
        return CheckReport(False, ("table is not square",))
    if table.min() < 0 or table.max() >= n:
        return CheckReport(False, ("entries out of range",))
    idx = np.arange(n)
    ident = _left_identities(table)
    two_sided = ident.size == 1 and bool((table[:, int(ident[0])] == idx).all())
    light = None
    stated = None if group is None else group.identity
    if two_sided:
        if stated != int(ident[0]):
            group = FinGroup(table, int(ident[0]))
        light = _light_failure(table, group.gens)
        if light is None and stated in (None, group.identity) and (table[idx, group.inv] == group.identity).all():
            return CheckReport(True, ())
    failures = []
    # a row (column) of n entries in range is a permutation when it hits
    # every value: one boolean scatter of (row, value) ((value, column))
    hit = np.zeros((n, n), dtype=bool)
    hit[idx[:, None], table] = True
    if not hit.all():
        failures.append("some row is not a permutation")
    hit[:] = False
    hit[table, idx] = True
    if not hit.all():
        failures.append("some column is not a permutation")
    if not two_sided:
        failures.append("no two-sided identity")
    elif stated not in (None, group.identity):
        failures.append(f"the identity is {group.identity}, not the stated {stated}")
    if light is not None:
        failures.append(light)
    return CheckReport(not failures, tuple(failures))


def _light_failure(table: np.ndarray, gens) -> str | None:
    """Light's test on the generators `gens` of the table as a magma: the
    first (g, x, y) with (g x) y != g (x y), named, or None.  Each row of g
    is compared in one _walk, a block of x at a time, so no n x n temporary
    is held.  The generator walk presumes no associativity: every product
    it takes stays inside the submagma its generators generate."""
    n = table.shape[0]
    for g in gens:
        row = table[g]
        at, = _walk(n, n, lambda blk: table[row[blk]] != row.take(table[blk]))  # (g x) y vs g (x y), x in blk
        if at is not None:
            return "associativity fails at (g,x,y)=({},{},{})".format(g, *at)
    return None


def _hom_failure(maps, src_rows, dst_rows) -> tuple[int, int, int] | None:
    """The first (j, i, b) with f(g_i b) != f(g_i) f(b) for f = maps[j],
    where src_rows[i] is the row x -> g_i x of the source and dst_rows[j, i]
    the row y -> f(g_i) y of the target; None when there is none.

    The one group-law check.  For a source and a target that are groups,
    the g with f(g b) = f(g) f(b) for all b form a submonoid: b = h gives
    f(g h) = f(g) f(h), so f((g h) b) = f(g) f(h b) = f(g) f(h) f(b) =
    f(g h) f(b); and the identity is in it once any g is, since b = 1 gives
    f(1) = 1.  So the rows of generators of the source prove every map a
    homomorphism, with row gathers only.
    """
    maps = np.atleast_2d(maps)
    bad = maps[:, src_rows] != np.take_along_axis(dst_rows, maps[:, None, :], axis=2)
    if bad.any():
        j, i, b = np.argwhere(bad)[0]
        return int(j), int(i), int(b)
    return None


def _lazard_degree(L: LieRingSC, F: Filtration | None = None) -> int:
    """The BCH degree of Laz(L): the length of the filtration that the
    Lazard gate passes, F or by default the lower central series."""
    return max(_lazard_filtration(lambda: lower_central_series(L), L.order, "Lie ring", F,
                                  lambda F: _validate_lie_filtration(L, F)).length, 1)


def _laz_rows(L: LieRingSC, degree: int, basis: AbelianBasis, elems) -> np.ndarray:
    """The rows x -> BCH(a, x) of Laz(L) for the table elements a in elems,
    one (len(elems), n) array over the table elements of basis, a carrier
    of L.shape; BCH is truncated at degree (_lazard_degree).  BCH is folded
    over a _walk block of rows at a time, sized so that the (pairs, r, r)
    bracket matrices of the fold stay near its block size."""
    X = basis.coords
    n, r = X.shape
    A = X[np.asarray(elems, dtype=np.int64)]
    out = np.empty((len(A), n), dtype=np.int64)
    for blk in _walk(len(A), n * r * r):
        a = A[blk]
        out[blk] = basis.elems(_bch_batch(L, degree, np.repeat(a, n, axis=0), np.tile(X, (len(a), 1)))).reshape(-1, n)
    return out


def laz(L: LieRingSC, F: Filtration | None = None, force: bool = False) -> FinGroup:
    """The Lazard group (a, BCH) of a Lazard Lie ring, as a Cayley table.

    BCH is evaluated on the rows BCH(g_i, .) of the unit vectors only, in
    one _laz_rows call, and the table is filled from them along a Schreier
    tree (the rows of its power generators are compositions of them):
    in a Lazard ring a set generates the group it generates as a Lie ring
    (Khukhro), and BCH is associative there.  An abelian L is its own
    Lazard group: the table is the carrier's addition.  BCH is cut at the
    length of the filtration the Lazard gate passes (_lazard_degree).
    """
    _check_order_cap(L.order, force)
    degree = _lazard_degree(L, F)
    shape = L.shape
    if not L.sc.any():  # abelian: BCH(a, b) = a + b
        return FinGroup(shape.carrier.add, 0)
    tree = _schreier(shape.order, 0, lambda X: _laz_rows(L, degree, shape.carrier, X),
                     [u.index for u in shape.units()])
    return FinGroup(_fill_group(tree), 0)


def group_root(G: FinGroup, g: int, n: int) -> int:
    """Unique h with h^n = g in a finite p-group, gcd(n, p) = 1."""
    p, _ = prime_power(G.order) if G.order > 1 else (0, 0)
    if G.order > 1 and n % p == 0:
        raise ModArithError(f"root exponent {n} is divisible by p = {p}")
    e = G.exponent
    m = pow(n % e, -1, e) if e > 1 else 0
    return G.power(g, m)


# ---------------------------------------------------------------------------
# Group filtrations and Laz^-1.


def _fresh(inside: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The distinct values of vals outside the mask, sorted."""
    return np.flatnonzero(_mask(inside.size, vals) & ~inside)


def _close(G: FinGroup, inside: np.ndarray, frontier: np.ndarray, gens) -> None:
    """Close the mask `inside` in place under right multiplication by
    `gens`, all of which it holds, where the elements of `frontier` are
    the members not yet multiplied by them.

    A frontier of at most two elements is multiplied by every member
    reached so far instead, so that a cyclic group closes in about
    log2 n levels, not n.  Every product stays inside the submagma the
    members generate.
    """
    gens = np.asarray(gens, dtype=np.int64)
    while frontier.size:
        right = np.flatnonzero(inside) if frontier.size <= 2 else gens
        frontier = _fresh(inside, G.table[frontier[:, None], right[None, :]].ravel())
        inside[frontier] = True


def group_closure(G: FinGroup, gen_indices) -> frozenset:
    """Subgroup generated by the given element indices: an invariant
    closure under no maps."""
    return frozenset(np.flatnonzero(_invariant_closure(G, gen_indices)).tolist())


def _invariant_closure(G: FinGroup, seeds, maps: np.ndarray | None = None) -> np.ndarray:
    """The mask of the smallest subgroup N of G holding the seeds with f(N)
    inside N for every row f of `maps` (x -> f[x]; default none), each an
    automorphism of G.

    N is the closure of a growing generator set: the seeds, then the images
    of the newest generators that fall outside the closure so far.  Since
    f(<S>) = <f(S)> for a homomorphism f, a closure that holds the images
    of its own generators is invariant, and each generator added lies in
    every invariant subgroup holding the seeds; so only images of
    generators are ever taken.
    """
    maps = np.empty((0, G.order), dtype=np.int64) if maps is None else maps
    inside = np.zeros(G.order, dtype=bool)
    inside[G.identity] = True
    new = _fresh(inside, _indices(seeds))
    gens = new
    while new.size:
        inside[new] = True
        _close(G, inside, np.flatnonzero(inside), gens)
        new = _fresh(inside, maps[:, new].ravel())
        gens = np.concatenate([gens, new])
    return inside


def _conjugations(G: FinGroup, gens) -> np.ndarray:
    """Rows x -> g^-1 x g for the given g."""
    gens = np.asarray(gens, dtype=np.int64)
    return G.table[G.table[G.inv[gens][:, None], np.arange(G.order)], gens[:, None]]


def canonical_group_filtration(G: FinGroup) -> SeriesResult:
    """Lower central series G_1 = G, G_(i+1) = [G, G_i]: the normal closure
    of the [g, h] for generators g of G and h of G_i (Robinson, 5.1.7)."""
    gens = np.asarray(G.gens, dtype=np.int64)
    conj = _conjugations(G, gens)
    return descending_series(G.order, lambda cur: _invariant_closure(
        G, G.comm_batch(gens[:, None], np.asarray(_group_gens(G, cur))), conj))


def _group_gens(G: FinGroup, members: np.ndarray | None = None, order=None) -> list[int]:
    """Greedy generators of the subset with mask `members` (default: G):
    walk `order` (default: the members in order) once, keeping each element
    outside the closure of those kept so far, whose mask grows with each one
    kept.

    The closure of the result equals `members` exactly when `members` is
    closed, so the same walk also tests closedness.  The walk over the
    whole group is cached as G.gens.
    """
    if order is None and (members is None or members.all()):
        return list(G.gens)
    goal = np.ones(G.order, dtype=bool) if members is None else members
    walk = np.flatnonzero(goal) if order is None else np.asarray(order, dtype=np.int64)
    inside = np.zeros(G.order, dtype=bool)
    inside[G.identity] = True
    gens: list[int] = []
    while not np.array_equal(inside, goal):
        rest = np.flatnonzero(~inside[walk])
        if not rest.size:
            break
        gens.append(int(walk[rest[0]]))
        walk = walk[rest[0] + 1:]
        inside[gens[-1]] = True
        _close(G, inside, np.flatnonzero(inside), gens)
    return gens


def validate_group_filtration(G: FinGroup, F: Filtration) -> None:
    validate_filtration(F, G.order, G.identity, lambda gens: _invariant_closure(G, gens),
                        lambda term: _group_gens(G, term), G.comm_batch)


def _rational_power_batch(G: FinGroup, X, q) -> np.ndarray:
    """x^q elementwise in a p-group, q a rational with denominator prime to p."""
    q = Fraction(q)
    e = G.exponent
    m = (q.numerator * pow(q.denominator, -1, e)) % e if e > 1 else 0
    return G.power_batch(X, m)


def _eval_word_batch(G: FinGroup, word: freelie.GroupWord, A, B) -> np.ndarray:
    """Evaluate an inverse-BCH word on index arrays; commutator u^-1 v^-1 u v."""
    A = np.asarray(A, dtype=np.int64)
    return freelie.fold_terms(word.factors, A, np.asarray(B, dtype=np.int64), G.comm_batch,
                              lambda acc, v, q: G.table[acc, _rational_power_batch(G, v, q)],
                              np.full(A.shape, G.identity, dtype=np.int64))


@dataclass(frozen=True)
class LieRingTable:
    """Lie ring in table form: pointwise addition and bracket tables, each
    stored as FinGroup stores its table."""

    add: np.ndarray
    bracket: np.ndarray
    zero: int

    def __post_init__(self):
        add = _index_table(self.add)
        object.__setattr__(self, "add", add)
        object.__setattr__(self, "bracket", _index_table(self.bracket, add.shape[0]))

    @property
    def order(self) -> int:
        return int(self.add.shape[0])

    def add_group(self) -> FinGroup:
        return FinGroup(self.add, self.zero)


def laz_inv(G: FinGroup, F: Filtration | None = None, force: bool = False) -> LieRingTable:
    """Laz^-1(G): a + b = P(a, b), [a, b] = Q(a, b), on the same carrier.

    P and Q are evaluated only on the rows of a few generators, each the
    least element the rows P(g, .) so far do not reach; the tree's power
    generators p g take their P rows by composition and their Q rows as
    p Q(g, .), since Q(p g, .) = [p g, .] = p [g, .].  The addition is
    filled along their Schreier tree, and the bracket on the same edges,
    since P and Q give a Lie ring for class < p (Lazard): [g + z, x] =
    [z, x] + [g, x], a copy run where the row Q(g, .) is all zero.  At
    length 1 the group is abelian, P = a b and Q = 1: no tree is grown,
    and the zero bracket is a read-only broadcast of the identity (a
    zero-stride view, which _index_rows keeps), so no n x n array is
    allocated for it.  k is the length of the filtration the Lazard gate
    passes (_lazard_filtration; default: the lower central series).
    """
    _check_order_cap(G.order, force)
    k = _lazard_filtration(lambda: canonical_group_filtration(G), G.order, "group", F,
                           lambda F: validate_group_filtration(G, F)).length
    if G.order == 1:
        z = np.zeros((1, 1), dtype=np.int64)
        return LieRingTable(z, z, 0)
    n = G.order
    if k == 1:  # abelian: P(a, b) = a b and Q(a, b) = 1, a constant bracket held as a view
        return LieRingTable(G.table, np.broadcast_to(np.asarray(G.identity, dtype=G.table.dtype), (n, n)), G.identity)
    p_word, q_word = freelie.inverse_words(k)
    idx = np.arange(n, dtype=np.int64)
    word_row = lambda word, g: _eval_word_batch(G, word, np.full(n, g), idx)  # x -> word(g, x)
    tree = _schreier(n, G.identity, lambda X: [word_row(p_word, g) for g in X], [], grow=True)
    add = _fill_group(tree)
    q_rows = []
    for g, power in zip(tree.gens, tree.powers):  # Q(p g, .) = [p g, .] = p [g, .]
        q_rows.append(_table_times(add, q_rows[-1], power, G.identity) if power else word_row(q_word, g))
    copy = [bool((q == G.identity).all()) for q in q_rows]
    flat = add.ravel()

    def bracket_step(i, Z):  # [g + z, x] = [z, x] + [g, x]: add[Z, q] = flat[Z n + q], indexed in intp
        if copy[i]:  # [g, .] = 0
            return Z
        ix = np.multiply(Z, n, dtype=np.intp)
        ix += q_rows[i]
        return flat.take(ix)

    br = _fill(tree, np.full(n, G.identity), bracket_step)
    return LieRingTable(add, br, G.identity)


def table_to_sc(T: LieRingTable) -> tuple[LieRingSC, AbelianBasis]:
    """Structure-constant form of a table Lie ring, plus the carrier bijection.

    Checks that the bracket table is the biadditive extension of its
    generator values.  A biadditive bracket kills p^min(e_i, e_j) [g_i,
    g_j], so constants that do not are named first, as the generator pair
    (a, b).  Otherwise b -> [a, b] is a well-defined matrix map for each
    a, and its table is filled along the additive tree from the brackets
    of the tree generators, computed in coordinates: that is the bilinear
    extension itself, compared with the bracket table on all pairs, which
    names the first failing (a, b).  The extension is filled and compared
    in one _walk, by blocks of rows a (of n / 8 entries: a fill pays its
    per-run cost per block), so neither it nor the mask is held whole.
    """
    basis = abelian_decompose(T.add)
    coords = basis.coords
    gens = list(basis.gens)
    L = LieRingSC(basis.shape, coords[T.bracket[np.ix_(gens, gens)]])
    what = "bracket table is not biadditive over the decomposition"
    bad = _ill_defined_pairs(basis.shape, L.sc)
    if bad:
        raise FailedTheoremError(f"{what} at (a,b)=({gens[bad[0][0]]},{gens[bad[0][1]]})")
    rebuilt = lambda blk: T.bracket[blk] != basis.additive_table(lambda X: L.bracket_batch(coords[blk, None, :], X))
    _raise_at(_walk(T.order, T.order // 8, rebuilt)[0], what)
    return L, basis


def _table_series(T: LieRingTable, G: FinGroup) -> SeriesResult:
    """Lower central series of a table Lie ring, G = T.add_group(): [T, X]
    is the additive closure of the brackets of additive generators of T
    and X, as the bracket is biadditive."""
    gens = G.gens
    return descending_series(T.order, lambda cur: _invariant_closure(
        G, T.bracket[np.ix_(gens, _group_gens(G, cur))].ravel()))


def laz_of_table(T: LieRingTable, force: bool = False) -> FinGroup:
    """Laz of a table Lie ring, computed purely on the tables (same carrier).

    BCH is evaluated by table gathers only on the rows of a few
    generators, grown as in `laz_inv`, and the table is filled from them;
    at class 1 the bracket is zero and the group is the addition.  The
    class is the one the Lazard gate passes (_lazard_filtration).
    """
    n = T.order
    _check_order_cap(n, force)
    if n == 1:
        return FinGroup(np.zeros((1, 1), dtype=np.int64), 0)
    G = T.add_group()
    k = _lazard_filtration(lambda: _table_series(T, G), n, "table Lie ring").length
    if k == 1:  # abelian: BCH(a, b) = a + b
        return FinGroup(T.add, T.zero)
    idx = np.arange(n, dtype=np.int64)
    zero = np.full(n, T.zero, dtype=np.int64)
    tree = _schreier(n, T.zero, lambda X: [freelie.fold_terms(
        freelie.bch_terms(k), np.full(n, g), idx, lambda u, v: T.bracket[u, v],
        lambda acc, v, c: T.add[acc, _rational_power_batch(G, v, c)], zero) for g in X], [], grow=True)
    return FinGroup(_fill_group(tree), T.zero)
