"""Finite Lie rings on mixed-modulus p-groups and the exact Lazard correspondence.

Structure-constant Lie rings, verification, lower central series, the
Lazard criterion (finite filtration shorter than p), the BCH product
(giving the group Laz(a)) and its inverse through the group words P and Q
(giving Laz^-1 of a finite p-group).  Cayley tables are numpy integer
arrays; bulk operations are vectorized over element-index arrays.
"""

from __future__ import annotations

import math
from collections.abc import Set
from itertools import combinations
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import freelie
from .common import CapExceededError, FailedTheoremError, NotLazardError
from .modarith import (AbelianBasis, ModArithError, PShape, PVec, abelian_decompose, prime_power,
                       _row_blocks, _table_orders, _table_times)

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


def _require_none(bad: np.ndarray, what: str, exc=FailedTheoremError, row0: int = 0) -> None:
    """Raise exc(what) naming the first (a, b) where bad holds, rows counted from row0."""
    if bad.any():
        x, y = np.argwhere(bad)[0]
        raise exc(f"{what} at (a,b)=({row0 + int(x)},{int(y)})")


def _check_order_cap(n: int, force: bool) -> None:
    if n > _SOFT_ORDER_CAP and not force:
        raise CapExceededError(
            f"order {n} exceeds the soft cap {_SOFT_ORDER_CAP}; pass force=True"
        )


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

    def __hash__(self):
        return hash((self.depth, self.level.tobytes()))


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
    closes products with X_i, so it is monotone, and X_2 lies in X_1."""
    level = np.ones(n, dtype=np.int64)
    cur = np.ones(n, dtype=bool)
    depth = 1
    while cur.sum() > 1 and (cap is None or depth <= cap):
        new = next_term(cur)
        if np.array_equal(new, cur):
            break
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
    units = np.eye(s.rank, dtype=np.int64)
    for i, j, k in combinations(range(s.rank), 3):
        total = (
            L.bracket_batch(units[i], L.bracket_batch(units[j], units[k]))
            + L.bracket_batch(units[j], L.bracket_batch(units[k], units[i]))
            + L.bracket_batch(units[k], L.bracket_batch(units[i], units[j]))
        )
        if s.reduce(total).any():
            failures.append(f"Jacobi fails on (g{i},g{j},g{k})")
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


def _span_fold(shape: PShape, order, target: np.ndarray | None = None) -> tuple[np.ndarray, list[int]]:
    """Fold H <- H + <g> from H = 0 over the elements g of `order` not yet in
    H; returns the mask of H and the g kept.  With a target mask, stops as
    soon as H equals it."""
    p = shape.p
    order = np.asarray(order, dtype=np.int64)
    inside = np.zeros(shape.order, dtype=bool)
    inside[0] = True
    members = np.zeros(1, dtype=np.int64)
    kept: list[int] = []
    while order.size:
        if target is not None and np.array_equal(inside, target):
            break
        fresh = np.flatnonzero(~inside[order])
        if fresh.size == 0:
            break
        g = int(order[fresh[0]])
        order = order[fresh[0] + 1:]
        # the order of g modulo H: the least p^j with p^j g in H
        multiples = shape.index_batch(np.multiply.outer(
            p ** np.arange(shape.exps[0] + 1), shape.coords_batch(g)))
        members = _extend(shape, members, g, p ** int(np.argmax(inside[multiples])))
        inside[members] = True
        kept.append(g)
    return inside, kept


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
    return _span_fold(shape, np.flatnonzero(inside), inside)[1]


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


def is_lazard(L: LieRingSC, F: Filtration | None = None) -> bool:
    """True iff the filtration is finite of length < p (forces P_i-divisibility)."""
    if F is None:
        series = lower_central_series(L)
        if not series.is_nilpotent:
            return False
        F = series.filtration
    else:
        _validate_lie_filtration(L, F)
    return F.length < L.shape.p


# ---------------------------------------------------------------------------
# BCH evaluation and the group Laz(a).


def _bch_batch(L: LieRingSC, degree: int, A, B) -> np.ndarray:
    """BCH(a, b) truncated at `degree` on coordinate arrays (m, r)."""
    s = L.shape
    return freelie.fold_terms(freelie.bch_terms(degree), A, B, L.bracket_batch,
                              lambda acc, v, c: s.reduce(acc + s.scale_batch(v, c)),
                              np.zeros_like(np.asarray(A, dtype=np.int64)))


def bch_eval(L: LieRingSC, F: Filtration, a: PVec, b: PVec) -> PVec:
    """Exact truncated BCH product of two elements; requires a Lazard input."""
    if not is_lazard(L, F):
        raise NotLazardError("BCH product needs a Lazard Lie ring (class < p)")
    out = _bch_batch(L, max(F.length, 1), a.np()[None, :], b.np()[None, :])
    return L.shape.vec(out[0])


@dataclass(frozen=True)
class FinGroup:
    """Finite group as a Cayley table on 0..n-1."""

    table: np.ndarray
    identity: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.table, dtype=np.int64))
        arr.setflags(write=False)
        object.__setattr__(self, "table", arr)

    @property
    def order(self) -> int:
        return int(self.table.shape[0])

    @cached_property
    def inv(self) -> np.ndarray:
        n = self.order
        inv = np.empty(n, dtype=np.int64)
        rows, cols = np.nonzero(self.table == self.identity)
        inv[rows] = cols
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
        return (
            isinstance(other, FinGroup)
            and self.identity == other.identity
            and np.array_equal(self.table, other.table)
        )

    def __hash__(self):
        return hash((self.identity, self.table.tobytes()))


def verify_group_table(table) -> CheckReport:
    """Latin-square, identity, inverse and associativity checks, all exact.

    Associativity is Light's test on a generating set: the a with
    (x a) y = x (a y) for all x, y form a submagma holding the identity, so
    it is enough that they include generators of the table as a magma.
    A FinGroup may stand for its table; its cached generators are used
    when its identity is the one found.
    """
    group = table if isinstance(table, FinGroup) else None
    table = np.asarray(table if group is None else group.table, dtype=np.int64)
    n = table.shape[0]
    failures = []
    if table.ndim != 2 or table.shape[1] != n:
        return CheckReport(False, ("table is not square",))
    if table.min() < 0 or table.max() >= n:
        return CheckReport(False, ("entries out of range",))
    idx = np.arange(n)
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
    ident = np.nonzero((table == idx).all(axis=1))[0]
    if ident.size != 1 or not (table[:, int(ident[0])] == idx).all():
        failures.append("no two-sided identity")
        return CheckReport(False, tuple(failures))
    if group is None or group.identity != int(ident[0]):
        group = FinGroup(table, int(ident[0]))
    # every product the generator walk takes stays inside the submagma its
    # generators generate, so it presumes no associativity: the generators
    # it returns generate the table as a magma
    for a in group.gens:
        bad = table[table[:, a]] != table[:, table[a]]  # (x a) y vs x (a y)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            failures.append(f"associativity fails at (x,a,y)=({int(x)},{a},{int(y)})")
            break
    return CheckReport(not failures, tuple(failures))


class _Tree(NamedTuple):
    """A breadth-first Schreier tree of z -> g z from `root`: rows[i] is
    x -> gens[i] x, and each level (ys, zs, i) has ys = gens[i] zs."""

    root: int
    gens: list[int]
    rows: np.ndarray
    levels: list


def _schreier(n: int, identity: int, row_of, gens, grow: bool = False) -> _Tree:
    """Grow the tree over 0..n-1 one vectorised level at a time; row_of(g)
    is the array x -> g x.  Where the tree stops short, its least unreached
    element joins the generators (grow) or is named in a FailedTheoremError.
    Every 2 isqrt(n) levels the least element of the newest level joins
    them too, so that a cyclic tree is about 2.5 sqrt(n) deep, not n."""
    gens = [int(g) for g in gens]
    rows = [row_of(g) for g in gens]
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    levels = []
    frontier = np.array([identity])
    deep = 2 * math.isqrt(n)
    while not reached.all():
        blocks = [(frontier, i) for i in range(len(gens))] if frontier.size else []
        if not blocks or len(levels) % deep == deep - 1:
            new = int(frontier[0]) if blocks else int(np.argmin(reached))
            if not (blocks or grow):
                raise FailedTheoremError(
                    f"generator rows do not generate: the Schreier tree misses element {new}")
            gens.append(new)
            rows.append(row_of(new))
            blocks.append((np.flatnonzero(reached), len(gens) - 1))
        cand = np.concatenate([rows[i][zs] for zs, i in blocks])
        fresh = np.flatnonzero(~reached[cand])
        ys, first = np.unique(cand[fresh], return_index=True)
        pos = fresh[first]
        levels.append((ys, np.concatenate([zs for zs, _ in blocks])[pos],
                       np.concatenate([np.full(zs.size, i) for zs, i in blocks])[pos]))
        reached[ys] = True
        frontier = ys
    return _Tree(identity, gens, np.asarray(rows, dtype=np.int64).reshape(-1, n), levels)


def _fill(tree: _Tree, first, step) -> np.ndarray:
    """The table with row `first` at the root and row y = step(i, row z) on
    each tree edge y = gens[i] z, one gather per level (chunked)."""
    n = len(first)
    table = np.empty((n, n), dtype=np.int64)
    table[tree.root] = first
    for ys, zs, gi in tree.levels:
        for part in _row_blocks(ys.size, n):
            table[ys[part]] = step(gi[part], table[zs[part]])
    return table


def _fill_group(tree: _Tree) -> np.ndarray:
    """The Cayley table of an associative product fixed by the tree's
    generator rows: row y = g z is row_g[row z]."""
    return _fill(tree, np.arange(tree.rows.shape[1]), lambda i, Z: tree.rows[i[:, None], Z])


def laz(L: LieRingSC, F: Filtration | None = None, force: bool = False) -> FinGroup:
    """The Lazard group (a, BCH) of a Lazard Lie ring, as a Cayley table.

    BCH is evaluated on the rows BCH(g_i, .) of the unit vectors only, and
    the table is filled from them along a Schreier tree: in a Lazard ring a
    set generates the group it generates as a Lie ring (Khukhro), and BCH
    is associative there.
    """
    _check_order_cap(L.order, force)
    if F is None:
        F = canonical_filtration(L)  # a lower central series is a filtration by construction
    else:
        _validate_lie_filtration(L, F)
    if F.length >= L.shape.p:
        raise NotLazardError(
            f"class {F.length} >= p = {L.shape.p}: BCH denominators would divide p"
        )
    shape = L.shape
    coords = shape.all_coords()
    degree = max(F.length, 1)
    tree = _schreier(shape.order, 0, lambda g: shape.index_batch(_bch_batch(
        L, degree, np.broadcast_to(coords[g], coords.shape), coords)), [u.index for u in shape.units()])
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
    new = np.zeros(inside.size, dtype=bool)
    new[vals] = True
    new &= ~inside
    return np.flatnonzero(new)


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


def _p_of_group(G: FinGroup) -> int:
    if G.order == 1:
        raise ModArithError("trivial group has no prime")
    p, _ = prime_power(G.order)
    return p


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
    """Lie ring in table form: pointwise addition and bracket tables."""

    add: np.ndarray
    bracket: np.ndarray
    zero: int

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.add, dtype=np.int64))
        b = np.ascontiguousarray(np.asarray(self.bracket, dtype=np.int64))
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "add", a)
        object.__setattr__(self, "bracket", b)

    @property
    def order(self) -> int:
        return int(self.add.shape[0])

    def add_group(self) -> FinGroup:
        return FinGroup(self.add, self.zero)


def laz_inv(G: FinGroup, F: Filtration | None = None, force: bool = False) -> LieRingTable:
    """Laz^-1(G): a + b = P(a, b), [a, b] = Q(a, b), on the same carrier.

    P and Q are evaluated only on the rows of a few generators, each the
    least element the rows P(g, .) so far do not reach.  The addition is
    filled along their Schreier tree, and the bracket on the same edges,
    since P and Q give a Lie ring for class < p (Lazard).
    """
    _check_order_cap(G.order, force)
    if F is None:
        series = canonical_group_filtration(G)
        if not series.is_nilpotent:
            raise NotLazardError("group is not nilpotent")
        F = series.filtration
    else:
        validate_group_filtration(G, F)
    if G.order == 1:
        z = np.zeros((1, 1), dtype=np.int64)
        return LieRingTable(z, z, 0)
    p = _p_of_group(G)
    k = F.length
    if k >= p:
        raise NotLazardError(f"not Lazard: filtration length {k} >= p = {p}")
    p_word, q_word = freelie.inverse_words(max(k, 1))
    p_word = p_word.truncated(k)
    q_word = q_word.truncated(k)
    n = G.order
    idx = np.arange(n, dtype=np.int64)
    tree = _schreier(n, G.identity, lambda g: _eval_word_batch(G, p_word, np.full(n, g), idx),
                     [], grow=True)
    add = _fill_group(tree)
    q_rows = np.asarray([_eval_word_batch(G, q_word, np.full(n, g), idx) for g in tree.gens])
    # biadditivity: [g + z, x] = [z, x] + [g, x] on each tree edge
    br = _fill(tree, np.full(n, G.identity), lambda i, Z: add[Z, q_rows[i]])
    return LieRingTable(add, br, G.identity)


def table_to_sc(T: LieRingTable) -> tuple[LieRingSC, AbelianBasis]:
    """Structure-constant form of a table Lie ring, plus the carrier bijection.

    Checks that the bracket table is the biadditive extension of its
    generator values.
    """
    basis = abelian_decompose(T.add)
    shape = basis.shape
    r = shape.rank
    coords = shape.all_coords()[basis.index_of_elem]
    gen_elems = basis.elem_of[shape.index_batch(np.eye(r, dtype=np.int64))]
    L = LieRingSC(shape, coords[T.bracket[np.ix_(gen_elems, gen_elems)]])
    for rows in _row_blocks(T.order, T.order):
        blk = L.bracket_batch(coords[rows, None, :], coords[None, :, :])
        _require_none(basis.elem_of[shape.index_batch(blk)] != T.bracket[rows],
                      "bracket table is not biadditive over the decomposition", row0=rows.start)
    return L, basis


def _table_series(T: LieRingTable) -> SeriesResult:
    """Lower central series of a table Lie ring: [T, X] is the additive
    closure of the brackets of additive generators of T and X, as the
    bracket is biadditive."""
    G = T.add_group()
    gens = G.gens
    return descending_series(T.order, lambda cur: _invariant_closure(
        G, T.bracket[np.ix_(gens, _group_gens(G, cur))].ravel()))


def laz_of_table(T: LieRingTable, force: bool = False) -> FinGroup:
    """Laz of a table Lie ring, computed purely on the tables (same carrier).

    BCH is evaluated by table gathers only on the rows of a few
    generators, grown as in `laz_inv`, and the table is filled from them.
    """
    n = T.order
    _check_order_cap(n, force)
    if n == 1:
        return FinGroup(np.zeros((1, 1), dtype=np.int64), 0)
    G = T.add_group()
    p = _p_of_group(G)
    series = _table_series(T)
    if not series.is_nilpotent:
        raise NotLazardError("table Lie ring is not nilpotent")
    k = series.nilpotency_class
    if k >= p:
        raise NotLazardError(f"not Lazard: class {k} >= p = {p}")
    idx = np.arange(n, dtype=np.int64)
    zero = np.full(n, T.zero, dtype=np.int64)
    tree = _schreier(n, T.zero, lambda g: freelie.fold_terms(
        freelie.bch_terms(k), np.full(n, g), idx, lambda u, v: T.bracket[u, v],
        lambda acc, v, c: T.add[acc, _rational_power_batch(G, v, c)], zero), [], grow=True)
    return FinGroup(_fill_group(tree), T.zero)
