"""Post-Lie rings: axioms, the second Lie ring a-circ, L-series and
nilpotency predicates, fix/socle/annihilator, ideal classification, and
the adjoint filtration.

A post-Lie ring is a finite Lie ring with a biadditive product (right
triangle) satisfying the two compatibility axioms; the axioms are checked
on generator triples, to which tri-additivity reduces them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .common import FailedTheoremError, IdealLevel
from .liering import (
    CheckReport,
    Filtration,
    LieRingSC,
    SeriesResult,
    add_closure,
    bilinear_batch,
    _ill_defined_pairs,
    _indices,
    _levels,
    _product_series,
    _row_masks,
    _span_rows,
    _subgroup_gens,
    _validate_lie_filtration,
    left_mats,
    lower_central_series,
    verify_lie,
)
from .modarith import Endo, ModArithError, PShape, PVec, _row_blocks

__all__ = [
    "PostLieRing",
    "verify_post_lie",
    "circ_ring",
    "l_series",
    "l_nilpotency_decomposition",
    "right_nilpotent",
    "substructures",
    "ideal_type",
    "classify_subset",
    "adjoint_filtration",
    "AdjointFiltration",
    "is_square_free",
    "l_mul",
    "enumerate_prelie_ops",
    "enumerate_prelie_ops_aff",
]


@dataclass(frozen=True)
class PostLieRing:
    """Lie ring plus triangle structure constants tri[i, j] = g_i > g_j."""

    base: LieRingSC
    tri: np.ndarray

    def __post_init__(self):
        s = self.base.shape
        arr = s.reduce(np.asarray(self.tri, dtype=np.int64))
        if arr.shape != (s.rank, s.rank, s.rank):
            raise ModArithError("triangle constants must be (r, r, r)")
        bad = _ill_defined_pairs(s, arr)
        if bad:
            i, j = bad[0]
            raise ModArithError(f"g{i} > g{j} not killed by p^min(e{i},e{j}); triangle ill-defined")
        arr.setflags(write=False)
        object.__setattr__(self, "tri", arr)

    @property
    def shape(self) -> PShape:
        return self.base.shape

    @classmethod
    def from_products(cls, base: LieRingSC, products: dict) -> "PostLieRing":
        """Build from {(i, j): coords of g_i > g_j}; omitted pairs are zero."""
        r = base.shape.rank
        tri = np.zeros((r, r, r), dtype=np.int64)
        for (i, j), coords in products.items():
            tri[i, j] = base.shape.reduce(np.asarray(coords, dtype=np.int64))
        return cls(base, tri)

    def bracket_batch(self, U, V) -> np.ndarray:
        return self.base.bracket_batch(U, V)

    def tri_batch(self, U, V) -> np.ndarray:
        return bilinear_batch(self.shape, self.tri, U, V)

    def l_mats(self, A) -> np.ndarray:
        """(..., r, r) matrices of L_a : b -> a > b for the rows a of A."""
        return left_mats(self.shape, self.tri, A)

    def triangle(self, u: PVec, v: PVec) -> PVec:
        return self.shape.vec(self.tri_batch(u.np(), v.np()))

    @cached_property
    def circ(self) -> LieRingSC:
        """circ_ring(self), built and verified once per ring."""
        return circ_ring(self)

    @cached_property
    def l_series(self) -> SeriesResult:
        """l_series(self), computed once per ring."""
        return _product_series(self.shape, np.stack([self.tri, self.base.sc]))


def l_mul(P: PostLieRing, a: PVec) -> Endo:
    """Left multiplication L_a : b -> a > b as an additive endomorphism."""
    return Endo(P.shape, P.l_mats(a.np()))


def verify_post_lie(P: PostLieRing) -> CheckReport:
    """Both post-Lie axioms on all generator triples (tri-additivity extends)."""
    base_rep = verify_lie(P.base)
    if not base_rep.ok:
        return CheckReport(False, tuple("base: " + f for f in base_rep.failures))
    s = P.shape
    failures = []
    units = np.eye(s.rank, dtype=np.int64)
    br = P.base.bracket_batch
    tri = P.tri_batch
    pairs = list(combinations(range(s.rank), 2))
    for i, (j, k) in product(range(s.rank), pairs):
        lhs = tri(units[i], br(units[j], units[k]))
        rhs = br(tri(units[i], units[j]), units[k]) + br(units[j], tri(units[i], units[k]))
        if s.reduce(lhs - rhs).any():
            failures.append(f"derivation axiom fails on (g{i},g{j},g{k})")
    for (i, j), k in product(pairs, range(s.rank)):
        lhs = tri(br(units[i], units[j]), units[k])
        assoc_ijk = tri(units[i], tri(units[j], units[k])) - tri(tri(units[i], units[j]), units[k])
        assoc_jik = tri(units[j], tri(units[i], units[k])) - tri(tri(units[j], units[i]), units[k])
        if s.reduce(lhs - (assoc_ijk - assoc_jik)).any():
            failures.append(f"associator axiom fails on (g{i},g{j},g{k})")
    return CheckReport(not failures, tuple(failures))


def circ_ring(P: PostLieRing) -> LieRingSC:
    """The second Lie ring {a,b} = [a,b] + a>b - b>a on the same carrier."""
    s = P.shape
    sc = s.reduce(P.base.sc + P.tri - P.tri.transpose(1, 0, 2))
    out = LieRingSC(s, sc)
    rep = verify_lie(out)
    if not rep.ok:
        raise FailedTheoremError(f"circ bracket is not a Lie ring: {rep.failures}")
    return out


def l_series(P: PostLieRing) -> SeriesResult:
    """L^1 = a, L^(i+1) = <x > y and [x, y] : x in a, y in L^i>, cached
    as P.l_series."""
    return P.l_series


def left_series(P: PostLieRing) -> SeriesResult:
    """a^1 = a, a^(i+1) = <x > y : x in a, y in a^i> (left nilpotency series)."""
    return _product_series(P.shape, P.tri)


def right_series(P: PostLieRing) -> SeriesResult:
    """a_1 = a, a_(i+1) = <x > y : x in a_i, y in a> (right nilpotency series)."""
    return _product_series(P.shape, P.tri, right=True)


def l_nilpotency_decomposition(P: PostLieRing) -> tuple[bool, bool, bool]:
    """(left nilpotent, base nilpotent, L-nilpotent); asserts the equivalence
    L-nilpotent <=> left nilpotent and base nilpotent."""
    left = left_series(P).is_nilpotent
    base = lower_central_series(P.base).is_nilpotent
    lnil = l_series(P).is_nilpotent
    if lnil != (left and base):
        raise FailedTheoremError("L-nilpotency equivalence violated")
    return left, base, lnil


def right_nilpotent(P: PostLieRing) -> bool:
    return right_series(P).is_nilpotent


def substructures(P: PostLieRing) -> tuple[frozenset, frozenset, frozenset]:
    """(Fix, Soc, Ann) as index sets; verifies the claimed ideal levels."""
    s = P.shape
    coords = s.all_coords()
    units = np.eye(s.rank, dtype=np.int64)
    # b is fixed when every g_i > b vanishes; a is in the socle when its
    # matrices of b -> a > b and b -> [a, b] are zero
    fix_mask = ~P.tri_batch(units[:, None, :], coords).any(axis=(0, -1))
    soc_mask = ~(P.l_mats(coords).any(axis=(-2, -1))
                 | left_mats(s, P.base.sc, coords).any(axis=(-2, -1)))
    fix, soc = (frozenset(np.flatnonzero(mask).tolist()) for mask in (fix_mask, soc_mask))
    ann = soc & fix
    if classify_subset(P, fix) < IdealLevel.LEFT_IDEAL:
        raise FailedTheoremError("fix is not a left ideal")
    for name, sub in (("socle", soc), ("annihilator", ann)):
        if classify_subset(P, sub) < IdealLevel.IDEAL:
            raise FailedTheoremError(f"{name} is not an ideal")
    return fix, soc, ann


def classify_subset(P: PostLieRing, members: frozenset) -> IdealLevel:
    """Strongest substructure level of an explicit subset (no closure taken):
    the one-row case of _classify_batch."""
    return IdealLevel(int(_classify_batch(P, np.sort(_indices(members))[None, :])[0]))


def _classify_batch(P: PostLieRing, members: np.ndarray) -> np.ndarray:
    """IdealLevel values of k subsets of one size m, given as a (k, m) array
    of sorted members.

    A row is an additive subgroup when the fold of its members stops at
    exactly its mask (_span_rows).  Each level is then tested on the
    generators g the fold kept, padded with 0, and the unit vectors u, which
    is exact by biadditivity: [g, g'] and g > g' for closure, then u > g,
    [u, g] and the circ bracket {u, g}.
    """
    s = P.shape
    levels = np.empty(len(members), dtype=np.int64)
    # a fold step moves up to n members of a row by up to max_modulus steps
    for blk in _row_blocks(len(members), s.order * s.rank * s.max_modulus):
        span, gens = _span_rows(s, members[blk])
        mask = _row_masks(s.order, members[blk])
        G = s.coords_batch(gens)
        rows = np.arange(len(G))[:, None]

        def within(images):  # coordinates (kb, ..., r), each inside its row
            return mask[rows, s.index_batch(images).reshape(len(G), -1)].all(axis=1)

        # u.v = sum over j of v_j (sum over i of u_i consts[i, j]), reduced in
        # between as in bilinear_batch; a unit u_i picks out consts[i]
        left = s.reduce(np.einsum("kai,oijl->okajl", G, np.stack([P.base.sc, P.tri])))
        pairs = np.einsum("kbj,okajl->okabl", G, left)
        units = np.einsum("kbj,oijl->okibl", G, np.stack([P.tri, P.base.sc, P.circ.sc]))
        levels[blk] = _levels([(span == mask).all(axis=1) & within(pairs[0]) & within(pairs[1]),
                               within(units[0]), within(units[1]), within(units[2])])
    return levels


def ideal_type(P: PostLieRing, gens) -> IdealLevel:
    """Classification of the additive subgroup generated by `gens`."""
    return classify_subset(P, add_closure(P.shape, gens))


@dataclass(frozen=True)
class AdjointFiltration:
    terms: tuple[frozenset, ...]
    is_lazard_post: bool


def _validate_post_filtration(P: PostLieRing, F: Filtration) -> None:
    """Check that F is a Lie filtration of the base with a > X_j inside
    X_(j+1) for all a (so each term is a left ideal), the latter as
    u > g in X_(level[g] + 1) for the unit vectors u and the generators g of
    each term, exact by biadditivity.  Raises ModArithError naming a u."""
    _validate_lie_filtration(P.base, F)
    s = P.shape
    gens = np.array(sum((_subgroup_gens(s, F.level >= j) for j in range(1, F.depth)), []), dtype=np.int64)
    images = s.index_batch(P.tri_batch(np.eye(s.rank, dtype=np.int64)[:, None, :], s.coords_batch(gens)))
    raised = (F.level[images] >= np.minimum(F.level[gens] + 1, F.depth)).all(axis=1)
    if not raised.all():
        a = s.unit(int(np.argmin(raised))).index
        raise ModArithError(f"L_a does not map X_j into X_(j+1) for a = {a}")


def adjoint_filtration(P: PostLieRing, F: Filtration | None = None) -> AdjointFiltration:
    """Filtration of the circ ring: a-circ_i = {a in a_i : L_a raises F by i},
    cut after its first trivial term.

    F defaults to the canonical L-filtration.  A caller's F must be a Lie
    filtration with every L_a mapping X_j into X_(j+1), which makes each
    term a left ideal; otherwise ModArithError names a unit vector a.
    """
    s = P.shape
    if F is None:
        ser = l_series(P)
        if not ser.is_nilpotent:
            raise ModArithError("no canonical filtration: not L-nilpotent")
        F = ser.filtration
    else:
        _validate_post_filtration(P, F)
    coords = s.all_coords()
    level = np.maximum(np.minimum(F.level, F.margin(s.index_batch(
        P.tri_batch(coords[:, None, :], coords[None, :, :])))), 0)
    # the first trivial term {0} follows the deepest nonzero element
    depth = int(level[1:].max(initial=0)) + 1
    level[0] = depth
    out = Filtration._of(level, depth)
    try:
        _validate_lie_filtration(P.circ, out)
    except ModArithError as exc:
        raise FailedTheoremError(f"adjoint chain is not a filtration of the circ ring: {exc}") from exc
    return AdjointFiltration(out.terms, F.length < s.p and out.length < s.p)


def is_square_free(P: PostLieRing) -> bool:
    """a > a = 0 for every element (checked on all elements, not generators)."""
    s = P.shape
    coords = s.all_coords()
    return not P.tri_batch(coords, coords).any()


# ---------------------------------------------------------------------------
# Enumeration oracles for pre-Lie structures on an abelian shape.


def _left_mul_candidates(shape: PShape, i: int) -> list[np.ndarray]:
    """All matrices of possible L_{g_i}: endomorphisms killed by p^e_i.

    Row j is g_i > g_j, so one matrix per generator, stacked, is the triangle.
    """
    s = shape
    entry_choices = []
    for j in range(s.rank):
        for k in range(s.rank):
            gap = max(0, s.exps[k] - min(s.exps[i], s.exps[j]))
            entry_choices.append(range(0, s.p ** s.exps[k], s.p ** gap))
    return [
        np.asarray(combo, dtype=np.int64).reshape(s.rank, s.rank)
        for combo in product(*entry_choices)
    ]


def _candidate_tuples(shape: PShape):
    per_gen = [_left_mul_candidates(shape, i) for i in range(shape.rank)]
    total = math.prod(len(c) for c in per_gen)
    if total > 200_000:
        raise ModArithError(f"pre-Lie search space {total} exceeds the desk-scale cap")
    yield from product(*per_gen)


def enumerate_prelie_ops(shape: PShape, left_nilpotent_only: bool = True) -> list[PostLieRing]:
    """All pre-Lie products on the abelian Lie ring of `shape`.

    Direct structure-constant search: a candidate triangle passes iff the
    associator compatibility axiom holds on generator triples.
    """
    base = LieRingSC.from_brackets(shape, {})
    out = []
    for mats in _candidate_tuples(shape):
        P = PostLieRing(base, np.stack(mats))
        if not verify_post_lie(P).ok:
            continue
        if left_nilpotent_only and not left_series(P).is_nilpotent:
            continue
        out.append(P)
    return out


def enumerate_prelie_ops_aff(shape: PShape, left_nilpotent_only: bool = True) -> list[PostLieRing]:
    """Same catalog through the graph route: a candidate passes iff the graph
    {(a, L_a)} is closed under the semidirect bracket
    [(a,x),(b,y)] = (x(b) - y(a), [x,y]) inside a (+) End(a)."""
    s = shape
    base = LieRingSC.from_brackets(s, {})
    units = np.eye(s.rank, dtype=np.int64)

    def closed(mats, i, j):
        first = s.reduce(units[j] @ mats[i] - units[i] @ mats[j])
        # row-image convention: the endo x -> x@M1 then x@M2 has matrix M1@M2
        commut = s.reduce(mats[j] @ mats[i] - mats[i] @ mats[j])
        return not s.reduce(commut - s.reduce(np.tensordot(first, np.stack(mats), axes=(0, 0)))).any()

    out = []
    for mats in _candidate_tuples(shape):
        if not all(closed(mats, i, j) for i, j in combinations(range(s.rank), 2)):
            continue
        P = PostLieRing(base, np.stack(mats))
        if left_nilpotent_only and not left_series(P).is_nilpotent:
            continue
        out.append(P)
    return out
