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

from .common import CapExceededError, FailedTheoremError, IdealLevel
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
    _nested_products,
    _nilpotent,
    _product_series,
    _row_masks,
    _span_rows,
    _subgroup_gens,
    _substructure_sets,
    _validate_lie_filtration,
    left_mats,
    lower_central_series,
    verify_lie,
)
from .modarith import Endo, ModArithError, PShape, PVec, _walk

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
    """Both post-Lie axioms on all generator triples (tri-additivity
    extends), from the nested products of the constant tensors."""
    base_rep = verify_lie(P.base)
    if not base_rep.ok:
        return CheckReport(False, tuple("base: " + f for f in base_rep.failures))
    s, sc, tri = P.shape, P.base.sc, P.tri
    tri_of_br, br_tri = _nested_products(s, tri, sc)  # g_i > [g_j, g_k], [g_i, g_j] > g_k
    br_of_tri, tri_br = _nested_products(s, sc, tri)  # [g_i, g_j > g_k], [g_i > g_j, g_k]
    tri_of_tri, tri_tri = _nested_products(s, tri, tri)  # g_i > (g_j > g_k), (g_i > g_j) > g_k
    # g_i > [g_j, g_k] = [g_i > g_j, g_k] + [g_j, g_i > g_k] for j < k
    derivation = tri_of_br - (tri_br + br_of_tri.transpose(1, 0, 2, 3))
    # [g_i, g_j] > g_k = a(g_i, g_j, g_k) - a(g_j, g_i, g_k) for i < j, a the associator
    assoc = tri_of_tri - tri_tri
    associator = br_tri - (assoc - assoc.transpose(1, 0, 2, 3))
    idx = np.indices((s.rank,) * 3)
    failures = [f"derivation axiom fails on (g{i},g{j},g{k})"
                for i, j, k in np.argwhere(s.reduce(derivation).any(axis=-1) & (idx[1] < idx[2]))]
    failures += [f"associator axiom fails on (g{i},g{j},g{k})"
                 for i, j, k in np.argwhere(s.reduce(associator).any(axis=-1) & (idx[0] < idx[1]))]
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
    masks = np.stack([fix_mask, soc_mask, fix_mask & soc_mask])
    return _substructure_sets(masks, _classify_batch(P, masks))


def classify_subset(P: PostLieRing, members: frozenset) -> IdealLevel:
    """Strongest substructure level of an explicit subset (no closure taken):
    the one-row case of _classify_batch."""
    return IdealLevel(int(_classify_batch(P, _row_masks(P.shape.order, _indices(members)[None, :]))[0]))


def _classify_batch(P: PostLieRing, masks: np.ndarray, gens: np.ndarray | None = None) -> np.ndarray:
    """IdealLevel values of k subsets of any sizes, given as (k, n) masks.

    With no gens, a row is an additive subgroup when the fold of its members
    in order stops at exactly its mask (_span_rows, with 0 in place of each
    non-member, which the fold ignores), and g are the generators the fold
    kept, padded with 0.  The sweep passes as gens the (k, c) generators
    each row was built from (_add_subgroup_runs), 0-padded: a row K + <g>
    is a subgroup by construction and they generate it, so no fold is run.
    Each level is then tested on the g and the units u, exact by biadditivity:
    [g, g'] and g > g' for closure, then u > g, [u, g] and circ's {u, g}.
    """
    s = P.shape
    consts = np.stack([P.tri, P.base.sc, P.circ.sc])
    levels = np.empty(len(masks), dtype=np.int64)
    # a fold step moves up to n members of a row by up to max_modulus steps
    for blk in _walk(len(masks), s.order * s.rank * s.max_modulus):
        mask = masks[blk]
        if gens is None:
            span, kept = _span_rows(s, np.where(mask, np.arange(s.order), 0))
            closed = (span == mask).all(axis=1)
        else:
            kept, closed = gens[blk], True
        kept = kept[:, kept.any(axis=0)]  # a column of zeros tests nothing
        at = np.zeros(s.order, dtype=np.intp)
        at[kept] = 1
        g = np.flatnonzero(at)  # the distinct g, and where each kept one is among them
        at[g] = np.arange(len(g))
        at = at[kept]
        # u_i > g, [u_i, g] and {u_i, g} for each distinct g, the sums over j
        # of g_j consts[i, j]; then g' > g and [g', g] for each pair, the sums
        # over i of g'_i (u_i > g) and g'_i [u_i, g], in _walk blocks of g' of
        # at most 64 KiB: a row holds G r coordinates of 8 bytes, and
        # index_batch a copy of them and their product with the strides
        coords = s.coords_batch(g)
        units = s.reduce(np.einsum("gj,oijl->oigl", coords, consts))
        pairs = np.empty((2, len(g), len(g)), dtype=np.int64)
        for o in (0, 1):
            for cut in _walk(len(g), 96 * len(g) * s.rank):
                pairs[o, cut] = s.index_batch((coords[cut] @ units[o].reshape(s.rank, -1)).reshape(-1, len(g), s.rank))
        rows = np.arange(len(kept))[None, :, None]  # each image is read in its own row's mask
        closed &= mask[rows, pairs[:, at[:, :, None], at[:, None, :]].reshape(2, len(kept), -1)].all(axis=2).all(axis=0)
        units = s.index_batch(units).swapaxes(1, 2)[:, at].reshape(3, len(kept), -1)
        levels[blk] = _levels([closed, *mask[rows, units].all(axis=2)])
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
    term a left ideal; otherwise ModArithError names a unit vector a.  The
    triangle table is filled along the shape's additive tree: P's
    constants are validated, so it is the bilinear triangle itself.
    """
    s = P.shape
    if F is None:
        F = _nilpotent(l_series(P), "post-Lie ring", l_series=True).filtration
    else:
        _validate_post_filtration(P, F)
    coords = s.all_coords()
    level = np.maximum(np.minimum(F.level, F.margin(s.carrier.additive_table(
        lambda X: P.tri_batch(coords[:, None, :], X)))), 0)
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


def _entry_values(shape: PShape, i: int) -> list[range]:
    """The values of each entry (j, k), row-major, of a possible matrix of
    L_{g_i}: the multiples of p^(e_k - min(e_i, e_j)) below p^e_k."""
    s = shape
    return [range(0, s.p ** s.exps[k], s.p ** max(0, s.exps[k] - min(s.exps[i], s.exps[j])))
            for j in range(s.rank) for k in range(s.rank)]


def _left_mul_candidates(shape: PShape, i: int) -> list[np.ndarray]:
    """All matrices of possible L_{g_i}: endomorphisms killed by p^e_i.

    Row j is g_i > g_j, so one matrix per generator, stacked, is the triangle.
    """
    r = shape.rank
    return [np.asarray(combo, dtype=np.int64).reshape(r, r) for combo in product(*_entry_values(shape, i))]


def _check_prelie_space(shape: PShape) -> None:
    """Refuse (CapExceededError) a shape whose candidate triangles number
    more than the desk-scale cap, counted from the entry ranges alone."""
    total = math.prod(len(v) for i in range(shape.rank) for v in _entry_values(shape, i))
    if total > 200_000:
        raise CapExceededError(f"pre-Lie search space {total} exceeds the desk-scale cap")


def _candidate_tuples(shape: PShape):
    _check_prelie_space(shape)
    yield from product(*[_left_mul_candidates(shape, i) for i in range(shape.rank)])


def enumerate_prelie_ops(shape: PShape) -> list[PostLieRing]:
    """All left nilpotent pre-Lie products on the abelian Lie ring of `shape`.

    Direct structure-constant search: a candidate triangle passes iff the
    associator compatibility axiom holds on generator triples.
    """
    base = LieRingSC.from_brackets(shape, {})
    out = []
    for mats in _candidate_tuples(shape):
        P = PostLieRing(base, np.stack(mats))
        if not verify_post_lie(P).ok:
            continue
        if not left_series(P).is_nilpotent:
            continue
        out.append(P)
    return out


def enumerate_prelie_ops_aff(shape: PShape) -> list[PostLieRing]:
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
        if not left_series(P).is_nilpotent:
            continue
        out.append(P)
    return out
