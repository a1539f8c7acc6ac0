import itertools
import random

import numpy as np
import pytest

import catalogs
from lazbrace.common import IdealLevel
from lazbrace.liering import Filtration, LieRingSC, add_closure, lower_central_series
from lazbrace.modarith import ModArithError, PShape, PVec
from lazbrace.postlie import (
    PostLieRing,
    adjoint_filtration,
    circ_ring,
    ideal_type,
    is_square_free,
    l_mul,
    l_nilpotency_decomposition,
    l_series,
    left_series,
    right_nilpotent,
    substructures,
    verify_post_lie,
)


@pytest.fixture(scope="module")
def selfsq5():
    return catalogs.prelie_selfsquare(5)


def test_zero_triangle_always_passes():
    for L in (catalogs.abelian(5, (2, 1)), catalogs.heisenberg(7)):
        assert verify_post_lie(catalogs.zero_triangle(L)).ok


def test_selfsquare_passes_by_exhaustive_oracle(selfsq5):
    # independent oracle: check both axioms on every element triple
    assert verify_post_lie(selfsq5).ok
    s = selfsq5.shape
    co = s.all_coords()
    tri = selfsq5.tri_batch
    br = selfsq5.base.bracket_batch
    rng = random.Random(2)
    triples = [tuple(co[rng.randrange(25)] for _ in range(3)) for _ in range(200)]
    for x, y, z in triples:
        lhs1 = tri(x, br(y, z))
        rhs1 = s.reduce(br(tri(x, y), z) + br(y, tri(x, z)))
        assert np.array_equal(lhs1, rhs1)
        a_xyz = s.reduce(tri(x, tri(y, z)) - tri(tri(x, y), z))
        a_yxz = s.reduce(tri(y, tri(x, z)) - tri(tri(y, x), z))
        assert np.array_equal(tri(br(x, y), z), s.reduce(a_xyz - a_yxz))


def test_axiom_failure_reported_with_witness():
    # abelian base with g1 > g2 = g1, everything else zero: the associator
    # difference at (g1, g2, g2) is nonzero while [g1,g2] > g2 = 0
    s = PShape(5, (1, 1))
    base = LieRingSC.from_brackets(s, {})
    P = PostLieRing.from_products(base, {(0, 1): (1, 0)})
    # independent associator oracle over all generator triples
    units = np.eye(2, dtype=np.int64)
    bad = []
    for i, j, k in itertools.product(range(2), repeat=3):
        if i >= j:
            continue
        a_ijk = s.reduce(P.tri_batch(units[i], P.tri_batch(units[j], units[k]))
                         - P.tri_batch(P.tri_batch(units[i], units[j]), units[k]))
        a_jik = s.reduce(P.tri_batch(units[j], P.tri_batch(units[i], units[k]))
                         - P.tri_batch(P.tri_batch(units[j], units[i]), units[k]))
        if s.reduce(a_ijk - a_jik).any():  # bracket side is zero here
            bad.append((i, j, k))
    rep = verify_post_lie(P)
    assert rep.ok == (not bad)
    if bad:
        assert any("associator" in f for f in rep.failures)


def test_circ_ring_cases(selfsq5):
    # zero triangle: circ ring equals the base
    H = catalogs.heisenberg(5)
    P0 = catalogs.zero_triangle(H)
    assert np.array_equal(circ_ring(P0).sc, H.sc)
    # pre-Lie with symmetric products: circ ring abelian
    assert circ_ring(selfsq5).is_abelian()
    assert circ_ring(catalogs.prelie_radical(5, 2)).is_abelian()
    # square-free antisymmetric triangle: {a,b} = 2(a > b)
    P = catalogs.prelie_antisym(5)
    circ = circ_ring(P)
    assert np.array_equal(circ.sc, P.shape.reduce(2 * P.tri))


def test_l_series_goldens(selfsq5):
    s = selfsq5.shape
    ser = l_series(selfsq5)
    assert ser.nilpotency_class == 2
    assert ser.terms[1] == add_closure(s, [s.unit(1).index])
    # zero triangle over an abelian ring: class 1
    ser0 = l_series(catalogs.zero_triangle(catalogs.abelian(5, (1,))))
    assert ser0.nilpotency_class == 1
    # zero triangle over Heisenberg: the L-series is the lower central series
    H = catalogs.heisenberg(5)
    serh = l_series(catalogs.zero_triangle(H))
    assert serh.nilpotency_class == 2
    assert serh.terms == lower_central_series(H).terms


def test_nilpotency_decomposition(selfsq5):
    H = catalogs.heisenberg(5)
    assert l_nilpotency_decomposition(catalogs.zero_triangle(H)) == (True, True, True)
    assert l_nilpotency_decomposition(selfsq5) == (True, True, True)
    # zero triangle on the non-nilpotent [g1,g2] = g1 ring
    s = PShape(5, (1, 1))
    bad = LieRingSC.from_brackets(s, {(0, 1): (1, 0)})
    P = catalogs.zero_triangle(bad)
    assert l_nilpotency_decomposition(P) == (True, False, False)


def test_right_nilpotency(selfsq5):
    assert right_nilpotent(selfsq5)
    assert right_nilpotent(catalogs.zero_triangle(catalogs.heisenberg(3)))
    # right series of the radical line terminates too
    assert right_nilpotent(catalogs.prelie_radical(5, 2))


def test_substructures_goldens(selfsq5):
    s = selfsq5.shape
    g2 = add_closure(s, [s.unit(1).index])
    fix, soc, ann = substructures(selfsq5)
    assert fix == soc == ann == g2
    # zero triangle: everything is the whole ring for abelian base
    A = catalogs.zero_triangle(catalogs.abelian(5, (1, 1)))
    full = frozenset(range(25))
    assert substructures(A) == (full, full, full)
    # Heisenberg with zero triangle: socle is the center
    H = catalogs.zero_triangle(catalogs.heisenberg(5))
    fix, soc, ann = substructures(H)
    center = add_closure(H.shape, [H.shape.unit(2).index])
    assert soc == center and ann == center
    assert fix == frozenset(range(125))


def test_ideal_classification(selfsq5):
    s = selfsq5.shape
    full_gens = [s.unit(0).index, s.unit(1).index]
    assert ideal_type(selfsq5, full_gens) == IdealLevel.IDEAL
    assert ideal_type(selfsq5, [s.unit(1).index]) == IdealLevel.IDEAL
    assert ideal_type(selfsq5, [s.unit(0).index]) == IdealLevel.NOT_CLOSED
    # in the Heisenberg ring with zero triangle, <g1, g3> is an ideal
    H = catalogs.zero_triangle(catalogs.heisenberg(5))
    assert ideal_type(H, [H.shape.unit(0).index, H.shape.unit(2).index]) == IdealLevel.IDEAL


def test_left_multiplication_is_homomorphism_into_endos(selfsq5):
    # a -> L_a is a Lie ring homomorphism from the circ ring to End(a)
    s = selfsq5.shape
    circ = circ_ring(selfsq5)
    rng = random.Random(9)
    for _ in range(50):
        a = PVec(s, (rng.randrange(5), rng.randrange(5)))
        b = PVec(s, (rng.randrange(5), rng.randrange(5)))
        La, Lb = l_mul(selfsq5, a), l_mul(selfsq5, b)
        Lab = l_mul(selfsq5, circ.bracket(a, b))
        assert La.commutator(Lb) == Lab


def test_l_series_is_a_filtration(selfsq5):
    for P in (selfsq5, catalogs.postlie_heis_form(5), catalogs.prelie_radical(5, 3)):
        ser = l_series(P)
        terms = ser.terms
        for i, ti in enumerate(terms, start=1):
            for j, tj in enumerate(terms, start=1):
                target = terms[min(i + j, len(terms)) - 1]
                ai = P.shape.coords_batch(np.asarray(sorted(ti)))
                aj = P.shape.coords_batch(np.asarray(sorted(tj)))
                vals = P.shape.index_batch(P.base.bracket_batch(ai[:, None, :], aj[None, :, :]))
                assert set(int(v) for v in np.unique(vals)) <= target


def test_l_mul_raises_canonical_filtration(selfsq5):
    terms = l_series(selfsq5).terms
    s = selfsq5.shape
    for a_idx in range(s.order):
        La = l_mul(selfsq5, s.vec_of_index(a_idx))
        for i, term in enumerate(terms):
            deeper = terms[i + 1] if i + 1 < len(terms) else frozenset({0})
            arr = s.coords_batch(np.asarray(sorted(term)))
            img = set(int(v) for v in s.index_batch(La.apply_batch(arr)))
            assert img <= deeper


def test_adjoint_filtration(selfsq5):
    # zero triangle: the adjoint chain is the L-chain itself
    H = catalogs.zero_triangle(catalogs.heisenberg(5))
    adj = adjoint_filtration(H)
    assert adj.terms == l_series(H).terms
    assert adj.is_lazard_post
    # L-class k: the adjoint chain vanishes by index k + 1
    adj2 = adjoint_filtration(selfsq5)
    assert len(adj2.terms) - 1 <= l_series(selfsq5).nilpotency_class + 1
    assert adj2.terms[-1] == frozenset({0})


def test_adjoint_filtration_rejects_non_raising_chain(selfsq5):
    # (a, 0) is a chain of strong left ideals, but L_{g1} maps g1 to g2 != 0:
    # the caller's chain is at fault, which is a ModArithError naming a = g1
    F = Filtration((frozenset(range(25)), frozenset({0})))
    with pytest.raises(ModArithError, match=r"for a = 1$"):
        adjoint_filtration(selfsq5, F)


def test_circ_lcs_lands_in_annihilator(selfsq5):
    # class-k circ ring: its k-th lower central term sits inside Ann
    for P in (selfsq5, catalogs.postlie_heis_form(5), catalogs.prelie_radical(3, 2)):
        k = l_series(P).nilpotency_class
        circ = circ_ring(P)
        ser = lower_central_series(circ)
        assert ser.is_nilpotent and ser.nilpotency_class <= k
        gamma_k = ser.terms[k - 1] if k <= len(ser.terms) else frozenset({0})
        _, _, ann = substructures(P)
        assert gamma_k <= ann


def test_radical_circ_matches_commutator_ring():
    # triangle = multiplication of a commutative nilpotent ring: the circ
    # bracket a>b - b>a vanishes, so the circ ring is the abelian base
    P = catalogs.prelie_radical(5, 3)
    assert circ_ring(P).is_abelian()


def test_square_free_detection(selfsq5):
    assert is_square_free(catalogs.prelie_antisym(5))
    assert is_square_free(catalogs.zero_triangle(catalogs.heisenberg(3)))
    assert not is_square_free(selfsq5)
    assert not is_square_free(catalogs.prelie_radical(5, 2))


def test_left_series_matches_l_series_for_prelie(selfsq5):
    # abelian base: the bracket contributes nothing, so both series agree
    assert left_series(selfsq5).terms == l_series(selfsq5).terms
