import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lazbrace.modarith import (
    Endo,
    ModArithError,
    PShape,
    PVec,
    abelian_decompose,
    endo_exp,
    endo_log,
    root_of_unity,
)


def test_vec_ops_reduce_mod_shape():
    s = PShape(5, (2,))
    u, v = PVec(s, (20,)), PVec(s, (10,))
    assert (u + v).coords == (5,)  # 30 mod 25
    assert (u + (-u)).is_zero
    s2 = PShape(3, (2, 1))
    assert (3 * PVec(s2, (1, 1))).coords == (3, 0)


def test_vec_shape_mismatch_rejected():
    with pytest.raises(ModArithError):
        PVec(PShape(5, (2,)), (1,)) + PVec(PShape(5, (1,)), (1,))


def test_scalar_act_examples():
    # oracle: extended Euclid, i.e. den * result = num * v mod each modulus
    s = PShape(5, (2,))
    v = PVec(s, (1,)).scale(Fraction(2, 3))
    assert (3 * v.coords[0]) % 25 == 2
    assert v.coords == (9,)
    w = PVec(PShape(5, (1,)), (1,)).scale(Fraction(1, 2))
    assert (2 * w.coords[0]) % 5 == 1
    assert w.coords == (3,)
    assert PVec(s, (17,)).scale(Fraction(0, 1)).is_zero


def test_scalar_act_divisibility_law_random():
    rng = random.Random(7)
    s = PShape(7, (3, 2, 1))
    for _ in range(100):
        v = PVec(s, tuple(rng.randrange(m) for m in s.moduli))
        q = Fraction(rng.randrange(-20, 20), rng.choice([1, 2, 3, 4, 5, 6, 8, 9]))
        w = v.scale(q)
        assert q.denominator * w == q.numerator * v


def test_scalar_act_rejects_p_denominator():
    with pytest.raises(ModArithError):
        PVec(PShape(5, (2,)), (1,)).scale(Fraction(1, 10))


def test_endo_ring_ops():
    s = PShape(5, (1, 1))
    ident = Endo.identity(s)
    zero = Endo.zero(s)
    assert ident.after(zero).is_zero
    swap = Endo(s, ((0, 1), (1, 0)))
    assert swap.after(swap) == ident
    f = Endo(s, ((1, 2), (3, 4)))
    g = Endo(s, ((2, 0), (1, 1)))
    h = Endo(s, ((0, 3), (2, 2)))
    assert f.after(g + h) == f.after(g) + f.after(h)
    # pointwise distributivity on every element
    coords = s.all_coords()
    assert np.array_equal(
        f.after(g + h).apply_batch(coords),
        s.reduce(f.apply_batch(g.apply_batch(coords)) + f.apply_batch(h.apply_batch(coords))),
    )


def test_endo_well_definedness_enforced():
    s = PShape(5, (2, 1))
    # image of the order-5 generator must be killed by 5: (1, 0) is not
    with pytest.raises(ModArithError):
        Endo(s, ((1, 0), (1, 0)))
    Endo(s, ((1, 0), (5, 0)))  # 5*(5,0) = (25,0) = 0: fine


def test_endo_exp_golden():
    s = PShape(5, (2,))
    d = Endo(s, ((5,),))
    e = endo_exp(d, 2)
    assert e == Endo.identity(s) + d
    assert e.apply(PVec(s, (1,))).coords == (6,)
    assert endo_exp(Endo.zero(s), 1) == Endo.identity(s)


def test_endo_log_golden():
    s = PShape(5, (2,))
    f = Endo(s, ((6,),))
    # (f-id)(g) = 5g, (f-id)^2 = 0, so log f = (f-id); the -1/2 term vanishes
    assert endo_log(f, 2) == Endo(s, ((5,),))
    assert endo_log(Endo.identity(s), 1).is_zero


def _random_nilpotent_endo(s: PShape, rng) -> Endo:
    # strictly upper triangular on equal-exponent shapes: nilpotent of index <= rank
    r = s.rank
    mat = np.zeros((r, r), dtype=np.int64)
    for i in range(r):
        for j in range(i + 1, r):
            mat[i, j] = rng.randrange(s.moduli[j])
    return Endo.from_matrix(s, mat)


def test_exp_log_mutually_inverse_random():
    s = PShape(5, (1, 1, 1))
    rng = random.Random(19)
    for _ in range(100):
        d = _random_nilpotent_endo(s, rng)
        f = endo_exp(d, 3)
        assert endo_log(f, 3) == d
        assert endo_exp(endo_log(f, 3), 3) == f


def test_stack_checks_every_map():
    # only the second map of each stack is at fault
    nil = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]  # nonzero square
    with pytest.raises(ModArithError):
        endo_exp(Endo(PShape(3, (1, 1, 1)), [np.zeros((3, 3), dtype=np.int64), nil]), 2)
    with pytest.raises(ModArithError, match="image of g1"):
        Endo(PShape(5, (2, 1)), [[[1, 0], [5, 0]], [[1, 0], [1, 0]]])


_MIXED = PShape(5, (2, 1, 1))


@st.composite
def _raising_stacks(draw):
    # maps raising A > <5g0, g1, g2> > <5g0, g2> > <5g0> > 0, so nilpotent of
    # index <= 4 < p; rows are g0 -> (5a, b, c), g1 -> (5d, 0, e), g2 -> (5f, 0, 0)
    n = draw(st.integers(1, 6))
    a, b, c, d, e, f = np.array(draw(st.lists(st.integers(0, 4), min_size=6 * n, max_size=6 * n))).reshape(6, n)
    mat = np.zeros((n, 3, 3), dtype=np.int64)
    mat[:, 0] = np.stack([5 * a, b, c], axis=-1)
    mat[:, 1, 0], mat[:, 1, 2] = 5 * d, e
    mat[:, 2, 0] = 5 * f
    return mat


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_raising_stacks())
def test_exp_log_on_stacks_match_per_map(mats):
    D = Endo(_MIXED, mats)
    E = endo_exp(D, 4)
    assert endo_log(E, 4) == D
    for i, mat in enumerate(mats):
        assert np.array_equal(E.mat[i], endo_exp(Endo(_MIXED, mat), 4).mat)
        assert np.array_equal(endo_log(E, 4).mat[i], endo_log(Endo(_MIXED, E.mat[i]), 4).mat)


def test_endo_exp_bound_checks():
    s = PShape(3, (1, 1, 1))
    d = Endo.from_matrix(s, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    with pytest.raises(ModArithError):
        endo_exp(d, 3)  # bound 3 >= p = 3
    with pytest.raises(ModArithError):
        endo_exp(d, 2)  # d^2 != 0


def test_abelian_decompose_cyclic_and_klein():
    tab9 = np.add.outer(np.arange(9), np.arange(9)) % 9
    assert abelian_decompose(tab9).shape == PShape(3, (2,))
    s = PShape(3, (1, 1))
    co = s.all_coords()
    klein = s.index_batch(co[:, None, :] + co[None, :, :])
    assert abelian_decompose(klein).shape == PShape(3, (1, 1))


def test_abelian_decompose_mixed_with_order_census():
    s = PShape(5, (2, 1))
    co = s.all_coords()
    tab = s.index_batch(co[:, None, :] + co[None, :, :])
    # independent oracle: the element-order census of Z/25 (+) Z/5
    orders = {}
    for x in range(125):
        k, y = 1, x
        while y != 0:
            y = tab[y, x]
            k += 1
        orders[k] = orders.get(k, 0) + 1
    assert orders == {1: 1, 5: 24, 25: 100}
    basis = abelian_decompose(tab)
    assert basis.shape == PShape(5, (2, 1))
    # round trip through the bijection
    for x in (3, 17, 124):
        for y in (1, 60):
            assert basis.elem_of_vec(basis.vec_of(x) + basis.vec_of(y)) == tab[x, y]


def test_abelian_decompose_rejects_bad_tables():
    with pytest.raises(ModArithError):
        abelian_decompose(np.array([[0, 1], [1, 1]]))  # not latin
    with pytest.raises(ModArithError):
        abelian_decompose(np.add.outer(np.arange(6), np.arange(6)) % 6)  # not a p-group
    # symmetric latin square that is not a group table (no identity works)
    bad = np.array([[1, 0, 2], [0, 2, 1], [2, 1, 0]])
    with pytest.raises(ModArithError):
        abelian_decompose(bad)


def test_root_of_unity_goldens():
    assert root_of_unity(5, 1) == 2
    assert root_of_unity(3, 2) == 8
    assert pow(8, 2, 9) == 1 and 7 % 3 != 0


def test_root_of_unity_properties():
    for p, e in ((3, 1), (3, 3), (5, 2), (7, 2)):
        xi = root_of_unity(p, e)
        mod = p ** e
        assert pow(xi, p - 1, mod) == 1
        for k in range(1, p - 1):
            assert (pow(xi, k, mod) - 1) % p != 0
        # geometric series vanishes because xi - 1 is a unit
        assert sum(pow(xi, i, mod) for i in range(p - 1)) % mod == 0


def test_root_of_unity_rejects_two():
    with pytest.raises(ModArithError):
        root_of_unity(2, 3)
