import random

import numpy as np
import pytest

import catalogs
from catalogs import ad_endo, verify_lie_table
from lazbrace import freelie
from lazbrace.common import FailedTheoremError, NotLazardError
from lazbrace.liering import (
    LieRingTable,
    _eval_word_batch,
    _fill_group,
    _laz_rows,
    _lazard_degree,
    _schreier,
    FinGroup,
    Filtration,
    LieRingSC,
    add_closure,
    all_add_subgroups,
    bch_eval,
    canonical_filtration,
    canonical_group_filtration,
    group_closure,
    group_root,
    is_lazard,
    laz,
    laz_inv,
    laz_of_table,
    lower_central_series,
    table_to_sc,
    verify_group_table,
    verify_lie,
)
from lazbrace.modarith import ModArithError, PShape, PVec, endo_exp


@pytest.fixture(scope="module")
def heis5():
    return catalogs.heisenberg(5)


def _expected_tables(L: LieRingSC):
    s = L.shape
    co = s.all_coords()
    add = s.index_batch(co[:, None, :] + co[None, :, :])
    br = s.index_batch(L.bracket_batch(co[:, None, :], co[None, :, :]))
    return add, br


def test_verify_lie_zero_and_heisenberg(heis5):
    assert verify_lie(catalogs.abelian(5, (2, 1))).ok
    assert verify_lie(heis5).ok


def test_verify_lie_rejects_bad_constants():
    s = PShape(5, (2, 1))
    # [g1,g2] = g1 is not killed by p^min(e1,e2) = 5
    bad = LieRingSC.from_brackets(s, {(0, 1): (1, 0)})
    rep = verify_lie(bad)
    assert not rep.ok and any("killed" in f for f in rep.failures)


def test_a_check_report_is_true_exactly_when_it_passes(heis5):
    assert bool(verify_lie(heis5)) is True
    rep = verify_lie(LieRingSC.from_brackets(PShape(5, (2, 1)), {(0, 1): (1, 0)}))
    assert rep.ok is False and bool(rep) is False


def test_tables_and_filtrations_are_unhashable(heis5):
    # equality reads whole tables; no hash copies one
    for value in (laz(heis5), lower_central_series(heis5).filtration):
        with pytest.raises(TypeError):
            hash(value)


def test_solvable_but_not_nilpotent_ring():
    # [g1,g2] = g1 over (5;[1,1]): a valid Lie ring, not nilpotent
    s = PShape(5, (1, 1))
    L = LieRingSC.from_brackets(s, {(0, 1): (1, 0)})
    assert verify_lie(L).ok
    ser = lower_central_series(L)
    assert not ser.is_nilpotent
    # the series stabilizes at <g1>
    assert ser.terms[-1] == add_closure(s, [s.unit(0).index])
    assert not is_lazard(L)


def test_lower_central_series_goldens(heis5):
    assert lower_central_series(catalogs.abelian(3, (2,))).nilpotency_class == 1
    ser = lower_central_series(heis5)
    assert ser.nilpotency_class == 2
    g3 = add_closure(heis5.shape, [heis5.shape.unit(2).index])
    assert ser.terms[1] == g3


def test_is_lazard_cases(heis5):
    assert is_lazard(heis5, canonical_filtration(heis5))
    ab = catalogs.abelian(3, (2,))
    assert is_lazard(ab, canonical_filtration(ab))
    # class 3 at p = 3 fails the length bound
    L3 = catalogs.class3_chain(5)
    assert lower_central_series(L3).nilpotency_class == 3
    assert is_lazard(L3)
    s = PShape(3, (1, 1, 1, 1))
    L33 = LieRingSC.from_brackets(s, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
    assert not is_lazard(L33)


def test_filtration_validation_rejects_non_ideal(heis5):
    s = heis5.shape
    full = frozenset(range(s.order))
    bad = Filtration((full, add_closure(s, [s.unit(0).index]), frozenset({0})))
    with pytest.raises(ModArithError):
        is_lazard(heis5, bad)


def test_empty_filtration_rejected():
    # a check that python -O keeps, unlike an assert
    with pytest.raises(ModArithError):
        Filtration(())


def test_malformed_chains_rejected():
    # a chain that does not nest, or does not start at the carrier 0..n-1,
    # has no level function
    full = frozenset(range(9))
    for chain in ((full, frozenset({0, 3, 6}), frozenset({0, 1})),
                  (full, frozenset({0, 9}), frozenset({0})),
                  (frozenset(range(1, 10)), frozenset({1})),
                  (frozenset({0, 3, 6}), frozenset({0}))):
        with pytest.raises(ModArithError):
            Filtration(chain)
    # a repeated term is allowed: the chain need not be strict
    F = Filtration((full, frozenset({0, 3, 6}), frozenset({0, 3, 6}), frozenset({0})))
    assert F.level.tolist() == [4, 1, 1, 3, 1, 1, 3, 1, 1] and F.length == 3
    assert F.terms[1] == F.term(3) == frozenset({0, 3, 6}) and F.term(7) == frozenset({0})


def test_bch_eval_abelian_is_addition():
    L = catalogs.abelian(5, (2, 1))
    F = canonical_filtration(L)
    rng = random.Random(3)
    for _ in range(20):
        a = PVec(L.shape, (rng.randrange(25), rng.randrange(5)))
        b = PVec(L.shape, (rng.randrange(25), rng.randrange(5)))
        assert bch_eval(L, F, a, b) == a + b


def test_bch_eval_heisenberg_golden(heis5):
    F = canonical_filtration(heis5)
    s = heis5.shape
    v = bch_eval(heis5, F, s.unit(0), s.unit(1))
    assert v.coords == (1, 1, 3)  # x + y + (1/2)[x,y], 1/2 = 3 mod 5


def test_bch_eval_inverse_law(heis5):
    F = canonical_filtration(heis5)
    s = heis5.shape
    rng = random.Random(5)
    for _ in range(100):
        a = PVec(s, tuple(rng.randrange(5) for _ in range(3)))
        assert bch_eval(heis5, F, a, -a).is_zero


def test_laz_heisenberg_is_extraspecial(heis5):
    G = laz(heis5)
    assert G.order == 125
    assert verify_group_table(G.table).ok  # includes full associativity at 125
    # exponent 5 and 124 non-identity elements of order 5
    orders = G.element_orders
    assert G.exponent == 5
    assert int((orders == 5).sum()) == 124
    # nonabelian
    assert not np.array_equal(G.table, G.table.T)


def test_laz_abelian_is_addition():
    L = catalogs.abelian(7, (2,))
    G = laz(L)
    add, _ = _expected_tables(L)
    assert np.array_equal(G.table, add)


def test_laz_refuses_class_ge_p():
    s = PShape(3, (1, 1, 1, 1))
    L = LieRingSC.from_brackets(s, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
    with pytest.raises(NotLazardError):
        laz(L)


def test_group_root_golden():
    G = FinGroup(np.add.outer(np.arange(25), np.arange(25)) % 25, 0)
    assert group_root(G, 10, 1) == 10
    h = group_root(G, 10, 2)
    assert h == 5 and (2 * h) % 25 == 10
    rng = random.Random(11)
    for _ in range(50):
        g = rng.randrange(25)
        n = rng.choice([1, 2, 3, 4, 6, 7, 8, 9, 11])
        h = group_root(G, g, n)
        assert G.power_batch(np.asarray([h]), n)[0] == g
    with pytest.raises(ModArithError):
        group_root(G, 3, 10)


def test_laz_inv_abelian_group():
    G = FinGroup(np.add.outer(np.arange(9), np.arange(9)) % 9, 0)
    T = laz_inv(G)
    assert np.array_equal(T.add, G.table)
    assert (T.bracket == 0).all()
    assert verify_lie_table(T).ok


def test_laz_inv_extraspecial_27(data_dir):
    from lazbrace import formats

    kind, G = formats.parse_file(data_dir / "extraspecial_27.grp")
    assert kind == "group"
    ser = canonical_group_filtration(G)
    assert ser.nilpotency_class == 2 and len(ser.terms[1]) == 3
    assert G.exponent == 3
    T = laz_inv(G)
    assert verify_lie_table(T).ok
    L, basis = table_to_sc(T)
    assert L.shape == PShape(3, (1, 1, 1))
    assert lower_central_series(L).nilpotency_class == 2
    # round trip back to the exact same Cayley table
    assert laz_of_table(T) == G


def test_round_trips_on_small_instances(heis5):
    for L in (catalogs.abelian(3, (1, 1)), heis5, catalogs.class3_chain(5)):
        G = laz(L)
        T = laz_inv(G)
        add, br = _expected_tables(L)
        assert np.array_equal(T.add, add)
        assert np.array_equal(T.bracket, br)
        assert laz_of_table(T) == G


def test_canonical_group_filtration_gates_laz_inv():
    G5 = laz(catalogs.class3_chain(5))
    assert canonical_group_filtration(G5).nilpotency_class == 3
    assert laz_inv(G5).order == 625  # class 3 < 5: allowed
    # a class-3 group at p = 3 must refuse
    s = PShape(3, (1, 1, 1, 1))
    L = LieRingSC.from_brackets(s, {(0, 1): (0, 0, 1, 0), (0, 2): (0, 0, 0, 1)})
    co = s.all_coords()
    # build the group table directly from the field-style collection formula
    # of the class-3 chain is not available at p = 3 (not Lazard), so gate
    # on a handmade filtration of the abelian group instead
    Gab = FinGroup(s.index_batch(co[:, None, :] + co[None, :, :]), 0)
    full = frozenset(range(s.order))
    chain = [full]
    for i in (1, 2, 3):
        chain.append(add_closure(s, [s.index_of((0, 0, 0, 1))] if i < 3 else []))
    chain[-1] = frozenset({0})
    F = Filtration((full, chain[1], chain[1], frozenset({0})))
    with pytest.raises(NotLazardError):
        laz_inv(Gab, F)  # length 3 >= p = 3


def test_conjugation_identity(heis5):
    # BCH(a, BCH(b, -a)) equals exp(ad_a)(b)
    F = canonical_filtration(heis5)
    s = heis5.shape
    rng = random.Random(23)
    for _ in range(60):
        a = PVec(s, tuple(rng.randrange(5) for _ in range(3)))
        b = PVec(s, tuple(rng.randrange(5) for _ in range(3)))
        lhs = bch_eval(heis5, F, a, bch_eval(heis5, F, b, -a))
        rhs = endo_exp(ad_endo(heis5, a), 2).apply(b)
        assert lhs == rhs


def test_functoriality_smoke(heis5):
    # phi: g1 -> g1 + g2, g2 -> g2, g3 -> g3 is a Lie automorphism of the
    # Heisenberg ring; the same map must respect the BCH product
    s = heis5.shape
    mat = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    from lazbrace.modarith import Endo

    phi = Endo.from_matrix(s, mat)
    co = s.all_coords()
    phi_idx = s.index_batch(phi.apply_batch(co))
    assert np.unique(phi_idx).size == s.order
    # automorphism of the ring
    lhs = s.index_batch(heis5.bracket_batch(phi.apply_batch(co)[:, None, :], phi.apply_batch(co)[None, :, :]))
    rhs = phi_idx[s.index_batch(heis5.bracket_batch(co[:, None, :], co[None, :, :]))]
    assert np.array_equal(lhs, rhs)
    G = laz(heis5)
    assert np.array_equal(G.table[phi_idx[:, None], phi_idx[None, :]], phi_idx[G.table])


def test_subring_subgroup_correspondence(heis5):
    # additive subgroups closed under the bracket are exactly the subsets
    # closed under the BCH product, exhaustively at order 125
    s = heis5.shape
    G = laz(heis5)
    for S in all_add_subgroups(s):
        arr = np.asarray(sorted(S), dtype=np.int64)
        bracket_closed = set(
            int(v)
            for v in np.unique(
                s.index_batch(heis5.bracket_batch(s.coords_batch(arr)[:, None, :], s.coords_batch(arr)[None, :, :]))
            )
        ) <= S
        bch_closed = set(int(v) for v in np.unique(G.table[arr[:, None], arr[None, :]])) <= S
        assert bracket_closed == bch_closed, sorted(S)


def test_group_closure_utility(heis5):
    G = laz(heis5)
    g3 = group_closure(G, [heis5.shape.unit(2).index])
    assert len(g3) == 5


def _cyclic_rows(n: int):
    return lambda X: (np.asarray(X)[:, None] + np.arange(n)) % n


def test_schreier_tree_names_the_first_unreached_element():
    n = 9  # Z/9 under addition: 3 generates only {0, 3, 6}
    with pytest.raises(FailedTheoremError, match="misses element 1$"):
        _schreier(n, 0, _cyclic_rows(n), [3])
    tree = _schreier(n, 0, _cyclic_rows(n), [3], grow=True)
    assert tree.gens == [3, 1, 3] and tree.powers == [0, 0, 3]  # 1 joins with its power 3 * 1
    assert np.array_equal(_fill_group(tree), np.add.outer(np.arange(n), np.arange(n)) % n)


def test_schreier_tree_of_a_cyclic_group_stays_shallow():
    n = 625  # the power generators 5, 25 and 125 of 1: four base-5 digits, 624 levels with 1 alone
    tree = _schreier(n, 0, _cyclic_rows(n), [1])
    assert len(tree.levels) == 16 and tree.gens == [1, 5, 25, 125] and tree.powers == [0, 5, 5, 5]
    assert np.array_equal(tree.rows, _cyclic_rows(n)(tree.gens))
    assert np.array_equal(_fill_group(tree), np.add.outer(np.arange(n), np.arange(n)) % n)


def test_lazard_trees_of_a_7_2_2_ring_stay_shallow():
    # [e0, e1] = 7 e1 on Z/49 + Z/49, class 2: with the power generators 7 u
    # of the unit vectors u, laz's tree has 18 levels (55 without them) and
    # laz_inv's grown tree 25 (97 without them)
    L = LieRingSC.from_brackets(PShape(7, (2, 2)), {(0, 1): (0, 7)})
    units = [u.index for u in L.shape.units()]
    tree = _schreier(2401, 0, lambda X: _laz_rows(L, _lazard_degree(L), L.shape.carrier, X), units)
    assert tree.gens == [1, 7, 49, 343] and tree.powers == [0, 7, 0, 7] and len(tree.levels) == 18
    G = laz(L)
    assert np.array_equal(_fill_group(tree), G.table)
    T = laz_inv(G)
    p_word = freelie.inverse_words(canonical_group_filtration(G).filtration.length)[0]
    P = lambda X: [_eval_word_batch(G, p_word, np.full(2401, g), np.arange(2401)) for g in X]
    tree = _schreier(2401, G.identity, P, [], grow=True)
    assert tree.gens == [1, 7, 49, 343] and len(tree.levels) == 25
    assert np.array_equal(_fill_group(tree), T.add)
    assert np.array_equal(laz_of_table(T).table, G.table)


def test_table_to_sc_names_the_first_non_biadditive_pair(heis5):
    T = laz_inv(laz(heis5))
    _, basis = table_to_sc(T)
    a, b = 7, 11  # neither is a generator element of the decomposition
    assert a not in basis.gens and b not in basis.gens
    bracket = T.bracket.copy()
    bracket[a, b] = T.add[bracket[a, b], a]
    with pytest.raises(FailedTheoremError, match=r"at \(a,b\)=\(7,11\)$"):
        table_to_sc(LieRingTable(T.add, bracket, T.zero))
