import numpy as np
import pytest

import catalogs
from catalogs import _comm_set, holomorph_plus_order, oracle_regular_subgroups, trivial_brace
from lazbrace.common import FailedTheoremError, IdealLevel
from lazbrace.liering import FinGroup, Filtration, canonical_group_filtration, group_closure, laz
from lazbrace.modarith import ModArithError, PShape
from lazbrace.skewbrace import (
    adjoint_group_filtration,
    all_group_chains,
    holomorph_plus,
    SkewBrace,
    aut_plus,
    automorphisms,
    circ_nilpotency_bound,
    classify_subset_brace,
    enumerate_braces,
    enumerate_braces_via_chains,
    ideal_type_brace,
    isomorphism_classes,
    l_series_brace,
    lambda_and_star,
    left_series_brace,
    minimal_generators,
    nilpotency_decomposition_brace,
    power_set_ideals,
    regular_subgroups,
    strong_series_brace,
    substructures_brace,
    verify_skew_brace,
)


@pytest.fixture(scope="module")
def radical25():
    return catalogs.radical_brace(5, 2)


def _cyclic(n):
    return FinGroup(np.add.outer(np.arange(n), np.arange(n)) % n, 0)


def test_verify_trivial_brace():
    B = trivial_brace(_cyclic(9))
    rep = verify_skew_brace(B)
    assert rep.ok and B.is_brace


def test_a_brace_is_unhashable(radical25):
    with pytest.raises(TypeError):
        hash(radical25)


def test_verify_radical_brace(radical25):
    rep = verify_skew_brace(radical25)
    assert rep.ok and radical25.is_brace


def test_verify_nonabelian_trivial_skew_brace():
    G = laz(catalogs.heisenberg(5))
    B = trivial_brace(G)
    rep = verify_skew_brace(B)
    assert rep.ok and not B.is_brace
    lam, star = lambda_and_star(B)
    assert np.array_equal(lam, np.tile(np.arange(125), (125, 1)))  # lambda = id
    assert (star == 0).all()


def test_verify_catches_broken_compatibility():
    dot = _cyclic(9)
    circ = FinGroup(np.add.outer(np.arange(9), 2 * np.arange(9)) % 9, 0)
    rep = verify_skew_brace(SkewBrace(dot, circ))
    assert not rep.ok


def test_lambda_star_radical_oracle(radical25):
    # ring oracle: lambda_a = multiplication by 1 + a, star = ring product,
    # both written in the 5u coordinates of the ideal inside Z/125
    lam, star = lambda_and_star(radical25)
    u = np.arange(25)
    assert np.array_equal(star, (5 * u[:, None] * u[None, :]) % 25)
    expected_lam = (u[None, :] + 5 * u[:, None] * u[None, :]) % 25
    assert np.array_equal(lam, expected_lam)


def test_star_is_lambda_times_inverse():
    from lazbrace.lazcorr import post_lie_to_brace

    # a*b = lambda_a(b) b^-1 by its definition, one pair at a time, on a
    # brace where a*b and b*a differ
    B = post_lie_to_brace(catalogs.prelie_antisym(3)).brace
    lam, star = lambda_and_star(B)
    dot = B.dot
    want = np.array([[dot.mul(int(lam[a, b]), int(dot.inv[b])) for b in range(27)] for a in range(27)])
    assert (want != want.T).any()
    assert np.array_equal(star, want)


def test_l_series_radical(radical25):
    ser = l_series_brace(radical25)
    assert ser.nilpotency_class == 2
    assert ser.terms[1] == frozenset(range(0, 25, 5))
    assert nilpotency_decomposition_brace(radical25) == (True, True, True)


def test_l_series_flow_image_matches_source():
    from lazbrace.lazcorr import post_lie_to_brace
    from lazbrace.postlie import l_series

    P = catalogs.prelie_selfsquare(5)
    flow = post_lie_to_brace(P)
    assert l_series_brace(flow.brace).nilpotency_class == l_series(P).nilpotency_class == 2


def test_circ_nilpotency_bound(radical25):
    k, circ_class = circ_nilpotency_bound(radical25)
    assert k == 2 and circ_class <= 2
    B = trivial_brace(_cyclic(3))
    assert circ_nilpotency_bound(B) == (1, 1)


def test_substructures_radical_ring_oracle(radical25):
    # brute-force ring oracle: annihilator of the ring 5Z/125Z
    ring = [5 * u for u in range(25)]
    ann_ring = {a for a in ring if all((a * b) % 125 == 0 for b in ring)}
    expected = frozenset(a // 5 for a in ann_ring)  # back to carrier coordinates
    fix, soc, ann = substructures_brace(radical25)
    assert soc == ann == expected
    assert soc <= fix


def test_substructures_trivial():
    B = trivial_brace(_cyclic(9))
    full = frozenset(range(9))
    assert substructures_brace(B) == (full, full, full)


def test_ideal_type_cases(radical25):
    full = frozenset(range(25))
    assert classify_subset_brace(radical25, full) == IdealLevel.IDEAL
    fix, soc, ann = substructures_brace(radical25)
    assert classify_subset_brace(radical25, soc) == IdealLevel.IDEAL
    assert ideal_type_brace(radical25, [5]) == IdealLevel.IDEAL
    # a non-lambda-stable subgroup of some brace: use an order-9 instance
    for _, B in catalogs.order9_braces():
        if B.dot.order != 9 or np.array_equal(B.circ.table, B.dot.table):
            continue
        subs = [group_closure(B.dot, [x]) for x in range(9)]
        levels = {classify_subset_brace(B, S) for S in subs}
        if IdealLevel.SUB in levels or IdealLevel.NOT_CLOSED in levels:
            break
    else:
        pytest.skip("no non-stable subgroup found at order 9")


def test_power_set_ideals(radical25):
    out = power_set_ideals(radical25, 5)
    assert out["powers"] == frozenset(range(0, 25, 5))
    assert out["torsion"] == frozenset(range(0, 25, 5))
    # unit exponent: powers cover everything, torsion is trivial
    out = power_set_ideals(radical25, 7)
    assert out["powers"] == frozenset(range(25))
    assert out["torsion"] == frozenset({0})
    # the full order gives trivial powers
    out = power_set_ideals(radical25, 25)
    assert out["powers"] == frozenset({0})
    assert out["torsion"] == frozenset(range(25))


def test_strong_series(radical25):
    ser = strong_series_brace(radical25)
    assert ser.nilpotency_class == 2
    assert [len(t) for t in ser.terms] == [25, 5, 1]
    # radical line of length 3 at p = 3 has strong class 3
    B = catalogs.radical_brace(3, 3)
    ser3 = strong_series_brace(B)
    assert ser3.nilpotency_class == 3


def test_minimal_generators_and_automorphisms():
    G9 = _cyclic(9)
    assert len(minimal_generators(G9)) == 1
    assert len(automorphisms(G9)) == 6
    s = PShape(3, (1, 1))
    A = catalogs.shape_group(s)
    assert len(automorphisms(A)) == 48  # |GL(2,3)|
    H = laz(catalogs.heisenberg(3))
    auts = automorphisms(H)
    assert len(auts) == 432


def test_aut_plus_unit_filtration():
    # Z/5 with the length-1 chain: only the identity raises it
    A = _cyclic(5)
    F = Filtration((frozenset(range(5)), frozenset({0})))
    assert len(aut_plus(A, F)) == 1
    assert holomorph_plus_order(A, F) == 5


def test_aut_plus_z25_unit_group_oracle():
    # Z/25 with 25 > 5 > 1: exactly the maps x -> (1+5t)x
    A = _cyclic(25)
    F = Filtration((frozenset(range(25)), frozenset(range(0, 25, 5)), frozenset({0})))
    auts = aut_plus(A, F)
    expected = {tuple((np.arange(25) * (1 + 5 * t)) % 25) for t in range(5)}
    assert {tuple(int(v) for v in a) for a in auts} == expected
    assert holomorph_plus_order(A, F) == 125


def test_regular_subgroups_z5():
    A = _cyclic(5)
    F = Filtration((frozenset(range(5)), frozenset({0})))
    out = regular_subgroups(A, F)
    assert len(out) == 1
    assert out[0] == trivial_brace(A)


def test_two_oracles_agree_on_order_nine():
    for exps in ((2,), (1, 1)):
        A = catalogs.shape_group(PShape(3, exps))
        chains = []
        full = frozenset(range(9))
        # the canonical maximal chains at order 9
        subs = [group_closure(A, [x]) for x in range(1, 9)]
        lines = sorted({S for S in subs if len(S) == 3}, key=sorted)
        for V in lines:
            chains.append(Filtration((full, V, frozenset({0}))))
        for F in chains:
            assert _circ_keys(regular_subgroups(A, F)) == _circ_keys(oracle_regular_subgroups(A, F))
        assert len(enumerate_braces(A)) == len(enumerate_braces_via_chains(A))


def _circ_keys(braces) -> list[bytes]:
    return [B.circ.table.tobytes() for B in braces]


def test_regular_subgroups_match_the_closure_oracle_in_order_on_every_chain():
    A = catalogs.shape_group(PShape(3, (2, 1)))
    chains = all_group_chains(A, 2)
    assert len(chains) == 9
    found = [_circ_keys(regular_subgroups(A, F)) for F in chains]
    assert found == [_circ_keys(oracle_regular_subgroups(A, F)) for F in chains]
    assert [len(keys) for keys in found] == [1, 9, 81, 3, 9, 9, 3, 3, 27]


def test_every_enumerated_brace_verifies_and_has_small_class():
    for _, B in catalogs.order9_braces():
        assert verify_skew_brace(B).ok
        ser = canonical_group_filtration(B.dot)
        assert ser.is_nilpotent and ser.nilpotency_class < 3


def test_isomorphism_dedup_order_nine():
    counts = {}
    for exps in ((2,), (1, 1)):
        A = catalogs.shape_group(PShape(3, exps))
        braces = enumerate_braces(A)
        counts[exps] = (len(braces), len(isomorphism_classes(braces)))
    assert counts[(2,)] == (3, 2)
    assert counts[(1, 1)] == (9, 2)


def test_holomorph_plus_materialized():
    from lazbrace.liering import verify_group_table

    A = _cyclic(25)
    F = Filtration((frozenset(range(25)), frozenset(range(0, 25, 5)), frozenset({0})))
    hol, pairs = holomorph_plus(A, F)
    assert hol.order == 125 and len(pairs) == 125
    assert verify_group_table(hol.table).ok
    p, k = 5, 0
    n = hol.order
    while n % p == 0:
        n //= p
        k += 1
    assert n == 1  # a power of p
    A5 = _cyclic(5)
    F5 = Filtration((frozenset(range(5)), frozenset({0})))
    hol5, _ = holomorph_plus(A5, F5)
    assert hol5.order == 5
    assert np.array_equal(hol5.table, A5.table)  # Aut_1 = {id}: Hol^+ is A itself


def test_brace_l_series_is_a_filtration(radical25):
    for B in (radical25, catalogs.radical_brace(5, 3)):
        terms = l_series_brace(B).terms
        for i, ti in enumerate(terms, start=1):
            for j, tj in enumerate(terms, start=1):
                target = terms[min(i + j, len(terms)) - 1]
                assert _comm_set(B.dot, ti, tj) <= target


def test_brace_left_series_equals_l_series_for_braces(radical25):
    # abelian dot: the commutator generators vanish, the two series agree
    assert left_series_brace(radical25).terms == l_series_brace(radical25).terms


def test_adjoint_group_filtration(radical25):
    F = adjoint_group_filtration(radical25)
    assert F.terms[0] == frozenset(range(25))
    assert F.terms[-1] == frozenset({0})
    assert F.length < 5
    # trivial brace: the adjoint chain equals the L-chain
    B0 = trivial_brace(_cyclic(9))
    F0 = adjoint_group_filtration(B0)
    assert F0.terms == l_series_brace(B0).terms
