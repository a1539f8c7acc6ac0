import gc
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import catalogs
from catalogs import ad_endo, lam_table, trivial_brace
from lazbrace import formats, freelie, lazcorr
from lazbrace.common import FailedTheoremError, NotLazardError
from lazbrace.liering import (Filtration, FinGroup, LieRingSC, LieRingTable, add_closure, bch_eval,
                              canonical_filtration, is_lazard, laz, laz_inv, laz_of_table)
from lazbrace.modarith import Endo, ModArithError, PShape, PVec, _raise_at, _walk, endo_exp, endo_log
from lazbrace.postlie import PostLieRing, adjoint_filtration, circ_ring, l_mul, l_series, verify_post_lie
from lazbrace.skewbrace import (
    SkewBrace,
    adjoint_group_filtration,
    all_group_chains,
    circ_nilpotency_bound,
    enumerate_braces,
    l_series_brace,
    power_set_ideals,
    regular_subgroups,
    verify_skew_brace,
)
from lazbrace.lazcorr import (
    _require_bijective,
    _sd_bracket,
    _v_batch,
    brace_to_post_lie,
    homogeneous_component,
    lambda_derivative,
    omega_map,
    post_lie_to_brace,
    transfer_report,
    u_eval,
    v_eval,
    w_map,
)


@pytest.fixture(scope="module")
def selfsq5():
    return catalogs.prelie_selfsquare(5)


@pytest.fixture(scope="module")
def radical5_2():
    return catalogs.prelie_radical(5, 2)


@pytest.fixture(scope="module")
def radical_flow(radical5_2):
    return post_lie_to_brace(radical5_2)


def test_v_eval_zero_endo_is_identity(selfsq5):
    s = selfsq5.shape
    for coords in ((1, 2), (4, 0), (3, 3)):
        a = PVec(s, coords)
        assert v_eval(selfsq5, a, Endo.zero(s)) == a


def test_v_eval_golden_selfsquare(selfsq5):
    # V(g1, L_{g1}) = g1 + (1/2) g2 = (1, 3) mod 5
    s = selfsq5.shape
    a = s.unit(0)
    out = v_eval(selfsq5, a, l_mul(selfsq5, a))
    assert out.coords == (1, 3)


def test_v_eval_matches_displayed_truncation():
    # class-3 instance with a nonabelian base: V(a, f) must equal
    # a + (1/2) f(a) + (1/6) f^2(a) + (1/12) [a, f(a)] exactly
    L = catalogs.class3_chain(5)
    P = catalogs.zero_triangle(L)
    F = Filtration(l_series(P).terms)
    s = L.shape
    rng = random.Random(17)
    for _ in range(40):
        a = PVec(s, tuple(rng.randrange(5) for _ in range(4)))
        b = PVec(s, tuple(rng.randrange(5) for _ in range(4)))
        f = ad_endo(L, b)  # the adjoint raises the lower central series
        got = v_eval(P, a, f, F)
        fa = f.apply(a)
        expected = (
            a
            + fa.scale(Fraction(1, 2))
            + f.apply(fa).scale(Fraction(1, 6))
            + L.bracket(a, fa).scale(Fraction(1, 12))
        )
        assert got == expected


def test_v_eval_abelian_closed_form(radical5_2):
    # abelian base: V(a, f) = sum_k (1/k!) f^(k-1)(a)
    s = radical5_2.shape
    F = Filtration(l_series(radical5_2).terms)
    for u in range(25):
        a = s.vec_of_index(u)
        f = l_mul(radical5_2, a)
        expected = s.zero()
        power = a
        fact = 1
        k = 1
        while not power.is_zero:
            expected = expected + power.scale(Fraction(1, fact))
            power = f.apply(power)
            k += 1
            fact *= k
            if k > 6:
                break
        assert v_eval(radical5_2, a, f, F) == expected


def test_v_eval_rejects_non_raising(selfsq5):
    s = selfsq5.shape
    from lazbrace.modarith import ModArithError

    with pytest.raises(ModArithError):
        v_eval(selfsq5, s.unit(0), Endo.identity(s))


def test_w_map_identity_on_zero_triangle():
    P = catalogs.zero_triangle(catalogs.heisenberg(5))
    assert np.array_equal(w_map(P), np.arange(125))


def test_w_map_radical_exp_oracle(radical5_2):
    # ring oracle in Z/125: W(a) = exp(a) - 1 on the ideal 5Z/125Z
    W = w_map(radical5_2)
    inv2 = pow(2, -1, 125)
    inv6 = pow(6, -1, 125)
    for u in range(25):
        a = 5 * u
        w_ring = (a + a * a * inv2 + a * a * a * inv6) % 125
        assert W[u] == (w_ring // 5) % 25 and w_ring % 5 == 0
    assert W[0] == 0
    assert W[1] == 16  # W(5) = 80 = 5 * 16


def test_w_map_identity_on_square_free():
    P = catalogs.prelie_antisym(5)
    assert np.array_equal(w_map(P), np.arange(P.shape.order))


def test_w_map_and_v_eval_validate_a_callers_filtration(radical5_2):
    # L-class 2: (A, 0) is a Lie filtration of the abelian base, but L_a does
    # not map A into 0, and a W truncated at its length 1 would be wrong
    s = radical5_2.shape
    a = s.unit(0)
    short = Filtration((frozenset(range(25)), frozenset({0})))
    for call in (lambda: w_map(radical5_2, short), lambda: v_eval(radical5_2, a, l_mul(radical5_2, a), short)):
        with pytest.raises(ModArithError, match="L_a does not map"):
            call()
    # the canonical chain, passed by hand, passes
    assert np.array_equal(w_map(radical5_2, Filtration(l_series(radical5_2).terms)), w_map(radical5_2))
    # a chain that is not a Lie filtration of the (Heisenberg) base
    H = catalogs.postlie_heis_form(5)
    x = H.shape.unit(0).index
    not_lie = Filtration((frozenset(range(125)), add_closure(H.shape, [x]), frozenset({0})))
    with pytest.raises(ModArithError):
        w_map(H, not_lie)
    # a valid chain of length p is refused as not Lazard
    P3 = catalogs.prelie_radical(3, 3)
    with pytest.raises(NotLazardError):
        w_map(P3, Filtration(l_series(P3).terms))


def test_flow_construction_trivial():
    P = catalogs.zero_triangle(catalogs.abelian(5, (1, 1)))
    flow = post_lie_to_brace(P)
    assert np.array_equal(flow.brace.circ.table, flow.brace.dot.table)


def test_flow_construction_radical(radical_flow):
    u = np.arange(25)
    expected = (u[:, None] + u[None, :] + 5 * u[:, None] * u[None, :]) % 25
    assert np.array_equal(radical_flow.brace.circ.table, expected)
    assert radical_flow.l_class == 2


def test_flow_rejects_non_lazard():
    # the radical line of length 3 at p = 3 has L-class 3 = p
    P = catalogs.prelie_radical(3, 3)
    with pytest.raises(NotLazardError):
        post_lie_to_brace(P)


def test_refusals_name_the_term_where_the_series_stops():
    # the trivial brace on S_3: both series stall at A_3
    S3 = FinGroup(np.array([[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
                            [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]), 0)
    B = trivial_brace(S3)
    with pytest.raises(NotLazardError) as info:
        brace_to_post_lie(B)
    assert str(info.value) == "skew brace is not L-nilpotent: the L-series stops at a term of order 3"
    # a filtration passed in skips the L-series; the dot group's log refuses
    F = Filtration((frozenset(range(6)), frozenset({0, 1, 2}), frozenset({0})))
    with pytest.raises(NotLazardError) as info:
        u_eval(B, 0, lam_table(B)[0], F)
    assert str(info.value) == ("dot group is not nilpotent: the lower central series stops"
                               " at a term of order 3")


def _s3():
    return FinGroup(np.array([[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
                              [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]), 0)


def _d4():
    # r^i s^j at index i + 4 j: (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b + d); class 2 = p
    a, b = np.arange(8) % 4, np.arange(8) // 4
    return FinGroup((a[:, None] + (1 - 2 * b[:, None]) * a) % 4 + 4 * ((b[:, None] + b) % 2), 0)


def _lie_table(L):
    co = L.shape.all_coords()
    return LieRingTable(L.shape.carrier.add, L.shape.index_batch(L.bracket_batch(co[:, None, :], co[None, :, :])), 0)


_NONNIL = LieRingSC.from_brackets(PShape(5, (1, 1)), {(0, 1): (1, 0)})  # stops at <g1>, order 5
_CLASS_P = catalogs.class3_chain(3)
_STOPS = "is not {}nilpotent: the {} stops at a term of order {}"


@pytest.mark.parametrize("name, call, message", [
    ("laz", lambda: laz(_NONNIL), "Lie ring " + _STOPS.format("", "lower central series", 5)),
    ("laz", lambda: laz(_CLASS_P), "Lie ring is not Lazard: class 3 >= p = 3"),
    ("laz", lambda: laz(_CLASS_P, canonical_filtration(_CLASS_P)),
     "Lie ring is not Lazard: filtration length 3 >= p = 3"),
    ("laz_inv", lambda: laz_inv(_s3()), "group " + _STOPS.format("", "lower central series", 3)),
    ("laz_inv", lambda: laz_inv(_d4()), "group is not Lazard: class 2 >= p = 2"),
    ("laz_of_table", lambda: laz_of_table(_lie_table(_NONNIL)),
     "table Lie ring " + _STOPS.format("", "lower central series", 5)),
    ("laz_of_table", lambda: laz_of_table(_lie_table(_CLASS_P)), "table Lie ring is not Lazard: class 3 >= p = 3"),
    ("bch_eval", lambda: bch_eval(_NONNIL, None, *_NONNIL.shape.units()),
     "Lie ring " + _STOPS.format("", "lower central series", 5)),
    ("bch_eval", lambda: bch_eval(_CLASS_P, None, *_CLASS_P.shape.units()[:2]),
     "Lie ring is not Lazard: class 3 >= p = 3"),
    ("w_map", lambda: w_map(catalogs.zero_triangle(_NONNIL)), "post-Lie ring " + _STOPS.format("L-", "L-series", 5)),
    ("w_map", lambda: w_map(catalogs.prelie_radical(3, 3)), "post-Lie ring is not Lazard: L-class 3 >= p = 3"),
    ("post_lie_to_brace", lambda: post_lie_to_brace(catalogs.zero_triangle(_NONNIL)),
     "post-Lie ring " + _STOPS.format("L-", "L-series", 5)),
    ("post_lie_to_brace", lambda: post_lie_to_brace(catalogs.prelie_radical(3, 3)),
     "post-Lie ring is not Lazard: L-class 3 >= p = 3"),
    ("u_eval", lambda: u_eval(trivial_brace(_s3()), 0, np.arange(6)),
     "dot group " + _STOPS.format("", "lower central series", 3)),
    ("u_eval", lambda: u_eval(trivial_brace(_d4()), 0, np.arange(8)), "dot group is not Lazard: class 2 >= p = 2"),
    ("brace_to_post_lie", lambda: brace_to_post_lie(trivial_brace(_s3())),
     "skew brace " + _STOPS.format("L-", "L-series", 3)),
    ("brace_to_post_lie", lambda: brace_to_post_lie(trivial_brace(_d4())),
     "skew brace is not Lazard: L-class 2 >= p = 2"),
    ("adjoint_filtration", lambda: adjoint_filtration(catalogs.zero_triangle(_NONNIL)),
     "post-Lie ring " + _STOPS.format("L-", "L-series", 5)),
    ("circ_nilpotency_bound", lambda: circ_nilpotency_bound(trivial_brace(_s3())),
     "skew brace " + _STOPS.format("L-", "L-series", 3)),
    ("power_set_ideals", lambda: power_set_ideals(trivial_brace(_d4()), 2),
     "skew brace is not Lazard: L-class 2 >= p = 2"),
    ("adjoint_group_filtration", lambda: adjoint_group_filtration(trivial_brace(_s3())),
     "skew brace " + _STOPS.format("L-", "L-series", 3)),
])
def test_the_lazard_gate_refuses_in_one_of_two_forms(name, call, message):
    # every construction refuses a structure whose series stops, or whose
    # filtration is not shorter than p, through the one gate
    with pytest.raises(NotLazardError) as info:
        call()
    assert str(info.value) == message, name


def test_is_lazard_is_the_gate_as_a_verdict():
    assert not is_lazard(_NONNIL) and not is_lazard(_CLASS_P)
    assert not is_lazard(_CLASS_P, canonical_filtration(_CLASS_P))
    L = LieRingSC.from_brackets(PShape(5, (1, 1, 1)), {(0, 1): (0, 0, 1)})
    assert is_lazard(L)
    with pytest.raises(ModArithError):  # a caller's chain is validated: (L, 0) is no filtration of this L
        is_lazard(L, Filtration((frozenset(range(125)), frozenset({0}))))


def test_bch_eval_defaults_to_the_lower_central_series():
    L = catalogs.filiform(5, 5, 4)
    F = canonical_filtration(L)
    rng = np.random.default_rng(3)
    for a, b in rng.integers(0, 5, size=(20, 2, 5)):
        a, b = PVec(L.shape, tuple(a)), PVec(L.shape, tuple(b))
        assert bch_eval(L, None, a, b) == bch_eval(L, F, a, b)


def test_u_eval_identity_automorphism(radical_flow):
    B = radical_flow.brace
    for a in (0, 7, 24):
        assert u_eval(B, a, np.arange(25)) == a


def test_u_eval_and_omega_radical_log_oracle(radical_flow):
    B = radical_flow.brace
    Om = omega_map(B)
    inv2 = pow(2, -1, 125)
    inv3 = pow(3, -1, 125)
    for u in range(25):
        a = 5 * u
        om_ring = (a - a * a * inv2 + a * a * a * inv3) % 125
        assert Om[u] == (om_ring // 5) % 25
    assert Om[16] == 1  # Omega(80) = 5


def test_u_eval_degree_two_factor_word(radical_flow):
    # the first commutator factor of the holomorph word has carrier part
    # lam^-1(a)^-1 . a and global exponent -1/2
    B = radical_flow.brace
    lam = lam_table(B)
    dot = B.dot
    for a in (3, 11, 20):
        al = lam[a]
        al_inv = np.empty_like(al)
        al_inv[al] = np.arange(25)
        d2 = dot.table[dot.inv[al_inv[a]], a]
        # class 2: U(a, lam_a) = a . (d2)^(-1/2)
        e = 25
        m = (-1 * pow(2, -1, e)) % e
        expected = dot.table[a, dot.power_batch(np.asarray([d2]), m)[0]]
        assert u_eval(B, a, al) == expected


def test_omega_inverts_w(radical_flow):
    assert np.array_equal(radical_flow.omega[radical_flow.w], np.arange(25))
    B = radical_flow.brace
    assert np.array_equal(omega_map(B), radical_flow.omega)


def test_log_construction_trivial():
    B = trivial_brace(catalogs.shape_group(PShape(5, (1, 1))))
    log = brace_to_post_lie(B)
    assert (log.post_lie.tri == 0).all()
    assert log.post_lie.base.is_abelian()


def test_log_construction_radical(radical_flow, radical5_2):
    log = brace_to_post_lie(radical_flow.brace)
    assert np.array_equal(log.post_lie.tri, radical5_2.tri)
    assert np.array_equal(log.post_lie.base.sc, radical5_2.base.sc)


def test_mutual_inverse_on_samples():
    for P in (
        catalogs.prelie_selfsquare(3),
        catalogs.postlie_heis_form(5),
        catalogs.postlie_heis_negbracket(7),
        catalogs.prelie_radical(7, 3),
    ):
        flow = post_lie_to_brace(P)
        back = brace_to_post_lie(flow.brace)
        assert np.array_equal(back.post_lie.tri, P.tri)
        assert np.array_equal(back.post_lie.base.sc, P.base.sc)
        assert np.array_equal(back.basis.elem_of, np.arange(P.shape.order))


def test_round_trips_at_lie_class_p_minus_1():
    # the filiform ring [g1, gi] = g(i+1), i = 2..4, on (5; 1^5) has class
    # 4 = p - 1, the edge of the theorem: a BCH fold cut at degree 3 breaks
    # the flow's own checks
    L = LieRingSC.from_brackets(PShape(5, (1, 1, 1, 1, 1)), {(0, 1): (0, 0, 1, 0, 0), (0, 2): (0, 0, 0, 1, 0),
                                                             (0, 3): (0, 0, 0, 0, 1)})
    for P in (catalogs.zero_triangle(L), PostLieRing(L, L.shape.reduce(-L.sc))):
        flow = post_lie_to_brace(P, check=True)
        log = brace_to_post_lie(flow.brace, check=True)
        assert flow.l_class == log.l_class == 4
        assert formats.write_text(log.post_lie) == formats.write_text(P)


def test_functoriality_of_the_flow(selfsq5):
    # an automorphism of the post-Lie ring is a brace automorphism of the image
    s = selfsq5.shape
    mat = np.array([[2, 0], [0, 4]], dtype=np.int64)  # g1 -> 2g1, g2 -> 4g2
    phi = Endo.from_matrix(s, mat)
    co = s.all_coords()
    # triangle-compatible: phi(a > b) = phi(a) > phi(b) on generators
    units = np.eye(2, dtype=np.int64)
    for i in range(2):
        for j in range(2):
            lhs = phi.apply_batch(selfsq5.tri_batch(units[i], units[j]))
            rhs = selfsq5.tri_batch(phi.apply_batch(units[i]), phi.apply_batch(units[j]))
            assert np.array_equal(s.reduce(lhs), s.reduce(rhs))
    flow = post_lie_to_brace(selfsq5)
    pidx = s.index_batch(phi.apply_batch(co))
    for table in (flow.brace.dot.table, flow.brace.circ.table):
        assert np.array_equal(table[pidx[:, None], pidx[None, :]], pidx[table])


def test_gamma_splitting_smoke(selfsq5):
    # gamma(a, x) = (V(a, x), x) respects the two product structures on
    # sampled pairs, with lambda_x = exp(x)
    s = selfsq5.shape
    F = Filtration(l_series(selfsq5).terms)
    k = F.length
    terms = [t for t in freelie.bch_basis_terms(k) if t[0] <= k]
    rng = random.Random(31)

    def sd_bch(x, y):
        memo = {0: x, 1: y}

        def ev(tree):
            if tree in memo:
                return memo[tree]
            out = _sd_bracket(selfsq5, ev(tree[0]), ev(tree[1]))
            memo[tree] = out
            return out

        acc = (np.zeros(s.rank, dtype=np.int64), np.zeros((s.rank, s.rank), dtype=np.int64))
        for _deg, _w, tree, coeff in terms:
            m = s.scale_multiplier(coeff)
            v, mm = ev(tree)
            acc = (s.reduce(acc[0] + m * v), s.reduce(acc[1] + m * mm))
        return acc

    def gamma(pair):
        vec, mat = pair
        vres = v_eval(selfsq5, s.vec(vec), Endo.from_matrix(s, mat), F)
        return vres, endo_exp(Endo.from_matrix(s, mat), max(k, 1))

    G = laz(selfsq5.base, F)
    for _ in range(30):
        a = np.array([rng.randrange(5), rng.randrange(5)])
        b = np.array([rng.randrange(5), rng.randrange(5)])
        x = l_mul(selfsq5, s.vec(tuple(rng.randrange(5) for _ in range(2)))).matrix()
        y = l_mul(selfsq5, s.vec(tuple(rng.randrange(5) for _ in range(2)))).matrix()
        u, v = (a, x), (b, y)
        va, expx = gamma(u)
        vb, expy = gamma(v)
        # product in the semidirect group: (va, expx)(vb, expy)
        prod_vec = G.table[va.index, s.index_batch(expx.apply_batch(vb.np()))]
        lhs_vec, lhs_exp = gamma(sd_bch(u, v))
        assert lhs_vec.index == prod_vec
        assert lhs_exp == expx.after(expy)
    # gamma fixes the two coordinate axes
    assert v_eval(selfsq5, s.vec((2, 3)), Endo.zero(s), F) == s.vec((2, 3))
    x = l_mul(selfsq5, s.unit(0))
    assert v_eval(selfsq5, s.zero(), x, F).is_zero


def test_transfer_report(selfsq5):
    rep = transfer_report(selfsq5)
    assert rep.ok
    assert rep.subgroups_checked >= 3
    rep0 = transfer_report(catalogs.zero_triangle(catalogs.abelian(3, (1, 1))))
    assert rep0.ok


def test_lambda_derivative_cases(radical_flow):
    # trivial brace: lambda = id, the geometric sum telescopes to zero
    B0 = trivial_brace(catalogs.shape_group(PShape(5, (2,))))
    log0 = brace_to_post_lie(B0)
    out0 = lambda_derivative(B0, log0)
    assert (out0 == 0).all()
    # radical brace of order 25 recovers the ring product
    out = lambda_derivative(radical_flow.brace)
    u = np.arange(25)
    assert np.array_equal(out, (5 * u[:, None] * u[None, :]) % 25)
    # brace of the self-square pre-Lie ring of order 25
    flow = post_lie_to_brace(catalogs.prelie_selfsquare(5))
    log = brace_to_post_lie(flow.brace)
    out2 = lambda_derivative(flow.brace, log)
    assert np.array_equal(out2, log.tri_table)


def test_lambda_derivative_rejects_long_strong_series():
    B = catalogs.radical_brace(3, 3)
    with pytest.raises(NotLazardError):
        lambda_derivative(B)


def test_homogeneous_component_linear():
    s = PShape(5, (2,))
    from lazbrace.modarith import root_of_unity

    xi = root_of_unity(5, 2)
    f = lambda v: 3 * v
    comp1 = homogeneous_component(s, f, 1, xi, 4)
    comp0 = homogeneous_component(s, f, 0, xi, 4)
    comp2 = homogeneous_component(s, f, 2, xi, 4)
    for u in range(25):
        v = s.vec_of_index(u)
        assert comp1(v) == f(v)
        assert comp0(v).is_zero
        assert comp2(v).is_zero


def test_homogeneous_component_mixed_degrees():
    s = PShape(5, (2,))
    from lazbrace.modarith import root_of_unity

    xi = root_of_unity(5, 2)
    c = PVec(s, (7,))

    def f(v):
        return c + 2 * v + (v.coords[0] * v.coords[0]) * s.unit(0)

    for u in range(25):
        v = s.vec_of_index(u)
        assert homogeneous_component(s, f, 0, xi, 4)(v) == c
        assert homogeneous_component(s, f, 1, xi, 4)(v) == 2 * v
        assert homogeneous_component(s, f, 2, xi, 4)(v) == (v.coords[0] ** 2) * s.unit(0)
        assert homogeneous_component(s, f, 3, xi, 4)(v).is_zero


def test_lambda_map_degree_one_component_is_left_multiplication(radical_flow):
    # slice the lambda map at a fixed second argument: its degree-1 part in
    # the first argument is left multiplication
    from lazbrace.modarith import root_of_unity

    B = radical_flow.brace
    log = brace_to_post_lie(B)
    s = log.post_lie.shape
    xi = root_of_unity(5, 2)
    lam = lam_table(B)
    for b in (1, 7, 13):
        def f(v, b=b):
            a_elem = int(log.basis.elem_of[v.index])
            return log.basis.vec_of(int(lam[a_elem, b]))

        comp = homogeneous_component(s, f, 1, xi, 4)
        for u in (0, 2, 9, 24):
            v = s.vec_of_index(u)
            got = comp(v)
            want = log.basis.vec_of(int(log.tri_table[log.basis.elem_of[v.index], b]))
            assert got == want


def test_exp_log_bridge_into_raising_automorphisms(radical_flow, radical5_2):
    # exp maps the logged left multiplications into filtration-raising
    # automorphisms of the dot group, and log inverts them
    from lazbrace.liering import Filtration
    from lazbrace.modarith import endo_log

    s = radical5_2.shape
    F = Filtration(l_series(radical5_2).terms)
    k = F.length
    lam = lam_table(radical_flow.brace)
    for a in range(25):
        La = l_mul(radical5_2, s.vec_of_index(radical_flow.omega[a]))
        E = endo_exp(La, k)
        co = s.all_coords()
        perm = s.index_batch(E.apply_batch(co))
        assert np.array_equal(perm, lam[a])
        assert endo_log(E, k) == La
        # raising: the image of each filtration term shifts one step deeper
        for i, term in enumerate(F.terms):
            deeper = F.terms[i + 1] if i + 1 < len(F.terms) else frozenset({0})
            arr = s.coords_batch(np.asarray(sorted(term)))
            shifted = s.index_batch(s.reduce(E.apply_batch(arr) - arr))
            assert set(int(v) for v in shifted) <= deeper


def test_no_reference_cycles(data_dir):
    """A warm call leaves no cyclic garbage: its arrays are freed by
    reference counting, without waiting for the collector."""
    _, L = formats.parse_file(data_dir / "heisenberg_p5.lie")
    _, G = formats.parse_file(data_dir / "extraspecial_27.grp")
    _, P = formats.parse_file(data_dir / "prelie25_selfsquare.plie")
    _, B = formats.parse_file(data_dir / "radical_25.skb")
    T = laz_inv(G)
    Z9 = catalogs.shape_group(PShape(3, (2,)))
    F9 = Filtration((frozenset(range(9)), frozenset({0, 3, 6}), frozenset({0})))
    ops = {
        "laz": lambda: laz(L),
        "laz_inv": lambda: laz_inv(G),
        "laz_of_table": lambda: laz_of_table(T),
        "post_lie_to_brace": lambda: post_lie_to_brace(P),
        "brace_to_post_lie": lambda: brace_to_post_lie(B),
        "parse_tree": lambda: freelie.parse_tree("[[x,y],[x,[x,y]]]"),
        "enumerate_braces": lambda: enumerate_braces(Z9),
        "regular_subgroups": lambda: regular_subgroups(Z9, F9),
        "all_group_chains": lambda: all_group_chains(G, 2),
    }
    for name, op in ops.items():
        op()  # warm the word and BCH caches
        gc.collect()
        gc.disable()
        try:
            op()
            assert gc.collect() == 0, name
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Per-element references for the stacked maps: one Endo and one series per
# carrier element, as the correspondence was first written.


def _gen_images(P, a):
    units = np.eye(P.shape.rank, dtype=np.int64)
    return P.shape.reduce(np.stack([P.tri_batch(a, units[j]) for j in range(P.shape.rank)]))


def _w_per_element(P, k):
    s = P.shape
    out = np.empty(s.order, dtype=np.int64)
    for idx, a in enumerate(s.all_coords()):
        out[idx] = s.index_batch(_v_batch(P, k, a[None, :], _gen_images(P, a)))[0]
    return out


def _circ_per_element(P, flow):
    s = P.shape
    coords = s.all_coords()
    circ = np.empty((s.order, s.order), dtype=np.int64)
    for a in range(s.order):
        mat = _gen_images(P, coords[flow.omega[a]])
        exp_mat = endo_exp(Endo.from_matrix(s, mat), max(flow.l_class, 1)).matrix()
        circ[a] = flow.brace.dot.table[a, s.index_batch(s.reduce(coords @ exp_mat))]
    return circ


def _tri_table_per_element(B, log):
    s = log.post_lie.shape
    basis = log.basis
    coords_of_elem = s.all_coords()[basis.index_of_elem]
    gens = basis.elem_of[s.index_batch(np.eye(s.rank, dtype=np.int64))]
    tri_table = np.empty((B.order, B.order), dtype=np.int64)
    lam = lam_table(B)
    for x in range(B.order):
        alpha = lam[log.w[x]]
        E = Endo.from_matrix(s, coords_of_elem[alpha[gens]])
        assert np.array_equal(basis.elem_of[s.index_batch(E.apply_batch(coords_of_elem))], alpha)
        log_mat = endo_log(E, max(log.l_class, 1)).matrix()
        tri_table[x] = basis.elem_of[s.index_batch(s.reduce(coords_of_elem @ log_mat))]
    return tri_table


def test_stacked_maps_match_per_element_loops(postlie_cat):
    cases = [(name, P, post_lie_to_brace(P, check=False)) for name, P in postlie_cat]
    for name, P, flow in cases:
        assert np.array_equal(flow.w, _w_per_element(P, flow.l_class)), name
        assert np.array_equal(flow.brace.circ.table, _circ_per_element(P, flow)), name
    braces = [(name, flow.brace) for name, _P, flow in cases]
    for name, B in braces + [("radical_brace_5_2", catalogs.radical_brace(5, 2))]:
        log = brace_to_post_lie(B, check=False)
        tri_table = _tri_table_per_element(B, log)
        assert np.array_equal(log.tri_table, tri_table), name
        # the constants D[W[gens]] against the gather through the triangle table
        s, basis = log.post_lie.shape, log.basis
        gens = basis.elem_of[s.index_batch(np.eye(s.rank, dtype=np.int64))]
        coords_of_elem = s.all_coords()[basis.index_of_elem]
        assert np.array_equal(log.post_lie.tri, coords_of_elem[tri_table[np.ix_(gens, gens)]]), name


# Lie rings of order <= 125 whose [g_i, g_j] lie in the span of later
# generators; the class stays below p (class_cap 2 at p = 3).  Rank 3 or
# more is needed for a bracket, and at p = 7 only rank 2 fits, so the p = 7
# shape gives abelian rings.
_GRADED_SHAPES = [(3, (1, 1, 1)), (3, (2, 1, 1)), (3, (1, 1, 1, 1)), (5, (1, 1, 1)), (7, (1, 1))]


def _graded_ring(shape, seed):
    p, exps = shape
    return catalogs.random_graded(p, exps, seed, class_cap=min(p - 1, 3))


_graded_rings = st.builds(_graded_ring, st.sampled_from(_GRADED_SHAPES), st.integers(0, 2 ** 16))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_graded_rings)
def test_laz_round_trip_property(L):
    G = laz(L)
    assert laz_of_table(laz_inv(G)) == G


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_graded_rings)
def test_brace_round_trip_property(L):
    # log the brace of the zero-triangle ring, flow back, and compare the
    # tables through the logged basis, as the roundtrip command does
    B = post_lie_to_brace(catalogs.zero_triangle(L)).brace
    log = brace_to_post_lie(B)
    back = post_lie_to_brace(log.post_lie).brace
    eo, ie = log.basis.elem_of, log.basis.index_of_elem
    assert np.array_equal(eo[back.dot.table[ie[:, None], ie[None, :]]], B.dot.table)
    assert np.array_equal(eo[back.circ.table[ie[:, None], ie[None, :]]], B.circ.table)


def _relabelled_radical_brace(pe, seed):
    """A radical brace with its carrier moved by a permutation fixing 0."""
    B = catalogs.radical_brace(*pe)
    n = B.order
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(n - 1)])
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    relabel = lambda G: FinGroup(perm[G.table[inv[:, None], inv[None, :]]], 0)
    return SkewBrace(relabel(B.dot), relabel(B.circ))


_written_values = st.one_of(
    # a > b = -[a, b] makes any Lie ring post-Lie, with triangle lines
    _graded_rings.map(lambda L: PostLieRing(L, L.shape.reduce(-L.sc))),
    _graded_rings.map(catalogs.zero_triangle),
    st.builds(_relabelled_radical_brace,
              st.sampled_from([(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]),
              st.integers(0, 2 ** 16)),
)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_written_values)
def test_parse_write_identity_property(value):
    text = formats.write_text(value)
    _, parsed = formats.parse_text(text)
    assert formats.write_text(parsed) == text


@settings(derandomize=True, deadline=None, max_examples=30)
@given(st.one_of(_graded_rings.map(catalogs.zero_triangle),
                 _graded_rings.map(lambda L: PostLieRing(L, L.shape.reduce(-L.sc)))))
def test_omega_inverts_the_flow_property(P):
    flow = post_lie_to_brace(P)
    assert np.array_equal(omega_map(flow.brace), flow.omega)


# ---------------------------------------------------------------------------
# Failure messages name their witnesses.


def test_non_additive_lambda_is_named():
    B = catalogs.twisted_sum(5)
    assert not verify_skew_brace(B).ok
    assert l_series_brace(B).nilpotency_class == 2
    with pytest.raises(ModArithError, match=r"^not a skew brace: \('compatibility fails at "):
        brace_to_post_lie(B)
    # unchecked, the log names the first lambda that is not additive:
    # lambda_1(2) = 2 + (0, 3 * 2 * 3) = (2, 3), its matrix image is (2, 2)
    with pytest.raises(FailedTheoremError,
                       match=r"lambda is not additive over Laz\^-1 of the dot group at \(a,b\)=\(1,2\)$"):
        brace_to_post_lie(B, check=False)
    with pytest.raises(ModArithError, match=r"alpha is not additive over Laz\^-1 of the dot group at \(a,b\)=\(1,2\)$"):
        u_eval(B, np.array([0, 1]), lam_table(B)[:2])
    # a names the element, not its row in the alpha stack: lambda_3(2) = 2,
    # its matrix image is 2 lambda_3(1) = (2, 2)
    with pytest.raises(ModArithError, match=r"alpha is not additive over Laz\^-1 of the dot group at \(a,b\)=\(3,2\)$"):
        u_eval(B, 3, lam_table(B)[3])


def test_a_callers_brace_filtration_is_checked():
    # (A, {0}) is a filtration of the abelian dot group, but lambda_1 moves
    # 1 to 6, so 1*1 = 5 lies outside X_2 = {0}
    B = post_lie_to_brace(catalogs.prelie_radical(5, 2)).brace
    F = Filtration((frozenset(range(25)), frozenset({0})))
    for call in (lambda: u_eval(B, np.arange(25), lam_table(B), F), lambda: omega_map(B, F)):
        with pytest.raises(ModArithError, match=r"^alpha does not raise the filtration at \(a,b\)=\(1,1\)$"):
            call()
    assert u_eval(B, 3, np.arange(25), F) == 3
    for a in (3, np.array([3])):  # named by the element, not by row 0
        with pytest.raises(ModArithError, match=r"^alpha does not raise the filtration at \(a,b\)=\(3,1\)$"):
            u_eval(B, a, lam_table(B)[3], F)
    with pytest.raises(ModArithError, match="^filtration term 2 is not closed$"):
        u_eval(B, 3, lam_table(B)[3], Filtration((frozenset(range(25)), frozenset({0, 1, 2}), frozenset({0}))))


def test_omega_map_names_two_elements_with_one_image(radical_flow, monkeypatch):
    monkeypatch.setattr(lazcorr, "u_eval", lambda B, a, *args, **kwargs: np.minimum(a, 3))
    with pytest.raises(FailedTheoremError, match=r"omega map is not bijective: Omega\(3\) = Omega\(4\)$"):
        omega_map(radical_flow.brace)


def test_witness_helpers():
    # the flow map W, the triangle and the isomorphism checks hold on every
    # input by theorem, so their witnesses are checked on the helpers
    _require_bijective(np.array([2, 0, 1]), "flow map W", "W")
    with pytest.raises(FailedTheoremError, match=r"^flow map W is not bijective: W\(1\) = W\(3\)$"):
        _require_bijective(np.array([2, 0, 1, 0]), "flow map W", "W")
    bad = np.zeros((3, 4), dtype=bool)
    first = lambda: _walk(3, 4, lambda blk: bad[blk])[0]
    _raise_at(first(), "triangle product is not biadditive")
    bad[2, 0] = bad[1, 3] = True
    with pytest.raises(FailedTheoremError, match=r"^triangle product is not biadditive at \(a,b\)=\(1,3\)$"):
        _raise_at(first(), "triangle product is not biadditive")
    with pytest.raises(ModArithError, match=r"^W is not an isomorphism onto the circle group at \(a,b\)=\(1,3\)$"):
        _raise_at(first(), "W is not an isomorphism onto the circle group", ModArithError)
