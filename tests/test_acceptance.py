"""Acceptance suite: one test per criterion, each printing a PASS line with
its own wall time and asserting the stated budget."""

import time
from fractions import Fraction

import numpy as np
import pytest

import acceptance_report
import catalogs
from lazbrace import formats, freelie
from lazbrace.common import IdealLevel, NotLazardError
from lazbrace.liering import (
    FinGroup,
    LieRingSC,
    laz,
    laz_inv,
    laz_of_table,
    lower_central_series,
    verify_lie,
)
from lazbrace.modarith import PShape, PVec, root_of_unity
from lazbrace.postlie import (
    circ_ring,
    enumerate_prelie_ops,
    enumerate_prelie_ops_aff,
    l_series,
    substructures,
)
from lazbrace.skewbrace import (
    circ_nilpotency_bound,
    enumerate_braces,
    enumerate_braces_via_chains,
    l_series_brace,
    power_set_ideals,
    strong_series_brace,
    verify_skew_brace,
)
from lazbrace.lazcorr import (
    brace_to_post_lie,
    homogeneous_component,
    lambda_derivative,
    post_lie_to_brace,
    transfer_report,
)


def _report(n, elapsed, limit, detail=""):
    extra = f" [{detail}]" if detail else ""
    acceptance_report.record(f"ACCEPTANCE {n}: PASS ({elapsed:.2f} s, limit {limit} s){extra}")


@pytest.fixture(scope="module")
def roundtrip_results(postlie_cat):
    """Criterion 4 workload: both directions over the whole catalog, timed."""
    t0 = time.perf_counter()
    flows = {}
    for name, P in postlie_cat:
        flow = post_lie_to_brace(P)
        back = brace_to_post_lie(flow.brace)
        assert np.array_equal(back.post_lie.tri, P.tri), name
        assert np.array_equal(back.post_lie.base.sc, P.base.sc), name
        assert back.post_lie.shape == P.shape, name
        assert np.array_equal(back.basis.elem_of, np.arange(P.shape.order)), name
        flows[name] = flow
    # dual direction: braces built independently of the flow construction
    duals = [("radical_brace_5_2", catalogs.radical_brace(5, 2)),
             ("radical_brace_3_2", catalogs.radical_brace(3, 2))]
    duals += catalogs.order9_braces()
    for name, B in duals:
        log = brace_to_post_lie(B)
        flow2 = post_lie_to_brace(log.post_lie)
        eo, ie = log.basis.elem_of, log.basis.index_of_elem
        assert np.array_equal(eo[flow2.brace.dot.table[ie[:, None], ie[None, :]]], B.dot.table), name
        assert np.array_equal(eo[flow2.brace.circ.table[ie[:, None], ie[None, :]]], B.circ.table), name
    elapsed = time.perf_counter() - t0
    return flows, duals, elapsed


def test_criterion_1_bch_golden_values():
    t0 = time.perf_counter()
    b = freelie.bch_series(4)
    basis = freelie.get_basis(4)
    assert b.coefficient((0, 1)) == Fraction(1, 2)
    assert b.coefficient((0, 0, 1)) == Fraction(1, 12)
    # [y,[y,x]] normalizes to +[[x,y],y]; [y,[x,[x,y]]] to -[x,[[x,y],y]]
    elem = basis.elem_of_tree((1, (1, 0)))
    ((w1, s1),) = elem.coeffs.items()
    assert (w1, s1) == ((0, 1, 1), 1)
    assert b.coefficient(w1) == Fraction(1, 12) * s1
    elem = basis.elem_of_tree((1, (0, (0, 1))))
    ((w2, s2),) = elem.coeffs.items()
    assert (w2, s2) == ((0, 0, 1, 1), -1)
    assert b.coefficient(w2) == Fraction(-1, 24) * s2
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, elapsed, 1)


def test_criterion_2_inverse_word_goldens_and_self_inversion():
    t0 = time.perf_counter()
    P, Q = freelie.derive_inverse_words(4)
    basis = freelie.get_basis(4)
    p_exp = {freelie.tree_word(t): q for t, q in P.factors}
    q_exp = {freelie.tree_word(t): q for t, q in Q.factors}

    def norm(text):
        elem = basis.elem_of_tree(freelie.parse_tree(text, ("g", "h")))
        ((w, c),) = elem.coeffs.items()
        return w, c

    # displayed sum-word exponents (-1/2, 1/12, -1/24, 1/24) after
    # normalization to the Lyndon orientation
    assert p_exp[(0, 1)] == Fraction(-1, 2)
    w, s = norm("[h,[g,h]]")
    assert p_exp[w] * s == Fraction(1, 12)
    w, s = norm("[g,[g,[g,h]]]")
    assert p_exp[w] * s == Fraction(-1, 24)
    w, s = norm("[h,[h,[g,h]]]")
    assert p_exp[w] * s == Fraction(1, 24)
    # displayed bracket-word exponents (1, 1/2, 1/2, 1/3, 1/4, 1/3)
    for text, q in [
        ("[g,h]", Fraction(1)),
        ("[g,[g,h]]", Fraction(1, 2)),
        ("[h,[g,h]]", Fraction(1, 2)),
        ("[g,[g,[g,h]]]", Fraction(1, 3)),
        ("[h,[g,[g,h]]]", Fraction(1, 4)),
        ("[h,[h,[g,h]]]", Fraction(1, 3)),
    ]:
        w, s = norm(text)
        assert q_exp[w] == q * s, text
    # symbolic self-inversion at classes 5 and 6
    for c in (5, 6):
        Pc, Qc = freelie.derive_inverse_words(c)
        bc = freelie.get_basis(c)
        assert freelie.evaluate_group_word(Pc, c) == bc.gen(0) + bc.gen(1)
        assert freelie.evaluate_group_word(Qc, c) == bc.gen(0).bracket(bc.gen(1))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, elapsed, 10)


def _tables_match(L: LieRingSC, T) -> bool:
    s = L.shape
    n = s.order
    co = s.all_coords()
    step = max(1, (1 << 18) // n)
    for start in range(0, n, step):
        stop = min(n, start + step)
        add_blk = s.index_batch(co[start:stop, None, :] + co[None, :, :])
        if not np.array_equal(T.add[start:stop], add_blk):
            return False
        br_blk = s.index_batch(L.bracket_batch(co[start:stop, None, :], co[None, :, :]))
        if not np.array_equal(T.bracket[start:stop], br_blk):
            return False
    return True


def test_criterion_3_lazard_round_trip(lie_cat):
    t0 = time.perf_counter()
    assert len(lie_cat) >= 50
    orders = set()
    for name, L in lie_cat:
        assert verify_lie(L).ok, name
        ser = lower_central_series(L)
        assert ser.is_nilpotent and ser.nilpotency_class <= 3, name
        G = laz(L)
        T = laz_inv(G)
        assert _tables_match(L, T), name
        assert laz_of_table(T) == G, name
        orders.add(L.order)
    assert {3 ** 4, 5 ** 4, 7 ** 4} <= orders
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(3, elapsed, 60, f"{len(lie_cat)} rings, orders up to p^4")


def test_criterion_4_correspondence_round_trip(postlie_cat, roundtrip_results):
    flows, duals, elapsed = roundtrip_results
    assert len(postlie_cat) >= 50
    names = {name for name, _ in postlie_cat}
    # the mandated instances: zero triangles, a square-free one, the
    # self-square pre-Lie ring, and radical lines including pZ/p^3Z at p=5
    assert any(n.startswith("zero_") for n in names)
    assert "antisym_p5" in names and "selfsq_p5" in names
    assert "radical_p5e2" in names and "radical_p3e2" in names
    # the radical line 3Z/81Z has L-class 3 = p and is correctly refused
    with pytest.raises(NotLazardError):
        post_lie_to_brace(catalogs.prelie_radical(3, 3))
    assert elapsed < 120.0
    _report(4, elapsed, 120, f"{len(postlie_cat)} post-Lie rings and {len(duals)} braces")


def test_criterion_5_radical_ring_example():
    t0 = time.perf_counter()
    P = catalogs.prelie_radical(5, 2)  # the ideal 5Z/125Z with the ring product
    flow = post_lie_to_brace(P)
    u = np.arange(25)
    # all 625 pairs of a o b = a + ab + b, straight ring arithmetic in Z/125
    ring = 5 * u
    circ_ring_table = (ring[:, None] + ring[None, :] + ring[:, None] * ring[None, :]) % 125
    assert (circ_ring_table % 5 == 0).all()
    assert np.array_equal(flow.brace.circ.table, circ_ring_table // 5)
    back = brace_to_post_lie(flow.brace)
    prod_table = (ring[:, None] * ring[None, :]) % 125
    assert np.array_equal(back.tri_table, prod_table // 5)
    # W and Omega pointwise against truncated series in Z/125
    inv2, inv3, inv6 = (pow(k, -1, 125) for k in (2, 3, 6))
    for uu in range(25):
        a = 5 * uu
        w_ring = (a + a * a * inv2 + a * a * a * inv6) % 125
        om_ring = (a - a * a * inv2 + a * a * a * inv3) % 125
        assert flow.w[uu] == w_ring // 5
        assert back.omega[uu] == om_ring // 5
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(5, elapsed, 5)


def test_criterion_6_nilpotency_theorems(postlie_cat, roundtrip_results):
    flows, _, _ = roundtrip_results
    t0 = time.perf_counter()
    for name, P in postlie_cat:
        k = l_series(P).nilpotency_class
        circ = circ_ring(P)
        ser = lower_central_series(circ)
        assert ser.is_nilpotent and ser.nilpotency_class <= k, name
        if k >= 1:
            gamma_k = ser.terms[k - 1] if k <= len(ser.terms) else frozenset({0})
            _, _, ann = substructures(P)
            assert gamma_k <= ann, name
        # same statement on the brace side
        kb, circ_class = circ_nilpotency_bound(flows[name].brace)
        assert kb == k and circ_class <= k, name
    elapsed = time.perf_counter() - t0
    _report(6, elapsed, "-", f"{len(postlie_cat)} instances, zero violations")


def test_criterion_7_order_nine_bijection():
    t0 = time.perf_counter()
    # nilpotent Lie rings of order 9 are exactly the two abelian ones:
    # brute-force every bracket constant on (3;[1,1]) ((3;[2]) has rank 1)
    s = PShape(3, (1, 1))
    for idx in range(9):
        L = LieRingSC.from_brackets(s, {(0, 1): tuple(s.coords_batch(idx))})
        if verify_lie(L).ok and lower_central_series(L).is_nilpotent:
            assert idx == 0
    totals = {}
    for exps in ((2,), (1, 1)):
        shape = PShape(3, exps)
        A = catalogs.shape_group(shape)
        braces_a = enumerate_braces(A)
        braces_b = enumerate_braces_via_chains(A)
        prelie_a = enumerate_prelie_ops(shape)
        prelie_b = enumerate_prelie_ops_aff(shape)
        assert len(braces_a) == len(braces_b), exps
        assert len(prelie_a) == len(prelie_b), exps
        assert len(braces_a) == len(prelie_a), exps
        # the flow construction realizes an explicit bijection
        brace_keys = {B.circ.table.tobytes() for B in braces_a}
        image_keys = set()
        for P in prelie_a:
            flow = post_lie_to_brace(P)
            key = flow.brace.circ.table.tobytes()
            assert key in brace_keys
            image_keys.add(key)
        assert image_keys == brace_keys, exps
        # and the logarithm lands back inside the pre-Lie catalog
        tri_keys = {P.tri.tobytes() for P in prelie_a}
        for B in braces_a:
            log = brace_to_post_lie(B)
            assert log.post_lie.tri.tobytes() in tri_keys
        totals[exps] = (len(braces_a), len(prelie_a))
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    counts = ", ".join(f"{exps}: {a} braces = {b} pre-Lie" for exps, (a, b) in totals.items())
    _report(7, elapsed, 600, counts)


def test_criterion_8_root_of_unity_differentiation(roundtrip_results):
    flows, duals, _ = roundtrip_results
    t0 = time.perf_counter()
    candidates = [(name, fl.brace) for name, fl in flows.items()]
    candidates += [(name, B) for name, B in duals]
    checked = 0
    for name, B in candidates:
        p = B.p
        if p not in (3, 5) or B.order not in (p ** 2, p ** 3):
            continue
        ss = strong_series_brace(B, cap=p + 1)
        if ss.nilpotency_class is None or ss.nilpotency_class >= p:
            continue
        lambda_derivative(B)  # raises on any mismatch with the logged triangle
        checked += 1
    assert checked >= 10
    # the component-extraction identity on constructed polynomial maps of
    # degree < p - 1, exact on every element
    s = PShape(5, (2,))
    xi = root_of_unity(5, 2)
    c = PVec(s, (11,))

    def poly(v):
        u = v.coords[0]
        return c + 3 * v + (u * u) * s.unit(0) + (2 * u ** 3) * s.unit(0)

    parts = [
        lambda v: c,
        lambda v: 3 * v,
        lambda v: (v.coords[0] ** 2) * s.unit(0),
        lambda v: (2 * v.coords[0] ** 3) * s.unit(0),
    ]
    for k in range(4):
        comp = homogeneous_component(s, poly, k, xi, 4)
        for u in range(25):
            v = s.vec_of_index(u)
            assert comp(v) == parts[k](v), (k, u)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(8, elapsed, 60, f"{checked} qualifying braces")


def test_criterion_9_power_set_ideals(roundtrip_results):
    flows, duals, _ = roundtrip_results
    t0 = time.perf_counter()
    braces = [fl.brace for fl in flows.values()] + [B for _, B in duals]
    for B in braces:
        p = B.p
        unit = p + 1
        for n in (p, p * p, unit):
            power_set_ideals(B, n)  # raises on any violated equality
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(9, elapsed, 30, f"{len(braces)} braces x 3 exponents")


def test_criterion_10_substructure_transfer(postlie_cat, roundtrip_results):
    flows, _, _ = roundtrip_results
    t0 = time.perf_counter()
    swept = 0
    for name, P in postlie_cat:
        rep = transfer_report(P, flows[name], include_subgroups=True)
        assert rep.ok, (name, rep.mismatches)
        assert rep.subgroups_checked >= 2
        swept += 1
    assert swept >= 30
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(10, elapsed, 300, f"{swept} full subgroup sweeps")
