"""The correspondence between Lazard post-Lie rings and Lazard skew braces.

One direction builds the group of flows: the bijection W(a) = V(a, L_a)
with V the carrier component of BCH in the semidirect sum with the
derivation part, and the brace product a o b = a . exp(L_{W^-1(a)})(b).
The other direction logs the lambda maps over Laz^-1 of the dot group.
Also: substructure transfer checks and the root-of-unity differentiation
that recovers the triangle product from lambda alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import freelie
from .common import FailedTheoremError, NotLazardError
from .liering import (
    Filtration,
    FinGroup,
    all_add_subgroups,
    canonical_group_filtration,
    laz,
    laz_inv,
    table_to_sc,
)
from .modarith import AbelianBasis, Endo, ModArithError, PShape, PVec, endo_exp, endo_log, root_of_unity
from .postlie import (
    PostLieRing,
    classify_subset,
    l_series,
    right_series,
    substructures,
    verify_post_lie,
)
from .skewbrace import (
    SkewBrace,
    classify_subset_brace,
    l_series_brace,
    right_series_brace,
    strong_series_brace,
    substructures_brace,
    verify_skew_brace,
)

__all__ = [
    "v_eval",
    "w_map",
    "post_lie_to_brace",
    "u_eval",
    "omega_map",
    "brace_to_post_lie",
    "FlowResult",
    "LogResult",
    "transfer_report",
    "TransferReport",
    "lambda_derivative",
    "homogeneous_component",
]


# ---------------------------------------------------------------------------
# The semidirect sum a (+) Der(a)^+ and the map V.


def _sd_bracket(P: PostLieRing, x, y):
    """[(a, f), (b, g)] = ([a,b] + f(b) - g(a), fg - gf) on (vector, matrix) pairs;
    the vectors are rows, each against one matrix or its own from a stack."""
    s = P.shape
    va, ma = x
    vb, mb = y
    vec = s.reduce(P.base.bracket_batch(va, vb) + _rows_times(vb, ma) - _rows_times(va, mb))
    mat = s.reduce(mb @ ma - ma @ mb)  # composition f o g has matrix Mg @ Mf
    return vec, mat


def _rows_times(V: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Row v of V times its matrix: mats is one (r, r) matrix or a matching stack."""
    return np.matmul(V[..., None, :], mats)[..., 0, :]


def _sd_add_scaled(s: PShape, acc, x, q: Fraction):
    """acc + q x on (vector, matrix) pairs."""
    m = s.scale_multiplier(q)
    return s.reduce(acc[0] + m * x[0]), s.reduce(acc[1] + m * x[1])


def v_eval(P: PostLieRing, a: PVec, f: Endo, F: Filtration | None = None) -> PVec:
    """V(a, f): carrier component of BCH((a, f), (0, -f)) in the semidirect sum.

    Truncation at the filtration length k is exact; requires a Lazard input
    and a filtration-raising f.
    """
    F = F or _canonical_post_filtration(P)
    s = P.shape
    k = F.length
    if k >= s.p:
        raise NotLazardError(f"not Lazard: L-class {k} >= p = {s.p}")
    if not F.raises(s.index_batch(f.apply_batch(s.all_coords())), 1):
        raise ModArithError("endomorphism does not raise the filtration")
    return s.vec(_v_batch(P, k, a.np()[None, :], f.matrix())[0])


def _v_batch(P: PostLieRing, k: int, A: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """V(a, f) for rows a of A, against one matrix of f or a stack with one per row."""
    s = P.shape
    zero_vec = np.zeros_like(A)
    acc = freelie.fold_terms(freelie.bch_terms(k), (A, mat), (zero_vec, s.reduce(-mat)),
                             lambda u, v: _sd_bracket(P, u, v),
                             lambda acc, v, c: _sd_add_scaled(s, acc, v, c),
                             (zero_vec, np.zeros_like(mat)))
    return acc[0]


def _canonical_post_filtration(P: PostLieRing) -> Filtration:
    ser = l_series(P)
    if not ser.is_nilpotent:
        raise NotLazardError("post-Lie ring is not L-nilpotent")
    F = Filtration(ser.terms)
    if F.length >= P.shape.p:
        raise NotLazardError(f"not Lazard: L-class {F.length} >= p = {P.shape.p}")
    return F


def w_map(P: PostLieRing, F: Filtration | None = None) -> np.ndarray:
    """W(a) = V(a, L_a) over the whole carrier, verified bijective."""
    F = F or _canonical_post_filtration(P)
    s = P.shape
    coords = s.all_coords()
    out = s.index_batch(_v_batch(P, F.length, coords, P.l_mats(coords)))
    if np.unique(out).size != s.order:
        raise FailedTheoremError("flow map W is not bijective")
    return out


@dataclass(frozen=True)
class FlowResult:
    """Group-of-flows image of a Lazard post-Lie ring (same carrier)."""

    post_lie: PostLieRing
    brace: SkewBrace
    w: np.ndarray
    omega: np.ndarray
    l_class: int


def post_lie_to_brace(P: PostLieRing, check: bool = True) -> FlowResult:
    """Construction S: dot = Laz(base), circ(a, b) = a . exp(L_{Omega(a)})(b)."""
    F = _canonical_post_filtration(P)
    s = P.shape
    k = F.length
    n = s.order
    rep = verify_post_lie(P)
    if not rep.ok:
        raise ModArithError(f"not a post-Lie ring: {rep.failures}")
    dot = laz(P.base, F)
    W = w_map(P, F)
    Omega = np.empty(n, dtype=np.int64)
    Omega[W] = np.arange(n)
    coords = s.all_coords()
    exp_mats = endo_exp(Endo(s, P.l_mats(coords[Omega])), max(k, 1)).mat
    circ = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        circ[a] = dot.table[a, s.index_batch(coords @ exp_mats[a])]
    brace = SkewBrace(dot, FinGroup(circ, 0))
    if check:
        rep = verify_skew_brace(brace)
        if not rep.ok:
            raise FailedTheoremError(f"flow image is not a skew brace: {rep.failures}")
        bser = l_series_brace(brace)
        if bser.nilpotency_class != k:
            raise FailedTheoremError("L-class changed across the flow construction")
        # W is a group isomorphism Laz(circ ring) -> (A, o)
        lazc = laz(P.circ, F=None)
        if not np.array_equal(W[lazc.table], circ[W[:, None], W[None, :]]):
            raise FailedTheoremError("W is not an isomorphism onto the circle group")
    return FlowResult(P, brace, W, Omega, k)


# ---------------------------------------------------------------------------
# Holomorph evaluation and the map U.


def _perm_inv(perm: np.ndarray) -> np.ndarray:
    out = np.empty_like(perm)
    out[perm] = np.arange(perm.size)
    return out


class _Hol:
    """Pairs (carrier element, automorphism permutation) under the
    semidirect product, enough for evaluating inverse-BCH words."""

    def __init__(self, dot: FinGroup, p: int):
        self.dot = dot
        self.p = p
        self.id_pair = (dot.identity, np.arange(dot.order, dtype=np.int64))

    def mul(self, x, y):
        a, al = x
        b, be = y
        return int(self.dot.table[a, al[b]]), al[be]

    def inv(self, x):
        a, al = x
        ali = _perm_inv(al)
        return int(ali[self.dot.inv[a]]), ali

    def comm(self, x, y):
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def eq_id(self, x) -> bool:
        return x[0] == self.dot.identity and np.array_equal(x[1], self.id_pair[1])

    def power(self, x, m: int):
        if m < 0:
            x = self.inv(x)
            m = -m
        acc = self.id_pair
        base = x
        while m > 0:
            if m & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            m >>= 1
        return acc

    def order(self, x) -> int:
        t = 0
        cur = x
        while not self.eq_id(cur):
            cur = self.power(cur, self.p)
            t += 1
            if self.p ** t > self.dot.order ** 2 * len(self.id_pair[1]):
                raise ModArithError("holomorph element order is not a p-power")
        return self.p ** t

    def rational_power(self, x, q: Fraction):
        o = self.order(x)
        if o == 1:
            return self.id_pair
        m = (q.numerator * pow(q.denominator % o, -1, o)) % o
        return self.power(x, m)


def u_eval(B: SkewBrace, a: int, alpha: np.ndarray, F: Filtration | None = None) -> int:
    """U(a, alpha): carrier part of P((a, alpha), (1, alpha^-1)) inside Hol^+."""
    F = F or _canonical_brace_filtration(B)
    k = F.length
    hol = _Hol(B.dot, B.p)
    p_word, _ = freelie.inverse_words(max(k, 1))
    word = p_word.truncated(k)
    alpha = np.asarray(alpha, dtype=np.int64)
    acc = freelie.fold_terms(word.factors, (int(a), alpha), (B.dot.identity, _perm_inv(alpha)),
                             hol.comm, lambda acc, v, q: hol.mul(acc, hol.rational_power(v, Fraction(q))),
                             hol.id_pair)
    return acc[0]


def _canonical_brace_filtration(B: SkewBrace) -> Filtration:
    ser = l_series_brace(B)
    if not ser.is_nilpotent:
        raise NotLazardError("skew brace is not L-nilpotent")
    F = Filtration(ser.terms)
    if F.length >= B.p:
        raise NotLazardError(f"not Lazard: L-class {F.length} >= p = {B.p}")
    return F


def omega_map(B: SkewBrace, F: Filtration | None = None) -> np.ndarray:
    """Omega(a) = U(a, lambda_a) over the carrier, verified bijective."""
    F = F or _canonical_brace_filtration(B)
    if not F.raises(B.star, 1).all():  # star[a, g] = lambda_a(g) g^-1
        raise ModArithError("lambda maps do not raise the filtration")
    n = B.order
    out = np.empty(n, dtype=np.int64)
    for a in range(n):
        out[a] = u_eval(B, a, B.lam[a], F)
    if np.unique(out).size != n:
        raise FailedTheoremError("omega map is not bijective")
    return out


@dataclass(frozen=True)
class LogResult:
    """Post-Lie ring logged out of a Lazard skew brace.

    The post-Lie ring lives on the invariant-factor shape; `basis` carries
    the bijection between brace carrier indices and shape enumeration.
    `tri_table` is the triangle product in brace carrier indices.
    """

    brace: SkewBrace
    post_lie: PostLieRing
    basis: AbelianBasis
    tri_table: np.ndarray
    w: np.ndarray
    omega: np.ndarray
    l_class: int


def brace_to_post_lie(B: SkewBrace, check: bool = True) -> LogResult:
    """Construction L: base = Laz^-1(dot), a > b = log(lambda_{W(a)})(b)."""
    F = _canonical_brace_filtration(B)
    k = F.length
    n = B.order
    dot_ser = canonical_group_filtration(B.dot)
    if not dot_ser.is_nilpotent:
        raise NotLazardError("dot group is not nilpotent")
    T = laz_inv(B.dot, Filtration(dot_ser.terms))
    L_sc, basis = table_to_sc(T)
    s = L_sc.shape
    Omega = omega_map(B, F)
    W = np.empty(n, dtype=np.int64)
    W[Omega] = np.arange(n)
    coords_of_elem = s.all_coords()[basis.index_of_elem]
    gen_elems = basis.elem_of[s.index_batch(np.eye(s.rank, dtype=np.int64))]
    # the matrices of lambda_{W(x)}, each checked well defined by Endo
    lam_mats = Endo(s, coords_of_elem[B.lam[W[:, None], gen_elems]])
    for x in range(n):
        # lambda_{W(x)} must be additive over the logged structure
        img = basis.elem_of[s.index_batch(coords_of_elem @ lam_mats.mat[x])]
        if not np.array_equal(img, B.lam[W[x]]):
            raise FailedTheoremError("lambda is not additive over Laz^-1 of the dot group")
    log_mats = endo_log(lam_mats, max(k, 1)).mat
    tri_table = np.empty((n, n), dtype=np.int64)
    for x in range(n):
        tri_table[x] = basis.elem_of[s.index_batch(coords_of_elem @ log_mats[x])]
    P = PostLieRing(L_sc, coords_of_elem[tri_table[np.ix_(gen_elems, gen_elems)]])
    if check:
        rep = verify_post_lie(P)
        if not rep.ok:
            raise FailedTheoremError(f"logged structure is not post-Lie: {rep.failures}")
        # the bilinear extension must reproduce the pointwise table
        step = max(1, (1 << 18) // n)
        for start in range(0, n, step):
            blk = P.tri_batch(coords_of_elem[start:start + step, None, :],
                              coords_of_elem[None, :, :])
            if not np.array_equal(basis.elem_of[s.index_batch(blk)], tri_table[start:start + step]):
                raise FailedTheoremError("triangle product is not biadditive")
        pser = l_series(P)
        if pser.nilpotency_class != k:
            raise FailedTheoremError("L-class changed across the logarithm construction")
        # Omega: (A, o) -> circ ring is a group isomorphism onto Laz of it
        lazc = laz(P.circ, F=None)
        om_s = basis.index_of_elem[Omega]
        lhs = om_s[B.circ.table]
        rhs = lazc.table[om_s[:, None], om_s[None, :]]
        if not np.array_equal(lhs, rhs):
            raise FailedTheoremError("omega is not an isomorphism onto Laz of the circ ring")
    return LogResult(B, P, basis, tri_table, W, Omega, k)


# ---------------------------------------------------------------------------
# Substructure transfer.


@dataclass(frozen=True)
class TransferReport:
    subgroups_checked: int
    classifications_match: bool
    fix_match: bool
    soc_match: bool
    ann_match: bool
    right_nilpotency_match: bool
    mismatches: tuple = ()

    @property
    def ok(self) -> bool:
        return (
            self.classifications_match
            and self.fix_match
            and self.soc_match
            and self.ann_match
            and self.right_nilpotency_match
        )


def transfer_report(
    P: PostLieRing,
    flow: FlowResult | None = None,
    include_subgroups: bool = True,
) -> TransferReport:
    """Classify every additive subgroup on both sides of the correspondence
    and compare; also compares fix/socle/annihilator and right nilpotency.

    The sweep builds each subgroup once (all_add_subgroups) and classifies
    it on generators on the post-Lie side; the brace side checks whole
    tables, so its cost grows with the number of subgroups times |A|.
    include_subgroups=False keeps only the set comparisons."""
    flow = flow or post_lie_to_brace(P)
    B = flow.brace
    s = P.shape
    mismatches = []
    count = 0
    if include_subgroups:
        for S in all_add_subgroups(s):
            count += 1
            lv_p = classify_subset(P, S)
            lv_b = classify_subset_brace(B, S)
            if lv_p != lv_b:
                mismatches.append((sorted(S), lv_p.name, lv_b.name))
    fix_p, soc_p, ann_p = substructures(P)
    fix_b, soc_b, ann_b = substructures_brace(B)
    rn_p = right_series(P).is_nilpotent
    rn_b = right_series_brace(B).is_nilpotent
    return TransferReport(
        subgroups_checked=count,
        classifications_match=not mismatches,
        fix_match=fix_p == fix_b,
        soc_match=soc_p == soc_b,
        ann_match=ann_p == ann_b,
        right_nilpotency_match=rn_p == rn_b,
        mismatches=tuple(mismatches),
    )


# ---------------------------------------------------------------------------
# Root-of-unity differentiation.


def lambda_derivative(B: SkewBrace, log: LogResult | None = None) -> np.ndarray:
    """Recover the triangle product from lambda by averaging against a
    primitive (p-1)-th root of unity:

        a > b = 1/(p-1) * sum_i xi^i lambda_{xi^(-i) a}(b),

    the sum taken in Laz^-1 of the dot group.  Requires the strong series
    to vanish at index p; the result must match the logged triangle table.
    """
    p = B.p
    ss = strong_series_brace(B, cap=p + 1)
    if not (ss.nilpotency_class is not None and ss.nilpotency_class < p):
        raise NotLazardError("strong series too long: A^{p} != 1")
    log = log or brace_to_post_lie(B)
    s = log.post_lie.shape
    basis = log.basis
    n = B.order
    xi = root_of_unity(p, s.exps[0])
    xi_inv = pow(xi, -1, s.max_modulus)
    coords_of_elem = s.all_coords()[basis.index_of_elem]
    inv_pm1 = s.scale_multiplier(Fraction(1, p - 1))
    out = np.empty((n, n), dtype=np.int64)
    for a in range(n):
        acc = np.zeros((n, s.rank), dtype=np.int64)
        for i in range(p - 1):
            scal = pow(xi_inv, i, s.max_modulus)
            a_i = int(basis.elem_of[s.index_batch(s.reduce(coords_of_elem[a] * scal))])
            vals = coords_of_elem[B.lam[a_i]]
            acc = s.reduce(acc + pow(xi, i, s.max_modulus) * vals)
        out[a] = basis.elem_of[s.index_batch(s.reduce(acc * inv_pm1))]
    if not np.array_equal(out, log.tri_table):
        raise FailedTheoremError("root-of-unity triangle differs from the logged triangle")
    return out


def homogeneous_component(shape: PShape, f, k: int, xi: int, n: int):
    """Degree-k homogeneous component of a polynomial map of degree < n.

    xi must be a primitive n-th root of unity with n invertible; garbage in
    when the degree bound is violated (caller asserts it).
    """
    xi_inv = pow(xi, -1, shape.max_modulus)

    def component(v: PVec) -> PVec:
        acc = shape.zero()
        for j in range(n):
            scaled = v.scale(pow(xi_inv, j, shape.max_modulus))
            acc = acc + pow(xi, j * k, shape.max_modulus) * f(scaled)
        return acc.scale(Fraction(1, n))

    return component
