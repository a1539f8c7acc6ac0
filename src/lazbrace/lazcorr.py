"""The correspondence between Lazard post-Lie rings and Lazard skew braces.

One direction builds the group of flows: the bijection W(a) = V(a, L_a)
with V the carrier component of BCH in the semidirect sum with the
derivation part, and the brace product a o b = a . exp(L_{W^-1(a)})(b).
The other direction logs the lambda maps over T = Laz^-1 of the dot group,
one stack D for the whole carrier, and Omega(a) is the carrier part of
BCH((a, 0), (0, D_a)) in T (+) End(T): the fold of W with the leaves
swapped.  Also: substructure transfer checks and the root-of-unity
differentiation that recovers the triangle product from lambda alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import freelie
from .common import FailedTheoremError, IdealLevel, NotLazardError
from .liering import (
    Filtration,
    FinGroup,
    LieRingSC,
    _add_subgroup_runs,
    _require_none,
    canonical_group_filtration,
    laz,
    laz_inv,
    table_to_sc,
)
from .modarith import (AbelianBasis, Endo, ModArithError, PShape, PVec, _row_blocks, endo_exp, endo_log,
                       root_of_unity)
from .postlie import (
    PostLieRing,
    _classify_batch,
    _validate_post_filtration,
    l_series,
    right_series,
    substructures,
    verify_post_lie,
)
from .skewbrace import (
    SkewBrace,
    _classify_batch_brace,
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
# The semidirect sum L (+) End(L): the maps V and U.


def _sd_bracket(L, x, y):
    """[(a, f), (b, g)] = ([a,b] + f(b) - g(a), fg - gf) on (vector, matrix) pairs
    over the Lie ring L (a post-Lie ring brackets by its base); the vectors
    are rows, each against one matrix or its own from a stack."""
    s = L.shape
    va, ma = x
    vb, mb = y
    vec = s.reduce(L.bracket_batch(va, vb) + _rows_times(vb, ma) - _rows_times(va, mb))
    mat = s.reduce(mb @ ma - ma @ mb)  # composition f o g has matrix Mg @ Mf
    return vec, mat


def _rows_times(V: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Row v of V times its matrix: mats is one (r, r) matrix or a matching stack."""
    return np.matmul(V[..., None, :], mats)[..., 0, :]


def _sd_add_scaled(s: PShape, acc, x, q: Fraction):
    """acc + q x on (vector, matrix) pairs."""
    m = s.scale_multiplier(q)
    return s.reduce(acc[0] + m * x[0]), s.reduce(acc[1] + m * x[1])


def _sd_bch(L, k: int, x, y) -> np.ndarray:
    """Carrier part of BCH(x, y) in degrees 1..k, for stacked (vector, matrix)
    pairs x, y in the semidirect sum L (+) End(L)."""
    s = L.shape
    zero = (np.zeros_like(x[0]), np.zeros_like(x[1]))
    acc = freelie.fold_terms(freelie.bch_terms(k), x, y, lambda u, v: _sd_bracket(L, u, v),
                             lambda acc, v, c: _sd_add_scaled(s, acc, v, c), zero)
    return acc[0]


def v_eval(P: PostLieRing, a: PVec, f: Endo, F: Filtration | None = None) -> PVec:
    """V(a, f): carrier component of BCH((a, f), (0, -f)) in the semidirect sum.

    Truncation at the filtration length k is exact; requires a Lazard input
    and a filtration-raising f.  A caller's F is checked as
    adjoint_filtration checks it.
    """
    F = _lazard_post_filtration(P, F)
    s = P.shape
    k = F.length
    if F.margin(s.index_batch(f.apply_batch(s.all_coords()))) < 1:
        raise ModArithError("endomorphism does not raise the filtration")
    return s.vec(_v_batch(P, k, a.np()[None, :], f.matrix())[0])


def _v_batch(P: PostLieRing, k: int, A: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """V(a, f) for rows a of A, against one matrix of f or a stack with one per row."""
    return _sd_bch(P, k, (A, mat), (np.zeros_like(A), P.shape.reduce(-mat)))


def _apply_all(s: PShape, coords: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """out[x, b] = index of coords[b] @ mats[x], a block of rows at a time."""
    n = len(coords)
    out = np.empty((len(mats), n), dtype=np.int64)
    for rows in _row_blocks(len(mats), n):
        out[rows] = s.index_batch(np.matmul(coords, mats[rows]))
    return out


def _require_bijective(images: np.ndarray, what: str, name: str) -> None:
    """Raise FailedTheoremError naming two elements with one image."""
    order = np.argsort(images, kind="stable")
    same = np.flatnonzero(images[order[1:]] == images[order[:-1]])
    if same.size:
        a, b = order[same[0]], order[same[0] + 1]
        raise FailedTheoremError(f"{what} is not bijective: {name}({a}) = {name}({b})")


def _lazard_post_filtration(P: PostLieRing, F: Filtration | None = None) -> Filtration:
    """The canonical L-filtration (cached on P), or a caller's F validated:
    a Lie filtration of the base with a > X_j inside X_(j+1) for all a
    (ModArithError otherwise).  Either must be shorter than p."""
    if F is None:
        ser = l_series(P)
        if not ser.is_nilpotent:
            raise NotLazardError("post-Lie ring is not L-nilpotent")
        F = ser.filtration
    else:
        _validate_post_filtration(P, F)
    if F.length >= P.shape.p:
        raise NotLazardError(f"not Lazard: L-class {F.length} >= p = {P.shape.p}")
    return F


def w_map(P: PostLieRing, F: Filtration | None = None) -> np.ndarray:
    """W(a) = V(a, L_a) over the whole carrier, verified bijective.  A
    caller's F is checked as adjoint_filtration checks it."""
    F = _lazard_post_filtration(P, F)
    s = P.shape
    coords = s.all_coords()
    out = s.index_batch(_v_batch(P, F.length, coords, P.l_mats(coords)))
    _require_bijective(out, "flow map W", "W")
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
    F = _lazard_post_filtration(P)
    s = P.shape
    k = F.length
    n = s.order
    rep = verify_post_lie(P)
    if not rep.ok:
        raise ModArithError(f"not a post-Lie ring: {rep.failures}")
    dot = laz(P.base, F)
    W = w_map(P)  # the canonical F again, cached: no validation
    Omega = np.empty(n, dtype=np.int64)
    Omega[W] = np.arange(n)
    coords = s.all_coords()
    exp_mats = endo_exp(Endo(s, P.l_mats(coords[Omega])), max(k, 1)).mat
    circ = dot.table[np.arange(n)[:, None], _apply_all(s, coords, exp_mats)]
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
        _require_none(W[lazc.table] != circ[W[:, None], W[None, :]],
                      "W is not an isomorphism onto the circle group")
    return FlowResult(P, brace, W, Omega, k)


def _canonical_brace_filtration(B: SkewBrace) -> Filtration:
    ser = l_series_brace(B)
    if not ser.is_nilpotent:
        raise NotLazardError(
            f"skew brace is not L-nilpotent: the L-series stops at a term of order {len(ser.terms[-1])}")
    F = ser.filtration
    if F.length >= B.p:
        raise NotLazardError(f"not Lazard: L-class {F.length} >= p = {B.p}")
    return F


def _dot_log(dot: FinGroup) -> tuple[LieRingSC, AbelianBasis]:
    """Laz^-1 of the dot group in structure-constant form, with its carrier
    bijection (table_to_sc of laz_inv under the lower central series)."""
    ser = canonical_group_filtration(dot)
    if not ser.is_nilpotent:
        raise NotLazardError("dot group is not nilpotent: the lower central series stops"
                             f" at a term of order {len(ser.terms[-1])}")
    return table_to_sc(laz_inv(dot, ser.filtration))


def _additive_log(basis: AbelianBasis, alpha: np.ndarray, k: int, name: str, exc) -> np.ndarray:
    """The (m, r, r) stack of log alpha[a] over basis.shape, for maps alpha[a]
    given by their rows of carrier images.  The matrices are read off the
    generators (Endo checks them well defined); exc names the first (a, b)
    where alpha[a, b] is not the matrix image."""
    s = basis.shape
    coords = s.all_coords()[basis.index_of_elem]
    mats = Endo(s, coords[alpha[:, basis.elem_of[s.index_batch(np.eye(s.rank, dtype=np.int64))]]])
    _require_none(basis.elem_of[_apply_all(s, coords, mats.mat)] != alpha,
                  f"{name} is not additive over Laz^-1 of the dot group", exc)
    return endo_log(mats, max(k, 1)).mat


def u_eval(B: SkewBrace, a, alpha: np.ndarray, F: Filtration | None = None, *,
           dot_log: tuple[LieRingSC, AbelianBasis] | None = None, log: np.ndarray | None = None):
    """U(a, alpha): carrier part of P((a, alpha), (1, alpha^-1)) in A x| Aut(A).

    With T = Laz^-1(A, .), that is the carrier part of BCH((a, 0), (0, log
    alpha)) in T (+) End(T), exact at degree k = F.length since log alpha
    raises the filtration.  a may be an index array and alpha an (m, n)
    stack, one map per entry, all in one fold; each alpha must be additive
    over T (ModArithError otherwise).  A caller may pass dot_log =
    _dot_log(B.dot) and log = the log alpha stack over it; alpha is then
    not read.
    """
    F = F or _canonical_brace_filtration(B)
    k = F.length
    L, basis = dot_log or _dot_log(B.dot)
    s = L.shape
    if log is None:
        log = _additive_log(basis, np.atleast_2d(np.asarray(alpha, dtype=np.int64)), k, "alpha", ModArithError)
    A = s.coords_batch(basis.index_of_elem[np.atleast_1d(a)])
    out = basis.elem_of[s.index_batch(_sd_bch(L, k, (A, np.zeros_like(log)), (np.zeros_like(A), log)))]
    return int(out[0]) if np.ndim(a) == 0 else out


def omega_map(B: SkewBrace, F: Filtration | None = None, *,
              dot_log: tuple[LieRingSC, AbelianBasis] | None = None,
              log: np.ndarray | None = None) -> np.ndarray:
    """Omega(a) = U(a, lambda_a) over the carrier, verified bijective: one
    u_eval on the whole carrier.  dot_log and log are passed on to it."""
    F = F or _canonical_brace_filtration(B)
    if F.margin(B.star).min() < 1:  # star[a, g] = lambda_a(g) g^-1
        raise ModArithError("lambda maps do not raise the filtration")
    out = u_eval(B, np.arange(B.order), B.lam, F, dot_log=dot_log, log=log)
    _require_bijective(out, "omega map", "Omega")
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
    """Construction L: base = Laz^-1(dot), a > b = log(lambda_{W(a)})(b); one
    stack of logged lambda maps gives both Omega (through u_eval) and >."""
    F = _canonical_brace_filtration(B)
    k = F.length
    n = B.order
    L_sc, basis = _dot_log(B.dot)
    s = L_sc.shape
    D = _additive_log(basis, B.lam, k, "lambda", FailedTheoremError)
    Omega = omega_map(B, F, dot_log=(L_sc, basis), log=D)
    W = np.empty(n, dtype=np.int64)
    W[Omega] = np.arange(n)
    coords_of_elem = s.all_coords()[basis.index_of_elem]
    tri_table = basis.elem_of[_apply_all(s, coords_of_elem, D[W])]
    gen_elems = basis.elem_of[s.index_batch(np.eye(s.rank, dtype=np.int64))]
    P = PostLieRing(L_sc, coords_of_elem[tri_table[np.ix_(gen_elems, gen_elems)]])
    if check:
        rep = verify_post_lie(P)
        if not rep.ok:
            raise FailedTheoremError(f"logged structure is not post-Lie: {rep.failures}")
        # the bilinear extension must reproduce the pointwise table
        for rows in _row_blocks(n, n):
            blk = P.tri_batch(coords_of_elem[rows, None, :], coords_of_elem[None, :, :])
            _require_none(basis.elem_of[s.index_batch(blk)] != tri_table[rows],
                          "triangle product is not biadditive", row0=rows.start)
        pser = l_series(P)
        if pser.nilpotency_class != k:
            raise FailedTheoremError("L-class changed across the logarithm construction")
        # Omega: (A, o) -> circ ring is a group isomorphism onto Laz of it
        lazc = laz(P.circ, F=None)
        om_s = basis.index_of_elem[Omega]
        _require_none(om_s[B.circ.table] != lazc.table[om_s[:, None], om_s[None, :]],
                      "omega is not an isomorphism onto Laz of the circ ring")
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

    The sweep builds each subgroup once (all_add_subgroups, as arrays of
    members) and classifies the subgroups of each order in one batch per
    side (_sweep): on additive generators on the post-Lie side, and on
    pairs of members and generators of A on the brace side.
    include_subgroups=False keeps only the set comparisons."""
    flow = flow or post_lie_to_brace(P)
    B = flow.brace
    mismatches = []
    count = 0
    if include_subgroups:
        runs = _add_subgroup_runs(P.shape)
        count = sum(len(run) for run in runs)
        for members, lv_p, lv_b in _sweep(P, B, runs):
            mismatches += [(members[i].tolist(), IdealLevel(lv_p[i]).name, IdealLevel(lv_b[i]).name)
                           for i in np.flatnonzero(lv_p != lv_b)]
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


def _sweep(P: PostLieRing, B: SkewBrace, runs):
    """(members, post-Lie levels, brace levels) for each run of equal-size
    subsets, a (k, m) array of sorted members, each side classified in one
    batch."""
    for members in runs:
        yield members, _classify_batch(P, members), _classify_batch_brace(B, members)


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
    basis = log.basis
    s = basis.shape
    m = s.max_modulus
    xi = root_of_unity(p, s.exps[0])
    coords_of_elem = s.all_coords()[basis.index_of_elem]
    out = np.empty((B.order, B.order), dtype=np.int64)
    for rows in _row_blocks(B.order, B.order):
        acc = 0
        for i in range(p - 1):
            a_i = basis.elem_of[s.index_batch(coords_of_elem[rows] * pow(xi, -i, m))]  # xi^(-i) a
            acc = s.reduce(acc + pow(xi, i, m) * coords_of_elem[B.lam[a_i]])
        out[rows] = basis.elem_of[s.index_batch(acc * s.scale_multiplier(Fraction(1, p - 1)))]
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
