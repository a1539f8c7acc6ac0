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
    _hom_failure,
    _laz_rows,
    _lazard_degree,
    _lazard_filtration,
    laz,
    laz_inv,
    table_to_sc,
    validate_group_filtration,
)
from .modarith import (AbelianBasis, Endo, ModArithError, PShape, PVec, _raise_at, _walk, endo_exp, endo_log,
                       index_dtype, root_of_unity)
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
    _classify_bits_brace,
    l_series_brace,
    right_series_brace,
    strong_series_brace,
    substructures_brace,
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


def _require_hom(f: np.ndarray, gens, src_rows, dst_rows, what: str) -> None:
    """Raise FailedTheoremError(what) naming the first (a, b), a in gens,
    with f(a b) != f(a) f(b), from the rows of _hom_failure."""
    bad = _hom_failure(f, src_rows, dst_rows[None])
    if bad is not None:
        raise FailedTheoremError(f"{what} at (a,b)=({gens[bad[1]]},{bad[2]})")


def _require_w_hom(P: PostLieRing, W: np.ndarray, circ: np.ndarray) -> None:
    """W: Laz(circ ring) -> (A, o) is a homomorphism, checked as W(u b) =
    W(u) o W(b) on the BCH rows of the unit vectors u (_laz_rows).  Exact
    once circ is a verified group table: P is a verified post-Lie ring, so
    its circ ring is a Lazard Lie ring (P.circ, _lazard_degree), whose
    Lazard group is generated by the unit vectors (Khukhro)."""
    units = [u.index for u in P.shape.units()]
    _require_hom(W, units, _laz_rows(P.circ, _lazard_degree(P.circ), P.shape.carrier, units), circ[W[units]],
                 "W is not an isomorphism onto the circle group")


def _require_omega_hom(B: SkewBrace, P: PostLieRing, basis: AbelianBasis, Omega: np.ndarray) -> None:
    """Omega: (A, o) -> Laz(circ ring of P), moved onto the table elements
    of basis, is a homomorphism, checked as Omega(g o b) = Omega(g)
    Omega(b) on the circ generators g of B, against the BCH rows of the
    Omega(g) (_laz_rows).  Exact once B is a verified skew brace and P a
    verified post-Lie ring, so that both sides are groups."""
    cg = list(B.circ.gens)
    _require_hom(Omega, cg, B.circ.table[cg], _laz_rows(P.circ, _lazard_degree(P.circ), basis, Omega[cg]),
                 "omega is not an isomorphism onto Laz of the circ ring")


def _require_bijective(images: np.ndarray, what: str, name: str) -> None:
    """Raise FailedTheoremError naming two elements with one image."""
    order = np.argsort(images, kind="stable")
    same = np.flatnonzero(images[order[1:]] == images[order[:-1]])
    if same.size:
        a, b = order[same[0]], order[same[0] + 1]
        raise FailedTheoremError(f"{what} is not bijective: {name}({a}) = {name}({b})")


def _lazard_post_filtration(P: PostLieRing, F: Filtration | None = None) -> Filtration:
    """The Lazard gate on P: its L-series (cached), or a caller's F, a Lie
    filtration of the base with a > X_j inside X_(j+1) (ModArithError)."""
    return _lazard_filtration(lambda: l_series(P), P.shape.order, "post-Lie ring", F,
                              lambda F: _validate_post_filtration(P, F), l_series=True)


def w_map(P: PostLieRing, F: Filtration | None = None) -> np.ndarray:
    """W(a) = V(a, L_a) over the whole carrier, verified bijective, at the
    length of the filtration the Lazard gate passes (_lazard_post_filtration):
    a caller's F is checked as adjoint_filtration checks it."""
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
    """Construction S: dot = Laz(base), circ(a, b) = a . exp(L_{Omega(a)})(b).

    P is verified first.  The maps exp(L_{Omega(a)}) are validated
    matrices, so their table is filled along the shape's additive tree
    (AbelianBasis.additive_table).  The fill's own (n, n) buffer, with
    exp(L_{Omega(a)})(b) at [b, a], becomes circ in place, a block and its
    mirror at a time (_walk), both read before either is written: no
    transposed copy and no second table is held beside it.

    The fill reads the carrier's addition table: the one held on
    P.shape's carrier (for an abelian base, the dot table itself), or else
    one filled for the fill alone (AbelianBasis.additive_table).  So the
    flow leaves no n x n addition table on P.shape, and a roundtrip holds
    one addition table per carrier: the log direction's Laz^-1 of the dot
    group, the only one it can check against that group."""
    rep = verify_post_lie(P)
    if not rep.ok:
        raise ModArithError(f"not a post-Lie ring: {rep.failures}")
    k = _lazard_post_filtration(P).length
    s = P.shape
    n = s.order
    dot = laz(P.base)  # BCH terms above the base's class (at most k) vanish
    W = w_map(P)
    Omega = np.empty(n, dtype=np.int64)
    Omega[W] = np.arange(n)
    exp_mats = endo_exp(Endo(s, P.l_mats(s.all_coords()[Omega])), max(k, 1)).mat
    circ = s.carrier.additive_table(lambda X: X @ exp_mats).T  # [b, a]: exp(L_Omega(a))(b)
    flat = dot.table.ravel()  # a view: an index table is C-contiguous

    def take(I, J):  # dot[a, circ[b, a]] at the flat index a n + circ[b, a], formed in row order
        return flat.take(np.add(np.arange(I.start, I.stop)[:, None] * n, circ[J, I].T, order="C"))

    def transpose_take(I, J):  # circ[a, b] = dot[a, circ[b, a]]: both blocks read before either is written
        upper = take(I, J)
        if I != J:
            circ[J, I] = take(J, I)
        circ[I, J] = upper

    _walk(n, n, transpose_take, mirror=True)
    brace = SkewBrace(dot, FinGroup(circ, 0))
    if check:
        rep = brace.verdict
        if not rep.ok:
            raise FailedTheoremError(f"flow image is not a skew brace: {rep.failures}")
        bser = l_series_brace(brace)
        if bser.nilpotency_class != k:
            raise FailedTheoremError("L-class changed across the flow construction")
        _require_w_hom(P, W, circ)
    return FlowResult(P, brace, W, Omega, k)


def _lazard_brace_filtration(B: SkewBrace, F: Filtration | None = None) -> Filtration:
    """The Lazard gate on B: its L-series (cached), or a caller's F, a
    group filtration of (A, .) (ModArithError)."""
    return _lazard_filtration(lambda: l_series_brace(B), B.order, "skew brace", F,
                              lambda F: validate_group_filtration(B.dot, F), l_series=True)


def _dot_log(dot: FinGroup) -> tuple[LieRingSC, AbelianBasis]:
    """Laz^-1 of the dot group in structure-constant form, with its carrier
    bijection; laz_inv's refusal is named for the dot group."""
    try:
        return table_to_sc(laz_inv(dot))
    except NotLazardError as exc:
        raise NotLazardError(f"dot {exc}") from None


def _stack_rows(alpha: np.ndarray):
    """The rows(A, cols) of _additive_log for an (m, n) array of maps."""
    return lambda A, cols=None: alpha[A] if cols is None else alpha[A][:, cols]


def _raising_test(dot: FinGroup, F: Filtration):
    """The _walk test for rows R of maps alpha of (A, .): where alpha(g)
    g^-1 is not in X_(level g + 1) (the last term at the bottom)."""
    floor = np.minimum(F.level + 1, F.depth)
    level = F.level.astype(index_dtype(F.depth + 1))  # a block of the gather below is held in that dtype
    return lambda blk, R: level[dot.table[R, dot.inv]] < floor


def _additive_log(basis: AbelianBasis, rows, k: int, name: str, exc, elements=None, also=()):
    """The (m, r, r) stack of log alpha[i] over basis.shape, for maps alpha[i]
    given by their rows of carrier images, rows(A, cols) = alpha[A] (or its
    columns cols) for a slice A, row i standing for the element elements[i]
    (default i); and, for each test in `also`, its first failure (i, b) in
    the same pass, or None.  The matrices are read off the generator
    columns (Endo checks them well defined); exc names the first (a, b)
    where alpha[i, b] is not the matrix image, a = elements[i], before log
    raises for a map that is not unipotent.  The matrix images are filled
    along the additive tree, every tree generator's image computed from its
    coordinates and none read from alpha, so the table compared with alpha
    is the matrix maps themselves.  Images and alpha are both read in one
    _walk, by blocks of n / 8 entries (a fill pays its per-run cost per
    block), and lambda can be passed as SkewBrace._lam_rows."""
    mats = Endo(basis.shape, basis.coords[rows(slice(None), list(basis.gens))])
    additive = lambda blk, R: R != basis.additive_table(lambda X: X @ mats.mat[blk])
    bad, *found = _walk(len(mats.mat), len(basis.coords) // 8, additive, *also, rows=rows)
    _raise_at(bad, f"{name} is not additive over Laz^-1 of the dot group", exc, elements)
    return endo_log(mats, max(k, 1)).mat, found


def _u_batch(L: LieRingSC, basis: AbelianBasis, k: int, a, log: np.ndarray) -> np.ndarray:
    """The carrier parts of BCH((a, 0), (0, log[i])) in T (+) End(T), on the
    table elements of basis, for the entries of a."""
    A = basis.coords[np.atleast_1d(a)]
    return basis.elems(_sd_bch(L, k, (A, np.zeros_like(log)), (np.zeros_like(A), log)))


def u_eval(B: SkewBrace, a, alpha: np.ndarray, F: Filtration | None = None):
    """U(a, alpha): carrier part of P((a, alpha), (1, alpha^-1)) in A x| Aut(A).

    With T = Laz^-1(A, .), that is the carrier part of BCH((a, 0), (0, log
    alpha)) in T (+) End(T), exact at degree k = F.length since log alpha
    raises the filtration.  a may be an index array and alpha an (m, n)
    stack, one map per entry, all in one fold.  F is the filtration the
    Lazard gate passes (_lazard_brace_filtration): a caller's F must be a
    group filtration of (A, .) shorter than p; each alpha must raise F,
    alpha(g) g^-1 in X_(level[g] + 1), and be additive over T
    (ModArithError naming the first (a, g) otherwise, a the entry of `a`
    the failing map is paired with).  Each check reads alpha in one _walk, a
    block of rows at a time, the raising check first.
    """
    L, basis = _dot_log(B.dot)
    F = _lazard_brace_filtration(B, F)
    alpha = np.atleast_2d(np.asarray(alpha))
    elements = np.broadcast_to(np.atleast_1d(a), (max(np.size(a), len(alpha)),))
    rows = _stack_rows(alpha)
    unraised, = _walk(len(alpha), B.order // 8, _raising_test(B.dot, F), rows=rows)
    _raise_at(unraised, "alpha does not raise the filtration", ModArithError, elements)
    log, _ = _additive_log(basis, rows, F.length, "alpha", ModArithError, elements)
    out = _u_batch(L, basis, F.length, a, log)
    return int(out[0]) if np.ndim(a) == 0 else out


def omega_map(B: SkewBrace, F: Filtration | None = None) -> np.ndarray:
    """Omega(a) = U(a, lambda_a), verified bijective: one u_eval on the whole
    carrier (lambda built per call), which checks F and that lambda raises it."""
    out = u_eval(B, np.arange(B.order), B._lam_rows(slice(None)), F)
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
    stack of logged lambda maps gives both Omega (as u_eval does) and >.

    Both of u_eval's checks, that each lambda_a is additive over Laz^-1 of
    the dot group (FailedTheoremError) and that it raises the L-filtration
    (ModArithError, after the log, as before), read the rows
    dot[a^-1][circ[a]] in one pass a block at a time, so no n x n lambda
    table is built.  They run with check=False too: there they are the
    only guard.

    With check, B is verified first (ModArithError when it is not a skew
    brace).  The triangle table is filled along the additive tree from the
    matrices D[W(a)].  Its rows and those of the bilinear extension of the
    triangle constants are both additive in b, so the biadditivity check
    compares their generator columns, the n r matrix rows of D[W(a)] and
    L_a, by _walk blocks, and names the first a with a generator b."""
    if check:
        rep = B.verdict
        if not rep.ok:
            raise ModArithError(f"not a skew brace: {rep.failures}")
    F = _lazard_brace_filtration(B)
    k = F.length
    n = B.order
    L_sc, basis = _dot_log(B.dot)
    D, (unraised,) = _additive_log(basis, B._lam_rows, k, "lambda", FailedTheoremError,
                                   also=[_raising_test(B.dot, F)])
    _raise_at(unraised, "alpha does not raise the filtration", ModArithError)
    Omega = _u_batch(L_sc, basis, k, np.arange(n), D)
    _require_bijective(Omega, "omega map", "Omega")
    W = np.empty(n, dtype=np.int64)
    W[Omega] = np.arange(n)
    DW = D[W]
    tri_table = basis.additive_table(lambda X: X @ DW)
    # row j of D[W[g_i]], the matrix of L_(g_i), is g_i > g_j
    P = PostLieRing(L_sc, D[W[list(basis.gens)]])
    if check:
        rep = verify_post_lie(P)
        if not rep.ok:
            raise FailedTheoremError(f"logged structure is not post-Lie: {rep.failures}")
        # the bilinear extension must reproduce the pointwise table
        r = len(basis.gens)
        _raise_at(_walk(n, r * r, lambda blk: (P.l_mats(basis.coords[blk]) != DW[blk]).any(axis=-1))[0],
                  "triangle product is not biadditive", cols=basis.gens)
        pser = l_series(P)
        if pser.nilpotency_class != k:
            raise FailedTheoremError("L-class changed across the logarithm construction")
        _require_omega_hom(B, P, basis, Omega)
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

    The sweep builds each subgroup once with its generators (cached per
    shape, _add_subgroup_runs) and classifies all of them, every order at
    once, in one call per side (_sweep): on the generators on the post-Lie
    side, as bit rows over the carrier on the brace side; Fix, Soc and Ann
    are one batch per side.  include_subgroups=False skips the sweep."""
    flow = flow or post_lie_to_brace(P)
    B = flow.brace
    mismatches = []
    count = 0
    if include_subgroups:
        runs = _add_subgroup_runs(P.shape)
        count = sum(len(members) for members, _ in runs)
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
    subgroups, a (k, m) array of sorted members, with all runs classified in
    one call per side: their masks, with the generators that built them
    0-padded to one width on the post-Lie side, and as bit rows on the
    brace side."""
    cuts = np.cumsum([0] + [len(members) for members, _ in runs])
    masks = np.zeros((cuts[-1], P.shape.order), dtype=bool)
    gens = np.zeros((cuts[-1], max(g.shape[1] for _, g in runs)), dtype=np.int64)
    for (members, g), start, stop in zip(runs, cuts, cuts[1:]):
        masks[np.arange(start, stop)[:, None], members] = True
        gens[start:stop, :g.shape[1]] = g
    lv_p, lv_b = _classify_batch(P, masks, gens), _classify_bits_brace(B, masks)
    for (members, _), start, stop in zip(runs, cuts, cuts[1:]):
        yield members, lv_p[start:stop], lv_b[start:stop]


# ---------------------------------------------------------------------------
# Root-of-unity differentiation.


def lambda_derivative(B: SkewBrace, log: LogResult | None = None) -> np.ndarray:
    """Recover the triangle product from lambda by averaging against a
    primitive (p-1)-th root of unity:

        a > b = 1/(p-1) * sum_i xi^i lambda_{xi^(-i) a}(b),

    the sum taken in Laz^-1 of the dot group.  Requires the strong series
    to vanish at index p; the result must match the logged triangle table.

    Each lambda_x is the matrix M_x of its generator images, n r entries
    read as rows (SkewBrace._lam_rows): log.brace is B, whose lambda
    brace_to_post_lie checked additive on all pairs (a log of another brace
    is recomputed for B).  So row a is the matrix map of 1/(p-1) sum_i xi^i
    M_(xi^-i a), filled along the additive tree; _walk compares it.
    """
    p = B.p
    ss = strong_series_brace(B, cap=p + 1)
    if not (ss.nilpotency_class is not None and ss.nilpotency_class < p):
        raise NotLazardError("strong series too long: A^{p} != 1")
    if log is None or log.brace is not B:
        log = brace_to_post_lie(B)
    basis = log.basis
    s = basis.shape
    m = s.max_modulus
    xi = root_of_unity(p, s.exps[0])
    coords = basis.coords
    mats = coords[B._lam_rows(slice(None), list(basis.gens))]
    acc = 0
    for i in range(p - 1):
        acc = s.reduce(acc + pow(xi, i, m) * mats[basis.elems(coords * pow(xi, -i, m))])  # M_(xi^-i a)
    out = basis.additive_table(lambda X: X @ (acc * s.scale_multiplier(Fraction(1, p - 1))))
    if _walk(len(out), len(out), lambda blk: out[blk] != log.tri_table[blk])[0] is not None:
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
