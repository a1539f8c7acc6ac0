"""The generator-based verifiers against exhaustive oracles.

verify_group_table, verify_skew_brace, the filtration validators and
classify_subset check each law on generators only; every group law, the
isomorphisms W and Omega included, is one test on generator rows
(liering._hom_failure), against the column forms and the all-pairs
comparisons with a whole Laz table of the circ ring.  all_add_subgroups
builds each subgroup once without a closure.  laz, laz_inv and
laz_of_table evaluate only the rows of generators and fill the rest along
a Schreier tree, one step per (level, generator) run, and every series of
rings, groups and braces takes each term as one closure of products of
generators.  Omega and U come from one stacked BCH in the semidirect sum
T (+) End(T), and the root-of-unity triangle from stacked gathers.
transfer_report classifies the subgroups of one order in one batch per
side, and classify_subset and classify_subset_brace are the one-subset
case of those batches.  verify_group_table runs its Latin-square
scatters only when the identity, Light's test or a right inverse fails,
and verify_lie and verify_post_lie contract the constant tensors over
all generator triples at once.  The oracles below sweep every triple or pair,
search by closure, close whole product sets, classify one subset at a
time, evaluate one element at a time in the holomorph, or fill each tree
level in one gather, as the library once did, and must give the same
verdict, list, table or map on every table, chain, subset, ring and brace
of the corpus, valid or not.
"""

import math
import re
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

import catalogs
from catalogs import (_bracket_set, _comm_set, _index_set, _star_set, _tri_set, descending_series, lam_table, mask,
                      require_none, row_blocks, sets, trivial_brace)
from lazbrace import formats, freelie, modarith, skewbrace
from lazbrace.common import FailedTheoremError, IdealLevel, LazbraceError, NotLazardError
from lazbrace.liering import (
    CheckReport,
    Filtration,
    FinGroup,
    LieRingSC,
    LieRingTable,
    SeriesResult,
    _add_subgroup_runs,
    _bch_batch,
    _eval_word_batch,
    _group_gens,
    _ill_defined_pairs,
    _laz_rows,
    _lazard_degree,
    _rational_power_batch,
    _schreier,
    _span_fold,
    _subgroup_gens,
    _table_series,
    add_closure,
    all_add_subgroups,
    canonical_filtration,
    canonical_group_filtration,
    group_closure,
    is_lazard,
    laz,
    laz_inv,
    laz_of_table,
    lower_central_series,
    table_to_sc,
    validate_group_filtration,
    verify_group_table,
    verify_lie,
)
from lazbrace.lazcorr import (_additive_log, _dot_log, _lazard_brace_filtration, _require_omega_hom, _require_w_hom,
                              _stack_rows, _sweep, brace_to_post_lie, lambda_derivative, omega_map, post_lie_to_brace,
                              transfer_report, u_eval)
from lazbrace.modarith import (
    AbelianBasis,
    Endo,
    ModArithError,
    PShape,
    _fill_group,
    _find_identity,
    _index_table,
    index_dtype,
    _table_orders,
    _table_times,
    _walk,
    abelian_decompose,
    endo_exp,
    endo_log,
    prime_power,
    root_of_unity,
)
from lazbrace.postlie import (PostLieRing, adjoint_filtration, circ_ring, classify_subset, l_series, left_series,
                              right_series, verify_post_lie)
from lazbrace.skewbrace import (
    SkewBrace,
    _all_subgroups_group,
    _automorphisms_into,
    _compatibility_failure,
    adjoint_group_filtration,
    all_group_chains,
    aut_plus,
    automorphisms,
    classify_subset_brace,
    enumerate_braces,
    l_series_brace,
    lambda_and_star,
    left_series_brace,
    minimal_generators,
    right_series_brace,
    strong_series_brace,
    substructures_brace,
    verify_skew_brace,
)


def oracle_group_table(table) -> bool:
    """Latin square, a two-sided identity, and (a b) c = a (b c) on every row a."""
    n = table.shape[0]
    idx = np.arange(n)
    if any(np.unique(r).size != n for r in table) or any(np.unique(c).size != n for c in table.T):
        return False
    if sum((table[e] == idx).all() and (table[:, e] == idx).all() for e in range(n)) != 1:
        return False
    return all(np.array_equal(table[table[a]], table[a][table]) for a in range(n))


def oracle_brace(B: SkewBrace) -> bool:
    """Both group tables, one identity, and the compatibility for every a."""
    if not (oracle_group_table(B.dot.table) and oracle_group_table(B.circ.table)):
        return False
    if B.dot.identity != B.circ.identity:
        return False
    dot, circ, inv = B.dot.table, B.circ.table, B.dot.inv
    for a in range(B.order):
        lhs = circ[a, dot]  # a o (b . c)
        rhs = dot[dot[circ[a], inv[a]][:, None], circ[a][None, :]]  # (a o b) . a^-1 . (a o c)
        if not np.array_equal(lhs, rhs):
            return False
    return True


def oracle_filtration(F: Filtration, full, trivial, closure, op) -> bool:
    """Ends, descent, closed terms, and op(X_i, X_j) in X_(i+j) on all pairs."""
    terms = F.terms
    if terms[0] != full or terms[-1] != trivial:
        return False
    if any(not b <= a for a, b in zip(terms, terms[1:])):
        return False
    if any(closure(t) != t for t in terms):
        return False
    return all(op(ti, tj) <= F.term(i + j)
               for i, ti in enumerate(terms, start=1) for j, tj in enumerate(terms, start=1))


def oracle_add_closure(shape: PShape, gen_indices) -> frozenset:
    """Frontier search: add every generator to the newest members until no
    new element appears."""
    gens = np.unique(np.asarray(sorted(set(int(g) for g in gen_indices)), dtype=np.int64))
    members = {0}
    frontier = [0]
    if gens.size == 0:
        return frozenset(members)
    gen_coords = shape.coords_batch(gens)
    while frontier:
        fc = shape.coords_batch(np.asarray(frontier, dtype=np.int64))
        sums = shape.index_batch(fc[:, None, :] + gen_coords[None, :, :]).ravel()
        frontier = [int(s) for s in np.unique(sums) if int(s) not in members]
        members.update(frontier)
    return frozenset(members)


def oracle_span_fold(shape: PShape, order, target: np.ndarray | None = None) -> tuple[np.ndarray, list[int]]:
    """Fold H <- H + <g> from H = 0 over the elements g of `order` not yet in
    H, one g at a time, dropping the walked prefix; returns the mask of H
    and the g kept.  With a target mask, stops as soon as H equals it."""
    p = shape.p
    order = np.asarray(order, dtype=np.int64)
    inside = np.zeros(shape.order, dtype=bool)
    inside[0] = True
    members = np.zeros(1, dtype=np.int64)
    kept: list[int] = []
    while order.size:
        if target is not None and np.array_equal(inside, target):
            break
        fresh = np.flatnonzero(~inside[order])
        if fresh.size == 0:
            break
        g = int(order[fresh[0]])
        order = order[fresh[0] + 1:]
        # the order q of g modulo H: the least p^j with p^j g in H; the
        # cosets H + t g for t < q are disjoint
        multiples = shape.index_batch(np.multiply.outer(
            p ** np.arange(shape.exps[0] + 1), shape.coords_batch(g)))
        q = p ** int(np.argmax(inside[multiples]))
        steps = np.arange(q, dtype=np.int64)[:, None, None] * shape.coords_batch(g)
        members = shape.index_batch(steps + shape.coords_batch(members)).ravel()
        inside[members] = True
        kept.append(g)
    return inside, kept


def oracle_greedy_gens(closure, members: frozenset, order=None) -> list[int]:
    """Walk `order` (default: sorted members) once, keeping each element
    outside the closure of those kept so far, the closure recomputed from
    scratch after each one; stops when the closure equals `members`."""
    gens: list[int] = []
    have = closure(gens)
    for x in sorted(members) if order is None else order:
        if have == members:
            break
        if x not in have:
            gens.append(int(x))
            have = closure(gens)
    return gens


def oracle_add_subgroups(shape: PShape) -> list[frozenset]:
    """Breadth-first search over one-element extensions, deduplicated
    through a set of the subgroups seen."""
    closure = lambda gens: oracle_add_closure(shape, gens)
    trivial = frozenset({0})
    seen = {trivial}
    queue = [trivial]
    out = [trivial]
    while queue:
        H = queue.pop()
        gens = oracle_greedy_gens(closure, H)
        for x in range(1, shape.order):
            if x in H:
                continue
            H2 = closure(gens + [x])
            if H2 not in seen:
                seen.add(H2)
                out.append(H2)
                queue.append(H2)
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def oracle_classify_subset(P, members: frozenset) -> IdealLevel:
    """Each level by the product sets over all pairs of the carrier and
    the subset."""
    s = P.shape
    if oracle_add_closure(s, members) != members:
        return IdealLevel.NOT_CLOSED
    full = frozenset(range(s.order))
    if not _bracket_set(P.base, members, members) <= members:
        return IdealLevel.NOT_CLOSED
    if not _tri_set(P, members, members) <= members:
        return IdealLevel.NOT_CLOSED
    if not _tri_set(P, full, members) <= members:
        return IdealLevel.SUB
    if not _bracket_set(P.base, full, members) <= members:
        return IdealLevel.LEFT_IDEAL
    if not _bracket_set(circ_ring(P), full, members) <= members:
        return IdealLevel.STRONG_LEFT_IDEAL
    return IdealLevel.IDEAL


def _pair_table(n: int, rows) -> np.ndarray:
    """The (n, n) table with entry (a, b) = rows(A, B)[i] on the flat index
    pairs (A[i], B[i]), evaluated a block of rows at a time."""
    table = np.empty((n, n), dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    for blk in row_blocks(n, n):
        table[blk] = rows(np.repeat(idx[blk], n), np.tile(idx, blk.stop - blk.start)).reshape(-1, n)
    return table


def oracle_laz(L) -> np.ndarray:
    """BCH on every pair of coordinate vectors."""
    s, co = L.shape, L.shape.all_coords()
    degree = max(canonical_filtration(L).length, 1)
    return _pair_table(s.order, lambda A, B: s.index_batch(_bch_batch(L, degree, co[A], co[B])))


def oracle_group_series(G: FinGroup):
    """G_(i+1) closed from the commutators of all of G with all of G_i."""
    full = frozenset(range(G.order))
    return descending_series(full, lambda cur: group_closure(G, _comm_set(G, full, cur)))


def oracle_table_series(T: LieRingTable):
    """[T, X] closed from the brackets of all of T with all of X."""
    full = frozenset(range(T.order))
    return descending_series(full, lambda cur: group_closure(
        T.add_group(), _index_set(lambda x, y: T.bracket[x, y], full, cur)))


def oracle_laz_inv(G: FinGroup, k: int) -> tuple[np.ndarray, np.ndarray]:
    """P and Q, truncated at the class k of G, on every pair of group elements."""
    p_word, q_word = (w.truncated(k) for w in freelie.inverse_words(max(k, 1)))
    return (_pair_table(G.order, lambda A, B: _eval_word_batch(G, p_word, A, B)),
            _pair_table(G.order, lambda A, B: _eval_word_batch(G, q_word, A, B)))


def oracle_laz_of_table(T: LieRingTable, k: int) -> np.ndarray:
    """BCH, truncated at the class k of T, by table gathers on every pair of
    carrier elements."""
    G = T.add_group()
    terms = freelie.bch_terms(k)
    return _pair_table(T.order, lambda A, B: freelie.fold_terms(
        terms, A, B, lambda u, v: T.bracket[u, v],
        lambda acc, v, c: T.add[acc, _rational_power_batch(G, v, c)], np.full(A.shape, T.zero)))


def _oracle_decompose(table, identity: int, p: int) -> list[tuple[int, int]]:
    """[(generator, exponent)] by the greedy quotient recursion, the
    quotient table built entry by entry through a dict."""
    n = table.shape[0]
    if n == 1:
        return []
    orders = _table_orders(table, identity, p)
    maxo = int(orders.max())
    e1 = 0
    while p ** e1 < maxo:
        e1 += 1
    g = int(np.nonzero(orders == maxo)[0][0])
    chain = [identity]
    for _ in range(maxo - 1):
        chain.append(int(table[chain[-1], g]))
    dlog = {x: i for i, x in enumerate(chain)}
    reps_of = table[:, np.array(chain, dtype=np.int64)].min(axis=1)
    reps = np.unique(reps_of)
    qindex = {int(r): i for i, r in enumerate(reps)}
    qtable = np.empty((reps.size, reps.size), dtype=np.int64)
    for i, r in enumerate(reps):
        qtable[i] = [qindex[int(reps_of[int(table[int(r), int(c)])])] for c in reps]
    out = [(g, e1)]
    for qgen, f in _oracle_decompose(qtable, qindex[int(reps_of[identity])], p):
        x = int(reps[qgen])
        pf = p ** f
        c = dlog[int(_table_times(table, np.array([x]), pf, identity)[0])]
        out.append((int(table[x, chain[(maxo - (c // pf) % maxo) % maxo]]), f))
    return out


def oracle_abelian_decompose(table) -> AbelianBasis:
    """The invariant-factor basis, with one np.unique per row."""
    n = table.shape[0]
    for row in table:
        if np.unique(row).size != n:
            raise ModArithError("table rows are not permutations")
    p, _ = prime_power(n)
    identity = _find_identity(table)
    gens_exps = _oracle_decompose(table, identity, p)
    elem_of = np.array([identity], dtype=np.int64)
    for g, e in gens_exps:
        chain = [identity]
        for _ in range(p ** e - 1):
            chain.append(int(table[chain[-1], g]))
        elem_of = table[elem_of[None, :], np.array(chain, dtype=np.int64)[:, None]].ravel()
    index_of_elem = np.empty(n, dtype=np.int64)
    index_of_elem[elem_of] = np.arange(n)
    return AbelianBasis(PShape(p, tuple(e for _, e in gens_exps)), tuple(g for g, _ in gens_exps),
                        elem_of, index_of_elem)


def _raises_modarith(fn) -> bool:
    try:
        fn()
    except ModArithError:
        return True
    return False


def _xor_table(k):
    a = np.arange(1 << k)
    return a[:, None] ^ a[None, :]


def _intercalate_switch(table, r, c, d):
    """Swap the 2x2 Latin subsquare on rows r, r^d and columns c, c^d of an
    elementary abelian 2-group: still a loop, in general not associative."""
    t = table.copy()
    for x in (r, r ^ d):
        t[x, c], t[x, c ^ d] = t[x, c ^ d], t[x, c]
    return t


def _product(t1, t2):
    """Direct product table on (a1, a2) -> a1 + n1 a2: generators of the first
    factor come first, so a fault of the second shows only at a later one."""
    t1, t2 = (np.asarray(t, dtype=np.int64) for t in (t1, t2))  # a1 + n1 a2 overflows a compact dtype
    n1 = t1.shape[0]
    n = n1 * t2.shape[0]
    return (t1[None, :, None, :] + n1 * t2[:, None, :, None]).reshape(n, n)


def _perturbed(table, rng):
    t = table.copy()
    n = t.shape[0]
    x, y = (int(v) for v in rng.integers(1, n, size=2))
    t[x, y] = (int(t[x, y]) + 1) % n
    return t


def _relabelled(B: SkewBrace, rng) -> SkewBrace:
    """Same dot group; the circ group moved by a permutation fixing 0."""
    n = B.order
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    inv = np.empty_like(perm)
    inv[perm] = np.arange(n)
    return SkewBrace(B.dot, FinGroup(perm[B.circ.table[inv[:, None], inv[None, :]]], 0))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(2024)


def test_group_tables_match_the_row_oracle(rng):
    tables = [laz(L).table for L in (catalogs.heisenberg(3), catalogs.heisenberg(5),
                                     catalogs.class2_r4(3), catalogs.abelian(5, (2, 1)))]
    for k, switches in ((3, [(1, 2, 3), (2, 4, 7)]), (9, [(1, 2, 3), (5, 300, 77)])):
        X = _xor_table(k)  # k = 9: order 512
        tables += [X] + [_intercalate_switch(X, *sw) for sw in switches]
    tables += [_perturbed(t, rng) for t in tables]
    tables += [_product(tables[0], t) for t in tables[5:7]]
    verdicts = [bool(verify_group_table(t).ok) for t in tables]
    assert verdicts == [oracle_group_table(t) for t in tables]
    assert True in verdicts and False in verdicts


def _perturbed_braces(rng) -> list[SkewBrace]:
    """The braces of order 9, two of order 25, their circ groups relabelled
    (not compatible in general), six with one circ entry moved (no group)
    and products of the first with 20 of these."""
    braces = [B for _, B in catalogs.order9_braces()] + [catalogs.radical_brace(5, 2), catalogs.twisted_sum(5)]
    braces += [_relabelled(B, rng) for B in braces for _ in range(2)]
    braces += [SkewBrace(B.dot, FinGroup(_perturbed(B.circ.table, rng), 0)) for B in braces[:6]]
    first = braces[0]
    braces += [SkewBrace(FinGroup(_product(first.dot.table, B.dot.table), 0),
                         FinGroup(_product(first.circ.table, B.circ.table), 0)) for B in braces[:20]]
    return braces


def test_braces_match_the_compatibility_oracle(rng):
    braces = _perturbed_braces(rng)
    reports = [verify_skew_brace(B) for B in braces]
    verdicts = [bool(rep.ok) for rep in reports]
    assert verdicts == [oracle_brace(B) for B in braces]
    assert verdicts == [oracle_verify_skew_brace(B) for B in braces]
    assert True in verdicts and False in verdicts
    compat = 0
    for B, rep in zip(braces, reports):
        if not (oracle_group_table(B.dot.table) and oracle_group_table(B.circ.table)):
            continue
        compat += not rep.ok
        if not rep.ok:  # the witness breaks compatibility, at generators a of circ and b of dot
            a, b, c = map(int, re.fullmatch(r"compatibility fails at \(a,b,c\)=\((\d+),(\d+),(\d+)\)",
                                            rep.failures[0]).groups())
            dot, circ, inv = B.dot.table, B.circ.table, B.dot.inv
            assert circ[a, dot[b, c]] != dot[dot[circ[a, b], inv[a]], circ[a, c]]
            assert a in B.circ.gens and b in B.dot.gens
        got, want = _failure(lambda: lambda_and_star(B)), _failure(lambda: oracle_lambda_and_star(B))
        assert (got is None) == (want is None) == rep.ok
        if rep.ok:
            assert all(map(np.array_equal, lambda_and_star(B), oracle_lambda_and_star(B)))
    assert compat >= 10


def test_group_chains_match_the_pairwise_oracle(data_dir):
    # every chain (G, H, K, 1) of the extraspecial group, normal terms or not
    _, G = formats.parse_file(data_dir / "extraspecial_27.grp")
    subs = sets(_all_subgroups_group(G))
    full, trivial = frozenset(range(G.order)), frozenset({G.identity})
    chains = [Filtration((full, H, K, trivial)) for H in subs for K in subs if K <= H]
    verdicts = [not _raises_modarith(lambda: validate_group_filtration(G, F)) for F in chains]
    oracle = [oracle_filtration(F, full, trivial, lambda t: group_closure(G, t),
                                lambda A, B: _comm_set(G, A, B)) for F in chains]
    assert verdicts == oracle
    assert True in verdicts and False in verdicts


def test_lie_chains_match_the_pairwise_oracle():
    L = catalogs.heisenberg(3)
    s = L.shape
    subs = all_add_subgroups(s)
    full, trivial = frozenset(range(s.order)), frozenset({0})
    chains = [Filtration((full, H, K, trivial)) for H in subs for K in subs if K <= H]
    verdicts = [not _raises_modarith(lambda: is_lazard(L, F)) for F in chains]
    oracle = [oracle_filtration(F, full, trivial, lambda t: add_closure(s, t),
                                lambda A, B: _bracket_set(L, A, B)) for F in chains]
    assert verdicts == oracle
    assert True in verdicts and False in verdicts


# Subgroup counts of each shape (Birkhoff-Delsarte): p = 2, rank 1 and
# mixed exponents included.
_SUBGROUP_COUNTS = [
    (3, (1, 1, 1, 1), 212), (5, (1, 1, 1), 64), (3, (1, 1, 1), 28), (3, (2, 1), 10),
    (3, (2, 1, 1), 50), (3, (2, 2), 23), (5, (2, 1), 14), (3, (3,), 4), (2, (2, 1, 1), 27),
]


@pytest.mark.parametrize("p, exps, total", _SUBGROUP_COUNTS)
def test_subgroups_match_the_closure_search(p, exps, total):
    shape = PShape(p, exps)
    subs = all_add_subgroups(shape)
    assert len(subs) == total
    assert len(set(subs)) == total
    assert subs == oracle_add_subgroups(shape)


def test_add_closure_matches_the_frontier_oracle(rng):
    for p, exps, _ in _SUBGROUP_COUNTS:
        shape = PShape(p, exps)
        for k in (0, 1, 1, 2, 2, 3, 5):
            gens = rng.integers(0, shape.order, size=k).tolist()
            assert add_closure(shape, gens) == oracle_add_closure(shape, gens), (p, exps, gens)


def test_span_fold_matches_the_target_oracle(rng):
    # the one-row _span_rows fold against the one-generator-at-a-time fold
    # it replaced: with or without the target exit on subgroups, and on
    # walks with repeats, zeros and elements outside any one subgroup
    for p, exps, _ in _SUBGROUP_COUNTS:
        shape = PShape(p, exps)
        for k in (0, 1, 2, 3, 5, 12):
            walk = rng.integers(0, shape.order, size=k)
            span, kept = _span_fold(shape, walk)
            want_span, want_kept = oracle_span_fold(shape, walk)
            assert np.array_equal(span, want_span) and kept == want_kept, (p, exps, walk)
        for H in all_add_subgroups(shape)[:-1]:  # the whole carrier takes the unit vectors
            inside = mask(shape.order, H)
            assert _subgroup_gens(shape, inside) == oracle_span_fold(shape, sorted(H), inside)[1], (p, exps, H)


def _non_subgroups(subs, n, rng):
    """A subgroup with one outside element added or one nonzero member
    dropped, and a random subset holding 0: none is an additive subgroup
    (the last one is dropped in the rare case that it is)."""
    H = subs[int(rng.integers(1, len(subs) - 1))]
    outside = sorted(set(range(n)) - H)
    out = [H | {int(rng.choice(outside))}, H - {int(rng.choice(sorted(H - {0})))}]
    picked = frozenset({0} | set(rng.choice(n, size=int(rng.integers(2, n)), replace=False).tolist()))
    return out + [picked] * (picked not in subs)


def _left_not_right(p):
    """g2 > g1 = g3 on the abelian (p;[1,1,1]): <g2> is a strong left
    ideal and not an ideal, a level no catalog ring reaches."""
    P = PostLieRing.from_products(catalogs.abelian(p, (1, 1, 1)), {(1, 0): (0, 0, 1)})
    assert verify_post_lie(P).ok
    return P


def test_classifications_match_the_pairwise_oracle(postlie_cat, rng):
    rings = [(name, P) for name, P in postlie_cat if P.shape.order <= 125]
    levels = set()
    for name, P in rings + [("left_not_right_p3", _left_not_right(3))]:
        subs = all_add_subgroups(P.shape)
        for S in subs:
            level = classify_subset(P, S)
            assert level == oracle_classify_subset(P, S), (name, sorted(S))
            levels.add(level)
        if len(subs) > 2:
            for S in _non_subgroups(subs, P.shape.order, rng):
                assert classify_subset(P, S) == oracle_classify_subset(P, S) == IdealLevel.NOT_CLOSED
    assert levels == set(IdealLevel)


# ---------------------------------------------------------------------------
# The batched subgroup sweep against the one-subset classifiers it replaced.


def oracle_classify_subset_gens(P, members: frozenset) -> IdealLevel:
    """One subset at a time: the greedy additive fold of its sorted
    members, then each level on the generators kept and the unit vectors."""
    s = P.shape
    H = sorted(members)
    span, gens = oracle_span_fold(s, H, mask(s.order, members))
    if span.sum() != len(H):  # the fold stops at H exactly when H is closed
        return IdealLevel.NOT_CLOSED
    inside = np.zeros(s.order, dtype=bool)
    inside[H] = True
    G = s.coords_batch(np.asarray(gens, dtype=np.int64))
    units = np.eye(s.rank, dtype=np.int64)

    def within(op, X):
        return inside[s.index_batch(op(X[:, None, :], G[None, :, :]))].all()

    if not (within(P.base.bracket_batch, G) and within(P.tri_batch, G)):
        return IdealLevel.NOT_CLOSED
    if not within(P.tri_batch, units):
        return IdealLevel.SUB
    if not within(P.base.bracket_batch, units):
        return IdealLevel.LEFT_IDEAL
    if not within(P.circ.bracket_batch, units):
        return IdealLevel.STRONG_LEFT_IDEAL
    return IdealLevel.IDEAL


def oracle_classify_subset_brace(B: SkewBrace, members: frozenset) -> IdealLevel:
    """One subset at a time: its group closure, then circ on all pairs of
    members, and lambda_a and both conjugations by every a of A."""
    if B.dot.identity not in members or group_closure(B.dot, members) != members:
        return IdealLevel.NOT_CLOSED
    arr = np.asarray(sorted(members), dtype=np.int64)
    inside = lambda vals: set(int(v) for v in np.unique(vals)) <= members
    if not inside(B.circ.table[arr[:, None], arr[None, :]]):
        return IdealLevel.NOT_CLOSED
    if not inside(lam_table(B)[:, arr]):
        return IdealLevel.SUB
    n = B.order
    allidx = np.arange(n, dtype=np.int64)
    conj_dot = B.dot.table[B.dot.table[allidx[:, None], arr[None, :]], B.dot.inv[allidx][:, None]]
    if not inside(conj_dot):
        return IdealLevel.LEFT_IDEAL
    conj_circ = B.circ.table[B.circ.table[allidx[:, None], arr[None, :]], B.circ.inv[allidx][:, None]]
    if not inside(conj_circ):
        return IdealLevel.STRONG_LEFT_IDEAL
    return IdealLevel.IDEAL


def test_batched_sweep_matches_the_one_subset_oracles(postlie_cat):
    levels = set()
    for name, P in list(postlie_cat) + [("left_not_right_p3", _left_not_right(3))]:
        flow = post_lie_to_brace(P, check=False)
        subs = all_add_subgroups(P.shape)
        runs = _add_subgroup_runs(P.shape)
        swept = [(row.tolist(), lv_p, lv_b) for members, lp, lb in _sweep(P, flow.brace, runs)
                 for row, lv_p, lv_b in zip(members, lp, lb)]
        assert [row for row, _, _ in swept] == [sorted(S) for S in subs], name
        expected = [(oracle_classify_subset_gens(P, S), oracle_classify_subset_brace(flow.brace, S)) for S in subs]
        assert [(lv_p, lv_b) for _, lv_p, lv_b in swept] == expected, name
        mismatches = tuple((sorted(S), a.name, b.name) for S, (a, b) in zip(subs, expected) if a != b)
        assert transfer_report(P, flow).mismatches == mismatches, name
        levels |= {a for a, _ in expected}
    assert levels == set(IdealLevel)


def test_single_subsets_match_the_oracles_off_subgroups(postlie_cat, z8z2_braces, rng):
    # the one-row case on subsets that are not subgroups, on both sides
    for name, P in [(name, P) for name, P in postlie_cat if P.shape.order <= 125] + [
            ("left_not_right_p3", _left_not_right(3))]:
        B = post_lie_to_brace(P, check=False).brace
        subs = all_add_subgroups(P.shape)
        for S in (_non_subgroups(subs, P.shape.order, rng) if len(subs) > 2 else []) + [frozenset()]:
            assert classify_subset(P, S) == oracle_classify_subset_gens(P, S) == IdealLevel.NOT_CLOSED, name
            assert classify_subset_brace(B, S) == oracle_classify_subset_brace(B, S), (name, sorted(S))
    # and every dot subgroup, plus random subsets, of braces on D_4, of order
    # 9 and on Z/8 x Z/2, where lambda-invariance against the dot generators
    # instead of the circ generators would give wrong verdicts
    levels = set()
    for name, B in ([(f"d4_{i}", B) for i, B in enumerate(enumerate_braces(_D4))] + catalogs.order9_braces()
                    + [(f"z8z2_{i}", B) for i, B in enumerate(z8z2_braces)]):
        n = B.order
        subsets = sets(_all_subgroups_group(B.dot)) + [
            frozenset({0} | set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist()))
            for _ in range(3)]
        for S in subsets:
            level = classify_subset_brace(B, S)
            assert level == oracle_classify_subset_brace(B, S), (name, sorted(S))
            levels.add(level)
    # the braces on Z/8 x Z/2 have strong left ideals that are not ideals
    assert levels == set(IdealLevel)


# ---------------------------------------------------------------------------
# Lazard tables from generator rows against the all-pairs evaluators.


@pytest.fixture(scope="module")
def lazard_tables(lie_cat, postlie_cat):
    """(name, L, laz(L), laz_inv of it) over the Lie catalog and the base
    and circ ring of every post-Lie catalog ring."""
    rings = list(lie_cat) + [(f"{name}.{part}", getattr(P, part))
                             for name, P in postlie_cat for part in ("base", "circ")]
    out = []
    for name, L in rings:
        G = laz(L)
        out.append((name, L, G, laz_inv(G)))
    return out


def test_lazard_tables_match_the_all_pairs_oracles(lazard_tables):
    assert len(lazard_tables) == 153  # 51 Lie rings, 51 base and 51 circ rings
    for name, L, G, T in lazard_tables:
        assert np.array_equal(G.table, oracle_laz(L)), name
        series = oracle_group_series(G)
        assert canonical_group_filtration(G) == series, name
        add, br = oracle_laz_inv(G, series.nilpotency_class)
        assert np.array_equal(T.add, add) and np.array_equal(T.bracket, br), name
        series = oracle_table_series(T)
        assert _table_series(T, T.add_group()) == series, name
        assert np.array_equal(laz_of_table(T).table, oracle_laz_of_table(T, series.nilpotency_class)), name


def test_group_series_match_the_all_pairs_oracle(data_dir):
    _, G = formats.parse_file(data_dir / "extraspecial_27.grp")
    assert canonical_group_filtration(G) == oracle_group_series(G)
    # not nilpotent: S_3, stabilising at A_3
    S3 = FinGroup(np.array([[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
                            [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]), 0)
    assert verify_group_table(S3.table).ok
    assert canonical_group_filtration(S3) == oracle_group_series(S3)
    assert not canonical_group_filtration(S3).is_nilpotent


def test_abelian_bases_match_the_row_oracle(lazard_tables, lie_cat):
    rng = np.random.default_rng(5)
    for name, _L, _G, T in lazard_tables[:len(lie_cat)]:
        basis, oracle = abelian_decompose(T.add), oracle_abelian_decompose(T.add)
        assert basis.shape == oracle.shape and basis.gens == oracle.gens, name
        assert np.array_equal(basis.elem_of, oracle.elem_of), name
        assert np.array_equal(basis.index_of_elem, oracle.index_of_elem), name
        if T.order > 125:
            continue
        # the carrier bridge, here and on a relabelled carrier: gens are the
        # unit-vector elements, coords and elems invert each other, relabel
        # conjugates a table by elem_of
        perm = rng.permutation(T.order)
        inv = np.argsort(perm)
        for basis in (basis, abelian_decompose(perm[T.add[inv[:, None], inv[None, :]]])):
            s = basis.shape
            assert basis.gens == tuple(basis.elem_of[s.index_batch(np.eye(s.rank, dtype=np.int64))]), name
            assert np.array_equal(basis.coords, s.all_coords()[basis.index_of_elem]), name
            assert np.array_equal(basis.elems(basis.coords), np.arange(T.order)), name
            eo, ie = basis.elem_of, basis.index_of_elem
            assert np.array_equal(basis.relabel(T.bracket), eo[T.bracket[ie[:, None], ie[None, :]]]), name
    bad = np.add.outer(np.arange(9), np.arange(9)) % 9
    bad[2, 5] = bad[5, 2] = 0  # symmetric, with rows that are not permutations
    for decompose in (abelian_decompose, oracle_abelian_decompose):
        with pytest.raises(ModArithError, match="not permutations"):
            decompose(bad)


# ---------------------------------------------------------------------------
# Omega, U and the root-of-unity triangle against the holomorph evaluator
# and the per-element loops they replace.


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


def oracle_u_eval(B: SkewBrace, a: int, alpha: np.ndarray, k: int) -> int:
    """U(a, alpha): carrier part of P((a, alpha), (1, alpha^-1)) inside Hol^+,
    the inverse word truncated at k, one holomorph product at a time."""
    hol = _Hol(B.dot, B.p)
    p_word, _ = freelie.inverse_words(max(k, 1))
    word = p_word.truncated(k)
    alpha = np.asarray(alpha, dtype=np.int64)
    acc = freelie.fold_terms(word.factors, (int(a), alpha), (B.dot.identity, _perm_inv(alpha)),
                             hol.comm, lambda acc, v, q: hol.mul(acc, hol.rational_power(v, Fraction(q))),
                             hol.id_pair)
    return acc[0]


def oracle_lambda_derivative(B: SkewBrace, log) -> np.ndarray:
    """The root-of-unity triangle, one carrier element a at a time."""
    p = B.p
    s = log.post_lie.shape
    basis = log.basis
    xi = root_of_unity(p, s.exps[0])
    xi_inv = pow(xi, -1, s.max_modulus)
    coords_of_elem = s.all_coords()[basis.index_of_elem]
    inv_pm1 = s.scale_multiplier(Fraction(1, p - 1))
    out = np.empty((B.order, B.order), dtype=np.int64)
    lam = lam_table(B)
    for a in range(B.order):
        acc = np.zeros((B.order, s.rank), dtype=np.int64)
        for i in range(p - 1):
            scal = pow(xi_inv, i, s.max_modulus)
            a_i = int(basis.elem_of[s.index_batch(s.reduce(coords_of_elem[a] * scal))])
            acc = s.reduce(acc + pow(xi, i, s.max_modulus) * coords_of_elem[lam[a_i]])
        out[a] = basis.elem_of[s.index_batch(s.reduce(acc * inv_pm1))]
    return out


def _relabelled_brace(B: SkewBrace, rng) -> SkewBrace:
    """Both tables moved by one permutation fixing 0: an isomorphic brace."""
    n = B.order
    perm = np.concatenate([[0], 1 + rng.permutation(n - 1)])
    inv = _perm_inv(perm)
    relabel = lambda G: FinGroup(perm[G.table[inv[:, None], inv[None, :]]], 0)
    return SkewBrace(relabel(B.dot), relabel(B.circ))


@pytest.fixture(scope="module")
def brace_corpus(postlie_cat, order9_braces):
    """The flow images of the post-Lie catalog, the braces of order 9, six
    radical braces, and four radical braces on relabelled carriers."""
    rng = np.random.default_rng(7)
    out = [(name, post_lie_to_brace(P, check=False).brace) for name, P in postlie_cat]
    out += list(order9_braces)
    out += [(f"radical_{p}_{e}", catalogs.radical_brace(p, e))
            for p, e in ((3, 2), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3))]
    out += [(f"relabelled_{p}_{e}_{i}", _relabelled_brace(catalogs.radical_brace(p, e), rng))
            for i, (p, e) in enumerate(((5, 3), (5, 3), (5, 3), (5, 4)))]
    return out


def test_omega_and_u_match_the_holomorph_oracle(brace_corpus):
    assert len(brace_corpus) == 73
    rng = np.random.default_rng(11)
    for name, B in brace_corpus:
        k = l_series_brace(B).nilpotency_class
        Om = omega_map(B)
        lam = lam_table(B)
        assert np.array_equal(Om, [oracle_u_eval(B, a, lam[a], k) for a in range(B.order)]), name
        # off the diagonal: U(a, lambda_b) for sampled pairs, as one stacked call
        a, b = rng.integers(0, B.order, size=(2, 6))
        expected = [oracle_u_eval(B, x, lam[y], k) for x, y in zip(a, b)]
        assert np.array_equal(u_eval(B, a, lam[b]), expected), name
        assert u_eval(B, int(a[0]), lam[b[0]]) == expected[0], name


def test_lambda_derivative_matches_the_per_element_loop(brace_corpus):
    checked = 0
    for name, B in brace_corpus:
        ss = strong_series_brace(B, cap=B.p + 1)
        if ss.nilpotency_class is None or ss.nilpotency_class >= B.p:
            continue
        log = brace_to_post_lie(B, check=False)
        assert np.array_equal(lambda_derivative(B, log), oracle_lambda_derivative(B, log)), name
        checked += 1
    assert checked == len(brace_corpus)


# ---------------------------------------------------------------------------
# Tables of additive maps, filled along the carrier's additive Schreier
# tree, against the coordinate passes over all pairs, a block of rows at a
# time, that built them before.


def oracle_block_table(m: int, n: int, block) -> np.ndarray:
    """The (m, n) table whose rows `rows`, one row_blocks slice at a time,
    are block(rows)."""
    out = np.empty((m, n), dtype=np.int64)
    for rows in row_blocks(m, n):
        out[rows] = block(rows)
    return out


def oracle_circ(P: PostLieRing, omega: np.ndarray, k: int) -> np.ndarray:
    """The flow's circle product a . exp(L_Omega(a))(b), the images taken
    in coordinates on all pairs."""
    s = P.shape
    n, coords = s.order, s.all_coords()
    exp_mats = endo_exp(Endo(s, P.l_mats(coords[omega])), max(k, 1)).mat
    images = oracle_block_table(n, n, lambda rows: s.index_batch(coords @ exp_mats[rows]))
    return laz(P.base).table[np.arange(n)[:, None], images]


def oracle_additive_log(basis: AbelianBasis, alpha, k: int, name: str, exc, elements=None) -> np.ndarray:
    """log of the maps alpha, after comparing alpha with their matrix
    images on all pairs."""
    coords = basis.coords
    mats = Endo(basis.shape, coords[alpha[:, list(basis.gens)]])
    images = oracle_block_table(len(alpha), len(coords), lambda rows: basis.elems(coords @ mats.mat[rows]))
    require_none(images != alpha, f"{name} is not additive over Laz^-1 of the dot group", exc, elements)
    return endo_log(mats, max(k, 1)).mat


def oracle_tri_table(basis: AbelianBasis, D: np.ndarray, W: np.ndarray) -> np.ndarray:
    """a > b = D[W(a)](b) on all pairs."""
    coords = basis.coords
    return oracle_block_table(len(W), len(W), lambda rows: basis.elems(coords @ D[W[rows]]))


def oracle_tri_rebuild(basis: AbelianBasis, P: PostLieRing) -> np.ndarray:
    """The bilinear extension of P's triangle constants on all pairs."""
    coords = basis.coords
    n = len(coords)
    return oracle_block_table(n, n, lambda rows: basis.elems(P.tri_batch(coords[rows, None, :], coords)))


def oracle_adjoint_terms(P: PostLieRing) -> tuple[frozenset, ...]:
    """adjoint_filtration's terms, with the triangle taken on all pairs."""
    s = P.shape
    coords, F = s.all_coords(), l_series(P).filtration
    tri = oracle_block_table(s.order, s.order, lambda rows: s.index_batch(P.tri_batch(coords[rows, None, :], coords)))
    level = np.maximum(np.minimum(F.level, F.margin(tri)), 0)
    level[0] = int(level[1:].max(initial=0)) + 1
    return Filtration._of(level, int(level[0])).terms


def oracle_reconstruction(basis: AbelianBasis) -> np.ndarray:
    """The shape's addition moved onto the table elements, on all pairs."""
    coords = basis.coords
    n = len(coords)
    return oracle_block_table(n, n, lambda rows: basis.elems(coords[rows, None, :] + coords))


def oracle_bracket_rebuild(basis: AbelianBasis, L: LieRingSC) -> np.ndarray:
    """The bilinear extension of L's bracket constants on all pairs."""
    coords = basis.coords
    n = len(coords)
    return oracle_block_table(n, n, lambda rows: basis.elems(L.bracket_batch(coords[rows, None, :], coords)))


def oracle_table_to_sc(T: LieRingTable) -> tuple[LieRingSC, AbelianBasis]:
    """table_to_sc with the reconstruction and the bracket rebuilt on all
    pairs."""
    basis = oracle_abelian_decompose(T.add)
    if not np.array_equal(oracle_reconstruction(basis), T.add):
        raise ModArithError("table does not match abelian reconstruction")
    gens = list(basis.gens)
    L = LieRingSC(basis.shape, basis.coords[T.bracket[np.ix_(gens, gens)]])
    require_none(oracle_bracket_rebuild(basis, L) != T.bracket, "bracket table is not biadditive over the decomposition")
    return L, basis


def oracle_lambda_derivative_blocks(B: SkewBrace, log) -> np.ndarray:
    """The root-of-unity triangle in coordinates on all pairs."""
    p, basis = B.p, log.basis
    s = basis.shape
    m = s.max_modulus
    xi = root_of_unity(p, s.exps[0])
    coords = basis.coords
    lam = lam_table(B)

    def block(rows):
        acc = 0
        for i in range(p - 1):
            a_i = basis.elems(coords[rows] * pow(xi, -i, m))  # xi^(-i) a
            acc = s.reduce(acc + pow(xi, i, m) * coords[lam[a_i]])
        return basis.elems(acc * s.scale_multiplier(Fraction(1, p - 1)))

    return oracle_block_table(B.order, B.order, block)


def _failure(fn) -> str | None:
    try:
        fn()
    except (ModArithError, FailedTheoremError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


@pytest.fixture(scope="module")
def brace_logs(brace_corpus):
    return [(name, B, brace_to_post_lie(B, check=False)) for name, B in brace_corpus]


def test_additive_fills_match_the_all_pairs_oracles(postlie_cat, brace_logs, lazard_tables):
    for name, P in postlie_cat:
        flow = post_lie_to_brace(P, check=False)
        add = vars(P.shape.carrier).get("add")  # held only where it is the dot table (an abelian base)
        assert add is None or np.shares_memory(add, flow.brace.dot.table), name
        assert np.array_equal(flow.brace.circ.table, oracle_circ(P, flow.omega, flow.l_class)), name
        assert np.array_equal(P.shape.carrier.add, catalogs.shape_group(P.shape).table), name
        assert adjoint_filtration(P).terms == oracle_adjoint_terms(P), name
    for name, B, log in brace_logs:
        basis, k = log.basis, log.l_class
        lam = lam_table(B)
        D = oracle_additive_log(basis, lam, k, "lambda", FailedTheoremError)
        for rows in (_stack_rows(lam), B._lam_rows):  # the table, and rows built a block at a time
            assert np.array_equal(_additive_log(basis, rows, k, "lambda", FailedTheoremError)[0], D), name
        assert np.array_equal(log.tri_table, oracle_tri_table(basis, D, log.w)), name
        assert np.array_equal(oracle_tri_rebuild(basis, log.post_lie), log.tri_table), name
        assert np.array_equal(lambda_derivative(B, log), oracle_lambda_derivative_blocks(B, log)), name
    # the bases themselves match the row oracle in test_abelian_bases_match_the_row_oracle;
    # order 2401 is left out, where the oracles take 10 s
    for name, _L, _G, T in lazard_tables:
        if T.order > 625:
            continue
        L, basis = table_to_sc(T)
        assert np.array_equal(basis.add, oracle_reconstruction(basis)), name
        assert np.array_equal(oracle_bracket_rebuild(basis, L), T.bracket), name


def test_lambda_derivative_logs_the_brace_it_is_given(brace_logs):
    (_, B, log), (_, other, other_log) = brace_logs[-2:]
    assert np.array_equal(lambda_derivative(B, other_log), lambda_derivative(B, log))
    assert np.array_equal(lambda_derivative(other, log), other_log.tri_table)


def test_non_additive_maps_are_named_as_before(brace_logs):
    # one entry of lambda moved, in the column of each tree generator (the
    # ones the tree adds itself included) and in random columns: the same
    # exception, message and (a, b) as the comparison on all pairs
    rng = np.random.default_rng(13)
    deep = 0
    for name, B, log in brace_logs:
        basis, k = log.basis, log.l_class
        deep += len(basis.tree.gens) > len(basis.gens)
        lam = lam_table(B)
        for b in list(basis.tree.gens) + rng.integers(0, B.order, 2).tolist():
            a = int(rng.integers(0, B.order))
            alpha = lam.copy()
            alpha[a, b] = B.dot.table[alpha[a, b], basis.gens[0]]
            elements = rng.permutation(B.order)
            want = _failure(lambda: oracle_additive_log(basis, alpha, k, "alpha", ModArithError, elements))
            assert want is not None, (name, a, b)
            assert _failure(lambda: _additive_log(basis, _stack_rows(alpha), k, "alpha", ModArithError, elements)) == want
    assert deep >= 6


def test_non_biadditive_brackets_are_named_as_before(lazard_tables):
    # one bracket entry moved, off the generator pairs the constants are
    # read from, in the column of each generator the tree adds to gens and
    # in a random column (up to order 625: the oracle is slow at 2401).
    # The oracle's basis and rebuilt table stay those of T, which pass, so
    # its comparison is the one with T.bracket
    rng = np.random.default_rng(17)
    what = "bracket table is not biadditive over the decomposition"
    deep = 0
    for name, _L, _G, T in lazard_tables:
        if T.order > 625:
            continue
        _, basis = oracle_table_to_sc(T)
        tree_gens = abelian_decompose(T.add).tree.gens
        deep += len(tree_gens) > len(basis.gens)
        for b in list(tree_gens[len(basis.gens):]) + [int(rng.integers(0, T.order))]:
            a = int(rng.integers(0, T.order))
            if a in basis.gens and b in basis.gens:
                continue
            bracket = T.bracket.copy()
            bracket[a, b] = T.add[bracket[a, b], basis.gens[0]]
            want = _failure(lambda: require_none(T.bracket != bracket, what))
            assert want == f"FailedTheoremError: {what} at (a,b)=({a},{b})"
            assert _failure(lambda: table_to_sc(LieRingTable(T.add, bracket, T.zero))) == want, name
    assert deep >= 3


def test_ill_defined_bracket_constants_are_refused():
    # [g0, g1] = g0 on (3;[2,1]) is not killed by 3 although 3 g1 = 0, so
    # its coordinate formula on canonical coordinates is no biadditive
    # table; the comparison on all pairs accepted it as one
    s = PShape(3, (2, 1))
    co = s.all_coords()
    L = LieRingSC.from_brackets(s, {(0, 1): (1, 0)})
    add = catalogs.shape_group(s).table
    T = LieRingTable(add, s.index_batch(L.bracket_batch(co[:, None, :], co[None, :, :])), 0)
    g0, g1 = s.unit(0).index, s.unit(1).index
    thrice = T.add[T.add[T.bracket[g0, g1], T.bracket[g0, g1]], T.bracket[g0, g1]]
    assert T.add[T.add[g1, g1], g1] == 0 and thrice != T.bracket[g0, 0] == 0
    oracle_table_to_sc(T)
    with pytest.raises(FailedTheoremError, match=r"^bracket table is not biadditive over the decomposition at "):
        table_to_sc(T)


# ---------------------------------------------------------------------------
# Schreier trees and the run fill against the level-wise tree and fill they
# replace: the same generators and edges at each depth, and one 2-D gather
# per level.  The oracle tree takes each level's first edges with np.unique;
# with powers=False it has no power generators, as the trees before them,
# and the tables filled along it must not change.


def oracle_schreier(n: int, identity: int, row_of, gens, powers: bool = True) -> tuple[list[int], np.ndarray, list]:
    """(gens, int64 rows, levels), each level (ys, zs, gi) in increasing
    ys, with ys = gens[gi] zs; the least unreached element joins the
    generators where the tree stops short.  With powers, each generator
    joining is followed by g^p, g^(p^2), ... (p the least prime dividing
    n) while p^j < n and g^(p^j) is not the identity, each row the one
    before it applied p times."""
    p = min(d for d in range(2, n + 1) if n % d == 0) if n > 1 else 2
    gens_in, gens, rows = [int(g) for g in gens], [], []

    def join(g):
        gens.append(g)
        rows.append(np.asarray(row_of(g), dtype=np.int64))
        for j in range(1, n.bit_length() if powers else 0):
            if p ** j >= n:
                break
            acc = np.arange(n)
            for _ in range(p):
                acc = rows[-1][acc]
            if acc[identity] == identity:
                break
            gens.append(int(acc[identity]))
            rows.append(acc)

    for g in gens_in:
        join(g)
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    levels = []
    frontier = np.array([identity])
    deep = 2 * math.isqrt(n)
    while not reached.all():
        blocks = [(frontier, i) for i in range(len(gens))] if frontier.size else []
        if not blocks or len(levels) % deep == deep - 1:
            start = len(gens)
            join(int(frontier[0]) if blocks else int(np.argmin(reached)))
            blocks += [(np.flatnonzero(reached), i) for i in range(start, len(gens))]
        cand = np.concatenate([rows[i][zs] for zs, i in blocks])
        fresh = np.flatnonzero(~reached[cand])
        ys, first = np.unique(cand[fresh], return_index=True)
        pos = fresh[first]
        levels.append((ys, np.concatenate([zs for zs, _ in blocks])[pos],
                       np.concatenate([np.full(zs.size, i) for zs, i in blocks])[pos]))
        reached[ys] = True
        frontier = ys
    return gens, np.asarray(rows, dtype=np.int64).reshape(-1, n), levels


def oracle_fill(tree, root: int, first, step) -> np.ndarray:
    """The int64 table with row `first` at the root and, on each level,
    rows ys = step(gi, rows zs) as one 2-D gather."""
    table = np.empty((tree[1].shape[1], len(first)), dtype=np.int64)
    table[root] = first
    for ys, zs, gi in tree[2]:
        table[ys] = step(gi, table[zs])
    return table


def oracle_fill_group(tree, root: int) -> np.ndarray:
    rows = tree[1]
    return oracle_fill(tree, root, np.arange(rows.shape[1]), lambda gi, Z: rows[gi[:, None], Z])


def _word_row(G: FinGroup, word):
    """g -> the row x -> word(g, x) of a group word."""
    idx = np.arange(G.order, dtype=np.int64)
    return lambda g: _eval_word_batch(G, word, np.full(G.order, g), idx)


def _stacked(row_of):
    """The stacked rows_of of _schreier, from one row at a time."""
    return lambda X: np.asarray([row_of(int(g)) for g in X])


def oracle_laz_inv_fill(G: FinGroup, k: int, powers: bool = True):
    """laz_inv's tree of the rows P(g, .), and its addition and bracket
    filled level by level, with Q evaluated on every tree generator."""
    p_word, q_word = freelie.inverse_words(k)
    n = G.order
    tree = oracle_schreier(n, G.identity, _word_row(G, p_word), [], powers)
    add = oracle_fill_group(tree, G.identity)
    q_rows = np.asarray([_word_row(G, q_word)(g) for g in tree[0]], dtype=np.int64)
    return tree, add, oracle_fill(tree, G.identity, np.full(n, G.identity), lambda gi, Z: add[Z, q_rows[gi]])


def oracle_additive_table(basis: AbelianBasis, images):
    """The carrier's additive tree from the elements p^j gens[i], j < e_i,
    given explicitly and without power generators, and the (m, n) table
    of additive maps filled level by level along it."""
    s, coords = basis.shape, basis.coords
    steps = np.concatenate([np.multiply.outer(s.p ** np.arange(e), np.eye(s.rank, dtype=np.int64)[i])
                            for i, e in enumerate(s.exps)])
    root = int(basis.elem_of[0])
    tree = oracle_schreier(len(coords), root, lambda g: basis.elems(coords + coords[g]), basis.elems(steps),
                           powers=False)
    add = oracle_fill_group(tree, root)
    cols = basis.elems(images(coords[tree[0]])).T
    return tree, add, oracle_fill(tree, root, np.full(cols.shape[1], root), lambda gi, Z: add[cols[gi], Z]).T


def _assert_same_tree(tree, oracle, name) -> None:
    """The same generators, rows and depth, and at each depth one run per
    generator, in generator order, holding the oracle's edges."""
    gens, rows, levels = oracle
    assert tree.gens == gens and tree.rows.dtype == index_dtype(rows.shape[1]), name
    assert np.array_equal(tree.rows, rows) and len(tree.levels) == len(levels), name
    for runs, (ys, zs, gi) in zip(tree.levels, levels):
        order = [i for _, _, i in runs]
        assert order == sorted(set(order)) and sum(y.size for y, _, _ in runs) == ys.size, name
        edges = {(y, z, i) for Y, Z, i in runs for y, z in zip(Y.tolist(), Z.tolist())}
        assert edges == set(zip(ys.tolist(), zs.tolist(), gi.tolist())), name


def _assert_rows_are_elements(tree, row_of, name) -> None:
    """Each power generator's composed row is the row of its element."""
    assert np.array_equal(tree.rows, np.asarray([row_of(g) for g in tree.gens])), name


def test_run_fills_match_the_level_oracle(lazard_tables, brace_logs):
    # every fill on the Lazard tables (uint8 and uint16, up to order 2401)
    # and on the brace corpus: the Laz table, laz_inv's addition and
    # bracket, the group tables of both braces, and additive_table, along
    # the trees with power generators and, unchanged, along the old trees
    orders = set()
    for name, L, G, T in lazard_tables:
        n = G.order
        orders.add(n)
        degree = _lazard_degree(L, None)
        row_of = lambda g: _laz_rows(L, degree, L.shape.carrier, [g])[0]
        units = [u.index for u in L.shape.units()]
        tree, oracle = _schreier(n, 0, _stacked(row_of), units), oracle_schreier(n, 0, row_of, units)
        _assert_same_tree(tree, oracle, name)
        _assert_rows_are_elements(tree, row_of, name)
        assert np.array_equal(_fill_group(tree), oracle_fill_group(oracle, 0)), name
        assert np.array_equal(G.table, oracle_fill_group(oracle_schreier(n, 0, row_of, units, powers=False), 0)), name
        k = canonical_group_filtration(G).filtration.length
        oracle, add, br = oracle_laz_inv_fill(G, k)
        tree = _schreier(n, G.identity, _stacked(_word_row(G, freelie.inverse_words(k)[0])), [], grow=True)
        _assert_same_tree(tree, oracle, name)
        _assert_rows_are_elements(tree, _word_row(G, freelie.inverse_words(k)[0]), name)
        assert np.array_equal(T.add, add) and np.array_equal(T.bracket, br), name
        _, add, br = oracle_laz_inv_fill(G, k, powers=False)
        assert np.array_equal(T.add, add) and np.array_equal(T.bracket, br), name
        L_sc, basis = table_to_sc(T)
        images = lambda X: L_sc.bracket_batch(basis.coords[:, None, :], X)
        oracle, add, table = oracle_additive_table(basis, images)
        _assert_same_tree(basis.tree, oracle, name)
        assert np.array_equal(add, T.add) and np.array_equal(table, T.bracket), name
        assert np.array_equal(basis.additive_table(images), table), name
    assert {81, 625, 2401} <= orders
    for name, B, log in brace_logs:
        for G in (B.dot, B.circ):
            row_of = lambda g: G.table[g]
            tree = _schreier(G.order, G.identity, _stacked(row_of), G.gens)
            oracle = oracle_schreier(G.order, G.identity, row_of, G.gens)
            _assert_same_tree(tree, oracle, name)
            _assert_rows_are_elements(tree, row_of, name)
            assert np.array_equal(_fill_group(tree), oracle_fill_group(oracle, G.identity)), name
            assert np.array_equal(_fill_group(tree), G.table), name
            old = oracle_schreier(G.order, G.identity, row_of, G.gens, powers=False)
            assert np.array_equal(oracle_fill_group(old, G.identity), G.table), name
        basis, DW = log.basis, log.post_lie.l_mats(log.basis.coords)
        oracle, add, table = oracle_additive_table(basis, lambda X: X @ DW)
        _assert_same_tree(basis.tree, oracle, name)
        assert np.array_equal(basis.add, add) and np.array_equal(log.tri_table, table), name
        assert np.array_equal(basis.additive_table(lambda X: X @ DW), table), name
        bare = AbelianBasis(basis.shape, basis.gens, basis.elem_of, basis.index_of_elem)  # holds no add
        assert np.array_equal(bare.additive_table(lambda X: X @ DW), table), name
        assert "add" not in vars(bare) and "tree" in vars(bare), name  # a transient addition table, the tree kept


def test_trees_on_rows_that_are_no_permutations_match_the_level_oracle():
    # random maps with g 0 = g repeat candidates inside one generator's
    # block, and the tree keeps each element's first edge as the np.unique
    # levels do
    rng = np.random.default_rng(21)
    for n, trial in product((8, 9, 25, 27, 49), range(6)):
        R = rng.integers(0, n, (n, n))
        R[:, 0] = np.arange(n)
        gens = rng.choice(n, 2, replace=False).tolist()
        tree = _schreier(n, 0, lambda X: R[X], gens, grow=True)
        oracle = oracle_schreier(n, 0, lambda g: R[g], gens)
        _assert_same_tree(tree, oracle, (n, trial))


# ---------------------------------------------------------------------------
# Mask closures and the invariant closure of generator seeds against the
# Python-set frontier, the per-generator closures and the whole-carrier
# product sets they replace.


_S3 = FinGroup(np.array([[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
                         [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]), 0)


def _dihedral8() -> FinGroup:
    """D_4 with r^a s^b at index a + 4 b: (r^a s^b)(r^c s^d) = r^(a + (-1)^b c) s^(b + d)."""
    a, b = np.arange(8) % 4, np.arange(8) // 4
    return FinGroup((a[:, None] + (1 - 2 * b)[:, None] * a) % 4 + 4 * ((b[:, None] + b) % 2), 0)


_D4 = _dihedral8()


def oracle_group_closure(G: FinGroup, gen_indices) -> frozenset:
    """Frontier search on a Python set: multiply the newest members by every
    generator until no new element appears."""
    gens = sorted(set(int(g) for g in gen_indices) | {G.identity})
    members = {G.identity}
    frontier = list(gens)
    members.update(frontier)
    garr = np.asarray(gens, dtype=np.int64)
    while frontier:
        prods = G.table[np.asarray(frontier, dtype=np.int64)[:, None], garr[None, :]].ravel()
        frontier = [int(x) for x in np.unique(prods) if int(x) not in members]
        members.update(frontier)
    return frozenset(members)


def oracle_group_gens(G: FinGroup, members: frozenset | None = None, order=None) -> list[int]:
    members = frozenset(range(G.order)) if members is None else members
    return oracle_greedy_gens(lambda gens: oracle_group_closure(G, gens), members, order)


def oracle_group_filtration(G: FinGroup):
    """G_(i+1) as the closure of the [g, h] over generators g of G and h of
    G_i, re-closed with the conjugates of the seeds by the generators of G
    until none falls outside."""
    gens = np.asarray(oracle_group_gens(G), dtype=np.int64)

    def next_term(cur: frozenset) -> frozenset:
        S = set(G.comm_batch(gens[:, None], np.asarray(oracle_group_gens(G, cur))).ravel().tolist())
        while True:
            N = oracle_group_closure(G, S)
            s = np.asarray(sorted(S), dtype=np.int64)
            conj = set(G.table[G.table[G.inv[gens][:, None], s], gens[:, None]].ravel().tolist()) - N
            if not conj:
                return N
            S |= conj

    return descending_series(frozenset(range(G.order)), next_term)


def oracle_l_series(B: SkewBrace):
    """L^(i+1) closed from a*b and [a, b] over all of A and all of L^i."""
    full = frozenset(range(B.order))
    return descending_series(full, lambda cur: oracle_group_closure(
        B.dot, _star_set(B, full, cur) | _comm_set(B.dot, full, cur)))


@pytest.fixture(scope="module")
def series_braces(brace_corpus):
    """The flow images of the post-Lie catalog, the braces of order 9 and
    six radical braces (the brace corpus without its relabelled copies),
    the trivial brace on S_3, whose L-series stalls at A_3, the 28 skew
    braces on Z/4 x Z/2, some of which need star seeds over circ
    generators rather than dot generators, and the 20 skew braces on the
    dihedral group D_4."""
    out = [(name, B) for name, B in brace_corpus if not name.startswith("relabelled")]
    assert len(out) == 69
    out.append(("trivial_S3", trivial_brace(_S3)))
    z4z2 = enumerate_braces(catalogs.shape_group(PShape(2, (2, 1))))
    assert len(z4z2) == 28
    d4 = enumerate_braces(_D4)
    assert len(d4) == 20
    return out + [(f"z4z2_{i}", B) for i, B in enumerate(z4z2)] + [(f"d4_{i}", B) for i, B in enumerate(d4)]


@pytest.fixture(scope="module")
def z8z2_braces():
    """The 160 skew braces on Z/8 x Z/2."""
    braces = enumerate_braces(catalogs.shape_group(PShape(2, (3, 1))))
    assert len(braces) == 160
    return braces


def test_l_series_match_the_whole_carrier_oracle(series_braces):
    for name, B in series_braces:
        fresh = SkewBrace(FinGroup(B.dot.table, B.dot.identity), FinGroup(B.circ.table, B.circ.identity))
        assert l_series_brace(fresh) == oracle_l_series(B), name
    S3_series = l_series_brace(trivial_brace(_S3))
    assert not S3_series.is_nilpotent and S3_series.terms[-1] == frozenset({0, 1, 2})


def _corpus_groups(series_braces, data_dir):
    _, E = formats.parse_file(data_dir / "extraspecial_27.grp")
    groups = [("extraspecial_27", E), ("S3", _S3)]
    return groups + [(f"{name}.{part}", getattr(B, part))
                     for name, B in series_braces for part in ("dot", "circ")]


def test_group_series_and_generators_match_the_set_oracles(series_braces, data_dir):
    for name, G in _corpus_groups(series_braces, data_dir):
        G = FinGroup(G.table, G.identity)  # nothing cached
        series = canonical_group_filtration(G)
        assert series == oracle_group_filtration(G), name
        assert list(G.gens) == _group_gens(G) == oracle_group_gens(G), name
        for term in series.terms:
            assert _group_gens(G, mask(G.order, term)) == oracle_group_gens(G, term), name
        if G.order == 6:  # S_3: element orders need a p-group
            continue
        orders = G.element_orders
        walk = sorted(range(G.order), key=lambda t: (-orders[t], t))
        assert minimal_generators(G) == oracle_group_gens(G, order=walk), name


def test_generator_walk_matches_on_subsets_that_are_not_closed(series_braces, data_dir):
    # the walk's closure escapes a non-closed subset, or stops short of it
    rng = np.random.default_rng(5)
    seen_open = 0
    for name, G in _corpus_groups(series_braces, data_dir)[:40]:
        for _ in range(3):
            S = frozenset({G.identity} | set(rng.choice(G.order, size=int(rng.integers(1, G.order)),
                                                        replace=True).tolist()))
            gens = _group_gens(G, mask(G.order, S))
            assert gens == oracle_group_gens(G, S), (name, sorted(S))
            seen_open += group_closure(G, gens) != S
    assert seen_open > 0


def _cyclic(n: int) -> FinGroup:
    return FinGroup(np.add.outer(np.arange(n), np.arange(n)) % n, 0)


def test_group_closure_matches_the_frontier_oracle(series_braces, data_dir):
    rng = np.random.default_rng(3)
    groups = _corpus_groups(series_braces, data_dir) + [("Z625", _cyclic(625)), ("Z2401", _cyclic(2401))]
    for name, G in groups:
        for k in (0, 1, 1, 2, 3):
            gens = rng.integers(0, G.order, size=k).tolist()
            assert group_closure(G, gens) == oracle_group_closure(G, gens), (name, gens)
        assert group_closure(G, set(gens)) == oracle_group_closure(G, gens), name
    Z = _cyclic(2401)
    assert group_closure(Z, [7 * 49]) == frozenset(range(0, 2401, 343))
    assert group_closure(Z, np.array([5])) == frozenset(range(2401))


def oracle_verify_group_table(table):
    """verify_group_table with Light's test on columns, (x a) y = x (a y)
    for the generators a of the frontier walk."""
    table = np.asarray(table, dtype=np.int64)
    ident = int(np.nonzero((table == np.arange(table.shape[0])).all(axis=1))[0][0])
    for a in oracle_group_gens(FinGroup(table, ident)):
        bad = table[table[:, a]] != table[:, table[a]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return f"associativity fails at (x,a,y)=({int(x)},{a},{int(y)})"
    return None


def oracle_left_light(table) -> str | None:
    """The first (g, x, y) with (g x) y != g (x y), g over the generators of
    the frontier walk, one product at a time."""
    table = np.asarray(table, dtype=np.int64)
    n = table.shape[0]
    ident = int(np.nonzero((table == np.arange(n)).all(axis=1))[0][0])
    for g in oracle_group_gens(FinGroup(table, ident)):
        for x in range(n):
            for y in range(n):
                if table[table[g, x], y] != table[g, table[x, y]]:
                    return f"associativity fails at (g,x,y)=({g},{x},{y})"
    return None


def test_group_table_verdicts_unchanged_on_loops_and_perturbed_tables(rng):
    tables = [laz(catalogs.heisenberg(3)).table]
    for k, switches in ((3, [(1, 2, 3), (2, 4, 7)]), (6, [(1, 2, 3), (5, 30, 17)])):
        X = _xor_table(k)
        tables += [X] + [_intercalate_switch(X, *sw) for sw in switches]
    tables += [_product(tables[1], t) for t in tables[2:4]]
    tables += [catalogs.nonassociative_loop(5)]  # one generator: the last is the only one that fails
    tables += [_perturbed(t, rng) for t in tables]
    loops = 0
    for t in tables:
        rep = verify_group_table(t)
        latin = not any("permutation" in f or "identity" in f for f in rep.failures)
        if latin:
            loops += 1
            assert rep.ok == (oracle_verify_group_table(t) is None)
            assert rep.failures == (() if rep.ok else (oracle_left_light(t),))
        assert rep.ok == oracle_group_table(t)
    assert loops >= 7


# ---------------------------------------------------------------------------
# Every series term as one closure of generator products, against the
# closures of whole product sets that the series once took.


def oracle_left_series_brace(B: SkewBrace):
    """A^(i+1) closed from a*b over all of A and all of A^i."""
    full = frozenset(range(B.order))
    return descending_series(full, lambda cur: group_closure(B.dot, _star_set(B, full, cur)))


def oracle_right_series_brace(B: SkewBrace):
    """A_(i+1) closed from a*b over all of A_i and all of A."""
    full = frozenset(range(B.order))
    return descending_series(full, lambda cur: group_closure(B.dot, _star_set(B, cur, full)))


def oracle_strong_series_brace(B: SkewBrace, cap: int | None = None):
    """A^{k+1} closed from a*b and [a, b] over all of A^{i} and all of A^{k+1-i}."""
    full = frozenset(range(B.order))
    terms = [full]
    cap = cap or (B.order.bit_length() * 4)
    while len(terms[-1]) > 1 and len(terms) <= cap:
        k1 = len(terms) + 1
        gens: set[int] = set()
        for i in range(1, k1):
            A_i, A_j = terms[i - 1], terms[k1 - i - 1]
            gens |= _star_set(B, A_i, A_j)
            gens |= _comm_set(B.dot, A_i, A_j)
        new = group_closure(B.dot, gens)
        if new == terms[-1]:
            return SeriesResult(tuple(terms), None)
        terms.append(new)
    if len(terms[-1]) > 1:
        return SeriesResult(tuple(terms), None)
    return SeriesResult(tuple(terms), len(terms) - 1)


def oracle_product_series(shape: PShape, product_set):
    """X_(i+1) closed from the set product_set(U, G) of products of the unit
    vectors U with generators G of X_i."""
    units = [u.index for u in shape.units()]
    return descending_series(frozenset(range(shape.order)), lambda cur: add_closure(
        shape, product_set(units, _subgroup_gens(shape, mask(shape.order, cur)))))


def test_series_match_the_whole_set_oracles(series_braces, z8z2_braces, lie_cat, postlie_cat):
    # the braces on the modular group M16 are the ones where the conjugation
    # steps of the left and right series add elements
    z2cubed = enumerate_braces(catalogs.shape_group(PShape(2, (1, 1, 1))))
    assert len(z2cubed) == 232
    m16 = enumerate_braces(catalogs.modular16())
    assert len(m16) == 160
    braces = list(series_braces) + [(f"z8z2_{i}", B) for i, B in enumerate(z8z2_braces)] + [
        (f"z2cubed_{i}", B) for i, B in enumerate(z2cubed)] + [(f"m16_{i}", B) for i, B in enumerate(m16)]
    assert len(braces) == 670
    for name, B in braces:
        assert left_series_brace(B) == oracle_left_series_brace(B), name
        assert right_series_brace(B) == oracle_right_series_brace(B), name
        assert strong_series_brace(B) == oracle_strong_series_brace(B), name
        assert strong_series_brace(B, cap=2) == oracle_strong_series_brace(B, cap=2), name
    for name, L in list(lie_cat) + [(f"{name}.circ", P.circ) for name, P in postlie_cat]:
        assert lower_central_series(L) == oracle_product_series(L.shape, lambda U, G: _bracket_set(L, U, G)), name
    for name, P in postlie_cat:
        s = P.shape
        assert lower_central_series(P.base) == oracle_product_series(
            s, lambda U, G: _bracket_set(P.base, U, G)), name
        assert l_series(P) == oracle_product_series(
            s, lambda U, G: _tri_set(P, U, G) | _bracket_set(P.base, U, G)), name
        assert left_series(P) == oracle_product_series(s, lambda U, G: _tri_set(P, U, G)), name
        assert right_series(P) == oracle_product_series(s, lambda U, G: _tri_set(P, G, U)), name


# ---------------------------------------------------------------------------
# Automorphisms along the shared Schreier tree against the parent-pointer
# breadth-first search and the element-by-element extension they replace.


def oracle_factorization(G: FinGroup, gens: list[int]) -> list[tuple[int, int] | None]:
    """parent/generator decomposition: elem = parent . gens[k]; None at identity."""
    out: list = [None] * G.order
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for k, g in enumerate(gens):
                y = G.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    out[y] = (x, k)
                    nxt.append(y)
        frontier = nxt
    assert len(seen) == G.order, "generators do not generate"
    return out


def oracle_extend_images(G: FinGroup, gens, fact, images) -> np.ndarray | None:
    """The map determined by generator images, one element at a time from
    its parent, or None when it is not a bijective homomorphism."""
    n = G.order
    phi = np.full(n, -1, dtype=np.int64)
    phi[G.identity] = G.identity
    pending = [x for x in range(n) if fact[x] is not None]
    while pending:
        rest = []
        for x in pending:
            parent, k = fact[x]
            if phi[parent] >= 0:
                phi[x] = G.table[phi[parent], images[k]]
            else:
                rest.append(x)
        assert len(rest) < len(pending), "factorization order broken"
        pending = rest
    if np.unique(phi).size != n or oracle_hom_failure(G.table, phi, gens) is not None:
        return None
    return phi


def oracle_automorphisms_into(G: FinGroup, gens: list[int], cands) -> list[np.ndarray]:
    fact = oracle_factorization(G, gens)
    maps = (oracle_extend_images(G, gens, fact, list(combo)) for combo in product(*cands))
    return [phi for phi in maps if phi is not None]


def test_automorphisms_match_the_factorization_oracle(order9_braces):
    # the trees add power generators of their own (3 and 9 for Z/27 from 1),
    # whose images phi(g)^p are set before the runs; the groups cover
    # ranks 1-4 and p = 2, 3, 5
    groups = [(f"Z{p}{exps}", catalogs.shape_group(PShape(p, exps)))
              for p, exps in ((3, (3,)), (2, (6,)), (3, (4,)), (5, (2,)), (2, (2, 1)), (2, (1, 1, 1)),
                              (3, (2, 1)), (2, (2, 1, 1)), (5, (1, 1)), (3, (2, 2)))]
    groups += [("D4", _D4), ("M16", catalogs.modular16()),
               ("heisenberg_3", laz(catalogs.heisenberg(3)))]
    groups += [(f"{name}.circ", B.circ) for name, B in order9_braces]
    deep = 0
    for name, G in groups:
        gens = minimal_generators(G)
        deep += len(_schreier(G.order, G.identity, lambda g: G.table[g], gens).gens) > len(gens)
        cands = [np.flatnonzero(G.element_orders == G.element_orders[g]).tolist() for g in gens]
        got, want = _automorphisms_into(G, gens, cands), oracle_automorphisms_into(G, gens, cands)
        assert len(got) == len(want) and all(map(np.array_equal, got, want)), name
        assert len(automorphisms(G)) == len(want), name
        # aut_plus on the lower central series and on every chain of length <= 3
        for F in [canonical_group_filtration(G).filtration] + (all_group_chains(G, 3) if G.order <= 16 else []):
            cands = [G.table[g, np.flatnonzero(F.level >= min(F.level[g] + 1, F.depth))].tolist() for g in gens]
            want = [phi for phi in oracle_automorphisms_into(G, gens, cands)
                    if F.margin(G.table[phi, G.inv]) >= 1]
            got = aut_plus(G, F)
            assert len(got) == len(want) and all(map(np.array_equal, got, want)), name
    assert deep >= 3


# ---------------------------------------------------------------------------
# One generator-row law test (liering._hom_failure) against the column
# forms and the all-pairs isomorphism checks it replaced.


def oracle_hom_failure(table, maps, gens) -> tuple[int, int, int] | None:
    """First (k, b, g) with f(b . g) != f(b) . f(g) for f = maps[k] and g in
    gens, on columns."""
    maps = np.atleast_2d(maps)
    for g in gens:
        bad = maps[:, table[:, g]] != table[maps, maps[:, g, None]]
        if bad.any():
            k, b = np.argwhere(bad)[0]
            return int(k), int(b), int(g)
    return None


def oracle_verify_skew_brace(B: SkewBrace) -> bool:
    """Both group tables, one identity, and every lambda_a a dot
    endomorphism on the dot generators, on columns."""
    if not (oracle_group_table(B.dot.table) and oracle_group_table(B.circ.table)):
        return False
    return B.dot.identity == B.circ.identity and oracle_hom_failure(B.dot.table, lam_table(B), B.dot.gens) is None


def oracle_lambda_and_star(B: SkewBrace) -> tuple[np.ndarray, np.ndarray]:
    """Each lambda_a a bijection (sorted rows) and a dot endomorphism on
    columns, and lambda_(a o g) = lambda_a lambda_g for circ generators g."""
    lam = lam_table(B)
    bijective = (np.sort(lam, axis=1) == np.arange(B.order)).all(axis=1)
    if not bijective.all():
        raise FailedTheoremError(f"lambda_{int(np.argmin(bijective))} is not a bijection")
    bad = oracle_hom_failure(B.dot.table, lam, B.dot.gens)
    if bad is not None:
        raise FailedTheoremError(f"lambda_{bad[0]} is not an automorphism of dot")
    for g in B.circ.gens:
        bad_a = (lam[B.circ.table[:, g]] != lam[:, lam[g]]).any(axis=1)
        if bad_a.any():
            raise FailedTheoremError(f"lambda_(a o b) != lambda_a lambda_b at a={int(np.argmax(bad_a))}")
    idx = np.arange(B.order)
    return lam, B.dot.table[lam, B.dot.inv[idx]]


def oracle_require_isomorphism(phi: np.ndarray, src: np.ndarray, dst: np.ndarray, what: str) -> None:
    """phi(a b) = phi(a) phi(b) on all n^2 pairs of the tables src, dst."""
    require_none(phi.astype(index_dtype(phi.size))[src] != dst[phi[:, None], phi[None, :]], what)


def oracle_w_hom(P: PostLieRing, W: np.ndarray, circ: np.ndarray) -> None:
    oracle_require_isomorphism(W, laz(P.circ, F=None).table, circ, "W is not an isomorphism onto the circle group")


def oracle_omega_hom(B: SkewBrace, P: PostLieRing, basis: AbelianBasis, Omega: np.ndarray) -> None:
    oracle_require_isomorphism(Omega, B.circ.table, basis.relabel(laz(P.circ, F=None).table),
                               "omega is not an isomorphism onto Laz of the circ ring")


def _coset_swap(row: np.ndarray, identity: int) -> np.ndarray | None:
    """A bijection psi with psi(g x) = g psi(x) for the row x -> g x of a
    group: two orbits of the row (cosets of <g>) without the identity,
    swapped along their walks; None when there are not two."""
    seen = np.zeros(row.size, dtype=bool)
    walks = []  # the identity's coset first
    for x in (identity, *range(row.size)):
        if not seen[x]:
            walk = [x]
            while row[walk[-1]] != x:
                walk.append(int(row[walk[-1]]))
            seen[walk] = True
            walks.append(walk)
    if len(walks) < 3:
        return None
    psi = np.arange(row.size)
    psi[walks[1]], psi[walks[2]] = walks[2], walks[1]
    return psi


def _verdicts(fn, maps) -> list[str | None]:
    return [_failure(lambda: fn(f)) for f in maps]


def test_isomorphism_checks_match_the_all_pairs_oracles(postlie_cat, brace_logs):
    # W and Omega as built, moved by a transposition, and moved by a swap of
    # two cosets of <g> for the first generator g, which keeps
    # f(g b) = f(g) f(b) for that g: only a later generator shows it
    assert len(postlie_cat) == 51 and len(brace_logs) == 73
    failed = 0
    for name, P in postlie_cat:
        flow = post_lie_to_brace(P, check=False)
        W, circ = flow.w, flow.brace.circ.table
        u = P.shape.units()[0].index
        psi = _coset_swap(_laz_rows(P.circ, _lazard_degree(P.circ), P.shape.carrier, [u])[0], 0)
        maps = [W, W[np.roll(np.arange(W.size), 1)]] + ([] if psi is None else [W[psi]])
        got = [v is None for v in _verdicts(lambda f: _require_w_hom(P, f, circ), maps)]
        assert got == [v is None for v in _verdicts(lambda f: oracle_w_hom(P, f, circ), maps)], name
        assert got[0]
        failed += got.count(False)
    for name, B, log in brace_logs:  # the flows of the catalog among them
        assert verify_skew_brace(B).ok and oracle_hom_failure(B.dot.table, lam_table(B), B.dot.gens) is None, name
        P, basis, Omega = log.post_lie, log.basis, log.omega
        psi = _coset_swap(B.circ.table[B.circ.gens[0]], B.circ.identity)
        maps = [Omega, Omega[::-1]] + ([] if psi is None else [Omega[psi]])
        got = [v is None for v in _verdicts(lambda f: _require_omega_hom(B, P, basis, f), maps)]
        assert got == [v is None for v in _verdicts(lambda f: oracle_omega_hom(B, P, basis, f), maps)], name
        assert got[0]
        failed += got.count(False)
    assert failed >= 100


# ---------------------------------------------------------------------------
# Group tables: identity, Light's test and right inverses, against the
# Latin-square scatters that once ran on every table; and the Jacobi
# identity and both post-Lie axioms as contractions of the constant
# tensors, against the loops over generator triples they replace.


def oracle_group_table_report(table) -> CheckReport:
    """verify_group_table as it was: both Latin-square scatters on every
    table, then the identity, then Light's test in row form."""
    table = np.asarray(table)
    n = table.shape[0]
    failures = []
    if table.ndim != 2 or table.shape[1] != n:
        return CheckReport(False, ("table is not square",))
    if table.min() < 0 or table.max() >= n:
        return CheckReport(False, ("entries out of range",))
    idx = np.arange(n)
    hit = np.zeros((n, n), dtype=bool)
    hit[idx[:, None], table] = True
    if not hit.all():
        failures.append("some row is not a permutation")
    hit[:] = False
    hit[table, idx] = True
    if not hit.all():
        failures.append("some column is not a permutation")
    ident = np.nonzero((table == idx).all(axis=1))[0]
    if ident.size != 1 or not (table[:, int(ident[0])] == idx).all():
        failures.append("no two-sided identity")
        return CheckReport(False, tuple(failures))
    group = FinGroup(table, int(ident[0]))
    for g in group.gens:
        bad = table[table[g]] != table[g][table]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            failures.append(f"associativity fails at (g,x,y)=({g},{int(x)},{int(y)})")
            break
    return CheckReport(not failures, tuple(failures))


def _units_monoid(p: int, k: int) -> np.ndarray:
    """Z/p^k under multiplication: a monoid with identity 1, no group."""
    a = np.arange(p ** k)
    return np.multiply.outer(a, a) % p ** k


def _semilattice_with_identity(m: int) -> np.ndarray:
    """({1..m}, min) with 0 adjoined as its identity."""
    t = np.minimum.outer(np.arange(m + 1), np.arange(m + 1))
    t[0], t[:, 0] = np.arange(m + 1), np.arange(m + 1)
    return t


def _transformation_monoid(m: int) -> np.ndarray:
    """All maps f of {0..m-1}, coded as the sum of f(x) m^x, under
    (a, b) -> (x -> b(a(x))); the identity map is no zero row."""
    codes = np.arange(m ** m)
    maps = codes[:, None] // m ** np.arange(m) % m  # maps[c, x] = f_c(x)
    return (maps[:, maps] * m ** np.arange(m)).sum(axis=-1).T


def test_monoids_that_are_not_groups_get_the_old_reports(rng):
    monoids = [_units_monoid(3, 3), _units_monoid(5, 2), _semilattice_with_identity(7),
               _transformation_monoid(3)]
    groups = [laz(catalogs.heisenberg(3)).table, _xor_table(3), _cyclic(8).table]
    loops = [_intercalate_switch(_xor_table(3), 1, 2, 3), catalogs.nonassociative_loop(3)]
    tables = monoids + groups + loops
    tables += [_product(g, m) for g, m in zip(groups, monoids)] + [_product(m, g) for g, m in zip(groups, monoids)]
    tables += [_perturbed(t, rng) for t in tables]
    refused = 0
    for t in tables:
        rep, want = verify_group_table(t), oracle_group_table_report(t)
        assert rep == want
        assert rep.ok == oracle_group_table(t)
        ident = np.flatnonzero((t == np.arange(len(t))).all(axis=1))
        if ident.size == 1:  # a FinGroup standing for its table, with its cached inverses
            assert verify_group_table(FinGroup(t, int(ident[0]))) == want
            if oracle_verify_group_table(t) is None and not rep.ok:  # associative, with identity
                refused += 1
    assert refused >= len(monoids) + 6  # each monoid and its products with a group


def oracle_verify_lie(L: LieRingSC) -> CheckReport:
    """verify_lie with its Jacobi loop, one bracket_batch per product."""
    s = L.shape
    failures = []
    ill_defined = _ill_defined_pairs(s, L.sc)
    for i in range(s.rank):
        if L.sc[i, i].any():
            failures.append(f"[g{i},g{i}] != 0")
        failures += [f"bracket [g{i},g{j}] not killed by p^min(e{i},e{j})"
                     for row, j in ill_defined if row == i]
    for i, j in combinations(range(s.rank), 2):
        if s.reduce(L.sc[i, j] + L.sc[j, i]).any():
            failures.append(f"antisymmetry fails on (g{i},g{j})")
    units = np.eye(s.rank, dtype=np.int64)
    for i, j, k in combinations(range(s.rank), 3):
        total = (
            L.bracket_batch(units[i], L.bracket_batch(units[j], units[k]))
            + L.bracket_batch(units[j], L.bracket_batch(units[k], units[i]))
            + L.bracket_batch(units[k], L.bracket_batch(units[i], units[j]))
        )
        if s.reduce(total).any():
            failures.append(f"Jacobi fails on (g{i},g{j},g{k})")
    return CheckReport(not failures, tuple(failures))


def oracle_verify_post_lie(P: PostLieRing) -> CheckReport:
    """verify_post_lie with its loops over generator triples, one
    bilinear_batch per product."""
    base_rep = oracle_verify_lie(P.base)
    if not base_rep.ok:
        return CheckReport(False, tuple("base: " + f for f in base_rep.failures))
    s = P.shape
    failures = []
    units = np.eye(s.rank, dtype=np.int64)
    br = P.base.bracket_batch
    tri = P.tri_batch
    pairs = list(combinations(range(s.rank), 2))
    for i, (j, k) in product(range(s.rank), pairs):
        lhs = tri(units[i], br(units[j], units[k]))
        rhs = br(tri(units[i], units[j]), units[k]) + br(units[j], tri(units[i], units[k]))
        if s.reduce(lhs - rhs).any():
            failures.append(f"derivation axiom fails on (g{i},g{j},g{k})")
    for (i, j), k in product(pairs, range(s.rank)):
        lhs = tri(br(units[i], units[j]), units[k])
        assoc_ijk = tri(units[i], tri(units[j], units[k])) - tri(tri(units[i], units[j]), units[k])
        assoc_jik = tri(units[j], tri(units[i], units[k])) - tri(tri(units[j], units[i]), units[k])
        if s.reduce(lhs - (assoc_ijk - assoc_jik)).any():
            failures.append(f"associator axiom fails on (g{i},g{j},g{k})")
    return CheckReport(not failures, tuple(failures))


def _moved_constants(shape: PShape, consts: np.ndarray, rng, antisymmetric: bool, defined: bool) -> np.ndarray:
    """consts with one to three entries (i, j, k) moved; by a multiple of
    p^max(0, e_k - min(e_i, e_j)) when `defined`, so a well-defined product
    stays well defined, by any amount otherwise; the (j, i, k) entry moves
    the other way when `antisymmetric`."""
    out = consts.copy()
    for _ in range(int(rng.integers(1, 4))):
        i, j, k = (int(x) for x in rng.integers(0, shape.rank, size=3))
        step = shape.p ** max(0, shape.exps[k] - min(shape.exps[i], shape.exps[j])) if defined else 1
        delta = step * int(rng.integers(1, shape.max_modulus))
        out[i, j, k] += delta
        if antisymmetric and i != j:
            out[j, i, k] -= delta
    return out


def test_post_lie_axioms_match_the_triple_loops(postlie_cat):
    """Perturbed triangles over the catalog, ranks 1 to 4; one in four with
    a perturbed base too, half of those ill defined or not antisymmetric."""
    rng = np.random.default_rng(20)
    ranks, failing, passing = set(), 0, 0
    for _ in range(600):
        _, P = postlie_cat[int(rng.integers(len(postlie_cat)))]
        s = P.shape
        base = P.base
        if rng.random() < 0.25:
            loose = rng.random() < 0.5
            base = LieRingSC(s, _moved_constants(s, base.sc, rng, antisymmetric=not loose or rng.random() < 0.5,
                                                 defined=not loose))
        if rng.random() < 0.1:  # a random well-defined triangle: many failures, in order
            tri = _moved_constants(s, np.zeros_like(P.tri), rng, False, True)
            for _ in range(4):
                tri = _moved_constants(s, tri, rng, False, True)
        else:
            tri = _moved_constants(s, P.tri, rng, False, True)
        Q = PostLieRing(base, tri)
        rep = verify_post_lie(Q)
        assert verify_lie(Q.base) == oracle_verify_lie(Q.base)
        assert rep == oracle_verify_post_lie(Q)
        ranks.add(s.rank)
        failing += not rep.ok
        passing += rep.ok
    assert ranks == {1, 2, 3, 4}
    assert failing >= 200 and passing >= 50


# ---------------------------------------------------------------------------
# Tables held as views or read by blocks of rows.


def _relabelled_group(G: FinGroup, rng) -> FinGroup:
    """G on a randomly permuted carrier, so that its identity is moved too."""
    perm = rng.permutation(G.order)
    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    return FinGroup(table, int(perm[G.identity]))


def test_abelian_brackets_are_constant_views(lazard_tables):
    # the zero bracket of an abelian group is the identity everywhere, held
    # as a read-only zero-stride view in the table dtype: on every abelian
    # catalog ring, and on relabelled carriers whose identity is not 0
    rng = np.random.default_rng(24)
    groups = [G for _, L, G, _ in lazard_tables if not L.sc.any() and G.order > 1]
    assert len(groups) >= 30
    groups += [_relabelled_group(G, rng) for G in groups[::6]]
    for G in groups:
        T = laz_inv(G)
        n = G.order
        assert np.array_equal(T.bracket, np.full((n, n), G.identity)), n
        assert T.bracket.strides == (0, 0) and T.bracket.dtype == index_dtype(n)
        assert not T.bracket.flags.writeable
    assert any(G.identity != 0 for G in groups)


def test_abelian_laz_inv_allocates_no_table():
    import tracemalloc

    G = laz(catalogs.abelian(7, (2, 2)))  # order 2401: one uint16 table is 11.5 MB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        T = laz_inv(G)  # the group's inverses and its series included
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert T.bracket.shape == (2401, 2401)
    assert peak < 2 ** 20, peak


def test_constant_views_are_checked_as_their_tables():
    for n, v in ((5, 5), (5, -1), (300, 300), (300, 7), (1, 0)):
        for dtype in (np.int64, np.uint16):
            if v < 0 and dtype == np.uint16:
                continue
            got = _failure(lambda: _index_table(np.broadcast_to(np.asarray(v, dtype=dtype), (n, n))))
            want = _failure(lambda: _index_table(np.full((n, n), v, dtype=dtype)))
            assert got == want, (n, v, dtype)
            if want is None:
                view = _index_table(np.broadcast_to(np.asarray(v, dtype=dtype), (n, n)))
                assert np.array_equal(view, np.full((n, n), v)) and view.dtype == index_dtype(n)
    with pytest.raises(ModArithError, match=r"^table entry out of range 0\.\.3 at \(row,column,value\)=\(0,0,4\)$"):
        LieRingTable(np.zeros((4, 4), dtype=np.int64), np.broadcast_to(np.int64(4), (4, 4)), 0)


def test_inverses_by_blocks_match_the_whole_table_argmax(monkeypatch):
    # small blocks, and rows with no identity entry or with several
    monkeypatch.setattr(modarith, "_CHUNK", 40)
    rng = np.random.default_rng(25)
    for n in (1, 2, 7, 13, 30):
        for _ in range(4):
            table = rng.integers(0, n, (n, n))
            identity = int(rng.integers(n))
            assert np.array_equal(FinGroup(table, identity).inv, (table == identity).argmax(axis=1))


def oracle_lambda_checks(B: SkewBrace, brace_order: bool) -> None:
    """The lambda checks of the log direction on the whole n x n lam, all
    pairs at once: brace_to_post_lie's order (additive, the log, raising)
    or omega_map's (raising, then additive and the log)."""
    F = _lazard_brace_filtration(B)
    _, basis = _dot_log(B.dot)
    lam = lam_table(B)
    unraised = F.level[B.dot.table[lam, B.dot.inv]] < np.minimum(F.level + 1, F.depth)
    if brace_order:
        oracle_additive_log(basis, lam, F.length, "lambda", FailedTheoremError)
        require_none(unraised, "alpha does not raise the filtration", ModArithError)
    else:
        require_none(unraised, "alpha does not raise the filtration", ModArithError)
        oracle_additive_log(basis, lam, F.length, "alpha", ModArithError)


def _check_failure(fn) -> str | None:
    """_failure, restricted to the lambda checks' own messages; a series
    that refuses the perturbed brace before them counts as none."""
    try:
        got = _failure(fn)
    except LazbraceError:
        return None
    return got if got and re.search("not additive|does not raise|not nilpotent", got) else None


def test_lambda_checks_by_row_blocks_name_what_the_whole_table_named(brace_logs, monkeypatch):
    # one lambda_a replaced, for a random a and the last one: an entry
    # moved (not additive), one moved inside its term, 2 lambda_a
    # (additive, no log), and id + E_ij
    # (additive and unipotent, not raising when g_i lies no higher than
    # g_j); blocks of one row, so a witness in a later block is named by
    # its own row
    monkeypatch.setattr(modarith, "_CHUNK", 64)
    rng = np.random.default_rng(26)
    logs = [(name, B, log) for name, B, log in brace_logs if log.l_class >= 2 and B.order <= 125]
    kinds = {}
    for name, B, log in logs[::max(1, len(logs) // 8)]:
        basis, n, r = log.basis, B.order, log.basis.shape.rank
        F = _lazard_brace_filtration(B)
        coords, lam = basis.coords, lam_table(B)
        mats = coords[lam[:, list(basis.gens)]]
        lifts = [(i, j) for i in range(r) for j in range(r) if i != j and basis.shape.exps[i] >= basis.shape.exps[j]
                 and F.level[basis.gens[i]] >= F.level[basis.gens[j]]]
        for a in (int(rng.integers(1, n)), n - 1):
            moved = lam[a].copy()
            b = int(rng.integers(1, n))
            moved[b] = B.dot.table[moved[b], basis.gens[0]]
            inside = lam[a].copy()  # an entry moved by a deepest element: not additive, still raising
            b = int(rng.choice(np.flatnonzero(F.level <= F.depth - 2)))
            inside[b] = B.dot.table[inside[b], int(rng.choice(np.flatnonzero(F.level == F.depth - 1)))]
            rows = [moved, inside, basis.elems(coords @ (2 * mats[a]))]
            if lifts:
                i, j = lifts[int(rng.integers(len(lifts)))]
                lift = np.eye(r, dtype=np.int64)
                lift[i, j] = 1
                rows.append(basis.elems(coords @ lift))
            for row in rows:
                circ = B.circ.table.copy()
                circ[a] = B.dot.table[a, row]
                C = SkewBrace(B.dot, FinGroup(circ, B.circ.identity))
                for brace_order, fn in ((True, lambda: brace_to_post_lie(C, check=False)),
                                        (False, lambda: omega_map(C))):
                    want = _check_failure(lambda: oracle_lambda_checks(C, brace_order))
                    assert _check_failure(fn) == want, (name, a, want)
                    if want:
                        kinds[re.sub(r" at .*", "", want)] = kinds.get(re.sub(r" at .*", "", want), 0) + 1
        assert np.array_equal(brace_to_post_lie(B, check=False).post_lie.tri, log.post_lie.tri), name
    assert {"FailedTheoremError: lambda is not additive over Laz^-1 of the dot group",
            "ModArithError: alpha is not additive over Laz^-1 of the dot group",
            "ModArithError: alpha does not raise the filtration",
            "ModArithError: endomorphism is not nilpotent within the stated bound"} <= set(kinds), kinds


# ---------------------------------------------------------------------------
# Lambda held only as rows: the star products, the adjoint margin, the
# lambda and star tables and the root-of-unity triangle against the forms
# that read the whole n x n lambda table SkewBrace once cached.


def oracle_star(B: SkewBrace, A, H) -> np.ndarray:
    """a*h on broadcast index arrays, read from the whole lambda table."""
    return B.dot.table[lam_table(B)[A, H], B.dot.inv[H]]


def oracle_adjoint_group_filtration(B: SkewBrace, F: Filtration | None = None) -> Filtration:
    """adjoint_group_filtration with the margin of the whole n x n star table."""
    if F is None:
        ser = l_series_brace(B)
        if not ser.is_nilpotent:
            raise ModArithError("no canonical filtration: brace is not L-nilpotent")
        F = ser.filtration
    else:
        validate_group_filtration(B.dot, F)
    idx = np.arange(B.order)
    out = Filtration._of(np.maximum(np.minimum(F.level, F.margin(oracle_star(B, idx[:, None], idx))), 0), F.depth)
    validate_group_filtration(B.circ, out)
    return out


def oracle_lambda_and_star_tables(B: SkewBrace) -> tuple[np.ndarray, np.ndarray]:
    """lambda_and_star with both tables read from the whole lambda table."""
    bad = _compatibility_failure(B)
    if bad is not None:
        raise FailedTheoremError(f"lambda_{bad[0]} is not an automorphism of dot")
    idx = np.arange(B.order)
    return lam_table(B), oracle_star(B, idx[:, None], idx)


def oracle_lambda_derivative_table(B: SkewBrace, log=None) -> np.ndarray:
    """lambda_derivative with the matrices M_x read from the generator
    columns of the whole lambda table."""
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
    mats = coords[lam_table(B)[:, list(basis.gens)]]
    acc = 0
    for i in range(p - 1):
        acc = s.reduce(acc + pow(xi, i, m) * mats[basis.elems(coords * pow(xi, -i, m))])
    out = basis.additive_table(lambda X: X @ (acc * s.scale_multiplier(Fraction(1, p - 1))))
    if not np.array_equal(out, log.tri_table):
        raise FailedTheoremError("root-of-unity triangle differs from the logged triangle")
    return out


def oracle_substructure_masks(B: SkewBrace) -> tuple[frozenset, frozenset, frozenset]:
    """Fix, Soc and Ann from whole n x n masks, the mask circ == dot built
    twice, once for Fix (columns) and once for Soc (rows)."""
    dot, circ = B.dot.table, B.circ.table
    fix_mask = (circ == dot).all(axis=0)
    soc_mask = (circ == dot).all(axis=1) & (dot == dot.T).all(axis=1)
    ann_mask = soc_mask & fix_mask & (circ == circ.T).all(axis=1)
    return tuple(frozenset(np.flatnonzero(mask).tolist()) for mask in (fix_mask, soc_mask, ann_mask))


def oracle_substructures_brace(B: SkewBrace) -> tuple[frozenset, frozenset, frozenset]:
    """substructures_brace on the whole-mask Fix, Soc and Ann."""
    fix, soc, ann = oracle_substructure_masks(B)
    if classify_subset_brace(B, fix) < IdealLevel.LEFT_IDEAL:
        raise FailedTheoremError("fix is not a left ideal")
    for name, sub in (("socle", soc), ("annihilator", ann)):
        if classify_subset_brace(B, sub) < IdealLevel.IDEAL:
            raise FailedTheoremError(f"{name} is not an ideal")
    return fix, soc, ann


def _outcome(fn):
    """fn()'s value, arrays as (dtype, shape, bytes), or its failure."""
    try:
        out = fn()
    except (LazbraceError, ModArithError) as exc:
        return f"{type(exc).__name__}: {exc}"
    arrays = out if isinstance(out, tuple) else (out,)
    if not all(isinstance(a, np.ndarray) for a in arrays):
        return out
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _lambda_outcomes(B: SkewBrace, log=None, oracle=False) -> dict:
    """Every result that reads lambda a star product or a column at a
    time, and Fix, Soc and Ann: from the library, or (oracle) from the
    whole lambda table and the old masks.  The series read _star, so the
    caller takes their oracle forms with oracle_star in its place."""
    adjoint, tables, root_diff, subs = ((oracle_adjoint_group_filtration, oracle_lambda_and_star_tables,
                                         oracle_lambda_derivative_table, oracle_substructures_brace) if oracle else
                                        (adjoint_group_filtration, lambda_and_star, lambda_derivative,
                                         substructures_brace))
    return {"left": _outcome(lambda: left_series_brace(B)),
            "right": _outcome(lambda: right_series_brace(B)),
            "strong": _outcome(lambda: strong_series_brace(B)),
            "strong_cap2": _outcome(lambda: strong_series_brace(B, cap=2)),
            "adjoint": _outcome(lambda: adjoint(B)),
            "lambda_and_star": _outcome(lambda: tables(B)),
            "root_diff": _outcome(lambda: root_diff(B, log)),
            "substructures": _outcome(lambda: subs(B))}


def test_lambda_rows_match_the_lambda_table_forms(series_braces, brace_logs, monkeypatch):
    logs = {id(B): log for _, B, log in brace_logs}
    braces = list(series_braces) + [(f"perturbed_{i}", B)
                                    for i, B in enumerate(_perturbed_braces(np.random.default_rng(28)))]
    assert len(braces) == 118 + 68
    failed = {}
    for name, B in braces:
        log = logs.get(id(B))
        got = _lambda_outcomes(B, log)
        with monkeypatch.context() as m:
            m.setattr(skewbrace, "_star", oracle_star)
            want = _lambda_outcomes(B, log, oracle=True)
        assert got == want, name
        for key, value in got.items():
            failed[key] = failed.get(key, 0) + isinstance(value, str)
        assert "lam" not in vars(B), name
    # the perturbed braces reach the failures, the catalog the values
    assert 0 < failed["adjoint"] < len(braces) and 0 < failed["lambda_and_star"] < len(braces), failed
    assert 0 < failed["root_diff"] < len(braces), failed


def test_adjoint_group_filtration_reads_a_callers_chain(series_braces):
    """With F given, the circle filtration is taken against F, not the
    L-series: on every chain of length <= 3 of the dot groups of order <= 16
    the outcome is the oracle's, and some chains give a filtration other
    than the canonical one.  A chain that is no group filtration is refused."""
    kinds = {"refused": 0, "canonical": 0, "other": 0}
    for name, B in series_braces:
        if B.order > 16:
            continue
        canonical = _outcome(lambda: adjoint_group_filtration(B))
        for F in all_group_chains(B.dot, 3):
            got = _outcome(lambda: adjoint_group_filtration(B, F))
            assert got == _outcome(lambda: oracle_adjoint_group_filtration(B, F)), name
            kinds["refused" if isinstance(got, str) else "canonical" if got == canonical else "other"] += 1
    assert min(kinds.values()) > 0, kinds
    B = catalogs.radical_brace(5, 2)
    for terms in ((range(25), {0, 1}, {0}), (range(25), {0, 5, 10, 15, 20})):
        with pytest.raises(ModArithError):
            adjoint_group_filtration(B, Filtration(tuple(frozenset(t) for t in terms)))


def test_no_library_path_leaves_a_table_on_the_brace():
    """After every path that reads lambda, the brace holds no n x n array
    (lambda is held only as rows, built where they are read); the brace is
    the flow's and the log reads it, so both directions run on it."""
    for P in (catalogs.postlie_heis_negbracket(5), catalogs.prelie_radical(5, 2)):
        flow = post_lie_to_brace(P)
        B, n = flow.brace, flow.brace.order
        log = brace_to_post_lie(B)
        for path in (lambda: l_series_brace(B), lambda: left_series_brace(B), lambda: right_series_brace(B),
                     lambda: strong_series_brace(B), lambda: adjoint_group_filtration(B),
                     lambda: substructures_brace(B), lambda: transfer_report(P, flow),
                     lambda: lambda_derivative(B, log), lambda: lambda_derivative(B), lambda: omega_map(B),
                     lambda: lambda_and_star(B)):
            path()
        tables = [key for key, value in vars(B).items() if isinstance(value, np.ndarray) and value.size >= n * n]
        assert tables == [], tables
        assert not hasattr(B, "lam")


# ---------------------------------------------------------------------------
# The one block walk (modarith._walk) against whole-table forms: its
# witnesses and its coverage on masks, and every whole-table read it took
# over from an n x n mask, with blocks of a few rows or entries.


def _first_true(mask: np.ndarray):
    hits = np.argwhere(mask)
    return None if not hits.size else (int(hits[0, 0]), int(hits[0, 1]))


@pytest.mark.parametrize("chunk", [1, 7, 40, 1 << 18])
def test_walk_names_each_tests_first_witness_and_covers_every_entry_once(chunk, monkeypatch):
    monkeypatch.setattr(modarith, "_CHUNK", chunk)
    rng = np.random.default_rng(29)
    for m, n in ((1, 1), (5, 3), (13, 13), (30, 17), (40, 40)):
        last = np.zeros((m, n), dtype=bool)
        last[-1, -1] = True  # a witness only in the last block
        masks = [rng.random((m, n)) < q for q in (0.0, 0.02, 0.3)] + [last]
        assert _walk(m, n, *(lambda blk, M=M: M[blk] for M in masks)) == [_first_true(M) for M in masks]
        seen = np.zeros(m, dtype=np.int64)
        for blk in _walk(m, n):
            seen[blk] += 1
        assert (seen == 1).all(), (m, n)
        # a test that has its witness is not called again; rows(blk) is formed once per block
        calls, formed = [], []
        _walk(m, n, lambda blk, R: calls.append(blk) or R, rows=lambda blk: formed.append(blk) or last[blk])
        assert calls == formed == list(_walk(m, n))
        if m == n:  # mirror blocks, on symmetric masks, and a visit that marks each block and its mirror
            for M in masks:
                S = M | M.T
                assert _walk(n, n, lambda I, J: S[I, J], mirror=True) == [_first_true(S)]
            cover = np.zeros((n, n), dtype=np.int64)

            def mark(I, J):
                cover[I, J] += 1
                if I != J:
                    cover[J, I] += 1

            _walk(n, n, mark, mirror=True)
            assert (cover == 1).all(), n


def test_block_reads_match_the_whole_table_forms(series_braces, brace_logs, monkeypatch):
    # blocks of a few rows (or square blocks of side 6), so that a table of
    # order 25 and up spans several, and its last block is short
    monkeypatch.setattr(modarith, "_CHUNK", 40)
    rng = np.random.default_rng(30)
    braces = [B for _, B in series_braces] + _perturbed_braces(np.random.default_rng(31))
    for B in list(braces):
        n = B.order
        if n >= 25:  # circ != circ^T only in the last entries, and dot != dot^T in the last block pair
            for a, b in ((n - 2, n - 1), (1, n - 1)):
                circ, dot = B.circ.table.copy(), B.dot.table.copy()
                circ[a, b], circ[a, b - 1] = circ[a, b - 1], circ[a, b]
                dot[b, a], dot[b - 1, a] = dot[b - 1, a], dot[b, a]
                braces += [SkewBrace(B.dot, FinGroup(circ, B.circ.identity)),
                           SkewBrace(FinGroup(dot, B.dot.identity), B.circ)]
    kinds = set()
    for B in braces:
        dot, circ = B.dot.table, B.circ.table
        assert B.is_brace == np.array_equal(dot, dot.T)
        got = oracle_substructure_masks(B)
        with monkeypatch.context() as m:
            m.setattr(skewbrace, "classify_subset_brace", lambda B, sub: IdealLevel.IDEAL)
            assert substructures_brace(B) == got
        kinds.add((B.is_brace, got[1] == frozenset(range(B.order))))
        other = FinGroup(circ, B.circ.identity)
        assert (B.dot == other) == (B.dot.identity == other.identity and np.array_equal(dot, circ))
    assert {(True, True), (True, False), (False, False)} <= kinds, kinds
    for name, B, log in brace_logs:  # relabel, and relabels_to on a target that differs in one late entry
        basis, n = log.basis, B.order
        flow = post_lie_to_brace(log.post_lie, check=False)
        for mine, theirs in ((flow.brace.dot, B.dot), (flow.brace.circ, B.circ)):
            whole = basis.relabel(mine.table)
            assert np.array_equal(whole, oracle_relabel(basis, mine.table)), name
            assert basis.relabels_to(mine.table, theirs.table) == np.array_equal(whole, theirs.table), name
            moved = theirs.table.copy()
            a, b = n - 1 - int(rng.integers(min(n, 3))), int(rng.integers(n))
            moved[a, b] = (moved[a, b] + 1) % n
            assert not basis.relabels_to(mine.table, moved), name


def oracle_relabel(basis: AbelianBasis, table: np.ndarray) -> np.ndarray:
    """relabel as one whole gather."""
    ie = basis.index_of_elem
    return basis.elem_of[table[ie[:, None], ie[None, :]]]
