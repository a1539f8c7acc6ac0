"""The generator-based verifiers against exhaustive oracles.

verify_group_table, verify_skew_brace, the filtration validators and
classify_subset check each law on generators only, and all_add_subgroups
builds each subgroup once without a closure.  laz, laz_inv and
laz_of_table evaluate only the rows of generators and fill the rest along
a Schreier tree, and every series of rings, groups and braces takes each
term as one closure of products of generators.  Omega and U come from one
stacked BCH in the semidirect sum T (+) End(T), and the root-of-unity
triangle from stacked gathers.  transfer_report classifies the subgroups
of one order in one batch per side, and classify_subset and
classify_subset_brace are the one-subset case of those batches.  The
oracles below sweep every triple or pair, search by closure, close whole
product sets, classify one subset at a time, or evaluate one element at a
time in the holomorph, as the library once did, and must give the same
verdict, list, table or map on every table, chain, subset, ring and brace
of the corpus, valid or not.
"""

from fractions import Fraction

import numpy as np
import pytest

import catalogs
from catalogs import (_bracket_set, _comm_set, _index_set, _star_set, _tri_set, descending_series, mask, sets,
                      trivial_brace)
from lazbrace import formats, freelie
from lazbrace.common import IdealLevel
from lazbrace.liering import (
    Filtration,
    FinGroup,
    LieRingTable,
    SeriesResult,
    _add_subgroup_runs,
    _bch_batch,
    _eval_word_batch,
    _group_gens,
    _rational_power_batch,
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
    validate_group_filtration,
    verify_group_table,
)
from lazbrace.lazcorr import (_sweep, brace_to_post_lie, lambda_derivative, omega_map, post_lie_to_brace,
                              transfer_report, u_eval)
from lazbrace.modarith import (
    _CHUNK,
    AbelianBasis,
    ModArithError,
    PShape,
    _find_identity,
    _table_orders,
    _table_times,
    abelian_decompose,
    prime_power,
    root_of_unity,
)
from lazbrace.postlie import (PostLieRing, circ_ring, classify_subset, l_series, left_series, right_series,
                              verify_post_lie)
from lazbrace.skewbrace import (
    SkewBrace,
    _all_subgroups_group,
    classify_subset_brace,
    enumerate_braces,
    l_series_brace,
    left_series_brace,
    minimal_generators,
    right_series_brace,
    strong_series_brace,
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
    step = max(1, _CHUNK // n)
    for start in range(0, n, step):
        stop = min(n, start + step)
        table[start:stop] = rows(np.repeat(idx[start:stop], n), np.tile(idx, stop - start)).reshape(-1, n)
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
    n1 = t1.shape[0]
    n = n1 * t2.shape[0]
    return (t1[None, :, None, :] + n1 * t2[:, None, :, None]).reshape(n, n)


def _perturbed(table, rng):
    t = table.copy()
    n = t.shape[0]
    x, y = (int(v) for v in rng.integers(1, n, size=2))
    t[x, y] = (t[x, y] + 1) % n
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


def test_braces_match_the_compatibility_oracle(rng):
    braces = [B for _, B in catalogs.order9_braces()] + [catalogs.radical_brace(5, 2)]
    braces += [_relabelled(B, rng) for B in braces for _ in range(2)]
    braces += [SkewBrace(B.dot, FinGroup(_perturbed(B.circ.table, rng), 0)) for B in braces[:6]]
    first = braces[0]
    braces += [SkewBrace(FinGroup(_product(first.dot.table, B.dot.table), 0),
                         FinGroup(_product(first.circ.table, B.circ.table), 0)) for B in braces[:20]]
    verdicts = [bool(verify_skew_brace(B).ok) for B in braces]
    assert verdicts == [oracle_brace(B) for B in braces]
    assert True in verdicts and False in verdicts


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
    span, gens = _span_fold(s, H, mask(s.order, members))
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
    if not inside(B.lam[:, arr]):
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
        assert _table_series(T) == series, name
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
    for name, _L, _G, T in lazard_tables[:len(lie_cat)]:
        basis, oracle = abelian_decompose(T.add), oracle_abelian_decompose(T.add)
        assert basis.shape == oracle.shape and basis.gens == oracle.gens, name
        assert np.array_equal(basis.elem_of, oracle.elem_of), name
        assert np.array_equal(basis.index_of_elem, oracle.index_of_elem), name
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
    for a in range(B.order):
        acc = np.zeros((B.order, s.rank), dtype=np.int64)
        for i in range(p - 1):
            scal = pow(xi_inv, i, s.max_modulus)
            a_i = int(basis.elem_of[s.index_batch(s.reduce(coords_of_elem[a] * scal))])
            acc = s.reduce(acc + pow(xi, i, s.max_modulus) * coords_of_elem[B.lam[a_i]])
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
        assert np.array_equal(Om, [oracle_u_eval(B, a, B.lam[a], k) for a in range(B.order)]), name
        # off the diagonal: U(a, lambda_b) for sampled pairs, as one stacked call
        a, b = rng.integers(0, B.order, size=(2, 6))
        expected = [oracle_u_eval(B, x, B.lam[y], k) for x, y in zip(a, b)]
        assert np.array_equal(u_eval(B, a, B.lam[b]), expected), name
        assert u_eval(B, int(a[0]), B.lam[b[0]]) == expected[0], name


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
    """verify_group_table with Light's test on the generators of the
    frontier walk."""
    table = np.asarray(table, dtype=np.int64)
    ident = int(np.nonzero((table == np.arange(table.shape[0])).all(axis=1))[0][0])
    for a in oracle_group_gens(FinGroup(table, ident)):
        bad = table[table[:, a]] != table[:, table[a]]
        if bad.any():
            x, y = np.argwhere(bad)[0]
            return f"associativity fails at (x,a,y)=({int(x)},{a},{int(y)})"
    return None


def test_group_table_verdicts_unchanged_on_loops_and_perturbed_tables(rng):
    tables = [laz(catalogs.heisenberg(3)).table]
    for k, switches in ((3, [(1, 2, 3), (2, 4, 7)]), (6, [(1, 2, 3), (5, 30, 17)])):
        X = _xor_table(k)
        tables += [X] + [_intercalate_switch(X, *sw) for sw in switches]
    tables += [_product(tables[1], t) for t in tables[2:4]]
    tables += [_perturbed(t, rng) for t in tables]
    loops = 0
    for t in tables:
        rep = verify_group_table(t)
        latin = not any("permutation" in f or "identity" in f for f in rep.failures)
        if latin:
            loops += 1
            expected = oracle_verify_group_table(t)
            assert rep.failures == (() if expected is None else (expected,))
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
