"""Element-index tables are stored in the smallest unsigned dtype that
holds n - 1, with every entry range-checked before the cast."""

import sys
import tracemalloc

import numpy as np
import pytest

import catalogs
from lazbrace import formats, liering, modarith
from lazbrace.common import FailedTheoremError
from lazbrace.lazcorr import _require_w_hom, brace_to_post_lie, lambda_derivative, post_lie_to_brace
from lazbrace.liering import (Filtration, FinGroup, LieRingSC, LieRingTable, laz, laz_inv, laz_of_table,
                              verify_group_table)
from lazbrace.modarith import AbelianBasis, ModArithError, PShape, abelian_decompose
from lazbrace.postlie import PostLieRing
from lazbrace.skewbrace import (SkewBrace, aut_plus, holomorph_plus, lambda_and_star, substructures_brace,
                                verify_skew_brace)


def _compact(n: int):
    return np.uint8 if n <= 256 else np.uint16 if n <= 65536 else np.uint32


def _cyclic_table(n: int) -> np.ndarray:
    return np.add.outer(np.arange(n), np.arange(n)) % n


# a cast to uint16 turns 65539 and 2**32 + 3 into 3, and -1 into 65535
@pytest.mark.parametrize("value", [-1, 65536 + 3, 2 ** 32 + 3])
def test_out_of_range_entries_are_named_before_the_cast(value):
    n = 625
    table = _cyclic_table(n)
    table[7, 11] = value
    named = rf"at \(row,column,value\)=\(7,11,{value}\)$"
    with pytest.raises(ModArithError, match=named):
        FinGroup(table, 0)
    with pytest.raises(ModArithError, match=named):
        LieRingTable(table, np.zeros((n, n), dtype=np.int64), 0)
    with pytest.raises(ModArithError, match=named):
        LieRingTable(_cyclic_table(n), table, 0)
    with pytest.raises(ModArithError, match=named):
        abelian_decompose(table)
    assert verify_group_table(table).failures == ("entries out of range",)


def test_entries_beyond_int64_are_named():
    rows = _cyclic_table(625).tolist()
    rows[7][11] = 2 ** 64 + 3
    with pytest.raises(ModArithError, match=rf"\(7,11,{2 ** 64 + 3}\)$"):
        FinGroup(rows, 0)
    assert verify_group_table(rows).failures == ("entries out of range",)


def test_tables_must_be_square():
    with pytest.raises(ModArithError, match=r"^table of shape \(3, 4\) is not 3 x 3$"):
        FinGroup(np.zeros((3, 4), dtype=np.int64), 0)
    with pytest.raises(ModArithError, match=r"^table of shape \(2, 2\) is not 3 x 3$"):
        LieRingTable(_cyclic_table(3), np.zeros((2, 2), dtype=np.int64), 0)


def _public_tables(L, P, files=None):
    """Every table the public API returns for a Lie ring L and a post-Lie
    ring P on the same order: the Lazard round trip, the flow brace with
    its lambda and star tables, and the .grp and .skb texts `files`
    (default: those of the group and the brace) parsed back, the brace with
    its lambda and star tables."""
    G = laz(L)
    T = laz_inv(G)
    B = post_lie_to_brace(P).brace
    files = files or [formats.write_text(G), formats.write_text(B)]
    _, G_file = formats.parse_text(files[0])
    _, B_file = formats.parse_text(files[1])
    (lam, star), (lam_file, star_file) = lambda_and_star(B), lambda_and_star(B_file)
    return files, {"laz": G.table, "laz_inv.add": T.add, "laz_inv.bracket": T.bracket,
            "laz_of_table": laz_of_table(T).table, "brace.dot": B.dot.table, "brace.circ": B.circ.table,
            "brace.lambda": lam, "brace.star": star, ".grp": G_file.table, ".skb dot": B_file.dot.table,
            ".skb circ": B_file.circ.table, ".skb lambda": lam_file, ".skb star": star_file}


@pytest.mark.parametrize("p", [3, 5, 7])  # orders 81, 625 and 2401
def test_public_tables_are_compact_and_match_an_int64_oracle(p, monkeypatch):
    L = catalogs.class2_r4(p)
    P = catalogs.zero_triangle(catalogs.heisenberg(p, (2, 1, 1)))
    n = p ** 4
    assert L.order == P.shape.order == n
    files, tables = _public_tables(L, P)
    # the same computation with every table held in int64, on the same files
    for module in (modarith, liering):
        monkeypatch.setattr(module, "index_dtype", lambda n: np.dtype(np.int64))
    _, oracle = _public_tables(L, P, files)
    for name, table in tables.items():
        assert table.shape == (n, n) and table.dtype == _compact(n), name
        assert oracle[name].dtype == np.int64, name
        assert np.array_equal(table, oracle[name]), name


def test_index_dtype_thresholds():
    for n, dtype in ((1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
                     (65537, np.uint32)):
        assert modarith.index_dtype(n) == dtype, n


def test_holomorph_keys_are_taken_in_int64():
    # Z/125 with 125 > 25 > 1: Aut_1 is x -> (1 + 25t)x, so Hol^+ has order
    # 625 while its carrier part is a uint8 table: x * m + y must not wrap
    A = FinGroup(_cyclic_table(125), 0)
    F = Filtration((frozenset(range(125)), frozenset(range(0, 125, 5)), frozenset({0})))
    hol, pairs = holomorph_plus(A, F)
    assert hol.order == 625 and hol.table.dtype == np.uint16
    units = [int(phi[1]) for phi in aut_plus(A, F)]  # pair (a, i) acts by x -> units[i] x
    m = len(units)
    assert sorted(units) == [1 + 25 * t for t in range(5)]
    idx = {u: i for i, u in enumerate(units)}
    expected = np.array([[((a + ui * b) % 125) * m + idx[(ui * uj) % 125]
                          for b, uj in ((b, units[j]) for b in range(125) for j in range(m))]
                         for a, ui in ((a, units[i]) for a in range(125) for i in range(m))])
    assert pairs == [(a, i) for a in range(125) for i in range(m)]
    assert np.array_equal(hol.table, expected)
    assert verify_group_table(hol).ok


def test_an_isomorphism_check_on_compact_tables_names_its_witness():
    # the W check reads uint16 circ rows of W(u) for the unit vectors u
    # against BCH rows of the u; a circ table one transposition away (two
    # entries of row W(u) swapped, u the last unit vector) is named at (u, b)
    P = catalogs.zero_triangle(catalogs.heisenberg(5, (2, 1, 1)))
    flow = post_lie_to_brace(P)
    W, circ = flow.w, flow.brace.circ.table
    assert W.dtype == np.int64 and circ.dtype == np.uint16
    _require_w_hom(P, W, circ)
    u, b1, b2 = P.shape.units()[-1].index, 300, 42
    bad = circ.copy()
    bad[W[u], W[b1]], bad[W[u], W[b2]] = circ[W[u], W[b2]], circ[W[u], W[b1]]
    named = rf"^W is not an isomorphism onto the circle group at \(a,b\)=\({u},42\)$"
    with pytest.raises(FailedTheoremError, match=named):
        _require_w_hom(P, W, bad)


def test_table_gathers_form_their_intp_index_a_block_at_a_time():
    """At order 3125 a whole n x n intp index is 74.5 MiB, four times a
    uint16 table.  The group check, the lambda and star tables and relabel
    each form theirs in blocks of rows, so none holds one."""
    G = FinGroup(_cyclic_table(3125), 0)
    B, basis = SkewBrace(G, G), abelian_decompose(G.table)
    whole = G.order ** 2 * np.dtype(np.intp).itemsize
    # the two tables relabel holds make half of it, as do the two that
    # lambda_and_star returns; the check holds no table
    for fn, share in ((lambda: verify_group_table(G), 0.25), (lambda: lambda_and_star(B), 0.6),
                      (lambda: basis.relabel(G.table), 0.65)):
        tracemalloc.start()
        try:
            fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < share * whole


def _negated_bracket_flow(p: int, e: int):
    """The flow of the negated-bracket triangle (a > b = -[a, b]) on the
    class-2 ring of shape (p; 1^e) with [g1, g2] = [g3, g4] = g_e (the
    second bracket from e = 5 on): its brace has circ != dot."""
    s = PShape(p, (1,) * e)
    top = tuple(int(i == e - 1) for i in range(e))
    L = LieRingSC.from_brackets(s, {(0, 1): top, **({(2, 3): top} if e >= 5 else {})})
    return post_lie_to_brace(PostLieRing(L, s.reduce(-L.sc)))


def _traced_peak(fn) -> int:
    """The bytes fn() allocates at its peak above what was held when it
    started, under tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_whole_table_reads_build_no_n_by_n_temporary(monkeypatch):
    """At order 3125 one uint16 table is 18.6 MiB.  The symmetry checks,
    the substructure masks, the roundtrip compare and the root-of-unity
    compare read their tables a _walk block at a time, and peak below a
    quarter of one table (each held a whole n x n bool mask, half a
    table, before; the roundtrip compare also its two relabelled tables);
    the brace check holds none."""
    flow = _negated_bracket_flow(5, 5)
    B, table = flow.brace, 5 ** 10 * 2
    assert B.order == 3125 and not np.array_equal(B.circ.table, B.dot.table)
    B.dot.inv, B.circ.inv  # cached: the checks below read them
    assert _traced_peak(lambda: verify_skew_brace(B)) <= 0.18 * table
    assert B.verdict.ok
    log = brace_to_post_lie(B)
    back = post_lie_to_brace(log.post_lie).brace
    out = lambda_derivative(B, log)
    # the root-of-unity triangle's compare alone: the table it fills is given
    monkeypatch.setattr(AbelianBasis, "additive_table", lambda self, images: out)
    for fn in (lambda: B.is_brace, lambda: substructures_brace(B), lambda: lambda_derivative(B, log),
               lambda: cli_roundtrip_compare(log.basis, back, B)):
        assert _traced_peak(fn) < 0.25 * table
    assert cli_roundtrip_compare(log.basis, back, B) and not B.is_brace


def cli_roundtrip_compare(basis, back, B) -> bool:
    """The brace branch of the CLI's roundtrip: both tables of `back`,
    moved onto B's elements, equal B's."""
    return all(basis.relabels_to(mine.table, theirs.table) for mine, theirs in ((back.dot, B.dot), (back.circ, B.circ)))


def test_walker_passes_of_each_direction_are_pinned(monkeypatch):
    """The whole-table passes (modarith._walk calls) of each direction of
    the correspondence at 5^4, with check=True, on fresh objects.  A change
    that adds or removes a pass changes these numbers, and says why."""
    calls = []
    walk = modarith._walk

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return walk(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("lazbrace") and getattr(module, "_walk", None) is walk:
            monkeypatch.setattr(module, "_walk", counted)
    flow = _negated_bracket_flow(5, 4)
    flow_passes = len(calls)
    B = SkewBrace(*(FinGroup(G.table, G.identity) for G in (flow.brace.dot, flow.brace.circ)))
    calls.clear()
    brace_to_post_lie(B, check=True)
    # flow: Light's test on 3 generators of dot and of circ (6), both inverse
    # tables (2), the BCH rows of Laz(base) and of the circ ring's units in
    # the W check (2), circ transposed in place (1); log: Light (6),
    # inverses (2), the symmetry of the Laz^-1 addition (1), its 4 quotient
    # tables, the bracket compare of table_to_sc (1), lambda's additivity
    # and raising in one pass (1), the triangle's biadditivity (1), the BCH
    # rows of the Omega check (1)
    assert (flow_passes, len(calls)) == (11, 17)
