import math
from fractions import Fraction
from importlib import resources

import pytest

from lazbrace import freelie
from lazbrace.freelie import (
    MAX_BCH_CLASS,
    GroupSeries,
    GroupWord,
    bch_series,
    derive_inverse_words,
    dump_tables,
    evaluate_group_word,
    get_basis,
    inverse_words,
    load_tables,
    parse_tree,
    render_tree,
    tree_degree,
)

X, Y = (0,), (1,)


def _necklace_dim(n: int) -> int:
    # Witt's formula on two letters: (1/n) sum_{d|n} mu(d) 2^(n/d)
    def mobius(m):
        out, d = 1, 2
        while d * d <= m:
            if m % d == 0:
                m //= d
                if m % d == 0:
                    return 0
                out = -out
            d += 1
        return -out if m > 1 else out

    total = sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0)
    assert total % n == 0
    return total // n


def test_basis_dimensions_match_necklace_counts():
    basis = get_basis(6)
    dims = [basis.dim(d) for d in range(1, 7)]
    assert dims == [2, 1, 2, 3, 6, 9]
    assert dims == [_necklace_dim(d) for d in range(1, 7)]


def test_basis_bracketings():
    basis = get_basis(3)
    assert basis.tree[(0, 1)] == (0, 1)
    assert basis.tree[(0, 0, 1)] == (0, (0, 1))
    assert basis.tree[(0, 1, 1)] == ((0, 1), 1)


def test_bracket_antisymmetric_and_jacobi_exhaustive_c5():
    basis = get_basis(5)
    elems = {w: freelie.FreeLieElem(basis, {w: Fraction(1)}) for w in basis.words}
    for w1 in basis.words:
        for w2 in basis.words:
            if len(w1) + len(w2) > 5:
                continue
            assert elems[w1].bracket(elems[w2]) == -(elems[w2].bracket(elems[w1]))
    words = basis.words
    for a in words:
        for b in words:
            for c in words:
                if len(a) + len(b) + len(c) > 5:
                    continue
                ea, eb, ec = elems[a], elems[b], elems[c]
                j = ea.bracket(eb.bracket(ec)) + eb.bracket(ec.bracket(ea)) + ec.bracket(ea.bracket(eb))
                assert j.is_zero, (a, b, c)


def test_bch_low_degree_golden_values():
    b = bch_series(4)
    basis = get_basis(4)
    assert b.coefficient(X) == 1 and b.coefficient(Y) == 1
    assert b.coefficient((0, 1)) == Fraction(1, 2)
    assert b.coefficient((0, 0, 1)) == Fraction(1, 12)
    # the displayed term on [y,[y,x]] is the Lyndon element [[x,y],y] exactly
    assert basis.elem_of_tree((1, (1, 0))) == freelie.FreeLieElem(basis, {(0, 1, 1): Fraction(1)})
    assert b.coefficient((0, 1, 1)) == Fraction(1, 12)
    # [y,[x,[x,y]]] rewrites to -[x,[[x,y],y]], so its displayed -1/24 lands
    # as +1/24 on the Lyndon word xxyy
    assert basis.elem_of_tree((1, (0, (0, 1)))) == freelie.FreeLieElem(
        basis, {(0, 0, 1, 1): Fraction(-1)}
    )
    assert b.coefficient((0, 0, 1, 1)) == Fraction(1, 24)
    assert b.coefficient((0, 0, 0, 1)) == 0
    assert b.coefficient((0, 1, 1, 1)) == 0


def _pair_sequences(total: int, parts: int):
    """Sequences of `parts` pairs (p,q) != (0,0) with degrees summing to total."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head_deg in range(1, total - parts + 2):
        for p in range(head_deg + 1):
            q = head_deg - p
            for rest in _pair_sequences(total - head_deg, parts - 1):
                yield ((p, q),) + rest


def oracle_dynkin_bch(class_bound: int) -> freelie.FreeLieElem:
    """BCH(x, y) truncated at the class bound, via Dynkin's expansion."""
    basis = get_basis(class_bound)
    total = basis.zero()
    gens = (basis.gen(0), basis.gen(1))
    for n in range(1, class_bound + 1):
        for k in range(1, n + 1):
            for seq in _pair_sequences(n, k):
                letters = []
                for p, q in seq:
                    letters.extend([0] * p)
                    letters.extend([1] * q)
                if n >= 2 and letters[-1] == letters[-2]:
                    continue  # right-normed bracket vanishes
                val = gens[letters[-1]]
                for letter in reversed(letters[:-1]):
                    val = gens[letter].bracket(val)
                if val.is_zero:
                    continue
                denom = n * k
                for p, q in seq:
                    denom *= math.factorial(p) * math.factorial(q)
                coeff = Fraction((-1) ** (k - 1), denom)
                total = total + val.scale(coeff)
    return total


def test_bch_matches_associative_log_oracle():
    # bch_series is log(exp(x) exp(y)) in the free associative envelope;
    # the independent route is Dynkin's expansion over right-normed brackets
    for c in range(1, MAX_BCH_CLASS + 1):
        assert bch_series(c) == oracle_dynkin_bch(c), c


def _sample_group_series(c: int) -> list[GroupSeries]:
    basis = get_basis(c)
    x, y = basis.gen(0), basis.gen(1)
    g, h = GroupSeries.exp(x), GroupSeries.exp(y)
    return [g, h, g.mul(h), g.commutator(h),
            h.mul(g.pow_rational(Fraction(-1, 2))).mul(g.commutator(h)),
            GroupSeries.exp(x.scale(3) - y + x.bracket(y).scale(Fraction(1, 2)))]


def test_envelope_exp_inverse_and_log_laws():
    for c in range(1, MAX_BCH_CLASS + 1):
        one = {(): Fraction(1)}
        for i, g in enumerate(_sample_group_series(c)):
            assert g.mul(g.inv()).terms == one, (c, i)
            assert g.inv().mul(g).terms == one, (c, i)
            assert GroupSeries.exp(g.log()).terms == g.terms, (c, i)
            assert g.inv().terms == g.pow_rational(-1).terms, (c, i)


def test_bch_symbolic_identities():
    basis = get_basis(5)
    x = basis.gen(0)
    word = GroupWord(((0, Fraction(1)), (1, Fraction(1))))
    assert evaluate_group_word(word, 5, x, -x).is_zero
    assert evaluate_group_word(word, 5, x, x) == x.scale(2)


def test_bch_denominator_prime_bound():
    b = bch_series(7)
    for w, coeff in b.coeffs.items():
        n = coeff.denominator
        d = 2
        while d * d <= n:
            while n % d == 0:
                assert d <= len(w)
                n //= d
            d += 1
        if n > 1:
            assert n <= len(w)


def test_bch_truncation_consistency():
    b6 = bch_series(6)
    for c in (2, 3, 4, 5):
        assert {w: v for w, v in b6.coeffs.items() if len(w) <= c} == bch_series(c).coeffs


def test_bch_terms_can_be_iterated_twice():
    for k in (0, 1, 3):
        terms = freelie.bch_terms(k)
        assert list(terms) == list(terms)
        assert len(terms) == sum(1 for deg, *_ in freelie.bch_basis_terms(max(k, 1)) if deg <= k)
    # a reused value is the BCH series, not the identity after its first use
    terms = freelie.bch_terms(2)
    add = lambda acc, v, c: acc + c * v
    node = lambda u, v: u * 0
    assert [freelie.fold_terms(terms, 2, 3, node, add, 0) for _ in range(2)] == [5, 5]


def _lyndon_exponents(word: GroupWord) -> dict:
    return {freelie.tree_word(t): q for t, q in word.factors}


def test_inverse_word_golden_values_sum():
    """Exponents of the displayed degree <= 4 factors, after normalizing the
    words to the Lyndon orientation (outer swaps flip the exponent sign;
    nested rewrites go through the exact bracket evaluation)."""
    P, Q = derive_inverse_words(4)
    p_exp = _lyndon_exponents(P)
    q_exp = _lyndon_exponents(Q)
    basis = get_basis(4)

    def norm(tree_text, letters=("g", "h")):
        # returns (lyndon word, sign) of a displayed bracket word
        tree = parse_tree(tree_text, letters)
        elem = basis.elem_of_tree(tree)
        assert len(elem.coeffs) == 1
        ((w, c),) = elem.coeffs.items()
        assert abs(c) == 1
        return w, c

    # the sum word: g h [g,h]^(-1/2) ... [g,[g,[g,h]]]^(-1/24) [h,[h,[g,h]]]^(1/24)
    assert p_exp[(0,)] == 1 and p_exp[(1,)] == 1
    assert p_exp[(0, 1)] == Fraction(-1, 2)
    w, s = norm("[g,[g,[g,h]]]")
    assert p_exp[w] == Fraction(-1, 24) * s
    w, s = norm("[h,[h,[g,h]]]")
    assert p_exp[w] == Fraction(1, 24) * s
    # the two degree-3 factors carry -1/12 and -1/12 in Lyndon orientation;
    # rendered right-normed they read [g,[g,h]]^(-1/12) [h,[g,h]]^(+1/12),
    # so the displayed magnitude 1/12 appears at degree 3
    assert p_exp[(0, 0, 1)] == Fraction(-1, 12)
    assert p_exp[(0, 1, 1)] == Fraction(-1, 12)
    w, s = norm("[h,[g,h]]")
    assert p_exp[w] * s == Fraction(1, 12)
    # no other degree <= 4 factors
    assert set(p_exp) == {(0,), (1,), (0, 1), (0, 0, 1), (0, 1, 1), (0, 0, 0, 1), (0, 1, 1, 1)}


def test_inverse_word_golden_values_bracket():
    """The bracket word matches its display exactly: [g,h] [g,[g,h]]^(1/2)
    [h,[g,h]]^(1/2) [g,[g,[g,h]]]^(1/3) [h,[g,[g,h]]]^(1/4) [h,[h,[g,h]]]^(1/3)."""
    _, Q = derive_inverse_words(4)
    q_exp = _lyndon_exponents(Q)
    basis = get_basis(4)

    def norm(tree_text):
        tree = parse_tree(tree_text, ("g", "h"))
        elem = basis.elem_of_tree(tree)
        ((w, c),) = elem.coeffs.items()
        assert abs(c) == 1
        return w, c

    displayed = [
        ("[g,h]", Fraction(1)),
        ("[g,[g,h]]", Fraction(1, 2)),
        ("[h,[g,h]]", Fraction(1, 2)),
        ("[g,[g,[g,h]]]", Fraction(1, 3)),
        ("[h,[g,[g,h]]]", Fraction(1, 4)),
        ("[h,[h,[g,h]]]", Fraction(1, 3)),
    ]
    seen = set()
    for text, q in displayed:
        w, s = norm(text)
        assert q_exp[w] == q * s, text
        seen.add(w)
    assert set(q_exp) == seen


def test_inverse_words_self_inversion():
    for c in (2, 3, 4, 5):
        P, Q = derive_inverse_words(c)
        basis = get_basis(c)
        assert evaluate_group_word(P, c) == basis.gen(0) + basis.gen(1)
        assert evaluate_group_word(Q, c) == basis.gen(0).bracket(basis.gen(1))


def test_inverse_word_exponent_denominators():
    P, Q = derive_inverse_words(6)
    for word in (P, Q):
        for t, q in word.factors:
            n = Fraction(q).denominator
            d = 2
            while d * d <= n:
                while n % d == 0:
                    assert d <= tree_degree(t)
                    n //= d
                d += 1
            if n > 1:
                assert n <= tree_degree(t)


def test_factor_order_non_decreasing_degree():
    P, Q = derive_inverse_words(5)
    for word in (P, Q):
        degs = [tree_degree(t) for t, _ in word.factors]
        assert degs == sorted(degs)


def test_table_serialization_round_trip():
    text = dump_tables(5)
    c, bch, P, Q = load_tables(text)
    assert c == 5
    assert bch == bch_series(5)
    assert P == derive_inverse_words(5)[0]
    assert Q == derive_inverse_words(5)[1]
    assert dump_tables(5) == text  # bit-exact round trip


def test_packaged_table_matches_fresh_derivation():
    for c in (2, 4, 6):
        P, Q = inverse_words(c)
        Pd, Qd = derive_inverse_words(c)
        assert P == Pd and Q == Qd


def test_packaged_table_is_the_class_six_dump():
    # the BCH section too: the envelope route reproduces the shipped series
    shipped = (resources.files("lazbrace") / "tables" / "inverse_words_c6.txt").read_bytes()
    assert shipped == dump_tables(6).encode("ascii")


def test_render_and_parse_trees():
    t = (0, ((0, 1), 1))
    assert render_tree(t, ("g", "h")) == "[g,[[g,h],h]]"
    assert parse_tree("[g,[[g,h],h]]", ("g", "h")) == t
    with pytest.raises(ValueError):
        parse_tree("[g,", ("g", "h"))


def test_class_bounds_enforced():
    with pytest.raises(ValueError):
        get_basis(9)
    with pytest.raises(ValueError):
        derive_inverse_words(7)


_P_LINE = "2\t[g,h]\t-1/2\n"


@pytest.mark.parametrize("bad", [
    "3\t[g,h]\t-1/2\n",   # degree field disagrees with the word
    "2\t[g,h]\t-1/3\n",   # denominator prime above the factor degree
    "2\t[g,h]\t0/1\n",    # zero exponent
    "2\t[g,h]\n",          # missing field
    "2\t[g,h,]\t-1/2\n",  # unparsable word
], ids=["degree", "denominator", "zero", "field", "word"])
def test_corrupt_table_raises(bad, monkeypatch):
    text = (resources.files("lazbrace") / "tables" / "inverse_words_c6.txt").read_text()
    assert _P_LINE in text
    corrupt = text.replace(_P_LINE, bad, 1)
    with pytest.raises(ValueError):
        load_tables(corrupt)
    # inverse_words must report the damage, not re-derive the words
    monkeypatch.setattr(freelie, "load_tables", lambda _text: load_tables(corrupt))
    inverse_words.cache_clear()
    try:
        with pytest.raises(ValueError):
            inverse_words(2)
    finally:
        inverse_words.cache_clear()
