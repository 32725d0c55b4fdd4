"""Codes, exact distance, subset sums, and the deep-hole tests."""

from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicksonrs import (
    DicksonSpec,
    FiniteField,
    Polynomial,
    RSCodeSpec,
    ReceivedWord,
    SubsetSumTable,
    count_Nu,
    deg_k1_deep_hole_test,
    deg_k1_reduction,
    encode,
    error_distance_bf,
    lagrange_interpolate,
    monomial_word,
    subset_sum_count,
    subset_sum_find,
    value_set,
)


@pytest.fixture
def f7():
    return FiniteField(7)


@pytest.fixture
def dickson_code_f7(f7):
    # D = {0, 2, 5, 6}, k = 1
    return RSCodeSpec.from_evaluation_set(value_set(DicksonSpec(f7, 2, 1)), 1)


# --- construction and encoding ----------------------------------------------


def test_code_validation(f7):
    with pytest.raises(ValueError):
        RSCodeSpec(f7, (0, 1, 1), 1)  # repeated point
    with pytest.raises(ValueError):
        RSCodeSpec(f7, (0, 1, 2), 3)  # k not < |D|


def test_encode_zero_and_constants(dickson_code_f7, f7):
    assert encode(dickson_code_f7, Polynomial.zero(f7)).values == (0, 0, 0, 0)
    assert encode(dickson_code_f7, Polynomial(f7, [5])).values == (5, 5, 5, 5)


def test_encode_degree_guard(dickson_code_f7, f7):
    with pytest.raises(ValueError):
        encode(dickson_code_f7, Polynomial(f7, [0, 1]))  # deg 1 > k-1 = 0


def test_other_field_polynomials_rejected(dickson_code_f7):
    poly = Polynomial(FiniteField(5), [1])
    with pytest.raises(ValueError, match="different field"):
        ReceivedWord.from_poly(dickson_code_f7, poly)
    with pytest.raises(ValueError, match="different field"):
        encode(dickson_code_f7, poly)


def test_word_repr_lists_its_values(dickson_code_f7, f7):
    # a word kept as its polynomial is evaluated for the repr
    word = ReceivedWord.from_poly(dickson_code_f7, Polynomial(f7, [0, 0, 1]))
    assert repr(word) == "ReceivedWord(k=1, values=[0, 4, 4, 1])"


def test_encode_interpolate_roundtrip(f7):
    code = RSCodeSpec(f7, tuple(range(7)), 3)
    msg = Polynomial(f7, [2, 0, 5])
    word = encode(code, msg)
    assert word.interp == msg
    assert lagrange_interpolate(f7, zip(code.points, word.values)) == msg


# --- brute-force distance -----------------------------------------------------


def test_codeword_distance_zero(dickson_code_f7, f7):
    word = encode(dickson_code_f7, Polynomial(f7, [3]))
    rep = error_distance_bf(word)
    assert rep.distance == 0
    assert rep.witness == Polynomial(f7, [3])
    assert not rep.is_deep_hole


def test_degree_k_word_is_deep_hole(dickson_code_f7, f7):
    # evaluations of x^k always sit at the covering radius |D| - k
    word = ReceivedWord(dickson_code_f7, [f7.pow(x, 1) for x in dickson_code_f7.points])
    rep = error_distance_bf(word)
    assert rep.distance == 4 - 1
    assert rep.is_deep_hole


def test_distance_never_exceeds_covering_radius(f7):
    code = RSCodeSpec(f7, (0, 1, 2, 3, 5), 2)
    for seed in range(12):
        word = ReceivedWord(code, [(seed * 3 + i * i + 1) % 7 for i in range(5)])
        assert error_distance_bf(word).distance <= 5 - 2


def test_inverse_monomial_words_are_deep_holes(grid_fields):
    # x^(q-2) words on D = F_q^*, the classic non-degree-k deep-hole family
    for q in (5, 7, 8, 9):
        F = grid_fields[q]
        for k in (2, 3):
            code = RSCodeSpec(F, tuple(F.units()), k)
            word = ReceivedWord(code, [F.pow(x, q - 2) for x in code.points])
            rep = error_distance_bf(word)
            assert rep.distance == (q - 1) - k, (q, k)
            assert rep.is_deep_hole


def _distance_by_subsets(word):
    """Reference oracle: interpolate u on every k-subset of positions and
    count agreements at all |D| points; the first subset with the most
    agreements gives the witness."""
    code = word.code
    n, k = code.length, code.k
    best_agree, best_poly = -1, None
    for subset in combinations(range(n), k):
        cand = lagrange_interpolate(
            code.field, [(code.points[i], word.values[i]) for i in subset]
        )
        agree = sum(
            1 for i in range(n) if cand.evaluate(code.points[i]) == word.values[i]
        )
        if agree > best_agree:
            best_agree, best_poly = agree, cand
    return n - best_agree, best_poly


_ORACLE_FIELDS = {pm: FiniteField(*pm) for pm in [(7, 1), (2, 3), (3, 2), (3, 3), (2, 4)]}


@pytest.mark.parametrize("pm", list(_ORACLE_FIELDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pencil_distance_matches_subset_oracle(pm, data):
    F = _ORACLE_FIELDS[pm]
    n = data.draw(st.integers(2, min(F.q, 9)), label="|D|")
    points = tuple(data.draw(st.permutations(range(F.q)))[:n])
    k = data.draw(st.integers(1, min(4, n - 1)), label="k")
    code = RSCodeSpec(F, points, k)
    elem = st.integers(0, F.q - 1)
    if data.draw(st.booleans(), label="near codeword"):
        msg = Polynomial(F, data.draw(st.lists(elem, min_size=k, max_size=k)))
        values = list(encode(code, msg).values)
        for i in data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="errors"):
            values[i] = data.draw(elem)
    else:
        values = data.draw(st.lists(elem, min_size=n, max_size=n), label="word")
    word = ReceivedWord(code, values)
    rep = error_distance_bf(word)
    assert (rep.distance, rep.witness) == _distance_by_subsets(word)
    assert rep.is_deep_hole == (rep.distance == n - k)


def test_distance_budget(f7):
    code = RSCodeSpec(f7, tuple(range(7)), 3)
    word = encode(code, Polynomial(f7, [1]))
    with pytest.raises(ValueError):
        error_distance_bf(word, budget=10)


# --- b1 extraction -------------------------------------------------------------


def test_b1_reads_coefficient(dickson_code_f7, f7):
    assert deg_k1_reduction(monomial_word(dickson_code_f7, 0)) == 0
    assert deg_k1_reduction(monomial_word(dickson_code_f7, 5)) == 5


def test_b1_after_normalization(f7):
    # 2x^3 + x^2 over the full field: monic form x^3 + 4x^2, so b1 = -4 = 3
    code = RSCodeSpec(f7, tuple(range(7)), 2)
    poly = Polynomial(f7, [0, 0, 1, 2])
    word = ReceivedWord(code, [poly.evaluate(x) for x in code.points])
    assert deg_k1_reduction(word) == 3


def test_monomial_word_keeps_its_interpolant(grid_fields):
    for q in (7, 8, 9, 27):
        F = grid_fields[q]
        code = RSCodeSpec.from_evaluation_set(value_set(DicksonSpec(F, 3, 1)), 2)
        for b1 in (0, 1, q - 1):
            word = monomial_word(code, b1)
            assert word.interp == lagrange_interpolate(F, zip(code.points, word.values))
            assert word.interp.degree == code.k + 1


def test_polynomial_word_is_evaluated_on_first_read(monkeypatch, grid_fields):
    # a word built from a polynomial of degree < |D| is evaluated only when
    # its values are read, one Polynomial.evaluate call per point
    F = grid_fields[27]
    code = RSCodeSpec.from_evaluation_set(value_set(DicksonSpec(F, 3, 1)), 2)
    calls = []
    real = Polynomial.evaluate
    monkeypatch.setattr(Polynomial, "evaluate", lambda p, x: calls.append(x) or real(p, x))
    word = monomial_word(code, 5)
    assert deg_k1_reduction(word) == 5 and calls == []
    want = tuple(real(word.interp, x) for x in code.points)
    assert word.values == want and calls == list(code.points)
    assert word.values is word.values and len(calls) == code.length


def test_full_length_monomial_word_is_reinterpolated(dickson_code_f7, f7):
    # k + 1 = |D|: x^4 - b1*x^3 takes the values of a degree-<4 polynomial
    # on D, so its interpolant is not of degree k+1
    code = RSCodeSpec(f7, dickson_code_f7.points, 3)
    word = monomial_word(code, 2)
    assert word.interp == lagrange_interpolate(f7, zip(code.points, word.values))
    assert word.interp.degree < code.k + 1
    with pytest.raises(ValueError):
        deg_k1_reduction(word)


def test_b1_requires_degree_k_plus_1(dickson_code_f7, f7):
    word = encode(dickson_code_f7, Polynomial(f7, [1]))
    with pytest.raises(ValueError):
        deg_k1_reduction(word)


# --- subset sums ----------------------------------------------------------------


def test_subset_sum_examples(f7):
    D = (0, 2, 5, 6)
    assert subset_sum_count(f7, D, 2, 0) == 1  # only {2, 5}
    assert subset_sum_count(f7, D, 2, 3) == 0
    assert subset_sum_find(f7, D, 2, 0) == (2, 5)
    assert subset_sum_find(f7, D, 2, 3) is None


def test_subset_sum_total(f7):
    D = (0, 2, 5, 6)
    for r in (1, 2, 3, 4):
        assert sum(subset_sum_count(f7, D, r, t) for t in range(7)) == comb(4, r)


def test_subset_sum_matches_enumeration(grid_fields):
    for q in (7, 8, 9, 25, 27):
        F = grid_fields[q]
        D = tuple(range(0, q, 2))
        for r in (2, 3):
            table = SubsetSumTable(F, reversed(D), r)  # input order is irrelevant
            for target in F.elements():
                # combinations() of a sorted tuple come in lexicographic order
                hits = [sub for sub in combinations(D, r) if _field_sum(F, sub) == target]
                assert table.count(target) == len(hits)
                assert table.find(target) == (hits[0] if hits else None)
                assert subset_sum_count(F, D, r, target) == len(hits)
                assert subset_sum_find(F, D, r, target) == table.find(target)


def _field_sum(F, elems):
    acc = 0
    for e in elems:
        acc = F.add(acc, e)
    return acc


def test_subset_sum_budget(f7):
    with pytest.raises(ValueError):
        subset_sum_count(f7, (0, 2, 5, 6), 2, 0, budget=10)


def test_subset_sum_rejects_more_elements_than_the_set_has():
    # the CLI checks k + 2 <= |D| first, so only the API reaches this rule
    with pytest.raises(ValueError, match=r"^r = 5 exceeds \|D\| = 4$"):
        subset_sum_count(FiniteField(7), (0, 2, 5, 6), 5, 0)


def test_code_table_built_once_and_guarded(dickson_code_f7):
    code = dickson_code_f7
    table = code.subset_sums
    for b1 in code.field.elements():
        deg_k1_deep_hole_test(monomial_word(code, b1))
        count_Nu(code, b1)
    assert code.subset_sums is table
    assert table.r == code.k + 1
    # the budget is checked on every call, also once the table exists
    with pytest.raises(ValueError):
        count_Nu(code, 0, budget=10)
    with pytest.raises(ValueError):
        deg_k1_deep_hole_test(monomial_word(code, 0), budget=10)


# --- deep-hole test --------------------------------------------------------------


def test_deep_hole_found(dickson_code_f7):
    # b1 = 3: no pair of {0,2,5,6} sums to 3 mod 7
    res = deg_k1_deep_hole_test(monomial_word(dickson_code_f7, 3))
    assert res.is_deep_hole
    rep = error_distance_bf(monomial_word(dickson_code_f7, 3))
    assert rep.distance == 4 - 1  # cross-check: distance equals |D| - k


def test_not_deep_hole_with_witness(dickson_code_f7, f7):
    # b1 = 0: witness {2, 5}, (x-2)(x-5) = x^2 + 3, so v = -3 = 4
    res = deg_k1_deep_hole_test(monomial_word(dickson_code_f7, 0))
    assert not res.is_deep_hole
    assert res.subset == (2, 5)
    assert res.codeword == Polynomial(f7, [4])


def test_split_product_word_not_deep_hole(dickson_code_f7, f7):
    # u = (x - 0)(x - 2) splits over D by construction
    prod = Polynomial(f7, [0, 1]) * Polynomial(f7, [f7.neg(2), 1])
    word = ReceivedWord(dickson_code_f7, [prod.evaluate(x) for x in dickson_code_f7.points])
    assert not deg_k1_deep_hole_test(word).is_deep_hole


def test_witness_codeword_distance(dickson_code_f7):
    # every witness produces a codeword at distance exactly |D| - k - 1
    code = dickson_code_f7
    size = len(code.points)
    for b1 in range(7):
        word = monomial_word(code, b1)
        res = deg_k1_deep_hole_test(word)
        dist = error_distance_bf(word).distance
        if res.is_deep_hole:
            assert dist == size - code.k
            continue
        assert res.codeword.degree <= code.k - 1
        cw = encode(code, res.codeword)
        # the word's interpolant is already monic here, so compare directly
        hamming = sum(1 for u, v in zip(word.values, cw.values) if u != v)
        assert hamming == size - code.k - 1
        assert dist == size - code.k - 1


# --- N_u counting ------------------------------------------------------------------


def test_count_Nu_examples(dickson_code_f7):
    assert count_Nu(dickson_code_f7, 0) == 2  # {2, 5} ordered both ways
    assert count_Nu(dickson_code_f7, 3) == 0


def test_count_Nu_total_is_falling_factorial(grid_fields):
    for q, n, a in [(7, 2, 1), (7, 3, 1), (8, 3, 1)]:
        F = grid_fields[q]
        D = value_set(DicksonSpec(F, n, a))
        for k in (1, 2):
            code = RSCodeSpec.from_evaluation_set(D, k)
            total = sum(count_Nu(code, b1) for b1 in F.elements())
            fall = 1
            for j in range(k + 1):
                fall *= D.size - j
            assert total == fall
