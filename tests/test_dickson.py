"""Dickson evaluation and the exact counting formulas.

The three-term recurrence (kept here as the oracle), the integer
closed-form coefficients, and the functional equation
D_n(y + a/y, a) = y^n + (a/y)^n are three independent routes to the same
values as the library's Horner evaluation on the closed form reduced mod p;
the counting formulas are then checked against full enumeration.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

import dicksonrs.dickson as dickson
import dicksonrs.gf as gf
from dicksonrs import (
    DicksonSpec,
    FiniteField,
    Polynomial,
    dickson_eval,
    parse_field_spec,
    preimage_count,
    preimage_counts,
    value_counts,
    value_set,
    value_set_size,
    value_set_size_formula,
)
from dicksonrs.dickson import values_vector


def test_spec_validation():
    F = FiniteField(7)
    with pytest.raises(ValueError):
        DicksonSpec(F, 0, 1)
    with pytest.raises(ValueError):
        DicksonSpec(F, 2, 9)  # a outside the field


# --- oracles ----------------------------------------------------------------


def recurrence(F: FiniteField, n: int, a: int, x: int) -> int:
    """D_n(x, a) by D_0 = 2, D_1 = x, D_j = x*D_{j-1} - a*D_{j-2}: O(n)
    field operations, and no binomial coefficient."""
    add, mul = F.kernels()
    prev, cur, neg_a = F.from_int(2), x, F.neg(a)
    for _ in range(n - 1):
        prev, cur = cur, add(mul(x, cur), mul(neg_a, prev))
    return cur


# --- closed-form coefficients ----------------------------------------------
# The integer closed form, reduced mod p only at the end, and the recurrence
# are each other's check.


def dickson_coeffs(n: int) -> list[int]:
    """Integer closed-form coefficients, before reduction mod p.

    Entry i multiplies a^i * x^(n-2i):  n/(n-i) * C(n-i, i) * (-1)^i.
    The quotient is always integral; we assert rather than trust.
    """
    out = []
    for i in range(n // 2 + 1):
        num = n * comb(n - i, i)
        assert num % (n - i) == 0
        out.append((num // (n - i)) * (-1) ** i)
    return out


def dickson_poly(spec: DicksonSpec) -> Polynomial:
    """D_n(x, a) materialised as a polynomial in x, via the closed form."""
    F, n, a = spec.field, spec.n, spec.a
    coeffs = [0] * (n + 1)
    for i, c in enumerate(dickson_coeffs(n)):
        coeffs[n - 2 * i] = F.mul(F.from_int(c), F.pow(a, i))
    return Polynomial(F, coeffs)


def test_dickson_coeffs_small():
    assert dickson_coeffs(1) == [1]  # x
    assert dickson_coeffs(2) == [1, -2]  # x^2 - 2a
    assert dickson_coeffs(3) == [1, -3]  # x^3 - 3ax
    assert dickson_coeffs(4) == [1, -4, 2]  # x^4 - 4ax^2 + 2a^2


def test_dickson_coeffs_match_integer_recurrence():
    # symbolic recurrence over Z[a]: represent D_j as {i: coeff of a^i x^(j-2i)}
    prev, cur = {0: 2}, {0: 1}
    for n in range(2, 17):
        nxt = dict(cur)  # x * D_{j-1} keeps each a-power, raises x-power
        for i, c in prev.items():
            nxt[i + 1] = nxt.get(i + 1, 0) - c
        prev, cur = cur, nxt
        got = dickson_coeffs(n)
        assert got == [cur[i] for i in range(n // 2 + 1)]


# --- evaluation -------------------------------------------------------------


def test_degree_one_is_identity():
    F = FiniteField(3, 2)
    spec = DicksonSpec(F, 1, 4)
    assert all(dickson_eval(spec, x) == x for x in F.elements())


def test_a_zero_gives_monomial():
    for F in [FiniteField(7), FiniteField(2, 3), FiniteField(3, 2)]:
        for n in range(1, 8):
            spec = DicksonSpec(F, n, 0)
            assert all(dickson_eval(spec, x) == F.pow(x, n) for x in F.elements())


def test_degree_three_closed_form():
    # D_3(x, a) = x^3 - 3ax (= x^3 + ax in characteristic 2)
    for F in [FiniteField(7), FiniteField(2, 4)]:
        for a in F.units():
            spec = DicksonSpec(F, 3, a)
            for x in F.elements():
                want = F.sub(F.pow(x, 3), F.mul(F.mul(F.from_int(3), a), x))
                assert dickson_eval(spec, x) == want


def test_recurrence_matches_closed_form(grid_fields):
    # two genuinely different code paths: O(n) recurrence vs integer binomial
    # sums, exhaustive over the whole grid, n <= 16, all a, all x
    for F in grid_fields.values():
        for n in range(1, 17):
            for a in F.elements():
                poly = dickson_poly(DicksonSpec(F, n, a))
                for x in F.elements():
                    assert recurrence(F, n, a, x) == poly.evaluate(x)


def test_evaluator_matches_recurrence_on_the_grid(grid_fields):
    # the whole-field pass, and one-point calls, on every x, a = 0 included
    for F in grid_fields.values():
        for n in range(1, 13):
            for a in F.elements():
                spec = DicksonSpec(F, n, a)
                want = tuple(recurrence(F, n, a, x) for x in F.elements())
                assert values_vector(spec) == want
                x = (n * F.q // 13 + a) % F.q
                assert dickson_eval(spec, x) == want[x]


@pytest.mark.parametrize("field", ["2^17", "3^11"])
def test_evaluator_matches_recurrence_above_the_table_cap(field):
    # sampled points on the direct-product kernels, one-point and batched
    F, rng = parse_field_spec(field), random.Random(field)
    xs = [0, 1, F.q - 1] + rng.sample(range(F.q), 5)
    for n in (2, 3, 4, 7, 12, 64):
        for a in (0, 1, rng.randrange(2, F.q)):
            spec = DicksonSpec(F, n, a)
            want = [recurrence(F, n, a, x) for x in xs]
            assert [dickson_eval(spec, x) for x in xs] == want
            if a:
                assert [rep.value for rep in preimage_counts(spec, xs)] == want


@pytest.mark.parametrize("p", [7, 65537])
def test_evaluator_matches_recurrence_at_large_degree(p):
    # n = 100000 has several base-p digits for p = 7, where Lucas' theorem
    # zeroes many coefficients, and two for p = 65537
    F = FiniteField(p)
    for a, x in [(0, 3), (1, 0), (3, 1), (p - 1, 2), (5, p - 1)]:
        assert dickson_eval(DicksonSpec(F, 100000, a), x) == recurrence(F, 100000, a, x)


@pytest.mark.parametrize("n", [127, 128, 255, 256])
def test_evaluators_skip_coefficients_that_vanish_mod_p(n, monkeypatch):
    # in characteristic 2 D_255 has 7 nonzero coefficients below its leading
    # one out of 127, and D_256 = x^256 none.  Both evaluators match the
    # recurrence, and their kernel calls grow with the nonzero coefficients
    # s: at most n per coefficient setup, s + 1 adds per point for the
    # whole-field pass and 2s + 3 calls per point one point at a time
    F = parse_field_spec("2^8")
    s = sum(1 for c in dickson_coeffs(n)[1:] if c % 2)
    calls = Counter()
    add, mul = F.kernels()

    def counted(kernel, name):
        def call(x, y):
            calls[name] += 1
            return kernel(x, y)
        return call

    kernels = counted(add, "add"), counted(mul, "mul")
    for a in (0, 1, 2, 0x53):
        want = tuple(recurrence(F, n, a, x) for x in F.elements())
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(FiniteField, "kernels", lambda self: kernels)
            values_vector.cache_clear()
            assert values_vector(DicksonSpec(F, n, a)) == want
            assert tuple(dickson._evaluate(F, n, a, F.elements())) == want
        assert sum(calls.values()) <= 2 * n + F.q * (s + 1) + F.q * (2 * s + 3), (a, calls)
    values_vector.cache_clear()


def test_functional_equation_over_quadratic_extension():
    # D_n(y + a/y, a) = y^n + (a/y)^n over F_{q^2}, an oracle that never
    # touches the recurrence's coefficients; quadratic extensions of all
    # base fields with q <= 16
    for K in [FiniteField(2, 2), FiniteField(3, 2), FiniteField(2, 4),
              FiniteField(5, 2), FiniteField(7, 2), FiniteField(2, 6),
              FiniteField(3, 4), FiniteField(11, 2), FiniteField(13, 2),
              FiniteField(2, 8)]:
        stride = 5 if K.q > 100 else 1
        for a in range(1, K.q, stride):
            for y in range(1, K.q, stride):
                ay = K.mul(a, K.inv(y))
                x = K.add(y, ay)
                for n in (2, 3, 5, 8):
                    want = K.add(K.pow(y, n), K.pow(ay, n))
                    assert dickson_eval(DicksonSpec(K, n, a), x) == want


def test_frobenius_degeneration(grid_fields):
    # D_p(x, a) == x^p as a function in characteristic p
    for q in [4, 5, 7, 9, 27]:
        F = grid_fields[q]
        for a in F.units():
            spec = DicksonSpec(F, F.p, a)
            assert all(dickson_eval(spec, x) == F.pow(x, F.p) for x in F.elements())


# --- value sets -------------------------------------------------------------


def test_value_set_examples(grid_fields):
    assert value_set(DicksonSpec(grid_fields[7], 2, 1)).elems == (0, 2, 5, 6)
    assert value_set(DicksonSpec(grid_fields[7], 8, 3)).elems == (1, 3, 6)
    assert value_set(DicksonSpec(grid_fields[8], 3, 1)).elems == (0, 1, 3, 5, 7)


def test_value_set_monomial_bijection(grid_fields):
    # a = 0 with gcd(n, q-1) = 1: the map is x -> x^n, a bijection
    F = grid_fields[8]
    assert value_set(DicksonSpec(F, 3, 0)).elems == tuple(F.elements())


def test_value_set_budget():
    with pytest.raises(ValueError, match="enumeration budget"):
        value_set(DicksonSpec(FiniteField(2, 21), 2, 1))


def test_formula_examples(grid_fields):
    rep = value_set_size_formula(DicksonSpec(grid_fields[7], 2, 1))
    assert rep.size == 4
    assert rep.delta == Fraction(1, 2)
    assert rep.terms == (Fraction(3, 2), Fraction(2))

    rep = value_set_size_formula(DicksonSpec(grid_fields[7], 8, 3))
    assert rep.size == 3
    assert rep.delta == 1
    assert rep.terms == (Fraction(3, 2), Fraction(1, 2))


def test_formula_2_16(f2_16):
    # 65535/6 + 65537/2 + 0 = 43691
    rep = value_set_size_formula(DicksonSpec(f2_16, 3, 1))
    assert rep.size == 43691
    assert rep.delta == 0
    assert rep.terms == (Fraction(65535, 6), Fraction(65537, 2))


def test_formula_rejects_out_of_domain(grid_fields):
    for size in (value_set_size, value_set_size_formula):
        with pytest.raises(ValueError):
            size(DicksonSpec(grid_fields[7], 2, 0))
        with pytest.raises(ValueError):
            size(DicksonSpec(grid_fields[7], 1, 1))


def test_odd_doubled_sum_is_an_arithmetic_error(monkeypatch, grid_fields):
    # the theorem makes T1 + T2 + 2*delta even; with gcd forced to 1, q = 7,
    # n = 2 sums to 6 + 8 + 1 = 15, which both sizes report, not round
    monkeypatch.setattr(dickson, "gcd", lambda x, y: 1)
    for size in (value_set_size, value_set_size_formula):
        with pytest.raises(ArithmeticError, match="value-set size 15/2 is not an integer"):
            size(DicksonSpec(grid_fields[7], 2, 1))


def test_formula_matches_enumeration_subgrid(grid_fields):
    # unit-level subgrid; the full grid is acceptance criterion 1
    for q in [4, 5, 7, 8, 9]:
        F = grid_fields[q]
        for n in range(2, 13):
            for a in F.units():
                spec = DicksonSpec(F, n, a)
                assert value_set_size(spec) == value_set_size_formula(spec).size
                assert value_set_size(spec) == value_set(spec).size


# --- preimage counts --------------------------------------------------------


def test_preimage_examples(grid_fields):
    rep = preimage_count(DicksonSpec(grid_fields[7], 2, 1), 1)
    assert (rep.count, rep.case_label) == (2, "eta-plus")
    assert rep.value == 6

    rep = preimage_count(DicksonSpec(grid_fields[7], 2, 1), 0)
    assert (rep.count, rep.case_label) == (1, "C-minus")
    assert rep.value == 5  # -2

    rep = preimage_count(DicksonSpec(grid_fields[4], 3, 1), 0)
    assert (rep.count, rep.case_label) == (2, "zero-even")


# (field, n, a) cells that between them fire all eight case labels
_LABEL_CELLS = [("2^3", 3, 1), ("2^4", 3, 1), ("2^5", 3, 1), ("5^3", 4, 3), ("3^4", 8, 2),
                ("13", 6, 5)]


def test_preimage_counts_match_enumeration_and_fire_every_label():
    labels = set()
    for field, n, a in _LABEL_CELLS:
        F = parse_field_spec(field)
        spec = DicksonSpec(F, n, a)
        counts = value_counts(spec)
        reps = list(preimage_counts(spec, F.elements()))
        assert [rep.x0 for rep in reps] == list(F.elements())
        for rep in reps:
            assert rep.value == dickson_eval(spec, rep.x0)
            assert rep.count == counts[rep.value]
            assert rep == preimage_count(spec, rep.x0) == next(preimage_counts(spec, [rep.x0]))
        labels |= {rep.case_label for rep in reps}
    assert labels == {"A", "B", "zero-even", "eta-plus", "eta-minus", "C-plus", "C-minus",
                      "otherwise"}


def test_preimage_counts_check_the_domain_before_any_point():
    F = FiniteField(7)
    with pytest.raises(ValueError, match="counting formulas"):
        next(preimage_counts(DicksonSpec(F, 1, 1), [9]))
    with pytest.raises(ValueError, match="9 is not an element"):
        next(preimage_counts(DicksonSpec(F, 2, 1), [1, 9]))


def test_preimage_even_q_case_labels(grid_fields):
    F = grid_fields[8]
    labels = {preimage_count(DicksonSpec(F, 3, 1), x0).case_label for x0 in F.elements()}
    assert labels <= {"A", "B", "zero-even"}
    assert "A" in labels and "B" in labels


def test_preimage_matches_bruteforce_subgrid(grid_fields):
    for q in [4, 5, 7, 8, 9]:
        F = grid_fields[q]
        for n in range(2, 13):
            for a in F.units():
                spec = DicksonSpec(F, n, a)
                counts = value_counts(spec)
                vals = values_vector(spec)
                for x0 in F.elements():
                    assert preimage_count(spec, x0).count == counts[vals[x0]]


def test_preimage_partition_identity(grid_fields):
    # summing the formula count once per distinct value recovers q
    for F in grid_fields.values():
        for n in range(2, 13):
            for a in range(1, F.q, 5 if F.q > 16 else 1):
                spec = DicksonSpec(F, n, a)
                vals = values_vector(spec)
                representative = {}
                for x0, v in enumerate(vals):
                    representative.setdefault(v, x0)
                total = sum(
                    preimage_count(spec, x0).count for x0 in representative.values()
                )
                assert total == F.q


def _splitting_oracle(F, a, x):
    """How z^2 - x*z + a factors, by the field's own quad_char and trace."""
    if F.q % 2:
        return F.quad_char(F.sub(F.mul(x, x), F.mul(F.from_int(4), a)))
    return 0 if x == 0 else 1 - 2 * F.trace(F.mul(a, F.pow(F.inv(x), 2)))


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("field", ["2^6", "3^4", "5^3"])
def test_whole_field_rows_match_the_one_point_formulas(field, capped, monkeypatch):
    # capped: every field is above the table cap, so the rows read one walk's
    # unit logs and the one-point path multiplies directly
    if capped:
        monkeypatch.setattr(gf, "_TABLE_Q_CAP", 1)
    F = parse_field_spec(field)
    for a in F.units():
        dickson.splitting_row.cache_clear()
        assert dickson.splitting_row(F, a) == tuple(_splitting_oracle(F, a, x)
                                                    for x in F.elements())
        for n in (3, 4):
            spec = DicksonSpec(F, n, a)
            values_vector.cache_clear()
            assert values_vector(spec) == tuple(dickson_eval(spec, x) for x in F.elements())
            assert list(preimage_counts(spec, F.elements())) == [
                preimage_count(spec, x0) for x0 in F.elements()]
    assert ("_tables" in vars(F)) != capped
    dickson.splitting_row.cache_clear()
    values_vector.cache_clear()
