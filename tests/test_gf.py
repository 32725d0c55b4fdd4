"""Field arithmetic against an independent coefficient-list oracle."""

import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dicksonrs.gf as gf
from dicksonrs import FiniteField, TwoAdicData, parse_field_spec, two_adic


# --- naive reference arithmetic: plain coefficient lists, no bit tricks,
# no tables.  Deliberately different code from the library.


def _dec(x, p, m):
    out = []
    for _ in range(m):
        out.append(x % p)
        x //= p
    return out


def _enc(c, p):
    v = 0
    for d in reversed(c):
        v = v * p + d
    return v


def naive_add(F, x, y):
    cx, cy = _dec(x, F.p, F.m), _dec(y, F.p, F.m)
    return _enc([(a + b) % F.p for a, b in zip(cx, cy)], F.p)


def naive_neg(F, x):
    return _enc([(-c) % F.p for c in _dec(x, F.p, F.m)], F.p)


def naive_mul(F, x, y):
    p, m = F.p, F.m
    cx, cy = _dec(x, p, m), _dec(y, p, m)
    prod = [0] * (2 * m - 1)
    for i, a in enumerate(cx):
        for j, b in enumerate(cy):
            prod[i + j] = (prod[i + j] + a * b) % p
    # long division by the monic modulus
    mod = list(F.modulus)
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j in range(m + 1):
                prod[i - m + j] = (prod[i - m + j] - c * mod[j]) % p
    return _enc(prod[:m], p)


def naive_trace(F, x):
    """x + x^p + ... + x^(p^(m-1)), each p-th power by p-1 naive products."""
    acc, y = x, x
    for _ in range(F.m - 1):
        z = y
        for _ in range(F.p - 1):
            z = naive_mul(F, z, y)
        y = z
        acc = naive_add(F, acc, y)
    return acc


# --- construction -----------------------------------------------------------


def test_prime_field_convention():
    F = FiniteField(7, 1)
    assert (F.p, F.m, F.q) == (7, 1, 7)
    assert F.modulus == (0, 1)  # x - 0 convention


def test_gf4_explicit_modulus():
    F = FiniteField(2, 2, [1, 1, 1])
    assert F.q == 4
    assert F.modulus == (1, 1, 1)


def test_default_moduli_are_smallest():
    # non-leading parts read low-to-high as base-p digits
    assert FiniteField(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1
    assert FiniteField(2, 4).modulus == (1, 1, 0, 0, 1)  # t^4 + t + 1
    assert FiniteField(3, 2).modulus == (1, 0, 1)  # t^2 + 1


def test_q_2_16():
    F = FiniteField(2, 16)
    assert F.q == 65536


# the default modulus (the smallest monic irreducible of degree m) of each
# field, as its nonzero non-leading coefficients {i: c_i}
_DEFAULT_MODULI = {
    (2, 2): {0: 1, 1: 1},
    (2, 8): {0: 1, 1: 1, 3: 1, 4: 1},
    (2, 16): {0: 1, 1: 1, 3: 1, 5: 1},
    (2, 20): {0: 1, 3: 1},
    (2, 32): {0: 1, 2: 1, 3: 1, 7: 1},
    (3, 5): {0: 1, 1: 2},
    (3, 10): {0: 1, 2: 2},
    (3, 11): {0: 2, 2: 1},
    (3, 20): {0: 1, 1: 2, 3: 1},
    (5, 6): {0: 2, 1: 1},
    (5, 13): {0: 2, 1: 3, 2: 1},
    (7, 5): {0: 3, 1: 1},
    (13, 2): {0: 2},
}


@pytest.mark.parametrize("p, m", list(_DEFAULT_MODULI))
def test_default_moduli_are_pinned(p, m):
    want = [_DEFAULT_MODULI[p, m].get(i, 0) for i in range(m)] + [1]
    assert FiniteField(p, m).modulus == tuple(want)


def _has_monic_factor(f, p):
    """Trial division of monic f by every monic g of degree 1..deg(f)/2."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for key in range(p**d):
            g, r = _dec(key, p, d) + [1], list(f)
            for i in range(m, d - 1, -1):
                c = r[i]
                if c:
                    for j in range(d + 1):
                        r[i - d + j] = (r[i - d + j] - c * g[j]) % p
            if not any(r[:d]):
                return True
    return False


@pytest.mark.parametrize("p, top", [(2, 10), (3, 6), (5, 4), (7, 3)])
def test_is_irreducible_matches_trial_division(p, top):
    # every monic f of degree m with p^m <= p^top
    for m in range(1, top + 1):
        for key in range(p**m):
            f = _dec(key, p, m) + [1]
            assert gf._is_irreducible(f, p) != _has_monic_factor(f, p), f


def test_field_create_deterministic():
    assert FiniteField(2, 8).modulus == FiniteField(2, 8).modulus
    assert FiniteField(3, 3) == FiniteField(3, 3)


def test_only_a_given_modulus_is_tested_for_irreducibility(monkeypatch):
    # the default modulus comes out of the irreducibility search itself
    calls, original = [], gf._is_irreducible

    def counted(f, p):
        calls.append(f)
        return original(f, p)

    FiniteField(2, 16)  # the search, cached from here on
    monkeypatch.setattr(gf, "_is_irreducible", counted)
    assert FiniteField(2, 16).modulus == gf._default_modulus(2, 16)
    assert calls == []
    assert FiniteField(2, 16, gf._default_modulus(2, 16)) == FiniteField(2, 16)
    assert len(calls) == 1
    with pytest.raises(ValueError, match="reducible"):
        FiniteField(2, 2, [0, 0, 1])  # t^2
    assert calls[-1] == [0, 0, 1]


def test_bad_field_parameters():
    with pytest.raises(ValueError):
        FiniteField(6, 1)  # composite p
    with pytest.raises(ValueError):
        FiniteField(2, 2, [0, 0, 1])  # t^2, reducible
    with pytest.raises(ValueError):
        FiniteField(2, 2, [1, 1])  # wrong degree
    with pytest.raises(ValueError):
        FiniteField(2, 33)  # q over the 2^32 cap
    with pytest.raises(ValueError, match="m = 0"):
        FiniteField(3, 0)


def test_field_spec_roundtrip():
    for spec in ["7", "2^4", "2^2/1,1,1", "3^2", "7/3,1"]:
        F = parse_field_spec(spec)
        assert parse_field_spec(F.spec_string()) == F


# --- arithmetic -------------------------------------------------------------


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_tables_match_naive_construction(q, grid_fields):
    F = grid_fields[q]
    naive_inv = {x: y for x in F.units() for y in F.units() if naive_mul(F, x, y) == 1}
    for x in F.elements():
        assert F.neg(x) == naive_neg(F, x)
        if x:
            assert F.inv(x) == naive_inv[x]
        for y in F.elements():
            assert F.add(x, y) == naive_add(F, x, y)
            assert F.sub(x, y) == naive_add(F, x, naive_neg(F, y))
            assert F.mul(x, y) == naive_mul(F, x, y)


@pytest.mark.parametrize("p, m", [(2, 17), (3, 11)])
def test_ops_and_trace_above_table_cap_match_naive(p, m):
    # direct paths: digit-loop add (odd p), bit-loop or polynomial mul, and
    # the trace summed from the digits, on 20 random elements
    F = FiniteField(p, m)
    rng = random.Random(p * m)
    for _ in range(20):
        x, y = rng.randrange(F.q), rng.randrange(1, F.q)
        assert F.add(x, y) == naive_add(F, x, y)
        assert F.neg(x) == naive_neg(F, x)
        assert F.sub(x, y) == naive_add(F, x, naive_neg(F, y))
        assert F.mul(x, y) == naive_mul(F, x, y)
        assert naive_mul(F, y, F.inv(y)) == 1
        assert F.trace(x) == naive_trace(F, x)
    assert "_tables" not in vars(F) and "_trace_tab" not in vars(F)


def test_gf4_mul_example(grid_fields):
    # t * (t + 1) = t^2 + t = 1 mod t^2 + t + 1; enc(t) = 2, enc(t+1) = 3
    assert grid_fields[4].mul(2, 3) == 1


def test_f7_inverse(grid_fields):
    assert grid_fields[7].inv(3) == 5


def test_inverse_and_division(grid_fields):
    for q in [5, 8, 9, 49]:
        F = grid_fields[q]
        for x in F.units():
            assert F.mul(x, F.inv(x)) == 1
            assert F.div(x, x) == 1
    with pytest.raises(ZeroDivisionError):
        grid_fields[7].inv(0)


def test_pow_frobenius_fixed(grid_fields):
    for F in grid_fields.values():
        for x in F.elements():
            assert F.pow(x, F.q) == x


def test_pow_edge_cases(grid_fields):
    F = grid_fields[9]
    assert F.pow(0, 0) == 1
    assert F.pow(0, 5) == 0
    assert F.pow(5, 0) == 1
    # exponent reduction mod q-1 for nonzero base
    assert F.pow(5, F.q - 1 + 3) == F.pow(5, 3)
    with pytest.raises(ZeroDivisionError):
        F.pow(0, -1)


def test_out_of_range_elements_rejected(grid_fields):
    F = grid_fields[7]
    with pytest.raises(ValueError):
        F.mul(7, 1)
    with pytest.raises(ValueError):
        F.add(-1, 1)


def test_encode_rejects_more_than_m_coefficients():
    F = FiniteField(2, 2)
    assert F.encode([1, 1]) == 3
    with pytest.raises(ValueError):
        F.encode([0, 0, 1])  # t^2 would encode as 4, outside GF(4)
    with pytest.raises(ValueError):
        F.encode([0, 0, 0, 1])


def test_encode_decode_bijection(grid_fields):
    for F in grid_fields.values():
        seen = set()
        for x in F.elements():
            coeffs = F.decode(x)
            assert len(coeffs) == F.m and all(0 <= c < F.p for c in coeffs)
            assert F.encode(coeffs) == x
            seen.add(coeffs)
        assert len(seen) == F.q


# --- trace ------------------------------------------------------------------


def test_trace_prime_field_identity(grid_fields):
    F = grid_fields[11]
    assert all(F.trace(x) == x for x in F.elements())


def test_trace_gf4_values(grid_fields):
    # Tr(x) = x + x^2 over GF(4): Tr(t) = t + t + 1 = 1, Tr(1) = 0
    F = grid_fields[4]
    assert F.trace(2) == 1
    assert F.trace(1) == 0
    assert F.trace(0) == 0


def test_trace_additive(grid_fields):
    for q in [4, 8, 9, 16, 25, 27, 32, 49, 64]:
        F = grid_fields[q]
        for x in F.elements():
            assert F.trace(F.pow(x, F.p)) == F.trace(x)
            for y in F.elements():
                assert F.trace(F.add(x, y)) == (F.trace(x) + F.trace(y)) % F.p


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("p, m", [(2, 5), (3, 3), (5, 2)])
def test_trace_matches_definition(p, m, capped, monkeypatch):
    if capped:  # every field is now above the cap: trace from the digits
        monkeypatch.setattr(gf, "_TABLE_Q_CAP", 1)
    F = FiniteField(p, m)
    assert [F.trace(x) for x in F.elements()] == [naive_trace(F, x) for x in F.elements()]
    assert ("_trace_tab" in vars(F)) != capped
    # the trace form of every c is the trace read at c*x
    for c in F.elements():
        assert F.trace_form(c) == [naive_trace(F, naive_mul(F, c, x)) for x in F.elements()]


# --- quadratic character ----------------------------------------------------


def test_quad_char_f7_exhaustive(grid_fields):
    F = grid_fields[7]
    squares = {F.mul(x, x) for x in F.units()}
    assert squares == {1, 2, 4}
    assert F.quad_char(0) == 0
    assert F.quad_char(2) == 1
    assert F.quad_char(3) == -1
    for x in F.units():
        assert F.quad_char(x) == (1 if x in squares else -1)


def test_quad_char_multiplicative(grid_fields):
    for q in [5, 7, 9, 11, 13, 25, 27, 49]:
        F = grid_fields[q]
        assert sum(1 for x in F.units() if F.quad_char(x) == 1) == (q - 1) // 2
        for x in F.units():
            for y in F.units():
                assert F.quad_char(F.mul(x, y)) == F.quad_char(x) * F.quad_char(y)


def test_quad_char_above_table_cap_builds_no_table():
    # GF(3^11) is past the exp/log table cap; Euler's criterion needs no table
    F = FiniteField(3, 11)
    xs = random.Random(11).sample(range(1, F.q), 20)
    for x in xs:
        assert F.quad_char(F.mul(x, x)) == 1
    for x, y in zip(xs, xs[1:]):
        assert F.quad_char(F.mul(x, y)) == F.quad_char(x) * F.quad_char(y)
    assert "_tables" not in vars(F)


def test_elements_obeys_the_enumeration_budget():
    # whole-field passes start from elements(); units() and the primitive
    # element read no element table, so they stay open past the budget
    F = FiniteField(2, 21)
    with pytest.raises(ValueError, match="enumeration budget 1048576"):
        F.elements()
    assert F.units() == range(1, F.q)
    g = F.primitive_element()
    assert all(F.pow(g, (F.q - 1) // ell) != 1 for ell in (7, 127, 337))  # q-1 = 7^2*127*337
    assert FiniteField(2, 20).elements() == range(1 << 20)


@pytest.mark.parametrize("p, m", [(3, 5), (5, 3), (7, 2)])
def test_quad_char_euler_matches_log_parity(p, m, monkeypatch):
    tabled = FiniteField(p, m)
    want = [tabled.quad_char(x) for x in tabled.units()]
    assert "_tables" in vars(tabled)
    monkeypatch.setattr(gf, "_TABLE_Q_CAP", 1)  # every field is now above the cap
    euler = FiniteField(p, m)
    assert [euler.quad_char(x) for x in euler.units()] == want
    assert "_tables" not in vars(euler)


def test_quad_char_rejects_even_q(grid_fields):
    with pytest.raises(ValueError):
        grid_fields[8].quad_char(3)


# --- splitting criterion in characteristic 2 --------------------------------


@pytest.mark.parametrize("q", [4, 8, 16])
def test_even_q_quadratic_splitting_iff_trace(q, grid_fields):
    # z^2 + x0 z + a has a root in F_q iff Tr(a / x0^2) = 0, for x0 != 0
    F = grid_fields[q]
    for x0 in F.units():
        for a in F.elements():
            has_root = any(
                F.add(F.add(F.mul(z, z), F.mul(x0, z)), a) == 0 for z in F.elements()
            )
            criterion = F.trace(F.mul(a, F.inv(F.mul(x0, x0)))) == 0
            assert has_root == criterion


# --- two-adic valuations ----------------------------------------------------


def test_two_adic_examples():
    assert two_adic(7, 8) == TwoAdicData(r=4, t=3)
    assert two_adic(7, 1).r == 4  # 7^2 - 1 = 48 = 16 * 3
    assert two_adic(9, 1).r == 4  # 80 = 16 * 5
    assert two_adic(5, 8).t == 3
    assert two_adic(5, 7).t == 0
    assert two_adic(8, 6).r == 0  # even q: q^2 - 1 odd
    assert two_adic(7, 0).t == 0
    assert two_adic(7, -4).t == 0  # n <= 0 has no valuation: t = 0


def test_two_adic_divides_exactly():
    for q in [5, 7, 9, 11, 13, 25, 27, 49]:
        r = two_adic(q, 1).r
        assert (q * q - 1) % (1 << r) == 0
        assert (q * q - 1) % (1 << (r + 1)) != 0
    for n in range(1, 40):
        t = two_adic(7, n).t
        assert n % (1 << t) == 0 and (n // (1 << t)) % 2 == 1


# --- unchecked kernels ------------------------------------------------------

# GF(2^20), GF(3^11) and GF(5^7) are above the table cap, so their kernels
# take the direct paths
_KERNEL_FIELDS = {
    pm: FiniteField(*pm) for pm in [(13, 1), (2, 8), (3, 5), (7, 2), (2, 20), (3, 11), (5, 7)]
}


@pytest.mark.parametrize("pm", list(_KERNEL_FIELDS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernels_match_checked_ops(pm, data):
    F = _KERNEL_FIELDS[pm]
    add, mul = F.kernels()
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.sampled_from([0, 1, x, F.neg(x)]) | st.integers(0, F.q - 1))
    # the naive ops are the oracle; the checked ops call the same kernels
    assert add(x, y) == naive_add(F, x, y) == F.add(x, y)
    assert mul(x, y) == naive_mul(F, x, y) == F.mul(x, y)


def _power_tables(F):
    """exp and log from the smallest primitive encoding g, one naive product
    per step: g is the first c >= 2 whose powers reach 1 only after q-1 steps."""
    for g in range(2, F.q):
        exp, acc = [], 1
        while not exp or acc != 1:
            exp.append(acc)
            acc = naive_mul(F, acc, g)
        if len(exp) == F.q - 1:
            log = [0] * F.q
            for i, e in enumerate(exp):
                log[e] = i
            return exp, log


# odd m splits the digits unevenly; 13 and 127 need wide slots
@pytest.mark.parametrize(
    "spec", ["2^5", "2^8", "3^2", "3^3", "5^2", "7^2", "3^5", "5^3", "13^2", "127^2", "3^2/2,2,1",
             "7", "13"]
)
def test_tables_match_power_iteration(spec):
    F = parse_field_spec(spec)
    exp, log = _power_tables(F)
    add, mul = F.kernels()
    assert F._tables == (exp * 2, log)
    assert parse_field_spec(spec)._build_tables() == F._tables  # a fresh field builds them too
    # every Zech logarithm is read by one add(1, y)
    assert [add(1, y) for y in exp] == [naive_add(F, 1, y) for y in exp]
    rng = random.Random(F.q)
    for _ in range(200):
        x, y = rng.randrange(F.q), rng.randrange(F.q)
        assert add(x, y) == naive_add(F, x, y)
        assert mul(x, y) == naive_mul(F, x, y)


@pytest.mark.parametrize("spec", ["7", "2^5", "3^3", "2^17", "3^11"])
def test_derived_values_are_cached_properties_built_on_first_read(spec):
    F = parse_field_spec(spec)
    derived = ("_mul_direct", "_tables", "_kernels", "_trace_basis", "_trace_tab", "_primitive")
    assert all(isinstance(vars(FiniteField)[name], functools.cached_property)
               for name in derived)
    assert set(vars(F)) == {"p", "m", "q", "modulus", "_ppow"}
    F.add(1, 1), F.trace(1), F.primitive_element()
    assert F.kernels() is vars(F)["_kernels"]
    assert F.primitive_element() is vars(F)["_primitive"]
    under_cap = F.q <= gf._TABLE_Q_CAP
    assert ("_tables" in vars(F)) == (under_cap and F.m > 1)
    assert ("_trace_tab" in vars(F)) == under_cap
    # a whole-field pass reads the unit logs, the field's own tables at every q
    exp, log = F.unit_logs()
    assert (exp[1], exp[F.q - 1], log[exp[F.q // 3]]) == (F.primitive_element(), 1, F.q // 3)
    assert "_tables" in vars(F)


def test_unit_logs_above_the_table_cap_are_walked_once():
    F = FiniteField(2, 17)
    exp, log = F.unit_logs()
    again = F.unit_logs()
    assert again[0] is exp and again[1] is log


@pytest.mark.parametrize("q", [27, 25, 49])
def test_zech_add_exhaustive(q, grid_fields):
    F = grid_fields[q]
    add, _ = F.kernels()
    for x in F.elements():
        for y in F.elements():
            assert add(x, y) == naive_add(F, x, y)


def _order(F, g):
    """Multiplicative order of g: the least divisor d of q-1 with g^d = 1,
    each power by naive square-and-multiply."""
    for d in range(1, F.q):
        if (F.q - 1) % d == 0:
            acc, base, e = 1, g, d
            while e:
                if e & 1:
                    acc = naive_mul(F, acc, base)
                base, e = naive_mul(F, base, base), e >> 1
            if acc == 1:
                return d


# prime fields, extensions under the table cap, and 2^17 above it (2^17 - 1
# is prime, so every unit but 1 has full order there)
@pytest.mark.parametrize("spec", ["2", "3", "7", "13", "2^3", "2^5", "3^3", "5^2", "7^2", "2^17"])
def test_primitive_element_has_order_q_minus_1(spec):
    F = parse_field_spec(spec)
    assert "_primitive" not in vars(F)  # found on first use, not by the constructor
    g = F.primitive_element()
    assert _order(F, g) == F.q - 1
    if F.q <= 1 << 8:
        # the smallest encoding of full order
        assert all(_order(F, c) < F.q - 1 for c in range(1, g))
    if 1 < F.m and F.q <= gf._TABLE_Q_CAP:
        F.kernels()
        assert F._tables[0][1] == g  # the exp/log tables are built over it
