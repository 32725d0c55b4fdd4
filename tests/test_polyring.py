import pytest

from dicksonrs import FiniteField, Polynomial, lagrange_interpolate, parse_poly_literal


@pytest.fixture
def f7():
    return FiniteField(7)


def test_canonical_form(f7):
    assert Polynomial(f7, [1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial(f7, []).degree == -1
    assert Polynomial(f7, [0]).is_zero()


def test_eval_example(f7):
    assert Polynomial(f7, [1, 0, 1]).evaluate(0) == 1  # x^2 + 1 at 0


def test_mul_example(f7):
    # (x - 1)(x - 2) = x^2 - 3x + 2 = x^2 + 4x + 2 over F_7
    a = Polynomial(f7, [f7.neg(1), 1])
    b = Polynomial(f7, [f7.neg(2), 1])
    assert (a * b).coeffs == (2, 4, 1)


def test_from_roots_is_the_product_of_linear_factors():
    for F in [FiniteField(7), FiniteField(2, 3), FiniteField(3, 2)]:
        for roots in [(), (0,), (1, 2), tuple(F.elements())[2:7]]:
            prod = Polynomial(F, [1])
            for r in roots:
                prod = prod * Polynomial(F, [F.neg(r), 1])
            got = Polynomial.from_roots(F, roots)
            assert got == prod
            assert all(got.evaluate(r) == 0 for r in roots)


def test_add_identity(f7):
    f = Polynomial(f7, [3, 1, 4])
    assert f + Polynomial.zero(f7) == f
    assert f - f == Polynomial.zero(f7)


def test_degree_multiplicative():
    for F in [FiniteField(5), FiniteField(2, 3), FiniteField(3, 2)]:
        polys = [
            Polynomial(F, [1]),
            Polynomial(F, [1, 1]),
            Polynomial(F, [0, 2, 1]),
            Polynomial(F, [1, 0, 0, 1]),
        ]
        for f in polys:
            for g in polys:
                assert (f * g).degree == f.degree + g.degree


def test_zero_product(f7):
    f = Polynomial(f7, [3, 1, 4])
    assert f * Polynomial.zero(f7) == Polynomial.zero(f7) == Polynomial.zero(f7) * f


def test_immutable_and_hashed_by_value(f7):
    f = Polynomial(f7, [3, 1, 4])
    with pytest.raises(AttributeError, match="immutable"):
        f.coeffs = (1,)
    g = Polynomial(f7, [3, 1, 4, 0])  # the same polynomial, built apart
    assert f == g and f is not g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_repr_names_field_and_coefficients():
    F = FiniteField(2, 3)
    assert repr(Polynomial(F, [1, 0, 5])) == "Polynomial('2^3', [1,0,5])"
    assert repr(Polynomial.zero(F)) == "Polynomial('2^3', [])"


def test_mixed_fields_rejected(f7):
    with pytest.raises(ValueError):
        Polynomial(f7, [1]) * Polynomial(FiniteField(5), [1])


def test_interpolate_line(f7):
    assert lagrange_interpolate(f7, [(0, 0), (1, 1)]).coeffs == (0, 1)


def test_interpolate_roundtrip_exhaustive():
    # interpolating the graph of f over any S with deg f < |S| returns f
    for F in [FiniteField(5), FiniteField(7), FiniteField(2, 3), FiniteField(3, 2)]:
        subsets = [
            tuple(F.elements())[:3],
            tuple(F.elements())[1:5],
            tuple(F.elements()),
        ]
        for S in subsets:
            for seed in range(5):
                coeffs = [(seed * 3 + i * 5 + 1) % F.q for i in range(len(S))]
                f = Polynomial(F, coeffs)
                pts = [(x, f.evaluate(x)) for x in S]
                assert lagrange_interpolate(F, pts) == f


def test_interpolate_dickson_set_word(f7):
    # word = evaluations of x^3 on D = {0, 2, 5, 6} interpolates at degree 3
    D = [0, 2, 5, 6]
    pts = [(x, f7.pow(x, 3)) for x in D]
    g = lagrange_interpolate(f7, pts)
    assert g.degree == 3
    assert all(g.evaluate(x) == f7.pow(x, 3) for x in D)


def test_interpolate_repeated_x_rejected(f7):
    with pytest.raises(ValueError):
        lagrange_interpolate(f7, [(1, 0), (1, 1)])


def test_monic_normalize(f7):
    f = Polynomial(f7, [0, 0, 3])  # 3x^2
    mon, unit = f.monic()
    assert mon.coeffs == (0, 0, 1) and unit == 3

    g = Polynomial(f7, [1, 2, 1])  # already monic
    assert g.monic() == (g, 1)

    h = Polynomial(f7, [0, 4, 0, 2])  # 2x^3 + 4x
    mon, unit = h.monic()
    assert mon.coeffs == (0, 2, 0, 1) and unit == 2
    assert mon.scale(unit) == h  # multiply back

    with pytest.raises(ValueError):
        Polynomial.zero(f7).monic()


def test_literal_roundtrip(f7):
    f = Polynomial(f7, [0, 4, 1])
    assert f.literal() == "0,4,1"
    assert parse_poly_literal(f7, "0,4,1") == f
    assert parse_poly_literal(f7, "") == Polynomial.zero(f7)
