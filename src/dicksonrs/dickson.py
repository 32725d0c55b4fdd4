"""Dickson polynomial evaluation, value sets, and exact counting formulas.

D_n(x, a) is the degree-n member of the Dickson family, characterised by
D_n(y + a/y, a) = y^n + (a/y)^n.  Evaluation uses the linear recurrence

    D_0 = 2,  D_1 = x,  D_j = x*D_{j-1} - a*D_{j-2},

which costs O(n) field operations.  The closed-form integer coefficients
are the tests' independent cross-check.

The two counting results implemented here, both exact:

  * preimage_count - the size of D_n^{-1}(D_n(x0, a)), by case analysis on
    the splitting of z^2 + x0*z + a (even q) or on the quadratic character
    of x0^2 - 4a (odd q);
  * value_set_size - |{D_n(x, a) : x in F_q}| as two gcd terms plus a
    correction delta in {0, 1/2, 1}, added doubled, in integers.

Both ask for n >= 2 and a != 0.  The only interpretive liberty taken is
the comparison "D_n(x0,a) = +-2a^(n/2)" for odd n: it is read as
membership in {y : y^2 = 4a^n}, which coincides with the printed form for
even n and is what exhaustive verification confirms for odd n.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .gf import FiniteField, two_adic

__all__ = [
    "DicksonSpec",
    "EvaluationSet",
    "PreimageReport",
    "ValueSetReport",
    "dickson_eval",
    "preimage_count",
    "value_counts",
    "value_set",
    "value_set_size",
    "value_set_size_formula",
    "values_vector",
]

class DicksonSpec(namedtuple("DicksonSpec", "field n a")):
    """Parameters (field, n, a) of one Dickson polynomial, checked."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, field: FiniteField, n: int, a: int):
        if n < 1:
            raise ValueError(f"degree n = {n} must be >= 1")
        field._check(a)
        return super().__new__(cls, field, n, a)

    def _require_formula_domain(self):
        if self.a == 0 or self.n < 2:
            raise ValueError("counting formulas require n >= 2 and a != 0")


class EvaluationSet(NamedTuple):
    """The attained values {D_n(x,a) : x in F_q}, sorted by encoding."""

    spec: DicksonSpec
    elems: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elems)

    @property
    def field(self) -> FiniteField:
        return self.spec.field


class PreimageReport(NamedTuple):
    x0: int
    value: int
    count: int
    case_label: str


class ValueSetReport(NamedTuple):
    size: int
    delta: Fraction
    terms: tuple[Fraction, Fraction]


def _eval_recurrence(field: FiniteField, n: int, a: int, xs):
    """D_n(x, a) for each x in xs (n >= 1), on the field's kernels; a and
    every x were checked by the caller."""
    add, mul = field.kernels()
    two, neg_a = field.from_int(2), field.neg(a)
    for x in xs:
        prev, cur = two, x
        for _ in range(n - 1):
            prev, cur = cur, add(mul(x, cur), mul(neg_a, prev))
        yield cur


def dickson_eval(spec: DicksonSpec, x: int) -> int:
    """D_n(x, a) by the linear recurrence."""
    spec.field._check(x)
    return next(_eval_recurrence(spec.field, spec.n, spec.a, (x,)))


# unbounded: bench/spans.py reads its cache_info(); tests key rows by its tuples' ids
@lru_cache(maxsize=None)
def values_vector(spec: DicksonSpec) -> tuple[int, ...]:
    """(D_n(0,a), D_n(1,a), ..., D_n(q-1,a)) in encoding order."""
    return tuple(_eval_recurrence(spec.field, spec.n, spec.a, spec.field.elements()))


def value_counts(spec: DicksonSpec) -> dict[int, int]:
    """Exact multiplicity of every attained value, by full enumeration."""
    # not values_vector: its cache is the character sums' working set
    return Counter(_eval_recurrence(spec.field, spec.n, spec.a, spec.field.elements()))


@lru_cache(maxsize=1)  # the deephole suite reads one cell's set for each k
def value_set(spec: DicksonSpec) -> EvaluationSet:
    """Enumerated evaluation set, sorted by encoding; deterministic."""
    return EvaluationSet(spec, tuple(sorted(value_counts(spec))))


def _doubled_terms(spec: DicksonSpec) -> tuple[int, int, int]:
    """(T1, T2, Delta) = (q-1)/gcd(n,q-1), (q+1)/gcd(n,q+1), 2*delta, so
    |D| = (T1 + T2 + Delta)/2 (an odd sum raises ArithmeticError), where
    delta = 1   if q odd, 2^(r-1) || n and a is a non-square,
    delta = 1/2 if q odd and 2^t || n with 1 <= t <= r-2,
    delta = 0   otherwise,  where 2^r || q^2 - 1."""
    spec._require_formula_domain()
    F, n = spec.field, spec.n
    q = F.q
    twice_delta = 0
    if q % 2 == 1:
        val = two_adic(q, n)
        if val.t == val.r - 1 and F.quad_char(spec.a) == -1:
            twice_delta = 2
        elif 1 <= val.t <= val.r - 2:
            twice_delta = 1
    terms = (q - 1) // gcd(n, q - 1), (q + 1) // gcd(n, q + 1), twice_delta
    if sum(terms) % 2:
        raise ArithmeticError(f"value-set size {sum(terms)}/2 is not an integer for {spec}")
    return terms


def value_set_size(spec: DicksonSpec) -> int:
    """|value set| from (q, n, a) alone, in integers, by `_doubled_terms`."""
    return sum(_doubled_terms(spec)) // 2


def value_set_size_formula(spec: DicksonSpec) -> ValueSetReport:
    """`value_set_size` with its terms as exact fractions:
    size = (q-1)/(2*gcd(n,q-1)) + (q+1)/(2*gcd(n,q+1)) + delta."""
    from fractions import Fraction  # deferred: only this report needs it

    t1, t2, twice_delta = _doubled_terms(spec)
    return ValueSetReport(size=(t1 + t2 + twice_delta) // 2, delta=Fraction(twice_delta, 2),
                          terms=(Fraction(t1, 2), Fraction(t2, 2)))


def _pm_two_a_half(field: FiniteField, n: int, a: int, value: int) -> bool:
    """Does value lie in {y : y^2 = 4*a^n}, i.e. value = +-2*a^(n/2)?

    For even n this is exactly the direct comparison with 2*a^(n/2); for
    odd n it asks whether a^n has a square root s in the field with
    value = +-2s (vacuously false when a^n is a non-square).
    """
    lhs = field.mul(value, value)
    rhs = field.mul(field.from_int(4), field.pow(a, n))
    return lhs == rhs


def preimage_count(spec: DicksonSpec, x0: int) -> PreimageReport:
    """|D_n^{-1}(D_n(x0, a))| from the exact case analysis.

    case_label records the branch that fired:
      even q: A (splitting quadratic), B (irreducible quadratic), zero-even;
      odd q: eta-plus, eta-minus, C-plus, C-minus, otherwise.
    """
    spec._require_formula_domain()
    F, n, a = spec.field, spec.n, spec.a
    F._check(x0)
    q = F.q
    g1, g2 = gcd(n, q - 1), gcd(n, q + 1)
    value = dickson_eval(spec, x0)

    if q % 2 == 0:
        if value == 0:
            return PreimageReport(x0, value, (g1 + g2) // 2, "zero-even")
        # value != 0 forces x0 != 0 (D_n(0, a) = +-2a^(n/2) = 0 in char 2),
        # so Tr(a / x0^2) is well defined; z^2 + x0 z + a splits iff it is 0
        split = F.trace(F.mul(a, F.inv(F.mul(x0, x0)))) == 0
        if split:
            return PreimageReport(x0, value, g1, "A")
        return PreimageReport(x0, value, g2, "B")

    eta = F.quad_char(F.sub(F.mul(x0, x0), F.mul(F.from_int(4), a)))
    on_boundary = _pm_two_a_half(F, n, a, value)
    if eta == 1 and not on_boundary:
        return PreimageReport(x0, value, g1, "eta-plus")
    if eta == -1 and not on_boundary:
        return PreimageReport(x0, value, g2, "eta-minus")

    val = two_adic(q, n)
    cond_c = False
    if 1 <= val.t <= val.r - 1 and F.quad_char(a) == -1 and on_boundary:
        cond_c = True
    elif 1 <= val.t <= val.r - 2 and F.quad_char(a) == 1:
        # n is even here (t >= 1), so a^(n/2) is direct
        minus = F.neg(F.mul(F.from_int(2), F.pow(a, n // 2)))
        cond_c = value == minus
    if eta == 1 and cond_c:
        return PreimageReport(x0, value, g1 // 2, "C-plus")
    if eta == -1 and cond_c:
        return PreimageReport(x0, value, g2 // 2, "C-minus")
    return PreimageReport(x0, value, (g1 + g2) // 2, "otherwise")
