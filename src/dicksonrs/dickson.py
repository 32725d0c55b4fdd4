"""Dickson polynomial evaluation, value sets, and exact counting formulas.

D_n(x, a) is the degree-n member of the Dickson family, characterised by
D_n(y + a/y, a) = y^n + (a/y)^n.  It is evaluated by the closed form

    D_n(x, a) = sum_{i <= n/2} c_i (-a)^i x^(n-2i),  c_i = C(n-i, i) + C(n-i-1, i-1),

by Horner in x^2 (about n/2 products per point), each c_i mod p from
Lucas' theorem; the recurrence D_j = x*D_{j-1} - a*D_{j-2} is the tests' oracle.

The two counting results implemented here, both exact:

  * preimage_counts - the size of D_n^{-1}(D_n(x0, a)) for each x0 of a
    batch, by case analysis on the splitting of z^2 + x0*z + a (even q) or
    on the quadratic character of x0^2 - 4a (odd q), with the values from
    one evaluator pass; preimage_count is its one-point case;
  * value_set_size - |{D_n(x, a) : x in F_q}| as two gcd terms plus a
    correction delta in {0, 1/2, 1}, added doubled, in integers.

Both ask for n >= 2 and a != 0.  The only interpretive liberty taken is
the comparison "D_n(x0,a) = +-2a^(n/2)" for odd n: it is read as
membership in {y : y^2 = 4a^n}, which coincides with the printed form for
even n and is what exhaustive verification confirms for odd n.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterator, Sequence
from functools import lru_cache
from itertools import accumulate, repeat
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .gf import FiniteField, two_adic

if TYPE_CHECKING:  # imported at run time only by value_set_size_formula
    from fractions import Fraction

__all__ = [
    "DicksonSpec",
    "EvaluationSet",
    "PreimageReport",
    "ValueSetReport",
    "dickson_eval",
    "preimage_count",
    "preimage_counts",
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


def _evaluate(field: FiniteField, n: int, a: int, xs):
    """D_n(x, a) = x^(n mod 2) * P(x^2) for each x in xs (n >= 1), by Horner
    on the field's kernels; a and every x were checked by the caller.  P is
    monic, with coefficients c_i * (-a)^i, each c_i mod p by Lucas' theorem."""
    if n == 1:
        yield from xs
        return
    p = field.p  # every base-p digit of a number <= n is below min(p, n+1)
    fact = list(accumulate(range(1, min(p, n + 1)), lambda f, k: f * k % p, initial=1))
    inv = list(accumulate(range(len(fact) - 1, 0, -1), lambda f, k: f * k % p,
                          initial=pow(fact[-1], p - 2, p)))[::-1]  # 1/k! = (k+1)/(k+1)!

    def binom(top, bot):  # Lucas: C(top, bot) = C(top % p, bot % p) * C(top // p, bot // p)
        (top, t), (bot, b) = divmod(top, p), divmod(bot, p)
        c = fact[t] * inv[b] * inv[t - b] % p if b <= t else 0
        return c * binom(top, bot) % p if bot and c else c

    add, mul = field.kernels()
    powers = accumulate(repeat(field.neg(a), n // 2), mul)  # (-a)^i for i = 1..n//2
    *inner, last = [mul((binom(n - i, i) + binom(n - i - 1, i - 1)) % p, power)
                    for i, power in enumerate(powers, 1)]
    for x in xs:
        y = acc = mul(x, x)
        for e in inner:
            acc = mul(add(acc, e), y)
        acc = add(acc, last)
        yield mul(x, acc) if n % 2 else acc


def dickson_eval(spec: DicksonSpec, x: int) -> int:
    """D_n(x, a) by Horner in x^2 on the closed form."""
    spec.field._check(x)
    return next(_evaluate(spec.field, spec.n, spec.a, (x,)))


# the one whole-field pass, one entry (bench/spans.py reads its cache_info()): a library loop
# over one spec's characters re-reads it per call (criterion 5: 3.0 s; 11.4 s uncached)
@lru_cache(maxsize=1)
def values_vector(spec: DicksonSpec) -> tuple[int, ...]:
    """(D_n(0,a), D_n(1,a), ..., D_n(q-1,a)) in encoding order."""
    return tuple(_evaluate(spec.field, spec.n, spec.a, spec.field.elements()))


def value_counts(spec: DicksonSpec) -> dict[int, int]:
    """Exact multiplicity of every attained value, by full enumeration."""
    return Counter(values_vector(spec))


def value_set(spec: DicksonSpec) -> EvaluationSet:
    """Enumerated evaluation set, sorted by encoding; deterministic."""
    return EvaluationSet(spec, tuple(sorted(set(values_vector(spec)))))


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


def preimage_counts(spec: DicksonSpec, xs: Sequence[int]) -> Iterator[PreimageReport]:
    """Yield |D_n^{-1}(D_n(x0, a))| for each x0 of the sequence xs, in order,
    from the exact case analysis; the checks (formula domain, then every x0)
    run when iteration starts.

    case_label records the branch that fired:
      even q: A (splitting quadratic), B (irreducible quadratic), zero-even;
      odd q: eta-plus, eta-minus, C-plus, C-minus, otherwise.
    """
    spec._require_formula_domain()
    F, n, a = spec.field, spec.n, spec.a
    for x0 in xs:
        F._check(x0)
    q = F.q
    g1, g2 = gcd(n, q - 1), gcd(n, q + 1)
    add, mul = F.kernels()
    values = _evaluate(F, n, a, xs)

    if q % 2 == 0:
        for x0, value in zip(xs, values):
            if value == 0:
                yield PreimageReport(x0, value, (g1 + g2) // 2, "zero-even")
            # value != 0 forces x0 != 0 (D_n(0, a) = +-2a^(n/2) = 0 in char 2),
            # so Tr(a / x0^2) is well defined; z^2 + x0 z + a splits iff it is 0
            elif F.trace(mul(a, F.pow(x0, -2))) == 0:
                yield PreimageReport(x0, value, g1, "A")
            else:
                yield PreimageReport(x0, value, g2, "B")
        return

    two, four = F.from_int(2), F.from_int(4)
    neg_four_a, four_a_n = F.neg(mul(four, a)), mul(four, F.pow(a, n))
    # off the boundary value^2 = 4a^n the eta cases decide; on it, condition C
    # holds for every value, or only for -2a^(n/2) (n is even then), or never
    val, chi_a = two_adic(q, n), F.quad_char(a)
    c_always = 1 <= val.t <= val.r - 1 and chi_a == -1
    c_value = F.neg(mul(two, F.pow(a, n // 2))) if 1 <= val.t <= val.r - 2 and chi_a == 1 else None
    for x0, value in zip(xs, values):
        eta = F.quad_char(add(mul(x0, x0), neg_four_a))
        if eta == 0:
            yield PreimageReport(x0, value, (g1 + g2) // 2, "otherwise")
        elif mul(value, value) != four_a_n:
            yield (PreimageReport(x0, value, g1, "eta-plus") if eta == 1
                   else PreimageReport(x0, value, g2, "eta-minus"))
        elif c_always or value == c_value:
            yield (PreimageReport(x0, value, g1 // 2, "C-plus") if eta == 1
                   else PreimageReport(x0, value, g2 // 2, "C-minus"))
        else:
            yield PreimageReport(x0, value, (g1 + g2) // 2, "otherwise")


def preimage_count(spec: DicksonSpec, x0: int) -> PreimageReport:
    """`preimage_counts` at the one point x0."""
    return next(preimage_counts(spec, (x0,)))
