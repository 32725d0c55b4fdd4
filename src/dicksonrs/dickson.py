"""Dickson polynomial evaluation, value sets, and exact counting formulas.

D_n(x, a) is the degree-n member of the Dickson family, characterised by
D_n(y + a/y, a) = y^n + (a/y)^n.  It is evaluated by the closed form

    D_n(x, a) = sum_{i <= n/2} c_i (-a)^i x^(n-2i),  c_i = C(n-i, i) + C(n-i-1, i-1),

by Horner in x^2 (about n/2 products per point), each c_i mod p from
Lucas' theorem; the recurrence D_j = x*D_{j-1} - a*D_{j-2} is the tests' oracle.
A point at a time (`dickson_eval`, up to q = 2^32) the products are the
field's kernels; the whole-field pass `values_vector` reads them off the
field's unit logs instead, once per square x^2.

The two counting results implemented here, both exact:

  * preimage_counts - the size of D_n^{-1}(D_n(x0, a)) for each x0 of a
    batch, by one case analysis on how z^2 - x0*z + a factors and on
    whether D_n(x0, a)^2 = 4a^n.  A whole-field batch reads two rows with
    one-entry memos: the values, and `splitting_row` (eta(x^2 - 4a) for
    odd q, the sign of Tr(a/x^2) for even q), built from the field's unit
    logs and a trace form, with no field power per point.  preimage_count
    is its one-point case, which evaluates the point directly, up to 2^32;
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
from itertools import accumulate, islice, repeat
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
    "splitting_row",
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


def _coefficients(field: FiniteField, n: int, a: int) -> list[int]:
    """P's coefficients below its leading 1 for D_n(x, a) = x^(n mod 2) * P(x^2),
    n >= 2: c_i * (-a)^i for i = 1..n//2, each c_i mod p by Lucas' theorem."""
    p = field.p  # every base-p digit of a number <= n is below min(p, n+1)
    fact = list(accumulate(range(1, min(p, n + 1)), lambda f, k: f * k % p, initial=1))
    inv = list(accumulate(range(len(fact) - 1, 0, -1), lambda f, k: f * k % p,
                          initial=pow(fact[-1], p - 2, p)))[::-1]  # 1/k! = (k+1)/(k+1)!

    def binom(top, bot):  # Lucas: C(top, bot) = C(top % p, bot % p) * C(top // p, bot // p)
        (top, t), (bot, b) = divmod(top, p), divmod(bot, p)
        c = fact[t] * inv[b] * inv[t - b] % p if b <= t else 0
        return c * binom(top, bot) % p if bot and c else c

    mul = field.kernels()[1]
    powers = accumulate(repeat(field.neg(a), n // 2), mul)  # (-a)^i for i = 1..n//2
    return [mul((binom(n - i, i) + binom(n - i - 1, i - 1)) % p, power)
            for i, power in enumerate(powers, 1)]


def _evaluate(field: FiniteField, n: int, a: int, xs):
    """D_n(x, a) for each x in xs (n >= 1), by Horner in x^2 on the field's
    kernels; a and every x were checked by the caller."""
    if n == 1:
        yield from xs
        return
    add, mul = field.kernels()
    *inner, last = _coefficients(field, n, a)
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
    """(D_n(0,a), D_n(1,a), ..., D_n(q-1,a)) in encoding order.

    The same Horner in y = x^2 as `_evaluate`, one coefficient at a time
    over every point, with each product read off the unit logs.  At x =
    g^l, P(x^2) depends only on l mod (q-1)/2 for odd q (x and -x have one
    square), so it is evaluated once per square; D_n(0, a) is P(0), the
    last coefficient, or 0 for odd n."""
    F, n, a = spec.field, spec.n, spec.a
    if n == 1:
        return tuple(F.elements())
    q = F.q
    exp, log = F.unit_logs()
    add = F.kernels()[0]
    *inner, last = _coefficients(F, n, a)
    # y = g^(2l) for l up to the period (exp is stored twice over), and log y
    acc = ys = exp[:(q - 1) * (2 - q % 2):2]
    lys = list(map(log.__getitem__, ys)) if inner else ()
    for e in inner:
        acc = [exp[log[t] + ly] if (t := add(v, e)) else 0 for v, ly in zip(acc, lys)]
    by_log = list(map(add, acc, repeat(last))) * (1 + q % 2)  # the row at x = g^l is by_log[l]
    if n % 2:
        at_zero, by_log = 0, [exp[log[v] + l] if v else 0 for l, v in enumerate(by_log)]
    else:
        at_zero = last
    return (at_zero, *map(by_log.__getitem__, islice(log, 1, None)))


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


@lru_cache(maxsize=1)  # one entry, as `values_vector`: the charsum suite reads it grouped by a
def splitting_row(field: FiniteField, a: int) -> tuple[int, ...]:
    """For every x, in encoding order, how z^2 - x*z + a factors over F_q
    (a != 0): +1 into two distinct linear factors, 0 as the square of one,
    -1 not at all.
    For odd q that is eta(x^2 - 4a); for even q it is 0 at x = 0 and
    (-1)^Tr(a/x^2) elsewhere.  Read off the unit logs and, for even q, the
    trace form of a, with no field operation per point."""
    if a == 0:
        raise ValueError("the splitting row requires a != 0")
    p, q = field.p, field.q
    exp, log = field.unit_logs()  # the row at x = g^l is by_log[l]
    if p == 2:
        tr = field.trace_form(a)  # x^-2 = g^(2(q-1) - 2l), and 1 at l = 0
        at_zero, by_log = 0, [(1, -1)[tr[y]] for y in (1, *exp[2 * q - 4:0:-2])]
    else:
        # x^2 - 4a = c(1 + x^2/c) for c = -4a, so eta is eta(c) times the parity
        # of log(1 + g^(2l - log c)); it repeats with period (q-1)/2 in l, and
        # adding 1 raises the constant digit, which wraps at p - 1
        c = field.neg(field.mul(field.from_int(4), a))
        at_zero = 1 - 2 * (log[c] & 1)
        start = -log[c] % (q - 1)
        ones = [y + 1 if y % p != p - 1 else y + 1 - p for y in exp[start:start + q - 1:2]]
        by_log = [at_zero - 2 * at_zero * (log[y] & 1) if y else 0 for y in ones] * 2
    return (at_zero, *map(by_log.__getitem__, islice(log, 1, None)))


def _split_sign(field: FiniteField, a: int, x: int) -> int:
    """`splitting_row`'s entry at the one point x, by the direct formula."""
    if field.q % 2:
        return field.quad_char(field.sub(field.mul(x, x), field.mul(field.from_int(4), a)))
    return 0 if x == 0 else 1 - 2 * field.trace(field.mul(a, field.pow(x, -2)))


def preimage_counts(spec: DicksonSpec, xs: Sequence[int]) -> Iterator[PreimageReport]:
    """Yield |D_n^{-1}(D_n(x0, a))| for each x0 of the sequence xs, in order,
    from the exact case analysis; the checks (formula domain, then every x0)
    run when iteration starts.

    The case turns on how z^2 - x0*z + a factors (its sign s, as in
    `splitting_row`) and on whether D_n(x0, a) lies on the boundary
    y^2 = 4a^n.  A batch of at least q points reads both from whole-field
    rows, `values_vector` and `splitting_row`, whose roots of y^2 = 4a^n
    are +-D_n(2r, a) when r^2 = a (x0 = 2r is where s = 0), else +-2a^(n/2)
    for even n, else none; a smaller batch evaluates each point directly,
    which is the only route past the enumeration budget.

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
    two, mul = F.from_int(2), F.kernels()[1]
    plus, minus, other = ("A", "B", "zero-even") if q % 2 == 0 else ("eta-plus", "eta-minus",
                                                                      "otherwise")
    # (count, label) by s off the boundary, and on it where condition C holds;
    # s = 0 and a boundary value without C give (g1 + g2)/2
    middle = ((g1 + g2) // 2, other)
    off = {1: (g1, plus), -1: (g2, minus), 0: middle}
    on_c = {1: (g1 // 2, "C-plus"), -1: (g2 // 2, "C-minus"), 0: middle}
    # condition C holds for every boundary value, or only for -2a^(n/2) (n is
    # even then), or never (always so for even q, where r = 0)
    val, chi_a = two_adic(q, n), q % 2 and F.quad_char(a)
    c_always = 1 <= val.t <= val.r - 1 and chi_a == -1
    c_value = F.neg(mul(two, F.pow(a, n // 2))) if 1 <= val.t <= val.r - 2 and chi_a == 1 else None

    if len(xs) >= q:
        values, signs = values_vector(spec), splitting_row(F, a)
        if 0 in signs:
            roots = (r := values[signs.index(0)], F.neg(r))
        else:
            roots = (r := mul(two, F.pow(a, n // 2)), F.neg(r)) if n % 2 == 0 else ()
        points = ((x0, values[x0], signs[x0]) for x0 in xs)
        on_boundary = roots.__contains__
    else:
        four_a_n = mul(F.from_int(4), F.pow(a, n))
        points = ((x0, value, _split_sign(F, a, x0))
                  for x0, value in zip(xs, _evaluate(F, n, a, xs)))

        def on_boundary(value):
            return mul(value, value) == four_a_n
    for x0, value, s in points:
        if not on_boundary(value):
            count, label = off[s]
        else:
            count, label = on_c[s] if c_always or value == c_value else middle
        yield PreimageReport(x0, value, count, label)


def preimage_count(spec: DicksonSpec, x0: int) -> PreimageReport:
    """`preimage_counts` at the one point x0."""
    return next(preimage_counts(spec, (x0,)))
