"""Additive character sums over F_q and over Dickson value sets.

An additive character is psi_b(x) = exp(2*pi*i * Tr(b*x) / p); it is
nontrivial exactly when b != 0.  In characteristic 2 every character value
is +-1 and all sums here are accumulated as exact signed integers, so the
even-q results carry no floating-point error at all.  For odd p the values
are double-precision p-th roots of unity; each verified sum has at most
2^16 terms, so accumulated rounding stays far below the tolerances used
by the bound checks (TOL_SLACK = 1e-6 for inequalities, TOL_IDENTITY =
1e-9 for identities).

Summation always runs in element-encoding order, so results are
deterministic and independent of any partitioning a caller might do.
Each sum over F_q reads one composed row, psi_b(D_n(x,a)) for every x,
which is kept until a sum asks for another (character, cell).

The four verified estimates, all of Weil type with explicit constants:

    lemma:  |sum_{y in D} psi(y)|                      <= (n+1) sqrt(q)
    weil1:  |sum_{x in F_q} psi(D_n(x,a))|             <= (n-1) sqrt(q)
    weil2:  |sum eta(x^2-4a) psi(D_n(x,a))|            <= (n+1) sqrt(q)   (odd q)
    weil3:  |sum_{x != 0} psi_Tr(b D_n(x,a) + a/x^2)|  <= (n+1) sqrt(q)   (even q)

plus the exact weighted identity
    sum_{y in D} psi(y) = sum_{x in F_q} psi(D_n(x,a)) / N_x
whose left side is the lemma's sum and whose right side (`weighted_sum`)
uses the preimage-count formula for N_x, an end-to-end check of that formula.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

from .dickson import DicksonSpec, EvaluationSet, preimage_count, values_vector
from .gf import FiniteField

__all__ = [
    "TOL_IDENTITY",
    "TOL_SLACK",
    "AdditiveCharacter",
    "CharSumReport",
    "char_eval",
    "nontrivial_characters",
    "sum_over_value_set",
    "weighted_identity_check",
    "weighted_sum",
    "weil_sum_1",
    "weil_sum_2",
    "weil_sum_3",
]

# a bound holds iff slack >= -TOL_SLACK; an identity iff |deviation| <= TOL_IDENTITY
TOL_SLACK = 1e-6
TOL_IDENTITY = 1e-9


@dataclass(frozen=True)
class AdditiveCharacter:
    """psi_b; the twist b selects one of the q characters of (F_q, +)."""

    field: FiniteField
    b: int

    def __post_init__(self):
        self.field._check(self.b)

    @property
    def is_trivial(self) -> bool:
        return self.b == 0


@dataclass(frozen=True)
class CharSumReport:
    """One evaluated sum against its bound; pass iff slack >= -tolerance."""

    sum: complex
    magnitude: float
    bound: float
    slack: float
    terms: int
    bound_applies: bool = True


def nontrivial_characters(field: FiniteField):
    return (AdditiveCharacter(field, b) for b in field.units())


# psi_1, which every other table is read from, and the table in use; a
# suite runs its characters outermost, so each table is still built once
_PSI_CACHE_SIZE = 2


@lru_cache(maxsize=None)
def _roots_of_unity(p: int) -> tuple:
    """omega^k for k < p; exact ints +-1 when p = 2."""
    if p == 2:
        return (1, -1)
    return tuple(cmath.exp(2j * cmath.pi * k / p) for k in range(p))


@lru_cache(maxsize=_PSI_CACHE_SIZE)
def _psi_table(field: FiniteField, b: int):
    """Value of psi_b at every element.  In characteristic 2 the entries
    are exact ints +-1; otherwise complex roots of unity.  Only psi_1 reads
    the trace; psi_b(x) = psi_1(b*x) for every other b."""
    if b == 1:
        roots = _roots_of_unity(field.p)
        return tuple(roots[field.trace(x)] for x in field.elements())
    tab1 = _psi_table(field, 1)
    _, mul = field.kernels()
    return tuple(tab1[mul(b, x)] for x in field.elements())


def char_eval(psi: AdditiveCharacter, x: int) -> complex:
    """psi_b(x) as a unit-modulus complex number (exact +-1 when p = 2)."""
    psi.field._check(x)
    return complex(_psi_table(psi.field, psi.b)[x])


# a suite runs its characters outermost, so the sums of one (character,
# cell) ask for the same row one after another
@lru_cache(maxsize=1)
def _composed(b: int, spec: DicksonSpec) -> tuple:
    """psi_b(D_n(x,a)) for every x, in encoding order."""
    tab = _psi_table(spec.field, b)
    return tuple(tab[v] for v in values_vector(spec))


def _report(total, terms: int, bound: float, bound_applies: bool = True) -> CharSumReport:
    total = complex(total)
    mag = abs(total)
    return CharSumReport(
        sum=total,
        magnitude=mag,
        bound=bound,
        slack=bound - mag,
        terms=terms,
        bound_applies=bound_applies,
    )


def sum_over_value_set(psi: AdditiveCharacter, evalset: EvaluationSet) -> CharSumReport:
    """sum_{y in D} psi(y) against the (n+1)*sqrt(q) estimate.

    A trivial psi sums to |D| exactly; the Weil-type bound does not apply
    there, so the report carries bound = |D| and bound_applies = False.
    """
    F = psi.field
    spec = evalset.spec
    if F != spec.field:
        raise ValueError("character and evaluation set live in different fields")
    tab = _psi_table(F, psi.b)
    total = sum(tab[y] for y in evalset.elems)
    if psi.is_trivial:
        return _report(total, evalset.size, float(evalset.size), bound_applies=False)
    spec._require_formula_domain()
    return _report(total, evalset.size, (spec.n + 1) * sqrt(F.q))


def weil_sum_1(psi: AdditiveCharacter, spec: DicksonSpec) -> CharSumReport:
    """sum over all of F_q of psi(D_n(x,a)), bound (n-1)*sqrt(q)."""
    if psi.is_trivial:
        raise ValueError("bound requires a nontrivial character")
    if spec.a == 0:
        raise ValueError("bound requires a != 0")
    F = spec.field
    return _report(sum(_composed(psi.b, spec)), F.q, (spec.n - 1) * sqrt(F.q))


@lru_cache(maxsize=None)
def _eta_vector(field: FiniteField, a: int) -> tuple[int, ...]:
    """eta(x^2 - 4a) for every x, odd q."""
    add, mul = field.kernels()
    minus_4a = field.neg(field.mul(field.from_int(4), a))
    return tuple(field.quad_char(add(mul(x, x), minus_4a)) for x in field.elements())


def weil_sum_2(psi: AdditiveCharacter, spec: DicksonSpec) -> CharSumReport:
    """sum of eta(x^2-4a) * psi(D_n(x,a)) over F_q, odd q only."""
    F = spec.field
    if F.q % 2 == 0:
        raise ValueError("quadratic-character sum requires odd q")
    if psi.is_trivial:
        raise ValueError("bound requires a nontrivial character")
    if spec.a == 0:
        raise ValueError("bound requires a != 0")
    eta = _eta_vector(F, spec.a)
    total = sum(e * t for e, t in zip(eta, _composed(psi.b, spec)) if e)
    return _report(total, F.q, (spec.n + 1) * sqrt(F.q))


@lru_cache(maxsize=None)
def _weil3_shift_tables(field: FiniteField, a: int):
    """psi_Tr(a/x^2) and psi_Tr(a^(q/2)/x) for x in F_q^*, even q."""
    _, mul = field.kernels()
    # 1/x for every unit from one inversion (Montgomery's trick): inv[x]
    # first holds 1*2*...*(x-1), and r runs through 1/(1*2*...*x)
    q, inv = field.q, [1] * field.q
    for x in range(2, q):
        inv[x] = mul(inv[x - 1], x - 1)
    r = field.inv(mul(inv[-1], q - 1))
    for x in range(q - 1, 0, -1):
        inv[x], r = mul(r, inv[x]), mul(r, x)
    tab1 = _psi_table(field, 1)
    sqrt_a = field.pow(a, q // 2)
    t_sq = tuple(tab1[mul(a, mul(inv[x], inv[x]))] for x in field.units())
    t_lin = tuple(tab1[mul(sqrt_a, inv[x])] for x in field.units())
    return t_sq, t_lin


def weil_sum_3(b: int, spec: DicksonSpec) -> tuple[CharSumReport, CharSumReport]:
    """The paired even-q sums over F_q^*:

        sum psi_Tr(b*D_n(x,a) + a/x^2)   and   sum psi_Tr(b*D_n(x,a) + a^(q/2)/x).

    They agree termwise: Tr(z) = Tr(z^2) in characteristic 2, and
    (a^(q/2)/x)^2 = a/x^2, so the two shift factors carry the same trace.
    Both sums obey (n+1)*sqrt(q).
    """
    F = spec.field
    if F.q % 2 == 1:
        raise ValueError("this sum is defined for even q")
    if spec.a == 0 or b == 0:
        raise ValueError("requires a != 0 and b != 0")
    F._check(b)
    t_sq, t_lin = _weil3_shift_tables(F, spec.a)
    row = _composed(b, spec)[1:]  # x in F_q^*, as the shift tables
    total1 = sum(t * s for t, s in zip(row, t_sq))
    total2 = sum(t * s for t, s in zip(row, t_lin))
    bound = (spec.n + 1) * sqrt(F.q)
    return _report(total1, F.q - 1, bound), _report(total2, F.q - 1, bound)


@lru_cache(maxsize=None)
def _preimage_weights(spec: DicksonSpec) -> tuple[float, ...]:
    """1/N_x for every x, with N_x from the preimage-count formula."""
    return tuple(1.0 / preimage_count(spec, x).count for x in spec.field.elements())


def weighted_sum(psi: AdditiveCharacter, spec: DicksonSpec) -> complex:
    """sum_x psi(D_n(x,a)) / N_x, the weighted identity's right side."""
    w = _preimage_weights(spec)
    return complex(sum(t * wx for t, wx in zip(_composed(psi.b, spec), w)))


def weighted_identity_check(psi: AdditiveCharacter, D: EvaluationSet) -> float:
    """|sum_over_value_set(psi, D).sum - weighted_sum(psi, D.spec)|.

    N_x comes from the formula, the left side from enumeration, so a small
    deviation certifies the formula at every point of this (n, a) grid cell.
    """
    return abs(sum_over_value_set(psi, D).sum - weighted_sum(psi, D.spec))
