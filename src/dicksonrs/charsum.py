"""Additive character sums over F_q and over Dickson value sets.

An additive character is psi_b(x) = exp(2*pi*i * Tr(b*x) / p); it is
nontrivial exactly when b != 0.  In characteristic 2 every character value
is +-1, the character sums are exact integers, and the weighted identity's
right side adds float weights 1/N_x by `math.fsum`, alike on every CPython
(n = 3: deviations 0 at q = 2^3, 2.8e-14 at 2^20 for a = 1, b = 5).
For odd p the values are double-precision p-th roots of unity.  A sum has at
most q <= 2^20 terms (the enumeration budget of `FiniteField.elements()`),
and the rounding seen stays far below the tolerances of the bound checks
(TOL_SLACK = 1e-6 for inequalities, TOL_IDENTITY = 1e-9 for identities).

Summation always runs in element-encoding order, so results are
deterministic and independent of any partitioning a caller might do.
Each sum over F_q reads one composed row, psi_b(D_n(x,a)) for every x.
The other whole-field rows involve no field power per point: a table
psi_b is the p-th root of unity at Tr(b*x), from the trace form of b
(m products); the weil2 row eta(x^2-4a) is `dickson.splitting_row`, which
the weights 1/N_x also read; and the weil3 pair is that row's
(-1)^Tr(a/x^2) next to the trace form of a^(q/2) read at 1/x through the
unit logs, two routes whose agreement is the pair check.
All summation lives in `CellSums`, whose methods add their terms at C
speed with `sum` or `fsum` of `map(...)` over a cell's fixed inputs.

A caller that needs every nontrivial character walks them along the powers
of a primitive element g (`characters_by_powers`): psi_{g*b}(y) =
psi_b(g*y), so each table is one gather of the previous one, and the rows
and sums are the same `SUMS` calls that `character_sum`, the one single-b
evaluator behind the public functions, makes on the cached table.  Each
sum therefore adds the same values in the same order whichever way its
table was built, and its float is bit-identical; only the order of the
characters changes, which min/max aggregates and b-sorted reports do not
see.

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
import operator
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import compress, islice
from math import fsum, sqrt
from typing import NamedTuple

from .dickson import (DicksonSpec, EvaluationSet, preimage_counts, splitting_row,
                      values_vector)
from .gf import FiniteField

__all__ = [
    "TOL_IDENTITY",
    "TOL_SLACK",
    "AdditiveCharacter",
    "CellSums",
    "CharSumReport",
    "SUMS",
    "char_eval",
    "character_sum",
    "characters_by_powers",
    "nontrivial_characters",
    "require_sum",
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


class AdditiveCharacter(namedtuple("AdditiveCharacter", "field b")):
    """psi_b; the twist b selects one of the q characters of (F_q, +)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, field: FiniteField, b: int):
        field._check(b)
        return super().__new__(cls, field, b)


class CharSumReport(NamedTuple):
    """One evaluated sum against its bound; pass iff slack >= -tolerance."""

    sum: complex
    magnitude: float
    bound: float
    slack: float
    terms: int
    bound_applies: bool = True


def nontrivial_characters(field: FiniteField):
    return (AdditiveCharacter(field, b) for b in field.units())


# psi_1, where the walk over the characters starts, and one more: the table
# the single-b evaluator `character_sum` reads (each is its own trace form)
_PSI_CACHE_SIZE = 2


@lru_cache(maxsize=None)
def _roots_of_unity(p: int) -> tuple:
    """omega^k for k < p; exact ints +-1 when p = 2."""
    if p == 2:
        return (1, -1)
    return tuple(cmath.exp(2j * cmath.pi * k / p) for k in range(p))


@lru_cache(maxsize=_PSI_CACHE_SIZE)
def _psi_table(field: FiniteField, b: int):
    """Value of psi_b at every element, the root of unity indexed by the
    trace form x -> Tr(b*x).  In characteristic 2 the entries are exact
    ints +-1; otherwise complex roots of unity."""
    return tuple(map(_roots_of_unity(field.p).__getitem__, field.trace_form(b)))


def _gather(tab, index) -> list:
    """tab[i] for every i in index, in order, in one C-level pass."""
    return list(map(tab.__getitem__, index))


def characters_by_powers(field: FiniteField):
    """(b, psi_b table) for every nontrivial b, in the order b = g^0, g^1,
    ..., g^(q-2) of the primitive element g.

    psi_{g*b}(y) = psi_b(g*y), so each table after psi_1's is one gather of
    the one before through y -> g*y, tabulated once with the kernel mul;
    it holds the same values as `_psi_table(field, b)`.
    """
    _, mul = field.kernels()
    g = field.primitive_element()
    times_g = [mul(g, y) for y in field.elements()]
    b, tab = 1, _psi_table(field, 1)
    yield b, tab
    for _ in range(field.q - 2):
        b, tab = mul(g, b), _gather(tab, times_g)
        yield b, tab


def char_eval(psi: AdditiveCharacter, x: int) -> complex:
    """psi_b(x) as a unit-modulus complex number (exact +-1 when p = 2)."""
    psi.field._check(x)
    return complex(_psi_table(psi.field, psi.b)[x])


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


def require_sum(which: str, spec: DicksonSpec, b: int = 1):
    """Raise ValueError unless the `which` sum (lemma, weil1, weil2, weil3
    or identity) of psi_b is defined on spec."""
    q, a = spec.field.q, spec.a
    if which in ("lemma", "identity"):
        if b:
            spec._require_formula_domain()
    elif which == "weil3":
        if q % 2 == 1:
            raise ValueError("this sum is defined for even q")
        if a == 0 or b == 0:
            raise ValueError("requires a != 0 and b != 0")
    elif which == "weil2" and q % 2 == 0:
        raise ValueError("quadratic-character sum requires odd q")
    elif b == 0:
        raise ValueError("bound requires a nontrivial character")
    elif a == 0:
        raise ValueError("bound requires a != 0")


def _eta_vector(field: FiniteField, a: int) -> tuple[int, ...]:
    """eta(x^2 - 4a) for every x, odd q: the splitting row of (field, a)."""
    return splitting_row(field, a)


@lru_cache(maxsize=1)  # one entry, as `splitting_row`
def _weil3_shift_tables(field: FiniteField, a: int):
    """psi_Tr(a/x^2) and psi_Tr(a^(q/2)/x) for x in F_q^*, even q, in
    encoding order, by two routes that `CellSums.shifts_equal` compares:
    the first is the splitting row, (-1)^Tr(a/x^2); the second reads the
    trace form of a^(q/2) at 1/x = g^(q-1-l) for x = g^l, by the unit logs."""
    q, t_sq = field.q, splitting_row(field, a)[1:]
    tr = field.trace_form(field.pow(a, q // 2))
    exp, log = field.unit_logs()
    by_log = [(1, -1)[tr[y]] for y in exp[q - 1:0:-1]]
    return t_sq, tuple(map(by_log.__getitem__, islice(log, 1, None)))


# one entry, for library loops over characters: each public call builds a fresh CellSums
# (criterion 5: 3.0 s; 18.3 s without); `CellSums.weights` keeps its own copy per cell
@lru_cache(maxsize=1)
def _preimage_weights(spec: DicksonSpec) -> tuple[float, ...]:
    """1/N_x for every x, with N_x from the preimage-count formula."""
    return tuple(1.0 / rep.count for rep in preimage_counts(spec, spec.field.elements()))


class CellSums:
    """Every sum of one (n, a) cell, read from any character table.

    The cell's fixed inputs are fetched once, on first use or all at once
    by `fetch`: D's sorted elements, D_n(x,a) for x in encoding order,
    1/N_x, and eta(x^2-4a) (odd q) or the two weil3 shift rows (even q),
    compared once: equal rows make the pair one sum.  These methods are the only summation
    code: `character_sum` calls them through `SUMS` on the cached psi_b
    table, and the suites on the tables of `characters_by_powers`.
    Preconditions are left to `require_sum`.
    """

    def __init__(self, spec: DicksonSpec, D: EvaluationSet | None = None):
        self.spec = spec
        self.D = D

    @cached_property
    def values(self) -> tuple[int, ...]:
        return values_vector(self.spec)

    @cached_property
    def eta(self) -> tuple[int, ...]:
        return _eta_vector(self.spec.field, self.spec.a)

    @cached_property
    def shifts(self):
        return _weil3_shift_tables(self.spec.field, self.spec.a)

    @cached_property
    def shifts_equal(self) -> bool:
        """Whether the two weil3 shift rows agree, as Tr(z) = Tr(z^2) says."""
        t_sq, t_lin = self.shifts
        return t_sq == t_lin

    @cached_property
    def weights(self) -> tuple[float, ...]:
        return _preimage_weights(self.spec)

    def fetch(self) -> CellSums:
        """Read every fixed input now, while the one-entry memos hold this
        cell's spec and a; returns the cell."""
        _ = self.values, self.weights, self.eta if self.spec.field.q % 2 else self.shifts_equal
        return self

    def row(self, tab) -> list:
        """psi_b(D_n(x,a)) for every x, in encoding order."""
        return _gather(tab, self.values)

    def lemma(self, tab) -> CharSumReport:
        """sum_{y in D} psi(y) against the (n+1)*sqrt(q) estimate."""
        total = sum(map(tab.__getitem__, self.D.elems))
        return _report(total, self.D.size, (self.spec.n + 1) * sqrt(self.spec.field.q))

    def weil1(self, row) -> CharSumReport:
        q = self.spec.field.q
        return _report(sum(row), q, (self.spec.n - 1) * sqrt(q))

    def weil2(self, row) -> CharSumReport:
        # terms with eta = 0 are skipped, the others are eta * psi
        eta, q = self.eta, self.spec.field.q
        total = sum(map(operator.mul, compress(eta, eta), compress(row, eta)))
        return _report(total, q, (self.spec.n + 1) * sqrt(q))

    def weil3(self, row) -> tuple[CharSumReport, CharSumReport]:
        t_sq, t_lin = self.shifts
        q = self.spec.field.q
        bound = (self.spec.n + 1) * sqrt(q)
        r1 = _report(sum(map(operator.mul, islice(row, 1, None), t_sq)), q - 1, bound)  # x != 0
        if self.shifts_equal:  # the same terms in the same order: the same sum
            return r1, r1
        return r1, _report(sum(map(operator.mul, islice(row, 1, None), t_lin)), q - 1, bound)

    def weighted(self, row) -> complex:
        terms = map(operator.mul, row, self.weights)
        return complex(fsum(terms) if self.spec.field.p == 2 else sum(terms))


# Each `which` sum of one character on one cell, read from its psi_b table.
# The suite's worst-case scan reads one row for several sums instead.
SUMS = {
    "lemma": lambda cell, tab: cell.lemma(tab),
    "weil1": lambda cell, tab: cell.weil1(cell.row(tab)),
    "weil2": lambda cell, tab: cell.weil2(cell.row(tab)),
    "weil3": lambda cell, tab: cell.weil3(cell.row(tab)),
    "identity": lambda cell, tab: abs(cell.lemma(tab).sum - cell.weighted(cell.row(tab))),
}


def character_sum(which: str, cell: CellSums, b: int):
    """The `which` sum of psi_b on cell, from the cached psi_b table.

    A trivial psi sums to |D| exactly over the value set; the Weil-type
    bound does not apply there, so its lemma report carries bound = |D|
    and bound_applies = False.
    """
    spec = cell.spec
    spec.field._check(b)
    require_sum(which, spec, b)
    result = SUMS[which](cell, _psi_table(spec.field, b))
    if which == "lemma" and b == 0:
        return _report(result.sum, result.terms, float(result.terms), bound_applies=False)
    return result


def _cell(psi: AdditiveCharacter, spec: DicksonSpec, D: EvaluationSet | None = None) -> CellSums:
    if psi.field != spec.field:
        raise ValueError("character and evaluation set live in different fields")
    return CellSums(spec, D)


def sum_over_value_set(psi: AdditiveCharacter, evalset: EvaluationSet) -> CharSumReport:
    """sum_{y in D} psi(y) against the (n+1)*sqrt(q) estimate, or against
    |D| for a trivial psi (see `character_sum`)."""
    return character_sum("lemma", _cell(psi, evalset.spec, evalset), psi.b)


def weil_sum_1(psi: AdditiveCharacter, spec: DicksonSpec) -> CharSumReport:
    """sum over all of F_q of psi(D_n(x,a)), bound (n-1)*sqrt(q)."""
    return character_sum("weil1", _cell(psi, spec), psi.b)


def weil_sum_2(psi: AdditiveCharacter, spec: DicksonSpec) -> CharSumReport:
    """sum of eta(x^2-4a) * psi(D_n(x,a)) over F_q, odd q only."""
    return character_sum("weil2", _cell(psi, spec), psi.b)


def weil_sum_3(b: int, spec: DicksonSpec) -> tuple[CharSumReport, CharSumReport]:
    """The paired even-q sums over F_q^*:

        sum psi_Tr(b*D_n(x,a) + a/x^2)   and   sum psi_Tr(b*D_n(x,a) + a^(q/2)/x).

    They agree termwise: Tr(z) = Tr(z^2) in characteristic 2, and
    (a^(q/2)/x)^2 = a/x^2, so the two shift factors carry the same trace.
    Both sums obey (n+1)*sqrt(q).
    """
    return character_sum("weil3", CellSums(spec), b)


def weighted_sum(psi: AdditiveCharacter, spec: DicksonSpec) -> complex:
    """sum_x psi(D_n(x,a)) / N_x, the weighted identity's right side."""
    cell = _cell(psi, spec)
    return cell.weighted(cell.row(_psi_table(spec.field, psi.b)))


def weighted_identity_check(psi: AdditiveCharacter, D: EvaluationSet) -> float:
    """|sum_over_value_set(psi, D).sum - weighted_sum(psi, D.spec)|.

    N_x comes from the formula, the left side from enumeration, so a small
    deviation certifies the formula at every point of this (n, a) grid cell.
    """
    return character_sum("identity", _cell(psi, D.spec, D), psi.b)
