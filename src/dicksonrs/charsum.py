"""Additive character sums over F_q and over Dickson value sets.

An additive character is psi_b(x) = exp(2*pi*i * Tr(b*x) / p); it is
nontrivial exactly when b != 0.  In characteristic 2 every character value
is +-1 and the character sums are exact integers.  For odd p the values are
double-precision p-th roots of unity.  A sum has at most q <= 2^20 terms
(the enumeration budget of `FiniteField.elements()`), and the rounding seen
stays far below the tolerance of the bound checks (TOL_SLACK = 1e-6).  The
weighted identity is decided exactly, by its integer fiber defect (below);
TOL_IDENTITY = 1e-9 is left to the float comparisons of two routes to one
sum: the weil3 pair, the sieve identity, and the `tolerance` field of the
identity reports.

Summation always runs in element-encoding order, so results are
deterministic and independent of any partitioning a caller might do.
Each sum over F_q reads one composed row, psi_b(D_n(x,a)) for every x.
The other whole-field rows involve no field power per point: a table
psi_b is the p-th root of unity at Tr(b*x), from the trace form of b
(m products); the one sign row, s = `dickson.splitting_row`, which the
fiber defect's preimage counts also read, makes weil2 (odd q) and the first
weil3 sum (even q, s(0) = 0) one sum; the second weil3 sum reads the trace
form of a^(q/2) at 1/x through the unit logs, and its row equals s on F_q^*.
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
Grouped by value, the right side is sum_y psi(y) v(y) with
v(y) = sum_{D_n(x,a) = y} 1/N_x, so with L the lcm of the N_x the identity
holds for every psi at once iff the integer fiber defect w = L*1_D - L*v is
zero.  `CellSums.defect` builds w in one pass over F_q and keeps its
support; the deviation at psi is |sum_{y in supp w} w(y) psi(y)| / L, which
is 0.0 with no work per character when the formula holds, and an exact
integer over L in characteristic 2.
"""

from __future__ import annotations

import cmath
import operator
from collections import Counter, namedtuple
from functools import cached_property, lru_cache
from itertools import islice
from math import fsum, lcm, sqrt
from typing import NamedTuple

from .dickson import (DicksonSpec, EvaluationSet, preimage_counts, splitting_row, value_set,
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

# a bound holds iff slack >= -TOL_SLACK; two float routes to one sum agree iff they
# differ by at most TOL_IDENTITY (the weighted identity reads its exact defect instead)
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
# the single-b evaluator `character_sum` reads (each is its own trace form).
# The suites build psi_1 alone: the identity's defect covers the trivial character
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
    """`splitting_row`, the sign row of both parities (eta(x^2 - 4a) for odd
    q); the name stays for bench/spans.py, which traces it."""
    return splitting_row(field, a)


@lru_cache(maxsize=1)  # one entry, as `splitting_row`
def _weil3_shift_tables(field: FiniteField, a: int) -> tuple[int, ...]:
    """psi_Tr(a^(q/2)/x) for x in F_q^*, even q, in encoding order: the trace
    form of a^(q/2) read at 1/x = g^(q-1-l) for x = g^l by the unit logs, the
    weil3 pair's second route (`CellSums.shifts_equal` compares it with s)."""
    q = field.q
    tr = field.trace_form(field.pow(a, q // 2))
    exp, log = field.unit_logs()
    by_log = [(1, -1)[tr[y]] for y in exp[q - 1:0:-1]]
    return tuple(map(by_log.__getitem__, islice(log, 1, None)))


# one entry each, for library loops over characters: each public call builds a fresh
# CellSums (criterion 5: 3.0 s; 18.3 s without)
@lru_cache(maxsize=1)
def _preimage_weights(spec: DicksonSpec) -> tuple[float, ...]:
    """1/N_x for every x, with N_x from the preimage-count formula."""
    return tuple(1.0 / rep.count for rep in preimage_counts(spec, spec.field.elements()))


@lru_cache(maxsize=1)
def _fiber_defect(spec: DicksonSpec) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(L, support): L is the lcm of the formula's N_x, and the support is
    the sorted (y, w(y)) with w(y) = L - sum_{D_n(x,a) = y} L/N_x != 0 for
    the attained values y, from one pass of the preimage-count formula."""
    reports = preimage_counts(spec, spec.field.elements())
    shares = Counter(map(operator.itemgetter(1, 2), reports))  # (y, N_x): how many x
    L = lcm(*{count for _, count in shares})
    w = {}
    for (y, count), k in shares.items():
        w[y] = w.get(y, L) - k * (L // count)
    return L, tuple(sorted(item for item in w.items() if item[1]))


class CellSums:
    """Every sum of one (n, a) cell, read from any character table.

    Each fixed input is read on first use: D (unless the caller passes it),
    D_n(x,a) for x in encoding order, the weighted identity's fiber defect,
    and the splitting row s, the one sign row: `split` is weil2 for odd q
    and the first weil3 sum for even q.  These methods are the only
    summation code of the checks: `character_sum` calls them through `SUMS`
    on the cached psi_b table, and the suites on the tables of
    `characters_by_powers`.  Only the oracle `weighted_sum` adds its own
    terms.  Preconditions are left to `require_sum`.
    """

    def __init__(self, spec: DicksonSpec, D: EvaluationSet | None = None):
        self.spec = spec
        if D is not None:
            self.D = D

    @cached_property
    def D(self) -> EvaluationSet:
        return value_set(self.spec)

    @cached_property
    def values(self) -> tuple[int, ...]:
        return values_vector(self.spec)

    @cached_property
    def signs(self) -> tuple[int, ...]:
        return _eta_vector(self.spec.field, self.spec.a)

    @cached_property
    def shifts_equal(self) -> bool:
        """Whether the weil3 pair is one sum: the second route's row equals
        s on F_q^*, as Tr(z) = Tr(z^2) says; odd q has no second route."""
        F, a = self.spec.field, self.spec.a
        return F.q % 2 == 1 or all(map(operator.eq, _weil3_shift_tables(F, a),
                                       islice(self.signs, 1, None)))

    @cached_property
    def defect(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """(L, support of w): the weighted identity holds iff the support is empty."""
        return _fiber_defect(self.spec)

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

    def split(self, row) -> CharSumReport:
        """sum_x s(x) psi(D_n(x,a)) against (n+1)*sqrt(q): weil2 over F_q for
        odd q, the first weil3 sum over F_q^* for even q (s(0) = 0)."""
        q = self.spec.field.q
        total = sum(map(operator.mul, self.signs, row))
        return _report(total, q - 1 + q % 2, (self.spec.n + 1) * sqrt(q))

    def pair(self, row) -> tuple[CharSumReport, CharSumReport]:
        """The weil3 pair: `split` and the sum over the second route's row,
        or `split` twice when the rows agree (always for odd q)."""
        r1 = self.split(row)
        if self.shifts_equal:  # the same terms in the same order: the same sum
            return r1, r1
        t_lin = _weil3_shift_tables(self.spec.field, self.spec.a)
        return r1, _report(sum(map(operator.mul, islice(row, 1, None), t_lin)), r1.terms, r1.bound)

    def identity(self, tab) -> float:
        """|sum_{y in D} psi(y) - sum_x psi(D_n(x,a))/N_x|, from the defect."""
        L, support = self.defect
        return abs(sum(w * tab[y] for y, w in support)) / L if support else 0.0


# Each `which` sum of one character on one cell, read from its psi_b table.
# The suite's worst-case scan reads one row for several sums instead.
SUMS = {
    "lemma": lambda cell, tab: cell.lemma(tab),
    "weil1": lambda cell, tab: cell.weil1(cell.row(tab)),
    "weil2": lambda cell, tab: cell.split(cell.row(tab)),
    "weil3": lambda cell, tab: cell.pair(cell.row(tab)),
    "identity": lambda cell, tab: cell.identity(tab),
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
    """sum_x psi(D_n(x,a)) / N_x, the weighted identity's right side, summed
    term by term: the float oracle of the exact fiber defect."""
    terms = map(operator.mul, _cell(psi, spec).row(_psi_table(spec.field, psi.b)),
                _preimage_weights(spec))
    return complex(fsum(terms) if spec.field.p == 2 else sum(terms))


def weighted_identity_check(psi: AdditiveCharacter, D: EvaluationSet) -> float:
    """|sum_over_value_set(psi, D).sum - weighted_sum(psi, D.spec)|, from
    the cell's fiber defect (`CellSums.identity`).

    N_x comes from the formula, D from enumeration, so a zero deviation for
    every psi certifies the formula at every point of this (n, a) grid cell.
    """
    return character_sum("identity", _cell(psi, D.spec, D), psi.b)
