"""Reed-Solomon codes over arbitrary evaluation sets, exact error distance
at desk scale, and the degree-(k+1) deep-hole test via subset sums.

A word u with interpolant of degree exactly k+1 sits at distance
<= |D|-k-1 from the code precisely when u's monic interpolant splits as
prod (x - x_i) over k+1 distinct x_i in D after subtracting a codeword,
and matching the x^k coefficient shows this happens exactly when

    x_1 + ... + x_{k+1} = b1

has a solution in distinct elements of D, where u_monic = x^(k+1)
- b1*x^k + ...  Lower-order coefficients are absorbed into the codeword,
so the whole test rides on b1 alone.

The brute-force distance oracle maximises agreement by counting
codeword pencils.  The covering radius bound d(u, C) <= |D|-k means some
nearest codeword c agrees with u on a set A of at least k positions.  With
T the k-1 smallest positions of A, every codeword through u on T is
p_T + lam*M_T, where p_T interpolates u on T and M_T = prod_{t in T}
(x - x_t); it meets u at a position j outside T exactly when lam equals
the divided difference lam_j = u[x_T, x_j] = (u_j - p_T(x_j)) / M_T(x_j).
So for each (k-1)-subset T the most repeated lam_j over j > max(T) gives
the best codeword of that pencil, with k-1 plus that many agreements.
There is one lam_j per k-subset T + {j}, so exactly C(|D|, k) of them,
each one O(1) step from the divided differences of T's prefix.

Subset-sum counting is an exact dynamic program over (elements scanned,
chosen count, running sum), with big-int counts; ordered solution
counts multiply by (k+1)!.  A code builds that
table once, for r = k+1, and answers the count and the witness for every
b1 from it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cached_property
from math import comb, factorial
from typing import NamedTuple

from .dickson import EvaluationSet
from .gf import FiniteField
from .polyring import Polynomial, lagrange_interpolate

__all__ = [
    "DeepHoleResult",
    "DistanceReport",
    "RSCodeSpec",
    "ReceivedWord",
    "SubsetSumTable",
    "count_Nu",
    "deg_k1_deep_hole_test",
    "deg_k1_reduction",
    "encode",
    "error_distance_bf",
    "monomial_word",
    "subset_sum_count",
    "subset_sum_find",
]

DEFAULT_SUBSET_BUDGET = 10**7
DEFAULT_DP_BUDGET = 10**7


class RSCodeSpec(namedtuple("RSCodeSpec", "field points k")):
    """Code determined by (field, evaluation points, message length k),
    checked; its instance dict holds the cached tables."""
    _make = classmethod(lambda cls, fields: cls(*fields))  # so `_replace` checks too

    def __new__(cls, field: FiniteField, points: tuple[int, ...], k: int):
        if len(set(points)) != len(points):
            raise ValueError("evaluation points must be distinct")
        for x in points:
            field._check(x)
        if not 1 <= k < len(points):
            raise ValueError(f"need 1 <= k < |D|, got k={k}, |D|={len(points)}")
        return super().__new__(cls, field, points, k)

    @classmethod
    def from_evaluation_set(cls, evalset: EvaluationSet, k: int) -> "RSCodeSpec":
        return cls(evalset.field, evalset.elems, k)

    @property
    def length(self) -> int:
        return len(self.points)

    @cached_property
    def subset_sums(self) -> "SubsetSumTable":
        """Subset-sum table of the points for r = k+1, built on first use
        and freed with the code; callers check it through `_code_table`."""
        return SubsetSumTable(self.field, self.points, self.k + 1)

    @cached_property
    def _inverse_differences(self) -> list[list[int]]:
        """Row t holds 1 / (x_j - x_t) for j = t+1 .. |D|-1."""
        F, xs = self.field, self.points
        return [[F.inv(F.sub(xs[j], xs[t])) for j in range(t + 1, len(xs))]
                for t in range(len(xs) - 1)]


class ReceivedWord:
    """A length-|D| word aligned with the code's point order.  Values given
    here are range-checked, and interpolated on first read; `from_poly`
    keeps a polynomial of degree < |D| and evaluates it on first read."""

    def __init__(self, code: RSCodeSpec, values):
        values = tuple(values)
        if len(values) != code.length:
            raise ValueError(f"word length {len(values)} != |D| = {code.length}")
        for v in values:
            code.field._check(v)
        self.code = code
        self.values = values

    @classmethod
    def from_poly(cls, code: RSCodeSpec, poly: Polynomial) -> "ReceivedWord":
        """The word of poly's values over the code's points."""
        if poly.field != code.field:
            raise ValueError("polynomial from a different field")
        if poly.degree >= code.length:
            return cls(code, map(poly.evaluate, code.points))
        word = cls.__new__(cls)
        word.code, word.interp = code, poly
        return word

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(map(self.interp.evaluate, self.code.points))

    @cached_property
    def interp(self) -> Polynomial:
        """Lagrange interpolant through (points[i], values[i])."""
        return lagrange_interpolate(self.code.field, list(zip(self.code.points, self.values)))

    def __repr__(self):
        return f"ReceivedWord(k={self.code.k}, values={list(self.values)})"


class DistanceReport(NamedTuple):
    distance: int
    witness: Polynomial  # codeword polynomial achieving the distance
    is_deep_hole: bool


class DeepHoleResult(NamedTuple):
    b1: int
    is_deep_hole: bool
    subset: tuple[int, ...] | None = None  # the k+1 roots, when not a deep hole
    codeword: Polynomial | None = None  # v with u_monic - v = prod(x - x_i)


def encode(code: RSCodeSpec, msg: Polynomial) -> ReceivedWord:
    """Evaluate a message polynomial (degree <= k-1) over the points."""
    if msg.field != code.field:
        raise ValueError("message polynomial from a different field")
    if msg.degree > code.k - 1:
        raise ValueError(f"message degree {msg.degree} exceeds k-1 = {code.k - 1}")
    return ReceivedWord.from_poly(code, msg)


def monomial_word(code: RSCodeSpec, b1: int) -> ReceivedWord:
    """Evaluations of x^(k+1) - b1*x^k over the code's points."""
    F = code.field
    return ReceivedWord.from_poly(code, Polynomial(F, (0,) * code.k + (F.neg(b1), 1)))


def error_distance_bf(word: ReceivedWord, budget: int = DEFAULT_SUBSET_BUDGET) -> DistanceReport:
    """Exact d(u, C) by maximum agreement, counted over codeword pencils.

    For each (k-1)-subset T of positions, in lexicographic order, lam_j =
    u[x_T, x_j] is computed for every j > max(T) and its repeats counted:
    the pencil codeword p_T + lam*M_T agrees with u on T and on every j
    with lam_j = lam.  Some nearest codeword agrees with u on k-1 + (its
    count) positions at T = its first k-1 agreements, so the largest count
    gives the distance.  That is exactly C(|D|, k) lam_j values, one per
    k-subset T + {j}, which is what `budget` bounds; each is one step of
    the divided-difference recursion u[P, t, j] = (u[P, j] - u[P, t]) /
    (x_j - x_t) from T's prefix P.  The witness is the codeword of the
    lexicographically first k-subset whose codeword agrees most (the first
    T with the top count, and within it the smallest j of a top lam),
    interpolated once at the end.
    """
    code = word.code
    n, k = code.length, code.k
    if comb(n, k) > budget:
        raise ValueError(f"C({n},{k}) = {comb(n, k)} exceeds the subset budget {budget}")
    F = code.field
    add, mul = F.kernels()
    inv_diff = code._inverse_differences if k > 1 else None

    def extensions(prefix, start, dd):
        # dd[i] = u[x_prefix, x_j] for j = start + i; extend the prefix by
        # each t that still leaves room for the rest of T and one j
        for t in range(start, n - k + len(prefix) + 1):
            i = t - start
            minus = F.neg(dd[i])
            yield prefix + (t,), t + 1, [
                mul(add(d, minus), w) for d, w in zip(dd[i + 1:], inv_diff[t])
            ]

    best, best_subset = 0, None
    stack = [iter([((), 0, list(word.values))])]
    while stack:
        item = next(stack[-1], None)
        if item is None:
            stack.pop()
        elif len(item[0]) < k - 1:
            stack.append(extensions(*item))
        else:
            prefix, start, lams = item
            counts = Counter(lams)
            top = max(counts.values())
            if top > best:
                j = next(i for i, lam in enumerate(lams) if counts[lam] == top)
                best, best_subset = top, prefix + (start + j,)
    witness = lagrange_interpolate(
        F, [(code.points[i], word.values[i]) for i in best_subset]
    )
    dist = n - (k - 1 + best)
    return DistanceReport(distance=dist, witness=witness, is_deep_hole=dist == n - k)


def deg_k1_reduction(word: ReceivedWord) -> int:
    """b1 for a word whose interpolant has degree exactly k+1.

    The interpolant is made monic first (unit scaling preserves distance
    classes); b1 is the negated x^k coefficient of the result.
    """
    code = word.code
    f = word.interp
    if f.degree != code.k + 1:
        raise ValueError(f"interpolant degree {f.degree} != k+1 = {code.k + 1}")
    monic, _ = f.monic()
    return code.field.neg(monic.coeff(code.k))


def _dp_guard(n_elems: int, r: int, q: int, budget: int):
    if r > n_elems:
        raise ValueError(f"r = {r} exceeds |D| = {n_elems}")
    if n_elems * max(r, 1) * q > budget:
        raise ValueError(
            f"DP size |D|*r*q = {n_elems * r * q} exceeds the budget {budget}"
        )


class SubsetSumTable:
    """Exact r-subset counts of a fixed multiset of elements, every target
    at once.

    The DP runs over suffixes: after elems[i:] it holds, for each j <= r,
    the exact number of j-subsets of elems[i:] summing to each s.  Only
    the final r-row keeps its ints; every (i, j) row is kept as a
    one-byte-per-cell nonzero mask for the witness backtracking, which
    scans the sorted elements in order and prefers inclusion, so it finds
    the lexicographically smallest solution.  |elems|*(r+1)*q cells;
    guard with `_dp_guard`.
    """

    def __init__(self, field: FiniteField, elems, r: int):
        self.field = field
        self.elems = tuple(sorted(elems))
        self.r = r
        q = field.q
        add, _ = field.kernels()
        counts = [[1] + [0] * (q - 1)] + [[0] * q] * r
        nonzero = [[bytes(map(bool, row)) for row in counts]]
        for e in reversed(self.elems):
            # taking e leaves t - e for the other j-1; neg also range-checks e
            minus_e = field.neg(e)
            idx = [add(t, minus_e) for t in range(q)]
            counts = [counts[0]] + [
                [a + take[k] for a, k in zip(row, idx)]
                for row, take in zip(counts[1:], counts)
            ]
            nonzero.append([bytes(map(bool, row)) for row in counts])
        nonzero.reverse()
        self._counts = counts[r]
        self._nonzero = nonzero  # [i][j][s]: some j-subset of elems[i:] sums to s

    def count(self, target: int) -> int:
        """Number of r-subsets summing to target."""
        self.field._check(target)
        return self._counts[target]

    def find(self, target: int) -> tuple[int, ...] | None:
        """The lexicographically smallest r-subset summing to target, or
        None; it is re-summed before being returned."""
        F, nonzero = self.field, self._nonzero
        F._check(target)
        if not self._counts[target]:
            return None
        picked = []
        s, j = target, self.r
        for i, e in enumerate(self.elems):
            if j == 0:
                break
            rest = F.sub(s, e)
            if nonzero[i + 1][j - 1][rest]:
                picked.append(e)
                s, j = rest, j - 1
        acc = 0
        for e in picked:
            acc = F.add(acc, e)
        assert len(picked) == self.r and acc == target
        return tuple(picked)


def subset_sum_count(
    field: FiniteField, elems, r: int, target: int, budget: int = DEFAULT_DP_BUDGET
) -> int:
    """Exact number of r-element subsets of elems summing to target."""
    elems = tuple(elems)
    field._check(target)
    _dp_guard(len(elems), r, field.q, budget)
    return SubsetSumTable(field, elems, r).count(target)


def subset_sum_find(
    field: FiniteField, elems, r: int, target: int, budget: int = DEFAULT_DP_BUDGET
) -> tuple[int, ...] | None:
    """The lexicographically smallest r-subset summing to target, or None."""
    elems = tuple(elems)
    field._check(target)
    _dp_guard(len(elems), r, field.q, budget)
    return SubsetSumTable(field, elems, r).find(target)


def _code_table(code: RSCodeSpec, budget: int) -> SubsetSumTable:
    _dp_guard(code.length, code.k + 1, code.field.q, budget)
    return code.subset_sums


def deg_k1_deep_hole_test(
    word: ReceivedWord, budget: int = DEFAULT_DP_BUDGET
) -> DeepHoleResult:
    """Deep-hole decision for a word of interpolant degree exactly k+1.

    Not a deep hole iff some (k+1)-subset of D sums to b1; the witness
    codeword v = u_monic - prod(x - x_i) is constructed and its degree
    bound deg v <= k-1 asserted before returning.
    """
    code = word.code
    F = code.field
    b1 = deg_k1_reduction(word)
    subset = _code_table(code, budget).find(b1)
    if subset is None:
        return DeepHoleResult(b1=b1, is_deep_hole=True)
    monic, _ = word.interp.monic()
    v = monic - Polynomial.from_roots(F, subset)
    assert v.degree <= code.k - 1
    return DeepHoleResult(b1=b1, is_deep_hole=False, subset=subset, codeword=v)


def count_Nu(
    code: RSCodeSpec, b1: int, budget: int = DEFAULT_DP_BUDGET
) -> int:
    """Ordered distinct-coordinate solutions of x_1+...+x_{k+1} = b1 in D:
    unordered subset count times (k+1)!."""
    code.field._check(b1)
    return _code_table(code, budget).count(b1) * factorial(code.k + 1)
