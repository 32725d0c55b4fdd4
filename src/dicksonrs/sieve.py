"""Cycle-type sieve combinatorics and the deep-hole bound chain.

A permutation of S_k with c_i cycles of length i has cycle type
(c_1, ..., c_k), sum i*c_i = k, and there are

    N(c_1, ..., c_k) = k! / prod_i (i^c_i * c_i!)

such permutations.  The generating sum C_k(t_1, ..., t_k) =
sum N(type) * prod t_i^c_i is the Li-Wan sieve: a character summed over
distinct-coordinate k-tuples of D is C_k at the signed power sums
t_l = (-1)^(l-1) sum_{x in D} psi(l*x).  With arguments periodic in i
C_k has a closed form and a falling-factorial bound.

The bound chain for counting (k+1)-element distinct subset sums in a
Dickson value set D compares

    lhs = (|D|)_{k+1} / q     against
    rhs = ((n+1) sqrt(q)/2 + k + |D|/2)_{k+1},

where (x)_j denotes the falling factorial.  lhs > rhs guarantees every
target is hit.  Falling factorials of tens of thousands of terms are
evaluated as differences of log-gamma values in 100-bit arithmetic
(mpmath), and the lhs/rhs comparison reports near-ties instead of
silently deciding them.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import permutations
from math import ceil, factorial, log2, sqrt
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # charsum loads only where sieve_identity_F runs
    from .charsum import AdditiveCharacter

__all__ = [
    "DIRECT_MAX_D",
    "BoundReport",
    "RegionSpec",
    "C_k_eval",
    "C_k_periodic_bound",
    "cycle_types",
    "falling_factorial",
    "main_bound_check",
    "perm_count",
    "region_solve",
    "sieve_identity_F",
]

_MAX_K = 24
DIRECT_MAX_D = 12  # largest |D| that sieve_identity_F enumerates directly
_NEAR_TIE_REL = 1e-12
_MP_PREC = 100  # bits; comfortably past extended double


@lru_cache(maxsize=None)
def cycle_types(k: int) -> tuple[tuple[int, ...], ...]:
    """All cycle types of S_k (integer partitions of k in multiplicity
    form), in descending lexicographic order: (k, 0, ..., 0) first."""
    if not 1 <= k <= _MAX_K:
        raise ValueError(f"k = {k} outside the supported range [1, {_MAX_K}]")
    out = []

    def build(remaining: int, max_part: int, counts: list[int]):
        if remaining == 0:
            out.append(tuple(counts))
            return
        for part in range(min(remaining, max_part), 0, -1):
            counts[part - 1] += 1
            build(remaining - part, part, counts)
            counts[part - 1] -= 1

    build(k, k, [0] * k)
    return tuple(sorted(out, reverse=True))


def perm_count(ctype) -> int:
    """N(c_1, ..., c_k): permutations with exactly c_i cycles of length i."""
    k = sum(i * c for i, c in enumerate(ctype, start=1))
    if k != len(ctype):
        raise ValueError(f"cycle type {ctype} does not describe S_{len(ctype)}")
    denom = 1
    for i, c in enumerate(ctype, start=1):
        denom *= i**c * factorial(c)
    n, rem = divmod(factorial(k), denom)
    assert rem == 0
    return n


def C_k_eval(t_values) -> float | int:
    """C_k(t_1, ..., t_k) = sum over types of N(type) * prod t_i^c_i.

    Stays exact (int/Fraction) whenever the inputs are exact.
    """
    ts = list(t_values)
    k = len(ts)
    total = 0
    for ctype in cycle_types(k):
        term = perm_count(ctype)
        for t, c in zip(ts, ctype):
            if c:
                term *= t**c
        total += term
    return total


def binomial_real(x, j: int):
    """Generalized binomial C(x, j) = prod_{l<j} (x - l)/(j - l), real x."""
    if j < 0:
        raise ValueError("j must be >= 0")
    out = 1
    for l in range(j):
        out = out * (x - l) / (j - l)
    return out


def falling_factorial(x, j: int):
    """(x)_j = x (x-1) ... (x-j+1); (x)_0 = 1."""
    out = 1
    for l in range(j):
        out *= x - l
    return out


def C_k_periodic_bound(s, qv, d: int, k: int) -> tuple[float, float]:
    """Closed form and falling-factorial bound for C_k with periodic
    arguments t_i = qv when d | i and t_i = s otherwise.

    closed = k! * sum_{i<=k/d} C((qv-s)/d + i - 1, i) * C(s + k - d*i - 1, k - d*i)
    bound  = (s + k + (qv-s)/d - 1)_k,  and closed <= bound when qv >= s >= 0.

    Both sides accept real (non-integer) s, which the bound chain needs.
    """
    if not 1 <= k <= _MAX_K:
        raise ValueError(f"k = {k} outside the supported range [1, {_MAX_K}]")
    if d < 1:
        raise ValueError("period d must be >= 1")
    ratio = (qv - s) / d
    closed = 0
    for i in range(k // d + 1):
        closed += binomial_real(ratio + i - 1, i) * binomial_real(s + k - d * i - 1, k - d * i)
    closed *= factorial(k)
    bound = falling_factorial(s + k + ratio - 1, k)
    return closed, bound


def sieve_identity_F(evalset, psi: AdditiveCharacter, k: int) -> tuple[complex, complex]:
    """Both routes to F = sum over distinct-coordinate k-tuples of
    psi(x_1 + ... + x_k):

      direct    - literal enumeration of ordered tuples;
      via_types - C_k at the signed power sums t_l = (-1)^(l-1) S_l, where
                  S_l = sum_{x in D} psi(l*x) and l*x is the prime-field
                  scalar (l mod p) times x.

    The signs give each cycle type its (-1)^(k - #cycles), since k - #cycles
    = sum_l (l-1) c_l.  Small instances only: |D| <= DIRECT_MAX_D and k <= 5.
    """
    from .charsum import _psi_table

    elems = evalset.elems
    F = psi.field
    if len(elems) > DIRECT_MAX_D or not 1 <= k <= 5:
        raise ValueError(f"direct enumeration budget is |D| <= {DIRECT_MAX_D}, k <= 5")
    tab = _psi_table(F, psi.b)

    direct = 0
    for tup in permutations(elems, k):
        acc = 0
        for x in tup:
            acc = F.add(acc, x)
        direct += tab[acc]

    signed_sums = []
    for l in range(1, k + 1):
        scalar = F.from_int(l)
        S_l = sum(tab[F.mul(scalar, x)] for x in elems)
        signed_sums.append(S_l if l % 2 else -S_l)
    return complex(direct), complex(C_k_eval(signed_sums))


class BoundReport(NamedTuple):
    """Outcome of the lhs > rhs falling-factorial comparison."""

    q: int
    n: int
    size_d: int
    k: int
    lhs: float
    rhs: float
    log10_lhs: float
    log10_rhs: float
    guaranteed: bool
    simplified_ok: bool
    near_tie: bool


def _log_falling(x, j: int):
    """ln (x)_j = ln Gamma(x+1) - ln Gamma(x-j+1) at the working precision;
    requires x - j + 1 > 0."""
    import mpmath  # deferred: only the bound check needs it

    return mpmath.loggamma(x + 1) - mpmath.loggamma(x - j + 1)


def main_bound_check(q: int, n: int, size_d: int, k: int) -> BoundReport:
    """Compare (|D|)_{k+1}/q with ((n+1)sqrt(q)/2 + k + |D|/2)_{k+1}.

    guaranteed means lhs > rhs, i.e. every target value admits a
    distinct-coordinate (k+1)-term subset sum from D.  simplified_ok is
    the cruder sufficient chain q^(-1/(k+1)) - 1/2 > c1 + c2 evaluated at
    the tightest constants c1 = (n+1)sqrt(q)/(2|D|), c2 = k/|D|; it
    implies guaranteed.  Comparisons run in 100-bit log space; when the
    two sides agree to within 1e-12 relative the report flags a near-tie
    rather than pretending to resolve it.
    """
    if k + 1 > size_d:
        raise ValueError(f"falling factorial empty: k+1 = {k + 1} > |D| = {size_d}")
    if k < 0 or not 0 < size_d <= q or q <= 1:
        raise ValueError(f"q > 1, 0 < size_d <= q and k >= 0 required (D is a subset of F_{q})")
    import mpmath  # deferred: only the bound check needs it

    with mpmath.workprec(_MP_PREC):
        sq = mpmath.sqrt(q)
        log_lhs = _log_falling(mpmath.mpf(size_d), k + 1) - mpmath.log(q)
        base = (n + 1) * sq / 2 + k + mpmath.mpf(size_d) / 2
        log_rhs = _log_falling(base, k + 1)
        guaranteed = log_lhs > log_rhs
        near = abs(log_lhs - log_rhs) <= _NEAR_TIE_REL * max(
            1, abs(log_lhs), abs(log_rhs)
        )
        simplified = mpmath.power(q, mpmath.mpf(-1) / (k + 1)) - mpmath.mpf(1) / 2 > (
            (n + 1) * sq / 2 + k
        ) / size_d
        lhs_f = float(mpmath.exp(log_lhs)) if log_lhs < 700 else float("inf")
        rhs_f = float(mpmath.exp(log_rhs)) if log_rhs < 700 else float("inf")
        return BoundReport(
            q=q,
            n=n,
            size_d=size_d,
            k=k,
            lhs=lhs_f,
            rhs=rhs_f,
            log10_lhs=float(log_lhs / mpmath.log(10)),
            log10_rhs=float(log_rhs / mpmath.log(10)),
            guaranteed=bool(guaranteed),
            simplified_ok=bool(simplified),
            near_tie=bool(near),
        )


class RegionSpec(NamedTuple):
    """Feasible message-length window [k_min, k_max] for given constants."""

    q: int
    n: int
    size_d: int
    c1: float
    c2: float
    k_min: int
    k_max: int
    gate_lhs: float  # (n+1)/2 * sqrt(q)
    gate_rhs: float  # c1 * |D|
    paper_claim: dict | None = None


# Reference endpoints for the q = 2^16, n = 3, c1 = 0.015 worked example,
# reported alongside our own computation for comparison.  The reference
# gate value 640 does not match (n+1)/2*sqrt(q) = 512 for n = 3, and at
# c1 = 0.015 k_max is 21167; both are surfaced with match flags.
# c1 = (n+2)*sqrt(q)/(2|D|) = 640/43691 reproduces both endpoints.
_PUBLISHED_EXAMPLE = {"q": 65536, "n": 3, "c1": 0.015}
_PUBLISHED_ENDPOINTS = {"k_min": 16, "k_max": 21182, "gate_lhs": 640.0}


def region_solve(q: int, n: int, size_d: int, c1: float) -> RegionSpec:
    """Message-length window for the not-a-deep-hole guarantee.

    Requires the gate (n+1)/2*sqrt(q) < c1*|D|.  k_min = ceil(log2 q);
    k_max is the largest k with k < |D| * (q^(-1/(k+1)) - 1/2 - c1), the
    end of the run of such k that starts at k_min (k_max = k_min - 1 when
    even k_min fails, i.e. the window is empty).  The slack
    |D| * (q^(-1/(k+1)) - 1/2 - c1) - k is concave once k + 1 > ln(q)/2,
    which k_min is past, so the feasible k >= k_min form one interval:
    k_max is found by doubling, then bisection.  c2 is the binding
    constant q^(-1/(k_max+1)) - 1/2 - c1.  |D| must lie in [1, q].
    """
    if not 0 < size_d <= q:
        raise ValueError(f"0 < size_d <= q required (D is a subset of F_{q})")
    gate_lhs = (n + 1) / 2 * sqrt(q)
    gate_rhs = c1 * size_d
    if not gate_lhs < gate_rhs:
        raise ValueError(
            f"gate violated: (n+1)/2*sqrt(q) = {gate_lhs} must be < c1*|D| = {gate_rhs}"
        )
    k_min = ceil(log2(q))

    def feasible(k: int) -> bool:
        return k < size_d * (q ** (-1.0 / (k + 1)) - 0.5 - c1)

    hi = k_min
    while feasible(hi):
        hi *= 2
    k_max = k_min - 1 + bisect_left(range(k_min, hi), True, key=lambda k: not feasible(k))
    c2 = q ** (-1.0 / (k_max + 1)) - 0.5 - c1 if k_max >= k_min else 0.0

    claim = None
    if {"q": q, "n": n, "c1": c1} == _PUBLISHED_EXAMPLE:
        claim = dict(_PUBLISHED_ENDPOINTS)
        claim["k_min_matches"] = k_min == claim["k_min"]
        claim["k_max_matches"] = k_max == claim["k_max"]
        claim["gate_lhs_matches"] = gate_lhs == claim["gate_lhs"]
        claim["discrepancy"] = not (
            claim["k_min_matches"] and claim["k_max_matches"] and claim["gate_lhs_matches"]
        )
    return RegionSpec(
        q=q,
        n=n,
        size_d=size_d,
        c1=c1,
        c2=c2,
        k_min=k_min,
        k_max=k_max,
        gate_lhs=gate_lhs,
        gate_rhs=gate_rhs,
        paper_claim=claim,
    )
