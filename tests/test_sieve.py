"""Cycle-type combinatorics, the periodic closed form, and the bound chain."""

from itertools import permutations
from math import factorial, isclose, sqrt

import pytest

from dicksonrs import (
    AdditiveCharacter,
    C_k_eval,
    C_k_periodic_bound,
    DicksonSpec,
    FiniteField,
    char_eval,
    cycle_types,
    falling_factorial,
    main_bound_check,
    perm_count,
    region_solve,
    sieve_identity_F,
    value_set,
    value_set_size,
)
from dicksonrs.sieve import binomial_real

# --- cycle types and permutation counts --------------------------------------


def test_cycle_types_small():
    assert cycle_types(1) == ((1,),)
    assert cycle_types(2) == ((2, 0), (0, 1))
    assert len(cycle_types(5)) == 7  # partitions of 5


def test_cycle_types_range_guard():
    with pytest.raises(ValueError):
        cycle_types(0)
    with pytest.raises(ValueError):
        cycle_types(25)
    cycle_types(24)  # the cap itself is fine


def test_perm_count_examples():
    assert perm_count((3, 0, 0)) == 1  # identity type
    assert perm_count((1, 1, 0)) == 3  # transpositions in S_3
    assert perm_count((0, 0, 1)) == 2  # 3-cycles


def test_perm_counts_partition_factorial():
    for k in range(1, 11):
        assert sum(perm_count(t) for t in cycle_types(k)) == factorial(k)


def test_perm_count_bad_type():
    with pytest.raises(ValueError):
        perm_count((1, 1))  # sums to 3, length 2


# --- C_k ----------------------------------------------------------------------


def test_C2_C3_closed_forms():
    t1, t2, t3 = 5, 11, 4
    assert C_k_eval([t1, t2]) == t1**2 + t2
    s, q = 3, 10
    assert C_k_eval([s, q, s]) == s**3 + 3 * s * q + 2 * s


def test_Ck_constant_args_rising_factorial():
    for k in range(1, 11):
        for t in (1, 2, 7):
            rising = 1
            for j in range(k):
                rising *= t + j
            assert C_k_eval([t] * k) == rising


def _brute_Ck(ts):
    """Sum over S_k of the product of t_(cycle length) over cycles."""
    k = len(ts)
    total = 0
    for perm in permutations(range(k)):
        seen = [False] * k
        prod = 1
        for i in range(k):
            if seen[i]:
                continue
            length, j = 0, i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            prod *= ts[length - 1]
        total += prod
    return total


def test_Ck_matches_symmetric_group_bruteforce():
    for k in range(1, 8):
        ts = [2 + (i % 3) for i in range(k)]
        assert C_k_eval(ts) == _brute_Ck(ts)
        ts = [1 + i for i in range(k)]
        assert C_k_eval(ts) == _brute_Ck(ts)


# --- periodic closed form and falling-factorial bound -------------------------


def test_periodic_degenerate_period_is_rising_factorial():
    for k in range(1, 9):
        closed, bound = C_k_periodic_bound(6.0, 6.0, 1, k)
        rising = 1.0
        for j in range(k):
            rising *= 6.0 + j
        assert isclose(closed, rising, rel_tol=1e-12)
        assert closed <= bound * (1 + 1e-12)


@pytest.mark.parametrize("call, message", [
    (lambda: C_k_periodic_bound(2.5, 9.0, 2, 0), "k = 0 outside"),
    (lambda: C_k_periodic_bound(2.5, 9.0, 0, 3), "period d"),
    (lambda: binomial_real(2.5, -1), "j must be >= 0"),
], ids=["k", "d", "binomial-j"])
def test_periodic_bound_rejects_out_of_range_arguments(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_periodic_integer_cases_match_Ck():
    for s, qv, d in [(3, 7, 2), (2, 10, 4), (0, 6, 3), (5, 5, 2), (1, 9, 2)]:
        for k in range(1, 8):
            ts = [qv if i % d == 0 else s for i in range(1, k + 1)]
            closed, _ = C_k_periodic_bound(s, qv, d, k)
            assert isclose(closed, C_k_eval(ts), rel_tol=1e-9), (s, qv, d, k)


def test_periodic_closed_below_falling_bound_real_args():
    # includes the irrational s = (n+1)*sqrt(q) shape the bound chain uses
    for q in (7, 9, 16, 64):
        for n in (2, 3, 5):
            s = (n + 1) * sqrt(q)
            for d in (1, 2, 3):
                for k in range(1, 21):
                    qv = float(q)
                    if qv < s:
                        continue
                    closed, bound = C_k_periodic_bound(s, qv, d, k)
                    assert closed <= bound * (1 + 1e-9), (q, n, d, k)


# --- the distinct-coordinate identity -----------------------------------------


def test_sieve_identity_k1_and_k2(grid_fields):
    F = grid_fields[7]
    D = value_set(DicksonSpec(F, 2, 1))
    psi = AdditiveCharacter(F, 1)
    d1, v1 = sieve_identity_F(D, psi, 1)
    assert abs(d1 - v1) <= 1e-12
    # k = 2: direct = S_1^2 - S_2
    tab = [char_eval(psi, x) for x in F.elements()]
    s1 = sum(tab[x] for x in D.elems)
    s2 = sum(tab[F.mul(F.from_int(2), x)] for x in D.elems)
    d2, v2 = sieve_identity_F(D, psi, 2)
    assert abs(d2 - (s1 * s1 - s2)) <= 1e-12
    assert abs(d2 - v2) <= 1e-12


def test_sieve_identity_f7_k3(grid_fields):
    F = grid_fields[7]
    D = value_set(DicksonSpec(F, 2, 1))
    direct, via = sieve_identity_F(D, AdditiveCharacter(F, 1), 3)
    assert abs(direct - via) <= 1e-9


def test_sieve_identity_trivial_counts_tuples(grid_fields):
    F = grid_fields[7]
    D = value_set(DicksonSpec(F, 2, 1))
    direct, via = sieve_identity_F(D, AdditiveCharacter(F, 0), 3)
    assert direct == complex(falling_factorial(4, 3))
    assert via == direct


def test_sieve_identity_small_instances(grid_fields):
    for q in [4, 8, 9, 13]:
        F = grid_fields[q]
        for n in (2, 3):
            for a in (1, 2):
                if a >= F.q:
                    continue
                D = value_set(DicksonSpec(F, n, a))
                if D.size > 12:
                    continue
                for b in (1, 3):
                    psi = AdditiveCharacter(F, b % F.q)
                    for k in range(1, min(5, D.size) + 1):
                        direct, via = sieve_identity_F(D, psi, k)
                        assert abs(direct - via) <= 1e-9


def test_sieve_identity_budget_guard(grid_fields):
    F = grid_fields[16]
    D = value_set(DicksonSpec(F, 2, 1))  # squaring is a bijection: |D| = 16
    with pytest.raises(ValueError):
        sieve_identity_F(D, AdditiveCharacter(F, 1), 2)


# --- bound chain ---------------------------------------------------------------


def test_main_bound_rejects_short_D():
    with pytest.raises(ValueError):
        main_bound_check(7, 2, 4, 4)  # k+1 = 5 > |D| = 4


def test_main_bound_worked_example_point():
    rep = main_bound_check(65536, 3, 43691, 16)
    assert rep.guaranteed
    assert rep.simplified_ok
    assert not rep.near_tie
    assert rep.log10_lhs > rep.log10_rhs


def test_main_bound_small_point_fails():
    rep = main_bound_check(7, 2, 4, 2)
    assert not rep.guaranteed
    assert isclose(rep.lhs, 24 / 7, rel_tol=1e-12)


def test_main_bound_large_k_log_path():
    rep = main_bound_check(65536, 3, 43691, 2000)
    assert rep.lhs == float("inf")  # too big for a double, log path decides
    assert rep.guaranteed
    assert rep.log10_lhs > rep.log10_rhs


def test_main_bound_exact_chain_ends_at_21316():
    # q = 2^16, n = 3: the exact chain holds up to k = 21316 and fails after
    assert main_bound_check(65536, 3, 43691, 21316).guaranteed
    assert not main_bound_check(65536, 3, 43691, 21317).guaranteed


def _log_falling_loop(x, j):
    """ln (x)_j as j logarithms summed in order: the closed form's oracle."""
    import mpmath

    total = mpmath.mpf(0)
    for l in range(j):
        total += mpmath.log(x - l)
    return total


def test_log_falling_closed_form_matches_log_sum():
    # the doubles main_bound_check derives (log10, and exp below 700) agree
    # bit for bit, with and without the 1/q factor, up to j = |D|
    import mpmath

    from dicksonrs.sieve import _MP_PREC, _log_falling

    for q, n, size_d in [(7, 2, 4), (64, 3, 33), (243, 4, 62), (1024, 4, 200), (65536, 3, 43691)]:
        js = {1, 2, 3, size_d // 2, size_d - 1, size_d} if q < 65536 else {1, 17, 2000, 21317}
        with mpmath.workprec(_MP_PREC):
            base = (n + 1) * mpmath.sqrt(q) / 2 + mpmath.mpf(size_d) / 2
            for j in sorted(js):
                for x in (mpmath.mpf(size_d), base + j - 1):
                    for shift in (0, mpmath.log(q)):
                        want = _log_falling_loop(x, j) - shift
                        got = _log_falling(x, j) - shift
                        assert float(got / mpmath.log(10)) == float(want / mpmath.log(10))
                        if want < 700:
                            assert float(mpmath.exp(got)) == float(mpmath.exp(want))


def test_simplified_implies_guaranteed():
    for q, n, size_d in [(65536, 3, 43691), (64, 3, 33), (49, 2, 21)]:
        for k in range(1, min(size_d - 1, 40)):
            rep = main_bound_check(q, n, size_d, k)
            if rep.simplified_ok:
                assert rep.guaranteed


def test_guarantee_no_reentry():
    # once the guarantee turns off as k grows, it stays off
    for q, n, size_d in [(65536, 3, 43691), (64, 3, 33), (1024, 4, 200)]:
        pattern = []
        for k in range(1, min(size_d - 1, 120)):
            pattern.append(main_bound_check(q, n, size_d, k).guaranteed)
        fell = False
        for prev, cur in zip(pattern, pattern[1:]):
            if prev and not cur:
                fell = True
            if fell:
                assert not cur


# --- region solver --------------------------------------------------------------


def _oracle_scan_k_max(q, size_d, c1, k_min):
    k = k_min
    best = k_min - 1
    while k < size_d * (q ** (-1.0 / (k + 1)) - 0.5 - c1):
        best = k
        k += 1
    return best


# q = p^1 .. p^top at n = 2, 3, 4 (a = 1), c1 from 0.001 to 0.4 on a geometric
# grid wherever the gate holds: empty windows and windows thousands of k wide
@pytest.mark.parametrize("p, top", [(2, 18), (3, 11), (5, 7), (7, 6), (13, 4)])
def test_region_k_max_matches_the_scan(p, top):
    widths = []
    for m in range(1, top + 1):
        F = FiniteField(p, m)
        for n in (2, 3, 4):
            size_d = value_set_size(DicksonSpec(F, n, 1))
            for c1 in [0.001 * 1.25**j for j in range(27)]:
                if (n + 1) / 2 * sqrt(F.q) < c1 * size_d:
                    region = region_solve(F.q, n, size_d, c1)
                    oracle = _oracle_scan_k_max(F.q, size_d, c1, region.k_min)
                    assert region.k_max == oracle, (F, n, c1)
                    widths.append(region.k_max - region.k_min + 1)
    assert min(widths) == 0 and max(widths) > 1


def test_region_worked_example_endpoints():
    region = region_solve(65536, 3, 43691, 0.015)
    assert region.k_min == 16
    assert region.k_max == _oracle_scan_k_max(65536, 43691, 0.015, 16)
    claim = region.paper_claim
    assert claim is not None
    assert claim["k_min"] == 16 and claim["k_max"] == 21182
    assert claim["k_min_matches"]
    # the reference k_max fails the scan inequality; the report carries
    # both values and a flag instead of asserting the reference number
    assert claim["discrepancy"] == (not claim["k_max_matches"] or not claim["gate_lhs_matches"])


@pytest.mark.parametrize("c1", [float("inf"), float("nan"), float("-inf")])
def test_region_refuses_a_non_finite_c1(c1):
    with pytest.raises(ValueError, match="c1 must be finite"):
        region_solve(65536, 3, 43691, c1)


def test_region_tight_c1_reproduces_published_endpoints():
    # c1 = (n+2) sqrt(q) / (2|D|) = 640/43691 gives k_max = 21182 and c1*|D| = 640
    region = region_solve(65536, 3, 43691, 640 / 43691)
    assert (region.k_min, region.k_max, region.gate_rhs) == (16, 21182, 640.0)


def test_region_window_members_feasible():
    region = region_solve(65536, 3, 43691, 0.015)
    for k in list(range(16, 80)) + [region.k_max]:
        assert k < region.size_d * (65536 ** (-1.0 / (k + 1)) - 0.5 - region.c1)
    assert not (
        region.k_max + 1
        < region.size_d * (65536 ** (-1.0 / (region.k_max + 2)) - 0.5 - region.c1)
    )


def test_region_gate_violation_raises():
    with pytest.raises(ValueError):
        region_solve(7, 2, 4, 0.015)  # (n+1)/2*sqrt(q) = 3.97 >= 0.06


def test_region_no_paper_claim_elsewhere():
    region = region_solve(65536, 3, 43691, 0.02)
    assert region.paper_claim is None
