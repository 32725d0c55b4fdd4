"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -s` to see one PASS/FAIL line
per criterion.  Tolerances: exact equality for all counting results,
charsum.TOL_SLACK (1e-6) for character-sum inequalities, charsum.TOL_IDENTITY
(1e-9) for identities in C.
"""

from itertools import permutations
import pytest

from dicksonrs import (
    AdditiveCharacter,
    C_k_eval,
    C_k_periodic_bound,
    DicksonSpec,
    RSCodeSpec,
    ReceivedWord,
    count_Nu,
    deg_k1_deep_hole_test,
    error_distance_bf,
    main_bound_check,
    monomial_word,
    preimage_count,
    region_solve,
    sieve_identity_F,
    sum_over_value_set,
    value_counts,
    value_set,
    value_set_size_formula,
    weighted_identity_check,
    weil_sum_1,
    weil_sum_2,
    weil_sum_3,
)
from dicksonrs.charsum import TOL_IDENTITY, TOL_SLACK
from dicksonrs.dickson import values_vector

N_RANGE = range(2, 13)


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def deephole_instances(grid_fields):
    """Criterion 7/9 instances: q in {7, 8}, Dickson sets from (n=2, a=1)
    and (n=3, a=1), k in {1, 2}.  Each entry is (dickson_degree, code)."""
    out = []
    for q in (7, 8):
        F = grid_fields[q]
        for n in (2, 3):
            D = value_set(DicksonSpec(F, n, 1))
            for k in (1, 2):
                if k + 2 > D.size:
                    continue
                out.append((n, RSCodeSpec.from_evaluation_set(D, k)))
    return out


def test_criterion_1_value_set_sizes(grid_fields):
    mismatches = 0
    cells = 0
    for F in grid_fields.values():
        for n in N_RANGE:
            for a in F.units():
                spec = DicksonSpec(F, n, a)
                cells += 1
                if value_set_size_formula(spec).size != len(value_counts(spec)):
                    mismatches += 1
    _verdict(1, mismatches == 0,
             f"value-set formula vs enumeration: {mismatches} mismatches over {cells} cells")


def test_criterion_2_value_set_2_16(f2_16):
    ok = True
    for a in range(1, f2_16.q, 4099):  # formula across a spread of a values
        ok = ok and value_set_size_formula(DicksonSpec(f2_16, 3, a)).size == 43691
    sizes = []
    for a in (1, 777):  # full 65536-point enumerations
        sizes.append(value_set(DicksonSpec(f2_16, 3, a)).size)
    ok = ok and sizes == [43691, 43691]
    _verdict(2, ok, f"q=2^16, n=3: formula 43691, enumerated sizes {sizes}")


def test_criterion_3_preimage_counts(grid_fields):
    mismatches = 0
    points = 0
    for F in grid_fields.values():
        for n in N_RANGE:
            for a in F.units():
                spec = DicksonSpec(F, n, a)
                counts = value_counts(spec)
                vals = values_vector(spec)
                for x0 in F.elements():
                    points += 1
                    if preimage_count(spec, x0).count != counts[vals[x0]]:
                        mismatches += 1
    _verdict(3, mismatches == 0,
             f"preimage formula vs brute force: {mismatches} mismatches over {points} points")


def test_criterion_4_character_sum_bounds(grid_fields):
    worst_slack = float("inf")
    worst_pair = 0.0
    sums = 0
    for F in grid_fields.values():
        for n in N_RANGE:
            for a in F.units():
                spec = DicksonSpec(F, n, a)
                D = value_set(spec)
                for b in F.units():
                    psi = AdditiveCharacter(F, b)
                    worst_slack = min(worst_slack, sum_over_value_set(psi, D).slack)
                    worst_slack = min(worst_slack, weil_sum_1(psi, spec).slack)
                    sums += 2
                    if F.q % 2 == 1:
                        worst_slack = min(worst_slack, weil_sum_2(psi, spec).slack)
                        sums += 1
                    else:
                        r1, r2 = weil_sum_3(b, spec)
                        worst_slack = min(worst_slack, r1.slack, r2.slack)
                        worst_pair = max(worst_pair, abs(r1.sum - r2.sum))
                        sums += 2
    ok = worst_slack >= -TOL_SLACK and worst_pair <= TOL_IDENTITY
    _verdict(4, ok,
             f"{sums} bounded sums: worst slack {worst_slack:.3e}, "
             f"worst even-q pair deviation {worst_pair:.3e}")


def test_criterion_5_weighted_identity(grid_fields):
    worst = 0.0
    checks = 0
    for F in grid_fields.values():
        for n in N_RANGE:
            for a in F.units():
                D = value_set(DicksonSpec(F, n, a))
                for b in F.elements():
                    worst = max(worst, weighted_identity_check(AdditiveCharacter(F, b), D))
                    checks += 1
    _verdict(5, worst <= TOL_IDENTITY,
             f"weighted identity over {checks} (psi, n, a) cells: max deviation {worst:.3e}")


def test_criterion_6_sieve_correctness(grid_fields):
    ok = True
    # C_k against literal symmetric-group enumeration, k <= 7, exact
    def brute(ts):
        k = len(ts)
        total = 0
        for perm in permutations(range(k)):
            seen = [False] * k
            prod = 1
            for i in range(k):
                if seen[i]:
                    continue
                ln, j = 0, i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
                    ln += 1
                prod *= ts[ln - 1]
            total += prod
        return total

    for k in range(1, 8):
        ts = [2 + (i % 4) for i in range(k)]
        ok = ok and C_k_eval(ts) == brute(ts)
    # rising factorial, k <= 10, exact
    for k in range(1, 11):
        rising = 1
        for j in range(k):
            rising *= 3 + j
        ok = ok and C_k_eval([3] * k) == rising
    # closed form <= falling bound on a 200-point grid
    grid_points = 0
    for s in (0.0, 1.5, 4.0, 9.5, 12.0):
        for qv in (16.0, 27.0, 64.0, 101.0):
            for d in (1, 2):
                for k in (1, 2, 3, 5, 8):
                    closed, bound = C_k_periodic_bound(s, qv, d, k)
                    ok = ok and closed <= bound * (1 + 1e-9)
                    grid_points += 1
    # inclusion-exclusion identity on small real instances
    worst = 0.0
    for q in (7, 8, 9):
        F = grid_fields[q]
        for n in (2, 3):
            D = value_set(DicksonSpec(F, n, 1))
            if D.size > 12:
                continue
            for b in (0, 1, 2):
                psi = AdditiveCharacter(F, b)
                for k in range(1, min(5, D.size) + 1):
                    direct, via = sieve_identity_F(D, psi, k)
                    worst = max(worst, abs(direct - via))
    ok = ok and worst <= TOL_IDENTITY
    _verdict(6, ok,
             f"C_k exact checks, {grid_points} closed<=bound points, "
             f"identity max deviation {worst:.3e}")


def test_criterion_7_deep_hole_equivalence(deephole_instances):
    checked = 0
    disagreements = 0
    witness_bad = 0
    for _, code in deephole_instances:
        F = code.field
        size = code.length
        for b1 in F.elements():
            word = monomial_word(code, b1)
            dist = error_distance_bf(word).distance
            res = deg_k1_deep_hole_test(word)
            checked += 1
            if (dist <= size - code.k - 1) != (not res.is_deep_hole):
                disagreements += 1
            if not res.is_deep_hole:
                hamming = sum(
                    1
                    for x, u in zip(code.points, word.values)
                    if res.codeword.evaluate(x) != u
                )
                if hamming != size - code.k - 1 or res.codeword.degree > code.k - 1:
                    witness_bad += 1
    ok = disagreements == 0 and witness_bad == 0
    _verdict(7, ok,
             f"{checked} words: {disagreements} distance/subset-sum disagreements, "
             f"{witness_bad} bad witnesses")


def test_criterion_8_known_deep_holes(grid_fields, deephole_instances):
    ok = True
    # degree-k words sit at the covering radius on every criterion-7 code
    for _, code in deephole_instances:
        F = code.field
        word = ReceivedWord(code, (F.pow(x, code.k) for x in code.points))
        ok = ok and error_distance_bf(word).distance == code.length - code.k
    # x^(q-2) words on D = F_q^*
    for q in (5, 7, 8, 9):
        F = grid_fields[q]
        for k in (2, 3):
            code = RSCodeSpec(F, tuple(F.units()), k)
            word = ReceivedWord(code, (F.pow(x, q - 2) for x in code.points))
            ok = ok and error_distance_bf(word).distance == (q - 1) - k
    _verdict(8, ok, "degree-k and inverse-monomial words all reach |D| - k")


def test_criterion_9_counting_consistency(deephole_instances):
    ok = True
    for n, code in deephole_instances:
        F = code.field
        size, k = code.length, code.k
        fall = 1
        for j in range(k + 1):
            fall *= size - j
        nus = [count_Nu(code, b1) for b1 in F.elements()]
        ok = ok and sum(nus) == fall
        # the sieve bound for this code's own Dickson degree dominates
        bound = main_bound_check(F.q, n, size, k).rhs
        ok = ok and all(abs(nu - fall / F.q) <= bound for nu in nus)
    _verdict(9, ok, "sum_b1 N_u = (|D|)_{k+1} and deviations within the sieve bound")


def test_criterion_10_region_solver():
    region = region_solve(65536, 3, 43691, 0.015)
    # independent monotone-scan oracle
    k, best = 16, 15
    while k < 43691 * (65536 ** (-1.0 / (k + 1)) - 0.5 - 0.015):
        best = k
        k += 1
    claim = region.paper_claim
    ok = (
        region.k_min == 16
        and region.k_max == best
        and claim is not None
        and claim["k_max"] == 21182
        and claim["discrepancy"] == (region.k_max != 21182)
    )
    _verdict(10, ok,
             f"k_min={region.k_min}, k_max={region.k_max} (oracle {best}); "
             f"paper_claim k_max=21182 reported, discrepancy={claim['discrepancy']}")
