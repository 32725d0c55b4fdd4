"""Additive characters and the four Weil-type bound families.

Identities (equalities in C) are held to charsum.TOL_IDENTITY (1e-9);
inequality slack to -charsum.TOL_SLACK (-1e-6).
Characteristic-2 sums are exact integers, so those comparisons are sharp.
"""

import cmath
import weakref
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import sqrt

import pytest

from dicksonrs import (
    AdditiveCharacter,
    DicksonSpec,
    FiniteField,
    char_eval,
    dickson_eval,
    nontrivial_characters,
    parse_field_spec,
    preimage_count,
    preimage_counts,
    sum_over_value_set,
    value_set,
    weighted_identity_check,
    weighted_sum,
    weil_sum_1,
    weil_sum_2,
    weil_sum_3,
)
import dicksonrs.gf as gf
from dicksonrs import charsum
from dicksonrs.charsum import TOL_IDENTITY, TOL_SLACK, CellSums, characters_by_powers
from dicksonrs.dickson import values_vector


# --- character axioms -------------------------------------------------------


def test_char_at_zero_is_one(grid_fields):
    for F in grid_fields.values():
        for b in F.elements():
            assert char_eval(AdditiveCharacter(F, b), 0) == 1


def test_char_orthogonality(grid_fields):
    for F in grid_fields.values():
        for b in F.units():
            psi = AdditiveCharacter(F, b)
            total = sum(char_eval(psi, x) for x in F.elements())
            assert abs(total) <= 1e-10


def test_char_multiplicative(grid_fields):
    # exhaustive over the full grid: all b, all (x, y) pairs
    for F in grid_fields.values():
        for b in F.elements():
            psi = AdditiveCharacter(F, b)
            vals = [char_eval(psi, x) for x in F.elements()]
            for x in F.elements():
                vx = vals[x]
                for y in F.elements():
                    assert abs(vals[F.add(x, y)] - vx * vals[y]) <= 1e-12


def test_char2_values_exact(grid_fields):
    for q in [4, 8, 16, 32, 64]:
        F = grid_fields[q]
        psi = AdditiveCharacter(F, 3)
        assert {char_eval(psi, x) for x in F.elements()} <= {1 + 0j, -1 + 0j}


@pytest.mark.parametrize("p, m", [(2, 21), (3, 13)])
def test_char_eval_past_the_enumeration_budget_reads_one_trace(p, m):
    # q > 2^20: no table may be built, and psi_b(x) is the p-th root of unity at Tr(b*x)
    F = FiniteField(p, m)
    misses = charsum._psi_table.cache_info().misses
    for b, x in [(1, 5), (7, F.q - 1), (F.q - 2, 12345), (3, 0)]:
        want = (1, -1)[F.trace(F.mul(b, x))] if p == 2 else \
            cmath.exp(2j * cmath.pi * F.trace(F.mul(b, x)) / p)
        assert char_eval(AdditiveCharacter(F, b), x) == complex(want)
    assert charsum._psi_table.cache_info().misses == misses
    with pytest.raises(ValueError):
        char_eval(AdditiveCharacter(F, 1), F.q)


def test_unit_modulus(grid_fields):
    F = grid_fields[49]
    psi = AdditiveCharacter(F, 5)
    for x in F.elements():
        assert abs(abs(char_eval(psi, x)) - 1.0) <= 1e-12


def test_conjugation_symmetry(grid_fields):
    # sum for psi_b is the conjugate of the sum for psi_{-b}
    for q in [7, 9, 13]:
        F = grid_fields[q]
        spec = DicksonSpec(F, 3, 2)
        D = value_set(spec)
        for b in F.units():
            r1 = sum_over_value_set(AdditiveCharacter(F, b), D)
            r2 = sum_over_value_set(AdditiveCharacter(F, F.neg(b)), D)
            assert abs(r1.sum - r2.sum.conjugate()) <= 1e-12


# --- sums over the value set ------------------------------------------------


def test_trivial_character_sums_to_size(grid_fields):
    F = grid_fields[7]
    D = value_set(DicksonSpec(F, 2, 1))
    rep = sum_over_value_set(AdditiveCharacter(F, 0), D)
    assert rep.sum == 4 + 0j
    assert rep.bound == 4.0
    assert not rep.bound_applies


def test_magnitude_bounded_by_terms(grid_fields):
    # triangle inequality on every report shape
    for q in (7, 8):
        F = grid_fields[q]
        spec = DicksonSpec(F, 3, 1)
        D = value_set(spec)
        for b in F.elements():
            psi = AdditiveCharacter(F, b)
            rep = sum_over_value_set(psi, D)
            assert rep.magnitude <= rep.terms + 1e-12
            if b:
                rep = weil_sum_1(psi, spec)
                assert rep.magnitude <= rep.terms + 1e-12


def test_lemma_example_f7(grid_fields):
    # D = {0, 2, 5, 6}, psi_1: direct summation of four 7th roots of unity
    F = grid_fields[7]
    D = value_set(DicksonSpec(F, 2, 1))
    rep = sum_over_value_set(AdditiveCharacter(F, 1), D)
    direct = sum(cmath.exp(2j * cmath.pi * x / 7) for x in (0, 2, 5, 6))
    assert abs(rep.sum - direct) <= 1e-12
    assert abs(rep.magnitude - sqrt(2)) <= 1e-9  # = 1.41421...
    assert abs(rep.bound - 3 * sqrt(7)) <= 1e-12  # = 7.937...
    assert rep.terms == 4 and rep.slack > 0


# --- bound families ---------------------------------------------------------


def test_weil1_degree_one_vanishes(grid_fields):
    # n = 1: the sum is over all of F_q, hence 0; the bound is 0 too
    F = grid_fields[9]
    rep = weil_sum_1(AdditiveCharacter(F, 2), DicksonSpec(F, 1, 1))
    assert rep.bound == 0.0
    assert rep.magnitude <= 1e-10


def test_weil1_gauss_magnitude(grid_fields):
    # n = 2 gives a quadratic Gauss sum of magnitude exactly sqrt(q)
    F = grid_fields[7]
    rep = weil_sum_1(AdditiveCharacter(F, 1), DicksonSpec(F, 2, 1))
    assert abs(rep.magnitude - sqrt(7)) <= 1e-9
    assert rep.bound == sqrt(7)


def test_weil_preconditions(grid_fields):
    F7, F8 = grid_fields[7], grid_fields[8]
    with pytest.raises(ValueError):
        weil_sum_1(AdditiveCharacter(F7, 0), DicksonSpec(F7, 2, 1))
    with pytest.raises(ValueError):
        weil_sum_2(AdditiveCharacter(F8, 1), DicksonSpec(F8, 2, 1))  # even q
    with pytest.raises(ValueError):
        weil_sum_2(AdditiveCharacter(F7, 0), DicksonSpec(F7, 2, 1))  # trivial
    with pytest.raises(ValueError):
        weil_sum_3(1, DicksonSpec(F7, 2, 1))  # odd q
    with pytest.raises(ValueError):
        weil_sum_3(0, DicksonSpec(F8, 2, 1))  # b = 0
    for weil_sum in (weil_sum_1, weil_sum_2):
        with pytest.raises(ValueError, match="bound requires a != 0"):
            weil_sum(AdditiveCharacter(F7, 1), DicksonSpec(F7, 2, 0))
    with pytest.raises(ValueError, match="character and evaluation set live in different fields"):
        sum_over_value_set(AdditiveCharacter(F8, 1), value_set(DicksonSpec(F7, 2, 1)))


def test_weil3_pair_equal_and_bounded(grid_fields):
    # characteristic 2: both sums are exact integers and must coincide
    for q in [4, 8, 16]:
        F = grid_fields[q]
        for n in range(2, 7):
            for a in F.units():
                for b in F.units():
                    r1, r2 = weil_sum_3(b, DicksonSpec(F, n, a))
                    assert r1.sum == r2.sum
                    assert r1.slack >= -TOL_SLACK and r2.slack >= -TOL_SLACK


@pytest.mark.parametrize("m", [3, 5, 8])
def test_weil3_shift_rows_are_equal_in_characteristic_2(m):
    # Tr(a/x^2) = Tr((a^(q/2)/x)^2) = Tr(a^(q/2)/x), so CellSums.pair sums once:
    # the second route's row is the splitting row on F_q^*
    F = parse_field_spec(f"2^{m}")
    for a in (1, 3, 5):
        t_lin = charsum._weil3_shift_tables(F, a)
        assert len(t_lin) == F.q - 1 and t_lin == charsum.splitting_row(F, a)[1:]
        assert CellSums(DicksonSpec(F, 3, a)).shifts_equal


def inverse_shift_rows(field, a, inv):
    """The weil3 rows psi_Tr(a/x^2) and psi_Tr(a^(q/2)/x) on F_q^* from a
    table of inverses, in encoding order: the oracle for the splitting row
    (less x = 0) and for `_weil3_shift_tables`' walk along the powers of g."""
    _, mul = field.kernels()
    tab1 = charsum._psi_table(field, 1)
    sqrt_a = field.pow(a, field.q // 2)
    return (tuple(tab1[mul(a, mul(inv[x], inv[x]))] for x in field.units()),
            tuple(tab1[mul(sqrt_a, inv[x])] for x in field.units()))


def montgomery_inverses(field) -> list[int]:
    """1/x for every unit x from one inversion (Montgomery's trick): inv[x]
    first holds 1*2*...*(x-1), and r runs through 1/(1*2*...*x)."""
    _, mul = field.kernels()
    q, inv = field.q, [1] * field.q
    for x in range(2, q):
        inv[x] = mul(inv[x - 1], x - 1)
    r = field.inv(mul(inv[-1], q - 1))
    for x in range(q - 1, 0, -1):
        inv[x], r = mul(r, inv[x]), mul(r, x)
    return inv


@pytest.mark.parametrize("m", [*range(1, 9), 17])
def test_weil3_shift_rows_match_the_inverse_oracle(m):
    # every a up to 2^8; above the table cap, one sampled a (the oracle takes seconds)
    F = parse_field_spec(f"2^{m}")
    inv = montgomery_inverses(F)
    for a in F.units() if m <= 8 else (0x1D2C5,):
        t_sq, t_lin = inverse_shift_rows(F, a, inv)
        assert charsum.splitting_row(F, a)[1:] == t_sq
        assert charsum._weil3_shift_tables(F, a) == t_lin


@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("field", ["2^6", "3^4", "5^3"])
def test_character_and_shift_rows_match_their_oracles(field, capped, monkeypatch):
    # capped: every field is above the table cap, so the oracle's traces and
    # products are direct, and the weil3 rows read one walk's unit logs
    if capped:
        monkeypatch.setattr(gf, "_TABLE_Q_CAP", 1)
    F = parse_field_spec(field)
    roots = charsum._roots_of_unity(F.p)
    charsum._psi_table.cache_clear()
    for b in F.elements():
        assert charsum._psi_table(F, b) == tuple(roots[F.trace(F.mul(b, x))]
                                                 for x in F.elements())
    if F.p == 2 and capped:  # under the cap, test_weil3_shift_rows_match_the_inverse_oracle
        inv = montgomery_inverses(F)
        for a in F.units():
            charsum._weil3_shift_tables.cache_clear()
            charsum.splitting_row.cache_clear()
            t_sq, t_lin = inverse_shift_rows(F, a, inv)
            assert charsum.splitting_row(F, a)[1:] == t_sq
            assert charsum._weil3_shift_tables(F, a) == t_lin
    for memo in (charsum._psi_table, charsum._weil3_shift_tables, charsum.splitting_row):
        memo.cache_clear()


@pytest.mark.parametrize("field", ["3^5", "2^8"])
def test_whole_field_passes_make_no_power_per_point(field, monkeypatch):
    # every row reads the unit logs and trace forms: a handful of field
    # powers, traces and inverses per pass, not one per point
    calls = Counter()
    for name in ("pow", "quad_char", "trace", "inv"):
        def counted(self, *args, _real=getattr(FiniteField, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(FiniteField, name, counted)
    memos = (values_vector, charsum.splitting_row, charsum._psi_table,
             charsum._weil3_shift_tables, charsum._preimage_weights)
    for memo in memos:
        memo.cache_clear()
    F = parse_field_spec(field)
    for n in (3, 4):
        assert len(list(preimage_counts(DicksonSpec(F, n, 5), F.elements()))) == F.q
        values_vector.cache_clear()
    charsum._psi_table(F, 7)
    if F.p == 2:
        charsum._weil3_shift_tables(F, 5)
    else:
        charsum._eta_vector(F, 5)
    assert 0 < sum(calls.values()) <= 2 * F.m, calls
    for memo in memos:
        memo.cache_clear()


def test_bounds_hold_on_small_grid(grid_fields):
    for q in [4, 5, 7, 8, 9, 13, 16]:
        F = grid_fields[q]
        for n in range(2, 11):
            for a in F.units():
                spec = DicksonSpec(F, n, a)
                D = value_set(spec)
                for psi in nontrivial_characters(F):
                    assert sum_over_value_set(psi, D).slack >= -TOL_SLACK
                    assert weil_sum_1(psi, spec).slack >= -TOL_SLACK
                    if q % 2 == 1:
                        assert weil_sum_2(psi, spec).slack >= -TOL_SLACK


# --- composed sums against term-by-term evaluation ---------------------------

_ORACLE_CELLS = [(2, 1), (3, 2), (4, 3), (5, 1)]


def _oracle_sums(psi, spec):
    """weil1, weil2 (odd q), the weil3 pair (even q) and the weighted sum,
    each evaluated term by term from dickson_eval, char_eval and
    preimage_count in encoding order.  In characteristic 2 the weighted
    sum's real terms are added exactly, as Fractions, and rounded once."""
    F, a = spec.field, spec.a
    psi_1 = AdditiveCharacter(F, 1)
    vals = [dickson_eval(spec, x) for x in F.elements()]
    weighted = [char_eval(psi, v) / preimage_count(spec, x).count for x, v in enumerate(vals)]
    sums = {
        "weil1": sum(char_eval(psi, v) for v in vals),
        "weighted": (complex(sum(Fraction(t.real) for t in weighted)) if F.p == 2
                     else sum(weighted)),
    }
    if F.q % 2 == 1:
        four_a = F.mul(F.from_int(4), a)
        etas = [F.quad_char(F.sub(F.mul(x, x), four_a)) for x in F.elements()]
        sums["weil2"] = sum(e * char_eval(psi, v) for e, v in zip(etas, vals) if e)
    else:
        sqrt_a = F.pow(a, F.q // 2)
        bv = [F.mul(psi.b, v) for v in vals]
        inv = [None] + [F.inv(x) for x in F.units()]
        sums["weil3_sq"] = sum(
            char_eval(psi_1, F.add(bv[x], F.mul(a, F.mul(inv[x], inv[x])))) for x in F.units()
        )
        sums["weil3_lin"] = sum(
            char_eval(psi_1, F.add(bv[x], F.mul(sqrt_a, inv[x]))) for x in F.units()
        )
    return sums


@pytest.mark.parametrize("q", [7, 8, 9, 16, 27])
def test_composed_sums_match_term_by_term_oracle(grid_fields, q):
    # exact in characteristic 2 (every term is +-1 or a float +-1/N_x, and
    # the weighted sum is rounded once); to 1e-12 otherwise
    F = grid_fields[q]
    tol = 0.0 if F.p == 2 else 1e-12
    for n, a in _ORACLE_CELLS:
        spec = DicksonSpec(F, n, a)
        for b in F.units():
            psi = AdditiveCharacter(F, b)
            got = {"weil1": weil_sum_1(psi, spec).sum, "weighted": weighted_sum(psi, spec)}
            if q % 2 == 1:
                got["weil2"] = weil_sum_2(psi, spec).sum
            else:
                got["weil3_sq"], got["weil3_lin"] = (r.sum for r in weil_sum_3(b, spec))
            want = _oracle_sums(psi, spec)
            assert got.keys() == want.keys()
            for key in got:
                assert abs(got[key] - want[key]) <= tol, (q, n, a, b, key)


# --- the weighted identity --------------------------------------------------


def test_weighted_identity_trivial_character(grid_fields):
    # both sides count |D|
    F = grid_fields[9]
    D = value_set(DicksonSpec(F, 4, 2))
    assert weighted_identity_check(AdditiveCharacter(F, 0), D) <= TOL_IDENTITY


def test_weighted_identity_f7_all_characters(grid_fields):
    F = grid_fields[7]
    D = value_set(DicksonSpec(F, 2, 1))
    for b in F.elements():
        assert weighted_identity_check(AdditiveCharacter(F, b), D) <= TOL_IDENTITY


def test_weighted_identity_small_grid(grid_fields):
    for q in [4, 5, 7, 8, 9, 16]:
        F = grid_fields[q]
        for n in range(2, 11):
            for a in F.units():
                D = value_set(DicksonSpec(F, n, a))
                for b in F.elements():
                    assert weighted_identity_check(AdditiveCharacter(F, b), D) <= TOL_IDENTITY


def _one_count_off(real):
    """`preimage_counts` with N_x one too large at x = 1."""
    def counts(spec, xs):
        for rep in real(spec, xs):
            yield rep._replace(count=rep.count + 1) if rep.x0 == 1 else rep

    return counts


@pytest.mark.parametrize("wrong", [False, True], ids=["formula", "one_count_off"])
@pytest.mark.parametrize("field", ["2^3", "2^4", "2^5", "2^6", "3^2", "3^3", "3^4", "5^2",
                                   "7", "13"])
def test_identity_deviation_matches_the_weighted_sum_oracle(field, wrong, monkeypatch):
    # the defect route against |lemma sum - weighted sum| for every b, a and
    # n = 2..5.  The formula leaves every defect empty; with one N_x wrong
    # both routes read the same counts, every defect is nonempty and the
    # suite fails every cell
    F = parse_field_spec(field)
    if wrong:
        monkeypatch.setattr(charsum, "preimage_counts", _one_count_off(charsum.preimage_counts))
    memos = (charsum._fiber_defect, charsum._preimage_weights)
    for memo in memos:
        memo.cache_clear()
    try:
        for n in range(2, 6):
            for a in F.units():
                spec = DicksonSpec(F, n, a)
                D = value_set(spec)
                assert bool(CellSums(spec).defect[1]) == wrong
                for b in F.elements():
                    psi = AdditiveCharacter(F, b)
                    want = abs(sum_over_value_set(psi, D).sum - weighted_sum(psi, spec))
                    assert abs(weighted_identity_check(psi, D) - want) <= 1e-12, (n, a, b)
        if wrong:
            from dicksonrs.cli import ExperimentConfig, run_suite

            cfg = ExperimentConfig.from_text(f"field={field}\nsuites=charsum\nn=2..3\na=all")
            statuses = {inst.status for inst in run_suite(cfg).suites[0].instances}
            assert statuses == {"fail"}
    finally:
        for memo in memos:
            memo.cache_clear()


# --- the walk along powers of a primitive element -------------------------

_WALK_CELLS = [(2, 1), (3, 2), (4, 3), (5, 1)]


def _hex(z) -> tuple[str, str]:
    z = complex(z)
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("p, m", [(7, 1), (13, 1), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2)])
def test_walk_sums_are_bit_identical_to_single_b_functions(p, m):
    # every sum the walk feeds the suites equals the public single-b
    # function's float for float, for every nontrivial b (the suites read
    # the trivial one from `character_sum` itself)
    F = FiniteField(p, m)
    # each cell builds its own D, which the public lemma sum is handed
    cells = [CellSums(DicksonSpec(F, n, a)) for n, a in _WALK_CELLS]
    seen = []
    for b, tab in characters_by_powers(F):
        seen.append(b)
        psi = AdditiveCharacter(F, b)
        assert list(tab) == list(charsum._psi_table(F, b))
        for cell in cells:
            spec, row = cell.spec, cell.row(tab)
            pairs = [
                (cell.lemma(tab), sum_over_value_set(psi, cell.D)),
                (cell.weil1(row), weil_sum_1(psi, spec)),
            ]
            if F.q % 2 == 1:  # the split sum is weil2, and the pair is that sum twice
                pairs.append((cell.split(row), weil_sum_2(psi, spec)))
                assert cell.pair(row) == (pairs[-1][0],) * 2
            else:  # the split sum is the first of the weil3 pair
                pairs.extend(zip(cell.pair(row), weil_sum_3(b, spec)))
                pairs.append((cell.split(row), weil_sum_3(b, spec)[0]))
            for got, want in pairs:
                assert _hex(got.sum) == _hex(want.sum), (p, m, b, spec)
                assert got.slack.hex() == want.slack.hex()
                assert (got.bound, got.terms) == (want.bound, want.terms)
    assert sorted(seen) == list(F.units())


def _run_charsum_suite(monkeypatch, text):
    """Run a charsum-only suite with every table recorded: the tables each
    walk over the characters yielded, and, per cell in grid order, the
    tables its rows read.  All are kept alive, so their ids stay distinct."""
    from dicksonrs.cli import ExperimentConfig, run_suite

    walks, rows = [], {}
    real_walk, real_row = charsum.characters_by_powers, CellSums.row

    def walk(field):
        walks.append([])
        for b, tab in real_walk(field):
            walks[-1].append(tab)
            yield b, tab

    def row(cell, tab):
        rows.setdefault(cell.spec, []).append(tab)
        return real_row(cell, tab)

    monkeypatch.setattr(charsum, "characters_by_powers", walk)
    monkeypatch.setattr(CellSums, "row", row)
    charsum._psi_table.cache_clear()
    cfg = ExperimentConfig.from_text(text)
    report = run_suite(cfg)
    assert all(inst.status == "pass" for inst in report.suites[0].instances)
    return parse_field_spec(cfg.field), walks, list(rows.values())


def test_charsum_suite_builds_each_table_once_in_a_bounded_cache(monkeypatch):
    # 2 * 63 (n, a) cells, each with its own walk: _psi_table builds psi_1 once
    # (the identity's defect covers the trivial character), each of the other
    # 62 characters costs one gather per cell, and each cell reads one row per
    # character, from a distinct table
    F, walks, rows = _run_charsum_suite(monkeypatch, "field=2^6\nsuites=charsum\nn=2..3")
    info = charsum._psi_table.cache_info()
    assert info.misses == 1
    assert info.currsize <= charsum._PSI_CACHE_SIZE
    assert len(walks) == len(rows) == 2 * 63
    psi_1 = charsum._psi_table(F, 1)
    assert all(walk[0] is psi_1 and len(walk) == F.q - 1 for walk in walks)  # q - 2 steps
    assert all(len({id(tab) for tab in tabs}) == len(tabs) == F.q - 1 for tabs in rows)


def test_charsum_suite_composes_each_row_once(monkeypatch):
    # 31 characters on 2 cells; the weil1 and weil3 sums of one (character,
    # cell) share a row, so each cell reads every table of its own walk
    # exactly once, in the walk's order
    F, walks, rows = _run_charsum_suite(monkeypatch, "field=2^5\nsuites=charsum\nn=2..3\na=1")
    assert len(walks) == len(rows) == 2
    for walk, tabs in zip(walks, rows):
        assert len(tabs) == 31
        assert [id(tab) for tab in tabs] == [id(tab) for tab in walk]


def test_charsum_suite_holds_one_cell_at_a_time(monkeypatch):
    # each cell is judged and dropped before the next is built, so the
    # suite's memory is one cell's rows whatever the grid
    from dicksonrs.cli import ExperimentConfig, run_suite

    live, seen = weakref.WeakSet(), []

    class Recorded(CellSums):
        def __init__(self, *args):
            super().__init__(*args)
            live.add(self)

        def row(self, tab):
            seen.append(len(live))
            return super().row(tab)

    monkeypatch.setattr(charsum, "CellSums", Recorded)
    report = run_suite(ExperimentConfig.from_text("field=2^4\nsuites=charsum\nn=2..3\na=all"))
    assert [inst.status for inst in report.suites[0].instances] == ["pass"] * 30
    assert len(seen) == 30 * 15
    assert max(seen) == 1


class _SlicedRow(tuple):
    """A splitting row that counts the slices taken of it: each is a copy."""

    slices = 0

    def __getitem__(self, i):
        if isinstance(i, slice):
            _SlicedRow.slices += 1
        return super().__getitem__(i)


@pytest.mark.parametrize("field", ["2^5", "3^3"])
def test_charsum_suite_builds_one_splitting_row_per_a_and_no_copy(field, monkeypatch):
    # weil2, the weil3 pair's check, the defect's preimage counts: one row per
    # cell, which all of them share.  The cells run in grid order (n-major), so
    # a changes from each cell to the next and the one-entry memo rebuilds it
    from dicksonrs import dickson

    built, real = [], dickson.splitting_row

    @lru_cache(maxsize=1)
    def rows(field, a):
        built.append(a)
        return _SlicedRow(real(field, a))

    for module in (dickson, charsum):
        monkeypatch.setattr(module, "splitting_row", rows)
    monkeypatch.setattr(_SlicedRow, "slices", 0)
    charsum._weil3_shift_tables.cache_clear()
    from dicksonrs.cli import ExperimentConfig, run_suite

    F = parse_field_spec(field)
    report = run_suite(ExperimentConfig.from_text(f"field={field}\nsuites=charsum\nn=2..4"))
    assert [inst.status for inst in report.suites[0].instances] == ["pass"] * 3 * (F.q - 1)
    assert built == list(F.units()) * 3
    assert _SlicedRow.slices == 0


def test_library_loops_over_specs_hold_one_entry_per_memo():
    # each public call builds a fresh CellSums; a loop over 16 values of a
    # leaves one spec's rows behind, not one per spec.  The splitting row
    # serves weil3, the defect and the weights in 2^5, then weil2 in 3^3:
    # two misses per a
    memos = [values_vector, charsum._weil3_shift_tables, charsum.splitting_row,
             charsum._fiber_defect, charsum._preimage_weights]
    for memo in memos:
        memo.cache_clear()
    F2, F3 = FiniteField(2, 5), FiniteField(3, 3)
    for a in range(1, 17):
        spec = DicksonSpec(F2, 3, a)
        psi = AdditiveCharacter(F2, a)
        weil_sum_1(psi, spec)
        weil_sum_3(a, spec)
        weighted_identity_check(psi, value_set(spec))
        weighted_sum(psi, spec)
        weil_sum_2(AdditiveCharacter(F3, a), DicksonSpec(F3, 3, a))
    assert [memo.cache_info().misses for memo in memos] == [32, 16, 32, 16, 16]
    assert all(memo.cache_info().currsize <= 1 for memo in memos)
