"""Byte-for-byte regression of CLI reports against committed goldens.

The deephole files under tests/golden/ were produced by the CLI before the
subset-sum table and the unchecked polyring kernels existed; the others
(every README example, one suite grid per runner, a config file with and
without flag overrides, and one-shots for the remaining options) before
the per-subcommand flag sets and the single config parser; the trivial
twist's lemma report before the one-shot handlers returned their reports
to `main`.  The two 2^3 suite CSVs were regenerated once the characteristic-2
weighted sum became an `fsum`, which zeroed their charsum `identity_dev`s.
Any change to a decision, witness, count, float or key order shows up here.

`{golden}` in a command stands for this directory; a command with `--out`
is compared through the file it writes.
"""

import shlex
from pathlib import Path

import pytest

from dicksonrs.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "deephole_2-5_n3_a2_k2_all_b1.json":
        "deephole --field 2^5 --n 3 --a 2 --k 2 --all-b1",
    "deephole_7-2_n2_a4_k3_all_b1.json":
        "deephole --field 7^2 --n 2 --a 4 --k 3 --all-b1",
    "deephole_3-3_n3_a2_k1_all_b1_bf.json":
        "deephole --field 3^3 --n 3 --a 2 --k 1 --all-b1 --brute-force-crosscheck",
    # also the README's --word-poly example
    "deephole_7_n2_a1_k1_word_poly.json":
        "deephole --field 7 --n 2 --a 1 --k 1 --word-poly 0,3,1",
    # the remaining README examples
    "readme_field_2-4.json": "field --field 2^4",
    "readme_value_set_7_elems.json": "value-set --field 7 --n 2 --a 1 --elems",
    "readme_value_set_2-16.json": "value-set --field 2^16 --n 3 --a 1",
    "readme_preimage_7_all_x0.json": "preimage --field 7 --n 2 --a 1 --all-x0",
    "readme_charsum_7_lemma.json":
        "charsum --field 7 --n 2 --a 1 --which lemma --all-characters",
    "readme_charsum_2-4_weil3.json": "charsum --field 2^4 --n 3 --a 1 --which weil3 --b 1",
    "readme_charsum_7_identity.json":
        "charsum --field 7 --n 2 --a 1 --which identity --all-characters",
    "readme_deephole_7_all_b1_bf.json":
        "deephole --field 7 --n 2 --a 1 --k 1 --all-b1 --brute-force-crosscheck",
    "readme_bound_2-16.json": "bound --field 2^16 --n 3 --k 16",
    "readme_region_2-16.json": "region --field 2^16 --n 3 --c1 0.015",
    "readme_suite_7_report.json":
        "suite --field 7 --suites valueset,preimage,charsum --n 2..6 --a all --out report.json",
    "readme_suite_2-2_deephole.csv":
        "suite --field 2^2 --suites deephole --n 2..3 --a all --k 1 --format csv",
    # every runner, the "no degree-(k+1) words" skip and the region-gate skip
    "suite_2-3_all.csv": "suite --field 2^3 --suites all --n 2..3 --a all --k 1..4 --format csv",
    # the sieve's complex-valued sums in odd characteristic, and its |D| skip
    "suite_13_sieve.csv": "suite --field 13 --suites sieve --n 2..12 --a 1,2 --format csv",
    # a config file alone, then with flag overrides (and a DP-budget skip)
    "suite_config.csv": "suite --config {golden}/suite.cfg",
    "suite_config_overrides.json":
        "suite --config {golden}/suite.cfg --format json --n 2 --budget-dp 50",
    # one-shots for the options no README example uses
    "value_set_3-5_formula.json": "value-set --field 3^5 --n 4 --a 7 --formula",
    "value_set_3-11_formula.json": "value-set --field 3^11 --n 4 --a 136580 --formula",
    "value_set_2-5_brute_elems.json": "value-set --field 2^5 --n 3 --a 1 --brute-force --elems",
    "preimage_3-3_x0.json": "preimage --field 3^3 --n 3 --a 2 --x0 5",
    "charsum_2-3_weil1.json": "charsum --field 2^3 --n 3 --a 1 --which weil1 --all-characters",
    "charsum_3-2_weil2.json": "charsum --field 3^2 --n 2 --a 1 --which weil2 --all-characters",
    # the trivial character: bound |D|, which the Weil-type estimate is not
    "charsum_7_lemma_b0.json": "charsum --field 7 --n 2 --a 1 --which lemma --b 0",
    "bound_2-8_size_d.json": "bound --field 2^8 --n 3 --k 8 --size-d 100",
    "region_2-16_size_d.json": "region --field 2^16 --n 3 --c1 0.015 --size-d 40000",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [arg.replace("{golden}", str(GOLDEN)) for arg in shlex.split(CASES[name])]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        assert out == ""
        out = Path(argv[argv.index("--out") + 1]).read_text()
    assert out == (GOLDEN / name).read_text()
