"""Byte-for-byte regression of deephole reports against committed goldens.

The files under tests/golden/ were produced by the CLI before the
subset-sum table and the unchecked polyring kernels existed; any change to
a decision, witness, count or key order shows up here.
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
    "deephole_7_n2_a1_k1_word_poly.json":
        "deephole --field 7 --n 2 --a 1 --k 1 --word-poly 0,3,1",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, capsys):
    assert main(shlex.split(CASES[name])) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_text()
