"""Workload definitions: seeded `dickson` argv lists and their output checks.

A workload is a fixed list of CLI invocations (one "pass").  The seed
picks the Dickson parameter `a` (and the character twist `b`) from fixed
ranges; field, n and k never change, so every seed does the same amount
of work.  Each invocation carries a check that parses its stdout and
returns the number of verified report items, or raises CheckError.

The checks re-derive facts from the reports alone, with an independent
digit-wise field addition; they never import the package under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class CheckError(Exception):
    """An invocation's output contradicts an expected invariant."""


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    check: Callable[[bytes], int]  # stdout -> verified item count


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: tuple[str, ...]  # `dickson field` calls that make up setup_s
    build: Callable[[random.Random], list[Invocation]]

    def invocations(self, seed: int) -> list[Invocation]:
        return self.build(random.Random(f"{self.name}:{seed}"))


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckError(msg)


def _field_q(spec: str) -> tuple[int, int]:
    p, _, m = spec.partition("^")
    return int(p), int(m or 1)


def _add(p: int, m: int, x: int, y: int) -> int:
    """Digit-wise sum of two base-p encodings (addition in GF(p^m))."""
    out, scale = 0, 1
    for _ in range(m):
        out += ((x % p + y % p) % p) * scale
        x, y, scale = x // p, y // p, scale * p
    return out


def _picks(rng: random.Random, q: int, count: int) -> list[int]:
    """`count` distinct nonzero field elements, sorted."""
    return sorted(rng.sample(range(1, q), count))


# --- checks ----------------------------------------------------------------


def check_field(spec: str):
    p, m = _field_q(spec)

    def check(out: bytes) -> int:
        doc = json.loads(out)
        _require((doc["p"], doc["m"], doc["q"]) == (p, m, p**m), f"wrong field {doc}")
        _require(len(doc["modulus"]) == m + 1 and doc["modulus"][-1] == 1, "modulus not monic")
        return 1

    return check


def check_suite(expected_pass: int):
    def check(out: bytes) -> int:
        doc = json.loads(out)
        _require(doc["overall_pass"] is True, "suite reported overall_pass = false")
        passed = sum(s["counts"]["pass"] for s in doc["suites"])
        failed = sum(s["counts"]["fail"] for s in doc["suites"])
        _require(failed == 0, f"{failed} suite instances failed")
        _require(passed == expected_pass, f"{passed} passing instances, want {expected_pass}")
        return passed

    return check


def check_deephole(field: str, k: int):
    """Every b1 is decided once; sum of N_u is (|D|)_{k+1}; deep hole iff
    N_u == 0; a non-deep-hole witness is k+1 distinct elements summing to b1."""
    p, m = _field_q(field)

    def check(out: bytes) -> int:
        doc = json.loads(out)
        reps = doc["reports"]
        _require(sorted(r["b1"] for r in reps) == list(range(p**m)), "b1 values not all covered")
        size_d = doc["size_d"]
        falling = 1
        for j in range(k + 1):
            falling *= size_d - j
        _require(sum(r["n_u"] for r in reps) == falling, "sum of N_u != (|D|)_{k+1}")
        for r in reps:
            _require(r["is_deep_hole"] == (r["n_u"] == 0), f"b1={r['b1']}: deep hole vs N_u")
            if r["is_deep_hole"]:
                _require(r["distance"] == size_d - k, f"b1={r['b1']}: deep-hole distance")
                continue
            sub = r["subset"]
            _require(len(set(sub)) == k + 1, f"b1={r['b1']}: witness size")
            acc = 0
            for x in sub:
                acc = _add(p, m, acc, x)
            _require(acc == r["b1"], f"b1={r['b1']}: witness sums to {acc}")
        return len(reps)

    return check


def check_value_set(size: int | None = None, formula_only: bool = False):
    def check(out: bytes) -> int:
        doc = json.loads(out)
        if formula_only:
            _require(isinstance(doc["size_formula"], int), "missing size_formula")
        else:
            _require(doc["match"] is True, "formula and enumeration disagree")
        if size is not None:
            _require(doc["size_formula"] == size, f"|D| = {doc['size_formula']}, want {size}")
        return 1

    return check


def check_preimage(q: int, size_d: int):
    """One report per x0, and sum over x0 of 1/N_x counts each value once."""

    def check(out: bytes) -> int:
        reps = json.loads(out)["reports"]
        _require([r["x0"] for r in reps] == list(range(q)), "x0 values not all covered")
        counts: dict[int, int] = {}
        for r in reps:
            counts[r["count"]] = counts.get(r["count"], 0) + 1
        total = sum(Fraction(mult, c) for c, mult in counts.items())
        _require(total == size_d, f"sum of 1/N_x = {total}, want |D| = {size_d}")
        return len(reps)

    return check


def check_charsum(out: bytes) -> int:
    reps = json.loads(out)["reports"]
    _require(reps and all(r["pass"] is True for r in reps), "character-sum bound failed")
    return len(reps)


def check_region(k_min: int):
    def check(out: bytes) -> int:
        doc = json.loads(out)
        _require(doc["k_min"] == k_min, f"k_min = {doc['k_min']}, want {k_min}")
        _require(doc["k_max"] >= doc["k_min"], "empty feasible window")
        return 1

    return check


def check_bound(out: bytes) -> int:
    _require(json.loads(out)["guaranteed"] is True, "bound not guaranteed")
    return 1


# --- workloads ---------------------------------------------------------------


def _deephole_dp(rng: random.Random) -> list[Invocation]:
    # k = ceil(log2 q) = 6 for both fields, the paper's smallest message length
    out = []
    for field, n, k in (("2^6", 3, 6), ("7^2", 2, 6)):
        p, m = _field_q(field)
        (a,) = _picks(rng, p**m, 1)
        argv = ("deephole", "--field", field, "--n", str(n), "--a", str(a),
                "--k", str(k), "--all-b1")
        out.append(Invocation(argv, check_deephole(field, k)))
    return out


def _deephole_bf(rng: random.Random) -> list[Invocation]:
    # |D|, and so the work, does not depend on a here: D_3(x, a) = x^3 permutes
    # GF(3^3), and every a is a square in GF(2^5), so D_3(bx, b^2) = b^3 D_3(x, 1)
    out = []
    for field, n_a in (("2^5", 2), ("3^3", 1)):
        p, m = _field_q(field)
        a_vals = ",".join(map(str, _picks(rng, p**m, n_a)))
        argv = ("suite", "--field", field, "--suites", "deephole", "--n", "3",
                "--a", a_vals, "--k", "1..2")
        out.append(Invocation(argv, check_suite(expected_pass=2 * n_a)))
    return out


def _spectra(rng: random.Random) -> list[Invocation]:
    out = []
    for field in ("2^10", "3^6"):
        p, m = _field_q(field)
        (a,) = _picks(rng, p**m, 1)
        argv = ("suite", "--field", field, "--suites", "valueset,preimage,charsum,sieve",
                "--n", "2..4", "--a", str(a))
        # 3 cells each for valueset, preimage, charsum, plus the global sieve
        # self-check; every per-cell sieve instance is skipped (|D| > 12)
        out.append(Invocation(argv, check_suite(expected_pass=10)))
    argv = ("suite", "--field", "13", "--suites", "sieve", "--n", "2..12", "--a", "all")
    out.append(Invocation(argv, check_suite(expected_pass=109)))
    return out


def _paperscale(rng: random.Random) -> list[Invocation]:
    a16, b16 = _picks(rng, 1 << 16, 2)
    a10 = _picks(rng, 3**10, 1)[0]
    a11 = _picks(rng, 3**11, 1)[0]
    big = ("--field", "2^16", "--n", "3", "--a", str(a16))
    # |D| = 65535/6 + 65537/2 = 43691 for every a at q = 2^16, n = 3
    size_d = 43691
    return [
        Invocation(("value-set", *big), check_value_set(size=size_d)),
        Invocation(("value-set", "--field", "3^10", "--n", "4", "--a", str(a10)),
                   check_value_set()),
        Invocation(("value-set", "--field", "3^11", "--n", "4", "--a", str(a11), "--formula"),
                   check_value_set(formula_only=True)),
        Invocation(("preimage", *big, "--all-x0"), check_preimage(1 << 16, size_d)),
        Invocation(("charsum", *big, "--which", "weil3", "--b", str(b16)), check_charsum),
        Invocation(("region", *big, "--c1", "0.015"), check_region(k_min=16)),
        Invocation(("bound", *big, "--k", "21182"), check_bound),
    ]


# Two workloads rather than four: on a 2-core shared VM each run must be
# long (a median over several samples of every invocation) to be steady, and
# the total run budget is fixed.  `deephole` exercises rscode and polyring
# and bypasses charsum/sieve; `spectra` does the reverse.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deephole",
            "deephole --all-b1 at k = ceil(log2 q) on 2^6 and 7^2 (subset-sum DPs), deephole "
            "suite with brute-force crosscheck on 2^5 and 3^3 (error_distance_bf, polyring)",
            ("2^6", "7^2", "2^5", "3^3"),
            lambda rng: _deephole_dp(rng) + _deephole_bf(rng),
        ),
        Workload(
            "spectra",
            "valueset/preimage/charsum/sieve suites and paper-size one-shots at q = 2^16, 3^10, "
            "3^11: character tables, gf table builds, sieve bounds, big reports; no subset sums",
            ("2^10", "3^6", "13", "2^16", "3^10", "3^11"),
            lambda rng: _spectra(rng) + _paperscale(rng),
        ),
    )
}
