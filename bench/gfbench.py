"""Microbenchmark of single `gf` field operations and table builds.

    python3 bench/gfbench.py SRC_DIR SEED

`gf` gets no spans in the traced run (a wrapper would cost more than the
op), so its per-op cost is measured here instead: a fixed iteration count
per (op, field kind) over operands drawn from SEED, median of several
batches, reported in ns per op (loop overhead included).  Field kinds:
prime = GF(251), char2 = GF(2^8), oddext = GF(3^5) and large = GF(2^20),
the last above the exp/log table cap, so it takes the direct path.
quad_char is defined for odd q only, so it is measured on prime and
oddext.  Lazy tables are built before timing; their build cost is
reported separately for q = 65536 and q = 59049.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from time import perf_counter, perf_counter_ns

KINDS = {"prime": (251, 1), "char2": (2, 8), "oddext": (3, 5), "large": (2, 20)}
# iterations per batch; the direct-path inv and trace on GF(2^20) cost ~100 us
ITERS = {"large": {"inv": 300, "trace": 300}}
DEFAULT_ITERS = 20000
BATCHES = 5


def _time_op(op, operands, unary: bool) -> float:
    samples = []
    for _ in range(BATCHES):
        if unary:
            t0 = perf_counter_ns()
            for x, _y in operands:
                op(x)
        else:
            t0 = perf_counter_ns()
            for x, y in operands:
                op(x, y)
        samples.append((perf_counter_ns() - t0) / len(operands))
    return statistics.median(samples)


def main() -> int:
    src, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, src)
    from dicksonrs.gf import FiniteField

    rng = random.Random(f"gf:{seed}")
    metrics = {}
    for kind, (p, m) in KINDS.items():
        F = FiniteField(p, m)
        ops = {"add": (F.add, False), "mul": (F.mul, False), "inv": (F.inv, True),
               "trace": (F.trace, True)}
        if p % 2 == 1:
            ops["quad_char"] = (F.quad_char, True)
        for name, (op, unary) in ops.items():
            n = ITERS.get(kind, {}).get(name, DEFAULT_ITERS)
            operands = [(rng.randrange(1, F.q), rng.randrange(1, F.q)) for _ in range(n)]
            op(*operands[0][: 1 if unary else 2])  # build lazy tables first
            metrics[f"gf.{name}_ns.{kind}"] = _time_op(op, operands, unary)
    for label, (p, m) in (("q65536", (2, 16)), ("q59049", (3, 10))):
        F = FiniteField(p, m)
        t0 = perf_counter()
        F._build_tables()
        metrics[f"gf.table_build_s.{label}"] = perf_counter() - t0
    sys.stdout.write(json.dumps(metrics) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
