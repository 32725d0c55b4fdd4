"""Fixed pure-Python reference work, independent of the package under test.

    python3 bench/refloop.py

bench/run.py runs this in a fresh interpreter between the timed
invocations.  On a shared host the speed of a core drifts by tens of
percent over minutes; the program and this loop run on the same
interpreter and feel the same drift, so the program's times divided by
this loop's time measure the program, not the host.  The loop mixes what
the package's hot paths do: list-indexed table lookups inside nested
loops, small-int arithmetic and method calls.  Nothing here may change
when the package changes.
"""

ROUNDS = 6
Q = 256


class Table:
    def __init__(self, q: int):
        self.q = q
        self.add_t = [(x * 7 + 3) % q for x in range(q)]

    def add(self, x: int, y: int) -> int:
        return self.add_t[x ^ y]


def main() -> int:
    t = Table(Q)
    rows = [[0] * Q for _ in range(8)]
    rows[0][0] = 1
    for r in range(ROUNDS):
        for e in range(1, Q, 3):
            for j in range(6, -1, -1):
                row, nxt = rows[j], rows[j + 1]
                for s in range(Q):
                    c = row[s]
                    if c:
                        k = t.add(s, e)
                        nxt[k] = (nxt[k] + c) & 0xFFFFF
                    else:
                        nxt[s] ^= r
    check = sum(sum(row) for row in rows) % 1000003
    print(check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
