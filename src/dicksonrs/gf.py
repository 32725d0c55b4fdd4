"""Exact arithmetic in finite fields GF(p^m).

Field elements are plain Python ints.  The element with coefficient vector
(c0, c1, ..., c_{m-1}) against the power basis 1, t, ..., t^{m-1} is encoded
as the base-p integer

    enc(x) = c0 + c1*p + ... + c_{m-1}*p^(m-1),

a bijection onto [0, q).  The interpretation of an int is carried by the
FiniteField object it belongs to; 0 and 1 always encode the additive and
multiplicative identities.  Keeping elements unboxed makes exhaustive scans
over small fields cheap, which is what most of this package does.

One direct product works on encodings: `_ring_mul(p, f)` gives x*y mod f
for any monic f, by a shift-and-xor loop in characteristic 2 and, for odd
p, by one int product of the digits packed into wide bit slots (Kronecker
substitution).  The default-modulus search runs Rabin's test on it, and
each field takes it, for its own modulus, as `_mul_direct`.

Every value a field derives (the direct product, the exp/log tables, the
kernels, the trace basis and table, the primitive element) is a cached
property, built on first read.  Extension fields with q <= 2^16 get
exp/log tables over the primitive element g, so mul/inv/pow are O(1)
lookups.  The build treats multiplication by g as an F_p-linear map: two
half-tables of direct products give g times the low and the high digits,
and the q-2 steps add them on a bit-sliced digit vector, with no
polynomial product per element.  Larger fields (up to q <= 2^32) multiply
and power with the direct product, as the primitive-element search does.

`FiniteField.kernels()` holds the only add and mul: unchecked closures
(odd-characteristic extensions under the table cap add through Zech
logarithms, tabulated in one O(q) pass since 1 + x differs from x only in
the constant digit).  The public ops are checked kernels: they range-check
their operands and call a kernel, or `pow` for inv.  The trace is a linear
form, Tr(x) = sum c_i Tr(t^i) over x's digits (Tr(t^i) by Newton's
identities on the modulus), tabulated under the cap, and `quad_char` is
Euler's criterion x^((q-1)/2) through `pow`.

Whole-field passes read two rows instead of a field op per point:
`trace_form(c)`, the row x -> Tr(c*x) from m products (the trace table
is its c = 1 case), and `unit_logs()`, the discrete log of every unit:
the field's own exp/log tables at every enumerable q, so a field walks g
once however many rows read them.  Above the cap no single-element op
reads or builds them.

The default modulus is the smallest monic irreducible f of degree m, by
Rabin's test with a unit test for its gcd step.  Once t^(p^m) = t mod f,
f divides the squarefree t^(p^m) - t, so GF(p)[t]/(f) is a product of
fields GF(p^d) with d | m.  h = t^(p^(m/ell)) - t is zero exactly in the
factors with d | m/ell, so f is irreducible iff, for every prime ell | m,
h is a unit, i.e. h^(p^m - 1) = 1 mod f (a unit's order divides p^m - 1).
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from itertools import accumulate, islice, repeat
from typing import NamedTuple

__all__ = [
    "FiniteField",
    "TwoAdicData",
    "parse_field_spec",
    "two_adic",
]

_Q_CAP = 1 << 32
_TABLE_Q_CAP = 1 << 16
_ENUM_Q_CAP = 1 << 20  # largest q whose elements may be enumerated


def _is_prime(n: int) -> bool:
    """Trial division by way of the factorisation; n <= 2^32 keeps it instant."""
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _ring_mul(p: int, f):
    """The product (x, y) -> x*y mod f on base-p encodings, for any monic f
    over GF(p) (coefficients low-to-high), irreducible or not."""
    m = len(f) - 1
    if p == 2:
        top, mod = 1 << m, sum(c << i for i, c in enumerate(f))

        def mul(x, y):
            r = 0
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if x & top:
                    x ^= mod
            return r

        return mul
    # Kronecker substitution: digit i moves to bits [s*i, s*(i+1)), so one int
    # product multiplies the polynomials.  Slot k >= m is cleared top-down by
    # adding its digit times -f mod p at slot k-m; every slot stays below
    # (2m-1)(p-1)^2 < 2^s, and the digits are the slots mod p.
    s = ((2 * m - 1) * (p - 1) ** 2).bit_length()
    mask = (1 << s) - 1
    digits = [(p**i, s * i) for i in range(m)]
    neg_f = sum(-c % p << j for c, (_, j) in zip(f, digits))
    tops = [(s * k, s * (k - m)) for k in range(2 * m - 2, m - 1, -1)]

    def pack(x):
        return sum(x // e % p << j for e, j in digits)

    def mul(x, y):
        z = pack(x) * pack(y)
        for k, j in tops:
            z += (z >> k & mask) % p * neg_f << j
        return sum((z >> j & mask) % p * e for e, j in digits)

    return mul


def _powmod(mul, x: int, e: int) -> int:
    r = 1
    while e:
        if e & 1:
            r = mul(r, x)
        x = mul(x, x)
        e >>= 1
    return r


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic f over GF(p), its gcd step a unit test:
    h^(p^m - 1) = 1 mod f for h = t^(p^(m/ell)) - t (see the module doc)."""
    m = len(f) - 1
    if m < 1 or f[-1] != 1:
        return False
    if m == 1:
        return True
    mul = _ring_mul(p, f)  # t is encoded as p
    if _powmod(mul, p, p**m) != p:
        return False
    for ell in _prime_factors(m):
        h = _powmod(mul, p, p ** (m // ell))
        h += -p if h // p % p else (p - 1) * p  # digit 1 lowers by one, mod p
        if _powmod(mul, h, p**m - 1) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _default_modulus(p: int, m: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree m, the non-leading coefficients
    compared low-to-high as base-p digits.  Deterministic across runs."""
    if m == 1:
        return (0, 1)
    for key in range(p**m):
        coeffs, k = [], key
        for _ in range(m):
            coeffs.append(k % p)
            k //= p
        f = coeffs + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise ArithmeticError(f"no irreducible polynomial of degree {m} over GF({p})")


class TwoAdicData(NamedTuple):
    """Exact 2-adic valuations: 2^r || q^2-1 and 2^t || n."""

    r: int
    t: int


def two_adic(q: int, n: int) -> TwoAdicData:
    """Valuations used by the value-set and preimage formulas.

    For even q, q^2-1 is odd and r = 0; t = 0 for n <= 0.
    """
    v = q * q - 1  # v & -v is v's lowest set bit, 2^r
    t = (n & -n).bit_length() - 1 if n > 0 else 0
    return TwoAdicData(r=(v & -v).bit_length() - 1, t=t)


class _cached(cached_property):
    # set by setattr: reading __dict__, as cached_property does, slows all reads in CPython 3.11
    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        setattr(obj, self.attrname, value := self.func(obj))
        return value


class FiniteField:
    """GF(p^m) with an explicit monic irreducible modulus.

    Immutable after construction and safe to share; every operation is a
    pure function of its int arguments.
    """

    def __init__(self, p: int, m: int = 1, modulus=None):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"extension degree m = {m} must be >= 1")
        q = p**m
        if q > _Q_CAP:
            raise ValueError(f"q = p^m = {q} exceeds the supported cap 2^32")
        given = modulus is not None  # the default modulus is irreducible by construction
        modulus = tuple(c % p for c in modulus) if given else _default_modulus(p, m)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree m (low-to-high coefficients)")
        if given and m > 1 and not _is_irreducible(list(modulus), p):
            raise ValueError(f"modulus {list(modulus)} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = q
        self.modulus = modulus
        self._ppow = [p**i for i in range(m + 1)]

    # -- identity / representation ------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.m, self.modulus))

    def __repr__(self):
        return f"FiniteField({self.spec_string()!r})"

    def spec_string(self) -> str:
        """Wire form "p" or "p^m" (default modulus), else that plus "/c0,c1,...,cm"."""
        base = str(self.p) if self.m == 1 else f"{self.p}^{self.m}"
        if self.modulus == _default_modulus(self.p, self.m):
            return base
        return base + "/" + ",".join(str(c) for c in self.modulus)

    def elements(self) -> range:
        """Every element, for a whole-field pass; a ValueError past q = 2^20."""
        if self.q > _ENUM_Q_CAP:
            raise ValueError(f"q = {self.q} exceeds the enumeration budget {_ENUM_Q_CAP}")
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def encode(self, coeffs) -> int:
        if len(coeffs) > self.m:
            raise ValueError(f"{len(coeffs)} coefficients do not encode an element of {self!r}")
        return sum((c % self.p) * self._ppow[i] for i, c in enumerate(coeffs))

    def decode(self, x: int) -> tuple[int, ...]:
        self._check(x)
        out = []
        for _ in range(self.m):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def from_int(self, c: int) -> int:
        """Embed an ordinary integer as a constant of the prime subfield."""
        return c % self.p

    def _check(self, x: int):
        if not 0 <= x < self.q:
            raise ValueError(f"{x} is not an element encoding of {self!r}")

    # -- ring operations ------------------------------------------------

    def add(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        return self._kernels[0](x, y)

    def neg(self, x: int) -> int:
        # p-1 encodes -1 of the prime subfield (and 1 = -1 when p = 2)
        self._check(x)
        return self._kernels[1](x, self.p - 1)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        self._check(x)
        self._check(y)
        return self._kernels[1](x, y)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.pow(x, self.q - 2)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        """x^e with exponent reduced mod q-1 for nonzero x; 0^0 = 1."""
        self._check(x)
        if x == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        e %= self.q - 1
        if self.m == 1:
            return pow(x, e, self.p)
        if self.q <= _TABLE_Q_CAP:
            exp, log = self._tables
            return exp[(log[x] * e) % (self.q - 1)]
        return _powmod(self._mul_direct, x, e)

    def kernels(self):
        """(add, mul) on element encodings, without range checks.

        The field's only add and mul: the public ops check their operands
        and call these, and inner loops whose operands were checked once at
        their entry call them directly.  Results are undefined on anything
        but valid encodings.  Built on first use; they read the O(q)
        tables only under the table cap.
        """
        return self._kernels

    @_cached
    def _kernels(self):
        p, q = self.p, self.q
        if self.m == 1:
            return (lambda x, y: (x + y) % p), (lambda x, y: x * y % p)
        if q > _TABLE_Q_CAP:
            return (operator.xor if p == 2 else self._add_digits), self._mul_direct
        exp, log = self._tables  # exp[i + j] for i, j < q-1 needs no reduction

        def mul(x, y):
            if x and y:
                return exp[log[x] + log[y]]
            return 0

        if p == 2:
            return operator.xor, mul
        # Zech logarithms: 1 + g^d = g^zech[d], and -1 where 1 + g^d = 0.
        # Adding 1 changes only the constant digit, which wraps at p-1.
        zech = [log[e + 1 if e % p != p - 1 else e - (p - 1)] for e in islice(exp, q - 1)]
        zech[(q - 1) // 2] = -1  # g^((q-1)/2) = -1

        def add(x, y):
            # x + y = g^lx * (1 + g^(ly-lx)); a negative index wraps mod q-1
            if not x:
                return y
            if not y:
                return x
            lx = log[x]
            z = zech[log[y] - lx]
            return exp[lx + z] if z >= 0 else 0

        return add, mul

    def primitive_element(self) -> int:
        """g, the smallest encoding of order q-1 (the unit group is cyclic).

        Found on first use by testing g^((q-1)/ell) != 1 for every prime
        ell | q-1, with direct products, so no table is built for it.
        """
        return self._primitive

    @_cached
    def _primitive(self) -> int:
        q, mul = self.q, self._mul_direct
        cofactors = [(q - 1) // ell for ell in _prime_factors(q - 1)]
        return next(c for c in self.units() if all(_powmod(mul, c, e) != 1 for e in cofactors))

    def _add_digits(self, x: int, y: int) -> int:
        p, out, ppow = self.p, 0, self._ppow
        for i in range(self.m):
            out += ((x // ppow[i] + y // ppow[i]) % p) * ppow[i]
        return out

    @_cached
    def _mul_direct(self):
        return _ring_mul(self.p, self.modulus)

    def _build_tables(self) -> tuple[list[int], list[int]]:
        """(exp, log) over g = `primitive_element()`; exp is stored twice over.

        A prime field steps by its modular product.  In an extension,
        multiplication by g is F_p-linear, so g*x is g times x's low h =
        floor(m/2) digits plus g times its high digits, each read from a
        half-table of p^h or p^(m-h) products built with `_mul_direct`.
        In characteristic 2 the halves add by xor.  For odd p they add in
        a bit-sliced layout, digit i in its own W-bit slot, where each sum
        of two digits (at most 2p-2) fits in w = W-1 bits; one guard-bit
        correction then subtracts p from every slot that reached p, and
        two more half-table lookups encode the slots back to base p.
        """
        p, m, q, ppow = self.p, self.m, self.q, self._ppow
        g = self.primitive_element()
        if m == 1:
            return self._logs(list(accumulate(repeat(g, q - 2), self._kernels[1], initial=1)))
        h = m // 2
        P = ppow[h]
        lo = [self._mul_direct(g, x) for x in range(P)]  # g * (low digits)
        hi = [self._mul_direct(g, x * P) for x in range(ppow[m - h])]  # g * (high digits)
        exp = [0] * (q - 1)
        acc = 1
        if p == 2:
            mask = P - 1
            for i in range(q - 1):
                exp[i] = acc
                acc = lo[acc & mask] ^ hi[acc >> h]
        else:
            w = (2 * p - 2).bit_length()
            slot = [(w + 1) * i for i in range(m)]

            def sliced(x):
                return sum(c << s for c, s in zip(self.decode(x), slot))

            lo, hi = [sliced(y) for y in lo], [sliced(y) for y in hi]
            # bit w of slot i is set in s + K iff digit i of s is >= p
            K = sum(((1 << w) - p) << s for s in slot)
            G = sum(1 << s for s in slot)
            shift = (w + 1) * h
            mask = (1 << shift) - 1
            enc_lo = {sliced(x): x for x in range(P)}
            enc_hi = {sliced(x * P) >> shift: x * P for x in range(ppow[m - h])}
            for i in range(q - 1):
                exp[i] = acc
                x_hi, x_lo = divmod(acc, P)
                s = lo[x_lo] + hi[x_hi]
                s -= ((s + K) >> w & G) * p
                acc = enc_lo[s & mask] + enc_hi[s >> shift]
        return self._logs(exp)

    def _logs(self, exp: list[int]) -> tuple[list[int], list[int]]:
        """(exp twice over, log) from the powers g^0, ..., g^(q-2)."""
        log = [0] * self.q
        for i, e in enumerate(exp):
            log[e] = i
        return exp * 2, log

    _tables = _cached(_build_tables)

    def unit_logs(self) -> tuple[list[int], list[int]]:
        """(exp, log) over g = `primitive_element()`: exp[i] = g^i for
        i < 2(q-1) (the powers stored twice over) and log[x] = i for every
        unit x = g^i, log[0] = 0.  A whole-field row, so a ValueError past
        q = 2^20; at every q within it these are the field's own tables."""
        self.elements()  # the enumeration budget
        return self._tables

    # -- field invariants used throughout ------------------------------

    def trace(self, x: int) -> int:
        """Absolute trace Tr(x) = x + x^p + ... + x^(p^(m-1)), in [0, p).

        Tr is GF(p)-linear, so Tr(x) = sum_i c_i * Tr(t^i) mod p over the
        digits c_i of x; under the table cap that sum is tabulated once.
        """
        self._check(x)
        if self.q <= _TABLE_Q_CAP:
            return self._trace_tab[x]
        return self._trace_digits(x)

    def _trace_digits(self, x: int) -> int:
        return sum(c * w for c, w in zip(self.decode(x), self._trace_basis)) % self.p

    @_cached
    def _trace_basis(self) -> list[int]:
        # Tr(t^i) = s_i, the i-th power sum of the modulus's roots (the
        # conjugates of t), by Newton's identities on its coefficients c_j
        p, m, c = self.p, self.m, self.modulus
        s = [m % p]
        for i in range(1, m):
            s.append(-(i * c[m - i] + sum(c[m - j] * s[i - j] for j in range(1, i))) % p)
        return s

    @_cached
    def _trace_tab(self) -> list[int]:
        return self.trace_form(1)

    def trace_form(self, c: int) -> list[int]:
        """Tr(c*x) for every x, in encoding order: a whole-field row, so a
        ValueError past q = 2^20.  x -> Tr(c*x) is F_p-linear, so m direct
        products give its values w_i = Tr(c*t^i) on the power basis, and the
        row grows one digit at a time: row[d*p^i + j] = row[j] + d*w_i."""
        self._check(c)
        self.elements()  # the enumeration budget
        p, tab = self.p, [0]
        for e in self._ppow[:-1]:  # t^i is encoded as p^i
            w = self._trace_digits(self._mul_direct(c, e))
            tab = [(v + d * w) % p for d in range(p) for v in tab]
        return tab

    def quad_char(self, x: int) -> int:
        """Quadratic character by Euler's criterion: 0 at 0, otherwise
        x^((q-1)/2), which is +1 on nonzero squares and -1 on the rest."""
        if self.q % 2 == 0:
            raise ValueError("quadratic character requires odd q")
        if x == 0:
            return 0
        return 1 if self.pow(x, (self.q - 1) // 2) == 1 else -1


def parse_field_spec(spec: str) -> FiniteField:
    """Parse "p", "p^m", or "p^m/c0,c1,...,cm" into a field."""
    spec = spec.strip()
    mod = None
    if "/" in spec:
        spec, modpart = spec.split("/", 1)
        mod = [int(c) for c in modpart.split(",")]
    if "^" in spec:
        ppart, mpart = spec.split("^", 1)
        p, m = int(ppart), int(mpart)
    else:
        p, m = int(spec), 1
    return FiniteField(p, m, mod)
