"""Univariate polynomials over a finite field.

Coefficients are stored dense, low-to-high, as element encodings of the
owning field, with no trailing zeros (the zero polynomial has an empty
coefficient tuple and degree -1, standing in for "minus infinity").
Everything here is exact and any degree we ever see is at most |D| <= q,
so the dense O(n^2) algorithms are the right tool.  `Polynomial.from_roots`
is the one root product: Lagrange's master polynomial and a deep-hole witness.

Coefficients are range-checked when a polynomial is built and evaluation
points when they come in, so the inner loops run on the field's unchecked
kernels.
"""

from __future__ import annotations

from .gf import FiniteField

__all__ = ["Polynomial", "lagrange_interpolate", "parse_poly_literal"]


class Polynomial:
    """Immutable dense polynomial; supports +, -, *, evaluation, scaling."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            field._check(c)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def zero(cls, field: FiniteField) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def from_roots(cls, field: FiniteField, roots) -> "Polynomial":
        """prod (X - r) over the given roots, built one linear factor at a time."""
        add, mul = field.kernels()
        out = [1]
        for r in roots:
            nxt = [0] * (len(out) + 1)
            mr = field.neg(r)
            for i, c in enumerate(out):
                nxt[i + 1] = add(nxt[i + 1], c)
                nxt[i] = add(nxt[i], mul(c, mr))
            out = nxt
        return cls(field, out)

    @property
    def degree(self) -> int:
        """len(coeffs) - 1; the zero polynomial reports -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def _same_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise ValueError("mixed-field polynomial operands")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._same_field(other)
        add, _ = self.field.kernels()
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(self.field, (add(self.coeff(i), other.coeff(i)) for i in range(n)))

    def __neg__(self) -> "Polynomial":
        F = self.field
        return Polynomial(F, (F.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._same_field(other)
        F = self.field
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(F)
        add, mul = F.kernels()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] = add(out[i + j], mul(a, b))
        return Polynomial(F, out)

    def scale(self, c: int) -> "Polynomial":
        F = self.field
        return Polynomial(F, (F.mul(c, a) for a in self.coeffs))

    def evaluate(self, x: int) -> int:
        """Horner evaluation; returns an element encoding."""
        F = self.field
        F._check(x)
        add, mul = F.kernels()
        acc = 0
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def monic(self) -> tuple["Polynomial", int]:
        """Return (self / leading coefficient, leading coefficient)."""
        if self.is_zero():
            raise ValueError("the zero polynomial has no monic form")
        lead = self.coeffs[-1]
        if lead == 1:
            return self, 1
        return self.scale(self.field.inv(lead)), lead

    def literal(self) -> str:
        """Wire form: comma-separated encodings, low-to-high."""
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"Polynomial({self.field.spec_string()!r}, [{self.literal()}])"


def parse_poly_literal(field: FiniteField, text: str) -> Polynomial:
    text = text.strip()
    if not text:
        return Polynomial.zero(field)
    return Polynomial(field, (int(c) for c in text.split(",")))


def lagrange_interpolate(field: FiniteField, points) -> Polynomial:
    """Unique polynomial of degree < len(points) through the given
    (x, y) pairs; x-coordinates must be pairwise distinct."""
    pts = list(points)
    xs = [x for x, _ in pts]
    if len(set(xs)) != len(xs):
        raise ValueError("repeated x-coordinate in interpolation points")
    F = field
    for x in xs:
        F._check(x)
    for _, y in pts:
        F._check(y)
    add, mul = F.kernels()
    master = Polynomial.from_roots(F, xs).coeffs
    out = [0] * max(len(pts), 1)
    for xi, yi in pts:
        if yi == 0:
            continue
        # num = master / (X - xi) by synthetic division, high-to-low
        num = [0] * (len(master) - 1)
        carry = 0
        for i in range(len(master) - 1, 0, -1):
            carry = add(master[i], mul(carry, xi))
            num[i - 1] = carry
        # denom = num(xi), Horner
        denom = 0
        for c in reversed(num):
            denom = add(mul(denom, xi), c)
        w = mul(yi, F.inv(denom))
        for i, c in enumerate(num):
            out[i] = add(out[i], mul(w, c))
    return Polynomial(F, out)
