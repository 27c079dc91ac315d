"""Integer Laurent polynomials in one variable.

Used as the value ring of the free differential calculus; coefficients are
exact Python integers indexed by (possibly negative) exponents.  The
canonical form pins the unit ambiguity: lowest exponent shifted to 0 and
leading (highest-degree) coefficient positive.

Text format: descending terms, e.g. ``t^2 - t + 1``; the zero polynomial
prints as ``0``.
"""

from __future__ import annotations

import re

from .errors import ParseError

__all__ = ["LaurentPoly", "parse_poly", "poly_text"]


class LaurentPoly:
    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | list[tuple[int, int]] | int = ()):
        if isinstance(coeffs, int):
            coeffs = {0: coeffs}
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        c: dict[int, int] = {}
        for e, v in items:
            if v:
                c[e] = c.get(e, 0) + v
                if not c[e]:
                    del c[e]
        self._c = c

    @classmethod
    def _raw(cls, c: dict[int, int]) -> "LaurentPoly":
        p = object.__new__(cls)
        p._c = c
        return p

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._raw({})

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls._raw({0: 1})

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        c = dict(self._c)
        for e, v in other._c.items():
            c[e] = c.get(e, 0) + v
            if not c[e]:
                del c[e]
        return LaurentPoly._raw(c)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({e: -v for e, v in self._c.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        c: dict[int, int] = {}
        for e1, v1 in self._c.items():
            for e2, v2 in other._c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentPoly._raw({e: v for e, v in c.items() if v})

    def min_exp(self) -> int:
        return min(self._c) if self._c else 0

    def max_exp(self) -> int:
        return max(self._c) if self._c else 0

    def degree_span(self) -> int:
        return self.max_exp() - self.min_exp() if self._c else 0

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly._raw({e + k: v for e, v in self._c.items()})

    def subs_power(self, n: int) -> "LaurentPoly":
        """Substitute t -> t^n (n nonzero)."""
        if n == 0:
            raise ValueError("substitution power must be nonzero")
        return LaurentPoly._raw({e * n: v for e, v in self._c.items()})

    def reciprocal(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return self.subs_power(-1)

    def eval_at_one(self) -> int:
        return sum(self._c.values())

    def coeffs(self) -> dict[int, int]:
        return dict(self._c)

    def canonical(self) -> "LaurentPoly":
        """Unit-normalized form: min exponent 0, leading coefficient > 0."""
        if not self._c:
            return self
        p = self.shift(-self.min_exp())
        if p._c[p.max_exp()] < 0:
            p = -p
        return p

    def unit_equal(self, other: "LaurentPoly") -> bool:
        """Equality up to multiplication by +-t^k."""
        return self.canonical() == other.canonical()

    # exact long division, used by the fraction-free determinant
    def divmod_exact(self, d: "LaurentPoly") -> "LaurentPoly":
        """Quotient self / d, which must be exact (raises otherwise)."""
        if not d:
            raise ZeroDivisionError("division by zero polynomial")
        if not self:
            return LaurentPoly.zero()
        r = dict(self._c)
        q: dict[int, int] = {}
        dmax = d.max_exp()
        dlead = d._c[dmax]
        while r:
            rmax = max(r)
            coeff, rem = divmod(r[rmax], dlead)
            if rem:
                raise ArithmeticError("inexact polynomial division")
            e = rmax - dmax
            q[e] = coeff
            for de, dv in d._c.items():
                ee = de + e
                r[ee] = r.get(ee, 0) - coeff * dv
                if not r[ee]:
                    del r[ee]
        return LaurentPoly._raw(q)

    def __repr__(self) -> str:
        return f"LaurentPoly({poly_text(self)!r})"

    def __str__(self) -> str:
        return poly_text(self)


def poly_text(p: LaurentPoly) -> str:
    if not p:
        return "0"
    parts: list[str] = []
    for e in sorted(p._c, reverse=True):
        v = p._c[e]
        sign = "-" if v < 0 else "+"
        mag = abs(v)
        if e == 0:
            body = str(mag)
        else:
            var = "t" if e == 1 else f"t^{e}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


_TERM = re.compile(
    r"^(?P<coeff>\d+)?(?:(?P<star>\*)?(?P<var>t)(?:\^(?P<exp>-?\d+))?)?$"
)


def parse_poly(text: str) -> LaurentPoly:
    """Parse the descending-term syntax emitted by :func:`poly_text`."""
    s = text.strip()
    if s == "0":
        return LaurentPoly.zero()
    if not s:
        raise ParseError("empty polynomial", position=0)
    # split into signed terms; a sign after '^' belongs to an exponent
    chunks = re.split(r"(?<=[^\s^])\s*([+-])\s*", " " + s)
    # chunks: [first, sep, term, sep, term, ...]; leading sign folds into first
    first = chunks[0].strip()
    terms: list[tuple[int, str]] = []
    if first.startswith("-"):
        terms.append((-1, first[1:].strip()))
    elif first:
        terms.append((1, first.lstrip("+").strip()))
    for i in range(1, len(chunks) - 1, 2):
        sign = -1 if chunks[i] == "-" else 1
        terms.append((sign, chunks[i + 1].strip()))
    coeffs: dict[int, int] = {}
    for sign, body in terms:
        if not body:
            raise ParseError(f"dangling sign in polynomial {text!r}", position=0)
        m = _TERM.match(body.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ParseError(f"bad polynomial term {body!r}", position=0)
        coeff = int(m.group("coeff")) if m.group("coeff") else 1
        if m.group("var"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    return LaurentPoly(coeffs)


def poly_determinant(mat: list[list[LaurentPoly]]) -> LaurentPoly:
    """Fraction-free Bareiss determinant over Z[t, 1/t].

    Rows are first scaled by powers of t into Z[t] (a unit factor, which
    the callers quotient out anyway); divisions below are then exact.
    """
    n = len(mat)
    if n == 0:
        return LaurentPoly.one()
    a = [[mat[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        m = min((p.min_exp() for p in a[i] if p), default=0)
        if m:
            a[i] = [p.shift(-m) for p in a[i]]
    sign = 1
    prev = LaurentPoly.one()
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return LaurentPoly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divmod_exact(prev)
            a[i][k] = LaurentPoly.zero()
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign > 0 else -det
