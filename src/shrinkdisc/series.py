"""Truncated formal power series with exact rational coefficients.

Two value types live here: ``SeriesZ`` (one variable z, a dense
coefficient vector) and ``SeriesTZ`` (two variables t and z, a sparse
table keyed by (n, k)).  Every value carries its truncation order
explicitly; arithmetic between values of different orders silently
truncates down to the common window, which is the largest window on
which the Cauchy product of the inputs is complete.

All coefficients are ``fractions.Fraction``: arithmetic is exact, no
rounding ever happens in this module.  Values are immutable after
construction, so they are safe to share freely.

The zero series has t-order ``ORD_INFINITE`` (a sentinel, never a large
integer).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

Rational = Fraction

#: t-order of the zero series.
ORD_INFINITE = math.inf


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact series")
    return Fraction(x)


class SeriesZ:
    """sum_{k=0..K} c_k z^k, truncated at order K."""

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs: Iterable = (), order: int | None = None):
        cs = [_rat(c) for c in coeffs]
        if order is None:
            order = len(cs) - 1 if cs else 0
        if order < 0:
            raise ValueError("truncation order must be >= 0")
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        cs.extend(Fraction(0) for _ in range(order + 1 - len(cs)))
        self.coeffs = tuple(cs)
        self.order = order

    @classmethod
    def zero(cls, order: int) -> "SeriesZ":
        return cls((), order)

    @classmethod
    def monomial(cls, k: int, c=1, order: int | None = None) -> "SeriesZ":
        if order is None:
            order = k
        if k > order:
            raise ValueError("monomial degree beyond truncation")
        cs = [Fraction(0)] * (order + 1)
        cs[k] = _rat(c)
        return cls(cs, order)

    def coeff(self, k: int) -> Fraction:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient {k} outside truncation 0..{self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def ord_z(self):
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return ORD_INFINITE

    def eval0(self) -> Fraction:
        return self.coeffs[0]

    def truncate(self, order: int) -> "SeriesZ":
        if order >= self.order:
            return self if order == self.order else SeriesZ(self.coeffs, order)
        return SeriesZ(self.coeffs[: order + 1], order)

    def __add__(self, other: "SeriesZ") -> "SeriesZ":
        K = min(self.order, other.order)
        return SeriesZ([self.coeffs[k] + other.coeffs[k] for k in range(K + 1)], K)

    def __sub__(self, other: "SeriesZ") -> "SeriesZ":
        K = min(self.order, other.order)
        return SeriesZ([self.coeffs[k] - other.coeffs[k] for k in range(K + 1)], K)

    def __neg__(self) -> "SeriesZ":
        return SeriesZ([-c for c in self.coeffs], self.order)

    def scale(self, c) -> "SeriesZ":
        c = _rat(c)
        return SeriesZ([c * x for x in self.coeffs], self.order)

    def __mul__(self, other: "SeriesZ") -> "SeriesZ":
        K = min(self.order, other.order)
        out = [Fraction(0)] * (K + 1)
        for i, a in enumerate(self.coeffs[: K + 1]):
            if a == 0:
                continue
            for j in range(K + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return SeriesZ(out, K)

    def shift(self, j: int) -> "SeriesZ":
        """Multiply by z^j; this is exact, the order grows by j."""
        if j < 0:
            raise ValueError("shift must be >= 0")
        return SeriesZ([Fraction(0)] * j + list(self.coeffs), self.order + j)

    def shifted_down(self, e: int) -> "SeriesZ":
        """Divide by z^e; requires the first e coefficients to vanish."""
        if any(c != 0 for c in self.coeffs[:e]):
            raise ValueError("series is not divisible by z^e")
        if e > self.order:
            raise ValueError("cannot shift below truncation")
        return SeriesZ(self.coeffs[e:], self.order - e)

    def dz(self) -> "SeriesZ":
        out = [k * self.coeffs[k] for k in range(1, self.order + 1)]
        return SeriesZ(out, max(self.order - 1, 0))

    def nonzero_items(self) -> Iterator[tuple[int, Fraction]]:
        for k, c in enumerate(self.coeffs):
            if c != 0:
                yield k, c

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesZ)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        terms = [f"{c}*z^{k}" for k, c in self.nonzero_items()]
        body = " + ".join(terms) if terms else "0"
        return f"SeriesZ({body}; K={self.order})"


class SeriesTZ:
    """sum c_{n,k} t^n z^k for n <= N, k <= K, stored sparsely.

    Only nonzero coefficients are kept; the truncation rectangle (N, K)
    is part of the value.
    """

    __slots__ = ("_c", "n_order", "k_order")

    def __init__(self, entries=(), n_order: int = 0, k_order: int = 0):
        if n_order < 0 or k_order < 0:
            raise ValueError("truncation orders must be >= 0")
        c: dict[tuple[int, int], Fraction] = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for (n, k), v in items:
            v = _rat(v)
            if v == 0:
                continue
            if not (0 <= n <= n_order and 0 <= k <= k_order):
                raise ValueError(f"coefficient ({n},{k}) outside truncation")
            c[(n, k)] = v
        self._c = c
        self.n_order = n_order
        self.k_order = k_order

    @classmethod
    def zero(cls, n_order: int, k_order: int) -> "SeriesTZ":
        return cls((), n_order, k_order)

    @classmethod
    def monomial(cls, n: int, k: int, c=1, n_order=None, k_order=None) -> "SeriesTZ":
        if n_order is None:
            n_order = n
        if k_order is None:
            k_order = k
        return cls({(n, k): _rat(c)}, n_order, k_order)

    @classmethod
    def const(cls, c, n_order: int, k_order: int) -> "SeriesTZ":
        return cls({(0, 0): _rat(c)}, n_order, k_order)

    def coeff(self, n: int, k: int) -> Fraction:
        if not (0 <= n <= self.n_order and 0 <= k <= self.k_order):
            raise IndexError(f"coefficient ({n},{k}) outside truncation")
        return self._c.get((n, k), Fraction(0))

    def items(self) -> list[tuple[int, int, Fraction]]:
        return [(n, k, v) for (n, k), v in sorted(self._c.items())]

    def is_zero(self) -> bool:
        return not self._c

    def ord_t(self):
        if not self._c:
            return ORD_INFINITE
        return min(n for (n, _k) in self._c)

    def ord_z(self):
        if not self._c:
            return ORD_INFINITE
        return min(k for (_n, k) in self._c)

    def row(self, n: int) -> SeriesZ:
        cs = [Fraction(0)] * (self.k_order + 1)
        for (m, k), v in self._c.items():
            if m == n:
                cs[k] = v
        return SeriesZ(cs, self.k_order)

    def truncate(self, n_order: int, k_order: int) -> "SeriesTZ":
        ent = {
            (n, k): v
            for (n, k), v in self._c.items()
            if n <= n_order and k <= k_order
        }
        return SeriesTZ(ent, n_order, k_order)

    def _binop(self, other: "SeriesTZ", sign: int) -> "SeriesTZ":
        N = min(self.n_order, other.n_order)
        K = min(self.k_order, other.k_order)
        ent = {p: v for p, v in self._c.items() if p[0] <= N and p[1] <= K}
        for p, v in other._c.items():
            if p[0] <= N and p[1] <= K:
                ent[p] = ent.get(p, Fraction(0)) + sign * v
        return SeriesTZ(ent, N, K)

    def __add__(self, other: "SeriesTZ") -> "SeriesTZ":
        return self._binop(other, 1)

    def __sub__(self, other: "SeriesTZ") -> "SeriesTZ":
        return self._binop(other, -1)

    def __neg__(self) -> "SeriesTZ":
        return SeriesTZ({p: -v for p, v in self._c.items()}, self.n_order, self.k_order)

    def scale(self, c) -> "SeriesTZ":
        c = _rat(c)
        if c == 0:
            return SeriesTZ.zero(self.n_order, self.k_order)
        return SeriesTZ({p: c * v for p, v in self._c.items()}, self.n_order, self.k_order)

    def __mul__(self, other: "SeriesTZ") -> "SeriesTZ":
        N = min(self.n_order, other.n_order)
        K = min(self.k_order, other.k_order)
        ent: dict[tuple[int, int], Fraction] = {}
        for (n1, k1), a in self._c.items():
            if n1 > N or k1 > K:
                continue
            for (n2, k2), b in other._c.items():
                n, k = n1 + n2, k1 + k2
                if n <= N and k <= K:
                    p = (n, k)
                    ent[p] = ent.get(p, Fraction(0)) + a * b
        return SeriesTZ(ent, N, K)

    def dt(self) -> "SeriesTZ":
        ent = {(n - 1, k): n * v for (n, k), v in self._c.items() if n >= 1}
        return SeriesTZ(ent, max(self.n_order - 1, 0), self.k_order)

    def dz(self) -> "SeriesTZ":
        ent = {(n, k - 1): k * v for (n, k), v in self._c.items() if k >= 1}
        return SeriesTZ(ent, self.n_order, max(self.k_order - 1, 0))

    def mul_t(self) -> "SeriesTZ":
        ent = {(n + 1, k): v for (n, k), v in self._c.items()}
        return SeriesTZ(ent, self.n_order + 1, self.k_order)

    def mul_z(self) -> "SeriesTZ":
        ent = {(n, k + 1): v for (n, k), v in self._c.items()}
        return SeriesTZ(ent, self.n_order, self.k_order + 1)

    def dt_antiderivative(self, m: int) -> "SeriesTZ":
        """m-fold t-antiderivative with vanishing lowest m coefficients.

        t^n maps to t^{n+m} * n!/(n+m)!.  This is the unique choice for
        which the m-fold t-derivative is a left inverse on truncations.
        """
        if m < 0:
            raise ValueError("antiderivative order must be >= 0")
        if m == 0:
            return self
        ent = {}
        for (n, k), v in self._c.items():
            f = Fraction(1)
            for t in range(1, m + 1):
                f /= n + t
            ent[(n + m, k)] = v * f
        return SeriesTZ(ent, self.n_order + m, self.k_order)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SeriesTZ)
            and self.n_order == other.n_order
            and self.k_order == other.k_order
            and self._c == other._c
        )

    def __hash__(self):
        return hash((self.n_order, self.k_order, tuple(sorted(self._c.items()))))

    def __repr__(self):
        terms = [f"{v}*t^{n}*z^{k}" for n, k, v in self.items()]
        body = " + ".join(terms) if terms else "0"
        return f"SeriesTZ({body}; N={self.n_order}, K={self.k_order})"

    # -- CSV interface: header n,k,numerator,denominator, nonzero rows only

    CSV_HEADER = "n,k,numerator,denominator"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for n, k, v in self.items():
            lines.append(f"{n},{k},{v.numerator},{v.denominator}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str, n_order: int | None = None, k_order: int | None = None) -> "SeriesTZ":
        rows = [ln for ln in text.strip().splitlines() if ln.strip()]
        if not rows or rows[0].strip() != cls.CSV_HEADER:
            raise ValueError("bad CSV header, expected " + cls.CSV_HEADER)
        ent = {}
        for ln in rows[1:]:
            n_s, k_s, num_s, den_s = ln.split(",")
            ent[(int(n_s), int(k_s))] = Fraction(int(num_s), int(den_s))
        if n_order is None:
            n_order = max((n for (n, _k) in ent), default=0)
        if k_order is None:
            k_order = max((k for (_n, k) in ent), default=0)
        return cls(ent, n_order, k_order)
