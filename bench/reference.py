"""Frozen reference computations that serve as the benchmark's unit of time.

Every timing the benchmark reports is divided by the harmonic mean
duration of the reference calls sampled during the same run (see
``worker.Sampler``).  Host-speed drift (frequency changes, other
tenants on a shared machine) stretches both alike, so the quotient
repeats where raw seconds do not.

The computations are exact, deterministic and self-contained: they
import nothing from ``shrinkdisc``, so no change to the package can
change them.  Do not edit them; a changed reference changes every
reported figure.  Each one imitates the mix of work of the workload
that uses it, and each call takes a few milliseconds:

* ``table_walk`` (large-table) folds scattered cells of a 65x257 table
  of integer-valued ``Fraction`` values (n+1)^k, up to 1,542 bits and
  about 2.6 MiB in all, into one accumulator: big-integer arithmetic
  on operands spread over a working set like the large-table solve,
  apply and fit.
* ``small_rational`` (analyze-sweep) is a two-dimensional triangular
  recurrence on a small stencil in ``Fraction`` arithmetic whose values
  grow to about 390 bits, with Horner passes of a small-rational
  polynomial: the mix of certify's Horner scans and the small solves.
* ``growing_denominators`` (dense-rational) is a triangular recurrence
  with rational coefficients that divides by a different small integer
  at every cell, so denominators grow to about 270 bits and
  ``Fraction`` gcd on big integers dominates, as in the dense solve.
"""
from __future__ import annotations

from fractions import Fraction

_SMALL_STENCIL = ((0, 1, Fraction(2)), (1, 0, Fraction(-1)), (1, 2, Fraction(3, 2)))
_HORNER = (Fraction(3), Fraction(-1, 2), Fraction(2), Fraction(1, 3), Fraction(1))


def small_rational(n_rows: int = 2, k_cols: int = 64) -> int:
    """Integer-valued triangular recurrence plus small-rational Horner scans."""
    u = [[Fraction(0)] * (k_cols + 1) for _ in range(n_rows + 1)]
    check = 0
    for n in range(n_rows + 1):
        for k in range(k_cols + 1):
            acc = Fraction(n + 1) if k == 0 else Fraction(0)
            for dn, dk, c in _SMALL_STENCIL:
                if dn <= n and dk <= k:
                    acc += c * (n + 1) * (k + 1) * u[n - dn][k - dk]
            u[n][k] = acc / (n + 1)
        for k in range(0, k_cols + 1, 4):
            v = Fraction(0)
            for c in _HORNER:
                v = v * (n + k) + c
            check ^= hash(v) & 0xFFFF
    return check ^ (hash(u[n_rows][k_cols]) & 0xFFFFFFFF)


def growing_denominators(size: int = 10) -> int:
    """Triangular recurrence dividing by a new small integer at each cell."""
    u: dict[tuple[int, int], Fraction] = {}
    for n in range(size + 1):
        for k in range(size + 1):
            acc = Fraction((-1) ** (n + k) * (2 * n + k + 1), n + k + 2)
            for dn in range(min(n, 2) + 1):
                for dk in range(min(k, 2) + 1):
                    if dn or dk:
                        acc -= Fraction(dn + 2 * dk + 1, dn + dk + 2) * u[(n - dn, k - dk)]
            u[(n, k)] = acc / (3 + n * k + n + 2 * k)
    last = u[(size, size)]
    return hash(last) & 0xFFFFFFFF


class TableWalk:
    """Scattered reads of a large table of big integer-valued Fractions.

    The table holds (n+1)^k for n <= 64, k <= 256, the shape and values
    of a large-table solution.  Each call walks a fixed pseudo-random
    sequence of cells and folds them into one ``Fraction`` accumulator,
    kept below 1,600 bits.  The table is built once, at construction,
    which is part of the worker's set-up.
    """

    def __init__(self, rows: int = 64, cols: int = 256):
        self.rows, self.cols = rows + 1, cols + 1
        self.table = [[Fraction((n + 1) ** k) for k in range(self.cols)] for n in range(self.rows)]

    def __call__(self, steps: int = 1500) -> int:
        idx = 12345
        acc = Fraction(0)
        for _ in range(steps):
            idx = (idx * 1103515245 + 12345) % 2147483648
            v = self.table[idx % self.rows][(idx >> 8) % self.cols]
            acc = 2 * acc - v if acc.numerator.bit_length() < 1600 else v - acc
        return hash(acc) & 0xFFFFFFFF


#: name -> factory of the reference callable, made once per process
REFERENCES = {
    "small_rational": lambda: small_rational,
    "growing_denominators": lambda: growing_denominators,
    "table_walk": TableWalk,
}
