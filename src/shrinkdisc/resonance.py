"""Indicial polynomial evaluation and non-resonance certificates.

The diagonal of the coefficient recurrence is

    W(n, k) = sum over i of c_i(n) k^i,

with one polynomial c_i per Euler power i in the j = 0 stratum.
Non-resonance asks W(n, k) != 0 on the whole integer quadrant; the
strong form asks for a uniform positive lower bound C0.  Deciding the
infimum over an infinite grid from finite data is not possible in
general, so the certificate distinguishes a proof-grade verdict
("certified_strong", backed by a tail argument) from a bare exhaustive
grid check ("grid_verified_only").  This taxonomy is an engineering
construction, and reports flag it as such.

Tail arguments implemented:

* sign_definite: every nonzero coefficient of every c_i shares one
  sign and c_0(0) != 0.  Then |W| is monotone in both n and k, so the
  infimum is |W(0, 0)|.
* leading_term: the k-leading polynomial c_p dominates.  Explicit
  triangle-inequality thresholds reduce the quadrant to the grid plus
  three tail regions, each bounded below by half the relevant leading
  term.  Attempted only when no lower c_i outgrows c_p in n.

The Liouville demonstration shows why a grid check alone must never
claim the strong form: for W(x, y) = x - lambda (y + 1) with lambda a
truncated Liouville-type rational, record minima of |W| decrease under
any prescribed power of 1/(k+1) once the search passes the relevant
denominator.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import factorial, lcm
from operator import add, sub

from .analysis import ThetaOperator
from .polynomial import Poly


class ResonanceError(ArithmeticError):
    def __init__(self, n: int, k: int):
        super().__init__(f"W({n},{k}) = 0: resonance at (n, k) = ({n}, {k})")
        self.n = n
        self.k = k


class CertificateError(ArithmeticError):
    """A tail bound exceeds the grid minimum: the certificate would be unsound."""


def _check_bound(bound: Fraction, grid_min: Fraction) -> Fraction:
    """Soundness guard: C0 may not exceed the least |W| the grid scan found."""
    if bound > grid_min:
        raise CertificateError(f"tail bound {bound} exceeds the grid minimum {grid_min}")
    return bound


class IndicialPolynomial:
    """W(n, k) = sum_i c_i(n) k^i with exact polynomial coefficients.

    The denominator-cleared integer form is built once: D is the lcm of
    the denominators of every coefficient and C[i] lists the integer
    coefficients of C_i = D c_i, lowest degree first, so that
    D W(n, k) = sum_i C_i(n) k^i is an integer polynomial.
    """

    def __init__(self, cs: dict[int, Poly]):
        self.cs = {i: p for i, p in sorted(cs.items()) if not p.is_zero()}
        if not self.cs:
            raise ValueError("indicial polynomial is identically zero")
        self.D = lcm(*(c.denominator for p in self.cs.values() for c in p.coeffs))
        self.C = [
            [c.numerator * (self.D // c.denominator) for c in self.cs[i].coeffs]
            if i in self.cs else []
            for i in range(self.p + 1)
        ]

    @classmethod
    def from_theta(cls, T: ThetaOperator) -> "IndicialPolynomial":
        cs: dict[int, Poly] = {}
        for t in T.terms:
            if t.j != 0:
                continue
            cs[t.i] = cs.get(t.i, Poly()) + t.w.scale(t.a.eval0())
        return cls(cs)

    @property
    def p(self) -> int:
        return max(self.cs)

    def eval(self, n, k) -> Fraction:
        if n < 0 or k < 0:
            raise ValueError("indices must be >= 0")
        return Fraction(_horner(self.int_row(n), k), self.D)

    def int_row(self, n: int) -> list[int]:
        """D W(n, .) as trimmed integer coefficients in k."""
        return _trim([_horner(C, n) for C in self.C])

    def int_column(self, k: int) -> list[int]:
        """D W(., k) as trimmed integer coefficients in n."""
        out = [0] * max(map(len, self.C))
        for i, C in enumerate(self.C):
            w = k**i
            for t, c in enumerate(C):
                out[t] += w * c
        return _trim(out)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _values(coeffs, start: int, count: int) -> list[int]:
    """The integer polynomial at x = start, ..., start + count - 1.

    Horner gives the first d + 1 values; forward differences carry them
    on, the constant d-th difference summed up d times by accumulate.
    """
    d = len(coeffs) - 1
    if d < 1 or count <= d + 1:
        return [_horner(coeffs, x) for x in range(start, start + count)]
    head = [_horner(coeffs, x) for x in range(start, start + d + 1)]
    diffs = []
    for _ in range(d + 1):
        diffs.append(head[0])
        head = list(map(sub, head[1:], head))
    seq = repeat(diffs[d], count - d)
    for j in range(d - 1, -1, -1):
        seq = accumulate(seq, initial=diffs[j])
    return list(seq)


_MAX_SCAN = 1 << 14


def _poly_tail_lower(q: list[int], start: int):
    """Exact positive lower bound of |q(x)| over integers x >= start.

    q holds trimmed integer coefficients, lowest degree first.  Returns
    (bound, root): root is an integer zero if one exists (bound is then
    None); both None means the domination threshold was too far out to
    scan.  Past the threshold 2*sum|lower coeffs|/|lead| the leading
    term contributes at least half of |q|.
    """
    if not q:
        return None, start
    d = len(q) - 1
    lead = abs(q[-1])
    if d == 0:
        return lead, None
    cut = max(start, 2 * sum(map(abs, q[:-1])) // lead + 1)
    if cut - start > _MAX_SCAN:
        return None, None
    vals = _values(q, start, cut - start + 1)
    best = min(map(abs, vals))
    if best == 0:
        return None, start + vals.index(0)
    return min(best, Fraction(lead * max(cut, 1) ** d, 2)), None


@dataclass(frozen=True)
class ResonanceCertificate:
    verdict: str  # certified_strong | grid_verified_only | resonant
    C0_lower_bound: Fraction | None
    grid: tuple[int, int]
    tail_argument: str  # sign_definite | leading_term | none
    witness: tuple[int, int] | None
    grid_min: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "C0": None if self.C0_lower_bound is None else str(self.C0_lower_bound),
            "grid": list(self.grid),
            "tail_argument": self.tail_argument,
            "witness": None if self.witness is None else list(self.witness),
            "grid_min": None if self.grid_min is None else str(self.grid_min),
        }


def certify(W: IndicialPolynomial, grid: tuple[int, int] = (256, 256)) -> ResonanceCertificate:
    """Exhaustive grid check plus tail certificates for the strong bound."""
    N0, K0 = grid
    if N0 < 8 or K0 < 8:
        raise ValueError("grid bounds must be >= 8")

    witness, best = _scan(W, N0, K0)
    bound, tail = None, "none"
    if witness is None:
        grid_min = Fraction(best, W.D)
        bound = _sign_definite_bound(W)
        if bound is not None:
            tail = "sign_definite"
        else:
            scaled, witness = _leading_term_bound(W, N0, K0, best)
            if scaled is not None:
                bound, tail = Fraction(scaled, W.D), "leading_term"
    if witness is not None:
        return ResonanceCertificate(
            verdict="resonant", C0_lower_bound=None, grid=grid, tail_argument="none",
            witness=witness, grid_min=None,
        )
    return ResonanceCertificate(
        verdict="grid_verified_only" if bound is None else "certified_strong",
        C0_lower_bound=None if bound is None else _check_bound(bound, grid_min),
        grid=grid,
        tail_argument=tail,
        witness=None,
        grid_min=grid_min,
    )


def _scan(W: IndicialPolynomial, N0: int, K0: int):
    """Row-major scan of D W over 0..N0 x 0..K0: (first zero, None) or (None, least |D W|).

    The integer row coefficients C_i(n) are evaluated once per row and
    the row's K0 + 1 values come from _values.
    """
    best = None
    cols = [_values(C, 0, N0 + 1) for C in W.C]
    for n, row in enumerate(zip(*cols)):
        vals = _values(row, 0, K0 + 1)
        low = min(map(abs, vals))
        if low == 0:
            return (n, vals.index(0)), None
        if best is None or low < best:
            best = low
    return None, best


def _sign_definite_bound(W: IndicialPolynomial):
    signs = set()
    for c in W.cs.values():
        signs.update(1 if x > 0 else -1 for x in c.coeffs if x != 0)
    if len(signs) != 1:
        return None
    c0 = W.cs.get(0)
    if c0 is None or not c0.coeffs or c0.coeffs[0] == 0:
        return None
    return abs(c0.coeffs[0])


def _leading_term_bound(W: IndicialPolynomial, N0: int, K0: int, grid_min: int):
    """Strong bound via domination of the k-leading coefficient c_p.

    Splits the quadrant into the grid plus three tails and bounds each
    exactly, all on the integer form: grid_min and the bound returned
    are minima of |D W|.  Returns (bound, witness); witness reports an
    exact zero found beyond the grid.  (None, None) means the argument
    does not apply, not that the bound fails.
    """
    p = W.p
    cp, lower = W.C[p], W.C[:p]
    if any(len(c) > len(cp) for c in lower):
        return None, None  # a lower power outgrows c_p in n

    bounds = [grid_min]

    # n <= N0, k > K0: one polynomial row at a time
    for n in range(N0 + 1):
        b, root = _poly_tail_lower(W.int_row(n), K0 + 1)
        if b is None:
            return (None, (n, root)) if root is not None else (None, None)
        bounds.append(b)

    # n > N0, k <= K0: one polynomial column at a time
    for k in range(K0 + 1):
        b, root = _poly_tail_lower(W.int_column(k), N0 + 1)
        if b is None:
            return (None, (root, k)) if root is not None else (None, None)
        bounds.append(b)

    # n > N0, k > K0: |W(n,k)| >= |c_p(n)| k^p / 2 holds once
    # k >= T(n) := 2 sum_{i<p} |c_i(n)| / |c_p(n)|.  T <= K0 is checked
    # exactly on the strip where c_p's leading term has not started
    # dominating, and through an n-free bound past it.  T is a ratio,
    # the same for W and D W.
    cp_min, _cp_root = _poly_tail_lower(cp, N0 + 1)
    if cp_min is None:
        return None, None  # c_p vanishes (or dominates too late) out there
    rest_sum = sum(abs(c) for C in lower for c in C)
    lead = abs(cp[-1])
    if len(cp) > 1:
        cut = max(N0 + 1, 2 * sum(map(abs, cp[:-1])) // lead + 1)
        if cut - N0 > _MAX_SCAN:
            return None, None
        # for n >= cut:  sum |c_i(n)| <= rest_sum n^{deg cp + gap} while
        # |c_p(n)| >= lead n^{deg cp} / 2, so T(n) decays like n^gap and
        # stays below 4 rest_sum (N0+1)^gap / lead
        gap = max((len(c) for c in lower if c), default=1) - len(cp)  # <= 0 by the guard above
        if 4 * rest_sum > K0 * lead * (N0 + 1) ** -gap:
            return None, None
        count = cut - N0
        cpv = _values(cp, N0 + 1, count)
        rest = [0] * count
        for C in lower:
            rest = list(map(add, rest, map(abs, _values(C, N0 + 1, count))))
        for r, c in zip(rest, cpv):
            if c == 0 or 2 * r > K0 * abs(c):
                return None, None
    elif 2 * rest_sum > K0 * lead:
        return None, None
    bounds.append(Fraction(cp_min * (K0 + 1) ** p, 2))

    return min(bounds), None


def liouville_demo(lambda_terms: int, search: tuple[int, int] = (4000, 4000)):
    """Near-resonance records for W(x, y) = x - lambda (y + 1).

    lambda is the rational truncation sum of 10^{-j!} over j <= J.  For
    each k the best numerator n is the nearest integer to lambda(k+1),
    so the scan is exhaustive over the grid while staying linear in K.
    Returns (lam, records, hits) where records are the strictly
    decreasing minima of |W| and hits[m] is the first record with
    |W| < (k+1)^{-(m-1)}, or None with a note when the search bounds
    are too small to exhibit it.
    """
    J = lambda_terms
    if J < 2:
        raise ValueError("need at least two terms")
    N, K = search
    lam = sum(Fraction(1, 10 ** factorial(j)) for j in range(1, J + 1))

    records = []
    best = None
    for k in range(K + 1):
        target = lam * (k + 1)
        n = int(target + Fraction(1, 2))  # nearest integer, ties upward
        n = max(0, min(n, N))
        w = abs(Fraction(n) - target)
        if best is None or w < best:
            best = w
            records.append((n, k, w))

    hits: dict[int, tuple[int, int, Fraction] | None] = {}
    for m in range(1, J + 1):
        hit = None
        for n, k, w in records:
            # the statement quantifies over positive n and k
            if n >= 1 and k >= 1 and w < Fraction(1, (k + 1) ** (m - 1)):
                hit = (n, k, w)
                break
        hits[m] = hit
    return lam, records, hits
