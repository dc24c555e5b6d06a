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
from math import factorial

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
    """W(n, k) = sum_i c_i(n) k^i with exact polynomial coefficients."""

    def __init__(self, cs: dict[int, Poly]):
        self.cs = {i: p for i, p in sorted(cs.items()) if not p.is_zero()}
        if not self.cs:
            raise ValueError("indicial polynomial is identically zero")

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
        acc = Fraction(0)
        for i in range(self.p, -1, -1):
            c = self.cs.get(i)
            acc = acc * k + (c(n) if c is not None else 0)
        return acc

    def row_poly(self, n) -> Poly:
        """W(n, .) as a polynomial in k."""
        return Poly([self.cs.get(i, Poly())(n) for i in range(self.p + 1)])

    def column_poly(self, k) -> Poly:
        """W(., k) as a polynomial in n."""
        out = Poly()
        for i, c in self.cs.items():
            out = out + c.scale(Fraction(k) ** i)
        return out


def eval_W(W: IndicialPolynomial, n: int, k: int) -> Fraction:
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    return W.eval(n, k)


_MAX_SCAN = 1 << 14


def _poly_tail_lower(q: Poly, start: int):
    """Exact positive lower bound of |q(x)| over integers x >= start.

    Returns (bound, root): root is an integer zero if one exists (bound
    is then None); both None means the domination threshold was too far
    out to scan.  Past the threshold 2*sum|lower coeffs|/|lead| the
    leading term contributes at least half of |q|.
    """
    if q.is_zero():
        return None, start
    d = q.degree
    if d == 0:
        return abs(q.leading), None
    rest = sum((abs(c) for c in q.coeffs[:-1]), Fraction(0))
    theta = 2 * rest / abs(q.leading)
    cut = max(start, int(theta) + 1)
    if cut - start > _MAX_SCAN:
        return None, None
    best = None
    for x in range(start, cut + 1):
        v = abs(q(x))
        if v == 0:
            return None, x
        best = v if best is None else min(best, v)
    tail = abs(q.leading) * Fraction(max(cut, 1)) ** d / 2
    return (tail if best is None else min(best, tail)), None


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

    grid_min = None
    witness = None
    for n in range(N0 + 1):
        row = W.row_poly(n)
        for k in range(K0 + 1):
            v = abs(row(k))
            if v == 0:
                witness = (n, k)
                break
            grid_min = v if grid_min is None else min(grid_min, v)
        if witness:
            break
    if witness is not None:
        return ResonanceCertificate(
            verdict="resonant",
            C0_lower_bound=None,
            grid=grid,
            tail_argument="none",
            witness=witness,
            grid_min=None,
        )

    bound = _sign_definite_bound(W)
    if bound is not None:
        return ResonanceCertificate(
            verdict="certified_strong",
            C0_lower_bound=_check_bound(bound, grid_min),
            grid=grid,
            tail_argument="sign_definite",
            witness=None,
            grid_min=grid_min,
        )

    bound, far_witness = _leading_term_bound(W, N0, K0, grid_min)
    if far_witness is not None:
        return ResonanceCertificate(
            verdict="resonant",
            C0_lower_bound=None,
            grid=grid,
            tail_argument="none",
            witness=far_witness,
            grid_min=None,
        )
    if bound is not None:
        return ResonanceCertificate(
            verdict="certified_strong",
            C0_lower_bound=_check_bound(bound, grid_min),
            grid=grid,
            tail_argument="leading_term",
            witness=None,
            grid_min=grid_min,
        )

    return ResonanceCertificate(
        verdict="grid_verified_only",
        C0_lower_bound=None,
        grid=grid,
        tail_argument="none",
        witness=None,
        grid_min=grid_min,
    )


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


def _leading_term_bound(W: IndicialPolynomial, N0: int, K0: int, grid_min: Fraction):
    """Strong bound via domination of the k-leading coefficient c_p.

    Splits the quadrant into the grid plus three tails and bounds each
    exactly.  Returns (bound, witness); witness reports an exact zero
    found beyond the grid.  (None, None) means the argument does not
    apply, not that the bound fails.
    """
    p = W.p
    cp = W.cs[p]
    lower = [W.cs.get(i, Poly()) for i in range(p)]
    if any(c.degree > cp.degree for c in lower if not c.is_zero()):
        return None, None  # a lower power outgrows c_p in n

    bounds = [grid_min]

    # n <= N0, k > K0: one polynomial row at a time
    for n in range(N0 + 1):
        b, root = _poly_tail_lower(W.row_poly(n), K0 + 1)
        if b is None:
            return (None, (n, root)) if root is not None else (None, None)
        bounds.append(b)

    # n > N0, k <= K0: one polynomial column at a time
    for k in range(K0 + 1):
        b, root = _poly_tail_lower(W.column_poly(k), N0 + 1)
        if b is None:
            return (None, (root, k)) if root is not None else (None, None)
        bounds.append(b)

    # n > N0, k > K0: |W(n,k)| >= |c_p(n)| k^p / 2 holds once
    # k >= T(n) := 2 sum_{i<p} |c_i(n)| / |c_p(n)|.  T is checked
    # exactly on the strip where c_p's leading term has not started
    # dominating, and bounded by an n-free constant past it.
    cp_min, _cp_root = _poly_tail_lower(cp, N0 + 1)
    if cp_min is None:
        return None, None  # c_p vanishes (or dominates too late) out there
    rest_sum = sum((c.abs_coeff_sum() for c in lower), Fraction(0))
    gap = max(
        (c.degree for c in lower if not c.is_zero()), default=0
    ) - cp.degree  # <= 0 by the guard above
    if cp.degree > 0:
        theta = 2 * sum((abs(c) for c in cp.coeffs[:-1]), Fraction(0)) / abs(cp.leading)
        cut = max(N0 + 1, int(theta) + 1)
        if cut - N0 > _MAX_SCAN:
            return None, None
        # for n >= cut:  sum |c_i(n)| <= rest_sum n^{deg cp + gap} while
        # |c_p(n)| >= lead n^{deg cp} / 2, so T(n) decays like n^gap
        t_max = 4 * rest_sum / abs(cp.leading) * Fraction(N0 + 1) ** gap
        for n in range(N0 + 1, cut + 1):
            cpn = abs(cp(n))
            if cpn == 0:
                return None, None
            tn = 2 * sum((abs(c(n)) for c in lower), Fraction(0)) / cpn
            t_max = max(t_max, tn)
    else:
        t_max = 2 * rest_sum / abs(cp.coeffs[0]) if rest_sum else Fraction(0)
    if t_max > K0:
        return None, None
    bounds.append(cp_min * Fraction(K0 + 1) ** p / 2)

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
