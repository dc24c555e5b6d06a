"""Empirical growth analysis of exact solution tables.

This is the one module where floats appear.  Exact rationals cross the
boundary through logarithms only: log of a Fraction is computed from
the integer parts directly (Python's math.log takes arbitrary ints), so
tables with factorial-sized entries never touch float overflow.

Estimators:

* radius: least squares of log(|u_k| / k!^s) against k over a window;
  the slope exponentiates to 1/r.
* radius-decay exponent: least squares of log r(n) against log(n+1);
  alpha_hat is minus the slope.
* Gevrey order: least squares of log|u_k| against k log k with k as a
  second regressor (k log k is the dominant term of log k!^s, and the
  k-regressor absorbs the -sk of Stirling's formula so the leading
  coefficient is an unbiased read of s).

The bound-constant search reports the minimal pair (A(n), B) making
|u_{n,k}| <= A(n) B^k n^{alpha k} k!^s hold on the whole table; both
are rationalized upward and re-verified exactly, and shrinking B by 10%
is guaranteed to produce a violation witness.

``lemma_suite`` checks the three factorial-quotient inequalities used
by the growth estimates over finite ranges, entirely in integers:
rational powers are removed by raising both sides to the common
denominator, and a bit-length prefilter avoids building the giant
products except near equality.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, islice
from operator import itemgetter

from .series import SeriesTZ, SeriesZ


class RadiusIndeterminateError(ValueError):
    """Too few nonzero coefficients in the window to estimate a radius."""


def log_fraction(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("log of a nonpositive rational")
    return math.log(x.numerator) - math.log(x.denominator)


def _least_squares(xs, ys):
    """Slope and intercept of the ordinary least squares line."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return slope, my - slope * mx


def default_window(order: int) -> tuple[int, int]:
    """Upper half of the coefficient range: asymptotics, not transients."""
    return order // 2, order


def radius_estimate(u_n: SeriesZ, s: Fraction, window: tuple[int, int] | None = None) -> float:
    """Radius of the Gevrey-rescaled series sum u_k / k!^s z^k.

    1/r is exp of the least-squares slope of log(|u_k|/k!^s) against k.
    """
    if window is None:
        window = default_window(u_n.order)
    k_min, k_max = window
    if not (0 <= k_min <= k_max <= u_n.order):
        raise ValueError("window outside truncation")
    sf = float(s)
    pts = [
        (k, log_fraction(abs(u_n.coeffs[k])) - sf * math.lgamma(k + 1))
        for k in range(k_min, k_max + 1)
        if u_n.coeffs[k] != 0
    ]
    if len(pts) < 8:
        raise RadiusIndeterminateError(
            f"only {len(pts)} nonzero coefficients in window {window}; "
            "radius indeterminate (>= truncation resolution)"
        )
    slope, _ = _least_squares([p[0] for p in pts], [p[1] for p in pts])
    return math.exp(-slope)


@dataclass(frozen=True)
class AlphaFit:
    alpha_hat: float
    a_hat: float
    degenerate: bool


def fit_alpha(radii: dict[int, float]) -> AlphaFit:
    """Fit r(n) = a (n+1)^{-alpha} by least squares in log-log scale."""
    if len(radii) < 8:
        raise ValueError("need at least 8 radius data points")
    ns = sorted(radii)
    xs = [math.log(n + 1) for n in ns]
    ys = [math.log(radii[n]) for n in ns]
    if max(ys) - min(ys) < 1e-12:
        return AlphaFit(alpha_hat=0.0, a_hat=math.exp(ys[0]), degenerate=True)
    slope, intercept = _least_squares(xs, ys)
    return AlphaFit(alpha_hat=-slope, a_hat=math.exp(intercept), degenerate=False)


def fit_gevrey(u_n: SeriesZ, window: tuple[int, int] | None = None) -> float:
    """Gevrey order from the k log k growth of log|u_k|."""
    if window is None:
        window = default_window(u_n.order)
    k_min, k_max = window
    pts = [
        (k, log_fraction(abs(u_n.coeffs[k])))
        for k in range(k_min, k_max + 1)
        if u_n.coeffs[k] != 0 and k >= 2
    ]
    if len(pts) < 8:
        raise RadiusIndeterminateError(
            f"only {len(pts)} nonzero coefficients in window {window}"
        )
    # two-regressor least squares: y ~ b1 * k log k + b2 * k + c
    rows = [(k * math.log(k), float(k), 1.0) for k, _ in pts]
    ys = [y for _, y in pts]
    b1 = _solve_normal_equations(rows, ys)[0]
    return b1


def _solve_normal_equations(rows, ys):
    """Tiny dense least squares via the normal equations."""
    d = len(rows[0])
    ata = [[sum(r[i] * r[j] for r in rows) for j in range(d)] for i in range(d)]
    atb = [sum(r[i] * y for r, y in zip(rows, ys)) for i in range(d)]
    # Gaussian elimination with partial pivoting
    for col in range(d):
        piv = max(range(col, d), key=lambda r: abs(ata[r][col]))
        if abs(ata[piv][col]) < 1e-300:
            raise ValueError("degenerate regression")
        ata[col], ata[piv] = ata[piv], ata[col]
        atb[col], atb[piv] = atb[piv], atb[col]
        for r in range(col + 1, d):
            f = ata[r][col] / ata[col][col]
            for c in range(col, d):
                ata[r][c] -= f * ata[col][c]
            atb[r] -= f * atb[col]
    out = [0.0] * d
    for r in range(d - 1, -1, -1):
        out[r] = (atb[r] - sum(ata[r][c] * out[c] for c in range(r + 1, d))) / ata[r][r]
    return out


# ------------------------------------------------------- exact bound check

def _gevrey_powers(c, b, n: int, alpha, s, L: int, step: int = 1):
    """(c b^m n^{alpha step m} (step m)!^s)^L for m = 0, 1, ..., as (num, den) ints.

    L must clear the denominators of alpha and s, and c, b are positive
    rationals.  The pair is carried from m to m + 1 as a running product
    with no gcd; a factor with a negative exponent multiplies den
    instead of num.
    """
    num, den = c.numerator**L, c.denominator**L
    a, sl = int(alpha * L * step), int(s * L)
    bn = b.numerator**L * n ** max(a, 0)
    bd = b.denominator**L * n ** max(-a, 0)
    k = 0
    while True:
        yield num, den
        f = math.prod(range(k + 1, k + step + 1)) ** abs(sl)
        k += step
        if sl >= 0:
            num, den = num * (bn * f), den * bd
        else:
            num, den = num * bn, den * (bd * f)


def bound_violation(
    u: SeriesTZ, alpha: Fraction, s: Fraction, A: dict[int, Fraction], B: Fraction
):
    """First cell breaking |u_{n,k}| <= A(n) B^k n^{alpha k} k!^s, or None.

    Rows start at n = 1 (the bound degenerates at n = 0).  Both sides
    are raised to L = lcm(den alpha, den s); each row's right side comes
    from _gevrey_powers as num/den, and |u|^L <= num/den is checked by
    cross-multiplying.  Cells are tried in row-major order.
    """
    L = math.lcm(alpha.denominator, s.denominator)
    for n, cells in groupby(u.items(), key=itemgetter(0)):
        if n < 1 or n not in A:
            continue
        rhs = _gevrey_powers(A[n], B, n, alpha, s, L)
        k_next = 0
        for _n, k, v in cells:
            num, den = next(islice(rhs, k - k_next, None))
            k_next = k + 1
            p, q = abs(v.numerator) ** L, v.denominator**L
            # p den < 2^(bits(p) + bits(den)) <= 2^(bits(num) + bits(q) - 2) <= num q
            # settles all but near-ties without multiplying out
            if p.bit_length() + den.bit_length() > num.bit_length() + q.bit_length() - 2:
                if p * den > num * q:
                    return (n, k)
    return None


def minimal_bound_constants(
    u: SeriesTZ, alpha: Fraction, s: Fraction
) -> tuple[dict[int, Fraction], Fraction]:
    """Minimal (A(n), B) with |u_{n,k}| <= A(n) B^k n^{alpha k} k!^s on the table.

    B is the largest geometric slope between any two normalized cells in
    the same row, so any 10% smaller B breaks the bound at the slope's
    endpoints with A(n) held fixed.  Estimates run in log floats and are
    rationalized upward by one part in 2^20, then re-verified exactly.
    """
    sf, af = float(s), float(alpha)
    logv: dict[int, list[tuple[int, float]]] = {}
    for n, k, v in u.items():
        if n < 1:
            continue
        logv.setdefault(n, []).append(
            (k, log_fraction(abs(v)) - sf * math.lgamma(k + 1) - af * k * math.log(n))
        )

    slope = None
    for n, pts in logv.items():
        pts.sort()
        for (k1, y1), (k2, y2) in zip(pts, pts[1:]):
            cand = (y2 - y1) / (k2 - k1)
            slope = cand if slope is None else max(slope, cand)
    if slope is None:
        raise ValueError("table has no usable rows (n >= 1)")
    B = _rationalize_up(math.exp(slope))

    A: dict[int, Fraction] = {}
    lb = math.log(float(B))
    for n, pts in logv.items():
        A[n] = _rationalize_up(math.exp(max(y - k * lb for k, y in pts)))

    witness = bound_violation(u, alpha, s, A, B)
    bump = 0
    while witness is not None and bump < 4:
        # float slop; nudge the offending row and retry
        A[witness[0]] *= Fraction(1_048_577, 1_048_576)
        witness = bound_violation(u, alpha, s, A, B)
        bump += 1
    if witness is not None:
        raise AssertionError("bound constants failed exact verification")
    return A, B


def _rationalize_up(x: float) -> Fraction:
    return Fraction(x).limit_denominator(1 << 30) * Fraction(1_048_577, 1_048_576)


# ------------------------------------------------------------ lemma suite

@dataclass(frozen=True)
class LemmaReport:
    checked: tuple[int, int, int]
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


_FACT: list[int] = [1]


def _fact(x: int) -> int:
    while len(_FACT) <= x:
        _FACT.append(_FACT[-1] * len(_FACT))
    return _FACT[x]


def _int_products_le(lhs, rhs) -> bool:
    """Exact lhs <= rhs for products of (positive int base, int exponent >= 0).

    Bit-length bounds decide all but near-ties without multiplying out.
    """
    lhs = [(b, e) for b, e in lhs if e > 0 and b != 1]
    rhs = [(b, e) for b, e in rhs if e > 0 and b != 1]
    if any(b == 0 for b, _e in lhs):
        return True
    if any(b == 0 for b, _e in rhs):
        return False
    llo = sum(e * (b.bit_length() - 1) for b, e in lhs)
    lhi = sum(e * b.bit_length() for b, e in lhs)
    rlo = sum(e * (b.bit_length() - 1) for b, e in rhs)
    rhi = sum(e * b.bit_length() for b, e in rhs)
    if lhi <= rlo:
        return True
    if llo > rhi:
        return False
    lprod = math.prod(b**e for b, e in lhs) if lhs else 1
    rprod = math.prod(b**e for b, e in rhs) if rhs else 1
    return lprod <= rprod


def lemma1_holds(s: Fraction, i: int, p: int, j: int, k: int, l: int) -> bool:
    """(k-j-l)^i (k-j-l)!^s l!^s <= k^p k!^s, assuming js >= i - p.

    Both sides are raised to the denominator of s, so the comparison is
    between plain integers.
    """
    M = k - j - l
    if M == 0 and i > 0:
        return True  # left side is 0
    sig, tau = s.numerator, s.denominator
    lhs = [(M, i * tau), (_fact(M), sig), (_fact(l), sig)]
    rhs = [(k, p * tau), (_fact(k), sig)]
    if M == 0:
        lhs = lhs[1:]
    return _int_products_le(lhs, rhs)


def lemma2_holds(s: Fraction, s_prime: Fraction, i: int, p: int, j: int, k: int, l: int) -> bool:
    """(k-j-l)^i (k-j-l)!^s l!^s <= k^{p + s' - s} k!^s.

    Raised to lcm(den(s), den(s')); a negative exponent on k moves to
    the left side.
    """
    M = k - j - l
    if M == 0 and i > 0:
        return True
    D = math.lcm(s.denominator, s_prime.denominator)
    sD = int(s * D)
    ke = p * D + int(s_prime * D) - sD
    lhs = [(M, i * D)] if M > 0 else []
    lhs += [(_fact(M), sD), (_fact(l), sD)]
    rhs = [(_fact(k), sD)]
    if ke >= 0:
        rhs.append((k, ke))
    else:
        lhs.append((k, -ke))
    return _int_products_le(lhs, rhs)


def lemma3_holds(s: Fraction, i: int, p: int, j: int, k: int) -> bool:
    """(k-j)^i (k-j)!^s / (k^p k!^s) >= 2^{-i}, for k >= 2j, js = i - p."""
    M = k - j
    sig, tau = s.numerator, s.denominator
    lhs = [(M, i * tau), (_fact(M), sig), (2, i * tau)]
    rhs = [(k, p * tau), (_fact(k), sig)]
    return _int_products_le(rhs, lhs)


def lemma_suite(
    s_values=(Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)),
    i_max: int = 6,
    p_max: int = 6,
    j_max: int = 4,
    k_max: int = 200,
) -> LemmaReport:
    """Exhaustive exact check of the three quotient inequalities.

    Only the binding corner per degree gap d = i - p is multiplied out:
    raising p by one multiplies the right side by k^D and the left by
    (k-j-l)^D <= k^D, so the corner at minimal p decides every (i, p)
    with the same gap.  A bit-length bound settles most corners without
    building the factorial powers; near-ties fall back to the exact
    integer products.
    """
    counterexamples = []
    n1 = n2 = n3 = 0
    _fact(k_max)
    F = _FACT
    fbits = [F[x].bit_length() for x in range(k_max + 1)]

    for s in s_values:
        sig, tau = s.numerator, s.denominator
        for j in range(1, j_max + 1):
            corners1 = [
                (max(d, 0), max(-d, 0))
                for d in range(-p_max, i_max + 1)
                if Fraction(d, j) <= s
            ]
            D = math.lcm(tau, j)
            sD = sig * (D // tau)
            Dj = D // j
            corners2 = [
                (max(d, 0), max(-d, 0), d)
                for d in range(-p_max, i_max + 1)
                if Fraction(d, j) < s
            ]
            for k in range(1, k_max + 1):
                kb = k.bit_length()
                FK, FKb = F[k], fbits[k]
                for l in range(0, k - j + 1):
                    M = k - j - l
                    FML = F[M] * F[l]
                    FMLb = FML.bit_length()
                    Mb = M.bit_length()

                    n1 += len(corners1)
                    for i, p in corners1:
                        if M == 0 and i > 0:
                            continue
                        eM = i * tau
                        ek = p * tau
                        if eM * Mb + sig * FMLb <= ek * (kb - 1) + sig * (FKb - 1):
                            continue
                        if M**eM * FML**sig > k**ek * FK**sig:
                            counterexamples.append(("le_1", s, i, p, j, k, l))

                    n2 += len(corners2)
                    for i, p, d in corners2:
                        if M == 0 and i > 0:
                            continue
                        eM = i * D
                        ke = p * D + d * Dj - sD
                        ekl, ekr = (-ke, 0) if ke < 0 else (0, ke)
                        lhi = eM * Mb + sD * FMLb + ekl * kb
                        rlo = ekr * (kb - 1) + sD * (FKb - 1)
                        if lhi <= rlo:
                            continue
                        if M**eM * FML**sD * k**ekl > k**ekr * FK**sD:
                            counterexamples.append(("le_2", s, i, p, j, k, l))

    for s in s_values:
        for j in range(1, j_max + 1):
            for p in range(p_max + 1):
                if (s * j).denominator != 1:
                    continue
                i = p + int(s * j)
                if i > i_max:
                    continue
                for k in range(2 * j, k_max + 1):
                    n3 += 1
                    if not lemma3_holds(s, i, p, j, k):
                        counterexamples.append(("le_3", s, i, p, j, k))

    return LemmaReport(checked=(n1, n2, n3), counterexamples=tuple(counterexamples))


@dataclass(frozen=True)
class GrowthReport:
    radii: dict[int, float]
    alpha_hat: float
    a_hat: float
    s_hat: float
    window: tuple[int, int, int, int]  # n_min, n_max, k_min, k_max
    bound_A: dict[int, Fraction] | None
    bound_B: Fraction | None

    def to_json_dict(self) -> dict:
        return {
            "radii": [[n, self.radii[n]] for n in sorted(self.radii)],
            "alpha_hat": self.alpha_hat,
            "a_hat": self.a_hat,
            "s_hat": self.s_hat,
            "window": list(self.window),
            "bounds": None
            if self.bound_B is None
            else {
                "B": str(self.bound_B),
                "A": [[n, str(self.bound_A[n])] for n in sorted(self.bound_A)],
            },
        }


def analyze_table(
    u: SeriesTZ,
    s: Fraction,
    n_window: tuple[int, int] | None = None,
    k_window: tuple[int, int] | None = None,
    alpha: Fraction | None = None,
) -> GrowthReport:
    """Radius table, exponent fits, and (optionally) bound constants."""
    if n_window is None:
        n_window = (1, u.n_order)
    if k_window is None:
        k_window = default_window(u.k_order)
    rows: dict[int, list] = {}
    for n, k, v in u.items():
        rows.setdefault(n, [0] * (u.k_order + 1))[k] = v
    radii = {}
    for n in range(n_window[0], n_window[1] + 1):
        try:
            radii[n] = radius_estimate(SeriesZ(rows.get(n, ()), u.k_order), s, k_window)
        except RadiusIndeterminateError:
            continue
    fit = fit_alpha(radii)
    mid = sorted(radii)[len(radii) // 2]
    s_hat = fit_gevrey(SeriesZ(rows[mid], u.k_order), k_window)
    bound_A = bound_B = None
    if alpha is not None:
        bound_A, bound_B = minimal_bound_constants(u, alpha, s)
    return GrowthReport(
        radii=radii,
        alpha_hat=fit.alpha_hat,
        a_hat=fit.a_hat,
        s_hat=s_hat,
        window=(n_window[0], n_window[1], k_window[0], k_window[1]),
        bound_A=bound_A,
        bound_B=bound_B,
    )


def radii_svg(radii: dict[int, float], fit: AlphaFit, size: int = 420) -> str:
    """Log-log plot of the radius table with the fitted decay line."""
    ns = sorted(radii)
    xs = [math.log(n + 1) for n in ns]
    ys = [math.log(radii[n]) for n in ns]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0

    def xy(x, y):
        return (
            40 + (x - x0) / dx * (size - 60),
            size - 30 - (y - y0) / dy * (size - 60),
        )

    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}">']
    fx0, fy0 = xy(x0, math.log(fit.a_hat) - fit.alpha_hat * x0)
    fx1, fy1 = xy(x1, math.log(fit.a_hat) - fit.alpha_hat * x1)
    out.append(
        f'<line x1="{fx0:.2f}" y1="{fy0:.2f}" x2="{fx1:.2f}" y2="{fy1:.2f}" stroke="blue"/>'
    )
    for x, y in zip(xs, ys):
        cx, cy = xy(x, y)
        out.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="3" fill="red"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
