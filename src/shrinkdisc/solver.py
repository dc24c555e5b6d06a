"""Exact solution of the operator equation and the sharpness table.

Writing the equation coefficientwise, the t^n z^k coefficient of
P(dt, dz) applied to the m-fold t-antiderivative of u couples u_{n',k'}
only for (n', k') at or lexicographically below (n, k), and the
coefficient multiplying u_{n,k} itself is the indicial value
W_{m,0}(n, k, 0).  Rows are therefore solved in lexicographic order by
one exact division per cell; no pivoting is ever needed.

The coupling of (P, m) is compiled once into a stencil of entries
(dn, dk, q, r, c): the coefficient c of a_qr at t^nu z^kap sends u at
(n - dn, k - dk) to (n, k).  Per row the t-factor is hoisted, the
weight denominators are cleared by one integer D_n and the falling
factorials in k come from a precomputed integer table, so the entries
sharing a shift (dn, dk) add up to one vector of Python ints over k.
``solve_full`` gathers each cell from these vectors and divides by the
diagonal; ``apply_full`` runs the same gather without the division.
A value stays an int while its division is exact and becomes a
Fraction at the first inexact one; mixed int and Fraction arithmetic
carries on from there.

Cells outside the truncation rectangle are treated as zero on both the
solve and the apply side, so the round trip apply(solve(g)) reproduces
g exactly on the window where no truncated information is referenced.

``adversarial`` builds the inhomogeneity that certifies the radius
exponent alpha cannot be improved: it cancels every coupling except
the lowest-order part of the z-shift column that attains alpha, leaving
a pure one-step recurrence along the arithmetic progression k = m*j.
On that progression the solution grows at least like
C(n) D^k k!^s n^{alpha k}, with D assembled from the explicit
polynomial data rather than an existence argument.

``solve_theta`` and ``adversarial`` share one integer row recurrence:
``_theta_row`` compiles row n once, clearing its denominators with one
integer and keeping only the nonzero coefficients of each a(z).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add, mul

from .analysis import ThetaOperator, exponents, principal_part, reduce_to_theta
from .dsl import NormalOperator
from .growth import _gevrey_powers
from .polynomial import Poly
from .resonance import IndicialPolynomial, ResonanceError, _values
from .series import SeriesTZ, SeriesZ


class ConditionError(ValueError):
    """A solvability condition fails; the message names which one."""


class NoAdversarialDirectionError(ValueError):
    """alpha = 0: there is no direction along which radii must shrink."""


class ResidualError(ArithmeticError):
    """The solved table, applied back, does not reproduce the right side."""

    def __init__(self, n: int, k: int):
        super().__init__(f"residual check failed: first difference at (n, k) = ({n}, {k})")
        self.n, self.k = n, k


def _ff_int(x: int, r: int) -> int:
    out = 1
    for t in range(r):
        out *= x - t
    return out


def _t_factor(n2: int, q: int, m: int):
    """Coefficient picked up by t^{n2} under dt^q after the m-fold antiderivative.

    Nonzero exactly when n2 >= max(q - m, 0).
    """
    if q >= m:
        return _ff_int(n2, q - m)
    return Fraction(1, _ff_int(n2 + m - q, m - q))


def _stencil(P: NormalOperator, m: int, K: int):
    """The (P, m) coupling as entries (dn, dk, q, r, c), with ff(k2, r) for k2 <= K.

    The entry for a_qr[nu, kap] = c sends u_{n2,k2} to the t^n z^k
    coefficient, n = n2 + dn and k = k2 + dk, with the weight
    c * _t_factor(n2, q, m) * ff(k2, r); the weight is nonzero exactly
    when n2 >= max(q - m, 0) and k2 >= r.
    """
    stencil = [
        (m - q + nu, kap - r, q, r, c)
        for (q, r), a in P.terms.items()
        for nu, kap, c in a.items()
    ]
    ff = {r: [_ff_int(k2, r) for k2 in range(K + 1)] for _dn, _dk, _q, r, _c in stencil}
    return stencil, ff


def _row(stencil, n: int, m: int, N: int) -> tuple[int, dict]:
    """Row n's weights from source rows 0..N, as (D_n, {(dn, dk): [(r, w), ...]}).

    Entries sharing (dn, dk, r) are merged, the t-factor is hoisted into
    the weight and the row's weight denominators are cleared by the one
    integer D_n: w is the int D_n * sum of c * _t_factor(n - dn, q, m).
    """
    merged: dict[tuple[int, int, int], Fraction] = {}
    for dn, dk, q, r, c in stencil:
        if max(q - m, 0) <= n - dn <= N:
            merged[dn, dk, r] = merged.get((dn, dk, r), 0) + c * _t_factor(n - dn, q, m)
    D = lcm(*(w.denominator for w in merged.values()))
    live: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (dn, dk, r), w in merged.items():
        if w:
            live.setdefault((dn, dk), []).append((r, w.numerator * (D // w.denominator)))
    return D, live


def _weights(rws, ff: dict[int, list[int]], K: int) -> list[int]:
    """sum of w * ff(k2, r) over (r, w) in rws, for k2 = 0..K."""
    vec = [0] * (K + 1)
    for r, w in rws:
        vec = [x + w * f for x, f in zip(vec, ff[r])]
    return vec


def _gather(acc: list, entries, u: list[list], n: int, ff: dict[int, list[int]]):
    """acc[k] += w[k - dk] * u[n - dn][k - dk] over ((dn, dk), rws), w = _weights(rws).

    k runs over acc's window wherever k - dk is a column 0..K of u.
    """
    K = len(u[0]) - 1
    for (dn, dk), rws in entries:
        lo, hi = max(dk, 0), min(len(acc) - 1, K + dk)
        if lo <= hi:
            prods = map(mul, _weights(rws, ff, K)[lo - dk :], u[n - dn][lo - dk : hi - dk + 1])
            acc[lo : hi + 1] = map(add, acc[lo : hi + 1], prods)


def _div(num, den):
    """num / den as an int while the division is exact, else a Fraction."""
    if isinstance(num, int):
        q, rem = divmod(num, den)
        return q if rem == 0 else Fraction(num, den)
    v = num / den
    return v.numerator if v.denominator == 1 else v


def _dense(s: SeriesTZ) -> list[list]:
    """Rows of s, integral values as ints."""
    rows = [[0] * (s.k_order + 1) for _ in range(s.n_order + 1)]
    for n, k, v in s.items():
        rows[n][k] = v.numerator if v.denominator == 1 else v
    return rows


@dataclass(frozen=True)
class SolutionTable:
    u: SeriesTZ
    g: SeriesTZ
    residual_checked: bool


def solve_full(P: NormalOperator, m: int, g: SeriesTZ, check_residual: bool = True) -> SolutionTable:
    """Solve P(dt,dz) applied to the m-fold antiderivative of u equals g.

    Preconditions are the solvability conditions at this truncation:
    the reduction must yield lower ordinate 0 (else ConditionError) and
    the diagonal must never vanish on the table (else ResonanceError
    carrying the failing (n, k)).  P's coefficients must be known on g's
    whole window (else ValueError).  With check_residual the solved table
    is applied back and must reproduce g on the output window, else
    ResidualError names the first differing (n, k).
    """
    if P.n_order < g.n_order or P.k_order < g.k_order:
        raise ValueError(
            f"operator coefficients truncated at orders ({P.n_order}, {P.k_order}), "
            f"below the right side's ({g.n_order}, {g.k_order})"
        )
    T = reduce_to_theta(principal_part(P, m), m)
    if T.l != 0:
        raise ConditionError(
            f"lower ordinate is {T.l}, not 0: condition (a) fails, the equation "
            "is not triangular"
        )

    u = _solve(P, m, g)
    if check_residual:
        out = apply_full(P, m, u)
        expected = g.truncate(out.n_order, out.k_order)
        if out != expected:
            n, k, _v = (out - expected).items()[0]
            raise ResidualError(n, k)
    return SolutionTable(u=u, g=g, residual_checked=check_residual)


def _solve(P: NormalOperator, m: int, g: SeriesTZ) -> SeriesTZ:
    """The stencil solve, cell by cell; its work tables die before the residual apply."""
    N, K = g.n_order, g.k_order
    stencil, ff = _stencil(P, m, K)
    if any((dn, dk) < (0, 0) for dn, dk, *_e in stencil):  # pragma: no cover - m < compute_m(P)
        raise AssertionError("lexicographic triangularity violated")
    u = _dense(g)  # row n is overwritten by the solution once solved
    for n in range(N + 1):
        D, live = _row(stencil, n, m, N)
        acc = [0] * (K + 1)
        _gather(acc, [e for e in live.items() if e[0][0] > 0], u, n, ff)
        same = [(dk, _weights(rws, ff, K)) for (dn, dk), rws in live.items() if dn == 0 < dk]
        diag = _weights(live.get((0, 0), ()), ff, K)
        row = u[n]
        for k in range(K + 1):
            if diag[k] == 0:
                raise ResonanceError(n, k)
            s = acc[k] + sum(w[k - dk] * row[k - dk] for dk, w in same if k >= dk)
            row[k] = _div(D * row[k] - s, diag[k])
    return SeriesTZ({(n, k): v for n, row in enumerate(u) for k, v in enumerate(row)}, N, K)


def apply_full(P: NormalOperator, m: int, u: SeriesTZ) -> SeriesTZ:
    """P(dt,dz) applied to the m-fold t-antiderivative of u.

    The output is truncated to the rectangle on which every convolution
    is complete given u's truncation: the t-window survives in full
    whenever m matches the operator (losses are m_P - m, the least dn
    of the stencil), and the z-window loses max(r - ord_z a_qr) orders
    (the least dk).
    """
    N, K = u.n_order, u.k_order
    stencil, ff = _stencil(P, m, K)
    n_out = N + min((dn for dn, *_e in stencil), default=m)
    k_out = K + min((dk for _dn, dk, *_e in stencil), default=0)
    if n_out < 0 or k_out < 0:
        raise ValueError("truncation too small for this operator")

    rows = _dense(u)
    ent = {}
    for n in range(n_out + 1):
        D, live = _row(stencil, n, m, N)
        acc = [0] * (k_out + 1)
        _gather(acc, live.items(), rows, n, ff)
        for k, v in enumerate(acc):
            if v:
                ent[(n, k)] = v if D == 1 else _div(v, D)
    return SeriesTZ(ent, n_out, k_out)


def solve_theta(T: ThetaOperator, n: int, f: SeriesZ, K: int) -> SeriesZ:
    """One row of the family: solve the k-recurrence at fixed n.

    Divides by W(n, k) at every step; a vanishing diagonal raises
    ResonanceError with the failing pair.
    """
    if f.order < K:
        raise ValueError("inhomogeneity truncated below the requested order")
    if T.min_a_window() < K:
        raise ValueError("theta coefficients truncated below the requested order")
    E, diag, shifted = _theta_row(T, IndicialPolynomial.from_theta(T), n, K)
    u: list = []
    for k in range(K + 1):
        if diag[k] == 0:
            raise ResonanceError(n, k)
        fk = f.coeffs[k]
        fk = fk.numerator if fk.denominator == 1 else fk
        u.append(_div(E * fk - _shifted_sum(shifted, u, k), diag[k]))
    return SeriesZ(u, K)


def _theta_row(T: ThetaOperator, W: IndicialPolynomial, n: int, K: int):
    """Row n of the family on integers, as (E, diag, shifted), for k <= K.

    The one integer E clears every denominator of the row: diag[k] is
    E W(n, k), and shifted lists the z-shifted entries (i, j, [(l, e),
    ...]) with e = E w(n) a_l over the nonzero a_l only, l ascending;
    entries sharing (i, j) are merged.
    """
    merged: dict[tuple[int, int], dict[int, Fraction]] = {}
    for t in T.terms:
        wv = t.w(n)
        if t.j > 0 and wv != 0:
            col = merged.setdefault((t.i, t.j), {})
            for l, al in enumerate(t.a.coeffs[: K - t.j + 1]):
                if al:
                    col[l] = col.get(l, 0) + wv * al
    E = lcm(W.D, *(c.denominator for col in merged.values() for c in col.values()))
    diag = [E // W.D * v for v in _values(W.int_row(n), 0, K + 1)]
    shifted = []
    for (i, j), col in merged.items():
        les = [(l, c.numerator * (E // c.denominator)) for l, c in sorted(col.items()) if c]
        if les:
            shifted.append((i, j, les))
    return E, diag, shifted


def _shifted_sum(shifted, u: list, k: int):
    """E times the z-shifted part of a row's k-recurrence at k, given u below k."""
    acc = 0
    for i, j, les in shifted:
        for l, e in les:
            x = k - j - l
            if x < 0:
                break
            acc += e * x**i * u[x]
    return acc


# ------------------------------------------------------------ sharpness

@dataclass(frozen=True)
class AdversarialPair:
    n: int
    f_n: SeriesZ
    u_n: SeriesZ
    i_star: int
    j_star: int
    d_base: Fraction  # D^{j_star}; D itself is its j_star-th root
    alpha: Fraction
    s: Fraction
    gamma_bar: Fraction
    reseeded: bool


def adversarial(T: ThetaOperator, n: int, K: int) -> AdversarialPair:
    """Inhomogeneity isolating the z-shift column that attains alpha.

    Every coupling term is cancelled through f except the lowest-order
    part of the j* column, so the solution satisfies the one-step
    recurrence W(n,k) u_k = -(column at k) u_{k-j*}.  If the very first
    step annihilates the seed (no Euler-power-zero entry in the column),
    the seed is replanted at k = j* through f; only the finitely many
    initial entries are affected, which the constant C(n) absorbs.
    """
    if n < 1:
        raise ValueError("row index must be >= 1")
    rep = exponents(T)
    if rep.alpha == 0:
        raise NoAdversarialDirectionError("alpha = 0, no adversarial direction")
    labels = T.labels()
    deg = {key: poly.degree for key, poly in labels.items()}
    p = rep.p
    crit = [
        (i, j)
        for (i, j) in labels
        if j > 0
        and Fraction(i - p, j) == rep.s
        and Fraction(deg[(i, j)] - deg[(p, 0)], j) == rep.alpha
    ]
    j_star, i_star = min((j, -i) for (i, j) in crit)
    i_star = -i_star
    w_star = labels[(i_star, j_star)]
    if w_star(n) == 0:
        raise ValueError(f"row n = {n} too small: the critical polynomial vanishes")

    W = IndicialPolynomial.from_theta(T)
    E, diag, shifted = _theta_row(T, W, n, K)
    # the j* column at l = 0, weights E w(n) a(0)
    column = [(i, les[0][1]) for i, j, les in shifted if j == j_star and les[0][0] == 0]

    u = [1]
    reseeded = False
    for k in range(1, K + 1):
        if diag[k] == 0:
            raise ResonanceError(n, k)
        val = 0
        if k >= j_star:
            x = k - j_star
            val = _div(-sum(e * x**i for i, e in column) * u[x], diag[k])
        if k == j_star and val == 0:
            val = 1
            reseeded = True
        u.append(val)
    u_n = SeriesZ(u, K)

    # f re-derived from the full recurrence so that solve_theta(f) == u
    f_n = SeriesZ([_div(diag[k] * u[k] + _shifted_sum(shifted, u, k), E) for k in range(K + 1)], K)

    d1 = abs(w_star(n)) / Fraction(n) ** w_star.degree
    d2 = sum(
        (abs(W.cs.get(i, _ZERO_POLY)(n)) for i in range(W.p + 1)), Fraction(0)
    ) / Fraction(n) ** deg[(p, 0)]
    d_base = d1 / (d2 * 2**i_star)

    return AdversarialPair(
        n=n,
        f_n=f_n,
        u_n=u_n,
        i_star=i_star,
        j_star=j_star,
        d_base=d_base,
        alpha=rep.alpha,
        s=rep.s,
        gamma_bar=max(rep.gamma, rep.gamma_tilde),
        reseeded=reseeded,
    )


_ZERO_POLY = Poly()


@dataclass(frozen=True)
class SharpnessCheck:
    holds: bool
    threshold_m: int
    c_n: float
    first_violation: int | None


def verify_sharpness(pair: AdversarialPair) -> SharpnessCheck:
    """Check |u_{n, m j*}| >= C(n) D^{m j*} (m j*)!^s n^{alpha m j*}.

    C(n) is fixed as the smallest ratio over the initial segment up to
    the threshold index (past which the step-by-step gain is at least
    one), so the check on the rest of the progression is a genuine
    inequality, not a tautology.
    """
    from math import factorial

    j, n = pair.j_star, pair.n
    M = pair.u_n.order // j

    def threshold_ok(m):
        k = m * j
        if k < 2 * j:
            return False
        # k >= n^gamma_bar, compared exactly via cross powers
        g = pair.gamma_bar
        return k ** g.denominator >= n**g.numerator

    m0 = next((m for m in range(M + 1) if threshold_ok(m)), M)

    zero_at = next((m for m in range(M + 1) if pair.u_n.coeffs[m * j] == 0), None)
    if zero_at is not None:
        return SharpnessCheck(
            holds=False, threshold_m=m0, c_n=0.0, first_violation=zero_at
        )

    # ratio(m) = |u_{mj}| / (D^{mj} (mj)!^s n^{alpha mj}), raised to L, as P_m / Q_m
    L = lcm(pair.alpha.denominator, pair.s.denominator)
    scales = _gevrey_powers(1, pair.d_base, n, pair.alpha, pair.s, L, j)
    ratios = [
        (abs(v.numerator) ** L * den, v.denominator**L * num)
        for v, (num, den) in zip(pair.u_n.coeffs[::j], scales)
    ]

    def ratio_le(a, b):
        return ratios[a][0] * ratios[b][1] <= ratios[b][0] * ratios[a][1]

    # index of the minimal ratio over the initial segment
    c_idx = 0
    for m in range(1, min(m0, M) + 1):
        if not ratio_le(c_idx, m):
            c_idx = m

    first_violation = next((m for m in range(M + 1) if not ratio_le(c_idx, m)), None)

    k = c_idx * j
    c_val = 1.0
    for b, e in (
        (abs(pair.u_n.coeffs[k]), Fraction(1)),
        (pair.d_base, Fraction(-c_idx)),
        (Fraction(factorial(k)), -pair.s),
        (Fraction(n), -pair.alpha * k),
    ):
        c_val *= float(b) ** float(e)
    return SharpnessCheck(
        holds=first_violation is None,
        threshold_m=m0,
        c_n=c_val,
        first_violation=first_violation,
    )
