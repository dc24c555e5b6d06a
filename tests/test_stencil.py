"""The compiled integer stencil against the plain Fraction loops.

``oracle_solve`` and ``oracle_apply`` walk the (P, m) coupling term by
term in Fraction arithmetic, recomputing every t-factor and falling
factorial per cell.  They share no code with the stencil, so identical
tables on the cases below show that the int-then-Fraction solve and
apply compute the same exact values.
"""
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from shrinkdisc import fixtures
from shrinkdisc.analysis import analyze_operator, exponents
from shrinkdisc.dsl import build_operator
from shrinkdisc.resonance import IndicialPolynomial, ResonanceError
from shrinkdisc.series import SeriesTZ
from shrinkdisc.solver import apply_full, solve_full


def _ff(x, r):
    out = 1
    for t in range(r):
        out *= x - t
    return out


def _t_factor(n2, q, m):
    e = q - m
    if e >= 0:
        return _ff(n2, e)
    if n2 + m - q < 0:
        return 0
    f = Fraction(1)
    for t in range(1, -e + 1):
        f /= n2 + t
    return f


def _terms(P):
    return [(q, r, a.items()) for (q, r), a in sorted(P.terms.items())]


def oracle_solve(P, m, g):
    N, K = g.n_order, g.k_order
    u = [[None] * (K + 1) for _ in range(N + 1)]
    for n in range(N + 1):
        for k in range(K + 1):
            acc = g.coeff(n, k)
            diag = Fraction(0)
            for q, r, items in _terms(P):
                for nu, kap, c in items:
                    n2 = n - m + q - nu
                    k2 = k + r - kap
                    if not (0 <= n2 <= N and 0 <= k2 <= K):
                        continue
                    w = c * _t_factor(n2, q, m) * _ff(k2, r)
                    if w == 0:
                        continue
                    if (n2, k2) == (n, k):
                        diag += w
                    else:
                        assert (n2, k2) < (n, k)
                        acc -= w * u[n2][k2]
            if diag == 0:
                raise ResonanceError(n, k)
            u[n][k] = acc / diag
    return SeriesTZ({(n, k): u[n][k] for n in range(N + 1) for k in range(K + 1)}, N, K)


def oracle_apply(P, m, u):
    N, K = u.n_order, u.k_order
    live = [(q, r, a) for (q, r), a in P.terms.items() if not a.is_zero()]
    n_out = N + m - max((q - a.ord_t() for q, _r, a in live), default=0)
    k_out = K - max((r - a.ord_z() for _q, r, a in live), default=0)
    ent = {}
    for q, r, items in _terms(P):
        for n2, k2, uc in u.items():
            base = uc * _t_factor(n2, q, m) * _ff(k2, r)
            for nu, kap, c in items:
                tn, tk = n2 + m - q + nu, k2 - r + kap
                if base and 0 <= tn <= n_out and 0 <= tk <= k_out:
                    ent[(tn, tk)] = ent.get((tn, tk), Fraction(0)) + c * base
    return SeriesTZ(ent, n_out, k_out)


def outcome(fn, *args):
    try:
        return fn(*args)
    except ResonanceError as exc:
        return ("resonance", exc.n, exc.k)


def assert_same(P, m, g):
    """Stencil and oracle agree on the solve and on apply of two tables."""
    got = outcome(lambda: solve_full(P, m, g, check_residual=False).u)
    want = outcome(oracle_solve, P, m, g)
    assert got == want
    if isinstance(want, SeriesTZ):
        assert apply_full(P, m, got) == oracle_apply(P, m, want)
    rng = random.Random(repr(g))
    probe = SeriesTZ(
        {(n, k): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
         for n in range(g.n_order + 1) for k in range(g.k_order + 1)},
        g.n_order, g.k_order,
    )
    assert apply_full(P, m, probe) == oracle_apply(P, m, probe)
    return got


def rational_series(rng, N, K, den=5):
    return SeriesTZ(
        {(n, k): Fraction(rng.randint(-9, 9), rng.randint(1, den))
         for n in range(N + 1) for k in range(K + 1)},
        N, K,
    )


@pytest.mark.parametrize("mu,nu", [(2, 1), (3, 2), (2, 2), (4, 3)])
def test_geometric_family_integer_path(mu, nu):
    src, params = fixtures.geometric_general(mu, nu)
    P = build_operator(src, params, 8, 12)
    u = assert_same(P, 0, fixtures.unit_column_rhs(8, 12))
    assert u.coeff(8, 12) == 9 ** ((mu - 1) * 12 // nu)


@pytest.mark.parametrize("extra", ["", " + 3 + t*z*dz"])
def test_constant_diagonal_at_m_1(extra):
    # the fixture's own t-factors are integers; the dt-free words added
    # by ``extra`` feed lower rows through 1/(n2 + 1) and 1/((n2 + 1)(n2 + 2))
    src, params = fixtures.constant_diagonal(h=4, n_order=8, k_order=8)
    P = build_operator(src + extra, params, 8, 8)
    assert analyze_operator(P)[0] == 1
    assert_same(P, 1, rational_series(random.Random(5), 8, 8))
    assert_same(P, 1, fixtures.unit_column_rhs(8, 8))


def test_rational_rhs_switches_to_fraction_mid_row():
    src, params = fixtures.geometric()
    P = build_operator(src, params, 6, 6)
    g = fixtures.unit_column_rhs(6, 6) + SeriesTZ({(2, 3): Fraction(1, 7)}, 6, 6)
    u = assert_same(P, 0, g)
    assert u.coeff(2, 2).denominator == 1
    assert u.coeff(2, 3).denominator != 1
    assert u.coeff(2, 6).denominator != 1


def test_dense_rational_parameters():
    rng = random.Random(19)
    N = K = 5
    p = rational_series(rng, N + 1, K + 1, den=30)
    for src in ("3 + (t*dt + 1)*(z*dz + 2)*(1 + z*p)",
                "(2 + z*p)*(t*dt + 1)*(z*dz + 1) + z*p*z*dz"):
        P = build_operator(src, {"p": p}, N, K)
        assert_same(P, analyze_operator(P)[0], rational_series(rng, N, K))


@pytest.mark.parametrize("src,witness", [("z*dz - 5", (0, 5)), ("(t*dt)*(z*dz) - 6", (1, 6))])
def test_resonance_witness_on_both_paths(src, witness):
    P = build_operator(src, {}, 4, 8)
    assert assert_same(P, 0, fixtures.unit_column_rhs(4, 8)) == ("resonance", *witness)


@pytest.mark.parametrize(
    "src",
    [
        "1 + (t*dt)*(z*dz) + 2*z*(t*dt)^2*(z*dz)^2",
        "2 + (z*dz) - 3*z^2*(t*dt)^3*(z*dz)^3 + t^2*dt*z",
    ],
)
def test_positive_s_and_alpha(src):
    P = build_operator(src, {}, 5, 8)
    rep = exponents(analyze_operator(P)[2])
    assert rep.s > 0 and rep.alpha > 0
    assert_same(P, 0, rational_series(random.Random(src), 5, 8))


def triangular(src, N, K):
    """(P, m, W) when the operator is triangular at this truncation, else None."""
    P = build_operator(src, {}, N, K)
    try:
        m, _pm, T = analyze_operator(P)
    except ValueError:  # nothing left at this truncation, or l < 0
        return None
    return (P, m, IndicialPolynomial.from_theta(T)) if T.l == 0 else None


@st.composite
def operators(draw):
    """Sources with z-shifted Euler-power words, t-tails, m in {0, 1} and resonances.

    The first words may have their signs flipped; the z-shifted words
    carry powers of both t*dt and z*dz, so s > 0 and alpha > 0 occur.  With ``lift`` the
    principal part is a*dt + b*z*dz*dt (m = 1) and every other word
    feeds rows below through fractional t-factors.  With ``resonant``
    the diagonal is shifted by its own value at a cell of the table.
    """
    N, K = draw(st.integers(1, 4)), draw(st.integers(1, 7))
    coef = st.integers(1, 5)
    words = [str(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        e, d = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        words.append(f"{draw(coef)}*(t*dt)^{e}*(z*dz)^{d}")
    for _ in range(draw(st.integers(1, 3))):
        j, e, i = draw(st.integers(1, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))
        words.append(f"{draw(coef)}*z^{j}*(t*dt)^{e}*(z*dz)^{i}")
    for _ in range(draw(st.integers(0, 1))):
        e, j = draw(st.integers(0, 1)), draw(st.integers(0, 2))
        words.append(f"{draw(coef)}*t^{e + 1}*dt^{e}*z^{j}")
    lift = draw(st.booleans())
    if lift:
        words.append(f"{draw(coef)}*dt + {draw(coef)}*z*dz*dt")
    src = " + ".join(words)
    if draw(st.booleans()):
        src = src.replace("+ ", "- ", draw(st.integers(0, 2)))
    if draw(st.booleans()):  # resonant
        n0, k0 = draw(st.integers(0, N)), draw(st.integers(0, K))
        tri = triangular(src, N, K)
        w0 = tri[2].eval(n0, k0) if tri else 0
        if w0:
            src += f" {'-' if w0 > 0 else '+'} {abs(w0)}" + ("*dt" if lift else "")
    seed = draw(st.integers(0, 2**16))
    return src, N, K, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(operators())
def test_stencil_matches_oracle_on_generated_operators(case):
    src, N, K, seed = case
    tri = triangular(src, N, K)
    assume(tri is not None)
    P, m, W = tri
    got = assert_same(P, m, rational_series(random.Random(seed), N, K))
    zeros = [(n, k) for n in range(N + 1) for k in range(K + 1) if W.eval(n, k) == 0]
    if zeros:
        assert got == ("resonance", *zeros[0])
    else:
        assert isinstance(got, SeriesTZ)
