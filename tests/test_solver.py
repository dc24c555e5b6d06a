import dataclasses
import random
from fractions import Fraction
from math import factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkdisc import fixtures
from shrinkdisc.analysis import ThetaOperator, ThetaTerm, analyze_operator, exponents
from shrinkdisc.dsl import build_operator
from shrinkdisc.polynomial import Poly
from shrinkdisc.resonance import IndicialPolynomial, ResonanceError
from shrinkdisc.series import SeriesTZ, SeriesZ
import shrinkdisc.solver
from shrinkdisc.solver import (
    ConditionError,
    NoAdversarialDirectionError,
    ResidualError,
    adversarial,
    apply_full,
    solve_full,
    solve_theta,
    verify_sharpness,
)


def random_conditioned_source(rng) -> str:
    """Operators that satisfy the solvability conditions by construction.

    A positive constant plus positively weighted diagonal words in
    (t dt) and (z dz) keeps the indicial polynomial strictly positive
    and the lower ordinate at zero for every n; z-shifted words carry no
    Euler power, so no positive slope ever appears.  Extra off-principal
    words (t-order above the dt power) only feed the triangular cascade.
    """
    parts = [str(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(1, 5)
        e = rng.randint(0, 2)
        d = rng.randint(0, 2)
        parts.append(f" + {c}*(t*dt)^{e}*(z*dz)^{d}")
    for _ in range(rng.randint(0, 2)):
        c = rng.randint(1, 5)
        sign = rng.choice(["+", "-"])
        j = rng.randint(1, 3)
        e = rng.randint(0, 2)
        parts.append(f" {sign} {c}*z^{j}*(t*dt)^{e}")
    for _ in range(rng.randint(0, 1)):
        c = rng.randint(1, 3)
        sign = rng.choice(["+", "-"])
        e = rng.randint(0, 1)
        j = rng.randint(0, 2)
        parts.append(f" {sign} {c}*t^{e + 1}*dt^{e}*z^{j}")
    return "".join(parts)


def random_series(rng, N, K) -> SeriesTZ:
    return SeriesTZ(
        {
            (n, k): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for n in range(N + 1)
            for k in range(K + 1)
        },
        N,
        K,
    )


class TestSolveTheta:
    def test_geometric_row(self, geometric_theta):
        for n in (0, 1, 4):
            f = SeriesZ.monomial(0, n + 1, 20)
            u = solve_theta(geometric_theta, n, f, 20)
            assert u == SeriesZ([Fraction(n + 1) ** k for k in range(21)], 20)

    def test_homogeneous_is_zero(self, geometric_theta):
        u = solve_theta(geometric_theta, 3, SeriesZ.zero(12), 12)
        assert u.is_zero()

    def test_matches_dense_triangular_oracle(self):
        rng = random.Random(11)
        for _ in range(8):
            src = random_conditioned_source(rng)
            _m, _pm, T = analyze_operator(build_operator(src, {}, 4, 14))
            K = 10
            n = rng.randint(0, 4)
            f = SeriesZ([Fraction(rng.randint(-6, 6)) for _ in range(K + 1)], K)
            u = solve_theta(T, n, f, K)
            # oracle: build the lower-triangular action matrix column by
            # column from the theta action on monomials, then forward
            # substitution
            cols = []
            for kk in range(K + 1):
                out = T.apply_at(n, SeriesZ.monomial(kk, 1, K))
                cols.append([out.coeff(t) for t in range(K + 1)])
            sol = []
            for row in range(K + 1):
                acc = f.coeff(row)
                for kk in range(row):
                    acc -= cols[kk][row] * sol[kk]
                assert cols[row][row] != 0
                sol.append(acc / cols[row][row])
            assert u == SeriesZ(sol, K)
            # and the recurrence re-substitutes exactly
            assert T.apply_at(n, u) == f

    def test_resonance_reported(self):
        _m, _pm, T = analyze_operator(build_operator("z*dz - 5", {}, 4, 8))
        with pytest.raises(ResonanceError) as err:
            solve_theta(T, 0, SeriesZ.monomial(0, 1, 8), 8)
        assert (err.value.n, err.value.k) == (0, 5)


class TestSolveFull:
    def test_geometric_golden(self):
        src, params = fixtures.geometric()
        P = build_operator(src, params, 12, 12)
        g = fixtures.unit_column_rhs(12, 12)
        table = solve_full(P, 0, g)
        for n in range(13):
            for k in range(13):
                assert table.u.coeff(n, k) == Fraction(n + 1) ** k
        assert table.residual_checked

    @pytest.mark.parametrize("mu,nu", [(3, 2), (2, 2), (4, 3)])
    def test_general_family_golden(self, mu, nu):
        src, params = fixtures.geometric_general(mu, nu)
        P = build_operator(src, params, 10, 10)
        g = fixtures.unit_column_rhs(10, 10)
        table = solve_full(P, 0, g)
        for n in range(11):
            for k in range(11):
                if k % nu:
                    assert table.u.coeff(n, k) == 0
                else:
                    assert table.u.coeff(n, k) == Fraction(n + 1) ** ((mu - 1) * (k // nu))
        assert table.residual_checked

    def test_zero_rhs(self, geometric_small):
        table = solve_full(geometric_small, 0, SeriesTZ.zero(8, 8))
        assert table.u.is_zero()
        assert table.residual_checked

    def test_linearity(self, geometric_small):
        rng = random.Random(21)
        g1 = random_series(rng, 8, 8)
        g2 = random_series(rng, 8, 8)
        u1 = solve_full(geometric_small, 0, g1, check_residual=False).u
        u2 = solve_full(geometric_small, 0, g2, check_residual=False).u
        u12 = solve_full(geometric_small, 0, g1 + g2, check_residual=False).u
        assert u12 == u1 + u2

    def test_condition_a_failure(self):
        P = build_operator("z*(z*dz)*(t*dt)", {}, 6, 6)
        with pytest.raises(ConditionError):
            solve_full(P, 0, SeriesTZ.zero(6, 6))

    def test_resonance_carries_witness(self):
        P = build_operator("z*dz - 5", {}, 6, 8)
        with pytest.raises(ResonanceError) as err:
            solve_full(P, 0, SeriesTZ.zero(6, 8))
        assert (err.value.n, err.value.k) == (0, 5)

    def test_corrupted_cell_fails_residual_check(self, monkeypatch):
        # u_{4,3} = 5^3 is the only 125 in the 8x8 geometric table; bump it
        div = shrinkdisc.solver._div
        monkeypatch.setattr(
            shrinkdisc.solver, "_div", lambda num, den: div(num, den) + (div(num, den) == 125)
        )
        src, params = fixtures.geometric()
        P = build_operator(src, params, 8, 8)
        g = fixtures.unit_column_rhs(8, 8)
        assert solve_full(P, 0, g, check_residual=False).u.coeff(4, 3) == 126
        with pytest.raises(ResidualError) as err:
            solve_full(P, 0, g)
        assert (err.value.n, err.value.k) == (4, 3)

    def test_truncated_coefficients_refused(self):
        # normal ordering differentiates z*p once, so a dense p given at
        # (18, 18) leaves P known only to (17, 17): the 18 x 18 window
        # cannot be solved from it
        p = random_series(random.Random(18), 18, 18)
        P = build_operator("3 + (t*dt + 1)*(z*dz + 2)*(1 + z*p)", {"p": p}, 18, 18)
        assert (P.n_order, P.k_order) == (17, 17)
        with pytest.raises(ValueError, match=r"\(17, 17\).*\(18, 18\)"):
            solve_full(P, 0, random_series(random.Random(7), 18, 18))
        assert solve_full(P, 0, random_series(random.Random(7), 17, 17)).residual_checked

    def test_residual_checked_means_verified(self, geometric_small):
        g = SeriesTZ.zero(8, 8)
        assert solve_full(geometric_small, 0, g).residual_checked is True
        assert solve_full(geometric_small, 0, g, check_residual=False).residual_checked is False

    def test_cascade_with_antiderivative(self):
        # m = 1 with a t-tail: solve, then check the residual window is full
        src, params = fixtures.constant_diagonal(h=4)
        P = build_operator(src, params, 8, 8)
        g = random_series(random.Random(5), 8, 8)
        table = solve_full(P, 1, g)
        assert table.residual_checked

    def test_round_trip_on_random_conditioned_operators(self):
        rng = random.Random(2024)
        for trial in range(25):
            src = random_conditioned_source(rng)
            P = build_operator(src, {}, 12, 12)
            g = random_series(rng, 12, 12)
            table = solve_full(P, 0, g, check_residual=False)
            out = apply_full(P, 0, table.u)
            assert out.n_order == 12 and out.k_order == 12, src
            assert out == g, src


class TestAdversarial:
    def test_geometric_matches_hand_built(self, geometric_theta):
        pair = adversarial(geometric_theta, 4, 30)
        assert (pair.i_star, pair.j_star) == (1, 1)
        assert pair.f_n.coeff(0) == 5
        assert all(pair.f_n.coeff(k) == 0 for k in range(1, 31))
        assert pair.u_n == SeriesZ([Fraction(5) ** k for k in range(31)], 30)
        assert not pair.reseeded

    def test_general_family_progression(self):
        src, params = fixtures.geometric_general(3, 2)
        _m, _pm, T = analyze_operator(build_operator(src, params, 8, 32))
        pair = adversarial(T, 3, 32)
        assert (pair.i_star, pair.j_star) == (1, 2)
        for k in range(33):
            # u on the progression k = 2m is (n+1)^{(mu-1) m}
            expect = Fraction(4) ** (2 * (k // 2)) if k % 2 == 0 else Fraction(0)
            assert pair.u_n.coeff(k) == expect

    def test_resubstitution(self, geometric_theta):
        pair = adversarial(geometric_theta, 5, 24)
        assert solve_theta(geometric_theta, 5, pair.f_n, 24) == pair.u_n

    def test_alpha_zero_refused(self):
        src, params = fixtures.constant_diagonal(h=4)
        _m, _pm, T = analyze_operator(build_operator(src, params, 8, 8))
        with pytest.raises(NoAdversarialDirectionError):
            adversarial(T, 4, 8)

    def test_growth_bound_holds(self, geometric_theta):
        for n in (2, 5, 9):
            pair = adversarial(geometric_theta, n, 40)
            chk = verify_sharpness(pair)
            assert chk.holds
            assert chk.c_n > 0

    def test_growth_bound_general(self):
        src, params = fixtures.geometric_general(4, 2)
        _m, _pm, T = analyze_operator(build_operator(src, params, 8, 40))
        for n in (2, 6):
            pair = adversarial(T, n, 40)
            chk = verify_sharpness(pair)
            assert chk.holds

    def test_reseed_when_column_lacks_scalar_term(self):
        # pure z(z dz) coupling: the shift column has no Euler-power-zero
        # entry, so the first progression step would annihilate the seed
        src = "1 + (t*dt)^2*(z*dz) - 1*z*(z*dz)*(t*dt)^3"
        _m, _pm, T = analyze_operator(build_operator(src, {}, 6, 24))
        rep = exponents(T)
        assert rep.alpha > 0
        pair = adversarial(T, 3, 24)
        assert pair.reseeded
        assert pair.u_n.coeff(pair.j_star) == 1
        assert solve_theta(T, 3, pair.f_n, 24) == pair.u_n


class TestApplyFull:
    def test_diagonal_matches_indicial(self, geometric_small, geometric_theta):
        # the solver's diagonal is the indicial value: apply to a single
        # monomial and read off the coefficient straight under it
        W = IndicialPolynomial.from_theta(geometric_theta)
        for n in range(5):
            for k in range(5):
                u = SeriesTZ.monomial(n, k, 1, 10, 10)
                out = apply_full(geometric_small.truncate(10, 10), 0, u)
                assert out.coeff(n, k) == W.eval(n, k)

    def test_window_shrinks_for_genuine_z_loss(self):
        P = build_operator("dz*z", {}, 6, 6)  # z dz + 1: no loss
        u = SeriesTZ.const(1, 6, 6)
        out = apply_full(P, 0, u)
        assert (out.n_order, out.k_order) == (6, 6)


# ------------------------------------------------ Fraction row oracles
#
# The row k-recurrence as plain Fraction loops: every a_l of every entry
# is visited and the diagonal is summed from the j = 0 entries per cell.
# They share no code with the compiled integer row.


def oracle_diag(T, n, k):
    return sum((t.w(n) * t.a.eval0() * Fraction(k) ** t.i for t in T.terms if t.j == 0), Fraction(0))


def oracle_active(T, n):
    return [(t.i, t.j, t.w(n), t.a) for t in T.terms if t.j > 0 and t.w(n) != 0]


def oracle_shifted_sum(active, u, k):
    acc = Fraction(0)
    for i, j, wv, a in active:
        for l in range(min(k - j, a.order) + 1):
            al = a.coeffs[l]
            if al != 0:
                acc += wv * al * Fraction(k - j - l) ** i * u[k - j - l]
    return acc


def oracle_solve_theta(T, n, f, K):
    active = oracle_active(T, n)
    u = []
    for k in range(K + 1):
        d = oracle_diag(T, n, k)
        if d == 0:
            raise ResonanceError(n, k)
        u.append((f.coeff(k) - oracle_shifted_sum(active, u, k)) / d)
    return SeriesZ(u, K)


def oracle_adversarial_row(T, n, K, j_star):
    """(u, f, reseeded) of the adversarial row, one Fraction step at a time."""
    active = oracle_active(T, n)
    column = [(t.i, t.w(n) * t.a.eval0()) for t in T.terms if t.j == j_star and t.w(n) != 0]
    u = [Fraction(1)]
    reseeded = False
    for k in range(1, K + 1):
        d = oracle_diag(T, n, k)
        if d == 0:
            raise ResonanceError(n, k)
        if k >= j_star:
            kept = sum((cv * Fraction(k - j_star) ** ci for ci, cv in column), Fraction(0))
            val = -kept * u[k - j_star] / d
        else:
            val = Fraction(0)
        if k == j_star and val == 0:
            val = Fraction(1)
            reseeded = True
        u.append(val)
    f = [oracle_diag(T, n, 0)]
    f += [oracle_diag(T, n, k) * u[k] + oracle_shifted_sum(active, u, k) for k in range(1, K + 1)]
    return SeriesZ(u, K), SeriesZ(f, K), reseeded


def oracle_sharpness(pair):
    """verify_sharpness with every ratio compared as an exact Fraction power."""
    j, n = pair.j_star, pair.n
    M = pair.u_n.order // j
    g = pair.gamma_bar
    m0 = next(
        (m for m in range(M + 1) if m * j >= 2 * j and (m * j) ** g.denominator >= n**g.numerator),
        M,
    )
    zero_at = next((m for m in range(M + 1) if pair.u_n.coeffs[m * j] == 0), None)
    if zero_at is not None:
        return shrinkdisc.solver.SharpnessCheck(False, m0, 0.0, zero_at)
    L = lcm(pair.alpha.denominator, pair.s.denominator)

    def ratio(m):  # (|u_{mj}| / (d_base^m (mj)!^s n^{alpha mj}))^L
        k = m * j
        scale = (
            pair.d_base ** (m * L)
            * Fraction(factorial(k)) ** int(pair.s * L)
            * Fraction(n) ** int(pair.alpha * k * L)
        )
        return abs(pair.u_n.coeffs[k]) ** L / scale

    c_idx = 0
    for m in range(1, min(m0, M) + 1):
        if ratio(m) < ratio(c_idx):
            c_idx = m
    first = next((m for m in range(M + 1) if ratio(m) < ratio(c_idx)), None)
    k = c_idx * j
    c_val = 1.0
    for b, e in (
        (abs(pair.u_n.coeffs[k]), Fraction(1)),
        (pair.d_base, Fraction(-c_idx)),
        (Fraction(factorial(k)), -pair.s),
        (Fraction(n), -pair.alpha * k),
    ):
        c_val *= float(b) ** float(e)
    return shrinkdisc.solver.SharpnessCheck(first is None, m0, c_val, first)


def _outcome(fn, *args):
    """fn's result, or its exception as (type, args) so failures compare too."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), exc.args


_q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_z = st.integers(-6, 6).map(Fraction)


@st.composite
def theta_rows(draw):
    """A random theta family, a row n >= 1 and a right side f.

    Diagonal entries carry a constant a; the z-shifted entries have
    rational or integer w(n), an a(z) with up to four nonzero
    coefficients, Euler powers up to p + 2 (s > 0) and shifts up to 3
    with degree gaps 1-2 (alpha > 0, often with a denominator).
    Integer-only draws make rows that turn Fraction mid-row; a j* column
    without an Euler-power-zero entry makes the reseeded case; repeated
    (i, j) labels interleave the a_l of merged entries.
    """
    coef = _z if draw(st.booleans()) else _q
    nonzero = coef.filter(bool)
    K = draw(st.integers(3, 14))
    p, dp = draw(st.integers(0, 2)), draw(st.integers(0, 2))

    def poly(deg):
        return Poly([*draw(st.lists(coef, min_size=deg, max_size=deg)), draw(nonzero)])

    terms = [ThetaTerm(p, 0, poly(dp), SeriesZ([draw(nonzero)], K), (0, 0))]
    for i in range(p):
        if i == 0 or draw(st.booleans()):
            terms.append(ThetaTerm(i, 0, poly(draw(st.integers(0, dp))), SeriesZ([draw(nonzero)], K), (0, 0)))
    labels = []
    for _ in range(draw(st.integers(1, 3))):
        if labels and draw(st.booleans()):  # entries sharing (i, j) are merged by the integer row
            j, i = draw(st.sampled_from(labels))
        else:
            j, i = draw(st.integers(1, 3)), draw(st.integers(0, p + 2))
            labels.append((j, i))
        a = [Fraction(0)] * (K + 1)
        a[0] = draw(nonzero)
        for l in draw(st.sets(st.integers(1, K), max_size=3)):
            a[l] = draw(nonzero)
        terms.append(ThetaTerm(i, j, poly(dp + draw(st.integers(1, 2))), SeriesZ(a, K), (0, 0)))
    f = SeriesZ(draw(st.lists(coef, min_size=K + 1, max_size=K + 1)), K)
    return ThetaOperator(terms, 0, 0), draw(st.integers(1, 4)), K, f


@settings(max_examples=150, deadline=None, derandomize=True)
@given(theta_rows())
def test_integer_rows_match_fraction_oracle(case):
    T, n, K, f = case
    assert _outcome(solve_theta, T, n, f, K) == _outcome(oracle_solve_theta, T, n, f, K)
    pair = _outcome(adversarial, T, n, K)
    if isinstance(pair, tuple):  # no adversarial direction, or a vanishing row
        return
    assert (pair.u_n, pair.f_n, pair.reseeded) == oracle_adversarial_row(T, n, K, pair.j_star)
    if oracle_diag(T, n, 0) != 0:  # adversarial seeds u_0 = 1 without checking W(n, 0)
        assert solve_theta(T, n, pair.f_n, K) == pair.u_n
    # the row itself, a decaying one that breaks the bound, and one with a zero on the progression
    decayed = SeriesZ([v / 7**k for k, v in enumerate(pair.u_n.coeffs)], K)
    holed = SeriesZ([0 if k == K // pair.j_star * pair.j_star else v for k, v in enumerate(pair.u_n.coeffs)], K)
    for u_n in (pair.u_n, decayed, holed):
        variant = dataclasses.replace(pair, u_n=u_n)
        assert _outcome(verify_sharpness, variant) == _outcome(oracle_sharpness, variant)
