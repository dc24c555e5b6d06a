import random
from fractions import Fraction

import pytest

from shrinkdisc import fixtures
from shrinkdisc.analysis import analyze_operator, exponents
from shrinkdisc.dsl import build_operator
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
