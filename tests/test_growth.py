import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shrinkdisc.growth import (
    RadiusIndeterminateError,
    _gevrey_powers,
    analyze_table,
    bound_violation,
    fit_alpha,
    fit_gevrey,
    lemma1_holds,
    lemma2_holds,
    lemma3_holds,
    lemma_suite,
    log_fraction,
    minimal_bound_constants,
    radius_estimate,
)
from shrinkdisc.series import SeriesTZ, SeriesZ


class TestLogFraction:
    def test_huge_values_no_overflow(self):
        x = Fraction(math.factorial(300), 7**100)
        expect = math.lgamma(301) - 100 * math.log(7)
        assert abs(log_fraction(x) - expect) < 1e-9


class TestRadius:
    def test_geometric_rows(self):
        for n in (3, 7, 15):
            u = SeriesZ([Fraction(n + 1) ** k for k in range(65)], 64)
            r = radius_estimate(u, Fraction(0))
            assert abs(r * (n + 1) - 1) < 0.01

    def test_all_ones(self):
        u = SeriesZ([1] * 65, 64)
        assert abs(radius_estimate(u, Fraction(0)) - 1) < 1e-9

    def test_sparse_progression(self):
        # nonzero only on even k, value (n+1)^k there: radius 1/(n+1)
        n = 4
        u = SeriesZ(
            [Fraction(n + 1) ** k if k % 2 == 0 else 0 for k in range(129)], 128
        )
        r = radius_estimate(u, Fraction(0))
        assert abs(r * (n + 1) - 1) < 0.01

    def test_gevrey_rescaling(self):
        u = SeriesZ([Fraction(math.factorial(k)) * 3**k for k in range(65)], 64)
        r = radius_estimate(u, Fraction(1))
        assert abs(r - Fraction(1, 3)) < 0.02

    def test_indeterminate_on_sparse_window(self):
        u = SeriesZ([1] + [0] * 64, 64)
        with pytest.raises(RadiusIndeterminateError):
            radius_estimate(u, Fraction(0))


class TestFitAlpha:
    def test_exact_decay_law(self):
        radii = {n: 0.7 * (n + 1) ** -1.5 for n in range(1, 33)}
        fit = fit_alpha(radii)
        assert abs(fit.alpha_hat - 1.5) < 1e-9
        assert abs(fit.a_hat - 0.7) < 1e-9

    def test_degenerate_constant(self):
        fit = fit_alpha({n: 0.25 for n in range(1, 16)})
        assert fit.alpha_hat == 0.0
        assert fit.degenerate

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_alpha({1: 0.5, 2: 0.4})


class TestFitGevrey:
    def test_factorial_is_order_one(self):
        u = SeriesZ([Fraction(math.factorial(k)) for k in range(129)], 128)
        assert abs(fit_gevrey(u) - 1) < 0.1

    def test_constant_is_order_zero(self):
        u = SeriesZ([1] * 129, 128)
        assert abs(fit_gevrey(u)) < 0.05

    def test_factorial_squared_is_order_two(self):
        u = SeriesZ([Fraction(math.factorial(k)) ** 2 for k in range(129)], 128)
        assert abs(fit_gevrey(u) - 2) < 0.2


class TestLemmaSuite:
    def test_boundary_k_j_l_zero(self):
        # k - j - l = 0 makes the first inequality trivial
        for s in (Fraction(0), Fraction(1, 2), Fraction(2)):
            assert lemma1_holds(s, 3, 1, 2, 5, 3)

    def test_lemma3_equality_margin_at_k_2j(self):
        assert lemma3_holds(Fraction(1), 1, 0, 1, 2)
        assert lemma3_holds(Fraction(2), 4, 2, 1, 2)

    def test_binding_reduction_matches_brute_force(self):
        # every admissible tuple, brute force, small range
        for s in (Fraction(0), Fraction(1, 2), Fraction(1)):
            for i in range(4):
                for p in range(4):
                    for j in range(1, 3):
                        if Fraction(i - p, j) > s:
                            continue
                        for k in range(1, 24):
                            for l in range(0, k - j + 1):
                                assert lemma1_holds(s, i, p, j, k, l), (s, i, p, j, k, l)

    def test_lemma2_brute_force_small(self):
        for s in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for i in range(4):
                for p in range(4):
                    for j in range(1, 3):
                        sp = Fraction(i - p, j)
                        if sp >= s:
                            continue
                        for k in range(1, 20):
                            for l in range(0, k - j + 1):
                                assert lemma2_holds(s, sp, i, p, j, k, l)

    def test_suite_small_range_clean(self):
        rep = lemma_suite(k_max=60)
        assert rep.ok
        assert rep.checked[0] > 0 and rep.checked[1] > 0 and rep.checked[2] > 0


_pos = st.builds(Fraction, st.integers(1, 40), st.integers(1, 40))
_exponent = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_pos, _pos, st.integers(1, 9), _exponent, _exponent, st.integers(1, 3))
def test_gevrey_powers_match_exact_powers(c, b, n, alpha, s, step):
    # (c b^m n^{alpha step m} (step m)!^s)^L with integer exponents is exact
    L = math.lcm(alpha.denominator, s.denominator)
    for m, (num, den) in zip(range(7), _gevrey_powers(c, b, n, alpha, s, L, step)):
        k = step * m
        exact = (
            c**L
            * b ** (m * L)
            * Fraction(n) ** int(alpha * L * k)
            * Fraction(math.factorial(k)) ** int(s * L)
        )
        assert num > 0 and den > 0
        assert Fraction(num, den) == exact


def oracle_bound_violation(u, alpha, s, A, B):
    """The cell-by-cell bound check, each cell's sides raised to L as exact Fractions."""
    L = math.lcm(alpha.denominator, s.denominator)
    for n, k, v in u.items():
        if n < 1 or n not in A:
            continue
        rhs = (
            A[n] ** L
            * B ** (k * L)
            * Fraction(n) ** int(alpha * k * L)
            * Fraction(math.factorial(k)) ** int(s * L)
        )
        if abs(v) ** L > rhs:
            return (n, k)
    return None


@st.composite
def bound_cases(draw):
    """A random rational table (zeros included), alpha and s of either sign with denominators."""
    N, K = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    val = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
    cells = {
        (n, k): draw(val) * (n + 1) ** k
        for n in range(N + 1)
        for k in range(K + 1)
    }
    for n in range(1, N + 1):  # every row keeps two nonzero cells
        cells[n, 0], cells[n, K] = cells[n, 0] or 1, cells[n, K] or 1
    alpha = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    s = Fraction(draw(st.integers(-2, 4)), draw(st.integers(1, 3)))
    A = {n: draw(_pos) for n in range(1, N + 1) if draw(st.integers(0, 5))}
    return SeriesTZ(cells, N, K), alpha, s, A, draw(_pos)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(bound_cases())
def test_bound_violation_matches_fraction_oracle(case):
    u, alpha, s, A_rand, B_rand = case
    A, B = minimal_bound_constants(u, alpha, s)
    assert bound_violation(u, alpha, s, A, B) is None is oracle_bound_violation(u, alpha, s, A, B)
    for A_, B_ in ((A, B * Fraction(9, 10)), (A_rand, B_rand), (A, B_rand)):
        assert bound_violation(u, alpha, s, A_, B_) == oracle_bound_violation(u, alpha, s, A_, B_)


class TestBoundConstants:
    def _geometric_table(self, N, K):
        return SeriesTZ(
            {(n, k): Fraction(n + 1) ** k for n in range(N + 1) for k in range(K + 1)},
            N,
            K,
        )

    def test_bound_holds_and_is_minimal(self):
        u = self._geometric_table(10, 24)
        A, B = minimal_bound_constants(u, Fraction(1), Fraction(0))
        assert bound_violation(u, Fraction(1), Fraction(0), A, B) is None
        # 10% smaller B breaks it with the same A(n)
        assert bound_violation(u, Fraction(1), Fraction(0), A, B * Fraction(9, 10)) is not None
        assert float(B) == pytest.approx(2.0, rel=1e-3)

    def test_bound_with_gevrey_weight(self):
        u = SeriesTZ(
            {
                (n, k): Fraction(math.factorial(k)) * Fraction(n + 1) ** k
                for n in range(1, 7)
                for k in range(17)
            },
            6,
            16,
        )
        A, B = minimal_bound_constants(u, Fraction(1), Fraction(1))
        assert bound_violation(u, Fraction(1), Fraction(1), A, B) is None
        assert bound_violation(u, Fraction(1), Fraction(1), A, B * Fraction(9, 10)) is not None


class TestRadiusWindowOnBigTable:
    def test_normalized_radii_near_one(self, geometric_table_64_256):
        u, _build = geometric_table_64_256
        for n in range(4, 65):
            r = radius_estimate(u.row(n), Fraction(0))
            assert 0.9 <= r * (n + 1) <= 1.1


class TestAnalyzeTable:
    def test_geometric_full_report(self):
        u = SeriesTZ(
            {(n, k): Fraction(n + 1) ** k for n in range(17) for k in range(49)},
            16,
            48,
        )
        rep = analyze_table(u, Fraction(0), alpha=Fraction(1))
        assert abs(rep.alpha_hat - 1) < 0.05
        assert abs(rep.s_hat) < 0.05
        assert rep.bound_B is not None
        d = rep.to_json_dict()
        assert d["bounds"]["B"] == str(rep.bound_B)
