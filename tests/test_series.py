import random
from fractions import Fraction

import pytest

from shrinkdisc.series import (
    ORD_INFINITE,
    SeriesTZ,
    SeriesZ,
)


def tz(entries, N, K):
    return SeriesTZ(entries, N, K)


def rand_tz(rng, N, K, density=0.6):
    ent = {}
    for n in range(N + 1):
        for k in range(K + 1):
            if rng.random() < density:
                ent[(n, k)] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return SeriesTZ(ent, N, K)


class TestAdd:
    def test_mixed_terms(self):
        a = tz({(0, 0): 1, (1, 1): 1}, 2, 2)  # 1 + tz
        b = tz({(1, 0): 1, (1, 1): -1}, 2, 2)  # t - tz
        assert a + b == tz({(0, 0): 1, (1, 0): 1}, 2, 2)

    def test_identity(self):
        rng = random.Random(1)
        a = rand_tz(rng, 3, 3)
        assert a + SeriesTZ.zero(3, 3) == a

    def test_cancellation(self):
        a = tz({(n, 0): 1 for n in range(7)}, 6, 6)
        assert (a + -a).is_zero()
        assert (a + -a).ord_t() is ORD_INFINITE

    def test_truncates_to_min_orders(self):
        a = tz({(3, 3): 1}, 3, 3)
        b = tz({(0, 0): 1}, 2, 5)
        out = a + b
        assert (out.n_order, out.k_order) == (2, 3)


class TestMul:
    def test_one_plus_z_times_one_minus_z(self):
        a = tz({(0, 0): 1, (0, 1): 1}, 0, 2)
        b = tz({(0, 0): 1, (0, 1): -1}, 0, 2)
        assert a * b == tz({(0, 0): 1, (0, 2): -1}, 0, 2)

    def test_geometric_telescopes(self):
        K = 9
        geo = tz({(0, k): 1 for k in range(K + 1)}, 0, K)
        one_minus_z = tz({(0, 0): 1, (0, 1): -1}, 0, K)
        assert geo * one_minus_z == tz({(0, 0): 1}, 0, K)

    def test_against_quadruple_loop_oracle(self):
        rng = random.Random(8)
        a = rand_tz(rng, 4, 8)
        b = rand_tz(rng, 4, 8)
        out = a * b
        for n in range(5):
            for k in range(9):
                acc = Fraction(0)
                for n1 in range(5):
                    for k1 in range(9):
                        n2, k2 = n - n1, k - k1
                        if 0 <= n2 <= 4 and 0 <= k2 <= 8:
                            acc += a.coeff(n1, k1) * b.coeff(n2, k2)
                assert out.coeff(n, k) == acc


class TestDerivatives:
    def test_dt_monomial(self):
        u = SeriesTZ.monomial(2, 1, 1, 3, 3)  # t^2 z
        assert u.dt() == tz({(1, 1): 2}, 2, 3)

    def test_dz_constant(self):
        u = SeriesTZ.const(Fraction(5, 3), 3, 3)
        assert u.dz().is_zero()

    def test_dt_dz_tz(self):
        u = SeriesTZ.monomial(1, 1, 1, 1, 1)
        out = u.dt().dz()
        assert out.coeff(0, 0) == 1
        assert out.is_zero() is False

    def test_leibniz(self):
        rng = random.Random(3)
        a = rand_tz(rng, 5, 5)
        b = rand_tz(rng, 5, 5)
        lhs = (a * b).dt()
        rhs = a.dt() * b + a * b.dt()
        assert lhs == rhs


class TestAntiderivative:
    def test_m0_identity(self):
        rng = random.Random(4)
        u = rand_tz(rng, 4, 4)
        assert u.dt_antiderivative(0) == u

    def test_m1_monomials(self):
        one = SeriesTZ.const(1, 0, 0)
        assert one.dt_antiderivative(1) == tz({(1, 0): 1}, 1, 0)
        t = SeriesTZ.monomial(1, 0, 1, 1, 0)
        assert t.dt_antiderivative(1) == tz({(2, 0): Fraction(1, 2)}, 2, 0)

    def test_round_trip_m2(self):
        u = tz({(n, 0): 1 for n in range(7)}, 6, 0)
        again = u.dt_antiderivative(2).dt().dt()
        assert again == u

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_round_trip_any(self, m):
        rng = random.Random(10 + m)
        u = rand_tz(rng, 16, 3)
        v = u.dt_antiderivative(m)
        for _ in range(m):
            v = v.dt()
        assert v == u

    def test_lowest_coefficients_vanish(self):
        u = tz({(0, 0): 1, (1, 2): 3}, 2, 2)
        v = u.dt_antiderivative(3)
        assert v.n_order == 5
        for n in range(3):
            for k in range(3):
                assert v.coeff(n, k) == 0


class TestRingAxioms:
    def test_exact_algebra(self):
        rng = random.Random(77)
        a, b, c = (rand_tz(rng, 3, 4) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


class TestCsv:
    def test_round_trip(self):
        rng = random.Random(5)
        u = rand_tz(rng, 3, 5, density=0.4)
        again = SeriesTZ.from_csv(u.to_csv(), 3, 5)
        assert again == u

    def test_header_and_nonzero_rows(self):
        u = tz({(1, 2): Fraction(-3, 7)}, 2, 3)
        text = u.to_csv()
        lines = text.strip().splitlines()
        assert lines[0] == "n,k,numerator,denominator"
        assert lines[1:] == ["1,2,-3,7"]


class TestSeriesZ:
    def test_mul_truncates(self):
        a = SeriesZ([1, 1, 1], 2)
        b = SeriesZ([1, -1], 1)
        assert a * b == SeriesZ([1, 0], 1)

    def test_shift_and_down(self):
        a = SeriesZ([0, 0, 3, 4], 3)
        assert a.ord_z() == 2
        down = a.shifted_down(2)
        assert down == SeriesZ([3, 4], 1)
        assert down.shift(2) == a

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            SeriesZ([0.5], 0)
        with pytest.raises(TypeError):
            SeriesTZ({(0, 0): 0.5}, 0, 0)
