import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shrinkdisc

from shrinkdisc import fixtures
from shrinkdisc.analysis import analyze_operator
from shrinkdisc.dsl import build_operator
from shrinkdisc.polynomial import Poly
from shrinkdisc.resonance import (
    CertificateError,
    IndicialPolynomial,
    _check_bound,
    certify,
    liouville_demo,
)


def indicial_of(src, params=None, N=8, K=10):
    _m, _pm, T = analyze_operator(build_operator(src, params or {}, N, K))
    return IndicialPolynomial.from_theta(T)


@pytest.fixture(scope="module")
def geometric_W():
    src, params = fixtures.geometric()
    return indicial_of(src, params)


class TestEval:
    def test_geometric_closed_form(self, geometric_W):
        assert geometric_W.eval(3, 4) == 20
        for n in range(101):
            for k in range(101):
                assert geometric_W.eval(n, k) == (n + 1) * (k + 1)

    def test_constant_one(self):
        W = IndicialPolynomial({0: Poly([1])})
        for n in range(5):
            for k in range(5):
                assert W.eval(n, k) == 1

    def test_general_family_closed_form(self):
        src, params = fixtures.geometric_general(4, 3)
        W = indicial_of(src, params)
        assert W.eval(0, 0) == 1
        for n in range(0, 60, 11):
            for k in range(0, 60, 13):
                assert W.eval(n, k) == (n + 1) * (k + 1)

    def test_negative_indices_rejected(self, geometric_W):
        with pytest.raises(ValueError):
            geometric_W.eval(-1, 0)
        with pytest.raises(ValueError):
            geometric_W.eval(0, -1)


class TestCertify:
    def test_geometric_strong(self, geometric_W):
        cert = certify(geometric_W, (32, 32))
        assert cert.verdict == "certified_strong"
        assert cert.C0_lower_bound == 1
        assert cert.tail_argument == "sign_definite"

    def test_constant_diagonal_strong(self):
        src, params = fixtures.constant_diagonal(h=4, a=Fraction(2))
        cert = certify(indicial_of(src, params), (32, 32))
        assert cert.verdict == "certified_strong"
        assert cert.C0_lower_bound == 2

    def test_resonant_toy(self):
        # z dz - 5 has diagonal k - 5
        W = indicial_of("z*dz - 5")
        cert = assert_matches_oracle(W, (16, 16))
        assert cert.verdict == "resonant"
        assert cert.witness == (0, 5)
        assert W.eval(*cert.witness) == 0

    def test_witness_stable_under_larger_grid(self):
        W = indicial_of("z*dz - 5")
        assert certify(W, (16, 16)).witness == certify(W, (64, 64)).witness

    def test_bound_never_above_grid_values(self, geometric_W):
        cert = certify(geometric_W, (16, 16))
        for n in range(17):
            for k in range(17):
                assert abs(geometric_W.eval(n, k)) >= cert.C0_lower_bound

    def test_leading_term_argument(self):
        # mixed signs defeat sign-definiteness, but the k-leading
        # coefficient (7 + n) dominates: W = (7+n)k^2 - k + 5
        W2 = IndicialPolynomial({0: Poly([5]), 1: Poly([-1]), 2: Poly([7, 1])})
        cert2 = assert_matches_oracle(W2, (16, 16))
        assert cert2.verdict == "certified_strong"
        assert cert2.tail_argument == "leading_term"
        assert cert2.C0_lower_bound > 0
        for n in range(40):
            for k in range(40):
                assert abs(W2.eval(n, k)) >= cert2.C0_lower_bound

    def test_grid_too_small_rejected(self, geometric_W):
        with pytest.raises(ValueError):
            certify(geometric_W, (4, 4))

    def test_far_resonance_found_by_tail_scan(self):
        # W(n, k) = (1+n)k^2 - 30 vanishes at (29, 1), outside the grid;
        # the tail machinery walks the k = 1 column up to its domination
        # threshold and trips over the exact zero
        W = IndicialPolynomial({0: Poly([-30]), 2: Poly([1, 1])})
        cert = assert_matches_oracle(W, (8, 8))
        assert cert.verdict == "resonant"
        assert cert.witness == (29, 1)
        assert W.eval(*cert.witness) == 0


# ------------------------------------------------------------------ oracle
# certify as it ran on Fraction Horner arithmetic over Poly rows and
# columns.  It shares no evaluation code with the integer form.

_ORACLE_MAX_SCAN = 1 << 14


def oracle_row(W, n):
    return Poly([W.cs[i](n) if i in W.cs else 0 for i in range(W.p + 1)])


def oracle_column(W, k):
    out = Poly()
    for i, c in W.cs.items():
        out = out + c.scale(Fraction(k) ** i)
    return out


def oracle_tail_lower(q, start):
    if q.is_zero():
        return None, start
    d = q.degree
    if d == 0:
        return abs(q.leading), None
    rest = sum((abs(c) for c in q.coeffs[:-1]), Fraction(0))
    cut = max(start, int(2 * rest / abs(q.leading)) + 1)
    if cut - start > _ORACLE_MAX_SCAN:
        return None, None
    best = None
    for x in range(start, cut + 1):
        v = abs(q(x))
        if v == 0:
            return None, x
        best = v if best is None else min(best, v)
    return min(best, abs(q.leading) * Fraction(max(cut, 1)) ** d / 2), None


def oracle_sign_definite(W):
    signs = {1 if x > 0 else -1 for c in W.cs.values() for x in c.coeffs if x != 0}
    c0 = W.cs.get(0)
    if len(signs) != 1 or c0 is None or c0.coeffs[0] == 0:
        return None
    return abs(c0.coeffs[0])


def oracle_leading_term(W, N0, K0, grid_min):
    p = W.p
    cp = W.cs[p]
    lower = [W.cs.get(i, Poly()) for i in range(p)]
    if any(c.degree > cp.degree for c in lower if not c.is_zero()):
        return None, None
    bounds = [grid_min]
    for n in range(N0 + 1):
        b, root = oracle_tail_lower(oracle_row(W, n), K0 + 1)
        if b is None:
            return (None, (n, root)) if root is not None else (None, None)
        bounds.append(b)
    for k in range(K0 + 1):
        b, root = oracle_tail_lower(oracle_column(W, k), N0 + 1)
        if b is None:
            return (None, (root, k)) if root is not None else (None, None)
        bounds.append(b)
    cp_min, _root = oracle_tail_lower(cp, N0 + 1)
    if cp_min is None:
        return None, None
    rest_sum = sum((c.abs_coeff_sum() for c in lower), Fraction(0))
    gap = max((c.degree for c in lower if not c.is_zero()), default=0) - cp.degree
    if cp.degree > 0:
        theta = 2 * sum((abs(c) for c in cp.coeffs[:-1]), Fraction(0)) / abs(cp.leading)
        cut = max(N0 + 1, int(theta) + 1)
        if cut - N0 > _ORACLE_MAX_SCAN:
            return None, None
        t_max = 4 * rest_sum / abs(cp.leading) * Fraction(N0 + 1) ** gap
        for n in range(N0 + 1, cut + 1):
            cpn = abs(cp(n))
            if cpn == 0:
                return None, None
            t_max = max(t_max, 2 * sum((abs(c(n)) for c in lower), Fraction(0)) / cpn)
    else:
        t_max = 2 * rest_sum / abs(cp.coeffs[0])
    if t_max > K0:
        return None, None
    bounds.append(cp_min * Fraction(K0 + 1) ** p / 2)
    return min(bounds), None


def oracle_certify(W, grid):
    """(verdict, C0, tail argument, witness, grid_min) from the Fraction scan."""
    N0, K0 = grid
    grid_min = None
    for n in range(N0 + 1):
        row = oracle_row(W, n)
        for k in range(K0 + 1):
            v = abs(row(k))
            if v == 0:
                return "resonant", None, "none", (n, k), None
            grid_min = v if grid_min is None else min(grid_min, v)
    bound = oracle_sign_definite(W)
    if bound is not None:
        return "certified_strong", bound, "sign_definite", None, grid_min
    bound, far = oracle_leading_term(W, N0, K0, grid_min)
    if far is not None:
        return "resonant", None, "none", far, None
    if bound is not None:
        return "certified_strong", bound, "leading_term", None, grid_min
    return "grid_verified_only", None, "none", None, grid_min


def assert_matches_oracle(W, grid):
    cert = certify(W, grid)
    got = (cert.verdict, cert.C0_lower_bound, cert.tail_argument, cert.witness, cert.grid_min)
    assert got == oracle_certify(W, grid)
    for v in (cert.C0_lower_bound, cert.grid_min):
        assert v is None or type(v) is Fraction
    return cert


def _W(*cs):
    return IndicialPolynomial({i: Poly(c) for i, c in enumerate(cs)})


F = Fraction


class TestIntegerForm:
    def test_denominators_cleared_once(self):
        W = _W([F(1, 2), F(1, 3)], [], [F(-3, 4)])
        assert W.D == 12
        assert W.C == [[6, 4], [], [-9]]
        assert W.eval(5, 2) == F(1, 2) + F(5, 3) - 3

    def test_rows_and_columns_trimmed(self):
        # W = (1 - n) + (n - 1) k: row n = 1 and column k = 1 vanish
        W = _W([1, -1], [-1, 1])
        assert W.int_row(1) == []
        assert W.int_row(3) == [-2, 2]
        assert W.int_column(1) == []
        assert W.int_column(0) == [1, -1]

    @pytest.mark.parametrize(
        "W, grid, tail",
        [
            # bench mixed-sign class A - C nk + B (nk)^2, C^2 < 4AB
            (_W([5], [0, -3], [0, 0, 2]), (16, 16), "leading_term"),
            (_W([F(7, 3)], [F(-1, 2)], [F(5, 4), F(1, 6)]), (9, 12), "leading_term"),
            # the row tails scan up to a domination threshold of 2 sum|lower| / |lead| + 1
            (_W([63], [F(-5, 3)], [-1], [1, 3]), (9, 10), "leading_term"),
            # c_0 = (n - 30)^2 + 1 dips past the grid: C0 = 1/2 comes from the corner tail
            (_W([901, -60, 1]), (8, 8), "leading_term"),
            # T(10) = 2 * 17 / c_1(10) = 34/3 just exceeds K0 = 11 on the strip
            (_W([-17], [103, -20, 1]), (9, 11), "none"),
            (_W([1, 1], [1, 1]), (12, 8), "sign_definite"),
            (_W([F(-1, 2), F(-1, 3)], [F(-2, 5)]), (8, 8), "sign_definite"),
            # no tail argument: c_0 outgrows c_1 in n
            (_W([1, 0, 1], [-1]), (8, 8), "none"),
        ],
    )
    def test_designed_cases_match_oracle(self, W, grid, tail):
        cert = assert_matches_oracle(W, grid)
        assert cert.tail_argument == tail

    @pytest.mark.parametrize(
        "W, grid, witness",
        [
            (_W([F(-81, 2)], [], [F(1, 2)]), (8, 8), (0, 9)),  # beyond the grid, in a row tail
            (_W([-12, 1], [5, 5]), (8, 8), (12, 0)),  # beyond the grid, in the k = 0 column
            (_W([12, -1], [-1]), (8, 8), (4, 8)),  # n + k = 12: row-major first zero
        ],
    )
    def test_resonant_cases_match_oracle(self, W, grid, witness):
        cert = assert_matches_oracle(W, grid)
        assert cert.verdict == "resonant"
        assert cert.witness == witness
        assert W.eval(*witness) == 0


_coef = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def indicial_cases(draw):
    """Random W with rational coefficients, some with a planted zero or a dominant c_p.

    A "leading" case gives c_p positive coefficients and a degree in n at
    least that of every lower c_i, so the row and column tails run; a
    "resonant" case shifts c_0 so that W vanishes at a chosen (n0, k0),
    inside the grid or a little past it.
    """
    kind = draw(st.sampled_from(["random", "leading", "resonant"]))
    p = draw(st.integers(1 if kind == "leading" else 0, 3))
    deg = draw(st.integers(0, 2))
    cs = {i: [draw(_coef) for _ in range(draw(st.integers(0, deg + 1)))] for i in range(p + 1)}
    if kind == "leading":
        pos = st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))
        cs[p] = [draw(pos) for _ in range(deg + 1)]
        cs[p - 1] = [draw(_coef) for _ in range(deg)] + [-draw(pos)]  # mixed signs
    grid = draw(st.integers(8, 14)), draw(st.integers(8, 14))
    if kind == "resonant":
        n0, k0 = draw(st.integers(0, grid[0] + 4)), draw(st.integers(0, grid[1] + 4))
        value = sum(Poly(c)(n0) * k0**i for i, c in cs.items())
        cs[0] = [(cs[0] or [0])[0] - value, *cs[0][1:]]
    polys = {i: Poly(c) for i, c in cs.items()}
    assume(any(not q.is_zero() for q in polys.values()))
    return IndicialPolynomial(polys), grid


@settings(max_examples=120, deadline=None, derandomize=True)
@given(indicial_cases())
def test_certify_matches_fraction_oracle(case):
    W, grid = case
    cert = assert_matches_oracle(W, grid)
    if cert.witness is not None:
        assert W.eval(*cert.witness) == 0


class TestSoundnessGuard:
    def test_bound_above_grid_min_rejected(self):
        assert _check_bound(Fraction(2), Fraction(2)) == 2
        with pytest.raises(CertificateError):
            _check_bound(Fraction(3), Fraction(2))

    def test_guard_runs_under_optimize(self):
        # an inflated sign-definite bound must still be refused by certify
        # when python -O has stripped every assert statement
        code = (
            "from fractions import Fraction\n"
            "from shrinkdisc import resonance as r\n"
            "from shrinkdisc.polynomial import Poly\n"
            "r._sign_definite_bound = lambda W: Fraction(10**6)\n"
            "try:\n"
            "    r.certify(r.IndicialPolynomial({0: Poly([1])}), (8, 8))\n"
            "except r.CertificateError:\n"
            "    print('refused')\n"
        )
        src = str(Path(shrinkdisc.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "refused"


class TestLiouville:
    def test_lambda_value(self):
        lam, _records, _hits = liouville_demo(3, (100, 100))
        assert lam == Fraction(110001, 1000000)

    def test_first_record_is_k0(self):
        _lam, records, _hits = liouville_demo(3, (100, 100))
        assert records[0] == (0, 0, Fraction(110001, 1000000))

    def test_m2_hit(self):
        _lam, _records, hits = liouville_demo(3, (2000, 2000))
        n, k, w = hits[2]
        assert (n, k) == (1, 8)
        assert w < Fraction(1, k + 1)
        assert n >= 1 and k >= 1

    def test_records_strictly_decrease(self):
        _lam, records, _hits = liouville_demo(3, (2000, 2000))
        ws = [w for _n, _k, w in records]
        assert all(a > b for a, b in zip(ws, ws[1:]))
        assert len(records) >= 3  # refinements past each truncation scale

    def test_partial_when_grid_too_small(self):
        _lam, _records, hits = liouville_demo(4, (100, 100))
        assert hits[4] is None  # the 10^-24 digit is far out of range

    def test_j_lower_bound(self):
        with pytest.raises(ValueError):
            liouville_demo(1, (100, 100))
