import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
    eval_W,
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
        assert eval_W(geometric_W, 3, 4) == 20
        for n in range(101):
            row = geometric_W.row_poly(n)
            for k in range(101):
                assert row(k) == (n + 1) * (k + 1)

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
            eval_W(geometric_W, -1, 0)


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
        cert = certify(W, (16, 16))
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
        cert2 = certify(W2, (16, 16))
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
        cert = certify(W, (8, 8))
        assert cert.verdict == "resonant"
        assert cert.witness == (29, 1)
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
