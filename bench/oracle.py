"""Independent checks of every output the benchmark measures.

Nothing here imports ``shrinkdisc``.  The checks rest on closed forms,
on a direct evaluator of the generated expression trees, and on
properties the method must have, never on a stored copy of an earlier
output.  Each ``check_*`` function returns a list of error strings;
an empty list means the output passed.

The evaluator applies an expression tree term by term to a polynomial
held as a coefficient dict: ``t`` and ``z`` shift, ``dt`` and ``dz``
differentiate, parameters multiply, and a product applies its right
factor first.  There is no Weyl normal ordering anywhere, so it shares
no code path with the package's ``normal_order`` / ``apply_full``.  It
runs exactly over ``Fraction`` or modulo large primes.
"""
from __future__ import annotations

import math
from fractions import Fraction

from workloads import derivative_counts

PRIMES = (2**61 - 1, 2**127 - 1)
CSV_HEADER = "n,k,numerator,denominator"


# ------------------------------------------------------------------ evaluator

class Evaluator:
    """Applies expression trees to coefficient dicts {(n, k): value}.

    With ``modulus`` set, values are ints reduced modulo that prime;
    otherwise they are Fractions.  ``window`` (n_max, k_max) drops
    intermediate terms no coefficient inside it can depend on; None
    keeps everything.
    """

    def __init__(self, params: dict, modulus: int | None = None, window=None):
        self.modulus = modulus
        self.window = window
        self.params = {name: self.lift(coeffs) for name, coeffs in params.items()}

    def scalar(self, x):
        x = Fraction(x)
        if self.modulus is None:
            return x
        p = self.modulus
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator divisible by the prime {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def lift(self, coeffs: dict) -> dict:
        out = {}
        for key, v in coeffs.items():
            v = self.scalar(v)
            if v:
                out[key] = v
        return out

    def _tidy(self, acc: dict) -> dict:
        p, w = self.modulus, self.window
        out = {}
        for (n, k), v in acc.items():
            if p is not None:
                v %= p
            if v and (w is None or (n <= w[0] and k <= w[1])):
                out[(n, k)] = v
        return out

    def apply(self, e, u: dict) -> dict:
        kind = e[0]
        if kind == "t":
            return self._tidy({(n + 1, k): v for (n, k), v in u.items()})
        if kind == "z":
            return self._tidy({(n, k + 1): v for (n, k), v in u.items()})
        if kind == "dt":
            return self._tidy({(n - 1, k): n * v for (n, k), v in u.items() if n})
        if kind == "dz":
            return self._tidy({(n, k - 1): k * v for (n, k), v in u.items() if k})
        if kind == "lit":
            c = self.scalar(e[1])
            return self._tidy({key: c * v for key, v in u.items()})
        if kind == "param":
            acc: dict = {}
            for (n1, k1), a in self.params[e[1]].items():
                for (n2, k2), b in u.items():
                    key = (n1 + n2, k1 + k2)
                    acc[key] = acc.get(key, 0) + a * b
            return self._tidy(acc)
        if kind in ("add", "sub"):
            acc = dict(self.apply(e[1], u))
            sign = 1 if kind == "add" else -1
            for key, v in self.apply(e[2], u).items():
                acc[key] = acc.get(key, 0) + sign * v
            return self._tidy(acc)
        if kind == "mul":
            return self.apply(e[1], self.apply(e[2], u))
        if kind == "pow":
            for _ in range(e[2]):
                u = self.apply(e[1], u)
            return u
        raise ValueError(f"unknown node {kind!r}")


def antiderivative(u: dict, m: int) -> dict:
    """m-fold t-antiderivative: t^n -> t^{n+m} n!/(n+m)!."""
    if m == 0:
        return u
    return {(n + m, k): v * Fraction(math.factorial(n), math.factorial(n + m))
            for (n, k), v in u.items()}


def residual_errors(spec, table: dict, m: int) -> list[str]:
    """P applied to the m-fold antiderivative of the table, against the right side.

    Every operator the workloads generate maps t^n z^k to terms of
    degree at least (n, k) after the antiderivative, so the residual
    must vanish on the whole N x K window; it is checked modulo each
    prime in ``PRIMES``.
    """
    bt, bz = derivative_counts(spec.tree)
    window = (spec.N + bt, spec.K + bz)
    errors = []
    for p in PRIMES:
        ev = Evaluator(spec.params, modulus=p, window=window)
        got = ev.apply(spec.tree, ev.lift(antiderivative(table, m)))
        want = ev.lift(spec.rhs)
        for n in range(spec.N + 1):
            for k in range(spec.K + 1):
                if got.get((n, k), 0) != want.get((n, k), 0):
                    errors.append(f"residual differs at (n, k) = ({n}, {k}) modulo {p}")
                    return errors
    return errors


def indicial_value(spec, n: int, k: int, m: int) -> Fraction:
    """W(n, k): the coefficient of t^n z^k in P applied to dt^{-m} t^n z^k."""
    ev = Evaluator(spec.params)
    start = antiderivative({(n, k): Fraction(1)}, m)
    return ev.apply(spec.tree, start).get((n, k), Fraction(0))


# ------------------------------------------------------------------ parsing

def parse_csv(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("bad CSV header")
    out = {}
    for line in lines[1:]:
        n, k, num, den = line.split(",")
        out[(int(n), int(k))] = Fraction(int(num), int(den))
    return out


def table_from_rows(rows) -> dict:
    return {(n, k): Fraction(num, den) for n, k, num, den in rows}


# ----------------------------------------------------------------- large-table

def closed_form(spec) -> dict:
    """c (n+1)^{(mu-1) k / nu} on nu | k, else 0.

    From (n+1)(k+1) u[n,k] = (n+1)^mu (k+1) u[n,k-nu] + c (n+1)[k=0]:
    at k = 0 the diagonal gives u = c, and each step of nu columns
    multiplies by (n+1)^{mu-1}.
    """
    mu, nu, c = spec.expect["mu"], spec.expect["nu"], spec.expect["scale"]
    return {
        (n, k): Fraction(c * (n + 1) ** ((mu - 1) * (k // nu)))
        for n in range(spec.N + 1)
        for k in range(0, spec.K + 1, nu)
    }


def _bound_violation(spec, A: dict, B: Fraction):
    """First cell with c (n+1)^{(mu-1)j} > A(n) B^{nu j} n^{(mu-1)j}, or None.

    With s = 0 and k = nu j every exponent is an integer, so the bound
    |u| <= A(n) B^k n^{alpha k} is compared exactly in integers.
    """
    mu, nu, c = spec.expect["mu"], spec.expect["nu"], spec.expect["scale"]
    e = mu - 1
    for n in range(1, spec.N + 1):
        a = A.get(n)
        if a is None:
            return (n, None)
        lhs = c * a.denominator           # c (n+1)^{e j} * den(A) * den(B)^k
        rhs = a.numerator                 # num(A) num(B)^k n^{e j}
        step_l = (n + 1) ** e * B.denominator**nu
        step_r = n**e * B.numerator**nu
        for j in range(spec.K // nu + 1):
            if lhs > rhs:
                return (n, nu * j)
            lhs *= step_l
            rhs *= step_r
    return None


def check_large_table(spec, out: dict) -> list[str]:
    errors = []
    alpha = spec.expect["alpha"]
    if Fraction(out["alpha"]) != alpha:
        errors.append(f"alpha is {out['alpha']}, expected {alpha}")
    if Fraction(out["s"]) != 0:
        errors.append(f"s is {out['s']}, expected 0")
    try:
        got = parse_csv(out["csv"])
    except ValueError as exc:
        return errors + [f"solution CSV unreadable: {exc}"]
    want = closed_form(spec)
    if got != want:
        bad = sorted(key for key in set(got) | set(want) if got.get(key) != want.get(key))
        errors.append(f"table differs from the closed form at {len(bad)} cells, first {bad[0]}")
    if out["residual"] is not True:
        errors.append("solve_full did not verify its residual")
    if out["roundtrip"] is not True:
        errors.append("CSV round trip changed the table")
    if not abs(out["alpha_hat"] - float(alpha)) <= 1e-6:
        errors.append(f"fitted alpha {out['alpha_hat']} is not {alpha}")
    A = {n: Fraction(v) for n, v in out["bound_A"].items()}
    B = Fraction(out["bound_B"])
    where = _bound_violation(spec, A, B)
    if where is not None:
        errors.append(f"bound constants fail at (n, k) = {where}")
    if _bound_violation(spec, A, B * Fraction(9, 10)) is None:
        errors.append("bound constants still hold at 9/10 B, so B is not minimal")
    sharp = {n: (holds, first) for n, holds, first in out["sharpness"]}
    if sorted(sharp) != sorted(spec.rows):
        errors.append(f"sharpness rows {sorted(sharp)}, expected {list(spec.rows)}")
    for n, (holds, first) in sorted(sharp.items()):
        if not holds or first is not None:
            errors.append(f"sharpness fails on row {n} (first violation {first})")
    return errors


# -------------------------------------------------------------- dense-rational

def check_dense_rational(spec, out: dict) -> list[str]:
    errors = []
    if out["m"] != spec.expect["m"]:
        errors.append(f"m is {out['m']}, expected {spec.expect['m']}")
    if out["residual"] is not True:
        errors.append("solve_full did not verify its residual")
    table = table_from_rows(out["table"])
    if any(n > spec.N or k > spec.K for n, k in table):
        errors.append("table has cells outside the truncation")
    return errors + residual_errors(spec, table, spec.expect["m"])


# --------------------------------------------------------------- analyze-sweep

def check_analyze_sweep(spec, out: dict) -> list[str]:
    """Analysis verdicts, certificate constants, exponents and the 12x12 solve.

    The sample holds every cell with n, k <= 3, where each generated
    class attains its smallest |W| on the grid (W = A + (n+B)k and the
    fixtures at (0, 0); A - C nk + B (nk)^2 with C < 2 sqrt(AB) at
    nk <= 3), so grid_min must equal the smallest sampled |W|.
    """
    errors = []
    exp = spec.expect
    an = out["analysis"]
    m = exp["m"]
    if an["m"] != m:
        errors.append(f"m is {an['m']}, expected {m}")
    conds = an.get("conditions") or {}
    for key in ("a", "b"):
        if not (conds.get(key) or {}).get("holds"):
            errors.append(f"condition ({key}) reported failing")
    cert = conds.get("c") or {}
    if cert.get("verdict") != "certified_strong":
        errors.append(f"certificate verdict {cert.get('verdict')!r}")
    if cert.get("tail_argument") != exp["tail"]:
        errors.append(f"tail argument {cert.get('tail_argument')!r}, expected {exp['tail']!r}")
    expo = an.get("exponents") or {}
    if expo.get("alpha") is None or Fraction(expo["alpha"]) != exp["alpha"]:
        errors.append(f"alpha is {expo.get('alpha')}, expected {exp['alpha']}")
    s = an.get("s_derived")
    if s is None or Fraction(s) != exp["s"]:
        errors.append(f"s is {s}, expected {exp['s']}")
    if cert.get("C0") is not None and cert.get("grid_min") is not None:
        C0, gmin = Fraction(cert["C0"]), Fraction(cert["grid_min"])
        values = {cell: abs(indicial_value(spec, *cell, m)) for cell in exp["sample"]}
        smallest = min(values.values())
        if smallest == 0:
            errors.append("a sampled W(n, k) vanishes")
        if not 0 < C0 <= gmin:
            errors.append(f"C0 = {C0} is not in (0, grid_min = {gmin}]")
        if gmin != smallest:
            errors.append(f"grid_min = {gmin} but the smallest sampled |W| is {smallest}")
        if exp["tail"] == "sign_definite" and C0 != values[(0, 0)]:
            errors.append(f"sign-definite C0 = {C0} is not |W(0, 0)| = {values[(0, 0)]}")
    else:
        errors.append("certificate carries no C0 or grid_min")
    if out["residual"] is not True:
        errors.append("solve_full did not verify its residual")
    return errors + residual_errors(spec, table_from_rows(out["table"]), m)


CHECKS = {
    "large-table": check_large_table,
    "dense-rational": check_dense_rational,
    "analyze-sweep": check_analyze_sweep,
}
