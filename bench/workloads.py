"""Seeded inputs of the three workloads, as plain data.

Nothing here imports ``shrinkdisc``: the measured process turns these
specs into package objects, and the checker evaluates the very same
expression trees with its own arithmetic.  The same seed always gives
the same specs.

Expression trees are tuples: ``("t",)``, ``("z",)``, ``("dt",)``,
``("dz",)``, ``("lit", Fraction)``, ``("param", name)``,
``("add" | "sub" | "mul", left, right)`` and ``("pow", base, e)``.
``("mul", a, b)`` is operator composition: b acts first.

Each round of a workload runs the same operations with the same
shapes: every slot has fixed Euler powers and shifts, and the seed
changes coefficient values, right sides, row ranges and order, so a
round's amount of work is nearly the same for every seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

T, Z, DT, DZ = ("t",), ("z",), ("dt",), ("dz",)


def lit(c) -> tuple:
    return ("lit", Fraction(c))


def add(*xs) -> tuple:
    out = xs[0]
    for x in xs[1:]:
        out = ("add", out, x)
    return out


def sub(a, b) -> tuple:
    return ("sub", a, b)


def mul(*xs) -> tuple:
    out = xs[0]
    for x in xs[1:]:
        out = ("mul", out, x)
    return out


def pw(base, e: int) -> tuple:
    return ("pow", base, e)


def render(e) -> str:
    """Source text in the package grammar, parenthesised conservatively."""
    kind = e[0]
    if kind in ("t", "z", "dt", "dz"):
        return kind
    if kind == "lit":
        return str(e[1])
    if kind == "param":
        return e[1]
    if kind in ("add", "sub"):
        op = " + " if kind == "add" else " - "
        return "(" + render(e[1]) + op + render(e[2]) + ")"
    if kind == "mul":
        return render(e[1]) + "*" + render(e[2])
    if kind == "pow":
        return "(" + render(e[1]) + ")^" + str(e[2])
    raise ValueError(f"unknown node {kind!r}")


def derivative_counts(e) -> tuple[int, int]:
    """How many dt and dz a tree can apply along any one of its words."""
    kind = e[0]
    if kind == "dt":
        return 1, 0
    if kind == "dz":
        return 0, 1
    if kind in ("add", "sub"):
        a, b = derivative_counts(e[1]), derivative_counts(e[2])
        return max(a[0], b[0]), max(a[1], b[1])
    if kind == "mul":
        a, b = derivative_counts(e[1]), derivative_counts(e[2])
        return a[0] + b[0], a[1] + b[1]
    if kind == "pow":
        a = derivative_counts(e[1])
        return a[0] * e[2], a[1] * e[2]
    return 0, 0



TDT = mul(T, DT)  # Euler operator t*dt: t^n -> n t^n
ZDZ = mul(Z, DZ)  # Euler operator z*dz: z^k -> k z^k


@dataclass
class OpSpec:
    """One operation: an operator through one workload's pipeline.

    ``fixture`` names a ``shrinkdisc.fixtures`` constructor and its
    arguments; otherwise the measured process parses ``render(tree)``.
    ``tree`` and ``params`` always describe the same operator for the
    checker.  ``expect`` holds what the construction guarantees.
    """

    name: str
    tree: tuple
    N: int
    K: int
    params: dict = field(default_factory=dict)  # name -> {(n, k): Fraction}
    fixture: tuple | None = None
    rhs: dict = field(default_factory=dict)  # {(n, k): Fraction}
    rows: tuple = ()
    grid: tuple = ()
    expect: dict = field(default_factory=dict)


# ------------------------------------------------------------ fixtures as trees

def geometric_general_tree(mu: int, nu: int) -> tuple:
    """dt*t*dz*z - (dt*t)^mu * z^nu * (dz*z + nu)."""
    dtt = mul(DT, T)
    return sub(
        mul(DT, T, DZ, Z),
        mul(pw(dtt, mu), pw(Z, nu), add(mul(DZ, Z), lit(nu))),
    )


def constant_diagonal_tree() -> tuple:
    """p0*dt + p1*dt*dz + p2*t*dt^2*dz."""
    return add(
        mul(("param", "p0"), DT),
        mul(("param", "p1"), DT, DZ),
        mul(("param", "p2"), T, pw(DT, 2), DZ),
    )


def constant_diagonal_params(h: int) -> dict:
    """The package defaults a = 2, b = c = 1: p0 = 2 + z + t, p1 = z^2, p2 = z^h."""
    return {
        "p0": {(0, 0): Fraction(2), (0, 1): Fraction(1), (1, 0): Fraction(1)},
        "p1": {(0, 2): Fraction(1)},
        "p2": {(0, h): Fraction(1)},
    }


def _dense(rng: random.Random, size: int, den_max: int) -> dict:
    return {
        (n, k): Fraction(rng.randint(-9, 9), rng.randint(1, den_max))
        for n in range(size + 1)
        for k in range(size + 1)
    }


def _nonzero(rng: random.Random, lo: int, hi: int) -> int:
    return rng.choice([-1, 1]) * rng.randint(lo, hi)


def _plus(acc: tuple, c: int, *word) -> tuple:
    """acc + c*word, written with '-' for negative c (the grammar has no unary minus)."""
    if c < 0:
        return sub(acc, mul(lit(-c), *word))
    return add(acc, mul(lit(c), *word))


# ------------------------------------------------------------------ large-table

LARGE_N, LARGE_K = 64, 256
LARGE_FAMILIES = ((2, 1), (3, 2), (2, 2))
SHARP_ROWS = tuple(range(2, 10))


def large_table(seed: int) -> list[OpSpec]:
    """geometric_general(mu, nu) at 64x256: solve, CSV round trip, fit, sharpness.

    The right side is c * sum (n+1) t^n with a seeded scale c, so the
    exact solution is c (n+1)^{(mu-1)k/nu} on nu | k and 0 elsewhere.
    """
    rng = random.Random(f"large-table/{seed}")
    fams = list(LARGE_FAMILIES)
    rng.shuffle(fams)
    out = []
    for mu, nu in fams:
        c = rng.randint(1, 9)
        out.append(
            OpSpec(
                name=f"geometric_general({mu},{nu})",
                tree=geometric_general_tree(mu, nu),
                N=LARGE_N,
                K=LARGE_K,
                fixture=("geometric_general", (mu, nu)),
                rhs={(n, 0): Fraction(c * (n + 1)) for n in range(LARGE_N + 1)},
                rows=SHARP_ROWS,
                expect={"mu": mu, "nu": nu, "scale": c, "m": 0,
                        "alpha": Fraction(mu - 1, nu), "s": Fraction(0)},
            )
        )
    return out


# --------------------------------------------------------------- dense-rational

DENSE_S = 18


def _dense_shapes() -> list[tuple[str, tuple]]:
    """Operators whose only non-polynomial data is one dense series p.

    Each keeps the diagonal W(n, k) > 0 (constants plus Euler products)
    and multiplies p by z, so the equation stays triangular; the Euler
    factors act on z*p in the first and third shape, so normal ordering
    differentiates the dense series.
    """
    zp = mul(Z, ("param", "p"))
    return [
        ("(t*dt+1)(z*dz+2)(1+z*p)",
         add(lit(3), mul(add(TDT, lit(1)), add(ZDZ, lit(2)), add(lit(1), zp)))),
        ("(2+z*p)(t*dt+1)(z*dz+1)+z*p*z*dz",
         add(mul(add(lit(2), zp), add(TDT, lit(1)), add(ZDZ, lit(1))), mul(zp, ZDZ))),
        ("3+t*dt*z*dz*(1+z*p)",
         add(lit(3), mul(TDT, ZDZ, add(lit(1), zp)))),
    ]


def dense_rational(seed: int) -> list[OpSpec]:
    rng = random.Random(f"dense-rational/{seed}")
    S = DENSE_S
    out = []
    for name, tree in _dense_shapes():
        out.append(
            OpSpec(
                name=name,
                tree=tree,
                N=S,
                K=S,
                params={"p": _dense(rng, S, 9)},
                rhs=_dense(rng, S, 9),
                expect={"m": 0},
            )
        )
    return out


# ---------------------------------------------------------------- analyze-sweep

SWEEP_N, SWEEP_K = 12, 12
SWEEP_GRID = (256, 256)
SWEEP_SAMPLE = 12
_GEOMETRIC_PAIRS = ((3, 1), (3, 2), (4, 3), (2, 2), (4, 2))


def _shift_gevrey(rng, slot: int) -> tuple[tuple, dict]:
    """A + (t*dt + B) z*dz + C z (z*dz)^2 (t*dt)^e: s = 1, alpha = e - 1."""
    A, B, e = rng.randint(1, 6), rng.randint(1, 4), (1, 2, 2)[slot]
    C = _nonzero(rng, 1, 5)
    tree = _plus(add(lit(A), mul(add(TDT, lit(B)), ZDZ)), C, Z, pw(ZDZ, 2), pw(TDT, e))
    return tree, {"alpha": Fraction(e - 1), "s": Fraction(1), "tail": "sign_definite"}


def _shift_decay(rng, slot: int) -> tuple[tuple, dict]:
    """A + (t*dt + B) z*dz + C z^j (t*dt)^e z*dz: s = 0, alpha = (e-1)/j."""
    A, B = rng.randint(1, 6), rng.randint(1, 4)
    e, j = ((2, 1), (3, 1), (3, 2))[slot]
    C = _nonzero(rng, 1, 5)
    tree = _plus(add(lit(A), mul(add(TDT, lit(B)), ZDZ)), C, pw(Z, j), pw(TDT, e), ZDZ)
    return tree, {"alpha": Fraction(e - 1, j), "s": Fraction(0), "tail": "sign_definite"}


def _mixed_sign(rng, _slot: int) -> tuple[tuple, dict]:
    """A + B (t*dt)^2 (z*dz)^2 - C t*dt z*dz + D z t*dt with C^2 < 4AB.

    W(n, k) = A - C nk + B (nk)^2 has no real root in nk, but its
    coefficients change sign, so only the leading-term tail applies.
    """
    A, B = rng.randint(3, 9), rng.randint(1, 4)
    C = rng.randint(1, max(1, int((4 * A * B - 1) ** 0.5)))
    while C * C >= 4 * A * B:
        C -= 1
    D = _nonzero(rng, 1, 5)
    diagonal = sub(add(lit(A), mul(lit(B), pw(TDT, 2), pw(ZDZ, 2))), mul(lit(C), TDT, ZDZ))
    tree = _plus(diagonal, D, Z, TDT)
    return tree, {"alpha": Fraction(0), "s": Fraction(0), "tail": "leading_term"}


def analyze_sweep(seed: int) -> list[OpSpec]:
    """Twelve operators through run_analyze at the 256^2 grid, then a 12x12 solve.

    Three fixtures plus three operators of each generated class: a
    z-shifted Euler-power word with s > 0, one with alpha > 0 at s = 0,
    and a mixed-sign diagonal that needs the leading-term tail.
    """
    rng = random.Random(f"analyze-sweep/{seed}")
    mu, nu = rng.choice(_GEOMETRIC_PAIRS)
    h = rng.randint(3, 6)
    made: list[tuple[str, tuple, dict, tuple | None, dict]] = [
        ("geometric", geometric_general_tree(2, 1), {}, ("geometric", ()),
         {"alpha": Fraction(1), "s": Fraction(0), "tail": "sign_definite", "m": 0}),
        (f"geometric_general({mu},{nu})", geometric_general_tree(mu, nu), {},
         ("geometric_general", (mu, nu)),
         {"alpha": Fraction(mu - 1, nu), "s": Fraction(0), "tail": "sign_definite", "m": 0}),
        (f"constant_diagonal({h})", constant_diagonal_tree(), constant_diagonal_params(h),
         ("constant_diagonal", (h,)),
         {"alpha": Fraction(0), "s": Fraction(1), "tail": "sign_definite", "m": 1}),
    ]
    for cls, gen in (("shift-gevrey", _shift_gevrey), ("shift-decay", _shift_decay),
                     ("mixed-sign", _mixed_sign)):
        for i in range(3):
            tree, expect = gen(rng, i)
            made.append((f"{cls}-{i}", tree, {}, None, dict(expect, m=0)))
    out = []
    for name, tree, params, fixture, expect in made:
        # every cell with n, k <= 3 (where each class attains its grid
        # minimum), the far corners, and seeded cells across the grid
        sample = {(n, k) for n in range(4) for k in range(4)}
        sample |= {(0, SWEEP_GRID[1]), (SWEEP_GRID[0], 0), SWEEP_GRID}
        while len(sample) < 19 + SWEEP_SAMPLE:
            sample.add((rng.randint(0, SWEEP_GRID[0]), rng.randint(0, SWEEP_GRID[1])))
        rhs = {
            (n, k): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for n in range(SWEEP_N + 1)
            for k in range(SWEEP_K + 1)
        }
        out.append(
            OpSpec(
                name=name,
                tree=tree,
                N=SWEEP_N,
                K=SWEEP_K,
                params=params,
                fixture=fixture,
                rhs=rhs,
                grid=SWEEP_GRID,
                expect=dict(expect, sample=tuple(sorted(sample))),
            )
        )
    return out


WORKLOADS = {
    "large-table": large_table,
    "dense-rational": dense_rational,
    "analyze-sweep": analyze_sweep,
}
