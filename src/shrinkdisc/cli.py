"""Command-line front end: parse, analyze, certify, solve, fit, report.

Every run is reproducible from its inputs and flags: outputs are
deterministic (sorted JSON keys, canonical "p/q" rationals, one file
per artifact under --out-dir), and repeated runs produce byte-identical
files.  Errors exit nonzero with a machine-readable JSON object on
standard error.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

from . import fixtures
from .analysis import (
    HypothesisError,
    NegativeLowerOrdinateError,
    NoDiagonalStratumError,
    compute_m,
    exponents,
    principal_part,
    reduce_to_theta,
)
from .dsl import build_operator
from .growth import analyze_table, fit_alpha, radii_svg, radius_estimate
from .polygon import check_conditions, polygon_svg
from .resonance import (
    CertificateError,
    IndicialPolynomial,
    ResonanceError,
    certify,
    liouville_demo,
)
from .series import SeriesTZ
from .solver import ResidualError, adversarial, solve_full, verify_sharpness

DEFAULTS = {
    "N": 16,
    "K": 16,
    "grid_n": 256,
    "grid_k": 256,
    "s": None,
    "alpha": None,
    "window_k": None,
    "rows": "2,12",
    "terms": 3,
    "out_dir": "shrinkdisc-out",
    "svg": False,
    "check_residual": True,
}


class CliError(Exception):
    def __init__(self, message: str, detail: dict | None = None):
        super().__init__(message)
        self.detail = detail or {}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable usage errors
        _emit_error("UsageError", message, {})
        raise SystemExit(2)


def _emit_error(kind: str, message: str, detail: dict):
    sys.stderr.write(
        json.dumps(
            {"error": kind, "message": message, "detail": detail}, sort_keys=True
        )
        + "\n"
    )


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _frac(text: str) -> Fraction:
    """'p/q' as a Fraction; argparse turns the error into a JSON usage error."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational 'p/q', got {text!r}") from None


def _int_pair(text: str) -> tuple[int, int]:
    """'a,b' as two ints; argparse turns the error into a JSON usage error."""
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected two integers 'a,b', got {text!r}") from None
    return a, b


def _load_params(path: str | None) -> dict[str, SeriesTZ]:
    if path is None:
        return {}
    data = json.loads(Path(path).read_text())
    out = {}
    for name, spec in data.items():
        ent = {(int(n), int(k)): Fraction(v) for n, k, v in spec["coeffs"]}
        out[name] = SeriesTZ(ent, int(spec["N"]), int(spec["K"]))
    return out


def _load_series(path: str, orders: tuple[int, int] | None = None) -> SeriesTZ:
    """A series from JSON or CSV; a CSV's orders default to its last nonzero entry."""
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        spec = json.loads(text)
        ent = {(int(n), int(k)): Fraction(v) for n, k, v in spec["coeffs"]}
        return SeriesTZ(ent, int(spec["N"]), int(spec["K"]))
    return SeriesTZ.from_csv(text, *(orders or ()))


def _resolve_operator(args) -> tuple[str, dict]:
    if getattr(args, "fixture", None):
        name, *rest = args.fixture.split(":")
        ints = [int(x) for x in rest if x.isdecimal()]
        if name == "geometric" and not rest:
            return fixtures.geometric()
        if name == "geometric-general" and len(ints) == len(rest) in (0, 2):
            return fixtures.geometric_general(*(ints or (3, 2)))
        if name == "constant-diagonal" and len(ints) == len(rest) <= 1:
            return fixtures.constant_diagonal(*ints, n_order=args.N, k_order=args.K)
        raise CliError(
            f"unknown fixture '{args.fixture}': expected geometric, "
            "geometric-general[:mu:nu] or constant-diagonal[:h] with unsigned integer parameters"
        )
    if getattr(args, "operator", None):
        source = Path(args.operator).read_text().strip()
        return source, _load_params(getattr(args, "params", None))
    raise CliError("one of --operator or --fixture is required")


def _decimal40(x: Fraction) -> str:
    getcontext().prec = 40
    return str(Decimal(x.numerator) / Decimal(x.denominator))


# ---------------------------------------------------------------- analyze

def run_analyze(source: str, params: dict, N: int, K: int, grid, s_override):
    P = build_operator(source, params, N, K)
    m = compute_m(P)
    out: dict = {
        "operator": source,
        "config": {
            "N": N,
            "K": K,
            "grid": list(grid),
            "s_override": None if s_override is None else str(s_override),
        },
        "m": m,
    }
    P_m = principal_part(P, m)
    try:
        T = reduce_to_theta(P_m, m)
    except NegativeLowerOrdinateError as exc:
        out["lower_ordinate"] = exc.l
        out["conditions"] = {
            "a": {"holds": False, "witness": None, "lower_ordinate": exc.l},
            "b": None,
            "c": None,
        }
        out["exponents"] = None
        out["corollary_gs_extension"] = None
        return out, None

    out["lower_ordinate"] = T.l
    try:
        rep = exponents(T)
    except NoDiagonalStratumError:
        rep = None
    s_derived = rep.s if rep is not None else Fraction(0)
    s_active = s_override if s_override is not None else s_derived
    verdict = check_conditions(T, s_active)
    cert = None
    if rep is not None:
        cert = certify(IndicialPolynomial.from_theta(T), grid)

    conds = verdict.to_json_dict()
    conds["a"]["lower_ordinate"] = T.l
    out["conditions"] = {
        "a": conds["a"],
        "b": conds["b"],
        "c": None if cert is None else cert.to_json_dict(),
    }
    out["s_derived"] = str(s_derived)
    out["s_active"] = str(s_active)
    out["exponents"] = None if rep is None else rep.to_json_dict()
    all_hold = (
        verdict.a_holds
        and verdict.b_holds
        and cert is not None
        and cert.verdict == "certified_strong"
    )
    out["corollary_gs_extension"] = (
        bool(rep.alpha == 0) if (rep is not None and all_hold) else None
    )
    out["polygons"] = conds["polygons"]
    return out, verdict


def cmd_analyze(args) -> int:
    source, params = _resolve_operator(args)
    out, verdict = run_analyze(source, params, args.N, args.K, (args.grid_n, args.grid_k), args.s)
    out_dir = Path(args.out_dir)
    _write(out_dir / "analysis.json", _json_text(out))
    if args.svg and verdict is not None and verdict.stable_polygon is not None:
        _write(out_dir / "polygon.svg", polygon_svg(verdict.stable_polygon))
    sys.stdout.write(_json_text(out))
    return 0


# ------------------------------------------------------------------ solve

def cmd_solve(args) -> int:
    source, params = _resolve_operator(args)
    P = build_operator(source, params, args.N, args.K)
    m = compute_m(P)
    if args.rhs:
        g = _load_series(args.rhs).truncate(args.N, args.K)
    else:
        g = fixtures.unit_column_rhs(args.N, args.K)
    table = solve_full(P, m, g, check_residual=args.check_residual)
    out_dir = Path(args.out_dir)
    _write(out_dir / "solution.csv", table.u.to_csv())
    _write(out_dir / "rhs.csv", g.to_csv())
    summary = {
        "m": m,
        "N": args.N,
        "K": args.K,
        "residual_checked": table.residual_checked,
        "resonance_witness": None,
        "solution_csv": "solution.csv",
    }
    _write(out_dir / "solve.json", _json_text(summary))
    sys.stdout.write(_json_text(summary))
    return 0


# -------------------------------------------------------------------- fit

def cmd_fit(args) -> int:
    u = _load_series(args.solution, args.orders)
    report = analyze_table(u, args.s, n_window=args.window_n, k_window=args.window_k, alpha=args.alpha)
    out_dir = Path(args.out_dir)
    _write(out_dir / "growth.json", _json_text(report.to_json_dict()))
    radii_lines = ["n,r_hat"] + [f"{n},{report.radii[n]!r}" for n in sorted(report.radii)]
    _write(out_dir / "radii.csv", "\n".join(radii_lines) + "\n")
    if args.svg:
        fit = fit_alpha(report.radii)
        _write(out_dir / "radii.svg", radii_svg(report.radii, fit))
    sys.stdout.write(_json_text(report.to_json_dict()))
    return 0


# --------------------------------------------------------------- sharpness

def cmd_sharpness(args) -> int:
    source, params = _resolve_operator(args)
    P = build_operator(source, params, args.N, args.K)
    m = compute_m(P)
    T = reduce_to_theta(principal_part(P, m), m)
    rep = exponents(T)
    lo, hi = args.rows
    rows = {}
    checks = {}
    for n in range(lo, hi + 1):
        pair = adversarial(T, n, args.K)
        rows[n] = pair.u_n
        checks[n] = verify_sharpness(pair)
    table = SeriesTZ(
        {
            (n, k): rows[n].coeffs[k]
            for n in rows
            for k in range(args.K + 1)
            if rows[n].coeffs[k] != 0
        },
        hi,
        args.K,
    )
    radii = {n: radius_estimate(rows[n], rep.s) for n in rows}
    fit = fit_alpha(radii)
    out = {
        "alpha": str(rep.alpha),
        "s": str(rep.s),
        "rows": [lo, hi],
        "K": args.K,
        "bound_holds": {str(n): checks[n].holds for n in checks},
        "c_n": {str(n): checks[n].c_n for n in checks},
        "alpha_hat": fit.alpha_hat,
        "alpha_hat_ge_alpha_minus_tenth": fit.alpha_hat >= float(rep.alpha) - 0.1,
    }
    out_dir = Path(args.out_dir)
    _write(out_dir / "adversarial.csv", table.to_csv())
    _write(out_dir / "sharpness.json", _json_text(out))
    sys.stdout.write(_json_text(out))
    return 0


# ---------------------------------------------------------------- liouville

def cmd_liouville(args) -> int:
    lam, records, hits = liouville_demo(args.terms, (args.grid_n, args.grid_k))
    lines = ["n,k,abs_w"] + [f"{n},{k},{_decimal40(w)}" for n, k, w in records]
    out = {
        "lambda": str(lam),
        "terms": args.terms,
        "grid": [args.grid_n, args.grid_k],
        "records": [[n, k, str(w)] for n, k, w in records],
        "hits": {
            str(mm): (None if h is None else {"n": h[0], "k": h[1], "abs_w": str(h[2])})
            for mm, h in hits.items()
        },
        "note": None
        if all(h is not None for h in hits.values())
        else "search bounds too small to exhibit every requested record",
    }
    out_dir = Path(args.out_dir)
    _write(out_dir / "liouville.csv", "\n".join(lines) + "\n")
    _write(out_dir / "liouville.json", _json_text(out))
    sys.stdout.write(_json_text(out))
    return 0


# ------------------------------------------------------------------- demo

def cmd_demo(args) -> int:
    out_dir = Path(args.out_dir)
    report = {}

    for name, (source, params) in {
        "geometric": fixtures.geometric(),
        "geometric-general-3-2": fixtures.geometric_general(3, 2),
        "constant-diagonal": fixtures.constant_diagonal(h=4),
    }.items():
        out, verdict = run_analyze(source, params, 12, 12, (32, 32), None)
        _write(out_dir / name / "analysis.json", _json_text(out))
        if verdict is not None and verdict.stable_polygon is not None:
            _write(out_dir / name / "polygon.svg", polygon_svg(verdict.stable_polygon))
        report[name] = {
            "alpha": None if out["exponents"] is None else out["exponents"]["alpha"],
            "corollary_gs_extension": out["corollary_gs_extension"],
        }

    source, params = fixtures.geometric()
    P = build_operator(source, params, 24, 24)
    g = fixtures.unit_column_rhs(24, 24)
    table = solve_full(P, 0, g)
    _write(out_dir / "geometric" / "solution.csv", table.u.to_csv())
    growth = analyze_table(table.u, Fraction(0), alpha=Fraction(1))
    _write(out_dir / "geometric" / "growth.json", _json_text(growth.to_json_dict()))
    report["geometric"]["alpha_hat"] = growth.alpha_hat
    report["geometric"]["residual_checked"] = table.residual_checked

    lam, records, hits = liouville_demo(3, (2000, 2000))
    _write(
        out_dir / "liouville.json",
        _json_text({"lambda": str(lam), "hit_m2": list(hits[2][:2])}),
    )
    report["liouville_m2"] = list(hits[2][:2])

    _write(out_dir / "demo.json", _json_text(report))
    sys.stdout.write(_json_text(report))
    return 0


# ------------------------------------------------------------------- main

def _add_common(sp):
    sp.add_argument("--operator", help="path to an operator expression file")
    sp.add_argument("--params", help="JSON sidecar with named parameter series")
    sp.add_argument("--fixture", help="built-in operator, e.g. geometric or geometric-general:3:2")
    sp.add_argument("--N", type=int, default=DEFAULTS["N"])
    sp.add_argument("--K", type=int, default=DEFAULTS["K"])
    sp.add_argument("--out-dir", default=DEFAULTS["out_dir"])


def build_parser() -> _Parser:
    ap = _Parser(prog="shrinkdisc")
    ap.add_argument("--print-config", action="store_true", help="print defaults and exit")
    sub = ap.add_subparsers(dest="command")

    sp = sub.add_parser("analyze", description="conditions, exponents, certificate")
    _add_common(sp)
    sp.add_argument("--grid", type=_int_pair, default=None, help="resonance grid 'N0,K0'")
    sp.add_argument("--s", type=_frac, default=None, help="Gevrey order override, as 'p/q'")
    sp.add_argument("--svg", action="store_true")

    sp = sub.add_parser("solve", description="exact solution table")
    _add_common(sp)
    sp.add_argument("--rhs", help="right-hand side series (JSON or CSV)")
    sp.add_argument(
        "--check-residual", dest="check_residual", action="store_true", default=True
    )
    sp.add_argument("--no-check-residual", dest="check_residual", action="store_false")

    sp = sub.add_parser("fit", description="radius table and exponent fits")
    sp.add_argument("--solution", required=True, help="solution CSV from a prior solve")
    sp.add_argument(
        "--orders", type=_int_pair, default=None,
        help="orders 'N,K' of a CSV solution (default: its last nonzero entry)",
    )
    sp.add_argument("--s", type=_frac, default=Fraction(0), help="Gevrey order, as 'p/q'")
    sp.add_argument("--alpha", type=_frac, default=None, help="exact alpha for bound constants")
    sp.add_argument("--window-k", type=_int_pair, default=DEFAULTS["window_k"], help="'lo,hi'")
    sp.add_argument("--window-n", type=_int_pair, default=None, help="'lo,hi'")
    sp.add_argument("--out-dir", default=DEFAULTS["out_dir"])
    sp.add_argument("--svg", action="store_true")

    sp = sub.add_parser("sharpness", description="adversarial growth table")
    _add_common(sp)
    sp.add_argument("--rows", type=_int_pair, default=DEFAULTS["rows"], help="row range 'lo,hi'")

    sp = sub.add_parser("liouville", description="near-resonance records")
    sp.add_argument("--terms", type=int, default=DEFAULTS["terms"])
    sp.add_argument("--grid", type=_int_pair, default="4000,4000")
    sp.add_argument("--out-dir", default=DEFAULTS["out_dir"])

    sp = sub.add_parser("demo", description="run the pipeline on the built-ins")
    sp.add_argument("--out-dir", default=DEFAULTS["out_dir"])

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)

    if args.print_config:
        for key in sorted(DEFAULTS):
            sys.stdout.write(f"{key}={DEFAULTS[key]}\n")
        return 0
    if not args.command:
        ap.error("a subcommand is required (or --print-config)")

    grid = getattr(args, "grid", None)
    args.grid_n, args.grid_k = grid or (DEFAULTS["grid_n"], DEFAULTS["grid_k"])

    handlers = {
        "analyze": cmd_analyze,
        "solve": cmd_solve,
        "fit": cmd_fit,
        "sharpness": cmd_sharpness,
        "liouville": cmd_liouville,
        "demo": cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except (ResonanceError, ResidualError) as exc:
        _emit_error(type(exc).__name__, str(exc), {"n": exc.n, "k": exc.k})
        return 1
    except (
        CertificateError,
        CliError,
        HypothesisError,
        NegativeLowerOrdinateError,
        NoDiagonalStratumError,
        ValueError,
        OSError,
    ) as exc:
        detail = getattr(exc, "detail", {})
        _emit_error(type(exc).__name__, str(exc), detail)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
