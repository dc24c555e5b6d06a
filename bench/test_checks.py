"""Each check accepts a real output and rejects a perturbed one.

    python3 -m pytest bench -q

The outputs come from the benchmark's own pipelines at warm-up size,
so the checks are exercised on what the package really returns.
"""
from __future__ import annotations

import copy
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import shrinkdisc  # noqa: E402
import shrinkdisc.cli  # noqa: E402,F401

import oracle  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from worker import Pipelines, Stages, _warmup_spec  # noqa: E402


def _output(workload: str):
    spec = _warmup_spec(workload)
    pipes = Pipelines(shrinkdisc)
    run = getattr(pipes, workload.replace("-", "_"))
    return spec, run(spec, pipes.prepare(spec), Stages())


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def real(request):
    return (request.param, *_output(request.param))


@pytest.fixture(scope="module")
def large():
    return _output("large-table")


@pytest.fixture(scope="module")
def sweep():
    return _output("analyze-sweep")


def test_real_outputs_pass(real):
    workload, spec, out = real
    assert oracle.CHECKS[workload](spec, out) == []


def test_large_table_rejects_one_changed_cell(large):
    spec, out = large
    bad = copy.deepcopy(out)
    lines = bad["csv"].splitlines()
    n, k, num, den = lines[5].split(",")
    lines[5] = ",".join([n, k, str(int(num) + 1), den])
    bad["csv"] = "\n".join(lines) + "\n"
    errors = oracle.check_large_table(spec, bad)
    assert any("closed form" in e for e in errors)


def test_large_table_rejects_wrong_alpha(large):
    spec, out = large
    bad = dict(out, alpha=str(spec.expect["alpha"] + Fraction(1, 3)))
    assert any(e.startswith("alpha is") for e in oracle.check_large_table(spec, bad))


def test_large_table_rejects_non_minimal_or_failing_bounds(large):
    spec, out = large
    loose = dict(out, bound_B=str(2 * Fraction(out["bound_B"])))
    assert any("9/10 B" in e for e in oracle.check_large_table(spec, loose))
    tight = dict(out, bound_A={n: str(Fraction(a) / 2) for n, a in out["bound_A"].items()})
    assert any("bound constants fail" in e for e in oracle.check_large_table(spec, tight))


def test_large_table_rejects_failed_sharpness_row(large):
    spec, out = large
    rows = [list(r) for r in out["sharpness"]]
    rows[0][1], rows[0][2] = False, 3
    bad = dict(out, sharpness=[tuple(r) for r in rows])
    assert any("sharpness fails" in e for e in oracle.check_large_table(spec, bad))


def test_sweep_rejects_inflated_C0(sweep):
    spec, out = sweep
    bad = copy.deepcopy(out)
    cert = bad["analysis"]["conditions"]["c"]
    cert["C0"] = str(Fraction(cert["C0"]) * 2)
    assert any("C0" in e for e in oracle.check_analyze_sweep(spec, bad))


def test_sweep_rejects_changed_solution_cell(sweep):
    spec, out = sweep
    bad = copy.deepcopy(out)
    n, k, num, den = bad["table"][3]
    bad["table"][3] = (n, k, num + den, den)
    assert any("residual differs" in e for e in oracle.check_analyze_sweep(spec, bad))


def test_dense_rejects_changed_solution_cell():
    spec, out = _output("dense-rational")
    bad = copy.deepcopy(out)
    n, k, num, den = bad["table"][-1]
    bad["table"][-1] = (n, k, num, den + 1)
    assert any("residual differs" in e for e in oracle.check_dense_rational(spec, bad))


def test_indicial_value_matches_hand_computation():
    # geometric: W(n, k) = (n+1)(k+1) from (dt t)(dz z) on t^n z^k
    spec = workloads.OpSpec(name="g", tree=workloads.geometric_general_tree(2, 1), N=4, K=4)
    for n, k in [(0, 0), (3, 5), (256, 17)]:
        assert oracle.indicial_value(spec, n, k, 0) == (n + 1) * (k + 1)


def test_references_are_deterministic():
    for make in reference.REFERENCES.values():
        fn = make()
        assert fn() == fn()
