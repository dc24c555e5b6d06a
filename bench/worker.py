"""The measured process: one workload, one seed, single-threaded.

Started by ``run.py``, never by hand.  It imports the package from the
checkout's ``src``, builds the seeded inputs, warms up and then runs
whole rounds of the workload's operations until the time budget would
be exceeded (at least one round; two in a traced run).  While a stage
runs, ``Sampler`` times a call of the workload's frozen reference
computation every ``SAMPLE_PERIOD_S``.

It writes pickled frames to standard output, in order: ``ready`` once
set-up is done, one ``op`` frame per operation with its stage times,
its reference unit and its outputs, and ``done`` with the per-round
times and units, the peak resident memory and, in a traced run, the
per-layer figures.  The outputs leave the process as they are made, so
the checks run elsewhere and never set this process's peak memory.
Stray prints go to standard error.
"""
from __future__ import annotations

import argparse
import faulthandler
import pickle
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

SAMPLE_PERIOD_S = 0.05
REFERENCE_OF = {
    "large-table": "table_walk",
    "analyze-sweep": "small_rational",
    "dense-rational": "growing_denominators",
}


class Sampler:
    """Host-speed samples: one reference call every ``period`` seconds of measured time.

    A SIGALRM timer runs the reference computation at a fixed period
    inside the pipeline stages, because one stage can last seconds while
    the host's speed wanders on a scale of about one second.  The timer
    is paused between stages, keeping what is left of its period, so
    the samples are spread evenly over the measured time and no signal
    arrives while frames are written.  ``clock`` is ``perf_counter``
    minus the time spent in reference calls, so neither stage times nor
    trace spans include them.
    """

    def __init__(self, ref_fn, period: float):
        self.ref_fn = ref_fn
        self.period = period
        self.samples: list[float] = []
        self.in_ref = 0.0
        self._left = period

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.ref_fn()
        d = time.perf_counter() - t0
        self.samples.append(d)
        self.in_ref += d

    def clock(self) -> float:
        while True:  # retry if a tick lands between the two reads
            spent = self.in_ref
            t = time.perf_counter()
            if spent == self.in_ref:
                return t - spent

    def install(self):
        signal.signal(signal.SIGALRM, self._tick)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, self._left, self.period)

    def pause(self):
        self._left = signal.setitimer(signal.ITIMER_REAL, 0, 0)[0] or self.period


class Stages:
    """Times the pipeline stages of one operation with the sampler's clock."""

    def __init__(self, sampler: Sampler | None = None):
        self.sampler = sampler
        self.times: dict[str, float] = {}

    def __call__(self, name, fn, *args, **kwargs):
        if self.sampler is None:
            return fn(*args, **kwargs)
        clock = self.sampler.clock
        self.sampler.resume()
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.times[name] = self.times.get(name, 0.0) + clock() - t0
            self.sampler.pause()


def _unit(samples: list[float]) -> float | None:
    """Reference unit of a stretch of measured time, or None if it has no samples.

    Samples are even in wall time, so the time-weighted host speed is
    the mean of 1/duration: the unit is their harmonic mean.
    """
    return statistics.harmonic_mean(samples) if samples else None


def _rows(u) -> list:
    return [(n, k, v.numerator, v.denominator) for n, k, v in u.items()]


class Pipelines:
    """The package calls of each workload, through module attributes so tracing sees them."""

    def __init__(self, sd):
        self.sd = sd

    def prepare(self, spec: workloads.OpSpec) -> dict:
        """Package inputs for one spec; part of set-up, not of the timed operation."""
        sd = self.sd
        SeriesTZ = sd.series.SeriesTZ
        if spec.fixture is not None:
            fname, fargs = spec.fixture
            if fname == "constant_diagonal":
                source, params = sd.fixtures.constant_diagonal(*fargs, n_order=spec.N,
                                                               k_order=spec.K)
            else:
                source, params = getattr(sd.fixtures, fname)(*fargs)
        else:
            # The generated parameters are polynomials, known exactly past the
            # table; they are declared with the same derivative margin that
            # build_operator gives the atoms, so normal ordering keeps every
            # coefficient the N x K table needs.
            source = workloads.render(spec.tree)
            bt, bz = workloads.derivative_counts(spec.tree)
            params = {name: SeriesTZ(coeffs, spec.N + bt, spec.K + bz)
                      for name, coeffs in spec.params.items()}
        return {"source": source, "params": params,
                "rhs": SeriesTZ(spec.rhs, spec.N, spec.K)}

    def large_table(self, spec, inp, stage) -> dict:
        sd = self.sd
        N, K = spec.N, spec.K

        def analyze(P):
            m = sd.analysis.compute_m(P)
            T = sd.analysis.reduce_to_theta(sd.analysis.principal_part(P, m), m)
            return m, T, sd.analysis.exponents(T)

        def csv_round_trip(u):
            text = u.to_csv()
            return text, sd.series.SeriesTZ.from_csv(text, N, K)

        def sharpness(T):
            return [(n, chk.holds, chk.first_violation)
                    for n in spec.rows
                    for chk in [sd.solver.verify_sharpness(sd.solver.adversarial(T, n, K))]]

        P = stage("build", sd.dsl.build_operator, inp["source"], inp["params"], N, K)
        m, T, rep = stage("analyze", analyze, P)
        table = stage("solve", sd.solver.solve_full, P, m, inp["rhs"])
        text, u2 = stage("csv", csv_round_trip, table.u)
        fit = stage("fit", sd.growth.analyze_table, u2, rep.s, alpha=rep.alpha)
        sharp = stage("sharpness", sharpness, T)
        return {
            "alpha": str(rep.alpha), "s": str(rep.s), "csv": text,
            "residual": table.residual_checked, "roundtrip": u2 == table.u,
            "alpha_hat": fit.alpha_hat, "bound_B": str(fit.bound_B),
            "bound_A": {n: str(a) for n, a in fit.bound_A.items()},
            "sharpness": sharp,
        }

    def dense_rational(self, spec, inp, stage) -> dict:
        sd = self.sd

        def analyze(P):
            m, _principal, T = sd.analysis.analyze_operator(P)
            return m, sd.analysis.exponents(T)

        P = stage("build", sd.dsl.build_operator, inp["source"], inp["params"], spec.N, spec.K)
        m, _rep = stage("analyze", analyze, P)
        table = stage("solve", sd.solver.solve_full, P, m, inp["rhs"])
        return {"m": m, "residual": table.residual_checked, "table": _rows(table.u)}

    def analyze_sweep(self, spec, inp, stage) -> dict:
        sd = self.sd
        out, _verdict = stage("analyze", sd.cli.run_analyze, inp["source"], inp["params"],
                              spec.N, spec.K, spec.grid, None)
        P = stage("build", sd.dsl.build_operator, inp["source"], inp["params"], spec.N, spec.K)
        table = stage("solve", sd.solver.solve_full, P, out["m"], inp["rhs"])
        out = {key: val for key, val in out.items() if key != "polygons"}
        return {"analysis": out, "residual": table.residual_checked, "table": _rows(table.u)}


def _warmup_spec(workload: str) -> workloads.OpSpec:
    """A small copy of the workload's first operation, to load and prime every path."""
    spec = workloads.WORKLOADS[workload](0)[0]
    if workload == "large-table":
        spec.N, spec.K, spec.rows = 10, 32, (2, 3)
        spec.rhs = {key: v for key, v in spec.rhs.items() if key[0] <= spec.N}
    elif workload == "analyze-sweep":
        spec.grid = (16, 16)
    elif workload == "dense-rational":
        spec.N = spec.K = 4
        spec.params = {name: {key: v for key, v in c.items() if max(key) <= 4}
                       for name, c in spec.params.items()}
        spec.rhs = {key: v for key, v in spec.rhs.items() if max(key) <= 4}
    return spec


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    faulthandler.enable()
    frames = sys.stdout.buffer
    sys.stdout = sys.stderr

    def emit(kind, payload):
        pickle.dump((kind, payload), frames, protocol=pickle.HIGHEST_PROTOCOL)
        frames.flush()

    # ---- set-up: import, inputs, warm-up
    sys.path.insert(0, str(ROOT / "src"))
    import shrinkdisc
    import shrinkdisc.cli  # run_analyze; also loads shrinkdisc.fixtures

    pipes = Pipelines(shrinkdisc)
    run_op = getattr(pipes, args.workload.replace("-", "_"))
    specs = workloads.WORKLOADS[args.workload](args.seed)
    inputs = [pipes.prepare(spec) for spec in specs]

    warm = _warmup_spec(args.workload)
    run_op(warm, pipes.prepare(warm), Stages())
    emit("ready", {"ops_per_round": len(specs)})
    if args.setup_only:
        return 0

    # ---- the time unit: built and warmed after set-up, so setup_s leaves it out
    ref_fn = reference.REFERENCES[REFERENCE_OF[args.workload]]()
    for _ in range(3):
        ref_fn()

    # ---- measured rounds
    sampler = Sampler(ref_fn, SAMPLE_PERIOD_S)
    tracer = Tracer(sampler.clock) if args.trace else None
    clock = time.perf_counter
    deadline = clock() + args.seconds
    min_rounds = 2 if tracer else 1
    rounds: list[dict] = []
    traced_samples: list[float] = []
    op_index = 0
    sampler.install()
    try:
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                tracer.install()
            t_round = clock()
            first_sample = len(sampler.samples)
            op_total = 0.0
            for spec, inp in zip(specs, inputs):
                stage = Stages(sampler)
                first_op_sample = len(sampler.samples)
                if tracer is not None:
                    tracer.op = op_index
                try:
                    output, error = run_op(spec, inp, stage), None
                except Exception:  # a failed operation is counted, and the run goes on
                    output, error = None, traceback.format_exc()
                    sys.stderr.write(error)
                op_s = sum(stage.times.values())
                op_total += op_s
                emit("op", {"round": len(rounds), "index": op_index, "name": spec.name,
                            "traced": traced, "op_s": op_s, "stages": stage.times,
                            "ref_s": _unit(sampler.samples[first_op_sample:]),
                            "output": output, "error": error})
                op_index += 1
            samples = sampler.samples[first_sample:]
            if traced:
                tracer.uninstall()
                traced_samples += samples
            rounds.append({"traced": traced, "op_s": op_total, "wall_s": clock() - t_round,
                           "ref_s": _unit(samples)})
            mean_wall = statistics.fmean(r["wall_s"] for r in rounds)
            if len(rounds) >= min_rounds and clock() + mean_wall > deadline:
                break
    finally:
        sampler.uninstall()

    ref_s = _unit(sampler.samples)
    done = {
        "rounds": rounds,
        "ref_s": ref_s,
        "ref_samples": len(sampler.samples),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        n_traced = sum(r["traced"] for r in rounds)
        done["layers"] = layer_metrics(tracer.self_times(), tracer.counts, tracer.max_bits,
                                       n_traced, _unit(traced_samples))
        tracer.write(HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
                     {"workload": args.workload, "seed": args.seed, "ref_call_s": ref_s})
    emit("done", done)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
