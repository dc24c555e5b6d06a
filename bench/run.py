"""Benchmark entry point.

    python3 bench/run.py --workload large-table --seed 1 --seconds 30 --trace 0

Runs one workload in its own single-threaded process (``worker.py``),
checks every output with ``oracle.py`` in this process once the worker
has exited, and prints one JSON object as the last line of standard
output: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
measured untraced; with ``--trace 1`` they are the per-layer ones, from
a run whose rounds alternate between untraced and traced, whose spans
go to ``bench/out/``.  The line before it carries raw-second
diagnostics.

Times are in units of one reference call (``reference.py``): a round
or an operation is divided by the harmonic mean of the reference calls
sampled while it ran.  ``setup_s`` is the median over seven processes
of the time from process start to the end of warm-up.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7


class BenchError(RuntimeError):
    pass


def _worker(args, *extra) -> tuple[float, list]:
    """Start the worker; return (seconds until ready, all frames after it)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    frames = []
    setup = None
    broken = None
    try:
        while True:
            try:
                kind, payload = pickle.load(proc.stdout)
            except EOFError:
                break
            except pickle.UnpicklingError as exc:
                broken = exc
                break
            if kind == "ready":
                setup = time.perf_counter() - t0
            else:
                frames.append((kind, payload))
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or setup is None or broken is not None:
        raise BenchError(f"worker exited with code {code}" + (f" ({broken})" if broken else ""))
    return setup, frames


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "shrinkdisc" / "__init__.py").is_file():
        sys.stderr.write("bench: no package source at src/shrinkdisc\n")
        return 2
    declared = json.loads(spec_file.read_text())

    try:
        setup, frames = _worker(args)
        setups = [setup]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_worker(args, "--setup-only")[0])
    except BenchError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 1

    ops = [p for kind, p in frames if kind == "op"]
    done = next((p for kind, p in frames if kind == "done"), None)
    if done is None or not ops:
        sys.stderr.write("bench: worker ended without a result\n")
        return 1

    specs = workloads.WORKLOADS[args.workload](args.seed)
    check = oracle.CHECKS[args.workload]
    failed = 0
    correct = True
    for op in ops:
        if op["error"] is not None:
            failed += 1
            continue
        errors = check(specs[op["index"] % len(specs)], op["output"])
        if errors:
            correct = False
            for err in errors:
                sys.stderr.write(f"bench: check failed for {op['name']}: {err}\n")

    # A round, and an operation, is timed in units of the reference calls
    # sampled during it.
    ref_s = done["ref_s"]
    rounds = done["rounds"]
    unit = [r["ref_s"] or ref_s for r in rounds]
    plain = [r["op_s"] / u for r, u in zip(rounds, unit) if not r["traced"]]
    traced = [r["op_s"] / u for r, u in zip(rounds, unit) if r["traced"]]
    plain_ops = [op["op_s"] / (op["ref_s"] or unit[op["round"]]) for op in ops
                 if not op["traced"] and op["error"] is None]
    if not plain_ops:
        sys.stderr.write("bench: no untraced operation succeeded\n")
        return 1
    total_s = statistics.median(r["op_s"] for r in rounds if not r["traced"])
    if args.trace:
        values = dict(done["layers"])
        values["bench.ref_call_s"] = ref_s
        values["bench.total_s"] = total_s
        values["bench.trace_overhead"] = statistics.fmean(traced) / statistics.fmean(plain)
        wanted = declared["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "total_ref": statistics.median(plain),
            "op_p50_ref": statistics.median(plain_ops),
            "peak_rss_mb": done["peak_rss_kb"] / 1024,
        }
        wanted = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(json.dumps({"diagnostics": {
        "total_s": total_s, "ref_call_s": ref_s, "ref_calls": done["ref_samples"],
        "rounds": len(rounds), "setup_samples_s": setups,
        "round_op_s": [r["op_s"] for r in rounds], "round_ref_s": [r["ref_s"] for r in rounds],
    }}))
    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
