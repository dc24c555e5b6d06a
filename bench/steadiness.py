"""Do two sets of runs of the same code agree?

    python3 bench/steadiness.py                      # 10 runs per set, every workload
    python3 bench/steadiness.py --runs 5 --workloads dense-rational

Runs two interleaved sets of each workload through ``run.py`` (run i of
set A, then run i of set B, each with its own seed) and prints, per
workload and end-to-end metric, each set's median and quartiles, the
quartile spread as a share of the median, and whether the sets agree
within the bounds in BENCHMARK.json: every spread except ``setup_s``'s
within its bound, the two medians apart by no more than the bound in
either direction, and the same share of failed operations.  Runs last ``run_seconds``
from BENCHMARK.json.  Raw seconds
(``total_s``) and the reference-call time (``ref_call_s``) are shown
beside the normalised ``total_ref``.  The figures are also written to
``bench/out/steadiness.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    diagnostics = json.loads(lines[-2])["diagnostics"]
    values["total_s"] = diagnostics["total_s"]
    values["ref_call_s"] = diagnostics["ref_call_s"]
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in declared["workloads"]])
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    runs: dict[str, dict[str, list]] = {w: {"A": [], "B": []} for w in args.workloads}
    seed = args.first_seed
    for i in range(args.runs):
        for label in ("A", "B"):
            for w in args.workloads:
                r = run_once(w, seed, declared["run_seconds"])
                runs[w][label].append(r)
                print(f"# run {i + 1}/{args.runs} set {label} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in r["values"].items()), flush=True)
                seed += 1

    report = {}
    ok = True
    for w, sets in runs.items():
        report[w] = {}
        shares = {label: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs)
                  for label, rs in sets.items()}
        correct = all(r["correct"] for rs in sets.values() for r in rs)
        print(f"\n{w}: correct={correct} failed share A={shares['A']:.4g} B={shares['B']:.4g}")
        print(f"  {'metric':<12} {'set':<3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8}"
              f" {'bound':>6}  verdict")
        for name in list(bounds) + ["total_s", "ref_call_s"]:
            stats = {label: summary([r["values"][name] for r in rs]) for label, rs in sets.items()}
            bound = bounds.get(name)
            shift = stats["B"]["median"] / stats["A"]["median"] - 1
            if bound is None:
                verdict = f"diagnostic, median shift {shift:+.2%}"
            else:
                # setup_s is in raw seconds, so its spread is the host's speed
                # wandering during a run; its bound limits the shift of its median.
                spread_ok = name == "setup_s" or all(s["spread"] <= bound for s in stats.values())
                agree = abs(shift) <= bound
                verdict = ("agree" if spread_ok and agree else "DISAGREE") + \
                    f", median shift {shift:+.2%}"
                ok = ok and spread_ok and agree
            for label, s in stats.items():
                print(f"  {name:<12} {label:<3} {s['median']:>11.5g} {s['q1']:>11.5g}"
                      f" {s['q3']:>11.5g} {s['spread']:>8.2%} {bound if bound else '-':>6}"
                      + (f"  {verdict}" if label == "B" else ""))
            report[w][name] = dict(stats, shift=shift, bound=bound)
        ok = ok and correct and shares["A"] == shares["B"]
    out = HERE / "out" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seconds": declared["run_seconds"], "runs": runs, "report": report},
                              indent=1) + "\n")
    print(f"\nsets agree within BENCHMARK.json bounds: {ok}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
