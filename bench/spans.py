"""Span tracing of the package's public functions, from outside the package.

``Tracer.install`` replaces every public function of the traced
modules, wherever a package module holds a reference to it, with a
wrapper that records a span: name, start, end, parent span and
operation id.  ``uninstall`` puts the originals back.  Spans stay in
memory and are written once, at the end of the run.

Counts are taken at the same boundaries, from the values crossing
them, after the span has closed.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("dsl", "analysis", "polygon", "resonance", "solver", "growth", "cli")
PACKAGE = "shrinkdisc"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.max_bits = 0
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(args, result)
            return result

        return traced

    def install(self):
        if self._patches:
            return
        mods = [mod for name, mod in sys.modules.items()
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for layer in LAYERS:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in list(vars(home).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != home.__name__:
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn, self._counter(layer, attr))
                for mod in mods:  # every module that imported the function by name
                    for name, val in list(vars(mod).items()):
                        if val is fn:
                            self._patch(mod, name, wrapped)
        cls = sys.modules[f"{PACKAGE}.series"].SeriesTZ
        self._patch(cls, "to_csv", self._wrap("series.to_csv", cls.to_csv, self._count_csv))
        raw = cls.__dict__["from_csv"].__func__
        self._patch(cls, "from_csv", classmethod(self._wrap("series.from_csv", raw)))

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ counters

    def _counter(self, layer: str, attr: str):
        return {
            ("dsl", "normal_order"): self._count_normal_form,
            ("solver", "solve_full"): self._count_solve,
            ("resonance", "certify"): self._count_certificate,
        }.get((layer, attr))

    def _count_normal_form(self, _args, op):
        self.counts["dsl.terms"] += len(op.terms)
        self.counts["dsl.nonzeros"] += sum(len(a.items()) for a in op.terms.values())

    def _count_solve(self, _args, table):
        u = table.u
        self.counts["solver.cells"] += (u.n_order + 1) * (u.k_order + 1)
        for _n, _k, v in u.items():
            b = max(v.numerator.bit_length(), v.denominator.bit_length())
            if b > self.max_bits:
                self.max_bits = b

    def _count_certificate(self, _args, cert):
        n0, k0 = cert.grid
        if cert.witness is None:
            cells = (n0 + 1) * (k0 + 1)
        else:
            n, k = cert.witness
            cells = min(n * (k0 + 1) + k + 1, (n0 + 1) * (k0 + 1))
        self.counts["resonance.grid_cells"] += cells
        if cert.tail_argument in ("sign_definite", "leading_term"):
            self.counts[f"resonance.{cert.tail_argument}"] += 1

    def _count_csv(self, _args, text):
        self.counts["series.csv_bytes"] += len(text)

    # ------------------------------------------------------------ summaries

    def self_times(self) -> dict[str, float]:
        """Span duration minus the durations of its direct children, per name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return dict(out)

    def write(self, path, meta: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def layer_metrics(self_s: dict[str, float], counts: dict, max_bits: int,
                  rounds: int, ref_s: float) -> dict[str, float]:
    """Per-round layer figures; times in reference-call units."""
    def busy(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def named(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    times = {
        "dsl.busy_ref": busy("dsl"),
        "analysis.busy_ref": busy("analysis"),
        "polygon.busy_ref": busy("polygon"),
        "cli.self_ref": named("cli.run_analyze"),
        "resonance.busy_ref": busy("resonance"),
        "solver.solve_ref": named("solver.solve_full"),
        "solver.apply_ref": named("solver.apply_full"),
        "solver.sharpness_ref": named("solver.adversarial", "solver.verify_sharpness"),
        "growth.busy_ref": busy("growth"),
        "series.csv_ref": named("series.to_csv", "series.from_csv"),
    }
    out = {k: v / rounds / ref_s for k, v in times.items()}
    for key in ("dsl.terms", "dsl.nonzeros", "resonance.grid_cells", "resonance.sign_definite",
                "resonance.leading_term", "solver.cells", "series.csv_bytes"):
        out[key] = counts.get(key, 0) / rounds
    out["solver.max_bits"] = max_bits
    return out
