"""Per-layer tracing for the benchmark's traced run.

The tracer wraps cfk's public layer functions from the outside: each wrapper
records a span (name, start, end, parent) in memory plus a few counts taken
from the call's arguments and result.  A function is replaced in every cfk
module that holds a reference to it, because cfk.surgery, cfk.cli and the
package itself import V, H, tau, nu and friends by name.  Nothing under
src/cfk is edited; uninstall() puts the originals back.
"""
from __future__ import annotations

import functools
import json
import sys
import time
import weakref
from collections import Counter
from pathlib import Path

# module -> public functions whose calls make up that layer.
LAYERS = {
    "expr": ("parse", "build_complex"),
    "complexes": ("validate",),
    "cfkfile": ("loads", "dumps"),
    "invariants": ("a_minus", "homology_over_U", "V", "H", "nu_plus",
                   "tau", "nu", "epsilon", "hfk_hat", "seifert_genus"),
    "f2": ("rank", "solve", "kernel_basis"),
    "surgery": ("lens_d", "surgery_d", "d_invariants", "cable_tau",
                "cable_nu_plus_bounds", "genus_report", "signature_eval",
                "qa_nu_plus"),
    "cli": ("main",),
}
VERTICAL = ("tau", "nu", "epsilon", "hfk_hat", "seifert_genus")
JOB = "job"

# Per-layer metric -> (unit, better); every value is per job.  run.py adds
# traced.job_p50_s, the job_p50_s of the traced run.
METRICS = {
    "invariants.homology_over_U.calls": ("count", "lower"),
    "invariants.homology_over_U.s": ("s", "lower"),
    "invariants.homology_over_U.basis_total": ("count", "lower"),
    "invariants.homology_over_U.terms_total": ("count", "lower"),
    "invariants.V.calls": ("count", "lower"),
    "invariants.V.distinct": ("count", "lower"),
    "invariants.V.useful_ratio": ("ratio", "higher"),
    "invariants.V.s": ("s", "lower"),
    "invariants.nu_plus.levels": ("count", "lower"),
    "invariants.a_minus.calls": ("count", "lower"),
    "invariants.a_minus.s": ("s", "lower"),
    "invariants.vertical.calls": ("count", "lower"),
    "invariants.vertical.useful_ratio": ("ratio", "higher"),
    "invariants.vertical.s": ("s", "lower"),
    "f2.calls": ("count", "lower"),
    "f2.s": ("s", "lower"),
    "cfkfile.loads.s": ("s", "lower"),
    "cfkfile.loads.bytes": ("B", "lower"),
    "cfkfile.dumps.s": ("s", "lower"),
    "complexes.validate.calls": ("count", "lower"),
    "complexes.validate.s": ("s", "lower"),
    "expr.parse.s": ("s", "lower"),
    "expr.build_complex.s": ("s", "lower"),
    "expr.build_complex.generators": ("count", "lower"),
    "surgery.s": ("s", "lower"),
    "surgery.lens_d.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "traced.job_p50_s": ("s", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._tokens: dict[int, tuple[weakref.ref, int]] = {}
        self._serial = 0
        self._seen: set[tuple] = set()

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "cfk" or n.startswith("cfk.")]
        for short, names in LAYERS.items():
            home = sys.modules[f"cfk.{short}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{short}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patched.append((module, attr, original))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _token(self, C) -> int:
        """A serial number per complex object, stable while it lives."""
        entry = self._tokens.get(id(C))
        if entry is None or entry[0]() is not C:
            self._serial += 1
            entry = (weakref.ref(C), self._serial)
            self._tokens[id(C)] = entry
        return entry[1]

    def _note(self, name: str, args: tuple, result) -> None:
        c = self.counts
        if name == "invariants.homology_over_U":
            c["basis"] += len(args[0].basis)
            c["terms"] += len(args[0].terms)
        elif name == "invariants.V":
            c["V.distinct"] += self._first(("V", self._token(args[0]), args[1]))
        elif name.split(".")[-1] in VERTICAL and name.startswith("invariants."):
            c["vertical.distinct"] += self._first((name, self._token(args[0])))
        elif name == "cfkfile.loads":
            c["loads.bytes"] += len(args[0])
        elif name == "expr.build_complex":
            c["build.generators"] += len(result.generators)

    def _first(self, key: tuple) -> int:
        if key in self._seen:
            return 0
        self._seen.add(key)
        return 1

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            self._note(name, args, result)
            return result
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-job counts and self times over every span recorded."""
        jobs = sum(1 for s in self.spans if s[0] == JOB)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: Counter = Counter()
        nu_plus_levels = 0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child_time[idx]
            if name == "invariants.V" and parent >= 0 and self.spans[parent][0] == "invariants.nu_plus":
                nu_plus_levels += 1

        def total(names) -> tuple[int, float]:
            return sum(calls[n] for n in names), sum(self_s[n] for n in names)

        v_calls = calls["invariants.V"]  # each H call makes one nested V call
        vert_calls, vert_s = total([f"invariants.{n}" for n in VERTICAL])
        f2_calls, f2_s = total([f"f2.{n}" for n in LAYERS["f2"]])
        c = self.counts
        raw = {
            "invariants.homology_over_U.calls": calls["invariants.homology_over_U"],
            "invariants.homology_over_U.s": self_s["invariants.homology_over_U"],
            "invariants.homology_over_U.basis_total": c["basis"],
            "invariants.homology_over_U.terms_total": c["terms"],
            "invariants.V.calls": v_calls,
            "invariants.V.distinct": c["V.distinct"],
            "invariants.V.s": self_s["invariants.V"] + self_s["invariants.H"],
            "invariants.nu_plus.levels": nu_plus_levels,
            "invariants.a_minus.calls": calls["invariants.a_minus"],
            "invariants.a_minus.s": self_s["invariants.a_minus"],
            "invariants.vertical.calls": vert_calls,
            "invariants.vertical.s": vert_s,
            "f2.calls": f2_calls,
            "f2.s": f2_s,
            "cfkfile.loads.s": self_s["cfkfile.loads"],
            "cfkfile.loads.bytes": c["loads.bytes"],
            "cfkfile.dumps.s": self_s["cfkfile.dumps"],
            "complexes.validate.calls": calls["complexes.validate"],
            "complexes.validate.s": self_s["complexes.validate"],
            "expr.parse.s": self_s["expr.parse"],
            "expr.build_complex.s": self_s["expr.build_complex"],
            "expr.build_complex.generators": c["build.generators"],
            "surgery.s": total([f"surgery.{n}" for n in LAYERS["surgery"]])[1],
            "surgery.lens_d.calls": calls["surgery.lens_d"],
            "cli.main.s": self_s["cli.main"],
        }
        out = {k: v / jobs for k, v in raw.items()}
        # A ratio of 0 marks a layer that was never called.
        out["invariants.V.useful_ratio"] = c["V.distinct"] / v_calls if v_calls else 0.0
        out["invariants.vertical.useful_ratio"] = (
            c["vertical.distinct"] / vert_calls if vert_calls else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Spans as JSON lines: [name, start, end, parent index]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
