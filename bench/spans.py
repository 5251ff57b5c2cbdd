"""Span tracing from outside the package: wraps public functions of the
``thetaheights`` modules for the length of a traced pass.

Every module attribute bound to a wrapped function is replaced (so
``heights.theta`` and ``theta.theta`` are both caught, and
``lattices.frac_inverse`` is caught as ``exactla.inverse``).  A span records
(name, start, end, parent index, item id); the name carries the binding
module after ``@`` so calls can be attributed to the caller's layer.  Spans
stay in memory and are written out once, when the pass ends.
"""
from __future__ import annotations

import inspect
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Defining module -> public functions timed as spans.  Every name a
# per-layer metric needs is here; tiny helpers are left out to keep the
# tracing overhead small.
WRAPPED = {
    "campaign": ("run_campaign", "compute_sample"),
    "theta": ("theta", "theta_truncated", "choose_radius", "theta_norm",
              "coset_set", "verify_norm_bounds"),
    "exactla": ("inverse", "min_eig_lower_bound"),
    "siegel": ("reduce_heuristic", "reduce_g1", "fundamental_domain_report"),
    "heights": ("window_check", "matrix_lemma_check", "periods_agm",
                "faltings_height_g1"),
    "lattices": ("delta_exact", "lattice_sum", "intersect", "dual",
                 "quotient_card", "snf_divisors", "hnf_columns"),
    "constants": None,   # every public function
    "sampling": None,    # every public function
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.item = None
        self.box_terms = 0
        self.radii: list[int] = []
        self.heuristic_certified = 0
        self._patched: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, self.item])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return traced

    def _hooks(self, mods):
        sig = inspect.signature(mods["theta"].theta_truncated)

        def box(args, kwargs, _out):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            radius = bound.arguments["radius"]
            self.radii.append(radius)
            self.box_terms += (2 * radius + 1) ** bound.arguments["tau"].g

        def heuristic(_args, _kwargs, out):
            self.heuristic_certified += bool(out.certificate.report.all_ok)

        return {"theta.theta_truncated": box,
                "siegel.reduce_heuristic": heuristic}

    def install(self, mods: dict) -> None:
        """Wrap every attribute bound to a traced function in each module of
        ``mods`` (short name -> module, the package itself included)."""
        hooks = self._hooks(mods)
        targets = {}
        for mod_name, names in WRAPPED.items():
            mod = mods[mod_name]
            if names is None:
                names = [n for n, v in vars(mod).items()
                         if inspect.isfunction(v) and not n.startswith("_")
                         and v.__module__ == mod.__name__]
            for n in names:
                targets[id(getattr(mod, n))] = f"{mod_name}.{n}"
        for binder_name, binder in mods.items():
            for attr, value in list(vars(binder).items()):
                name = targets.get(id(value))
                if name is None or not inspect.isfunction(value):
                    continue
                setattr(binder, attr, self._wrapper(f"{name}@{binder_name}", value,
                                                    hooks.get(name)))
                self._patched.append((binder, attr, value))

    def uninstall(self) -> None:
        for binder, attr, value in reversed(self._patched):
            setattr(binder, attr, value)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def aggregate(self):
        """(calls, self seconds) keyed by span name; calls also keyed by
        'name@binder'."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            base = name.partition("@")[0]
            calls[base] += 1
            if name != base:
                calls[name] += 1
            self_s[base] += (t1 - t0) - child[k]
        return calls, self_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def per_layer(tr: Tracer, items: int, traced_wall: float, scale: float,
              item_seconds: float, untraced_wall: float, ii_useful) -> dict:
    """Per-layer metrics from one traced pass, as {name: (value, unit)}.

    Counts and self times are per attempted item (``1/item``, ``s/item``) so
    that a faster commit, which fits more items in the same run length, still
    compares like for like.  Walls and item seconds come in scaled (see
    clock.py); span self times are scaled by the pass's mean ``scale``.
    """
    calls, raw_self_s = tr.aggregate()
    self_s = defaultdict(float, {k: v * scale for k, v in raw_self_s.items()})
    per = max(items, 1)

    def rate(x):
        return x / per

    def ratio(a, b):
        return a / b if b else 0.0

    constants_calls = sum(v for k, v in calls.items()
                          if k.startswith("constants.") and "@" not in k)
    theta_calls = calls["theta.theta"]
    curves = calls["heights.window_check"]
    m = {
        "theta.theta_truncated.self_s": (rate(self_s["theta.theta_truncated"]), "s/item"),
        "theta.box_terms": (rate(tr.box_terms), "1/item"),
        "theta.ns_per_term": (ratio(self_s["theta.theta_truncated"] * 1e9,
                                    tr.box_terms), "ns"),
        "theta.radius.p50": (statistics.median(tr.radii) if tr.radii else 0, "count"),
        "theta.radius.max": (max(tr.radii, default=0), "count"),
        "theta.choose_radius.calls": (rate(calls["theta.choose_radius"]), "1/item"),
        "theta.choose_radius.self_s": (rate(self_s["theta.choose_radius"]), "s/item"),
        "exactla.inverse.theta_calls": (rate(calls["exactla.inverse@theta"]), "1/item"),
        "exactla.inverses_per_theta": (ratio(calls["exactla.inverse@theta"],
                                             theta_calls), "ratio"),
        "exactla.min_eig_lower_bound.self_s": (
            rate(self_s["exactla.min_eig_lower_bound"]), "s/item"),
        "siegel.reduce_heuristic.calls": (rate(calls["siegel.reduce_heuristic"]), "1/item"),
        "siegel.reduce_heuristic.self_s": (rate(self_s["siegel.reduce_heuristic"]), "s/item"),
        "siegel.reduce_heuristic.certified_ratio": (
            ratio(tr.heuristic_certified, calls["siegel.reduce_heuristic"]), "ratio"),
        "campaign.ii_useful_ratio": (ii_useful, "ratio"),
        "heights.theta_evals_per_curve": (ratio(theta_calls, curves), "1/curve"),
        "heights.reduce_g1_per_curve": (ratio(calls["siegel.reduce_g1"], curves), "1/curve"),
        "heights.periods_agm.calls": (rate(calls["heights.periods_agm"]), "1/item"),
        "heights.periods_agm.self_s": (rate(self_s["heights.periods_agm"]), "s/item"),
        "heights.window_check.self_s": (rate(self_s["heights.window_check"]), "s/item"),
        "heights.matrix_lemma_check.self_s": (
            rate(self_s["heights.matrix_lemma_check"]), "s/item"),
        "siegel.reduce_g1.self_s": (rate(self_s["siegel.reduce_g1"]), "s/item"),
        "lattices.delta_exact.calls": (rate(calls["lattices.delta_exact"]), "1/item"),
        "lattices.intersect.self_s": (rate(self_s["lattices.intersect"]), "s/item"),
        "lattices.quotient_card.self_s": (rate(self_s["lattices.quotient_card"]), "s/item"),
        "lattices.snf_divisors.self_s": (rate(self_s["lattices.snf_divisors"]), "s/item"),
        "lattices.hnf_columns.calls": (rate(calls["lattices.hnf_columns"]), "1/item"),
        "lattices.hnf_per_delta": (ratio(calls["lattices.hnf_columns"],
                                         calls["lattices.delta_exact"]), "ratio"),
        "exactla.inverse.lattices_calls": (rate(calls["exactla.inverse@lattices"]), "1/item"),
        "constants.calls": (rate(constants_calls), "1/item"),
        "constants.self_s": (rate(sum(v for k, v in self_s.items()
                                      if k.startswith("constants."))), "s/item"),
        "sampling.self_s": (rate(sum(v for k, v in self_s.items()
                                     if k.startswith("sampling."))), "s/item"),
        "campaign.self_s": (rate(self_s["campaign.compute_sample"]), "s/item"),
        "campaign.orchestration_s": (rate(traced_wall - item_seconds), "s/item"),
        "trace.overhead": (traced_wall / untraced_wall - 1, "ratio"),
    }
    return m
