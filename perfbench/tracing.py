"""Spans and counters recorded around calls into the mdpv layers.

`Tracer.install()` replaces the traced functions with timing wrappers in
every loaded ``mdpv`` module that holds them, so a call into a layer from
another layer, or from the benchmark, records one span: name, start,
end and the index of the enclosing span.  Only the outermost of nested
calls with the same span name is timed, so a function that calls itself
(``cli.render_json``) is counted once.  ``expr.evaluate`` recurses on
every tree node; it is wrapped only outside its own module, so that its
recursion does not pass through the wrapper at all.

Counters are updated at the same boundaries from the arguments and the
return value.  Spans stay in memory; `write_jsonl` writes them when the
traced round ends.  Nothing here runs unless a traced round asks for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict


def _sim_label(_u, cfg, grid):
    return f".{cfg.scheme}.N{grid.n}"


def _helmholtz_label(_f, grid, scheme="spectral"):
    return f".{scheme}.N{grid.n}"


def _count_poles(tracer, args, out, dt):
    tracer.counts["catalog.singular_points.poles"] += len(out)


def _count_scan(tracer, args, out, dt):
    tracer.counts["residual.scan.points_evaluated"] += out.points_evaluated
    tracer.counts["residual.scan.points_excluded"] += out.points_excluded
    # the first scan of a residual compiles it, the second reuses that
    key = id(args[0])
    seen = tracer.seen[key]
    if seen == 0:
        tracer.timers["residual.scan_cold_s"] += dt
    elif seen == 1:
        tracer.timers["residual.scan_warm_s"] += dt
    tracer.seen[key] = seen + 1


def _count_equations(tracer, args, out, dt):
    tracer.counts["ansatz.equations"] += len(args[0])


# module -> (attribute, span name, label function, result hook)
TRACED = {
    "mdpv.expr": [
        ("compile_fn", "expr.compile_fn", None, None),
        ("parse", "expr.parse", None, None),
        ("format_expr", "expr.format_expr", None, None),
        ("evaluate", "expr.evaluate", None, None),
    ],
    "mdpv.residual": [
        ("ode_residual", "residual.ode_residual", None, None),
        ("scan", "residual.scan", None, _count_scan),
        ("find_zeros", "residual.find_zeros", None, None),
    ],
    "mdpv.catalog": [
        ("draw_params", "catalog.draw_params", None, None),
        ("singular_points", "catalog.singular_points", None, _count_poles),
        ("profile_with_values", "catalog.profile_with_values", None, None),
        ("verify_family", "catalog.verify_family", None, None),
    ],
    "mdpv.riccati": [
        ("audit_printed_forms", "riccati.audit_printed_forms", None, None),
        ("verify_branch", "riccati.verify_branch", None, None),
    ],
    "mdpv.ansatz": [
        ("cole_hopf_system", "ansatz.cole_hopf_system", None, None),
        ("rational_hyperbolic_system", "ansatz.hyperbolic_system",
         None, None),
        ("tanh_coth_system", "ansatz.tanh_coth_system", None, None),
        ("system_for_family", "ansatz.system_for_family", None, None),
        ("family_system_env", "ansatz.family_system_env", None, None),
        ("AlgebraicSystem.max_abs_at", "ansatz.max_abs_at", None,
         _count_equations),
        ("AlgebraicSystem.scale_at", "ansatz.scale_at", None, None),
    ],
    "mdpv.sim": [
        ("run", "sim.run", None, None),
        ("_admissibility_check", "sim.admissibility", None, None),
        ("step_rk4", "sim.step_rk4", _sim_label, None),
        ("rhs", "sim.rhs", _sim_label, None),
        ("flux_divergence", "sim.flux_divergence", _sim_label, None),
        ("helmholtz_solve", "sim.helmholtz_solve", _helmholtz_label, None),
    ],
    "mdpv.cli": [
        ("main", "cli.main", None, None),
        ("render_json", "cli.render_json", None, None),
    ],
}

# hot self-recursive functions, wrapped only outside their own module
OUTER_ONLY = {("mdpv.expr", "evaluate")}


class Tracer:
    """In-memory spans ``(name, start, end, parent)`` plus counters."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.counts: Counter = Counter()
        self.timers: defaultdict = defaultdict(float)
        self.seen: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def _wrap(self, fn, name, label, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        open_calls = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_calls[name]:
                return fn(*args, **kwargs)
            full = name + label(*args, **kwargs) if label else name
            open_calls[name] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                open_calls[name] -= 1
                spans[idx] = (full, t0, t1, parent)
            if hook is not None:
                hook(self, args, out, t1 - t0)
            return out

        return traced

    def install(self) -> None:
        """Wrap every function in `TRACED`; import the layers first."""
        layers = [importlib.import_module(m) for m in TRACED]
        loaded = [m for n, m in sys.modules.items()
                  if n == "mdpv" or n.startswith("mdpv.")]
        for mod in layers:
            for attr, name, label, hook in TRACED[mod.__name__]:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    setattr(cls, meth, self._wrap(getattr(cls, meth), name,
                                                  label, hook))
                    continue
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, name, label, hook)
                outer_only = (mod.__name__, attr) in OUTER_ONLY
                for other in loaded:
                    if other is mod and outer_only:
                        continue
                    for key, value in list(vars(other).items()):
                        if value is orig:
                            setattr(other, key, wrapped)

    def totals(self) -> tuple[dict, Counter]:
        """Inclusive seconds and call count per span name."""
        secs: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for name, t0, t1, _parent in self.spans:
            secs[name] += t1 - t0
            calls[name] += 1
        return secs, calls

    def first(self, name: str) -> float:
        """Duration of the first span of `name`, 0.0 if none."""
        for span_name, t0, t1, _parent in self.spans:
            if span_name == name:
                return t1 - t0
        return 0.0

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent,
                                     "run": self.run_id}) + "\n")
