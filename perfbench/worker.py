"""One fresh interpreter of the benchmark: a workload round, a traced
command-line call, the staged import probe or the checker self-test.

    python3 perfbench/worker.py round --workload catalog-audit --seed 1
    python3 perfbench/worker.py cli --spans S --metrics M -- verify --b 3
    python3 perfbench/worker.py imports
    python3 perfbench/worker.py selftest

`run.py` starts these with ``src`` on PYTHONPATH and one thread per
numeric pool.  Except for ``cli``, the result is the last stdout line,
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")


def _count_nodes(roots) -> int:
    """Distinct expression nodes reachable from roots."""
    from mdpv.expr import Add, Call, Mul, Pow
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        if isinstance(e, Add):
            stack.extend(e.terms)
        elif isinstance(e, Mul):
            stack.extend(e.factors)
        elif isinstance(e, Pow):
            stack.extend((e.base, e.exponent))
        elif isinstance(e, Call):
            stack.append(e.arg)
    return len(seen)


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of one traced process."""
    from mdpv import catalog
    secs, calls = tracer.totals()
    m = {
        "catalog.draw_params_s": secs["catalog.draw_params"],
        "catalog.draw_params.calls": calls["catalog.draw_params"],
        "catalog.singular_points_s": secs["catalog.singular_points"],
        "catalog.singular_points.calls": calls["catalog.singular_points"],
        "catalog.singular_points.poles":
            tracer.counts["catalog.singular_points.poles"],
        "catalog.profile_with_values_s": secs["catalog.profile_with_values"],
        "residual.ode_residual_s": secs["residual.ode_residual"],
        "residual.scan_cold_s": tracer.timers["residual.scan_cold_s"],
        "residual.scan_warm_s": tracer.timers["residual.scan_warm_s"],
        "residual.scan.calls": calls["residual.scan"],
        "residual.scan.points_evaluated":
            tracer.counts["residual.scan.points_evaluated"],
        "residual.scan.points_excluded":
            tracer.counts["residual.scan.points_excluded"],
        "expr.compile_fn_s": secs["expr.compile_fn"],
        "expr.residual_nodes": _count_nodes(
            v for (_fid, variant), v in catalog._residual_cache.items()
            if variant == "mdp"),
        "expr.parse_s": secs["expr.parse"],
        "expr.format_expr_s": secs["expr.format_expr"],
        "expr.evaluate_s": secs["expr.evaluate"],
        "ansatz.cole_hopf_regen_s": tracer.first("ansatz.cole_hopf_system"),
        "ansatz.hyperbolic_regen_s": tracer.first("ansatz.hyperbolic_system"),
        "ansatz.tanh_coth_regen_s": tracer.first("ansatz.tanh_coth_system"),
        "ansatz.family_system_env_s": secs["ansatz.family_system_env"],
        "ansatz.max_abs_at_s": secs["ansatz.max_abs_at"],
        "ansatz.scale_at_s": secs["ansatz.scale_at"],
        "ansatz.checks": calls["ansatz.max_abs_at"],
        "ansatz.equations": tracer.counts["ansatz.equations"],
        "riccati.audit_printed_forms_s": secs["riccati.audit_printed_forms"],
        "riccati.verify_branch_s": secs["riccati.verify_branch"],
        "sim.run_s": secs["sim.run"],
        "sim.admissibility_s": secs["sim.admissibility"],
        "sim.rk4_steps": sum(c for name, c in calls.items()
                             if name.startswith("sim.step_rk4.")),
        "cli.render_json_s": secs["cli.render_json"],
    }

    def per_call_us(name: str) -> float:
        return 1e6 * secs[name] / calls[name] if calls[name] else 0.0

    for scheme in ("spectral", "fd4"):
        for n in (512, 2048):
            m[f"sim.rhs_us.{scheme}.N{n}"] = per_call_us(
                f"sim.rhs.{scheme}.N{n}")
        for op in ("flux_divergence", "helmholtz_solve", "step_rk4"):
            m[f"sim.{op}_us.{scheme}"] = per_call_us(
                f"sim.{op}.{scheme}.N512")
    return m


def _round(args) -> int:
    import resource

    import mdpv.cli  # noqa: F401  the set-up every workload pays
    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer(f"{args.workload}-seed{args.seed}")
        tracer.install()
    t0 = time.perf_counter()
    tally = workloads.WORKLOADS[args.workload](args.seed)
    wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "ops": tally.ops,
        "work": tally.work,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        tracer.write_jsonl(args.spans)
    _emit(out)
    return 0


def _cli(args) -> int:
    from tracing import Tracer
    tracer = Tracer(os.path.basename(args.spans).split(".")[0])
    tracer.install()
    import mdpv.cli
    try:
        return mdpv.cli.main(args.argv)
    finally:
        metrics = layer_metrics(tracer)
        metrics["cli.main_s"] = tracer.first("cli.main")
        with open(args.metrics, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh)
        tracer.write_jsonl(args.spans)


STAGES = ("numpy", "mdpv.expr", "mdpv.catalog", "scipy.linalg", "mdpv.cli")


def _imports(_args) -> int:
    import importlib
    stamps = [time.perf_counter()]
    for name in STAGES:
        importlib.import_module(name)
        stamps.append(time.perf_counter())
    _emit({name: stamps[i + 1] - stamps[i] for i, name in enumerate(STAGES)})
    return 0


def _selftest(_args) -> int:
    import checks
    _emit({"rejected": checks.self_test()})
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="worker.py")
    sub = p.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("round")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--trace", type=int, default=0)
    r.add_argument("--spans", default=None)
    r.set_defaults(func=_round)
    c = sub.add_parser("cli")
    c.add_argument("--spans", required=True)
    c.add_argument("--metrics", required=True)
    c.add_argument("argv", nargs=argparse.REMAINDER)
    c.set_defaults(func=_cli)
    sub.add_parser("imports").set_defaults(func=_imports)
    sub.add_parser("selftest").set_defaults(func=_selftest)
    args = p.parse_args(argv)
    if getattr(args, "argv", None) and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
