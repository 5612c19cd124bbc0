"""Benchmark of mdpv: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload cold-cli --seed 1 \
        --seconds 50 --trace 0
    python3 perfbench/run.py --steady 10 --seconds 50   # spread per metric

Run from the root of a source tree of mdpv (``src/mdpv``).  A run first
times the set-up (fresh interpreters importing ``mdpv.cli``) and runs the
checker self-test, then repeats whole rounds of the workload and stops
at the end of the round nearest to ``--seconds``.  Every round runs in
fresh interpreters with one thread per numeric pool.  With ``--trace 1``
the rounds alternate untraced and traced, and the result holds the
per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run whose outputs fail a
check prints ``correct: false`` and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench_out"
PY = sys.executable

# catalog-audit is not in BENCHMARK.json (see README.md); it runs only
# when asked for by name
WORKLOADS = ("catalog-audit", "manufactured-sim", "cold-cli")
SETUP_PROBES = 3
SETUP_PROBES_PER_ROUND = 1
IMPORT_PROBES = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT = 60.0
POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """A check failed or a child misbehaved; the run is not correct.
    `attempted` and `failed` count the operations of the rounds that
    ended before it, plus the one that failed."""

    def __init__(self, message: str, attempted: int = 1, failed: int = 1):
        super().__init__(message)
        self.attempted, self.failed = attempted, failed


# ---------------------------------------------------------------------
# child processes

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "MDPV_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in POOL_VARS:
        env[var] = "1"
    return env


class Child:
    def __init__(self, code: int, out: bytes, err: bytes, start: float,
                 wall: float, rss_mb: float):
        self.code, self.out, self.err = code, out, err
        self.start, self.wall, self.rss_mb = start, wall, rss_mb

    def last_json(self) -> dict:
        lines = self.out.decode().strip().splitlines()
        if self.code != 0 or not lines:
            raise BenchError(f"child exited {self.code}:\n"
                             + self.err.decode()[-2000:])
        return json.loads(lines[-1])


def spawn(argv: list[str], tag: str) -> Child:
    """Run argv to completion; wall time and peak RSS from wait4."""
    out_path, err_path = OUT / f"{tag}.out", OUT / f"{tag}.err"
    env = child_env()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fo, stderr=fe, cwd=ROOT,
                                env=env)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out_path.read_bytes(),
                 err_path.read_bytes(), start, wall,
                 usage.ru_maxrss / 1024.0)


def setup_seconds() -> float:
    """Fresh interpreter until ``import mdpv.cli`` returns."""
    child = spawn([PY, "-c", "import time, mdpv.cli;"
                   " print(repr(time.perf_counter()))"], "setup")
    if child.code != 0:
        raise BenchError("import mdpv.cli failed:\n" + child.err.decode())
    return float(child.out.split()[-1]) - child.start


def worker(*args: str, tag: str) -> dict:
    return spawn([PY, str(BENCH / "worker.py"), *args], tag).last_json()


# ---------------------------------------------------------------------
# in-process workload rounds

def worker_round(workload: str, seed: int, traced: bool) -> dict:
    res = worker("round", "--workload", workload, "--seed", str(seed),
                 "--trace", str(int(traced)),
                 "--spans", str(OUT / f"{workload}.spans.jsonl"),
                 tag=f"{workload}-round")
    res["failed"] = 0
    return res


# ---------------------------------------------------------------------
# cold-cli: each command in a fresh interpreter

U3_CLOSED_FORM = "(-(3*b+5) + cosh(xi))/((b+1)*(1+cosh(xi)))"
U3_SPEED_AT_3 = -1.5
DEEP_NESTING = 20_000


def cli_script(seed: int) -> list[tuple[str, list[str], int, str]]:
    """(name, argv, expected exit code, expected output) per command.

    Expected output ``json`` is a report on stdout; ``error`` is exactly
    one stderr line starting with ``error:``.  The last two commands are
    known faults: today they exit 1 with a traceback."""
    s = ["--seed", str(seed), "--json"]
    u3 = ["verify", "--expr", U3_CLOSED_FORM, "--b", "3",
          f"--speed={U3_SPEED_AT_3}"]
    deep = "exp(" * DEEP_NESTING + "xi" + ")" * DEEP_NESTING
    return [
        ("list_json", ["list", *s], 0, "json"),
        ("verify_all", ["verify", "--family", "all", "--b", "3", *s], 0,
         "json"),
        ("verify_expr_u3", [*u3, *s], 0, "json"),
        ("verify_expr_u3_dp", [*u3, "--variant", "dp", *s], 3, "json"),
        ("riccati_audit", ["riccati-audit", *s], 0, "json"),
        ("system_verify_colehopf", ["system-verify", "--method", "colehopf",
                                    "--family", "u2", *s], 0, "json"),
        ("system_verify_hyperbolic", ["system-verify", "--method",
                                      "hyperbolic", "--family", "u7", *s],
         0, "json"),
        ("system_verify_tanhcoth", ["system-verify", "--method", "tanhcoth",
                                    "--family", "u22", *s], 0, "json"),
        ("system_verify_perturbed", ["system-verify", "--method", "tanhcoth",
                                     "--family", "u20", "--perturb",
                                     "a0=1e-3", *s], 3, "json"),
        ("simulate_u6", ["simulate", "--family", "u6", "--T", "0.5", *s], 0,
         "json"),
        ("verify_expr_pole", ["verify", "--expr", "1/xi", "--b", "3", *s],
         3, "json"),
        ("verify_expr_deep", ["verify", "--expr", deep, "--b", "3", *s], 1,
         "error"),
    ]


def _report(out: bytes) -> bytes | None:
    """The JSON report that follows the text lines on stdout."""
    text = out.decode()
    start = 0 if text.startswith("{") else text.find("\n{\n") + 1
    if start == 0 and not text.startswith("{"):
        return None
    try:
        json.loads(text[start:])
    except ValueError:
        return None
    return text[start:].encode()


# reports whose verdict must be "all passed", and negative controls
PASSING = ("verify_all", "verify_expr_u3", "system_verify_colehopf",
           "system_verify_hyperbolic", "system_verify_tanhcoth")
CONTROLS = ("verify_expr_u3_dp", "system_verify_perturbed", "verify_expr_pole")


def _check_report(name: str, doc: dict) -> None:
    """Verdicts of the reports, checked against what each must show."""
    def need(cond: bool, what: str) -> None:
        if not cond:
            raise BenchError(f"cold-cli {name}: {what}")

    if name in PASSING:
        need(doc["all_passed"] is True, "a check failed")
        if name == "verify_all":
            need(len(doc["results"]) == 23, "not 23 scans")
    elif name in CONTROLS:
        need(doc["all_passed"] is False, "negative control passed")
    elif name == "list_json":
        need(len(doc["families"]) == 23, "catalog does not list 23 families")
    elif name == "riccati_audit":
        need(doc["all_corrected_pass"] is True, "a corrected branch failed")
    elif name == "simulate_u6":
        summary = doc["summary"]
        need(abs(summary["measured_speed"] + 2.5) <= 0.025,
             "measured speed off the closed-form -2.5")
        need(summary["linf_error"] <= 1e-6, "error above 1e-6")
        need(summary["mass_drift"] <= 1e-12, "mass drift above roundoff")


def cli_round(seed: int, traced: bool, previous: dict | None) -> dict:
    """One pass over the script.  A command whose exit code or output
    kind is not the expected one is a failed operation; the reports of
    the others are checked, and compared byte for byte with the
    previous round (same seed, so the same manifests)."""
    from checks import CheckError, check_identical
    t0 = time.perf_counter()
    reports, layers, per_cmd = {}, [], {}
    failed = 0
    rss = 0.0
    ops = []
    for name, argv, code, kind in cli_script(seed):
        if traced:
            metrics_path = OUT / f"cold-cli-{name}.metrics.json"
            metrics_path.unlink(missing_ok=True)
            child = spawn([PY, str(BENCH / "worker.py"), "cli", "--spans",
                           str(OUT / f"cold-cli-{name}.spans.jsonl"),
                           "--metrics", str(metrics_path), "--", *argv],
                          f"cold-cli-{name}")
            m = json.loads(metrics_path.read_text())
            per_cmd[f"cli.{name}_s"] = m.pop("cli.main_s")
            layers.append(m)
        else:
            child = spawn([PY, "-m", "mdpv.cli", *argv], f"cold-cli-{name}")
        rss = max(rss, child.rss_mb)
        ops.append((name, child.wall, 1))
        report = _report(child.out) if kind == "json" else None
        err_lines = child.err.decode().splitlines()
        ok = child.code == code and (
            report is not None if kind == "json" else
            len(err_lines) == 1 and err_lines[0].startswith("error:"))
        if not ok:
            failed += 1
            continue
        if report is not None:
            _check_report(name, json.loads(report))
            reports[name] = report
            if previous is not None and name in previous:
                try:
                    check_identical(f"cold-cli {name}", previous[name],
                                    report)
                except CheckError as exc:
                    raise BenchError(str(exc)) from None
    check_cli_outputs(reports, seed)
    out = {"wall_s": time.perf_counter() - t0, "ops": ops, "work": {},
           "failed": failed, "peak_rss_mb": rss, "reports": reports}
    if traced:
        merged = merge_layers(layers)
        merged.update(per_cmd)
        merged["cli.report_bytes"] = sum(len(r) for r in reports.values())
        out["layers"] = merged
    return out


def check_cli_outputs(reports: dict, seed: int) -> None:
    """catalog-audit's independent checks, run on what the commands
    reported: every scan of ``verify --family all`` at its reported
    parameters, every corrected riccati branch with its reported triple,
    and the exact systems of the parameter-free families."""
    import numpy as np

    import workloads
    from checks import CheckError
    try:
        if "verify_all" in reports:
            for r in json.loads(reports["verify_all"])["results"]:
                fid = r["family"]
                workloads.check_scan_residual(
                    f"cold-cli verify {fid} {r['params']}", fid,
                    float(r["b"]), r["params"],
                    np.random.default_rng([seed, 7, int(fid[1:])]))
        if "riccati_audit" in reports:
            rows = json.loads(reports["riccati_audit"])["rows"]
            workloads.check_audit_rows(
                rows, [row["alpha_beta_gamma"] for row in rows],
                np.random.default_rng([seed, 8]))
        workloads.check_exact_systems()
    except CheckError as exc:
        raise BenchError(str(exc)) from None


def merge_layers(children: list[dict]) -> dict:
    """Sum the children's layer metrics, except the ones taken once per
    process (cold regenerations, per-call costs), which are averaged over
    the processes that measured them, and the residual node count."""
    merged = {}
    for key in children[0]:
        values = [c[key] for c in children]
        if key == "expr.residual_nodes":
            merged[key] = max(values)
        elif key.endswith("_regen_s") or "_us" in key:
            nonzero = [v for v in values if v]
            merged[key] = statistics.fmean(nonzero) if nonzero else 0.0
        else:
            merged[key] = sum(values)
    return merged


# ---------------------------------------------------------------------
# one run

def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                if ln.startswith("model name")), "unknown")
    except OSError:
        info["cpu"] = platform.processor() or "unknown"
    probe = ("import json, numpy, scipy; d = numpy.show_config('dicts')"
             "['Build Dependencies']['blas'];"
             " print(json.dumps([numpy.__version__, scipy.__version__,"
             " d.get('name', '') + ' ' + d.get('version', '')]))")
    child = spawn([PY, "-c", probe], "machine")
    info["numpy"], info["scipy"], info["blas"] = child.last_json()
    info["thread_pools"] = {var: "1" for var in POOL_VARS}
    return info


def _median(values) -> float:
    return float(statistics.median(values))


def work_list(rounds: list[dict]) -> tuple[float, list[float]]:
    """Seconds of the fixed work list: the sum over its operations of
    each one's shortest time across the run's rounds, plus the shortest
    time of the rest of a round (the checks).  The machine is shared and
    slows down in bursts of a few seconds; a burst lengthens the
    operations of one round that it overlaps and leaves these minima
    alone, where a median over three rounds would still move."""
    shapes = {tuple((kind, n) for kind, _s, n in r["ops"]) for r in rounds}
    if len(shapes) != 1:
        raise BenchError("rounds ran different operations")
    per_op = [min(r["ops"][i][1] for r in rounds)
              for i in range(len(rounds[0]["ops"]))]
    rest = min(r["wall_s"] - sum(op[1] for op in r["ops"]) for r in rounds)
    return sum(per_op) + rest, per_op


RATES = {"scans_per_s": ("scan", None),
         "system_checks_per_s": ("system", None),
         "rk4_steps_per_s": ("sim", "rk4_steps")}


def rates(rounds: list[dict]) -> dict:
    """Operations (or units of work) per second of their work-list time."""
    _total, per_op = work_list(rounds)
    ops = rounds[0]["ops"]
    out = {}
    for name, (kind, work) in RATES.items():
        secs = sum(t for (k, _s, _n), t in zip(ops, per_op) if k == kind)
        done = rounds[0]["work"].get(work, 0) if work else \
            sum(n for k, _s, n in ops if k == kind)
        out[name] = done / secs if secs else 0.0
    return out


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "mdpv" / "cli.py").is_file():
        raise SystemExit(f"error: no mdpv source tree under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))  # checks.py reads the closed forms
    OUT.mkdir(exist_ok=True)
    setup_seconds()  # untimed: writes the bytecode caches once
    setups = [setup_seconds() for _ in range(SETUP_PROBES)]
    rejected = worker("selftest", tag="selftest")["rejected"]

    rounds, previous = [], None
    begin = time.perf_counter()
    try:
        while True:
            round_start = time.perf_counter()
            # set-up probes spread over the run, so that one burst of load
            # on the machine cannot move them all
            setups += [setup_seconds()
                       for _ in range(SETUP_PROBES_PER_ROUND)]
            traced = trace and len(rounds) % 2 == 1
            if workload == "cold-cli":
                res = cli_round(seed, traced, previous)
                previous = res["reports"]
            else:
                res = worker_round(workload, seed, traced)
            res["traced"] = traced
            rounds.append(res)
            # stop at the round boundary nearest to the deadline, taking
            # the next round to last as long as this one did
            now = time.perf_counter()
            if len(rounds) >= MIN_ROUNDS and \
                    now - begin + (now - round_start) / 2 >= seconds:
                break
        plain = [r for r in rounds if not r["traced"]]
        metrics = end_to_end(setups, plain) if not trace \
            else layer_report(rounds)
    except BenchError as exc:
        raise BenchError(str(exc), _attempted(rounds) + 1,
                         sum(r["failed"] for r in rounds) + 1) from None

    result = {"correct": True, "attempted": _attempted(rounds),
              "failed": sum(r["failed"] for r in rounds)}
    result["metrics"] = metrics
    result["info"] = {"workload": workload, "seed": seed,
                      "rounds": len(rounds),
                      "round_wall_s": [r["wall_s"] for r in rounds],
                      "self_test_rejections": rejected,
                      "setup_samples": setups, "machine": machine()}
    return result


def _attempted(rounds: list[dict]) -> int:
    return sum(n for r in rounds for _k, _s, n in r["ops"])


def end_to_end(setups: list[float], plain: list[dict]) -> dict:
    values = {"setup_s": _median(setups),
              "wall_s": work_list(plain)[0],
              "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain)}
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_us." in name:
        return "us"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_report(rounds: list[dict]) -> dict:
    """Per-layer metrics: medians over the traced rounds, counts that
    must repeat exactly, the rates from the untraced rounds, the tracing
    overhead between the two, and the staged import probe."""
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    values = {}
    for name in traced[0]["layers"]:
        samples = [r["layers"][name] for r in traced]
        if _unit(name) in ("count", "bytes"):
            if len(set(samples)) != 1:
                raise BenchError(f"count {name} differs between rounds:"
                                 f" {samples}")
            values[name] = samples[0]
        else:
            values[name] = _median(samples)
    values.update(rates(plain))
    # the same number of rounds on each side: work_list takes minima
    pairs = min(len(traced), len(plain))
    values["trace.overhead_s"] = (work_list(traced[:pairs])[0]
                                  - work_list(plain[:pairs])[0])
    stages = [worker("imports", tag="imports") for _ in range(IMPORT_PROBES)]
    for module in stages[0]:
        short = module.removeprefix("mdpv.").replace(".", "_")
        values[f"import.{short}_s"] = _median(s[module] for s in stages)
    for name, *_ in cli_script(0):
        values.setdefault(f"cli.{name}_s", 0.0)
    values.setdefault("cli.report_bytes", 0)
    return {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}


# ---------------------------------------------------------------------
# steadiness: k runs per workload, quartiles next to the bounds

def steady(k: int, workloads, seed: int, seconds: int) -> int:
    """Run each workload k times (seeds seed .. seed+k-1) and print, per
    end-to-end metric, median, quartiles, sample count and spread next to
    the bound, plus the attempted and failed operations of every run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in workloads:
        samples: dict[str, list[float]] = {}
        units = {}
        counts = []
        for i in range(k):
            child = subprocess.run(
                [PY, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed + i), "--seconds", str(seconds),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                print(f"{workload} seed {seed + i}: exited"
                      f" {child.returncode}\n{child.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            res = json.loads(lines[-1])
            counts.append((res["attempted"], res["failed"]))
            for name, m in res["metrics"].items():
                samples.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        for name, vals in samples.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"unit": units[name], "median": med, "q1": q1,
                          "q3": q3, "n": len(vals), "spread": spread,
                          "bound": bounds.get(name), "values": vals}
            print(f"{workload:17} {name:12} {units[name]:3} median"
                  f" {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  n {len(vals):2}  spread {spread:6.3f}"
                  f"  bound {bounds.get(name)}")
        shares = sorted({f / a for a, f in counts})
        print(f"{workload:17} attempted/failed per run {counts},"
              f" failed share {shares}")
        summary[workload] = {"metrics": rows, "attempted_failed": counts,
                             "failed_shares": shares}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=50)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="K",
                   help="run each workload of BENCHMARK.json (or"
                        " --workload) K times with"
                        " seeds seed..seed+K-1 and print the spreads")
    args = p.parse_args(argv)
    if args.steady:
        chosen = [args.workload] if args.workload else [
            w["name"] for w in
            json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        return steady(args.steady, chosen, args.seed, args.seconds)
    if args.workload is None:
        p.error("--workload is required")
    try:
        result = run_once(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    except BenchError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result = {"correct": False, "attempted": exc.attempted,
                  "failed": exc.failed, "metrics": {}}
    print(json.dumps(result["info"]) if "info" in result else "{}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
