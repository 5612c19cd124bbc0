"""Command-line front end: reproducible verification runs and reports.

Subcommands
    list            catalog of the 23 families (``--json``: machine form)
    verify          residual scans of catalog families or an explicit
                    profile expression
    riccati-audit   printed-vs-corrected kernel branch table
    system-verify   coefficient-system annihilation for one family
    simulate        manufactured-solution integration run
    audit           residual scans and system checks of every family at
                    several b values, plus the kernel-branch table

Every invocation resolves to a run manifest (command, seed, tool
version, resolved parameters, output paths) embedded in any JSON
report it emits.  Reports are deterministic: identical manifests give
byte-identical documents.  JSON keys appear in fixed order and floats
carry 17 significant digits; a non-finite measured residual or scale
is written as null.  CSV files use shortest round-trip floats.

Exit codes: 0 all requested checks passed; 1 usage error (a flag its
argparse type refuses, such as a NaN or infinite number or a count
past its budget; a flag the command refuses, such as a ``--perturb``
name that is not a system unknown or a run past the step budget; an
output path that cannot be written, or a stdout closed by its reader
before the output was written); 2 validity violation (excluded b,
inadmissible or singular parameters, no admissible parameter draw at
that b, a parameter map with no float value, unstable step); 3 a
scan, system check or corrected kernel branch failed; 4 numerical
blow-up.  A usage error is reported before any validity error.
The seed defaults to 42.  A flag takes a negative number in any form as
its value: ``--b -0.5,3`` reads as ``--b=-0.5,3``.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import re
import sys
from collections.abc import Mapping, Sequence

from . import __version__
from .catalog import (
    ROUTES, FamilyInstance, catalog_manifest, draw_params, family,
    family_ids, family_rng, is_valid, method_tag, require_parameters,
    verify_family,
)
from .expr import EvalError, ExprError, evaluate, free_symbols, parse
from .residual import SCAN_N, SCAN_TOL, SCAN_WINDOW, VARIANTS, \
    ResidualReport, ode_residual, require_valid_b, scan, within_tolerance

# mdpv.ansatz, mdpv.riccati and mdpv.sim are imported inside the
# commands that call them, mdpv.rng by the first parameter draw, and
# numpy by the first array computation, so that no other command loads
# them

__all__ = [
    "main", "render_json", "UsageError", "ValidityError",
    "EXIT_OK", "EXIT_USAGE", "EXIT_INVALID", "EXIT_FAIL", "EXIT_BLOWUP",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_FAIL = 3
EXIT_BLOWUP = 4

METHOD_CHOICES = tuple(dict.fromkeys(ROUTES.values()))

# defaults of the single checks, with the scan defaults of
# mdpv.residual; `audit` runs every check at these
SYSTEM_TOL = 1e-10
B_LIST = "0,0.5,1,3"
DRAWS = 3
# budgets of the count flags: the largest legitimate values are the
# defaults (--n 257, --draws 3); `verify --family all --n
# 100000` takes 3 s on a 2-vCPU machine
MAX_SCAN_N = 100_000
MAX_DRAWS = 100


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


class ValidityError(Exception):
    """Excluded b or inadmissible parameters; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this tool
    # reserves for validity violations; surface a catchable error
    # instead and let main() translate it to exit code 1.
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------
# deterministic JSON

def _float_repr(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value in report: {v!r}")
    return format(v, ".17g")


def render_json(obj, level: int = 0) -> str:
    """Serialize with insertion-ordered keys and 17-significant-digit
    floats, so equal documents are equal byte strings."""
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    # numpy registers its integer and floating scalars as these
    # abstract numbers; a Fraction, a Rational, is refused below
    if isinstance(obj, numbers.Integral):
        return str(int(obj))
    if isinstance(obj, numbers.Real) and \
            not isinstance(obj, numbers.Rational):
        return _float_repr(float(obj))
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        rows = [f"{pad_in}{json.dumps(str(k))}: {render_json(v, level + 1)}"
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, Sequence):
        if not obj:
            return "[]"
        rows = [f"{pad_in}{render_json(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _measured(v: float) -> float | None:
    """A measured value for a report row; a non-finite one (a scan that
    hit a pole) is reported as null."""
    return float(v) if math.isfinite(v) else None


def _scan_fields(report: ResidualReport) -> dict:
    """What a residual scan measured, as the tail of a report row."""
    return {
        "max_abs_residual": _measured(report.max_abs_residual),
        "scale": _measured(report.scale),
        "tolerance": report.tolerance,
        "points_evaluated": report.points_evaluated,
        "points_excluded": report.points_excluded,
        "passed": report.passed,
    }


def _manifest(command: str, seed: int, parameters: dict,
              outputs: list[str]) -> dict:
    return {
        "command": command,
        "seed": seed,
        "version": __version__,
        "parameters": parameters,
        "outputs": outputs,
    }


def _unwritable(path: str, exc: OSError) -> UsageError:
    return UsageError(f"cannot write {path}: {exc.strerror or exc}")


def _emit_json(doc: dict, target: str | None) -> None:
    if target is None:
        return
    text = render_json(doc) + "\n"
    if target == "-":
        sys.stdout.write(text)
        return
    try:
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _unwritable(target, exc) from None


def _json_outputs(args) -> list[str]:
    paths = []
    if getattr(args, "json", None) not in (None, "-"):
        paths.append(args.json)
    if getattr(args, "csv", None):
        paths.append(args.csv)
    return paths


# ---------------------------------------------------------------------
# flag parsing helpers

def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and inf are usage errors,
    not values a report could carry."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number") from None
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return v


def _tolerance(text: str) -> float:
    """argparse type of `--tol`: no check can pass a negative one."""
    v = _finite_float(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"needs at least 0, got {v:g}")
    return v


def _integer(lower: int, upper: float = math.inf):
    """argparse type of an integer flag, `lower` to `upper`.  A seed
    is a non-negative integer, as `mdpv.rng` splits it into 32-bit
    words; a count starts at 1, as zero draws would scan nothing and
    report a pass and a scan needs a point, and a count past its budget
    asks for a run with no useful end."""
    def integer(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if v < lower:
            raise argparse.ArgumentTypeError(
                f"needs at least {lower}, got {v}")
        if v > upper:
            raise argparse.ArgumentTypeError(
                f"needs at most {upper}, got {v}")
        return v
    return integer


def _assignment(text: str) -> tuple[str, float]:
    """argparse type of `--param` and `--perturb`: one name=value."""
    name, sep, value = text.partition("=")
    name = name.strip()
    if not sep or not name:
        raise argparse.ArgumentTypeError(f"expects name=value, got {text!r}")
    return name, _finite_float(value)


def _window(text: str) -> tuple[float, float]:
    """argparse type of `--window`: 'a,b' with finite a < b."""
    ends = tuple(_finite_float(v) for v in text.split(","))
    if len(ends) != 2 or not ends[0] < ends[1]:
        raise argparse.ArgumentTypeError(f"expects 'a,b' with a < b,"
                                         f" got {text!r}")
    return ends


def _b_list(text: str) -> list[float]:
    """argparse type of a `--b` list: comma-separated finite numbers."""
    b_values = [_finite_float(v) for v in text.split(",") if v.strip()]
    if not b_values:
        raise argparse.ArgumentTypeError("lists no values")
    return b_values


def _family_id(text: str) -> str:
    """argparse type of `--family`: `method_tag` checks the id unbuilt."""
    try:
        method_tag(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return text


def _valid_b(*b_values: float) -> None:
    try:
        for b in b_values:
            require_valid_b(b)
    except ValueError as exc:
        raise ValidityError(str(exc)) from None


def _provided(fid: str, pairs) -> dict[str, float]:
    """The `--param` values, which must name all or none of fid's."""
    provided = dict(pairs or ())
    if provided:
        try:
            require_parameters(fid, provided)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    return provided


def _resolve_param_sets(fid: str, b: float, provided: dict[str, float],
                        rng, draws: int) -> list[dict[str, float]]:
    """The explicit values, if admissible (`_provided` checked their
    names); else `draws` admissible sets from `rng`, or one empty set."""
    names = family(fid).parameters
    if provided:
        ok, bad = is_valid(fid, b, provided)
        if not ok:
            raise ValidityError(f"{fid} parameters violate:"
                                f" {', '.join(bad)}")
        return [{p: provided[p] for p in names}]
    if not names:
        return [{}]
    try:
        return [draw_params(fid, rng, b) for _ in range(draws)]
    except ValueError as exc:
        raise ValidityError(str(exc)) from None


def _print(line: str = "") -> None:
    sys.stdout.write(line + "\n")


def _fail(message: str, code: int) -> int:
    sys.stderr.write(f"error: {message}\n")
    return code


# ---------------------------------------------------------------------
# list

def cmd_list(args) -> int:
    rows = catalog_manifest()
    if args.json is None:
        _print(f"{'id':4} {'method':10} {'speed':26} parameters")
        for row in rows:
            pnames = ", ".join(row["parameters"]) or "-"
            _print(f"{row['family_id']:4} {row['method']:10}"
                   f" {row['wave_speed']:26} {pnames}")
        _print(f"{len(rows)} families")
    doc = {
        "manifest": _manifest("list", args.seed, {"count": len(rows)},
                              _json_outputs(args)),
        "families": rows,
    }
    _emit_json(doc, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------
# verify

def _verify_expression(args) -> int:
    try:
        profile = parse(args.expr)
    except ExprError as exc:
        raise UsageError(f"--expr: {exc}") from None
    stray = free_symbols(profile) - {"xi", "b"}
    if stray:
        raise UsageError(f"--expr may use xi and b only;"
                         f" found {sorted(stray)}")
    _valid_b(args.b)
    residual = ode_residual(profile, VARIANTS[args.variant](args.b),
                            args.speed)
    if "xi" in free_symbols(residual):
        report = scan(residual, {"b": args.b}, window=args.window, n=args.n,
                      tol=args.tol)
    else:
        # constant profiles collapse the residual to a single number
        try:
            value = abs(evaluate(residual, {"b": args.b}))
        except EvalError:
            # a domain error (sqrt(-1), log(0)) has no value: an
            # infinite residual, as a scan reports a non-finite point
            report = ResidualReport(float("inf"), 1, 0, args.tol, 0.0)
        else:
            report = ResidualReport(value, 1, 0, args.tol, value)
    _print(report.line(f"expr[{args.expr}] b={args.b:g} {args.variant}"))
    doc = {
        "manifest": _manifest("verify", args.seed, {
            "expr": args.expr,
            "speed": args.speed,
            "b": args.b,
            "variant": args.variant,
            "window": list(args.window),
            "n": args.n,
            "tol": args.tol,
        }, _json_outputs(args)),
        "results": [{"expr": args.expr, "b": args.b,
                     **_scan_fields(report)}],
        "all_passed": report.passed,
    }
    _emit_json(doc, args.json)
    return EXIT_OK if report.passed else EXIT_FAIL


def _scan_rows(fid: str, b: float, provided: dict[str, float],
               rng, draws: int,
               window: tuple[float, float], n: int, tol: float,
               variant: str):
    """Residual scans of one family at one b: yields a report row and
    its text line per parameter set."""
    for params in _resolve_param_sets(fid, b, provided, rng, draws):
        report = verify_family(fid, b, params, window=window, n=n,
                               tol=tol, variant=variant)
        shown = ", ".join(f"{k}={v:g}" for k, v in params.items())
        label = f"{fid} b={b:g}" + (f" [{shown}]" if shown else "")
        yield ({"family": fid, "b": b, "params": params,
                **_scan_fields(report)}, report.line(label))


def cmd_verify(args) -> int:
    if args.expr is not None:
        return _verify_expression(args)

    target = args.family or "all"
    if args.param and target == "all":
        raise UsageError("--param requires a single --family")
    provided = _provided(target, args.param)
    _valid_b(args.b)

    results = []
    for fid in family_ids() if target == "all" else [target]:
        for row, line in _scan_rows(fid, args.b, provided,
                                    family_rng(args.seed, fid),
                                    args.draws, args.window, args.n,
                                    args.tol, args.variant):
            _print(line)
            results.append(row)
    all_passed = all(row["passed"] for row in results)
    _print(f"{'all passed' if all_passed else 'FAILURES'}"
           f" ({len(results)} scans)")
    doc = {
        "manifest": _manifest("verify", args.seed, {
            "family": target,
            "b": args.b,
            "variant": args.variant,
            "params": provided,
            "window": list(args.window),
            "n": args.n,
            "tol": args.tol,
            "draws": args.draws,
        }, _json_outputs(args)),
        "results": results,
        "all_passed": all_passed,
    }
    _emit_json(doc, args.json)
    return EXIT_OK if all_passed else EXIT_FAIL


# ---------------------------------------------------------------------
# riccati-audit

def _riccati_table() -> list[dict]:
    """Print the printed-vs-corrected kernel branch table; returns its
    report rows."""
    from .riccati import audit_printed_forms
    rows = audit_printed_forms()
    _print(f"{'case':5} {'(alpha,beta,gamma)':20} {'printed':18}"
           f" {'corrected':18} note")
    for row in rows:
        a, be, g = row["spec"]
        triple = f"({a:g}, {be:g}, {g:g})"
        if row["max_residual_printed"] is None:
            printed = "unevaluable"
        else:
            verdict = "pass" if row["printed_passes"] else "FAIL"
            printed = f"{verdict} {row['max_residual_printed']:.2e}"
        corr = f"{'pass' if row['corrected_passes'] else 'FAIL'}" \
               f" {row['max_residual_corrected']:.2e}"
        note = "as printed" if row["matches_printed"] else "repaired"
        _print(f"{row['case']:5} {triple:20} {printed:18} {corr:18} {note}")
    corrected_ok = all(r["corrected_passes"] for r in rows)
    _print(f"corrected branches: "
           f"{'all pass' if corrected_ok else 'FAILURES'}")
    return [{
        "case": r["case"],
        "alpha_beta_gamma": list(r["spec"]),
        "printed_passes": r["printed_passes"],
        "max_residual_printed": r["max_residual_printed"],
        "max_residual_corrected": r["max_residual_corrected"],
        "corrected_passes": r["corrected_passes"],
        "matches_printed": r["matches_printed"],
    } for r in rows]


def cmd_riccati_audit(args) -> int:
    rows = _riccati_table()
    corrected_ok = all(r["corrected_passes"] for r in rows)
    doc = {
        "manifest": _manifest("riccati-audit", args.seed, {},
                              _json_outputs(args)),
        "rows": rows,
        "all_corrected_pass": corrected_ok,
    }
    _emit_json(doc, args.json)
    return EXIT_OK if corrected_ok else EXIT_FAIL


# ---------------------------------------------------------------------
# system-verify

def _system_rows(fid: str, system, b_values: list[float],
                 provided: dict[str, float], perturb: dict[str, float],
                 rng, draws: int, tol: float):
    """Evaluate the route's system at each parameter set of one family,
    all b values drawn from one `rng`: yields a check row and its text
    line per set."""
    from .ansatz import draw_aux, family_system_env
    for b in b_values:
        for i, params in enumerate(_resolve_param_sets(fid, b, provided,
                                                       rng, draws)):
            try:
                env = family_system_env(fid, b, params, draw_aux(fid, rng))
            except (ValueError, OverflowError) as exc:
                # a radicand that rounds below zero, or a power past
                # float range: the map has no float value here
                raise ValidityError(f"{fid} parameters at b = {b:g} have"
                                    f" no float system values: {exc}"
                                    ) from None
            for key, delta in perturb.items():
                env[key] += delta
            max_abs = system.max_abs_at(env)
            scale = system.scale_at(env)
            passed = within_tolerance(max_abs, scale, tol)
            yield {
                "b": b,
                "params": params,
                "perturb": dict(perturb),
                "max_abs": _measured(max_abs),
                "scale": _measured(scale),
                "passed": passed,
            }, (f"  b={b:g} set {i}: max|eq| = {max_abs:.3e}"
                f"  scale = {scale:.3e}  {'pass' if passed else 'FAIL'}")


def cmd_system_verify(args) -> int:
    from .ansatz import system_for_family
    fid = args.family
    route = method_tag(fid)
    if route != args.method:
        raise UsageError(f"{fid} was produced by the '{route}' route,"
                         f" not '{args.method}'")
    provided = _provided(fid, args.param)
    perturb = dict(args.perturb or ())
    system = system_for_family(fid)
    for key in perturb:
        if key not in system.unknowns:
            raise UsageError(f"--perturb {key}: system unknowns are"
                             f" {sorted(system.unknowns)}")
    _valid_b(*args.b)
    _print(f"{fid}: {len(system)} coefficient equations in"
           f" {system.variable} ({route} route,"
           f" {len(system.distinct)} distinct)")
    checks = []
    for row, line in _system_rows(fid, system, args.b, provided, perturb,
                                  family_rng(args.seed, fid), args.draws,
                                  args.tol):
        _print(line)
        checks.append(row)
    all_passed = all(row["passed"] for row in checks)
    _print("system annihilated" if all_passed else "system VIOLATED")
    doc = {
        "manifest": _manifest("system-verify", args.seed, {
            "method": args.method,
            "family": fid,
            "b": args.b,
            "draws": args.draws,
            "tol": args.tol,
            "params": provided,
            "perturb": perturb,
        }, _json_outputs(args)),
        "method": args.method,
        "family": fid,
        "variable": system.variable,
        "normalization": system.normalization,
        "equations": [{"power": row["power"],
                       "coefficient_formatted": row["coefficient"]}
                      for row in system.dump()],
        "checks": checks,
        "all_passed": all_passed,
    }
    _emit_json(doc, args.json)
    return EXIT_OK if all_passed else EXIT_FAIL


# ---------------------------------------------------------------------
# audit

def cmd_audit(args) -> int:
    from .ansatz import system_for_family
    _valid_b(*args.b)
    scans, systems, failures = [], [], 0
    for fid in family_ids():
        # the scans draw a fresh stream per (family, b), as `verify --b B`
        # does; the system checks one stream across the b list, as
        # `system-verify --b LIST` does
        rows = [pair for b in args.b for pair in _scan_rows(
            fid, b, {}, family_rng(args.seed, fid), args.draws,
            SCAN_WINDOW, SCAN_N, SCAN_TOL, "mdp")]
        checks = list(_system_rows(fid, system_for_family(fid), args.b,
                                   {}, {}, family_rng(args.seed, fid),
                                   args.draws, SYSTEM_TOL))
        for row, line in rows + checks:
            if not row["passed"]:
                failures += 1
                _print(f"  FAILED {fid}: {line.strip()}")
        verdicts = ["pass" if all(row["passed"] for row, _ in pairs)
                    else "FAIL" for pairs in (rows, checks)]
        _print(f"{fid:4} {len(rows)} scans {verdicts[0]},"
               f" {len(checks)} system checks {verdicts[1]}")
        scans += [row for row, _ in rows]
        systems.append({"family": fid, "method": method_tag(fid),
                        "checks": [row for row, _ in checks],
                        "all_passed": verdicts[1] == "pass"})
    riccati = _riccati_table()
    failures += sum(not row["corrected_passes"] for row in riccati)
    _print("ALL CHECKS PASSED" if not failures else f"{failures} FAILURES")
    doc = {
        "manifest": _manifest("audit", args.seed, {
            "b": args.b,
            "draws": args.draws,
            "variant": "mdp",
            "window": list(SCAN_WINDOW),
            "n": SCAN_N,
            "scan_tol": SCAN_TOL,
            "system_tol": SYSTEM_TOL,
        }, _json_outputs(args)),
        "scans": scans,
        "systems": systems,
        "riccati": riccati,
        "all_passed": not failures,
    }
    _emit_json(doc, args.json)
    return EXIT_OK if not failures else EXIT_FAIL


# ---------------------------------------------------------------------
# simulate

def cmd_simulate(args) -> int:
    from .sim import BlowUpError, Grid, InadmissibleFamilyError, \
        SimConfig, run, snapshot_steps, write_snapshots_csv
    fid = args.family
    provided = _provided(fid, args.param)
    try:
        grid = Grid(args.N, args.L)
        config = SimConfig(b=args.b, dt=args.dt, t_final=args.T,
                           scheme=args.scheme, snapshots=args.snapshots,
                           blowup_threshold=args.blowup_threshold)
        snapshot_steps(config, grid)
        _valid_b(args.b)
        params = _resolve_param_sets(fid, args.b, provided,
                                     family_rng(args.seed, fid), 1)[0]
        report = run(FamilyInstance(fid, args.b, params), config, grid)
    except InadmissibleFamilyError as exc:
        raise ValidityError(str(exc)) from None
    except BlowUpError as exc:
        return _fail(f"blow-up at t = {exc.t:g} (peak {exc.peak:.3e})",
                     EXIT_BLOWUP)
    except ValueError as exc:
        # the grid, the time axis or the snapshot budget: a flag problem
        raise UsageError(str(exc)) from None
    summary = report.summary()
    for key, value in summary.items():
        shown = f"{value:.6e}" if isinstance(value, float) else value
        _print(f"  {key} = {shown}")
    if args.csv:
        try:
            write_snapshots_csv(report, args.csv)
        except OSError as exc:
            raise _unwritable(args.csv, exc) from None
        _print(f"snapshots -> {args.csv}")
    doc = {
        "manifest": _manifest("simulate", args.seed, {
            "family": fid,
            "b": args.b,
            "params": params,
            "N": args.N,
            "L": args.L,
            "dt": args.dt,
            "T": args.T,
            "scheme": args.scheme,
            "snapshots": args.snapshots,
            "blowup_threshold": args.blowup_threshold,
        }, _json_outputs(args)),
        "summary": summary,
    }
    _emit_json(doc, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------
# wiring

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_integer(0), default=42,
                   help="RNG seed, a non-negative integer"
                        " (default %(default)s)")
    p.add_argument("--json", nargs="?", const="-", default=None,
                   metavar="PATH",
                   help="write the JSON report to PATH ('-' or bare"
                        " flag: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdpv",
                     description="Closed-form traveling-wave workbench:"
                                 " catalog scans, branch audits,"
                                 " coefficient systems, simulation.")
    parser.add_argument("--version", action="version",
                        version=f"mdpv {__version__}")
    sub = parser.add_subparsers(dest="cmd", metavar="COMMAND")

    p = sub.add_parser("list", help="show the 23 catalog families")
    _add_common(p)
    p.set_defaults(func=cmd_list)

    p = sub.add_parser("verify", help="residual scans of families or"
                                      " an explicit profile")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--family", default=None,
                        type=lambda t: t if t == "all" else _family_id(t),
                        help="family id u1..u23 or 'all' (default: all)")
    target.add_argument("--expr", default=None, metavar="EXPR",
                        help="explicit profile U(xi) instead of a family")
    p.add_argument("--b", type=_finite_float, required=True,
                   help="equation parameter (b not in {-1, -2})")
    p.add_argument("--param", type=_assignment, action="append",
                   metavar="NAME=VALUE",
                   help="explicit family parameter (repeatable; all or"
                        " none)")
    p.add_argument("--variant", choices=tuple(VARIANTS), default="mdp",
                   help="equation variant to scan against")
    p.add_argument("--speed", type=_finite_float, default=0.0,
                   help="wave speed for --expr (default 0)")
    p.add_argument("--window", type=_window, default=SCAN_WINDOW,
                   metavar="A,B")
    p.add_argument("--n", type=_integer(1, MAX_SCAN_N), default=SCAN_N)
    p.add_argument("--tol", type=_tolerance, default=SCAN_TOL)
    p.add_argument("--draws", type=_integer(1, MAX_DRAWS), default=1,
                   help="seeded parameter draws per family (default 1)")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("riccati-audit",
                       help="printed-vs-corrected kernel branch table")
    _add_common(p)
    p.set_defaults(func=cmd_riccati_audit)

    p = sub.add_parser("system-verify",
                       help="coefficient-system annihilation for one"
                            " family")
    p.add_argument("--method", choices=METHOD_CHOICES, required=True)
    p.add_argument("--family", type=_family_id, required=True)
    p.add_argument("--b", type=_b_list, default=B_LIST, metavar="B1,B2,...",
                   help=f"comma-separated b values (default {B_LIST})")
    p.add_argument("--param", type=_assignment, action="append",
                   metavar="NAME=VALUE",
                   help="explicit family parameter (repeatable)")
    p.add_argument("--perturb", type=_assignment, action="append",
                   metavar="NAME=DELTA",
                   help="offset a system unknown after substitution"
                        " (negative control)")
    p.add_argument("--draws", type=_integer(1, MAX_DRAWS), default=DRAWS)
    p.add_argument("--tol", type=_tolerance, default=SYSTEM_TOL)
    _add_common(p)
    p.set_defaults(func=cmd_system_verify)

    p = sub.add_parser("simulate",
                       help="manufactured-solution integration run")
    p.add_argument("--family", type=_family_id, required=True)
    p.add_argument("--b", type=_finite_float, default=3.0)
    p.add_argument("--param", type=_assignment, action="append",
                   metavar="NAME=VALUE")
    p.add_argument("--N", type=int, default=512, help="grid points")
    p.add_argument("--L", type=_finite_float, default=40.0,
                   help="domain length")
    p.add_argument("--dt", type=_finite_float, default=5e-4)
    p.add_argument("--T", type=_finite_float, default=2.0,
                   help="final time")
    p.add_argument("--scheme", choices=("spectral", "fd4"),
                   default="spectral")
    p.add_argument("--snapshots", type=int, default=5)
    p.add_argument("--blowup-threshold", type=_finite_float, default=1e6,
                   help="abort when the peak exceeds this (exit 4)")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="write snapshot table to PATH")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit",
                       help="every scan, system check and kernel branch"
                            " at several b values")
    p.add_argument("--b", type=_b_list, default=B_LIST, metavar="B1,B2,...",
                   help=f"comma-separated b values (default {B_LIST})")
    p.add_argument("--draws", type=_integer(1, MAX_DRAWS), default=DRAWS,
                   help=f"draws per family and b (default {DRAWS})")
    _add_common(p)
    p.set_defaults(func=cmd_audit)
    parser.set_defaults(func=lambda _args: _fail(
        f"a subcommand is required ({', '.join(sub.choices)})", EXIT_USAGE))
    return parser


# a number in exponent or decimal form, or a comma list of them; `re`
# compiles it on the first call that needs it, not at import
_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NUMBERS = rf"{_NUMBER}(?:,{_NUMBER})*"


def _join_negative_values(argv: list[str]) -> list[str]:
    """argparse takes a token that starts with '-' for an option unless
    it is a plain negative integer or decimal, so `--b -0.5,3` and
    `--speed -1e-3` would leave the flag without its value: join such a
    token to the `--flag` before it, as `--flag=VALUE`."""
    out: list[str] = []
    for tok in argv:
        if (out and out[-1].startswith("--") and len(out[-1]) > 2
                and "=" not in out[-1] and tok.startswith("-")
                and re.fullmatch(_NUMBERS, tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(
            sys.argv[1:] if argv is None else argv))
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except ValidityError as exc:
        return _fail(str(exc), EXIT_INVALID)
    except BrokenPipeError:
        # the reader is gone: send what is still buffered, and the
        # interpreter's flush at exit, to the null device
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _fail("stdout was closed before the output was written",
                     EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
