"""The fixed work lists of the benchmark's workloads.

Each workload function runs one round in the calling process and
returns its tallies.  All inputs come from the workload seed: parameter
draws are made here with the catalog's draw strategy and a generator
seeded by the benchmark, and every closed form handed to the command
line is written here.  Every output is checked with `checks`.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from mdpv import ansatz, catalog, residual, riccati, sim
from mdpv.expr import evaluate

import checks

B_GRID = (0.0, 0.5, 1.0, 3.0)
EXACT_FAMILIES = ("u3", "u4", "u5", "u6")
FD_CANDIDATES = 32
FD_POINTS = 4


class Tally:
    """The timed operations of one round, in their fixed order, as
    ``(kind, seconds, operations)``, plus counts of the work done."""

    def __init__(self):
        self.ops: list[tuple[str, float, int]] = []
        self.work: dict[str, int] = {}

    def add(self, kind: str, seconds: float, count: int = 1) -> None:
        self.ops.append((kind, seconds, count))


# ---------------------------------------------------------------------
# checks shared by catalog-audit and cold-cli

def check_scan_residual(label: str, fid: str, b: float, params: dict,
                        rng) -> None:
    """The traveling ODE of the family's closed form by finite
    differences, at points drawn from rng."""
    fam = catalog.family(fid)
    env = {"b": b, **params}
    xs = rng.uniform(-7.5, 7.5, FD_CANDIDATES)
    checks.check_profile_residual(label, fam.profile, env,
                                  evaluate(fam.speed, env), xs,
                                  enough=FD_POINTS)


def check_audit_rows(rows: list[dict], triples: list, rng) -> None:
    """Every corrected branch reported passing, and solving
    phi' = alpha + beta phi + gamma phi^2 with the triple reported for
    its row."""
    if len(rows) != len(riccati.AUDIT_SPECS):
        raise checks.CheckError(f"audit returned {len(rows)} rows")
    xs = rng.uniform(-5.0, 5.0, FD_CANDIDATES)
    for row, triple in zip(rows, triples):
        checks.check_passed(f"audit case {row['case']}",
                            row["corrected_passes"])
        branch = riccati.solution(riccati.AUDIT_SPECS[row["case"]])
        checks.check_riccati_branch(f"case {row['case']}", branch.phi,
                                    triple, xs, enough=FD_POINTS)


def check_exact_systems() -> None:
    """Exact annihilation of the parameter-free families' systems at
    rational b."""
    for fid in EXACT_FAMILIES:
        system = ansatz.system_for_family(fid)
        for b in B_GRID:
            fb = Fraction(b)
            checks.check_exact_system(
                f"{fid} b={fb}", system,
                ansatz.family_system_env(fid, fb, {}))


# ---------------------------------------------------------------------
# catalog-audit

def catalog_audit(seed: int) -> Tally:
    tally = Tally()
    clock = time.perf_counter

    # residual scans, shaped like the acceptance suite: one draw per
    # family and b, so that a run holds enough rounds (see README.md)
    for fid in catalog.family_ids():
        n = int(fid[1:])
        fam = catalog.family(fid)
        for bi, b in enumerate(B_GRID):
            t0 = clock()
            params = catalog.draw_params(
                fid, np.random.default_rng([seed, 1, n, bi]), b) \
                if fam.parameters else {}
            rep = catalog.verify_family(fid, b, params, window=(-8.0, 8.0),
                                        n=257, tol=1e-9)
            tally.add("scan", clock() - t0)
            label = f"scan {fid} b={b} {params}"
            checks.check_passed(label, rep.passed)
            check_scan_residual(label, fid, b, params,
                                np.random.default_rng([seed, 2, n, bi, 0]))

    # coefficient-system checks, each route regenerated once per process
    for fid in catalog.family_ids():
        n = int(fid[1:])
        has_params = bool(catalog.family(fid).parameters)
        t0 = clock()
        system = ansatz.system_for_family(fid)
        regen = clock() - t0
        for bi, b in enumerate(B_GRID):
            rng = np.random.default_rng([seed, 3, n, bi])
            t0 = clock()
            params = catalog.draw_params(fid, rng, b) if has_params else {}
            aux = {"alpha": float(rng.uniform(0.5, 2.0))} \
                if fid == "u11" else None
            env = ansatz.family_system_env(fid, b, params, aux)
            max_abs = system.max_abs_at(env)
            scale = system.scale_at(env)
            tally.add("system", clock() - t0 + regen)
            regen = 0.0
            checks.check_passed(f"system {fid} b={b} {params}",
                                max_abs <= 1e-10 * (1.0 + scale))
    check_exact_systems()

    # kernel-branch audit: one operation per row
    t0 = clock()
    rows = riccati.audit_printed_forms(tol=1e-9)
    tally.add("audit", clock() - t0, len(rows))
    check_audit_rows(rows, [row["spec"] for row in rows],
                     np.random.default_rng([seed, 4]))

    # negative controls on fixed inputs: each must be reported failing
    t0 = clock()
    u_bad, lam_bad = catalog.printed_u10()
    env = {"b": 3.0, "c2": 1.6}
    r_bad = residual.ode_residual(u_bad, residual.modified_eq(3.0), lam_bad)
    excl = residual.find_zeros(1 / u_bad, "xi", (-8.0, 8.0), env=env)
    printed = residual.scan(r_bad, env, exclusions=excl)
    tally.add("scan", clock() - t0)
    checks.check_failed("printed u10", printed.passed)

    t0 = clock()
    dp = catalog.verify_family("u3", 3.0, {}, variant="dp")
    tally.add("scan", clock() - t0)
    checks.check_failed("u3 under the dp variant", dp.passed)

    t0 = clock()
    params = catalog.draw_params("u20", np.random.default_rng([5, 20]), 3.0)
    system = ansatz.system_for_family("u20")
    env = ansatz.family_system_env("u20", 3.0, params)
    env["a0"] += 1e-3
    perturbed = system.max_abs_at(env) <= 1e-10 * (1.0 + system.scale_at(env))
    tally.add("system", clock() - t0)
    checks.check_failed("u20 with a0 perturbed", perturbed)
    return tally


# ---------------------------------------------------------------------
# manufactured-sim

SIM_DT = 5e-4
SIM_T = 0.1


def _sim_runs(seed: int):
    """(label, instance, scheme, N, L, exact, speed, error bound)."""
    u6 = catalog.FamilyInstance("u6", 3.0, {})
    ex6 = lambda xi: checks.u6_exact(xi, 3.0)  # noqa: E731
    sp6 = checks.u6_speed(3.0)
    runs = [("u6 spectral N512", u6, "spectral", 512, 40.0, ex6, sp6, 1e-6)]
    for n, bound in ((128, 2e-3), (256, 2e-4), (512, 2e-5)):
        runs.append((f"u6 fd4 N{n}", u6, "fd4", n, 40.0, ex6, sp6, bound))
    runs.append(("u6 spectral N2048", u6, "spectral", 2048, 40.0, ex6, sp6,
                 1e-6))
    runs.append(("u6 fd4 N2048", u6, "fd4", 2048, 40.0, ex6, sp6, 1e-6))
    mu = float(np.random.default_rng([seed, 6]).uniform(0.7, 1.0))
    u2 = catalog.FamilyInstance("u2", 0.5, {"mu": mu})
    runs.append((f"u2 mu={mu:.6f} spectral N512", u2, "spectral", 512, 60.0,
                 lambda xi: checks.u2_exact(xi, 0.5, mu),
                 checks.u2_speed(0.5, mu), 1e-6))
    return runs


def manufactured_sim(seed: int) -> Tally:
    tally = Tally()
    clock = time.perf_counter
    errors = {}
    for label, inst, scheme, n, length, exact, speed, bound in \
            _sim_runs(seed):
        cfg = sim.SimConfig(b=inst.b, dt=SIM_DT, t_final=SIM_T,
                            scheme=scheme)
        t0 = clock()
        rep = sim.run(inst, cfg, sim.Grid(n, length))
        tally.add("sim", clock() - t0)
        tally.work["rk4_steps"] = tally.work.get("rk4_steps", 0) + \
            int(round(SIM_T / SIM_DT))
        errors[label] = checks.check_simulation(label, rep, exact, speed,
                                                bound)
    checks.check_order("u6 fd4 N256/N512", errors["u6 fd4 N256"],
                       errors["u6 fd4 N512"])
    return tally


WORKLOADS = {"catalog-audit": catalog_audit,
             "manufactured-sim": manufactured_sim}
