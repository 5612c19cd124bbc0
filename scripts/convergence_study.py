#!/usr/bin/env python3
"""Error anatomy of the manufactured-solution integrator.

Three sweeps on the familiar bright pulse (family u6, b = 3), each
printing an error table:

  * spatial: the fourth-order (fd4) scheme at N = 64..512 with the
    time step held small, exposing the expected order ~4;
  * temporal: the spectral scheme at N = 512 under time-step halving —
    the error does NOT move, showing the Runge-Kutta contribution sits
    far below the floor at any stable step;
  * domain length: the floor itself is the periodic tail mismatch.
    The pulse decays like e^(-|xi|) but never reaches zero, so truncating
    to a periodic box of length L leaves a seam error ~ e^(-(L/2 - |lam| T))
    that falls exponentially as the box grows.

Usage:
    python3 scripts/convergence_study.py [--t-final 2.0]
"""

import argparse
import math
import sys

from mdpv.catalog import FamilyInstance
from mdpv.sim import Grid, SimConfig, run


def sweep(instance, rows, show_order=True):
    """Run one refinement sweep; rows are (label, grid, config)."""
    errors = []
    for label, grid, config in rows:
        report = run(instance, config, grid)
        errors.append(report.linf_error)
        order = ""
        if show_order and len(errors) > 1:
            order = f"  order {math.log2(errors[-2] / errors[-1]):5.2f}"
        print(f"  {label:18} linf {report.linf_error:.3e}"
              f"  drift {report.mass_drift:.1e}{order}")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--t-final", type=float, default=2.0)
    args = ap.parse_args(argv)
    instance = FamilyInstance("u6", 3.0, {})

    print("== spatial refinement, fd4 scheme (L = 40, dt = 2.5e-4) ==")
    sweep(instance, [
        (f"N = {n}", Grid(n, 40.0),
         SimConfig(b=3.0, dt=2.5e-4, t_final=args.t_final, scheme="fd4"))
        for n in (64, 128, 256, 512)])

    print("== temporal refinement, spectral scheme (L = 40, N = 512) ==")
    sweep(instance, [
        (f"dt = {dt:g}", Grid(512, 40.0),
         SimConfig(b=3.0, dt=dt, t_final=args.t_final,
                   scheme="spectral"))
        for dt in (4e-3, 2e-3, 1e-3, 5e-4)])

    print("== domain length, spectral scheme (dx = L/N = 0.078125,"
          " dt = 5e-4) ==")
    # a shorter box at this dx is refused by the admissibility guard:
    # at L = 32 the tails deviate 1.6e-5 from the far-field constant
    sweep(instance, [
        (f"L = {length:g}, N = {n}", Grid(n, length),
         SimConfig(b=3.0, dt=5e-4, t_final=args.t_final,
                   scheme="spectral"))
        for length, n in ((40.0, 512), (80.0, 1024))],
        show_order=False)
    print("  (exponential fall with L: the floor is the periodic"
          " seam, not the discretization)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
