#!/usr/bin/env python3
"""Export wave profiles of all 23 families as a single tidy CSV.

One row per (family, xi) sample: family id, wave speed, parameter
values, xi, u.  Samples within mdpv.residual.EXCLUSION_RADIUS of a
pole, the points a residual scan skips, are written with an empty u
field so downstream plotting shows the gap instead of a spike.
Parameters are drawn with the given seed where a family has free ones.

Usage:
    python3 scripts/profile_gallery.py [--b 3] [--seed 42] \
        [--window -10,10] [--n 401] [--out profiles.csv]
"""

import argparse
import sys

import numpy as np

from mdpv.catalog import FamilyInstance, draw_params, family_ids, family_rng
from mdpv.cli import _finite_float, _integer, _join_negative_values, _window
from mdpv.expr import evaluate
from mdpv.residual import EXCLUSION_RADIUS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--b", type=_finite_float, default=3.0)
    ap.add_argument("--seed", type=_integer(0), default=42)
    ap.add_argument("--window", type=_window, default="-10,10")
    ap.add_argument("--n", type=_integer(1), default=401)
    ap.add_argument("--out", default="profiles.csv")
    args = ap.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else argv))
    lo, hi = args.window
    xs = np.linspace(lo, hi, args.n)

    lines = ["family,speed,params,xi,u"]
    for fid in family_ids():
        try:
            params = draw_params(fid, family_rng(args.seed, fid), args.b)
            instance = FamilyInstance(fid, args.b, params)
        except ValueError as exc:
            # no admissible wave at this b: refused as a bad flag value
            ap.error(f"argument --b: {exc}")
        profile = instance.profile()
        speed = instance.speed()
        poles = instance.singularities((lo - 1.0, hi + 1.0))
        shown = ";".join(f"{k}={v!r}" for k, v in params.items())
        for x in xs:
            if any(abs(x - p) <= EXCLUSION_RADIUS for p in poles):
                u_text = ""
            else:
                u_text = repr(evaluate(profile, {"xi": float(x)}))
            lines.append(f"{fid},{speed!r},{shown},{float(x)!r},{u_text}")
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines) - 1} rows -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
