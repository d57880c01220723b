"""Sweep the Werner and isotropic families and compare against closed forms.

Runs the numerical two-sided geometric discord along each one-parameter
family and prints the worst deviation from the analytic expression, plus
the location where the closed form vanishes.

Usage: python3 closed_form_sweep.py [--m 3] [--points 11] [--restarts 16]
"""

import argparse

import numpy as np

import twodiscord as td
from twodiscord.states import FAMILY_DOMAINS
from twodiscord.verification import CLOSED_FORMS, closed_form_points


def sweep(family, m, xs, cfg):
    print(f"\n{family} family, m={m}")
    print(f"{'x':>8} {'closed':>14} {'numeric':>14} {'gap':>10}")
    worst = 0.0
    for x, want, res in closed_form_points(family, m, xs, cfg):
        gap = abs(res.value - want)
        worst = max(worst, gap)
        print(f"{x:8.3f} {want:14.9f} {res.value:14.9f} {gap:10.2e}")
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--m", type=int, default=3, help="local dimension")
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--restarts", type=int, default=16)
    args = ap.parse_args()

    cfg = td.OptimizerConfig(restarts=args.restarts, seed=0)
    worst = {family: sweep(family, args.m, np.linspace(*FAMILY_DOMAINS[family], args.points), cfg)
             for family in CLOSED_FORMS}

    m = args.m
    print(f"\nworst gaps: werner {worst['werner']:.2e}, isotropic {worst['isotropic']:.2e}")
    print(f"werner closed form vanishes at x = 1/m = {1 / m:.6f}:",
          td.werner_geo_closed(m, 1 / m))
    print(f"isotropic closed form vanishes at x = 1/m^2 = {1 / m**2:.6f}:",
          td.isotropic_geo_closed(m, 1 / m**2))


if __name__ == "__main__":
    main()
