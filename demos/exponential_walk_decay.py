"""Exponential-coordinate walk: decay rates, tilts, and a decay scan.

Coordinates are i.i.d. Exponential(2) - log 2, the classical sequential
testing log-likelihood-ratio increments: the single-root tilt is z = 1 and
the walk's wrong-exit probability decays like exp(-r b) with r computed by
the homogeneous solver.  The mixture of the d singleton tilts is
asymptotically efficient whenever d >= 2 + 2 ell/u.

Run:  python3 demos/exponential_walk_decay.py
"""

import math

import numpy as np

from wrongexit import IndependentModel, ShiftedExponential, SiegmundRule
from wrongexit.engine import decay_scan
from wrongexit.proposals import build_siegmund
from wrongexit.solvers import homogeneous_profile

D = 20


def main():
    comp = ShiftedExponential(2.0, -math.log(2.0))
    print(f"component: Exp(2) - log 2, mean {comp.mean:+.4f}")
    drift = IndependentModel([comp]).cgf_grad_rows([[1.0]])[0, 0]
    print(f"root z1 = 1 exactly; drift after tilting = {drift:.4f}\n")

    v_plus, v_minus, r = homogeneous_profile(comp, D, 1.0, 1.0)
    print(f"d = {D}: singleton tilt has {v_plus[1]:.4f} on the exit "
          f"coordinate and {v_minus[1]:.2e} elsewhere; r = {r[1]:.5f}")
    print("rate by region size:",
          "  ".join(f"{a}:{r[a]:.3f}" for a in (1, 2, 5, 10, 20)))
    print("Singletons minimize the rate, so they are the natural candidate set.\n")

    model = IndependentModel([comp] * D)
    prop, report = build_siegmund("theta0", model, 1.0, 1.0)
    print(f"mixture of {len(prop)} tilts; direct condition holds = "
          f"{report.holds} (d >= 2 + 2 ell/u = 4)\n")

    grid = [8.0, 10.0, 12.0, 14.0, 16.0, 18.0]
    rows = decay_scan(model, prop, SiegmundRule(1.0, 1.0), grid, 10000, 42)
    print(f"{'b':>4} {'p_hat':>12} {'-log10 p':>9} {'rel.err':>8}")
    for row in rows:
        print(f"{row['b']:4.0f} {row['p_hat']:12.3e} "
              f"{row['neg_log10_p']:9.3f} {row['rel_err']:8.1%}")
    bs = np.array([row["b"] for row in rows])
    ls = np.array([-math.log(row["p_hat"]) for row in rows])
    slope = np.polyfit(bs, ls, 1)[0]
    print(f"\nleast-squares slope {slope:.4f} vs rate {report.r_star:.4f}; "
          "the relative error stays flat down to 1e-9.")


if __name__ == "__main__":
    main()
