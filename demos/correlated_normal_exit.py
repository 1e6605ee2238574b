"""Two-barrier exit problem with exchangeable correlated normal increments.

A d-dimensional walk with drift -1/2 per coordinate stops once every
coordinate has left (-b*ell, b*u); a wrong exit means some coordinate ended
above.  There are 2^d - 1 rare regions, far too many to give each its own
tilt, so the mixture uses the d singleton tilts plus cheap auxiliary tilts
and certifies efficiency through the (H1)/(H2) conditions.

Run:  python3 demos/correlated_normal_exit.py
"""

import math

from wrongexit import (
    SiegmundRule,
    exchangeable_mvnormal,
    solve_gamma_single,
)
from wrongexit.active_set import block_solve
from wrongexit.engine import RunConfig, estimate_wrong_exit
from wrongexit.proposals import build_siegmund
from wrongexit.solvers import beta_program, gamma_pair_program

D = 20
RHO = 0.2


def main():
    rule = SiegmundRule(1.0, 1.0)

    print("== closed-form tilt values (d = 50, u = ell = 1) ==")
    print(f"{'rho':>5} {'r':>9} {'u z_k':>7} {'s_kk':>9} {'H1?':>4} {'H2?':>4}")
    for rho in (0.0, 0.2, 0.45, 0.46, 0.54, 0.55):
        model = exchangeable_mvnormal(50, -0.5, rho)
        r, s = (sol.value for sol in block_solve([
            beta_program([0], rule, model),
            gamma_pair_program(0, 1, rule, model)]))
        uz = solve_gamma_single(0, rule, model).value
        h1 = uz + s >= 2 * r
        h2 = 2 * s >= 2 * r
        print(f"{rho:5.2f} {r:9.5f} {uz:7.3f} {s:9.5f} {str(h1):>4} {str(h2):>4}")
    print("The pair value follows 2u/(1+rho); (H1) flips between 0.45 and")
    print("0.46, (H2) between 0.54 and 0.55.\n")

    print(f"== direct per-region check at d = {D}, rho = {RHO} ==")
    model = exchangeable_mvnormal(D, -0.5, RHO)
    prop, report = build_siegmund("theta0", model, 1.0, 1.0)
    worst = min(report.margins.items(), key=lambda kv: kv[1])
    print(f"holds = {report.holds}; tightest margin at {worst[0]} "
          f"({worst[1]:+.4f}); r = {report.r_star:.5f}\n")

    print("== estimating the wrong-exit probability ==")
    print(f"mixture: {len(prop)} components, condition "
          f"{report.condition} holds = {report.holds}")
    for b in (6.0, 10.0, 14.0):
        run = estimate_wrong_exit(model, prop, rule,
                                  RunConfig(b=b, n_paths=20000, seed=7))
        print(f"  b = {b:4.1f}: p = {run.mean:.3e}  rel.err = "
              f"{run.relative_error:.1%}  (predicted exponent "
              f"{math.exp(-report.r_star * b):.2e})")
    print("\nThe estimate tracks exp(-r b) while plain Monte Carlo would")
    print(f"need ~{1 / 2.4e-7:.0e} paths per point at b = 14.")


if __name__ == "__main__":
    main()
