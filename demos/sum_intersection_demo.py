"""Sum-intersection rule: stop when the L smallest |coordinates| sum past b.

All drifts are negative; a wrong exit means at least L coordinates are
positive at the stopping time.  Candidate regions are the C(d, L) size-L
positive sets; the efficient mixture doubles them up with max-min tilts
gamma^A and is certified through (H-SI).

Run:  python3 demos/sum_intersection_demo.py
"""

import math

from wrongexit import (
    SumIntersectionRule,
    exchangeable_mvnormal,
    rearrangement_min,
)
from wrongexit.active_set import block_solve
from wrongexit.engine import RunConfig, estimate_wrong_exit, plain_mc
from wrongexit.proposals import build_sum_intersection
from wrongexit.solvers import beta_program, si_s_program, si_z_program


def main():
    print("== closed forms for exchangeable normals (d = 50) ==")
    L = 2
    rule = SumIntersectionRule(L)
    for rho in (0.0, 0.1, 0.23, 0.24):
        model = exchangeable_mvnormal(50, -0.5, rho)
        z, s, r = (sol.value for sol in block_solve([
            si_z_program(range(L), rule, model),
            si_s_program(range(L + 1), rule, model),
            beta_program(range(L), rule, model)]))
        ok = z + s >= 2 * r
        print(f"  rho = {rho:4.2f}: z_A = {z:.4f} "
              f"(= 1/(rho L + 1 - rho)), s_B = {s:.4f}, r_A = {r:.4f}, "
              f"(H-SI) {'holds' if ok else 'FAILS'}")
    print("The condition flips between 0.23 and 0.24, matching the scan of")
    print("z_A + s_B against 2 r_A.\n")

    print("== the rearrangement objective behind these programs ==")
    theta = [0.9, 0.9, -0.2, -0.1, 0.0]
    print(f"  rearrangement_min({theta}, L=2) = "
          f"{rearrangement_min(theta, 2):.4f}")
    print("  (the exact minimum of theta.x over all states with every")
    print("   size-2 absolute sum above 1)\n")

    print("== estimation at d = 10, rho = 0.1 ==")
    model = exchangeable_mvnormal(10, -0.5, 0.1)
    prop, report = build_sum_intersection(model, 2)
    print(f"mixture of {len(prop)} components (= 2 C(10,2)); "
          f"(H-SI) holds = {report.holds}")
    run = estimate_wrong_exit(model, prop, rule,
                              RunConfig(b=4.0, n_paths=50000, seed=11))
    plain = plain_mc(model, rule, RunConfig(b=4.0, n_paths=400000, seed=12))
    z = (run.mean - plain.mean) / math.hypot(run.std_error, plain.std_error)
    print(f"  b = 4: mixture {run.mean:.4e} vs plain {plain.mean:.4e} "
          f"(z = {z:+.2f})")
    run = estimate_wrong_exit(model, prop, rule,
                              RunConfig(b=20.0, n_paths=50000, seed=13))
    print(f"  b = 20: p = {run.mean:.3e}, rel.err = {run.relative_error:.1%}")


if __name__ == "__main__":
    main()
