"""Importance sampling for wrong-exit probabilities of light-tailed random
walks, using asymptotically efficient mixtures of exponentially tilted
proposals."""

from .models import (
    IndependentModel,
    MvNormalModel,
    Normal,
    ShiftedExponential,
    TiltDomainError,
    exchangeable_mvnormal,
    siegmund_root,
)
from .regions import (
    GapRule,
    Region,
    SiegmundRule,
    SumIntersectionRule,
    rearrangement_min,
)
from .solvers import (
    SolverError,
    TiltSolution,
    homogeneous_profile,
    siegmund_profile,
    solve_beta,
    solve_gamma_pair,
    solve_gamma_single,
    solve_gap_pair,
    solve_gap_quad,
    solve_si_s,
    solve_si_z,
)

__version__ = "0.1.0"
