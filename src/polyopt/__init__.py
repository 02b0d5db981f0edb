"""polyopt: polynomial optimization with verifiable optimality certificates.

The pieces, bottom up:

* ``polynomials`` - sparse multivariate polynomials, calculus, monomial bases.
* ``pop``         - problem instances (min f s.t. h = 0, g >= 0) and their JSON files.
* ``localopt``    - KKT multipliers and the CQC / SCC / SONC / SOSC audit at a point.
* ``relaxation``  - level-k SOS and moment relaxations as block-diagonal SDP data.
* ``solver``      - embedded primal-dual interior-point SDP solver.
* ``certify``     - certificates of global optimality, pseudo-moments, flat
                    truncation, rank-1 minimizer extraction.
* ``hierarchy``   - the level-by-level driver with early stopping.
* ``ensemble``    - randomized experiments measuring how often the generic
                    behavior (finite convergence, local conditions) shows up.
* ``gallery``     - bundled example instances, including the Motzkin ball problem.
* ``cli``         - command-line entry points over all of the above.
"""

from .polynomials import Monomial, MonomialBasis, Polynomial, basis, basis_size, motzkin
from .pop import PopInstance, ball_constraint, read_instance, write_instance
from .localopt import ActiveSet, LocalReport, active_set, audit_point, check_cqc, \
    check_scc, check_second_order, fit_multipliers
from .relaxation import augment_archimedean, build_moment_relaxation, \
    build_sos_relaxation, relaxation_value
from .sdp import SdpProblem, read_problem, write_problem
from .solver import SdpSolution, SolverOptions, solve
from .certify import Certificate, FlatTruncationReport, MomentVector, \
    extract_certificate, extract_dual_moments, extract_minimizer_rank1, \
    flat_truncation, read_certificate, verify_certificate, write_certificate
from .hierarchy import HierarchyRun, run_hierarchy
from .ensemble import EnsembleSummary, random_instance, run_ensemble
from .gallery import gallery_instance, gallery_names

__version__ = "0.1.0"

__all__ = [
    "Monomial", "MonomialBasis", "Polynomial", "basis", "basis_size", "motzkin",
    "PopInstance", "ball_constraint", "read_instance", "write_instance",
    "ActiveSet", "LocalReport", "active_set", "audit_point", "check_cqc",
    "check_scc", "check_second_order", "fit_multipliers",
    "augment_archimedean", "build_moment_relaxation", "build_sos_relaxation",
    "relaxation_value",
    "SdpProblem", "read_problem", "write_problem",
    "SdpSolution", "SolverOptions", "extract_dual_moments", "solve",
    "Certificate", "FlatTruncationReport", "MomentVector",
    "extract_certificate", "extract_minimizer_rank1", "flat_truncation",
    "read_certificate", "verify_certificate", "write_certificate",
    "HierarchyRun", "run_hierarchy",
    "EnsembleSummary", "random_instance", "run_ensemble",
    "gallery_instance", "gallery_names",
    "__version__",
]
