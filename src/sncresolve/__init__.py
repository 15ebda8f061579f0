"""Exact combinatorics of normal crossing configurations.

Dual complexes with integer homology, incidence models of simple normal
crossing varieties, blow-up chart rewriting with a lexicographic
termination certificate, and an exact polynomial verifier for every
rewriting rule.
"""

from .dual_complex import (
    Cell,
    DualComplex,
    HomologyReport,
    homology,
    is_q_acyclic,
    remove_open_star,
    validate,
)
from .snc_model import (
    CenterDescriptor,
    SncVariety,
    Stratum,
    blowup_center,
    check_center,
    dual_complex_of,
)
from .chart_calculus import (
    ChartState,
    MultiDegree,
    RuleApplication,
    children,
    is_resolved,
    local_equation,
    mdeg,
)
from .poly_oracle import (
    Polynomial,
    Substitution,
    strict_transform,
    verify_rule,
)
from .resolution_engine import (
    ResolutionState,
    RunConfig,
    run,
    seed_from_snc,
    select_center,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "Cell", "DualComplex", "HomologyReport", "homology", "is_q_acyclic",
    "remove_open_star", "validate",
    "CenterDescriptor", "SncVariety", "Stratum", "blowup_center",
    "check_center", "dual_complex_of",
    "ChartState", "MultiDegree", "RuleApplication", "children",
    "is_resolved", "local_equation", "mdeg",
    "Polynomial", "Substitution", "strict_transform", "verify_rule",
    "ResolutionState", "RunConfig", "run", "seed_from_snc",
    "select_center", "step",
    "__version__",
]
