"""Deformed oscillator algebra on two parameter regimes.

Builds the finite ladder representations, verifies the defining relations,
Hopf axioms and star-structure dichotomy, rescales onto deformed su(2)
blocks, and normal-orders words symbolically.  See the ``qosc`` command
line for the same checks as a tool.
"""

from .algcheck import (
    CasimirBlock,
    CasimirResult,
    CheckReport,
    ReportBlock,
    casimir,
    casimir_scalar_closed_form,
    check_defining_relations,
    check_ladder_identities,
    norm_profile,
)
from .errors import (
    DegenerateParameter,
    DimensionTooLarge,
    ModeMismatch,
    NoSolution,
    ParamMismatch,
    ParityViolation,
    QoscError,
)
from .hopfstar import (
    Flavor,
    InvolutionKind,
    InvolutionSpec,
    check_hopf_axioms,
    check_star_structure,
    coproduct,
    derive_involutions,
    involution,
    with_flavor,
)
from .normform import (
    NCPoly,
    casimir_element,
    check_identities_symbolic,
    evaluate,
    nf_commutator,
    nf_product,
)
from .qcore import Mode, QParams, bracket_step, make_params, qnumber
from .repbuild import (
    Rep,
    RepBatch,
    TruncationReport,
    auto_params,
    build_generic_window,
    build_rep,
    choose_branch,
    lambda_generic,
    lambda_seq,
    nu0,
    truncation_admissible,
    truncation_condition,
)
from .sumap import SuTriple, check_equivalence, check_su2, su2_direct, to_su2

__all__ = [
    "CasimirBlock",
    "CasimirResult",
    "CheckReport",
    "DegenerateParameter",
    "DimensionTooLarge",
    "Flavor",
    "InvolutionKind",
    "InvolutionSpec",
    "Mode",
    "ModeMismatch",
    "NCPoly",
    "NoSolution",
    "ParamMismatch",
    "ParityViolation",
    "QParams",
    "QoscError",
    "Rep",
    "RepBatch",
    "ReportBlock",
    "SuTriple",
    "TruncationReport",
    "auto_params",
    "bracket_step",
    "build_generic_window",
    "build_rep",
    "casimir",
    "casimir_element",
    "casimir_scalar_closed_form",
    "check_defining_relations",
    "check_equivalence",
    "check_hopf_axioms",
    "check_identities_symbolic",
    "check_ladder_identities",
    "check_star_structure",
    "check_su2",
    "choose_branch",
    "coproduct",
    "derive_involutions",
    "evaluate",
    "involution",
    "lambda_generic",
    "lambda_seq",
    "make_params",
    "nf_commutator",
    "nf_product",
    "norm_profile",
    "nu0",
    "qnumber",
    "su2_direct",
    "to_su2",
    "truncation_admissible",
    "truncation_condition",
    "with_flavor",
]

__version__ = "0.1.0"
