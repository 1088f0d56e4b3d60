"""Exact certificates for commutator lengths, quasimorphisms and
conjugation-invariant norms on free, product and braid groups.

Everything is computed in exact rational arithmetic.  Claims come with
machine-checkable witnesses: decompositions that multiply back to their
targets, duality bounds that carry their defect provenance, and norms
that return the conjugators realising them.
"""

from .words import StepFailure, Word, word, commutator
from .groups import (
    CyclicZ,
    DirectProduct,
    FreeGroup,
    GroupContext,
    GroupHom,
    SwapProduct,
    SymmetricGroup,
)
from .braids import (
    BraidGroup,
    BraidWord,
    braid,
    half_twist,
    full_twist,
    index_sum,
    normal_form,
    p3_assemble,
    p3_coordinates,
    pr1,
)
from .quasimorphisms import (
    CertifiedValue,
    Quasimorphism,
    brooks,
    brooks_homogenized,
    count_copies,
    defect_search,
    hom_qm,
    homogenize,
    invariance_check,
    pullback,
    zero_qm,
)
from .norms import (
    INFINITY,
    FragmentationNorm,
    norm_axiom_report,
)
from .scl import (
    GroupPair,
    SclCertificate,
    alpha_braid,
    bavard_lower,
    braid_pure_pair,
    commutator_identity_xy,
    conjugate_flip_decomposition,
    mixed_cl_search,
    ordinary_pair,
    power_commutator,
    product_left_pair,
    pure_ordinary_pair,
    upper_from_decomposition,
    verify_decomposition,
)
from .extension import (
    braid_abelianization_section,
    central_z_section,
    defect_chain_check,
    extend_via_section,
    restriction_check,
)
from .specs import parse_group, parse_group_pair, parse_qm
from .certio import verify_document, verify_file, write_certificates

__version__ = "0.1.0"

__all__ = [
    "StepFailure", "Word", "word", "commutator",
    "CyclicZ", "DirectProduct", "FreeGroup", "GroupContext", "GroupHom",
    "SwapProduct", "SymmetricGroup",
    "BraidGroup", "BraidWord", "braid", "half_twist", "full_twist",
    "index_sum", "normal_form", "p3_assemble", "p3_coordinates", "pr1",
    "CertifiedValue", "Quasimorphism", "brooks", "brooks_homogenized",
    "count_copies", "defect_search", "hom_qm", "homogenize",
    "invariance_check", "pullback", "zero_qm",
    "INFINITY", "FragmentationNorm", "norm_axiom_report",
    "GroupPair", "SclCertificate", "alpha_braid", "bavard_lower",
    "braid_pure_pair", "commutator_identity_xy", "conjugate_flip_decomposition",
    "mixed_cl_search", "ordinary_pair", "power_commutator",
    "product_left_pair", "pure_ordinary_pair", "upper_from_decomposition",
    "verify_decomposition",
    "braid_abelianization_section", "central_z_section", "defect_chain_check",
    "extend_via_section", "restriction_check",
    "parse_group", "parse_group_pair", "parse_qm",
    "verify_document", "verify_file", "write_certificates",
    "__version__",
]
