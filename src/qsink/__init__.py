"""Entanglement lifetimes for photon pairs in lossy depolarizing lines.

The package models each transmission line as a qubit map combining
depolarization with polarization-dependent loss, brings that map into a
unital trace-preserving normal form sandwiched between two filters, and from
the normal forms computes how long conditional (postselected) entanglement
can survive and which initial state survives the longest.
"""

from .dynamics import (
    ChannelParams,
    detection_probability,
    ptm_at,
    ptm_via_integration,
)
from .entanglement import (
    PSI_PLUS,
    LifetimeResult,
    OptimalState,
    conditional_state,
    is_entangled,
    lifetime_lhs,
    max_lifetime,
    negativity,
    optimal_state,
)
from .linalg import (
    HermitianEigenResult,
    hermitian_eigen,
    hermitian_eigenvalues,
    kron,
    partial_transpose_second,
    pd_inverse,
    pd_inverse_sqrt,
    pd_sqrt,
    trace_norm,
)
from .ptm import (
    SIGMA,
    SIGMA2,
    apply,
    apply_two_qubit,
    choi,
    compose,
    dual,
    identity_ptm,
    is_cp,
    is_trace_nonincreasing,
    is_trace_preserving,
    is_unital,
    sandwich,
)
from .sinkhorn import (
    SinkhornDecomposition,
    decompose,
    fixed_point_iterate,
    unital_lambdas,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "HermitianEigenResult",
    "LifetimeResult",
    "OptimalState",
    "PSI_PLUS",
    "SIGMA",
    "SIGMA2",
    "SinkhornDecomposition",
    "apply",
    "apply_two_qubit",
    "choi",
    "compose",
    "conditional_state",
    "decompose",
    "detection_probability",
    "dual",
    "fixed_point_iterate",
    "hermitian_eigen",
    "hermitian_eigenvalues",
    "identity_ptm",
    "is_cp",
    "is_entangled",
    "is_trace_nonincreasing",
    "is_trace_preserving",
    "is_unital",
    "kron",
    "lifetime_lhs",
    "max_lifetime",
    "negativity",
    "optimal_state",
    "partial_transpose_second",
    "pd_inverse",
    "pd_inverse_sqrt",
    "pd_sqrt",
    "ptm_at",
    "ptm_via_integration",
    "sandwich",
    "trace_norm",
    "unital_lambdas",
    "__version__",
]
