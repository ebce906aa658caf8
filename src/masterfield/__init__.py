"""Holonomy fields on the plane with noncommutative face states.

Loops on the integer lattice are decomposed into lassos around the bounded
faces of their drawing; each face carries a state from the free unitary
Brownian motion semigroup (or any user-supplied moment data), the face
states are combined by a free, boolean, or tensor product, and the field
returns expectations of loop holonomies.  A finite-N unitary matrix Monte
Carlo estimates the same expectations for cross-checking.
"""

__version__ = "0.1.0"

from .planar import (
    Loop,
    PlanarGraph,
    build_graph,
    lasso_basis,
    decompose,
    braid_act,
)
from .levy import (
    fubm_moment,
    fubm_moments,
    state_at,
)
from .freeprob import product_state, haar_unitary_state
from .holonomy import (
    DEFAULT_CORPUS,
    HolonomyField,
    evaluate,
    loop_observable,
    check_braid_invariance,
    check_infinite_divisibility,
    check_area_invariance,
    check_gauge_invariance_scalar,
)
from .mc import (
    MatrixSamplerConfig,
    estimate_wilson_many,
)
from .ncalg import ZhangAlgebra, verify_axiom

__all__ = [
    "Loop",
    "PlanarGraph",
    "build_graph",
    "lasso_basis",
    "decompose",
    "braid_act",
    "fubm_moment",
    "fubm_moments",
    "state_at",
    "product_state",
    "haar_unitary_state",
    "DEFAULT_CORPUS",
    "HolonomyField",
    "evaluate",
    "loop_observable",
    "check_braid_invariance",
    "check_infinite_divisibility",
    "check_area_invariance",
    "check_gauge_invariance_scalar",
    "MatrixSamplerConfig",
    "estimate_wilson_many",
    "ZhangAlgebra",
    "verify_axiom",
]
