"""Stabilizer codes from algebraic function fields.

Construction of symplectic self-orthogonal evaluation codes on the
rational and Hermitian curves, parameter and duality verification,
subfield descent, minimum-weight syndrome decoding, and asymptotic
rate-curve tabulation.
"""

__version__ = "0.1.0"

from .gf import GF2m, SubfieldEmbedding, field
from .symplectic import (
    CodeBasis,
    MinWeightResult,
    StabilizerParams,
    contains,
    min_hamming_weight,
    relative_min_weight,
    row_reduce,
    stabilizer_params,
    symplectic_dual,
    symplectic_form,
    symplectic_weight,
)
from .curves import (
    ClassicalParams,
    HermitianBackend,
    RationalBackend,
    build_codes,
    classical_params,
    evaluation_matrix,
    make_backend,
)
from .descent import DescentBasis, descend_code, descend_vector
from .decoder import (
    DecodeResult,
    SyndromeProblem,
    brute_oracle,
    exhaustive_coset_leaders,
    hamming_min_solve,
    symplectic_decode,
    syndrome_of,
)
from .bounds import (
    alt_envelope,
    alt_of_m,
    alt_window,
    emit_curves,
    r1_envelope,
    r1_of_m,
    r1_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
