"""SLOCC invariants and residual entanglement for n-qubit pure states.

The package evaluates determinant-covariant polynomial invariants of
n-qubit amplitude vectors, the residual entanglement tau built from
them, and the D/F criteria families whose vanishing patterns support
SLOCC classification.  Random invertible local-operator chains provide
numerical verification of the transform laws.
"""

from .classify import (
    EQUIVALENT_BY_CONSTRUCTION,
    PROVABLY_INEQUIVALENT,
    UNDETERMINED,
    Evidence,
    Verdict,
    compare,
    dual_equivalence,
)
from .criteria import (
    CriteriaSignature,
    achieved_pair_sums,
    criteria_signature,
    f_enumerate,
    f_evaluate,
)
from .errors import (
    AllZero,
    BadArgs,
    BadWitness,
    IndexOutOfRange,
    LengthMismatch,
    ParityError,
    ParseError,
    SizeMismatch,
    SloccInvError,
    TooFewQubits,
)
from .invariant import (
    DEFAULT_TOL,
    InvariantReport,
    invariant_report,
    iv_bar,
    iv_star,
    iv_star_lower,
    iv_star_shifted,
    odd_invariant,
    tau,
    vanishing,
)
from .oracle import (
    ORACLE_LABELS,
    oracle_iv2,
    oracle_iv4,
    oracle_iv6,
    oracle_odd3,
    oracle_odd5,
)
from .signtab import sign, sign_star, sign_star_table, sign_table
from .slocc import (
    LocalOperatorChain,
    apply_chain,
    chain_of,
    det_product,
    identity_chain,
    random_chain,
    sigma_x_chain,
    verify_theorem1,
    verify_theorem2,
)
from .statevec import (
    StateVector,
    cluster_c,
    complement,
    from_json_dict,
    ghz,
    load_state,
    new_state,
    normalize,
    random_state,
    save_state,
    tensor,
    to_json_dict,
    w_state,
)

__version__ = "0.1.0"

__all__ = [
    "AllZero", "BadArgs", "BadWitness", "CriteriaSignature",
    "DEFAULT_TOL", "EQUIVALENT_BY_CONSTRUCTION", "Evidence", "IndexOutOfRange",
    "InvariantReport", "LengthMismatch", "LocalOperatorChain",
    "ORACLE_LABELS", "PROVABLY_INEQUIVALENT", "ParityError", "ParseError",
    "SizeMismatch", "SloccInvError", "StateVector", "TooFewQubits",
    "UNDETERMINED", "Verdict", "achieved_pair_sums", "apply_chain", "chain_of",
    "cluster_c", "compare", "complement", "criteria_signature",
    "det_product", "dual_equivalence", "f_enumerate", "f_evaluate",
    "from_json_dict", "ghz", "identity_chain", "invariant_report", "iv_bar",
    "iv_star", "iv_star_lower", "iv_star_shifted", "load_state",
    "new_state", "normalize", "odd_invariant", "oracle_iv2",
    "oracle_iv4", "oracle_iv6", "oracle_odd3", "oracle_odd5", "random_chain",
    "random_state", "save_state", "sigma_x_chain", "sign", "sign_star",
    "sign_star_table", "sign_table", "tau", "tensor", "to_json_dict",
    "vanishing", "verify_theorem1", "verify_theorem2", "w_state",
]
