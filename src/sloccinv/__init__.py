"""SLOCC invariants and residual entanglement for n-qubit pure states.

The package evaluates determinant-covariant polynomial invariants of
n-qubit amplitude vectors, the residual entanglement tau built from
them, and the D/F criteria families whose vanishing patterns support
SLOCC classification.  Random invertible local-operator chains provide
numerical verification of the transform laws.

Importing the package imports none of its modules: each public name is
looked up in its home module when it is first asked for (PEP 562), so
`import sloccinv.cli`, or any one module, compiles and runs only the
modules it imports itself.
"""

import importlib

_NAMES = {  # each home module's public names
    "classify": ("EQUIVALENT_BY_CONSTRUCTION", "PROVABLY_INEQUIVALENT", "UNDETERMINED",
                 "Evidence", "Verdict", "compare", "dual_equivalence"),
    "criteria": ("CriteriaSignature", "achieved_pair_sums", "criteria_signature",
                 "f_enumerate", "f_evaluate"),
    "errors": ("AllZero", "BadArgs", "BadWitness", "IndexOutOfRange", "LengthMismatch",
               "NormOverflow", "ParityError", "ParseError", "SizeMismatch", "SloccInvError",
               "TooFewQubits"),
    "invariant": ("DEFAULT_TOL", "InvariantReport", "invariant_report", "iv_bar", "iv_star",
                  "iv_star_lower", "iv_star_shifted", "odd_invariant", "tau", "vanishing"),
    "oracle": ("ORACLE_LABELS", "oracle_iv2", "oracle_iv4", "oracle_iv6", "oracle_odd3",
               "oracle_odd5"),
    "signtab": ("sign_star_table", "sign_table"),
    "slocc": ("LocalOperatorChain", "apply_chain", "chain_of", "det_product", "identity_chain",
              "random_chain", "sigma_x_chain", "verify_theorem1", "verify_theorem2"),
    "statevec": ("StateVector", "cluster_c", "complement", "from_json_dict", "ghz",
                 "load_state", "new_state", "normalize", "random_state", "save_state",
                 "tensor", "to_json_dict", "w_state"),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name: str):
    """A public name, looked up in its home module on every use: what that
    module's namespace holds now, never a copy kept here."""
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"

__all__ = [
    "AllZero", "BadArgs", "BadWitness", "CriteriaSignature",
    "DEFAULT_TOL", "EQUIVALENT_BY_CONSTRUCTION", "Evidence", "IndexOutOfRange",
    "InvariantReport", "LengthMismatch", "LocalOperatorChain", "NormOverflow",
    "ORACLE_LABELS", "PROVABLY_INEQUIVALENT", "ParityError", "ParseError",
    "SizeMismatch", "SloccInvError", "StateVector", "TooFewQubits",
    "UNDETERMINED", "Verdict", "achieved_pair_sums", "apply_chain", "chain_of",
    "cluster_c", "compare", "complement", "criteria_signature",
    "det_product", "dual_equivalence", "f_enumerate", "f_evaluate",
    "from_json_dict", "ghz", "identity_chain", "invariant_report", "iv_bar",
    "iv_star", "iv_star_lower", "iv_star_shifted", "load_state",
    "new_state", "normalize", "odd_invariant", "oracle_iv2",
    "oracle_iv4", "oracle_iv6", "oracle_odd3", "oracle_odd5", "random_chain",
    "random_state", "save_state", "sigma_x_chain", "sign_star_table",
    "sign_table", "tau", "tensor", "to_json_dict", "vanishing",
    "verify_theorem1", "verify_theorem2", "w_state",
]
