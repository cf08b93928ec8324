"""Exact symbolic checks for trigonometric R-matrices of types B, C, D
and the associated vacuum-module operator calculus."""

from .checks import (CHECK_NAMES, builtin_check, correspondence_check,
                     evaluate)
from .lietype import lie_type_data
from .module_checks import MODULE_CHECK_NAMES, module_check, weak_assoc_chain
from .report import CheckReport
from .rmatrix import (Arg, Normalizer, m_diag, rhat_inv, rmatrix,
                      solve_normalizer)
from .states import FreeState
from .tensorop import TensorOp

__all__ = [
    "Arg", "CheckReport", "CHECK_NAMES", "FreeState", "MODULE_CHECK_NAMES",
    "Normalizer", "TensorOp", "builtin_check", "correspondence_check",
    "evaluate", "lie_type_data", "m_diag", "module_check", "rhat_inv",
    "rmatrix", "solve_normalizer", "weak_assoc_chain",
]

__version__ = "0.1.0"
