"""Exact perturbation-series solutions of the generalized Burgers-Huxley
equation, verified against the exact traveling-wave fronts."""

from .config import (
    ConfigConflictError,
    ConfigError,
    ConfigNumberError,
    ConfigSyntaxError,
    RunConfig,
    parse_config,
    render_config,
)
from .errors import (
    AlgebraDomainError,
    BHError,
    ContractViolation,
    EvaluationError,
    ProblemDomainError,
    UnsupportedProblemError,
)
from .hpm import (
    HPMExpansion,
    max_taylor_deviation,
    run_hpm,
)
from .problem import BHProblem, case_preset
from .scalars import (
    DEFAULT_DIGITS,
    QuadraticNumber,
    squarefree_decompose,
    working_dps,
)
from .tables import (
    ErrorTable,
    GoldenComparison,
    build_error_table,
    emit_table,
    golden_compare,
)
from .waves import TravelingWave, deng_wave

__version__ = "0.1.0"

__all__ = [
    "AlgebraDomainError",
    "BHError",
    "BHProblem",
    "ConfigConflictError",
    "ConfigError",
    "ConfigNumberError",
    "ConfigSyntaxError",
    "ContractViolation",
    "DEFAULT_DIGITS",
    "ErrorTable",
    "EvaluationError",
    "GoldenComparison",
    "HPMExpansion",
    "ProblemDomainError",
    "QuadraticNumber",
    "RunConfig",
    "TravelingWave",
    "UnsupportedProblemError",
    "build_error_table",
    "case_preset",
    "deng_wave",
    "emit_table",
    "golden_compare",
    "max_taylor_deviation",
    "parse_config",
    "render_config",
    "run_hpm",
    "squarefree_decompose",
    "working_dps",
    "__version__",
]
