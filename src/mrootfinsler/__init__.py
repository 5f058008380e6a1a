"""Numeric tensor calculus for m-th root metrics and their Kropina change.

Closed-form metric quantities, spray coefficients and flatness conditions are
evaluated alongside an exact differentiation oracle; residuals between the two
are first-class outputs.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    DimensionMismatch,
    DomainError,
    FinslerError,
    IndexOutOfRange,
    NonFiniteResult,
    OrderOutOfRange,
    ParseError,
    RiemannianOrderWarning,
    SingularMatrix,
    ValidationError,
)
from .fields import CoefficientField, OneFormField, Polynomial  # noqa: F401
from .kropina import KropinaPoint, kropina_point  # noqa: F401
from .metric import MetricPoint, metric_point  # noqa: F401
from .specfile import MetricSpecDocument, load_spec, parse_spec  # noqa: F401
from .symtensor import SymmetricTensor, canonicalize  # noqa: F401
