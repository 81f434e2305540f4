"""Shared exception bases.

Concrete errors live next to the code that raises them, but for
BudgetExceededError, which the runner catches without loading the gateway.
The CLI maps the bases onto exit codes (data vs. provider/budget problems).
"""


class RestoryError(Exception):
    """Base class for all errors raised by this package."""


class DataError(RestoryError):
    """Invalid input data: bad source text, malformed files, broken invariants."""


class GatewayError(RestoryError):
    """Provider transport, rejection, or budget failures."""


class BudgetExceededError(GatewayError):
    """A run's spend reached its budget ceiling."""
