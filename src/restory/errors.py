"""The package's exception classes.

A class exists only where code branches on it; every other failure raises
the base it belongs to, with a message that names what went wrong. Five
classes stay:

- DataError (exit 2), GatewayError (exit 3) and UsageError (`cli`, exit 1)
  are what `cli.dispatch` maps onto exit codes.
- TransientProviderError (`gateway`), a GatewayError, is what the gateway
  retries.
- BudgetExceededError, a GatewayError, stops the run loop and makes
  `generate` print its cut line. It lives here so that the runner catches
  it without loading the gateway.
"""


class DataError(Exception):
    """Invalid input data: bad source text, malformed files, broken invariants."""


class GatewayError(Exception):
    """Provider transport, rejection, or budget failures."""


class BudgetExceededError(GatewayError):
    """A run's spend reached its budget ceiling."""
