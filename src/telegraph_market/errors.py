"""Exception types shared across the package."""


class ArbitrageError(ValueError):
    """The model parameters do not admit a martingale measure."""


class TruncationError(RuntimeError):
    """A series or iteration failed to converge within its term budget."""


class DivergenceError(TruncationError):
    """A series failed the term-ratio test (terms not decaying)."""


class NegativePriceError(TruncationError):
    """A truncated pricing series summed to a negative price."""


class BudgetError(ValueError):
    """A hedging budget is infeasible (non-positive or at least the perfect-hedge price)."""
