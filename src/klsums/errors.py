"""Exception types shared across the package, and its one memory budget.

Every entry point whose memory grows with q, l or k counts the bytes it
is about to hold and passes them to ``check_bytes`` before it allocates
anything.  ``MAX_BYTES`` is the only bound; it is read at call time, so
lowering it lowers every limit at once.
"""

MAX_BYTES = 2**30  # 1 GiB


class PreconditionError(ValueError):
    """An operation was called with inputs violating its stated preconditions."""


class ResourceLimitError(RuntimeError):
    """The request would exceed the byte budget ``MAX_BYTES``."""


def check_bytes(need: int, what: str, **params) -> None:
    """Raise ResourceLimitError, naming params, if need bytes exceed MAX_BYTES."""
    if need > MAX_BYTES:
        named = ", ".join(f"{key}={value}" for key, value in params.items())
        raise ResourceLimitError(
            f"{what} at {named} needs {need} bytes, over the {MAX_BYTES}-byte bound"
        )


class NumericalInstabilityError(ArithmeticError):
    """Two evaluation routes that must agree numerically disagreed beyond tolerance."""

    def __init__(self, message, first, second):
        super().__init__(message)
        self.first = first
        self.second = second


class DegenerateFiberError(ArithmeticError):
    """The singular polynomial vanishes identically, so the fiber is the whole line."""


class InternalConsistencyError(RuntimeError):
    """A structural property the algorithm guarantees failed to hold; indicates a bug."""
