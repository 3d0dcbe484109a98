"""Exception taxonomy shared by all modules.

Two broad classes matter for the CLI exit codes: problems with what the
caller asked for (ParameterError / PreconditionError, exit code 2) and
violations of quantities the library promises to maintain (InvariantError
and friends, exit code 1).
"""


class GnlabError(Exception):
    """Base class for all library errors."""


class ParameterError(GnlabError, ValueError):
    """An argument is malformed or out of its legal range."""


class PreconditionError(GnlabError):
    """A documented precondition of an operation does not hold."""


class InvariantError(GnlabError):
    """A quantity the library promises to maintain was violated."""


class UnsupportedOrderError(ParameterError):
    """A derivative order above MAX_ORDER was requested."""


class InfeasibleError(ParameterError):
    """An exponent completion has no solution in the legal range."""


class NoCrossingError(PreconditionError):
    """No balance crossing was found below the scan ceiling.

    Signals that the hypotheses of the subdivision construction fail for
    the given function and spec.
    """


class DivergenceError(InvariantError):
    """The integrator produced a non-finite state."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"non-finite state at step {step}")


class SearchFailureError(InvariantError):
    """Every candidate in a search was degenerate."""
