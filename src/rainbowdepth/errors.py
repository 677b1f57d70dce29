"""Exception hierarchy shared by all modules.

The CLI maps these onto exit codes: InputError (and subclasses) and
OSError -> 2; BudgetExceededError and GenerationError -> 3;
TrimExhaustedError, PipelineStageError and AssertionError ("internal") -> 1.
"""


class InputError(ValueError):
    """Malformed or contract-violating input."""


class ParseError(InputError):
    """Unreadable file or string content."""


class ValidationError(InputError):
    """Structurally readable input that violates an invariant.

    `witness` carries a machine-readable description of the violation
    (duplicate point, size mismatch, degenerate tuple, ...).
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedDimensionError(InputError):
    """An exact procedure was requested outside its dimension gate."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed its combinatorial gate."""


class GenerationError(RuntimeError):
    """Random generation failed to produce a valid instance within retries."""


class TrimExhaustedError(RuntimeError):
    """The trimming loop emptied (or stalled on) a set before separation.

    `trace` holds the partial trim trace accumulated before the failure.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class PipelineStageError(RuntimeError):
    """A pipeline stage failed; carries the stage name and partial details."""

    def __init__(self, stage, message, details=None):
        super().__init__(f"stage {stage}: {message}")
        self.stage = stage
        self.details = details or {}
