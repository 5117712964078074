"""Exception types shared across the package."""


class IncSSSPError(Exception):
    """Base class for all errors raised by this package."""


class VertexOutOfRange(IncSSSPError):
    pass


class WeightOutOfRange(IncSSSPError):
    pass


class DuplicateEdge(IncSSSPError):
    pass


class BudgetExceeded(IncSSSPError):
    pass


class PhaseFull(IncSSSPError):
    """Raised when an insertion arrives with the current phase already full."""


class InvalidConfig(IncSSSPError):
    pass


class AlreadyPreprocessed(IncSSSPError):
    pass


class EngineBroken(IncSSSPError):
    """Raised by every update after one failed part-way: the graph holds
    the edge, but some structure may not."""


class Unreachable(IncSSSPError):
    pass


class TooDense(IncSSSPError):
    pass


class InvalidParams(IncSSSPError):
    pass


class ParseError(IncSSSPError):
    """Stream text could not be parsed; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
