"""Exception types shared across the library."""


class ArrayNeatError(Exception):
    """Base class for all library errors."""


class ConfigError(ArrayNeatError):
    """Invalid or inconsistent configuration."""


class CapacityFull(ArrayNeatError):
    """No NaN padding row left to hold a new gene, or no node key left to
    issue below the 2**26 limit of exact connection pair codes."""


class DuplicateKey(ArrayNeatError):
    """Node key already present among live rows."""


class DuplicateConn(ArrayNeatError):
    """(in_key, out_key) pair already present among live rows."""


class DanglingEndpoint(ArrayNeatError):
    """Connection endpoint does not refer to a live node."""


class KeyNotFound(ArrayNeatError):
    """Requested node key or connection pair is not live."""


class ProtectedNode(ArrayNeatError):
    """Input and output nodes cannot be removed."""


class BadAttrIndex(ArrayNeatError):
    """Attribute index outside the gene's attribute range."""


class ShapeMismatch(ArrayNeatError):
    """Operands disagree on input/output counts or array shape."""


class CycleDetected(ArrayNeatError):
    """Enabled connections contain a directed cycle.

    For population-level transforms, ``genome_indices`` lists the offending
    population slots.
    """

    def __init__(self, message: str, genome_indices: list[int] | None = None):
        super().__init__(message)
        self.genome_indices = genome_indices or []


class InvalidFitness(ArrayNeatError):
    """A problem returned a non-finite fitness; ``genome_indices`` lists the
    population slots that received one."""

    def __init__(self, message: str, genome_indices: list[int] | None = None):
        super().__init__(message)
        self.genome_indices = genome_indices or []


class InvalidInput(ArrayNeatError):
    """Network input has wrong length or contains NaN or infinity."""


class IntegrityError(ArrayNeatError):
    """Genome tensors violate a structural invariant."""


class ParseError(ArrayNeatError):
    """Genome document is malformed; message carries diagnostics."""


class TerminalState(ArrayNeatError):
    """Environment step requested on an already-terminal state."""


class ExtinctionError(ArrayNeatError):
    """Every species was removed; evolution cannot continue."""
