"""Exception types shared across the package."""

from __future__ import annotations


class InputError(ValueError):
    """Invalid user-supplied data (graph, bounds, instance document).

    ``code`` is a stable machine-readable identifier, e.g. ``"bound-order"``.
    """

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class IllegalMoveError(InputError):
    """A move whose precondition fails (add a present edge / remove an absent one)."""

    def __init__(self, message: str):
        super().__init__("illegal-move", message)


class ContractError(RuntimeError):
    """A caller violated a documented precondition of an internal operation."""


class NotInternallyReconfigurableError(ContractError):
    """A trail fails the conditions required for in-place reconfiguration."""

    def __init__(self, condition: str, vertex: int | None = None):
        detail = f" at vertex {vertex}" if vertex is not None else ""
        super().__init__(f"condition violated: {condition}{detail}")
        self.condition = condition
        self.vertex = vertex


class NeedsK2Error(ContractError):
    """The requested slack-1 reconfiguration needs slack 2 (fully tight cycle)."""


class SynthesisError(RuntimeError):
    """An internally generated move sequence broke its own invariants (a bug)."""


class OracleCapError(InputError):
    """Instance too large for exhaustive enumeration."""

    def __init__(self, message: str):
        super().__init__("oracle-cap", message)
