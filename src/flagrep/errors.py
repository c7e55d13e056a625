"""Exception types shared across the package, and the practical caps.

``_LIMITS`` holds every cap, keyed by the error code that exceeding it
raises.  Each check reads its entry when it runs, as does the CLI for a
flag that is not given, so lowering an entry lowers the cap everywhere;
the public defaults (``max_terms=``, ``cap=``, ``max_n=``) are bound from
it at import.  The layout memo of ``schur._layout`` holds its bytes to the
term cap.
"""

#: Practical caps; exceeding one raises ResourceCapError, never wrong output.
_LIMITS = {"term-cap": 10**7, "orbit-cap": 10**6, "rank-cap": 8, "n-cap": 64}


class InputError(ValueError):
    """Invalid user-supplied data, with a machine-readable reason code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class ResourceCapError(RuntimeError):
    """A configured resource cap was hit before the computation finished."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _check_cap(cap) -> None:
    """Raises ``invalid-cap`` unless a cap given to a public function is
    exactly an ``int``: a float or a ``bool`` would pass the caps'
    comparisons, and a float is never an orbit's length."""
    if type(cap) is not int:
        raise InputError("invalid-cap", f"cap must be an integer, got {cap!r}")
