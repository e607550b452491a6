"""Exception hierarchy shared by the whole package, and its one integer check.

The CLI maps these onto its exit-code contract: ParseError -> 2,
InvariantError -> 3, PreconditionError -> 4.
"""


class SpectowerError(Exception):
    pass


class ParseError(SpectowerError):
    """Malformed input document (bad JSON, bad schema, unresolved ids)."""


class InvariantError(SpectowerError):
    """A mathematical invariant failed: d^2 != 0, a transport is not
    invertible, a relation word does not transport to the identity,
    a span containment was violated, or an internal cross-check
    disagreed (the latter always signals an engine bug)."""


class PreconditionError(SpectowerError):
    """An operation was called on data that violates its stated
    precondition (disconnected support, non-composable word, ...)."""


def _int(v, what, *names, error=ParseError):
    """v if it is an int; a float, a bool, a string or a Fraction is refused
    with `error`, naming it, not truncated."""
    if type(v) is not int:
        raise error((what + " is not an integer: %r") % (*names, v))
    return v
