"""Exception types shared across the package."""


class SoleknotError(Exception):
    """Base class for everything this package raises on purpose."""


class ParseError(SoleknotError):
    """Malformed textual input.  ``position`` is a 0-based character offset
    (or line number for multi-line formats, see the caller's docs)."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class IndexOutOfRank(SoleknotError):
    """A word uses a generator index above the rank of its context."""


class RankMismatch(SoleknotError):
    """Two endomorphisms of different ranks cannot be composed."""


class RankTooLarge(SoleknotError):
    """Generator index beyond the engine's fixed alphabet (120 generators)."""


class StrandsOutOfRange(SoleknotError):
    """Braid letter s<i> requires at least i+1 strands."""


class NotAKnot(SoleknotError):
    """The braid closure has more than one component."""


class CoreMismatch(SoleknotError):
    """Internal convention bug: the cyclically reduced core of a knot-closure
    conjugator computation was not the expected generator."""


class BudgetExceeded(SoleknotError):
    """An exhaustive enumeration would exceed its configured budget."""


class MissingPeripheral(SoleknotError):
    """A peripheral pair (meridian, longitude) is required but absent."""


class WindingTooSmall(SoleknotError):
    """Satellite patterns need winding number (strand count) at least 2."""


class DepthExceedsPatterns(SoleknotError):
    """Filtration depth exceeds the pattern list and cycling is disabled."""


class NotInfiniteCyclic(SoleknotError):
    """First homology is not infinite cyclic generated by the meridian."""


class NotKnotLike(SoleknotError):
    """Presentation fails the knot-group shape checks (H1 = Z, deficiency 1)."""


class DomainError(SoleknotError):
    """Arithmetic parameters outside the admissible domain."""


class InvalidPresentation(SoleknotError):
    """Structurally broken presentation (bad names, indices, or framing)."""


class EntryTooSmall(SoleknotError):
    """Winding sequence entries must be at least 2."""


class EntryTooLarge(SoleknotError):
    """Winding sequence entry exceeds the factorization bound."""


class InvalidProfile(SoleknotError):
    """A prime profile lists a base that is not prime, or a prime in both its
    finite and infinite parts."""
