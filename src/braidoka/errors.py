"""Exception types shared across the package."""


class BraidokaError(Exception):
    """Base class for all package-specific errors."""


class UsageError(BraidokaError):
    """A command line the CLI cannot read: an unknown subcommand or option,
    a missing value or required option, or a value of the wrong kind."""


# -- free words ------------------------------------------------------------

class IdentityInput(BraidokaError):
    """An operation that needs a nontrivial word received the identity."""


# -- braids ----------------------------------------------------------------

class StrandMismatch(BraidokaError):
    """Two braid words on different strand counts were combined."""


class NotPure(BraidokaError):
    """Linking numbers are only defined for pure braids."""


class WrongStrandCount(BraidokaError):
    """A 3-braid operation received a braid on a different strand count."""


# -- SL(2,Z) ---------------------------------------------------------------

class NotParabolic(BraidokaError):
    """Parabolic normal form requested for a non-parabolic matrix."""


class InternalInconsistency(BraidokaError):
    """An internal invariant failed; indicates a bug, not bad input."""


# -- permutations ----------------------------------------------------------

class NotCommuting(BraidokaError):
    pass


class NotTransitive(BraidokaError):
    pass


class NotPrime(BraidokaError):
    pass


class NotAbelianTransitive(BraidokaError):
    pass


# -- polynomial families ---------------------------------------------------

class DegreeTooSmall(BraidokaError):
    pass


class SeparabilityFailure(BraidokaError):
    """The discriminant got too close to zero on the sample circle."""


class NonConvergence(BraidokaError):
    """Adaptive refinement exceeded the sample budget."""


class SignatureOutOfRange(BraidokaError):
    pass


# -- monodromy classifiers -------------------------------------------------

class WrongSignature(BraidokaError):
    pass


class WrongTarget(BraidokaError):
    pass


class DegenerateSignature(BraidokaError):
    """Surface (g, m) = (0, 1) has trivial fundamental group."""


class TheoremContradiction(BraidokaError):
    """A certified theorem conclusion failed; would falsify the implementation."""


# -- scans / numerics --------------------------------------------------------

class ResourceLimit(BraidokaError):
    pass


class PoleProximity(BraidokaError):
    """Evaluation point too close to a lattice point."""
