"""Exception taxonomy shared across the toolkit.

Every failure mode callers are expected to handle maps onto one of these
classes.  They all derive from :class:`GBrownianError` so batch drivers can
catch the whole family at once, and from the closest builtin so that casual
callers get sensible behaviour without importing anything from here.
"""


class GBrownianError(Exception):
    """Base class for all toolkit-specific errors."""


class ConfigurationError(GBrownianError, ValueError):
    """A grid, band, or scheme parameter violates a hard precondition.

    Typical sources: CFL violations, empty or inverted grids, bad band
    ordering, unstable driver Lipschitz constants.
    """


class DomainError(GBrownianError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Examples: the tilt size of the shrunk generator outside
    ``[0, (sigma_hi^2 - sigma_lo^2)/2]``, a block fraction ``alpha`` outside
    ``(0, 1)``, perturbation base levels outside the shrunk band.
    """


class CapabilityError(GBrownianError, NotImplementedError):
    """The request is well-posed but beyond the declared capability limits
    (e.g. cylinder functionals with more monitoring dates than supported)."""


class UsageError(GBrownianError, ValueError):
    """Inputs are individually valid but mutually inconsistent, e.g. a
    bundle whose grid does not contain a functional's monitoring dates."""


class ExtrapolationError(GBrownianError, ValueError):
    """A path or query point left the covered space grid; values there
    would be extrapolated, which the solvers refuse to do silently."""


class DataError(GBrownianError, ValueError):
    """User-supplied data broke its own declared contract (non-finite
    payoff values, violated value or Lipschitz bounds)."""
