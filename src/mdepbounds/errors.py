"""Exception types shared across the package."""


class ModelSpecError(ValueError):
    """A model description (JSON file or dict) violates the schema."""


class CapExceededError(RuntimeError):
    """A computation would exceed its documented size cap."""


class BoundViolationError(RuntimeError):
    """A mathematically guaranteed inequality failed.

    For a family that really is m-dependent this cannot happen; the usual
    cause is a claimed dependence range m that the events do not satisfy.
    """
