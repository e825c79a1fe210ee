"""Exception types shared across the package."""


class ResourceLimitError(Exception):
    """An operation was asked to exceed its configured size cap."""


class GraphParseError(ValueError):
    """Malformed graph6 or edge-list input; message names the offending offset/line."""


class NotACoronaImage(ValueError):
    """Inverse coefficient transform produced a negative count.

    This is a diagnostic, not a failure: it is how callers learn that a
    polynomial is not the corona image of any skeleton of the given
    order.  Carries the first offending index and value.
    """

    def __init__(self, index: int, value: int):
        self.index = index
        self.value = value
        super().__init__(f"reconstructed s_{index} = {value} < 0: not a corona image")

    def __reduce__(self):
        # rebuilt from its two arguments, as RootConvergenceError below
        return type(self), (self.index, self.value)


class RootConvergenceError(Exception):
    """Simultaneous root iteration failed to converge; carries the best iterate."""

    def __init__(self, message: str, approximations):
        self.approximations = approximations
        super().__init__(message)

    def __reduce__(self):
        # the default rebuilds from args alone, which lack approximations, so
        # an error raised in a worker process could not reach the parent
        return type(self), (self.args[0], self.approximations)
