"""Exception types shared across the package."""


class DomainError(ValueError):
    """A field does not cover the points an operation needs to read, or holds
    a non-finite value there."""


class ParamError(ValueError):
    """A parameter is outside its admissible range."""


class RegularityError(ValueError):
    """A difference operator violates one of the regularity conditions.

    The violated condition is named in ``condition`` ("R.1", "R.2", "R.2a" or
    "R.2b"). The command line maps it to exit code 2, as a config error.
    """

    def __init__(self, condition: str, message: str):
        self.condition = condition
        super().__init__(f"{condition}: {message}")


class ConvergenceError(RuntimeError):
    """The Jacobi iteration of ``signals.random_discrete_harmonic``, its one
    raiser, did not reach its tolerance within ``JACOBI_MAX_ITER`` steps.

    The min-max solver never raises it: a fit that misses its budget is
    returned with its certified gap and ``converged`` false.
    """


class ConfigError(ValueError):
    """A run configuration fails schema validation."""
