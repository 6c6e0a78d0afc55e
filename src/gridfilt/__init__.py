"""Adaptive min-max filter fitting on integer grids.

Pointwise denoising and prediction of complex signals observed with Gaussian
noise on Z^d, by fitting a linear filter that minimizes the sup norm of the
residual's windowed Fourier transform under an l1 bound on the filter's own
transform. Ships with a calculus of certificate filters for classes of
reproducible signals (exponential polynomials, discrete harmonic fields,
quasi-stable predictors) and a Monte Carlo harness that checks the theoretical
risk bounds empirically.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    ParamError,
    RegularityError,
)
from .fields import (
    Box,
    Field,
    Filter,
    convolve,
    filter_product,
    filter_tensor,
    read_zdf,
    write_zdf,
)

__version__ = "0.1.0"
