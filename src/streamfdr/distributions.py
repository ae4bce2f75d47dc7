"""Generalized-Gaussian distribution kernels.

Survival, quantile and sampling routines for the symmetric family with
density proportional to ``exp(-|x|^gamma / gamma)``, gamma >= 1.
gamma = 2 is the standard normal law, gamma = 1 the double exponential.
The right tail is ``0.5 * Q(1/gamma, |x|^gamma / gamma)`` with Q
the regularized upper incomplete gamma, so the quantile is its closed-form
inverse through ``gammainccinv``. Also provides the P-value CDFs of
location-shift alternatives, public diagnostics that the package itself
does not call (the tests use them as oracles). Survival, quantile and
CDFs take scalars or arrays.

``scipy.special`` is imported by the functions that evaluate it (survival
for gamma != 1, so ``pvalue``, and the quantile), on first use rather than
at import, so importing the package does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .schedules import FieldError

__all__ = [
    "GGKernel",
    "AltPValueCDF",
    "gg_survival",
    "gg_quantile",
    "gg_sample",
    "pvalue",
    "alt_pvalue_cdf",
    "mixture_pvalue_cdf",
]

_SQRT2 = math.sqrt(2.0)


def _check_gamma(gamma: float) -> None:
    if not (math.isfinite(gamma) and gamma >= 1.0):  # False at NaN too
        raise FieldError("gamma", f"gamma must be finite and >= 1, got {gamma}")


@dataclass(frozen=True)
class GGKernel:
    """The unit-scale law of shape ``gamma`` (>= 1).

    Its density is proportional to ``exp(-|x|^gamma / gamma)``.
    """

    gamma: float

    def __post_init__(self) -> None:
        _check_gamma(self.gamma)


@dataclass(frozen=True)
class AltPValueCDF:
    """P-value law of a statistic shifted right by ``mu`` under ``kernel``."""

    kernel: GGKernel
    mu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and self.mu > 0.0):
            raise ValueError(f"mu must be finite and > 0, got {self.mu}")


def _as_array(x) -> np.ndarray:
    """``x`` as a float array, a scalar as one element.

    A 0-d input would make numpy scalars, whose ``**`` goes through C
    ``pow`` and can differ in the last bit from the array loop; as one
    element, a scalar gets the bits it would get inside an array.
    """
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def _like(out: np.ndarray, x):
    """``out`` as a float when the input ``x`` was a scalar."""
    return float(out[0]) if np.ndim(x) == 0 else out


def _as_finite_array(x) -> np.ndarray:
    arr = _as_array(x)
    if not np.all(np.isfinite(arr)):
        raise ValueError("statistic values must be finite")
    return arr


def gg_survival(kernel: GGKernel, x):
    """Right-tail probability P(X >= x); accepts scalars or arrays.

    The right tail is evaluated directly (erfc for gamma = 2, a closed
    form for gamma = 1, the regularized upper incomplete gamma of
    ``|x|^gamma / gamma`` otherwise) so extreme P-values keep full
    relative precision instead of underflowing through ``1 - cdf``.
    The left half follows from symmetry: survival(x) + survival(-x) = 1.
    """
    arr = _as_finite_array(x)
    az = np.abs(arr)
    g = kernel.gamma
    if g == 2.0:
        from scipy import special

        tail = special.erfc(az / _SQRT2)
    elif g == 1.0:
        tail = np.exp(-az)
    else:
        from scipy import special

        tail = special.gammaincc(1.0 / g, az**g / g)
    tail *= 0.5
    np.subtract(1.0, tail, out=tail, where=arr < 0.0)
    return _like(tail, x)


def pvalue(kernel: GGKernel, x):
    """One-sided P-value of a statistic: its null survival probability.

    Uniform(0, 1) when ``x`` is drawn from the null law itself.
    """
    return gg_survival(kernel, x)


def gg_quantile(kernel: GGKernel, p):
    """Inverse survival: the x with ``gg_survival(kernel, x) == p``.

    Closed form: for p <= 1/2, ``x = (gamma * y)**(1/gamma)`` with
    ``y = gammainccinv(1/gamma, 2p)``; p > 1/2 reflects to ``-x(1 - p)``.
    Accepts scalars or arrays of probabilities in the open interval (0, 1).
    """
    arr = _as_array(p)
    ok = (arr > 0.0) & (arr < 1.0)  # False at NaN too
    if not ok.all():
        raise ValueError(f"p must lie in (0, 1), got {arr[~ok][0]}")
    g = kernel.gamma
    from scipy import special

    # 1 - p is exact for p in [0.5, 1], so the reflection is lossless.
    y = special.gammainccinv(1.0 / g, 2.0 * np.minimum(arr, 1.0 - arr))
    x = (g * y) ** (1.0 / g)
    return _like(np.where(arr > 0.5, -x, x), p)


def gg_sample(kernel: GGKernel, rng: np.random.Generator, size=None):
    """Draw from the kernel's law using the supplied seeded generator.

    Sign and magnitude are independent: the sign is symmetric and
    ``|X|^gamma / gamma`` is a unit-rate gamma variate with shape
    ``1/gamma``. gamma = 1 and gamma = 2 use the equivalent direct
    samplers (Laplace and normal) for speed.
    """
    g = kernel.gamma
    if g == 2.0:
        return rng.standard_normal(size)
    if g == 1.0:
        return rng.laplace(0.0, 1.0, size)
    magnitude = (g * rng.standard_gamma(1.0 / g, size)) ** (1.0 / g)
    sign = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return sign * magnitude


def alt_pvalue_cdf(alt: AltPValueCDF, t):
    """CDF at ``t`` of the P-value of a statistic shifted by ``alt.mu``.

    Equals the null CDF evaluated at ``mu - xi`` where ``xi`` is the null
    value whose survival probability is ``t``; in particular it crosses
    1/2 exactly at t = survival(mu). Accepts scalars or arrays in [0, 1];
    the endpoints map to themselves.
    """
    arr = _as_array(t)
    ok = (arr >= 0.0) & (arr <= 1.0)  # False at NaN too
    if not ok.all():
        raise ValueError(f"t must lie in [0, 1], got {arr[~ok][0]}")
    inner = (arr > 0.0) & (arr < 1.0)
    xi = gg_quantile(alt.kernel, np.where(inner, arr, 0.5))
    return _like(np.where(inner, 1.0 - gg_survival(alt.kernel, alt.mu - xi), arr), t)


def mixture_pvalue_cdf(alt: AltPValueCDF, epsilon: float, t):
    """CDF at ``t`` of a P-value from the sparse mixture.

    A fraction ``epsilon`` of statistics carries the shift, the rest are
    null, so the P-value CDF is ``(1 - epsilon) * t`` plus ``epsilon``
    times the alternative's P-value CDF. Accepts scalars or arrays of t.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= 1.0:  # False at NaN too
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    cdf = alt_pvalue_cdf(alt, t)  # validates t
    return _like((1.0 - epsilon) * _as_array(t) + epsilon * cdf, t)
