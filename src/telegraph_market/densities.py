"""Exact distributions of the telegraph process position.

The continuous parts of the per-switch-count densities (n >= 1; the n = 0
term is the atom e^{-lambda_s t} at c_s t), the total distribution with its
atom on the no-switch ray, the modified Bessel closed form, and the MGF of the
jump telegraph process: X + ln kappa is a Markov additive process, so the MGF is
a row sum of a 2x2 matrix exponential (Asmussen, Applied Probability and
Queues, ch. XI).

The total distribution is returned as an explicit (atom, continuous) pair;
the atom is never smoothed into the continuous part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError
from .model import Regime, check_regime, check_time
from .numerics import expm_2x2_row_sums, log_factorial

_BESSEL_SERIES_MAX = 30.0  # power series up to here, the expansion beyond


@dataclass(frozen=True)
class DensityParams:
    """Velocity/intensity parameters of a telegraph process, c_plus > c_minus."""

    c_plus: float
    c_minus: float
    lambda_plus: float
    lambda_minus: float

    def __post_init__(self) -> None:
        if not self.c_plus > self.c_minus:
            raise ValueError("density formulas require c_plus > c_minus")
        if not (self.lambda_plus > 0 and self.lambda_minus > 0):
            raise ValueError("intensities must be positive")

    @property
    def delta_c(self) -> float:
        return self.c_plus - self.c_minus

    @property
    def nu(self) -> float:
        """(lambda_+ - lambda_-) / (c_+ - c_-); zero in the symmetric case."""
        return (self.lambda_plus - self.lambda_minus) / self.delta_c

    @property
    def lambda_tilde(self) -> float:
        """(lambda_- c_+ - lambda_+ c_-) / (c_+ - c_-)."""
        return (self.lambda_minus * self.c_plus - self.lambda_plus * self.c_minus) / self.delta_c

    def c(self, sigma: Regime) -> float:
        return self.c_plus if sigma == +1 else self.c_minus

    def lam(self, sigma: Regime) -> float:
        return self.lambda_plus if sigma == +1 else self.lambda_minus


@dataclass(frozen=True)
class DensityValue:
    """Point mass at the no-switch position plus a continuous density value."""

    atom_weight: float
    continuous: np.ndarray | float
    atom_location: float


def _log_power(exponent: np.ndarray | int, log_base: np.ndarray) -> np.ndarray:
    """exponent * log_base with the convention 0 * (-inf) = 0."""
    e = np.asarray(exponent, dtype=float)
    return np.where(e > 0, e * log_base, 0.0)


def log_q_n(
    x: np.ndarray | float,
    t: float,
    n: np.ndarray | int,
    sigma: Regime,
    params: DensityParams,
) -> np.ndarray:
    """log of the polynomial kernel q_n on the open support (c_- t, c_+ t).

    Vectorized over integer switch counts n >= 1, which broadcast against x
    (an (N, 1) column of counts against (N, Q) nodes gives one row per n):

        q_n = lambda_s^{ceil(n/2)} lambda_{-s}^{floor(n/2)} / (c_+ - c_-)^n
              * (c_+ t - x)^{e_a} (x - c_- t)^{e_b} / (e_a! e_b!),

    with (e_a, e_b) = ((n-1)//2, n//2) for sigma = +1 and swapped for
    sigma = -1. Outside the open support the logarithms are -inf or nan;
    callers mask there.

    The two odd-order lines share one printed superscript in the source
    formulas; the lambda_+^{n+1} lambda_-^n line is assigned to sigma = +1,
    the assignment that reproduces the alternating-Poisson per-n masses.
    """
    check_regime(sigma)
    if not t > 0:
        raise ValueError("t must be positive")
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("q_n is defined for n >= 1; n = 0 is the caller's atom")
    x = np.asarray(x, dtype=float)
    l_own = math.log(params.lam(sigma))
    l_other = math.log(params.lam(-sigma))
    lo_half, hi_half = (n - 1) // 2, n // 2
    ea, eb = (lo_half, hi_half) if sigma == +1 else (hi_half, lo_half)
    # 0 * log 0 (a node on a ray) is NaN until _log_power replaces it by 0
    with np.errstate(divide="ignore", invalid="ignore"):
        la = np.log(params.c_plus * t - x)  # log(c_+ t - x)
        lb = np.log(x - params.c_minus * t)  # log(x - c_- t)
        return (
            (n + 1) // 2 * l_own
            + n // 2 * l_other
            - n * math.log(params.delta_c)
            + _log_power(ea, la)
            + _log_power(eb, lb)
            - log_factorial(ea)
            - log_factorial(eb)
        )


def p_n_continuous(
    x: np.ndarray | float,
    t: float,
    n: np.ndarray | int,
    sigma: Regime,
    params: DensityParams,
) -> np.ndarray | float:
    """Continuous part of the n-switch density (n >= 1):
    exp((-lambda_s + nu c_s) t - nu x + log q_n) on the open support, in one
    exponent so that neither factor underflows where their product is a
    float. Switch counts n broadcast against x as in ``log_q_n``."""
    x_arr = np.asarray(x, dtype=float)
    expo = (-params.lam(sigma) + params.nu * params.c(sigma)) * t - params.nu * x_arr
    expo = expo + log_q_n(x_arr, t, n, sigma, params)
    inside = (x_arr > params.c_minus * t) & (x_arr < params.c_plus * t)
    out = np.where(inside, np.exp(expo), 0.0)
    return out if np.ndim(x) else float(out)


def _scaled_bessel(z: np.ndarray) -> np.ndarray:
    """Rows e^{-z} I_0(z) and e^{-z} I_1(z) / (z / 2) over z >= 0 (the
    second is 1 at z = 0), finite for every finite z.

    Up to z = 30 the power series sum (z^2 / 4)^k / (k! (k + nu)!), times
    e^{-z}; beyond, 20 terms of the large-argument expansion
    e^{-z} I_nu(z) ~ (2 pi z)^{-1/2} sum_k (-1)^k a_k(nu) / z^k (DLMF
    10.40.1), where consecutive terms have the ratio
    ((2k - 1)^2 - 4 nu^2) / (8 k z), so at z > 30 the first omitted term is
    below 1e-19 of the first. Against mpmath both rows are within 1.7e-15
    relative from z = 0 to 1e200.
    """
    flat = z.ravel()
    small = flat <= _BESSEL_SERIES_MAX
    lo, hi = flat[small], flat[~small]
    out = np.empty((2, flat.size))
    for nu, row in enumerate(out):
        term = np.ones_like(lo)
        acc = term.copy()
        for k in range(1, 100):
            term *= 0.25 * lo * lo / (k * (k + nu))
            acc += term
            if np.all(term <= 1e-17 * acc):
                break
        row[small] = acc * np.exp(-lo)
        term = (2.0 * np.pi * hi) ** -0.5
        acc = term.copy()
        for k in range(1, 21):
            term *= ((2 * k - 1) ** 2 - 4 * nu * nu) / (8.0 * k * hi)
            acc += term
        row[~small] = acc * (2.0 / hi if nu else 1.0)
    return out.reshape(2, *z.shape)


def density_total(
    x: np.ndarray | float,
    t: float,
    sigma: Regime,
    params: DensityParams,
) -> DensityValue:
    """Full distribution of the telegraph position at t: atom exp(-lambda_s t)
    at c_s t plus the Bessel closed form of the absolutely continuous part.

    At the support endpoints the continuous part is the one-sided limit.
    """
    check_regime(sigma)
    check_time("t", t)
    x_arr = np.asarray(x, dtype=float)
    dc = params.delta_c
    lo, hi = params.c_minus * t, params.c_plus * t
    on_support = (x_arr >= lo) & (x_arr <= hi)
    a = np.where(on_support, hi - x_arr, 0.0)  # c_+ t - x
    b = np.where(on_support, x_arr - lo, 0.0)  # x - c_- t
    lam_prod = params.lambda_plus * params.lambda_minus
    zeta = 2.0 * math.sqrt(lam_prod) / dc * (np.sqrt(a) * np.sqrt(b))
    i0, i1_half = _scaled_bessel(zeta)
    pref = np.exp(zeta - (params.lambda_tilde * t + params.nu * x_arr))
    edge = b if sigma == +1 else a
    cont = pref * (params.lam(sigma) / dc * i0 + lam_prod / dc**2 * edge * i1_half)
    cont = np.where(on_support, cont, 0.0)
    return DensityValue(
        atom_weight=math.exp(-params.lam(sigma) * t),
        continuous=cont if np.ndim(x) else float(cont),
        atom_location=params.c(sigma) * t,
    )


def mgf(
    z: float,
    t: float,
    sigma: Regime,
    params: DensityParams,
    h_plus: float,
    h_minus: float,
) -> float:
    """Moment-generating function E_sigma[e^{z (X(t) + ln kappa(t))}] at z:
    (e^{tK} 1)_sigma, K = [[z c_+ - lambda_+, lambda_+ (1 + h_+)^z],
    [lambda_- (1 + h_-)^z, z c_- - lambda_-]], since leaving regime s multiplies
    the price by 1 + h_s, one factor of kappa. Raises DivergenceError when
    either row of e^{tK} 1 leaves the float range."""
    check_regime(sigma)
    if not t > 0:
        raise ValueError("t must be positive")
    lp, lm = params.lambda_plus, params.lambda_minus
    try:
        rows = expm_2x2_row_sums(
            z * params.c_plus - lp, lp * math.exp(z * math.log1p(h_plus)),
            lm * math.exp(z * math.log1p(h_minus)), z * params.c_minus - lm, t,
        )
    except OverflowError:
        raise DivergenceError("mgf overflow: jump factors outgrow the Poisson tail") from None
    return rows[0] if sigma == +1 else rows[1]

