"""Two-state regime process and the telegraph / jump / stochastic-exponential
processes built on it.

The regime is the state sigma in {+1, -1} of a continuous-time Markov chain
with switch intensities lambda_plus (out of +1) and lambda_minus (out of -1).
A path is stored event-driven: only the exact switch times are kept, so grid
evaluation introduces no discretization error. One sampler draws switch times
(``sample_switch_times``) and one evaluator maps them to the switch count and
the time spent in the starting regime (``switch_state``); every path quantity
is a function of those two numbers (``PathState``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

Regime = int  # +1 or -1

_UINT64_MASK = (1 << 64) - 1
_CHUNK_ROWS = 4  # rows of exponential waits drawn per chunk (even: rates alternate)


def check_regime(sigma: int) -> int:
    if sigma not in (+1, -1):
        raise ValueError(f"regime must be +1 or -1, got {sigma!r}")
    return sigma


def check_finite(record: object) -> None:
    """Raise ValueError naming the first field of a dataclass instance that
    is not a finite number."""
    for field in fields(record):
        value = getattr(record, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class ModelParams:
    """Full market specification.

    Velocities c_{+/-} drive the telegraph log-trend, lambda_{+/-} are the
    regime switch intensities, h_{+/-} the relative price jumps at switches
    (indexed by the pre-switch regime), r_{+/-} the regime interest rates.
    """

    c_plus: float
    c_minus: float
    lambda_plus: float
    lambda_minus: float
    h_plus: float
    h_minus: float
    r_plus: float
    r_minus: float
    s0: float
    sigma0: Regime

    def __post_init__(self) -> None:
        check_regime(self.sigma0)
        check_finite(self)
        if not (self.lambda_plus > 0 and self.lambda_minus > 0):
            raise ValueError("switch intensities must be positive")
        if not (self.h_plus > -1 and self.h_minus > -1):
            raise ValueError("jump sizes must exceed -1")
        if not self.c_minus <= self.c_plus:
            raise ValueError("c_minus must not exceed c_plus")
        if not (self.r_plus >= 0 and self.r_minus >= 0):
            raise ValueError("interest rates must be nonnegative")
        if not self.s0 > 0:
            raise ValueError("initial stock price must be positive")

    def c(self, sigma: Regime) -> float:
        return self.c_plus if sigma == +1 else self.c_minus

    def lam(self, sigma: Regime) -> float:
        return self.lambda_plus if sigma == +1 else self.lambda_minus

    def h(self, sigma: Regime) -> float:
        return self.h_plus if sigma == +1 else self.h_minus

    def r(self, sigma: Regime) -> float:
        return self.r_plus if sigma == +1 else self.r_minus


@dataclass(frozen=True)
class RegimePath:
    """One realization of the switching process on [0, horizon].

    The regime is right-continuous: it flips exactly at each switch time, and
    ``regime_at(path, tau_j)`` already reports the post-switch state.
    """

    sigma0: Regime
    switch_times: tuple[float, ...]
    horizon: float

    def __post_init__(self) -> None:
        check_regime(self.sigma0)
        if not self.horizon > 0:
            raise ValueError("horizon must be positive")
        prev = 0.0
        for tau in self.switch_times:
            if not prev < tau <= self.horizon:
                raise ValueError("switch times must be strictly increasing in (0, horizon]")
            prev = tau


@dataclass(frozen=True)
class MomentConstants:
    """Aggregate constants driving the conditional-mean formulas."""

    H: float
    Lambda: float
    gamma_c: float
    g: float
    a_plus: float
    a_minus: float
    d_plus: float
    d_minus: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "MomentConstants":
        lam_p, lam_m = params.lambda_plus, params.lambda_minus
        c_p, c_m = params.c_plus, params.c_minus
        h_p, h_m = params.h_plus, params.h_minus
        big = lam_p + lam_m
        return cls(
            H=h_m + h_p,
            Lambda=big,
            gamma_c=lam_m * lam_p / big,
            g=(c_p * lam_m + c_m * lam_p) / big,
            a_plus=(lam_p * h_p - lam_m * h_m) / big,
            a_minus=(lam_m * h_m - lam_p * h_p) / big,
            d_plus=(c_p - c_m) / big,
            d_minus=(c_m - c_p) / big,
        )

    def a(self, sigma: Regime) -> float:
        return self.a_plus if sigma == +1 else self.a_minus

    def d(self, sigma: Regime) -> float:
        return self.d_plus if sigma == +1 else self.d_minus


def path_rng(seed: int, path_index: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, path_index).

    Philox streams for distinct keys are independent, so concurrent sampling
    with distinct path indices never shares state and results do not depend
    on worker count.
    """
    key = [int(seed) & _UINT64_MASK, int(path_index) & _UINT64_MASK]
    return np.random.Generator(np.random.Philox(key=key))


def sample_switch_times(
    sigma0: Regime,
    lam_plus: float,
    lam_minus: float,
    horizon: float,
    seed: int,
    key: int,
    n_cols: int,
) -> np.ndarray:
    """Switch times of ``n_cols`` independent paths, shape (rows, n_cols).

    Standard exponentials from ``path_rng(seed, key)`` are drawn row-major in
    chunks of ``_CHUNK_ROWS`` (4) rows and divided by the alternating rates
    lambda_{sigma0}, lambda_{-sigma0}, ...; the running sum (added row by row,
    the same sums in the same order as ``np.cumsum``) is carried across
    chunks, drawn until every column has passed the horizon: column j holds
    path j's switch times in increasing order, ending past the horizon.

    The chunk size must be even, so that every chunk's rates start with
    lambda_{sigma0}. Any even size then puts the same exponentials in the
    same rows, because one Philox stream fills them row after row; a
    smaller chunk only stops sooner, and rows past the horizon change no
    path quantity.
    """
    if not horizon > 0:
        raise ValueError("horizon must be positive")
    check_regime(sigma0)
    lam_first, lam_second = (
        (lam_plus, lam_minus) if sigma0 == +1 else (lam_minus, lam_plus)
    )
    rates = np.where(np.arange(_CHUNK_ROWS) % 2 == 0, lam_first, lam_second)
    rng = path_rng(seed, key)
    chunks = []
    last = np.zeros(n_cols)
    while not chunks or np.any(last <= horizon):
        gaps = rng.standard_exponential(size=(_CHUNK_ROWS, n_cols)) / rates[:, None]
        gaps[0] += last
        for prev, row in zip(gaps, gaps[1:]):
            np.add(row, prev, out=row)
        chunks.append(gaps)
        last = gaps[-1]
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def switch_state(
    switch_times: np.ndarray, t: np.ndarray | float
) -> tuple[np.ndarray, np.ndarray]:
    """(N(t), time spent in the starting regime on [0, t]) from switch times.

    ``switch_times`` has shape (k, *batch), increasing along axis 0, and
    ``t`` broadcasts against the batch shape. N is right-continuous (it
    counts switches <= t). The occupation sums the even-index segments
    between the saturated boundaries 0, min(tau_1, t), ..., min(tau_k, t), t,
    that is min(tau_1, t), min(tau_3, t) - min(tau_2, t), ... and, for even
    k, t - min(tau_k, t): segments beyond t collapse to zero length. They
    are added one at a time, the same additions in the same order as a
    row-by-row axis-0 sum over the boundaries' differences, without building
    either array.
    """
    t = np.asarray(t, dtype=float)
    capped = np.minimum(switch_times, t)
    k, batch = capped.shape[0], capped.shape[1:]
    n = np.sum(switch_times <= t, axis=0)
    occ = np.array(np.broadcast_to(capped[0] if k else t, batch))
    for j in range(2, k + 1, 2):
        occ += (capped[j] if j < k else t) - capped[j - 1]
    return n, occ


class PathState(NamedTuple):
    """Switch count N(t) and starting-regime occupation at query times t.

    Every path quantity is a function of these two numbers: a telegraph
    integral is c_{sigma0} occ + c_{-sigma0} (t - occ) for the velocity pair
    (X), the rate pair (ln B) or the Girsanov pair (X*), and the jump factors
    depend on N alone.
    """

    sigma0: Regime
    t: np.ndarray | float
    n: np.ndarray
    occ: np.ndarray

    def regime(self) -> np.ndarray:
        return np.where(self.n % 2 == 0, self.sigma0, -self.sigma0)

    def telegraph(self, c_plus: float, c_minus: float) -> np.ndarray:
        c0, c1 = (c_plus, c_minus) if self.sigma0 == +1 else (c_minus, c_plus)
        return c0 * self.occ + c1 * (self.t - self.occ)

    def jump_sum(self, h_plus: float, h_minus: float) -> np.ndarray:
        """Sum of pre-switch-indexed sizes h_{sigma0}, h_{-sigma0}, ... over
        the N switches."""
        h0, h1 = (h_plus, h_minus) if self.sigma0 == +1 else (h_minus, h_plus)
        return h0 * ((self.n + 1) // 2) + h1 * (self.n // 2)

    def jump_exponential(
        self, c_plus: float, c_minus: float, h_plus: float, h_minus: float
    ) -> np.ndarray:
        """e^{X} kappa_N for the velocity pair (c+, c-) and jump pair (h+, h-):
        S / S0 for the market's pairs, the Girsanov density Z for (c*, h*)."""
        return np.exp(
            self.telegraph(c_plus, c_minus)
            + self.jump_sum(math.log1p(h_plus), math.log1p(h_minus))
        )

    def stock(self, params: ModelParams) -> np.ndarray:
        return params.s0 * self.jump_exponential(
            params.c_plus, params.c_minus, params.h_plus, params.h_minus
        )


def path_state(path: RegimePath, t: np.ndarray | float) -> PathState:
    """State of one path at query times t in [0, horizon]."""
    t = np.asarray(t, dtype=float)
    if np.any((t < 0.0) | (t > path.horizon)):
        raise ValueError(f"time {t} outside [0, {path.horizon}]")
    times = np.asarray(path.switch_times, dtype=float)
    n, occ = switch_state(times.reshape(-1, *([1] * t.ndim)), t)
    return PathState(path.sigma0, t, n, occ)


def _scalar(x: np.ndarray, t: np.ndarray | float, kind: type = float):
    return kind(x) if np.ndim(t) == 0 else x


def sample_path(
    params: ModelParams,
    horizon: float,
    seed: int,
    path_index: int = 0,
) -> RegimePath:
    """Draw one regime path: the one-column case of ``sample_switch_times``,
    keyed by (seed, path_index)."""
    times = sample_switch_times(
        params.sigma0, params.lambda_plus, params.lambda_minus,
        horizon, seed, path_index, 1,
    )[:, 0]
    return RegimePath(
        sigma0=params.sigma0,
        switch_times=tuple(times[times <= horizon].tolist()),
        horizon=horizon,
    )


def switch_count(path: RegimePath, t: np.ndarray | float) -> int | np.ndarray:
    """Number of switches on [0, t]."""
    return _scalar(path_state(path, t).n, t, int)


def regime_at(path: RegimePath, t: np.ndarray | float) -> Regime | np.ndarray:
    """Regime at time t (right-continuous at switch times)."""
    return _scalar(path_state(path, t).regime(), t, int)


def telegraph_value(
    path: RegimePath, c_plus: float, c_minus: float, t: np.ndarray | float
) -> float | np.ndarray:
    """Time-integral of the regime-indexed velocity up to t."""
    return _scalar(path_state(path, t).telegraph(c_plus, c_minus), t)


def jump_value(
    path: RegimePath, h_plus: float, h_minus: float, t: np.ndarray | float
) -> float | np.ndarray:
    """Sum of jump sizes indexed by the pre-switch regime, over switches <= t."""
    return _scalar(path_state(path, t).jump_sum(h_plus, h_minus), t)


def kappa(n: int, sigma0: Regime, h_plus: float, h_minus: float) -> float:
    """Stochastic-exponential jump factor after n switches from sigma0.

    kappa_{2k} = (1+h_s)^k (1+h_{-s})^k, kappa_{2k+1} = (1+h_s)^{k+1} (1+h_{-s})^k.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_regime(sigma0)
    h0 = h_plus if sigma0 == +1 else h_minus
    h1 = h_minus if sigma0 == +1 else h_plus
    return (1.0 + h0) ** ((n + 1) // 2) * (1.0 + h1) ** (n // 2)


def log_kappa_sequence(
    n_max: int, sigma0: Regime, h_plus: float, h_minus: float
) -> np.ndarray:
    """log kappa_{n, sigma0} for n = 0..n_max (vectorized)."""
    check_regime(sigma0)
    h0 = h_plus if sigma0 == +1 else h_minus
    h1 = h_minus if sigma0 == +1 else h_plus
    n = np.arange(n_max + 1)
    return ((n + 1) // 2) * math.log1p(h0) + (n // 2) * math.log1p(h1)


def stock_price(
    path: RegimePath, params: ModelParams, t: np.ndarray | float
) -> float | np.ndarray:
    """S(t) = S0 * exp(X(t)) * kappa_{N(t)}; strictly positive."""
    return _scalar(path_state(path, t).stock(params), t)


def bond_price(
    path: RegimePath, params: ModelParams, t: np.ndarray | float
) -> float | np.ndarray:
    """B(t) = exp of the time-integral of the regime-indexed rate."""
    return _scalar(np.exp(path_state(path, t).telegraph(params.r_plus, params.r_minus)), t)


def linear_transform_coeffs(
    c_plus: float, c_minus: float, c_tilde_plus: float, c_tilde_minus: float
) -> tuple[float, float]:
    """Coefficients (a, b) with a*c_{+/-} + b = c_tilde_{+/-}.

    Two telegraph processes on the same regime path are linearly connected;
    this solves the 2x2 system. Degenerate c_plus == c_minus is refused.
    """
    if c_plus == c_minus:
        raise ValueError("linear transform undefined for c_plus == c_minus")
    a = (c_tilde_plus - c_tilde_minus) / (c_plus - c_minus)
    b = (c_plus * c_tilde_minus - c_minus * c_tilde_plus) / (c_plus - c_minus)
    return a, b


def conditional_means(
    params: ModelParams, sigma_s: Regime, dt: float
) -> tuple[float, float]:
    """(E[J(s+dt) - J(s)], E[X(s+dt) - X(s)]) given the regime at s."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    mc = MomentConstants.from_params(params)
    lam = params.lam(sigma_s)
    decay = -math.expm1(-mc.Lambda * dt) / mc.Lambda  # (1 - e^{-Lambda dt}) / Lambda
    mean_dj = mc.gamma_c * mc.H * dt + lam * mc.a(sigma_s) * decay
    mean_dx = mc.g * dt + lam * mc.d(sigma_s) * decay
    return mean_dj, mean_dx


def martingale_defect(params: ModelParams) -> tuple[float, float]:
    """(lambda_- h_- + c_-, lambda_+ h_+ + c_+); both vanish iff X + J is a
    martingale under the physical measure."""
    return (
        params.lambda_minus * params.h_minus + params.c_minus,
        params.lambda_plus * params.h_plus + params.c_plus,
    )
