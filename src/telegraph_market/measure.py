"""Equivalent martingale measure for the jump telegraph market.

The market is free of arbitrage exactly when (r_s - c_s) / h_s > 0 in both
regimes; the unique martingale measure then replaces the switching
intensities by lambda*_s = (r_s - c_s) / h_s, and the Girsanov density is
itself the exponential of a jump telegraph process: Z = e^{X*} kappa*_N, which
``model.PathState.jump_exponential`` evaluates at the pairs (c*, h*) of
``MartingaleIntensities``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArbitrageError
from .model import ModelParams, Regime, check_regime


@dataclass(frozen=True)
class MartingaleIntensities:
    """Martingale-measure switching intensities and the Girsanov telegraph
    parameters (velocities c*_s and jump sizes h*_s of ln Z)."""

    lambda_star_plus: float
    lambda_star_minus: float
    c_star_plus: float
    c_star_minus: float
    h_star_plus: float
    h_star_minus: float

    def lambda_star(self, sigma: Regime) -> float:
        check_regime(sigma)
        return self.lambda_star_plus if sigma == +1 else self.lambda_star_minus

    def c_star(self, sigma: Regime) -> float:
        check_regime(sigma)
        return self.c_star_plus if sigma == +1 else self.c_star_minus

    def h_star(self, sigma: Regime) -> float:
        check_regime(sigma)
        return self.h_star_plus if sigma == +1 else self.h_star_minus


@dataclass(frozen=True)
class NoArbitrageReport:
    """Per-regime diagnosis of the no-arbitrage condition."""

    ok: bool
    ratio_plus: float
    ratio_minus: float
    detail: str


def no_arbitrage_check(params: ModelParams) -> NoArbitrageReport:
    """Check (r_s - c_s) / h_s > 0 in both regimes.

    A zero jump size with r_s != c_s is a structural failure: the stock then
    dominates or is dominated by the bond between switches.
    """
    ratios = {}
    problems = []
    for sigma in (+1, -1):
        excess = params.r(sigma) - params.c(sigma)
        h = params.h(sigma)
        tag = "+" if sigma == +1 else "-"
        if h == 0.0:
            ratios[sigma] = math.inf if excess > 0 else (-math.inf if excess < 0 else 0.0)
            if excess != 0.0:
                problems.append(
                    f"regime {tag}: h = 0 with r - c = {excess:g}; "
                    "riskless drift mismatch admits arbitrage"
                )
            else:
                problems.append(
                    f"regime {tag}: h = 0 and r = c; the measure change is degenerate"
                )
            continue
        ratios[sigma] = excess / h
        if not ratios[sigma] > 0:
            problems.append(
                f"regime {tag}: (r - c) / h = {ratios[sigma]:g} <= 0; "
                "jumps cannot offset the drift"
            )
    ok = not problems
    detail = "no arbitrage" if ok else "; ".join(problems)
    return NoArbitrageReport(ok, ratios[+1], ratios[-1], detail)


def martingale_intensities(params: ModelParams) -> MartingaleIntensities:
    """Martingale-measure parameters; raises ArbitrageError if none exists."""
    report = no_arbitrage_check(params)
    if not report.ok:
        raise ArbitrageError(report.detail)
    lam_star = {}
    c_star = {}
    h_star = {}
    for sigma in (+1, -1):
        lam_star[sigma] = (params.r(sigma) - params.c(sigma)) / params.h(sigma)
        c_star[sigma] = params.lam(sigma) + (params.c(sigma) - params.r(sigma)) / params.h(sigma)
        h_star[sigma] = -c_star[sigma] / params.lam(sigma)
    return MartingaleIntensities(
        lambda_star_plus=lam_star[+1],
        lambda_star_minus=lam_star[-1],
        c_star_plus=c_star[+1],
        c_star_minus=c_star[-1],
        h_star_plus=h_star[+1],
        h_star_minus=h_star[-1],
    )

