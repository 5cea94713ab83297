"""Probes shared by the unit and acceptance tests."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from telegraph_market.hedging import PricerF, hedge_ratio
from telegraph_market.model import ModelParams, RegimePath, path_state

LEFT_LIMIT_EPS = (1e-3, 1e-4, 1e-5)


def hedge_ratio_left_gaps(
    paths: Sequence[RegimePath],
    params: ModelParams,
    pricer_f: PricerF,
    maturity: float,
    eps_values: Sequence[float] = LEFT_LIMIT_EPS,
) -> np.ndarray:
    """|phi(tau - eps, S(tau - eps), sigma(tau-)) - phi(tau, S(tau-), sigma(tau-))|
    at the switch events tau < maturity of the paths, one row per eps.

    The pre-switch state comes from the path evaluator: sigma(tau-) =
    -sigma(tau) and S(tau-) = S(tau) / (1 + h_{sigma(tau-)}). Events closer
    than max(eps) to the previous switch or to 0 are skipped, so tau - eps
    always lies in the pre-switch regime.
    """
    eps_max = max(eps_values)
    rows: list[tuple[np.ndarray, ...]] = []
    for path in paths:
        taus = np.asarray(path.switch_times, dtype=float)
        prev = np.concatenate(([0.0], taus[:-1]))
        taus = taus[(taus < maturity) & (taus - prev > eps_max)]
        if taus.size == 0:
            continue
        st = path_state(path, taus)
        sig_before = -st.regime()
        s_before = st.stock(params) / (
            1.0 + np.where(sig_before == 1, params.h_plus, params.h_minus)
        )
        s_eps = []
        for eps in eps_values:
            st_eps = path_state(path, taus - eps)
            assert np.array_equal(st_eps.regime(), sig_before)
            s_eps.append(st_eps.stock(params))
        rows.append((taus, sig_before, s_before, np.array(s_eps)))
    taus, sig, s_before = (np.concatenate([r[i] for r in rows]) for i in range(3))
    s_eps = np.concatenate([r[3] for r in rows], axis=1)
    gaps = np.empty_like(s_eps)
    for sg in (+1, -1):
        m = sig == sg
        held = hedge_ratio(taus[m], s_before[m], sg, pricer_f, params)
        for k, eps in enumerate(eps_values):
            gaps[k, m] = np.abs(
                hedge_ratio(taus[m] - eps, s_eps[k, m], sg, pricer_f, params) - held
            )
    return gaps
