"""Quantile hedging: maximize success probability under a capital budget.

With less than the perfect-hedge price, one can still super-replicate the
call on a maximal-probability success set. The optimal set is a threshold
region of the terminal log-trend, found by Newton's method on the
threshold equation; the frontier below maps budget fraction to success probability,
cross-checked by Monte Carlo under the physical measure.
"""

from telegraph_market import (
    Budget,
    CallSpec,
    ModelParams,
    call_price,
    mc_success_probability,
    solve_budget_gamma,
    solve_dual,
)

params = ModelParams(
    c_plus=0.5,
    c_minus=-0.3,
    lambda_plus=2.0,
    lambda_minus=1.5,
    h_plus=-0.2,
    h_minus=0.4,
    r_plus=0.08,
    r_minus=0.05,
    s0=100.0,
    sigma0=-1,
)
spec = CallSpec(strike=100.0, maturity=1.0)
perfect = call_price(params, spec).price
print(f"perfect-hedge price : {perfect:.6f}\n")

print("budget fraction   capital     success prob   MC check (100k paths)")
for frac in (0.25, 0.50, 0.75, 0.90):
    sol = solve_budget_gamma(Budget(frac * perfect), params, spec)
    mc = mc_success_probability(params, sol, n_paths=100_000, seed=5)
    print(
        f"      {frac:.2f}       {sol.budget:9.6f}      {sol.success_probability:.6f}"
        f"      {mc.mean:.4f} +- {mc.std_error:.4f}"
    )

# Dual problem: minimize capital subject to a shortfall-probability cap.
eps = 0.10
dual = solve_dual(eps, params, spec)
print(
    f"\ndual (shortfall <= {eps:.0%}): capital {dual.budget:.6f}"
    f" = {dual.budget / perfect:.1%} of the perfect hedge,"
    f" success prob {dual.success_probability:.6f}"
)
