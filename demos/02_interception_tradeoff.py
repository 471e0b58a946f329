"""
The interceptor's price-performance curve
=========================================

A man-in-the-middle replaces the signal state rho1 with a distorted
rho1' before it reaches the fixed detector.  Distortion is priced by
quantum relative entropy: the interceptor minimizes

    Tr(Pi1 rho1') + lambda * S(rho1' || rho1).

The minimizer has a closed form, exp(ln rho1 - Pi1/lambda) normalized
on the support of rho1; the null state is left untouched because any
change there only helps the detector.  This script sweeps the price
lambda and cross-checks one point against the independent numerical
minimizer.
"""

import math

import numpy as np

from qspoof import (
    BoundReport,
    RadarParams,
    attacker_utility,
    build_radar_pair,
    helstrom_measurement,
    optimal_attack,
    oracle_attack,
)

pair = build_radar_pair(RadarParams(n_b=0.4, x=0.9, k=1, l=2), c0=0.5, c1=0.5)
hel = helstrom_measurement(pair)
print(f"undistorted detection rate: {hel.p_detect:.6f}")
print()
print(f"{'lambda':>8} {'genuine rate':>14} {'lower bound':>13} {'upper bound':>13} {'utility':>10}")
for lam in (0.2, 0.5, 1.0, 2.0, 5.0, 20.0):
    sol = optimal_attack(pair, hel.pi1, lam)
    rep = BoundReport.evaluate(hel.p_detect, sol.genuine_p_detect, lam)
    print(
        f"{lam:8.1f} {sol.genuine_p_detect:14.6f} {rep.lower:13.6f} "
        f"{rep.upper:13.6f} {sol.utility:10.6f}"
    )

# Cheap distortion (small lambda) hides the signal; expensive distortion
# approaches the undistorted rate.  The two-sided envelope
# P_D * exp(-1/lambda) <= genuine rate <= P_D holds at every price here.

lam = 1.0
sol = optimal_attack(pair, hel.pi1, lam)
print()
print("closed-form distorted diag:", np.round(np.diag(sol.rho1_prime.matrix).real, 6))
print(f"identity check: utility = -lambda ln Z1 -> "
      f"{sol.utility:.12f} vs {-lam * math.log(sol.z1):.12f}")

# The oracle knows nothing of the closed form: it descends the objective
# over the exponential-family chart from the undistorted state, by Newton
# steps from the entrywise part of the chart Hessian in the exponent's
# eigenbasis.
sigma = oracle_attack(pair, hel.pi1, lam)
print()
print("oracle distorted diag:     ", np.round(np.diag(sigma.matrix).real, 6))
gap = attacker_utility(sigma, pair.rho0, hel.pi1, pair, lam) - sol.utility
print(f"state residual {np.linalg.norm(sigma.matrix - sol.rho1_prime.matrix):.2e}, "
      f"utility gap {gap:.2e}")
