"""
Replacing a state with a physical channel
=========================================

Swapping rho for rho' is not just bookkeeping: it is a completely
positive trace-preserving map, realizable with explicit operator-sum
(Kraus) elements E_ij = sqrt(p_i) |v_i><e_j| built from the target's
eigendecomposition and the computational basis e_j.  Summed over every
e_j they send any input state to the target, the source among them.
The channel keeps only the factor A whose columns are sqrt(p_i) v_i and
builds the d * rank operators when they are first read; completeness
and the action follow from the factor alone, as sum E'E = ||A||^2 1
and sum E rho E' = Tr(rho) A A'.  This script realizes a few
replacements, verifies completeness sum E'E = 1, and shows that a
corrupted operator set is caught before it can act.
"""

import numpy as np

from qspoof import (
    DensityOperator,
    KrausChannel,
    apply_channel,
    completeness_residual,
    realize_channel,
)
from qspoof.sampling import random_density

# The textbook case: send any qubit state to |0><0|.
rho = DensityOperator.maximally_mixed(2)
target = DensityOperator.pure(np.array([1.0, 0.0]))
ch = realize_channel(rho, target)
print(f"replacement by a pure state needs {len(ch.operators)} operators:")
for op in ch.operators:
    print(np.round(op, 6))
print(f"completeness residual: {completeness_residual(ch):.2e}")
out = apply_channel(ch, rho)
print("output diag:", np.diag(out.matrix).real)

# A generic mixed-to-mixed replacement in d = 4.
rng = np.random.default_rng(7)
rho = random_density(rng, 4, min_eigenvalue=1e-3)
target = random_density(rng, 4)
ch = realize_channel(rho, target)
out = apply_channel(ch, rho)
print()
print(f"d = 4 replacement: {len(ch.operators)} operators, "
      f"completeness {completeness_residual(ch):.2e}, "
      f"action error {np.linalg.norm(out.matrix - target.matrix):.2e}")

# Drop one operator: the channel leaks trace and is rejected.
broken = KrausChannel(ch.operators[:-1])
print()
print(f"after dropping an operator the residual is {completeness_residual(broken):.2e}")
try:
    apply_channel(broken, rho)
except ValueError as exc:
    print("apply_channel refused:", exc)
