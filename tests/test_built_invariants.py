"""The projectors and states the closed form builds, held to the checks it skips.

A Helstrom projector is V V^dagger of orthonormal ``eigh`` columns, and a
distorted state rho1' = W diag(p) W^dagger has orthonormal columns W and a
probability vector p: a projector and a state by construction, so the
library checks neither as it builds them.  These tests are the guard in
place of those checks.  Over d in {2, 5, 16, 64}, a full-rank and a
rank-deficient rho1, thresholds from 1e-2 to 1e300 and prices from 1e-300
to 1e300, every projector has ||P^2 - P||_F and |Tr P - rank| within
``IDEMPOTENCY_TOL``, and every rho1' passes ``DensityOperator``'s checks
with its matrix bytes unchanged.
"""

import numpy as np
import pytest

from qspoof import DensityOperator, HypothesisPair, OracleConvergenceError, helstrom_measurement, roc_sweep
from qspoof import adversary, radar
from qspoof.detection import IDEMPOTENCY_TOL
from qspoof.sampling import haar_unitary, random_density, random_pair

DIMS = [2, 5, 16, 64]
TAUS = np.logspace(-2.0, 300.0, 12)
LAMS = np.logspace(-300.0, 300.0, 13)
# the oracle's descent takes up to 0.7 s per price at d = 64 below lam = 1
ORACLE_LAMS = [1e-300, 1e-6, 1.0, 1e300]


def rank_deficient_pair(rng, d):
    """rho1 of rank d // 2 (at least one) against a full-rank rho0."""
    u = haar_unitary(rng, d)
    spectrum = np.zeros(d)
    rank = max(1, d // 2)
    spectrum[:rank] = rng.uniform(0.1, 1.0, size=rank)
    rho1 = DensityOperator((u * (spectrum / spectrum.sum())) @ u.conj().T)
    return HypothesisPair(random_density(rng, d, 1e-3), rho1, 0.5, 0.5)


def pair_of(d, kind):
    rng = np.random.default_rng(1000 + d)
    return random_pair(rng, d) if kind == "full" else rank_deficient_pair(rng, d)


def assert_projector(p, rank):
    assert np.linalg.norm(p @ p - p) <= IDEMPOTENCY_TOL
    assert abs(np.trace(p).real - rank) <= IDEMPOTENCY_TOL


def assert_state(m):
    assert DensityOperator(m).matrix.tobytes() == m.tobytes()


CASES = pytest.mark.parametrize("d,kind", [(d, kind) for d in DIMS for kind in ("full", "deficient")])


@CASES
def test_roc_sweep_builds_projectors_and_states(monkeypatch, d, kind):
    pair = pair_of(d, kind)
    if kind == "deficient":
        assert pair.rho1.spectrum.eigenvalues[-1] < 1e-12
    seen = {}
    for name in ("_helstrom_stack", "_attack_stack"):
        def spy(*args, _f=getattr(radar, name), _name=name):
            seen[_name] = out = _f(*args)
            return out

        monkeypatch.setattr(radar, name, spy)
    roc_sweep(pair, LAMS, TAUS)
    hel = seen["_helstrom_stack"]
    assert len(hel.projectors) == len(TAUS)
    for p, rank in zip(hel.projectors, hel.ranks):
        assert_projector(p, rank)
    matrices = seen["_attack_stack"].gibbs.matrices
    assert matrices.shape[0] == len(LAMS)
    for m in matrices.reshape(-1, d, d):
        assert_state(m)


@CASES
def test_optimal_attacks_build_projectors_and_states(d, kind):
    pair = pair_of(d, kind)
    for tau in TAUS[::3]:
        pi1 = helstrom_measurement(HypothesisPair.from_tau(pair.rho0, pair.rho1, tau)).pi1
        assert_projector(pi1.matrix, pi1.rank)
        for solution in adversary._optimal_attacks(pair, pi1, LAMS):
            assert_state(solution.rho1_prime.matrix)


@CASES
# The oracle's Newton direction divides 0 by 0 on a rank-one support at
# prices of 1e-50 and below and warns; the state it returns keeps its
# invariants, which is what this guard checks.
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_oracle_builds_states(d, kind):
    pair = pair_of(d, kind)
    for out in adversary._oracle_attacks(pair, helstrom_measurement(pair).pi1, ORACLE_LAMS):
        assert_state(out.best_state.matrix if isinstance(out, OracleConvergenceError) else out.matrix)
