"""Random instance generators: stacked draws against per-state draws."""

import numpy as np
import pytest

from qspoof import DensityOperator, HypothesisPair, hermitian_part
from qspoof.sampling import (
    NEAR_COMMUTING_STRENGTH,
    PAIR_MIN_EIGENVALUE,
    near_commuting_pair,
    random_commuting_pair,
    random_pair,
    random_spectrum,
)

# The pair constructors as they were written state by state: every matrix
# drawn, built and decomposed on its own.


def _gaussian(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_unitary(rng, dim):
    q, r = np.linalg.qr(_gaussian(rng, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_density(rng, dim, min_eigenvalue):
    g = _gaussian(rng, dim)
    w = g @ g.conj().T
    w = hermitian_part(w / np.trace(w).real)
    t = min(1.0, dim * min_eigenvalue)
    return DensityOperator((1.0 - t) * w + t * np.eye(dim) / dim)


def _random_pair(rng, dim):
    rho0 = _random_density(rng, dim, PAIR_MIN_EIGENVALUE)
    return HypothesisPair(rho0, _random_density(rng, dim, PAIR_MIN_EIGENVALUE), 0.5, 0.5)


def _random_commuting_pair(rng, dim):
    u = _haar_unitary(rng, dim)
    p0 = random_spectrum(rng, dim)
    p1 = random_spectrum(rng, dim)
    rng.shuffle(p1)
    return HypothesisPair(DensityOperator((u * p0) @ u.conj().T), DensityOperator((u * p1) @ u.conj().T), 0.5, 0.5)


def _near_commuting_pair(rng, dim):
    u = _haar_unitary(rng, dim)
    p1 = random_spectrum(rng, dim)
    p0 = random_spectrum(rng, dim)
    rng.shuffle(p0)
    k = hermitian_part(_gaussian(rng, dim))
    k = k / max(np.linalg.norm(k, 2), 1e-12)
    w, vk = np.linalg.eigh(k)
    u0 = (vk * np.exp(1j * NEAR_COMMUTING_STRENGTH * w)) @ vk.conj().T @ u
    rho1 = DensityOperator((u * p1) @ u.conj().T)
    return HypothesisPair(DensityOperator((u0 * p0) @ u0.conj().T), rho1, 0.5, 0.5)


CONSTRUCTORS = [
    (random_pair, _random_pair),
    (random_commuting_pair, _random_commuting_pair),
    (near_commuting_pair, _near_commuting_pair),
]


@pytest.mark.parametrize("dim", range(2, 10))
@pytest.mark.parametrize("stacked, per_state", CONSTRUCTORS)
def test_stacked_pairs_equal_per_state_draws(stacked, per_state, dim):
    for seed in range(60):
        pair = stacked(np.random.default_rng(seed), dim)
        ref = per_state(np.random.default_rng(seed), dim)
        for state, want in ((pair.rho0, ref.rho0), (pair.rho1, ref.rho1)):
            assert np.array_equal(state.matrix, want.matrix)
            assert np.array_equal(state.spectrum.eigenvalues, want.spectrum.eigenvalues)
            assert np.array_equal(state.spectrum.eigenvectors, want.spectrum.eigenvectors)
        assert (pair.c0, pair.c1) == (0.5, 0.5)


@pytest.mark.parametrize("dim", range(2, 10))
@pytest.mark.parametrize("stacked", [c[0] for c in CONSTRUCTORS])
def test_pair_states_are_checked_as_one_stack(monkeypatch, stacked, dim):
    shapes = []
    inner = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return inner(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    stacked(np.random.default_rng(dim), dim)
    # near_commuting_pair also decomposes the Hermitian generator of its tilt
    assert shapes == ([(dim, dim)] if stacked is near_commuting_pair else []) + [(2, dim, dim)]
