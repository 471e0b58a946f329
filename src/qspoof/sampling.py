"""Seeded random instance generators for verification suites and tests."""

from __future__ import annotations

import numpy as np

from .detection import HypothesisPair, ProjectorMeasurement
from .operators import DensityOperator, hermitian_part

# Spectral floor of each state ``random_pair`` draws.
PAIR_MIN_EIGENVALUE = 1e-3
# Size of the rotation that tilts ``near_commuting_pair``'s rho0 off rho1's eigenbasis.
NEAR_COMMUTING_STRENGTH = 0.05


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # fix the phase convention so the distribution is exactly Haar
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, dim: int, min_eigenvalue: float = 0.0) -> DensityOperator:
    """Normalized Wishart state, optionally mixed toward identity for a spectral floor."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    w = hermitian_part(w / np.trace(w).real)
    if min_eigenvalue > 0.0:
        t = min(1.0, dim * min_eigenvalue)
        w = (1.0 - t) * w + t * np.eye(dim) / dim
    return DensityOperator(w)


def random_pair(rng: np.random.Generator, dim: int) -> HypothesisPair:
    """Generic full-rank hypothesis pair with equal cost weights."""
    return HypothesisPair(
        random_density(rng, dim, PAIR_MIN_EIGENVALUE),
        random_density(rng, dim, PAIR_MIN_EIGENVALUE),
        0.5,
        0.5,
    )


def random_spectrum(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Probability vector with strictly separated entries, descending.

    The smallest entry and every consecutive gap are at least
    ``1 / (dim * (dim + 1))``, so the spectrum is simple by construction.
    """
    raw = rng.uniform(1.0, 2.0, dim)
    levels = np.cumsum(raw)
    p = levels / levels.sum()
    return p[::-1].copy()


def random_commuting_pair(rng: np.random.Generator, dim: int) -> HypothesisPair:
    """Pair diagonal in a shared Haar-random eigenbasis."""
    u = haar_unitary(rng, dim)
    p0 = random_spectrum(rng, dim)
    p1 = random_spectrum(rng, dim)
    rng.shuffle(p1)
    rho0 = DensityOperator(hermitian_part((u * p0) @ u.conj().T))
    rho1 = DensityOperator(hermitian_part((u * p1) @ u.conj().T))
    return HypothesisPair(rho0, rho1, 0.5, 0.5)


def near_commuting_pair(rng: np.random.Generator, dim: int) -> HypothesisPair:
    """Almost-commuting pair: shared basis for rho1, slightly rotated for rho0.

    ``rho1`` gets a well-separated spectrum; ``rho0``'s eigenbasis is tilted
    by exp(i * NEAR_COMMUTING_STRENGTH * K) for a random unit-norm Hermitian
    K, which keeps the off-diagonal projector overlaps small relative to the spectral gaps.
    """
    u = haar_unitary(rng, dim)
    p1 = random_spectrum(rng, dim)
    p0 = random_spectrum(rng, dim)
    rng.shuffle(p0)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    k = hermitian_part(g)
    k = k / max(np.linalg.norm(k, 2), 1e-12)
    w, vk = np.linalg.eigh(k)
    tilt = (vk * np.exp(1j * NEAR_COMMUTING_STRENGTH * w)) @ vk.conj().T
    u0 = tilt @ u
    rho1 = DensityOperator(hermitian_part((u * p1) @ u.conj().T))
    rho0 = DensityOperator(hermitian_part((u0 * p0) @ u0.conj().T))
    return HypothesisPair(rho0, rho1, 0.5, 0.5)


def random_projector(rng: np.random.Generator, dim: int, rank: int | None = None) -> ProjectorMeasurement:
    """Projector onto a Haar-random subspace; rank uniform over 0..dim when unset."""
    if rank is None:
        rank = int(rng.integers(0, dim + 1))
    if not 0 <= rank <= dim:
        raise ValueError(f"rank must lie in [0, {dim}], got {rank}")
    if rank == 0:
        return ProjectorMeasurement.zero(dim)
    u = haar_unitary(rng, dim)
    return ProjectorMeasurement.from_columns(u[:, :rank])
