"""Seeded random instance generators for verification suites and tests.

Each generator draws its random numbers in one fixed order, so a seed
fixes the instance.  The unit of the stream is one d x d complex
Gaussian matrix, its real part and then its imaginary part
(``_gaussians``); the Haar and Wishart steps (``_haar``, ``_wishart``)
take a whole stack of such matrices, each member bit-identical to the
same step on that matrix alone, and ``haar_unitary`` and
``random_density`` are the stack of one.  The pair constructors check
their two states as one (2, d, d) stack (``_checked_states``) and keep
the spectra that check computes, so each state still passes every
density-operator check; verify's perturbation check draws its 10
instances as stacks in the same way.
"""

from __future__ import annotations

import numpy as np

from .detection import HypothesisPair, ProjectorMeasurement
from .operators import DensityOperator, _checked_states, _hermitian, hermitian_part

# Spectral floor of each state ``random_pair`` draws.
PAIR_MIN_EIGENVALUE = 1e-3
# Size of the rotation that tilts ``near_commuting_pair``'s rho0 off rho1's eigenbasis.
NEAR_COMMUTING_STRENGTH = 0.05


def _gaussians(rng: np.random.Generator, lead: tuple, dim: int) -> np.ndarray:
    """Complex Gaussian d x d matrices in an array of shape ``lead + (dim, dim)``,
    drawn matrix by matrix in C order, each as its real part then its imaginary part."""
    x = rng.standard_normal((*lead, 2, dim, dim))
    return x[..., 0, :, :] + 1j * x[..., 1, :, :]


def _haar(g: np.ndarray) -> np.ndarray:
    """Haar unitaries via QR of a complex Gaussian matrix or a stack of them."""
    q, r = np.linalg.qr(g)
    # fix the phase convention so the distribution is exactly Haar
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def _wishart(g: np.ndarray, min_eigenvalue: float = 0.0) -> np.ndarray:
    """Trace-normalized Wishart matrices from a complex Gaussian matrix or a stack,
    optionally mixed toward identity for a spectral floor."""
    dim = g.shape[-1]
    w = g @ g.conj().swapaxes(-1, -2)
    w = _hermitian(w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None])
    if min_eigenvalue > 0.0:
        t = min(1.0, dim * min_eigenvalue)
        w = (1.0 - t) * w + t * np.eye(dim) / dim
    return w


def _pair(states: np.ndarray) -> HypothesisPair:
    """Equal-weight pair from a (2, d, d) stack (rho0, rho1), checked as one stack."""
    m, w, x = _checked_states(states)
    rho0, rho1 = (DensityOperator._from_spectrum(m[i], w[i], x[i]) for i in range(2))
    return HypothesisPair(rho0, rho1, 0.5, 0.5)


def _diagonal_in(u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The matrices u diag(p) u^dagger, one per row of ``p`` (``u`` one unitary or one per row)."""
    return (u * p[..., None, :]) @ u.conj().swapaxes(-1, -2)


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    return _haar(_gaussians(rng, (), dim))


def random_density(rng: np.random.Generator, dim: int, min_eigenvalue: float = 0.0) -> DensityOperator:
    """Normalized Wishart state, optionally mixed toward identity for a spectral floor."""
    return DensityOperator(_wishart(_gaussians(rng, (), dim), min_eigenvalue))


def random_pair(rng: np.random.Generator, dim: int) -> HypothesisPair:
    """Generic full-rank hypothesis pair with equal cost weights."""
    return _pair(_wishart(_gaussians(rng, (2,), dim), PAIR_MIN_EIGENVALUE))


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
    return _pair(_diagonal_in(u, np.stack([p0, p1])))


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
    k = hermitian_part(_gaussians(rng, (), dim))
    k = k / max(np.linalg.norm(k, 2), 1e-12)
    w, vk = np.linalg.eigh(k)
    tilt = (vk * np.exp(1j * NEAR_COMMUTING_STRENGTH * w)) @ vk.conj().T
    return _pair(_diagonal_in(np.stack([tilt @ u, u]), np.stack([p0, p1])))


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
