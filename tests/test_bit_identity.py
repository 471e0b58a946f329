"""Byte-level references for the d x d steps of the closed form.

Each test holds a plain numpy expression as its reference and compares
bytes, so a signed zero or a last bit that moves fails it.  The references
are the expressions the code computes: the symmetrization (A + A^dagger)/2,
the exponent diag(ln r) - Pi_s/lam built on a zero matrix, the decision
operator rho1 - tau*rho0 and the residual Pi^2 - Pi.  They equal the code,
and they stay to guard the next rewrite of any of these steps, which must
keep every byte.  The inputs are the edge cases of these steps: radar
projectors with exact +-0.0 entries, a (3 prices x 2 projectors) stack
with one spectrum per projector as ``photon_sweep`` builds it, a
rank-deficient rho1 with a nonempty kernel, and subnormal entries.
"""

import numpy as np
import pytest

from qspoof import DensityOperator, HypothesisPair, RadarParams, build_radar_pair, helstrom_measurement
from qspoof import adversary, detection, operators, radar
from qspoof.sampling import haar_unitary, random_density, random_pair

TINY = 5e-324  # the smallest subnormal
LAMS = np.array([1e-6, 0.7, 3e4, 1e15])


def same(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def old_hermitian(a):
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def old_exponents(r, pi_s, lams):
    """diag(ln r) - Pi_s/lam, ln r written on the diagonal of a zero matrix."""
    n = r.shape[-1]
    log_diag = np.zeros(r.shape + (n,), dtype=np.complex128)
    log_diag.reshape(r.shape[:-1] + (n * n,))[..., :: n + 1] = np.log(r)
    return log_diag - pi_s / lams[:, None, None, None]


def signed_zeros(rng, shape):
    """Complex zeros with random signs on both parts."""
    return rng.choice([0.0, -0.0], size=shape) + 1j * rng.choice([0.0, -0.0], size=shape)


def subnormals(rng, shape):
    """Complex entries that are small multiples of the smallest subnormal, zeros of both signs among them."""
    parts = rng.integers(-3, 4, size=(2,) + shape) * TINY
    return parts[0] + 1j * parts[1]


def radar_projectors():
    """Helstrom projectors of the reference radar pair over a threshold grid (exact +-0.0 entries)."""
    pair = build_radar_pair(RadarParams(n_b=0.4, x=0.9, k=1, l=2), 0.5, 0.5)
    c0, c1 = detection._cost_weights(np.logspace(-2.0, 2.0, 9))
    return pair, detection._helstrom_stack(pair.rho0.matrix, pair.rho1.matrix, c0, c1).projectors


def photon_view():
    """The attack view photon_sweep builds for two signal levels of one rank:
    one spectrum of rho1 and one projector per level."""
    m, w, x = radar._radar_stack(RadarParams(n_b=0.4, x=0.9, k=1, l=2), [2, 3])
    c0, c1 = detection._cost_weights(np.array([1.0]))
    hel = detection._helstrom_stack(m[0], m[1], c0, c1)
    return adversary._attack_view(w[1], x[1], hel.projectors)


def rank_deficient_pair(rng, d=6, rank=3):
    u = haar_unitary(rng, d)
    spectrum = np.zeros(d)
    spectrum[:rank] = rng.uniform(0.1, 1.0, size=rank)
    rho1 = DensityOperator((u * (spectrum / spectrum.sum())) @ u.conj().T)
    return HypothesisPair(random_density(rng, d, 1e-3), rho1, 0.5, 0.5)


def matrices():
    rng = np.random.default_rng(7)
    dense = rng.standard_normal((2, 3, 5, 5)) + 1j * rng.standard_normal((2, 3, 5, 5))
    _, projectors = radar_projectors()
    return {
        "signed-zeros": signed_zeros(rng, (4, 4)),
        "subnormal": subnormals(rng, (4, 4)),
        "radar-projectors": projectors,
        "dense-stack": old_hermitian(dense) + 1e-13 * dense,
        "transposed": old_hermitian(dense[0, 0]).T,
        "d128": old_hermitian(rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))),
    }


@pytest.mark.parametrize("name", list(matrices()))
def test_symmetrization_is_the_old_expression(name):
    a = matrices()[name]
    for out in (operators._hermitian(a), operators._require_hermitian(a)):
        assert same(out, old_hermitian(a))
        assert out.flags.c_contiguous and out is not a


def test_constructed_state_stores_the_old_arrays():
    rng = np.random.default_rng(11)
    for a in (np.diag([0.6, 0.4, 0.0]) + signed_zeros(rng, (3, 3)), random_pair(rng, 5).rho1.matrix.T):
        rho = DensityOperator(a)
        m = old_hermitian(a)
        w, v = np.linalg.eigh(m)
        assert same(rho.matrix, m)
        assert same(rho.spectrum.eigenvalues, np.array(w[::-1]))
        assert same(rho.spectrum.eigenvectors, np.array(v[:, ::-1]))


def test_projector_check_forms_the_old_idempotency_residual(monkeypatch):
    residuals = []
    norm = np.linalg.norm

    def spy(x, *args, **kwargs):
        residuals.append(np.array(x))
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", spy)
    rng = np.random.default_rng(3)
    _, radar_stack = radar_projectors()
    dense = random_pair(rng, 6)
    dense_stack = detection._helstrom_stack(dense.rho0.matrix, dense.rho1.matrix, np.array([0.5]), np.array([0.5])).projectors
    stacks = (radar_stack, dense_stack, photon_view().projectors)
    for stack in stacks:
        residuals.clear()
        m, _ = detection._check_projectors(stack)
        old = old_hermitian(stack)
        assert same(m, old)
        assert len(residuals) == 1 and same(residuals[0], old @ old - old)


def test_helstrom_forms_the_old_decision_operator(monkeypatch):
    seen = []
    check = detection._require_hermitian

    def spy(a):
        seen.append(np.array(a))
        return check(a)

    monkeypatch.setattr(detection, "_require_hermitian", spy)
    pair, _ = radar_projectors()
    m, _, _ = radar._radar_stack(RadarParams(n_b=0.4, x=0.9, k=1, l=2), [2, 3])
    dense = random_pair(np.random.default_rng(5), 4)
    cases = [
        (pair.rho0.matrix, pair.rho1.matrix, detection._cost_weights(np.logspace(-2.0, 2.0, 9))),
        (m[0], m[1], detection._cost_weights(np.array([1.0]))),
        (dense.rho0.matrix, dense.rho1.matrix, detection._cost_weights(np.array([0.3, 1e-310, 2.0]))),
    ]
    for rho0, rho1, (c0, c1) in cases:
        seen.clear()
        detection._helstrom_stack(rho0, rho1, c0, c1)
        taus = c1 / c0
        assert same(seen[0], rho1 - taus[:, None, None] * rho0)


def exponent_cases():
    rng = np.random.default_rng(9)
    pair, projectors = radar_projectors()
    dec = pair.rho1.spectrum
    radar_view = adversary._attack_view(dec.eigenvalues, dec.eigenvectors, projectors[[0, 4, 8]])
    deficient = rank_deficient_pair(rng)
    pi1 = helstrom_measurement(deficient).pi1.matrix
    s = deficient.rho1.spectrum
    deficient_view = adversary._attack_view(s.eigenvalues, s.eigenvectors, pi1[None])
    tiny_pi = subnormals(rng, (1, 3, 3)) * 2**60 + signed_zeros(rng, (1, 3, 3))
    return {
        "radar": (radar_view.r, radar_view.pi_s),
        "photon-3x2": (photon_view().r, photon_view().pi_s),
        "rank-deficient": (deficient_view.r, deficient_view.pi_s),
        "subnormal": (np.array([1.0, 0.5, 1e-300]), old_hermitian(tiny_pi)),
    }


@pytest.mark.parametrize("name", list(exponent_cases()))
def test_exponents_are_the_old_expression(name):
    r, pi_s = exponent_cases()[name]
    for lams in (LAMS, LAMS[:3]):
        out = adversary._exponents(r, pi_s, lams)
        assert same(out, old_exponents(r, pi_s, lams))
        assert out.flags.c_contiguous


def lift_cases():
    rng = np.random.default_rng(13)
    deficient = rank_deficient_pair(rng)
    s = deficient.rho1.spectrum
    pi1 = helstrom_measurement(deficient).pi1.matrix
    pair, projectors = radar_projectors()
    dec = pair.rho1.spectrum
    return {
        "rank-deficient": adversary._attack_view(s.eigenvalues, s.eigenvectors, pi1[None]),
        "photon-3x2": photon_view(),
        "radar": adversary._attack_view(dec.eigenvalues, dec.eigenvectors, projectors[[0, 8]]),
    }


@pytest.mark.parametrize("name", list(lift_cases()))
def test_lifted_state_keeps_the_old_arrays(name):
    view = lift_cases()[name]
    lams = LAMS[:3]
    gibbs = adversary._attack_stack(view, lams).gibbs
    kernel = view.kernel
    if name == "rank-deficient":
        assert kernel.shape[-1] == 3
    for i in range(len(lams)):
        for j in range(gibbs.w.shape[1]):
            k = kernel[j] if kernel.ndim == 3 else kernel
            state = adversary._lifted_state(k, gibbs, (i, j))
            arrays = (state.matrix, state.spectrum.eigenvalues, state.spectrum.eigenvectors)
            old = (
                np.array(gibbs.matrices[i, j]),
                np.array(np.concatenate([gibbs.p[i, j][::-1], np.zeros(k.shape[-1])])),
                np.array(np.hstack([gibbs.columns[i, j][:, ::-1], k])),
            )
            for new, ref in zip(arrays, old):
                assert same(new, ref)
                assert new.flags.c_contiguous and not new.flags.writeable
