"""Operator-algebra layer: decompositions, exp/log, entropy, validation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspoof import (
    DensityOperator,
    NonHermitianError,
    SpectralDecomposition,
    hermitian_part,
    relative_entropy,
    require_hermitian,
    spectral_decompose,
    trace_product,
)

from qspoof import operators

RECONSTRUCT_TOL = 1e-10
ENTROPY_TOL = 1e-12
LN2 = 0.6931471805599453


def rebuild(w, v):
    """V diag(w) V^dagger from eigenvalues and eigenvector columns."""
    return (v * w) @ v.conj().T


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2


def random_state(rng, dim, floor=1e-3):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    m = m / np.trace(m).real
    m = (1 - floor * dim) * m + floor * np.eye(dim)
    return DensityOperator(m)


# ---------------------------------------------------------------- spectral

def test_spectral_identity():
    dec = spectral_decompose(np.eye(3))
    assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)
    assert np.allclose(rebuild(dec.eigenvalues, dec.eigenvectors), np.eye(3), atol=1e-14)


def test_spectral_orders_descending():
    dec = spectral_decompose(np.diag([-0.54, 0.9, -0.36]))
    assert np.allclose(dec.eigenvalues, [0.9, -0.36, -0.54], atol=1e-14)


def test_spectral_pauli_x():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dec = spectral_decompose(x)
    assert np.allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-14)
    for j in range(2):
        v = dec.eigenvectors[:, j]
        assert np.allclose(x @ v, dec.eigenvalues[j] * v, atol=1e-14)
    assert np.allclose(rebuild(dec.eigenvalues, dec.eigenvectors), x, atol=1e-14)


def test_spectral_rejects_nonhermitian():
    with pytest.raises(NonHermitianError):
        spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectral_apply_polynomial():
    a = np.diag([2.0, 3.0])
    dec = spectral_decompose(a)
    sq = rebuild(dec.eigenvalues**2, dec.eigenvectors)
    assert np.allclose(sq, np.diag([4.0, 9.0]), atol=1e-14)


def test_spectral_results_read_only():
    dec = spectral_decompose(np.eye(2))
    with pytest.raises(ValueError):
        dec.eigenvalues[0] = 5.0
    with pytest.raises(ValueError):
        dec.eigenvectors[0, 0] = 5.0


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=8))
def test_spectral_reconstruction_property(seed, dim):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, dim)
    dec = spectral_decompose(h)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-13)
    assert np.linalg.norm(rebuild(dec.eigenvalues, dec.eigenvectors) - h) <= RECONSTRUCT_TOL * max(1.0, np.linalg.norm(h))
    assert abs(dec.eigenvalues.sum() - np.trace(h).real) <= 1e-9 * max(1.0, abs(np.trace(h).real))
    # eigenvector columns stay orthonormal
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    assert np.allclose(gram, np.eye(dim), atol=1e-10)


def test_hermitian_part_symmetrizes():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    h = hermitian_part(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 3.0]])


def test_require_hermitian_tolerance():
    almost = np.array([[1.0, 1e-12], [0.0, 1.0]])
    require_hermitian(almost)  # within default tolerance
    with pytest.raises(NonHermitianError):
        require_hermitian(np.array([[1.0, 1e-3], [0.0, 1.0]]))


def test_require_hermitian_rejects_nonfinite():
    with pytest.raises(ValueError):
        require_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_require_hermitian_rejects_nonsquare():
    with pytest.raises(ValueError):
        require_hermitian(np.zeros((2, 3)))


HALF_MAX = float(np.finfo(float).max) / 2.0
PAST_HALF = math.nextafter(HALF_MAX, math.inf)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "matrix,part",
    [
        pytest.param([[1e308, 1e308], [1e308, -1e308]], "1e+308", id="real"),
        pytest.param([[0.5, -1e308j], [1e308j, 0.5]], "1e+308", id="imaginary"),
        pytest.param([[0.5, 0.0], [0.0, -PAST_HALF]], repr(-PAST_HALF), id="just-past-half"),
    ],
)
def test_an_entry_whose_symmetrization_overflows_is_refused_by_name(matrix, part):
    # every entry is finite, but (A + A^dagger)/2 overflows; the state used
    # to come out as inf+nanj and pass the trace and PSD checks on NaN
    message = rf"^matrix entry part {re.escape(part)} lies beyond half the largest float: A \+ A\^dagger would overflow$"
    for build in (require_hermitian, DensityOperator, hermitian_sum_checked_as_stack):
        with pytest.raises(ValueError, match=message) as caught:
            build(np.array(matrix, dtype=complex))
        assert not isinstance(caught.value, NonHermitianError)


def hermitian_sum_checked_as_stack(m):
    return operators._checked_states(np.stack([np.eye(2) / 2, m]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_entries_up_to_half_the_largest_float_symmetrize():
    m = np.array([[HALF_MAX, -HALF_MAX], [-HALF_MAX, 1.0]], dtype=complex)
    assert require_hermitian(m).tolist() == m.tolist()
    with pytest.raises(NonHermitianError, match="non-finite"):
        require_hermitian(np.array([[1.0, np.inf], [1e308, 1.0]]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_state_whose_trace_overflows_is_refused_without_a_warning():
    # each entry is below half the largest float, their sum is not: the trace used to warn before the refusal
    with pytest.raises(ValueError, match=r"^density operator trace inf deviates from 1 by more than 1\.0e-10$"):
        DensityOperator(np.diag([8e307] * 3))


def test_state_checks_fail_on_nan():
    # a NaN trace or smallest eigenvalue fails its check, as a value out of range does
    nan_state = np.full((1, 2, 2), np.nan, dtype=complex)
    with pytest.raises(ValueError, match="density operator trace nan deviates"):
        operators._check_unit_trace_psd(nan_state, np.zeros(1))
    with pytest.raises(ValueError, match="not PSD: smallest eigenvalue nan"):
        operators._check_unit_trace_psd(np.eye(2)[None] / 2, np.array([np.nan]))


@pytest.mark.parametrize(
    "build",
    [
        lambda: DensityOperator(np.zeros((0, 0))),
        lambda: DensityOperator.maximally_mixed(0),
        lambda: DensityOperator.from_diagonal([]),
        lambda: trace_product(np.zeros((0, 0)), np.zeros((0, 0))),
        lambda: require_hermitian(np.zeros((0, 0))),
        lambda: hermitian_part(np.zeros((0, 0))),
        lambda: spectral_decompose(np.zeros((0, 0))),
    ],
    ids=["state", "maximally-mixed", "from-diagonal", "trace-product", "require-hermitian", "hermitian-part", "spectrum"],
)
def test_an_empty_matrix_is_refused_by_its_shape(build):
    with pytest.raises(ValueError, match=r"^expected a nonempty matrix, got shape \(0, 0\)$"):
        build()


def test_a_state_owns_its_matrix():
    # the constructor keeps the array it symmetrized, never the caller's
    m = np.diag([0.6, 0.4]).astype(complex)
    rho = DensityOperator(m)
    m[0, 0] = 5.0
    assert rho.matrix.tolist() == [[0.6, 0.0], [0.0, 0.4]]
    assert rho.matrix.flags.c_contiguous and not rho.matrix.flags.writeable
    spec = rho.spectrum
    assert spec.eigenvalues.flags.c_contiguous and spec.eigenvectors.flags.c_contiguous


# ---------------------------------------------------------------- entropy

def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(3)
    rho = random_state(rng, 4)
    assert abs(relative_entropy(rho, rho)) <= ENTROPY_TOL


def test_relative_entropy_pure_vs_mixed():
    nu1 = DensityOperator(np.diag([1.0, 0.0]))
    nu0 = DensityOperator(np.eye(2) / 2)
    assert abs(relative_entropy(nu1, nu0) - LN2) <= ENTROPY_TOL


def test_relative_entropy_support_violation_is_infinite():
    nu1 = DensityOperator(np.diag([1.0, 0.0]))
    nu0 = DensityOperator(np.diag([0.0, 1.0]))
    assert math.isinf(relative_entropy(nu1, nu0))


def test_relative_entropy_partial_support_violation():
    nu1 = DensityOperator(np.diag([0.5, 0.5]))
    nu0 = DensityOperator(np.diag([1.0, 0.0]))
    assert math.isinf(relative_entropy(nu1, nu0))


@pytest.mark.parametrize("leak,finite", [(2e-9, False), (5e-10, True)])
def test_relative_entropy_support_leak_gate(leak, finite):
    # nu1 = |psi><psi| with psi = cos t|0> + sin t|1> puts sin^2 t outside supp(nu0)
    nu0 = DensityOperator.from_diagonal([1.0, 0.0])
    nu1 = DensityOperator.pure([math.sqrt(1.0 - leak), math.sqrt(leak)])
    got = relative_entropy(nu1, nu0)
    if finite:
        assert abs(got) <= ENTROPY_TOL
    else:
        assert got == math.inf


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
def test_relative_entropy_nonnegative_property(seed, dim):
    rng = np.random.default_rng(seed)
    nu1 = random_state(rng, dim)
    nu0 = random_state(rng, dim)
    s = relative_entropy(nu1, nu0)
    assert s >= -1e-9
    # vanishes only when the states coincide
    if s < 1e-10:
        assert np.linalg.norm(nu1.matrix - nu0.matrix) <= 1e-4


def test_relative_entropy_commuting_matches_classical():
    p = np.array([0.7, 0.2, 0.1])
    q = np.array([0.5, 0.3, 0.2])
    nu1 = DensityOperator.from_diagonal(p)
    nu0 = DensityOperator.from_diagonal(q)
    want = float(np.sum(p * np.log(p / q)))
    assert abs(relative_entropy(nu1, nu0) - want) <= 1e-12


@pytest.mark.parametrize(
    "nu0,message",
    [
        (np.zeros((2, 2)), "operator is numerically zero; no support to take a log on"),
        (np.diag([1.0, -0.5]), "operator is not positive semidefinite: eigenvalue -5.000e-01"),
        (np.eye(3) / 3, r"dimension mismatch: \(2, 2\) vs \(3, 3\)"),
    ],
)
def test_relative_entropy_refuses_a_bad_nu0(nu0, message):
    with pytest.raises(ValueError, match=message):
        relative_entropy(np.eye(2) / 2, nu0)


def haar_unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def state_with_spectrum(rng, p, basis=None):
    """U diag(p) U^dagger in a Haar basis, or in the first columns of ``basis``."""
    p = np.asarray(p, dtype=float)
    u = haar_unitary(rng, p.size) if basis is None else basis[:, : p.size] @ haar_unitary(rng, p.size)
    return DensityOperator((u * p) @ u.conj().T)


def dense_relative_entropy(m1, m0):
    """Tr m1 ln m1 - Tr m1 ln m0 with both logs built as matrices on their
    supports, and inf when an eigenvector of m1 in its support leaks more
    than ``SUPPORT_LEAK_TOL`` out of m0's."""
    logs = []
    for m in (m1, m0):
        w, v = np.linalg.eigh(m)
        keep = w > operators.EIGEN_ZERO_TOL
        logs.append(((v[:, keep] * np.log(w[keep])) @ v[:, keep].conj().T, v[:, keep]))
    (log1, v1), (log0, v0) = logs
    projector = v0 @ v0.conj().T
    leak = 1.0 - np.einsum("ji,ji->i", v1.conj(), projector @ v1).real
    if np.any(leak > operators.SUPPORT_LEAK_TOL):
        return math.inf
    return float(np.trace(m1 @ log1).real - np.trace(m1 @ log0).real)


def entropy_pairs(kind, rng, dim):
    if kind == "full rank":
        return random_state(rng, dim), random_state(rng, dim)
    if kind == "nu1 in a rank-deficient nu0":
        u = haar_unitary(rng, dim)
        q = rng.dirichlet(np.ones(dim - 1))
        return state_with_spectrum(rng, rng.dirichlet(np.ones(dim - 1)), u), state_with_spectrum(rng, q, u)
    if kind == "nu1 leaving a rank-deficient nu0":
        nu0 = state_with_spectrum(rng, np.append(rng.dirichlet(np.ones(dim - 1)), 0.0))
        return random_state(rng, dim), nu0
    # "nu1 with a level near 1e-13"
    p = rng.dirichlet(np.ones(dim - 1))
    p = np.append(p * (1.0 - 1e-13), 1e-13)
    return state_with_spectrum(rng, p), random_state(rng, dim)


@pytest.mark.parametrize(
    "kind",
    ["full rank", "nu1 in a rank-deficient nu0", "nu1 leaving a rank-deficient nu0", "nu1 with a level near 1e-13"],
)
def test_relative_entropy_matches_the_dense_logarithms(kind):
    rng = np.random.default_rng(31)
    for dim in (2, 3, 4, 6, 8) * 4:
        nu1, nu0 = entropy_pairs(kind, rng, dim)
        want = dense_relative_entropy(nu1.matrix, nu0.matrix)
        got = relative_entropy(nu1, nu0)
        assert math.isinf(got) == math.isinf(want) == (kind == "nu1 leaving a rank-deficient nu0")
        if math.isfinite(want):
            assert abs(got - want) <= 1e-12


# ---------------------------------------------------------------- traces

def test_trace_product_projector_overlap():
    plus = np.full((2, 2), 0.5)
    zero = np.diag([1.0, 0.0])
    assert abs(trace_product(plus, zero) - 0.5) <= 1e-14


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=6))
def test_trace_product_cyclic_property(seed, dim):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, dim)
    b = random_hermitian(rng, dim)
    assert abs(trace_product(a, b) - trace_product(b, a)) <= 1e-10


def test_trace_product_rejects_imaginary_trace():
    a = np.array([[0.0, 1.0j], [1.0j, 0.0]])  # not Hermitian
    b = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        trace_product(a, b)


# ---------------------------------------------------------------- density operators

def test_density_operator_accepts_valid():
    rho = DensityOperator(np.diag([0.6, 0.4]))
    assert rho.dim == 2
    assert np.allclose(rho.spectrum.eigenvalues, [0.6, 0.4])


def test_density_operator_matrix_read_only():
    rho = DensityOperator(np.diag([0.6, 0.4]))
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 2.0


def test_density_operator_rejects_bad_trace():
    with pytest.raises(ValueError, match="[Tt]race"):
        DensityOperator(np.diag([0.6, 0.6]))


def test_density_operator_rejects_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityOperator(np.diag([1.2, -0.2]))


def test_density_operator_rejects_nonhermitian():
    with pytest.raises(NonHermitianError):
        DensityOperator(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_density_operator_pure():
    rho = DensityOperator.pure(np.array([1.0, 1.0]) / math.sqrt(2))
    assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-14)


def test_density_operator_pure_normalizes():
    rho = DensityOperator.pure(np.array([2.0, 0.0]))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_density_operator_maximally_mixed():
    rho = DensityOperator.maximally_mixed(3)
    assert np.allclose(rho.matrix, np.eye(3) / 3, atol=1e-15)


def test_density_operator_symmetrizes_roundoff():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 1e-13j  # sub-tolerance asymmetry from arithmetic
    rho = DensityOperator(m)
    assert np.allclose(rho.matrix, rho.matrix.conj().T)


def test_density_operator_keeps_its_spectrum():
    rho = random_state(np.random.default_rng(11), 5)
    fresh = spectral_decompose(rho.matrix)
    assert spectral_decompose(rho) is rho.spectrum
    assert np.array_equal(rho.spectrum.eigenvalues, fresh.eigenvalues)
    assert np.array_equal(rho.spectrum.eigenvectors, fresh.eigenvectors)
    with pytest.raises(ValueError):
        rho.spectrum.eigenvalues[0] = 2.0
    with pytest.raises(ValueError):
        rho.spectrum.eigenvectors[0, 0] = 2.0


def test_checked_stack_equals_each_state_checked_alone():
    rng = np.random.default_rng(13)
    states = [random_state(rng, 4) for _ in range(6)]
    m, w, x = operators._checked_states(np.stack([s.matrix for s in states]))
    for j, state in enumerate(states):
        assert np.array_equal(m[j], state.matrix)
        assert np.array_equal(w[j], state.spectrum.eigenvalues)
        assert np.array_equal(x[j], state.spectrum.eigenvectors)


@pytest.mark.parametrize(
    "bad,message",
    [
        (np.diag([0.5, 0.6]), "trace 1.1 deviates from 1"),
        (np.diag([1.5, -0.5]), "smallest eigenvalue -5.000000e-01"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
    ],
)
def test_checked_stack_raises_as_its_bad_state_alone(bad, message):
    good = np.eye(2) / 2
    stack = np.stack([good, bad, good]).astype(np.complex128)
    with pytest.raises(ValueError, match=message) as in_stack:
        operators._checked_states(stack)
    with pytest.raises(ValueError) as alone:
        DensityOperator(bad)
    assert str(in_stack.value) == str(alone.value)


def test_relative_entropy_reads_stored_spectra(monkeypatch):
    rng = np.random.default_rng(12)
    a, b = random_state(rng, 4), random_state(rng, 4)
    want = relative_entropy(a.matrix, b.matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("state spectrum recomputed")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert relative_entropy(a, b) == want
