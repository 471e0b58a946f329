"""Operator-sum realization of state replacement and channel application."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qspoof import (
    DensityOperator,
    KrausChannel,
    apply_channel,
    completeness_residual,
    realize_channel,
)
from qspoof.operators import _support_rank, spectral_decompose
from qspoof.sampling import haar_unitary, random_density
from qspoof.verify import CHANNEL_TOL

ACTION_TOL = 1e-10
COMPLETENESS_TOL = 1e-10


def test_pure_replacement_two_operators():
    # replacing any qubit state by |0><0| needs exactly |0><0| and |0><1|
    rho = DensityOperator.maximally_mixed(2)
    target = DensityOperator.pure(np.array([1.0, 0.0]))
    ch = realize_channel(rho, target)
    assert len(ch.operators) == 2
    mags = sorted(np.abs(op).sum() for op in ch.operators)
    assert np.allclose(mags, [1.0, 1.0], atol=1e-12)
    for op in ch.operators:
        assert np.allclose(np.abs(op[1, :]), 0.0, atol=1e-12)  # only row 0 hit
    out = apply_channel(ch, rho)
    assert np.linalg.norm(out.matrix - target.matrix) <= ACTION_TOL


def test_self_replacement_acts_as_identity_on_state():
    rng = np.random.default_rng(2)
    rho = random_density(rng, 3, min_eigenvalue=1e-3)
    ch = realize_channel(rho, rho)
    out = apply_channel(ch, rho)
    assert np.linalg.norm(out.matrix - rho.matrix) <= ACTION_TOL


def test_completeness_residual_zero_for_realized():
    rng = np.random.default_rng(4)
    rho = random_density(rng, 4, min_eigenvalue=1e-3)
    target = random_density(rng, 4)
    ch = realize_channel(rho, target)
    assert completeness_residual(ch) <= COMPLETENESS_TOL


def test_corrupted_channel_detected_and_rejected():
    rho = DensityOperator.maximally_mixed(2)
    target = DensityOperator.pure(np.array([1.0, 0.0]))
    ch = realize_channel(rho, target)
    broken = KrausChannel(ch.operators[:1])
    assert abs(completeness_residual(broken) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="completeness"):
        apply_channel(broken, rho)


def test_degenerate_target_spectrum():
    rng = np.random.default_rng(6)
    rho = random_density(rng, 2, min_eigenvalue=1e-3)
    target = DensityOperator.maximally_mixed(2)
    ch = realize_channel(rho, target)
    out = apply_channel(ch, rho)
    assert np.linalg.norm(out.matrix - target.matrix) <= ACTION_TOL


def test_rank_deficient_source_support_basis():
    rho = DensityOperator.from_diagonal([0.7, 0.3, 0.0])
    target = DensityOperator.from_diagonal([0.2, 0.3, 0.5])
    ch = realize_channel(rho, target)
    assert completeness_residual(ch) <= COMPLETENESS_TOL
    out = apply_channel(ch, rho)
    assert np.linalg.norm(out.matrix - target.matrix) <= ACTION_TOL


def test_operator_count_bounded_by_dim_times_rank():
    rng = np.random.default_rng(8)
    rho = random_density(rng, 4, min_eigenvalue=1e-3)
    target = DensityOperator.from_diagonal([0.5, 0.5, 0.0, 0.0])
    ch = realize_channel(rho, target)
    assert len(ch.operators) <= 4 * 2
    out = apply_channel(ch, rho)
    assert np.linalg.norm(out.matrix - target.matrix) <= ACTION_TOL


def test_channel_rejects_dim_mismatch():
    rho2 = DensityOperator.maximally_mixed(2)
    rho3 = DensityOperator.maximally_mixed(3)
    with pytest.raises(ValueError, match="dimension"):
        realize_channel(rho2, rho3)
    ch = realize_channel(rho2, rho2)
    with pytest.raises(ValueError, match="dimension"):
        apply_channel(ch, rho3)


def test_kraus_validation():
    with pytest.raises(ValueError):
        KrausChannel(())
    with pytest.raises(ValueError, match="operator 0 has shape"):
        KrausChannel((np.zeros((2, 3)),))
    with pytest.raises(ValueError, match="operator 1 has shape"):
        KrausChannel((np.eye(2), np.eye(3)))
    with pytest.raises(ValueError, match="operator 1 contains non-finite"):
        KrausChannel((np.eye(2), np.full((2, 2), np.nan)))
    assert KrausChannel((np.eye(3),)).dim == 3
    # any iterable of matrices: a (k, d, d) stack holds k operators, an empty one none
    stack = KrausChannel(np.stack([np.eye(2), np.zeros((2, 2))]))
    assert len(stack.operators) == 2 and stack.dim == 2
    with pytest.raises(ValueError, match="^a channel needs at least one operator$"):
        KrausChannel(np.zeros((0, 2, 2)))


def test_realization_keeps_the_support_levels_only():
    # a weight of 5e-13 is below EIGEN_ZERO_TOL: the channel realizes the
    # two support levels, d * 2 operators, and loses only that mass
    rho = DensityOperator.maximally_mixed(3)
    target = DensityOperator.from_diagonal([0.6, 0.4 - 5e-13, 5e-13])
    ch = realize_channel(rho, target)
    assert len(ch.operators) == 3 * 2
    assert completeness_residual(ch) <= CHANNEL_TOL
    assert np.max(np.abs(apply_channel(ch, rho).matrix - target.matrix)) <= CHANNEL_TOL


def test_channel_sends_every_input_to_the_target():
    # the operators sum over the computational basis, not rho's eigenbasis,
    # so sum E sigma E^dagger = Tr(sigma) target for any state sigma
    rho = DensityOperator.from_diagonal([0.9, 0.1])
    target = DensityOperator.from_diagonal([0.3, 0.7])
    other = DensityOperator.pure(np.array([1.0, 1.0]) / np.sqrt(2))
    ch = realize_channel(rho, target)
    out = apply_channel(ch, other)
    assert np.linalg.norm(out.matrix - target.matrix) <= ACTION_TOL


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=8))
def test_realization_property(seed, dim):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, dim, min_eigenvalue=1e-4)
    target = random_density(rng, dim)
    ch = realize_channel(rho, target)
    assert completeness_residual(ch) <= COMPLETENESS_TOL
    out = apply_channel(ch, rho)
    # apply_channel already enforces the density-operator invariants
    assert isinstance(out, DensityOperator)
    assert np.linalg.norm(out.matrix - target.matrix) <= ACTION_TOL


def _looped_operators(target):
    # one matrix at a time, E_ij = sqrt(p_i) |v_i><e_j| with j inner
    d = target.dim
    dec = spectral_decompose(target)
    ops = []
    for i in range(_support_rank(dec.eigenvalues)):
        col = np.sqrt(dec.eigenvalues[i]) * dec.eigenvectors[:, i]
        for j in range(d):
            e = np.zeros((d, d), dtype=np.complex128)
            e[:, j] = col
            ops.append(e)
    return ops


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_realized_operators_are_one_read_only_array(seed, dim, rank):
    rng = np.random.default_rng(seed)
    if rank == "full":
        target = random_density(rng, dim)
    else:
        weights = np.zeros(dim)
        weights[: dim // 2] = rng.uniform(0.1, 1.0, dim // 2)
        u = haar_unitary(rng, dim)
        target = DensityOperator((u * (weights / weights.sum())) @ u.conj().T)
    ch = realize_channel(DensityOperator.maximally_mixed(dim), target)
    looped = _looped_operators(target)
    assert len(looped) == dim * (dim if rank == "full" else dim // 2)
    assert isinstance(ch.operators, np.ndarray)
    assert ch.operators.dtype == np.complex128 and not ch.operators.flags.writeable
    assert ch.operators.shape == (len(looped), dim, dim)
    assert np.array_equal(ch.operators, np.array(looped))
    for given in (looped, tuple(looped), np.array(looped)):
        stored = KrausChannel(given).operators
        assert stored.shape == ch.operators.shape and not stored.flags.writeable
        assert np.array_equal(stored, ch.operators)


def _random_target(rng, dim, rank):
    if rank == "full":
        return random_density(rng, dim)
    weights = np.zeros(dim)
    weights[: dim // 2] = rng.uniform(0.1, 1.0, dim // 2)
    u = haar_unitary(rng, dim)
    return DensityOperator((u * (weights / weights.sum())) @ u.conj().T)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", range(2, 9))
@pytest.mark.parametrize("rank", ["full", "deficient"])
def test_realized_channel_matches_its_explicit_operators(seed, dim, rank):
    # a realized channel's closed forms against the operator-by-operator
    # sums of a channel built from its own operators
    rng = np.random.default_rng(seed)
    target = _random_target(rng, dim, rank)
    source = random_density(rng, dim)
    ch = realize_channel(source, target)
    explicit = KrausChannel(ch.operators)
    assert abs(completeness_residual(ch) - completeness_residual(explicit)) <= CHANNEL_TOL
    for state in (source, DensityOperator.maximally_mixed(dim), source.matrix):
        out = apply_channel(ch, state).matrix
        assert np.max(np.abs(out - apply_channel(explicit, state).matrix)) <= CHANNEL_TOL
        assert np.max(np.abs(out - target.matrix)) <= CHANNEL_TOL


def test_realized_channel_needs_no_operator_stack():
    # at d = 32 the d * d operators of a full-rank target take d^4 * 16 B
    # = 16 MiB; realizing, sizing, checking and applying the channel must
    # not build them
    rng = np.random.default_rng(11)
    source = random_density(rng, 32)
    target = random_density(rng, 32)
    tracemalloc.start()
    try:
        ch = realize_channel(source, target)
        assert ch.dim == 32
        assert completeness_residual(ch) <= COMPLETENESS_TOL
        apply_channel(ch, source)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
