"""Dense Hermitian operator algebra used throughout the package.

Operators are plain complex numpy arrays (real symmetric matrices are the
special case with zero imaginary part).  Matrix functions are always
evaluated through the spectral decomposition, never through series
expansions, so every result is Hermitian by construction after
symmetrization.  Relative entropy returns ``math.inf`` as an explicit
sentinel when the support condition fails; no float overflow is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Tolerance for accepting an input matrix as Hermitian.
HERMITIAN_TOL = 1e-10
# Eigenvalues with magnitude at or below this count as numerically zero.
EIGEN_ZERO_TOL = 1e-12
# Density operators may carry eigenvalues down to -PSD_TOL from rounding.
PSD_TOL = 1e-10
# Allowed deviation of a density operator's trace from one.
TRACE_TOL = 1e-10
# Imaginary residue of Tr(AB) for Hermitian A, B above which the input is rejected.
TRACE_RESIDUE_TOL = 1e-10
# Mass of nu1 outside the support of nu0 above which S(nu1||nu0) = +inf.
SUPPORT_LEAK_TOL = 1e-9


class NonHermitianError(ValueError):
    """Input matrix violates conjugate symmetry beyond tolerance."""


def as_matrix(a) -> np.ndarray:
    """Return the underlying square complex matrix of an operator-like object.

    Accepts bare arrays, nested sequences, or any object exposing a
    ``matrix`` attribute (``DensityOperator``, ``ProjectorMeasurement``).
    """
    m = getattr(a, "matrix", a)
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def hermitian_part(a) -> np.ndarray:
    """(A + A^dagger)/2 -- exact symmetrization of a square matrix."""
    return _hermitian(as_matrix(a))


def _hermitian(arr: np.ndarray) -> np.ndarray:
    """``hermitian_part`` of every matrix in a stack (last two axes)."""
    return (arr + arr.conj().swapaxes(-1, -2)) / 2.0


def require_hermitian(a) -> np.ndarray:
    """Validate conjugate symmetry within ``HERMITIAN_TOL``; return the symmetrized matrix.

    Raises
    ------
    NonHermitianError
        If any entry of ``A - A^dagger`` exceeds ``HERMITIAN_TOL`` in
        magnitude, or the matrix contains non-finite entries.
    """
    return _require_hermitian(as_matrix(a))


def _require_hermitian(arr: np.ndarray) -> np.ndarray:
    """``require_hermitian`` over a stack of complex matrices (last two axes).

    The whole stack passes or the call raises, naming the worst deviation.
    """
    if not np.isfinite(arr).all():
        raise NonHermitianError("matrix contains non-finite entries")
    adjoint = arr.conj().swapaxes(-1, -2)
    dev = float(np.abs(arr - adjoint).max()) if arr.size else 0.0
    if dev > HERMITIAN_TOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |A - A^dagger| = {dev:.3e} > {HERMITIAN_TOL:.1e}"
        )
    return (arr + adjoint) / 2.0


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _sort_descending(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` output (a matrix or a stack; spectra ascending)
    with each spectrum and its eigenvector columns reversed to descend."""
    return w[..., ::-1], v[..., ::-1]


def spectral_decompose(a) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending.

    A ``DensityOperator`` hands back the spectrum it computed when it was
    validated; anything else is checked for Hermiticity within
    ``HERMITIAN_TOL`` and decomposed.  Degenerate eigenspaces come back
    with an arbitrary orthonormal basis, which every downstream consumer
    must (and does) tolerate.
    """
    if isinstance(a, DensityOperator):
        return a.spectrum
    w, v = _sort_descending(*np.linalg.eigh(require_hermitian(a)))
    return SpectralDecomposition(_read_only(w), _read_only(v))


def _support_rank(w: np.ndarray):
    """How many eigenvalues of a descending spectrum (or of each in a stack)
    lie above ``EIGEN_ZERO_TOL``; the support chart is the slice at it."""
    return (w > EIGEN_ZERO_TOL).sum(axis=-1)


@dataclass(frozen=True, eq=False)
class SupportLog:
    """ln(rho) restricted to the support, plus the support projector and rank.

    Both arrays are read-only.
    """

    matrix: np.ndarray
    projector: np.ndarray
    rank: int


def support_log(rho) -> SupportLog:
    """Logarithm of a PSD operator on its support; zero on the kernel.

    A ``DensityOperator`` supplies its stored spectrum; anything else is
    decomposed.  Eigenvalues at or below ``EIGEN_ZERO_TOL`` are treated as
    zero and excluded from the support.

    Parameters
    ----------
    rho : operator-like
        Positive semidefinite matrix (a density operator in practice).

    Returns
    -------
    SupportLog
        ``matrix`` is sum_j ln(w_j) |v_j><v_j| over eigenvalues
        w_j > ``EIGEN_ZERO_TOL``, ``projector`` the corresponding support
        projector, ``rank`` its rank.
    """
    dec = spectral_decompose(rho)
    radius = float(np.abs(dec.eigenvalues).max(initial=0.0))
    if dec.eigenvalues[-1] < -PSD_TOL * max(1.0, radius):
        raise ValueError(
            f"operator is not positive semidefinite: eigenvalue {dec.eigenvalues[-1]:.3e}"
        )
    rank = int(_support_rank(dec.eigenvalues))
    if rank == 0:
        raise ValueError("operator is numerically zero; no support to take a log on")
    w = dec.eigenvalues[:rank]
    v = dec.eigenvectors[:, :rank]
    log = hermitian_part((v * np.log(w)) @ v.conj().T)
    proj = hermitian_part(v @ v.conj().T)
    return SupportLog(_read_only(log), _read_only(proj), rank)


def trace_product(a, b) -> float:
    """Real part of Tr(AB) for Hermitian A, B.

    The imaginary residue of the trace is asserted to be at most
    ``TRACE_RESIDUE_TOL``; anything larger indicates non-Hermitian input
    and raises.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    return float(_traces(am, bm))


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``trace_product`` of two stacks of matrices, one trace per slice.

    The two stacks are broadcast against each other and brought to one
    shape with a single batch axis before the contraction (see
    ``_filled``), so each slice is summed in the order a lone matrix pair
    is: a trace taken in a stack is bit-identical to the same trace taken
    alone.  An einsum that broadcasts over several batch axes reorders
    the sum instead.
    """
    shape = np.broadcast(a, b).shape
    d = shape[-1]
    t = np.einsum("kij,kji->k", _filled(a, shape).reshape(-1, d, d), _filled(b, shape).reshape(-1, d, d))
    t = t.reshape(shape[:-2])
    residue = np.abs(t.imag)
    if (residue > TRACE_RESIDUE_TOL).any():
        worst = float(t.imag.flat[int(np.argmax(residue))])
        raise ValueError(f"trace has imaginary residue {worst:.3e} > {TRACE_RESIDUE_TOL:.1e}")
    return t.real


def _filled(a: np.ndarray, shape: tuple) -> np.ndarray:
    """``a`` broadcast to ``shape``: a view when only axes of length one are
    added, otherwise a contiguous copy."""
    if a.size == math.prod(shape):
        return a.reshape(shape)
    out = np.empty(shape, dtype=a.dtype)
    out[...] = a
    return out


def relative_entropy(nu1, nu0) -> float:
    """Quantum relative entropy S(nu1 || nu0) = Tr nu1 (ln nu1 - ln nu0).

    Returns ``math.inf`` (explicit sentinel) when some eigenvector of nu1
    with eigenvalue above ``EIGEN_ZERO_TOL`` carries more than
    ``SUPPORT_LEAK_TOL`` of its weight outside the support of nu0.
    """
    m1 = as_matrix(nu1)
    m0 = as_matrix(nu0)
    if m1.shape != m0.shape:
        raise ValueError(f"dimension mismatch: {m1.shape} vs {m0.shape}")
    dec1 = spectral_decompose(nu1)
    log0 = support_log(nu0)
    rank = _support_rank(dec1.eigenvalues)
    w = dec1.eigenvalues[:rank]
    v = dec1.eigenvectors[:, :rank]
    # support condition: each retained eigenvector of nu1 must lie in supp(nu0)
    leak = 1.0 - np.einsum("ji,ji->i", v.conj(), log0.projector @ v).real
    if np.any(leak > SUPPORT_LEAK_TOL):
        return math.inf
    ent1 = float(np.dot(w, np.log(w)))
    cross = trace_product(m1, log0.matrix)
    return ent1 - cross


def _check_unit_trace_psd(m: np.ndarray, wmin) -> None:
    """The density-operator checks after Hermiticity, over a stack of states.

    ``m`` holds symmetrized matrices in its last two axes and ``wmin`` the
    smallest eigenvalue of each.  Raises for the first state whose trace
    deviates from one by more than ``TRACE_TOL`` or whose smallest
    eigenvalue is below ``-PSD_TOL``.
    """
    tr = np.trace(m, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > TRACE_TOL
    if off.any():
        bad = float(np.ravel(tr)[int(np.argmax(off))])
        raise ValueError(f"density operator trace {bad!r} deviates from 1 by more than {TRACE_TOL:.1e}")
    negative = wmin < -PSD_TOL
    if negative.any():
        bad = float(np.ravel(wmin)[int(np.argmax(negative))])
        raise ValueError(f"density operator is not PSD: smallest eigenvalue {bad:.6e} < -{PSD_TOL:.1e}")


def _checked_states(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The density-operator checks over one complex matrix or a stack, with one
    ``eigh``: the symmetrized matrices, their spectra (descending) and
    eigenvector columns, or a raise for the first state that fails."""
    m = _require_hermitian(arr)
    w, x = _sort_descending(*np.linalg.eigh(m))
    _check_unit_trace_psd(m, w[..., -1])
    return m, w, x


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive semidefinite Hermitian matrix.

    Construction validates Hermiticity (tolerance ``HERMITIAN_TOL``), trace
    one (``TRACE_TOL``) and positivity (eigenvalues >= -``PSD_TOL``), then
    stores the exactly symmetrized matrix read-only: ``_checked_states``
    on a stack of one.  The eigendecomposition that the positivity check
    computes is kept as ``spectrum`` (descending, read-only);
    ``spectral_decompose`` hands it to every later consumer instead of
    decomposing the matrix again.  A state built from a spectrum already
    known (``_from_spectrum``) keeps it: the radar states come out of one
    ``_checked_states`` call over their stack, and the attack checks its
    stack of rho1' without a decomposition.
    """

    matrix: np.ndarray
    spectrum: SpectralDecomposition = field(init=False, repr=False)

    def __post_init__(self):
        self._store(*_checked_states(as_matrix(self.matrix)))

    @classmethod
    def _from_spectrum(cls, matrix, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> "DensityOperator":
        """A checked state whose eigendecomposition is already known.

        The caller has run the public constructor's checks on ``matrix``
        (``_checked_states``, or ``_require_hermitian`` and then
        ``_check_unit_trace_psd`` with the smallest of ``eigenvalues``),
        usually on a whole stack of states at once.  The given pairs, which
        the caller passes in descending order, are kept as ``spectrum``
        instead of decomposing the matrix; the caller vouches that the
        columns of ``eigenvectors`` are orthonormal eigenvectors of
        ``matrix``.
        """
        state = object.__new__(cls)
        state._store(matrix, eigenvalues, eigenvectors)
        return state

    def _store(self, m: np.ndarray, w: np.ndarray, x: np.ndarray) -> None:
        object.__setattr__(self, "matrix", _read_only(m))
        object.__setattr__(self, "spectrum", SpectralDecomposition(_read_only(w), _read_only(x)))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_diagonal(cls, probs) -> "DensityOperator":
        p = np.asarray(probs, dtype=float)
        return cls(np.diag(p.astype(np.complex128)))

    @classmethod
    def pure(cls, ket) -> "DensityOperator":
        v = np.asarray(ket, dtype=np.complex128).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValueError("zero vector cannot define a pure state")
        v = v / nrm
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim, dtype=np.complex128) / dim)
