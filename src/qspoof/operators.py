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
    arr = as_matrix(a)
    return (arr + arr.conj().T) / 2.0


def require_hermitian(a, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate conjugate symmetry within ``tol`` and return the symmetrized matrix.

    Raises
    ------
    NonHermitianError
        If any entry of ``A - A^dagger`` exceeds ``tol`` in magnitude, or the
        matrix contains non-finite entries.
    """
    arr = as_matrix(a)
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise NonHermitianError("matrix contains non-finite entries")
    dev = float(np.max(np.abs(arr - arr.conj().T))) if arr.size else 0.0
    if dev > tol:
        raise NonHermitianError(
            f"matrix is not Hermitian: max |A - A^dagger| = {dev:.3e} > {tol:.1e}"
        )
    return hermitian_part(arr)


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


def _descending(w: np.ndarray, v: np.ndarray) -> SpectralDecomposition:
    order = np.argsort(w)[::-1]
    return SpectralDecomposition(_read_only(w[order]), _read_only(v[:, order]))


def _eigh_descending(arr: np.ndarray) -> SpectralDecomposition:
    return _descending(*np.linalg.eigh(arr))


def spectral_decompose(a, tol: float = HERMITIAN_TOL) -> SpectralDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending.

    A ``DensityOperator`` hands back the spectrum it computed when it was
    validated; anything else is checked for Hermiticity within ``tol`` and
    decomposed.  Degenerate eigenspaces come back with an arbitrary
    orthonormal basis, which every downstream consumer must (and does)
    tolerate.
    """
    if isinstance(a, DensityOperator):
        return a.spectrum
    return _eigh_descending(require_hermitian(a, tol))


@dataclass(frozen=True, eq=False)
class SupportLog:
    """ln(rho) restricted to the support, plus the support projector and rank.

    Both arrays are read-only: a ``DensityOperator`` keeps its support log
    per cutoff and hands the same object to every caller.
    """

    matrix: np.ndarray
    projector: np.ndarray
    rank: int


def support_log(rho, eps: float = EIGEN_ZERO_TOL) -> SupportLog:
    """Logarithm of a PSD operator on its support; zero on the kernel.

    A ``DensityOperator`` computes its support log at most once per cutoff
    ``eps``, from its stored spectrum, and keeps it for its own lifetime;
    anything else is decomposed on every call.

    Parameters
    ----------
    rho : operator-like
        Positive semidefinite matrix (a density operator in practice).
    eps : float
        Eigenvalues at or below ``eps`` are treated as zero and excluded
        from the support.

    Returns
    -------
    SupportLog
        ``matrix`` is sum_j ln(w_j) |v_j><v_j| over eigenvalues w_j > eps,
        ``projector`` the corresponding support projector, ``rank`` its rank.
    """
    if not isinstance(rho, DensityOperator):
        return _support_log(spectral_decompose(rho), eps)
    log = rho._support_logs.get(eps)
    if log is None:
        log = rho._support_logs[eps] = _support_log(rho.spectrum, eps)
    return log


def _support_log(dec: SpectralDecomposition, eps: float) -> SupportLog:
    radius = float(np.abs(dec.eigenvalues).max(initial=0.0))
    if dec.eigenvalues[-1] < -PSD_TOL * max(1.0, radius):
        raise ValueError(
            f"operator is not positive semidefinite: eigenvalue {dec.eigenvalues[-1]:.3e}"
        )
    keep = dec.eigenvalues > eps
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise ValueError("operator is numerically zero; no support to take a log on")
    w = dec.eigenvalues[keep]
    v = dec.eigenvectors[:, keep]
    log = hermitian_part((v * np.log(w)) @ v.conj().T)
    proj = hermitian_part(v @ v.conj().T)
    return SupportLog(_read_only(log), _read_only(proj), rank)


def trace_product(a, b, imag_tol: float = 1e-10) -> float:
    """Real part of Tr(AB) for Hermitian A, B.

    The imaginary residue of the trace is asserted to be at most
    ``imag_tol``; anything larger indicates non-Hermitian input and raises.
    """
    am = as_matrix(a)
    bm = as_matrix(b)
    if am.shape != bm.shape:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    t = complex(np.einsum("ij,ji->", am, bm))
    if abs(t.imag) > imag_tol:
        raise ValueError(f"trace has imaginary residue {t.imag:.3e} > {imag_tol:.1e}")
    return t.real


def relative_entropy(nu1, nu0, eps: float = EIGEN_ZERO_TOL) -> float:
    """Quantum relative entropy S(nu1 || nu0) = Tr nu1 (ln nu1 - ln nu0).

    Returns ``math.inf`` (explicit sentinel) when some eigenvector of nu1
    with eigenvalue above ``eps`` carries more than ``SUPPORT_LEAK_TOL``
    of its weight outside the support of nu0.
    """
    m1 = as_matrix(nu1)
    m0 = as_matrix(nu0)
    if m1.shape != m0.shape:
        raise ValueError(f"dimension mismatch: {m1.shape} vs {m0.shape}")
    dec1 = spectral_decompose(nu1)
    log0 = support_log(nu0, eps)
    keep = dec1.eigenvalues > eps
    w = dec1.eigenvalues[keep]
    v = dec1.eigenvectors[:, keep]
    # support condition: each retained eigenvector of nu1 must lie in supp(nu0)
    leak = 1.0 - np.einsum("ji,ji->i", v.conj(), log0.projector @ v).real
    if np.any(leak > SUPPORT_LEAK_TOL):
        return math.inf
    ent1 = float(np.dot(w, np.log(w)))
    cross = trace_product(m1, log0.matrix)
    return ent1 - cross


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive semidefinite Hermitian matrix.

    Construction validates Hermiticity (tolerance ``HERMITIAN_TOL``), trace
    one (``TRACE_TOL``) and positivity (eigenvalues >= -``PSD_TOL``), then
    stores the exactly symmetrized matrix read-only.  The eigendecomposition
    that the positivity check computes is kept as ``spectrum`` (descending,
    read-only); ``spectral_decompose`` hands it to every later consumer
    instead of decomposing the matrix again.  A state the attack layer
    builds from a spectrum it already knows (``_from_spectrum``) keeps
    that spectrum and is never decomposed.  ``support_log`` likewise
    builds the state's support log (``ln rho`` on the support, projector,
    rank) lazily, once per cutoff, and keeps it with the state.
    """

    matrix: np.ndarray
    spectrum: SpectralDecomposition = field(init=False, repr=False)
    _support_logs: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        m = require_hermitian(self.matrix)
        self._settle(m, _eigh_descending(m))

    @classmethod
    def _from_spectrum(cls, matrix, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> "DensityOperator":
        """A state built with its eigendecomposition already known.

        Runs the public constructor's Hermiticity and trace checks on
        ``matrix`` and its positivity check on ``eigenvalues``, and keeps
        the given pairs (sorted descending) as ``spectrum`` instead of
        decomposing the matrix.  The caller vouches that the columns of
        ``eigenvectors`` are orthonormal eigenvectors of ``matrix``.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "_support_logs", {})
        state._settle(require_hermitian(matrix), _descending(eigenvalues, eigenvectors))
        return state

    def _settle(self, m: np.ndarray, spectrum: SpectralDecomposition) -> None:
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density operator trace {tr!r} deviates from 1 by more than {TRACE_TOL:.1e}")
        wmin = float(spectrum.eigenvalues[-1])
        if wmin < -PSD_TOL:
            raise ValueError(
                f"density operator is not PSD: smallest eigenvalue {wmin:.6e} < -{PSD_TOL:.1e}"
            )
        object.__setattr__(self, "matrix", _read_only(m))
        object.__setattr__(self, "spectrum", spectrum)

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

    def eigenvalues(self) -> np.ndarray:
        """Spectrum in descending order."""
        return spectral_decompose(self).eigenvalues
