"""Optimal state distortion against a fixed risk-optimal detector.

The interceptor sees which hypothesis is true, replaces the state actually
delivered to the detector, and pays a relative-entropy price for the
distortion.  With the detector's projector ``Pi1`` frozen, the interceptor
minimizes

    Tr(Pi1 rho1') + lam * [S(rho1' || rho1) + S(rho0' || rho0)]

over density operators ``rho1'``, ``rho0'``.  The minimizer is closed-form:
``rho0'`` stays ``rho0`` untouched, and

    rho1' = exp(ln rho1 - Pi1/lam) / Z1,   Z1 = Tr exp(ln rho1 - Pi1/lam),

evaluated entirely on the support of ``rho1``.  ``oracle_attack`` provides
an independent numerical minimizer over the same feasible set for
cross-checking; it never touches the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import HypothesisPair, _checked_rate
from .operators import (
    DensityOperator,
    EIGEN_ZERO_TOL,
    as_matrix,
    hermitian_part,
    relative_entropy,
    spectral_decompose,
    trace_product,
    _read_only,
)

# Default tolerance when flagging bound violations.
BOUND_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class AttackerSolution:
    """Distorted state pair with its normalizer, genuine rates and utility."""

    rho1_prime: DensityOperator
    rho0_prime: DensityOperator
    lam: float
    z1: float
    genuine_p_detect: float
    genuine_p_false: float
    utility: float


class OracleConvergenceError(RuntimeError):
    """Numerical minimizer ran out of iterations; carries the best iterate."""

    def __init__(self, message: str, best_state: DensityOperator, best_utility: float, iterations: int):
        super().__init__(message)
        self.best_state = best_state
        self.best_utility = best_utility
        self.iterations = iterations


def attacker_utility(rho1_prime, rho0_prime, pi1, pair: HypothesisPair, lam: float) -> float:
    """Interceptor objective Tr(Pi1 rho1') + lam (S(rho1'||rho1) + S(rho0'||rho0)).

    Returns ``math.inf`` when either distorted state escapes the support of
    the state it replaces (infinite relative-entropy price).
    """
    if lam <= 0:
        raise ValueError("distortion price lam must be positive")
    s1 = relative_entropy(rho1_prime, pair.rho1)
    s0 = relative_entropy(rho0_prime, pair.rho0)
    if math.isinf(s1) or math.isinf(s0):
        return math.inf
    return trace_product(pi1, rho1_prime) + lam * (s1 + s0)


def _support_chart(rho1: DensityOperator, support_eps: float):
    """Eigenvalues > support_eps (descending) and their eigenvector columns."""
    dec = spectral_decompose(rho1)
    keep = dec.eigenvalues > support_eps
    return dec.eigenvalues[keep], dec.eigenvectors[:, keep]


def optimal_attack(
    pair: HypothesisPair,
    pi1,
    lam: float,
    support_eps: float = EIGEN_ZERO_TOL,
) -> AttackerSolution:
    """Closed-form minimizer of the interceptor objective for price ``lam``.

    The replacement for ``rho1`` is exp(ln rho1 - Pi1/lam)/Z1 computed in
    the eigenbasis of ``rho1`` restricted to eigenvalues above
    ``support_eps``; ``rho0`` is left untouched, so the genuine false-alarm
    rate equals the counterfactual one exactly.
    """
    if lam <= 0:
        raise ValueError("distortion price lam must be positive")
    pi_m = as_matrix(pi1)
    r, v = _support_chart(pair.rho1, support_eps)
    pi_s = hermitian_part(v.conj().T @ pi_m @ v)
    h = np.diag(np.log(r).astype(np.complex128)) - pi_s / lam
    w, u = np.linalg.eigh(h)
    ew = np.exp(w)
    z1 = float(np.sum(ew))
    sigma = hermitian_part((u * (ew / z1)) @ u.conj().T)
    rho1_prime = DensityOperator(hermitian_part(v @ sigma @ v.conj().T))
    gpd = _checked_rate(trace_product(pi_m, rho1_prime.matrix))
    gpf = _checked_rate(trace_product(pi_m, pair.rho0.matrix))
    utility = attacker_utility(rho1_prime, pair.rho0, pi_m, pair, lam)
    return AttackerSolution(
        rho1_prime=rho1_prime,
        rho0_prime=pair.rho0,
        lam=lam,
        z1=z1,
        genuine_p_detect=gpd,
        genuine_p_false=gpf,
        utility=utility,
    )


def detection_bounds(p_detect: float, lam: float) -> tuple[float, float]:
    """Two-sided envelope for the genuine detection rate.

    The upper bound ``p_detect`` is unconditional.  The lower bound
    ``p_detect * exp(-1/lam)`` is guaranteed for commuting pairs, and holds
    empirically in the noncommuting case for lam >= 2 whenever the spectral
    gap condition reported by :func:`gap_condition_sums` is satisfied.
    """
    if lam <= 0:
        raise ValueError("distortion price lam must be positive")
    return p_detect * math.exp(-1.0 / lam), p_detect


@dataclass(frozen=True)
class BoundReport:
    """Genuine detection rate against its envelope, with satisfaction flags."""

    p_detect: float
    genuine_p_detect: float
    lam: float
    lower: float
    upper: float
    lower_satisfied: bool
    upper_satisfied: bool

    @classmethod
    def evaluate(
        cls, p_detect: float, genuine_p_detect: float, lam: float, tol: float = BOUND_TOL
    ) -> "BoundReport":
        lower, upper = detection_bounds(p_detect, lam)
        return cls(
            p_detect=p_detect,
            genuine_p_detect=genuine_p_detect,
            lam=lam,
            lower=lower,
            upper=upper,
            lower_satisfied=genuine_p_detect >= lower - tol,
            upper_satisfied=genuine_p_detect <= upper + tol,
        )


# ---------------------------------------------------------------------------
# independent numerical minimizer


def _exp_divided_differences(w: np.ndarray) -> np.ndarray:
    """First divided differences of exp at the points w (Daleckii-Krein kernel).

    Entry (i, j) is (e^wi - e^wj)/(wi - wj), continued as e^wi on the
    diagonal; evaluated stably as exp(mean) * sinh(half-gap)/half-gap.
    """
    half = 0.5 * (w[:, None] - w[None, :])
    mean = 0.5 * (w[:, None] + w[None, :])
    small = np.abs(half) < 1e-6
    ratio = np.where(small, 1.0 + half * half / 6.0, np.sinh(np.where(small, 1.0, half)) / np.where(small, 1.0, half))
    return np.exp(mean) * ratio


def _chart_value_grad(h: np.ndarray, pi_s: np.ndarray, log_r: np.ndarray, lam: float):
    """Objective and gradient at chart point ``h`` (Hermitian, support basis).

    The state is sigma = e^h / Z over the support of rho1; the objective is
    Tr(pi_s sigma) + lam * S(sigma || diag(r)).  Gradients use the Frechet
    derivative of exp expressed through divided differences.
    """
    w, u = np.linalg.eigh(h)
    ew = np.exp(w)
    z = float(np.sum(ew))
    log_z = math.log(z)
    pi_t = u.conj().T @ pi_s @ u
    l_t = (u.conj().T * log_r) @ u  # U^dag diag(log_r) U
    t_pi = float(np.real(np.dot(ew, np.diag(pi_t).real)))
    # Tr(e^h (h - L)) evaluated in the eigenbasis of h
    t2 = float(np.dot(ew, w - np.diag(l_t).real))
    value = t_pi / z + lam * (t2 / z - log_z)

    phi = _exp_divided_differences(w)
    exp_h = (u * ew) @ u.conj().T
    grad_pi = u @ (pi_t * phi) @ u.conj().T
    grad_t2 = u @ ((np.diag(w.astype(np.complex128)) - l_t) * phi) @ u.conj().T + exp_h
    grad = (
        grad_pi / z
        - (t_pi / z**2) * exp_h
        + lam * (grad_t2 / z - (t2 / z**2) * exp_h)
        - (lam / z) * exp_h
    )
    return value, hermitian_part(grad)


def _chart_value(h: np.ndarray, pi_s: np.ndarray, log_r: np.ndarray, lam: float) -> float:
    w, u = np.linalg.eigh(h)
    if float(w[-1]) > 700.0:
        # a wildly overshot line-search trial; report +inf instead of overflowing
        return math.inf
    ew = np.exp(w)
    z = float(np.sum(ew))
    pi_t = u.conj().T @ pi_s @ u
    l_diag = np.einsum("ji,j,ji->i", u.conj(), log_r, u).real
    t_pi = float(np.real(np.dot(ew, np.diag(pi_t).real)))
    t2 = float(np.dot(ew, w - l_diag))
    return t_pi / z + lam * (t2 / z - math.log(z))


def oracle_attack(
    pair: HypothesisPair,
    pi1,
    lam: float,
    iterations: int = 5000,
    tol: float = 1e-14,
    support_eps: float = EIGEN_ZERO_TOL,
) -> DensityOperator:
    """Numerical minimizer of the interceptor objective, independent of the closed form.

    Optimizes over the exponential-family chart sigma = exp(H)/Tr exp(H)
    with H Hermitian on the support of ``rho1``, by gradient descent with
    a backtracking (Armijo) line search; the initial step of each iteration
    comes from the previous secant pair.  Descent starts at the undistorted
    state H = ln rho1 and stops once an accepted step improves the utility
    by less than ``tol``.

    Raises
    ------
    OracleConvergenceError
        After ``iterations`` accepted steps without meeting ``tol``; the
        error carries the best iterate and its utility.
    """
    if lam <= 0:
        raise ValueError("distortion price lam must be positive")
    pi_m = as_matrix(pi1)
    r, v = _support_chart(pair.rho1, support_eps)
    pi_s = hermitian_part(v.conj().T @ pi_m @ v)
    log_r = np.log(r)

    def lift(h: np.ndarray) -> DensityOperator:
        w, u = np.linalg.eigh(h)
        ew = np.exp(w)
        sigma = hermitian_part((u * (ew / ew.sum())) @ u.conj().T)
        return DensityOperator(hermitian_part(v @ sigma @ v.conj().T))

    h = np.diag(log_r.astype(np.complex128))
    value, grad = _chart_value_grad(h, pi_s, log_r, lam)
    step = 1.0
    improvement = math.inf
    for _ in range(iterations):
        gnorm2 = float(np.vdot(grad, grad).real)
        if gnorm2 <= 1e-28:
            return lift(h)
        trial = step
        accepted = False
        for _ in range(80):
            h_new = h - trial * grad
            v_new = _chart_value(h_new, pi_s, log_r, lam)
            if v_new <= value - 1e-4 * trial * gnorm2:
                accepted = True
                break
            trial *= 0.5
        if not accepted:
            # no representable step improves the objective: converged in float
            return lift(h)
        improvement = value - v_new
        v_next, grad_new = _chart_value_grad(h_new, pi_s, log_r, lam)
        # secant-based initial step for the next iteration (Barzilai-Borwein)
        s = h_new - h
        y = grad_new - grad
        sy = float(np.vdot(s, y).real)
        if sy > 0:
            step = min(max(float(np.vdot(s, s).real) / sy, 1e-8), 1e3)
        else:
            step = min(trial * 2.0, 1e3)
        h, value, grad = h_new, v_next, grad_new
        if improvement < tol:
            return lift(h)
    best = lift(h)
    raise OracleConvergenceError(
        f"no convergence after {iterations} iterations (last improvement {improvement:.3e})",
        best_state=best,
        best_utility=attacker_utility(best, pair.rho0, pi_m, pair, lam),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# perturbation diagnostics


def gap_condition_sums(rho1: DensityOperator, pi1) -> np.ndarray:
    """Per-level sums sum_{j != i} |<phi_i|Pi1|phi_j>| / |r_i - r_j|.

    The first-order eigenvalue estimate is trustworthy when every entry is
    below one.  Degenerate pairs of eigenvalues produce ``inf`` entries.
    """
    pi_m = as_matrix(pi1)
    dec = spectral_decompose(rho1)
    v = dec.eigenvectors
    r = dec.eigenvalues
    overlap = np.abs(v.conj().T @ pi_m @ v)
    gaps = np.abs(r[:, None] - r[None, :])
    off = ~np.eye(r.shape[0], dtype=bool)
    degenerate = off & (gaps == 0.0)
    terms = np.divide(overlap, gaps, out=np.zeros_like(gaps), where=off & ~degenerate)
    out = terms.sum(axis=1)
    out[degenerate.any(axis=1)] = math.inf
    return out


@dataclass(frozen=True, eq=False)
class PerturbationReport:
    """Exact spectrum of ln rho1 - Pi1/lam against its first-order estimate.

    ``exact[i]`` is the eigenvalue matched (by eigenvector overlap) to the
    i-th descending eigenvector of rho1; ``estimate[i]`` is
    ln r_i - beta_i/lam and ``residual`` their difference.  ``applicable``
    is False when rho1 is rank-deficient, its spectrum is not simple, or
    the overlap matching was ambiguous; residuals are still reported.
    """

    lam: float
    r1: np.ndarray
    beta: np.ndarray
    exact: np.ndarray
    estimate: np.ndarray
    residual: np.ndarray
    match_overlap: np.ndarray
    cluster_flags: np.ndarray
    min_gap: float
    gap_sums: np.ndarray
    gap_condition_holds: bool
    full_rank: bool
    simple_spectrum: bool
    matching_ok: bool

    @property
    def applicable(self) -> bool:
        return self.full_rank and self.simple_spectrum and self.matching_ok

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual))) if self.residual.size else 0.0


def perturbation_estimate(
    pair: HypothesisPair,
    pi1,
    lam: float,
    support_eps: float = EIGEN_ZERO_TOL,
    cluster_tol: float = 1e-8,
) -> PerturbationReport:
    """First-order eigenvalue diagnostics for the closed-form exponent.

    Compares the exact eigenvalues alpha_j of ln rho1 - Pi1/lam (on the
    support of rho1) with ln r_j - beta_j/lam.  Exact eigenvalues are
    paired to levels of rho1 by maximal eigenvector overlap, so reordering
    caused by the shift cannot corrupt the residuals.  The report flags
    near-degenerate clusters (eigenvalue gaps below ``cluster_tol``) and
    evaluates the trust condition of :func:`gap_condition_sums`.
    """
    if lam <= 0:
        raise ValueError("distortion price lam must be positive")
    pi_m = as_matrix(pi1)
    r, v = _support_chart(pair.rho1, support_eps)
    n = r.shape[0]
    full_rank = n == pair.rho1.dim

    diffs = np.diff(r)
    min_gap = float(np.min(-diffs)) if n > 1 else math.inf
    cluster = np.zeros(n, dtype=bool)
    for i in range(n - 1):
        if r[i] - r[i + 1] < cluster_tol:
            cluster[i] = True
            cluster[i + 1] = True
    simple = not bool(cluster.any())

    pi_v = pi_m @ v
    beta = np.einsum("ji,ji->i", v.conj(), pi_v).real
    estimate = np.log(r) - beta / lam

    pi_s = hermitian_part(v.conj().T @ pi_v)
    exponent = hermitian_part(np.diag(np.log(r).astype(np.complex128)) - pi_s / lam)
    w, u = np.linalg.eigh(exponent)
    # overlap of each exact eigenvector (columns of u, support basis) with e_i
    weights = np.abs(u) ** 2  # weights[i, k] = |<phi_i | alpha_k>|^2
    matched = np.full(n, -1, dtype=int)
    match_overlap = np.zeros(n)
    matching_ok = True
    taken = set()
    for i in range(n):
        k = int(np.argmax(weights[i]))
        matched[i] = k
        match_overlap[i] = float(weights[i, k])
        if k in taken or match_overlap[i] < 0.5:
            matching_ok = False
        taken.add(k)
    exact = w[matched]
    residual = exact - estimate

    gap_sums = gap_condition_sums(pair.rho1, pi_m) if full_rank else np.full(pair.rho1.dim, math.inf)
    gap_holds = bool(np.all(gap_sums < 1.0))

    return PerturbationReport(
        lam=lam,
        r1=_read_only(r),
        beta=_read_only(beta),
        exact=_read_only(exact),
        estimate=_read_only(estimate),
        residual=_read_only(residual),
        match_overlap=_read_only(match_overlap),
        cluster_flags=_read_only(cluster),
        min_gap=min_gap,
        gap_sums=_read_only(gap_sums),
        gap_condition_holds=gap_holds,
        full_rank=full_rank,
        simple_spectrum=simple,
        matching_ok=matching_ok,
    )
