"""Optimal state distortion against a fixed risk-optimal detector.

The interceptor sees which hypothesis is true, replaces the state actually
delivered to the detector, and pays a relative-entropy price for the
distortion.  With the detector's projector ``Pi1`` frozen, the interceptor
minimizes

    Tr(Pi1 rho1') + lam * [S(rho1' || rho1) + S(rho0' || rho0)]

over density operators ``rho1'``, ``rho0'``.  The minimizer is closed-form:
``rho0'`` stays ``rho0`` untouched, and

    rho1' = exp(ln rho1 - Pi1/lam) / Z1,   Z1 = Tr exp(ln rho1 - Pi1/lam),

evaluated entirely on the support of ``rho1``.  At the optimum the
utility is -lam ln Z1 (Gibbs variational principle), which
``optimal_attack`` reads off the exponent's spectrum.
``attacker_utility`` evaluates the objective through the relative
entropies instead; it is the independent audit that ``verify``, the
oracle and the tests hold the closed form to.  ``oracle_attack``
provides an independent numerical minimizer over the same feasible set
for cross-checking; it never touches the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .detection import HypothesisPair, _checked_rate, _checked_rates
from .operators import (
    DensityOperator,
    EIGEN_ZERO_TOL,
    as_matrix,
    hermitian_part,
    relative_entropy,
    spectral_decompose,
    trace_product,
    _check_unit_trace_psd,
    _hermitian,
    _read_only,
    _require_hermitian,
    _traces,
)

# Slack allowed when flagging bound violations.
BOUND_TOL = 1e-9
# Adjacent eigenvalues of rho1 closer than this form a near-degenerate cluster.
CLUSTER_TOL = 1e-8
# Prices at or above this take the utility from the second-order Kubo-Mori
# series instead of -lam * log-sum-exp: the series' truncation error falls
# like 1/lam^2, the log-sum-exp's rounding error grows like eps * lam.
# Against a 60-digit reference on generic pairs at d = 4, 12 and 24 the
# worst errors were 1.3e-12 (series) against 1.0e-10 (log-sum-exp) at
# lam = 1e5, and 1.3e-10 against 6.7e-12 at lam = 1e4.
SERIES_PRICE = 1e5


@dataclass(frozen=True, eq=False)
class AttackerSolution:
    """Distorted state pair with its normalizer, genuine rates and utility.

    ``utility`` is the optimal objective -lam ln Z1, computed from the
    exponent's spectrum; ``attacker_utility`` of the two states is the
    independent audit of it.
    """

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


def _check_price(lam: float) -> None:
    """The price rule of config's ``lambdas`` fields: a finite positive number."""
    if not 0.0 < lam < math.inf:
        raise ValueError(f"distortion price lam must be positive and finite, got {lam!r}")


def attacker_utility(rho1_prime, rho0_prime, pi1, pair: HypothesisPair, lam: float) -> float:
    """Interceptor objective Tr(Pi1 rho1') + lam (S(rho1'||rho1) + S(rho0'||rho0)).

    Returns ``math.inf`` when either distorted state escapes the support of
    the state it replaces (infinite relative-entropy price).
    """
    _check_price(lam)
    s1 = relative_entropy(rho1_prime, pair.rho1)
    s0 = relative_entropy(rho0_prime, pair.rho0)
    if math.isinf(s1) or math.isinf(s0):
        return math.inf
    return trace_product(pi1, rho1_prime) + lam * (s1 + s0)


def _support_chart(rho1):
    """The eigenvalues r of rho1 above ``EIGEN_ZERO_TOL`` (descending),
    their eigenvector columns v, and the remaining (kernel) columns.
    """
    dec = spectral_decompose(rho1)
    keep = dec.eigenvalues > EIGEN_ZERO_TOL
    return dec.eigenvalues[keep], dec.eigenvectors[:, keep], dec.eigenvectors[:, ~keep]


def _in_support(v: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """A matrix (or a stack of them) in the support basis, ``hermitian_part(v^dagger Pi v)``."""
    return _hermitian(v.conj().T @ pi @ v)


class _Gibbs(NamedTuple):
    """The states e^h / Tr e^h of a (price x projector) stack of chart points h."""

    w: np.ndarray  # spectrum of each h, ascending
    u: np.ndarray  # its eigenvector columns, in the support basis
    z1: np.ndarray  # Tr e^h
    p: np.ndarray  # e^w / Tr e^h
    matrices: np.ndarray  # e^h / Tr e^h on the full space, checked


def _lift_stack(v: np.ndarray, kernel: np.ndarray, h: np.ndarray, lams: np.ndarray, thresholds=None) -> _Gibbs:
    """The states e^h / Tr e^h for a stack of chart points h of shape (price, projector, n, n).

    One ``eigh`` call decomposes the stack; every state then passes the
    density-operator checks (Hermiticity and finiteness, unit trace, PSD)
    together.  Each state's spectrum is known without another
    decomposition: eigenvalues e^w / Tr e^h on the columns of v u, and
    zero on the kernel of rho1 (see ``_lifted_state``).  ``lams`` and
    ``thresholds`` index the two batch axes; they only name the failing
    point when Tr e^h underflows to zero.
    """
    w, u = np.linalg.eigh(h)
    ew = np.exp(w)
    z1 = np.sum(ew, axis=-1)
    gone = ~(z1 > 0.0)
    if gone.any():
        i, j = np.unravel_index(int(np.argmax(gone)), gone.shape)
        at = f"lam={float(lams[i])!r}" + ("" if thresholds is None else f", tau={float(thresholds[j])!r}")
        raise ValueError(
            f"Z1 = Tr exp(ln rho1 - Pi1/lam) underflows to 0 at {at}: "
            "exp of every eigenvalue of the exponent is below the smallest float"
        )
    p = ew / z1[..., None]
    sigma = _hermitian((u * p[..., None, :]) @ u.conj().swapaxes(-1, -2))
    matrices = _require_hermitian(_hermitian(v @ sigma @ v.conj().T))
    wmin = p.min(axis=-1)
    _check_unit_trace_psd(matrices, np.minimum(wmin, 0.0) if kernel.shape[1] else wmin)
    return _Gibbs(w, u, z1, p, matrices)


def _lifted_state(v: np.ndarray, kernel: np.ndarray, gibbs: _Gibbs, at) -> DensityOperator:
    """The checked state ``gibbs.matrices[at]`` wrapped with its known
    spectrum, descending: the ascending ``gibbs.p`` reversed, then zeros."""
    return DensityOperator._from_spectrum(
        gibbs.matrices[at],
        np.concatenate([gibbs.p[at][::-1], np.zeros(kernel.shape[1])]),
        np.hstack([(v @ gibbs.u[at])[:, ::-1], kernel]),
    )


class _AttackStack(NamedTuple):
    """Closed-form attacks indexed [price, projector]."""

    pi_s: np.ndarray  # each projector in the support basis, indexed [projector]
    gibbs: _Gibbs  # rho1' and its spectrum
    genuine_p_detect: np.ndarray


def _attack_stack(chart, projectors: np.ndarray, lams: np.ndarray, thresholds=None) -> _AttackStack:
    """The closed-form attack for every (price, projector) pair in one decomposition.

    ``chart`` is rho1's ``_support_chart``, ``projectors`` a stack of
    projector matrices and ``lams`` a vector of prices.  The exponents
    ln r - Pi_s/lam of the whole (price x projector) grid go to one
    ``eigh`` call (``_lift_stack``); the genuine detection rates
    Tr(Pi1 rho1') pass the rate check together.  Every point is
    bit-identical to the same point solved alone.  ``thresholds``, when
    given, names the threshold behind each projector in errors.
    """
    r, v, kernel = chart
    pi_s = _in_support(v, projectors)
    h = np.diag(np.log(r).astype(np.complex128)) - pi_s / lams[:, None, None, None]
    gibbs = _lift_stack(v, kernel, h, lams, thresholds)
    return _AttackStack(pi_s, gibbs, _checked_rates(_traces(projectors, gibbs.matrices)))


def _optimal_utility(w: np.ndarray, r: np.ndarray, pi_s: np.ndarray, lam: float) -> float:
    """-lam ln Z1 for the support spectrum r normalized to unit sum.

    ``w`` is the spectrum of ln r - pi_s/lam.  Below ``SERIES_PRICE`` this
    is -lam * (LSE(w) - ln sum r) with a shifted log-sum-exp; from there on
    it is the Kubo-Mori series <Pi1> - Var_KM(Pi1)/(2 lam), whose terms do
    not cancel as lam grows.
    """
    total = float(np.sum(r))
    if lam < SERIES_PRICE:
        top = float(w[-1])
        return -lam * (top + math.log(float(np.sum(np.exp(w - top)))) - math.log(total))
    p = r / total
    mean = float(np.dot(p, np.diag(pi_s).real))
    second = float(np.sum(np.abs(pi_s) ** 2 * _exp_divided_differences(np.log(p))))
    return mean - (second - mean * mean) / (2.0 * lam)


def optimal_attack(pair: HypothesisPair, pi1, lam: float) -> AttackerSolution:
    """Closed-form minimizer of the interceptor objective for price ``lam``.

    The replacement for ``rho1`` is exp(ln rho1 - Pi1/lam)/Z1 computed in
    the eigenbasis of ``rho1`` restricted to eigenvalues above
    ``EIGEN_ZERO_TOL``; ``rho0`` is left untouched, so the genuine
    false-alarm rate equals the counterfactual one exactly.  The exponent
    is the only matrix decomposed: rho1' takes its spectrum from it, and
    the utility is -lam ln Z1 (see ``_optimal_utility``).  This is the
    stacked attack step (the one ``roc_sweep`` runs over its whole
    price x threshold grid) with a stack of one.

    Raises ``ValueError`` naming Z1 and the price when Z1 underflows to
    zero, which happens at very small prices on a projector far from
    rho1's support (about lam <= 1e-3 at threshold 0.01 on the radar
    scenario).
    """
    _check_price(lam)
    pi_m = as_matrix(pi1)
    r, v, kernel = chart = _support_chart(pair.rho1)
    att = _attack_stack(chart, pi_m[None], np.array([lam]))
    at = (0, 0)
    return AttackerSolution(
        rho1_prime=_lifted_state(v, kernel, att.gibbs, at),
        rho0_prime=pair.rho0,
        lam=lam,
        z1=float(att.gibbs.z1[at]),
        genuine_p_detect=float(att.genuine_p_detect[at]),
        genuine_p_false=_checked_rate(trace_product(pi_m, pair.rho0.matrix)),
        utility=_optimal_utility(att.gibbs.w[at], r, att.pi_s[0], lam),
    )


def detection_bounds(p_detect: float, lam: float) -> tuple[float, float]:
    """Two-sided envelope for the genuine detection rate.

    The upper bound ``p_detect`` is unconditional.  The lower bound
    ``p_detect * exp(-1/lam)`` is guaranteed for commuting pairs, and holds
    empirically in the noncommuting case for lam >= 2 whenever the spectral
    gap condition reported by :func:`gap_condition_sums` is satisfied.
    """
    _check_price(lam)
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
    def evaluate(cls, p_detect: float, genuine_p_detect: float, lam: float) -> "BoundReport":
        """The envelope of ``detection_bounds``, each side flagged within ``BOUND_TOL``."""
        lower, upper = detection_bounds(p_detect, lam)
        return cls(
            p_detect=p_detect,
            genuine_p_detect=genuine_p_detect,
            lam=lam,
            lower=lower,
            upper=upper,
            lower_satisfied=genuine_p_detect >= lower - BOUND_TOL,
            upper_satisfied=genuine_p_detect <= upper + BOUND_TOL,
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


def _chart_value_grad(h: np.ndarray, pi_s: np.ndarray, log_r: np.ndarray, lam: float, grad: bool = True):
    """Objective and gradient at chart point ``h`` (Hermitian, support basis).

    The state is sigma = e^h / Z over the support of rho1; the objective is
    Tr(pi_s sigma) + lam * S(sigma || diag(r)).  Gradients use the Frechet
    derivative of exp expressed through divided differences.  With
    ``grad=False`` only the value is returned, and a point whose top
    eigenvalue exceeds 700 (a wildly overshot line-search trial) gives
    +inf instead of overflowing.
    """
    w, u = np.linalg.eigh(h)
    if not grad and float(w[-1]) > 700.0:
        return math.inf
    ew = np.exp(w)
    z = float(np.sum(ew))
    pi_t = u.conj().T @ pi_s @ u
    l_diag = np.einsum("ji,j,ji->i", u.conj(), log_r, u).real
    t_pi = float(np.real(np.dot(ew, np.diag(pi_t).real)))
    # Tr(e^h (h - L)) evaluated in the eigenbasis of h
    t2 = float(np.dot(ew, w - l_diag))
    value = t_pi / z + lam * (t2 / z - math.log(z))
    if not grad:
        return value

    l_t = (u.conj().T * log_r) @ u  # U^dag diag(log_r) U
    phi = _exp_divided_differences(w)
    exp_h = (u * ew) @ u.conj().T
    grad_pi = u @ (pi_t * phi) @ u.conj().T
    grad_t2 = u @ ((np.diag(w.astype(np.complex128)) - l_t) * phi) @ u.conj().T + exp_h
    gradient = (
        grad_pi / z
        - (t_pi / z**2) * exp_h
        + lam * (grad_t2 / z - (t2 / z**2) * exp_h)
        - (lam / z) * exp_h
    )
    return value, hermitian_part(gradient)


def oracle_attack(
    pair: HypothesisPair,
    pi1,
    lam: float,
    iterations: int = 5000,
    tol: float = 1e-14,
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
    _check_price(lam)
    pi_m = as_matrix(pi1)
    r, v, kernel = _support_chart(pair.rho1)
    pi_s = _in_support(v, pi_m)
    log_r = np.log(r)
    lams = np.array([lam])

    def lift(h: np.ndarray) -> DensityOperator:
        return _lifted_state(v, kernel, _lift_stack(v, kernel, h[None, None], lams), (0, 0))

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
            v_new = _chart_value_grad(h_new, pi_s, log_r, lam, grad=False)
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
    dec = spectral_decompose(rho1)
    return _gap_sums(dec.eigenvalues, _in_support(dec.eigenvectors, as_matrix(pi1)))


def _gap_sums(r: np.ndarray, pi_s: np.ndarray) -> np.ndarray:
    gaps = np.abs(r[:, None] - r[None, :])
    off = ~np.eye(r.shape[0], dtype=bool)
    degenerate = off & (gaps == 0.0)
    terms = np.divide(np.abs(pi_s), gaps, out=np.zeros_like(gaps), where=off & ~degenerate)
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


def perturbation_estimate(pair: HypothesisPair, pi1, lam: float) -> PerturbationReport:
    """First-order eigenvalue diagnostics for the closed-form exponent.

    Compares the exact eigenvalues alpha_j of ln rho1 - Pi1/lam (on the
    support of rho1) with ln r_j - beta_j/lam.  Exact eigenvalues are
    paired to levels of rho1 by maximal eigenvector overlap, so reordering
    caused by the shift cannot corrupt the residuals.  The report flags
    near-degenerate clusters (eigenvalue gaps below ``CLUSTER_TOL``) and
    evaluates the trust condition of :func:`gap_condition_sums`.
    """
    _check_price(lam)
    r, v, _ = _support_chart(pair.rho1)
    pi_s = _in_support(v, as_matrix(pi1))
    n = r.shape[0]
    full_rank = n == pair.rho1.dim

    diffs = np.diff(r)
    min_gap = float(np.min(-diffs)) if n > 1 else math.inf
    cluster = np.zeros(n, dtype=bool)
    for i in range(n - 1):
        if r[i] - r[i + 1] < CLUSTER_TOL:
            cluster[i] = True
            cluster[i + 1] = True
    simple = not bool(cluster.any())

    beta = np.diag(pi_s).real
    estimate = np.log(r) - beta / lam

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

    gap_sums = _gap_sums(r, pi_s) if full_rank else np.full(pair.rho1.dim, math.inf)
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
