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
``optimal_attack`` reads off the exponent's spectrum.  Everything but
the exponent depends only on (rho1, rho0, Pi1): ``_attack_view`` slices
rho1's support chart off its spectrum and writes Pi1 in it, and for a
``ProjectorMeasurement`` that view and the genuine false-alarm rate are
stored per pair and shared by every price.
``attacker_utility`` evaluates the objective through the relative
entropies instead; it is the independent audit that ``verify``, the
oracle and the tests hold the closed form to.  ``oracle_attack``
provides an independent numerical minimizer over the same feasible set
for cross-checking: on the chart e^H / Tr e^H, at every support rank,
Newton steps from the entrywise part of the objective's Hessian in H's
eigenbasis, which is the whole Hessian at the minimizer up to the flat
identity direction; it stops on the decrement -g.p of its direction.
It never touches the closed form: it charts rho1 and checks the states
it builds itself.  ``_oracle_attacks`` runs it for all of a pair's prices
as one stack; ``oracle_attack`` is the stack of one.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .detection import HypothesisPair, ProjectorMeasurement, _checked_rate, _checked_rates, _number, _projector_matrix
from .operators import (
    DensityOperator,
    relative_entropy,
    spectral_decompose,
    trace_product,
    _checked_states,
    _hermitian,
    _read_only,
    _support_rank,
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
# The oracle stops once the decrement -g.p of its direction p at gradient g
# falls below twice this times max(1, max|K|), K = Pi_s - lam ln r: a Newton
# step predicts an improvement of -g.p / 2, and the chart value's terms are
# of size max|K|, so below that scale its rounding hides any improvement.
ORACLE_TOL = 1e-14
# Accepted steps the oracle takes before it gives up (OracleConvergenceError).
ORACLE_ITERATIONS = 5000
# Longest Newton direction (Frobenius norm in the chart) the oracle tries.
# An uncapped full step can leave a d = 2 search on the chart's flat
# boundary, max|h| going 1.4 -> 15.8, where it stops 0.13 above the minimum.
NEWTON_STEP = 1.0
# Points of exp's divided differences closer than this are taken as one:
# the difference quotients give way to their Taylor limits.
DIVIDED_DIFFERENCE_GAP = 1e-6


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
    """Numerical minimizer ran out of iterations (``ORACLE_ITERATIONS``); carries the best iterate."""

    def __init__(self, message: str, best_state: DensityOperator, best_utility: float):
        super().__init__(message)
        self.best_state = best_state
        self.best_utility = best_utility
        self.iterations = ORACLE_ITERATIONS


def _check_price(lam) -> float:
    """The price rule of config's ``lambdas`` fields: a finite positive real
    number, never a bool, whose reciprocal, the scale of ``Pi1/lam`` in the
    exponent, is finite too.  Returns the price as a float (``_number``), so
    an int beyond float range fails the rule, not the conversion."""
    x = _number(lam, "distortion price lam")
    if not 0.0 < x < math.inf:
        raise ValueError(f"distortion price lam must be positive and finite, got {lam!r}")
    if math.isinf(1.0 / x):
        raise ValueError(f"distortion price lam must have a finite reciprocal 1/lam, got {lam!r}")
    return x


def attacker_utility(rho1_prime, rho0_prime, pi1, pair: HypothesisPair, lam: float) -> float:
    """Interceptor objective Tr(Pi1 rho1') + lam (S(rho1'||rho1) + S(rho0'||rho0)).

    ``pi1`` enters as in the attacks (``_projector_matrix``).  Returns
    ``math.inf`` when either distorted state escapes the support of the
    state it replaces (infinite relative-entropy price).
    """
    lam = _check_price(lam)
    pi_m = _projector_matrix(pi1)
    s1 = relative_entropy(rho1_prime, pair.rho1)
    s0 = relative_entropy(rho0_prime, pair.rho0)
    if math.isinf(s1) or math.isinf(s0):
        return math.inf
    return trace_product(pi_m, rho1_prime) + lam * (s1 + s0)


def _in_support(v: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """A matrix in the support basis, ``_hermitian(v^dagger Pi v)``.

    ``v`` is one chart's columns or a stack of them, ``pi`` a matrix or a
    stack; the two broadcast against each other over their leading axes.
    """
    return _hermitian(v.conj().swapaxes(-1, -2) @ pi @ v)


class _AttackView(NamedTuple):
    """The price-independent inputs of the closed-form attack on a stack of
    projectors: rho1's support chart, or one chart per projector."""

    r: np.ndarray  # rho1's eigenvalues above EIGEN_ZERO_TOL, descending
    v: np.ndarray  # their eigenvector columns
    kernel: np.ndarray  # the remaining eigenvector columns
    projectors: np.ndarray  # the projector matrices, indexed [projector]
    pi_s: np.ndarray  # each projector in the support basis


def _attack_view(w: np.ndarray, x: np.ndarray, projectors: np.ndarray) -> _AttackView:
    """The view of rho1's spectrum ``w`` (descending), ``x`` and the projectors:
    the chart is the slice at ``_support_rank``.  ``w`` and ``x`` are one
    spectrum, or a stack of spectra of one rank with one per projector.
    A projector of another shape than rho1 is refused with the words of
    ``trace_product``, the projector's shape first."""
    if projectors.shape[-2:] != x.shape[-2:]:
        raise ValueError(f"dimension mismatch: {projectors.shape[-2:]} vs {x.shape[-2:]}")
    k = int(np.max(_support_rank(w)))
    v = np.ascontiguousarray(x[..., :k])  # a strided single column can move the last bit of pi_s
    return _AttackView(w[..., :k], v, x[..., k:], projectors, _in_support(v, projectors))


class _StoredView(NamedTuple):
    """The view of (pair, ``pi1``) and the genuine false-alarm rate."""

    pi1: ProjectorMeasurement  # the projector it was built for (a bare array is never stored)
    view: _AttackView  # a stack of one
    genuine_p_false: float  # Tr(Pi1 rho0), checked


# One stored view per pair; an entry goes with its pair.
_VIEWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _pair_view(pair: HypothesisPair, pi1) -> _StoredView:
    """The attack view of (pair, pi1) and the genuine false-alarm rate.

    The entry is stored when ``pi1`` is a ``ProjectorMeasurement``
    (validated and read-only), keyed weakly by the frozen pair, and found
    again only for that same projector object; a bare array, checked as
    a projector at every call (``_projector_matrix``), may be written to
    between calls, so it is never stored.  Found or built, an entry holds
    the same values.  A new pair object over the same states
    misses the store, and an entry keeps its projector alive while its
    pair lives.
    """
    entry = _VIEWS.get(pair)
    if entry is not None and entry.pi1 is pi1:
        return entry
    dec = pair.rho1.spectrum
    view = _attack_view(dec.eigenvalues, dec.eigenvectors, _projector_matrix(pi1)[None])
    entry = _StoredView(pi1, view, _checked_rate(trace_product(view.projectors[0], pair.rho0.matrix)))
    if isinstance(pi1, ProjectorMeasurement):
        _VIEWS[pair] = entry
    return entry


class _AttackStack(NamedTuple):
    """Closed-form attacks indexed [price, projector]."""

    w: np.ndarray  # spectrum of each h, ascending
    columns: np.ndarray  # its eigenvector columns on the full space, v u
    z1: np.ndarray  # Tr e^h; 0.0 where it is below the smallest float
    p: np.ndarray  # e^w / Tr e^h, from exponentials shifted by the top of w
    matrices: np.ndarray  # rho1' = e^h / Tr e^h on the full space, states by construction
    genuine_p_detect: np.ndarray


def _diagonal(a: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of a contiguous matrix, or of each in a stack."""
    n = a.shape[-1]
    return a.reshape(a.shape[:-2] + (n * n,))[..., :: n + 1]


def _exponents(r: np.ndarray, pi_s: np.ndarray, lams: np.ndarray) -> np.ndarray:
    """The exponents diag(ln r) - Pi_s/lam, indexed [price, projector];
    exactly Hermitian when ``pi_s`` is.

    ``r`` is one support spectrum or a stack of them, one per projector of
    the stack ``pi_s``, and ``lams`` a vector of prices.
    """
    n = r.shape[-1]
    log_diag = np.zeros(r.shape + (n,), dtype=np.complex128)
    _diagonal(log_diag)[...] = np.log(r)
    return log_diag - pi_s / lams[:, None, None, None]


def _attack_stack(view: _AttackView, lams: np.ndarray) -> _AttackStack:
    """The closed-form attack for every (price, projector) pair in one decomposition.

    ``view`` holds the support chart(s) and the projectors, and ``lams`` is
    a vector of prices; the exponents h of the whole grid go to one ``eigh``
    call.  p = e^(w - w_max) / sum e^(w - w_max) is finite at every price,
    and Z1 reads 0.0 below the smallest float.  Each state e^h / Tr e^h is
    (W p) W^dagger, symmetrized, with orthonormal columns W = v u: a state
    by construction, not checked again, whose spectrum is p on W and zero
    on rho1's kernel (``_lifted_state``).  The genuine detection rates pass
    the rate check together.  Every point is bit-identical to the same
    point solved alone.
    """
    w, u = np.linalg.eigh(_exponents(view.r, view.pi_s, lams))
    top = w[..., -1:]
    ew = np.exp(w - top)
    total = np.sum(ew, axis=-1)
    p = ew / total[..., None]
    columns = view.v @ u
    matrices = _hermitian((columns * p[..., None, :]) @ columns.conj().swapaxes(-1, -2))
    z1 = total * np.exp(top[..., 0])
    # a subnormal product rounds twice; one exponential rounds once
    z1 = np.where(z1 < np.finfo(float).tiny, np.exp(top[..., 0] + np.log(total)), z1)
    return _AttackStack(w, columns, z1, p, matrices, _checked_rates(_traces(view.projectors, matrices)))


def _lifted_state(kernel: np.ndarray, att: _AttackStack, at) -> DensityOperator:
    """The state ``att.matrices[at]`` wrapped with its known spectrum, descending: the
    ascending ``att.p`` reversed on the reversed ``att.columns``, then zeros on rho1's kernel."""
    return DensityOperator._from_spectrum(
        att.matrices[at],
        np.concatenate([att.p[at][::-1], np.zeros(kernel.shape[-1])]),
        np.hstack([att.columns[at][:, ::-1], kernel]),
    )


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

    Only the exponent depends on the price.  For a ``ProjectorMeasurement``
    the rest (rho1's support chart, Pi1 in it and the genuine false-alarm
    rate) is built at the first call on a pair and reused by later calls
    on the same pair object; a bare array is checked as a projector and
    taken afresh every call.  Either way the result is the same, to the bit.

    Every finite positive price gives a state: its spectrum comes from
    exponentials shifted by the exponent's top eigenvalue.  ``z1`` is
    0.0 when Z1 is below the smallest float (at very small prices on a
    projector far from rho1's support, e.g. lam <= 1e-3 at threshold
    0.01 on the radar scenario); the utility does not go through it.
    """
    return _optimal_attacks(pair, pi1, (lam,))[0]


def _optimal_attacks(pair: HypothesisPair, pi1, lams) -> list[AttackerSolution]:
    """``optimal_attack`` at each price of ``lams``, from one stacked attack
    step; each solution is bit-identical to the one solved alone."""
    lams = [_check_price(lam) for lam in lams]
    entry = _pair_view(pair, pi1)
    view = entry.view
    att = _attack_stack(view, np.array(lams))
    return [
        AttackerSolution(
            rho1_prime=_lifted_state(view.kernel, att, (i, 0)),
            rho0_prime=pair.rho0,
            lam=lam,
            z1=float(att.z1[i, 0]),
            genuine_p_detect=float(att.genuine_p_detect[i, 0]),
            genuine_p_false=entry.genuine_p_false,
            utility=_optimal_utility(att.w[i, 0], view.r, view.pi_s[0], lam),
        )
        for i, lam in enumerate(lams)
    ]


def detection_bounds(p_detect: float, lam: float) -> tuple[float, float]:
    """Two-sided envelope for the genuine detection rate.

    The upper bound ``p_detect`` is unconditional.  The lower bound
    ``p_detect * exp(-1/lam)`` is guaranteed for commuting pairs, and holds
    empirically in the noncommuting case for lam >= 2 whenever the spectral
    gap condition reported by :func:`gap_condition_sums` is satisfied, on
    every level of rho1's support (a rank-deficient rho1 included).
    """
    lam = _check_price(lam)
    return p_detect * math.exp(-1.0 / lam), p_detect


@dataclass(frozen=True)
class BoundReport:
    """Genuine detection rate against its envelope, with satisfaction flags."""

    genuine_p_detect: float
    lower: float
    upper: float
    lower_satisfied: bool
    upper_satisfied: bool

    @classmethod
    def evaluate(cls, p_detect: float, genuine_p_detect: float, lam: float) -> "BoundReport":
        """The envelope of ``detection_bounds``, each side flagged within ``BOUND_TOL``."""
        lower, upper = detection_bounds(p_detect, lam)
        return cls(
            genuine_p_detect=genuine_p_detect,
            lower=lower,
            upper=upper,
            lower_satisfied=genuine_p_detect >= lower - BOUND_TOL,
            upper_satisfied=genuine_p_detect <= upper + BOUND_TOL,
        )


# ---------------------------------------------------------------------------
# independent numerical minimizer


def _inner(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for two vectors, or for each pair of two stacks of them.  The
    oracle's helpers take one chart point or a stack; each member's
    (1, k) @ (k, 1) product is its own reduction, so it does not depend on
    the stack it is evaluated in."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _exp_divided_differences(w: np.ndarray) -> np.ndarray:
    """First divided differences of exp at the points w (Daleckii-Krein kernel).

    Entry (i, j) is (e^wi - e^wj)/(wi - wj), continued as e^wi on the
    diagonal; evaluated as e^max(wi, wj) * (1 - e^-g)/g with g = |wi - wj|
    (1 - g/2 + g^2/6 below g = ``DIVIDED_DIFFERENCE_GAP``), which overflows
    only where the entry itself does, however far apart the points are.
    """
    gap = np.abs(w[..., :, None] - w[..., None, :])
    small = gap < DIVIDED_DIFFERENCE_GAP
    ratio = np.where(small, 1.0 - gap / 2.0 + gap * gap / 6.0, -np.expm1(-gap) / np.where(small, 1.0, gap))
    return np.exp(np.maximum(w[..., :, None], w[..., None, :])) * ratio


def _exp_second_divided_differences(w: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Second divided differences of exp with a repeated point, from the first ones ``phi``.

    Entry (i, j) is exp[w_i, w_i, w_j]: (e^wi - phi_ij) / (w_i - w_j) where
    w_i and w_j are more than ``DIVIDED_DIFFERENCE_GAP`` apart, and e^wi / 2
    where they are taken as one.
    """
    gap = w[..., :, None] - w[..., None, :]
    far = np.abs(gap) > DIVIDED_DIFFERENCE_GAP
    ew = np.exp(w)[..., :, None]
    return np.where(far, (ew - phi) / np.where(far, gap, 1.0), 0.5 * ew)


class _ChartPoint(NamedTuple):
    """A chart point h, decomposed once, with its objective value."""

    value: np.ndarray
    w: np.ndarray  # spectrum of h minus its top eigenvalue, ascending
    u: np.ndarray  # eigenvector columns of h
    z: np.ndarray  # sum of e^w
    p: np.ndarray  # e^w / z, the spectrum of sigma
    mean: np.ndarray  # sum(p * (diag(K~) + lam w)), the value plus lam ln z


def _chart_point(h: np.ndarray, cost: np.ndarray, lam) -> _ChartPoint:
    """Objective at chart point ``h`` (Hermitian, support basis).

    The state is sigma = e^h / Tr e^h over the support of rho1, and the
    objective Tr(pi_s sigma) + lam * S(sigma || diag(r)) equals
    Tr(K sigma) + lam * Tr(sigma ln sigma) with ``cost`` K = pi_s - lam ln r.
    In the eigenbasis of h it reads sum(p * (diag(K~) + lam w)) - lam ln z,
    K~ = u^dagger K u, with the exponentials shifted by the top eigenvalue
    (as in ``_optimal_utility``), so no point overflows and z >= 1.  A stack
    of points goes to one ``eigh`` call.  The decomposition is kept for
    ``_chart_gradient`` and ``_newton_direction``.
    """
    lam = np.asarray(lam)
    w, u = np.linalg.eigh(h)
    w = w - w[..., -1:]
    ew = np.exp(w)
    z = ew.sum(axis=-1)
    p = ew / z[..., None]
    cost_diag = (u.conj() * (cost @ u)).sum(axis=-2).real
    mean = _inner(p, cost_diag + lam[..., None] * w)
    return _ChartPoint(mean - lam * np.log(z), w, u, z, p, mean)


def _chart_cost(point: _ChartPoint, cost: np.ndarray, lam) -> np.ndarray:
    """A~ = K~ + lam diag(w), the cost and the point's own exponent in h's eigenbasis."""
    u = point.u
    a = u.conj().swapaxes(-1, -2) @ cost @ u
    _diagonal(a)[...] += np.asarray(lam)[..., None] * point.w
    return a


def _chart_gradient(point: _ChartPoint, a: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Gradient of the objective at a decomposed chart point.

    ``a`` is ``_chart_cost`` at the point and ``phi`` the divided
    differences of exp at its spectrum.  The Frechet derivative of exp is,
    in the eigenbasis of h, the Hadamard product with phi, so the gradient
    is one sandwich u M u^dagger with

        M = (A~ o phi) / z - mean * diag(p).

    The +e^h from differentiating Tr(e^h h) cancels the -lam e^h / Tr e^h
    from ln Tr e^h, so neither appears.
    """
    u = point.u
    m = a * (phi / point.z[..., None, None])
    _diagonal(m)[...] -= point.mean[..., None] * point.p
    return _hermitian(u @ m @ u.conj().swapaxes(-1, -2))


def _newton_direction(point: _ChartPoint, a: np.ndarray, phi: np.ndarray, grad: np.ndarray, lam) -> np.ndarray:
    """-grad / |D|, entry by entry in h's eigenbasis, from the entrywise part
    D of the chart Hessian (Nocedal & Wright, *Numerical Optimization*, ch. 3).

    With f the second divided differences exp[w_a, w_a, w_b], the Hessian
    pairs the entry X_ab of a Hermitian X (in h's eigenbasis) with itself by

        D_ab = ((lam - mean) phi_ab + f_ab A~_aa + f_ba A~_bb) / z.

    Where the gradient vanishes, (A~ o phi) / z = mean diag(p) gives
    A~ = mean I, and there the whole Hessian maps X to D o X up to a
    multiple of diag(p) on the diagonal, which moves h only along the flat
    identity: this is Newton's step at the minimizer.  Away from it D can
    have entries <= 0; taking |D| keeps every direction one of descent.  A
    direction longer than ``NEWTON_STEP`` (Frobenius norm) is shortened to it.
    """
    u, f, cost_diag = point.u, _exp_second_divided_differences(point.w, phi), _diagonal(a).real
    lam, mean, z = (np.asarray(x)[..., None, None] for x in (lam, point.mean, point.z))
    d = ((lam - mean) * phi + f * cost_diag[..., :, None] + f.swapaxes(-1, -2) * cost_diag[..., None, :]) / z
    g = -(u.conj().swapaxes(-1, -2) @ grad @ u)
    # d rounds to 0 only with the gradient (a rank-one support at lam below about eps * mean): no step there
    step = np.divide(g, np.abs(d), out=np.zeros_like(g), where=d != 0.0)
    flat = step.reshape(step.shape[:-2] + (-1,))
    norm = np.sqrt(_inner(flat.real, flat.real) + _inner(flat.imag, flat.imag))
    step *= (NEWTON_STEP / np.maximum(norm, NEWTON_STEP))[..., None, None]
    return _hermitian(u @ step @ u.conj().swapaxes(-1, -2))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product Re Tr(a^dagger b) of two chart directions, or of each pair of two stacks."""
    flat = a.shape[:-2] + (a.shape[-2] * a.shape[-1],)
    return _inner(a.conj().reshape(flat), b.reshape(flat)).real


def _chart_states(v: np.ndarray, u: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The states (v u) diag(p) (v u)^dagger, symmetrized, of a stack of chart points."""
    columns = v @ u
    return _hermitian((columns * p[..., None, :]) @ columns.conj().swapaxes(-1, -2))


def oracle_attack(pair: HypothesisPair, pi1, lam: float) -> DensityOperator:
    """Numerical minimizer of the interceptor objective, independent of the closed form.

    Optimizes over the exponential-family chart sigma = exp(H)/Tr exp(H)
    with H Hermitian on the support of ``rho1`` (Nocedal & Wright,
    *Numerical Optimization*, ch. 3).  At every support rank the direction
    is Newton's, from the entrywise part of the Hessian in h's eigenbasis
    taken in absolute value, and capped at length ``NEWTON_STEP``
    (``_newton_direction``); it costs O(n^3), as the gradient does.  The
    step length comes from a backtracking (Armijo) line search that first
    tries the full step.  When rounding makes the direction fail to
    descend, the search restarts from the negative gradient.  Each trial
    point is decomposed once; the accepted one's decomposition also gives
    its gradient and direction, and the last one's the returned state
    (v u) diag(p) (v u)^dagger, which passes the density-operator checks.
    The support columns v are sliced off rho1's stored spectrum here.
    Descent starts at the undistorted state H = ln rho1 and stops before a
    line search once the decrement -g.p of the direction p is below
    2 ``ORACLE_TOL`` max(1, max|K|), the rounding level of the objective's
    terms (K = Pi1 - lam ln rho1 on the support), or when the search finds
    no step that improves the objective.  It is ``_oracle_attacks``'s
    lockstep descent with one price.

    Raises
    ------
    OracleConvergenceError
        After ``ORACLE_ITERATIONS`` accepted steps without meeting the
        decrement stop; the message names the last decrement, and the error
        carries the best iterate and its utility.
    """
    (out,) = _oracle_attacks(pair, pi1, (lam,))
    if isinstance(out, OracleConvergenceError):
        raise out
    return out


def _oracle_attacks(pair: HypothesisPair, pi1, lams) -> list:
    """``oracle_attack`` at each price of ``lams``, descending in lockstep as one stack.

    Each price keeps its own directions, step lengths and stops; the prices
    share each helper call, and each round of trial points is one
    ``_chart_point`` call (one stacked ``eigh``).  A price leaves the stack
    when it stops, its entry the state, or when it runs out of
    ``ORACLE_ITERATIONS``, its entry the ``OracleConvergenceError`` that
    ``oracle_attack`` raises.  All states pass one ``_checked_states``
    call.  Each entry is bit-identical to the price alone.
    """
    lams = np.array([_check_price(lam) for lam in lams])
    pi_m = _projector_matrix(pi1)
    dec = pair.rho1.spectrum
    if pi_m.shape != dec.eigenvectors.shape:
        raise ValueError(f"dimension mismatch: {pi_m.shape} vs {dec.eigenvectors.shape}")
    # rho1's support chart, sliced off its stored spectrum, and Pi1 in it
    k = int(_support_rank(dec.eigenvalues))
    v = np.ascontiguousarray(dec.eigenvectors[:, :k])  # a strided single column can move the last bit of pi_s
    log_r = np.log(dec.eigenvalues[:k])
    cost = _hermitian(v.conj().T @ pi_m @ v) - lams[:, None, None] * np.diag(log_r)
    tol = 2.0 * ORACLE_TOL * np.maximum(1.0, np.abs(cost).max(axis=(-2, -1)))
    live = np.arange(len(lams))  # each stacked price's index in lams
    h = np.repeat(np.diag(log_r.astype(np.complex128))[None], len(lams), axis=0)
    point = _chart_point(h, cost, lams)
    states = np.empty((len(lams),) + pi_m.shape, dtype=np.complex128)  # each price's state at its stop
    slope = np.full(len(lams), -math.inf)
    for _ in range(ORACLE_ITERATIONS):
        a, phi = _chart_cost(point, cost, lams), _exp_divided_differences(point.w)
        grad = _chart_gradient(point, a, phi)
        direction = _newton_direction(point, a, phi, grad, lams)
        slope = _dot(grad, direction)
        restart = ~(slope < 0.0)  # rounding broke the curvature model: restart from steepest descent
        if restart.any():
            direction[restart], slope[restart] = -grad[restart], -_dot(grad[restart], grad[restart])
        # the prices in the line search, as indices into the stack; all try steps of one length
        done = -slope < tol
        f, trial = np.nonzero(~done)[0], 1.0
        for _ in range(80):
            if not f.size:
                break
            h_try = h[f] + trial * direction[f]
            new = _chart_point(h_try, cost[f], lams[f])
            ok = new.value <= point.value[f] + 1e-4 * trial * slope[f]
            # an accepted price moves in place; the others keep their point
            h[f[ok]] = h_try[ok]
            for field, value in zip(point, new):
                field[f[ok]] = value[ok]
            f, trial = f[~ok], trial * 0.5
        # stopped, or no representable step improves the objective: converged in float
        done[f] = True
        if done.any():
            states[live[done]] = _chart_states(v, point.u[done], point.p[done])
            keep = ~done
            live, h, cost, lams, slope, tol = (x[keep] for x in (live, h, cost, lams, slope, tol))
            point = _ChartPoint(*(field[keep] for field in point))
            if not live.size:
                break
    states[live] = _chart_states(v, point.u, point.p)  # the prices that ran out of steps
    m, w, x = _checked_states(states)
    out: list = [DensityOperator._from_spectrum(m[i], w[i], x[i]) for i in range(len(m))]
    for j, i in enumerate(live):
        message = f"no convergence after {ORACLE_ITERATIONS} iterations (last decrement {-slope[j]:.3e})"
        out[i] = OracleConvergenceError(message, out[i], attacker_utility(out[i], pair.rho0, pi1, pair, lams[j]))
    return out


# ---------------------------------------------------------------------------
# perturbation diagnostics


def gap_condition_sums(rho1: DensityOperator, pi1) -> np.ndarray:
    """Per-level sums sum_{j != i} |<phi_i|Pi1|phi_j>| / |r_i - r_j|.

    The levels are those of rho1's support, the eigenvalues above
    ``EIGEN_ZERO_TOL`` (``_attack_view``'s chart), so the result has one
    entry per support level: the exponent ln rho1 - Pi1/lam and the whole
    attack live on that support, and kernel levels are not levels of the
    problem.  The first-order eigenvalue estimate is trustworthy when every
    entry is below one.  Degenerate pairs of eigenvalues produce ``inf``
    entries.  ``pi1`` enters as in the attacks (``_projector_matrix``).
    """
    dec = spectral_decompose(rho1)
    view = _attack_view(dec.eigenvalues, dec.eigenvectors, _projector_matrix(pi1)[None])
    return _gap_sums(view.r, view.pi_s[0])


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
    ``gap_sums`` equals :func:`gap_condition_sums`, one entry per support
    level, and ``gap_condition_holds`` is whether every entry is below one.
    """

    lam: float
    beta: np.ndarray
    exact: np.ndarray
    estimate: np.ndarray
    residual: np.ndarray
    match_overlap: np.ndarray
    cluster_flags: np.ndarray
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


class _PerturbationStack(NamedTuple):
    """First-order diagnostics of the exponent, indexed [pair, price] (levels last)."""

    beta: np.ndarray  # diag of Pi_s, indexed [pair] only
    exact: np.ndarray
    estimate: np.ndarray
    residual: np.ndarray
    match_overlap: np.ndarray
    matching_ok: np.ndarray


def _perturbation_stack(r: np.ndarray, pi_s: np.ndarray, lams: np.ndarray) -> _PerturbationStack:
    """The exact eigenvalues of ln r - Pi_s/lam matched to the levels of r,
    against ln r_i - beta_i/lam, for every (pair, price) in one decomposition.

    ``r`` is a stack of support spectra (descending), all of one length,
    ``pi_s`` the stack of projectors in those support bases and ``lams`` a
    vector of prices.  The exponents of the whole (pair x price) grid
    (``_exponents``, read [pair, price]) go to one ``eigh`` call; each
    exact eigenvalue is the one whose eigenvector overlaps the level
    most.  Every point is bit-identical to the same point solved alone.
    """
    n = r.shape[-1]
    w, u = np.linalg.eigh(_exponents(r, pi_s, lams).swapaxes(0, 1))
    # overlap of each exact eigenvector (columns of u, support basis) with e_i
    weights = np.abs(u) ** 2  # weights[..., i, k] = |<phi_i | alpha_k>|^2
    matched = np.argmax(weights, axis=-1)
    match_overlap = weights.max(axis=-1)
    distinct = (np.sort(matched, axis=-1) == np.arange(n)).all(axis=-1)
    beta = np.diagonal(pi_s, axis1=-2, axis2=-1).real
    estimate = np.log(r)[:, None] - beta[:, None] / lams[:, None]
    exact = np.take_along_axis(w, matched, axis=-1)
    return _PerturbationStack(
        beta, exact, estimate, exact - estimate, match_overlap, (match_overlap >= 0.5).all(axis=-1) & distinct
    )


def perturbation_estimate(pair: HypothesisPair, pi1, lam: float) -> PerturbationReport:
    """First-order eigenvalue diagnostics for the closed-form exponent.

    Compares the exact eigenvalues alpha_j of ln rho1 - Pi1/lam (on the
    support of rho1) with ln r_j - beta_j/lam.  Exact eigenvalues are
    paired to levels of rho1 by maximal eigenvector overlap, so reordering
    caused by the shift cannot corrupt the residuals.  The report flags
    near-degenerate clusters (eigenvalue gaps below ``CLUSTER_TOL``) and
    evaluates the trust condition of :func:`gap_condition_sums` over the
    support levels of rho1, at every rank.  Like ``optimal_attack`` it
    takes rho1's support chart and Pi1 in it from the view stored for a
    ``ProjectorMeasurement``.  The spectral part is the stacked step
    ``_perturbation_stack`` (the one ``verify`` runs over its pairs and
    prices) with a stack of one; the cluster flags, gap sums and rank flag
    are computed per call.
    """
    lam = _check_price(lam)
    view = _pair_view(pair, pi1).view
    r, pi_s = view.r, view.pi_s[0]
    n = r.shape[0]
    full_rank = n == pair.rho1.dim

    close = -np.diff(r) < CLUSTER_TOL
    cluster = np.zeros(n, dtype=bool)
    cluster[:-1] |= close
    cluster[1:] |= close
    simple = not bool(cluster.any())

    pert = _perturbation_stack(r[None], view.pi_s, np.array([lam]))
    at = (0, 0)

    gap_sums = _gap_sums(r, pi_s)
    gap_holds = bool(np.all(gap_sums < 1.0))

    return PerturbationReport(
        lam=lam,
        beta=_read_only(pert.beta[0]),
        exact=_read_only(pert.exact[at]),
        estimate=_read_only(pert.estimate[at]),
        residual=_read_only(pert.residual[at]),
        match_overlap=_read_only(pert.match_overlap[at]),
        cluster_flags=_read_only(cluster),
        gap_sums=_read_only(gap_sums),
        gap_condition_holds=gap_holds,
        full_rank=full_rank,
        simple_spectrum=simple,
        matching_ok=bool(pert.matching_ok[at]),
    )
