"""Continuous-time diagnostics built on recorded runs.

The run (x_K) embeds into continuous time through its cumulative step mass:
breakpoints tau_0 = 0 and tau_{K+1} = tau_K + sum_i alpha_{K,i}, with the
piecewise-affine interpolant w satisfying w(tau_K) = x_K.  The segment over
(tau_K, tau_{K+1}) therefore carries epoch K's displacement over exactly
epoch K's step mass, so its derivative is

    w'(t) = -(1/n) sum_i lambda_i d_i(zhat_{K,i-1}),
    lambda_i = n alpha_{K,i} / (tau_{K+1} - tau_K) <= alpha_{K,1}/alpha_{K,n},

a perturbed inclusion with inhomogeneity level

    gamma(t) = max{ n alpha_{K,1} M, |1 - alpha_{K,1}/alpha_{K,n}| }

on that segment.  Runs are asymptotically shadowed by solutions of
y' = -(min-norm element of the aggregate generalized derivative); the
deviation between w and one integrated flow is a one-solution surrogate for
the shadowing distance (exact only where the flow is unique, e.g. smooth
problems).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .engine import RunTrace
from .problems import FiniteSumProblem


@dataclass(frozen=True)
class Interpolant:
    """Piecewise-affine curve through (tau_K, x_K); constant outside the span."""

    taus: np.ndarray  # (N+1,), taus[0] = 0, strictly increasing
    nodes: np.ndarray  # (N+1, p)

    def __post_init__(self):
        if len(self.taus) != len(self.nodes):
            raise ValueError("breakpoints and nodes must align")
        if np.any(np.diff(self.taus) <= 0):
            raise ValueError("breakpoints must be strictly increasing")

    @property
    def horizon(self) -> float:
        return float(self.taus[-1])

    def __call__(self, t: float) -> np.ndarray:
        taus = self.taus
        if t <= taus[0]:
            return self.nodes[0].copy()
        if t >= taus[-1]:
            return self.nodes[-1].copy()
        k = int(np.searchsorted(taus, t, side="right")) - 1
        if t == taus[k]:
            return self.nodes[k].copy()
        theta = (t - taus[k]) / (taus[k + 1] - taus[k])
        return (1.0 - theta) * self.nodes[k] + theta * self.nodes[k + 1]


def interpolant(trace: RunTrace) -> Interpolant:
    taus = np.concatenate([[0.0], np.cumsum(trace.alpha_sum)])
    return Interpolant(taus=taus, nodes=trace.xs)


@dataclass(frozen=True)
class GammaTrace:
    """Perturbation level gamma, piecewise constant on [tau_K, tau_{K+1})."""

    taus: np.ndarray  # (N+1,)
    gammas: np.ndarray  # (N,)
    ratios: np.ndarray  # alpha_{K,1}/alpha_{K,n} per epoch
    lambda_bound_ok: Optional[bool] = None  # None when inner records absent
    max_lambda_excess: Optional[float] = None

    def gamma_of_epoch(self, K: int) -> float:
        return float(self.gammas[K])

    def __call__(self, t: float) -> float:
        if t < self.taus[0] or t >= self.taus[-1]:
            raise ValueError("t outside the recorded span")
        k = int(np.searchsorted(self.taus, t, side="right")) - 1
        return float(self.gammas[min(k, len(self.gammas) - 1)])


def gamma_trace(trace: RunTrace) -> GammaTrace:
    """Per-epoch gamma values and the hull-weight bound check.

    With full inner records the weights lambda_i = n alpha_{K,i} / alpha_sum
    are verified against alpha_{K,1}/alpha_{K,n}; the maximum excess over
    the bound is reported (nonpositive excess passes).  Step sizes near the
    float range overflow silently to inf or nan, and an alpha_last of 0.0
    gives an inf ratio without a warning, which callers test for.
    """
    n, M = trace.problem.n, trace.problem.M
    lambda_ok = None
    excess = None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratios = trace.alpha_first / trace.alpha_last
        gammas = np.maximum(n * trace.alpha_first * M, np.abs(1.0 - ratios))
        taus = np.concatenate([[0.0], np.cumsum(trace.alpha_sum)])
        if trace.alpha is not None and trace.epochs_completed:
            lam = n * trace.alpha / trace.alpha_sum[:, None]
            excess = float(np.max(lam - ratios[:, None]))
            lambda_ok = excess <= 1e-12
    return GammaTrace(
        taus=taus,
        gammas=gammas,
        ratios=ratios,
        lambda_bound_ok=lambda_ok,
        max_lambda_excess=excess,
    )


# ---------------------------------------------------------------------------
# minimum-norm point of a convex hull (Wolfe's algorithm)
# ---------------------------------------------------------------------------


def min_norm_point(generators) -> np.ndarray:
    """Unique minimum-norm point of conv(generators).

    Wolfe's corral scheme: keep an affinely independent working set, move to
    the min-norm point of its affine hull, and drop or add generators until
    the variational optimality condition <v, g - v> >= -tol holds for every
    generator g, tol = 1e-14 max(1, max ||g||^2), or 16 m + 64 iterations
    over m generators have run.
    """
    P = np.atleast_2d(np.asarray(generators, dtype=float))
    if P.size == 0:
        raise ValueError("generator list must be nonempty")
    m = len(P)
    scale = float(np.max(np.sum(P * P, axis=1)))
    if scale == 0.0:
        return np.zeros(P.shape[1])
    tol = 1e-14 * max(scale, 1.0)

    norms2 = np.sum(P * P, axis=1)
    start = int(np.argmin(norms2))
    corral = [start]
    lam = np.array([1.0])
    x = P[start].copy()
    best = x.copy()
    best_norm = float(x @ x)

    for _ in range(16 * m + 64):
        dots = P @ x
        j = int(np.argmin(dots))
        xx = float(x @ x)
        if dots[j] >= xx - tol:
            return x
        if j in corral:
            return x  # numerically stalled at the optimum
        corral.append(j)
        lam = np.append(lam, 0.0)
        while True:
            S = P[corral]
            alpha = _affine_min_norm_coeffs(S)
            if np.all(alpha >= 1e-14):
                x = S.T @ alpha
                lam = alpha
                break
            neg = alpha < 1e-14
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = lam[neg] / (lam[neg] - alpha[neg])
            theta = float(np.min(steps))
            lam = (1.0 - theta) * lam + theta * alpha
            keep = lam > 1e-14
            if keep.all():
                keep[int(np.argmin(lam))] = False
            corral = [c for c, k in zip(corral, keep) if k]
            lam = lam[keep]
            lam = lam / lam.sum()
            x = P[corral].T @ lam
        if float(x @ x) < best_norm:
            best = x.copy()
            best_norm = float(x @ x)
    return best


def _affine_min_norm_coeffs(S: np.ndarray) -> np.ndarray:
    """Barycentric coefficients of the min-norm point of aff(S rows)."""
    k = len(S)
    if k == 1:
        return np.array([1.0])
    G = S @ S.T
    A = np.zeros((k + 1, k + 1))
    A[0, 1:] = 1.0
    A[1:, 0] = 1.0
    A[1:, 1:] = G
    rhs = np.zeros(k + 1)
    rhs[0] = 1.0
    try:
        sol = np.linalg.solve(A, rhs)
        if not np.all(np.isfinite(sol)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return sol[1:]


@dataclass(frozen=True)
class CriticalityReport:
    """Distance of the aggregate generalized derivative from zero at a point.

    measure = || min-norm element of conv(generator_set(x)) ||; zero exactly
    at the optimality-condition solutions.
    """

    point: np.ndarray
    min_norm_vector: np.ndarray
    measure: float


def criticality_measure(problem: FiniteSumProblem, x) -> CriticalityReport:
    gens = problem.generator_set(np.asarray(x, dtype=float))
    v = min_norm_point(gens)
    return CriticalityReport(
        point=np.asarray(x, dtype=float),
        min_norm_vector=v,
        measure=float(np.linalg.norm(v)),
    )


# ---------------------------------------------------------------------------
# descent flow integration and shadowing deviation
# ---------------------------------------------------------------------------


def flow_direction(problem: FiniteSumProblem) -> Callable[[np.ndarray], np.ndarray]:
    """Steepest-descent direction field: minus the min-norm element.

    On smooth problems this is -grad F; otherwise the min-norm point of the
    aggregate generator hull.
    """
    if problem.is_smooth:
        return lambda y: -problem.full_direction(y)
    return lambda y: -min_norm_point(problem.generator_set(y))


def integrate_flow(
    problem: FiniteSumProblem, y0: np.ndarray, T: float, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler integration of the descent flow over [0, T]."""
    if h <= 0 or T < 0:
        raise ValueError("need h > 0 and T >= 0")
    steps = max(1, int(math.ceil(T / h)))
    dt = T / steps
    field = flow_direction(problem)
    y = np.asarray(y0, dtype=float).copy()
    ys = [y.copy()]
    for _ in range(steps):
        y = y + dt * field(y)
        ys.append(y.copy())
    times = np.linspace(0.0, T, steps + 1)
    return times, np.stack(ys)


def apt_deviation(trace: RunTrace, t: float, T: float, h: float) -> float:
    """sup over [0, T] of ||w(t+s) - y(s)|| for the flow started at w(t).

    A one-solution surrogate for the shadowing distance: the infimum over
    all flow solutions is replaced by the single explicit-Euler trajectory,
    exact only where the flow is unique.  A step-halving consistency check
    flags h values too coarse to trust: ValueError when the deviations with
    h and h/2 differ by more than 1e-6 (1 + max |y|) + 0.25 times the larger.
    """
    w = interpolant(trace)
    if t < 0 or t + T > w.horizon:
        raise ValueError("window [t, t+T] must lie inside the recorded span")
    problem = trace.problem
    y0 = w(t)

    def deviation(step):
        times, ys = integrate_flow(problem, y0, T, step)
        return ys, max(float(np.linalg.norm(w(t + s) - y)) for s, y in zip(times, ys))

    ys, dev = deviation(h)
    _, dev2 = deviation(h / 2.0)
    if abs(dev - dev2) > 1e-6 * (1.0 + float(np.max(np.abs(ys)))) + 0.25 * max(dev, dev2):
        raise ValueError(f"integration step h={h} too coarse: deviation {dev:.3e} vs {dev2:.3e} after halving")
    return dev
