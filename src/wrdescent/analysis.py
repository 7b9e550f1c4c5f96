"""Certification of the per-step, per-epoch and per-run bounds on traces.

Every check evaluates both sides of an inequality on recorded data and
reports the slack (rhs - lhs).  Tolerances are relative and pinned here:

  * EXACT_RTOL = 1e-12 for the step-length bound (exact algebra, only
    rounding in the recursion);
  * INEQ_RTOL = 1e-9 for inequalities involving objective evaluations
    (accumulated rounding in F differences).

Notation: alpha_K is the epoch anchor (previous epoch's last step size),
n the component count, M / L the problem constants.  The per-epoch descent
inequality certified by ``check_epoch_descent_trace`` is

    F(x_{K+1}) - F(x_K) + (n alpha_K / 2) ||grad F(x_K)||^2
      <= (alpha_K L^2 n^2 + L n / 2 - 1/(2 alpha_K)) * S2
         + alpha_K M^2 * sum_i (1 - alpha_{K,i}^3 / alpha_K^3),

with S2 = sum_j alpha_{K,j}^2 ||d_j(zhat_{K,j-1})||^2, and
``check_descent_decomposition_trace`` certifies the inner-product form

    <grad F(x_K), x_{K+1} - x_K> + ||x_{K+1} - x_K||^2 / (2 n alpha_K)
      <= -(n alpha_K / 2) ||grad F(x_K)||^2 + alpha_K L^2 n^2 * S2
         + alpha_K M^2 * sum_i (alpha_{K,i}/alpha_K - 1)^2.

A caution on the combined form checked by ``check_epoch_descent_trace``: it
is obtained from the inner-product form by replacing ||x_{K+1} - x_K||^2 with
its upper bound n * S2 inside the coefficient (L/2 - 1/(2 n alpha_K)).  That
coefficient is negative whenever alpha_K < 1/(L n), in which regime the
replacement flips the inequality, so the combined form can fail on runs
with strong within-epoch cancellation (||x_{K+1} - x_K||^2 << n * S2) even
though every step of its derivation holds.  ``check_epoch_descent_tight_trace``
certifies the repaired combination that keeps the exact squared
displacement,

    F(x_{K+1}) - F(x_K) + (n alpha_K / 2) ||grad F(x_K)||^2
      <= alpha_K L^2 n^2 * S2
         + alpha_K M^2 * sum_i (1 - alpha_{K,i}^3 / alpha_K^3)
         + (L/2 - 1/(2 n alpha_K)) * ||x_{K+1} - x_K||^2,

which follows from the smoothness quadratic upper bound plus the
inner-product form alone and holds in every regime.  The downstream rate
bounds only ever use coefficient upper bounds that are valid for the
repaired form, so they are unaffected.

Each per-epoch inequality has one computation over an epoch range
0 <= k_min <= k_max < N, array by array, reported at the first epoch of
least slack; each ``check_*_trace`` function runs it over the range its
``k_min``/``k_max`` keywords give.  The step sums (``STEP_SUMS``: S2,
ratio_cube = sum_i (1 - alpha_{K,i}^3 / alpha_K^3) and ratio_sq =
sum_i (alpha_{K,i}/alpha_K - 1)^2) are ``math.fsum`` over Python floats,
Python's ``**`` included, whose bits NumPy's products need not have; each
is derived for the whole record on its first read and kept on the trace,
so the checks of one ``verify`` derive it once and slice their ranges.
A term or a partial sum past the float range raises OverflowError naming
the first such epoch of the range and its step.  Squared norms are
stacked matmuls (one ddot per row), so a range has the bits of the
per-epoch formulas.  The preconditions, in this
order, raise the reasons ``verify`` skips a check for: full records, a
smooth problem, the range's epochs.  A range in which an epoch's lhs or
rhs is not finite still reports its least slack, and names that epoch in
the report's ``non_finite``; ``verify`` skips such a range, and any report
whose own lhs or rhs is not finite, as a numeric overflow.

``CHECKS`` is the table of the checks ``verify`` runs by name, and
``run_check`` turns a name into (status, detail, rate certificate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from . import flows
from .engine import EPOCH_BLOCK, RunTrace, _fmt
from .problems import FiniteSumProblem, UnsupportedProblem
from .steps import Adaptive, check_lex_monotone

EXACT_RTOL = 1e-12
INEQ_RTOL = 1e-9


@dataclass(frozen=True)
class MarginReport:
    name: str
    lhs: float
    rhs: float
    slack: float
    rel_slack: float
    ok: bool
    detail: dict = field(default_factory=dict)
    # the first epoch of a range whose lhs or rhs is not finite, where no
    # slack certifies anything (``verify`` skips the check as an overflow);
    # set by the range checks, and not part of repr or ==
    non_finite: Optional[str] = field(default=None, repr=False, compare=False)

    def __bool__(self) -> bool:
        return self.ok


def _report(name, lhs, rhs, tol, denom, detail=None) -> MarginReport:
    slack = rhs - lhs
    rel = slack / denom
    return MarginReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        rel_slack=rel,
        ok=rel >= -tol,
        detail=detail or {},
    )


def _require_full(trace: RunTrace):
    if trace.config.record_level != "full":
        raise ValueError("needs full records")


def _require_smooth(problem: FiniteSumProblem):
    if not problem.is_smooth:
        raise UnsupportedProblem("needs a smooth problem")


def _epoch_range(trace: RunTrace, k_min: int, k_max: Optional[int]) -> range:
    """Epochs k_min..k_max (None: the last completed one), 0 <= k_min <= k_max < N."""
    N = trace.epochs_completed
    if k_max is None:
        if N <= k_min:
            raise ValueError(f"needs at least {k_min + 1} epochs" if k_min else "no completed epoch")
        k_max = N - 1
    if not 0 <= k_min <= k_max < N:
        raise ValueError(f"epochs {k_min}..{k_max} are outside the completed epochs 0..{N - 1}")
    return range(k_min, k_max + 1)


def _dots(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """<a, b> (b defaults to a) along the last axis as a stacked matmul: one
    BLAS ddot per row, the bits of a @ b."""
    b = a if b is None else b
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _first_least(values: np.ndarray) -> int:
    """The index a scan keeping the least so far picks: the first least
    value, and a NaN only as the first entry."""
    return 0 if np.isnan(values[0]) else int(np.argmin(np.where(np.isnan(values), np.inf, values)))


def _least_slack(name, epochs, lhs, rhs, denom, tol, detail) -> MarginReport:
    """The report at the epoch of least relative slack (``_first_least``),
    naming in ``non_finite`` the first epoch whose lhs or rhs is not finite.
    lhs, rhs and denom hold one entry per epoch; ``detail(k)`` is the detail at entry k."""
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN slack, handled by _first_least
        rel = (rhs - lhs) / denom
    k = _first_least(rel)
    rep = _report(f"{name}[K={epochs[k]}]", float(lhs[k]), float(rhs[k]), tol, float(denom[k]), detail(k))
    bad = np.flatnonzero(~np.isfinite(lhs) | ~np.isfinite(rhs))
    if bad.size:
        k = bad[0]
        rep = replace(rep, non_finite=f"lhs {lhs[k]}, rhs {rhs[k]} at K={epochs[k]}")
    return rep


# each epoch's terms of a per-epoch step sum, as Python floats, from its
# step sizes alpha_{K,i}, its ||d_i||^2 and its anchor alpha_K
STEP_SUMS = {
    "S2": lambda alphas, dnorm2s, ak: [a**2 * d2 for a, d2 in zip(alphas, dnorm2s)],
    "ratio_cube": lambda alphas, dnorm2s, ak: [1.0 - (a / ak) ** 3 for a in alphas],
    "ratio_sq": lambda alphas, dnorm2s, ak: [(a / ak - 1.0) ** 2 for a in alphas],
}


def _derive_step_sum(trace: RunTrace, name: str) -> tuple[np.ndarray, dict]:
    """The ``math.fsum`` of each epoch's ``STEP_SUMS[name]`` terms over the
    whole record, NaN where a term or a partial sum overflows, and {K: i}
    of those epochs, i the first step whose prefix of the epoch overflows."""
    terms = STEP_SUMS[name]
    N = len(trace.alpha)
    anchors = [trace.epoch_anchor(0)] + trace.alpha_last[: N - 1].tolist()
    sums, overflows = np.empty(N), {}
    for K, row in enumerate(zip(trace.alpha.tolist(), trace.dnorm2.tolist(), anchors)):
        try:
            sums[K] = math.fsum(terms(*row))
        except ArithmeticError:  # a**2 or a quotient out of range, or fsum's partial sums
            sums[K] = math.nan
            overflows[K] = _first_overflow(terms, *row)
    return sums, overflows


def _first_overflow(terms, alphas, dnorm2s, ak) -> int:
    """The least i whose first i terms, or their fsum, overflow, by bisection:
    a prefix that overflows overflows in every longer prefix."""
    lo, hi = 0, len(alphas)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            math.fsum(terms(alphas[:mid], dnorm2s[:mid], ak))
            lo = mid
        except ArithmeticError:
            hi = mid
    return hi


def _step_sum(trace: RunTrace, name: str, epochs: range) -> np.ndarray:
    """The per-epoch step sum ``name`` of ``STEP_SUMS`` over ``epochs``,
    sliced from its array over the whole record, which is derived on its
    first read and kept on the trace.  OverflowError names the first epoch
    of the range where a term or a partial sum overflows, and its step."""
    if name not in trace.step_sums:
        trace.step_sums[name] = _derive_step_sum(trace, name)
    sums, overflows = trace.step_sums[name]
    bad = [K for K in overflows if K in epochs]
    if bad:
        raise OverflowError(f"{name} overflows at K={bad[0]}, i={overflows[bad[0]]}")
    return sums[epochs.start : epochs.stop]


# ---------------------------------------------------------------------------
# per-step length bound
# ---------------------------------------------------------------------------


def check_step_length_bound_trace(
    trace: RunTrace, *, k_min: int = 0, k_max: Optional[int] = None
) -> MarginReport:
    """Step-length bound at every inner step of epochs K in [k_min, k_max].

    max{||z_{K,i}-x_K||^2, ||x_{K+1}-x_K||^2, ||zhat_{K,i-1}-x_K||^2}
    <= n * sum_j alpha_{K,j}^2 ||d_j||^2, the maximum over i of each epoch
    against its right-hand side, relative to that (nonnegative) side.
    """
    _require_full(trace)
    epochs = _epoch_range(trace, k_min, k_max)
    n = trace.problem.n
    lhs = np.empty(len(epochs))
    argmax = np.empty(len(epochs), dtype=int)
    # an epoch's squares in the order whose first maximum is reported:
    # x_{K+1}, then z_{K,i} and zhat_{K,i-1} for i = 1..n; one block of
    # epochs at a time, so the temporaries do not grow with N
    for lo in range(epochs.start, epochs.stop, EPOCH_BLOCK):
        hi = min(lo + EPOCH_BLOCK, epochs.stop)
        sq = np.empty((hi - lo, 2 * n + 1))
        for cols, points in (
            (slice(0, 1), trace.xs[lo + 1 : hi + 1, None, :]),
            (slice(1, None, 2), trace.z[lo:hi]),
            (slice(2, None, 2), trace.zhat[lo:hi]),
        ):
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                sq[:, cols] = _dots(points - trace.xs[lo:hi, None, :])
        at = slice(lo - epochs.start, hi - epochs.start)
        argmax[at] = sq.argmax(axis=1)
        lhs[at] = sq.max(axis=1)
    rhs = n * _step_sum(trace, "S2", epochs)
    denom = np.where((rhs == 0.0) & (lhs == 0.0), 1.0, np.maximum(rhs, 1e-300))
    where = [("x_next", n)] + [(label, i) for i in range(1, n + 1) for label in ("z", "zhat")]
    return _least_slack(
        "step_length", epochs, lhs, rhs, denom, EXACT_RTOL, lambda k: {"argmax": where[argmax[k]]}
    )


# ---------------------------------------------------------------------------
# per-epoch descent inequalities
# ---------------------------------------------------------------------------


def _descent_terms(trace: RunTrace, k_min: int, k_max: Optional[int], lex: bool = False):
    """The epochs k_min..k_max, once the preconditions hold, with alpha_K and
    S2 of each; alpha_K is alpha_{K-1,n}, and epoch_anchor's value at K = 0."""
    _require_full(trace)
    _require_smooth(trace.problem)
    epochs = _epoch_range(trace, k_min, k_max)
    if lex:
        scan = check_lex_monotone(trace.alpha)
        if not scan.ok:
            raise ValueError(f"step sizes violate lexicographic monotonicity at {scan.violation}")
    alpha = np.concatenate([[trace.epoch_anchor(0)], trace.alpha_last])
    return epochs, alpha[epochs.start : epochs.stop], _step_sum(trace, "S2", epochs)


def _descent_form(trace: RunTrace, k_min: int, k_max: Optional[int], tight: bool):
    """The combined form, or with ``tight`` the repaired one, over epochs k_min..k_max."""
    epochs, alpha, s2 = _descent_terms(trace, k_min, k_max, lex=not tight)
    problem, lo, hi = trace.problem, epochs.start, epochs.stop
    n, L, M = problem.n, problem.L, problem.M
    f, g = trace.f_vals, trace.grad_sq
    ratio_cube = _step_sum(trace, "ratio_cube", epochs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported by _least_slack
        lhs = f[lo + 1 : hi + 1] - f[lo:hi] + 0.5 * n * alpha * g[lo:hi]
        if tight:
            d2 = _dots(trace.xs[lo + 1 : hi + 1] - trace.xs[lo:hi])
            rhs = (
                alpha * L**2 * n**2 * s2
                + alpha * M**2 * ratio_cube
                + (L / 2.0 - 1.0 / (2.0 * n * alpha)) * d2
            )
            name, last = "epoch_descent_tight", ("displacement_sq", d2)
        else:
            coeff = alpha * L**2 * n**2 + L * n / 2.0 - 1.0 / (2.0 * alpha)
            rhs = coeff * s2 + alpha * M**2 * ratio_cube
            name, last = "epoch_descent", ("ratio_term", ratio_cube)
    return _least_slack(
        name, epochs, lhs, rhs, 1.0 + abs(rhs), INEQ_RTOL,
        lambda k: {"alpha_K": float(alpha[k]), "S2": float(s2[k]), last[0]: float(last[1][k])},
    )


def check_epoch_descent_trace(
    trace: RunTrace, *, k_min: int = 1, k_max: Optional[int] = None
) -> MarginReport:
    """Per-epoch descent inequality, combined form (see module docstring), over epochs K in [k_min, k_max]."""
    return _descent_form(trace, k_min, k_max, tight=False)


def check_epoch_descent_tight_trace(
    trace: RunTrace, *, k_min: int = 1, k_max: Optional[int] = None
) -> MarginReport:
    """Repaired per-epoch inequality keeping ||x_{K+1} - x_K||^2 exactly, over epochs K in [k_min, k_max].

    Valid in every step-size regime (see the module docstring); coincides
    with the combined form when within-epoch displacements are not
    cancelling.
    """
    return _descent_form(trace, k_min, k_max, tight=True)


def check_descent_decomposition_trace(
    trace: RunTrace, *, k_min: int = 1, k_max: Optional[int] = None
) -> MarginReport:
    """Inner-product form of the per-epoch bound (no objective values) over epochs K in [k_min, k_max]."""
    epochs, alpha, s2 = _descent_terms(trace, k_min, k_max)
    problem, lo, hi = trace.problem, epochs.start, epochs.stop
    n, L, M = problem.n, problem.L, problem.M
    ratio_sq = _step_sum(trace, "ratio_sq", epochs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported by _least_slack
        g = problem.full_direction(trace.xs[lo:hi])
        diff = trace.xs[lo + 1 : hi + 1] - trace.xs[lo:hi]
        lhs = _dots(g, diff) + _dots(diff) / (2.0 * n * alpha)
        rhs = -0.5 * n * alpha * _dots(g) + alpha * L**2 * n**2 * s2 + alpha * M**2 * ratio_sq
    return _least_slack(
        "descent_decomposition", epochs, lhs, rhs, 1.0 + abs(rhs), INEQ_RTOL,
        lambda k: {"alpha_K": float(alpha[k])},
    )


# ---------------------------------------------------------------------------
# closed-form rate bounds
# ---------------------------------------------------------------------------


RATE_RULES = (
    "constant",
    "decreasing_sqrt",
    "constant_with_l",
    "decreasing_cbrt",
    "adaptive",
)


def rate_bound(
    rule: str,
    *,
    f0_minus_fstar: float,
    N: int,
    L: Optional[float] = None,
    M: Optional[float] = None,
    alpha: Optional[float] = None,
) -> float:
    """Closed-form bound on the min-over-epochs squared gradient norm.

    rule = "constant":         step alpha/n, no condition on alpha
           "decreasing_sqrt":  alpha_{K,i} = 1/(n sqrt(K+1)), min over K = 1..N
           "constant_with_l":  step alpha/n with alpha <= 1/L (tighter bound)
           "decreasing_cbrt":  alpha_{K,i} = 1/(L n (K+1)^(1/3)), min over K = 1..N,
                               with L any upper bound on the gradient Lipschitz
                               constant
           "adaptive":         accumulator rule with the parameters of
                               Adaptive.recommended(n), beta = n^2 and
                               delta = n^3

    The formulas read no step parameter but alpha and L.  Whether a run's
    steps meet a rule's assumptions is decided by its strategy's
    ``rate_params(problem)``, which gives the rules the run earns with the
    alpha or L each reads; ``certify_run`` reads them there.  The bound
    itself checks only constant_with_l's alpha <= 1/L.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    if rule == "constant":
        _need(rule, alpha=alpha, L=L, M=M)
        return 2.0 * f0_minus_fstar / ((N + 1) * alpha) + 2.0 * (
            alpha * L**2 * M**2 + L * M**2 / 2.0
        ) * alpha
    if rule == "decreasing_sqrt":
        _need(rule, L=L, M=M)
        if N < 1:
            raise ValueError("decreasing_sqrt bound needs N >= 1")
        return (
            f0_minus_fstar
            + (L**2 * M**2 + L * M**2 / 2.0) * (1.0 + math.log(N + 1.0))
        ) / (math.sqrt(N + 1.0) - 1.0)
    if rule == "constant_with_l":
        _need(rule, alpha=alpha, L=L, M=M)
        if alpha > 1.0 / L:
            raise ValueError("constant_with_l bound requires alpha <= 1/L")
        return 2.0 * f0_minus_fstar / ((N + 1) * alpha) + 2.0 * alpha**2 * L**2 * M**2
    if rule == "decreasing_cbrt":
        _need(rule, L=L, M=M)
        if N < 1:
            raise ValueError("decreasing_cbrt bound needs N >= 1")
        return (
            2.0
            / (3.0 * ((N + 1.0) ** (2.0 / 3.0) - 1.0))
            * (L * f0_minus_fstar + M**2 * (1.0 + math.log(N + 1.0)))
        )
    if rule == "adaptive":
        _need(rule, L=L, M=M)
        return (
            2.0
            * (M**2 + 1.0) ** (1.0 / 3.0)
            * (
                f0_minus_fstar
                + (L**5 + L**4 / 2.0)
                + (L**2 / 2.0 * (1.0 + M) ** (1.0 / 3.0) + M**2)
                * math.log(1.0 + M**2 * (N + 1.0))
            )
            / (N + 1.0) ** (2.0 / 3.0)
        )
    raise ValueError(f"unknown rate rule {rule!r}; known: {RATE_RULES}")


def _need(rule, **kwargs):
    for name, value in kwargs.items():
        if value is None:
            raise ValueError(f"parameter {name} is required by the {rule} bound")


@dataclass(frozen=True, eq=False)
class RateCertificate:
    """A rule's bound against the observed minimum at every horizon.

    N, bound, observed, slack (bound - observed) and passed hold one entry
    per horizon; ``worst`` is the index of the first least slack (a NaN
    slack only as the first horizon's), and ``ok`` says every horizon passed.
    """

    rule: str
    params: dict
    N: np.ndarray
    bound: np.ndarray
    observed: np.ndarray
    slack: np.ndarray
    passed: np.ndarray
    worst: int
    ok: bool

    def __bool__(self) -> bool:
        return self.ok

    def write_csv(self, path) -> None:
        """One row per horizon: N,bound,observed,slack,pass, numbers at full precision."""
        columns = (self.N, self.bound, self.observed, self.slack)
        rows = ["N,bound,observed,slack,pass"]
        rows += [
            f"{N},{_fmt(b)},{_fmt(o)},{_fmt(s)},{int(p)}"
            for N, b, o, s, p in zip(*(c.tolist() for c in columns), self.passed.tolist())
        ]
        Path(path).write_text("\n".join(rows) + "\n")


# bounds whose observed minimum starts at epoch 1 rather than 0
_RULES_FROM_K1 = ("decreasing_sqrt", "decreasing_cbrt")


def certify_run(trace: RunTrace, rule: Optional[str] = None) -> list[RateCertificate]:
    """Compare observed min squared gradient norms against matched bounds.

    The matched rules, and the step parameters their bounds read, are the
    strategy's ``rate_params(problem)``; ``rule`` selects one of them.  For
    every horizon N up to the trace length, the observed minimum over
    the rule's epoch range (K = 0..N, or 1..N for the decreasing-step
    rules) must not exceed the closed-form bound.  F* is replaced by the
    problem's ``f_star_lower``, which can only loosen the bound, so passes
    remain valid certificates.  A bound that is not finite at some horizon
    certifies nothing and raises OverflowError; a rule with no horizon
    (1..N with N = 0) raises ValueError.
    """
    problem = trace.problem
    _require_smooth(problem)
    matched = trace.config.strategy.rate_params(problem)
    if rule is not None and rule not in matched:
        raise ValueError("strategy does not match this rate rule")
    rules = list(matched) if rule is None else [rule]
    if not rules:
        raise ValueError("trace strategy matches no rate rule")
    f_star = problem.f_star_lower
    if f_star is None:
        raise ValueError("no F* lower bound available")

    f0 = float(trace.f_vals[0])
    grad = trace.grad_sq[: trace.epochs_completed + 1]
    out = []
    for r in rules:
        params = {
            "f0_minus_fstar": f0 - f_star,
            "L": problem.L,
            "M": problem.M,
            **matched[r],
        }
        start = 1 if r in _RULES_FROM_K1 else 0
        horizons = np.arange(start, trace.epochs_completed + 1)
        if not horizons.size:
            raise ValueError("no completed epoch")
        bound = np.array([rate_bound(r, N=N, **params) for N in horizons.tolist()])
        bad = np.flatnonzero(~np.isfinite(bound))
        if bad.size:
            raise OverflowError(f"the {r} bound is {float(bound[bad[0]])} at N={horizons[bad[0]]}")
        observed = np.minimum.accumulate(grad[start:])
        slack = bound - observed
        passed = observed <= bound + INEQ_RTOL * (1.0 + np.abs(bound))
        out.append(
            RateCertificate(
                r, params, horizons, bound, observed, slack, passed,
                _first_least(slack), bool(passed.all()),
            )
        )
    return out


# ---------------------------------------------------------------------------
# adaptive summability
# ---------------------------------------------------------------------------


def check_summability_ada(trace: RunTrace, N: Optional[int] = None) -> MarginReport:
    """Cubed-step energy bound for the adaptive rule over epochs 0..N:

        sum_{K<=N} sum_i alpha_{K,i}^3 ||d_i||^2
          <= (1/beta) log(1 + beta n M^2 (N+1) / delta).

    The detail carries the sharper data-driven bound with the recorded
    total energy in place of n M^2 (N+1).
    """
    _require_full(trace)
    s = trace.config.strategy
    if not isinstance(s, Adaptive):
        raise ValueError("summability check applies to adaptive traces")
    if N is None:
        N = trace.epochs_completed - 1
    if N < 0 or N >= trace.epochs_completed:
        raise ValueError("N out of range")
    dnorm2 = trace.dnorm2[: N + 1].ravel().tolist()
    lhs = math.fsum(a**3 * d2 for a, d2 in zip(trace.alpha[: N + 1].ravel().tolist(), dnorm2))
    total_energy = math.fsum(dnorm2)
    problem = trace.problem
    rhs = math.log1p(s.beta * problem.n * problem.M**2 * (N + 1) / s.delta) / s.beta
    data_rhs = math.log1p(s.beta * total_energy / s.delta) / s.beta
    return _report(
        f"summability[N={N}]", lhs, rhs, INEQ_RTOL, 1.0 + abs(rhs),
        {"data_driven_rhs": data_rhs, "total_energy": total_energy},
    )


def check_adaptive_ratio_bound(trace: RunTrace) -> dict:
    """Per-epoch bound alpha_K^3 / alpha_{K,j}^3 = v_{K,j} / v_K <= 1 + beta n (.) / delta.

    Two candidate constants are evaluated: the provable M^2 variant and the
    literal M variant; the report says which (if either) is violated.
    """
    _require_full(trace)
    s = trace.config.strategy
    if not isinstance(s, Adaptive):
        raise ValueError("ratio bound applies to adaptive traces")
    problem = trace.problem
    bound_m2 = 1.0 + s.beta * problem.n * problem.M**2 / s.delta
    bound_m1 = 1.0 + s.beta * problem.n * problem.M / s.delta
    # v_K, the accumulator at the start of epoch K
    v_start = np.concatenate([[s.delta], trace.v_end[:-1]])
    worst = float(np.max(trace.v / v_start[:, None], initial=1.0))
    return {
        "max_ratio": worst,
        "bound_with_M_squared": bound_m2,
        "bound_with_M": bound_m1,
        "ok_with_M_squared": worst <= bound_m2 * (1.0 + INEQ_RTOL),
        "ok_with_M": worst <= bound_m1 * (1.0 + INEQ_RTOL),
    }


# ---------------------------------------------------------------------------
# the checks of ``wrdescent verify``
# ---------------------------------------------------------------------------


def _status(ok) -> str:
    return "pass" if ok else "fail"


def _margin(rep: MarginReport, what: str = "min rel slack"):
    if rep.non_finite:
        raise OverflowError(rep.non_finite)
    if not (math.isfinite(rep.lhs) and math.isfinite(rep.rhs)):
        raise OverflowError(f"lhs {rep.lhs}, rhs {rep.rhs} at {rep.name}")
    return _status(rep.ok), f"{what} {rep.rel_slack:.3e}", None


def _lex(trace: RunTrace):
    _require_full(trace)
    if not trace.epochs_completed:
        raise ValueError("no completed epoch")
    rep = check_lex_monotone(trace.alpha)
    return _status(rep.ok), f"violation {rep.violation}", None


def _rate(trace: RunTrace, rule: str):
    cert = certify_run(trace, rule)[0]
    N, slack = cert.N[cert.worst], cert.slack[cert.worst]
    return _status(cert.ok), f"{cert.N.size} horizons, min slack {slack:.3e} at N={N}", cert


def _gamma(trace: RunTrace):
    if not trace.epochs_completed:
        raise ValueError("no completed epoch")
    gt = flows.gamma_trace(trace)
    for what in ("taus", "ratios", "gammas"):  # a gamma reads its epoch's ratio
        values = getattr(gt, what)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise OverflowError(f"{what}[{bad[0]}] is {values[bad[0]]}")
    if gt.lambda_bound_ok is None:
        return _status(np.all(gt.ratios >= 1.0 - 1e-12)), "epoch-level ratios only", None
    return _status(gt.lambda_bound_ok), f"max hull-weight excess {gt.max_lambda_excess:.3e}", None


# Each check of a trace gives (status, detail, the rate certificate of a
# bound_* check or None).  The entries look their functions up when they
# are called, so a replaced module attribute is the one that runs.
CHECKS = {
    "step_length": lambda trace: _margin(check_step_length_bound_trace(trace)),
    "epoch_descent": lambda trace: _margin(check_epoch_descent_trace(trace)),
    "epoch_descent_tight": lambda trace: _margin(check_epoch_descent_tight_trace(trace)),
    "lex": _lex,
    **{f"bound_{rule}": partial(_rate, rule=rule) for rule in RATE_RULES},
    "summability": lambda trace: _margin(check_summability_ada(trace), "rel slack"),
    "gamma": _gamma,
}


def run_check(trace: RunTrace, name: str):
    """(status, detail, certificate) of ``CHECKS[name]``, status 'pass', 'fail' or 'skip'.

    A check whose preconditions fail raises ValueError or UnsupportedProblem
    with the reason, and one whose sides are not finite OverflowError; both
    are a skip with that reason.
    """
    try:
        return CHECKS[name](trace)
    except (UnsupportedProblem, ValueError) as err:
        return "skip", str(err), None
    except OverflowError as err:
        return "skip", f"numeric overflow: {err.args[-1]}", None
