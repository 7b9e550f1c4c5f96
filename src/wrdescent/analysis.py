"""Certification of the per-step, per-epoch and per-run bounds on traces.

Every check evaluates both sides of an inequality on recorded data and
reports the slack (rhs - lhs).  Tolerances are relative and pinned here:

  * EXACT_RTOL = 1e-12 for the step-length bound (exact algebra, only
    rounding in the recursion);
  * INEQ_RTOL = 1e-9 for inequalities involving objective evaluations
    (accumulated rounding in F differences).

Notation: alpha_K is the epoch anchor (previous epoch's last step size),
n the component count, M / L the problem constants.  The per-epoch descent
inequality certified by ``check_epoch_descent`` is

    F(x_{K+1}) - F(x_K) + (n alpha_K / 2) ||grad F(x_K)||^2
      <= (alpha_K L^2 n^2 + L n / 2 - 1/(2 alpha_K)) * S2
         + alpha_K M^2 * sum_i (1 - alpha_{K,i}^3 / alpha_K^3),

with S2 = sum_j alpha_{K,j}^2 ||d_j(zhat_{K,j-1})||^2, and
``check_descent_decomposition`` certifies the inner-product form

    <grad F(x_K), x_{K+1} - x_K> + ||x_{K+1} - x_K||^2 / (2 n alpha_K)
      <= -(n alpha_K / 2) ||grad F(x_K)||^2 + alpha_K L^2 n^2 * S2
         + alpha_K M^2 * sum_i (alpha_{K,i}/alpha_K - 1)^2.

A caution on the combined form checked by ``check_epoch_descent``: it is obtained
from the inner-product form by replacing ||x_{K+1} - x_K||^2 with its upper
bound n * S2 inside the coefficient (L/2 - 1/(2 n alpha_K)).  That
coefficient is negative whenever alpha_K < 1/(L n), in which regime the
replacement flips the inequality, so the combined form can fail on runs
with strong within-epoch cancellation (||x_{K+1} - x_K||^2 << n * S2) even
though every step of its derivation holds.  ``check_epoch_descent_tight``
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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .engine import RunTrace
from .problems import FiniteSumProblem, UnsupportedProblem
from .steps import (
    Adaptive,
    Constant,
    DecreasingCbrtWithL,
    DecreasingSqrt,
    check_lex_monotone,
)

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
        raise ValueError("this check needs a full-record trace")


def _require_smooth(problem: FiniteSumProblem):
    if not problem.is_smooth:
        raise UnsupportedProblem("this check needs a smooth problem")


# ---------------------------------------------------------------------------
# per-step length bound
# ---------------------------------------------------------------------------


def check_step_length_bound(record, *, tol: float = EXACT_RTOL) -> MarginReport:
    """Step-length bound at every inner step of one epoch.

    max{||z_{K,i}-x_K||^2, ||x_{K+1}-x_K||^2, ||zhat_{K,i-1}-x_K||^2}
    <= n * sum_j alpha_{K,j}^2 ||d_j||^2, reported as the minimum slack
    over i.  Relative to the (nonnegative) right-hand side.
    """
    if record.alpha is None:
        raise ValueError("the step-length check needs inner records")
    n = len(record.alpha)
    x = record.x_start
    rhs = n * _s2(record)
    worst = -math.inf
    arg = None
    xdiff = record.x_next - x
    cand = float(xdiff @ xdiff)
    if cand > worst:
        worst, arg = cand, ("x_next", n)
    for i, (z, zhat) in enumerate(zip(record.z, record.zhat), start=1):
        zdiff = z - x
        cand = float(zdiff @ zdiff)
        if cand > worst:
            worst, arg = cand, ("z", i)
        hdiff = zhat - x
        cand = float(hdiff @ hdiff)
        if cand > worst:
            worst, arg = cand, ("zhat", i)
    if rhs == 0.0 and worst == 0.0:
        denom = 1.0
    else:
        denom = max(rhs, 1e-300)
    return _report(
        f"step_length[K={record.K}]", worst, rhs, tol, denom, {"argmax": arg}
    )


def check_step_length_bound_trace(trace: RunTrace, *, tol: float = EXACT_RTOL) -> MarginReport:
    """Minimum step-length-bound slack over all epochs of a full trace."""
    _require_full(trace)
    worst = None
    for rec in trace.records:
        rep = check_step_length_bound(rec, tol=tol)
        if worst is None or rep.rel_slack < worst.rel_slack:
            worst = rep
    if worst is None:
        raise ValueError("trace has no completed epochs")
    return worst


# ---------------------------------------------------------------------------
# per-epoch descent inequalities
# ---------------------------------------------------------------------------


def _s2(record) -> float:
    """S2 = sum_j alpha_{K,j}^2 ||d_j||^2, term by term in Python floats."""
    return math.fsum(a**2 * d2 for a, d2 in zip(record.alpha.tolist(), record.dnorm2.tolist()))


def _epoch_sums(trace: RunTrace, K: int, alpha_k: float):
    rec = trace.records[K]
    ratio_cube = math.fsum(1.0 - (a / alpha_k) ** 3 for a in rec.alpha.tolist())
    return rec, _s2(rec), ratio_cube


def check_epoch_descent(trace: RunTrace, K: int, *, tol: float = INEQ_RTOL) -> MarginReport:
    """Per-epoch descent inequality (see module docstring) at epoch K."""
    _require_full(trace)
    problem = trace.problem
    _require_smooth(problem)
    lex = check_lex_monotone([rec.alpha for rec in trace.records])
    if not lex.ok:
        raise ValueError(f"step sizes violate lexicographic monotonicity at {lex.violation}")
    n = problem.n
    alpha_k = trace.epoch_anchor(K)
    rec, s2, ratio_cube = _epoch_sums(trace, K, alpha_k)
    lhs = (
        trace.f_vals[K + 1]
        - trace.f_vals[K]
        + 0.5 * n * alpha_k * trace.grad_sq[K]
    )
    rhs = (
        alpha_k * problem.L**2 * n**2 + problem.L * n / 2.0 - 1.0 / (2.0 * alpha_k)
    ) * s2 + alpha_k * problem.M**2 * ratio_cube
    return _report(
        f"epoch_descent[K={K}]", float(lhs), float(rhs), tol, 1.0 + abs(rhs),
        {"alpha_K": alpha_k, "S2": s2, "ratio_term": ratio_cube},
    )


def check_epoch_descent_tight(
    trace: RunTrace, K: int, *, tol: float = INEQ_RTOL
) -> MarginReport:
    """Repaired per-epoch inequality keeping ||x_{K+1} - x_K||^2 exactly.

    Valid in every step-size regime (see the module docstring); coincides
    with the combined form when within-epoch displacements are not
    cancelling.
    """
    _require_full(trace)
    problem = trace.problem
    _require_smooth(problem)
    n = problem.n
    alpha_k = trace.epoch_anchor(K)
    rec, s2, ratio_cube = _epoch_sums(trace, K, alpha_k)
    diff = trace.xs[K + 1] - trace.xs[K]
    d2 = float(diff @ diff)
    lhs = (
        trace.f_vals[K + 1]
        - trace.f_vals[K]
        + 0.5 * n * alpha_k * trace.grad_sq[K]
    )
    rhs = (
        alpha_k * problem.L**2 * n**2 * s2
        + alpha_k * problem.M**2 * ratio_cube
        + (problem.L / 2.0 - 1.0 / (2.0 * n * alpha_k)) * d2
    )
    return _report(
        f"epoch_descent_tight[K={K}]", float(lhs), float(rhs), tol, 1.0 + abs(rhs),
        {"alpha_K": alpha_k, "S2": s2, "displacement_sq": d2},
    )


def _worst_over_epochs(trace, check, k_min, k_max, tol):
    if k_max is None:
        k_max = trace.epochs_completed - 1
    worst = None
    for K in range(k_min, k_max + 1):
        rep = check(trace, K, tol=tol)
        if worst is None or rep.rel_slack < worst.rel_slack:
            worst = rep
    if worst is None:
        raise ValueError("empty epoch range")
    return worst


def check_epoch_descent_trace(
    trace: RunTrace, *, k_min: int = 1, k_max: Optional[int] = None, tol: float = INEQ_RTOL
) -> MarginReport:
    """Minimum combined-form slack over epochs K in [k_min, k_max]."""
    return _worst_over_epochs(trace, check_epoch_descent, k_min, k_max, tol)


def check_epoch_descent_tight_trace(
    trace: RunTrace, *, k_min: int = 1, k_max: Optional[int] = None, tol: float = INEQ_RTOL
) -> MarginReport:
    """Minimum repaired-form slack over epochs K in [k_min, k_max]."""
    return _worst_over_epochs(trace, check_epoch_descent_tight, k_min, k_max, tol)


def check_descent_decomposition(
    trace: RunTrace, K: int, *, tol: float = INEQ_RTOL
) -> MarginReport:
    """Inner-product form of the per-epoch bound (no objective values)."""
    _require_full(trace)
    problem = trace.problem
    _require_smooth(problem)
    n = problem.n
    alpha_k = trace.epoch_anchor(K)
    rec = trace.records[K]
    s2 = _s2(rec)
    ratio_sq = math.fsum((a / alpha_k - 1.0) ** 2 for a in rec.alpha.tolist())
    g = problem.full_direction(trace.xs[K])
    diff = trace.xs[K + 1] - trace.xs[K]
    lhs = float(g @ diff) + float(diff @ diff) / (2.0 * n * alpha_k)
    rhs = (
        -0.5 * n * alpha_k * float(g @ g)
        + alpha_k * problem.L**2 * n**2 * s2
        + alpha_k * problem.M**2 * ratio_sq
    )
    return _report(
        f"descent_decomposition[K={K}]", lhs, rhs, tol, 1.0 + abs(rhs),
        {"alpha_K": alpha_k},
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
    n: Optional[int] = None,
    delta: Optional[float] = None,
    beta: Optional[float] = None,
) -> float:
    """Closed-form bound on the min-over-epochs squared gradient norm.

    rule = "constant":         step alpha/n, no condition on alpha
           "decreasing_sqrt":  alpha_{K,i} = 1/(n sqrt(K+1)), min over K = 1..N
           "constant_with_l":  step alpha/n with alpha <= 1/L (tighter bound)
           "decreasing_cbrt":  alpha_{K,i} = 1/(L n (K+1)^(1/3)), min over K = 1..N
           "adaptive":         accumulator rule with beta = n^2, delta = n^3
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
        if n is not None:
            if beta is not None and beta != float(n) ** 2:
                raise ValueError("adaptive bound assumes beta = n^2")
            if delta is not None and delta != float(n) ** 3:
                raise ValueError("adaptive bound assumes delta = n^3")
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


@dataclass(frozen=True)
class BoundReport:
    rule: str
    N: int
    bound: float
    observed: float
    slack: float
    ok: bool


@dataclass(frozen=True)
class RateCertificate:
    rule: str
    params: dict
    reports: list
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


# bounds whose observed minimum starts at epoch 1 rather than 0
_RULES_FROM_K1 = ("decreasing_sqrt", "decreasing_cbrt")


def matching_rate_rules(trace: RunTrace) -> list[str]:
    """Rate rules whose step schedule matches the trace's strategy."""
    s = trace.config.strategy
    problem = trace.problem
    if isinstance(s, Constant):
        out = ["constant"]
        if problem.is_smooth and s.alpha <= 1.0 / problem.L:
            out.append("constant_with_l")
        return out
    if isinstance(s, DecreasingSqrt):
        return ["decreasing_sqrt"]
    if isinstance(s, DecreasingCbrtWithL):
        return ["decreasing_cbrt"]
    if isinstance(s, Adaptive):
        n = float(s.n)
        if s.beta == n**2 and s.delta == n**3:
            return ["adaptive"]
        return []
    return []


def certify_run(
    trace: RunTrace,
    rule: Optional[str] = None,
    *,
    f_star: Optional[float] = None,
    tol: float = INEQ_RTOL,
) -> list[RateCertificate]:
    """Compare observed min squared gradient norms against matched bounds.

    For every horizon N up to the trace length, the observed minimum over
    the rule's epoch range (K = 0..N, or 1..N for the decreasing-step
    rules) must not exceed the closed-form bound.  F* is replaced by
    ``f_star`` (default: the problem's recorded lower bound), which can only
    loosen the bound, so passes remain valid certificates.
    """
    problem = trace.problem
    _require_smooth(problem)
    if f_star is None:
        f_star = problem.f_star_lower
    if f_star is None:
        raise ValueError("no F* lower bound available")
    rules = matching_rate_rules(trace) if rule is None else [rule]
    if not rules:
        raise ValueError("trace strategy matches no rate rule")
    allowed = matching_rate_rules(trace)
    for r in rules:
        if r not in allowed:
            raise ValueError(f"rule {r!r} does not match the trace strategy")

    s = trace.config.strategy
    f0 = float(trace.f_vals[0])
    grad = trace.grad_sq[: trace.epochs_completed + 1]
    running = np.minimum.accumulate(grad)
    n_total = trace.epochs_completed
    out = []
    for r in rules:
        params = {
            "f0_minus_fstar": f0 - f_star,
            "L": problem.L,
            "M": problem.M,
            "n": problem.n,
        }
        if isinstance(s, Constant):
            params["alpha"] = s.alpha
        if isinstance(s, Adaptive):
            params["beta"] = s.beta
            params["delta"] = s.delta
        start = 1 if r in _RULES_FROM_K1 else 0
        reports = []
        for N in range(start, n_total + 1):
            if r in _RULES_FROM_K1:
                observed = float(np.min(grad[1 : N + 1]))
            else:
                observed = float(running[N])
            bound = rate_bound(r, N=N, **params)
            slack = bound - observed
            reports.append(
                BoundReport(
                    rule=r,
                    N=N,
                    bound=bound,
                    observed=observed,
                    slack=slack,
                    ok=observed <= bound + tol * (1.0 + abs(bound)),
                )
            )
        out.append(
            RateCertificate(
                rule=r,
                params=params,
                reports=reports,
                ok=all(r2.ok for r2 in reports),
            )
        )
    return out


# ---------------------------------------------------------------------------
# adaptive summability
# ---------------------------------------------------------------------------


def check_summability_ada(
    trace: RunTrace, N: Optional[int] = None, *, tol: float = INEQ_RTOL
) -> MarginReport:
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
    lhs_terms = []
    energy = []
    for rec in trace.records[: N + 1]:
        dnorm2 = rec.dnorm2.tolist()
        lhs_terms.extend(a**3 * d2 for a, d2 in zip(rec.alpha.tolist(), dnorm2))
        energy.extend(dnorm2)
    lhs = math.fsum(lhs_terms)
    total_energy = math.fsum(energy)
    problem = trace.problem
    rhs = math.log1p(s.beta * problem.n * problem.M**2 * (N + 1) / s.delta) / s.beta
    data_rhs = math.log1p(s.beta * total_energy / s.delta) / s.beta
    return _report(
        f"summability[N={N}]", lhs, rhs, tol, 1.0 + abs(rhs),
        {"data_driven_rhs": data_rhs, "total_energy": total_energy},
    )


def check_adaptive_ratio_bound(trace: RunTrace, *, tol: float = INEQ_RTOL) -> dict:
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
    worst = 1.0
    v_prev = s.delta
    for rec in trace.records:
        worst = max(worst, float(np.max(rec.v / v_prev)))
        v_prev = rec.v_end
    return {
        "max_ratio": worst,
        "bound_with_M_squared": bound_m2,
        "bound_with_M": bound_m1,
        "ok_with_M_squared": worst <= bound_m2 * (1.0 + tol),
        "ok_with_M": worst <= bound_m1 * (1.0 + tol),
    }


# ---------------------------------------------------------------------------
# elementary lemmas and oracle fidelity
# ---------------------------------------------------------------------------


def lemma_norm_sum_check(vectors, *, tol: float = EXACT_RTOL) -> MarginReport:
    """||sum a_i||^2 <= m * sum ||a_i||^2 (tight for aligned vectors)."""
    vs = [np.asarray(v, dtype=float) for v in vectors]
    if not vs:
        raise ValueError("need at least one vector")
    m = len(vs)
    total = vs[0].copy()
    for v in vs[1:]:
        total += v
    lhs = float(total @ total)
    rhs = m * math.fsum(float(v @ v) for v in vs)
    denom = max(rhs, 1.0)
    return _report("lemma_norm_sum", lhs, rhs, tol, denom)


def lemma_log_sum_check(a, b: float, c: float, *, tol: float = INEQ_RTOL) -> MarginReport:
    """sum_i a_i / (b + c * prefix_i) <= (1/c) log(1 + c sum a / b).

    prefix_i includes a_i itself; a must be positive, b, c > 0.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ValueError("need at least one term")
    if np.any(a <= 0) or b <= 0 or c <= 0:
        raise ValueError("a entries, b and c must be positive")
    prefix = np.cumsum(a)
    lhs = math.fsum(a / (b + c * prefix))
    rhs = math.log1p(c * float(prefix[-1]) / b) / c
    return _report("lemma_log_sum", lhs, rhs, tol, 1.0 + abs(rhs))


def lipschitz_gradient_check(problem: FiniteSumProblem, pairs) -> float:
    """max over pairs of ||grad F(x) - grad F(y)|| / ||x - y||; <= L when smooth."""
    _require_smooth(problem)
    worst = 0.0
    for x, y in pairs:
        x = problem.check_point(x)
        y = problem.check_point(y)
        dist = float(np.linalg.norm(x - y))
        if dist == 0.0:
            raise ValueError("pairs must contain distinct points")
        num = float(np.linalg.norm(problem.full_direction(x) - problem.full_direction(y)))
        worst = max(worst, num / dist)
    return worst
