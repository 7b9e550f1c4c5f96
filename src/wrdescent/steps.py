"""Step-size strategies for epoch-based incremental descent.

Epochs are indexed K = 0, 1, ... and inner steps i = 1..n.  All strategies
produce a per-inner-step size alpha_{K,i} that is nonincreasing in the
lexicographic order on (K, i):

    alpha_{K,i-1} >= alpha_{K,i} >= alpha_{K+1,1}.

Prescribed rules (per epoch K, constant within the epoch):
    Constant(alpha):          alpha / n
    DecreasingSqrt:           1 / (n sqrt(K+1))
    DecreasingCbrtWithL(L):   1 / (L n (K+1)^(1/3))

The adaptive rule is the scalar cube-root variant of Adagrad-norm: an
accumulator v starts at delta and, at every inner step, is increased by
beta * ||d||^2 BEFORE the step size v^(-1/3) is computed.

The epoch anchor alpha_K is the previous epoch's last step size
(alpha_{K-1,n}); for K = 0 it is delta^(-1/3) for the adaptive rule and
alpha_{0,1} for prescribed rules (which satisfies alpha_0 >= alpha_{0,1}
with equality).  Each strategy class names its serialized form in
``VARIANT``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union, get_args

import numpy as np


@dataclass(frozen=True)
class Constant:
    alpha: float
    n: int
    VARIANT = "constant"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        _check_n(self.n)

    def prescribed_value(self, K: int) -> float:
        return self.alpha / self.n


@dataclass(frozen=True)
class DecreasingSqrt:
    n: int
    VARIANT = "decreasing_sqrt"

    def __post_init__(self):
        _check_n(self.n)

    def prescribed_value(self, K: int) -> float:
        return 1.0 / (self.n * math.sqrt(K + 1.0))


@dataclass(frozen=True)
class DecreasingCbrtWithL:
    L: float
    n: int
    VARIANT = "decreasing_cbrt"

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")
        _check_n(self.n)

    def prescribed_value(self, K: int) -> float:
        return 1.0 / (self.L * self.n * (K + 1.0) ** (1.0 / 3.0))


@dataclass(frozen=True)
class Adaptive:
    delta: float
    beta: float
    n: int
    VARIANT = "adaptive"

    def __post_init__(self):
        if self.delta <= 0 or self.beta <= 0:
            raise ValueError("delta and beta must be positive")
        _check_n(self.n)

    @classmethod
    def recommended(cls, n: int) -> "Adaptive":
        # beta = n^2, delta = n^3 are the defaults backing the adaptive
        # rate certificate; both are overridable.
        return cls(delta=float(n) ** 3, beta=float(n) ** 2, n=n)


StepStrategy = Union[Constant, DecreasingSqrt, DecreasingCbrtWithL, Adaptive]
STRATEGIES = {cls.VARIANT: cls for cls in get_args(StepStrategy)}


def _check_n(n):
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")


def is_adaptive(strategy: StepStrategy) -> bool:
    return isinstance(strategy, Adaptive)


@dataclass
class StepState:
    """Mutable per-run bookkeeping owned by a single run.

    ``v`` is the adaptive accumulator (None for prescribed strategies);
    ``K`` and ``i`` place the state after inner step i of epoch K (i = 0:
    epoch K not started).  The alpha values themselves live in the run's
    record.
    """

    n: int
    v: Optional[float] = None
    K: int = 0
    i: int = 0


def new_state(strategy: StepStrategy) -> StepState:
    v = strategy.delta if is_adaptive(strategy) else None
    return StepState(n=strategy.n, v=v)


def step_value(
    strategy: StepStrategy,
    state: StepState,
    K: int,
    i: int,
    dnorm2: float = 0.0,
) -> float:
    """alpha_{K,i}, advancing ``state`` (mutated in place).

    For the adaptive rule the accumulator update v += beta * dnorm2 happens
    before the returned v^(-1/3); prescribed rules ignore ``dnorm2``.
    Calls must follow the run order: (K, i) = (state.K, state.i + 1).
    """
    if K != state.K:
        raise ValueError(f"step_value called at epoch {K}, state is at epoch {state.K}")
    if i != state.i + 1 or not (1 <= i <= state.n):
        raise ValueError(f"step_value called at inner index {i}, expected {state.i + 1}")
    if dnorm2 < 0:
        raise ValueError("dnorm2 must be nonnegative")
    if is_adaptive(strategy):
        state.v = state.v + strategy.beta * dnorm2
        alpha = state.v ** (-1.0 / 3.0)
    else:
        alpha = strategy.prescribed_value(K)
    if i == state.n:
        state.K, state.i = K + 1, 0
    else:
        state.i = i
    return alpha


def epoch_anchor(strategy: StepStrategy, K: int, alpha_last=None) -> float:
    """Anchor alpha_K = alpha_{K-1,n} (K >= 1); see module docstring for K = 0.

    ``alpha_last`` holds the last step size of each completed epoch and must
    cover epoch K-1; without it prescribed strategies use the closed form.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if alpha_last is not None and len(alpha_last) < K:
        raise ValueError(f"epoch_anchor({K}) called with only {len(alpha_last)} complete epochs")
    if K == 0:
        if is_adaptive(strategy):
            return strategy.delta ** (-1.0 / 3.0)
        return strategy.prescribed_value(0)
    if alpha_last is not None:
        return float(alpha_last[K - 1])
    if is_adaptive(strategy):
        raise ValueError("adaptive anchor needs the recorded alpha_last")
    return strategy.prescribed_value(K - 1)


@dataclass(frozen=True)
class LexReport:
    ok: bool
    violation: Optional[tuple] = None  # (K, i) of the offending later entry

    def __bool__(self) -> bool:
        return self.ok


def check_lex_monotone(history) -> LexReport:
    """Whether recorded alphas are nonincreasing in lexicographic order.

    ``history`` is a sequence of per-epoch alpha sequences (the last epoch
    may be partial).  Equivalent to the flattened sequence being
    nonincreasing, which is scanned once.
    """
    epochs = [np.asarray(e, dtype=float) for e in history]
    flat = np.concatenate(epochs) if epochs else np.zeros(0)
    if flat.size == 0:
        raise ValueError("history must contain at least one recorded step")
    rises = np.flatnonzero(flat[1:] > flat[:-1])
    if rises.size == 0:
        return LexReport(ok=True)
    k = int(rises[0]) + 1
    ends = np.cumsum([e.size for e in epochs])
    K = int(np.searchsorted(ends, k, side="right"))
    return LexReport(ok=False, violation=(K, k - int(ends[K]) + epochs[K].size + 1))


@dataclass(frozen=True)
class AsymptoticReport:
    """Finite-horizon proxies for the vanishing-step conditions.

    sum_alpha_first approximates the divergent series sum_K alpha_{K,1};
    last_alpha_first should approach 0 and ratio alpha_{K,1}/alpha_{K,n}
    should approach 1.
    """

    K_max: int
    sum_alpha_first: float
    last_alpha_first: float
    ratio_first_to_last: float
    alpha_ok: bool
    ratio_ok: bool


def check_asymptotic_conditions(
    history,
    K_max: Optional[int] = None,
    *,
    alpha_threshold: float = 1e-2,
    ratio_tol: float = 1e-3,
) -> AsymptoticReport:
    epochs = [list(e) for e in history]
    complete = [e for e in epochs if e]
    if K_max is None:
        K_max = len(complete) - 1
    if K_max < 0 or K_max >= len(complete):
        raise ValueError("history does not span K_max complete epochs")
    firsts = [e[0] for e in complete[: K_max + 1]]
    last_epoch = complete[K_max]
    ratio = last_epoch[0] / last_epoch[-1]
    return AsymptoticReport(
        K_max=K_max,
        sum_alpha_first=math.fsum(firsts),
        last_alpha_first=firsts[-1],
        ratio_first_to_last=ratio,
        alpha_ok=firsts[-1] <= alpha_threshold,
        ratio_ok=abs(ratio - 1.0) <= ratio_tol,
    )
