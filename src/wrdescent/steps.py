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
from dataclasses import dataclass, field
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

    ``v`` is the adaptive accumulator (None for prescribed strategies),
    ``history`` the per-epoch lists of recorded alpha values and ``current``
    the in-progress epoch.
    """

    n: int
    v: Optional[float] = None
    history: list = field(default_factory=list)
    current: list = field(default_factory=list)

    @property
    def completed_epochs(self) -> int:
        return len(self.history)

    @property
    def last_alpha_of_prev_epoch(self) -> Optional[float]:
        if not self.history:
            return None
        return self.history[-1][-1]

    def flat_history(self) -> np.ndarray:
        out = [a for epoch in self.history for a in epoch]
        out.extend(self.current)
        return np.asarray(out)


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
    """alpha_{K,i}, recording it in ``state`` (mutated in place).

    For the adaptive rule the accumulator update v += beta * dnorm2 happens
    before the returned v^(-1/3); prescribed rules ignore ``dnorm2``.
    Calls must follow the run order: (K, i) = (#complete epochs, #steps+1).
    """
    if K != state.completed_epochs:
        raise ValueError(
            f"step_value called at epoch {K}, state is at epoch {state.completed_epochs}"
        )
    if i != len(state.current) + 1 or not (1 <= i <= state.n):
        raise ValueError(f"step_value called at inner index {i}, expected {len(state.current) + 1}")
    if dnorm2 < 0:
        raise ValueError("dnorm2 must be nonnegative")
    if is_adaptive(strategy):
        state.v = state.v + strategy.beta * dnorm2
        alpha = state.v ** (-1.0 / 3.0)
    else:
        alpha = strategy.prescribed_value(K)
    state.current.append(alpha)
    if len(state.current) == state.n:
        state.history.append(state.current)
        state.current = []
    return alpha


def epoch_anchor(
    strategy: StepStrategy, state: Optional[StepState], K: int
) -> float:
    """Anchor alpha_K = alpha_{K-1,n} (K >= 1); see module docstring for K = 0.

    Requires epoch K-1 to be complete; prescribed strategies may pass
    ``state=None`` and use the closed form.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if state is not None and state.completed_epochs < K:
        raise ValueError(
            f"epoch_anchor({K}) called with only {state.completed_epochs} complete epochs"
        )
    if is_adaptive(strategy):
        if K == 0:
            return strategy.delta ** (-1.0 / 3.0)
        if state is None:
            raise ValueError("adaptive anchor needs the run state")
        return state.history[K - 1][-1]
    if K == 0:
        return strategy.prescribed_value(0)
    if state is not None:
        return state.history[K - 1][-1]
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
    nonincreasing.
    """
    epochs = [list(e) for e in history]
    if not any(epochs):
        raise ValueError("history must contain at least one recorded step")
    flat = []
    pos = []
    for K, epoch in enumerate(epochs):
        for idx, a in enumerate(epoch):
            flat.append(a)
            pos.append((K, idx + 1))
    for k in range(1, len(flat)):
        if flat[k] > flat[k - 1]:
            return LexReport(ok=False, violation=pos[k])
    return LexReport(ok=True)


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
