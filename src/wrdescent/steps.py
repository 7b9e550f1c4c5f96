"""Step-size strategies for epoch-based incremental descent.

Epochs are indexed K = 0, 1, ... and inner steps i = 1..n.  All strategies
produce a per-inner-step size alpha_{K,i} that is nonincreasing in the
lexicographic order on (K, i):

    alpha_{K,i-1} >= alpha_{K,i} >= alpha_{K+1,1}.

Prescribed rules (per epoch K, constant within the epoch):
    Constant(alpha):          alpha / n
    DecreasingSqrt:           1 / (n sqrt(K+1))
    DecreasingCbrtWithL(L):   1 / (L n (K+1)^(1/3))

A strategy holds only its rule's parameters; n, the number of components,
is the problem's, and each function that computes a step size takes it.

The adaptive rule is the scalar cube-root variant of Adagrad-norm: an
accumulator v starts at delta and, at every inner step, is increased by
beta * ||d||^2 BEFORE the step size v^(-1/3) is computed.  That v is the
rule's only state, and a run's record holds it (``v`` per step, ``v_end``
per epoch), so ``step_value`` and ``epoch_step`` are pure functions: the
caller passes the accumulator in and keeps the one returned.

The epoch anchor alpha_K is the previous epoch's last step size
(alpha_{K-1,n}); for K = 0 it is delta^(-1/3) for the adaptive rule and
alpha_{0,1} for prescribed rules (which satisfies alpha_0 >= alpha_{0,1}
with equality).  Each strategy class names its serialized form in
``VARIANT`` and the rate rules it meets in ``rate_params(problem)``.
``check_lex_monotone`` certifies the order above on a record's (N, n)
array of step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union, get_args

import numpy as np


@dataclass(frozen=True)
class Constant:
    alpha: float
    VARIANT = "constant"

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")

    def prescribed_value(self, K: int, n: int) -> float:
        return self.alpha / n

    def rate_params(self, problem) -> dict:
        """{rule: step parameters} of the ``analysis.rate_bound`` rules whose
        step assumptions this strategy meets on ``problem``."""
        rules = {"constant": {"alpha": self.alpha}}
        if problem.is_smooth and self.alpha <= 1.0 / problem.L:
            rules["constant_with_l"] = {"alpha": self.alpha}
        return rules


@dataclass(frozen=True)
class DecreasingSqrt:
    VARIANT = "decreasing_sqrt"

    def prescribed_value(self, K: int, n: int) -> float:
        return 1.0 / (n * math.sqrt(K + 1.0))

    def rate_params(self, problem) -> dict:
        return {"decreasing_sqrt": {}}


@dataclass(frozen=True)
class DecreasingCbrtWithL:
    L: float
    VARIANT = "decreasing_cbrt"

    def __post_init__(self):
        if self.L <= 0:
            raise ValueError("L must be positive")

    def prescribed_value(self, K: int, n: int) -> float:
        return 1.0 / (self.L * n * (K + 1.0) ** (1.0 / 3.0))

    def rate_params(self, problem) -> dict:
        # any upper bound on the problem's gradient Lipschitz constant is
        # itself one, so the bound reads the L the steps were built from
        if problem.is_smooth and self.L >= problem.L:
            return {"decreasing_cbrt": {"L": self.L}}
        return {}


@dataclass(frozen=True)
class Adaptive:
    delta: float
    beta: float
    VARIANT = "adaptive"

    def __post_init__(self):
        if self.delta <= 0 or self.beta <= 0:
            raise ValueError("delta and beta must be positive")

    @classmethod
    def recommended(cls, n: int) -> "Adaptive":
        # beta = n^2, delta = n^3 are the defaults backing the adaptive
        # rate certificate; both are overridable.
        return cls(delta=float(n) ** 3, beta=float(n) ** 2)

    @staticmethod
    def step_size(v: float) -> float:
        """alpha = v^(-1/3) of the accumulator v after its update: Python's
        ``**``, whose bits ``np.power`` does not always have."""
        return v ** (-1.0 / 3.0)

    def rate_params(self, problem) -> dict:
        # the adaptive bound assumes beta = n^2 and delta = n^3 and reads neither
        if self == Adaptive.recommended(problem.n):
            return {"adaptive": {}}
        return {}


StepStrategy = Union[Constant, DecreasingSqrt, DecreasingCbrtWithL, Adaptive]
STRATEGIES = {cls.VARIANT: cls for cls in get_args(StepStrategy)}


def step_value(strategy: StepStrategy, K: int, n: int, v: Optional[float], dnorm2: float = 0.0) -> tuple:
    """(v, alpha_{K,i}) of a step of epoch K of a problem of n components,
    taken after accumulator ``v``.

    The adaptive rule updates v += beta * dnorm2 before the returned
    alpha = v^(-1/3), which reads no n; ``v`` before the run's first step is
    ``delta``.  A prescribed rule returns ``v`` unchanged and
    ``prescribed_value(K, n)``, ignoring ``dnorm2``.
    """
    if dnorm2 < 0:
        raise ValueError("dnorm2 must be nonnegative")
    if isinstance(strategy, Adaptive):
        v = v + strategy.beta * dnorm2
        return v, v ** (-1.0 / 3.0)  # Adaptive.step_size(v), without its call
    return v, strategy.prescribed_value(K, n)


def epoch_step(strategy: StepStrategy, K: int, n: int) -> Optional[float]:
    """The one step size of every inner step of epoch K, or None when steps vary.

    A prescribed strategy's alpha_{K,i} is ``prescribed_value(K, n)`` for each
    i; the adaptive rule gives None and takes a step_value call at each step.
    """
    if isinstance(strategy, Adaptive):
        return None
    return strategy.prescribed_value(K, n)


def epoch_anchor(strategy: StepStrategy, K: int, n: int, alpha_last=()) -> float:
    """Anchor alpha_K = alpha_{K-1,n} (K >= 1); see module docstring for K = 0.

    ``alpha_last`` holds the last step size of each completed epoch and must
    cover epoch K-1.
    """
    if K < 0:
        raise ValueError("K must be nonnegative")
    if len(alpha_last) < K:
        raise ValueError(f"epoch_anchor({K}) called with only {len(alpha_last)} complete epochs")
    if K == 0:
        if isinstance(strategy, Adaptive):
            return strategy.step_size(strategy.delta)
        return strategy.prescribed_value(0, n)
    return float(alpha_last[K - 1])


@dataclass(frozen=True)
class LexReport:
    ok: bool
    violation: Optional[tuple] = None  # (K, i) of the offending later entry

    def __bool__(self) -> bool:
        return self.ok


def check_lex_monotone(alpha) -> LexReport:
    """Whether a record's step sizes are nonincreasing in lexicographic order.

    ``alpha`` is the record's (N, n) array, row K holding alpha_{K,1..n}.
    Its rows read in run order are one nonincreasing sequence exactly when
    the order holds, so the scan is of the flattened array; a violation is
    the (K, i) of the first step larger than the one before it.  Input that
    is empty or not 2-D raises ValueError.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.ndim != 2 or alpha.size == 0:
        raise ValueError(f"alpha must be a nonempty (N, n) array, got shape {alpha.shape}")
    flat = alpha.ravel()
    rises = np.flatnonzero(flat[1:] > flat[:-1])
    if rises.size == 0:
        return LexReport(ok=True)
    K, i = divmod(int(rises[0]) + 1, alpha.shape[1])
    return LexReport(ok=False, violation=(K, i + 1))
