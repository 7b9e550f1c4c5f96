"""Evaluation-point policies and per-epoch query orders.

At inner step i of an epoch, the direction oracle is queried at a point
zhat_{K,i-1} lying in the convex hull of the epoch's earlier iterates
z_{K,0}, ..., z_{K,i-1}.  A policy returns the hull weights; the built-in
variants model the classical schemes:

    FullGradient   all mass on z_{K,0} = x_K       (batch gradient descent)
    Incremental    all mass on z_{K,i-1}           (pure incremental)
    MiniBatch(b)   mass on the batch's start point z_{K, b*floor((i-1)/b)}
    DelayedAsync   mass on z_{K, i-1-delay}, delay drawn per (K, i)
    ConvexMix      strictly positive Dirichlet weights (general hull case)

Draw-based policies use counter-based generators keyed on (seed, K, i), so
runs replay exactly without storing the draws.  Permutation policies decide
the order components are queried in; every epoch visits each component
exactly once.  Component indices are 0-based; inner positions are 1-based.
Each policy class names its serialized form in ``VARIANT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union, get_args

import numpy as np

# stream tags keep draw streams for different purposes disjoint
_TAG_DELAY = 1
_TAG_MIX = 2
_TAG_PERM = 3


def counter_rng(seed: int, *counters: int) -> np.random.Generator:
    """Deterministic generator for the given (seed, counters...) key."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng((int(seed),) + tuple(int(c) for c in counters))


# ---------------------------------------------------------------------------
# evaluation points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullGradient:
    VARIANT = "full_gradient"

    def support(self, K: int, i: int) -> Optional[int]:
        return 0


@dataclass(frozen=True)
class Incremental:
    VARIANT = "incremental"

    def support(self, K: int, i: int) -> Optional[int]:
        return i - 1


@dataclass(frozen=True)
class MiniBatch:
    b: int
    VARIANT = "mini_batch"

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("batch size must be at least 1")

    def support(self, K: int, i: int) -> Optional[int]:
        return ((i - 1) // self.b) * self.b


@dataclass(frozen=True)
class DelayedAsync:
    max_delay: int
    seed: int
    VARIANT = "delayed_async"

    def __post_init__(self):
        if self.max_delay < 0:
            raise ValueError("max_delay must be nonnegative")

    def support(self, K: int, i: int) -> Optional[int]:
        delay = int(counter_rng(self.seed, _TAG_DELAY, K, i).integers(0, self.max_delay + 1))
        return max(0, i - 1 - delay)


@dataclass(frozen=True)
class ConvexMix:
    seed: int
    VARIANT = "convex_mix"

    def support(self, K: int, i: int) -> Optional[int]:
        return None

    def weights(self, K: int, i: int) -> np.ndarray:
        """Strictly positive Dirichlet hull weights for step (K, i)."""
        return counter_rng(self.seed, _TAG_MIX, K, i).dirichlet(np.ones(i))


EvalPointPolicy = Union[FullGradient, Incremental, MiniBatch, DelayedAsync, ConvexMix]
EVAL_POLICIES = {cls.VARIANT: cls for cls in get_args(EvalPointPolicy)}


def eval_support(policy: EvalPointPolicy, K: int, i: int) -> Optional[int]:
    """Index j with zhat = z_{K,j} for single-point policies, None otherwise."""
    if i < 1:
        raise ValueError("inner index i must be at least 1")
    return policy.support(K, i)


def eval_point(policy: EvalPointPolicy, K: int, i: int) -> np.ndarray:
    """Hull weights over (z_{K,0}, ..., z_{K,i-1}): nonnegative, summing to 1."""
    j = eval_support(policy, K, i)
    if j is not None:
        w = np.zeros(i)
        w[j] = 1.0
        return w
    return policy.weights(K, i)


def hull_point(weights: np.ndarray, points) -> np.ndarray:
    """Combination sum_j weights[j] * points[j], accumulated in increasing j.

    ``points`` is a sequence of vectors or an array with one row per point.
    The terms weights[j] * points[j] of the nonzero weights are summed with
    one cumulative sum, which adds them one at a time in index order, the
    order of a left-to-right loop (``sum(axis=0)`` may pair them
    differently).  A single unit weight returns a copy of its point.  The
    engine calls this for policies without a single support point, and
    ``load_trace`` calls it to rebuild zhat from eval_point(policy, K, i)
    and z_{K,0..i-1}, bit for bit; traces do not store weights or zhat.
    """
    nz = np.flatnonzero(weights)
    if nz.size == 0:
        raise ValueError("weights must have at least one nonzero entry")
    if nz.size == 1 and weights[nz[0]] == 1.0:
        return points[nz[0]].copy()
    # the last partial sum, copied so the (k, p) array of partial sums is freed
    return np.cumsum(weights[nz, None] * np.asarray(points)[nz], axis=0)[-1].copy()


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    VARIANT = "identity"
    needs_probe = False

    def order(self, K: int, n: int, probe: Optional[np.ndarray]) -> np.ndarray:
        return np.arange(n)


@dataclass(frozen=True)
class FixedPermutation:
    perm: tuple
    VARIANT = "fixed"
    needs_probe = False

    def __post_init__(self):
        # a perm read from JSON is a list; the frozen policy keeps it hashable
        object.__setattr__(self, "perm", tuple(self.perm))
        if sorted(self.perm) != list(range(len(self.perm))):
            raise ValueError("perm must be a 0-based permutation of range(n)")

    def order(self, K: int, n: int, probe: Optional[np.ndarray]) -> np.ndarray:
        if len(self.perm) != n:
            raise ValueError("fixed permutation length does not match n")
        return np.asarray(self.perm, dtype=int)


@dataclass(frozen=True)
class ShuffledPerEpoch:
    seed: int
    VARIANT = "shuffled"
    needs_probe = False

    def order(self, K: int, n: int, probe: Optional[np.ndarray]) -> np.ndarray:
        return counter_rng(self.seed, _TAG_PERM, K).permutation(n)


@dataclass(frozen=True)
class AdversarialMaxNorm:
    """Queries components by descending ||d_i(x_K)|| (worst-case probing)."""

    VARIANT = "adversarial"
    needs_probe = True

    def order(self, K: int, n: int, probe: Optional[np.ndarray]) -> np.ndarray:
        if probe is None:
            raise ValueError("AdversarialMaxNorm needs per-index probe values")
        probe = np.asarray(probe, dtype=float)
        if probe.shape != (n,):
            raise ValueError("probe must have one value per component")
        return np.argsort(-probe, kind="stable")


PermutationPolicy = Union[Identity, FixedPermutation, ShuffledPerEpoch, AdversarialMaxNorm]
PERM_POLICIES = {cls.VARIANT: cls for cls in get_args(PermutationPolicy)}


def permutation(
    policy: PermutationPolicy,
    K: int,
    n: int,
    probe: Optional[np.ndarray] = None,
) -> np.ndarray:
    """0-based query order for epoch K; always a bijection on range(n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return policy.order(K, n, probe)
