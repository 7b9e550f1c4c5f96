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
runs replay exactly without storing the draws.  A policy answers for a
whole epoch at once: ``supports(K, n)`` lists the support points of steps
1..n, and since each draw is keyed by its own (K, i), a shorter epoch's
list is a prefix of a longer one's.  DelayedAsync draws an epoch's delays
in one vectorized pass (``counter_integers``) that reproduces, bit for
bit, what one NumPy Generator per step gives.  ConvexMix weights for a
range of steps (``eval_point``) come from one Generator whose PCG64 is
set, step by step, to the state its own key (seed, K, i) seeds
(``counter_rngs``).  Permutation policies decide the order components are
queried in; every epoch visits each component exactly once.  A policy
that needs no probe answers for a range of epochs at once
(``orders(Ks, n)``); shuffled orders then come from one Generator
reseeded likewise for each key (seed, K).  Both keep the bits of one
Generator per key.
Component indices are 0-based; inner positions are 1-based.  Each policy
class names its serialized form in ``VARIANT``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union, get_args

import numpy as np

# stream tags keep draw streams for different purposes disjoint
_TAG_DELAY = 1
_TAG_MIX = 2
_TAG_PERM = 3


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def counter_rng(seed: int, *counters: int) -> np.random.Generator:
    """Deterministic generator for the given (seed, counters...) key."""
    _check_seed(seed)
    return np.random.default_rng((int(seed),) + tuple(int(c) for c in counters))


# NumPy's SeedSequence: hash constants of its 4-word pool (numpy/random/bit_generator.pyx)
_U32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA4_4385DF649FCCF645
_U128 = (1 << 128) - 1
# a PCG64 state with no buffered 32-bit half, as seeding leaves it
_PCG_STATE = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}


def _hash_constants(init: int, mult: int, count: int) -> list:
    """The running hash constant before each of ``count`` hash calls, then after the last."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _U32)
    return out


# a 4-word entropy takes 4 + 12 hashmix calls; generate_state(4, uint64) 8 words
_MIX_CONSTANTS = _hash_constants(_INIT_A, _MULT_A, 16)
_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _seed_state(words: list) -> list:
    """SeedSequence(words).generate_state(4, uint64), one key per array entry.

    ``words`` holds the 4 entropy words, each a uint32 scalar or array; the
    result is the 4 state words as Python-int lists.  uint32 arithmetic
    wraps as NumPy's C code does.
    """
    consts = iter(zip(_MIX_CONSTANTS, _MIX_CONSTANTS[1:]))

    def hashmix(value):
        before, after = next(consts)
        value = (value ^ np.uint32(before)) * np.uint32(after)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    with np.errstate(over="ignore"):
        pool = [hashmix(np.asarray(w, dtype=np.uint32)) for w in words]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        state = []
        for k in range(8):
            value = (pool[k % 4] ^ np.uint32(_STATE_CONSTANTS[k])) * np.uint32(_STATE_CONSTANTS[k + 1])
            state.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # the mixing spreads every entropy word to every pool word, so each is full size
    return [(state[2 * k] | state[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]


def counter_integers(seed: int, tag: int, K: int, n: int, high: int) -> np.ndarray:
    """``counter_rng(seed, tag, K, i).integers(0, high)`` for i = 1..n, as int64.

    One vectorized pass instead of n Generators: NumPy's SeedSequence
    mixing of the key (seed, tag, K, i) in uint32 arithmetic, PCG64's
    seeding and first XSL-RR output in 128-bit Python ints (O'Neill, 2014),
    and NumPy's 32-bit bounded draw (Lemire, 2019) on its low half.  A key
    takes ``counter_rng`` itself where that draw would be rejected and
    redrawn; the whole epoch does when a key word is 2**32 or more (the
    seed sequence then splits it into several words) or when
    high >= 2**32 - 1 (NumPy then draws 32 or 64 bits another way).
    """
    if max(seed, tag, K, n) > _U32 or high >= _U32:
        return np.array([int(counter_rng(seed, tag, K, i).integers(0, high)) for i in range(1, n + 1)])
    words = _seed_state([seed, tag, K, np.arange(1, n + 1, dtype=np.uint32)])
    low = []
    for key_words in zip(*words):
        # the first output steps the seeded state once more
        state, inc = _pcg_seeded(key_words)
        state = (state * _PCG_MULT + inc) & _U128
        xored, rot = (state >> 64 ^ state) & 0xFFFFFFFFFFFFFFFF, state >> 122
        low.append((xored >> rot | xored << (64 - rot)) & _U32)
    scaled = np.array(low, dtype=np.uint64) * np.uint64(high)
    draws = (scaled >> np.uint64(32)).astype(np.int64)
    threshold = (_U32 - (high - 1)) % high
    for r in np.flatnonzero((scaled & np.uint64(_U32)) < threshold).tolist():
        draws[r] = counter_rng(seed, tag, K, r + 1).integers(0, high)
    return draws


def _pcg_seeded(words: tuple) -> tuple:
    """PCG64's (state, inc) right after seeding from the 4 SeedSequence state words.

    set_seed steps from state 0, adds the seed's state half and steps again.
    """
    s_hi, s_lo, inc_hi, inc_lo = words
    inc = (inc_hi << 65 | inc_lo << 1 | 1) & _U128
    return ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _U128, inc


def counter_rngs(seed: int, keys: list):
    """Yield for each key (at most 3 counters) a Generator as ``counter_rng(seed, *key)`` builds it.

    One Generator instead of one per key: it is built for the first key,
    and for each later key its PCG64 is set to the state that seeding from
    that key gives (the SeedSequence words of every key in one vectorized
    pass, a shorter entropy being the 4 words ending in 0s).  It is the
    same object each time, so draw from it before asking for the next key.
    Its state is set from one dict, whose PCG64 words are updated per key.
    Keys with a word of 2**32 or more, which the seed sequence splits into
    several words, take ``counter_rng`` per key.
    """
    if not keys:
        return
    if max(seed, *(max(key) for key in keys)) > _U32:
        yield from (counter_rng(seed, *key) for key in keys)
        return
    rng = counter_rng(seed, *keys[0])
    yield rng
    columns = np.array(keys[1:], dtype=np.uint32).reshape(-1, len(keys[0])).T
    words = _seed_state([seed, *columns, *[0] * (3 - len(columns))])
    pcg = {"state": 0, "inc": 0}
    state = dict(_PCG_STATE, state=pcg)
    for key_words in zip(*words):
        pcg["state"], pcg["inc"] = _pcg_seeded(key_words)
        rng.bit_generator.state = state
        yield rng


# ---------------------------------------------------------------------------
# evaluation points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FullGradient:
    VARIANT = "full_gradient"

    def supports(self, K: int, n: int) -> list:
        return [0] * n


@dataclass(frozen=True)
class Incremental:
    VARIANT = "incremental"

    def supports(self, K: int, n: int) -> list:
        return list(range(n))


@dataclass(frozen=True)
class MiniBatch:
    b: int
    VARIANT = "mini_batch"

    def __post_init__(self):
        if self.b < 1:
            raise ValueError("batch size must be at least 1")

    def supports(self, K: int, n: int) -> list:
        return [r // self.b * self.b for r in range(n)]


@dataclass(frozen=True)
class DelayedAsync:
    max_delay: int
    seed: int
    VARIANT = "delayed_async"

    def __post_init__(self):
        if self.max_delay < 0:
            raise ValueError("max_delay must be nonnegative")
        _check_seed(self.seed)

    def supports(self, K: int, n: int) -> list:
        delays = counter_integers(self.seed, _TAG_DELAY, K, n, self.max_delay + 1)
        return np.maximum(np.arange(n) - delays, 0).tolist()


@dataclass(frozen=True)
class ConvexMix:
    seed: int
    VARIANT = "convex_mix"

    def __post_init__(self):
        _check_seed(self.seed)

    def supports(self, K: int, n: int) -> list:
        return [None] * n

    def weights(self, K: int, steps: range) -> np.ndarray:
        """Strictly positive Dirichlet hull weights of the steps (K, i), i in ``steps``.

        Row r of the lower-triangular (len(steps), steps[-1]) result holds
        the i = steps[r] weights of step i in its first i columns: i
        standard exponentials times 1.0 / their left-to-right sum, which is
        NumPy's ``dirichlet(np.ones(i))`` loop, bit for bit.
        """
        keys = [(_TAG_MIX, K, i) for i in steps]
        W = np.zeros((len(steps), steps[-1]))
        sums = np.empty(len(steps))
        for r, (i, rng) in enumerate(zip(steps, counter_rngs(self.seed, keys))):
            draws = rng.standard_exponential(i)
            W[r, :i], sums[r] = draws, np.cumsum(draws)[-1]
        W *= (1.0 / sums)[:, None]
        return W


EvalPointPolicy = Union[FullGradient, Incremental, MiniBatch, DelayedAsync, ConvexMix]
EVAL_POLICIES = {cls.VARIANT: cls for cls in get_args(EvalPointPolicy)}


def eval_support(policy: EvalPointPolicy, K: int, n: int) -> list:
    """Supports of steps i = 1..n of epoch K, entry i-1 for step i.

    Entry i-1 is the index j with zhat_{K,i-1} = z_{K,j}, or None where the
    policy has no single support point (ConvexMix).  The list for n is a
    prefix of the list for any larger n.
    """
    if n < 1:
        raise ValueError("the step count n must be at least 1")
    return policy.supports(K, n)


def eval_point(policy: EvalPointPolicy, K: int, i):
    """Hull weights over (z_{K,0}, ..., z_{K,i-1}): nonnegative, summing to 1.

    A range of steps 1 <= i <= n (such as range(1, n + 1)) gives a list of
    each step's weights, as one call per step would.  A policy without
    single support points (ConvexMix) gives them as views of the rows of
    one lower-triangular matrix, their common ``base``.
    """
    steps = i if isinstance(i, range) else range(i, i + 1)
    support = eval_support(policy, K, steps[-1])
    if None in support:
        weights = [row[:s] for row, s in zip(policy.weights(K, steps), steps)]
    else:
        weights = [np.zeros(s) for s in steps]
        for s, w in zip(steps, weights):
            w[support[s - 1]] = 1.0
    return weights if isinstance(i, range) else weights[0]


def hull_accumulate(acc: np.ndarray, column: np.ndarray, point: np.ndarray) -> None:
    """acc[r] += column[r] * point for every r whose weight column[r] is nonzero.

    One pass over the rows of ``acc`` (m, p); zero weights are skipped, not
    multiplied, so an inf or NaN point they weigh changes nothing.
    """
    nonzero = column != 0.0
    if nonzero.all():  # strictly positive weights (ConvexMix) need no mask
        acc += column[:, None] * point
        return
    # the products left out are never read: the add skips the same entries
    mask = nonzero[:, None]
    np.add(acc, np.multiply(column[:, None], point, out=None, where=mask), out=acc, where=mask)


def hull_point(weights: np.ndarray, points) -> np.ndarray:
    """Combination sum_j weights[j] * points[j], accumulated in increasing j.

    ``points`` is a sequence of vectors or an array with one row per point.
    A 2-D ``weights`` (m, k) gives one combination per row, (m, p).  The
    sum starts at -0.0, and the terms of the nonzero weights are added to
    it column by column (``hull_accumulate``), one at a time in index
    order, the order of a left-to-right loop (``sum(axis=0)`` may pair
    them differently).  Since -0.0 + t = t for every t, the first term
    enters unrounded, and a single unit weight gives its point's bits.
    The engine accumulates an epoch's hull points this way as its iterates
    appear.  Traces store no weights or zhat: a trace's zhat is derived on
    its first read, not at load, from this call on the epoch's triangular
    weight matrix of eval_point(policy, K, i) and z_{K,0..i-1}, bit for bit.
    """
    W = np.asarray(weights, dtype=float)
    rows = W.reshape(-1, W.shape[-1])
    if not rows.any(axis=1).all():
        raise ValueError("weights must have at least one nonzero entry")
    acc = np.full(W.shape[:-1] + np.shape(points[0]), -0.0)
    stacked = acc.reshape(len(rows), -1)
    for j in range(rows.shape[1]):
        nonzero = np.flatnonzero(rows[:, j])
        if nonzero.size:  # the rows above a column's first nonzero weight skip it
            lo = nonzero[0]
            hull_accumulate(stacked[lo:], rows[lo:, j], points[j])
    return acc


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    VARIANT = "identity"
    needs_probe = False

    def orders(self, Ks: range, n: int) -> np.ndarray:
        return np.tile(np.arange(n), (len(Ks), 1))


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

    def orders(self, Ks: range, n: int) -> np.ndarray:
        if len(self.perm) != n:
            raise ValueError("fixed permutation length does not match n")
        return np.tile(np.asarray(self.perm, dtype=int), (len(Ks), 1))


@dataclass(frozen=True)
class ShuffledPerEpoch:
    seed: int
    VARIANT = "shuffled"
    needs_probe = False

    def __post_init__(self):
        _check_seed(self.seed)

    def orders(self, Ks: range, n: int) -> np.ndarray:
        """Epoch K's order, row by row: ``counter_rng(seed, tag, K).permutation(n)``.

        That call shuffles ``arange(n)`` in place; here each row of a block
        filled with ``arange(n)`` is shuffled in place by the key's Generator
        (``counter_rngs``), the same draws on the same values.
        """
        out = np.tile(np.arange(n), (len(Ks), 1))
        for row, rng in zip(out, counter_rngs(self.seed, [(_TAG_PERM, K) for K in Ks])):
            rng.shuffle(row)
        return out


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
    K,
    n: int,
    probe: Optional[np.ndarray] = None,
) -> np.ndarray:
    """0-based query order for epoch K; always a bijection on range(n).

    A policy that needs no probe also takes a range of epochs K and then
    returns one row per epoch, each the order of that epoch alone.  An
    adversarial order probes x_K, so it is asked one epoch at a time.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if policy.needs_probe:
        if isinstance(K, range):
            raise ValueError(f"{policy.VARIANT} orders are asked one epoch at a time")
        return policy.order(K, n, probe)
    if isinstance(K, range):
        return policy.orders(K, n)
    return policy.orders(range(K, K + 1), n)[0]
