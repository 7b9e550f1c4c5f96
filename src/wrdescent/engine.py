"""Epoch-by-epoch executor for the without-replacement descent recursion:
the run, its record, replay and trace file IO.  The run's configuration,
RunConfig, and its dict form live in ``config``.

One epoch K starting from x_K performs, for i = 1..n in the permuted order,

    zhat_{K,i-1} = hull point of (z_{K,0..i-1}) chosen by the policy
    z_{K,i}      = z_{K,i-1} - alpha_{K,i} * d_{pi_K(i)}(zhat_{K,i-1})

and sets x_{K+1} = z_{K,n}.  Step-size bookkeeping is positional (indexed by
i); the permutation only selects which oracle is called.  A run's record is
one RunTrace of arrays indexed by epoch K:

  * node series, one row per iterate x_0..x_N: xs (N+1, p), f_vals and
    grad_sq (N+1,);
  * epoch series: alpha_first, alpha_last, alpha_sum, v_end (N,);
  * record_level="full" only, the inner steps, [K, i-1] for step i:
    index, alpha, dnorm2, v of shape (N, n) and d, z of shape (N, n, p),
    and zhat (N, n, p), derived on its first read.  At record_level
    "epoch_only" these arrays are None.

A trace file stores the problem's data matrix and each recorded primitive
once: of the inner steps only index, alpha, dnorm2, v and d.  After a JSON
header line (configuration, provenance, and a SHA-256 over the config and
the #DATA bytes), each section (#DATA, #NODES, #EPOCHS and, at full
level, #INDEX and #INNER) is a line ``#NAME <byte count>``, that many raw
little-endian float64 (int64 for #INDEX) bytes of its array and a
newline, so a save writes the arrays' buffers and a load views them in
the file's bytes, with no text to encode or parse.  ``load_trace``
reads the header's config with config's reader, ``read_document`` (a
malformed field raises ValueError naming its key), derives only z, with
the engine's update from x_K, and checks z_{K,n} = x_{K+1} bit for bit.
zhat, a pure function of (policy, K, z), is derived the first time it is
read and then kept (``_eval_points``: ``eval_support``, or ``hull_point``
of ``eval_point``'s weights).  The engine and the derivation ask
``eval_support`` once per epoch for all n supports and ``eval_point``
once for a ConvexMix epoch's n weight vectors, the rows of one
lower-triangular (n, n) matrix; DelayedAsync delays and ConvexMix
weights keep the bits of one Generator per step.

A run advances in blocks of EPOCH_BLOCK epochs.  Per block, the query
orders of a policy that needs no probe are drawn in one call (one
Generator for all shuffled orders), and F and ||grad F||^2 of the block's
nodes come from one stacked full_value and one full_direction call, each
row with the bits of a call at that node alone.  Per epoch come the
supports, a prescribed rule's one step size (``epoch_step``) as a row of
length p, whose product with d has the bits of alpha * d, or the adaptive
rule's accumulator, read from the record's v_end of the epoch before
(delta at K = 0), since the run keeps no step state beside its record;
then the epoch series from the epoch's list of step sizes and, at full
level, the record rows.  Per step there is only the direction call,
||d||^2 and its test, the adaptive rule's ``step_value``, a pure function
of the accumulator, and the update; where the support of
step i is i-1 (Incremental), the step queries z_{K,i-1} directly.  A run
takes the n components' direction oracles once, as a tuple each step
indexes; that builds a zoo problem's component oracles
(``problems.KindComponents``).  Loads, the record check and the full
oracles read the zoo kind alone and build none.

Runs are deterministic functions of their configuration (all randomness
is counter-based off explicit seeds).  Replay checks a full, complete
record without re-running it: every recorded step must be the engine's
step of its own recorded inputs, in stacked row-kernel passes per block
(``_check_record``), whose evaluation points become the trace's zhat.
That rests on a property of the BLAS kernel, not of IEEE arithmetic: a
row of a stacked product has the bits of the point call.  So the check
only ever accepts; when it fails, and for other
records, replay re-runs the configuration and compares the arrays one by
one.  A non-finite value aborts the run at the first step (K, i) where
||d||^2, or an entry of z_{K,i}, is not finite; completed epochs are
retained.  ||d||^2 is tested at each step, before the step rule reads it;
the iterates once per epoch, through z_{K,n}, which a non-finite entry of
an earlier iterate reaches, or earlier when a non-finite ||d||^2 makes the
engine look back for one.  The adversarial order probes ||d_i(x_K)|| with
one direction_norms call per epoch, vectorized over the data matrix for
the logistic and sigmoid problems, from the row kernel for median and
relu_net.  The engine also monitors ||x_K||_inf against an optional
radius and flags the first excursion (constants of box-local problems
are only valid inside the box).
"""

from __future__ import annotations

import json
import math
import platform
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Optional

import numpy as np

from .config import RunConfig, config_to_dict, read_document
from .problems import ROW_BLOCK, FiniteSumProblem, data_shape, problem_from_dict
from .schedules import (
    EvalPointPolicy,
    eval_point,
    eval_support,
    hull_accumulate,
    hull_point,
    permutation,
)
from .steps import Adaptive, epoch_anchor, epoch_step, step_value

TRACE_FORMAT = "wrdescent-trace/6"
# epochs per block of run: the unit of the query orders drawn and of the
# nodes evaluated together, which bounds those temporaries at EPOCH_BLOCK x n
EPOCH_BLOCK = 64


class NonFiniteError(RuntimeError):
    """Overflow or NaN produced by the recursion at inner step (K, i)."""

    def __init__(self, K: int, i: int):
        super().__init__(f"non-finite value at epoch {K}, inner step {i}")
        self.K = K
        self.i = i


# the inner-step arrays of a full record (zhat derived on read), in replay's comparison order
INNER_FIELDS = ("index", "zhat", "d", "dnorm2", "alpha", "z", "v")
# one entry per iterate x_0..x_N, and one per epoch; replay compares them in this order
NODE_SERIES = ("xs", "f_vals", "grad_sq")
EPOCH_SERIES = ("alpha_first", "alpha_last", "alpha_sum", "v_end")


@cache
def _blas_core() -> str:
    """The kernel NumPy's bundled OpenBLAS selected for this CPU, or "unknown"
    when NumPy bundles no OpenBLAS or one without the symbol."""
    import ctypes
    from pathlib import Path

    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):  # not loadable, or without the symbol
            continue
        corename.argtypes = []
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def provenance() -> dict:
    """The wrdescent, NumPy, Python and BLAS versions of this process, and the BLAS kernel.

    Bitwise replay depends on the kernel OpenBLAS selects for the CPU,
    which the library's version does not name.
    """
    from . import __version__

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "wrdescent": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "blas_core": _blas_core(),
    }


@dataclass
class RunTrace:
    """The record of one run, one array per recorded quantity.

    Node series have one row per iterate x_0..x_N, epoch series one per
    completed epoch, and the inner arrays one row per epoch K with step i
    in column i-1.  When the run aborted, every array covers the completed
    prefix.  zhat is not recorded but derived on its first read.
    """

    config: RunConfig
    xs: np.ndarray  # (N+1, p)
    f_vals: np.ndarray  # (N+1,) F(x_K); nan when the objective is not tracked
    grad_sq: np.ndarray  # (N+1,) ||full direction at x_K||^2; nan likewise
    alpha_first: np.ndarray  # (N,)
    alpha_last: np.ndarray  # (N,)
    alpha_sum: np.ndarray  # (N,)
    v_end: np.ndarray  # (N,) adaptive accumulator after the epoch; nan otherwise
    # inner steps, None at epoch_only level
    index: Optional[np.ndarray] = None  # (N, n) component queried (0-based)
    alpha: Optional[np.ndarray] = None  # (N, n)
    dnorm2: Optional[np.ndarray] = None  # (N, n)
    v: Optional[np.ndarray] = None  # (N, n) adaptive accumulator after the update; nan otherwise
    d: Optional[np.ndarray] = None  # (N, n, p)
    z: Optional[np.ndarray] = None  # (N, n, p), [K, i-1] is z_{K,i}
    aborted_at: Optional[tuple] = None
    bound_exceeded_at: Optional[int] = None
    # where the run was made; a loaded trace keeps its file's
    provenance: dict = field(default_factory=provenance)
    _zhat: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    @property
    def zhat(self) -> Optional[np.ndarray]:
        """(N, n, p), None at epoch_only level: derived on first read (or by a passing record check), then kept."""
        if self._zhat is None and self.z is not None:
            self._zhat = _eval_points(self)
        return self._zhat

    @zhat.setter
    def zhat(self, value: Optional[np.ndarray]) -> None:
        self._zhat = value

    @property
    def epochs_completed(self) -> int:
        return len(self.alpha_sum)

    @property
    def problem(self) -> FiniteSumProblem:
        return self.config.problem

    def epoch_anchor(self, K: int) -> float:
        """alpha_K convention used by the per-epoch inequality checks."""
        return epoch_anchor(self.config.strategy, K, self.problem.n, self.alpha_last)

    def running_min_grad_sq(self) -> np.ndarray:
        return np.minimum.accumulate(self.grad_sq)


def _new_trace(config: RunConfig, N: int) -> RunTrace:
    """A trace of N epochs whose arrays are allocated, to be filled in."""
    n, p = config.problem.n, config.problem.p
    inner = {}
    if config.record_level == "full":
        inner = dict(
            index=np.empty((N, n), dtype=int),
            **{name: np.empty((N, n)) for name in ("alpha", "dnorm2", "v")},
            **{name: np.empty((N, n, p)) for name in ("d", "z")},
        )
    return RunTrace(
        config=config,
        xs=np.empty((N + 1, p)),
        f_vals=np.full(N + 1, math.nan),
        grad_sq=np.full(N + 1, math.nan),
        **{name: np.empty(N) for name in EPOCH_SERIES},
        **inner,
    )


def _first_non_finite(rows) -> Optional[int]:
    """The first i at which ``rows`` (an epoch's z_{K,1}, z_{K,2}, ...) has a non-finite entry, or None."""
    if not len(rows):
        return None
    finite = np.isfinite(rows).all(axis=1)
    return None if finite.all() else int(np.argmin(finite)) + 1


def _hull_weights(policy: EvalPointPolicy, K: int, n: int) -> np.ndarray:
    """Epoch K's hull weights as the lower-triangular (n, n) matrix whose
    rows ``eval_point``'s weight vectors view: row i-1 holds step i's
    weights over z_{K,0..i-1}."""
    return eval_point(policy, K, range(1, n + 1))[0].base


def _iterates(trace: RunTrace, K: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The recorded z_{K,j} at each position of the index arrays K and j; z_{K,0} = x_K is z_{K-1,n}, or x_0."""
    out = trace.z[K, j - 1]
    start = j == 0
    out[start] = trace.z[K[start] - 1, -1]
    out[start & (K == 0)] = trace.xs[0]
    return out


def _eval_points(trace: RunTrace) -> np.ndarray:
    """zhat of a full trace: z_{K,j} for the policy's support j or, in an
    epoch with a step that has none, the hull point of its weights over
    z_{K,0..i-1}; the points the engine queried, bit for bit."""
    policy = trace.config.eval_policy
    N, n = trace.z.shape[:2]
    supports = [eval_support(policy, K, n) for K in range(N)]
    j = np.array([[0] * n if None in support else support for support in supports], dtype=int)
    zhat = _iterates(trace, np.repeat(np.arange(N)[:, None], n, axis=1), j.reshape(N, n))
    for K, support in enumerate(supports):
        if None in support:
            zhat[K] = hull_point(_hull_weights(policy, K, n), _iterates(trace, np.full(n, K), np.arange(n)))
    return zhat


def run_epoch(trace: RunTrace, x: np.ndarray, K: int, order: Optional[list], directions: tuple) -> np.ndarray:
    """Epoch K of the trace's run, from x = x_K; returns x_{K+1}.

    ``order`` is the epoch's query order as ints; when None, it is asked
    of the permutation policy (probing x_K for an adversarial order).
    ``directions`` is the tuple of the n components' direction oracles,
    which ``run`` takes once.
    Writes row K of the trace's epoch series and, at the full record level,
    of its inner arrays, once the epoch is complete.  Epochs 0..K-1 must be
    recorded: the adaptive rule's accumulator starts from the record's
    v_end[K-1] (delta at K = 0).  Raises NonFiniteError at the first step i
    where ||d||^2 or an entry of z_{K,i} is not finite, tested as the
    module docstring says (``_first_non_finite`` scans the iterates).
    """
    config = trace.config
    problem, strategy, eval_policy = config.problem, config.strategy, config.eval_policy
    n = problem.n
    if order is None:
        probe = problem.direction_norms(x) if config.perm_policy.needs_probe else None
        order = permutation(config.perm_policy, K, n, probe=probe).tolist()
    alpha = epoch_step(strategy, K, n)  # None: the adaptive rule, one step_value per step
    adaptive = alpha is None
    # the adaptive accumulator; float() keeps v ** (-1/3) on Python's **
    v = (float(trace.v_end[K - 1]) if K else strategy.delta) if adaptive else math.nan
    full = trace.alpha is not None
    # a prescribed step multiplies d by a row of alpha, the bits of alpha * d
    # without NumPy's Python-float path; the adaptive rule's is a float
    step = None if adaptive else np.full(len(x), alpha)
    alphas, vs = ([], []) if adaptive else ([alpha] * n, [math.nan] * n)  # vs: read at full level only
    support = eval_support(eval_policy, K, n)
    incremental = support == list(range(n))  # each step queries the current iterate
    # a step without a single support point (ConvexMix) takes its hull point
    # over z_{K,0..i-1}: row i-1 of ``hull``, to which z_{K,j} is added as
    # soon as it is known, with the weight of every later step
    hull = None
    if None in support:
        W = _hull_weights(eval_policy, K, n)
        hull = np.full((n, len(x)), -0.0)
        hull_accumulate(hull, W[:, 0], x)
    zs, dnorm2s = [x], []
    ds = trace.d[K] if full else None  # d rows, written per step: a list of them would grow the peak
    z = x
    for i, idx in enumerate(order, start=1):
        zhat = z if incremental else zs[support[i - 1]] if hull is None else hull[i - 1]
        d = directions[idx](zhat)
        dnorm2 = float(d.dot(d))  # the bits of d @ d, with less dispatch
        if not math.isfinite(dnorm2):
            raise NonFiniteError(K, _first_non_finite(zs[1:]) or i)
        if adaptive:
            v, step = step_value(strategy, K, n, v, dnorm2)
            alphas.append(step)
            if full:
                vs.append(v)
        z = z - step * d
        zs.append(z)
        if full:
            ds[i - 1] = d
            dnorm2s.append(dnorm2)
        if hull is not None and i < n:
            hull_accumulate(hull[i:], W[i:, i], z)
    if not np.isfinite(z).all():
        raise NonFiniteError(K, _first_non_finite(zs[1:]))

    alpha_sum = 0.0
    for a in alphas:  # left to right, in step order
        alpha_sum += a
    trace.alpha_first[K], trace.alpha_last[K], trace.alpha_sum[K] = alphas[0], alphas[-1], alpha_sum
    trace.v_end[K] = v
    if full:
        trace.index[K], trace.alpha[K], trace.dnorm2[K], trace.v[K] = order, alphas, dnorm2s, vs
        trace.z[K] = zs[1:]
    return z


def _track_nodes(trace: RunTrace, lo: int, hi: int) -> None:
    """F, ||full direction||^2 and the box monitor at the nodes x_lo..x_hi.

    One stacked full_value and one full_direction call over the nodes; each
    row's squared norm is a stacked matmul, one BLAS ddot per row, the bits
    of g @ g.
    """
    config = trace.config
    X = trace.xs[lo : hi + 1]
    if config.track_objective:
        trace.f_vals[lo : hi + 1] = config.problem.full_value(X)
        G = config.problem.full_direction(X)
        trace.grad_sq[lo : hi + 1] = (G[:, None, :] @ G[:, :, None])[:, 0, 0]
    radius = config.monitor_radius
    if radius is not None and trace.bound_exceeded_at is None:
        out = np.flatnonzero(np.max(np.abs(X), axis=1) > radius)
        if out.size:
            trace.bound_exceeded_at = lo + int(out[0])


@np.errstate(over="ignore", invalid="ignore")
def run(config: RunConfig) -> RunTrace:
    """Execute the configured number of epochs; deterministic in the config.

    Blocks of EPOCH_BLOCK epochs share one draw of query orders (when the
    policy needs no probe) and one evaluation of their nodes
    (``_track_nodes``).  On a non-finite abort the trace is cut to the
    completed epochs, with ``aborted_at`` set to the offending (K, i).
    The components' direction oracles, which a zoo problem builds on first
    use, are taken once, and each step indexes their tuple.  NumPy's
    overflow and invalid warnings are off for the whole run: a non-finite
    value aborts it, and ``aborted_at`` is the report.
    """
    n = config.problem.n
    directions = tuple(c.direction for c in config.problem.components)
    trace = _new_trace(config, config.epochs)
    x = config.x0.copy()
    trace.xs[0] = x
    tracked = 0  # nodes x_0..x_{tracked-1} are evaluated
    for start in range(0, config.epochs, EPOCH_BLOCK):
        block = range(start, min(start + EPOCH_BLOCK, config.epochs))
        orders = [None] * len(block)
        if not config.perm_policy.needs_probe:
            orders = permutation(config.perm_policy, block, n).tolist()
        for K, order in zip(block, orders):
            try:
                x = run_epoch(trace, x, K, order, directions)
            except NonFiniteError as err:
                trace.aborted_at = (err.K, err.i)
                _track_nodes(trace, tracked, K)
                for name in NODE_SERIES + EPOCH_SERIES + INNER_FIELDS:
                    column = None if name == "zhat" else getattr(trace, name)  # zhat: derived from the cut z
                    if column is not None:
                        setattr(trace, name, column[: K + 1 if name in NODE_SERIES else K])
                return trace
            trace.xs[K + 1] = x
        _track_nodes(trace, tracked, block[-1] + 1)
        tracked = block[-1] + 2
    return trace


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    first_mismatch: Optional[tuple] = None  # (K, i, field)

    def __bool__(self) -> bool:
        return self.ok


def _differs(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Where two arrays of 8-byte entries hold different bits, NaN equal to NaN."""
    bits = new.view(np.int64) != old.view(np.int64)
    if bits.any():
        bits &= ~(np.isnan(new) & np.isnan(old))
    return bits


def _first_mismatch(new: np.ndarray, old: np.ndarray, lead: int, ragged: bool) -> Optional[tuple]:
    """Position in the first ``lead`` axes where two arrays first differ.

    Bits are compared, NaN equal to NaN, and, if ``ragged``, the first row
    that one array lacks differs at its start; None if they agree.
    """
    m = min(len(new), len(old))
    bad = _differs(new[:m], old[:m])
    hits = np.argwhere(bad.any(axis=tuple(range(lead, bad.ndim))))
    if len(hits):
        return tuple(int(c) for c in hits[0])
    return (m,) + (0,) * (lead - 1) if ragged and len(new) != len(old) else None


def _node_location(k: int, n: int) -> tuple:
    """(K, i) at which node x_k is produced: the end of epoch k-1, or (0, 0)."""
    return (k - 1, n) if k else (0, 0)


def _same(new, old) -> bool:
    """Whether two float arrays hold the same bits, NaN equal to NaN."""
    new, old = np.asarray(new, dtype=float), np.asarray(old, dtype=float)
    return new.shape == old.shape and not _differs(new, old).any()


def _block_matches(trace: RunTrace, block: range, zhat: np.ndarray) -> bool:
    """Whether every inner step of the epochs ``block`` is the engine's step
    from its recorded inputs and ``zhat``, and the block's epoch series its own.

    Steps are taken ROW_BLOCK at a time, in run order across the block's
    epochs, so each temporary holds at most ROW_BLOCK rows.
    """
    config = trace.config
    problem, strategy = config.problem, config.strategy
    n = problem.n
    Ks = slice(block.start, block.stop)
    if config.perm_policy.needs_probe:
        orders = [permutation(config.perm_policy, K, n, probe=problem.direction_norms(trace.xs[K])) for K in block]
    else:
        orders = permutation(config.perm_policy, block, n)
    if not np.array_equal(orders, trace.index[Ks]):
        return False  # which also keeps an out-of-range index from the direction kernels
    xs_next = trace.xs[block.start + 1 : block.stop + 1]
    if not (np.isfinite(xs_next).all() and _same(trace.z[Ks, -1], xs_next)):
        return False
    adaptive = isinstance(strategy, Adaptive)
    alphas = trace.alpha[Ks]
    # each epoch's alpha_sum is 0.0 plus its step sizes, one at a time
    sums = np.add.accumulate(np.column_stack([np.zeros(len(block)), alphas]), axis=1)[:, -1]
    v_end = trace.v[Ks, -1] if adaptive else np.full(len(block), math.nan)
    series = (alphas[:, 0], alphas[:, -1], sums, v_end)
    if not all(_same(new, getattr(trace, name)[Ks]) for name, new in zip(EPOCH_SERIES, series)):
        return False
    prescribed = None if adaptive else np.array([strategy.prescribed_value(K, n) for K in block])
    for q0 in range(block.start * n, block.stop * n, ROW_BLOCK):
        # steps q0.. in run order, as (epoch, column) pairs: each array a copy of these rows alone
        q = np.arange(q0, min(q0 + ROW_BLOCK, block.stop * n))
        K, r = np.divmod(q, n)
        d, dnorm2, alpha, v = trace.d[K, r], trace.dnorm2[K, r], trace.alpha[K, r], trace.v[K, r]
        if not (
            _same(problem.row_directions(zhat[K, r], trace.index[K, r]), d)
            and np.isfinite(dnorm2).all()
            and _same((d[:, None, :] @ d[:, :, None])[:, 0, 0], dnorm2)
        ):
            return False
        if adaptive:
            v_prev = trace.v[np.divmod(np.maximum(q - 1, 0), n)]
            if q0 == 0:
                v_prev[0] = strategy.delta
            steps = _same(v_prev + strategy.beta * dnorm2, v) and _same(
                [strategy.step_size(value) for value in v.tolist()], alpha
            )
        else:
            steps = np.isnan(v).all() and _same(prescribed[K - block.start], alpha)
        if not (steps and _same(_iterates(trace, K, r) - alpha[:, None] * d, trace.z[K, r])):
            return False
    return True


def _check_record(trace: RunTrace) -> bool:
    """Whether a full record is its config's run, checked step by step.

    Only a full record of config.epochs epochs without an abort is
    checked.  Each step's recorded outputs must be the engine's step of its
    recorded inputs, bit for bit (NaN equal to NaN), and x_0 the config's;
    by induction over the steps the record is then the run.  The checks,
    per block of EPOCH_BLOCK epochs as ``run`` draws and evaluates them:

      * index is the drawn order (an adversarial one probed at the recorded x_K);
      * zhat is the policy's point of the recorded z_{K,0..n-1}: the trace's
        zhat once the check passes, or compared with it if it was read before;
      * d is the stacked row kernel at (index, zhat), dnorm2 each row's ddot
        of d, and every dnorm2 and x_{K+1} finite, as the run tests them;
      * alpha is prescribed_value(K, n), or v is the recorded previous v (delta
        at the start) plus beta * dnorm2 and alpha Adaptive.step_size(v);
      * z is the recorded z_{K,i-1} - alpha * d and z_{K,n} is x_{K+1};
      * the epoch series are those of the steps (alpha_sum added in order
        from 0.0), and the node series and box exit ``_track_nodes`` of the
        recorded xs.

    That a stacked kernel row has the bits of the point call is a property
    of the BLAS kernel, not of IEEE arithmetic, so the check only ever
    accepts: a False, or a value it cannot evaluate, proves nothing, and
    ``replay`` then re-runs.  Never raises.
    """
    config = trace.config
    N = config.epochs
    if trace.alpha is None or trace.aborted_at is not None or trace.epochs_completed != N:
        return False
    try:
        if not _same(trace.xs[0], config.x0):
            return False
        unset = np.full(N + 1, math.nan)
        nodes = replace(trace, f_vals=unset, grad_sq=unset.copy(), bound_exceeded_at=None)
        tracked = 0
        with np.errstate(all="ignore"):
            zhat = _eval_points(trace)
            if trace._zhat is not None and not _same(zhat, trace._zhat):
                return False
            for start in range(0, N, EPOCH_BLOCK):
                block = range(start, min(start + EPOCH_BLOCK, N))
                if not _block_matches(trace, block, zhat):
                    return False
                _track_nodes(nodes, tracked, block[-1] + 1)
                tracked = block[-1] + 2
        ok = (
            _same(nodes.f_vals, trace.f_vals)
            and _same(nodes.grad_sq, trace.grad_sq)
            and nodes.bound_exceeded_at == trace.bound_exceeded_at
        )
        if ok and trace._zhat is None:
            trace.zhat = zhat
        return ok
    except Exception:
        # the oracles, custom ones included, ran on recorded values that may
        # be corrupt: whatever they raise leaves the record to the re-run
        return False


def replay(trace: RunTrace) -> ReplayReport:
    """Check the record against its config; re-run only when the check fails.

    A full, complete record passes when every step is the engine's step of
    its recorded inputs (``_check_record``): ReplayReport(True) without a
    re-run.  Otherwise, and at the epoch_only level, replay re-runs the
    config and compares every array bitwise.  The first mismatch in run
    order is reported as (K, i, field), which localizes trace corruption:
    by epoch K, then by step i in the order of INNER_FIELDS, then the
    epoch's end at i = n in the order x_{K+1} (xs), f_vals, grad_sq,
    alpha_first, alpha_last, alpha_sum, v_end.  Node 0 reports (0, 0,
    field).  A differing ``aborted_at`` reports where the earlier abort
    happened, a differing ``bound_exceeded_at`` the earlier node.  Unless
    one run aborted where the other did not, an epoch that one side lacks
    is a mismatch at its step 1 (its x_{K+1} at the epoch_only level).
    """
    if _check_record(trace):
        return ReplayReport(True)
    fresh = run(trace.config)
    n = trace.problem.n
    ragged = fresh.aborted_at == trace.aborted_at  # else the earlier abort explains the missing epochs
    found = []
    for rank, name in enumerate(INNER_FIELDS + NODE_SERIES + EPOCH_SERIES):
        new, old = getattr(fresh, name), getattr(trace, name)
        if new is None:
            continue
        at = _first_mismatch(new, old, 2 if name in INNER_FIELDS else 1, ragged)
        if at is None:
            continue
        if name in INNER_FIELDS:
            K, i = at[0], at[1] + 1  # step i of epoch K
        elif name in EPOCH_SERIES:
            K, i = at[0], n
        else:
            K, i = _node_location(at[0], n)
        found.append((K, i, rank, name))
    rank = len(INNER_FIELDS + NODE_SERIES + EPOCH_SERIES)
    if fresh.aborted_at != trace.aborted_at:
        K, i = min(a for a in (fresh.aborted_at, trace.aborted_at) if a is not None)
        found.append((K, i, rank, "aborted_at"))
    if fresh.bound_exceeded_at != trace.bound_exceeded_at:
        k = min(b for b in (fresh.bound_exceeded_at, trace.bound_exceeded_at) if b is not None)
        found.append((*_node_location(k, n), rank + 1, "bound_exceeded_at"))
    if not found:
        return ReplayReport(True)
    K, i, _, name = min(found)
    return ReplayReport(False, (K, i, name))


# ---------------------------------------------------------------------------
# trace file IO: one JSON header line, then per section a line with its byte count and its raw bytes
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _config_hash(config_text: str, data: np.ndarray) -> str:
    """SHA-256 of the canonical config JSON, a newline and the raw #DATA bytes."""
    import hashlib  # loads OpenSSL: a few ms that commands without trace IO skip

    digest = hashlib.sha256(config_text.encode() + b"\n")
    digest.update(data)
    return digest.hexdigest()


# section name -> dtype of its array, in file order.  #DATA holds the
# problem's data matrix; #INDEX and #INNER, at the full record level only,
# hold one row per inner step, epoch by epoch.
SECTION_DTYPES = {"#DATA": "<f8", "#NODES": "<f8", "#EPOCHS": "<f8", "#INDEX": "<i8", "#INNER": "<f8"}
STEP_SECTIONS = ("#INDEX", "#INNER")


def _section_arrays(trace: RunTrace) -> dict:
    """The array each section of the trace's file stores, by section name:
    C-contiguous, in the section's dtype."""
    arrays = {
        "#DATA": trace.problem.kind.data,
        "#NODES": np.column_stack([trace.xs, trace.f_vals, trace.grad_sq]),
        "#EPOCHS": np.column_stack([getattr(trace, name) for name in EPOCH_SERIES]),
    }
    if trace.alpha is not None:
        arrays["#INDEX"] = trace.index
        arrays["#INNER"] = np.concatenate(
            [trace.alpha[..., None], trace.dnorm2[..., None], trace.v[..., None], trace.d], axis=2
        )
    return {name: np.ascontiguousarray(array, SECTION_DTYPES[name]) for name, array in arrays.items()}


def save_trace(trace: RunTrace, path) -> None:
    """Write the trace file: the JSON header line, then per section a line
    ``#NAME <byte count>``, the raw little-endian bytes of its array and a
    newline.

    Each array's buffer is written as it is, with no copy of the file in
    memory; ``load_trace`` gives each section's shape.
    """
    # canonical JSON: sorted keys, no spaces
    config_text = json.dumps(config_to_dict(trace.config), sort_keys=True, separators=(",", ":"))
    arrays = _section_arrays(trace)
    header = {
        "format": TRACE_FORMAT,
        "config_sha256": _config_hash(config_text, arrays["#DATA"]),
        "provenance": trace.provenance,
        "aborted_at": list(trace.aborted_at) if trace.aborted_at else None,
        "bound_exceeded_at": trace.bound_exceeded_at,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header)[:-1] + ', "config": ' + config_text + "}\n").encode())
        for name, array in arrays.items():
            fh.write(f"{name} {array.nbytes}\n".encode())
            fh.write(array)
            fh.write(b"\n")


def _read_header(line: str) -> tuple:
    """The header of a trace file, and its config text: canonical JSON, last on the line."""
    header = json.loads(line)
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} file")
    for key in ("config_sha256", "provenance", "aborted_at", "bound_exceeded_at", "config"):
        if key not in header:
            raise ValueError(f"missing key {key!r}")
    aborted, bound = header["aborted_at"], header["bound_exceeded_at"]
    if not (aborted is None or isinstance(aborted, list) and list(map(type, aborted)) == [int, int]):
        raise ValueError(f"'aborted_at' must be null or [K, i], got {aborted!r}")
    if not (bound is None or type(bound) is int):
        raise ValueError(f"'bound_exceeded_at' must be null or an int, got {bound!r}")
    return header, line.partition('"config": ')[2][:-1]


@contextmanager
def _header_errors():
    """Report a malformed header as ValueError("header: ...")."""
    try:
        yield
    except (TypeError, AttributeError, ValueError, ArithmeticError) as err:
        raise ValueError(f"header: {err}") from None


def _section_spans(blob: bytes, start: int, names) -> dict:
    """{section name: (offset, length) of its payload} in a trace file's bytes after the header.

    From byte ``start``, each section is a line ``#NAME <byte count>``,
    that many bytes of payload and a newline.  A payload that the end of
    the file cuts keeps the bytes there are, for ``_section_array`` to
    report.  A section that is not one of ``names``, is repeated or is
    missing, a section line without a byte count (one the end of the file
    cuts included) and a payload not followed by its newline raise
    ValueError with the byte offset of the line, or of the missing newline.
    """
    spans: dict = {}
    pos = start
    while pos < len(blob):
        end = blob.find(b"\n", pos)
        name, _, count = blob[pos : len(blob) if end < 0 else end].partition(b" ")
        if not name.startswith(b"#"):
            raise ValueError(f"byte {pos}: not a section line")
        name = name.decode(errors="replace")
        if name not in names:
            raise ValueError(f"{name}: unknown section (byte {pos})")
        if name in spans:
            raise ValueError(f"{name}: repeated section (byte {pos})")
        if end < 0 or not count.isdigit():
            raise ValueError(f"{name}: section line without a byte count (byte {pos})")
        stop = end + 1 + int(count)
        spans[name] = (end + 1, min(stop, len(blob)) - end - 1)
        if stop <= len(blob) and blob[stop : stop + 1] != b"\n":
            raise ValueError(f"{name}: payload not followed by its newline (byte {stop})")
        pos = stop + 1
    for name in names:
        if name not in spans:
            raise ValueError(f"{name}: section missing")
    return spans


def _section_array(name: str, blob: bytes, span: tuple, shape: tuple, n: int) -> np.ndarray:
    """The read-only view of a section's payload ``span`` in ``blob``, which must fill ``shape``.

    A short or long payload raises ValueError naming the first row it
    affects: ``#NODES row r`` and ``#EPOCHS row r`` count rows from 1,
    ``#INDEX K row i`` and ``#INNER K row i`` name inner step i of epoch K.
    """
    lead = 2 if name in STEP_SECTIONS else 1
    rows, row_bytes = math.prod(shape[:lead]), 8 * math.prod(shape[lead:])

    def row(q: int) -> str:
        return f"{name} {q // n} row {q % n + 1}" if lead == 2 else f"{name} row {q + 1}"

    offset, length = span
    size = rows * row_bytes
    if length < size:
        what = "incomplete" if length % row_bytes else "missing"
        raise ValueError(
            f"{row(length // row_bytes)}: {what}, the payload holds {length} of the"
            f" {size} bytes the header implies"
        )
    if length > size:
        raise ValueError(f"{row(rows)}: unexpected, the payload holds {length} bytes, the header implies {size}")
    return np.frombuffer(blob, SECTION_DTYPES[name], math.prod(shape), offset).reshape(shape)


def load_trace(path) -> RunTrace:
    """Read a trace file; a truncated, malformed or inconsistent one raises ValueError.

    The file is read once.  The header implies each section's shape: #DATA
    (n, columns) the problem's data matrix, #NODES (N+1, p+2) x, f and
    grad_sq of x_0..x_N, #EPOCHS (N, 4) the epoch series and, at full
    level, #INDEX (N, n) the queried components and #INNER (N, n, 3+p)
    alpha, dnorm2, v and d of every inner step.  Each section is viewed in
    the file's bytes and copied into the trace's writable arrays.  Framing
    errors name the section and a byte offset (see ``_section_spans``), a
    short or long payload the section and the first row affected (see
    ``_section_array``).  #DATA is read before the config hash, which
    covers it, is checked, and the other sections after.  The hash does
    not cover the header's ``aborted_at`` and ``bound_exceeded_at``, so
    the first must be an inner step of the configured run and the second
    a node of the trace.  z is derived, and a z_{K,n} that is not x_{K+1}
    bit for bit raises ValueError naming both rows; zhat waits for its
    first read.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob:
        raise ValueError("empty trace file")
    end = blob.find(b"\n")
    end = len(blob) if end < 0 else end
    with _header_errors():
        header, config_text = _read_header(blob[:end].decode())
        doc = read_document(header["config"], header=True)
        full = doc["record_level"] == "full"
        names = [name for name in SECTION_DTYPES if full or name not in STEP_SECTIONS]
        data_dims = data_shape(doc["problem"])
    spans = _section_spans(blob, end + 1, names)
    data = _section_array("#DATA", blob, spans["#DATA"], data_dims, data_dims[0])
    with _header_errors():
        if _config_hash(config_text, data) != header["config_sha256"]:
            raise ValueError("config hash mismatch")
        config = RunConfig.from_dict(doc, problem_from_dict(doc["problem"], data))
        n, p = config.problem.n, config.problem.p
        aborted = tuple(header["aborted_at"]) if header["aborted_at"] else None
        if aborted and not (0 <= aborted[0] < config.epochs and 1 <= aborted[1] <= n):
            raise ValueError(
                f"'aborted_at' must be null or [K, i], K in 0..{config.epochs - 1}"
                f" and i in 1..{n}, got {list(aborted)}"
            )
        epochs = aborted[0] if aborted else config.epochs
        bound = header["bound_exceeded_at"]
        if bound is not None and not 0 <= bound <= epochs:
            raise ValueError(f"'bound_exceeded_at' must be null or a node 0..{epochs}, got {bound}")

    shapes = {"#NODES": (epochs + 1, p + 2), "#EPOCHS": (epochs, len(EPOCH_SERIES))}
    if full:
        shapes.update({"#INDEX": (epochs, n), "#INNER": (epochs, n, 3 + p)})
    arrays = {name: _section_array(name, blob, spans[name], shape, n) for name, shape in shapes.items()}

    trace = _new_trace(config, epochs)
    trace.aborted_at, trace.bound_exceeded_at = aborted, bound
    trace.provenance = header["provenance"]
    nodes = arrays["#NODES"]
    trace.xs[:], trace.f_vals[:], trace.grad_sq[:] = nodes[:, :p], nodes[:, p], nodes[:, p + 1]
    for k, name in enumerate(EPOCH_SERIES):
        getattr(trace, name)[:] = arrays["#EPOCHS"][:, k]
    if full:
        steps = arrays["#INNER"]
        trace.index[:] = arrays["#INDEX"]
        trace.alpha[:], trace.dnorm2[:], trace.v[:] = steps[..., 0], steps[..., 1], steps[..., 2]
        trace.d[:] = steps[..., 3:]
        # the trace's arrays are copies: the file's bytes are not live beside z
        del blob, data, arrays, nodes, steps
        # z_{K,0..n} of every epoch, the engine's update from x_K as one in-place
        # accumulate: z_{K,i} = z_{K,i-1} - alpha_{K,i} d_{K,i}, left to right
        zs = np.empty((epochs, n + 1, p))
        zs[:, 0] = trace.xs[:epochs]
        np.multiply(trace.alpha[..., None], trace.d, out=zs[:, 1:])
        np.subtract.accumulate(zs, axis=1, out=zs)
        moved = np.flatnonzero((zs[:, n] != trace.xs[1:]).any(axis=1))
        if moved.size:
            K = int(moved[0])
            raise ValueError(f"#INNER {K}: the derived z_{{{K},n}} differs from x_{K + 1} (#NODES row {K + 2})")
        trace.z = zs[:, 1:]
    return trace


def write_summary_csv(trace: RunTrace, path) -> None:
    """Post-epoch summary: one row per completed epoch.

    Row K reports the state after epoch K: F(x_{K+1}), ||grad F(x_{K+1})||^2,
    the running minimum of the grad-norm series over x_0..x_{K+1}, the
    epoch's first/last step sizes and the adaptive accumulator.
    """
    running = trace.running_min_grad_sq()
    lines = ["K,F,grad_norm_sq,min_so_far,alpha_first,alpha_last,v"]
    for K in range(trace.epochs_completed):
        lines.append(
            f"{K},{_fmt(trace.f_vals[K + 1])},{_fmt(trace.grad_sq[K + 1])},"
            f"{_fmt(running[K + 1])},{_fmt(trace.alpha_first[K])},"
            f"{_fmt(trace.alpha_last[K])},{_fmt(trace.v_end[K])}"
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
