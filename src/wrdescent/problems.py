"""Finite-sum problems and their first-order oracles.

A problem is F(x) = (1/n) * sum_i f_i(x) on R^p.  Each component exposes a
value oracle, a search-direction oracle d_i (the gradient when the component
is smooth, a generalized-derivative selection otherwise), a global Lipschitz
constant M_i with ||d_i(x)|| <= M_i, and, when smooth, a gradient Lipschitz
constant L_i.  Nonsmooth components may additionally expose a finite
generator list spanning their generalized derivative at a point.

Aggregate constants: M = sqrt(mean(M_i^2)), L = mean(L_i) (smooth only).

Conventions used by the built-in problem zoo:
  * sign(0) = 0 and relu'(0) = 0 (the usual autodiff selections);
  * constants are exact closed forms, never estimates;
  * problems are immutable after construction and oracle calls are pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

PROBLEM_KINDS = ("logistic", "sigmoid_nonconvex", "median", "relu_net")

# sup |sigma''| over R, attained at sigma = (3 +- sqrt(3))/6
_SIGMOID_HESS_BOUND = 1.0 / (6.0 * math.sqrt(3.0))


class UnsupportedProblem(RuntimeError):
    """Operation requested on a problem that cannot support it."""


def _expit(t: float) -> float:
    # overflow-safe scalar logistic function
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _expit_rows(t: np.ndarray) -> np.ndarray:
    # _expit of each entry, with the same two branches
    e = np.exp(-np.abs(t))
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


@dataclass(frozen=True)
class ComponentOracle:
    """One summand f_i with its direction oracle and constants.

    ``generators`` maps a point to a finite list of vectors whose convex hull
    contains every admissible direction at that point; ``direction`` must be a
    selection from that hull.  ``lipschitz_gradient`` is present iff the
    component is continuously differentiable with Lipschitz gradient.
    """

    value: Callable[[np.ndarray], float]
    direction: Callable[[np.ndarray], np.ndarray]
    lipschitz_value: float
    lipschitz_gradient: Optional[float] = None
    generators: Optional[Callable[[np.ndarray], list[np.ndarray]]] = None

    def __post_init__(self):
        if self.lipschitz_value < 0:
            raise ValueError("lipschitz_value must be nonnegative")
        if self.lipschitz_gradient is not None and self.lipschitz_gradient < 0:
            raise ValueError("lipschitz_gradient must be nonnegative")

    @property
    def smooth(self) -> bool:
        return self.lipschitz_gradient is not None


def aggregate_constants(
    components: tuple[ComponentOracle, ...],
) -> tuple[float, Optional[float]]:
    """(M, L) recomputed from per-component constants.

    This is the single place the aggregation formulas live, so stored and
    recomputed values agree bitwise.
    """
    n = len(components)
    m_sq = math.fsum(c.lipschitz_value**2 for c in components) / n
    m = math.sqrt(m_sq)
    if all(c.smooth for c in components):
        lip = math.fsum(c.lipschitz_gradient for c in components) / n
    else:
        lip = None
    return m, lip


@dataclass(frozen=True)
class FiniteSumProblem:
    """Immutable finite-sum objective with component oracles.

    ``f_star_lower`` is a valid lower bound on inf F (used by bound
    certificates).  ``box_radius``, when set, marks that the constants are
    only valid on the box ||x||_inf <= box_radius; runs monitor excursions.
    ``meta`` carries construction data (kind, seed, raw arrays) so that zoo
    problems serialize exactly.
    """

    components: tuple[ComponentOracle, ...]
    p: int
    M: float
    L: Optional[float]
    f_star_lower: Optional[float] = None
    known_solution: Optional[float] = None
    box_radius: Optional[float] = None
    meta: dict = field(default_factory=dict)
    full_value_fn: Optional[Callable[[np.ndarray], float]] = None
    full_direction_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None
    direction_norms_fn: Optional[Callable[[np.ndarray], np.ndarray]] = None

    @classmethod
    def assemble(cls, components, p, **kwargs) -> "FiniteSumProblem":
        comps = tuple(components)
        m, lip = aggregate_constants(comps)
        return cls(components=comps, p=int(p), M=m, L=lip, **kwargs)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def is_smooth(self) -> bool:
        return self.L is not None

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.p},)"
            )
        return x

    def full_value(self, x: np.ndarray) -> float:
        """F(x) = (1/n) sum_i f_i(x)."""
        x = self.check_point(x)
        if self.full_value_fn is not None:
            return float(self.full_value_fn(x))
        return math.fsum(c.value(x) for c in self.components) / self.n

    def full_direction(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum_i d_i(x); equals grad F(x) on smooth problems."""
        x = self.check_point(x)
        if self.full_direction_fn is not None:
            return np.asarray(self.full_direction_fn(x), dtype=float)
        acc = np.zeros(self.p)
        for c in self.components:
            acc += c.direction(x)
        return acc / self.n

    def direction_norms(self, x: np.ndarray) -> np.ndarray:
        """(||d_1(x)||, ..., ||d_n(x)||), one vectorized call when the problem has one."""
        x = self.check_point(x)
        if self.direction_norms_fn is not None:
            return np.asarray(self.direction_norms_fn(x), dtype=float)
        return np.array([math.sqrt(float(d @ d)) for d in (c.direction(x) for c in self.components)])

    def generator_set(self, x: np.ndarray, max_size: int = 4096) -> list[np.ndarray]:
        """Distinct elements {(1/n) sum_i g_i : g_i in generators_i(x)}.

        The convex hull of the returned list is the aggregate generalized
        derivative at x.  Enumerates component combinations with progressive
        deduplication; raises UnsupportedProblem when a component exposes no
        generators or the intermediate set exceeds ``max_size``.
        """
        x = self.check_point(x)
        sums = np.zeros((1, self.p))
        for idx, c in enumerate(self.components):
            if c.generators is None:
                raise UnsupportedProblem(
                    f"component {idx} does not expose generators"
                )
            gens = np.asarray(c.generators(x), dtype=float).reshape(-1, self.p)
            sums = (sums[:, None, :] + gens[None, :, :]).reshape(-1, self.p)
            if len(sums) > 1:  # a single row is already deduplicated
                sums = np.unique(sums, axis=0)
            if len(sums) > max_size:
                raise UnsupportedProblem(
                    f"generator combinations exceed cap {max_size} at component {idx}"
                )
        return list(sums / self.n)


def finite_diff_check(problem: FiniteSumProblem, x: np.ndarray, h: float) -> float:
    """Max per-coordinate relative error of central differences vs full_direction.

    Relative error uses denominator max(1, |g_k|) so near-zero coordinates do
    not blow up the ratio.  Only defined for smooth problems.
    """
    if not problem.is_smooth:
        raise UnsupportedProblem("finite differences need a smooth problem")
    if h <= 0:
        raise ValueError("h must be positive")
    x = problem.check_point(x)
    g = problem.full_direction(x)
    worst = 0.0
    for k in range(problem.p):
        e = np.zeros(problem.p)
        e[k] = h
        fd = (problem.full_value(x + e) - problem.full_value(x - e)) / (2.0 * h)
        err = abs(fd - g[k]) / max(1.0, abs(g[k]))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# problem zoo
# ---------------------------------------------------------------------------


def logistic_problem(A, b, *, seed=None) -> FiniteSumProblem:
    """Binary logistic loss f_i(x) = log(1 + exp(-b_i <a_i, x>)), b_i in {-1,+1}.

    Exact constants: M_i = ||a_i||, L_i = ||a_i||^2 / 4.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).reshape(-1)
    n, p = A.shape
    if b.shape != (n,):
        raise ValueError("label vector length must match row count of A")
    if not np.all(np.abs(b) == 1.0):
        raise ValueError("labels must be +-1")

    comps, norms = [], []
    for i in range(n):
        a = A[i]
        bi = float(b[i])
        norms.append(float(np.linalg.norm(a)))

        def value(x, a=a, bi=bi):
            return float(np.logaddexp(0.0, -bi * float(a @ x)))

        def direction(x, a=a, bi=bi):
            return (-bi * _expit(-bi * float(a @ x))) * a

        comps.append(
            ComponentOracle(
                value=value,
                direction=direction,
                lipschitz_value=norms[i],
                lipschitz_gradient=float(a @ a) / 4.0,
                generators=lambda x, d=direction: [d(x)],
            )
        )

    def full_value(x):
        return float(np.mean(np.logaddexp(0.0, -b * (A @ x))))

    def full_direction(x):
        # exp overflows to inf where the coefficient saturates to 0
        with np.errstate(over="ignore"):
            coef = -b / (1.0 + np.exp(b * (A @ x)))
        return (coef @ A) / n

    row_norms = np.array(norms)

    def direction_norms(x):
        # ||d_i(x)|| = expit(-b_i <a_i, x>) ||a_i||
        return _expit_rows(-b * (A @ x)) * row_norms

    return FiniteSumProblem.assemble(
        comps,
        p,
        f_star_lower=0.0,
        meta={"kind": "logistic", "seed": seed, "data": {"A": A, "b": b}},
        full_value_fn=full_value,
        full_direction_fn=full_direction,
        direction_norms_fn=direction_norms,
    )


def sigmoid_problem(A, c, *, seed=None) -> FiniteSumProblem:
    """Nonconvex smooth components f_i(x) = sigma(<a_i, x> - c_i).

    Exact constants: M_i = ||a_i||/4, L_i = ||a_i||^2 / (6 sqrt 3).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    c = np.asarray(c, dtype=float).reshape(-1)
    n, p = A.shape
    if c.shape != (n,):
        raise ValueError("offset vector length must match row count of A")

    comps, norms = [], []
    for i in range(n):
        a = A[i]
        ci = float(c[i])
        norms.append(float(np.linalg.norm(a)))

        def value(x, a=a, ci=ci):
            return _expit(float(a @ x) - ci)

        def direction(x, a=a, ci=ci):
            s = _expit(float(a @ x) - ci)
            return (s * (1.0 - s)) * a

        comps.append(
            ComponentOracle(
                value=value,
                direction=direction,
                lipschitz_value=norms[i] / 4.0,
                lipschitz_gradient=float(a @ a) * _SIGMOID_HESS_BOUND,
                generators=lambda x, d=direction: [d(x)],
            )
        )

    # exp overflows to inf where the sigmoid saturates to 0
    def full_value(x):
        with np.errstate(over="ignore"):
            return float(np.mean(1.0 / (1.0 + np.exp(-(A @ x - c)))))

    def full_direction(x):
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-(A @ x - c)))
        return ((s * (1.0 - s)) @ A) / n

    row_norms = np.array(norms)

    def direction_norms(x):
        # ||d_i(x)|| = s (1 - s) ||a_i||, s = expit(<a_i, x> - c_i)
        s = _expit_rows(A @ x - c)
        return (s * (1.0 - s)) * row_norms

    return FiniteSumProblem.assemble(
        comps,
        p,
        f_star_lower=0.0,
        meta={"kind": "sigmoid_nonconvex", "seed": seed, "data": {"A": A, "c": c}},
        full_value_fn=full_value,
        full_direction_fn=full_direction,
        direction_norms_fn=direction_norms,
    )


def median_problem(B, *, seed=None) -> FiniteSumProblem:
    """Nonsmooth components f_i(x) = ||x - b_i||_inf (|x - b_i| when p = 1).

    M_i = 1 exactly.  Directions pick the first maximizing coordinate with
    sign(0) = 0.  Generators are the extreme points of the generalized
    derivative: {sign * e_j} over maximizing coordinates, the full {+-e_j}
    set at x = b_i.  For p = 1 the minimizer is the sample median, recorded
    as known_solution.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    n, p = B.shape

    comps = []
    for i in range(n):
        bi = B[i]

        def value(x, bi=bi):
            return float(np.max(np.abs(x - bi)))

        def direction(x, bi=bi):
            dev = x - bi
            j = int(np.argmax(np.abs(dev)))
            d = np.zeros(p)
            d[j] = np.sign(dev[j])
            return d

        def generators(x, bi=bi):
            dev = x - bi
            adev = np.abs(dev)
            m = float(adev.max())
            out = []
            if m == 0.0:
                for j in range(p):
                    for s in (-1.0, 1.0):
                        e = np.zeros(p)
                        e[j] = s
                        out.append(e)
                return out
            for j in np.flatnonzero(adev == m):
                e = np.zeros(p)
                e[j] = np.sign(dev[j])
                out.append(e)
            return out

        comps.append(
            ComponentOracle(
                value=value,
                direction=direction,
                lipschitz_value=1.0,
                generators=generators,
            )
        )

    def full_value(x):
        return float(np.mean(np.max(np.abs(x[None, :] - B), axis=1)))

    def _signs(x):
        # sign of each component's first maximizing deviation, and its coordinate
        dev = x[None, :] - B
        j = np.argmax(np.abs(dev), axis=1)
        return np.sign(dev[np.arange(n), j]), j

    def full_direction(x):
        s, j = _signs(x)
        acc = np.zeros(p)
        np.add.at(acc, j, s)
        return acc / n

    def direction_norms(x):
        return np.abs(_signs(x)[0])

    known = float(np.median(B[:, 0])) if p == 1 else None
    return FiniteSumProblem.assemble(
        comps,
        p,
        f_star_lower=0.0,
        known_solution=known,
        meta={"kind": "median", "seed": seed, "data": {"B": B}},
        full_value_fn=full_value,
        full_direction_fn=full_direction,
        direction_norms_fn=direction_norms,
    )


def _relu_unpack(theta: np.ndarray, hidden: int, p_in: int):
    w1 = theta[: hidden * p_in].reshape(hidden, p_in)
    b1 = theta[hidden * p_in : hidden * p_in + hidden]
    w2 = theta[hidden * p_in + hidden : hidden * p_in + 2 * hidden]
    b2 = theta[-1]
    return w1, b1, w2, b2


def relu_net_problem(X, y, *, hidden=8, box_radius=2.0, seed=None) -> FiniteSumProblem:
    """Absolute-error loss of a two-layer scalar-output ReLU network.

    Parameters are theta = (W1, b1, w2, b2) flattened; f_i(theta) =
    |w2^T relu(W1 x_i + b1) + b2 - y_i|.  Directions are reverse-mode
    selections with relu'(0) = 0 and sign(0) = 0.  M_i is a valid bound on
    the box ||theta||_inf <= box_radius only; runs should monitor box exit.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).reshape(-1)
    n, p_in = X.shape
    if y.shape != (n,):
        raise ValueError("target vector length must match sample count")
    if not (1 <= hidden <= 16):
        raise ValueError("hidden must be in [1, 16]")
    h = int(hidden)
    p = h * p_in + 2 * h + 1
    r = float(box_radius)

    comps = []
    for i in range(n):
        xi = X[i]
        yi = float(y[i])

        def value(theta, xi=xi, yi=yi):
            w1, b1, w2, b2 = _relu_unpack(theta, h, p_in)
            pre = w1 @ xi + b1
            return abs(float(w2 @ np.maximum(pre, 0.0) + b2) - yi)

        def direction(theta, xi=xi, yi=yi):
            w1, b1, w2, b2 = _relu_unpack(theta, h, p_in)
            pre = w1 @ xi + b1
            act = np.maximum(pre, 0.0)
            mask = (pre > 0.0).astype(float)
            s = float(np.sign(w2 @ act + b2 - yi))
            gw2 = w2 * mask
            return s * np.concatenate(
                [np.outer(gw2, xi).ravel(), gw2, act, [1.0]]
            )

        a1 = float(np.sum(np.abs(xi)))
        m_sq = (
            h * r**2 * (a1 + 1.0) ** 2  # dL/dw2 via activations
            + 1.0  # dL/db2
            + h * r**2 * float(xi @ xi)  # dL/dW1
            + h * r**2  # dL/db1
        )
        comps.append(
            ComponentOracle(
                value=value,
                direction=direction,
                lipschitz_value=math.sqrt(m_sq),
            )
        )

    return FiniteSumProblem.assemble(
        comps,
        p,
        f_star_lower=0.0,
        box_radius=r,
        meta={
            "kind": "relu_net",
            "seed": seed,
            "data": {"X": X, "y": y, "hidden": h, "box_radius": r},
        },
    )


def make_problem(kind: str, n: int, p: int, seed: int) -> FiniteSumProblem:
    """Seed-deterministic instance of one of the built-in problem kinds.

    For relu_net, ``p`` is the network input dimension; the optimization
    dimension is the derived parameter count.
    """
    if kind not in PROBLEM_KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    if n < 1 or p < 1:
        raise ValueError("n and p must be at least 1")
    rng = np.random.default_rng(seed)
    if kind == "logistic":
        A = rng.standard_normal((n, p))
        b = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        return logistic_problem(A, b, seed=seed)
    if kind == "sigmoid_nonconvex":
        A = rng.standard_normal((n, p))
        c = rng.standard_normal(n)
        return sigmoid_problem(A, c, seed=seed)
    if kind == "median":
        B = rng.standard_normal((n, p))
        return median_problem(B, seed=seed)
    h = 8
    X = rng.standard_normal((n, p))
    teacher = rng.uniform(-1.0, 1.0, size=h * p + 2 * h + 1)
    pre = X @ teacher[: h * p].reshape(h, p).T + teacher[h * p : h * p + h]
    y = np.maximum(pre, 0.0) @ teacher[h * p + h : h * p + 2 * h] + teacher[-1]
    return relu_net_problem(X, y, hidden=h, seed=seed)


# ---------------------------------------------------------------------------
# serialization (zoo problems only; raw arrays, exact replay)
# ---------------------------------------------------------------------------


def problem_to_dict(problem: FiniteSumProblem) -> dict:
    if "kind" not in problem.meta:
        raise UnsupportedProblem("only zoo problems are serializable")
    data = {k: np.asarray(v).tolist() if isinstance(v, np.ndarray) else v
            for k, v in problem.meta["data"].items()}
    return {
        "kind": problem.meta["kind"],
        "n": problem.n,
        "p": problem.p,
        "seed": problem.meta.get("seed"),
        "data": data,
    }


def problem_from_dict(doc: dict) -> FiniteSumProblem:
    kind = doc["kind"]
    data = doc["data"]
    seed = doc.get("seed")
    if kind == "logistic":
        return logistic_problem(np.array(data["A"]), np.array(data["b"]), seed=seed)
    if kind == "sigmoid_nonconvex":
        return sigmoid_problem(np.array(data["A"]), np.array(data["c"]), seed=seed)
    if kind == "median":
        return median_problem(np.array(data["B"]), seed=seed)
    if kind == "relu_net":
        return relu_net_problem(
            np.array(data["X"]),
            np.array(data["y"]),
            hidden=data["hidden"],
            box_radius=data["box_radius"],
            seed=seed,
        )
    raise ValueError(f"unknown problem kind {kind!r}")


def problem_to_json(problem: FiniteSumProblem) -> str:
    return json.dumps(problem_to_dict(problem))


def problem_from_json(text: str) -> FiniteSumProblem:
    return problem_from_dict(json.loads(text))
