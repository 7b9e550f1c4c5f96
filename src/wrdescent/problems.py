"""Finite-sum problems and their first-order oracles.

A problem is F(x) = (1/n) * sum_i f_i(x) on R^p.  Each component exposes a
value oracle and a search-direction oracle d_i (the gradient when the
component is smooth, a generalized-derivative selection otherwise);
nonsmooth components may additionally expose a finite generator list
spanning their generalized derivative at a point.  The constants are the
kind's: a global Lipschitz constant M_i with ||d_i(x)|| <= M_i per row
and, when every component is smooth, a gradient Lipschitz constant L_i.

Aggregate constants: M = sqrt(mean(M_i^2)), L = mean(L_i) (smooth only).

Every problem is a zoo kind (``ZooKind``): one data matrix with a row per
component (logistic [a_i, b_i], sigmoid [a_i, c_i], median b_i, relu_net
[x_i, y_i]) and its scalars.  The kind is the one place for the row
oracles, closed-form constants, row kernels (components' values or
directions at one point or at a stack of points, one point per row, with
the bits of the row oracles), full oracles, random instance and
serialization, and the one holder of a problem's n, p, M, L, F* lower
bound, known solution and box.  The full oracles are the exact per-row
sums over the row kernels unless the kind overrides them with formulas
over its whole matrix: logistic, sigmoid and median do, relu_net does not.
``ZOO_KINDS`` holds the four built-in kinds, the ones that serialize.  A
problem is ``FiniteSumProblem(kind)``.  Its ``components`` is a read-only
sequence over its kind (``KindComponents``): its n ComponentOracles,
which carry only oracles, ``functools.partial`` views of the row
oracles, are built on first use, all at once, and kept.  Loads, checks
and reports, which read only the kind, build none.

Conventions used by the built-in problem zoo:
  * sign(0) = 0 and relu'(0) = 0 (the usual autodiff selections);
  * constants are exact closed forms, never estimates;
  * problems are immutable after construction and oracle calls are pure.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np

# sup |sigma''| over R, attained at sigma = (3 +- sqrt(3))/6
_SIGMOID_HESS_BOUND = 1.0 / (6.0 * math.sqrt(3.0))
# components per row-kernel call of a direction sum, which bounds its
# temporary at ROW_BLOCK x p
ROW_BLOCK = 256
# most distinct sums generator_set enumerates before it gives up
GENERATOR_CAP = 4096


def _fsum(values: list) -> float:
    """math.fsum, the correctly rounded sum, also where a partial sum leaves
    the float range: then the exact sum, or its signed infinity past the range."""
    try:
        return math.fsum(values)
    except OverflowError:
        special = [v for v in values if not math.isfinite(v)]
        if special:
            return math.fsum(special)  # what fsum gives with an inf or NaN among its terms
        from fractions import Fraction  # about 4 ms to import, so only on this path

        total = sum(map(Fraction, values))
        try:
            return float(total)
        except OverflowError:
            return math.inf if total > 0 else -math.inf


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
    """One summand f_i: its value and direction oracles, and its generators.

    ``generators`` maps a point to a finite list of vectors whose convex hull
    contains every admissible direction at that point; ``direction`` must be a
    selection from that hull.  The component's constants are its kind's
    ``lipschitz_values[i]`` and ``lipschitz_gradients[i]``.
    """

    value: Callable[[np.ndarray], float]
    direction: Callable[[np.ndarray], np.ndarray]
    generators: Optional[Callable[[np.ndarray], list[np.ndarray]]] = None


@dataclass(frozen=True)
class FiniteSumProblem:
    """Immutable finite-sum objective: a zoo kind and its components.

    ``kind`` is the ZooKind the problem is, and the only holder of its
    constants: ``n``, ``p``, ``M``, ``L``, ``is_smooth``, ``f_star_lower``
    (a valid lower bound on inf F, used by bound certificates),
    ``known_solution`` and ``box_radius`` (when set, the constants are
    only valid on the box ||x||_inf <= box_radius; runs monitor
    excursions) are read-only views of it.  The kind serializes the
    problem when it is one of ``ZOO_KINDS``, and its methods answer the
    full oracles (``ZooKind.full_values``, ``full_directions``,
    ``direction_norms``) and the stacked row directions.
    ``components`` defaults to ``KindComponents(kind)``, built on first
    use.  ``generator_set`` of a kind whose one generator per component is
    its direction is the kind's exact direction sum over n.
    ``full_value`` and ``full_direction`` take a point (p,) or a stack of
    points (m, p); a point is the stack with m = 1, and each row of a
    stack has the bits of the point call.
    """

    kind: "ZooKind"
    components: Optional[Sequence[ComponentOracle]] = None

    def __post_init__(self):
        if self.components is None:
            object.__setattr__(self, "components", KindComponents(self.kind))

    n = property(lambda self: self.kind.n)
    p = property(lambda self: self.kind.p)
    M = property(lambda self: self.kind._mean_constants[0])
    L = property(lambda self: self.kind._mean_constants[1])
    is_smooth = property(lambda self: self.L is not None)
    f_star_lower = property(lambda self: self.kind.f_star_lower)
    known_solution = property(lambda self: self.kind.known_solution)
    box_radius = property(lambda self: self.kind.box_radius)

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.p,):
            raise ValueError(
                f"point has shape {x.shape}, expected ({self.p},)"
            )
        return x

    def _check_points(self, x) -> np.ndarray:
        """A point (p,) or a stack of points (m, p), as a stack (m, p)."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.p:
            raise ValueError(f"points have shape {x.shape}, expected ({self.p},) or (m, {self.p})")
        return x.reshape(-1, self.p)

    def row_directions(self, X: np.ndarray, rows) -> np.ndarray:
        """d_{rows[r]}(X[r]) for each row r of a stack X (m, p), with the
        bits of that component's direction oracle."""
        return self.kind.row_directions(X, np.asarray(rows))

    def full_value(self, x: np.ndarray):
        """F(x) = (1/n) sum_i f_i(x): a float for a point (p,), one per row of a stack (m, p)."""
        values = self.kind.full_values(self._check_points(x))
        return float(values[0]) if np.ndim(x) == 1 else values

    def full_direction(self, x: np.ndarray) -> np.ndarray:
        """(1/n) sum_i d_i(x), equal to grad F(x) on smooth problems: (p,) for a point, (m, p) for a stack."""
        directions = self.kind.full_directions(self._check_points(x))
        return directions[0] if np.ndim(x) == 1 else directions

    def direction_norms(self, x: np.ndarray) -> np.ndarray:
        """(||d_1(x)||, ..., ||d_n(x)||)."""
        return self.kind.direction_norms(self.check_point(x))

    def generator_set(self, x: np.ndarray) -> list[np.ndarray]:
        """Distinct elements {(1/n) sum_i g_i : g_i in generators_i(x)}.

        The convex hull of the returned list is the aggregate generalized
        derivative at x.  Enumerates component combinations with progressive
        deduplication; raises UnsupportedProblem when the components expose
        no generators or the intermediate set exceeds GENERATOR_CAP.
        """
        x, kind = self.check_point(x), self.kind
        if kind.generators is None:
            raise UnsupportedProblem("component 0 does not expose generators")
        if type(kind).generators is ZooKind.generators:
            # each component's one generator is its direction: the sum has one element
            return [kind._direction_sum(x) / self.n]
        sums = np.zeros((1, self.p))
        for idx, row in enumerate(kind.rows()):
            gens = np.asarray(kind.generators(*row, x), dtype=float).reshape(-1, self.p)
            sums = (sums[:, None, :] + gens[None, :, :]).reshape(-1, self.p)
            if len(sums) > 1:  # a single row is already deduplicated
                sums = np.unique(sums, axis=0)
            if len(sums) > GENERATOR_CAP:
                raise UnsupportedProblem(
                    f"generator combinations exceed cap {GENERATOR_CAP} at component {idx}"
                )
        return list(sums / self.n)


# ---------------------------------------------------------------------------
# problem zoo: one class per kind over its data matrix
# ---------------------------------------------------------------------------


class ZooKind:
    """One kind of the problem zoo: a data matrix with a row per component.

    A subclass names its KIND and SCALARS (constructor parameters stored
    with the seed), sets ``lipschitz_values`` and, if smooth,
    ``lipschitz_gradients`` (the M_i and L_i, from which
    ``_mean_constants`` gives M and L once), may set ``f_star_lower``,
    ``known_solution`` and ``box_radius``, and gives the row oracles
    ``value(*row, x)``, ``direction(*row, x)`` and ``generators(*row, x)``
    of each ``rows()`` entry, and ``draw(n, p, rng)``, the data of
    make_problem's instance.  Its row kernels ``row_directions(x, rows)``
    and, unless it overrides ``full_values``, ``row_values(x, rows)`` give
    one row per component of the slice ``rows`` (default all n), each with
    the bits of that component's oracle at x.  Given a stack X (m, p) and
    an index array ``rows`` of length m, row r is component rows[r]'s
    oracle at X[r]: a point is the m = 1 stack, broadcast, through the
    same code.

    The kind answers the full oracles: ``full_values(X)`` and
    ``full_directions(X)`` for each row of a stack X (m, p) of points,
    and ``direction_norms(x)``.  Here they are the exact per-row sums over
    the row kernels: the ``math.fsum`` of the row values over n, the
    directions added one at a time to 0.0 in index order over n, and the
    square roots of the row ddots of the directions.  A kind may override
    them with formulas over its whole matrix that agree to rounding:
    within 1e-12 relative, and for the vectors 1e-12 M absolute.
    """

    KIND = ""
    SCALARS: tuple = ()
    LABELS = 1  # data columns after the vector in R^p
    f_star_lower = 0.0  # every zoo loss is nonnegative
    known_solution = box_radius = lipschitz_gradients = None

    def __init__(self, data, seed=None):
        self.data = np.array(data, dtype=float, ndmin=2)
        self.n, self.seed = len(self.data), seed

    @property
    def p(self) -> int:
        return self.data.shape[1] - self.LABELS

    @classmethod
    def columns(cls, doc: dict) -> int:
        """The data matrix's column count, from a problem_to_dict document."""
        return doc["p"] + cls.LABELS

    def rows(self):
        return zip(self.data)

    def generators(self, *row_and_x) -> list:
        # a smooth component's one generator is its gradient
        return [self.direction(*row_and_x)]

    def _direction_sum(self, x: np.ndarray) -> np.ndarray:
        """d_1(x) + ... + d_n(x), added one at a time to 0.0 in index order.

        ROW_BLOCK rows at a time, each block summed by one in-place
        cumulative sum that starts from the sum so far, so the temporary
        is one block of rows, not all n.
        """
        acc = np.zeros(self.p)  # the sum starts at 0.0, which makes a -0.0 of d_1 +0.0
        for lo in range(0, self.n, ROW_BLOCK):
            D = self.row_directions(x, slice(lo, lo + ROW_BLOCK))
            np.add(acc, D[0], out=D[0])
            acc = np.cumsum(D, axis=0, out=D)[-1]
        return acc

    def full_values(self, X) -> np.ndarray:
        return np.array([_fsum(self.row_values(x).tolist()) / self.n for x in X])

    def full_directions(self, X) -> np.ndarray:
        directions = np.empty(X.shape)
        for acc, x in zip(directions, X):
            acc[:] = self._direction_sum(x)
        return directions / self.n

    def direction_norms(self, x) -> np.ndarray:
        D = self.row_directions(x)
        return np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])

    @cached_property
    def _mean_constants(self) -> tuple[float, Optional[float]]:
        """(M, L) of the constants M_i and L_i (L None when not every
        component is smooth), computed once."""
        m = math.sqrt(math.fsum(v**2 for v in self.lipschitz_values) / self.n)
        gradients = self.lipschitz_gradients
        return m, None if gradients is None else math.fsum(gradients) / self.n

    def component_oracles(self) -> tuple[ComponentOracle, ...]:
        """One ComponentOracle per row, its oracles the row oracles over that row."""
        gens = self.generators
        return tuple(
            ComponentOracle(partial(self.value, *row), partial(self.direction, *row), gens and partial(gens, *row))
            for row in self.rows()
        )

    def problem(self) -> FiniteSumProblem:
        return FiniteSumProblem(self)


class KindComponents(Sequence):
    """A zoo kind's n ComponentOracles, read-only: built on first use, all at
    once (``ZooKind.component_oracles``), and kept."""

    def __init__(self, kind: ZooKind):
        self.kind = kind
        self._oracles: Optional[tuple] = None

    def _built(self) -> tuple:
        if self._oracles is None:
            self._oracles = self.kind.component_oracles()
        return self._oracles

    def __len__(self) -> int:
        return self.kind.n

    def __getitem__(self, i):
        return self._built()[i]

    def __iter__(self):
        return iter(self._built())


def _labelled(M, v) -> np.ndarray:
    """The data matrix [M, v]: the rows of M, each with its number v_i appended."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.shape != (len(M),):
        raise ValueError(f"{len(v)} labels, targets or offsets for {len(M)} data rows")
    return np.column_stack([M, v])


class _Labelled(ZooKind):
    """Data rows [a_i, v_i], a vector and one number.

    A and v are contiguous copies, so a_i.dot(x) is one BLAS ddot with the
    bits of a_i @ x; a point x of negative stride would change those bits.
    """

    def __init__(self, data, seed=None):
        super().__init__(data, seed)
        self.A = np.ascontiguousarray(self.data[:, :-1])
        self.v = np.ascontiguousarray(self.data[:, -1])
        self.sq = [float(a.dot(a)) for a in self.A]  # ||a_i||^2, the bits of a @ a
        self.norms = np.sqrt(self.sq)

    def rows(self):
        return zip(self.A, self.v.tolist())

    def _products(self, X) -> np.ndarray:
        # (m, n) of a_i @ x for each row x of X: a stack of m BLAS gemv
        # calls, each the bits of A @ x (X @ A.T is one gemm, with other bits)
        return (self.A[None] @ X[:, :, None])[:, :, 0]

    def _combine(self, C) -> np.ndarray:
        # (m, p) of c @ A / n for each row c of C, one BLAS gemv per row like c @ A
        return (C[:, None, :] @ self.A[None])[:, 0, :] / self.n

    def _row_products(self, x, rows) -> list:
        # a_i @ x of the rows as Python floats, x a point or one point per
        # row: a stack of BLAS ddot calls, each the bits of the row
        # oracles' a_i.dot(x)
        return (self.A[rows, None, :] @ x.reshape(-1, self.p)[:, :, None])[:, 0, 0].tolist()


class Logistic(_Labelled):
    """Binary logistic loss f_i(x) = log(1 + exp(-b_i <a_i, x>)), b_i in {-1,+1}.

    Data row i is [a_i, b_i].  Exact constants: M_i = ||a_i||, L_i = ||a_i||^2 / 4.
    """

    KIND = "logistic"

    def __init__(self, data, seed=None):
        super().__init__(data, seed)
        if not np.all(np.abs(self.v) == 1.0):
            raise ValueError("labels must be +-1")
        self.lipschitz_values = self.norms.tolist()
        self.lipschitz_gradients = [q / 4.0 for q in self.sq]

    @staticmethod
    def draw(n, p, rng) -> np.ndarray:
        return np.column_stack([rng.standard_normal((n, p)), np.where(rng.random(n) < 0.5, -1.0, 1.0)])

    @staticmethod
    def value(a, b, x) -> float:
        return float(np.logaddexp(0.0, -b * float(a.dot(x))))

    @staticmethod
    def direction(a, b, x) -> np.ndarray:
        t = -b * float(a.dot(x))  # -b expit(t) a, with _expit's two branches inlined
        s = 1.0 / (1.0 + math.exp(-t)) if t >= 0.0 else (e := math.exp(t)) / (1.0 + e)
        return (-b * s) * a

    def row_directions(self, x, rows=slice(None)) -> np.ndarray:
        coef = [-b * _expit(-b * t) for b, t in zip(self.v[rows].tolist(), self._row_products(x, rows))]
        return np.array(coef)[:, None] * self.A[rows]

    def full_values(self, X) -> np.ndarray:
        return np.mean(np.logaddexp(0.0, -self.v * self._products(X)), axis=1)

    def full_directions(self, X) -> np.ndarray:
        # exp overflows to inf where the coefficient saturates to 0
        with np.errstate(over="ignore"):
            coef = -self.v / (1.0 + np.exp(self.v * self._products(X)))
        return self._combine(coef)

    def direction_norms(self, x) -> np.ndarray:
        # ||d_i(x)|| = expit(-b_i <a_i, x>) ||a_i||
        return _expit_rows(-self.v * (self.A @ x)) * self.norms


class Sigmoid(_Labelled):
    """Nonconvex smooth components f_i(x) = sigma(<a_i, x> - c_i).

    Data row i is [a_i, c_i].  Exact constants: M_i = ||a_i||/4,
    L_i = ||a_i||^2 / (6 sqrt 3).
    """

    KIND = "sigmoid_nonconvex"

    def __init__(self, data, seed=None):
        super().__init__(data, seed)
        self.lipschitz_values = (self.norms / 4.0).tolist()
        self.lipschitz_gradients = [q * _SIGMOID_HESS_BOUND for q in self.sq]

    @staticmethod
    def draw(n, p, rng) -> np.ndarray:
        return np.column_stack([rng.standard_normal((n, p)), rng.standard_normal(n)])

    @staticmethod
    def value(a, c, x) -> float:
        return _expit(float(a.dot(x)) - c)

    @staticmethod
    def direction(a, c, x) -> np.ndarray:
        t = float(a.dot(x)) - c  # s (1 - s) a, s = expit(t) with _expit's two branches inlined
        s = 1.0 / (1.0 + math.exp(-t)) if t >= 0.0 else (e := math.exp(t)) / (1.0 + e)
        return (s * (1.0 - s)) * a

    def row_directions(self, x, rows=slice(None)) -> np.ndarray:
        s = [_expit(t - c) for c, t in zip(self.v[rows].tolist(), self._row_products(x, rows))]
        return np.array([q * (1.0 - q) for q in s])[:, None] * self.A[rows]

    # exp overflows to inf where the sigmoid saturates to 0
    def full_values(self, X) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.mean(1.0 / (1.0 + np.exp(-(self._products(X) - self.v))), axis=1)

    def full_directions(self, X) -> np.ndarray:
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-(self._products(X) - self.v)))
        return self._combine(s * (1.0 - s))

    def direction_norms(self, x) -> np.ndarray:
        # ||d_i(x)|| = s (1 - s) ||a_i||, s = expit(<a_i, x> - c_i)
        s = _expit_rows(self.A @ x - self.v)
        return (s * (1.0 - s)) * self.norms


class Median(ZooKind):
    """Nonsmooth components f_i(x) = ||x - b_i||_inf (|x - b_i| when p = 1).

    Data row i is b_i.  M_i = 1 exactly.  Directions pick the first
    maximizing coordinate with sign(0) = 0.  Generators are the extreme
    points of the generalized derivative: {sign * e_j} over maximizing
    coordinates, the full {+-e_j} set at x = b_i.  For p = 1 the minimizer
    is the sample median, recorded as known_solution.
    """

    KIND = "median"
    LABELS = 0

    def __init__(self, data, seed=None):
        super().__init__(data, seed)
        self.lipschitz_values = [1.0] * self.n
        if self.p == 1:
            self.known_solution = float(np.median(self.data[:, 0]))

    @staticmethod
    def draw(n, p, rng) -> np.ndarray:
        return rng.standard_normal((n, p))

    @staticmethod
    def value(b, x) -> float:
        return float(np.max(np.abs(x - b)))

    @staticmethod
    def direction(b, x) -> np.ndarray:
        dev = x - b
        j = int(np.argmax(np.abs(dev)))
        d = np.zeros(len(b))
        d[j] = np.sign(dev[j])
        return d

    @staticmethod
    def generators(b, x) -> list:
        dev = x - b
        top = np.flatnonzero(np.abs(dev) == np.abs(dev).max())  # the maximizing coordinates
        if dev.any():
            pairs = [(j, np.sign(dev[j])) for j in top]
        else:  # at x = b_i every coordinate maximizes, and every +-e_j is a generator
            pairs = [(j, s) for j in top for s in (-1.0, 1.0)]
        return [np.where(np.arange(len(b)) == j, s, 0.0) for j, s in pairs]

    def row_directions(self, x, rows=slice(None)) -> np.ndarray:
        # sign(x - b_i) at the first maximizing coordinate of each row, as
        # the row oracle: argmax along a row is the argmax of that row alone
        dev = x - self.data[rows]
        j = np.argmax(np.abs(dev), axis=1)
        D = np.zeros(dev.shape)
        r = np.arange(len(dev))
        D[r, j] = np.sign(dev[r, j])
        return D

    def full_values(self, X) -> np.ndarray:
        return np.mean(np.max(np.abs(X[:, None, :] - self.data), axis=2), axis=1)

    def _signs(self, X):
        # (m, n) of each component's sign of its first maximizing deviation, and its coordinate
        dev = X[:, None, :] - self.data
        j = np.argmax(np.abs(dev), axis=2)
        return np.sign(np.take_along_axis(dev, j[..., None], axis=2)[..., 0]), j

    def full_directions(self, X) -> np.ndarray:
        s, j = self._signs(X)
        acc = np.zeros((len(X), self.p))
        np.add.at(acc, (np.arange(len(X))[:, None], j), s)
        return acc / self.n

    def direction_norms(self, x) -> np.ndarray:
        return np.abs(self._signs(x[None])[0][0])


class ReluNet(_Labelled):
    """Absolute-error loss of a two-layer scalar-output ReLU network.

    Parameters are theta = (W1, b1, w2, b2) flattened; f_i(theta) =
    |w2^T relu(W1 x_i + b1) + b2 - y_i|, and data row i is [x_i, y_i].
    Directions are reverse-mode selections with relu'(0) = 0 and sign(0) =
    0.  M_i is a valid bound on the box ||theta||_inf <= box_radius only;
    runs should monitor box exit.  No generators.  The full oracles are
    ZooKind's exact per-row sums over the row kernels ``row_values`` and
    ``row_directions``, which keep both selections bit for bit.
    """

    KIND = "relu_net"
    SCALARS = ("hidden", "box_radius")
    HIDDEN = 8
    generators = None

    def __init__(self, data, seed=None, hidden=HIDDEN, box_radius=2.0):
        if not (1 <= hidden <= 16):
            raise ValueError("hidden must be in [1, 16]")
        super().__init__(data, seed)
        self.hidden, self.box_radius = h, r = int(hidden), float(box_radius)
        self.lipschitz_values = [
            math.sqrt(
                h * r**2 * (l1 + 1.0) ** 2  # dL/dw2 via activations
                + 1.0  # dL/db2
                + h * r**2 * sq  # dL/dW1
                + h * r**2  # dL/db1
            )
            for l1, sq in zip(np.abs(self.A).sum(axis=1).tolist(), self.sq)  # ||x_i||_1
        ]

    @property
    def p(self) -> int:
        return self.hidden * self.A.shape[1] + 2 * self.hidden + 1

    @classmethod
    def columns(cls, doc: dict) -> int:
        # p = hidden * p_in + 2 hidden + 1 and a row is [x_i, y_i]
        p, h = doc["p"], doc["hidden"]
        if (p - 1) % h or p < 2 * h + 1:
            raise ValueError(f"'problem.p' must be hidden * p_in + 2 * hidden + 1, got {p} for hidden {h}")
        return (p - 1) // h - 1

    @classmethod
    def draw(cls, n, p, rng) -> np.ndarray:
        h = cls.HIDDEN
        X = rng.standard_normal((n, p))
        teacher = rng.uniform(-1.0, 1.0, size=h * p + 2 * h + 1)
        pre = X @ teacher[: h * p].reshape(h, p).T + teacher[h * p : h * p + h]
        y = np.maximum(pre, 0.0) @ teacher[h * p + h : h * p + 2 * h] + teacher[-1]
        return np.column_stack([X, y])

    def _params(self, theta):
        # theta = (W1, b1, w2, b2) flattened; a stack (m, p) of them gives
        # W1 of shape (m, hidden, p_in) and the others one row each
        h, k = self.hidden, self.hidden * self.A.shape[1]
        W1 = theta[..., :k].reshape(theta.shape[:-1] + (h, -1))
        return W1, theta[..., k : k + h], theta[..., k + h : k + 2 * h], theta[..., -1]

    def _forward(self, xi, theta):
        # the pre-activations W1 x_i + b1, w2 and b2
        W1, b1, w2, b2 = self._params(theta)
        return W1 @ xi + b1, w2, b2

    def value(self, xi, yi, theta) -> float:
        pre, w2, b2 = self._forward(xi, theta)
        return abs(float(w2 @ np.maximum(pre, 0.0) + b2) - yi)

    def direction(self, xi, yi, theta) -> np.ndarray:
        pre, w2, b2 = self._forward(xi, theta)
        act = np.maximum(pre, 0.0)
        s = float(np.sign(w2 @ act + b2 - yi))
        gw2 = w2 * (pre > 0.0).astype(float)
        return s * np.concatenate([(gw2[:, None] * xi).ravel(), gw2, act, [1.0]])

    def _row_forward(self, theta, rows):
        # the pre-activations (m, hidden), activations, residuals and w2 of
        # the rows, at one theta or one per row: stacks of one BLAS gemv
        # (W1 x_i) and one ddot (act_i . w2) per row, the bits of the row
        # oracles' W1 @ x_i and w2 @ act
        W1, b1, w2, b2 = self._params(theta)
        pre = (W1 @ self.A[rows, :, None])[:, :, 0] + b1
        act = np.maximum(pre, 0.0)
        return pre, act, (act[:, None, :] @ w2[..., :, None])[:, 0, 0] + b2 - self.v[rows], w2

    def row_values(self, theta, rows=slice(None)) -> np.ndarray:
        return np.abs(self._row_forward(theta, rows)[2])

    def row_directions(self, theta, rows=slice(None)) -> np.ndarray:
        h, k = self.hidden, self.hidden * self.A.shape[1]
        pre, act, residual, w2 = self._row_forward(theta, rows)
        gw2 = w2 * (pre > 0.0)
        m = len(pre)
        D = np.empty((m, self.p))
        D[:, :k] = (gw2[:, :, None] * self.A[rows, None, :]).reshape(m, k)
        D[:, k : k + h], D[:, k + h : k + 2 * h], D[:, -1] = gw2, act, 1.0
        D *= np.sign(residual)[:, None]
        return D


ZOO_KINDS = {cls.KIND: cls for cls in (Logistic, Sigmoid, Median, ReluNet)}
PROBLEM_KINDS = tuple(ZOO_KINDS)


def logistic_problem(A, b, *, seed=None) -> FiniteSumProblem:
    return Logistic(_labelled(A, b), seed).problem()


def median_problem(B, *, seed=None) -> FiniteSumProblem:
    return Median(np.asarray(B, dtype=float).reshape(len(B), -1), seed).problem()


def make_problem(kind: str, n: int, p: int, seed: int) -> FiniteSumProblem:
    """Seed-deterministic instance of one of the built-in problem kinds.

    For relu_net, ``p`` is the network input dimension; the optimization
    dimension is the derived parameter count.
    """
    if kind not in ZOO_KINDS or n < 1 or p < 1:
        raise ValueError(f"make_problem takes a kind of {PROBLEM_KINDS} and n, p >= 1, got {kind!r}, {n}, {p}")
    cls = ZOO_KINDS[kind]
    return cls(cls.draw(n, p, np.random.default_rng(seed)), seed).problem()


# ---------------------------------------------------------------------------
# serialization (zoo problems only): a JSON document and the data matrix
# ---------------------------------------------------------------------------


def problem_to_dict(problem: FiniteSumProblem) -> dict:
    """Kind, n, p, seed and the kind's SCALARS of a problem of ``ZOO_KINDS``; its data is ``problem.kind.data``."""
    kind = problem.kind
    if ZOO_KINDS.get(kind.KIND) is not type(kind):
        raise UnsupportedProblem(f"only the kinds {PROBLEM_KINDS} are serializable, not {type(kind).__name__}")
    scalars = {name: getattr(kind, name) for name in kind.SCALARS}
    return {"kind": kind.KIND, "n": problem.n, "p": problem.p, "seed": kind.seed, **scalars}


def data_shape(doc: dict) -> tuple:
    """(n, columns) of the data matrix of a problem_to_dict document."""
    return doc["n"], ZOO_KINDS[doc["kind"]].columns(doc)


def problem_from_dict(doc: dict, data: np.ndarray) -> FiniteSumProblem:
    """Inverse of problem_to_dict, over the data matrix of shape data_shape(doc)."""
    cls = ZOO_KINDS[doc["kind"]]
    return cls(data, doc.get("seed"), **{name: doc[name] for name in cls.SCALARS}).problem()
