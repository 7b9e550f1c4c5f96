import math

import hypothesis
import numpy as np
import pytest

import wrdescent as wd
from wrdescent.analysis import EXACT_RTOL, INEQ_RTOL, MarginReport, _report, _require_smooth
from wrdescent.problems import FiniteSumProblem, UnsupportedProblem, ZooKind

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("default")

_criterion_lines = []


def record_criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    _criterion_lines.append(f"[{status}] {name}" + (f": {detail}" if detail else ""))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)


@pytest.fixture
def reporter():
    return record_criterion


STANDARD_SEED = 2024


class FormulaKind(ZooKind):
    """n copies of one component on R^p given by formulas of x: a zoo kind
    outside ZOO_KINDS, so its problems run, check and report but do not
    serialize.  Its data matrix is n rows of p zeros, which the formulas
    ignore.  Without ``generators`` the components expose none; with it,
    each one's one generator is its direction."""

    KIND = "formula"
    LABELS = 0

    def __init__(self, n, p, value, direction, M, L=None, generators=False, f_star_lower=None, box_radius=None):
        super().__init__(np.zeros((n, p)))
        self.formulas = value, direction
        self.lipschitz_values = [M] * n
        self.lipschitz_gradients = None if L is None else [L] * n
        if not generators:
            self.generators = None
        self.f_star_lower, self.box_radius = f_star_lower, box_radius

    def value(self, row, x):
        return self.formulas[0](x)

    def direction(self, row, x):
        return self.formulas[1](x)

    def _points(self, x, rows):
        # x itself for each row of the slice, or the rows of a stack
        return [x] * len(range(self.n)[rows]) if np.ndim(x) == 1 else list(x)

    def row_values(self, x, rows=slice(None)):
        return np.array([self.formulas[0](z) for z in self._points(x, rows)], dtype=float)

    def row_directions(self, x, rows=slice(None)):
        return np.array([self.formulas[1](z) for z in self._points(x, rows)], dtype=float).reshape(-1, self.p)


def formula_problem(n, p, value, direction, M, L=None, **kwargs):
    """The FiniteSumProblem of a FormulaKind."""
    return FormulaKind(n, p, value, direction, M, L, **kwargs).problem()


@pytest.fixture(scope="session")
def logistic32():
    """The standard seeded logistic instance used across certificates."""
    return wd.make_problem("logistic", 32, 5, STANDARD_SEED)


def make_run(
    problem,
    strategy,
    eval_policy=None,
    perm_policy=None,
    epochs=20,
    record_level="full",
    x0=None,
    track_objective=True,
):
    cfg = wd.RunConfig(
        problem=problem,
        strategy=strategy,
        eval_policy=eval_policy or wd.Incremental(),
        perm_policy=perm_policy or wd.Identity(),
        x0=np.zeros(problem.p) if x0 is None else x0,
        epochs=epochs,
        record_level=record_level,
        track_objective=track_objective,
    )
    return wd.run(cfg)


@pytest.fixture
def run_factory():
    return make_run


@pytest.fixture
def built(monkeypatch):
    """A list that grows by one per ComponentOracle constructed."""
    made = []
    init = wd.ComponentOracle.__init__
    monkeypatch.setattr(wd.ComponentOracle, "__init__", lambda *args, **kw: made.append(1) or init(*args, **kw))
    return made


def decode_payload(payload: bytes, dtype: str = "<f8") -> np.ndarray:
    """The array a trace section's payload holds, flat and writable."""
    return np.frombuffer(payload, dtype).copy()


def encode_payload(array: np.ndarray) -> bytes:
    return np.ascontiguousarray(array).tobytes()


def section_spans(blob: bytes) -> dict:
    """{section name: (start of its line, start of its payload, end of its payload)} of a trace file's bytes."""
    spans = {}
    pos = blob.index(b"\n") + 1
    while pos < len(blob):
        end = blob.index(b"\n", pos)
        name, count = blob[pos:end].decode().split(" ")
        spans[name] = (pos, end + 1, end + 1 + int(count))
        pos = end + 2 + int(count)
    return spans


def section_payload(blob: bytes, section: str) -> bytes:
    """The payload of a section of a trace file's bytes."""
    _, start, stop = section_spans(blob)[section]
    return blob[start:stop]


def with_payload(blob: bytes, section: str, payload: bytes) -> bytes:
    """A trace file's bytes with the payload of ``section``, and its byte count, replaced."""
    line, _, stop = section_spans(blob)[section]
    return blob[:line] + f"{section} {len(payload)}\n".encode() + payload + blob[stop:]


# ---------------------------------------------------------------------------
# elementary lemmas and oracle fidelity: checks of the mathematics and of
# the oracles, not of a record
# ---------------------------------------------------------------------------


def lemma_norm_sum_check(vectors) -> MarginReport:
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
    return _report("lemma_norm_sum", lhs, rhs, EXACT_RTOL, denom)


def lemma_log_sum_check(a, b: float, c: float) -> MarginReport:
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
    return _report("lemma_log_sum", lhs, rhs, INEQ_RTOL, 1.0 + abs(rhs))


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
