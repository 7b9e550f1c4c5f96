"""Epoch-by-epoch executor for the without-replacement descent recursion.

One epoch K starting from x_K performs, for i = 1..n in the permuted order,

    zhat_{K,i-1} = hull point of (z_{K,0..i-1}) chosen by the policy
    z_{K,i}      = z_{K,i-1} - alpha_{K,i} * d_{pi_K(i)}(zhat_{K,i-1})

and sets x_{K+1} = z_{K,n}.  Step-size bookkeeping is positional (indexed by
i); the permutation only selects which oracle is called.  Everything needed
to replay or certify a run is recorded:

  * record_level="full": every inner step (weights, zhat, d, alpha, z, v);
  * record_level="epoch_only": iterates and per-epoch summaries only.

Runs are deterministic functions of their configuration (all randomness is
counter-based off explicit seeds).  A non-finite value aborts the run with
the offending (K, i); completed epochs are retained.  The engine also
monitors ||x_K||_inf against an optional radius and flags the first
excursion (constants of box-local problems are only valid inside the box).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .problems import FiniteSumProblem, problem_from_dict, problem_to_dict
from .schedules import (
    EVAL_POLICIES,
    PERM_POLICIES,
    EvalPointPolicy,
    PermutationPolicy,
    eval_point,
    eval_support,
    hull_point,
    permutation,
)
from .steps import STRATEGIES, StepStrategy, StepState, is_adaptive, new_state, step_value

TRACE_FORMAT = "wrdescent-trace/1"


class NonFiniteError(RuntimeError):
    """Overflow or NaN produced by the recursion at inner step (K, i)."""

    def __init__(self, K: int, i: int):
        super().__init__(f"non-finite value at epoch {K}, inner step {i}")
        self.K = K
        self.i = i


@dataclass
class RunConfig:
    problem: FiniteSumProblem
    strategy: StepStrategy
    eval_policy: EvalPointPolicy
    perm_policy: PermutationPolicy
    x0: np.ndarray
    epochs: int
    record_level: str = "full"
    monitor_radius: Optional[float] = None
    track_objective: bool = True  # False skips the F / grad-norm series

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if self.x0.shape != (self.problem.p,):
            raise ValueError("x0 dimension does not match the problem")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.record_level not in ("full", "epoch_only"):
            raise ValueError("record_level must be 'full' or 'epoch_only'")
        if self.strategy.n != self.problem.n:
            raise ValueError("strategy n does not match the problem")
        if self.monitor_radius is None and self.problem.box_radius is not None:
            self.monitor_radius = self.problem.box_radius


@dataclass(slots=True)
class InnerRecord:
    index: int  # component queried (0-based)
    weights: np.ndarray  # hull weights over z_{K,0..i-1}
    zhat: np.ndarray
    d: np.ndarray
    dnorm2: float
    alpha: float
    z: np.ndarray  # z_{K,i}
    v: float  # adaptive accumulator after the update; nan otherwise


@dataclass(slots=True)
class EpochRecord:
    K: int
    x_start: np.ndarray
    inner: list  # InnerRecord list; empty at epoch_only level
    x_next: np.ndarray
    f_next: float
    grad_sq_start: float
    alpha_first: float
    alpha_last: float
    alpha_sum: float
    v_end: float


@dataclass
class RunTrace:
    """Complete recorded history of one run.

    Series are aligned as: xs / f_vals / grad_sq have one entry per iterate
    x_0..x_N, the per-epoch arrays one entry per completed epoch.  When the
    run aborted, series cover the completed prefix.
    """

    config: RunConfig
    records: list
    xs: list
    f_vals: np.ndarray
    grad_sq: np.ndarray
    alpha_first: np.ndarray
    alpha_last: np.ndarray
    alpha_sum: np.ndarray
    v_end: np.ndarray
    aborted_at: Optional[tuple] = None
    bound_exceeded_at: Optional[int] = None

    @property
    def epochs_completed(self) -> int:
        return len(self.records)

    @property
    def problem(self) -> FiniteSumProblem:
        return self.config.problem

    def epoch_anchor(self, K: int) -> float:
        """alpha_K convention used by the per-epoch inequality checks."""
        if K < 0 or K > self.epochs_completed:
            raise ValueError("epoch index out of range")
        if K == 0:
            if is_adaptive(self.config.strategy):
                return self.config.strategy.delta ** (-1.0 / 3.0)
            return float(self.alpha_first[0])
        return float(self.alpha_last[K - 1])

    def alphas_of_epoch(self, K: int) -> np.ndarray:
        rec = self.records[K]
        if not rec.inner:
            raise ValueError("inner records unavailable at epoch_only level")
        return np.array([r.alpha for r in rec.inner])

    def running_min_grad_sq(self) -> np.ndarray:
        return np.minimum.accumulate(self.grad_sq)


def run_epoch(
    problem: FiniteSumProblem,
    strategy: StepStrategy,
    state: StepState,
    eval_policy: EvalPointPolicy,
    perm_policy: PermutationPolicy,
    x: np.ndarray,
    K: int,
    record_level: str = "full",
    *,
    grad_sq_start: Optional[float] = None,
    track_objective: bool = True,
) -> tuple[np.ndarray, EpochRecord]:
    """One epoch of the recursion; returns (x_{K+1}, record).

    ``state`` must be consistent with epochs 0..K-1 and is advanced in
    place.  Raises NonFiniteError on overflow/NaN at the offending step.
    """
    n = problem.n
    comps = problem.components
    full = record_level == "full"
    adaptive = is_adaptive(strategy)

    probe = None
    if perm_policy.needs_probe:
        probe = np.array([math.sqrt(float(d @ d)) for d in (c.direction(x) for c in comps)])
    perm = permutation(perm_policy, K, n, probe=probe)

    zs = [x]
    inner: list = []
    z = x
    alpha_first = alpha_last = math.nan
    alpha_acc = 0.0
    for i in range(1, n + 1):
        j = eval_support(eval_policy, K, i)
        if j is None:
            w = eval_point(eval_policy, K, i)
            zhat = hull_point(w, zs)
        else:
            w = None
            zhat = zs[j]
        idx = int(perm[i - 1])
        d = comps[idx].direction(zhat)
        dnorm2 = float(d @ d)
        if not math.isfinite(dnorm2):
            raise NonFiniteError(K, i)
        alpha = step_value(strategy, state, K, i, dnorm2)
        z = z - alpha * d
        if not math.isfinite(float(z.sum())):
            raise NonFiniteError(K, i)
        zs.append(z)
        if i == 1:
            alpha_first = alpha
        alpha_last = alpha
        alpha_acc += alpha
        if full:
            if w is None:
                w = np.zeros(i)
                w[j] = 1.0
            inner.append(
                InnerRecord(
                    index=idx,
                    weights=w,
                    zhat=zhat.copy(),
                    d=d,
                    dnorm2=dnorm2,
                    alpha=alpha,
                    z=z,
                    v=state.v if adaptive else math.nan,
                )
            )

    if track_objective:
        f_next = problem.full_value(z)
        if grad_sq_start is None:
            g = problem.full_direction(x)
            grad_sq_start = float(g @ g)
    else:
        f_next = math.nan
        grad_sq_start = math.nan if grad_sq_start is None else grad_sq_start

    record = EpochRecord(
        K=K,
        x_start=x,
        inner=inner,
        x_next=z,
        f_next=f_next,
        grad_sq_start=grad_sq_start,
        alpha_first=alpha_first,
        alpha_last=alpha_last,
        alpha_sum=alpha_acc,
        v_end=state.v if adaptive else math.nan,
    )
    return z, record


def run(config: RunConfig) -> RunTrace:
    """Execute the configured number of epochs; deterministic in the config.

    On a non-finite abort the partial trace (completed epochs) is returned
    with ``aborted_at`` set to the offending (K, i).
    """
    problem = config.problem
    state = new_state(config.strategy)
    x = config.x0.copy()
    xs = [x]
    track = config.track_objective
    if track:
        g = problem.full_direction(x)
        f_list = [problem.full_value(x)]
        g_list = [float(g @ g)]
    else:
        f_list = [math.nan]
        g_list = [math.nan]
    records: list = []
    aborted = None
    bound_k = None
    radius = config.monitor_radius
    if radius is not None and float(np.max(np.abs(x))) > radius:
        bound_k = 0

    for K in range(config.epochs):
        try:
            x, rec = run_epoch(
                problem,
                config.strategy,
                state,
                config.eval_policy,
                config.perm_policy,
                x,
                K,
                config.record_level,
                grad_sq_start=g_list[-1],
                track_objective=track,
            )
        except NonFiniteError as err:
            aborted = (err.K, err.i)
            break
        records.append(rec)
        xs.append(x)
        f_list.append(rec.f_next)
        if track:
            g = problem.full_direction(x)
            g_list.append(float(g @ g))
        else:
            g_list.append(math.nan)
        if radius is not None and bound_k is None:
            if float(np.max(np.abs(x))) > radius:
                bound_k = K + 1

    return RunTrace(
        config=config,
        records=records,
        xs=xs,
        f_vals=np.array(f_list),
        grad_sq=np.array(g_list),
        alpha_first=np.array([r.alpha_first for r in records]),
        alpha_last=np.array([r.alpha_last for r in records]),
        alpha_sum=np.array([r.alpha_sum for r in records]),
        v_end=np.array([r.v_end for r in records]),
        aborted_at=aborted,
        bound_exceeded_at=bound_k,
    )


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayReport:
    ok: bool
    first_mismatch: Optional[tuple] = None  # (K, i, field)

    def __bool__(self) -> bool:
        return self.ok


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(a == b))


def replay(trace: RunTrace) -> ReplayReport:
    """Recompute every stored quantity from the config; bitwise comparison.

    Requires a full-record trace.  The first mismatching (K, i, field) is
    reported, which localizes trace corruption.
    """
    if trace.config.record_level != "full":
        raise ValueError("replay needs a full-record trace")
    config = trace.config
    problem = config.problem
    state = new_state(config.strategy)
    x = config.x0.copy()
    for K, stored in enumerate(trace.records):
        if not _same_array(x, stored.x_start):
            return ReplayReport(False, (K, 0, "x_start"))
        x, rec = run_epoch(
            problem,
            config.strategy,
            state,
            config.eval_policy,
            config.perm_policy,
            x,
            K,
            "full",
            grad_sq_start=stored.grad_sq_start,
            track_objective=False,
        )
        for i, (new, old) in enumerate(zip(rec.inner, stored.inner), start=1):
            if new.index != old.index:
                return ReplayReport(False, (K, i, "index"))
            if not _same_array(new.weights, old.weights):
                return ReplayReport(False, (K, i, "weights"))
            if not _same_array(new.zhat, old.zhat):
                return ReplayReport(False, (K, i, "zhat"))
            if not _same_array(new.d, old.d):
                return ReplayReport(False, (K, i, "d"))
            if new.dnorm2 != old.dnorm2:
                return ReplayReport(False, (K, i, "dnorm2"))
            if new.alpha != old.alpha:
                return ReplayReport(False, (K, i, "alpha"))
            if not _same_array(new.z, old.z):
                return ReplayReport(False, (K, i, "z"))
            if not (new.v == old.v or (math.isnan(new.v) and math.isnan(old.v))):
                return ReplayReport(False, (K, i, "v"))
        if not _same_array(x, stored.x_next):
            return ReplayReport(False, (K, problem.n, "x_next"))
    return ReplayReport(True)


# ---------------------------------------------------------------------------
# trace file IO: one JSON header line, then CSV blocks
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_vec(v: np.ndarray) -> str:
    return ";".join(repr(float(c)) for c in v)


def _parse_vec(s: str) -> np.ndarray:
    if s == "":
        return np.zeros(0)
    return np.array([float(c) for c in s.split(";")])


# RunConfig fields stored as {"variant": VARIANT, **fields}, with their {VARIANT: class} tables
VARIANT_SECTIONS = {
    "strategy": STRATEGIES,
    "eval_policy": EVAL_POLICIES,
    "perm_policy": PERM_POLICIES,
}


def variant_to_dict(obj) -> dict:
    """{"variant": VARIANT, **fields} of a step strategy or schedule policy."""
    return {"variant": obj.VARIANT, **{f.name: getattr(obj, f.name) for f in fields(obj)}}


def variant_from_dict(doc: dict, table: dict, read=None):
    """Inverse of variant_to_dict through a {VARIANT: class} table.

    ``read(field, doc)`` supplies each field's value (default
    ``doc[field.name]``); keys that are not fields of the class are ignored.
    """
    cls = table.get(doc.get("variant"))
    if cls is None:
        raise ValueError(f"unknown variant {doc.get('variant')!r}")
    return cls(**{f.name: read(f, doc) if read else doc[f.name] for f in fields(cls)})


def config_to_dict(config: RunConfig) -> dict:
    return {
        "problem": problem_to_dict(config.problem),
        **{key: variant_to_dict(getattr(config, key)) for key in VARIANT_SECTIONS},
        "x0": [float(c) for c in config.x0],
        "epochs": config.epochs,
        "record_level": config.record_level,
        "monitor_radius": config.monitor_radius,
        "track_objective": config.track_objective,
    }


def config_from_dict(doc: dict) -> RunConfig:
    return RunConfig(
        problem=problem_from_dict(doc["problem"]),
        **{key: variant_from_dict(doc[key], table) for key, table in VARIANT_SECTIONS.items()},
        x0=np.array(doc["x0"], dtype=float),
        epochs=doc["epochs"],
        record_level=doc["record_level"],
        monitor_radius=doc.get("monitor_radius"),
        track_objective=doc.get("track_objective", True),
    )


def save_trace(trace: RunTrace, path) -> None:
    header = {
        "format": TRACE_FORMAT,
        "config": config_to_dict(trace.config),
        "aborted_at": list(trace.aborted_at) if trace.aborted_at else None,
        "bound_exceeded_at": trace.bound_exceeded_at,
    }
    p = trace.problem.p
    lines = [json.dumps(header)]
    lines.append("#NODES")
    lines.append("K," + ",".join(f"x{k}" for k in range(p)) + ",f,grad_sq")
    for K, x in enumerate(trace.xs):
        lines.append(
            f"{K},"
            + ",".join(_fmt(c) for c in x)
            + f",{_fmt(trace.f_vals[K])},{_fmt(trace.grad_sq[K])}"
        )
    lines.append("#EPOCHS")
    lines.append("K,alpha_first,alpha_last,alpha_sum,v_end")
    for K in range(trace.epochs_completed):
        lines.append(
            f"{K},{_fmt(trace.alpha_first[K])},{_fmt(trace.alpha_last[K])},"
            f"{_fmt(trace.alpha_sum[K])},{_fmt(trace.v_end[K])}"
        )
    if trace.config.record_level == "full":
        for rec in trace.records:
            lines.append(f"#INNER {rec.K}")
            lines.append("i,index,alpha,dnorm2,v,weights,zhat,d,z")
            for i, r in enumerate(rec.inner, start=1):
                lines.append(
                    f"{i},{r.index},{_fmt(r.alpha)},{_fmt(r.dnorm2)},{_fmt(r.v)},"
                    f"{_fmt_vec(r.weights)},{_fmt_vec(r.zhat)},{_fmt_vec(r.d)},{_fmt_vec(r.z)}"
                )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _section_rows(sections: dict, name: str, count: int) -> list:
    """The data rows of a trace section, which must hold ``count`` of them."""
    if name not in sections:
        raise ValueError(f"{name}: section missing")
    rows = sections[name][1:]
    if len(rows) != count:
        what = "missing" if len(rows) < count else "unexpected"
        raise ValueError(
            f"{name} row {min(len(rows), count) + 1}: {what}, the header implies {count} rows"
        )
    return rows


def load_trace(path) -> RunTrace:
    """Read a trace file; a truncated or malformed one raises ValueError.

    Row counts follow from the header: epochs + 1 #NODES rows, one #EPOCHS
    row per completed epoch and, at full level, n rows per #INNER block.
    Errors name the section and the row, counted from 1 after the column
    header.
    """
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty trace file")
    header = json.loads(lines[0])
    if header.get("format") != TRACE_FORMAT:
        raise ValueError(f"not a {TRACE_FORMAT} file")
    config = config_from_dict(header["config"])
    aborted = tuple(header["aborted_at"]) if header["aborted_at"] else None
    epochs = aborted[0] if aborted else config.epochs
    n, p = config.problem.n, config.problem.p

    sections: dict = {}
    current = None
    for line in lines[1:]:
        if line.startswith("#"):
            current = line
            sections[current] = []
        elif line:
            sections[current].append(line)

    full = config.record_level == "full"
    nodes = _section_rows(sections, "#NODES", epochs + 1)
    epoch_rows = _section_rows(sections, "#EPOCHS", epochs)
    blocks = [_section_rows(sections, f"#INNER {K}", n) if full else [] for K in range(epochs)]

    section, r = "#NODES", 0
    try:
        xs, f_list, g_list = [], [], []
        for r, row in enumerate(nodes, start=1):
            parts = row.split(",")
            if len(parts) != p + 3:
                raise ValueError(f"{len(parts)} columns, expected {p + 3}")
            xs.append(np.array([float(c) for c in parts[1 : 1 + p]]))
            f_list.append(float(parts[1 + p]))
            g_list.append(float(parts[2 + p]))

        section = "#EPOCHS"
        af, al, asum, vend = [], [], [], []
        for r, row in enumerate(epoch_rows, start=1):
            parts = row.split(",")
            if len(parts) != 5:
                raise ValueError(f"{len(parts)} columns, expected 5")
            af.append(float(parts[1]))
            al.append(float(parts[2]))
            asum.append(float(parts[3]))
            vend.append(float(parts[4]))

        records = []
        for K, block in enumerate(blocks):
            section = f"#INNER {K}"
            inner = []
            for r, row in enumerate(block, start=1):
                parts = row.split(",")
                if len(parts) != 9:
                    raise ValueError(f"{len(parts)} columns, expected 9")
                rec = InnerRecord(
                    index=int(parts[1]),
                    weights=_parse_vec(parts[5]),
                    zhat=_parse_vec(parts[6]),
                    d=_parse_vec(parts[7]),
                    dnorm2=float(parts[3]),
                    alpha=float(parts[2]),
                    z=_parse_vec(parts[8]),
                    v=float(parts[4]),
                )
                if rec.weights.size != r:
                    raise ValueError(f"{rec.weights.size} hull weights, expected {r}")
                if not rec.zhat.size == rec.d.size == rec.z.size == p:
                    raise ValueError(f"zhat, d and z need {p} entries each")
                inner.append(rec)
            records.append(
                EpochRecord(
                    K=K,
                    x_start=xs[K],
                    inner=inner,
                    x_next=xs[K + 1],
                    f_next=f_list[K + 1],
                    grad_sq_start=g_list[K],
                    alpha_first=af[K],
                    alpha_last=al[K],
                    alpha_sum=asum[K],
                    v_end=vend[K],
                )
            )
    except ValueError as err:
        raise ValueError(f"{section} row {r}: {err}") from None

    return RunTrace(
        config=config,
        records=records,
        xs=xs,
        f_vals=np.array(f_list),
        grad_sq=np.array(g_list),
        alpha_first=np.array(af),
        alpha_last=np.array(al),
        alpha_sum=np.array(asum),
        v_end=np.array(vend),
        aborted_at=aborted,
        bound_exceeded_at=header["bound_exceeded_at"],
    )


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
