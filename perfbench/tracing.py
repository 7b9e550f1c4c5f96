"""Spans around the calls into wrdescent's modules, recorded from outside.

The tracer replaces public functions in the namespaces that call them (for
example ``wrdescent.engine.step_value``, which ``run_epoch`` looks up at
each step) with wrappers that time the call.  Nothing in the package
changes; ``install`` returns an undo function.

Three kinds of boundary:

* span: one record per call (name, start, end, parent, operation id),
  kept in memory and written at the end of the run;
* hot: per-step calls (oracles, step rule, eval point), folded into a call
  count and a total time per name, because a record per call would need
  hundreds of megabytes on the rate-cells workload;
* counter: a call count only.

Hot and span boundaries share one stack, so a span's self time (its
duration minus the time of the calls nested in it) is exact.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import defaultdict
from typing import Callable


class Tracer:
    def __init__(self):
        self.op = ""
        self.spans: list[tuple] = []  # (id, parent, name, op, start, end, self)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self._stack: list[list] = []  # [span id or None if hot, child time]
        self._next_id = 0

    def _enter(self):
        parent = next((f[0] for f in reversed(self._stack) if f[0] is not None), None)
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame, parent

    def _leave(self, frame, dur):
        self._stack.pop()
        if self._stack:
            self._stack[-1][1] += dur
        return dur - frame[1]

    def span(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame, parent = self._enter()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                own = self._leave(frame, end - start)
                self.spans.append((frame[0], parent, name, self.op, start, end, own))
                self.total[name] += end - start
                self.self_time[name] += own
                self.calls[name] += 1
            if after is not None:
                result = after(result, args)
            return result

        return wrapper

    def hot(self, name, fn):
        total, calls, stack, clock = self.total, self.calls, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append([None, 0.0])
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                total[name] += dur
                calls[name] += 1

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name, amount):
        self.calls[name] += amount

    def span_records(self) -> list[dict]:
        keys = ("id", "parent", "name", "op", "start", "end", "self")
        return [dict(zip(keys, s)) for s in self.spans]


# (owner, attribute, boundary name); owners are wrdescent module names or
# (module, class) pairs.  Each entry names the namespace the caller reads.
SPANS = (
    ("cli", "cmd_run", "cli.run"),
    ("cli", "cmd_sweep", "cli.sweep"),
    ("cli", "cmd_verify", "cli.verify"),
    ("cli", "cmd_report", "cli.report"),
    (("config", "ExperimentConfig"), "build", "config.build"),
    ("cli", "save_trace", "engine.save_trace"),
    ("cli", "load_trace", "engine.load_trace"),
    ("engine", "load_trace", "engine.load_trace"),
    ("engine", "replay", "engine.replay"),
    ("analysis", "check_step_length_bound_trace", "analysis.step_length"),
    ("analysis", "check_epoch_descent_trace", "analysis.epoch_descent"),
    ("analysis", "check_epoch_descent_tight_trace", "analysis.epoch_descent_tight"),
    ("analysis", "check_summability_ada", "analysis.summability"),
    ("analysis", "certify_run", "analysis.certify_run"),
    ("flows", "gamma_trace", "flows.gamma_trace"),
    ("flows", "criticality_measure", "flows.criticality"),
    (("problems", "FiniteSumProblem"), "generator_set", "problems.generator_set"),
)
HOT = (
    ("engine", "step_value", "steps.step_value"),
    ("engine", "eval_support", "schedules.eval_point"),
    ("engine", "eval_point", "schedules.eval_point"),
    ("engine", "hull_point", "schedules.eval_point"),
    ("engine", "permutation", "schedules.permutation"),
    ("analysis", "check_lex_monotone", "steps.lex"),
    ("cli", "check_lex_monotone", "steps.lex"),
    (("problems", "FiniteSumProblem"), "full_value", "problems.objective"),
    (("problems", "FiniteSumProblem"), "full_direction", "problems.objective"),
)
COUNTERS = (
    ("schedules", "counter_rng", "schedules.rng"),
    ("config", "counter_rng", "schedules.rng"),
)
# problem builders: every command rebuilds the n component closures
BUILDERS = (
    ("config", "make_problem"),
    ("engine", "problem_from_dict"),
)


def install(tracer: Tracer, package) -> Callable[[], None]:
    """Patch ``package`` (the imported wrdescent) and return an undo."""
    undo = []

    def owner_of(spec):
        if isinstance(spec, tuple):
            return getattr(getattr(package, spec[0]), spec[1])
        return getattr(package, spec)

    def patch(spec, attr, wrapper_factory):
        owner = owner_of(spec)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def traced_directions(problem, _args):
        # every direction oracle becomes a hot boundary
        comps = tuple(
            dataclasses.replace(c, direction=tracer.hot("problems.direction", c.direction))
            for c in problem.components
        )
        return dataclasses.replace(problem, components=comps)

    def trace_bytes(result, args):
        tracer.count("engine.trace_bytes", os.path.getsize(args[1]))
        return result

    def inner_steps(trace, _args):
        tracer.count("engine.inner_steps", trace.epochs_completed * trace.problem.n)
        return trace

    after = {"engine.save_trace": trace_bytes}
    for spec, attr, name in SPANS:
        patch(spec, attr, lambda fn, name=name: tracer.span(name, fn, after.get(name)))
    for spec, attr, name in HOT:
        patch(spec, attr, lambda fn, name=name: tracer.hot(name, fn))
    for spec, attr, name in COUNTERS:
        patch(spec, attr, lambda fn, name=name: tracer.counter(name, fn))
    for spec, attr in BUILDERS:
        patch(spec, attr, lambda fn: tracer.span("problems.build", fn, traced_directions))
    # cli.run is the engine's run as the run and sweep commands call it
    patch("cli", "run", lambda fn: tracer.span("engine.run", fn, inner_steps))

    def restore():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore
