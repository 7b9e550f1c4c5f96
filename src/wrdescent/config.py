"""Experiment configuration: a JSON document that fully determines a run.

All randomness is seeded explicitly; a config round-trips through its file
form losslessly and two runs of the same config produce byte-identical data
files.  Validation errors name the offending key.

Schema (JSON object):

    problem:     {"kind": "logistic"|"sigmoid_nonconvex"|"median"|"relu_net",
                  "n": int, "p": int, "seed": int}
    strategy:    {"variant": "constant", "alpha": float}
               | {"variant": "decreasing_sqrt"}
               | {"variant": "decreasing_cbrt", "L": float | "auto"}
               | {"variant": "adaptive", "beta": float|"auto", "delta": float|"auto"}
    eval_policy: {"variant": "full_gradient"|"incremental"}
               | {"variant": "mini_batch", "b": int}
               | {"variant": "delayed_async", "max_delay": int, "seed": int}
               | {"variant": "convex_mix", "seed": int}
    perm_policy: {"variant": "identity"} | {"variant": "fixed", "perm": [..]}
               | {"variant": "shuffled", "seed": int} | {"variant": "adversarial"}
    x0:          {"kind": "zero"} | {"kind": "ball", "radius": float >= 0, "seed": int}
    epochs:      int >= 1
    record_level: "full" | "epoch_only"   (default "epoch_only")
    output_dir:  str                      (default "out")

An int is a JSON integer, not a float (1.0 included) or a bool; a float
is a finite JSON number, not a bool or a string, and so is the ball
radius.  "auto" (the default for L, beta and delta) resolves against the
instantiated problem (L, or Adaptive.recommended's beta = n^2 and
delta = n^3); the strategy's n is the problem's (a given n must be the
same).  Keys of a strategy or policy that its variant does not use are
ignored.

This module also owns RunConfig, the configuration of a run, and its
dict form (``config_to_dict``), the config a trace header stores: the
problem, each strategy and policy as {"variant": VARIANT, **fields} (n
included), x0 as a list, epochs, record_level, monitor_radius (null or a
finite nonnegative number) and track_objective (true or false).  A config
(``ExperimentConfig.build``) and a trace header (``engine.load_trace``)
end in one typed reader, ``RunConfig.from_dict`` over
``variant_from_dict``, so both get these checks, and errors that name the
key.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional

import numpy as np

from .problems import PROBLEM_KINDS, FiniteSumProblem, make_problem, problem_to_dict
from .schedules import EVAL_POLICIES, PERM_POLICIES, EvalPointPolicy, FixedPermutation, PermutationPolicy, counter_rng
from .steps import STRATEGIES, Adaptive, StepStrategy

_X0_TAG = 11
# strategy fields that default to "auto", resolved against the problem
_AUTO = {
    "L": lambda problem: problem.L,
    "beta": lambda problem: Adaptive.recommended(problem.n).beta,
    "delta": lambda problem: Adaptive.recommended(problem.n).delta,
}


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the key."""


def _check_int(value, key: str, least=None) -> None:
    """Require a JSON integer, not a float or a bool, of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        what = {None: "an integer", 0: "a nonnegative integer"}.get(least, f"an integer >= {least}")
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")


def _check_float(value, key: str, least=None) -> float:
    """Require a finite JSON number, not a bool or a string, of at least
    ``least`` (None or 0); its value as a float.

    JSON reads 1e400 as inf, and an integer past the float range does not
    convert.
    """
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    low = -sys.float_info.max if least is None else least
    if not real or not low <= value <= sys.float_info.max:
        what = "a finite number" if least is None else "a finite nonnegative number"
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")
    return float(value)


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
            raise ConfigError(f"'x0' must have shape ({self.problem.p},), got {self.x0.shape}")
        _check_int(self.epochs, "epochs", 1)
        if self.record_level not in ("full", "epoch_only"):
            raise ConfigError("'record_level' must be 'full' or 'epoch_only'")
        if self.monitor_radius is not None:
            _check_float(self.monitor_radius, "monitor_radius", 0)
        if not isinstance(self.track_objective, bool):
            raise ConfigError(f"'track_objective' must be true or false, got {self.track_objective!r}")
        if self.strategy.n != self.problem.n:
            raise ConfigError(f"'strategy.n' is {self.strategy.n}, the problem has n = {self.problem.n}")
        perm = self.perm_policy
        if isinstance(perm, FixedPermutation) and len(perm.perm) != self.problem.n:
            raise ConfigError(
                f"'perm_policy.perm' has {len(perm.perm)} entries, the problem has n = {self.problem.n}"
            )
        if self.monitor_radius is None and self.problem.box_radius is not None:
            self.monitor_radius = self.problem.box_radius

    @classmethod
    def from_dict(cls, doc: dict, problem: FiniteSumProblem) -> "RunConfig":
        """The run of a config_to_dict document on ``problem``; the strategy
        and policies are read by ``variant_from_dict``, the other fields
        checked by ``__post_init__``."""
        return cls(
            problem=problem,
            **{key: variant_from_dict(doc[key], table, problem) for key, table in VARIANT_SECTIONS.items()},
            x0=doc["x0"],
            epochs=doc["epochs"],
            record_level=doc["record_level"],
            monitor_radius=doc.get("monitor_radius"),
            track_objective=doc.get("track_objective", True),
        )


# RunConfig fields stored as {"variant": VARIANT, **fields}, with their {VARIANT: class} tables
VARIANT_SECTIONS = {
    "strategy": STRATEGIES,
    "eval_policy": EVAL_POLICIES,
    "perm_policy": PERM_POLICIES,
}


def variant_to_dict(obj) -> dict:
    """{"variant": VARIANT, **fields} of a step strategy or schedule policy."""
    return {"variant": obj.VARIANT, **{f.name: getattr(obj, f.name) for f in fields(obj)}}


def variant_from_dict(doc: dict, table: dict, problem: Optional[FiniteSumProblem] = None):
    """Inverse of variant_to_dict through one of the VARIANT_SECTIONS tables.

    Each int and float field is checked as ``_check_int`` and
    ``_check_float`` do; errors name ``section.field``.  Given the problem,
    n defaults to the problem's and "auto" resolves against it.  Keys that
    are not fields of the class are ignored.
    """
    section = next(name for name, known in VARIANT_SECTIONS.items() if known is table)
    cls = table.get(doc.get("variant"))
    if cls is None:
        raise ConfigError(f"unknown '{section}.variant' {doc.get('variant')!r}")
    values = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        default = "auto" if f.name in _AUTO else MISSING
        if f.name == "n" and problem is not None:
            default = problem.n  # RunConfig turns down a document's other n
        value = doc.get(f.name, default)
        if value is MISSING:
            raise ConfigError(f"missing config key '{key}'")
        if f.name in _AUTO and value == "auto" and problem is not None:
            value = _AUTO[f.name](problem)
            if value is None:
                raise ConfigError(f"'{key}' = auto needs a smooth problem")
        if f.type == "int":
            _check_int(value, key)
        elif f.type == "float":
            value = _check_float(value, key)
        values[f.name] = value
    try:
        return cls(**values)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"'{section}' ({cls.VARIANT}): {err}") from None


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


@dataclass
class ExperimentConfig:
    problem: dict
    strategy: dict
    eval_policy: dict = field(default_factory=lambda: {"variant": "incremental"})
    perm_policy: dict = field(default_factory=lambda: {"variant": "identity"})
    x0: dict = field(default_factory=lambda: {"kind": "zero"})
    epochs: int = 1
    record_level: str = "epoch_only"
    output_dir: str = "out"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name: f for f in fields(cls)}
        for key in doc:
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
        for name, f in known.items():
            if f.default is MISSING and f.default_factory is MISSING and name not in doc:
                raise ConfigError(f"missing config key {name!r}")
        cfg = cls(**copy.deepcopy(doc))
        cfg.validate()
        return cfg

    def validate(self) -> None:
        kind = self.problem.get("kind")
        if kind not in PROBLEM_KINDS:
            raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {kind!r}")
        for key, least in (("n", 1), ("p", 1), ("seed", 0)):
            if key not in self.problem:
                raise ConfigError(f"missing config key 'problem.{key}'")
            _check_int(self.problem[key], f"problem.{key}", least)
        _check_int(self.epochs, "epochs", 1)
        if self.record_level not in ("full", "epoch_only"):
            raise ConfigError("'record_level' must be 'full' or 'epoch_only'")
        if self.x0.get("kind") not in ("zero", "ball"):
            raise ConfigError("'x0.kind' must be 'zero' or 'ball'")
        if self.x0.get("kind") == "ball":
            for key in ("radius", "seed"):
                if key not in self.x0:
                    raise ConfigError(f"missing config key 'x0.{key}'")
            _check_int(self.x0["seed"], "x0.seed", 0)
            _check_float(self.x0["radius"], "x0.radius", 0)

    def build(self) -> RunConfig:
        self.validate()
        problem = make_problem(
            self.problem["kind"],
            self.problem["n"],
            self.problem["p"],
            self.problem["seed"],
        )
        return RunConfig.from_dict({**vars(self), "x0": build_x0(self.x0, problem)}, problem)


def build_x0(spec: dict, problem: FiniteSumProblem) -> np.ndarray:
    if spec.get("kind") == "zero":
        return np.zeros(problem.p)
    radius = float(spec["radius"])
    rng = counter_rng(int(spec["seed"]), _X0_TAG)
    direction = rng.standard_normal(problem.p)
    direction /= np.linalg.norm(direction)
    return radius * rng.random() ** (1.0 / problem.p) * direction


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
    return ExperimentConfig.from_dict(doc)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def set_key(doc: dict, dotted: str, value) -> None:
    """Set a dotted path like 'strategy.alpha' in a nested config dict."""
    parts = dotted.split(".")
    here = doc
    for part in parts[:-1]:
        if part not in here or not isinstance(here[part], dict):
            here[part] = {}
        here = here[part]
    here[parts[-1]] = value


def parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text
