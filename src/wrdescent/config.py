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
radius.  "auto" (the default for L, beta and delta)
resolves against the instantiated problem (L, or Adaptive.recommended's
beta = n^2 and delta = n^3); the strategy's n is the problem's.  Keys of
a strategy or policy that its variant does not use are ignored.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .engine import VARIANT_SECTIONS, RunConfig, variant_from_dict
from .problems import PROBLEM_KINDS, FiniteSumProblem, make_problem
from .schedules import counter_rng
from .steps import Adaptive

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
        variants = {
            section: _build_variant(section, getattr(self, section), table, problem)
            for section, table in VARIANT_SECTIONS.items()
        }
        x0 = build_x0(self.x0, problem)
        try:
            return RunConfig(
                problem=problem,
                **variants,
                x0=x0,
                epochs=self.epochs,
                record_level=self.record_level,
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None


def _build_variant(section: str, spec: dict, table: dict, problem: FiniteSumProblem):
    """The strategy or policy of a config section, with n and "auto" filled in."""
    if spec.get("variant") not in table:
        raise ConfigError(f"unknown '{section}.variant' {spec.get('variant')!r}")

    def read(f, doc):
        if f.name == "n":
            return problem.n
        value = doc.get(f.name, "auto" if f.name in _AUTO else MISSING)
        if value is MISSING:
            raise ConfigError(f"missing config key '{section}.{f.name}'")
        if f.name in _AUTO and value == "auto":
            value = _AUTO[f.name](problem)
            if value is None:
                raise ConfigError(f"'{section}.{f.name}' = auto needs a smooth problem")
        if f.type == "int":
            _check_int(value, f"{section}.{f.name}")
        elif f.type == "float":
            value = _check_float(value, f"{section}.{f.name}")
        return value

    try:
        return variant_from_dict(spec, table, read)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(f"'{section}' ({spec['variant']}): {err}") from None


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
