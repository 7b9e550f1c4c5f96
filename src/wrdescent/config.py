"""Run configuration: one JSON document that fully determines a run.

A config file and a trace header's ``config`` are one document, checked by
one reader, ``read_document``, before anything is built; an error is a
ConfigError naming the key.  Randomness is seeded explicitly: two runs of
one document write the same bytes.  Schema (defaults in parentheses):

    problem:     {"kind": "logistic"|"sigmoid_nonconvex"|"median"|"relu_net",
                  "n": int >= 1, "p": int >= 1, "seed": int >= 0}
    strategy:    {"variant": "constant", "alpha": float} | {"variant": "decreasing_sqrt"}
               | {"variant": "decreasing_cbrt", "L": float | "auto"}
               | {"variant": "adaptive", "beta": float|"auto", "delta": float|"auto"}
    eval_policy: {"variant": "full_gradient"|"incremental"} | {"variant": "mini_batch", "b": int}
               | {"variant": "delayed_async", "max_delay": int, "seed": int}
               | {"variant": "convex_mix", "seed": int}                  (incremental)
    perm_policy: {"variant": "identity"} | {"variant": "fixed", "perm": [int, ..]}
               | {"variant": "shuffled", "seed": int} | {"variant": "adversarial"}   (identity)
    x0:          {"kind": "zero"} | {"kind": "ball", "radius": float >= 0, "seed": int >= 0}
               | a list of p numbers                                       ({"kind": "zero"})
    epochs: int >= 1 (1);  record_level: "full" | "epoch_only" ("epoch_only")
    monitor_radius: null | float >= 0 (null: the problem's box radius, if any)
    track_objective: true | false (true);  output_dir: str ("out"; a header's is not read)

The problem section has two forms (``read_problem``): a config file's four
keys, drawn by ``make_problem``, and a trace header's, which adds the
kind's SCALARS over the header's #DATA matrix and may have a null seed.
So the config of a logistic, sigmoid or median trace header runs as a
config file and writes the same trace; a relu_net header's does not, as
its p is the parameter count and its hidden is not a config file key.

An int is a JSON integer, not a float (1.0 included) or a bool, of at most
np.iinfo(np.intp).max in size; a float is a finite JSON number, not a bool
or a string; an x0 list holds numbers (Infinity and NaN included).  "auto"
resolves against the problem (L, or Adaptive.recommended's beta = n^2 and
delta = n^3).  Keys of a strategy or policy that its variant does not use
are ignored, the strategy "n" of older trace headers among them: n is the
problem's.  This module also owns RunConfig and ``config_to_dict``, the
document a trace header stores.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import MISSING, dataclass, fields
from functools import partial
from typing import Optional

import numpy as np

from .problems import PROBLEM_KINDS, ZOO_KINDS, FiniteSumProblem, make_problem, problem_to_dict
from .schedules import EVAL_POLICIES, PERM_POLICIES, EvalPointPolicy, FixedPermutation, PermutationPolicy, counter_rng
from .steps import STRATEGIES, Adaptive, StepStrategy

_X0_TAG = 11
_INT_MAX = np.iinfo(np.intp).max  # the largest size NumPy takes
# strategy fields that default to "auto", resolved against the problem
_AUTO = {
    "L": lambda problem: problem.L,
    "beta": lambda problem: Adaptive.recommended(problem.n).beta,
    "delta": lambda problem: Adaptive.recommended(problem.n).delta,
}


class ConfigError(ValueError):
    """Malformed experiment configuration; the message names the key."""


def _check_int(value, key: str, least=None) -> None:
    """Require a JSON integer, not a float or a bool, of at least ``least`` and at most _INT_MAX in size."""
    if isinstance(value, bool) or not isinstance(value, int) or (least is not None and value < least):
        what = {None: "an integer", 0: "a nonnegative integer"}.get(least, f"an integer >= {least}")
        raise ConfigError(f"'{key}' must be {what}, got {value!r}")
    if abs(value) > _INT_MAX:
        raise ConfigError(f"'{key}' must be at most {_INT_MAX} in size, got {value}")


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


RUN_FIELDS = ("epochs", "record_level", "monitor_radius", "track_objective")  # RunConfig's, as a document gives them


def _check_run_fields(doc: dict) -> None:
    _check_int(doc["epochs"], "epochs", 1)
    if doc["record_level"] not in ("full", "epoch_only"):
        raise ConfigError("'record_level' must be 'full' or 'epoch_only'")
    if doc["monitor_radius"] is not None:
        _check_float(doc["monitor_radius"], "monitor_radius", 0)
    if not isinstance(doc["track_objective"], bool):
        raise ConfigError(f"'track_objective' must be true or false, got {doc['track_objective']!r}")


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
        _check_run_fields(vars(self))
        perm = self.perm_policy
        if isinstance(perm, FixedPermutation) and len(perm.perm) != self.problem.n:
            raise ConfigError(
                f"'perm_policy.perm' has {len(perm.perm)} entries, the problem has n = {self.problem.n}"
            )
        if self.monitor_radius is None and self.problem.box_radius is not None:
            self.monitor_radius = self.problem.box_radius

    @classmethod
    def from_dict(cls, doc: dict, problem: FiniteSumProblem) -> "RunConfig":
        """The run of a ``read_document`` document on ``problem``."""
        x0 = doc["x0"]
        return cls(
            problem=problem,
            **{key: variant_from_dict(doc[key], table, problem) for key, table in VARIANT_SECTIONS.items()},
            x0=build_x0(x0, problem) if isinstance(x0, dict) else x0,
            **{key: doc[key] for key in RUN_FIELDS},
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
    ``_check_float`` do, and a tuple field (a fixed perm) must list JSON
    integers; errors name ``section.field``.  Given the problem, "auto"
    resolves against it.  Keys that are not fields of the class are ignored.
    """
    section = next(name for name, known in VARIANT_SECTIONS.items() if known is table)
    variant = doc.get("variant")
    cls = table.get(variant) if isinstance(variant, str) else None
    if cls is None:
        raise ConfigError(f"unknown '{section}.variant' {variant!r}")
    values = {}
    for f in fields(cls):
        key = f"{section}.{f.name}"
        value = doc.get(f.name, "auto" if f.name in _AUTO else MISSING)
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
        elif f.type == "tuple" and not (isinstance(value, (list, tuple)) and all(type(v) is int for v in value)):
            raise ConfigError(f"'{key}' must be a list of integers, got {value!r}")
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
        **{key: getattr(config, key) for key in RUN_FIELDS},
    }


# the document's keys that have a default, and the defaults
DEFAULTS = dict(eval_policy={"variant": "incremental"}, perm_policy={"variant": "identity"}, x0={"kind": "zero"},
                epochs=1, record_level="epoch_only", monitor_radius=None, track_objective=True, output_dir="out")
# checks of the zoo kinds' SCALARS, which a trace header's problem adds
_SCALAR_CHECKS = {"hidden": partial(_check_int, least=1), "box_radius": partial(_check_float, least=0)}


def _check_keys(present, known, required, section: str = "") -> None:
    """Turn down a key in ``present`` that is not ``known``, then a missing ``required`` one."""
    for key in present:
        if key not in known:
            raise ConfigError(f"unknown config key '{section}{key}'")
    for key in required:
        if key not in present:
            raise ConfigError(f"missing config key '{section}{key}'")


def read_problem(doc: dict, header: bool = False) -> None:
    """Check a problem section: a config file's kind, n, p and seed, or a
    trace header's (``header``), which adds the kind's SCALARS and may have
    a null seed."""
    kind = doc.get("kind")
    if kind not in PROBLEM_KINDS:
        raise ConfigError(f"problem.kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    scalars = ZOO_KINDS[kind].SCALARS
    keys = ("kind", "n", "p", "seed", *(scalars if header else ()))
    # SCALARS first: a config file given a relu_net header's problem is turned down naming hidden
    _check_keys([key for key in (*scalars, *doc) if key in doc], keys, keys, "problem.")
    _check_int(doc["n"], "problem.n", 1)
    _check_int(doc["p"], "problem.p", 1)
    if not (header and doc["seed"] is None):
        _check_int(doc["seed"], "problem.seed", 0)
    for key in keys[4:]:
        _SCALAR_CHECKS[key](doc[key], f"problem.{key}")


def read_document(doc, header: bool = False) -> dict:
    """A copy of ``doc`` with its defaults, checked before anything is built
    (``RunConfig.from_dict`` reads the strategy and policies, which need the
    problem); ``header`` reads a trace header's config."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a config must be a JSON object, got {doc!r}")
    _check_keys(doc, ("problem", "strategy", *DEFAULTS), ("problem", "strategy"))
    doc = copy.deepcopy({**DEFAULTS, **doc})
    for key in ("problem", *VARIANT_SECTIONS):
        if not isinstance(doc[key], dict):
            raise ConfigError(f"'{key}' must be a JSON object, got {doc[key]!r}")
    read_problem(doc["problem"], header)
    if not isinstance(doc["output_dir"], str):
        raise ConfigError(f"'output_dir' must be a string, got {doc['output_dir']!r}")
    _check_run_fields(doc)
    x0 = doc["x0"]
    if isinstance(x0, list):
        if not all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max for v in x0):
            raise ConfigError(f"'x0' must be a list of numbers, got {x0!r}")
    elif not isinstance(x0, dict):
        raise ConfigError(f"'x0' must be a JSON object or a list of numbers, got {x0!r}")
    elif x0.get("kind") not in ("zero", "ball"):
        raise ConfigError("'x0.kind' must be 'zero' or 'ball'")
    elif x0["kind"] == "ball":
        for key in ("radius", "seed"):
            if key not in x0:
                raise ConfigError(f"missing config key 'x0.{key}'")
        _check_int(x0["seed"], "x0.seed", 0)
        _check_float(x0["radius"], "x0.radius", 0)
    return doc


@dataclass
class ExperimentConfig:
    """A config file: its document, as ``read_document`` reads it."""

    doc: dict

    def to_dict(self) -> dict:
        return copy.deepcopy(self.doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return cls(read_document(doc))

    def build(self) -> RunConfig:
        p = self.doc["problem"]
        return RunConfig.from_dict(self.doc, make_problem(p["kind"], p["n"], p["p"], p["seed"]))


def build_x0(spec: dict, problem: FiniteSumProblem) -> np.ndarray:
    if spec.get("kind") == "zero":
        return np.zeros(problem.p)
    radius = float(spec["radius"])
    rng = counter_rng(int(spec["seed"]), _X0_TAG)
    direction = rng.standard_normal(problem.p)
    direction /= np.linalg.norm(direction)
    return radius * rng.random() ** (1.0 / problem.p) * direction


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read the config file: {err}") from err
    except ValueError as err:
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
