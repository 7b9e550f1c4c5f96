import base64

import hypothesis
import numpy as np
import pytest

import wrdescent as wd

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


def decode_payload(payload: str, dtype: str = "<f8") -> np.ndarray:
    """The array a trace section's base64 payload holds, flat and writable."""
    return np.frombuffer(base64.b64decode(payload), dtype).copy()


def encode_payload(array: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(array).tobytes()).decode()


def section_payload(text: str, section: str) -> str:
    """The payload line that follows a section line of a trace file's text."""
    lines = text.splitlines()
    return lines[lines.index(section) + 1]


def with_payload(text: str, section: str, payload: str) -> str:
    """A trace file's text with the payload line after ``section`` replaced."""
    lines = text.splitlines(keepends=True)
    lines[lines.index(section + "\n") + 1] = payload + "\n"
    return "".join(lines)
