"""CI and the benchmark spell the numeric-oracles inputs alike.

`.github/workflows/ci.yml` passes them to `dfra run` through its job env
(GRID and SAMPLES, as `--set key=value` words), and
`perfbench/workloads.py` holds them in NUMERIC_PARAMS.  Both files are
read as text, so the benchmark's module is not imported.
"""

import ast
import re
import shlex
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _job_env(workflow: str) -> dict[str, str]:
    """The `env:` block of the first job: its KEY: value lines."""
    lines = workflow.splitlines()
    start = next(k for k, line in enumerate(lines) if re.fullmatch(r" {4}env:", line))
    env = {}
    for line in lines[start + 1:]:
        if not line.startswith(" " * 6):
            break
        m = re.fullmatch(r" {6}([A-Z_]+): (.*)", line)
        if m:
            env[m.group(1)] = m.group(2)
    return env


def _numeric_params(source: str) -> dict:
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "NUMERIC_PARAMS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no NUMERIC_PARAMS")


def _set_words(text: str) -> dict[str, str]:
    words = shlex.split(text)
    assert words[::2] == ["--set"] * (len(words) // 2) and len(words) % 2 == 0, text
    return dict(w.split("=", 1) for w in words[1::2])


def test_ci_env_spells_the_numeric_oracles_inputs_of_perfbench():
    env = _job_env((ROOT / ".github" / "workflows" / "ci.yml").read_text())
    grid, samples = _set_words(env["GRID"]), _set_words(env["SAMPLES"])
    assert not set(grid) & set(samples)
    params = _numeric_params((ROOT / "perfbench" / "workloads.py").read_text())
    assert {**grid, **samples} == {k: str(v) for k, v in params.items()}
