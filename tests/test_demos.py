"""The demos and the README quick start keep up with the package API.

Every name they import from mlopf must exist (checked from the syntax tree,
without running them), every `mlopf` command line in the README parses, and
the two fast demos must run to completion. The other demos take seconds each
and are left out.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mlopf
from mlopf.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
FAST_DEMOS = ["01_voltage_model.py", "02_partition_and_engines.py"]


def mlopf_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every `from mlopf... import name` in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mlopf":
            found.extend((node.module, alias.name) for alias in node.names)
    return found


def readme_quick_start() -> str:
    section = (ROOT / "README.md").read_text().split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_demo_and_readme_imports_exist():
    sources = {path.name: path.read_text() for path in DEMOS}
    sources["README quick start"] = readme_quick_start()
    assert len(DEMOS) >= 5
    missing = []
    for where, source in sources.items():
        names = mlopf_imports(source)
        assert names, f"{where} imports nothing from mlopf"
        for module, name in names:
            if not hasattr(importlib.import_module(module), name):
                missing.append(f"{where}: {module}.{name}")
    assert missing == []


def test_readme_command_lines_parse():
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    commands = [words for words in commands if words[:1] == ["mlopf"]]
    parser = build_parser()
    assert sorted(parser.parse_args(words[1:]).command for words in commands) == sorted(
        ["gen", "validate", "partition", "solve", "bench", "compare"]
    )


@pytest.mark.parametrize("name", FAST_DEMOS)
def test_fast_demo_runs(name, tmp_path):
    src = str(Path(mlopf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
