"""The demos and the README quick start keep up with the package API.

Every name they import from mlopf must exist (checked from the syntax tree,
without running them), every code name the README cites from mlopf resolves,
every `mlopf` command line in the README parses, and the two fast demos must
run to completion. The other demos take seconds each and are left out.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import textwrap
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


def mlopf_heads() -> dict[str, object]:
    """mlopf, each of its modules and every class they define, by name."""
    heads = {"mlopf": mlopf}
    for info in pkgutil.iter_modules(mlopf.__path__):
        module = importlib.import_module(f"mlopf.{info.name}")
        heads[info.name] = module
        heads.update(
            (name, obj) for name, obj in vars(module).items()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        )
    return heads


def instance_attributes(cls) -> set[str]:
    """The names a class's methods assign on self, and its dataclass fields."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    names = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return names


def test_readme_code_names_resolve():
    # A backticked dotted name whose head is mlopf, one of its modules or
    # one of their classes must name something that exists: an attribute
    # found by getattr, or, last in a name headed by a class, an attribute
    # its instances carry. File names such as `network.json` are no code.
    heads = mlopf_heads()
    cited = re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", (ROOT / "README.md").read_text())
    checked, missing = 0, []
    for name in cited:
        head, *parts = name.split(".")
        if head not in heads or parts[-1] in ("json", "jsonl", "csv"):
            continue
        checked += 1
        obj = heads[head]
        for k, part in enumerate(parts):
            if hasattr(obj, part):
                obj = getattr(obj, part)
            elif not (k == len(parts) - 1 and inspect.isclass(obj)
                      and part in instance_attributes(obj)):
                missing.append(name)
                break
    assert checked >= 5
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
