"""README's example, run as written, and the top-level API it documents."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import orbitalmcmc

ROOT = Path(__file__).resolve().parents[1]


def readme_example() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, f"README has {len(blocks)} python blocks, not 1"
    return blocks[0]


def test_example_runs_as_written(tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-W", "error", "-c", readme_example()],
                            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    checkpoint, state = result.stdout.splitlines()
    assert checkpoint.startswith("(100000, ")
    assert len(ast.literal_eval(state)) == 9  # grid 3's vertices


def test_top_level_exports_the_example_imports():
    imported = [alias.name for node in ast.walk(ast.parse(readme_example()))
                if isinstance(node, ast.ImportFrom) and node.module == "orbitalmcmc"
                for alias in node.names]
    assert sorted(orbitalmcmc.__all__) == sorted(imported)
    assert len(imported) == 5
