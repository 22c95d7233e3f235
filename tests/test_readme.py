"""README's example, run as written, the top-level API it documents, and a
check that every public name in the package has a program caller."""

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


# Public names that no program reads by name, each kept on purpose.
KEPT_UNREFERENCED = {
    "Parser.error": "argparse calls it on a bad command line",
}


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a tree reads, imports or reads as an attribute, the
    attributes as `.name`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add("." + node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_program_caller():
    """Each public module-level name and public class method under
    src/orbitalmcmc is read somewhere in src/, in perfbench/ or in README's
    example, unless KEPT_UNREFERENCED gives a reason.  A module-level name
    matches a bare name or an attribute; a method matches any attribute of
    its name, whatever the object, so a method named like another class's
    method that is read passes unseen: a `CouplingSimulator.sample` would,
    since `OrbitSampler.sample` is read."""
    sources = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))
    referenced = referenced_names(ast.parse(readme_example()))
    for path in sources:
        referenced |= referenced_names(ast.parse(path.read_text()))
    unreferenced = []
    for path in sorted((ROOT / "src" / "orbitalmcmc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                defined = []
            unreferenced += [name for name in defined if not name.startswith("_")
                             and name not in referenced and "." + name not in referenced]
            if isinstance(node, ast.ClassDef):
                unreferenced += [f"{node.name}.{item.name}" for item in node.body
                                 if isinstance(item, ast.FunctionDef)
                                 and not item.name.startswith("_")
                                 and "." + item.name not in referenced]
    extra = sorted(set(unreferenced) - set(KEPT_UNREFERENCED))
    assert not extra, f"public names with no program caller: {extra}"
    stale = sorted(set(KEPT_UNREFERENCED) - set(unreferenced))
    assert not stale, f"kept names that now have a caller: {stale}"
