"""egoek loads only numpy and the standard library, src/ holds no code that only tests use,
and no module reads another module's private names.

scipy is a test oracle, not a dependency: importing it costs more than
numpy itself does, on every command line call.
"""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# Every module of the package, so a new one cannot skip the import check.
MODULES = tuple(sorted(p.stem for p in (SRC / "egoek").glob("*.py") if p.stem != "__init__"))


def test_no_scipy_on_the_import_path():
    code = (
        "import importlib, sys\n"
        f"for name in ('egoek',) + tuple('egoek.' + m for m in {MODULES!r}):\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_package_imports_no_module():
    """Names are imported from their modules; the package re-exports none of them."""
    code = (
        "import sys, egoek.fock\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'egoek'))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=SRC, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "['egoek', 'egoek.fock']"


# Public names that nothing in src/ loads, each kept on purpose.
KEPT_WITHOUT_SRC_CALLER = {
    "decomposition.fit_smooth_model": "perfbench/tracer.py wraps it (ROADMAP item 5)",
    "decomposition.smooth_distribution_values": "perfbench/tracer.py wraps it (ROADMAP item 5)",
    "analytic.sn2": "acceptance criterion 8 reads it",
    "ensemble.spectral_variance": "criterion 2's anchor (ROADMAP item 2)",
}


def test_every_public_definition_has_a_src_reader():
    """Code that only tests use belongs in tests/: each public module-level function or
    class is loaded (as a name or an attribute) somewhere in src/, or is listed above."""
    paths = sorted((SRC / "egoek").glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    unread = {
        f"{module}.{node.name}"
        for module, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in loaded
    }
    assert unread == set(KEPT_WITHOUT_SRC_CALLER)


def test_no_private_name_crosses_modules():
    """A src module reads no underscore name of another egoek module, by import or attribute."""
    crossing = set()
    for path in sorted((SRC / "egoek").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # local names bound to egoek modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] == "egoek"
            ):
                for alias in node.names:
                    if alias.name.startswith("_"):
                        crossing.add(f"{path.stem}: {node.module or ''}.{alias.name}")
                    if not node.module:
                        modules.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules
            ):
                crossing.add(f"{path.stem}: {node.value.id}.{node.attr}")
    assert crossing == set()
