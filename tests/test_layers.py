"""The package modules import one another strictly downward, and only at module level."""

import ast
from pathlib import Path

import johnson_entanglement

# lowest first: a module may import only the modules before it
ORDER = ["scheme", "specfn", "spectral", "terwilliger", "heun", "entropy", "verify", "cli"]
# the package entry points, which sit above every layer
FACADES = {"__init__", "__main__"}
PACKAGE = Path(johnson_entanglement.__file__).parent


def _package_imports(tree):
    """(imported package module, inside a function) for every package import in ``tree``."""
    found = []

    def visit(node, in_function):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] == johnson_entanglement.__name__:
                parts = parts[1:]
            elif node.level == 0:
                parts = None
            if parts is not None:
                # "from . import x" names modules; "from .x import y" names x's attributes
                for target in [parts[0]] if parts[0] else [alias.name for alias in node.names]:
                    found.append((target, in_function))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == johnson_entanglement.__name__ and len(parts) > 1:
                    found.append((parts[1], in_function))
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, in_function)

    visit(tree, False)
    return found


def test_every_package_module_has_a_layer():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ORDER) | FACADES


def test_layers_import_strictly_downward_at_module_level():
    for path in sorted(PACKAGE.glob("*.py")):
        imports = _package_imports(ast.parse(path.read_text(), str(path)))
        assert not [target for target, in_function in imports if in_function], path.name
        if path.stem in ORDER:
            below = set(ORDER[: ORDER.index(path.stem)])
            assert {target for target, _ in imports} <= below, path.name


def test_import_scan_sees_runtime_and_upward_imports():
    tree = ast.parse(
        "from .scheme import GraphSpec\n"
        "from . import heun as heun_mod, spectral\n"
        "import johnson_entanglement.verify\n"
        "import argparse\n"
        "def f():\n"
        "    import json\n"
        "    from .terwilliger import level_degeneracy\n"
    )
    assert _package_imports(tree) == [
        ("scheme", False), ("heun", False), ("spectral", False), ("verify", False), ("terwilliger", True),
    ]
