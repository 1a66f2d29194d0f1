"""The package's scipy imports: scipy.special at module level and nothing
else, so ALLOWED, the imports allowed elsewhere, is empty.  scipy.integrate,
scipy.signal, scipy.optimize and the rest take close to a second to import in
a fresh process."""

import ast
import pathlib

import mhscaling

PACKAGE = pathlib.Path(mhscaling.__file__).parent

# (module file, enclosing function or None at module level, scipy module)
ALLOWED = set()


def _scipy_imports(path):
    # (function, module) for every import of scipy or a submodule, with the
    # innermost function around it (None at module level)
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            found.extend((function, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module == "scipy":
                found.extend((function, f"scipy.{alias.name}") for alias in node.names)
            else:
                found.append((function, node.module))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(), str(path)), None)
    return [(function, module) for function, module in found
            if module == "scipy" or module.startswith("scipy.")]


def test_only_scipy_special_is_imported_and_at_module_level():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    seen = set()
    for path in files:
        for function, module in _scipy_imports(path):
            if function is None and module == "scipy.special":
                continue
            key = (path.name, function, module)
            assert key in ALLOWED, f"{path.name}: {module} imported in {function or 'module'}"
            seen.add(key)
    assert seen == ALLOWED
