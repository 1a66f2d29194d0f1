"""Scans of the package source.  Its scipy imports: scipy.special at module
level and nothing else, so ALLOWED, the imports allowed elsewhere, is empty.
scipy.integrate, scipy.signal, scipy.optimize and the rest take close to a
second to import in a fresh process.  Its count refusals, its horizon
refusals and its (m, s) refusals: one function builds each.  The adaptive
rule's scale exp(theta) sqrt(n): one place computes it."""

import ast
import pathlib

import mhscaling

PACKAGE = pathlib.Path(mhscaling.__file__).parent

# (module file, enclosing function or None at module level, scipy module)
ALLOWED = set()


def _nodes(path):
    # (function, node) for every node of the file, with the innermost
    # function around it (None at module level)
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        yield function, node
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    return visit(ast.parse(path.read_text(), str(path)), None)


def _scipy_imports(path):
    # (function, module) for every import of scipy or a submodule
    found = []
    for function, node in _nodes(path):
        if isinstance(node, ast.Import):
            found.extend((function, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            if node.module == "scipy":
                found.extend((function, f"scipy.{alias.name}") for alias in node.names)
            else:
                found.append((function, node.module))
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


def _building(fragment):
    # (module file, function) for every string constant or f-string part
    # holding the fragment
    return [(path.name, function) for path in sorted(PACKAGE.glob("*.py"))
            for function, node in _nodes(path)
            if isinstance(node, ast.Constant) and fragment in str(node.value)]


def test_one_function_refuses_counts():
    # every count (steps, cadences, sizes, config counts, CLI counts) goes
    # through one check, so its domain and wording cannot drift apart
    assert set(_building("must be a whole number")) == {("coefficients.py", "_check_count")}


def test_one_function_refuses_the_moment_pair():
    # the coefficients and the (a, b) tuning forms refuse a moment a < 0 or
    # nan by one check, in one wording
    assert _building("moment a must be") == [("coefficients.py", "_check_ab")]


def test_one_function_refuses_the_horizon():
    # dt, t_max and the step cap of the ODE, the MALA flow and the particle
    # system are checked by one routine
    assert _building("in steps of") == [("limits.py", "_horizon")]


def test_one_function_refuses_the_mean_and_second_moment():
    # gaussian_entropy and the entropy rule refuse an (m, s) pair by one
    # check; the step guard's own refusal stays with the guard
    assert _building("needs finite s > m^2") == [("coefficients.py", "_check_spread")]
    assert _building("while protecting s > m^2") == [("limits.py", "_rk4_with_guard")]


def test_one_place_computes_the_adaptive_scale():
    # the adaptive scale is chain state, kept by the random walk kernel;
    # Strategy.scale takes the four moments only and cannot compute it
    sites = [(path.name, function) for path in PACKAGE.glob("*.py")
             for function, node in _nodes(path)
             if isinstance(node, ast.Call) and ast.unparse(node) == "math.exp(theta)"]
    assert sites == [("chains.py", "_rwm_kernel")]
