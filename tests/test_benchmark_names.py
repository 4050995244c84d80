"""The names the benchmark harness in perfbench/ takes from the package.

The harness runs outside the test suite, so a name deleted from shirshov
would break a benchmark run while every other test passes.  This reads
each `from shirshov... import` of perfbench/*.py and checks that every
imported name resolves, and that the two attributes the traced pass
patches exist.  It also reads the functions whose profile statistics
perfbench/layers.py reports as per-layer metrics: a renamed one would
not break the run, its metric would silently read 0.
"""

import ast
import importlib
import inspect
from pathlib import Path

from shirshov import core, gsb

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def imported_names():
    """(module, name) for every name perfbench imports from shirshov."""
    out = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "shirshov"):
                out += [(node.module, alias.name) for alias in node.names]
    return out


def test_every_name_perfbench_imports_resolves():
    names = imported_names()
    assert len(names) >= 30
    missing = []
    for module, name in names:
        mod = importlib.import_module(module)
        if not hasattr(mod, name):
            try:  # `from package import submodule`
                importlib.import_module("%s.%s" % (module, name))
            except ImportError:
                missing.append("%s.%s" % (module, name))
    assert not missing


def test_the_attributes_the_traced_pass_patches_exist():
    # perfbench/layers.py `counting` wraps both for the traced pass
    assert callable(gsb.all_compositions)
    assert callable(core.VectorSpan.insert)


# Profiled by perfbench/layers.py but no longer defined, so their metrics
# read 0: the delegates the structures replaced.
KNOWN_DEAD = {"di_ideal_span", "di_reduce", "ac_ideal_span", "ac_irr_words",
              "ac_normal_form", "module_ideal_span", "module_is_gsb",
              "module_normal_form", "reduce_step", "ideal_span"}


def profiled_functions():
    """(module, dotted name) for every function that perfbench/layers.py
    profiles: the pairs in `_PROFILED`, `_CATALOG` and `_KEYS`, each a
    shirshov module followed by a string."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    modules = {alias.name for node in tree.body
               if isinstance(node, ast.ImportFrom)
               and node.module == "shirshov" for alias in node.names}
    out = []
    for node in tree.body:
        if not (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None)
                in ("_PROFILED", "_CATALOG", "_KEYS")):
            continue
        for tup in ast.walk(node.value):
            if isinstance(tup, ast.Tuple):
                for mod, fn in zip(tup.elts, tup.elts[1:]):
                    if (isinstance(mod, ast.Name) and mod.id in modules
                            and isinstance(fn, ast.Constant)
                            and isinstance(fn.value, str)):
                        out.append(("shirshov." + mod.id, fn.value))
    return out


def test_every_function_perfbench_profiles_resolves():
    pairs = profiled_functions()
    for live in [("shirshov.gsb", "find_compositions"),
                 ("shirshov.gsb", "_inter_reduce_elements"),
                 ("shirshov.rewrite", "normal_form"),
                 ("shirshov.rewrite", "find_factor"),
                 ("shirshov.rewrite", "irr_words"),
                 ("shirshov.core", "VectorSpan.insert"),
                 ("shirshov.gsb", "shirshov_complete"),
                 ("shirshov.cli", "parse_presentation"),
                 ("shirshov.cli", "fmt_element"),
                 ("shirshov.cli", "fmt_presentation"),
                 ("shirshov.catalog", "chinese_gsb")]:
        assert live in pairs
    missing = []
    for module, path in pairs:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not inspect.isfunction(obj) and path not in KNOWN_DEAD:
            missing.append("%s.%s" % (module, path))
    assert not missing
