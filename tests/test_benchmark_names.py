"""The names the benchmark harness in perfbench/ takes from the package.

The harness runs outside the test suite, so a name deleted from shirshov
would break a benchmark run while every other test passes.  This reads
each `from shirshov... import` of perfbench/*.py and checks that every
imported name resolves, and that the two attributes the traced pass
patches exist.
"""

import ast
import importlib
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
