"""Every numpy.linalg routine that src/posilab calls is one the benchmark's
tracer counts, so the per-layer LAPACK counts miss no call.

The tracer patches the attributes of the numpy.linalg module, so it sees a
call only when the call looks the routine up there: np.linalg.<name>(...).
A name imported from numpy.linalg, or an alias of the module or of one of
its routines, keeps the unpatched function, and no module may hold one.

The tracer's list is read from posibench/tracing.py with ast, without
importing the benchmark.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "posilab").glob("*.py"))


def _traced_functions() -> set:
    tree = ast.parse((ROOT / "posibench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAPACK_FUNCTIONS" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    raise AssertionError("posibench/tracing.py defines no LAPACK_FUNCTIONS")


def _numpy_names(tree) -> set:
    """The names numpy is bound to in a module: np, numpy and every
    ``import numpy as <name>``."""
    return {"np", "numpy"} | {alias.asname for node in ast.walk(tree)
                              if isinstance(node, ast.Import)
                              for alias in node.names
                              if alias.name == "numpy" and alias.asname}


def _is_linalg(node, numpy_names) -> bool:
    """node is <numpy name>.linalg."""
    return (isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name) and node.value.id in numpy_names)


def _linalg_calls(source: str) -> set:
    """(line, name) of every <numpy name>.linalg.<name>(...) call in a
    module."""
    tree = ast.parse(source)
    numpy_names = _numpy_names(tree)
    calls = set()
    for node in ast.walk(tree):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if isinstance(func, ast.Attribute) and _is_linalg(func.value, numpy_names):
            calls.add((node.lineno, func.attr))
    return calls


def _bypasses(source: str) -> list:
    """Line numbers of every way a module reaches numpy.linalg other than a
    call written <numpy name>.linalg.<name>(...): ``from numpy.linalg import``,
    ``from numpy import linalg``, ``import numpy.linalg as``,
    ``getattr(np, "linalg")``, and np.linalg or one of its routines used as
    a value (bound to a name, passed, returned).  Its exception classes, as
    in ``except np.linalg.LinAlgError``, may be read."""
    tree = ast.parse(source)
    numpy_names = _numpy_names(tree)
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        parent = parents.get(node)
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if (module == "numpy.linalg" or module.startswith("numpy.linalg.")
                    or (module == "numpy"
                        and any(alias.name == "linalg" for alias in node.names))):
                found.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.linalg") and alias.asname
                   for alias in node.names):
                found.append(node.lineno)
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
              and len(node.args) > 1
              and getattr(node.args[0], "id", None) in numpy_names
              and getattr(node.args[1], "value", None) == "linalg"):
            found.append(node.lineno)
        elif _is_linalg(node, numpy_names):
            if not (isinstance(parent, ast.Attribute) and parent.value is node):
                found.append(node.lineno)  # the module itself as a value
            elif not ((isinstance(parents.get(parent), ast.Call)
                       and parents[parent].func is parent)
                      or isinstance(getattr(np.linalg, parent.attr, None), type)):
                found.append(node.lineno)  # a routine as a value
    return sorted(found)


def test_every_linalg_call_is_traced():
    traced = _traced_functions()
    calls = {(path.name, line, name) for path in SOURCES
             for line, name in _linalg_calls(path.read_text())}
    assert {name for _, _, name in calls} >= {"eigh", "eigvalsh", "svd"}
    assert sorted(c for c in calls if c[2] not in traced) == []


def test_no_module_reaches_numpy_linalg_past_the_tracer():
    assert {path.name: _bypasses(path.read_text()) for path in SOURCES
            if _bypasses(path.read_text())} == {}


@pytest.mark.parametrize("source", [
    "from numpy.linalg import svd",
    "from numpy.linalg import svd as singular_values",
    "from numpy.linalg._linalg import eigh",
    "from numpy import linalg",
    "from numpy import linalg as la",
    "import numpy.linalg as la",
    "import numpy as np\nla = np.linalg",
    "import numpy\nla = numpy.linalg",
    "import numpy as xp\nla = xp.linalg",
    "import numpy as np\nsvd = np.linalg.svd",
    "import numpy as np\nf(np.linalg.eigh)",
    "import numpy as np\ndef f():\n    return np.linalg",
    "import numpy as np\nla = getattr(np, 'linalg')",
])
def test_the_scan_sees_each_bypass(source):
    assert _bypasses(source) == [source.count("\n") + 1]


def test_the_scan_passes_direct_calls():
    source = ("import numpy as np\nimport numpy.linalg\nimport numpy as xp\n"
              "np.linalg.svd(a)\nnumpy.linalg.eigh(a)\nxp.linalg.norm(a, 2)\n"
              "try:\n    pass\nexcept np.linalg.LinAlgError:\n    pass\n")
    assert _bypasses(source) == []
    assert _linalg_calls(source) == {(4, "svd"), (5, "eigh"), (6, "norm")}
