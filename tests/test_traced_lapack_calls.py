"""One rule: numpy.linalg is named in src/posilab only inside linalg.lapack,
and every lapack("<name>", ...) call passes, as a string literal, a routine
in posibench/tracing.py's LAPACK_FUNCTIONS (read with ast, without importing
the benchmark).  lapack looks the routine up on numpy.linalg when it runs,
where the tracer patches it, so the per-layer LAPACK counts miss no call.

A second rule: numpy's matrix_power computes only certified_inverse's
inverse (n=-1); every matrix power comes from linalg.normalized_power.

A module names numpy.linalg by an attribute <numpy name>.linalg, by an
import, or by the string "linalg" (getattr(np, "linalg")).  lapack used as
a value, or called with a name that is not a literal, hides the routine.
"""

import ast
from pathlib import Path

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


def _lapack_calls(tree) -> dict:
    """id of the callee -> the call, for every call of lapack."""
    return {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "lapack"}


def _names_numpy_linalg(node, numpy_names) -> bool:
    if isinstance(node, ast.Attribute) and node.attr == "linalg":
        return getattr(node.value, "id", None) in numpy_names
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.linalg") or (
            node.module == "numpy" and any(a.name == "linalg" for a in node.names))
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.linalg") for a in node.names)
    return isinstance(node, ast.Constant) and node.value in ("linalg", "numpy.linalg")


def _violations(source: str, traced: set) -> list:
    """Line numbers that break the rule; the body of a top-level ``def
    lapack`` may name numpy.linalg."""
    tree = ast.parse(source)
    numpy_names = {"np", "numpy"} | {a.asname for node in ast.walk(tree)
                                     if isinstance(node, ast.Import)
                                     for a in node.names if a.name == "numpy"}
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == "lapack"
              for node in ast.walk(top)}
    calls, found = _lapack_calls(tree), []
    for node in ast.walk(tree):
        if getattr(node, "id", getattr(node, "attr", None)) == "lapack":
            args = calls[id(node)].args if id(node) in calls else []
            if getattr(args[0] if args else None, "value", None) not in traced:
                found.append(node.lineno)
        elif id(node) not in inside and _names_numpy_linalg(node, numpy_names):
            found.append(node.lineno)
    return sorted(found)


def test_every_linalg_call_is_traced():
    called = {getattr(call.args[0], "value", None) if call.args else None
              for path in SOURCES
              for call in _lapack_calls(ast.parse(path.read_text())).values()}
    assert called >= {"eigh", "eigvalsh", "svd"} and called <= _traced_functions()


def test_no_module_reaches_numpy_linalg_past_the_tracer():
    traced = _traced_functions()
    assert {path.name: lines for path in SOURCES
            if (lines := _violations(path.read_text(), traced))} == {}


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
    "import numpy as np\nnp.linalg.svd(a)",
    "lapack('solve', a, 'T')",
    "linalg.lapack(name, a, 'T')",
    "from .linalg import lapack\nf = lapack",
])
def test_the_scan_sees_each_bypass(source):
    assert _violations(source, {"svd"}) == [source.count("\n") + 1]


def test_the_scan_passes_direct_calls():
    """lapack's own body, and calls of lapack that name a traced routine."""
    source = ("import numpy as np\ndef lapack(name, operand, what, **options):\n"
              "    try:\n        return getattr(np.linalg, name)(operand, **options)\n"
              "    except np.linalg.LinAlgError:\n        raise\n"
              "lapack('svd', a, 'T', compute_uv=False)\nlinalg.lapack('svd', a, 'T')\n")
    assert _violations(source, {"svd"}) == []


def _powers_not_inverses(source: str) -> list:
    """Line numbers of lapack("matrix_power", ...) calls that do not pass
    the literal n=-1."""
    def exponent(call):
        for keyword in call.keywords:
            if keyword.arg == "n":
                try:
                    return ast.literal_eval(keyword.value)
                except ValueError:  # not a literal
                    return None
        return None

    return sorted(call.lineno for call in _lapack_calls(ast.parse(source)).values()
                  if call.args and getattr(call.args[0], "value", None) == "matrix_power"
                  and exponent(call) != -1)


def test_matrix_power_only_inverts():
    assert {path.name: lines for path in SOURCES
            if (lines := _powers_not_inverses(path.read_text()))} == {}
    source = ("lapack('matrix_power', a, 'T', n=-1)\nlapack('matrix_power', a, 'T', n=2)\n"
              "linalg.lapack('matrix_power', a, 'T', n=int(p))\nlapack('matrix_power', a, 'T')\n")
    assert _powers_not_inverses(source) == [2, 3, 4]
