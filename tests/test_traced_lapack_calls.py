"""Every numpy.linalg routine that src/posilab calls is one the benchmark's
tracer counts, so the per-layer LAPACK counts miss no call.

The tracer's list is read from posibench/tracing.py with ast, without
importing the benchmark.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "posilab").glob("*.py"))


def _traced_functions() -> set:
    tree = ast.parse((ROOT / "posibench" / "tracing.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAPACK_FUNCTIONS" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    raise AssertionError("posibench/tracing.py defines no LAPACK_FUNCTIONS")


def _linalg_calls(path: Path) -> set:
    """(file, line, name) of every np.linalg.<name>(...) or
    numpy.linalg.<name>(...) call in a file."""
    calls = set()
    for node in ast.walk(ast.parse(path.read_text())):
        func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute) and func.value.attr == "linalg"
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id in {"np", "numpy"}):
            calls.add((path.name, node.lineno, func.attr))
    return calls


def test_every_linalg_call_is_traced():
    traced = _traced_functions()
    calls = set().union(*map(_linalg_calls, SOURCES))
    assert {name for _, _, name in calls} >= {"eigh", "eigvalsh", "svd"}
    assert sorted(c for c in calls if c[2] not in traced) == []
