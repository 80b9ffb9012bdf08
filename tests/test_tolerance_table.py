"""Every fixed tolerance of posilab is an entry of the one table in
linalg.py: no module keeps a value of its own, and no algorithm writes a
small float literal in place of a named entry.

A float constant with 0 < x < 1e-5 anywhere in src/posilab is flagged
unless it is the value of a table entry.  Docstrings and comments are
strings, not float constants, so a value they mention is not flagged.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "posilab").glob("*.py"))

# The table's entries.  Adding one means adding its name here on purpose.
TABLE = {"DEFAULT_TOL", "RESIDUAL_TOL", "AGREE_TOL", "REPORT_TOL"}


def _is_small_float(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < node.value < 1e-5)


def _table_entries(tree) -> dict:
    """Module-level NAME = <small float> assignments: name -> value node."""
    return {statement.targets[0].id: statement.value
            for statement in tree.body
            if isinstance(statement, ast.Assign) and len(statement.targets) == 1
            and isinstance(statement.targets[0], ast.Name)
            and _is_small_float(statement.value)}


def test_the_table_is_in_linalg_and_has_the_known_entries():
    for path in SOURCES:
        entries = _table_entries(ast.parse(path.read_text()))
        assert set(entries) == (TABLE if path.name == "linalg.py" else set()), path.name


def test_no_small_float_literal_outside_the_table():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        allowed = set(map(id, _table_entries(tree).values())) if path.name == "linalg.py" else set()
        found += [f"{path.name}:{node.lineno}: {node.value!r}"
                  for node in ast.walk(tree)
                  if _is_small_float(node) and id(node) not in allowed]
    assert found == []


def test_significant_is_called_only_by_the_ladder_and_support_mask():
    """posilab has one zero rule: linalg.significant, the cut
    |v| > DEFAULT_TOL * scale, is called in src/posilab only by the range
    ladder's rung, at ||S||, and by condexp.support_mask, at the largest
    value of its kind."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = {}  # node -> the name of the function it is in (ast.walk is breadth first)
        for node in ast.walk(tree):
            name = node.name if isinstance(node, ast.FunctionDef) else owner.get(node)
            owner.update(dict.fromkeys(ast.iter_child_nodes(node), name))
        found += [(path.stem, owner[node], [ast.unparse(a) for a in node.args],
                   [ast.unparse(k) for k in node.keywords])
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "significant" in (
                      getattr(node.func, "attr", None), getattr(node.func, "id", None))]
    assert found == [("condexp", "support_mask",
                      ["values", "np.abs(values).max(initial=0.0)"], []),
                     ("posinormal", "_rung", ["sv", "top"], [])]
