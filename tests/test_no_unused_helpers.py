"""Every module-level function, class and constant of posilab, private
ones too, has a caller, every public method and property of its classes is
read, and the number of defaulted parameters does not grow.

A definition counts as used when some other top-level statement refers to
it: inside its own module by name, elsewhere through ``from .module import
name`` or ``module.name`` with ``module`` bound to the posilab module.  The
callers searched are src/posilab (the re-exports of __init__.py do not
count) and the benchmark in posibench/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "posilab").glob("*.py")
                 if p.name != "__init__.py")
CALLERS = SOURCES + sorted((ROOT / "posibench").glob("*.py"))


def _posilab_module(dotted: str | None, level: int) -> str | None:
    """The posilab module an import names: ".x" or "posilab.x" -> "x",
    "." or "posilab" -> "" (the package itself), anything else None."""
    dotted = dotted or ""
    if level == 1:
        return dotted
    if level == 0 and (dotted == "posilab" or dotted.startswith("posilab.")):
        return dotted[len("posilab."):]
    return None


def _defined_names(statement) -> set:
    """Names a top-level statement defines: a function, a class, or the
    names an assignment binds (a module-level constant)."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return {statement.name}
    if isinstance(statement, (ast.Assign, ast.AnnAssign)):
        targets = statement.targets if isinstance(statement, ast.Assign) else [statement.target]
        return {node.id for target in targets for node in ast.walk(target)
                if isinstance(node, ast.Name)}
    return set()


def _references(path: Path) -> set:
    """(module, name) pairs that the top-level statements of a file use."""
    tree = ast.parse(path.read_text())
    own = path.stem if path in SOURCES else None
    modules, members = {}, {}  # local name -> module, -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = _posilab_module(node.module, node.level)
            for alias in node.names if source is not None else ():
                local = alias.asname or alias.name
                if source == "":
                    modules[local] = alias.name
                else:
                    members[local] = (source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                source = _posilab_module(alias.name, 0)
                if source and alias.asname:
                    modules[alias.asname] = source
    defined = set().union(*map(_defined_names, tree.body))
    used = set()
    for statement in tree.body:
        found = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                if node.id in members:
                    found.add(members[node.id])
                elif node.id in defined:
                    found.add((own, node.id))
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules):
                found.add((modules[node.value.id], node.attr))
        # Recursion is not a caller, nor is the assignment that binds a name.
        used |= found - {(own, name) for name in _defined_names(statement)}
    return used


def test_every_helper_has_a_caller():
    used = set().union(*(_references(path) for path in CALLERS))
    defined = {(path.stem, name)
               for path in SOURCES
               for statement in ast.parse(path.read_text()).body
               for name in _defined_names(statement)}
    assert sorted(defined - used) == []


def test_every_public_method_and_property_is_read():
    """A method or property counts as read when some attribute access of
    that name (``x.name``, ``self.name``) appears in the callers.  Dunder
    methods are left out: Python calls them without naming them."""
    read = {node.attr
            for path in CALLERS
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    members = {f"{path.stem}.{cls.name}.{item.name}"
               for path in SOURCES
               for cls in ast.parse(path.read_text()).body
               if isinstance(cls, ast.ClassDef)
               for item in cls.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}
    assert sorted(m for m in members if m.rsplit(".", 1)[1] not in read) == []


# Defaulted parameters over every function of src/posilab (methods and
# nested functions included): each is an option a caller may set.  Adding
# one means raising this number on purpose.
MAX_DEFAULTED = 6


def test_defaulted_parameters_do_not_grow():
    counted = []
    for path in sorted((ROOT / "src" / "posilab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count = (len(args.defaults)
                         + sum(d is not None for d in args.kw_defaults))
                counted += [f"{path.stem}.{getattr(node, 'name', 'lambda')}"] * count
    assert len(counted) <= MAX_DEFAULTED, sorted(counted)


# State that lives as long as the process: functions and methods under a
# functools.cache or lru_cache decorator, and module-level names bound to
# None (a slot that code fills later) or to a cache.  A cache made inside a
# function call dies with that call's objects and is not listed.  Adding one
# means adding its name here on purpose.
PROCESS_CACHES = {"cli.build_parser", "posinormal._slot"}


def _is_cache(node) -> bool:
    """cache or lru_cache, bare or as an attribute, called or not."""
    while isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in {"cache", "lru_cache"}


def test_process_level_caches_are_the_known_ones():
    found = set()
    for path in sorted((ROOT / "src" / "posilab").glob("*.py")):
        body = ast.parse(path.read_text()).body
        functions = [(path.stem, node) for node in body]
        functions += [(f"{path.stem}.{cls.name}", node) for cls in body
                      if isinstance(cls, ast.ClassDef) for node in cls.body]
        for owner, node in functions:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and any(map(_is_cache, node.decorator_list))):
                found.add(f"{owner}.{node.name}")
        for node in body:
            value = getattr(node, "value", None) if isinstance(
                node, (ast.Assign, ast.AnnAssign)) else None
            if value is not None and (_is_cache(value) or (
                    isinstance(value, ast.Constant) and value.value is None)):
                found |= {f"{path.stem}.{name}" for name in _defined_names(node)}
    assert found == PROCESS_CACHES
