"""On-disk document formats for matrices and measure spaces.

One load and one dump per format: ``load_matrix(path)`` and
``dumps_matrix(m)`` for a matrix, ``load_space(path)`` and
``dumps_space(space, partition, w, u)`` for a measure space.

Both formats are JSON.  A matrix document carries ``dim_rows``,
``dim_cols`` and ``entries`` (rows of [real, imaginary] pairs); a
measure-space document carries ``atoms`` ({mass, label} records),
``partition`` (blocks of atom indices) and the weight functions ``w``
and ``u`` as [real, imaginary] pairs.  Values parse as 64-bit floats;
serialization uses repr so load -> dumps -> load is the identity.

All validation failures raise FileFormatError naming the offending field
and index.
"""

import json
from pathlib import Path

import numpy as np

from .condexp import BlockPartition, FiniteMeasureSpace, as_function
from .errors import FileFormatError
from .linalg import as_matrix, is_integer


def _require(doc: dict, name: str):
    if not isinstance(doc, dict):
        raise FileFormatError(f"document root: expected an object, got {type(doc).__name__}")
    if name not in doc:
        raise FileFormatError(f"{name}: missing required field")
    return doc[name]


def _as_float(value, where: str) -> float:
    """float(value), finite; anything else is a FileFormatError naming
    ``where``: an integer literal beyond the float range (an OverflowError
    in float) and inf or nan (json reads 1e400, Infinity and NaN as such)."""
    try:
        x = float(value)
    except OverflowError:
        x = np.inf
    if not np.isfinite(x):
        raise FileFormatError(f"{where}: not a finite 64-bit float")
    return x


def _as_complex(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                       for x in value)):
        raise FileFormatError(f"{where}: expected a [real, imaginary] pair")
    return complex(_as_float(value[0], where), _as_float(value[1], where))


def _as_positive_int(value, where: str) -> int:
    if not is_integer(value) or value < 1:
        raise FileFormatError(f"{where}: expected a positive integer")
    return value


def _read(path) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"document: not UTF-8 text ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"document: invalid JSON ({exc})") from exc


def _dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in values]


def load_matrix(path) -> np.ndarray:
    doc = _read(path)
    rows = _as_positive_int(_require(doc, "dim_rows"), "dim_rows")
    cols = _as_positive_int(_require(doc, "dim_cols"), "dim_cols")
    entries = _require(doc, "entries")
    if not isinstance(entries, list) or len(entries) != rows:
        raise FileFormatError(f"entries: expected {rows} rows")
    values = []  # row lengths are checked before any array is allocated
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise FileFormatError(f"entries[{i}]: expected {cols} entries")
        values.append([_as_complex(value, f"entries[{i}][{j}]")
                       for j, value in enumerate(row)])
    return as_matrix(values)


def dumps_matrix(m) -> str:
    m = as_matrix(m)
    return _dumps({
        "dim_rows": int(m.shape[0]),
        "dim_cols": int(m.shape[1]),
        "entries": [_pairs(row) for row in m],
    })


def load_space(path):
    """Parse (space, partition, w, u) from a measure-space document."""
    doc = _read(path)
    atoms = _require(doc, "atoms")
    if not isinstance(atoms, list) or not atoms:
        raise FileFormatError("atoms: expected a nonempty array")
    masses, labels = [], []
    for i, atom in enumerate(atoms):
        if not isinstance(atom, dict):
            raise FileFormatError(f"atoms[{i}]: expected an object")
        mass = atom.get("mass")
        if not isinstance(mass, (int, float)) or isinstance(mass, bool) or mass <= 0:
            raise FileFormatError(f"atoms[{i}].mass: expected a positive number")
        masses.append(_as_float(mass, f"atoms[{i}].mass"))
        labels.append(str(atom.get("label", f"a{i}")))
    space = FiniteMeasureSpace(masses, labels)

    blocks = _require(doc, "partition")
    if not isinstance(blocks, list) or not blocks:
        raise FileFormatError("partition: expected a nonempty array of blocks")
    for bi, block in enumerate(blocks):
        if not isinstance(block, list) or not block:
            raise FileFormatError(f"partition[{bi}]: expected a nonempty array")
        for pos, idx in enumerate(block):
            if not is_integer(idx):
                raise FileFormatError(f"partition[{bi}][{pos}]: expected an atom index")
    try:
        partition = BlockPartition(blocks, space.atom_count)
    except ValueError as exc:
        raise FileFormatError(f"partition: {exc}") from exc

    functions = []
    for name in ("w", "u"):
        raw = _require(doc, name)
        if not isinstance(raw, list) or len(raw) != space.atom_count:
            raise FileFormatError(
                f"{name}: expected {space.atom_count} [real, imaginary] pairs"
            )
        values = [_as_complex(v, f"{name}[{i}]") for i, v in enumerate(raw)]
        functions.append(as_function(values, space))
    return space, partition, functions[0], functions[1]


def dumps_space(space: FiniteMeasureSpace, partition: BlockPartition,
                w, u) -> str:
    return _dumps({
        "atoms": [
            {"mass": float(mass), "label": label}
            for mass, label in zip(space.masses, space.labels)
        ],
        "partition": [list(block) for block in partition.blocks],
        "w": _pairs(as_function(w, space)),
        "u": _pairs(as_function(u, space)),
    })
