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
and index; the masses' and the partition's are those of
condexp.FiniteMeasureSpace and condexp.BlockPartition, their one rules.
"""

import json
import math
from pathlib import Path

import numpy as np

from .condexp import BlockPartition, FiniteMeasureSpace, as_function
from .errors import FileFormatError, ValidationError
from .linalg import as_matrix, is_integer


def _require(doc: dict, name: str):
    if not isinstance(doc, dict):
        raise FileFormatError(f"document root: expected an object, got {type(doc).__name__}")
    if name not in doc:
        raise FileFormatError(f"{name}: missing required field")
    return doc[name]


def _number(value, where: str, expected: str) -> float:
    """A JSON number (int or float; a bool is neither) as a finite float, else
    FileFormatError "<where>: expected <expected>", or "<where>: not a finite
    64-bit float" for 10^400 (an OverflowError in float), 1e400, Infinity, NaN."""
    if type(value) not in (int, float):
        raise FileFormatError(f"{where}: expected {expected}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise FileFormatError(f"{where}: not a finite 64-bit float")
    return x


def _as_complex(value, where: str) -> complex:
    pair = "a [real, imaginary] pair"
    if not isinstance(value, list) or len(value) != 2:
        raise FileFormatError(f"{where}: expected {pair}")
    return complex(_number(value[0], where, pair), _number(value[1], where, pair))


def _complex_array(raw, where: str, count: int, what: str) -> list[complex]:
    """The ``count`` [real, imaginary] pairs of the array ``raw``, parsed;
    FileFormatError "<where>: expected <count> <what>" when it is not one."""
    if not isinstance(raw, list) or len(raw) != count:
        raise FileFormatError(f"{where}: expected {count} {what}")
    return [_as_complex(value, f"{where}[{i}]") for i, value in enumerate(raw)]


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
    # row lengths are checked before any array is allocated
    return as_matrix([_complex_array(row, f"entries[{i}]", cols, "entries")
                      for i, row in enumerate(entries)])


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
        masses.append(_number(atom.get("mass"), f"atoms[{i}].mass", "a positive number"))
        labels.append(str(atom.get("label", f"a{i}")))
    try:
        space = FiniteMeasureSpace(masses, labels)
        partition = BlockPartition(_require(doc, "partition"), space.atom_count)
    except ValidationError as exc:
        raise FileFormatError(str(exc)) from exc

    w, u = (as_function(_complex_array(_require(doc, name), name, space.atom_count,
                                       "[real, imaginary] pairs"), space)
            for name in ("w", "u"))
    return space, partition, w, u


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
