"""Conditional expectation on finite measure spaces, and the weighted
conditional type operators built from it.

A space is a finite list of atoms with positive masses; a sub-sigma-algebra
is a partition of the atoms into blocks.  The conditional expectation E
averages over each block with the masses as weights, which makes it the
orthogonal projection of L2 onto the blockwise-constant functions.  The
operator under study sends f to w * E(u f) for weight functions w, u.
In the orthonormal atom basis e_i / sqrt(mass_i), E = sum_b v_b v_b*, v_b
the unit block indicators, so T is the direct sum of the rank-one
T_b = x_b y_b*, x_b = W v_b and y_b = U* v_b (Herron, "Weighted
conditional expectation operators", Oper. Matrices 5, 2011).  One
Gram-Schmidt step writes x_b and y_b in an orthonormal basis of their span
as a_b = (sqrt p, 0) and c_b = (conj(g) / sqrt p, sqrt h), from the block
means p = E|w|^2, g = E(uw) and h = E|u - (g/p) conj(w)|^2 (g/p read as 0
where p = 0).  So T is unitarily T_c (+) 0, with the 2B x 2B
T_c = (+)_b a_b c_b* = (+)_b [[g_b, sqrt(p_b) sqrt(h_b)], [0, 0]].  h is a
mean of its own, not q - |g|^2 / p with q = E|u|^2: the root of that
cancellation errs by about sqrt(eps q).  Norms, spectra and class
memberships are the same for X_c (+) 0 as for X_c.  The class criteria test
T_c; every other Section 3 matrix (T, the Lemma 3.1 sides, the polar
factors: alpha_b l_b r_b*, l and r in {a, c}) is held as its (B, 2, 2)
stack of blocks, multiplied, powered and diagonalized blockwise, and
||(+)_b X_b|| = max_b ||X_b|| gives all norms of a check from one batched
SVD.  Cuts stay global: an eigenvalue is 0 against the largest of any block.

The properties (i)-(v) of E in Section 1 (check_E_properties) are measured
on block means too; only the module identity reads the blockwise-constant
g atom by atom.  Every other side is constant on a block, so its largest
violation over the atoms is the one over the blocks.

The *_check functions re-derive the blockwise formulas for powers, norm,
polar factors and class criteria of that operator and compare them with
direct matrix computation on the blocks.  Checks are
reporting-first: each returns the measured evidence, and only
implications with an actual proof behind them are asserted by callers.
"""

import contextlib
import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import linalg, posinormal
from .errors import ValidationError
from .linalg import DEFAULT_TOL, SUPPORT_RTOL
from .posinormal import ClassQuery


def _sequence(value, where: str) -> tuple:
    """tuple(value); ValidationError naming ``where`` when it is not a
    sequence: not iterable, or a str or a dict (a JSON object)."""
    if not isinstance(value, (str, bytes, dict)):
        with contextlib.suppress(TypeError):
            return tuple(value)
    raise ValidationError(f"{where} is not a sequence")


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Atoms with positive masses; labels are cosmetic identifiers.  The
    one mass rule: a mass that is not finite and > 0 is a ValidationError
    naming the first such atom, as atoms[i].mass."""

    masses: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, masses, labels=None):
        m = linalg.as_array(masses, float, "masses")
        if m.ndim != 1 or m.size < 1:
            raise ValidationError("masses must be a nonempty 1-D array")
        bad = ~(np.isfinite(m) & (m > 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(f"atoms[{i}].mass: must be finite and > 0, got {float(m[i])!r}")
        if labels is None:
            labels = tuple(f"a{i}" for i in range(m.size))
        labels = tuple(map(str, _sequence(labels, "labels")))
        if len(labels) != m.size:
            raise ValidationError(f"got {len(labels)} labels for {m.size} atoms")
        object.__setattr__(self, "masses", m)
        object.__setattr__(self, "labels", labels)

    @property
    def atom_count(self) -> int:
        return int(self.masses.size)


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint nonempty blocks of atom indices covering all atoms;
    ``labels`` maps each atom to the number of its block.  The one partition
    rule: a defect is a ValidationError naming its first place (_first_defect)."""

    blocks: tuple[tuple[int, ...], ...]
    atom_count: int
    labels: np.ndarray = field(repr=False, compare=False)

    def __init__(self, blocks, atom_count: int):
        if not linalg.is_integer(atom_count) or atom_count < 1:
            raise ValidationError(
                f"partition: atom count {atom_count!r} is not a positive integer")
        blocks = tuple(_sequence(b, f"partition[{bi}]")
                       for bi, b in enumerate(_sequence(blocks, "partition")))
        sizes = [len(b) for b in blocks]
        flat = tuple(itertools.chain.from_iterable(blocks))
        counts = None
        # By type, one index of each: as an array, [True, 0] reads as integers.
        if all(map(linalg.is_integer, dict(zip(map(type, flat), flat)).values())):
            with contextlib.suppress(OverflowError, ValueError):  # beyond intp, or negative
                atoms = np.array(flat, dtype=np.intp)
                counts = np.bincount(atoms, minlength=atom_count)
        if counts is None or counts.size > atom_count or 0 in sizes or (counts != 1).any():
            raise ValidationError(_first_defect(blocks, atom_count))
        ends = list(itertools.accumulate(sizes))
        ints = atoms.tolist()
        object.__setattr__(self, "blocks", tuple(
            tuple(ints[start:end]) for start, end in zip([0] + ends, ends)))
        object.__setattr__(self, "atom_count", int(atom_count))
        labels = np.empty(atom_count, dtype=np.intp)
        labels[atoms] = np.repeat(np.arange(len(sizes)), sizes)
        object.__setattr__(self, "labels", labels)

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def _first_defect(blocks: tuple, atom_count: int) -> str:
    """The message for the first defect of a partition, in document order."""
    seen = set()
    for bi, block in enumerate(blocks):
        if not block:
            return f"partition[{bi}] is empty"
        for pos, i in enumerate(block):
            where = f"partition[{bi}][{pos}]"
            if not linalg.is_integer(i):
                return f"{where} holds {i!r}, not an atom index"
            if not 0 <= i < atom_count:
                return f"{where} references atom {i}, valid range is 0..{atom_count - 1}"
            if i in seen:
                return f"{where}: atom {i} appears in two blocks"
            seen.add(i)
    return f"partition does not cover atoms {sorted(set(range(atom_count)) - seen)}"


def as_function(values, space: FiniteMeasureSpace) -> np.ndarray:
    """Coerce to a finite complex function on the atoms of ``space``."""
    f = linalg.as_array(values, complex, "function")
    if f.shape != (space.atom_count,):
        raise ValidationError(f"function has shape {f.shape}, expected ({space.atom_count},)")
    if not np.all(np.isfinite(f)):
        raise ValidationError("function values must be finite")
    return f


def _check_compatible(space: FiniteMeasureSpace, partition: BlockPartition):
    if partition.atom_count != space.atom_count:
        raise ValidationError(
            f"partition is over {partition.atom_count} atoms, "
            f"space has {space.atom_count}"
        )


def block_expectations(space: FiniteMeasureSpace, partition: BlockPartition,
                       f) -> np.ndarray:
    """Mass-weighted mean of f on each block, in block order."""
    _check_compatible(space, partition)
    return _block_means(space, partition)(as_function(f, space), "E(f)")


def _block_means(space: FiniteMeasureSpace, partition: BlockPartition):
    """(f, what) -> the mass-weighted block means of f, by np.bincount over
    the block masses, summed once; a real f takes one bincount and has real
    means.  NumericalFailure "<what> overflows" when a mean is not finite."""
    labels, count = partition.labels, partition.block_count
    inverse = 1.0 / np.bincount(labels, space.masses, count)

    def means(f: np.ndarray, what: str) -> np.ndarray:
        weighted = space.masses * f
        if np.isrealobj(weighted):
            sums = np.bincount(labels, weighted, count)
        else:
            sums = (np.bincount(labels, weighted.real, count)
                    + 1j * np.bincount(labels, weighted.imag, count))
        return linalg.require_finite(sums * inverse, what)
    return means


def expand_blockwise(partition: BlockPartition, block_values) -> np.ndarray:
    """Atomwise function taking block_values[b] on block b."""
    vals = linalg.as_array(block_values, complex, "block values")
    if vals.shape != (partition.block_count,):
        raise ValidationError(
            f"expected {partition.block_count} block values, got {vals.shape}")
    return vals[partition.labels]


def support_mask(values) -> np.ndarray:
    """Entries counted as nonzero: |v| > SUPPORT_RTOL * max|v|."""
    return linalg.significant(values, SUPPORT_RTOL)


def _masked_ratio(num, den, mask) -> np.ndarray:
    """num / den where mask holds, 0 elsewhere (the chi convention)."""
    shape = np.broadcast_shapes(np.shape(num), np.shape(den), np.shape(mask))
    out = np.zeros(shape, dtype=np.result_type(num, den, float))
    np.divide(num, den, out=out, where=mask)
    return out


def _masked_pow(base, expo, mask) -> np.ndarray:
    """base ** expo where mask holds, 0 elsewhere (the chi convention)."""
    out = np.zeros_like(np.asarray(base, dtype=float))
    np.power(base, expo, out=out, where=mask)
    return out


def _blockwise(big, small, mask: np.ndarray, what: str) -> tuple[bool, np.ndarray]:
    """Blockwise big >= small: the margins big - small, and whether every
    masked block has margin >= -DEFAULT_TOL * scale, scale the largest
    |big| or |small| over all blocks.  NumericalFailure when a side of
    ``what`` overflowed; callers compute the sides under quiet_overflow."""
    linalg.require_finite(big, f"{what} left side")
    linalg.require_finite(small, f"{what} right side")
    margins = big - small
    scale = float(max(np.max(np.abs(big), initial=0.0),
                      np.max(np.abs(small), initial=0.0)))
    holds = not mask.any() or bool(np.min(margins[mask]) >= -DEFAULT_TOL * scale)
    return holds, margins


@dataclass(frozen=True)
class PropertyResult:
    name: str
    applicable: bool
    passed: bool
    max_violation: float


@dataclass(frozen=True)
class PropertyReport:
    results: tuple[PropertyResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results if r.applicable)


@linalg.quiet_overflow
def check_E_properties(space: FiniteMeasureSpace, partition: BlockPartition,
                       f, g) -> PropertyReport:
    """Evaluate the textbook properties of E on concrete data.

    (module)   E(g f) = g E(f) for blockwise-constant g
    (positive) f >= 0 implies E(f) >= 0 (skipped unless |Im f| and
               max(0, -Re f) are at most DEFAULT_TOL * max|f|)
    (modulus)  |E(f)|^2 <= E(|f|^2)
    (hoelder)  |E(f g)| <= E(|f|^2)^{1/2} E(|g|^2)^{1/2}
    (jensen)   E(Re f)^2 <= E((Re f)^2)

    ``g`` must be blockwise constant (it stands in for the coarser
    algebra's functions).  Every side but g is constant on a block, so
    the properties are measured on block means; positivity, modulus,
    Hoelder and Jensen are decided by _blockwise, and the module identity
    within DEFAULT_TOL * max|g| max|f|; g is blockwise constant within
    DEFAULT_TOL * max|g|.  NumericalFailure when a mean overflows.
    """
    _check_compatible(space, partition)
    f = as_function(f, space)
    g = as_function(g, space)
    labels, mean = partition.labels, _block_means(space, partition)
    g_max, f_max = float(np.max(np.abs(g))), float(np.max(np.abs(f)))
    if np.max(np.abs(g - mean(g, "E(g)")[labels])) > DEFAULT_TOL * g_max:
        raise ValidationError("g must be blockwise constant for the module property")
    e_f, e_f2 = mean(f, "E(f)"), mean(np.abs(f) ** 2, "E|f|^2")
    e_gf, e_g2 = mean(g * f, "E(gf)"), mean(np.abs(g) ** 2, "E|g|^2")
    e_re, e_re2 = mean(f.real, "E(Re f)"), mean(f.real ** 2, "E((Re f)^2)")

    module = float(np.max(linalg.require_finite(np.abs(e_gf[labels] - g * e_f[labels]),
                                                "module identity")))
    results = [PropertyResult("module", True, module <= DEFAULT_TOL * g_max * f_max, module)]
    every = np.ones(partition.block_count, dtype=bool)
    slack = DEFAULT_TOL * f_max
    if np.max(np.abs(f.imag)) <= slack and np.min(f.real) >= -slack:
        holds, margins = _blockwise(e_f.real, 0.0, every, "positive")
        results.append(PropertyResult("positive", True, holds,
                                      max(0.0, -float(margins.min()))))
    else:
        results.append(PropertyResult("positive", False, True, 0.0))
    for name, big, small in (("modulus", e_f2, np.abs(e_f) ** 2),
                             ("hoelder", np.sqrt(e_f2) * np.sqrt(e_g2), np.abs(e_gf)),
                             ("jensen", e_re2, e_re ** 2)):
        holds, margins = _blockwise(big, small, every, name)
        # max(small - big), +0.0 and not -0.0 where the sides are equal
        results.append(PropertyResult(name, True, holds, 0.0 - float(margins.min())))
    return PropertyReport(results=tuple(results))


@dataclass(frozen=True)
class WeightedConditionalOperator:
    """T: f -> w * E(u f), kept as T_c (module docstring): row b of ``a``
    and ``c`` holds a_b and c_b, and ``compressed`` is T_c = (+)_b a_b c_b*,
    block b in rows and columns 2b and 2b + 1.
    """

    space: FiniteMeasureSpace
    partition: BlockPartition
    w: np.ndarray
    u: np.ndarray
    compressed: np.ndarray
    a: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)

    # blockwise expectations used by every criterion; precomputed once
    e_w2: np.ndarray = field(repr=False)
    e_u2: np.ndarray = field(repr=False)
    e_w: np.ndarray = field(repr=False)
    e_u: np.ndarray = field(repr=False)
    e_uw: np.ndarray = field(repr=False)


@linalg.quiet_overflow
def build_operator(space: FiniteMeasureSpace, partition: BlockPartition,
                   w, u) -> WeightedConditionalOperator:
    """Compress f -> w E(u f) to T_c from its block means; NumericalFailure
    when T_c or a blockwise expectation overflows."""
    _check_compatible(space, partition)
    w = as_function(w, space)
    u = as_function(u, space)
    mean = _block_means(space, partition)
    p = mean(np.abs(w) ** 2, "E|w|^2")
    g = mean(u * w, "E(uw)")
    live = p > 0.0  # x_b = 0 elsewhere, and g/p reads as 0
    ratio = _masked_ratio(g, p, live)[partition.labels]
    h = mean(np.abs(u - ratio * np.conj(w)) ** 2, "E|u - (g/p) conj(w)|^2")
    root_p = np.sqrt(p)
    a = np.stack([root_p, np.zeros_like(p)], axis=1)
    c = np.stack([_masked_ratio(np.conj(g), root_p, live), np.sqrt(h)], axis=1)
    count = partition.block_count  # T_c, scattered from its stack of blocks
    t_c = np.zeros((count, 2, count, 2), dtype=complex)
    t_c[np.arange(count), :, np.arange(count), :] = _blocks(1.0, a, c)
    return WeightedConditionalOperator(
        space=space, partition=partition, w=w, u=u,
        compressed=linalg.require_finite(t_c.reshape(2 * count, -1), "T = M_w E M_u"),
        a=a, c=c, e_w2=p, e_u2=mean(np.abs(u) ** 2, "E|u|^2"),
        e_w=mean(w, "E(w)"), e_u=mean(u, "E(u)"), e_uw=g,
    )


def _blocks(alpha, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The (B, 2, 2) stack of alpha_b left_b right_b*, for B x 2 arrays left
    and right and a scalar or B-vector alpha."""
    return (np.asarray(alpha)[..., None, None]
            * left[:, :, None] * right.conj()[:, None, :])


def _adjoint(x: np.ndarray) -> np.ndarray:
    """X_b* for every block X_b of a stack."""
    return x.conj().swapaxes(-1, -2)


def _norms(what: str, *stacks: np.ndarray) -> list[float]:
    """||(+)_b X_b|| = max_b ||X_b|| for each stack of B blocks, from one
    batched SVD of all their blocks; NumericalFailure "<what> overflows"
    when a block is not finite."""
    values = linalg.lapack("svd", np.concatenate(stacks), what, compute_uv=False)
    return values.reshape(len(stacks), -1).max(axis=1).tolist()


@dataclass(frozen=True)
class NormFormulaReport:
    matrix_norm: float
    blockwise_norm: float
    deviation: float
    passed: bool


@linalg.quiet_overflow
def norm_formula_check(op: WeightedConditionalOperator) -> NormFormulaReport:
    """Compare ||T|| with max over blocks of sqrt(E|w|^2 * E|u|^2); passed
    when they differ by at most DEFAULT_TOL * ||T||."""
    matrix_norm = _norms("T", _blocks(1.0, op.a, op.c))[0]
    blockwise = float(linalg.require_finite(np.sqrt(np.max(op.e_w2 * op.e_u2)),
                                            "blockwise norm"))
    dev = abs(matrix_norm - blockwise)
    return NormFormulaReport(
        matrix_norm=matrix_norm,
        blockwise_norm=blockwise,
        deviation=dev,
        passed=dev <= DEFAULT_TOL * matrix_norm,
    )


def _hermitian_power(h: np.ndarray, m) -> np.ndarray:
    """H_b^m for a stack of Hermitian PSD H_b: integer m by repeated product,
    real m > 0 by a batched eigh; eigenvalues not linalg.significant at
    DEFAULT_TOL over all blocks count as 0 (chi: rounding is not powered)."""
    if linalg.is_integer(m):
        return linalg.lapack("matrix_power", h, "Lemma 3.1 Gram", n=int(m))
    w, v = linalg.lapack("eigh", linalg.symmetrize(h), "Lemma 3.1 Gram")
    powered = _masked_pow(w, float(m), linalg.significant(w, DEFAULT_TOL))
    return (v * powered[:, None, :]) @ _adjoint(v)


@dataclass(frozen=True)
class PowerIdentityReport:
    power: float
    deviation_t_star_t: float
    deviation_t_t_star: float
    passed: bool


@linalg.quiet_overflow
def lemma31_check(op: WeightedConditionalOperator, m) -> PowerIdentityReport:
    """Blockwise closed forms of (T*T)^m and (TT*)^m against matrix powers.

    (T*T)^m = M_{conj(u) (E|u|^2)^{m-1} chi_S (E|w|^2)^m} E M_u
    (TT*)^m = M_{w (E|w|^2)^{m-1} chi_G (E|u|^2)^m} E M_conj(w)

    with S, G the supports of E|u|^2 and E|w|^2.  Powers of the blockwise
    expectations follow the chi convention: off the support everything is
    0, so negative powers of vanishing blocks never occur.  A deviation is
    ||lhs - closed form|| / ||lhs||, 0 when both vanish; passed: both <= DEFAULT_TOL.
    """
    if (isinstance(m, bool) or not isinstance(m, numbers.Real)
            or not np.isfinite(m) or m <= 0):
        raise ValidationError(f"power m must be a finite real > 0, got {m!r}")
    ew2, eu2 = op.e_w2, op.e_u2

    def sides(side, ex, ey, gram) -> tuple:
        """(gram)^m - (+)_b (ex)^{m-1} chi (ey)^m side_b side_b*, and (gram)^m."""
        alpha = _masked_pow(ex, float(m) - 1.0, support_mask(ex)) * ey ** float(m)
        lhs = _hermitian_power(gram, m)
        return lhs - _blocks(alpha, side, side), lhs

    t = _blocks(1.0, op.a, op.c)
    diff1, lhs1, diff2, lhs2 = _norms("Lemma 3.1 power",
                                      *sides(op.c, eu2, ew2, _adjoint(t) @ t),
                                      *sides(op.a, ew2, eu2, t @ _adjoint(t)))
    dev1, dev2 = (float(np.divide(diff, lhs)) if diff else 0.0
                  for diff, lhs in ((diff1, lhs1), (diff2, lhs2)))
    return PowerIdentityReport(
        power=float(m),
        deviation_t_star_t=dev1,
        deviation_t_t_star=dev2,
        passed=max(dev1, dev2) <= DEFAULT_TOL,
    )


@dataclass(frozen=True)
class PolarReport:
    factor_residual: float          # ||U |T| - T||
    modulus_min_eigenvalue: float   # smallest eigenvalue of |T|
    modulus_squared_residual: float  # || |T|^2 - T*T ||
    partial_isometry_residual: float  # ||U*U - projector onto range |T|}||
    passed: bool


@linalg.quiet_overflow
def polar_decomposition_check(op: WeightedConditionalOperator) -> PolarReport:
    """Verify the closed-form polar factors of the weighted operator.

    |T| f = (E|w|^2 / E|u|^2)^{1/2} chi_S conj(u) E(u f)
     U f  = (chi_{S and G} / (E|w|^2 E|u|^2))^{1/2} w E(u f)

    Checks: U |T| reassembles T; |T| is PSD and squares to T*T; U*U is the
    orthogonal projector onto the range of |T| (U is a partial isometry).
    |T| = (+)_b m_b c_b c_b* with m_b >= 0 is Hermitian by construction, so one
    batched eigh of its blocks, with no asymmetry test, gives both its smallest
    eigenvalue and its range: the eigenvectors of the significant eigenvalues.
    Each is within DEFAULT_TOL times its scale: ||T|| for U|T| - T, ||T||^2
    for |T|^2 - T*T, max|eig| for |T|'s eigenvalues, 1 for U*U - P (no scale).
    """
    t, ew2, eu2 = _blocks(1.0, op.a, op.c), op.e_w2, op.e_u2
    chi_s, chi_g = support_mask(eu2), support_mask(ew2)
    modulus = _blocks(np.sqrt(_masked_ratio(ew2, eu2, chi_s)), op.c, op.c)
    partial_iso = _blocks(np.sqrt(_masked_ratio(1.0, ew2 * eu2, chi_s & chi_g)),
                          op.a, op.c)
    factor = partial_iso @ modulus - t
    squared = modulus @ modulus - _adjoint(t) @ t
    w, vecs = linalg.lapack("eigh", linalg.symmetrize(modulus), "|T|")
    range_basis = vecs * linalg.significant(w, DEFAULT_TOL)[:, None, :]
    iso = _adjoint(partial_iso) @ partial_iso - range_basis @ _adjoint(range_basis)
    t_norm, factor_residual, sq_residual, iso_residual = _norms(
        "polar residual", t, factor, squared, iso)
    return PolarReport(
        factor_residual=factor_residual,
        modulus_min_eigenvalue=float(w.min()),
        modulus_squared_residual=sq_residual,
        partial_isometry_residual=iso_residual,
        passed=bool(
            factor_residual <= DEFAULT_TOL * t_norm
            and w.min() >= -DEFAULT_TOL * np.max(np.abs(w))
            and sq_residual <= DEFAULT_TOL * t_norm ** 2
            and iso_residual <= DEFAULT_TOL
        ),
    )


@dataclass(frozen=True)
class PosinormalCriterionReport:
    """Blockwise posinormality criterion vs the direct matrix test.

    The equivalence is only claimed when the supports of E|u|^2 and E(u)
    coincide; otherwise ``supports_match`` is False and only the necessary
    inequality (evaluated on the support of E(u)) is reported.
    """

    lam: float
    supports_match: bool
    blockwise_holds: bool
    matrix_holds: bool
    agree: bool | None
    block_margins: np.ndarray


@linalg.quiet_overflow
def thm33_check(op: WeightedConditionalOperator, lam: float) -> PosinormalCriterionReport:
    """Blockwise lam^2 E|w|^2 |E u|^2 >= E|u|^2 |E w|^2 vs posinormality."""
    query = ClassQuery(k=0, n=1, lam=lam)
    s_prime = support_mask(op.e_u)
    supports_match = bool(np.array_equal(support_mask(op.e_u2), s_prime))
    blockwise, margins = _blockwise(query.lam ** 2 * op.e_w2 * np.abs(op.e_u) ** 2,
                                    op.e_u2 * np.abs(op.e_w) ** 2, s_prime,
                                    "Theorem 3.3")
    matrix_holds = posinormal.is_member(op.compressed, query).holds
    return PosinormalCriterionReport(
        lam=query.lam,
        supports_match=supports_match,
        blockwise_holds=blockwise,
        matrix_holds=matrix_holds,
        agree=(blockwise == matrix_holds) if supports_match else None,
        block_margins=margins,
    )


@dataclass(frozen=True)
class NPowerCriterionReport:
    """Blockwise n-power criterion vs the direct matrix test.

    Membership of the matrix implies the blockwise inequality (the
    necessity direction proved by plugging indicator functions in);
    ``necessity_ok`` records that implication on this data.
    """

    n: int
    lam: float
    blockwise_holds: bool
    matrix_holds: bool
    necessity_ok: bool
    block_margins: np.ndarray


@linalg.quiet_overflow
def thm34_check(op: WeightedConditionalOperator, n: int, lam: float) -> NPowerCriterionReport:
    """lam^2 E|w|^2 |E u|^2 >= |E(uw)|^{2n} (E|u|^2 / (E|w|^2)^n) |E w|^2.
    With (w, u) scaled by s and lam by s^(2(n-1)), as T's class scales, the
    left side has degree 4n in s and the right 2n + 4: they agree at n = 2 only."""
    query = ClassQuery(k=0, n=n, lam=lam)
    chi_g = support_mask(op.e_w2)
    blockwise, margins = _blockwise(
        query.lam ** 2 * op.e_w2 * np.abs(op.e_u) ** 2,
        (np.abs(op.e_uw) ** (2 * n)
         * _masked_ratio(op.e_u2, op.e_w2 ** n, chi_g).real
         * np.abs(op.e_w) ** 2),
        np.ones_like(chi_g), "Theorem 3.4")
    matrix_holds = posinormal.is_member(op.compressed, query).holds
    return NPowerCriterionReport(
        n=n,
        lam=query.lam,
        blockwise_holds=blockwise,
        matrix_holds=matrix_holds,
        necessity_ok=(not matrix_holds) or blockwise,
        block_margins=margins,
    )


@dataclass(frozen=True)
class QuasiCriterionReport:
    """Three verdicts around the quasi-class criterion, none cross-asserted.

    ``stated_holds``: |E(uw)|^{2k+2} <= lam^2 (E|u|^2)^{2n-1} (E|w|^2)^{2kn-1}
    ``proof_form_holds``: the inequality actually displayed inside the
    source derivation, with exponent 2k+n-1 and a square-root factor
    ``matrix_holds``: the direct gap test on the compression T_c

    Disagreements between the three are findings, not failures.
    """

    k: int
    n: int
    lam: float
    stated_holds: bool
    proof_form_holds: bool
    matrix_holds: bool
    stated_margins: np.ndarray
    proof_margins: np.ndarray

    @property
    def all_agree(self) -> bool:
        return self.stated_holds == self.proof_form_holds == self.matrix_holds


@linalg.quiet_overflow
def thm35_check(op: WeightedConditionalOperator, k: int, n: int,
                lam: float) -> QuasiCriterionReport:
    """Evaluate both printed forms of the quasi-class criterion and the
    matrix gap test on the same data.  Scaled as in thm34_check, neither
    form is homogeneous (stated: degree 8n + 4kn - 8 left, 4k + 4 right;
    proof form: 4n + 4k and 4k + n + 2), so their verdicts depend on the scale."""
    query = ClassQuery(k=k, n=n, lam=lam)
    chi_s = support_mask(op.e_u2)
    chi_g = support_mask(op.e_w2)
    every = np.ones_like(chi_g)

    # Stated criterion; the 2kn-1 exponent goes negative for k = 0, where
    # the chi convention zeroes vanishing blocks instead of dividing.
    stated, margins_a = _blockwise(
        (query.lam ** 2 * op.e_u2 ** (2 * n - 1)
         * _masked_pow(op.e_w2, 2 * k * n - 1, chi_g)),
        np.abs(op.e_uw) ** (2 * k + 2), every, "Theorem 3.5 stated")

    # Inner display of the derivation, as printed.
    proof_form, margins_b = _blockwise(
        query.lam ** 2 * op.e_u2 * op.e_w2 ** (2 * k) * np.abs(op.e_u) ** 2,
        (np.abs(op.e_uw) ** (2 * k + n - 1)
         * np.sqrt(_masked_pow(op.e_u2, 1.0, chi_s)
                   * _masked_ratio(1.0, op.e_w2 ** (n - 1), chi_g).real)
         * chi_g * np.abs(op.e_w) ** 2),
        every, "Theorem 3.5 proof form")

    matrix_holds = posinormal.is_member(op.compressed, query).holds
    return QuasiCriterionReport(
        k=k, n=n, lam=query.lam,
        stated_holds=stated,
        proof_form_holds=proof_form,
        matrix_holds=matrix_holds,
        stated_margins=margins_a,
        proof_margins=margins_b,
    )

