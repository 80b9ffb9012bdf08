"""Claim-by-claim verification of the source article.

Each worked example and numbered statement the package models is one row
of the claim table: its id, its location in the article, the value the
article prints, and a ``compute`` function.  ``compute()`` returns
``(computed, ok)``: the text of what this implementation computes, and
``ok`` True (the recomputation agrees with the printed claim), False (it
contradicts it) or None (no sound cross-implication exists, so the text
is recorded as evidence only).  ``run_claim_suite`` times each compute and
turns the row into a ClaimRecord.  Mismatches are findings, never
failures; several of the article's displayed numbers do not survive
recomputation and the whole point of this harness is to document that
precisely.

The table is built anew on every ``run_claim_suite`` call, and every
compute is, or calls, a module-level ``_claim_*`` function looked up at
that time.  A profiler that replaces ``verify._claim_*`` with timed
wrappers therefore sees one span per claim; a table built at import would
hold the unwrapped functions.

Statuses:
  match           recomputation agrees with the printed claim
  mismatch        recomputation contradicts the printed claim
  not-assertable  no sound cross-implication exists; evidence recorded
"""

import functools
import hashlib
import json
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__, condexp, fileio, fixtures, linalg, posinormal, structure
from .errors import ValidationError
from .linalg import AGREE_TOL, DEFAULT_TOL, REPORT_TOL
from .posinormal import ClassQuery

DEFAULT_SEED = 20250810

MATCH = "match"
MISMATCH = "mismatch"
NOT_ASSERTABLE = "not-assertable"


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    location: str
    expected: str
    computed: str
    status: str


@dataclass(frozen=True)
class RunReport:
    tool_version: str
    seed: int
    input_digests: dict
    claims: tuple[ClaimRecord, ...]
    timings: dict  # claim_id -> seconds

    @property
    def counts(self) -> dict:
        out = {MATCH: 0, MISMATCH: 0, NOT_ASSERTABLE: 0}
        for c in self.claims:
            out[c.status] += 1
        return out


def _fmt(x: float) -> str:
    return f"{float(x):.10g}"


def _fmt_block(m: np.ndarray) -> str:
    rows = ("[" + ", ".join(map(_fmt, row)) + "]" for row in m)
    return "[" + ", ".join(rows) + "]"


def _lam_above(t: np.ndarray, k: int, n: int) -> float:
    """lambda_min at (k, n), raised by REPORT_TOL relative so T is a member."""
    return posinormal.min_lambda(t, k, n).lambda_min * (1 + REPORT_TOL)


def _block(label: str, block: np.ndarray, printed: list) -> tuple:
    """A printed matrix against the recomputed ``block`` (to DEFAULT_TOL)."""
    agree = linalg.operator_norm(block - np.array(printed, dtype=complex)) <= DEFAULT_TOL
    return f"{label} {_fmt_block(block.real)}", agree


# ---------------------------------------------------------------------------
# Section 2 examples


def _claim_membership(t: np.ndarray, note: str) -> tuple:
    """T is a member at (3, 2, 1) with a vanishing gap."""
    report = posinormal.is_member(t, ClassQuery(3, 2, 1.0))
    return (f"holds={report.holds}, gap_norm={_fmt(report.gap_norm)}{note}",
            report.holds and report.gap_norm <= DEFAULT_TOL)


def _claim_not_2power(t: np.ndarray) -> tuple:
    """No lambda makes T 2-power posinormal; e1 spans the obstruction."""
    result = posinormal.min_lambda(t, 0, 2)
    rejected = all(
        not posinormal.is_member(t, ClassQuery(0, 2, lam)).holds
        for lam in (1.0, 1.0e3, 1.0e6)
    )
    e1 = np.zeros(t.shape[0]); e1[0] = 1.0
    x = result.kernel_obstruction
    overlap = abs(np.vdot(e1, x)) if x is not None else 0.0
    return (f"infeasible={not result.feasible}, rejected up to lambda=1e6, "
            f"obstruction overlap with e1 = {_fmt(overlap)}",
            (not result.feasible) and rejected and overlap > 1 - AGREE_TOL)


def _claim_prop26_squared_product() -> tuple:
    t2 = fixtures.invariant_block_matrix() @ fixtures.invariant_block_matrix()
    return _block("direct product gives", (t2 @ linalg.adjoint(t2))[:2, :2],
                  [[5, 10], [10, 20]])


def _claim_lambda3(t: np.ndarray) -> tuple:
    """T is a member at (1, 2, 3); reports the recomputed lambda_min."""
    report = posinormal.is_member(t, ClassQuery(1, 2, 3.0))
    lam = posinormal.min_lambda(t, 1, 2)
    return (f"holds={report.holds}, gap min eigenvalue "
            f"{_fmt(report.gap_min_eigenvalue)}; recomputed "
            f"lambda_min={_fmt(lam.lambda_min)}", report.holds)


def _claim_prop26_restriction_gap() -> tuple:
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    return _block("direct gap is", posinormal.gap_matrix(a, 1, 2, 3.0),
                  [[8, 8], [8, 25]])


def _claim_prop26_restriction_preserved() -> tuple:
    t = fixtures.invariant_block_matrix()
    lam = posinormal.min_lambda(t, 1, 2).lambda_min * (1 + AGREE_TOL)
    basis = np.eye(4, dtype=complex)[:, :2]
    _, report = structure.restrict_to_invariant(t, basis, 1, 2, lam)
    return f"restriction member at lambda={_fmt(lam)}: {report.holds}", report.holds


def _claim_thm210_gap_display() -> tuple:
    t = fixtures.split_range_matrix()
    return _block("direct gap block is", posinormal.gap_matrix(t, 1, 2, 3.0)[:2, :2],
                  [[12, 6], [6, 3]])


def _claim_thm210_block_split() -> tuple:
    decomp = structure.decompose(fixtures.split_range_matrix(), 1, 2)
    split = (decomp.range_basis.shape[1], decomp.kernel_basis.shape[1])
    return (f"rank(T) = {split[0]} forces a {split[0]}+{split[1]} split",
            split == (2, 2))


def _claim_thm210_spectrum() -> tuple:
    t = fixtures.split_range_matrix()
    distinct = linalg.distinct_values(linalg.spectrum(t), tol=AGREE_TOL)
    ok = (len(distinct) == 3
          and linalg.hausdorff_distance(distinct, [0.0, 1.0, 2.0]) <= AGREE_TOL)
    return ("distinct eigenvalues " + ", ".join(_fmt(v.real) for v in distinct),
            ok)


def _claim_thm210_spectrum_union() -> tuple:
    t = fixtures.split_range_matrix()
    _, _, gap, ok = structure.spectrum_union_gap(structure.decompose(t, 1, 2), t)
    return f"Hausdorff distance {_fmt(gap)}", ok


# ---------------------------------------------------------------------------
# Section 2 statements


def _claim_prop24_vector_inequality() -> tuple:
    """With C = T^{m+1} and D = T*^n T^m, ||Dx||^2 = <D*Dx, x>, so
    ||Dx|| <= lambda ||Cx|| for every x is lambda^2 C*C - D*D >= 0, and
    that is the order-m gap T*^m (lambda^2 T*T - T^n T*^n) T^m, which
    is_member at quasi order m decides."""
    t = fixtures.split_range_matrix()
    lam = _lam_above(t, 1, 2)
    oks = [posinormal.is_member(t, ClassQuery(m, 2, lam)).holds for m in (1, 2, 3)]
    return f"order-m gap PSD for m=1,2,3: {oks}", all(oks)


def _claim_prop24_nilpotency() -> tuple:
    report = posinormal.nilpotency_collapse_check(fixtures.nilpotent_shift(3), 3, 2)
    return (f"asserted={report.asserted}, ||T^k||={_fmt(report.norm_t_k)}",
            report.asserted and report.passes)


def _claim_cor25_operator_norm() -> tuple:
    t = fixtures.split_range_matrix()
    lam = _lam_above(t, 1, 2)
    reports = [posinormal.operator_norm_corollary_check(t, 1, 2, lam, m)
               for m in (1, 2)]
    ok = all(r.holds for r in reports)
    squared = all(r.holds_squared for r in reports)
    return (f"first-power holds for m=1,2: {ok}; "
            f"printed lambda^2 variant holds: {squared}", ok)


def _claim_prop27_isometry() -> tuple:
    t = fixtures.invariant_block_matrix()
    lam = _lam_above(t, 1, 2)
    s = np.diag(np.exp(1j * np.array([0.3, 0.3, -1.1, -1.1])))
    report = structure.isometry_product_check(t, s, 1, 2, lam)
    return f"TS member at lambda={_fmt(lam)}: {report.holds}", report.holds


def _claim_prop28_unitary(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    t = fixtures.invariant_block_matrix()
    lam = _lam_above(t, 1, 2)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _ = linalg.lapack("qr", g, "Gaussian matrix")
    base = posinormal.is_member(t, ClassQuery(1, 2, lam))
    conj = structure.unitary_conjugate_check(t, u, 1, 2, lam)
    return (f"T verdict {base.holds}, U*TU verdict {conj.holds}",
            conj.holds == base.holds and conj.holds)


def _claim_prop29_dense_range() -> tuple:
    t = np.diag([2.0 + 0j, 1.0])
    lam = _lam_above(t, 2, 2)
    report = structure.dense_range_upgrade(t, 2, 2, lam)
    return f"k=0 test at lambda={_fmt(lam)}: {report.holds}", report.holds


def _claim_thm211_tensor() -> tuple:
    shift = fixtures.nilpotent_shift(3)
    nilp = structure.tensor_check(shift, shift, ClassQuery(3, 2, 1.0), 1.0)
    d1 = np.diag([2.0 + 0j, 1.0])
    d2 = np.diag([3.0 + 0j, 1.0])
    lam = _lam_above(d1, 0, 2)
    mu = _lam_above(d2, 0, 2)
    diag = structure.tensor_check(d1, d2, ClassQuery(0, 2, lam), mu)
    return (f"shift pair holds: {nilp.holds}; diagonal pair holds: {diag.holds}",
            nilp.holds and diag.holds)


def _claim_inclusion_congruence(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    violations = 0
    cases = 0
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        t = (rng.standard_normal((dim, dim))
             + 1j * rng.standard_normal((dim, dim))) / np.sqrt(dim)
        k = int(rng.integers(0, 3))
        n = int(rng.integers(1, 4))
        result = posinormal.min_lambda(t, k, n)
        if not result.feasible or result.lambda_min == 0:
            continue
        lam = result.lambda_min * 1.01
        cases += 1
        if not posinormal.is_member(t, ClassQuery(k + 1, n, lam)).holds:
            violations += 1
        if not posinormal.is_member(t, ClassQuery(k, n, lam * 2)).holds:
            violations += 1
    return (f"{cases} seeded members, {violations} violations",
            cases > 0 and violations == 0)


def _claim_inclusion_posinormal_npower() -> tuple:
    t = np.diag([2.0 + 0j, 1.0])
    lam1 = posinormal.min_lambda(t, 0, 1).lambda_min
    lam3 = posinormal.min_lambda(t, 0, 3).lambda_min
    return ("inclusion needs lambda inflation: diag(2,1) has "
            f"lambda_min={_fmt(lam1)} at n=1 but {_fmt(lam3)} at n=3; "
            "no fixed-lambda congruence exists", None)


# ---------------------------------------------------------------------------
# Section 3


def _random_space(rng: np.random.Generator):
    """8 atoms in 3 blocks with random masses and complex w, u."""
    atoms, blocks = 8, 3
    masses = rng.uniform(0.2, 1.5, atoms)
    space = condexp.FiniteMeasureSpace(masses)
    idx = rng.permutation(atoms)
    cuts = sorted(rng.choice(range(1, atoms), size=blocks - 1, replace=False))
    parts = np.split(idx, cuts)
    partition = condexp.BlockPartition([tuple(p) for p in parts], atoms)
    w = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
    u = rng.standard_normal(atoms) + 1j * rng.standard_normal(atoms)
    return space, partition, w, u


def _claim_e_properties(seed: int) -> tuple:
    rng = np.random.default_rng(seed)
    space, partition, _, _ = _random_space(rng)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    g = condexp.expand_blockwise(partition, rng.standard_normal(3) + 0j)
    report = condexp.check_E_properties(space, partition, f, g)
    names = [r.name for r in report.results if r.applicable]
    return f"checked {names}: all_passed={report.all_passed}", report.all_passed


def _operator_pair(interval, seed: int) -> list:
    """The 8-atom interval operator and one on a seeded random space."""
    return [interval,
            condexp.build_operator(*_random_space(np.random.default_rng(seed)))]


def _claim_norm_formula(interval, seed: int) -> tuple:
    reports = [condexp.norm_formula_check(op) for op in _operator_pair(interval, seed)]
    return ("max deviation " + _fmt(max(r.deviation for r in reports)),
            all(r.passed for r in reports))


def _claim_lemma31(interval, seed: int) -> tuple:
    devs = []
    ok = True
    for op in _operator_pair(interval, seed):
        for m in (1, 2, 3):
            rep = condexp.lemma31_check(op, m)
            devs.append(max(rep.deviation_t_star_t, rep.deviation_t_t_star))
            ok = ok and rep.passed
    return f"max relative deviation {_fmt(max(devs))}", ok


def _claim_polar(interval, seed: int) -> tuple:
    reports = [condexp.polar_decomposition_check(op)
               for op in _operator_pair(interval, seed)]
    worst = max(max(r.factor_residual, r.partial_isometry_residual)
                for r in reports)
    return f"worst residual {_fmt(worst)}", all(r.passed for r in reports)


def _claim_thm33(interval) -> tuple:
    pattern = []
    for lam in (0.5, 1.0, 2.0):  # the example is infeasible at (0, 1)
        rep = condexp.thm33_check(interval, lam)
        pattern.append((lam, rep.blockwise_holds, rep.matrix_holds))
    return ("lambda sweep (lambda, blockwise, matrix): "
            + "; ".join(str(p) for p in pattern), None)


def _claim_thm34(interval) -> tuple:
    rep = condexp.thm34_check(interval, 2, 4.0)
    return (f"matrix holds={rep.matrix_holds}, blockwise "
            f"holds={rep.blockwise_holds}, necessity respected="
            f"{rep.necessity_ok}", rep.necessity_ok)


def _ex36_expectation(example, moment) -> np.ndarray:
    """Blockwise E(moment(w, u)), real part, on ``example``, the
    (space, partition, w, u) of the 4096-atom interval example."""
    space, partition, w, u = example
    return condexp.block_expectations(space, partition, moment(w, u)).real


def _claim_ex36_ew2(example) -> tuple:
    e_w2 = _ex36_expectation(example, lambda w, u: np.abs(w) ** 2)
    return (f"({_fmt(e_w2[0])}, {_fmt(e_w2[1])}) at 4096 atoms (exact)",
            abs(e_w2[0] - 4.0) == 0.0 and abs(e_w2[1] - 1.0) == 0.0)


def _claim_ex36_eu2(example) -> tuple:
    e_u2 = _ex36_expectation(example, lambda w, u: np.abs(u) ** 2)
    return (f"({_fmt(e_u2[0])}, {_fmt(e_u2[1])}) at 4096 atoms "
            f"(1/12 = {_fmt(1 / 12)})",
            max(abs(e_u2[0] - 1 / 12), abs(e_u2[1] - 1 / 12)) <= REPORT_TOL)


def _claim_ex36_euw(example) -> tuple:
    e_uw = _ex36_expectation(example, lambda w, u: u * w)
    # Independent block integrals: (2 * x on [0, 1/2)) and (1 - x on
    # [1/2, 1]) average to 1/2 and 1/4 respectively.
    oracle = (0.5, 0.25)
    matches_printed = (abs(e_uw[0] - 0.25) <= REPORT_TOL
                       and abs(e_uw[1] - 0.25) <= REPORT_TOL)
    matches_oracle = (abs(e_uw[0] - oracle[0]) <= REPORT_TOL
                      and abs(e_uw[1] - oracle[1]) <= REPORT_TOL)
    return (f"({_fmt(e_uw[0])}, {_fmt(e_uw[1])}); analytic block "
            f"integrals give (1/2, 1/4), agreement with them: "
            f"{matches_oracle}", matches_printed)


def _claim_ex36_criterion_arithmetic() -> tuple:
    lhs = Fraction(1, 4) ** 4
    rhs = Fraction(16) * Fraction(1, 12) ** 3 * Fraction(4)
    return (f"lhs = {lhs} = {_fmt(float(lhs))}, rhs = {rhs} = "
            f"{_fmt(float(rhs))}, lhs <= rhs: {lhs <= rhs}",
            lhs == Fraction(1, 256) and rhs == Fraction(1, 27) and lhs <= rhs)


def _claim_ex36_thm35_verdicts(interval) -> tuple:
    rep = condexp.thm35_check(interval, 1, 2, 4.0)
    return (f"stated={rep.stated_holds}, proof_form={rep.proof_form_holds}, "
            f"matrix={rep.matrix_holds} at (k=1, n=2, lambda=4), 8 atoms", None)


# ---------------------------------------------------------------------------
# assembly


def _claims(seed: int) -> list:
    """(claim_id, location, expected, compute) for every claim of the suite.

    The three ex3.6 moment claims read one 4096-atom interval example, and
    the six Section 3 claims one operator on the 8-atom interval example;
    each is built when the first claim that reads it runs and dropped with
    the table.
    """
    interval_4096 = functools.cache(lambda: fixtures.interval_example(4096))
    interval_8 = functools.cache(
        lambda: condexp.build_operator(*fixtures.interval_example(8)))
    after26 = "Example after Proposition 2.6"
    after210 = "Example after Theorem 2.10"
    remark21 = "Remark after Definition 2.1"
    ex36 = "Example after Theorem 3.5"
    return [
        ("ex2.2-membership", "Example 2.2",
         "3x3 shift is 3-quasi 2-power posinormal at lambda=1",
         lambda: _claim_membership(fixtures.nilpotent_shift(3),
                                   " (gap vanishes identically)")),
        ("ex2.2-not-2power", "Example 2.2",
         "not 2-power posinormal for any lambda",
         lambda: _claim_not_2power(fixtures.nilpotent_shift(3))),
        ("ex2.3-membership", "Example 2.3 (dimension-6 section)",
         "clipped shift is 3-quasi 2-power posinormal at lambda=1",
         lambda: _claim_membership(fixtures.clipped_shift(6), "")),
        ("ex2.3-not-2power", "Example 2.3 (dimension-6 section)",
         "not 2-power posinormal for any lambda",
         lambda: _claim_not_2power(fixtures.clipped_shift(6))),
        ("ex-prop2.6-squared-product", after26,
         "T^2 T*^2 upper block = [[5, 10], [10, 20]]",
         _claim_prop26_squared_product),
        ("ex-prop2.6-lambda3", after26,
         "positivity holds for lambda=3 at (k=1, n=2)",
         lambda: _claim_lambda3(fixtures.invariant_block_matrix())),
        ("ex-prop2.6-restriction-gap", after26,
         "restriction gap at lambda=3 equals [[8, 8], [8, 25]]",
         _claim_prop26_restriction_gap),
        ("ex-prop2.6-restriction-preserved", "Proposition 2.6",
         "restriction to the invariant span{e1, e2} stays in the class "
         "at the same lambda",
         _claim_prop26_restriction_preserved),
        ("ex-thm2.10-gap-display", after210,
         "gap at (1, 2, 3) has upper block [[12, 6], [6, 3]]",
         _claim_thm210_gap_display),
        ("ex-thm2.10-lambda3", after210,
         "1-quasi 2-power posinormal with lambda=3",
         lambda: _claim_lambda3(fixtures.split_range_matrix())),
        ("ex-thm2.10-block-split", after210,
         "T splits 2+2 (A and C both 2x2)",
         _claim_thm210_block_split),
        ("ex-thm2.10-spectrum", after210, "sigma(T) = {0, 1, 2}",
         _claim_thm210_spectrum),
        ("ex-thm2.10-spectrum-union", "Theorem 2.10",
         "sigma(T) = sigma(A) union {0} (distinct values)",
         _claim_thm210_spectrum_union),
        ("prop2.4-vector-inequality", "Proposition 2.4(i)",
         "||T*^n T^m x|| <= lambda ||T^{m+1} x|| for all m >= k",
         _claim_prop24_vector_inequality),
        ("prop2.4ii-nilpotency", "Proposition 2.4(ii)",
         "T^{k+1} = 0 with k >= n forces T^k = 0",
         _claim_prop24_nilpotency),
        ("cor2.5-operator-norm", "Corollary 2.5",
         "||T*^n T^m|| <= lambda ||T^{m+1}|| for m >= k "
         "(first power; the printed square is evaluated only)",
         _claim_cor25_operator_norm),
        ("prop2.7-commuting-isometry", "Proposition 2.7",
         "TS stays in the class when the isometry S commutes with "
         "the member T",
         _claim_prop27_isometry),
        ("prop2.8-unitary-equivalence", "Proposition 2.8",
         "membership is invariant under unitary conjugation",
         lambda: _claim_prop28_unitary(seed + 1)),
        ("prop2.9-dense-range", "Proposition 2.9",
         "full-rank T^k upgrades membership to the n-power class",
         _claim_prop29_dense_range),
        ("thm2.11-tensor-product", "Theorem 2.11",
         "Kronecker product of members is a member at lambda*mu",
         _claim_thm211_tensor),
        ("inclusion-chain-congruence", remark21,
         "members at (k, n, lambda) are members at (k+1, n, lambda) "
         "and at any larger lambda",
         lambda: _claim_inclusion_congruence(seed + 2)),
        ("inclusion-posinormal-npower", remark21,
         "posinormal subset n-power posinormal (no lambda stated)",
         _claim_inclusion_posinormal_npower),
        ("sec1-E-properties", "Section 1, properties (i)-(v)",
         "module, positivity, modulus, Hoelder and Jensen properties "
         "of E hold",
         lambda: _claim_e_properties(seed + 3)),
        ("sec1-norm-formula", "Section 1, norm identity",
         "||T_{w,u}|| = sup over blocks of sqrt(E|w|^2 E|u|^2)",
         lambda: _claim_norm_formula(interval_8(), seed + 4)),
        ("lemma3.1-power-identities", "Lemma 3.1",
         "blockwise closed forms reproduce (T*T)^m and (TT*)^m "
         "for m = 1, 2, 3",
         lambda: _claim_lemma31(interval_8(), seed + 5)),
        ("thm3.2-polar-decomposition", "Theorem 3.2",
         "U |T| = T with |T| PSD and U a partial isometry, "
         "via the blockwise closed forms",
         lambda: _claim_polar(interval_8(), seed + 6)),
        ("thm3.3-posinormal-criterion", "Theorem 3.3(ii)/(iii)",
         "blockwise inequality equivalent to posinormality when the "
         "supports of E|u|^2 and E(u) agree",
         lambda: _claim_thm33(interval_8())),
        ("thm3.4-npower-criterion", "Theorem 3.4(ii)",
         "n-power membership of the matrix implies the blockwise "
         "inequality",
         lambda: _claim_thm34(interval_8())),
        ("ex3.6-Ew2", ex36, "E|w|^2 = (4, 1)",
         lambda: _claim_ex36_ew2(interval_4096())),
        ("ex3.6-Eu2", ex36, "E|u|^2 = (1/12, 1/12)",
         lambda: _claim_ex36_eu2(interval_4096())),
        ("ex3.6-Euw", ex36, "E(uw) = (1/4, 1/4)",
         lambda: _claim_ex36_euw(interval_4096())),
        ("ex3.6-criterion-arithmetic", ex36,
         "(1/4)^4 = 1/256 <= 16 (1/12)^3 (4) = 1/27",
         _claim_ex36_criterion_arithmetic),
        ("ex3.6-thm35-verdicts", "Theorem 3.5 and its example",
         "stated criterion, proof-internal display and matrix gap "
         "test agree (no direction is proved)",
         lambda: _claim_ex36_thm35_verdicts(interval_8())),
    ]


def _input_digests() -> dict:
    named = {
        "nilpotent-shift-3": fileio.dumps_matrix(fixtures.nilpotent_shift(3)),
        "clipped-shift-6": fileio.dumps_matrix(fixtures.clipped_shift(6)),
        "invariant-block-4": fileio.dumps_matrix(fixtures.invariant_block_matrix()),
        "split-range-4": fileio.dumps_matrix(fixtures.split_range_matrix()),
        "interval-example-8": fileio.dumps_space(*fixtures.interval_example(8)),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in named.items()}


def run_claim_suite(seed: int = DEFAULT_SEED) -> RunReport:
    """Evaluate every claim and assemble the deterministic report.

    The 4096-atom interval example of the ex3.6 claims and the 8-atom
    interval operator of the Section 3 claims are built once per call and
    shared by those claims; no call reuses another's.

    The output is identical for identical seeds except for the wall-clock
    timings.  Claims are sorted by id so evaluation order never shows.
    ValidationError unless the seed is a non-negative integer.
    """
    if not linalg.is_integer(seed) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    rows = _claims(seed)
    ids = [row[0] for row in rows]
    if len(set(ids)) != len(ids):
        raise RuntimeError("duplicate claim ids in the suite")
    claims = []
    timings = {}
    for claim_id, location, expected, compute in rows:
        start = time.perf_counter()
        computed, ok = compute()
        timings[claim_id] = time.perf_counter() - start
        status = NOT_ASSERTABLE if ok is None else MATCH if ok else MISMATCH
        claims.append(ClaimRecord(claim_id, location, expected, computed, status))
    claims.sort(key=lambda c: c.claim_id)
    return RunReport(
        tool_version=__version__,
        seed=seed,
        input_digests=_input_digests(),
        claims=tuple(claims),
        timings=timings,
    )


def dumps_report(report: RunReport) -> str:
    doc = {
        "tool": "posilab",
        "version": report.tool_version,
        "seed": report.seed,
        "input_digests": dict(sorted(report.input_digests.items())),
        "summary": report.counts,
        "claims": [
            {
                "claim_id": c.claim_id,
                "location": c.location,
                "expected": c.expected,
                "computed": c.computed,
                "status": c.status,
                "elapsed_s": round(report.timings[c.claim_id], 6),
            }
            for c in report.claims
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
