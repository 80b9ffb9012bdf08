"""The claim table of verify: how a compute's (text, ok) becomes a
ClaimRecord, and the guard against duplicated claim ids."""

import pytest

from posilab import condexp, fixtures, verify

SEED = verify.DEFAULT_SEED
TARGET = "prop2.4ii-nilpotency"


@pytest.fixture(scope="module")
def baseline():
    return verify.run_claim_suite(SEED)


@pytest.mark.parametrize("ok, status", [(True, verify.MATCH),
                                        (False, verify.MISMATCH),
                                        (None, verify.NOT_ASSERTABLE)])
def test_ok_sets_the_status_of_that_claim_only(ok, status, baseline, monkeypatch):
    monkeypatch.setattr(verify, "_claim_prop24_nilpotency", lambda: ("patched", ok))
    report = verify.run_claim_suite(SEED)
    before = {c.claim_id: c for c in baseline.claims}
    after = {c.claim_id: c for c in report.claims}
    assert after.keys() == before.keys()
    assert after[TARGET].computed == "patched"
    assert after[TARGET].status == status
    assert ({i: c for i, c in after.items() if i != TARGET}
            == {i: c for i, c in before.items() if i != TARGET})
    counts = dict(baseline.counts)
    counts[before[TARGET].status] -= 1
    counts[status] += 1
    assert report.counts == counts


def test_duplicated_row_is_refused(monkeypatch):
    claims = verify._claims
    monkeypatch.setattr(verify, "_claims", lambda seed: claims(seed) + claims(seed)[:1])
    with pytest.raises(RuntimeError, match="duplicate claim ids"):
        verify.run_claim_suite(SEED)


def test_interval_example_is_built_once_per_run(monkeypatch):
    """The three ex3.6 moment claims share one 4096-atom example per run,
    and no run reuses the example of another."""
    sizes, build = [], fixtures.interval_example
    monkeypatch.setattr(fixtures, "interval_example",
                        lambda n_atoms: sizes.append(n_atoms) or build(n_atoms))
    for _ in range(2):
        verify.run_claim_suite(SEED)
    assert sizes.count(4096) == 2


def test_interval_operator_is_built_once_per_run(monkeypatch):
    """The six Section 3 claims on the 8-atom interval example share one
    operator per run, and no run reuses the operator of another."""
    built, build = [], condexp.build_operator
    monkeypatch.setattr(condexp, "build_operator", lambda space, *rest: (
        built.append(space.labels[0].startswith("x=")) or build(space, *rest)))
    for _ in range(2):
        verify.run_claim_suite(SEED)
    assert built.count(True) == 2
