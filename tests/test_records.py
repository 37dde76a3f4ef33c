import json
from pathlib import Path

import pytest

from cases import build
from cherednik.algebra import euler_families
from cherednik import lift
from cherednik.lift import LiftFailure, gordon
from cherednik.records import GordonRecord, RecordError

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


def s3_record(seed=0):
    return gordon(*build("S3_c1"), seed=seed)


def test_verma_dim_audit_catches_a_changed_entry():
    rec = s3_record()
    # each Verma module of S3 has dimension |W| * dim lam
    verma_dims = {1: 6, 2: 6, 3: 12}
    rec.verma_dim_audit(verma_dims)
    rec.verma_decomposition[(3, 3)] = 1
    with pytest.raises(LiftFailure):
        rec.verma_dim_audit(verma_dims)


@pytest.fixture
def heads_one_degree_larger(monkeypatch):
    # each head gains one degree: its Poincare series still sums to its
    # dimension, which is now one more than the true head's
    dual_character = lift.dual_character

    def one_degree_more(group, rho, dual):
        pseries, character = dual_character(group, rho, dual)
        return {**pseries, max(pseries) + 1: 1}, character

    monkeypatch.setattr(lift, "dual_character", one_degree_more)


def test_gordon_audits_a_head_against_the_verma_dimension(
        heads_one_degree_larger):
    # the heads no longer fill dim Delta(lam) = |W| dim lam
    with pytest.raises(LiftFailure, match="fails the dimension audit"):
        s3_record()


def test_gordon_audits_the_pi_degree_bound(heads_one_degree_larger):
    # one family of S3 at c = 1 runs no row audit; its head of dim
    # 7 > |W| = 6 is caught by the PI-degree audit alone
    with pytest.raises(LiftFailure, match=r"family \{1\} fails the "
                                          "PI-degree audit"):
        gordon(*build("S3_c1"), families=(1,))


def test_text_round_trip():
    text = s3_record().to_text()
    assert GordonRecord.from_text(text).to_text() == text


@pytest.mark.parametrize("text, message", [
    ("", "empty record text"),
    ("Group: S3\n", "no GordonRecord header"),
    ("GordonRecord\nFoo: 1\n", "unknown record field 'Foo'"),
    ("GordonRecord\n  1: 2\n", "stray record line"),
    ("GordonRecord\nIrreps: three\n", "not an integer: 'three'"),
    ("GordonRecord\nVermaDecomposition:\n  1 1 x\n", "not an integer: 'x'"),
    ("GordonRecord\nSimpleDims:\n  1: 3\nSimplePSeries:\n  1: 1 + q\n",
     "not an integer: 'q'"),
    ("GordonRecord\nSimpleDims:\n  1: 6\nVermaDecomposition:\n  1 1 1\n"
     "  1 2 1\n", r"names simples \[2\] missing from SimpleDims"),
], ids=["empty", "no-header", "unknown-field", "stray-line", "count",
        "multiplicity", "series", "unknown-simple"])
def test_malformed_record_text_raises_record_error(text, message):
    with pytest.raises(RecordError, match=message):
        GordonRecord.from_text(text)


def test_same_seed_same_record():
    assert s3_record(5).to_text() == s3_record(5).to_text()


def test_record_does_not_depend_on_seed():
    # gordon draws nothing: the seed is accepted and ignored
    assert s3_record(0).to_text() == s3_record(5).to_text()


@pytest.mark.parametrize("case", ["S3_c1", "S3_c0", "B2_c12", "B2_c0",
                                  "B2_hyp", "G4_k13"])
def test_family_records_match_pinned(case):
    with open(PINNED) as f:
        pinned = json.load(f)[case]
    G, par, hyperplane = build(case)
    # G4_k13 runs two of its seven singleton families
    families = {"G4_k13": [(1,), (4,)]}.get(case)
    if families is None:
        families = [m for m, _ in euler_families(G, par)]
        assert {",".join(map(str, m)) for m in families} == set(pinned)
    for members in families:
        text = gordon(G, par, hyperplane, families=members, seed=0).to_text()
        key = ",".join(str(m) for m in members)
        assert text == pinned[key], key
