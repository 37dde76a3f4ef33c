import pytest

from cherednik.algebra import CherednikParameter
from cherednik.groups import load_group
from cherednik.lift import gordon
from cherednik.records import GordonRecord
from cherednik.scalars import QQ


def s3_record(seed=0):
    G = load_group("S3")
    return gordon(G, CherednikParameter(G, QQ, 0, [1]), seed=seed)


def test_verma_dim_audit_catches_a_changed_entry():
    rec = s3_record()
    # each Verma module of S3 has dimension |W| * dim lam
    verma_dims = {1: 6, 2: 6, 3: 12}
    rec.verma_dim_audit(verma_dims)
    rec.verma_decomposition[(3, 3)] = 1
    with pytest.raises(ValueError):
        rec.verma_dim_audit(verma_dims)


def test_text_round_trip():
    text = s3_record().to_text()
    assert GordonRecord.from_text(text).to_text() == text


def test_same_seed_same_record():
    assert s3_record(5).to_text() == s3_record(5).to_text()
