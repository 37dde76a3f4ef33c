import json
from pathlib import Path

import pytest

from cherednik.algebra import CherednikParameter, euler_families, \
    ggor_from_values, restrict_to_hyperplane
from cherednik import lift
from cherednik.groups import load_group
from cherednik.lift import LiftFailure, gordon
from cherednik.records import GordonRecord, RecordError
from cherednik.scalars import QQ

PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "pinned.json"


def s3_record(seed=0):
    G = load_group("S3")
    return gordon(G, CherednikParameter(G, QQ, 0, [1]), seed=seed)


def test_verma_dim_audit_catches_a_changed_entry():
    rec = s3_record()
    # each Verma module of S3 has dimension |W| * dim lam
    verma_dims = {1: 6, 2: 6, 3: 12}
    rec.verma_dim_audit(verma_dims)
    rec.verma_decomposition[(3, 3)] = 1
    with pytest.raises(LiftFailure):
        rec.verma_dim_audit(verma_dims)


def test_gordon_audits_a_head_against_the_verma_dimension(monkeypatch):
    # a head with one degree too many still has a Poincare series that sums
    # to its dimension, but no longer fills dim Delta(lam) = |W| dim lam
    dual_character = lift.dual_character

    def one_degree_more(group, rho, dual):
        pseries, character = dual_character(group, rho, dual)
        return {**pseries, max(pseries) + 1: 1}, character

    monkeypatch.setattr(lift, "dual_character", one_degree_more)
    with pytest.raises(LiftFailure, match="fails the dimension audit"):
        s3_record()


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
], ids=["empty", "no-header", "unknown-field", "stray-line", "count",
        "multiplicity"])
def test_malformed_record_text_raises_record_error(text, message):
    with pytest.raises(RecordError, match=message):
        GordonRecord.from_text(text)


def test_same_seed_same_record():
    assert s3_record(5).to_text() == s3_record(5).to_text()


def test_record_does_not_depend_on_seed():
    # gordon draws nothing: the seed is accepted and ignored
    assert s3_record(0).to_text() == s3_record(5).to_text()


def pinned_case(case):
    """(group, parameter, hyperplane text, families or None for all) of a
    case of the benchmark's pinned records."""
    if case == "G4_k13":
        G = load_group("G4")
        par = ggor_from_values(G, G.spec, {(0, 1): 1, (0, 2): 3})
        return G, par.to_cherednik(), "", [(1,), (4,)]
    if case == "B2_hyp":
        G = load_group("B2")
        par = restrict_to_hyperplane(G, "k1_1-k2_1").to_cherednik()
        return G, par, "k1_1-k2_1", None
    name, c = {"S3_c1": ("S3", [1]), "S3_c0": ("S3", [0]),
               "B2_c12": ("B2", [1, 2]), "B2_c0": ("B2", [0, 0])}[case]
    G = load_group(name)
    return G, CherednikParameter(G, G.spec, 0, c), "", None


@pytest.mark.parametrize("case", ["S3_c1", "S3_c0", "B2_c12", "B2_c0",
                                  "B2_hyp", "G4_k13"])
def test_family_records_match_pinned(case):
    with open(PINNED) as f:
        pinned = json.load(f)[case]
    G, par, hyperplane, families = pinned_case(case)
    if families is None:
        families = [m for m, _ in euler_families(G, par)]
        assert {",".join(map(str, m)) for m in families} == set(pinned)
    for members in families:
        text = gordon(G, par, hyperplane, families=members, seed=0).to_text()
        key = ",".join(str(m) for m in members)
        assert text == pinned[key], key
