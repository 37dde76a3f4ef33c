"""The pinned ``gordon`` cases: one table, one builder, one check.

Each case names a record file ``tests/data/<id>.txt``, the full ``gordon``
record of a group at a parameter.  The tests build every pinned case from
``CASES`` through ``build``, and choose for themselves which families or
irreps of it they run.

Run as a script, this file recomputes every record, diffs it against its
file, and runs the lift round trip on B2's equal-parameter hyperplane; it
exits non-zero naming every case that fails, or numpy or
``cherednik.meataxe`` if either was imported.  It needs neither numpy nor
pytest:

    PYTHONPATH=src python tests/cases.py

To pin a new record, add its line to ``CASES`` and write its file from the
code it checks:

    PYTHONPATH=src:tests python -c "import cases
    print(cases.record_text('ID'), end='')" > tests/data/ID.txt

Then check the new record against something independent (known simple
dimensions or families, an oracle) before committing it.
"""

import random
import sys
import traceback
from itertools import zip_longest
from pathlib import Path

from cherednik.algebra import CherednikParameter, ggor_from_values, \
    restrict_to_hyperplane
from cherednik.groups import load_group
from cherednik.lift import abstract_structure, draw_specialization, \
    find_submodule, gordon, head_and_radical
from cherednik.modules import verma_module

DATA = Path(__file__).resolve().parent / "data"

# id -> (group, parameter, hyperplane text).  The parameter is ("c", values)
# for a point given by its c values, ("ggor", {(orbit, j): k}) for a point
# given by GGOR k values, or ("hyperplane", form) for the generic point of a
# hyperplane, as in perfbench/workloads.py.
CASES = {
    "S3_c1": ("S3", ("c", (1,)), ""),
    "S3_c0": ("S3", ("c", (0,)), ""),
    "B2_c12": ("B2", ("c", (1, 2)), ""),
    "B2_c0": ("B2", ("c", (0, 0)), ""),
    "B2_hyp": ("B2", ("hyperplane", "k1_1-k2_1"), "k1_1-k2_1"),
    "G4_k13": ("G4", ("ggor", {(0, 1): 1, (0, 2): 3}), ""),
    "G4_hyp": ("G4", ("hyperplane", "k1_1-2*k1_2"), "k1_1-2*k1_2"),
}


def build(case):
    """(group, CherednikParameter, hyperplane text) of a pinned case."""
    name, (kind, value), hyperplane = CASES[case]
    G = load_group(name)
    if kind == "c":
        par = CherednikParameter(G, G.spec, 0, list(value))
    elif kind == "ggor":
        par = ggor_from_values(G, G.spec, value).to_cherednik()
    else:
        par = restrict_to_hyperplane(G, value).to_cherednik()
    return G, par, hyperplane


def record_text(case):
    """The full gordon record of a case, as text."""
    return gordon(*build(case)).to_text()


def pinned_text(case):
    return (DATA / f"{case}.txt").read_text()


def check():
    """[(case, what is wrong)] for every case whose full record differs
    from its file or fails to compute."""
    failures = []
    for case in CASES:
        try:
            got = record_text(case)
        except Exception as exc:    # every case is still checked
            traceback.print_exc()
            failures.append((case, f"{type(exc).__name__}: {exc}"))
            continue
        pairs = zip_longest(got.splitlines(), pinned_text(case).splitlines())
        for line, (have, want) in enumerate(pairs, 1):
            if have != want:
                failures.append((case, f"line {line} is {have!r}, "
                                       f"the file has {want!r}"))
                break
    return failures


def lift_round_trip():
    """[] or [(name, what is wrong)]: the draw of a prime and a parameter
    point, the shape of the exact radical of a Verma module with a radical
    (irrep 3 of B2 on k1_1-k2_1: dim 8, head of dim 1) and the search that
    lifts the shape back to that radical."""
    G, par, _ = build("B2_hyp")
    V = verma_module(G, par, G.irreps[2])
    ff = draw_specialization(G, par, V.dim, random.Random(0))
    rad = head_and_radical(V).radical_basis
    if rad.ncols != 7 or find_submodule(V, abstract_structure(rad)) != rad:
        return [("lift round trip", f"the radical of dim {rad.ncols} does "
                                    f"not lift back (draw {ff})")]
    return []


def main():
    failures = check() + lift_round_trip()
    failures += [(module, "imported") for module in ("numpy",
                                                     "cherednik.meataxe")
                 if sys.modules.get(module) is not None]
    for name, message in failures:
        print(f"FAIL {name}: {message}", file=sys.stderr)
    if failures:
        sys.exit(1)
    print(f"{len(CASES)} pinned records and the lift round trip match")


if __name__ == "__main__":
    main()
