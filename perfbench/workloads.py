"""The benchmark's workloads: which (group, parameter) cases each one runs.

This module is plain data plus the seed schedule, so the orchestrator can
use it without importing the package under test.  ``worker.py`` turns the
parameter descriptions into ``CherednikParameter`` objects.
"""

import random
from collections import namedtuple

# param is ("c", values) for a point given by its c values,
# ("ggor", {(orbit, j): k}) for a point given by GGOR k values, or
# ("hyperplane", form) for the generic point of a hyperplane.
Case = namedtuple("Case", "id group param hyperplane")

WORKLOADS = {
    "g4_point": (
        Case("G4_k13", "G4", ("ggor", {(0, 1): 1, (0, 2): 3}), ""),
    ),
    "small_rational": (
        Case("S3_c1", "S3", ("c", (1,)), ""),
        Case("S3_c0", "S3", ("c", (0,)), ""),
        Case("B2_c12", "B2", ("c", (1, 2)), ""),
        Case("B2_c0", "B2", ("c", (0, 0)), ""),
        Case("B2_hyp", "B2", ("hyperplane", "k1_1-k2_1"), "k1_1-k2_1"),
    ),
}


def pass_seeds(workload_seed):
    """The gordon seeds of passes 0, 1, 2, ... for one workload seed."""
    rng = random.Random(workload_seed)
    while True:
        yield rng.randrange(1 << 31)


def family_key(members):
    return ",".join(str(m) for m in members)
