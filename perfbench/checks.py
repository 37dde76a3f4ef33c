"""Output checks for one ``gordon(families=m)`` record.

The record is read from its text form with this module's own parser, and
checked against mathematics the package does not compute for it: group
orders and irreducible dimensions from the character tables, the dimension
count of a baby Verma module, and known answers for some cases.  The
seed-independent part of the record must also equal the pinned content in
``pinned.json``.
"""

import json
import os

from workloads import family_key

# Group order and irreducible dimensions, in the order of the group's data
# file (1-based irrep index i is entry i-1).
GROUPS = {
    "S3": (6, (1, 1, 2)),
    "B2": (8, (1, 1, 1, 1, 2)),
    "G4": (24, (1, 1, 1, 2, 2, 2, 3)),
}

PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "pinned.json")


def load_pinned():
    with open(PINNED_PATH) as f:
        return json.load(f)


def parse_record(text):
    """{section: [body lines]}; a one-line field keeps its value as the
    single body line."""
    fields = {}
    section = None
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith(" "):
            if section is None:
                raise ValueError(f"stray record line {line!r}")
            fields[section].append(line.strip())
            continue
        head, _, rest = line.partition(":")
        section = head.strip()
        fields[section] = [rest.strip()] if rest.strip() else []
    return fields


def parse_poly(text):
    """'2 + 3*t + t^2' -> {0: 2, 1: 3, 2: 1}."""
    out = {}
    for term in text.split("+"):
        term = term.strip()
        if term in ("", "0"):
            continue
        if "t" not in term:
            coeff, power = term, "t^0"
        elif "*" in term:
            coeff, power = term.split("*")
        elif term.startswith("-"):
            coeff, power = "-1", term[1:]
        else:
            coeff, power = "1", term
        if power == "t":
            power = "t^1"
        if not power.startswith("t^"):
            raise ValueError(f"bad term {term!r}")
        degree = int(power[2:])
        out[degree] = out.get(degree, 0) + int(coeff)
    return {d: c for d, c in out.items() if c}


def _indexed(lines):
    out = {}
    for line in lines:
        i, _, value = line.partition(":")
        out[int(i)] = value.strip()
    return out


def seed_independent(text):
    """The record text without its Seed line and Specializations section."""
    kept = []
    skipping = False
    for line in text.splitlines():
        if not line.startswith(" "):
            skipping = line.startswith("Specializations:")
            if line.startswith("Seed:"):
                continue
        if not skipping:
            kept.append(line)
    return "\n".join(kept) + "\n"


def check_record(case, members, text, pinned=None):
    """Problems found in the record of one family call; [] when it passes.
    pinned: the case's {family key: text} map, or None to skip that part."""
    order, irrep_dims = GROUPS[case.group]
    members = tuple(members)
    problems = []
    try:
        fields = parse_record(text)
        if fields.get("Group") != [case.group]:
            problems.append(f"group {fields.get('Group')} is not "
                            f"{case.group}")
        dims = {i: int(v) for i, v in
                _indexed(fields.get("SimpleDims", [])).items()}
        pseries = {i: parse_poly(v) for i, v in
                   _indexed(fields.get("SimplePSeries", [])).items()}
        graded = {i: [parse_poly(p) for p in v.split(";")] for i, v in
                  _indexed(fields.get("SimpleGradedGModStruct", [])).items()}
        decomposition = {}
        for line in fields.get("VermaDecomposition", []):
            i, j, m = (int(t) for t in line.split())
            decomposition[(i, j)] = m
    except ValueError as exc:
        return [f"unreadable record: {exc}"]

    want = set(members)
    for label, got in (("SimpleDims", dims), ("SimplePSeries", pseries),
                       ("SimpleGradedGModStruct", graded)):
        if set(got) != want:
            problems.append(f"{label} covers {sorted(got)}, family is "
                            f"{sorted(want)}")
    if set(decomposition) != {(a, b) for a in want for b in want}:
        problems.append("VermaDecomposition does not cover the family")
    if problems:
        return problems

    for lam in members:
        total = sum(decomposition[(lam, mu)] * dims[mu] for mu in members)
        if total != order * irrep_dims[lam - 1]:
            problems.append(f"row {lam}: sum [D:L]*dim L = {total}, "
                            f"|W|*dim = {order * irrep_dims[lam - 1]}")
        if sum(pseries[lam].values()) != dims[lam]:
            problems.append(f"Poincare series of L({lam}) at t=1 is not "
                            f"{dims[lam]}")
        rows = graded[lam]
        if len(rows) != len(irrep_dims):
            problems.append(f"graded structure of L({lam}) has {len(rows)} "
                            "irreps")
            continue
        for degree in set(pseries[lam]) | {d for r in rows for d in r}:
            weighted = sum(r.get(degree, 0) * irrep_dims[k]
                           for k, r in enumerate(rows))
            if weighted != pseries[lam].get(degree, 0):
                problems.append(f"L({lam}) degree {degree}: graded "
                                "structure disagrees with Poincare series")
        degree0 = [r.get(0, 0) for r in rows]
        if degree0 != [int(k == lam - 1) for k in range(len(rows))]:
            problems.append(f"degree-0 part of L({lam}) is not irrep {lam}")

    known = KNOWN_ANSWERS.get(case.id)
    if known is not None:
        problems.extend(known(members, dims, decomposition, irrep_dims))

    if pinned is not None:
        expected = pinned.get(family_key(members))
        if expected is None:
            problems.append("no pinned content for this family")
        elif seed_independent(text) != expected:
            problems.append("record differs from the pinned content")
    return problems


def _all_simple_dim(n):
    def check(members, dims, decomposition, irrep_dims):
        return [f"dim L({lam}) = {dims[lam]}, expected {n}"
                for lam in members if dims[lam] != n]
    return check


def _s3_generic(members, dims, decomposition, irrep_dims):
    problems = _all_simple_dim(6)(members, dims, decomposition, irrep_dims)
    if 3 in members and decomposition[(3, 3)] != 2:
        problems.append("[Delta(3):L(3)] is not 2")
    return problems


def _c_zero(members, dims, decomposition, irrep_dims):
    problems = [f"dim L({lam}) is not dim {lam}" for lam in members
                if dims[lam] != irrep_dims[lam - 1]]
    for lam in members:
        for mu in members:
            if decomposition[(lam, mu)] != \
                    irrep_dims[lam - 1] * irrep_dims[mu - 1]:
                problems.append(f"[Delta({lam}):L({mu})] is not "
                                "dim lam * dim mu")
    return problems


def _b2_hyperplane(members, dims, decomposition, irrep_dims):
    if members == (3, 4, 5) and [dims[m] for m in members] != [1, 1, 6]:
        return ["family {3,4,5} does not have simple dims 1, 1, 6"]
    return []


KNOWN_ANSWERS = {
    "G4_k13": _all_simple_dim(24),
    "S3_c1": _s3_generic,
    "S3_c0": _c_zero,
    "B2_c0": _c_zero,
    "B2_hyp": _b2_hyperplane,
}
