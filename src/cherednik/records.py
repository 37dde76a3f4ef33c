"""Result records for whole-group runs, their consistency checks, and their
text serialization."""

from __future__ import annotations

from .lift import LiftFailure
from .scalars import format_terms, monomial_text


def poly_in_t(coeff_by_degree) -> str:
    """Deterministic ascending rendering of an integer polynomial in t."""
    return format_terms((str(c), monomial_text(("t",), (d,)))
                        for d, c in sorted(coeff_by_degree.items()) if c)


def family_text(members) -> str:
    return "{" + ",".join(str(m) for m in members) + "}"


class RecordError(ValueError):
    """A record text that ``GordonRecord.from_text`` cannot read."""


def _int(text, line):
    try:
        return int(text)
    except ValueError:
        raise RecordError(f"not an integer: {text.strip()!r} in record "
                          f"line {line!r}") from None


def parse_family(text):
    return tuple(_int(t, text) for t in text.strip().strip("{}").split(",")
                 if t)


class GordonRecord:
    def __init__(self, group, hyperplane):
        self.group = group
        self.hyperplane = hyperplane
        self.num_irreps = None
        self.euler_families = []      # [(members tuple, scalar string)]
        self.simple_dims = {}         # 1-based irrep index -> int
        self.simple_pseries = {}      # idx -> "1 + 2*t"
        self.simple_graded = {}       # idx -> list of strings per irrep
        self.verma_decomposition = {}  # (i, j) -> int
        self.cm_families = None       # list of tuples, or None if partial

    # -- invariants -----------------------------------------------------------
    def validate(self):
        """Internal consistency of a complete record."""
        for i in sorted(self.simple_dims):
            ps = self.simple_pseries.get(i)
            if ps is not None:
                total = _eval_poly_at_one(ps)
                if total != self.simple_dims[i]:
                    raise LiftFailure(
                        f"Poincare series of simple {i} does not evaluate "
                        "to its dimension")
        return True

    def verma_dim_audit(self, verma_dims):
        """Each Verma dimension is the weighted sum of its constituents'
        simple dimensions."""
        rows = {}
        for (i, j), m in self.verma_decomposition.items():
            rows.setdefault(i, {})[j] = m
        for i, row in rows.items():
            total = sum(m * self.simple_dims[j] for j, m in row.items())
            if total != verma_dims[i]:
                raise LiftFailure(f"decomposition row {i} fails the "
                                  "dimension audit")

    # -- serialization ----------------------------------------------------------
    def to_text(self) -> str:
        lines = ["GordonRecord", f"Group: {self.group}",
                 f"Hyperplane: {self.hyperplane}"]
        if self.num_irreps is not None:
            lines.append(f"Irreps: {self.num_irreps}")
        if self.euler_families:
            lines.append("EulerFamilies:")
            for members, scalar in sorted(self.euler_families,
                                          key=lambda t: min(t[0])):
                lines.append(f"  {family_text(members)}: {scalar}")
        if self.simple_dims:
            lines.append("SimpleDims:")
            for i in sorted(self.simple_dims):
                lines.append(f"  {i}: {self.simple_dims[i]}")
        if self.simple_pseries:
            lines.append("SimplePSeries:")
            for i in sorted(self.simple_pseries):
                lines.append(f"  {i}: {self.simple_pseries[i]}")
        if self.simple_graded:
            lines.append("SimpleGradedGModStruct:")
            for i in sorted(self.simple_graded):
                row = "; ".join(self.simple_graded[i])
                lines.append(f"  {i}: {row}")
        if self.verma_decomposition:
            lines.append("VermaDecomposition:")
            for (i, j) in sorted(self.verma_decomposition):
                m = self.verma_decomposition[(i, j)]
                lines.append(f"  {i} {j} {m}")
        if self.cm_families is not None:
            fams = " ".join(family_text(f)
                            for f in sorted(self.cm_families,
                                            key=lambda t: min(t)))
            lines.append(f"CMFamilies: {fams}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "GordonRecord":
        """Read the text ``to_text`` writes; a text it cannot read raises
        RecordError."""
        lines = [ln.rstrip() for ln in text.splitlines()
                 if ln.strip() and not ln.strip().startswith("#")]
        if not lines:
            raise RecordError("empty record text")
        if lines[0].strip() != "GordonRecord":
            raise RecordError("not a record file: no GordonRecord header")
        rec = cls(None, None)
        section = None
        for ln in lines[1:]:
            if not ln.startswith(" "):
                head, _, rest = ln.partition(":")
                head = head.strip()
                rest = rest.strip()
                section = None
                if head == "Group":
                    rec.group = rest
                elif head == "Hyperplane":
                    rec.hyperplane = rest
                elif head == "Irreps":
                    rec.num_irreps = _int(rest, ln)
                elif head == "CMFamilies":
                    rec.cm_families = [parse_family(t)
                                       for t in rest.split()]
                elif head in ("EulerFamilies", "SimpleDims", "SimplePSeries",
                              "SimpleGradedGModStruct", "VermaDecomposition"):
                    section = head
                else:
                    raise RecordError(f"unknown record field {head!r}")
                continue
            body = ln.strip()
            if section == "EulerFamilies":
                fam, _, scalar = body.partition(":")
                rec.euler_families.append((parse_family(fam),
                                           scalar.strip()))
            elif section == "SimpleDims":
                i, _, v = body.partition(":")
                rec.simple_dims[_int(i, ln)] = _int(v, ln)
            elif section == "SimplePSeries":
                i, _, v = body.partition(":")
                rec.simple_pseries[_int(i, ln)] = v.strip()
            elif section == "SimpleGradedGModStruct":
                i, _, v = body.partition(":")
                rec.simple_graded[_int(i, ln)] = [t.strip()
                                                  for t in v.split(";")]
            elif section == "VermaDecomposition":
                fields = body.split()
                if len(fields) != 3:
                    raise RecordError(f"expected 'i j m' in record line "
                                      f"{ln!r}")
                i, j, m = (_int(t, ln) for t in fields)
                rec.verma_decomposition[(i, j)] = m
            else:
                raise RecordError(f"stray record line {ln!r}")
        return rec


def _eval_poly_at_one(text: str) -> int:
    total = 0
    for part in text.replace("-", "+-").split("+"):
        part = part.strip()
        if not part:
            continue
        if "t" in part:
            coeff = part.split("*")[0].strip() if "*" in part else \
                ("-1" if part.startswith("-t") else "1")
            total += int(coeff)
        else:
            total += int(part)
    return total
