"""Generate the G4 group data file.

The two reflection generators realize the order-24 group; the seven
irreducibles are built from the reflection representation: three linear
characters through the determinant, three twists of the reflection
representation, and its symmetric square.  Irreps are written in ascending
index order phi_{1,0}, phi_{1,4}, phi_{1,8}, phi_{2,5}, phi_{2,3},
phi_{2,1}, phi_{3,2}.
"""

import sys

sys.path.insert(0, "src")

from cherednik.groups import ReflectionGroup
from cherednik.scalars import cyclotomic_field, parenthesize

K = cyclotomic_field(3)
z = K.gen()


def M(rows):
    return tuple(tuple(K.scalar(v) if not hasattr(v, "spec") else v
                       for v in row) for row in rows)


g1 = M([[1, 0], [0, z]])
g2 = M([[(2 * z + 1) / 3, (z - 1) / 3], [(2 * z - 2) / 3, (z + 2) / 3]])

group = ReflectionGroup(K, [g1, g2], name="G4")
print("order:", group.order)
print("reflections:", len(group.reflections))
print("orbits:", [(o.index, o.e, len(o.hyperplanes))
                  for o in group.hyperplane_orbits])
print("reflection classes:", group.num_reflection_classes)
dets = {}
for r in group.reflections:
    dets.setdefault(r.refl_class, set()).add(repr(r.eps))
print("class determinants:", dets)


def scale_mat(m, c):
    return tuple(tuple(v * c for v in row) for row in m)


def sym2(m):
    (a, b), (c, d) = m
    return (
        (a * a, a * b, b * b),
        (2 * a * c, a * d + b * c, 2 * b * d),
        (c * c, c * d, d * d),
    )


candidates = []
for chi in (K.one(), z, z * z):
    candidates.append([((chi,),), ((chi,),)])
for chi in (K.one(), z, z * z):
    candidates.append([scale_mat(g1, chi), scale_mat(g2, chi)])
candidates.append([sym2(g1), sym2(g2)])

group2 = ReflectionGroup(K, [g1, g2], name="G4",
                         irrep_data=[(None, m) for m in candidates])
for rho in group2.irreps:
    print(rho.label, "dim", rho.dim, "b", rho.b_invariant,
          "fake degree", rho.fake_degree)

wanted = ["phi_{1,0}", "phi_{1,4}", "phi_{1,8}", "phi_{2,5}", "phi_{2,3}",
          "phi_{2,1}", "phi_{3,2}"]
by_label = {rho.label: rho for rho in group2.irreps}
assert set(by_label) == set(wanted), sorted(by_label)


def fmt(v):
    s = repr(v).replace(" ", "")
    return f"({s})" if "/" in s else parenthesize(s)


lines = [
    "# exceptional complex reflection group of order 24 over Q(z3)",
    "group G4",
    "field cyclotomic 3 z3",
    "dim 2",
]
for g in (g1, g2):
    lines.append("generator")
    for row in g:
        lines.append(" " + " ".join(fmt(v) for v in row))
for label in wanted:
    rho = by_label[label]
    lines.append(f"irrep {label} {rho.dim}")
    for m in rho.gen_matrices:
        lines.append("matrix")
        for row in m:
            lines.append(" " + " ".join(fmt(v) for v in row))

with open("src/cherednik/data/G4.grp", "w") as fh:
    fh.write("\n".join(lines) + "\n")
print("wrote src/cherednik/data/G4.grp")
