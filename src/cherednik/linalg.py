"""Sparse exact matrices over a scalar spec: echelon forms, solving, kernels.

The canonical column form used throughout ("rcef") puts the pivot of each
column at the topmost possible row, scaled to 1, with the pivot row cleared
in all other columns and pivot rows strictly increasing left to right.  It
is the transpose of the reduced row echelon form of the transpose, and each
subspace has exactly one basis matrix of this shape.
"""

from __future__ import annotations

from .scalars import FieldError, Scalar


class ExactMatrix:
    __slots__ = ("spec", "nrows", "ncols", "entries")

    def __init__(self, spec, nrows, ncols, entries=None):
        self.spec = spec
        self.nrows = nrows
        self.ncols = ncols
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                if not isinstance(v, Scalar):
                    v = spec.scalar(v)
                if not v.is_zero():
                    self.entries[(i, j)] = v

    # -- construction ------------------------------------------------------
    @classmethod
    def from_rows(cls, spec, rows):
        m = cls(spec, len(rows), len(rows[0]) if rows else 0)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not isinstance(v, Scalar):
                    v = spec.scalar(v)
                if not v.is_zero():
                    m.entries[(i, j)] = v
        return m

    @classmethod
    def identity(cls, spec, n):
        m = cls(spec, n, n)
        one = spec.one()
        for i in range(n):
            m.entries[(i, i)] = one
        return m

    @classmethod
    def from_columns(cls, spec, nrows, cols):
        """cols: list of sparse dicts row -> Scalar."""
        m = cls(spec, nrows, len(cols))
        for j, col in enumerate(cols):
            for i, v in col.items():
                if not v.is_zero():
                    m.entries[(i, j)] = v
        return m

    # -- accessors ----------------------------------------------------------
    def __getitem__(self, ij):
        return self.entries.get(ij, self.spec.zero())

    def column(self, j):
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def row(self, i):
        return {j: v for (ii, j), v in self.entries.items() if ii == i}

    def to_rows(self):
        zero = self.spec.zero()
        rows = [[zero] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix)
                and self.spec == other.spec
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.nrows, self.ncols,
                     frozenset(self.entries.items())))

    def __repr__(self):
        rows = self.to_rows()
        body = "\n".join("[" + " ".join(repr(v) for v in r) + "]"
                         for r in rows)
        return f"ExactMatrix {self.nrows}x{self.ncols}\n{body}"

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        out = ExactMatrix(self.spec, self.nrows, self.ncols,
                          dict(self.entries))
        for k, v in other.entries.items():
            s = out.entries.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.entries.pop(k, None)
            else:
                out.entries[k] = s
        return out

    def __sub__(self, other):
        return self + other.scale(self.spec.scalar(-1))

    def scale(self, c):
        if not isinstance(c, Scalar):
            c = self.spec.scalar(c)
        if c.is_zero():
            return ExactMatrix(self.spec, self.nrows, self.ncols)
        return ExactMatrix(self.spec, self.nrows, self.ncols,
                           {k: v * c for k, v in self.entries.items()})

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.ncols != other.nrows:
                raise FieldError("matrix shape mismatch")
            out = ExactMatrix(self.spec, self.nrows, other.ncols)
            rows = {}
            for (i, k), v in self.entries.items():
                rows.setdefault(i, []).append((k, v))
            cols = {}
            for (k, j), v in other.entries.items():
                cols.setdefault(k, []).append((j, v))
            acc = {}
            for i, rv in rows.items():
                for k, v in rv:
                    cv = cols.get(k)
                    if not cv:
                        continue
                    for j, w in cv:
                        key = (i, j)
                        p = v * w
                        s = acc.get(key)
                        acc[key] = p if s is None else s + p
            out.entries = {k: v for k, v in acc.items() if not v.is_zero()}
            return out
        return self.scale(other)

    def transpose(self):
        out = ExactMatrix(self.spec, self.ncols, self.nrows)
        out.entries = {(j, i): v for (i, j), v in self.entries.items()}
        return out

    # -- echelon machinery ---------------------------------------------------
    def _row_list(self):
        rows = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        rows = self._row_list()
        pivots = []
        rank = 0
        for col in range(self.ncols):
            pivot_row = None
            for r in range(rank, self.nrows):
                if col in rows[r]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
            prow = rows[rank]
            inv = self.spec.one() / prow[col]
            if not (inv == 1):
                prow = {j: v * inv for j, v in prow.items()}
                rows[rank] = prow
            for r in range(self.nrows):
                if r == rank:
                    continue
                c = rows[r].get(col)
                if c is None:
                    continue
                target = rows[r]
                for j, v in prow.items():
                    s = target.get(j)
                    s = -c * v if s is None else s - c * v
                    if s.is_zero():
                        target.pop(j, None)
                    else:
                        target[j] = s
            pivots.append(col)
            rank += 1
        out = ExactMatrix(self.spec, self.nrows, self.ncols)
        for i, row in enumerate(rows):
            for j, v in row.items():
                out.entries[(i, j)] = v
        return out, pivots

    def rank(self):
        return len(self.rref()[1])

    def rcef(self):
        """The unique reduced column echelon form (pivot rows topmost)."""
        r, _ = self.transpose().rref()
        return r.transpose()

    def nullspace(self):
        """rcef basis of the right kernel {v : M v = 0}."""
        r, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        cols = []
        for f in free:
            col = {f: self.spec.one()}
            for i, p in enumerate(pivots):
                v = r.entries.get((i, f))
                if v is not None:
                    col[p] = -v
            cols.append(col)
        basis = ExactMatrix.from_columns(self.spec, self.ncols, cols)
        return basis.rcef()

    def solve(self, rhs):
        """Full affine solution set of M x = rhs.

        rhs: sparse dict row -> Scalar or an ExactMatrix column.  Returns
        (particular solution dict, nullspace basis matrix) or None if the
        system is inconsistent.
        """
        if isinstance(rhs, ExactMatrix):
            rhs = rhs.column(0)
        aug = ExactMatrix(self.spec, self.nrows, self.ncols + 1,
                          dict(self.entries))
        for i, v in rhs.items():
            if not v.is_zero():
                aug.entries[(i, self.ncols)] = v
        r, pivots = aug.rref()
        if self.ncols in pivots:
            return None
        particular = {}
        for i, p in enumerate(pivots):
            v = r.entries.get((i, self.ncols))
            if v is not None:
                particular[p] = v
        return particular, self.nullspace()

