"""Sparse exact matrices over a scalar spec: echelon forms, solving, kernels.

The canonical column form used throughout ("rcef") puts the pivot of each
column at the topmost possible row, scaled to 1, with the pivot row cleared
in all other columns and pivot rows strictly increasing left to right.  It
is the transpose of the reduced row echelon form of the transpose, and each
subspace has exactly one basis matrix of this shape.

``Echelon`` is the one exact elimination: it keeps that canonical basis of
a span as sparse vectors, each with a 1 at its pivot (its topmost support)
and a 0 at every other pivot.  By that invariant ``Echelon.reduce`` clears
a vector's pivot coordinates with one subtraction per pivot it hits.
``rref`` and ``rank`` insert a matrix's rows, ``rcef`` its columns, and
``nullspace`` and ``solve`` read their answers off the row echelon; the
module spins and quotients of ``modules`` use it directly.
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

    # -- echelon forms -------------------------------------------------------
    def _row_echelon(self):
        return Echelon(self.spec, self.transpose().columns())

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list)."""
        ech = self._row_echelon()
        pivots = sorted(ech.vecs)
        out = ExactMatrix(self.spec, self.nrows, self.ncols)
        out.entries = {(i, j): v for i, p in enumerate(pivots)
                       for j, v in ech.vecs[p].items()}
        return out, pivots

    def rank(self):
        return self._row_echelon().rank()

    def rcef(self):
        """The unique reduced column echelon form (pivot rows topmost)."""
        cols = Echelon(self.spec, self.columns()).columns()
        return ExactMatrix.from_columns(
            self.spec, self.nrows, cols + [{}] * (self.ncols - len(cols)))

    def nullspace(self):
        """rcef basis of the right kernel {v : M v = 0}."""
        ech = self._row_echelon()
        one = self.spec.one()
        cols = []
        for f in range(self.ncols):
            if f not in ech.vecs:
                col = {p: -r[f] for p, r in ech.vecs.items() if f in r}
                col[f] = one
                cols.append(col)
        return ExactMatrix.from_columns(self.spec, self.ncols, cols).rcef()

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
        ech = aug._row_echelon()
        if self.ncols in ech.vecs:
            return None
        particular = {p: r[self.ncols] for p, r in sorted(ech.vecs.items())
                      if self.ncols in r}
        return particular, self.nullspace()


def _sub_scaled(v, w, c):
    """v -= c*w in place on sparse dicts; a sum that cancels is dropped."""
    for i, x in w.items():
        s = v.get(i)
        s = -c * x if s is None else s - c * x
        if s.is_zero():
            v.pop(i, None)
        else:
            v[i] = s


class Echelon:
    """Incremental reduced echelon of sparse vectors (dicts index ->
    Scalar), the package's one exact elimination.

    ``vecs`` maps each pivot p to a stored vector whose topmost support is
    p, with a 1 there and a 0 at every other pivot.  Sorted by pivot, the
    stored vectors are the unique canonical basis of their span: as rows,
    its reduced row echelon form; as columns, its rcef."""

    def __init__(self, spec, vectors=()):
        self.spec = spec
        self.vecs = {}
        for v in vectors:
            self.insert(v)

    def reduce(self, v):
        """v with every pivot coordinate cleared, as a new sparse dict.
        Subtracting a stored vector changes no other pivot coordinate, so
        one subtraction per pivot that v hits is enough, in any order."""
        v = {i: c for i, c in v.items() if not c.is_zero()}
        for p in [p for p in v if p in self.vecs]:
            _sub_scaled(v, self.vecs[p], v[p])
        return v

    def insert(self, v):
        """Add v to the span.  Returns the new stored vector (later inserts
        may change it in place), or None when v is already in the span."""
        v = self.reduce(v)
        if not v:
            return None
        p = min(v)
        if not (v[p] == 1):
            inv = self.spec.one() / v[p]
            v = {i: c * inv for i, c in v.items()}
        for r in self.vecs.values():
            if p in r:
                _sub_scaled(r, v, r[p])
        self.vecs[p] = v
        return v

    def contains(self, v):
        return not self.reduce(v)

    def columns(self):
        return [self.vecs[p] for p in sorted(self.vecs)]

    def matrix(self, nrows):
        """The canonical basis as the columns of a matrix."""
        return ExactMatrix.from_columns(self.spec, nrows, self.columns())

    def rank(self):
        return len(self.vecs)
