"""Finite-dimensional Lie algebras over the exact scalar field.

An algebra is a table of structure constants against a fixed labelled basis.
Elements are coordinate tuples of Scalars.  Subspaces are kept in reduced
row echelon form, which makes span equality, membership, and coordinate
extraction exact and canonical.  rref reads its rows into sparse rows of
their nonzero entries and eliminates on sparse integer rows when the data
is rational or radical-monomial (every entry a rational multiple of one
radical, the radicals factoring over rows and columns), else on ring rows
(field.Ring); both run in the one fraction-free loop _eliminate.  The
direction checker's tall, thin int systems are decided on their k + 1
column vectors instead, not their m rows (_reduce_columns), by the same
integer update.

The Scalar loops below (bracket, the form, the matrix products, residuals)
walk lists of nonzero entries only.  An entry is zero when it is the shared
ZERO, which is tested by identity before any truth test.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .field import (
    ONE,
    ZERO,
    Scalar,
    radical_labels,
    ring_combine,
    ring_lift,
    ring_mac,
    ring_neg,
    ring_pack,
    ring_scalar,
    scalar,
)

Vector = tuple[Scalar, ...]
Matrix = list[list[Scalar]]

_ZERO7 = (0,) * 7


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def to_vector(entries: Iterable) -> Vector:
    return tuple(scalar(x) for x in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vector, b: Vector) -> Vector:
    return tuple(x + y for x, y in zip(a, b))


def vec_scale(c, a: Vector) -> Vector:
    c = scalar(c)
    return tuple(c * x for x in a)


def is_zero_vector(a: Vector) -> bool:
    return not any(a)


def nonzero_entries(row: Iterable) -> list[tuple[int, Scalar]]:
    """(j, x) for each nonzero entry x = row[j], in column order."""
    return [(j, x) for j, x in enumerate(row) if x is not ZERO and x]


# ---------------------------------------------------------------------------
# exact Gaussian elimination
# ---------------------------------------------------------------------------

def rref(rows: Sequence[Sequence]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form with deterministic first-nonzero pivoting.

    Returns the nonzero rows and their pivot columns: the pivot rows of
    _reduce, with each nonzero entry read normalized.
    """
    ncols = len(rows[0]) if rows else 0
    work, pivots, entry = _reduce(rows, ncols)
    out = []
    for i, row in enumerate(work[:len(pivots)]):
        vec = [ZERO] * ncols
        for j in row if type(row) is dict else compress(range(ncols), row):
            vec[j] = entry(i, j)
        out.append(tuple(vec))
    return out, pivots


def _reduce(
    rows: Sequence[Sequence], ncols: int
) -> tuple[list, list[int], Callable[[int, int], Scalar]]:
    """The elimination behind rref and solve_columns: the eliminated rows,
    the pivot columns, and entry(i, j), entry j of the i-th pivot row scaled
    to a leading ONE, computed only when read.

    Each dense row is read once into a sparse row {column: nonzero Scalar}.
    When radical_labels finds radicands u_i and t_j for the data (u = t = 1
    when it is rational), the rows M_ij * sqrt(t_j) / sqrt(u_i) are
    rational; each is lifted to a sparse integer row {column: nonzero int}
    by one lcm and eliminated on integers, and entry j of the row with pivot
    p reads x_j * sqrt(t_p) / sqrt(t_j) / x_p.  Other data is lifted to
    lists of ring elements, one denominator per row, eliminated with
    field.ring_combine, and a row is scaled by one Scalar inverse of its
    pivot.  Both give the same rows: the RREF is unique to the row space,
    and a column scaling keeps the pivots.
    """
    sparse = _sparse_rows(rows)
    labels = radical_labels(sparse, ncols)
    if labels is None:
        ring = []
        for row in sparse:
            if row:
                lifted = dict(zip(row, ring_lift(row.values())))
                ring.append([lifted.get(j, ()) for j in range(ncols)])
        pivots = _eliminate(ring, range(ncols), ring_combine)
        inverses = [None] * len(pivots)

        def ring_entry(i: int, j: int) -> Scalar:
            x = ring[i][j]
            if not x or j == pivots[i]:
                return ONE if x else ZERO
            if inverses[i] is None:
                inverses[i] = ring_scalar(ring[i][pivots[i]]).inverse()
            return inverses[i] * ring_scalar(x)

        return ring, pivots, ring_entry
    u, t = labels
    work = []
    for ui, row in zip(u, sparse):
        if row:
            vals = [(j, x if t[j] == ui else x * _root_ratio(t[j], ui))
                    for j, x in row.items()]
            d = lcm(*(v.den for _, v in vals))
            work.append({j: v.nums[0] * (d // v.den) for j, v in vals})
    pivots = _eliminate(work, sorted(set().union(*work)), _sparse_combine)

    def int_entry(i: int, j: int) -> Scalar:
        row = work[i]
        x = row.get(j)
        if x is None:
            return ZERO
        p = pivots[i]
        lead, tp = row[p], t[p]
        if t[j] == tp:
            return Scalar((x,) + _ZERO7, lead)
        ratio = _root_ratio(tp, t[j])
        return Scalar(tuple(x * n for n in ratio.nums), lead * ratio.den)

    return work, pivots, int_entry


def _sparse_rows(rows: Iterable[Iterable]) -> list[dict[int, Scalar]]:
    """Each row as {column: nonzero entry as a Scalar}.  The shared ZERO is
    skipped by identity, before any truth test."""
    return [
        {j: scalar(x) for j, x in enumerate(r) if x is not ZERO and x}
        for r in rows
    ]


@lru_cache(maxsize=None)
def _root_ratio(a: int, b: int) -> Scalar:
    """sqrt(a) / sqrt(b) for radicands a and b."""
    return Scalar.of_radical(a) / Scalar.of_radical(b)


def _int_combine(p: int, row: list[int], c: int, prow: list[int]) -> list[int]:
    """p * row - c * prow, divided by its gcd."""
    new = [p * x - c * y for x, y in zip(row, prow)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _sparse_combine(p: int, row: dict, c: int, prow: dict) -> dict:
    """_int_combine on sparse rows, dropping the entries that cancel."""
    new = {j: p * x for j, x in row.items()}
    for j, y in prow.items():
        new[j] = new.get(j, 0) - c * y
    g = gcd(*new.values()) or 1
    return {j: x // g for j, x in new.items() if x}


def _eliminate(
    work: list, columns: Iterable[int], combine: Callable = _int_combine
) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    with first-nonzero pivoting over the given increasing columns, which
    must hold every nonzero entry: a row r is replaced by combine(p, r, c,
    pivot row) = p * r - c * (pivot row), divided by the gcd of its integer
    coordinates.  The rows are lists of ints, or dicts {column: nonzero
    int} with _sparse_combine, read by dict.get, which gives None for a
    missing column; with field.ring_combine they are lists of ring elements
    (field.Ring), as in rref on mixed-radical data.  It serves _reduce
    alone, behind rref and solve_columns.

    Returns the pivot columns; work[:len(pivots)] are then the pivot rows.
    """
    get = dict.get if work and type(work[0]) is dict else list.__getitem__
    pivots: list[int] = []
    rank = 0
    for col in columns:
        if rank == len(work):
            break
        hits = [r for r, row in enumerate(work) if get(row, col)]
        sel = next((r for r in hits if r >= rank), None)
        if sel is None:
            continue
        prow = work[sel]
        p = prow[col]
        for r in hits:
            if r != sel:
                row = work[r]
                work[r] = combine(p, row, row[col], prow)
        work[rank], work[sel] = prow, work[rank]
        pivots.append(col)
        rank += 1
    return pivots


def kernel_basis(rows: Sequence[Sequence], ncols: int) -> list[Vector]:
    """Canonical basis of {x : M x = 0} for M given by its rows."""
    rr, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = [ZERO] * ncols
        x[free] = ONE
        for i, p in enumerate(pivots):
            c = rr[i][free]
            if c is not ZERO and c:
                x[p] = -c
        basis.append(tuple(x))
    return basis


def solve_columns(
    columns: Sequence[Vector], rhs: Vector
) -> tuple[list[Scalar] | None, int, int]:
    """Solve sum_j x_j * columns[j] = rhs exactly.

    Returns (solution with free variables set to zero, rank of the column
    matrix, rank of the augmented matrix).  The solution is None when the
    system is inconsistent.  [columns | rhs] is eliminated once (_reduce):
    an inconsistent system returns before any entry is normalized, and a
    consistent one normalizes the last column of each pivot row only.
    """
    n = len(columns)
    aug = [[col[i] for col in columns] + [b] for i, b in enumerate(rhs)]
    _, pivots, entry = _reduce(aug, n + 1)
    rank_aug = len(pivots)
    if n in pivots:
        return None, rank_aug - 1, rank_aug
    x = [ZERO] * n
    for i, p in enumerate(pivots):
        x[p] = entry(i, n)
    return x, rank_aug, rank_aug


def _reduce_columns(
    columns: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[int, list[int] | None]:
    """The elimination behind solve_int_columns, on the column vectors of
    [columns | rhs] instead of its rows.

    Each vector carries k + 1 tags t after its data, data = sum_j t_j *
    columns[j] + t_k * rhs, starting from the tag 1 in its own slot.  Each
    column, then rhs, is reduced against the columns kept before it by
    _int_combine(p, v, c, w) = p * v - c * w at the pivot of w (its first
    nonzero data coordinate), which leaves v zero at every kept pivot; so
    its data is zero exactly when it lies in the span of the kept columns,
    and a column is kept otherwise.  The kept count is rank_map.  Returns
    (rank_map, tags): tags is None when rhs is not in the span, and else
    those of the reduced rhs, sum_j t_j * columns[j] = -t_k * rhs with t_k
    nonzero and t_j zero for each column not kept (a free variable).
    """
    m, k = len(rhs), len(columns)
    pad = [0] * (k + 1)
    kept: list[tuple[int, list[int]]] = []

    def reduced(data: Sequence[int], j: int) -> list[int]:
        v = [*data, *pad]
        v[m + j] = 1
        for q, w in kept:
            c = v[q]
            if c:
                v = _int_combine(w[q], v, c, w)
        return v

    for j, col in enumerate(columns):
        v = reduced(col, j)
        q = next(compress(range(m), v), None)
        if q is not None:
            kept.append((q, v))
    v = reduced(rhs, k)
    return len(kept), None if any(v[:m]) else v[m:]


def solve_int_columns(
    columns: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[tuple[list[int], int] | None, int, int]:
    """solve_columns for integer data, fraction-free.

    _reduce_columns on the column vectors with the row update _int_combine.
    Returns ((nums, den), rank_map, rank_augmented): the solution with free
    variables set to zero is x_j = nums[j] / den, with den > 0.  The
    solution is None when the system is inconsistent.  A solution is
    checked on the given ints before it is returned, sum_j nums[j] *
    columns[j] = den * rhs, and a mismatch raises ArithmeticError.
    """
    rank, tags = _reduce_columns(columns, rhs)
    if tags is None:
        return None, rank, rank + 1
    nums, den = tags[:-1], -tags[-1]
    if den < 0:
        nums, den = [-x for x in nums], -den
    acc = [den * b for b in rhs]
    for x, col in zip(nums, columns):
        if x:
            acc = [a - x * y for a, y in zip(acc, col)]
    if any(acc):
        raise ArithmeticError("the solution does not solve the system")
    return (nums, den), rank, rank


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of K^n held as canonical RREF rows, and the nonzero
    entries of each row."""

    ambient_dim: int
    rows: tuple[Vector, ...]
    pivots: tuple[int, ...]
    _entries: tuple = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_entries", tuple(nonzero_entries(r) for r in self.rows)
        )

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable) -> "Subspace":
        vecs = [to_vector(v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length does not match ambient dim")
        rr, piv = rref(vecs)
        return cls(ambient_dim, tuple(rr), tuple(piv))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_vectors(
            ambient_dim, [unit_vector(ambient_dim, i) for i in range(ambient_dim)]
        )

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def residual(self, v: Vector) -> Vector:
        """v minus its projection onto the span along pivot coordinates;
        zero exactly when v lies in the subspace."""
        w = list(to_vector(v))
        for entries, p in zip(self._entries, self.pivots):
            c = w[p]
            if c is not ZERO and c:
                for j, y in entries:
                    w[j] = w[j] - c * y
        return tuple(w)

    def contains(self, v: Vector) -> bool:
        return is_zero_vector(self.residual(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def coords(self, v: Vector) -> list[Scalar]:
        """Coordinates of v against the RREF basis rows."""
        v = to_vector(v)
        if not self.contains(v):
            raise ValueError("vector is not in the subspace")
        return [v[p] for p in self.pivots]

    def combine(self, coeffs: Sequence) -> Vector:
        """The ambient vector sum_i coeffs[i] * rows[i]; inverse of coords."""
        if len(coeffs) != self.dim:
            raise ValueError(
                f"expected {self.dim} coefficients, got {len(coeffs)}"
            )
        out = [ZERO] * self.ambient_dim
        for c, entries in zip(coeffs, self._entries):
            if c is not ZERO and c:
                for k, x in entries:
                    out[k] = out[k] + c * x
        return tuple(out)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return Subspace.from_vectors(self.ambient_dim, self.rows + other.rows)

    def kernel_of(self, images: Sequence[Sequence]) -> "Subspace":
        """{sum_t y_t * rows[t] : sum_t y_t * images[t] = 0}.

        images[t] is the flattened image of rows[t] under a linear map, so
        the result is the kernel of that map restricted to this subspace.
        """
        if len(images) != self.dim:
            raise ValueError(f"expected {self.dim} images, got {len(images)}")
        constraints = list(zip(*images))
        return Subspace.from_vectors(
            self.ambient_dim,
            [self.combine(y) for y in kernel_basis(constraints, self.dim)],
        )

    def intersection(self, other: "Subspace") -> "Subspace":
        """Exact intersection: the rows' combinations that other contains."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimensions differ")
        return self.kernel_of([other.residual(r) for r in self.rows])

    def __str__(self) -> str:
        return f"Subspace(dim {self.dim} of {self.ambient_dim})"


# ---------------------------------------------------------------------------
# Lie algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieAlgebra:
    """Structure constants against a fixed labelled basis.

    table[i][j] lists (k, c) pairs with [e_i, e_j] = sum c * e_k.
    form is the invariant negative-definite symmetric form used for all
    orthogonality and metric constructions, kept with the nonzero entries of
    each of its rows.  killing_scale, when set, is the rational ratio
    between the raw trace form and the stored form.
    """

    name: str
    labels: tuple[str, ...]
    table: tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]
    form: tuple[Vector, ...]
    killing_scale: Fraction | None = None
    _label_index: dict = dc_field(default=None, compare=False, repr=False)
    _form_entries: tuple = dc_field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_label_index", {lab: i for i, lab in enumerate(self.labels)}
        )
        object.__setattr__(
            self, "_form_entries", tuple(nonzero_entries(r) for r in self.form)
        )

    @classmethod
    def from_bracket_function(
        cls,
        name: str,
        labels: Sequence[str],
        bracket_fn: Callable[[int, int], dict[int, Scalar]],
        form: Sequence[Sequence],
        killing_scale: Fraction | None = None,
    ) -> "LieAlgebra":
        n = len(labels)
        table = tuple(
            tuple(
                tuple(sorted((k, c) for k, c in bracket_fn(i, j).items() if c))
                for j in range(n)
            )
            for i in range(n)
        )
        form_rows = tuple(to_vector(r) for r in form)
        return cls(name, tuple(labels), table, form_rows, killing_scale)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._label_index[label]

    def basis_vector(self, label_or_index) -> Vector:
        i = (
            label_or_index
            if isinstance(label_or_index, int)
            else self.index(label_or_index)
        )
        return unit_vector(self.dim, i)

    def element(self, coeffs: dict) -> Vector:
        """Build a vector from {label: coefficient}."""
        v = [ZERO] * self.dim
        for lab, c in coeffs.items():
            v[self.index(lab)] = v[self.index(lab)] + scalar(c)
        return tuple(v)

    # -- bracket and adjoint ---------------------------------------------

    def bracket(self, v: Vector, w: Vector) -> Vector:
        acc = [ZERO] * self.dim
        w_entries = nonzero_entries(w)
        for i, a in nonzero_entries(v):
            row = self.table[i]
            for j, b in w_entries:
                terms = row[j]
                if terms:
                    ab = a * b
                    for k, c in terms:
                        acc[k] = acc[k] + ab * c
        return tuple(acc)

    def ad(self, v: Vector) -> Matrix:
        """Matrix of ad(v): column j holds the coordinates of [v, e_j]."""
        n = self.dim
        cols = [self.bracket(v, unit_vector(n, j)) for j in range(n)]
        return [[cols[j][i] for j in range(n)] for i in range(n)]

    def trace_form(self, v: Vector, w: Vector) -> Scalar:
        """Raw trace form tr(ad v . ad w), computed from scratch."""
        return trace_product(self.ad(v), self.ad(w))

    def killing(self, v: Vector, w: Vector) -> Scalar:
        """Trace form, divided by the stored scale when one is known."""
        t = self.trace_form(v, w)
        if self.killing_scale is None:
            return t
        return t * scalar(Fraction(1, 1) / self.killing_scale)

    def form_value(self, v: Vector, w: Vector) -> Scalar:
        total = ZERO
        for i, a in nonzero_entries(v):
            for j, c in self._form_entries[i]:
                b = w[j]
                if b is not ZERO and b:
                    total = total + a * b * c
        return total

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.dim)

    def jacobi_defect(self, u: Vector, v: Vector, w: Vector) -> Vector:
        return vec_add(
            vec_add(
                self.bracket(u, self.bracket(v, w)),
                self.bracket(v, self.bracket(w, u)),
            ),
            self.bracket(w, self.bracket(u, v)),
        )


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------

def su2(prefix: str = "") -> LieAlgebra:
    """The compact three-dimensional algebra with basis iH, F, G and
    relations [iH, F] = 2G, [iH, G] = -2F, [F, G] = 2iH."""
    labels = (f"{prefix}iH", f"{prefix}F", f"{prefix}G")
    two = scalar(2)
    table = {(0, 1): {2: two}, (0, 2): {1: -two}, (1, 2): {0: two}}
    table.update({(j, i): {k: -c for k, c in b.items()} for (i, j), b in table.items()})
    m4 = scalar(-4)
    form = [[m4 if i == j else ZERO for j in range(3)] for i in range(3)]
    return LieAlgebra.from_bracket_function(
        "su2", labels, lambda i, j: table.get((i, j), {}), form, Fraction(2)
    )


def abelian(labels: Sequence[str], form_diagonal: Sequence) -> LieAlgebra:
    n = len(labels)
    diag = [scalar(x) for x in form_diagonal]
    form = [[diag[i] if i == j else ZERO for j in range(n)] for i in range(n)]
    return LieAlgebra.from_bracket_function(
        "abelian", labels, lambda i, j: {}, form, None
    )


def direct_sum(name: str, *parts: LieAlgebra) -> LieAlgebra:
    labels: list[str] = []
    for part in parts:
        labels.extend(part.labels)
    if len(set(labels)) != len(labels):
        raise ValueError("direct sum needs distinct basis labels")
    n = len(labels)
    offsets = list(accumulate((part.dim for part in parts[:-1]), initial=0))

    def br(i: int, j: int) -> dict[int, Scalar]:
        for part, o in zip(parts, offsets):
            if o <= i < o + part.dim and o <= j < o + part.dim:
                return {
                    k + o: c for k, c in part.table[i - o][j - o]
                }
        return {}

    form = [[ZERO] * n for _ in range(n)]
    for part, o in zip(parts, offsets):
        for i in range(part.dim):
            for j in range(part.dim):
                form[o + i][o + j] = part.form[i][j]
    scales = {part.killing_scale for part in parts}
    scale = scales.pop() if len(scales) == 1 else None
    return LieAlgebra.from_bracket_function(name, labels, br, form, scale)


# ---------------------------------------------------------------------------
# structural subspaces
# ---------------------------------------------------------------------------

def centralizer_in(L: LieAlgebra, sub: Subspace, within: Subspace) -> Subspace:
    """{x in `within` : [x, s] = 0 for all s in `sub`}."""
    return within.kernel_of(
        [[x for s in sub.rows for x in L.bracket(b, s)] for b in within.rows]
    )


def normalizer(L: LieAlgebra, sub: Subspace) -> Subspace:
    """{x in L : [x, sub] is contained in sub}, over all of L.  No module
    of the package calls it: the normalizer of h is h plus the fixed part
    of m (gocheck.fibration_metric), and the tests compare the fixed part
    with it, as the independent reference."""
    full = L.full_subspace()
    return full.kernel_of(
        [
            [x for s in sub.rows for x in sub.residual(L.bracket(e, s))]
            for e in full.rows
        ]
    )


def orth_complement(L: LieAlgebra, sub: Subspace) -> Subspace:
    """Orthogonal complement in all of L under the algebra's stored
    invariant form (the catalogue's m is that of h)."""
    full = L.full_subspace()
    return full.kernel_of([[L.form_value(b, s) for s in sub.rows] for b in full.rows])


def subalgebra_closure(L: LieAlgebra, vectors: Iterable) -> Subspace:
    """Smallest Lie subalgebra containing the given vectors."""
    span = Subspace.from_vectors(L.dim, vectors)
    while True:
        new_vectors = list(span.rows)
        grown = False
        for i, a in enumerate(span.rows):
            for b in span.rows[i + 1:]:
                w = L.bracket(a, b)
                if not span.contains(w):
                    new_vectors.append(w)
                    grown = True
        if not grown:
            return span
        span = Subspace.from_vectors(L.dim, new_vectors)


def subalgebra_generators(
    L: LieAlgebra, rows: Sequence[Vector]
) -> tuple[tuple[int, ...], Subspace]:
    """Greedy generators of the subalgebra the rows generate: the indices of
    the rows that the closure of the earlier picks misses, and that closure
    (the rows' span exactly when they span a subalgebra).  The picks' adjoint
    matrices have the commutant of all rows', since ad[x, y] = [ad x, ad y]."""
    picks, closure = [], Subspace.zero(L.dim)
    for i, b in enumerate(rows):
        if not closure.contains(b):
            picks.append(i)
            closure = subalgebra_closure(L, [rows[k] for k in picks])
    return tuple(picks), closure


def matrix_kernel_of(mats: Sequence[Matrix], images: Sequence) -> list[Matrix]:
    """{sum_t y_t * mats[t] : sum_t y_t * images[t] = 0} for square matrices
    mats[t] with flattened images images[t]: the twin of Subspace.kernel_of."""
    null = kernel_basis(list(zip(*images)), len(mats))
    return [mat_combine(y, mats, len(mats[0])) for y in null]


def commuting_operators(ads: Sequence[Matrix], d: int) -> list[Matrix]:
    """Basis of {T : TA = AT for every A in ads}, for d x d matrices A.

    Entry (i, j) of TA - AT is sum_q T_iq A_qj - sum_p A_ip T_pj: one
    constraint row on T flattened row by row, with column j of A at the
    columns of T's row i, minus row i of A at the columns of T's column j.
    """
    rows = []
    for A in ads:
        entries = [nonzero_entries(r) for r in A]
        for i in range(d):
            for j in range(d):
                row = [ZERO] * (d * d)
                row[i * d:(i + 1) * d] = [A[q][j] for q in range(d)]
                for p, a in entries[i]:
                    row[p * d + j] = row[p * d + j] - a
                rows.append(row)
    return [
        [list(t[i * d:(i + 1) * d]) for i in range(d)]
        for t in kernel_basis(rows, d * d)
    ]


def _simple_ideals(L: LieAlgebra, derived: Subspace) -> list[Subspace]:
    """The simple ideals of a compact semisimple subalgebra: the joint
    eigenspaces of the commutant of its adjoint action on itself.

    That commutant is one scalar per simple ideal (the adjoint action of a
    compact simple algebra is absolutely irreducible), so its joint
    eigenspaces are exactly the simple ideals.
    """
    if derived.is_zero():
        return []
    gens, _ = subalgebra_generators(L, derived.rows)
    ad_mats = [ad_on(L, derived.rows[k], derived) for k in gens]
    parts = [derived]
    for T in commuting_operators(ad_mats, derived.dim):
        refined: list[Subspace] = []
        for part in parts:
            if part.dim <= 1:
                refined.append(part)
                continue
            # Restrict T to the part (T preserves it: it commutes with the
            # action and the part is a sum of ideals).
            op = operator_on_subspace(
                lambda w: derived.combine(mat_apply(T, derived.coords(w))), part
            )
            refined.extend(piece for _, piece in eigenspaces(part, op))
        parts = refined
    return parts


def ideal_decomposition(
    L: LieAlgebra, sub: Subspace | None = None
) -> tuple[Subspace, list[Subspace]]:
    """Split a compact subalgebra into its center and simple ideals.

    Returns (center, [simple ideals]), ideals sorted by dimension then by
    their RREF rows for determinism.
    """
    S = sub if sub is not None else L.full_subspace()
    center = centralizer_in(L, S, S)
    derived_vectors = []
    for i, a in enumerate(S.rows):
        for b in S.rows[i + 1:]:
            derived_vectors.append(L.bracket(a, b))
    derived = Subspace.from_vectors(L.dim, derived_vectors)
    if center.dim + derived.dim != S.dim:
        raise ArithmeticError(
            "center and derived subalgebra do not complement; "
            "the subalgebra is not compact-reductive"
        )
    ideals = _simple_ideals(L, derived)
    ideals.sort(key=lambda p: (p.dim, [str(x) for r in p.rows for x in r]))
    return center, ideals


# ---------------------------------------------------------------------------
# operators on subspaces, minimal polynomials, rational spectra
# ---------------------------------------------------------------------------

def operator_on_subspace(
    apply_fn: Callable[[Vector], Vector], sub: Subspace
) -> list[list[Scalar]]:
    """Matrix (in sub's basis) of a linear map that preserves sub."""
    cols = [sub.coords(apply_fn(b)) for b in sub.rows]
    d = sub.dim
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def ad_on(L: LieAlgebra, a: Vector, sub: Subspace) -> Matrix:
    """Matrix of ad(a) restricted to sub, in sub's basis; sub must be
    ad(a)-invariant."""
    return operator_on_subspace(lambda v: L.bracket(a, v), sub)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    m = len(b[0])
    b_entries = [nonzero_entries(row) for row in b]
    out = []
    for row in a:
        acc = [ZERO] * m
        for k, x in nonzero_entries(row):
            for j, y in b_entries[k]:
                acc[j] = acc[j] + x * y
        out.append(acc)
    return out


def identity_matrix(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_scale(c, a: Matrix) -> Matrix:
    c = scalar(c)
    return [[c * x for x in row] for row in a]


def mat_combine(coeffs: Sequence, mats: Sequence[Matrix], n: int) -> Matrix:
    """The n x n matrix sum_k coeffs[k] * mats[k], skipping zero terms."""
    out = [[ZERO] * n for _ in range(n)]
    for c, M in zip(coeffs, mats):
        if c is not ZERO and c:
            for row_out, row in zip(out, M):
                for j, x in nonzero_entries(row):
                    row_out[j] = row_out[j] + c * x
    return out


def scalar_of(mat: Matrix) -> Scalar | None:
    """c when the nonempty square matrix mat equals c times the identity,
    otherwise None."""
    c = mat[0][0]
    n = len(mat)
    if all(
        mat[i][j] == (c if i == j else ZERO) for i in range(n) for j in range(n)
    ):
        return c
    return None


def trace_product(a: Matrix, b: Matrix) -> Scalar:
    """tr(a b) for square matrices a and b."""
    total = ZERO
    for i, row in enumerate(a):
        for j, x in nonzero_entries(row):
            y = b[j][i]
            if y is not ZERO and y:
                total = total + x * y
    return total


def mat_transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_apply(a: Matrix, v: Vector) -> Vector:
    v_entries = nonzero_entries(v)
    out = []
    for row in a:
        acc = ZERO
        for j, x in v_entries:
            y = row[j]
            if y is not ZERO and y:
                acc = acc + y * x
        out.append(acc)
    return tuple(out)


# A matrix as sparse rows: for each row, the (column, entry) pairs of its
# nonzero entries in column order.  Lifted entries are ints or ring elements.
SparseRows = tuple[tuple[tuple[int, object], ...], ...]


def lift_rows(mat: Iterable[Iterable[Scalar]]) -> SparseRows:
    """The nonzero entries of mat cleared of one common denominator d > 0
    by field.ring_lift, as sparse ring rows.  Zero entries are skipped:
    they do not change d."""
    entries = [nonzero_entries(row) for row in mat]
    it = iter(ring_lift([c for row in entries for _, c in row]))
    return tuple(tuple((j, next(it)) for j, _ in row) for row in entries)


def int_rows(rows: SparseRows) -> SparseRows | None:
    """Sparse ring rows as sparse int rows when every entry is rational,
    else None.  On the lift of rational data these are the ints that
    field.clear_denominators gives, over the same d."""
    if any(len(c) > 1 or c[0][0] for row in rows for _, c in row):
        return None
    return tuple(tuple((j, c[0][1]) for j, c in row) for row in rows)


def _ring_row_mac(acc: dict[int, list[int]], row, b: SparseRows) -> dict:
    """acc += row b, for a sparse ring row and sparse ring rows b, on eight
    coordinates per column."""
    for k, x in row:
        for j, y in b[k]:
            if j not in acc:
                acc[j] = [0] * 8
            ring_mac(acc[j], x, y)
    return acc


def ring_rows_mul(a: SparseRows, b: SparseRows) -> SparseRows:
    """The product a b of matrices given as sparse ring rows, exactly, as
    sparse ring rows: equal products compare equal."""
    out = []
    for row in a:
        acc = _ring_row_mac({}, row, b)
        packed = ((j, ring_pack(acc[j])) for j in sorted(acc))
        out.append(tuple((j, v) for j, v in packed if v))
    return tuple(out)


def ring_rows_commute(a: SparseRows, b: SparseRows) -> bool:
    """Whether a b = b a, for square matrices given as sparse ring rows:
    row by row, a b - b a accumulates exactly and must vanish."""
    for row_a, row_b in zip(a, b):
        acc = _ring_row_mac({}, row_a, b)
        _ring_row_mac(acc, [(k, ring_neg(y)) for k, y in row_b], a)
        if any(map(any, acc.values())):
            return False
    return True


def rows_symmetric(rows: SparseRows) -> bool:
    """Whether the square matrix given as sparse rows equals its transpose."""
    entries = {(i, j): c for i, row in enumerate(rows) for j, c in row}
    return all(entries.get((j, i)) == c for (i, j), c in entries.items())


def mat_inverse(mat: Matrix) -> Matrix:
    """Exact inverse; raises ArithmeticError when the matrix is singular."""
    n = len(mat)
    augmented = [
        tuple(mat[i]) + unit_vector(n, i) for i in range(n)
    ]
    rows, pivots = rref(augmented)
    if pivots != list(range(n)):
        raise ArithmeticError("matrix is not invertible")
    return [[rows[i][n + j] for j in range(n)] for i in range(n)]


def gram_matrix(L: LieAlgebra, vectors: Sequence[Vector]) -> Matrix:
    """Gram matrix of -form on the given vectors (positive definite when
    the vectors are independent, since the stored form is negative definite)."""
    return [[-L.form_value(v, w) for w in vectors] for v in vectors]


def is_positive_definite(mat: Matrix) -> bool:
    """Exact Sylvester test via Gaussian pivots of a symmetric matrix."""
    n = len(mat)
    work = [list(row) for row in mat]
    for k in range(n):
        piv = work[k][k]
        if piv.sign() <= 0:
            return False
        for i in range(k + 1, n):
            if work[i][k]:
                factor = work[i][k] / piv
                for j in range(k, n):
                    work[i][j] = work[i][j] - factor * work[k][j]
    return True


def minimal_polynomial(op: Matrix) -> list[Fraction]:
    """Monic minimal polynomial of a square matrix, low degree first.

    Uses flattened Krylov powers.  Raises if any coefficient is irrational.
    """
    n = len(op)
    power = identity_matrix(n)
    flats: list[Vector] = []
    while True:
        flat = tuple(power[i][j] for i in range(n) for j in range(n))
        sol, _, _ = solve_columns(flats, flat)
        if sol is not None:
            coeffs = [-c for c in sol] + [ONE]
            out = []
            for c in coeffs:
                if not c.is_rational:
                    raise ArithmeticError(
                        "minimal polynomial has an irrational coefficient"
                    )
                out.append(c.as_fraction())
            return out
        flats.append(flat)
        power = mat_mul(power, op)
        if len(flats) > n + 1:  # pragma: no cover - cannot happen
            raise ArithmeticError("minimal polynomial search did not terminate")


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All roots of a monic rational polynomial that factors into rational
    linear pieces; raises otherwise.  Roots are listed with multiplicity."""
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("polynomial must be monic")
    # Clear denominators to integers.
    den = lcm(*(q.denominator for q in coeffs))
    poly = [int(q * den) for q in coeffs]
    roots: list[Fraction] = []
    while len(poly) > 1:
        if all(c == 0 for c in poly[:-1]):
            roots.extend([Fraction(0)] * (len(poly) - 1))
            break
        # Strip factors of x.
        if poly[0] == 0:
            poly = poly[1:]
            roots.append(Fraction(0))
            continue
        lead, const = poly[-1], poly[0]
        found = None
        for p in _divisors(abs(const)):
            for q in _divisors(abs(lead)):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if _poly_eval(poly, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            raise ArithmeticError(
                "polynomial does not split into rational linear factors"
            )
        roots.append(found)
        poly = _deflate(poly, found)
    return sorted(roots)


def eigenspace_in(part: Subspace, op: Matrix, lam: Fraction) -> Subspace:
    """Kernel of (op - lam) inside `part`, with op given on part's basis."""
    d = part.dim
    lam_s = scalar(lam)
    # images[t] is column t of op - lam: the image of part's row t.
    return part.kernel_of(
        [
            [op[i][t] - (lam_s if i == t else ZERO) for i in range(d)]
            for t in range(d)
        ]
    )


def eigenspaces(part: Subspace, op: Matrix) -> list[tuple[Fraction, Subspace]]:
    """(lam, eigenspace_in(part, op, lam)) for each distinct eigenvalue lam
    of op, in increasing order.  Raises ArithmeticError when an eigenvalue
    is irrational or the eigenspaces do not fill part."""
    pieces = [
        (lam, eigenspace_in(part, op, lam))
        for lam in sorted(set(rational_roots(minimal_polynomial(op))))
    ]
    if sum(piece.dim for _, piece in pieces) != part.dim:
        raise ArithmeticError("eigenspaces do not fill: op is not diagonalizable")
    return pieces


def _divisors(n: int) -> list[int]:
    if n == 0:
        return [1]
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _poly_eval(poly: list[int], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _deflate(poly: list[int], root: Fraction) -> list[int]:
    """Divide an integer polynomial by (x - root), root = p/q exact."""
    # Synthetic division by (q x - p) then renormalize: poly = (x - p/q) * g.
    out: list[Fraction] = [Fraction(0)] * (len(poly) - 1)
    carry = Fraction(0)
    for i in range(len(poly) - 1, 0, -1):
        carry = Fraction(poly[i]) + carry
        out[i - 1] = carry
        carry = carry * root
    # Remainder check.
    if Fraction(poly[0]) + carry != 0:
        raise ArithmeticError("deflation by a non-root")
    den = lcm(*(q.denominator for q in out))
    ints = [int(q * den) for q in out]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    return ints
