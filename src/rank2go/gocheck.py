"""Invariant metrics and the geodesic-orbit property checker.

An invariant metric on a catalogued space is encoded by its metric
endomorphism: an operator on the transverse part m that is symmetric for
the invariant form, positive definite, and commutes with the isotropy
action.  The geodesic-orbit test for a direction X asks for a compensator
a in h with [a, MX] = [MX, X]; the space is geodesic-orbit for M exactly
when every X admits one.  This module solves that linear problem exactly,
samples it over structured and random directions, and applies two
necessary-condition filters that rule metrics out without sampling.

The search runs in m-coordinates, on data built once per space: the
isotropy action ad(h_i)|_m as ring rows (isotypic.isotropy_action, which
casimir and validation read too), the int tensors of the direction checker
(_int_tensors: those rows and the bracket m x m -> h + m, built in one
step), the fixed part of m with its fixed-vector actions and the int basis
rows of its simple ideals for the filters, and the structured batch of
directions, each cleared to ints once.  The search hands the checker int
vectors only: the batch's ints and random draws of ints.  Each direction
needs only the rank pair of a small system on ints, decided fraction-free
on its column vectors (_direction_checker): every two-block metric of a
space on the one rational system of P_0 + 2 P_1 (two_block_family), any
other metric on its own int rows, and a metric with two or more radical
parts, or any metric on c2.3 and g2.4, whose h is irrational, by the
ambient solve_compensator.  No search over the catalogue reaches that last
case: such a metric is written on the commutant basis or given explicitly,
and every metric on c2.3 and g2.4 is scalar.  No Scalar is eliminated in
the search, and a Scalar direction is built only for a witness.  A
direction X with MX = lambda X builds no system at all: [MX, X] = lambda
[X, X] = 0, so a = 0 compensates it (the geodesic lemma: X is geodesic
exactly when [MX, X] lies in [h, MX]; Alekseevsky-Nikonorov, SIGMA 5
(2009) 093).  The search finds the scalar lambda_k of M on each isotypic
component V_k, where there is one (_MetricRows.eigen_labels), and decides
every structured direction built from components that share one lambda; a
scalar metric M = cI decides every direction this way.
`solve_compensator` keeps the ambient-coordinate solve, and
`verify_witness` replays every witness through it, independently of the
search.

Every matrix is lifted by the one function liealg.lift_rows (its nonzero
entries cleared of one common denominator d > 0, as ring rows; int rows
are read off them by liealg.int_rows).  A validated metric is lifted once,
at validation (_MetricRows), and every per-metric test runs on that lift
against the space's data lifted once per space; no Scalar matrix is
multiplied per metric, and no test changes under the positive factors.

A per-component block metric M = sum_k c_k P_k, P_k the projection onto
the isotypic component V_k, is decided by its coefficients alone, and
every named metric is one (standard_metric, fibration_metric); it is
built from the nonzero entries of the P_k (_block_matrix) and lifted only
by the checker, on demand (_direction_checker).  The V_k are mutually
S-orthogonal and h-invariant (isotypic._analyze checks both), so each P_k
is S-self-adjoint and commutes with every ad(h_i)|_m: S M is symmetric, M
commutes with the isotropy action, and x^T S M x = sum_k c_k |P_k x|_S^2,
so S M is positive definite exactly when every c_k > 0, S being positive
definite on m (isotypic.isotropy_action checks it).  M is c_k on V_k,
which gives the eigen labels, and M passes both filters: the fixed part is
one component, and each fixed-vector action commutes with the isotropy
action, so it maps every V_k into itself.  On a space of two components
with [V_0, V_1] in V_(1-f) (_fiber_index, checked once per space), every
such metric with c_0 != c_1, the fibration metrics among them, gets one
search verdict: scaling rows and r takes its systems to one free of c
(two_block_family), and the checker decides all of them on the system of
P_0 + 2 P_1.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field as dc_field, replace
from itertools import chain
from typing import Callable, Sequence

from .embed import CatalogSpace, named_subalgebra
from .field import (
    ONE,
    ZERO,
    Scalar,
    clear_denominators,
    parse_scalar,
    ring_scalar,
    scalar,
)
from .isotypic import (
    commutant_symmetric_basis,
    component_projections,
    isotropy_action,
    isotypic_decompose,
    per_space,
)
from .liealg import (
    Matrix,
    SparseRows,
    Vector,
    ad_on,
    ideal_decomposition,
    is_positive_definite,
    int_rows,
    lift_rows,
    mat_apply,
    mat_combine,
    mat_inverse,
    mat_scale,
    mat_transpose,
    nonzero_entries,
    ring_rows_commute,
    ring_rows_mul,
    rows_symmetric,
    solve_columns,
    solve_int_columns,
    subalgebra_closure,
)

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 200
DEFAULT_BUDGET = 50
STATUS_GO_SAMPLED = "go_sampled"
STATUS_NOT_GO = "not_go_certified"
STATUS_FILTERED = "filtered_out"


# -- metric endomorphisms -----------------------------------------------------

@dataclass(frozen=True)
class MetricEndomorphism:
    """A validated invariant-metric operator on m, in m-coordinates.

    provenance is one of "standard", "block_coeffs", "fibration",
    "explicit"; params carries the defining data as exact strings.  rows is
    what every per-metric test reads (_MetricRows)."""

    space: CatalogSpace
    matrix: Matrix
    provenance: str
    params: tuple[str, ...]
    rows: "_MetricRows" = dc_field(compare=False, repr=False)

    def apply(self, v: Vector) -> Vector:
        """Apply to an ambient vector lying in m; returns an ambient vector."""
        m = self.space.m
        return m.combine(mat_apply(self.matrix, m.coords(v)))

    def scaled(self, c) -> "MetricEndomorphism":
        """The homothetic metric c * M (c must be positive).  A per-component
        block metric stays one, on the coefficients c c_k, with no test."""
        c = scalar(c)
        if c.sign() <= 0:
            raise ValueError("a homothety factor must be positive")
        params = self.params + (c.exact_str(),)
        if self.rows.coeffs is None:
            matrix = mat_scale(c, self.matrix)
            return _validated(self.space, matrix, self.provenance, params)
        rows = _MetricRows(coeffs=tuple(c * k for k in self.rows.coeffs))
        matrix = _block_matrix(self.space, rows.coeffs)
        return replace(self, matrix=matrix, params=params, rows=rows)


def _validated(
    space: CatalogSpace,
    matrix: Matrix,
    provenance: str,
    params: tuple[str, ...],
) -> MetricEndomorphism:
    """The metric of an operator on m, after three checks in this order: S M
    is symmetric, for S the Gram matrix of the invariant form on m; M
    commutes with each ad(h_i)|_m; S M is positive definite.  They run on
    the metric's lift and on the per-space ring rows of S and of the
    ad(h_i)|_m (isotypic.isotropy_action), each cleared of a denominator
    d > 0: d d' (S M) is symmetric and (d M)(d' A) = (d' A)(d M) exactly
    when S M is symmetric and MA = AM.
    The Sylvester test runs on the Scalars of the lifted d d' (S M), which
    is positive definite exactly when S M is."""
    n = space.dim_m
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"metric matrix must be {n}x{n} for {space.space_id}")
    mat = [[scalar(x) for x in row] for row in matrix]
    rows = _MetricRows.lift(mat)
    M = rows.ring
    action = isotropy_action(space)
    SM = ring_rows_mul(action.gram_rows, M)
    if not rows_symmetric(SM):
        raise ValueError("metric operator is not symmetric for the invariant form")
    for A in action.ad:
        if not ring_rows_commute(M, A):
            raise ValueError("metric operator does not commute with the isotropy action")
    dense = [[ZERO] * n for _ in range(n)]
    for out, row in zip(dense, SM):
        for j, c in row:
            out[j] = ring_scalar(c)
    if not is_positive_definite(dense):
        raise ValueError("metric operator is not positive definite")
    return MetricEndomorphism(
        space=space, matrix=mat, provenance=provenance, params=params, rows=rows
    )


def standard_metric(space: CatalogSpace) -> MetricEndomorphism:
    """The normal metric: the identity on m, the block metric of all 1s."""
    ones = (ONE,) * len(isotypic_decompose(space).components)
    return replace(metric_from_blocks(space, ones), provenance="standard", params=())


def _projection_entries(space: CatalogSpace) -> tuple[tuple, ...]:
    """The nonzero entries (i, j, x) of each P_k, kept once per space."""
    return tuple(
        tuple((i, j, x) for i, row in enumerate(P) for j, x in nonzero_entries(row))
        for P in component_projections(space)
    )


def _block_matrix(space: CatalogSpace, coeffs: Sequence[Scalar]) -> Matrix:
    """sum_k c_k P_k, the one builder of a per-component block matrix."""
    n = space.dim_m
    out = [[ZERO] * n for _ in range(n)]
    for c, entries in zip(coeffs, per_space(_projection_entries, space)):
        for i, j, x in entries:
            row = out[i]
            row[j] = c * x if row[j] is ZERO else row[j] + c * x
    return out


def metric_from_blocks(space: CatalogSpace, coeffs: Sequence) -> MetricEndomorphism:
    """Build a metric from block coefficients.

    When one coefficient is given per isotypic component, the metric is the
    corresponding combination of component projections, M = sum_k c_k P_k.
    It is accepted exactly when every c_k > 0, with no test of the matrix:
    S M is symmetric and M commutes with the isotropy action for any c_k,
    and S M is positive definite exactly when every c_k is positive (the
    lemma of the module docstring).  Otherwise the length must match the
    symmetric commutant basis, the coefficients combine that basis
    directly, and the operator is validated as any other.  When both
    readings apply (every component contributes one commutant direction)
    they agree, and the per-component reading is used.
    """
    cs = [scalar(c) for c in coeffs]
    n_components = len(isotypic_decompose(space).components)
    params = tuple(c.exact_str() for c in cs)
    if len(cs) == n_components:
        if any(c.sign() <= 0 for c in cs):
            raise ValueError("metric operator is not positive definite")
        rows = _MetricRows(coeffs=tuple(cs))
        return MetricEndomorphism(
            space, _block_matrix(space, cs), "block_coeffs", params, rows
        )
    basis = commutant_symmetric_basis(space)
    if len(cs) == len(basis):
        matrix = mat_combine(cs, basis, space.dim_m)
        return _validated(space, matrix, "block_coeffs", params)
    if n_components == len(basis):
        raise ValueError(f"expected {n_components} coefficients, got {len(cs)}")
    raise ValueError(
        f"expected {n_components} per-component coefficients or "
        f"{len(basis)} commutant coefficients, got {len(cs)}"
    )


def fibration_metric(
    space: CatalogSpace, subalgebra_name: str, lam
) -> MetricEndomorphism:
    """Scale the fiber directions of an intermediate subalgebra h < K < g by lam.

    The operator is the identity on the base directions and lam times the
    identity on the fiber directions K intersect m; lam must be positive.
    The fiber must be a sum of isotypic components, the base then being the
    sum of the others, and the metric is the block metric with lam on the
    fiber's components.  Each name fixes its fiber on the decomposition:

    - "hopf" is K = h + V_f for the fiber block f of a two-component space
      (_fiber_index).
    - "ngh" is K = n_g(h), the normalizer of h, whose fiber is the
      zero-Casimir component p (IsotypicDecomposition.trivial_index).
      Since [h, m] lies in m and h meets m in 0, an X in m normalizes h
      exactly when [h, X] lies in h and in m, that is [h, X] = 0: n_g(h)
      meets m in p, and n_g(h) = h + p.  K is proper exactly when
      0 < dim p < dim m.
    - Any other name is resolved by embed.named_subalgebra, which checks
      that K contains h; K must be closed under the bracket.  Then K = h +
      (K intersect m), the m part of each element of K being that element
      minus its h part, so the components inside K sum to the fiber exactly
      when their dimensions add up to dim K - dim h."""
    lam = scalar(lam)
    if lam.sign() <= 0:
        raise ValueError("the fiber scaling must be positive")
    params = (subalgebra_name, lam.exact_str())
    if subalgebra_name == "hopf":
        f = per_space(_fiber_index, space)
        if f is None:
            raise ValueError(
                f"space {space.space_id} has no canonical fibration subalgebra"
            )
        in_fiber = (f == 0, f == 1)
    elif subalgebra_name == "ngh":
        dec = isotypic_decompose(space)
        p, n = dec.trivial_index, len(dec.components)
        if p is None or n == 1:
            raise ValueError(
                f"normalizer of h is not a proper intermediate subalgebra "
                f"for {space.space_id}"
            )
        in_fiber = [k == p for k in range(n)]
    else:
        K = named_subalgebra(space, subalgebra_name)
        if subalgebra_closure(space.algebra, K.rows) != K:
            raise ValueError("K is not a subalgebra")
        blocks = [c.subspace for c in isotypic_decompose(space).components]
        in_fiber = [K.contains_subspace(V) for V in blocks]
        fiber_dim = sum(V.dim for V, flag in zip(blocks, in_fiber) if flag)
        if fiber_dim != K.dim - space.h.dim:
            raise ValueError(
                f"the fiber of {subalgebra_name} is not a sum of isotypic "
                f"components of {space.space_id}"
            )
    metric = metric_from_blocks(space, [lam if flag else ONE for flag in in_fiber])
    return replace(metric, provenance="fibration", params=params)


def explicit_metric(space: CatalogSpace, matrix: Matrix) -> MetricEndomorphism:
    """Validate an arbitrary operator given in m-coordinates."""
    return _validated(space, matrix, "explicit", ())


# -- the compensator equation -------------------------------------------------

_TRANSVERSE_ERROR = (
    "[MX, X] left the transverse part; the metric operator is not equivariant"
)


def solve_compensator(
    space: CatalogSpace, metric: MetricEndomorphism, x: Vector
) -> tuple[Vector | None, int, int]:
    """Solve [a, MX] = [MX, X] for a in h, exactly.

    Returns (a, rank_map, rank_augmented).  a is None exactly when the
    system is inconsistent; then rank_augmented exceeds rank_map and the
    pair certifies the refutation.  Otherwise a combines the rows of h by
    the solution of liealg.solve_columns, its free variables at zero, and
    is checked against the equation.
    """
    L = space.algebra
    y = metric.apply(x)
    rhs = L.bracket(y, x)
    if not space.m.contains(rhs):
        raise ArithmeticError(_TRANSVERSE_ERROR)
    columns = [L.bracket(a, y) for a in space.h.rows]
    sol, rank_map, rank_aug = solve_columns(columns, rhs)
    if sol is None:
        return None, rank_map, rank_aug
    a = space.h.combine(sol)
    if L.bracket(a, y) != rhs:
        raise ArithmeticError("compensator verification failed")
    return a, rank_map, rank_aug


# -- filters ------------------------------------------------------------------

@dataclass(frozen=True)
class _FixedPart:
    """The fixed part p of m, in m-coordinates: ad(w)|_m for each row w of
    p, as ring rows each cleared of its own denominator, and the basis rows
    of each simple ideal of p, each cleared to ints (they are rational on
    every catalogued space), or None for the ideals when p is not a
    subalgebra."""

    actions: tuple[SparseRows, ...]
    ideals: tuple[tuple[list[int], ...], ...] | None


def _build_fixed_part(space: CatalogSpace) -> _FixedPart:
    L = space.algebra
    p = isotypic_decompose(space).trivial_subspace
    ideals = None
    if p.dim and subalgebra_closure(L, p.rows) == p:
        ideals = tuple(
            tuple(clear_denominators(space.m.coords(r)) for r in ideal.rows)
            for ideal in ideal_decomposition(L, p)[1]
        )
    return _FixedPart(
        actions=tuple(lift_rows(ad_on(L, w, space.m)) for w in p.rows),
        ideals=ideals,
    )


def normalizer_filter(space: CatalogSpace, metric: MetricEndomorphism) -> bool:
    """Necessary condition: the operator commutes with every fixed-vector
    action.  Vectors of m that centralize h generate extra isometries, and a
    geodesic-orbit metric must commute with each of their actions on m.
    The test runs on the metric's lift and the ring rows of each action:
    (d M)(d' A) = (d' A)(d M) exactly when MA = AM, as d, d' > 0.

    A per-component block metric passes with no test.  For w in p, [h, w]
    = 0 gives [h_i, [w, x]] = [w, [h_i, x]], so A = ad(w)|_m commutes with
    every ad(h_i)|_m, hence with the Casimir and the central squares that
    cut out the V_k: A maps each V_k into itself and commutes with sum_k
    c_k P_k.  Such a metric keeps no ring rows (_MetricRows)."""
    M = metric.rows.ring
    actions = per_space(_build_fixed_part, space).actions
    return M is None or all(ring_rows_commute(M, A) for A in actions)


def biinvariance_filter(space: CatalogSpace, metric: MetricEndomorphism) -> bool:
    """Necessary condition on the fixed part p of m.

    For X in p the compensator equation degenerates to [MX, X] = 0, which
    holds for every X in p exactly when M preserves p, restricts to a
    scalar on each simple ideal of p, and is arbitrary (symmetric positive
    definite) on the center.  True when p is zero.  A validated metric
    preserves p: p is the joint kernel of the ad(h_i)|_m, and M A_i = A_i M,
    so x in p gives A_i M x = M A_i x = 0.  So the test is that M is a
    scalar on each ideal, on its basis rows (_MetricRows.scalar_on).

    A validated metric that passes normalizer_filter passes this filter
    too.  M commutes with ad(w)|_m for each w in p, and p is a subalgebra
    that M preserves, so M|_p commutes with ad(w)|_p: M|_p is a map of
    p-modules.  Each simple ideal s of p is an absolutely irreducible
    p-module (p acts on s through s, whose complexification is simple, as
    s is compact), and no two of them, nor s and the center, are
    isomorphic, since an ideal acts trivially on every other ideal and on
    the center.  So M|_p maps each simple ideal into itself, and M is a
    scalar on each simple ideal.

    A per-component block metric passes with no test: p is one isotypic
    component (the zero-Casimir one), on which M is its coefficient.
    """
    fixed = per_space(_build_fixed_part, space)
    if not fixed.actions:
        return True
    if fixed.ideals is None:
        raise ValueError("the fixed part of m is not a subalgebra")
    rows = metric.rows
    return rows.parts is None or all(map(rows.scalar_on, fixed.ideals))


_FILTERS = {
    "normalizer": normalizer_filter,
    "biinvariance": biinvariance_filter,
}

FILTER_NAMES = tuple(_FILTERS)


def _filter_results(
    space: CatalogSpace, metric: MetricEndomorphism
) -> tuple[tuple[str, bool], ...]:
    return tuple(
        (name, _FILTERS[name](space, metric)) for name in FILTER_NAMES
    )


# -- sampling -----------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """A refuting direction X, by exact coordinates in the basis of m,
    together with the rank pair certifying the inconsistency."""

    coords: tuple[Scalar, ...]
    rank_map: int
    rank_augmented: int

    def vector(self, space: CatalogSpace) -> Vector:
        return space.m.combine(self.coords)

    def to_dict(self) -> dict:
        return {
            "coords": [c.exact_str() for c in self.coords],
            "rank_map": self.rank_map,
            "rank_augmented": self.rank_augmented,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Witness":
        return cls(
            coords=tuple(parse_scalar(t) for t in data["coords"]),
            rank_map=int(data["rank_map"]),
            rank_augmented=int(data["rank_augmented"]),
        )


@dataclass(frozen=True)
class GoVerdict:
    """Outcome of a geodesic-orbit check for one space and metric."""

    status: str
    samples_run: int
    seed: int
    witness: Witness | None
    filter_name: str | None
    filters: tuple[tuple[str, bool], ...]
    elapsed_s: float

    def to_dict(self, include_time: bool = True) -> dict:
        out = {
            "status": self.status,
            "seed": self.seed,
            "samples_run": self.samples_run,
            "witness": self.witness.to_dict() if self.witness else None,
            "filter_name": self.filter_name,
            "filters": {name: ok for name, ok in self.filters},
        }
        if include_time:
            out["elapsed_s"] = self.elapsed_s
        return out


@dataclass(frozen=True)
class _Batch:
    """The structured batch of one space: its directions, each cleared to
    ints, and for each the indices of the isotypic components it was built
    from.  The first singles directions are the basis vectors, one
    component each."""

    directions: tuple[tuple[Scalar, ...], ...]
    ints: tuple[list[int], ...]
    parts: tuple[frozenset[int], ...]
    singles: int
    components: int


def _build_structured(space: CatalogSpace) -> _Batch:
    dec = isotypic_decompose(space)
    singles = [
        (tuple(space.m.coords(r)), frozenset((k,)))
        for k, comp in enumerate(dec.components)
        for r in comp.subspace.rows
    ]
    batch = list(singles)
    for i, (x, parts_x) in enumerate(singles):
        for y, parts_y in singles[i + 1:]:
            batch.append(
                (tuple(a + b for a, b in zip(x, y)), parts_x | parts_y)
            )
    # Each direction is cleared on its own: a sum of two cleared basis
    # vectors need not be a positive multiple of the sum.
    ints = tuple(clear_denominators(d) for d, _ in batch)
    if None in ints:
        raise ArithmeticError(
            f"a structured direction of {space.space_id} is irrational"
        )
    # The batch is kept as long as the space: hold each distinct
    # coordinate once.
    shared: dict[Scalar, Scalar] = {}
    return _Batch(
        directions=tuple(
            tuple(shared.setdefault(x, x) for x in d) for d, _ in batch
        ),
        ints=ints,
        parts=tuple(parts for _, parts in batch),
        singles=len(singles),
        components=len(dec.components),
    )


def structured_directions(space: CatalogSpace) -> list[tuple[Scalar, ...]]:
    """The deterministic first batch: each block basis direction of every
    isotypic component, then every pairwise sum of two of them.  Sums that
    mix components are the classic way block-skewed metrics fail, so these
    run before any random draw."""
    return list(per_space(_build_structured, space).directions)


_DIGITS = tuple(k for k in range(-9, 10) if k != 0)


def _random_direction(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice(_DIGITS) for _ in range(n))


# -- the m-coordinate direction kernel ----------------------------------------

def _apply(rows: SparseRows, v) -> list:
    out = []
    for row in rows:
        acc = 0
        for j, c in row:
            if v[j]:
                acc += c * v[j]
        out.append(acc)
    return out


@dataclass(frozen=True)
class _Tensors:
    """ad(h_i)|_m and the bracket kernel, each cleared of its own
    denominator, as ints.  A positive rescaling of a column of the system,
    or of its right-hand side, leaves every rank pair unchanged."""

    ad: tuple[SparseRows, ...]
    brackets: tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]
    dim_h: int

    def system(self, metric: SparseRows, x: Sequence[int]) -> tuple[list, list]:
        """The columns C_i = ad(h_i)|_m (MX) and r = [MX, X], in
        m-coordinates, on ints."""
        y = _apply(metric, x)
        full = [0] * (self.dim_h + len(x))
        for i, j, terms in self.brackets:
            w = y[i] * x[j] - y[j] * x[i]
            if w:
                for k, c in terms:
                    full[k] += w * c
        if any(full[: self.dim_h]):
            raise ArithmeticError(_TRANSVERSE_ERROR)
        return [_apply(A, y) for A in self.ad], full[self.dim_h:]


def _int_tensors(space: CatalogSpace) -> _Tensors | None:
    """The int tensors of one space, or None when one entry is irrational:
    ad(h_i)|_m, read (liealg.int_rows) off its ring rows
    (isotypic.isotropy_action), and the bracket m x m -> h + m as (i, j,
    terms) for i < j, terms being the nonzero coordinates of [m_i, m_j] in
    the basis h.rows + m.rows, lifted together (liealg.lift_rows)."""
    ad = tuple(int_rows(A) for A in isotropy_action(space).ad)
    L = space.algebra
    rows = space.m.rows
    to_basis = mat_inverse(mat_transpose(list(space.h.rows + rows)))
    pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
    terms = int_rows(lift_rows(
        mat_apply(to_basis, L.bracket(rows[i], rows[j])) for i, j in pairs
    ))
    if None in ad or terms is None:
        return None
    brackets = tuple((i, j, t) for (i, j), t in zip(pairs, terms) if t)
    return _Tensors(ad, brackets, space.dim_h)


@dataclass(frozen=True)
class _MetricRows:
    """One metric's matrix lifted once, at validation: its nonzero entries
    cleared of one common denominator d > 0, as ring rows, and those rows
    split by radical into parts, the pairs (b, int rows of M_b) with d M =
    sum_b sqrt(b) M_b, for b the indices into field.RADICANDS that occur, in
    increasing order.  A rational metric is the one part (0, its int rows).
    Validation and the normalizer filter read the ring rows; scalar_on,
    which the eigen labels and the bi-invariance filter share, and the
    checker of a metric outside two_block_family read the parts.  A
    per-component block metric sum_k c_k P_k holds only its c_k in coeffs
    (None for every other metric), with ring and parts None: only that
    checker reads its lift, and it lifts the matrix on demand."""

    ring: SparseRows | None = None
    parts: tuple[tuple[int, SparseRows], ...] | None = None
    coeffs: tuple[Scalar, ...] | None = None

    @classmethod
    def lift(cls, matrix: Matrix) -> "_MetricRows":
        ring = lift_rows(matrix)
        parts: dict[int, list[list]] = {}
        for i, row in enumerate(ring):
            for j, c in row:
                for b, v in c:
                    if b not in parts:
                        parts[b] = [[] for _ in ring]
                    parts[b][i].append((j, v))
        return cls(ring=ring, parts=tuple(
            (b, tuple(map(tuple, parts[b]))) for b in sorted(parts)
        ))

    def scalar_on(self, xs: Sequence[Sequence[int]]) -> tuple[tuple, int] | None:
        """(a, b) with (d M) x = (a / b) x for every int vector x in xs, or
        None when there is none: M is a scalar on the span of xs exactly
        when it is not None.  b = x_p and a = ((d M) x)_p, as its
        coordinates on the radicals of the parts, at the first nonzero
        coordinate p of the first x."""
        ratio = None
        for x in xs:
            y = list(zip(*(_apply(M, x) for _, M in self.parts)))
            if ratio is None:
                p = next(j for j, u in enumerate(x) if u)
                ratio = (y[p], x[p])
            a, b = ratio
            if any([b * t for t in v] != [u * t for t in a] if u else any(v)
                   for u, v in zip(x, y)):
                return None
        return ratio

    def eigen_labels(self, batch: _Batch) -> list[int | None]:
        """For each isotypic component V_k, a label when M|V_k = lambda_k I,
        shared by two components exactly when their lambdas are equal, and
        None otherwise; the label is the first component with the same
        lambda.  A per-component block metric sum_k c_k P_k is c_k on V_k,
        so its labels are read off the coefficients.  Otherwise lambda_k is
        read by scalar_on off the basis vectors of V_k, cleared to ints; a /
        b and a' / b' are equal when a b' = a' b."""
        if self.coeffs is not None:
            return [self.coeffs.index(c) for c in self.coeffs]
        groups: dict[int, list[list[int]]] = {}
        for (k,), x in zip(batch.parts, batch.ints[:batch.singles]):
            groups.setdefault(k, []).append(x)
        ratios = ((k, self.scalar_on(xs)) for k, xs in groups.items())
        eigen = [(k, r) for k, r in ratios if r is not None]
        labels: list[int | None] = [None] * batch.components
        for k, (a, b) in eigen:
            labels[k] = next(
                label for label, (a2, b2) in eigen
                if [t * b2 for t in a] == [t * b for t in a2]
            )
        return labels


def _two_block_rows(space: CatalogSpace) -> SparseRows:
    """The int rows of the block metric P_0 + 2 P_1 of a two-component
    space with rational data: the one system on which _direction_checker
    decides every two_block_family metric of the space."""
    return int_rows(lift_rows(_block_matrix(space, (ONE, scalar(2)))))


def _direction_checker(
    space: CatalogSpace, metric: MetricEndomorphism
) -> Callable[[Sequence[int]], tuple[bool, int, int]]:
    """The compensator test of one metric, direction by direction.

    For int m-coordinates x it returns (solvable, rank_map,
    rank_augmented) from the rank pair of [C | r], built on the space's int
    tensors and one set of int rows of a metric, and decided fraction-free
    on its column vectors (liealg.solve_int_columns, which checks each
    solution it returns; no Scalar is eliminated and no pivot inverted).
    A two_block_family metric is decided on the rows of P_0 + 2 P_1, kept
    once per space: by that lemma each direction gets the rank pair it
    gets under the metric itself.  Any other metric whose lift d M =
    sqrt(b) M_b has one radical part is decided on M_b, since a positive
    factor on every C_i and on r changes no rank pair; a block metric is
    lifted here (on the catalogue, a scalar that no search checks).  Every
    other metric, and every metric on c2.3 and g2.4, whose h is irrational,
    calls solve_compensator, whose decision and rank pair these give."""
    ints = per_space(_int_tensors, space)
    if ints is not None and two_block_family(space, metric):
        M = per_space(_two_block_rows, space)
    else:
        parts = metric.rows.parts or _MetricRows.lift(metric.matrix).parts
        M = parts[0][1] if ints is not None and len(parts) == 1 else None

    def check(x: Sequence[int]) -> tuple[bool, int, int]:
        sol, rank_map, rank_aug = (
            solve_compensator(space, metric, space.m.combine(x)) if M is None
            else solve_int_columns(*ints.system(M, x))
        )
        return sol is not None, rank_map, rank_aug

    return check


def _search(
    space: CatalogSpace,
    metric: MetricEndomorphism,
    draws: int,
    seed: int,
    apply_filters: bool,
) -> GoVerdict:
    """The one direction search: filters (always computed, and applied by
    go_sample_check only), the structured batch, then `draws` seeded random
    draws, stopping at the first direction with no compensator.  samples_run
    counts the directions decided.

    A direction X with MX = lambda X is decided without a system: r(X) =
    [MX, X] = lambda [X, X] = 0, so a = 0 compensates it.  The scalar
    lambda_k of M on each isotypic component is found once per metric, and
    a structured direction is decided this way when every component it was
    built from has one, the same for all of them.  When one lambda covers
    all of m (M = cI), every direction is decided so, no random draw is
    made, and samples_run is the batch length plus draws."""
    if draws < 0:
        raise ValueError(f"random draws must be >= 0, got {draws}")
    start = time.perf_counter()
    filters = _filter_results(space, metric)
    filter_name = None
    if apply_filters:
        filter_name = next((name for name, ok in filters if not ok), None)
    status, run, witness = STATUS_GO_SAMPLED, 0, None
    if filter_name is not None:
        status = STATUS_FILTERED
    else:
        directions = structured_directions(space)
        batch = per_space(_build_structured, space)
        labels = metric.rows.eigen_labels(batch)
        if None not in labels and len(set(labels)) == 1:
            run = len(directions) + draws
        else:
            rng = random.Random(seed)
            n = space.dim_m
            candidates = chain(
                zip(directions, batch.ints, batch.parts),
                ((None, _random_direction(rng, n), ()) for _ in range(draws)),
            )
            check = _direction_checker(space, metric)
            for coords, x, parts in candidates:
                run += 1
                eigen = {labels[k] for k in parts}
                if len(eigen) == 1 and None not in eigen:
                    continue
                solvable, rank_map, rank_aug = check(x)
                if not solvable:
                    status = STATUS_NOT_GO
                    if coords is None:
                        coords = tuple(map(Scalar.from_int, x))
                    witness = Witness(
                        coords=coords, rank_map=rank_map, rank_augmented=rank_aug
                    )
                    break
    return GoVerdict(
        status=status,
        samples_run=run,
        seed=seed,
        witness=witness,
        filter_name=filter_name,
        filters=filters,
        elapsed_s=time.perf_counter() - start,
    )


def _fiber_index(space: CatalogSpace) -> int | None:
    """The fiber block f of a space of two isotypic components V_0, V_1:
    [V_0, V_1] lies in V_(1-f), on the brackets of their rows (f = 0 when
    both hold); None for any other space.  h + V_f is then a subalgebra,
    the Hopf fiber: [h, V_f] lies in V_f, and [V_f, V_f] in h + V_f by
    invariance of the form, <[V_f, V_f], V_(1-f)> = <V_f, [V_f, V_(1-f)]>,
    which lies in <V_f, V_(1-f)> = 0."""
    pair = [c.subspace for c in isotypic_decompose(space).components]
    if len(pair) != 2:
        return None
    brackets = [space.algebra.bracket(x, y) for x in pair[0].rows for y in pair[1].rows]
    return next(
        (f for f in (0, 1) if all(map(pair[1 - f].contains, brackets))), None
    )


def two_block_family(space: CatalogSpace, metric: MetricEndomorphism) -> bool:
    """True when metric is c_0 P_0 + c_1 P_1 with c_0 != c_1, on a space of
    two isotypic components V_0, V_1 with [V_0, V_1] in V_0 or in V_1 (the
    premise: a fiber block, _fiber_index, checked once per space).  Every
    such metric of one space, fibration_metric(space, "hopf", lam != 1)
    among them, gets the same verdict from _search (status, samples_run,
    witness, filters) at equal (draws, seed, apply_filters).

    Proof.  Write X = X_0 + X_1 with X_k in V_k.  The V_k are h-invariant,
    so C_i = [h_i, MX] = c_0 [h_i, X_0] + c_1 [h_i, X_1] has V_k part c_k
    [h_i, X_k], and r = [MX, X] = (c_0 - c_1) [X_0, X_1] lies in one block
    V_j by the premise (so in m: no member raises the transverse error).
    In a basis of m adapted to V_0 + V_1, scale the V_k rows by 1 / c_k and
    the column r by c_j / (c_0 - c_1): the system becomes C_i = [h_i, X],
    r = [X_0, X_1], free of c, and neither rank changes.  So each direction
    gets one (solvable, rank_map, rank_augmented) under every member.
    Nothing else that _search reads of a metric differs: the filters read
    only that it is a block metric, the eigen labels are [0, 1], and the
    batch and the seeded draws belong to the space.  This is the criterion
    for metrics on a fibration (Tamaru, Osaka J. Math. 36 (1999);
    Alekseevsky-Nikonorov, SIGMA 5 (2009) 093) on two blocks.
    _direction_checker decides every member on the system of P_0 + 2 P_1,
    and classify searches one member per space."""
    cs = metric.rows.coeffs
    pair = cs is not None and len(cs) == len(set(cs)) == 2
    return pair and per_space(_fiber_index, space) is not None


def go_sample_check(
    space: CatalogSpace,
    metric: MetricEndomorphism,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> GoVerdict:
    """Run the filters, the structured batch, then seeded random directions.

    A metric that fails a filter is filtered out and no direction is
    checked.  Random directions draw every coordinate uniformly from the
    nonzero integers in [-9, 9].  The first direction with no compensator
    stops the run with a witness.  samples counts the random draws and must
    be >= 0; samples_run in the verdict counts every direction decided, as
    _search says, eigen directions included.
    """
    return _search(space, metric, samples, seed, apply_filters=True)


def find_witness(
    space: CatalogSpace,
    metric: MetricEndomorphism,
    budget: int = DEFAULT_BUDGET,
    seed: int = DEFAULT_SEED,
) -> GoVerdict:
    """Search for a refuting direction: structured batch first, then up to
    budget random draws.  The budget counts random draws only and must be
    >= 0; the structured batch always runs in full if no witness appears
    sooner.  The filters are reported but never stop the search: this is
    the one unfiltered search.  samples_run counts directions as in
    _search."""
    return _search(space, metric, budget, seed, apply_filters=False)


def verify_witness(
    space: CatalogSpace, metric: MetricEndomorphism, witness: Witness
) -> bool:
    """Re-run the compensator solve on a (possibly deserialized) witness and
    confirm it still refutes with the same rank pair.  The replay solves
    through liealg.solve_columns, on the rows of the ambient system of the
    metric itself, by liealg._reduce and _eliminate; the direction checker
    reaches neither (it reduces column vectors, liealg._reduce_columns)
    and decides a two_block_family metric on another member's system.  So
    the replay is independent of the search in its elimination, its
    ambient coordinates and its metric, and the tests compare every
    solve_columns path with a Scalar Gauss-Jordan loop."""
    sol, rank_map, rank_aug = solve_compensator(
        space, metric, witness.vector(space)
    )
    return (
        sol is None
        and rank_map == witness.rank_map
        and rank_aug == witness.rank_augmented
    )
