"""Invariant metrics and the geodesic-orbit property checker.

An invariant metric on a catalogued space is encoded by its metric
endomorphism: an operator on the transverse part m that is symmetric for
the invariant form, positive definite, and commutes with the isotropy
action.  The geodesic-orbit test for a direction X asks for a compensator
a in h with [a, MX] = [MX, X]; the space is geodesic-orbit for M exactly
when every X admits one.  This module solves that linear problem exactly,
samples it over structured and random directions, and applies two
necessary-condition filters that rule metrics out without sampling.

The search runs in m-coordinates: a per-space kernel holds ad(h_i)|_m and
the bracket m x m -> h + m, and each direction needs only the rank pair of
the resulting small system, computed on integers whenever the space, the
metric and the direction are rational.  `solve_compensator` keeps the
ambient-coordinate solve with its canonical least-norm compensator, and
`verify_witness` replays every witness through it, independently of the
search.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

from .embed import CatalogSpace, fibration_split, named_subalgebra
from .field import ONE, ZERO, Scalar, clear_denominators, parse_scalar, scalar
from .isotypic import (
    commutant_symmetric_basis,
    component_projections,
    isotypic_decompose,
    m_gram,
)
from .liealg import (
    Matrix,
    Vector,
    ad_on,
    gram_matrix,
    ideal_decomposition,
    identity_matrix,
    is_positive_definite,
    kernel_basis,
    mat_apply,
    mat_combine,
    mat_inverse,
    mat_mul,
    mat_scale,
    mat_transpose,
    operator_on_subspace,
    scalar_of,
    solve_columns,
    solve_int_columns,
    subalgebra_closure,
    vec_sub,
)

DEFAULT_SEED = 42
STATUS_GO_SAMPLED = "go_sampled"
STATUS_NOT_GO = "not_go_certified"
STATUS_FILTERED = "filtered_out"


# -- metric endomorphisms -----------------------------------------------------

@dataclass(frozen=True)
class MetricEndomorphism:
    """A validated invariant-metric operator on m, in m-coordinates.

    provenance is one of "standard", "block_coeffs", "fibration",
    "explicit"; params carries the defining data as exact strings.
    """

    space: CatalogSpace
    matrix: Matrix
    provenance: str
    params: tuple[str, ...]

    def apply(self, v: Vector) -> Vector:
        """Apply to an ambient vector lying in m; returns an ambient vector."""
        m = self.space.m
        return m.combine(mat_apply(self.matrix, m.coords(v)))

    def scaled(self, c) -> "MetricEndomorphism":
        """The homothetic metric c * M (c must be positive)."""
        c = scalar(c)
        if c.sign() <= 0:
            raise ValueError("a homothety factor must be positive")
        return _validated(
            self.space,
            mat_scale(c, self.matrix),
            self.provenance,
            self.params + (c.exact_str(),),
        )


def _validated(
    space: CatalogSpace,
    matrix: Matrix,
    provenance: str,
    params: tuple[str, ...],
) -> MetricEndomorphism:
    n = space.dim_m
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError(f"metric matrix must be {n}x{n} for {space.space_id}")
    mat = [[scalar(x) for x in row] for row in matrix]
    S = m_gram(space)
    SM = mat_mul(S, mat)
    if SM != mat_transpose(SM):
        raise ValueError("metric operator is not symmetric for the invariant form")
    for A in _kernel(space).ad_h:
        if mat_mul(mat, A) != mat_mul(A, mat):
            raise ValueError("metric operator does not commute with the isotropy action")
    if not is_positive_definite(SM):
        raise ValueError("metric operator is not positive definite")
    return MetricEndomorphism(
        space=space, matrix=mat, provenance=provenance, params=params
    )


def standard_metric(space: CatalogSpace) -> MetricEndomorphism:
    """The normal metric: the identity operator on m."""
    return _validated(space, identity_matrix(space.dim_m), "standard", ())


def metric_from_blocks(space: CatalogSpace, coeffs: Sequence) -> MetricEndomorphism:
    """Build a metric from block coefficients.

    When one coefficient is given per isotypic component, the metric is the
    corresponding combination of component projections.  Otherwise the
    length must match the symmetric commutant basis, and the coefficients
    combine that basis directly.  When both readings apply (every component
    contributes one commutant direction) they agree, and the per-component
    reading is used.
    """
    cs = [scalar(c) for c in coeffs]
    dec = isotypic_decompose(space)
    n_components = len(dec.components)
    basis = commutant_symmetric_basis(space)
    if len(cs) == n_components:
        mats = component_projections(space)
    elif len(cs) == len(basis):
        mats = basis
    else:
        raise ValueError(
            f"expected {n_components} per-component coefficients or "
            f"{len(basis)} commutant coefficients, got {len(cs)}"
        )
    return _validated(
        space,
        mat_combine(cs, mats, space.dim_m),
        "block_coeffs",
        tuple(c.exact_str() for c in cs),
    )


def fibration_metric(
    space: CatalogSpace, subalgebra_name: str, lam
) -> MetricEndomorphism:
    """Scale the fiber directions of a named intermediate subalgebra by lam.

    The operator is the identity on the base directions and lam times the
    identity on the fiber directions; lam must be positive.
    """
    lam = scalar(lam)
    if lam.sign() <= 0:
        raise ValueError("the fiber scaling must be positive")
    K = named_subalgebra(space, subalgebra_name)
    fiber, base = fibration_split(space, K)
    n = space.dim_m
    T = mat_transpose([space.m.coords(v) for v in fiber.rows + base.rows])
    diag = [
        [
            (lam if i < fiber.dim else ONE) if i == j else ZERO
            for j in range(n)
        ]
        for i in range(n)
    ]
    mat = mat_mul(T, mat_mul(diag, mat_inverse(T)))
    return _validated(
        space, mat, "fibration", (subalgebra_name, lam.exact_str())
    )


def explicit_metric(space: CatalogSpace, matrix: Matrix) -> MetricEndomorphism:
    """Validate an arbitrary operator given in m-coordinates."""
    return _validated(space, matrix, "explicit", ())


# -- the compensator equation -------------------------------------------------

def solve_compensator(
    space: CatalogSpace, metric: MetricEndomorphism, x: Vector
) -> tuple[Vector | None, int, int]:
    """Solve [a, MX] = [MX, X] for a in h, exactly.

    Returns (a, rank_map, rank_augmented).  a is None exactly when the
    system is inconsistent; then rank_augmented exceeds rank_map and the
    pair certifies the refutation.  When the system is underdetermined the
    solution of least norm for the positive form on h is returned, so the
    output is canonical.
    """
    L = space.algebra
    y = metric.apply(x)
    rhs = L.bracket(y, x)
    if not space.m.contains(rhs):
        raise ArithmeticError(
            "[MX, X] left the transverse part; the metric operator is not equivariant"
        )
    columns = [L.bracket(a, y) for a in space.h.rows]
    sol, rank_map, rank_aug = solve_columns(columns, rhs)
    if sol is None:
        return None, rank_map, rank_aug
    if rank_map < space.dim_h:
        # Shift the particular solution a0 along the null space N of the
        # map to the G-orthogonal one: a = a0 - N^T (N G N^T)^-1 N G a0.
        null = kernel_basis(mat_transpose(columns), space.dim_h)
        G = gram_matrix(L, space.h.rows)
        NtGN = mat_mul(mat_mul(null, G), mat_transpose(null))
        u = mat_apply(mat_inverse(NtGN), mat_apply(null, mat_apply(G, sol)))
        sol = vec_sub(sol, mat_apply(mat_transpose(null), u))
    a = space.h.combine(sol)
    if L.bracket(a, y) != rhs:
        raise ArithmeticError("compensator verification failed")
    return a, rank_map, rank_aug


# -- filters ------------------------------------------------------------------

def normalizer_filter(space: CatalogSpace, metric: MetricEndomorphism) -> bool:
    """Necessary condition: the operator commutes with every fixed-vector
    action.  Vectors of m that centralize h generate extra isometries, and a
    geodesic-orbit metric must commute with each of their actions on m."""
    L = space.algebra
    fixed = isotypic_decompose(space).trivial_subspace
    for w in fixed.rows:
        A = ad_on(L, w, space.m)
        if mat_mul(metric.matrix, A) != mat_mul(A, metric.matrix):
            return False
    return True


def biinvariance_filter(space: CatalogSpace, metric: MetricEndomorphism) -> bool:
    """Necessary condition on the fixed part p of m.

    For X in p the compensator equation degenerates to [MX, X] = 0, which
    holds for every X in p exactly when M preserves p, restricts to a
    scalar on each simple ideal of p, and is arbitrary (symmetric positive
    definite) on the center.  True when p is zero.
    """
    p = isotypic_decompose(space).trivial_subspace
    if p.dim == 0:
        return True
    L = space.algebra
    if subalgebra_closure(L, p.rows) != p:
        raise ValueError("the fixed part of m is not a subalgebra")
    for r in p.rows:
        if not p.contains(metric.apply(r)):
            return False
    _center, ideals = ideal_decomposition(L, p)
    for ideal in ideals:
        if not all(ideal.contains(metric.apply(r)) for r in ideal.rows):
            return False
        if scalar_of(operator_on_subspace(metric.apply, ideal)) is None:
            return False
    return True


FILTER_NAMES = ("normalizer", "biinvariance")

_FILTERS = {
    "normalizer": normalizer_filter,
    "biinvariance": biinvariance_filter,
}


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


def structured_directions(space: CatalogSpace) -> list[tuple[Scalar, ...]]:
    """The deterministic first batch: each block basis direction of every
    isotypic component, then every pairwise sum of two of them.  Sums that
    mix components are the classic way block-skewed metrics fail, so these
    run before any random draw."""
    dec = isotypic_decompose(space)
    singles = [
        tuple(space.m.coords(r))
        for comp in dec.components
        for r in comp.subspace.rows
    ]
    batch = list(singles)
    for i in range(len(singles)):
        for j in range(i + 1, len(singles)):
            batch.append(
                tuple(a + b for a, b in zip(singles[i], singles[j]))
            )
    return batch


def _random_direction(rng: random.Random, n: int) -> tuple[Scalar, ...]:
    values = [k for k in range(-9, 10) if k != 0]
    return tuple(Scalar.from_int(rng.choice(values)) for _ in range(n))


# -- the m-coordinate direction kernel -----------------------------------------

# Rows of a matrix as (column, nonzero entry) pairs.
_SparseRows = tuple[tuple[tuple[int, object], ...], ...]


def _sparse(rows) -> _SparseRows:
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in rows)


def _apply(rows: _SparseRows, v, zero) -> list:
    out = []
    for row in rows:
        acc = zero
        for j, c in row:
            if v[j]:
                acc = acc + c * v[j]
        out.append(acc)
    return out


def _lift(mats: Sequence[Matrix]) -> list[list[list[int]]] | None:
    """The matrices times one positive integer that makes every entry
    integral, or None when some entry is irrational."""
    ints = clear_denominators(c for M in mats for row in M for c in row)
    if ints is None:
        return None
    it = iter(ints)
    return [[[next(it) for _ in row] for row in M] for M in mats]


@dataclass(frozen=True)
class _Tensors:
    """ad(h_i)|_m and the bracket m x m -> h + m over one coefficient ring:
    Scalars, or ints after clearing denominators.

    brackets lists (i, j, terms) for i < j, terms being the nonzero
    coordinates of [m_i, m_j] in the basis h.rows + m.rows.  A positive
    rescaling of either part leaves every rank pair unchanged."""

    ad: tuple[_SparseRows, ...]
    brackets: tuple[tuple[int, int, tuple[tuple[int, object], ...]], ...]
    dim_h: int
    zero: object

    @classmethod
    def build(cls, ad_h, pairs, coords, dim_h, zero) -> "_Tensors":
        return cls(
            ad=tuple(_sparse(A) for A in ad_h),
            brackets=tuple(
                (i, j, terms)
                for (i, j), terms in zip(pairs, _sparse(coords))
                if terms
            ),
            dim_h=dim_h,
            zero=zero,
        )

    def system(self, metric: _SparseRows, x: Sequence) -> tuple[list, list]:
        """The columns C_i = ad(h_i)|_m (MX) and r = [MX, X], in m-coordinates."""
        zero = self.zero
        y = _apply(metric, x, zero)
        full = [zero] * (self.dim_h + len(x))
        for i, j, terms in self.brackets:
            w = y[i] * x[j] - y[j] * x[i]
            if w:
                for k, c in terms:
                    full[k] = full[k] + w * c
        if any(full[: self.dim_h]):
            raise ArithmeticError(
                "[MX, X] left the transverse part; "
                "the metric operator is not equivariant"
            )
        return [_apply(A, y, zero) for A in self.ad], full[self.dim_h:]


@dataclass(frozen=True)
class _Kernel:
    """The direction data of one space: ad(h_i)|_m as dense matrices, and
    the tensors on Scalars and, when all of them are rational, on ints."""

    ad_h: tuple[Matrix, ...]
    exact: _Tensors
    integral: _Tensors | None


_KERNELS: dict[str, tuple[CatalogSpace, _Kernel]] = {}


def _build_kernel(space: CatalogSpace) -> _Kernel:
    L = space.algebra
    rows = space.m.rows
    ad_h = tuple(ad_on(L, a, space.m) for a in space.h.rows)
    to_basis = mat_inverse(mat_transpose(list(space.h.rows + rows)))
    pairs = [(i, j) for i in range(len(rows)) for j in range(i + 1, len(rows))]
    coords = [
        list(mat_apply(to_basis, L.bracket(rows[i], rows[j]))) for i, j in pairs
    ]
    k = space.dim_h
    lifted = _lift(list(ad_h) + [coords])
    integral = None
    if lifted is not None:
        integral = _Tensors.build(lifted[:k], pairs, lifted[k], k, 0)
    return _Kernel(
        ad_h=ad_h,
        exact=_Tensors.build(ad_h, pairs, coords, k, ZERO),
        integral=integral,
    )


def _kernel(space: CatalogSpace) -> _Kernel:
    hit = _KERNELS.get(space.space_id)
    if hit is not None and hit[0] is space:
        return hit[1]
    result = _build_kernel(space)
    _KERNELS[space.space_id] = (space, result)
    return result


def _direction_checker(
    space: CatalogSpace, metric: MetricEndomorphism
) -> Callable[[tuple[Scalar, ...]], tuple[bool, int, int]]:
    """The compensator test of one metric, direction by direction.

    For m-coordinates x it returns (solvable, rank_map, rank_augmented)
    from the rank pair of [C | r], computed on ints when the space, the
    metric and the direction are rational, otherwise on Scalars.  The
    decision and the rank pair are those of solve_compensator."""
    kernel = _kernel(space)
    exact_metric = _sparse(metric.matrix)
    lifted = _lift([metric.matrix]) if kernel.integral is not None else None
    int_metric = None if lifted is None else _sparse(lifted[0])

    def check(coords: tuple[Scalar, ...]) -> tuple[bool, int, int]:
        x = None if int_metric is None else clear_denominators(coords)
        if x is None:
            columns, r = kernel.exact.system(exact_metric, coords)
            sol, rank_map, rank_aug = solve_columns(columns, r)
            sol = None if sol is None else (sol, ONE)
        else:
            columns, r = kernel.integral.system(int_metric, x)
            sol, rank_map, rank_aug = solve_int_columns(columns, r)
        if sol is not None:
            nums, den = sol
            for p, rp in enumerate(r):
                lhs = sum(a * col[p] for a, col in zip(nums, columns) if a)
                if lhs != den * rp:
                    raise ArithmeticError("compensator verification failed")
        return sol is not None, rank_map, rank_aug

    return check


def _search(
    space: CatalogSpace,
    metric: MetricEndomorphism,
    draws: int,
    seed: int,
    apply_filters: bool,
) -> GoVerdict:
    """The one direction search: filters (always computed, and applied only
    when asked), the structured batch, then `draws` seeded random draws,
    stopping at the first direction with no compensator."""
    start = time.perf_counter()
    filters = _filter_results(space, metric)
    filter_name = None
    if apply_filters:
        filter_name = next((name for name, ok in filters if not ok), None)
    status, run, witness = STATUS_GO_SAMPLED, 0, None
    if filter_name is not None:
        status = STATUS_FILTERED
    else:
        rng = random.Random(seed)
        n = space.dim_m
        directions = chain(
            structured_directions(space),
            (_random_direction(rng, n) for _ in range(draws)),
        )
        check = _direction_checker(space, metric)
        for coords in directions:
            run += 1
            solvable, rank_map, rank_aug = check(coords)
            if not solvable:
                status = STATUS_NOT_GO
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


def go_sample_check(
    space: CatalogSpace,
    metric: MetricEndomorphism,
    samples: int = 200,
    seed: int = DEFAULT_SEED,
    apply_filters: bool = True,
) -> GoVerdict:
    """Run the filters, the structured batch, then seeded random directions.

    Random directions draw every coordinate uniformly from the nonzero
    integers in [-9, 9].  The first direction with no compensator stops the
    run with a witness.  samples counts the random draws; samples_run in
    the verdict counts every direction actually checked.
    """
    return _search(space, metric, samples, seed, apply_filters)


def find_witness(
    space: CatalogSpace,
    metric: MetricEndomorphism,
    budget: int = 50,
    seed: int = DEFAULT_SEED,
) -> GoVerdict:
    """Search for a refuting direction: structured batch first, then up to
    budget random draws.  The budget counts random draws only; the
    structured batch always runs in full if no witness appears sooner.
    The filters are reported but never stop the search."""
    return _search(space, metric, budget, seed, apply_filters=False)


def verify_witness(
    space: CatalogSpace, metric: MetricEndomorphism, witness: Witness
) -> bool:
    """Re-run the compensator solve on a (possibly deserialized) witness and
    confirm it still refutes with the same rank pair."""
    sol, rank_map, rank_aug = solve_compensator(
        space, metric, witness.vector(space)
    )
    return (
        sol is None
        and rank_map == witness.rank_map
        and rank_aug == witness.rank_augmented
    )
