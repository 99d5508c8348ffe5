"""Isotypic decomposition of the isotropy action and its exact commutant.

The subalgebra h of a catalogued space acts on the complement m by the
bracket.  This module splits m into the joint eigenspaces of the Casimir
operator of that action (refined by squared central generators when h has a
center), annotates every component with its multiplicity data, and solves
exactly for the commutant of the action together with its symmetric part,
which parameterizes all invariant metric endomorphisms.

The zero-Casimir component is the fixed part of m (the vectors h kills): with
S = -form on m, positive definite, each A_i = ad(h_i)|_m is S-skew, so
<Cx, x>_S = -sum_ij (G^-1)_ij <A_i x, A_j x>_S <= 0, with equality exactly
when every A_i x = 0 (G^-1 is positive definite).  Hence Cx = 0 exactly
when h kills x, and the central refinement vanishes on ker C.

Commutation is tested against the generators of h (CatalogSpace.generators)
only, which is exact: a commutant is closed under brackets and linear
combinations, and ad is a homomorphism, so T commutes with ad(h)|_m exactly
when it commutes with ad(g)|_m for each generator g.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from typing import Callable

from .embed import CatalogSpace
from .field import ZERO, ring_scalar
from .liealg import (
    Matrix,
    SparseRows,
    Subspace,
    ad_on,
    centralizer_in,
    commuting_operators,
    eigenspaces,
    gram_matrix,
    identity_matrix,
    is_positive_definite,
    lift_rows,
    mat_inverse,
    mat_mul,
    mat_transpose,
    matrix_kernel_of,
    ring_rows_commute,
    ring_rows_mul,
    rows_symmetric,
)


@dataclass(frozen=True)
class IsotypicComponent:
    """One isotypic piece of the isotropy action on m."""

    subspace: Subspace
    casimir_eigenvalue: Fraction
    refinement: tuple[Fraction, ...]
    multiplicity: int
    irreducible_dim: int
    division_type: str
    commutant_dim: int
    symmetric_commutant_dim: int

    @property
    def dim(self) -> int:
        return self.subspace.dim

    @property
    def is_trivial(self) -> bool:
        # the refinement vanishes on ker C (see the module docstring)
        return self.casimir_eigenvalue == 0

    @property
    def is_irreducible(self) -> bool:
        return self.multiplicity == 1


@dataclass(frozen=True)
class IsotypicDecomposition:
    """All components of a space, smallest dimension first."""

    space: CatalogSpace
    components: tuple[IsotypicComponent, ...]

    @property
    def profile(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    @property
    def trivial_index(self) -> int | None:
        trivial = [i for i, c in enumerate(self.components) if c.is_trivial]
        return trivial[0] if trivial else None

    @property
    def trivial_subspace(self) -> Subspace:
        """The fixed part of m, ker C (see the module docstring)."""
        if self.trivial_index is None:
            return Subspace.zero(self.space.algebra.dim)
        return self.components[self.trivial_index].subspace

    @property
    def invariant_metric_dim(self) -> int:
        return sum(c.symmetric_commutant_dim for c in self.components)


# ---------------------------------------------------------------------------
# per-space data
# ---------------------------------------------------------------------------

def per_space(build: Callable[[CatalogSpace], object], space: CatalogSpace):
    """build(space), built once and kept on the space (space.derived): every
    later reader of the space gets the same data."""
    if build not in space.derived:
        space.derived[build] = build(space)
    return space.derived[build]


@dataclass(frozen=True)
class IsotropyRows:
    """The per-space lift of the invariance data on m: the space's h_action,
    as ring rows of d ad(h_i)|_m for one common d > 0, and the Gram matrix
    of -form on the basis of m, as Scalars and as ring rows cleared of
    their own denominator (liealg.lift_rows)."""

    ad: tuple[SparseRows, ...]
    d: int
    gram: Matrix
    gram_rows: SparseRows


def _build_isotropy_action(space: CatalogSpace) -> IsotropyRows:
    """Lift the space's ad(h_i)|_m: this takes no bracket.  The Gram matrix
    of m is checked positive definite here, once per space, as casimir
    checks that of h: metric validation reads a block metric's
    definiteness off the signs of its coefficients, which holds only when
    S is positive definite."""
    ads = space.h_action
    n = space.m.dim
    stacked = lift_rows(row for A in ads for row in A)
    gram = gram_matrix(space.algebra, space.m.rows)
    if not is_positive_definite(gram):
        raise ArithmeticError(
            "invariant form is degenerate or not negative definite on m"
        )
    return IsotropyRows(
        ad=tuple(stacked[k * n:(k + 1) * n] for k in range(len(ads))),
        d=lcm(*(c.den for A in ads for row in A for c in row)),
        gram=gram,
        gram_rows=lift_rows(gram),
    )


def isotropy_action(space: CatalogSpace) -> IsotropyRows:
    """ad(h_i)|_m and the Gram matrix of m, lifted once per space by
    liealg.lift_rows: casimir, metric validation and the direction search
    all read these ring rows, and the search takes its int rows from them
    by liealg.int_rows."""
    return per_space(_build_isotropy_action, space)


# ---------------------------------------------------------------------------
# the casimir operator of the isotropy action
# ---------------------------------------------------------------------------

def casimir(space: CatalogSpace) -> Matrix:
    """Casimir of the h-action on m, as a matrix in the basis of m.

    C = sum_ij (G^-1)_ij ad(e_i)|_m ad(e_j)|_m for a basis {e_i} of h and
    G_ij = -form(e_i, e_j).  Exactly symmetric for the invariant form and
    commuting with the action (with the generators of h: module docstring);
    both are verified before returning, on ring rows of the matrices, each
    cleared of one denominator d > 0, which scales both sides of each test.
    The products run on the per-space ring rows of the d ad(e_i)|_m, and
    each is divided by d^2.
    """
    L = space.algebra
    G = gram_matrix(L, space.h.rows)
    if not is_positive_definite(G):
        raise ArithmeticError(
            "invariant form is degenerate or not negative definite on h"
        )
    Ginv = mat_inverse(G)
    action = isotropy_action(space)
    ads, dd = action.ad, action.d * action.d
    n = space.m.dim
    C = [[ZERO] * n for _ in range(n)]
    for i, j in product(range(len(ads)), repeat=2):
        if Ginv[i][j]:
            for out, row in zip(C, ring_rows_mul(ads[i], ads[j])):
                for k, v in row:
                    out[k] = out[k] + Ginv[i][j] * ring_scalar(v, dd)
    C_rows = lift_rows(C)
    if not rows_symmetric(ring_rows_mul(action.gram_rows, C_rows)):
        raise ArithmeticError("casimir is not symmetric for the form")
    if not all(ring_rows_commute(C_rows, ads[k]) for k in space.generators):
        raise ArithmeticError("casimir does not commute with the action")
    return C


# ---------------------------------------------------------------------------
# commutant solves (per component)
# ---------------------------------------------------------------------------

def _symmetric_span(mats: list[Matrix], S: Matrix, d: int) -> list[Matrix]:
    """The subspace of span(mats) symmetric with respect to the form S."""
    # The image of M is the antisymmetric part of S M, flattened.
    SMs = [mat_mul(S, M) for M in mats]
    return matrix_kernel_of(
        mats,
        [[SM[i][j] - SM[j][i] for i in range(d) for j in range(d)] for SM in SMs],
    )


def _multiplicity_annotation(
    dim: int, commutant_dim: int, symmetric_dim: int
) -> tuple[int, int, str]:
    """(multiplicity, irreducible_dim, division_type) from commutant sizes.

    An isotypic component of l equivalent irreducible real submodules with
    endomorphism division algebra D has commutant dimension l^2 dim(D) and
    symmetric part l(l+1)/2, l^2, or l(2l-1) for D = R, C, H respectively.
    The pair determines (l, D) uniquely.
    """
    matches = []
    for dim_d, name in ((1, "R"), (2, "C"), (4, "H")):
        if commutant_dim % dim_d:
            continue
        l = isqrt(commutant_dim // dim_d)
        if l == 0 or l * l * dim_d != commutant_dim:
            continue
        expected = {
            "R": l * (l + 1) // 2,
            "C": l * l,
            "H": l * (2 * l - 1),
        }[name]
        if expected == symmetric_dim and dim % l == 0:
            matches.append((l, dim // l, name))
    if len(matches) != 1:
        raise ArithmeticError(
            f"cannot classify component: dim {dim}, commutant "
            f"{commutant_dim}, symmetric part {symmetric_dim}"
        )
    return matches[0]


# ---------------------------------------------------------------------------
# the decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Analysis:
    decomposition: IsotypicDecomposition
    projections: tuple[Matrix, ...]
    symmetric_basis: tuple[Matrix, ...]


def _refine_by_center(
    space: CatalogSpace, pieces: list[tuple[Fraction, Subspace]]
) -> list[tuple[Subspace, Fraction, tuple[Fraction, ...]]]:
    """Split casimir eigenspaces, given with their eigenvalues, by the
    squared action of central elements."""
    L = space.algebra
    center = centralizer_in(L, space.h, space.h)
    tagged = [(p, lam, ()) for lam, p in pieces]
    for z in center.rows:
        refined = []
        for piece, lam, tags in tagged:
            # Exact: z is central in h, so ad(z) preserves every piece.
            A = ad_on(L, z, piece)
            refined.extend(
                (part, lam, tags + (mu,))
                for mu, part in eigenspaces(piece, mat_mul(A, A))
            )
        tagged = refined
    return tagged


def _analyze(space: CatalogSpace) -> _Analysis:
    L = space.algebra
    pieces = _refine_by_center(space, eigenspaces(space.m, casimir(space)))

    records = []
    for piece, lam, tags in pieces:
        ads = [ad_on(L, space.h.rows[k], piece) for k in space.generators]
        commuting = commuting_operators(ads, piece.dim)
        S = gram_matrix(L, piece.rows)
        symmetric = _symmetric_span(commuting, S, piece.dim)
        mult, irr_dim, division = _multiplicity_annotation(
            piece.dim, len(commuting), len(symmetric)
        )
        component = IsotypicComponent(
            subspace=piece,
            casimir_eigenvalue=lam,
            refinement=tags,
            multiplicity=mult,
            irreducible_dim=irr_dim,
            division_type=division,
            commutant_dim=len(commuting),
            symmetric_commutant_dim=len(symmetric),
        )
        records.append((component, symmetric))

    records.sort(
        key=lambda r: (
            r[0].dim,
            -r[0].casimir_eigenvalue,
            tuple(-t for t in r[0].refinement),
        )
    )
    components = tuple(c for c, _ in records)

    # mutual orthogonality (ad_on raised if a generator moved a piece out)
    for i, ci in enumerate(components):
        for cj in components[i + 1 :]:
            for b in ci.subspace.rows:
                for b2 in cj.subspace.rows:
                    if L.form_value(b, b2):
                        raise ArithmeticError("components are not orthogonal")

    decomposition = IsotypicDecomposition(space=space, components=components)

    # adapted-basis change for projections and commutant embedding
    n = space.m.dim
    adapted = [vec for c in components for vec in c.subspace.rows]
    T = mat_transpose([space.m.coords(vec) for vec in adapted])
    Tinv = mat_inverse(T)

    def lift(block: Matrix, offset: int) -> Matrix:
        """T . block . T^-1, with block placed on the diagonal at offset."""
        full = [[ZERO] * n for _ in range(n)]
        for i, row in enumerate(block):
            full[offset + i][offset:offset + len(row)] = row
        return mat_mul(mat_mul(T, full), Tinv)

    projections, symmetric_basis = [], []
    offset = 0
    for c, symmetric in records:
        projections.append(lift(identity_matrix(c.dim), offset))
        symmetric_basis.extend(lift(M, offset) for M in symmetric)
        offset += c.dim

    return _Analysis(
        decomposition=decomposition,
        projections=tuple(projections),
        symmetric_basis=tuple(symmetric_basis),
    )


def _analysis(space: CatalogSpace) -> _Analysis:
    return per_space(_analyze, space)


def isotypic_decompose(space: CatalogSpace) -> IsotypicDecomposition:
    """Decompose m into isotypic components of the h-action."""
    return _analysis(space).decomposition


def commutant_symmetric_basis(space: CatalogSpace) -> list[Matrix]:
    """Exact basis, in m-coordinates, of all form-symmetric operators on m
    commuting with the h-action.  Invariant metrics are exactly the positive
    definite combinations of these."""
    return list(_analysis(space).symmetric_basis)


def component_projections(space: CatalogSpace) -> list[Matrix]:
    """Projections onto each isotypic component, in m-coordinates."""
    return list(_analysis(space).projections)


def m_gram(space: CatalogSpace) -> Matrix:
    """Positive definite Gram matrix of -form on the basis of m (checked
    once per space, by isotropy_action)."""
    return [list(row) for row in isotropy_action(space).gram]


def decomposition_summary(space: CatalogSpace) -> dict:
    """JSON-ready description of the decomposition."""
    dec = isotypic_decompose(space)
    return {
        "space": space.space_id,
        "dim_m": space.dim_m,
        "profile": list(dec.profile),
        "trivial_index": dec.trivial_index,
        "invariant_metric_dim": dec.invariant_metric_dim,
        "components": [
            {
                "dim": c.dim,
                "casimir_eigenvalue": str(c.casimir_eigenvalue),
                "refinement": [str(t) for t in c.refinement],
                "multiplicity": c.multiplicity,
                "irreducible_dim": c.irreducible_dim,
                "irreducible": c.is_irreducible,
                "division_type": c.division_type,
                "commutant_dim": c.commutant_dim,
                "symmetric_commutant_dim": c.symmetric_commutant_dim,
            }
            for c in dec.components
        ],
    }
