"""Tests for the isotypic decomposition and the equivariant commutant."""

import hashlib
import json
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from rank2go.embed import (
    CATALOG_IDS,
    ROW_IDS,
    catalog_space,
    compactify_sl2_triple,
    sl2_triple_for_row,
)
from rank2go.field import ZERO
from rank2go import isotypic
from rank2go.isotypic import (
    casimir,
    commutant_symmetric_basis,
    component_projections,
    decomposition_summary,
    isotropy_action,
    isotypic_decompose,
    m_gram,
)
from rank2go.liealg import (
    LieAlgebra,
    Subspace,
    abelian,
    ad_on,
    centralizer_in,
    commuting_operators,
    eigenspace_in,
    eigenspaces,
    kernel_basis,
    mat_mul,
    mat_transpose,
    minimal_polynomial,
    normalizer,
    operator_on_subspace,
    rational_roots,
    solve_columns,
    subalgebra_closure,
)
from rank2go.embed import CatalogSpace

# Frozen expectations, one tuple per component in decomposition order:
# (dim, casimir eigenvalue, refinement, multiplicity, irreducible_dim,
#  division_type, commutant_dim, symmetric_commutant_dim).
#
# Every casimir eigenvalue below was re-derived by hand from the trace
# identity: on an isotypic block of a normalized su(2) triple (u, v, w) with
# -form(u,u) = g, the Casimir acts by 3 * tr(ad(w)^2 | block) / (g * dim),
# and tr(ad(w)^2) is minus the sum of squared integer weights.  For spaces
# whose h has a center the central charge contributes ad(z)^2 / (-form(z,z)).
F = Fraction
EXPECTED_COMPONENTS = {
    "a2.1": (
        (1, F(0), (), 1, 1, "R", 1, 1),
        (4, F(-3, 4), (), 1, 4, "H", 4, 1),
    ),
    "a2.2": ((5, F(-3, 2), (), 1, 5, "R", 1, 1),),
    "a1a1.1": ((3, F(0), (), 3, 1, "R", 9, 6),),
    "a1a1.2": ((3, F(0), (), 3, 1, "R", 9, 6),),
    "a1a1.3": ((3, F(-1), (), 1, 3, "R", 1, 1),),
    "c2.1": (
        (3, F(0), (), 3, 1, "R", 9, 6),
        (4, F(-3, 4), (), 1, 4, "H", 4, 1),
    ),
    "c2.2": (
        (1, F(0), (), 1, 1, "R", 1, 1),
        (6, F(-1), (), 2, 3, "R", 4, 3),
    ),
    "c2.3": ((7, F(-6, 5), (), 1, 7, "R", 1, 1),),
    "g2.1": (
        (3, F(0), (), 3, 1, "R", 9, 6),
        (8, F(-15, 4), (), 1, 8, "H", 4, 1),
    ),
    "g2.2": (
        (3, F(0), (), 3, 1, "R", 9, 6),
        (8, F(-9, 4), (), 2, 4, "H", 16, 6),
    ),
    "g2.3": (
        (5, F(-9, 2), (), 1, 5, "R", 1, 1),
        (6, F(-3, 2), (), 2, 3, "R", 4, 3),
    ),
    "g2.4": ((11, F(-45, 14), (), 1, 11, "R", 1, 1),),
    "berger": (
        (1, F(0), (F(0),), 1, 1, "R", 1, 1),
        (2, F(-1, 2), (F(-4),), 1, 2, "C", 2, 1),
    ),
    "cp3": (
        (2, F(-1), (F(-4),), 1, 2, "C", 2, 1),
        (4, F(-1), (F(-1),), 1, 4, "C", 2, 1),
    ),
}

EXPECTED_TRIVIAL_INDEX = {
    "a2.1": 0, "a2.2": None,
    "a1a1.1": 0, "a1a1.2": 0, "a1a1.3": None,
    "c2.1": 0, "c2.2": 0, "c2.3": None,
    "g2.1": 0, "g2.2": 0, "g2.3": None, "g2.4": None,
    "berger": 0, "cp3": None,
}


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_component_data_matches_frozen_expectations(space_id):
    dec = isotypic_decompose(catalog_space(space_id))
    got = tuple(
        (
            c.dim,
            c.casimir_eigenvalue,
            c.refinement,
            c.multiplicity,
            c.irreducible_dim,
            c.division_type,
            c.commutant_dim,
            c.symmetric_commutant_dim,
        )
        for c in dec.components
    )
    assert got == EXPECTED_COMPONENTS[space_id]
    assert dec.trivial_index == EXPECTED_TRIVIAL_INDEX[space_id]
    assert sum(c.dim for c in dec.components) == catalog_space(space_id).dim_m


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_components_orthogonal_invariant_and_exhaustive(space_id):
    sp = catalog_space(space_id)
    dec = isotypic_decompose(sp)
    L = sp.algebra
    total = Subspace.zero(L.dim)
    for c in dec.components:
        total = total.add(c.subspace)
        assert sp.m.contains_subspace(c.subspace)
        for a in sp.h.rows:
            for b in c.subspace.rows:
                assert c.subspace.contains(L.bracket(a, b))
    assert total == sp.m
    for i, ci in enumerate(dec.components):
        for cj in dec.components[i + 1:]:
            for x in ci.subspace.rows:
                for y in cj.subspace.rows:
                    assert not L.form_value(x, y)


def test_exact_component_spans():
    # a2.1: the fixed line and the sum of the two simple root spaces.
    sp = catalog_space("a2.1")
    cf = sp.compact
    dec = isotypic_decompose(sp)
    assert dec.components[0].subspace == Subspace.from_vectors(
        cf.dim, [cf.algebra.element({"iH[a]": 1, "iH[b]": -1})]
    )
    assert dec.components[1].subspace == cf.root_space((1, 0)).add(
        cf.root_space((0, 1))
    )

    # c2.1: fixed part is a 3-dim subalgebra, the rest is 4-dim.
    sp = catalog_space("c2.1")
    cf = sp.compact
    dec = isotypic_decompose(sp)
    expected_p = Subspace.from_vectors(
        cf.dim,
        [cf.algebra.basis_vector("iH[a]")] + list(cf.root_space((1, 0)).rows),
    )
    assert dec.components[0].subspace == expected_p
    assert subalgebra_closure(cf.algebra, expected_p.rows) == expected_p
    assert dec.components[1].subspace == cf.root_space((0, 1)).add(
        cf.root_space((1, 1))
    )

    # c2.2: fixed line along the short simple coroot; 6-dim remainder.
    sp = catalog_space("c2.2")
    cf = sp.compact
    dec = isotypic_decompose(sp)
    assert dec.components[0].subspace == Subspace.from_vectors(
        cf.dim, [cf.algebra.basis_vector("iH[b]")]
    )
    assert dec.components[1].subspace == (
        cf.root_space((1, 0)).add(cf.root_space((0, 1))).add(cf.root_space((1, 2)))
    )

    # g2.1 and g2.2: trivial components along the orthogonal long/short root.
    sp = catalog_space("g2.1")
    cf = sp.compact
    dec = isotypic_decompose(sp)
    assert dec.components[0].subspace == Subspace.from_vectors(
        cf.dim,
        [cf.ih_vector((3, 2))] + list(cf.root_space((3, 2)).rows),
    )
    sp = catalog_space("g2.2")
    cf = sp.compact
    dec = isotypic_decompose(sp)
    assert dec.components[0].subspace == Subspace.from_vectors(
        cf.dim,
        [cf.ih_vector((2, 1))] + list(cf.root_space((2, 1)).rows),
    )

    # g2.3: 5-dim piece spanned by the anti-balanced partner triple plus the
    # (3,1) root space; 6-dim piece from the three remaining root spaces.
    sp = catalog_space("g2.3")
    cf = sp.compact
    dec = isotypic_decompose(sp)
    from rank2go.field import SQRT2
    from rank2go.liealg import vec_add, vec_scale

    partner = [
        vec_add(
            vec_scale(SQRT2, cf.f_vector((3, 2))),
            vec_scale(SQRT2, cf.f_vector((0, 1))),
        ),
        vec_add(
            vec_scale(SQRT2, cf.g_vector((3, 2))),
            vec_scale(-SQRT2, cf.g_vector((0, 1))),
        ),
        cf.ih_vector((1, 1), 2),
    ]
    expected_5 = Subspace.from_vectors(
        cf.dim, partner + list(cf.root_space((3, 1)).rows)
    )
    assert dec.components[0].subspace == expected_5
    assert dec.components[1].subspace == (
        cf.root_space((1, 0)).add(cf.root_space((1, 1))).add(cf.root_space((2, 1)))
    )

    # cp3: fiber root space, then the two remaining root spaces.
    sp = catalog_space("cp3")
    cf = sp.compact
    dec = isotypic_decompose(sp)
    assert dec.components[0].subspace == cf.root_space((1, 0))
    assert dec.components[1].subspace == cf.root_space((0, 1)).add(
        cf.root_space((1, 1))
    )

    # berger: fixed line and the rotating plane.
    sp = catalog_space("berger")
    L = sp.algebra
    dec = isotypic_decompose(sp)
    assert dec.components[0].subspace == Subspace.from_vectors(
        L.dim, [L.element({"iH": 1, "Z": -1})]
    )
    assert dec.components[1].subspace == Subspace.from_vectors(
        L.dim, [L.basis_vector("F"), L.basis_vector("G")]
    )


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_casimir_commutes_is_symmetric_and_kills_fixed_vectors(space_id):
    sp = catalog_space(space_id)
    L = sp.algebra
    C = casimir(sp)
    S = [[-L.form_value(v, w) for w in sp.m.rows] for v in sp.m.rows]
    SC = mat_mul(S, C)
    assert SC == mat_transpose(SC)
    for a in sp.h.rows:
        A = operator_on_subspace(lambda v: L.bracket(a, v), sp.m)
        assert mat_mul(C, A) == mat_mul(A, C)
    fixed = centralizer_in(L, sp.h, sp.m)
    for v in fixed.rows:
        coords = sp.m.coords(v)
        n = sp.m.dim
        image = [
            sum((C[i][j] * coords[j] for j in range(n) if coords[j]), ZERO)
            for i in range(n)
        ]
        assert not any(image)


def test_casimir_distinct_eigenvalue_counts():
    C = casimir(catalog_space("c2.1"))
    roots = set(rational_roots(minimal_polynomial(C)))
    assert len(roots) == 2
    C = casimir(catalog_space("g2.3"))
    roots = sorted(set(rational_roots(minimal_polynomial(C))))
    assert len(roots) == 2
    dims = [
        eigenspace_in(catalog_space("g2.3").m, C, lam).dim for lam in roots
    ]
    assert sorted(dims) == [5, 6]


def test_casimir_rejects_non_negative_definite_form():
    L = abelian(("X",), (4,))  # positive form: -form is not positive definite
    bad = CatalogSpace(
        space_id="bad-form",
        description="synthetic space with a positive form on h",
        algebra=L,
        h=Subspace.full(1),
        m=Subspace.zero(1),
        generators=(0,),
        h_action=([],),
    )
    with pytest.raises(ArithmeticError):
        casimir(bad)


def test_isotropy_action_rejects_non_negative_definite_form_on_m():
    # A block metric is accepted on the signs of its coefficients, which
    # decide positive definiteness only when -form is positive definite on
    # m: the per-space build checks it.
    L = abelian(("X",), (4,))  # positive form: -form is not positive definite
    bad = CatalogSpace(
        space_id="bad-form-m",
        description="synthetic space with a positive form on m",
        algebra=L,
        h=Subspace.zero(1),
        m=Subspace.full(1),
        generators=(),
        h_action=(),
    )
    with pytest.raises(ArithmeticError, match="not negative definite on m"):
        isotropy_action(bad)
    with pytest.raises(ArithmeticError, match="not negative definite on m"):
        isotypic_decompose(bad)


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_trivial_component_three_ways(space_id):
    """The zero-Casimir component is the centralizer of h in m, and it is
    the normalizer of h met with m."""
    sp = catalog_space(space_id)
    L = sp.algebra
    fixed = isotypic_decompose(sp).trivial_subspace
    assert fixed == centralizer_in(L, sp.h, sp.m)
    assert fixed == normalizer(L, sp.h).intersection(sp.m)


def test_decomposition_never_scans_the_whole_algebra(monkeypatch):
    """A cold decomposition reads the fixed part from its own components:
    nothing in it builds the full subspace of the algebra, as the
    normalizer of h does."""
    spaces = [catalog_space.__wrapped__(sid) for sid in CATALOG_IDS]
    calls = []
    full_subspace = LieAlgebra.full_subspace

    def spy(self):
        calls.append(self.name)
        return full_subspace(self)

    monkeypatch.setattr(LieAlgebra, "full_subspace", spy)
    for sp in spaces:
        isotypic_decompose(sp)
    assert calls == []


# Rows of h that the greedy generator search picks: two of each su(2), the
# one row of berger's h, and three of the four rows of cp3's u(1) + sp(1).
EXPECTED_GENERATORS = dict.fromkeys(ROW_IDS, 2) | {"berger": 1, "cp3": 3}


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_generators_have_the_commutant_of_h(space_id):
    """The generators close to h, and on every component the operators
    commuting with their action are those commuting with all of h's."""
    sp = catalog_space(space_id)
    L = sp.algebra
    gens = [sp.h.rows[k] for k in sp.generators]
    assert len(gens) == EXPECTED_GENERATORS[space_id]
    assert subalgebra_closure(L, gens) == sp.h
    for comp in isotypic_decompose(sp).components:
        piece, d = comp.subspace, comp.dim
        on_gens = commuting_operators([ad_on(L, g, piece) for g in gens], d)
        on_h = commuting_operators([ad_on(L, a, piece) for a in sp.h.rows], d)
        assert on_gens == on_h
        assert len(on_gens) == comp.commutant_dim


def test_decomposition_brackets_h_with_m_once(monkeypatch):
    """On fresh spaces, the isotropy action lifts the matrices that the
    build computed without taking a bracket, and every commutant is solved
    over the generators of h only."""
    spaces = [catalog_space.__wrapped__(sid) for sid in CATALOG_IDS]
    brackets = []
    bracket = LieAlgebra.bracket

    def bracket_spy(self, v, w):
        brackets.append(self.name)
        return bracket(self, v, w)

    sizes = []
    solve = isotypic.commuting_operators

    def solve_spy(ads, d):
        sizes.append(len(ads))
        return solve(ads, d)

    monkeypatch.setattr(isotypic, "commuting_operators", solve_spy)
    for sp in spaces:
        monkeypatch.setattr(LieAlgebra, "bracket", bracket_spy)
        action = isotropy_action(sp)
        monkeypatch.setattr(LieAlgebra, "bracket", bracket)
        assert brackets == [], sp.space_id
        assert len(action.ad) == sp.dim_h
        sizes.clear()
        isotypic_decompose(sp)
        assert sizes and set(sizes) == {len(sp.generators)}, sp.space_id


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_commutant_basis_is_symmetric_equivariant_and_blockwise(space_id):
    sp = catalog_space(space_id)
    L = sp.algebra
    basis = commutant_symmetric_basis(sp)
    dec = isotypic_decompose(sp)
    assert len(basis) == dec.invariant_metric_dim
    S = m_gram(sp)
    ads = [
        operator_on_subspace(lambda v, a=a: L.bracket(a, v), sp.m)
        for a in sp.h.rows
    ]
    projections = component_projections(sp)
    n = sp.dim_m
    psum = [[ZERO] * n for _ in range(n)]
    for P in projections:
        assert mat_mul(P, P) == P
        psum = [[psum[i][j] + P[i][j] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            assert psum[i][j] == (1 if i == j else 0)
    for B in basis:
        SB = mat_mul(S, B)
        assert SB == mat_transpose(SB)
        for A in ads:
            assert mat_mul(B, A) == mat_mul(A, B)
        for k, Pk in enumerate(projections):
            for l, Pl in enumerate(projections):
                if k != l:
                    prod = mat_mul(mat_mul(Pk, B), Pl)
                    assert all(not x for row in prod for x in row)


@pytest.mark.parametrize("space_id", CATALOG_IDS)
def test_commutant_against_naive_full_solve(space_id):
    # Independent oracle: solve the full symmetric-commutant system on m in
    # one shot, with no component knowledge, and compare with the blockwise
    # basis.
    sp = catalog_space(space_id)
    L = sp.algebra
    n = sp.dim_m
    ads = [
        operator_on_subspace(lambda v, a=a: L.bracket(a, v), sp.m)
        for a in sp.h.rows
    ]
    S = m_gram(sp)
    rows = []
    for A in ads:
        for i in range(n):
            for j in range(n):
                row = [ZERO] * (n * n)
                for q in range(n):
                    row[i * n + q] = row[i * n + q] + A[q][j]
                for p in range(n):
                    row[p * n + j] = row[p * n + j] - A[i][p]
                rows.append(row)
    # symmetry of S*T: for i < j require (S T)[i][j] - (S T)[j][i] = 0
    for i in range(n):
        for j in range(i + 1, n):
            row = [ZERO] * (n * n)
            for q in range(n):
                row[q * n + j] = row[q * n + j] + S[i][q]
            for q in range(n):
                row[q * n + i] = row[q * n + i] - S[j][q]
            rows.append(row)
    naive = kernel_basis(rows, n * n)
    blockwise = commutant_symmetric_basis(sp)
    assert len(naive) == len(blockwise)
    flat_cols = [
        tuple(B[i][j] for i in range(n) for j in range(n)) for B in blockwise
    ]
    for t in naive:
        sol, _, _ = solve_columns(flat_cols, tuple(t))
        assert sol is not None


@pytest.mark.parametrize("space_id", ["c2.2", "g2.3"])
def test_multiplicity_two_blocks_split_into_equivalent_submodules(space_id):
    # The six-dimensional blocks contain two equivalent three-dimensional
    # submodules; exhibit a proper invariant submodule by eigen-splitting a
    # non-scalar commutant element.
    sp = catalog_space(space_id)
    L = sp.algebra
    dec = isotypic_decompose(sp)
    comp = dec.components[-1]
    assert comp.dim == 6 and comp.multiplicity == 2
    ads = [
        operator_on_subspace(lambda v, a=a: L.bracket(a, v), comp.subspace)
        for a in sp.h.rows
    ]
    d = comp.dim
    rows = []
    for A in ads:
        for i in range(d):
            for j in range(d):
                row = [ZERO] * (d * d)
                for q in range(d):
                    row[i * d + q] = row[i * d + q] + A[q][j]
                for p in range(d):
                    row[p * d + j] = row[p * d + j] - A[i][p]
                rows.append(row)
    found_proper_submodule = False
    for t in kernel_basis(rows, d * d):
        T = [[t[i * d + j] for j in range(d)] for i in range(d)]
        try:
            lams = sorted(set(rational_roots(minimal_polynomial(T))))
        except ArithmeticError:
            continue
        if len(lams) < 2:
            continue
        part = eigenspace_in(comp.subspace, T, lams[0])
        if 0 < part.dim < d:
            for a in sp.h.rows:
                for b in part.rows:
                    assert part.contains(L.bracket(a, b))
            found_proper_submodule = True
            break
    assert found_proper_submodule


def test_summary_is_json_ready():
    for space_id in ("a2.1", "g2.2", "cp3", "berger"):
        summary = decomposition_summary(catalog_space(space_id))
        text = json.dumps(summary, sort_keys=True)
        assert json.loads(text) == summary
        assert summary["profile"] == [
            c[0] for c in EXPECTED_COMPONENTS[space_id]
        ]
        assert summary["invariant_metric_dim"] == sum(
            c[7] for c in EXPECTED_COMPONENTS[space_id]
        )


# -- the sl2 weight oracle ----------------------------------------------------
#
# On the twelve rows h = su(2) is the compact image (u, v, w) of an sl2
# triple, with w = i h for the standard h of weights d, d - 2, ..., -d on the
# complex irreducible V_d of highest weight d.  So (ad w|_m)^2 has the
# eigenvalue -k^2 on the weight-(+-k) vectors of the complexified m: with
# n_k of them for weight k, its multiplicity is 2 n_k for k > 0 and n_0 for
# k = 0, and V_k occurs n_k - n_{k+2} times.  This reads the irreducibles off
# the weights alone, apart from the Casimir and the commutant.

def weight_oracle(row: int) -> Counter:
    """{highest weight k: copies of V_k in the complexified m} of a row."""
    sp = catalog_space(ROW_IDS[row - 1])
    _, _, w = compactify_sl2_triple(*sl2_triple_for_row(row))
    A = ad_on(sp.algebra, w, sp.m)
    n = {}
    for lam, piece in eigenspaces(sp.m, mat_mul(A, A)):
        k = isqrt(int(-lam))
        assert lam == -k * k
        n[k] = piece.dim if k == 0 else piece.dim // 2
    return Counter({k: n[k] - n.get(k + 2, 0) for k in n if n[k] > n.get(k + 2, 0)})


def summary_weights(summary: dict) -> Counter:
    """The same count from the annotations: l real irreducibles of dim d
    complexify to l copies of V_{d-1}; l quaternionic ones to 2l copies of
    V_{d/2-1}.  su(2) has no irreducible of complex type."""
    out = Counter()
    for c in summary["components"]:
        l, d = c["multiplicity"], c["irreducible_dim"]
        assert c["division_type"] in ("R", "H")
        if c["division_type"] == "R":
            out[d - 1] += l
        else:
            out[d // 2 - 1] += 2 * l
    return out


@pytest.mark.parametrize("row", range(1, len(ROW_IDS) + 1))
def test_weights_predict_the_decomposition(row):
    summary = decomposition_summary(catalog_space(ROW_IDS[row - 1]))
    assert weight_oracle(row) == summary_weights(summary)


# SHA-256 of each space's decomposition, recorded before the nonzero-entry
# loops of liealg: the summary, the symmetric commutant basis, the
# component projections and the Gram matrix of m, every entry as exact_str.
DECOMPOSITION_SHA256 = {
    "a2.1": "e8ddc6dfb7ed2d3cc9830676d2b3adfa6242ee6ddd3cb89dd1df41cf706f0cfa",
    "a2.2": "caad4eb7ae4a04ed30ee886d2dc8b48f3070a38de73981a760536c0906dd9e8a",
    "a1a1.1": "d9854666e922bca8e00533ea6a6362c046e00da46721ebbb7aeb92b759931d65",
    "a1a1.2": "4aed9a097c4ab292b0c0ed19125763db8396ad7c35b6d5a2ceb892209d51127f",
    "a1a1.3": "56d3143bf6d14160d2797428cc367619ff4fbb9ad47f5626f0ecf473f45bf4ed",
    "c2.1": "5b65f3fdda0490ad2e65adf7ffdf56b6656daf17836fa1bc99fbf35430cfd025",
    "c2.2": "e259e59778bc70115403bad5d1412dffeb9b75733819c50a679739222f90dba3",
    "c2.3": "e24eded349f408a6af5f1f9d062689b98513234c48ed819fb7bbd1ac735cc7ca",
    "g2.1": "83211b4b49db41ed5ca64181e6586597d077e52fbc6348c307b1655c59732bfd",
    "g2.2": "fe2dd1b0e63e0c2c28a08d8e27eeb444c21a3045f8eff006b8ba4675e17c968e",
    "g2.3": "4fb15f647881d6f3c10b45210786e5c2b4ad09175fa6c5e52fbeb3bc4a3bc691",
    "g2.4": "45d98661f49b70280275c8936569fd7dc3b7fb7e8a55f2cf15f71173d9738a95",
    "berger": "cc65cf99ee2a675007ac19cd679519bd1574505c321e00f9dd17c82530ecfc16",
    "cp3": "f601ad09cc8a202c1135f4296c81a3b6ae9a77f886fc81ad4e26f18962eb195e",
}


def test_decompositions_match_the_golden_hashes():
    assert sorted(DECOMPOSITION_SHA256) == sorted(CATALOG_IDS)
    for space_id in CATALOG_IDS:
        space = catalog_space(space_id)

        def exact(mats):
            return [[[x.exact_str() for x in row] for row in M] for M in mats]

        text = json.dumps(
            {
                "summary": decomposition_summary(space),
                "symmetric_basis": exact(commutant_symmetric_basis(space)),
                "projections": exact(component_projections(space)),
                "m_gram": exact([m_gram(space)])[0],
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == DECOMPOSITION_SHA256[space_id], space_id
