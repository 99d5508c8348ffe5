"""Unit tests for structure constants and the compact real forms."""

from fractions import Fraction

import pytest

from rank2go.field import ZERO, scalar
from rank2go.chevalley import (
    build_compact_form,
    c_bracket,
    complete_structure_constants,
    complex_E,
    complex_H,
    coroot_coefficients,
    summary_dict,
    validate_structure_constants,
)
from rank2go.liealg import is_zero_vector, unit_vector, vec_scale, zero_vector
from rank2go.rootsys import build_root_system, cartan_int, chain_down_length

A, B = (1, 0), (0, 1)


def test_seeds_determine_everything_without_fallback():
    for fam in ("a2", "a1a1", "c2", "g2"):
        rs = build_root_system(fam)
        table = complete_structure_constants(rs)
        pairs = sum(
            1
            for g in rs.roots
            for d in rs.roots
            if rs.is_root((g[0] + d[0], g[1] + d[1]))
        )
        assert len(table) == pairs


def test_frozen_constant_values():
    a2 = complete_structure_constants(build_root_system("a2"))
    assert a2[(A, B)] == 1
    assert a2[(B, A)] == -1
    assert a2[((-1, -1), A)] == 1

    c2 = complete_structure_constants(build_root_system("c2"))
    assert c2[(A, B)] == 1
    assert c2[(B, (-1, -1))] == 2
    assert c2[((1, 1), B)] == 2
    assert c2[(B, (-1, -2))] == 1

    g2 = complete_structure_constants(build_root_system("g2"))
    assert g2[(B, A)] == 1
    assert g2[(A, B)] == -1
    assert g2[(A, (2, 1))] == 3
    assert g2[(A, (-1, -1))] == 3
    assert g2[((1, 1), A)] == 2
    assert g2[(A, (1, 1))] == -2
    assert g2[((1, 1), (2, 1))] == 3
    assert g2[(B, (3, 1))] == 1


def test_magnitude_law_holds_everywhere():
    for fam in ("a2", "c2", "g2"):
        rs = build_root_system(fam)
        table = complete_structure_constants(rs)
        for (g, d), v in table.items():
            assert abs(v) == chain_down_length(rs, g, d) + 1


def test_validation_catches_tampering():
    rs = build_root_system("a2")
    table = complete_structure_constants(rs)
    bad = dict(table)
    bad[(A, B)] = 2
    with pytest.raises(ValueError):
        validate_structure_constants(rs, bad)
    incomplete = dict(table)
    del incomplete[(A, B)]
    with pytest.raises(ValueError):
        validate_structure_constants(rs, incomplete)


def test_complex_bracket_basics():
    rs = build_root_system("a2")
    table = complete_structure_constants(rs)
    # [E_a, E_b] = N[a,b] E_{a+b}
    z = c_bracket(rs, table, complex_E(A), complex_E(B))
    assert z == {("E", (1, 1)): (scalar(1), ZERO)}
    # [E_a, E_{-a}] = H_a
    z = c_bracket(rs, table, complex_E(A), complex_E((-1, 0)))
    assert z == complex_H(rs, A)
    # [H_a, E_b] = <b, a> E_b = -E_b
    z = c_bracket(rs, table, complex_H(rs, A), complex_E(B))
    assert z == {("E", B): (scalar(-1), ZERO)}


def test_coroot_coefficients_match_known_expansions():
    g2 = build_root_system("g2")
    assert coroot_coefficients(g2, (1, 1)) == (Fraction(1), Fraction(3))
    assert coroot_coefficients(g2, (2, 1)) == (Fraction(2), Fraction(3))
    assert coroot_coefficients(g2, (3, 1)) == (Fraction(1), Fraction(1))
    assert coroot_coefficients(g2, (3, 2)) == (Fraction(1), Fraction(2))
    assert coroot_coefficients(g2, (9, 5)) == (Fraction(3, 7), Fraction(5, 7))
    assert coroot_coefficients(g2, (1, -1)) == (Fraction(1, 7), Fraction(-3, 7))
    c2 = build_root_system("c2")
    assert coroot_coefficients(c2, (1, 1)) == (Fraction(2), Fraction(1))
    assert coroot_coefficients(c2, (1, 2)) == (Fraction(1), Fraction(1))
    a2 = build_root_system("a2")
    assert coroot_coefficients(a2, (1, 1)) == (Fraction(1), Fraction(1))


def test_compact_dimensions_and_labels():
    dims = {"a2": 8, "a1a1": 6, "c2": 10, "g2": 14}
    for fam, d in dims.items():
        cf = build_compact_form(fam)
        assert cf.dim == d
        assert cf.algebra.labels[0] == "iH[a]"
        assert cf.algebra.labels[1] == "iH[b]"
        assert cf.algebra.labels[2] == "F[a]"
        assert cf.algebra.labels[3] == "G[a]"


def test_jacobi_identity_all_basis_triples():
    for fam in ("a2", "a1a1", "c2", "g2"):
        L = build_compact_form(fam).algebra
        basis = [L.basis_vector(i) for i in range(L.dim)]
        for u in basis:
            for v in basis:
                for w in basis:
                    assert is_zero_vector(L.jacobi_defect(u, v, w))


def test_killing_scales():
    # Ratio between tr(ad x ad y) and the stored normalized form.  For the
    # simple families this is 2 h * (long root length)^2 / 2 in the scaling
    # where alpha^2 = 1; concretely: sum over roots d of <d, a>^2 divided by 4.
    expected = {"a2": 3, "a1a1": 2, "c2": 3, "g2": 12}
    for fam, s in expected.items():
        assert build_compact_form(fam).algebra.killing_scale == Fraction(s)


def test_killing_diagonal_values():
    a2 = build_compact_form("a2")
    for g in a2.root_system.positive_roots:
        for v in (a2.f_vector(g), a2.g_vector(g)):
            assert a2.algebra.killing(v, v) == scalar(-4)

    c2 = build_compact_form("c2")
    expect = {(1, 0): -4, (1, 2): -4, (0, 1): -8, (1, 1): -8}
    for g, val in expect.items():
        assert c2.algebra.killing(c2.f_vector(g), c2.f_vector(g)) == scalar(val)

    g2 = build_compact_form("g2")
    for g in ((1, 0), (1, 1), (2, 1)):
        assert g2.algebra.killing(g2.f_vector(g), g2.f_vector(g)) == scalar(-4)
    for g in ((0, 1), (3, 1), (3, 2)):
        assert g2.algebra.killing(g2.f_vector(g), g2.f_vector(g)) == scalar(
            Fraction(-4, 3)
        )


def test_killing_equals_stored_form_everywhere():
    for fam in ("a2", "c2"):
        L = build_compact_form(fam).algebra
        for i in range(L.dim):
            for j in range(L.dim):
                v, w = L.basis_vector(i), L.basis_vector(j)
                assert L.killing(v, w) == L.form_value(v, w)


def test_compact_bracket_patterns():
    g2 = build_compact_form("g2")
    L = g2.algebra
    # [F_g, G_g] = 2 i H_g
    fg = L.bracket(g2.f_vector((1, 1)), g2.g_vector((1, 1)))
    assert fg == g2.ih_vector((1, 1), 2)
    # [iH_a, F_b] = <b, a> G_b = -3 G_b
    z = L.bracket(L.basis_vector("iH[a]"), g2.f_vector(B))
    assert z == vec_scale(-3, g2.g_vector(B))
    # [iH_a, G_b] = -<b, a> F_b = 3 F_b
    z = L.bracket(L.basis_vector("iH[a]"), g2.g_vector(B))
    assert z == vec_scale(3, g2.f_vector(B))
    # [F_a, F_b] = N[a,b] F_{a+b} (a - b is not a root here)
    z = L.bracket(g2.f_vector(A), g2.f_vector(B))
    assert z == vec_scale(g2.constants[(A, B)], g2.f_vector((1, 1)))
    # Cartan vectors commute.
    assert is_zero_vector(
        L.bracket(L.basis_vector("iH[a]"), L.basis_vector("iH[b]"))
    )


def test_root_space_bracket_support():
    # [m_g, m_d] lands in m_{g+d} + m_{g-d} (+ Cartan when g = d).
    g2 = build_compact_form("g2")
    L = g2.algebra
    for g in g2.root_system.positive_roots:
        for d in g2.root_system.positive_roots:
            allowed = set()
            for s in (
                (g[0] + d[0], g[1] + d[1]),
                (g[0] - d[0], g[1] - d[1]),
            ):
                if g2.root_system.is_root(s):
                    pos = s if g2.root_system.is_positive(s) else (-s[0], -s[1])
                    t = g2.root_system.positive_roots.index(pos)
                    allowed.update({2 + 2 * t, 3 + 2 * t})
            if g == d:
                allowed.update({0, 1})
            for x in (g2.f_vector(g), g2.g_vector(g)):
                for y in (g2.f_vector(d), g2.g_vector(d)):
                    w = L.bracket(x, y)
                    for idx, c in enumerate(w):
                        if c:
                            assert idx in allowed


def test_collapse_rejects_non_compact_elements():
    a2 = build_compact_form("a2")
    with pytest.raises(ValueError):
        a2.collapse(complex_E(A))
    with pytest.raises(ValueError):
        a2.collapse(complex_H(a2.root_system, A))


def test_expand_collapse_round_trip():
    g2 = build_compact_form("g2")
    v = g2.algebra.element({"iH[a]": 2, "F[a+b]": scalar(3), "G[3a+2b]": -1})
    assert g2.collapse(g2.expand(v)) == v


def test_summary_dict_shape():
    cf = build_compact_form("c2")
    info = summary_dict(cf)
    assert info["family"] == "c2"
    assert info["dimension"] == 10
    assert info["killing_scale"] == "3"
    assert info["structure_constants"]["N[a,b]"] == 1
    assert len(info["basis"]) == 10
    assert info["form_diagonal"]["F[b]"] == "-8"
